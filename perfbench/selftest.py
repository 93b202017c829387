"""Tests of the benchmark itself (not collected by a bare ``pytest``).

    python3 -m pytest -q perfbench/selftest.py

Each case runs ``perfbench/run.py`` as a child in its own session on the
shortest setting and then checks, from outside, that no process of
that session and no shared-memory segment of that run is left — also
when the hard wall-clock cap stops the run.
"""

from __future__ import annotations

import glob
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.harness import Tracer, quantile  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def session_members(sid: int):
    """Live pids whose session id is ``sid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            out.append(int(entry))
    return out


def run_bench(workload, seconds=1, trace=0, expire_after=None, timeout=170):
    """Run the benchmark; with ``expire_after``, fire its wall-clock cap
    that many seconds in (the cap is a ``SIGALRM``, so sending one does
    exactly what the cap's own timer does)."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        if expire_after is not None:
            try:
                proc.wait(timeout=expire_after)
            except subprocess.TimeoutExpired:
                os.kill(proc.pid, signal.SIGALRM)
        stdout, stderr = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    # the benchmark waits for its children; allow the kernel a moment
    deadline = time.monotonic() + 5
    while session_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert session_members(proc.pid) == [], "processes left behind"
    assert glob.glob(f"/dev/shm/rgfd-{proc.pid}-*") == [], "segments left behind"
    return proc.returncode, stdout, stderr


def test_spec_meets_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"]
    )
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("session.validate"):
        with tracer.span("engine.execute_unit"):
            time.sleep(0.02)
        time.sleep(0.01)
    own = tracer.self_times()
    assert 0.015 < own["engine"] < 0.05
    assert 0.005 < own["session"] < 0.02
    assert quantile([3, 1, 2, 4], 0.5) == 2 and quantile([1], 0.99) == 1


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_shortest_run_is_correct_and_leaves_nothing(workload):
    code, stdout, stderr = run_bench(workload)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert code == 0, stdout[-3000:] + stderr[-3000:]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    code, stdout, stderr = run_bench("serve-mixed", trace=1)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert code == 0, stdout[-3000:] + stderr[-3000:]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["service.batches"]["value"] > 0
    assert result["metrics"]["self.service_s"]["value"] > 0


@pytest.mark.parametrize(
    "workload, expire_after", [("validate-powerlaw", 5), ("serve-mixed", 14)]
)
def test_cap_expiry_fails_the_run_and_stops_everything(workload, expire_after):
    code, stdout, stderr = run_bench(workload, seconds=20, expire_after=expire_after)
    assert code != 0
    assert "wall-clock cap" in stdout, stdout[-3000:] + stderr[-3000:]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is False


def test_without_the_program_it_fails_without_a_result(tmp_path):
    os.mkdir(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), "rb") as src:
                (tmp_path / "perfbench" / name).write_bytes(src.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
