#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload validate-powerlaw --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``;
the inputs are generated from ``--seed`` into ``perfbench/out/``.  With
``--trace 0`` the result carries every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` the workload runs once untraced
and once with span recording, and the result carries every per-layer
metric plus the tracing overhead.  The last line of standard output is
the JSON result; a human-readable report precedes it and the full
report (spans included) is written to ``perfbench/out/``.  Exit code 0
means every operation matched its oracle, every exact-count anchor
repeated and no process or shared-memory segment was left behind.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: workload name -> module of this package that runs it
WORKLOADS = {
    "validate-powerlaw": "validate",
    "discover-pokec": "discover",
    "serve-mixed": "serve",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program at src/repro to measure", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import harness
    from perfbench.common import FAULT_COUNTERS, Context
    from repro.parallel.executors import (
        MultiprocessExecutor,
        shm_available,
        usable_cpus,
    )

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    processes = min(2, usable_cpus())
    # hard wall-clock cap: well inside the 180 s a run may take
    cap = min(150.0, 60.0 + 4 * args.seconds)
    fingerprint = {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "start_method": MultiprocessExecutor(processes=processes).start_method,
        "shm_available": shm_available(),
        "processes": processes,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    shm_before = harness.shm_segments()
    tracers = [harness.NoTrace()] + ([harness.Tracer()] if args.trace else [])
    passes = [
        Context(seed=args.seed, seconds=args.seconds, workdir=workdir,
                processes=processes, tracer=tracer)
        for tracer in tracers
    ]
    problems = []
    stolen, started = harness.steal_ticks(), time.monotonic()
    try:
        with harness.WallClockCap(cap):
            for ctx in passes:
                try:
                    module.run(ctx)
                except Exception:
                    ctx.outcome.problem(traceback.format_exc())
    except harness.CapExpired as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += harness.check_hygiene(shm_before)
    # share of this machine's CPU time the hypervisor took during the run
    fingerprint["stolen_share"] = round(
        (harness.steal_ticks() - stolen) / os.sysconf("SC_CLK_TCK")
        / ((os.cpu_count() or 1) * (time.monotonic() - started)), 4
    )

    outcomes = [ctx.outcome for ctx in passes]
    for outcome in outcomes:
        problems += outcome.problems
    anchors = {}
    for outcome in outcomes:
        for name, value in outcome.anchors.items():
            if name in anchors and anchors[name] != value:
                problems.append(f"anchor {name} differs between passes")
            anchors.setdefault(name, value)
    problems += compare_anchors(
        f"{args.workload}-seed{args.seed}-seconds{args.seconds:g}-"
        f"{source_digest()}",
        anchors,
    )

    untraced = passes[0].outcome
    for ctx in passes:
        for name in FAULT_COUNTERS:
            if ctx.layer.get(f"faults.{name}"):
                ctx.outcome.notes.append(
                    f"faults.{name} = {ctx.layer[f'faults.{name}']:g}: "
                    "the pool recovered from a fault"
                )
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = failed == 0 and not problems
    if attempted == 0:  # nothing ran: the run itself is the failed operation
        attempted = failed = 1
    untraced.named["error_rate"] = (failed / attempted, "fraction")
    unreached = []

    if args.trace:
        traced = passes[1]
        layer = dict(traced.layer)
        base, with_spans = untraced.e2e.get("warm_ms"), traced.outcome.e2e.get("warm_ms")
        if base and with_spans:
            layer["trace.overhead_pct"] = 100.0 * (with_spans - base) / base
        # every per-layer metric is in the result; the ones this
        # workload does not reach read 0 and are named in ``unreached``
        unreached = [m["name"] for m in spec["per_layer"] if m["name"] not in layer]
        metrics = {
            m["name"]: {"value": float(layer.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {}
        for m in spec["end_to_end"]:
            if m["name"] in untraced.e2e:
                metrics[m["name"]] = {
                    "value": float(untraced.e2e[m["name"]]), "unit": m["unit"]
                }
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in metrics]
        if missing:
            problems.append(f"end-to-end metrics not measured: {missing}")
            correct = False

    report = {
        "host": fingerprint,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for o in outcomes for e in o.errors][:50],
        "problems": problems,
        "anchors": anchors,
        "unreached": unreached,
        "passes": [
            {"traced": ctx.tracer.enabled, "e2e": ctx.outcome.e2e,
             "named": ctx.outcome.named, "layer": ctx.layer,
             "samples": ctx.outcome.samples, "notes": ctx.outcome.notes}
            for ctx in passes
        ],
        "spans": passes[-1].tracer.dump() if args.trace else [],
    }
    harness.write_json(
        os.path.join(
            OUT_DIR,
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json",
        ),
        report,
    )
    print_report(fingerprint, passes, metrics, problems, report)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def source_digest() -> str:
    """Digest of the program and benchmark sources: anchors are only
    compared between runs of the same code."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(folder, name), "rb") as handle:
                        digest.update(name.encode() + handle.read())
    return digest.hexdigest()[:12]


def compare_anchors(key: str, anchors: dict):
    """Compare this run's exact-count anchors with earlier runs of the
    same code, workload, seed and length in this checkout, then record
    the union (``--seconds`` sets the serve windows, hence the ops)."""
    path = os.path.join(OUT_DIR, "anchors", f"{key}.json")
    recorded = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
    current = json.loads(json.dumps(anchors))
    problems = [
        f"anchor {name} = {value!r}, an earlier run of {key} had "
        f"{recorded[name]!r} (determinism bug)"
        for name, value in current.items()
        if name in recorded and recorded[name] != value
    ]
    if not problems:
        recorded.update(current)
        from perfbench.harness import write_json

        write_json(path, recorded)
    return problems


def print_report(fingerprint, passes, metrics, problems, report) -> None:
    host = " ".join(f"{k}={v}" for k, v in fingerprint.items())
    print(f"perfbench: {host}")
    for ctx in passes:
        label = "traced" if ctx.tracer.enabled else "untraced"
        for name, value in ctx.outcome.e2e.items():
            print(f"  [{label}] {name} {value:.6g}")
        for name, (value, unit) in ctx.outcome.named.items():
            print(f"  [{label}] {name} {value:.6g} {unit}")
        for note in ctx.outcome.notes:
            print(f"  [{label}] note: {note}")
    if len(passes) == 2:
        untraced, traced = (ctx.outcome.e2e for ctx in passes)
        for name, base in untraced.items():
            if name in traced and base:
                print(f"  tracing overhead {name}: {base:.6g} untraced, "
                      f"{traced[name]:.6g} traced "
                      f"({100 * (traced[name] - base) / base:+.1f} %)")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    if report["unreached"]:
        print(f"  not reached on this workload (reported as 0): "
              f"{', '.join(report['unreached'])}")
    for name, value in sorted(report["anchors"].items()):
        print(f"  anchor {name} = {value!r}")
    for error in report["errors"]:
        print(f"  FAILED: {error}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")


if __name__ == "__main__":
    sys.exit(main())
