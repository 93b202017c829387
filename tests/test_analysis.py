"""Tests for ``repro.analysis`` — the repo-invariant static-analysis pass.

Each rule gets fixture-snippet tests: a *positive* that reproduces the
historical bug shape the rule encodes (PR 4's order-dependent slice,
PR 7's untracked attach and double pickle-measure, PR 2's unguarded
cache field, the silent unhandled work-unit kind), a *negative* showing
the blessed idiom passes, and a *suppression* showing the inline
escape hatch works only with a justification.  The baseline round-trip
and the CLI contract (exit codes, ``--explain``) are covered at the
end, plus the meta-test pinning the pass green on the repo tree itself.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, run_analysis
from repro.analysis import baseline as baseline_mod
from repro.analysis.__main__ import main as analysis_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_tree(root: Path, files: dict) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def findings_for(tmp_path: Path, files: dict, *codes: str):
    write_tree(tmp_path, files)
    report = run_analysis(tmp_path, [tmp_path])
    assert not report.errors, report.errors
    if not codes:
        return report
    return [f for f in report.findings if f.code in codes]


# ---------------------------------------------------------------------------
# framework: registry, suppressions
# ---------------------------------------------------------------------------

class TestFramework:
    def test_registry_has_the_battery(self):
        # the acceptance bar: >= 5 distinct repo-invariant rule codes
        assert len(set(RULES) - {"RPL000"}) >= 5
        for code, rule in RULES.items():
            assert code == rule.code
            assert type(rule).explain().startswith(code)

    def test_unjustified_suppression_is_a_finding_and_inert(self, tmp_path):
        report = findings_for(tmp_path, {
            "mod.py": """
                import pickle
                def f(x):
                    return pickle.dumps(x)  # repro-lint: disable=RPL030
            """,
        })
        codes = {f.code for f in report.findings}
        assert "RPL000" in codes  # the bare disable is flagged
        assert "RPL030" in codes  # ...and suppresses nothing

    def test_justified_suppression_suppresses(self, tmp_path):
        report = findings_for(tmp_path, {
            "mod.py": """
                import pickle
                def f(x):
                    return pickle.dumps(x)  # repro-lint: disable=RPL030 -- fixture exercises the escape hatch
            """,
        })
        assert not [f for f in report.findings if f.code == "RPL030"]
        assert [f for f in report.suppressed if f.code == "RPL030"]

    def test_standalone_suppression_binds_to_next_code_line(self, tmp_path):
        report = findings_for(tmp_path, {
            "mod.py": """
                import pickle
                def f(x):
                    # repro-lint: disable=RPL030 -- measured here on purpose
                    return pickle.dumps(x)
            """,
        })
        assert not [f for f in report.findings if f.code == "RPL030"]
        assert [f for f in report.suppressed if f.code == "RPL030"]


# ---------------------------------------------------------------------------
# RPL001 — order-dependent iteration (PR 4's matches[:200])
# ---------------------------------------------------------------------------

class TestUnorderedIteration:
    def test_sliced_list_of_set_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "parallel/mod.py": """
                def cap(matches):
                    found = {m for m in matches}
                    out = list(found)
                    return out[:200]
            """,
        }, "RPL001")
        assert found, "the PR 4 bug shape must fire"

    def test_sorted_dominates(self, tmp_path):
        found = findings_for(tmp_path, {
            "parallel/mod.py": """
                def cap(matches):
                    found = {m for m in matches}
                    out = sorted(found)
                    return out[:200]
            """,
        }, "RPL001")
        assert not found

    def test_next_iter_of_set_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "core/mod.py": """
                def pick(xs):
                    pool = set(xs)
                    return next(iter(pool))
            """,
        }, "RPL001")
        assert found

    def test_append_accumulation_over_set_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "matching/mod.py": """
                def collect(units):
                    seen = set(units)
                    acc = []
                    for u in seen:
                        acc.append(u)
                    return acc
            """,
        }, "RPL001")
        assert found

    def test_out_of_scope_path_is_ignored(self, tmp_path):
        found = findings_for(tmp_path, {
            "tools/mod.py": """
                def cap(matches):
                    found = {m for m in matches}
                    return list(found)[:200]
            """,
        }, "RPL001")
        assert not found


# ---------------------------------------------------------------------------
# RPL002 — unseeded entropy / wall clock in engine paths
# ---------------------------------------------------------------------------

class TestUnseededEntropy:
    def test_wall_clock_and_global_random_fire(self, tmp_path):
        found = findings_for(tmp_path, {
            "parallel/mod.py": """
                import random, time
                def jitter():
                    return random.random() * time.time()
            """,
        }, "RPL002")
        assert len(found) == 2

    def test_seeded_rng_and_perf_counter_pass(self, tmp_path):
        found = findings_for(tmp_path, {
            "parallel/mod.py": """
                import random, time
                def jitter(seed):
                    rng = random.Random(seed)
                    return rng.random() * time.perf_counter()
            """,
        }, "RPL002")
        assert not found


# ---------------------------------------------------------------------------
# RPL010 — guarded-by lock discipline (PR 2's unguarded cache field)
# ---------------------------------------------------------------------------

class TestGuardedBy:
    def test_unguarded_access_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "mod.py": """
                import threading
                class Cache:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._entries = {}  #: guarded-by: _lock
                    def peek(self, key):
                        return self._entries.get(key)
            """,
        }, "RPL010")
        assert found and "peek" in found[0].message

    def test_with_lock_passes(self, tmp_path):
        found = findings_for(tmp_path, {
            "mod.py": """
                import threading
                class Cache:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._entries = {}  #: guarded-by: _lock
                    def peek(self, key):
                        with self._lock:
                            return self._entries.get(key)
            """,
        }, "RPL010")
        assert not found

    def test_holds_contract_passes(self, tmp_path):
        found = findings_for(tmp_path, {
            "mod.py": """
                import threading
                class Cache:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._entries = {}  #: guarded-by: _lock
                    def _peek_locked(self, key):  #: holds: _lock
                        return self._entries.get(key)
            """,
        }, "RPL010")
        assert not found

    def test_dotted_lock_path(self, tmp_path):
        files = {
            "mod.py": """
                class Sub:
                    def __init__(self, service):
                        self._service = service
                        self._pending = []  #: guarded-by: _service._cond
                    def drain(self):
                        with self._service._cond:
                            return list(self._pending)
                    def leak(self):
                        return list(self._pending)
            """,
        }
        found = findings_for(tmp_path, files, "RPL010")
        assert len(found) == 1 and "leak" in found[0].message


# ---------------------------------------------------------------------------
# RPL020/021/022 — shm lifecycle (PR 7's untracked attach)
# ---------------------------------------------------------------------------

class TestShmLifecycle:
    def test_create_outside_plane_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "mod.py": """
                from multiprocessing import shared_memory
                def grab():
                    return shared_memory.SharedMemory(create=True, size=64)
            """,
        }, "RPL020")
        assert found

    def test_create_inside_plane_with_teardown_passes(self, tmp_path):
        report = findings_for(tmp_path, {
            "mod.py": """
                from multiprocessing import shared_memory
                class ShardPlane:
                    def publish(self):
                        self._seg = shared_memory.SharedMemory(
                            create=True, size=64)
                    def unlink_all(self):
                        self._seg.close()
                        self._seg.unlink()
            """,
        })
        assert not [f for f in report.findings
                    if f.code in ("RPL020", "RPL022")]

    def test_untracked_attach_outside_door_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "mod.py": """
                from multiprocessing import shared_memory
                def worker_attach(name):
                    return shared_memory.SharedMemory(name=name)
            """,
        }, "RPL021")
        assert found, "the PR 7 tracked-attach bug shape must fire"

    def test_attach_through_the_door_passes(self, tmp_path):
        found = findings_for(tmp_path, {
            "mod.py": """
                from multiprocessing import shared_memory
                def _attach_untracked(name):
                    return shared_memory.SharedMemory(name=name)
            """,
        }, "RPL021")
        assert not found

    def test_create_without_teardown_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "mod.py": """
                from multiprocessing import shared_memory
                class ShardPlane:
                    def publish(self):
                        self._seg = shared_memory.SharedMemory(
                            create=True, size=64)
            """,
        }, "RPL022")
        assert found


# ---------------------------------------------------------------------------
# RPL030 — shipping discipline (PR 7's payload_size double-measure)
# ---------------------------------------------------------------------------

class TestShippingDiscipline:
    def test_double_measure_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "mod.py": """
                import pickle
                def price(unit):
                    return len(pickle.dumps(unit.payload))
            """,
        }, "RPL030")
        assert found, "the payload_size double-measure shape must fire"

    def test_forking_pickler_counts_too(self, tmp_path):
        found = findings_for(tmp_path, {
            "mod.py": """
                from multiprocessing.reduction import ForkingPickler
                def ship(data):
                    return bytes(ForkingPickler.dumps(data))
            """,
        }, "RPL030")
        assert found

    def test_pack_shard_is_the_choke_point(self, tmp_path):
        found = findings_for(tmp_path, {
            "mod.py": """
                from multiprocessing.reduction import ForkingPickler
                def pack_shard(data):
                    return bytes(ForkingPickler.dumps(data))
            """,
        }, "RPL030")
        assert not found


# ---------------------------------------------------------------------------
# RPL040/041 — dispatch exhaustiveness (the silently-dropped kind)
# ---------------------------------------------------------------------------

_WORKLOAD = """
    from dataclasses import dataclass, replace
    @dataclass
    class WorkUnit:
        block: tuple
        kind: str = "detect"
    def as_mine(unit):
        return replace(unit, kind="mine")
"""


class TestDispatchExhaustiveness:
    def test_unhandled_kind_in_execute_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "workload.py": _WORKLOAD,
            "engine.py": """
                def execute_unit(unit):
                    if unit.kind == "detect":
                        return 1
                    raise ValueError(unit.kind)
                def slot_fold(unit, result):
                    if unit.kind in ("detect", "mine"):
                        return result
            """,
        }, "RPL040")
        assert [f for f in found if "'mine'" in f.message]

    def test_unhandled_kind_in_slot_fold_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "workload.py": _WORKLOAD,
            "engine.py": """
                def execute_unit(unit):
                    if unit.kind in ("detect", "mine"):
                        return 1
                def slot_fold(unit, result):
                    if unit.kind == "detect":
                        return result
            """,
        }, "RPL041")
        assert [f for f in found if "'mine'" in f.message]

    def test_exhaustive_dispatch_passes(self, tmp_path):
        report = findings_for(tmp_path, {
            "workload.py": _WORKLOAD,
            "engine.py": """
                def execute_unit(unit):
                    if unit.kind in ("detect", "mine"):
                        return 1
                def slot_fold(unit, result):
                    if unit.kind in ("detect", "mine"):
                        return result
            """,
        })
        assert not [f for f in report.findings
                    if f.code in ("RPL040", "RPL041")]

    def test_silent_without_a_dispatcher(self, tmp_path):
        report = findings_for(tmp_path, {"workload.py": _WORKLOAD})
        assert not [f for f in report.findings
                    if f.code in ("RPL040", "RPL041")]


# ---------------------------------------------------------------------------
# RPL042 — update-op kinds are interpreted in one module only
# ---------------------------------------------------------------------------

class TestUpdateOpVocabulary:
    def test_kind_comparison_outside_vocabulary_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "service.py": """
                def surviving(ops, graph):
                    return [op for op in ops if op[0] == "attr"]
            """,
        }, "RPL042")
        assert [f for f in found if "'attr'" in f.message]

    def test_membership_in_a_kind_tuple_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "engine.py": """
                def touches(op, key):
                    if op[0] in ("edge+", "edge-"):
                        return op[1] in key and op[2] in key
                    return "node" != op[0] and op[1] in key
            """,
        }, "RPL042")
        assert len(found) == 2

    def test_vocabulary_module_and_other_protocols_pass(self, tmp_path):
        report = findings_for(tmp_path, {
            "repro/graph/updates.py": """
                def is_structural(op):
                    return op[0] != "attr"
            """,
            "snapshot.py": """
                def replay(ops):
                    for op in ops:
                        if op[0] in ("node+", "node-", "relabel"):
                            yield op
            """,
        })
        assert not [f for f in report.findings if f.code == "RPL042"]

    def test_justified_suppression(self, tmp_path):
        report = findings_for(tmp_path, {
            "snapshot.py": """
                def apply_delta(ops):
                    for op in ops:
                        # repro-lint: disable=RPL042 -- a delta log that reuses the name
                        if op[0] == "edge+":
                            yield op
            """,
        })
        assert not [f for f in report.findings if f.code == "RPL042"]
        assert [f for f in report.suppressed if f.code == "RPL042"]


# ---------------------------------------------------------------------------
# RPL070 — no bound method stored on its own instance
# ---------------------------------------------------------------------------

class TestBoundMethodSelfCycle:
    def test_matcher_dispatch_shape_fires(self, tmp_path):
        # the historical shape: per-backend dispatch bound on self
        found = findings_for(tmp_path, {
            "vf2.py": """
                class Matcher:
                    def __init__(self, indexed):
                        if indexed:
                            self._frontier = self._frontier_indexed
                        else:
                            self._frontier = self._frontier_legacy
                    def _frontier_indexed(self, var):
                        return []
                    def _frontier_legacy(self, var):
                        return []
            """,
        }, "RPL070")
        assert len(found) == 2
        assert "Matcher._frontier_indexed" in found[0].message

    def test_dispatch_table_of_bound_methods_fires(self, tmp_path):
        found = findings_for(tmp_path, {
            "service.py": """
                class Applier:
                    def __init__(self):
                        self._handlers = {"attr": self._on_attr}
                    def _on_attr(self, op):
                        pass
            """,
        }, "RPL070")
        assert len(found) == 1

    def test_functions_attributes_and_calls_pass(self, tmp_path):
        report = findings_for(tmp_path, {
            "vf2.py": """
                class Matcher:
                    def __init__(self, graph):
                        self._frontier = Matcher._frontier_indexed
                        self.order = self._plan()
                        self.alias = self.graph_copy
                        self.total = self.size
                        self.make = self.build
                    def _frontier_indexed(self, var):
                        return []
                    def _plan(self):
                        return []
                    @property
                    def size(self):
                        return 0
                    @staticmethod
                    def build():
                        return None
            """,
        })
        assert not [f for f in report.findings if f.code == "RPL070"]

    def test_justified_suppression(self, tmp_path):
        report = findings_for(tmp_path, {
            "service.py": """
                class Service:
                    def __init__(self):
                        # repro-lint: disable=RPL070 -- lives as long as the process
                        self._callback = self._on_event
                    def _on_event(self):
                        pass
            """,
        })
        assert not [f for f in report.findings if f.code == "RPL070"]
        assert [f for f in report.suppressed if f.code == "RPL070"]


# ---------------------------------------------------------------------------
# baseline round-trip + CLI contract
# ---------------------------------------------------------------------------

_DIRTY = {
    "mod.py": """
        import pickle
        def price(unit):
            return len(pickle.dumps(unit.payload))
    """,
}


class TestBaselineRoundTrip:
    def test_write_justify_load_split(self, tmp_path):
        write_tree(tmp_path, _DIRTY)
        report = run_analysis(tmp_path, [tmp_path])
        assert report.findings
        baseline_path = tmp_path / "baseline.json"
        baseline_mod.write(baseline_path, report.findings, {})
        # placeholder justifications must be rejected...
        with pytest.raises(baseline_mod.BaselineError):
            baseline_mod.load(baseline_path)
        # ...until a human writes the one-liner
        data = json.loads(baseline_path.read_text())
        for entry in data["findings"]:
            entry["justification"] = "fixture: grandfathered on purpose"
        baseline_path.write_text(json.dumps(data))
        loaded = baseline_mod.load(baseline_path)
        new, grandfathered, stale = baseline_mod.split(
            report.findings, loaded)
        assert not new and not stale
        assert len(grandfathered) == len(report.findings)

    def test_fingerprints_survive_line_drift(self, tmp_path):
        write_tree(tmp_path, _DIRTY)
        before = run_analysis(tmp_path, [tmp_path]).findings
        shifted = "# a new header comment\n" + (tmp_path / "mod.py").read_text()
        (tmp_path / "mod.py").write_text(shifted)
        after = run_analysis(tmp_path, [tmp_path]).findings
        assert [fp for _, fp in baseline_mod.fingerprints(before)] == \
               [fp for _, fp in baseline_mod.fingerprints(after)]

    def test_stale_entries_fail_the_run(self, tmp_path):
        write_tree(tmp_path, _DIRTY)
        code = analysis_main([
            "--root", str(tmp_path), str(tmp_path / "mod.py"),
            "--baseline", str(tmp_path / "baseline.json"),
            "--write-baseline",
        ])
        assert code == 0
        data = json.loads((tmp_path / "baseline.json").read_text())
        for entry in data["findings"]:
            entry["justification"] = "fixture"
        (tmp_path / "baseline.json").write_text(json.dumps(data))
        # fix the finding: the baseline entry goes stale -> exit 1
        (tmp_path / "mod.py").write_text(
            "def price(unit):\n    return 0\n")
        code = analysis_main([
            "--root", str(tmp_path), str(tmp_path / "mod.py"),
            "--baseline", str(tmp_path / "baseline.json"),
        ])
        assert code == 1


class TestCli:
    def test_exit_codes_and_report_artifact(self, tmp_path, capsys):
        write_tree(tmp_path, _DIRTY)
        report_path = tmp_path / "out" / "report.json"
        code = analysis_main([
            "--root", str(tmp_path), str(tmp_path / "mod.py"),
            "--no-baseline", "--report", str(report_path),
        ])
        assert code == 1
        payload = json.loads(report_path.read_text())
        assert payload["findings"]
        assert payload["findings"][0]["code"] == "RPL030"
        capsys.readouterr()

    def test_explain_every_registered_rule(self, capsys):
        for code in sorted(RULES):
            assert analysis_main(["--explain", code]) == 0
            assert code in capsys.readouterr().out
        assert analysis_main(["--explain", "RPL999"]) == 2
        capsys.readouterr()

    def test_repo_tree_is_clean(self):
        """The CI gate: ``python -m repro.analysis`` exits 0 on the repo."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
