"""Resident plans: a warm validate re-plans and re-ships nothing.

A session caches its replicated validate's split, partitioned plan, and
every worker slot keeps the units it was last sent.  A repeated validate
therefore ships no units (``ShippingStats.plan_bytes == 0``), while every
change that can make a slot's plan stale — an update, a Σ swap, a new
``n`` or assignment, a respawned worker — ships it again.  Whatever
travels, each run must equal a fresh session's run and serial
``det_vio``, in violations and in ``ClusterReport``.

Resident plans must be acyclic like the rest of a slot's resident state
(README "Worker heap"), and the slot loop that runs them resolves each
group's pattern-level work once, so the last class pins that it returns
what merging per-unit ``execute_unit`` results returns, on a pivot whose
symmetry class really permutes.
"""

import gc
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro import ValidationSession, det_vio, generate_gfds, power_law_graph
from repro.core.gfd import make_gfd
from repro.core.literals import VariableLiteral
from repro.matching.locality import symmetry_classes
from repro.matching.vf2 import SubgraphMatcher
from repro.parallel import estimate_workload, execute_unit
from repro.parallel.engine import (
    BlockMaterialiser,
    _MatchFold,
    consolidate_slot_results,
    run_slot,
)
from repro.parallel.executors import (
    _run_slot,
    pack_shard,
    unpack_shard,
)
from repro.parallel.multiquery import build_shared_groups
from repro.pattern.pattern import GraphPattern

DISCOVER = dict(min_support=3, min_confidence=0.85)


@pytest.fixture
def workload():
    graph = power_law_graph(220, 560, seed=3, domain_size=12)
    sigma = generate_gfds(graph, count=4, pattern_edges=2, seed=3)
    return graph, sigma


def _busy(run) -> int:
    return len(run.shipping.worker_pids)


def _assert_exact(run, graph, sigma, **options):
    """``run`` equals a fresh session's run and serial ``det_vio``."""
    current = graph.copy()
    with ValidationSession(
        current, sigma, executor="process", processes=2
    ) as fresh:
        expected = fresh.validate(**options)
    assert run.violations == expected.violations == det_vio(sigma, current)
    assert run.report == expected.report
    assert run.num_units == expected.num_units


class TestWarmValidateShipsNoUnits:
    def test_second_warm_validate_ships_no_plan(self, workload):
        graph, sigma = workload
        with ValidationSession(
            graph, sigma, executor="process", processes=2
        ) as session:
            cold = session.validate(n=2)
            # a worker respawned during the cold run is re-sent its
            # shard, Σ and units once more on the first warm run
            session.validate(n=2)
            warm = session.validate(n=2)
        assert cold.shipping.plan_bytes > 0
        assert warm.shipping.plan_bytes == 0
        assert warm.shipping.reused == _busy(warm) == 2
        assert warm.violations == cold.violations
        assert warm.report == cold.report

    @pytest.mark.parametrize(
        "change", ["attr", "edge", "discover", "n", "random"]
    )
    def test_every_change_reships_and_stays_exact(self, workload, change):
        graph, sigma = workload
        node = min(graph.nodes(), key=repr)
        edge = min(graph.edges(), key=repr)
        with ValidationSession(
            graph, sigma, executor="process", processes=2
        ) as session:

            def checked(**options):
                """A validate that re-sent its units and is exact."""
                run = session.validate(**options)
                assert run.shipping.plan_bytes > 0, options
                _assert_exact(run, graph, sigma, **options)
                return run, options

            session.validate(n=2)
            session.validate(n=2)
            if change == "attr":
                session.update([("attr", node, "A0", "fresh")])
                run, options = checked(n=2)
            elif change == "edge":
                session.update([("edge-", *edge)])
                checked(n=2)
                session.update([("edge+", *edge)])
                run, options = checked(n=2)
            elif change == "discover":  # Σ swapped out and back
                session.discover(n=2, **DISCOVER)
                run, options = checked(n=2)
            elif change == "n":
                checked(n=3)
                run, options = checked(n=2)
            else:
                checked(n=2, assignment="random", seed=1)
                run, options = checked(n=2, assignment="random", seed=2)
            again = session.validate(**options)
        assert again.shipping.plan_bytes == 0
        assert again.violations == run.violations
        assert again.report == run.report


class TestResidentPlanIsAcyclic:
    def test_dropping_a_slot_and_its_plan_leaves_no_cyclic_garbage(
        self, workload
    ):
        graph, sigma = workload
        units = estimate_workload(
            sigma, graph, groups=build_shared_groups(sigma)
        )[:60]
        plan_blob = pack_shard(units)
        full = ("e1", pack_shard(sigma), ("pickle", pack_shard(graph)))
        cache = {}
        gc.collect()
        gc.disable()
        try:
            shipped = _run_slot(cache, 0, "full", full, unpack_shard(plan_blob))
            resident = _run_slot(cache, 0, "reuse", ("e1", None), None)
            # no result memo: the resident plan is enumerated again
            assert resident.vf2_units == len(units)
            assert resident.steps == shipped.steps
            del shipped, resident
            assert len(cache[("e1", 0)].plan) == len(units)
            cache.pop(("e1", 0)).release_segment()
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0


def _symmetric_workload():
    """Σ with a two-entry symmetry class next to a one-entry pivot."""
    graph = power_law_graph(90, 240, seed=5, domain_size=3,
                            node_labels=["a", "b", "c"])
    pair = GraphPattern()  # two isomorphic components: x and y swap
    pair.add_node("x", "a")
    pair.add_node("y", "a")
    symmetric = make_gfd(
        pair,
        [VariableLiteral("x", "A0", "y", "A0")],
        [VariableLiteral("x", "A1", "y", "A2")],
        name="pair",
    )
    sigma = [symmetric] + generate_gfds(graph, count=2, pattern_edges=2,
                                        seed=5)
    return graph, sigma


class TestGroupedSlotLoop:
    @pytest.mark.parametrize("kind", ["detect", "mine", "matches", "count"])
    def test_slot_loop_equals_per_unit_execution(self, kind, monkeypatch):
        # no factorised plan: every unit takes the VF2 path, as a
        # cyclic or wide leader pattern would
        monkeypatch.setattr(
            SubgraphMatcher, "factorised_plan", lambda self: None
        )
        graph, sigma = _symmetric_workload()
        assert (0, 1) in symmetry_classes(sigma[0].pattern, sigma[0].pivot)
        units = estimate_workload(
            sigma, graph, groups=build_shared_groups(sigma)
        )
        if kind in ("mine", "matches"):
            mode = "aggregate" if kind == "mine" else "matches"
            units = [replace(u, kind="mine", payload=(50, mode))
                     for u in units]
        elif kind == "count":
            units = [
                replace(u, kind="count", payload=tuple(
                    ((sigma[m.index].lhs, sigma[m.index].rhs),)
                    for m in u.group.members
                ))
                for u in units
            ]
        per_unit = [
            execute_unit(sigma, graph, unit, BlockMaterialiser(graph))
            for unit in units
        ]
        assert all(len(result.steps) == 1 for result in per_unit)
        merged = consolidate_slot_results(units, per_unit)
        grouped = run_slot(sigma, units, BlockMaterialiser(graph))
        # steps column, VF2 count, violations and every group's payload
        assert grouped == merged
        assert sum(grouped.steps) > 0
        assert grouped.vf2_units == len(units)  # VF2 throughout
        if kind != "detect":  # one merged payload per group
            assert list(grouped.payloads) == list(dict.fromkeys(
                unit.group.leader_index for unit in units
            ))
        else:
            assert not grouped.payloads
            found = grouped.violations
            assert found == det_vio(sigma, graph)
            # the pair's swapped orientation was matched too: x ↦ the
            # later node of a deduplicated candidate tuple
            assert any(
                v.gfd_name == "pair"
                and repr(v.match["x"]) > repr(v.match["y"])
                for v in found
            )

    def test_match_lists_merge_like_one_fold(self):
        """Past the threshold a match fold keeps each member's canonical
        cap-smallest; merging a leader-space part and a member-space part
        gives what one fold over every match gives."""
        members = (SimpleNamespace(iso={"x": "x", "y": "y"}),
                   SimpleNamespace(iso={"x": "y", "y": "x"}))
        matches = [(("x", n), ("y", 9999 - n)) for n in range(5000)]
        whole = _MatchFold(10, members)
        head, tail = _MatchFold(10, members), _MatchFold(10, members)
        for position, items in enumerate(matches):
            whole.add(items)
            (head if position < 100 else tail).add(items)
        assert head.payload()[0] == "shared"
        assert tail.payload()[0] == "members"
        merged = _MatchFold(10, members)
        merged.merge(head.payload())
        merged.merge(tail.payload())
        assert merged.payload() == whole.payload()
        _, count, per_member = whole.payload()
        assert count == 5000
        assert [len(kept) for kept in per_member] == [10, 10]
