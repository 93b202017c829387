"""Resident plans: a warm validate re-plans and re-ships nothing.

A session caches its replicated validate's split, partitioned plan, and
every worker slot keeps the units it was last sent.  A repeated validate
therefore ships no units (``ShippingStats.plan_bytes == 0``), while every
change that can make a slot's plan stale — an update, a Σ swap, a new
``n`` or assignment, a respawned worker — ships it again.  Whatever
travels, each run must equal a fresh session's run and serial
``det_vio``, in violations and in ``ClusterReport``.

A worker's match store only ever holds what a discover deposited, so a
validate on a session that never mined must not build one store key or
make one lookup — each unit still counts as a miss.

Resident plans must be acyclic like the rest of a slot's resident state
(README "Worker heap"), and the slot loop that runs them resolves each
group's pattern-level work once, so the last class pins that it returns
what per-unit ``execute_unit`` returns, on a pivot whose symmetry class
really permutes.
"""

import gc
import multiprocessing
from dataclasses import replace

import pytest

from repro import ValidationSession, det_vio, generate_gfds, power_law_graph
from repro.core.gfd import make_gfd
from repro.core.literals import VariableLiteral
from repro.matching.locality import symmetry_classes
from repro.parallel import estimate_workload, execute_unit
from repro.parallel.engine import (
    BlockMaterialiser,
    consolidate_slot_results,
    run_slot,
)
from repro.parallel.executors import (
    MatchStore,
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


class TestEmptyMatchStoreIsNotProbed:
    def test_warm_validate_makes_no_store_lookups(self, workload, monkeypatch):
        """Workers fork after the patch, so they count into ``lookups``."""
        lookups = multiprocessing.Value("i", 0)
        get = MatchStore.get

        def counted_get(self, key):
            with lookups.get_lock():
                lookups.value += 1
            return get(self, key)

        monkeypatch.setattr(MatchStore, "get", counted_get)
        graph, sigma = workload
        with ValidationSession(
            graph, sigma, executor="process", processes=2
        ) as session:
            session.validate(n=2)
            warm = session.validate(n=2)
        assert lookups.value == 0
        assert warm.shipping.match_store.hits == 0
        assert warm.shipping.match_store.misses > 0


class TestResidentPlanIsAcyclic:
    def test_dropping_a_slot_and_its_plan_leaves_no_cyclic_garbage(
        self, workload
    ):
        graph, sigma = workload
        units = estimate_workload(
            sigma, graph, groups=build_shared_groups(sigma)
        )[:60]
        plan_blob = pack_shard(units)
        full = ("e1", pack_shard(sigma), ("pickle", pack_shard(graph)), 10_000)
        cache = {}
        gc.collect()
        gc.disable()
        try:
            shipped = _run_slot(cache, 0, "full", full, unpack_shard(plan_blob))
            resident = _run_slot(cache, 0, "reuse", ("e1", None), None)
            # no result memo: the resident plan is enumerated again
            assert all(r.enumerated for r in resident)
            assert [r.steps for r in resident] == [r.steps for r in shipped]
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
    @pytest.mark.parametrize("kind", ["detect", "mine", "count"])
    def test_slot_loop_equals_per_unit_execution(self, kind):
        graph, sigma = _symmetric_workload()
        assert (0, 1) in symmetry_classes(sigma[0].pattern, sigma[0].pivot)
        units = estimate_workload(
            sigma, graph, groups=build_shared_groups(sigma)
        )
        if kind == "mine":
            units = [replace(u, kind="mine", payload=(50, "aggregate"),
                             eval_mode="enumerate") for u in units]
        elif kind == "count":
            units = [
                replace(u, kind="count", eval_mode="enumerate", payload=tuple(
                    ((sigma[m.index].lhs, sigma[m.index].rhs),)
                    for m in u.group.members
                ))
                for u in units
            ]
        per_unit = [
            execute_unit(sigma, graph, unit, BlockMaterialiser(graph))
            for unit in units
        ]
        consolidate_slot_results(units, per_unit)
        grouped = run_slot(sigma, units, BlockMaterialiser(graph))

        def outcome(result):
            return (result.violations, result.steps, result.enumerated,
                    result.payload)

        assert [outcome(r) for r in grouped] == [outcome(r) for r in per_unit]
        assert sum(r.steps for r in grouped if r) > 0
        if kind == "detect":
            found = set().union(*(r.violations for r in grouped))
            assert found == det_vio(sigma, graph)
            # the pair's swapped orientation was matched too: x ↦ the
            # later node of a deduplicated candidate tuple
            assert any(
                v.gfd_name == "pair"
                and repr(v.match["x"]) > repr(v.match["y"])
                for v in found
            )
