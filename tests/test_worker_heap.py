"""Worker heap: resident state is acyclic, and freezing it does not leak.

Pool workers freeze what they keep after every batch, so full
collections never walk the resident shard, blocks and matchers again
(README "Worker heap").  That is sound only if dropping any of it frees
it by reference counting — frozen cyclic garbage is never freed.  The
first class pins the acyclic contract over every unit kind; the second drives the worker's slot handler and its
post-batch freeze in-process and pins that the frozen-object count
stays flat across warm batches and falls back once a shard is replaced.
The coordinator's candidate generators are held to the same contract:
workload estimation runs them once per rule.
"""

import gc
from dataclasses import replace

import pytest

from repro.core import generate_gfds
from repro.core.gfd import make_gfd
from repro.graph import power_law_graph
from repro.matching.locality import pivot_candidates
from repro.matching.vf2 import SubgraphMatcher
from repro.parallel import estimate_workload, execute_unit
from repro.parallel.engine import BlockMaterialiser
from repro.parallel.executors import (
    ShippingStats,
    _freeze_batch_heap,
    _GcWatch,
    _run_slot,
    pack_shard,
)
from repro.parallel.multiquery import singleton_groups
from repro.pattern.pattern import GraphPattern

from oracle import oracle_matches


def _workload(seed: int):
    graph = power_law_graph(300, 700, seed=seed, domain_size=6)
    sigma = generate_gfds(graph, count=4, pattern_edges=1, seed=seed)
    units = estimate_workload(sigma, graph, groups=singleton_groups(sigma))
    return graph, sigma, units


def _count_payload(sigma, unit):
    """Each member's own dependency as its one count candidate."""
    return tuple(
        ((tuple(sigma[member.index].lhs), tuple(sigma[member.index].rhs)),)
        for member in unit.group.members
    )


def _exercise_resident_state(graph, sigma, units) -> int:
    """Build and use one slot's resident state; return the plans compiled.

    Everything built here is local, so it is all dropped on return.
    """
    units = units[:30]
    materialiser = BlockMaterialiser(graph)
    for unit in units:
        execute_unit(sigma, graph, unit, materialiser)
    for eval_mode in ("auto", "enumerate"):
        for mode in ("aggregate", "matches"):
            for unit in units:
                mine = replace(
                    unit, kind="mine", payload=(50, mode), eval_mode=eval_mode
                )
                execute_unit(sigma, graph, mine, materialiser)
        for unit in units:
            count = replace(
                unit, kind="count", payload=_count_payload(sigma, unit),
                eval_mode=eval_mode,
            )
            execute_unit(sigma, graph, count, materialiser)
    matcher = SubgraphMatcher(sigma[0].pattern, graph)
    assert sum(1 for _ in oracle_matches(sigma[0].pattern, graph)) == (
        matcher.count_matches(eval_mode="enumerate")
    )
    return sum(
        matcher.factorised_plan() is not None
        for entry in materialiser._cache.values()
        for matcher in entry.matchers.values()
    )


class TestResidentStateIsAcyclic:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_dropping_resident_state_leaves_no_cyclic_garbage(self, seed):
        # W(Σ, G) is estimated on the coordinator, outside the window
        inputs = list(_workload(seed))
        gc.collect()
        gc.disable()
        try:
            plans = _exercise_resident_state(*inputs)
            inputs.clear()
            garbage = gc.collect()
        finally:
            gc.enable()
        assert plans > 0  # the factorised path really ran
        assert garbage == 0


class TestCoordinatorGeneratorsAreAcyclic:
    def test_draining_pivot_candidates_leaves_no_cyclic_garbage(self):
        graph, sigma, _ = _workload(3)
        # two isomorphic components: the symmetric-dedup path runs too
        label = graph.label(min(graph.nodes(), key=repr))
        pair = GraphPattern()
        pair.add_node("x", label)
        pair.add_node("y", label)
        sigma = sigma + [make_gfd(pair)]
        for gfd in sigma:
            assert gfd.pivot  # computed outside the window
        gc.collect()
        gc.disable()
        try:
            drained = sum(
                1
                for gfd in sigma
                for _ in pivot_candidates(graph, gfd.pattern, gfd.pivot)
            )
            garbage = gc.collect()
        finally:
            gc.enable()
        assert drained > 0
        assert garbage == 0


@pytest.fixture
def frozen_heap():
    yield
    gc.unfreeze()


class TestFrozenHeapDoesNotLeak:
    def test_freeze_count_flat_when_warm_and_back_after_replacement(
        self, frozen_heap
    ):
        graph, sigma, units = _workload(7)
        units = units[:40]
        sigma_blob = pack_shard(sigma)
        shard_ref = ("pickle", pack_shard(graph))
        node = next(iter(graph.nodes()))
        delta = pack_shard(([("attr", node, "A0", "fresh")], [], []))
        cache = {}

        def batch(mode, payload):
            result = _run_slot(cache, 0, mode, payload, units)
            assert len(result.steps) == len(units)
            del result
            _freeze_batch_heap()
            return gc.get_freeze_count()

        installed = batch("full", ("e1", sigma_blob, shard_ref))
        warm = [batch("reuse", ("e1", None)) for _ in range(4)]
        assert warm[0] >= installed - 50
        assert warm[1:] == warm[:-1]  # nothing accumulates while warm
        batch("delta", ("e1", delta, None))
        replaced = batch("full", ("e2", sigma_blob, shard_ref))
        assert list(cache) == [("e2", 0)]
        # the replaced shard, blocks and matchers were freed while frozen
        assert abs(replaced - installed) <= 50


class TestGcTelemetry:
    def test_watch_counts_full_collections_only(self):
        watch = _GcWatch()
        gc.callbacks.append(watch)
        try:
            gc.collect(0)
            gc.collect(1)
            assert watch.take() == (0, 0.0)
            gc.collect()
            full, pause = watch.take()
        finally:
            gc.callbacks.remove(watch)
        assert full == 1 and pause > 0.0
        assert watch.take() == (0, 0.0)  # take resets

    def test_shipping_stats_sum_counts_and_keep_the_longest_pause(self):
        left = ShippingStats(gc_full_collections=2, gc_pause_max=0.030)
        left.merge(ShippingStats(gc_full_collections=1, gc_pause_max=0.010))
        assert left.gc_full_collections == 3
        assert left.gc_pause_max == pytest.approx(0.030)
