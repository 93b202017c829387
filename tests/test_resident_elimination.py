"""Each pin's factorised elimination stays resident beside its matcher.

An elimination is a pure function of a factorised plan and a pin, so a
block keeps it while the matcher whose plan produced it stays and the
block does not change: the count phase reuses what the enumerate phase
computed, and a warm discover recomputes nothing.  These tests pin the
reuse (counted elimination passes), the lifetime (any op that patches
the block drops them, a structural op its matchers too, a Σ swap those
of dropped patterns) and the result: rules and per-phase cost reports
equal a fresh session's and the serial miner's after every kind of
update.
"""

import os
from dataclasses import replace

import pytest

from repro import ValidationSession, discover_gfds, power_law_graph
from repro.core.discovery import candidate_patterns, probe_gfds
from repro.core.literals import VariableLiteral
from repro.matching.factorised import FactorisedPlan
from repro.matching.locality import candidate_permutations
from repro.parallel import engine, estimate_workload, execute_unit
from repro.parallel.executors import _run_slot, pack_shard

SHIP_MODE = os.environ.get("REPRO_SHIP_MODE", "auto")
PARAMS = dict(min_support=3, min_confidence=0.85)
#: low thresholds, so a changed tally shows in the rule list
LOW = dict(min_support=2, min_confidence=0.5)


def _graph():
    # the dense label alphabet of the discovery suite: every seed mines
    return power_law_graph(
        170, 400, seed=7, domain_size=7,
        node_labels=["person", "city", "org"],
        edge_labels=["knows", "in", "for"],
    )


def mined_key(discovered):
    return (
        discovered.gfd.name,
        discovered.gfd.pattern.signature(),
        discovered.gfd.lhs,
        discovered.gfd.rhs,
        discovered.support,
        discovered.confidence,
    )


def _keys(rules):
    return [mined_key(rule) for rule in rules]


def _reports(run):
    return [(phase.phase, phase.report) for phase in run.phases]


class _PassCounter:
    """Counts elimination passes, per phase kind of the running slot."""

    def __init__(self, monkeypatch):
        self.by_kind = {}
        self.down_passes = 0
        self._kind = None
        roots = FactorisedPlan._component_roots
        down = FactorisedPlan._down_pass
        run_slot = engine.run_slot

        def counted_roots(plan, quotient, cand, ops):
            self.by_kind[self._kind] = self.by_kind.get(self._kind, 0) + 1
            return roots(plan, quotient, cand, ops)

        def counted_down(plan, *args, **kwargs):
            self.down_passes += 1
            return down(plan, *args, **kwargs)

        def tracked(sigma, units, *args, **kwargs):
            phase = kwargs.get("phase")
            named = phase if phase is not None else next(iter(units), None)
            self._kind = named.kind if named is not None else None
            return run_slot(sigma, units, *args, **kwargs)

        monkeypatch.setattr(FactorisedPlan, "_component_roots", counted_roots)
        monkeypatch.setattr(FactorisedPlan, "_down_pass", counted_down)
        monkeypatch.setattr(engine, "run_slot", tracked)

    @property
    def total(self):
        return sum(self.by_kind.values())

    def reset(self):
        self.by_kind.clear()
        self.down_passes = 0


def _resident(materialiser):
    """``(eliminations, blocks whose eliminations outlive a matcher)``."""
    count = orphaned = 0
    for entry in materialiser._cache.values():
        if not set(entry.eliminations) <= set(entry.matchers):
            orphaned += 1
        for per_unit in entry.eliminations.values():
            count += sum(len(pins) for pins in per_unit.values())
    return count, orphaned


class TestReuse:
    def test_warm_discover_runs_no_elimination_pass(self, monkeypatch):
        graph = _graph()
        with ValidationSession(graph, [], executor="simulated") as session:
            counter = _PassCounter(monkeypatch)
            cold = session.discover(n=2, **PARAMS)
            assert counter.total > 0
            counter.reset()
            warm = session.discover(n=2, **PARAMS)
            assert counter.total == 0
            assert counter.down_passes == 0  # pair tables are kept too
            assert _keys(warm.rules) == _keys(cold.rules)
            assert _reports(warm) == _reports(cold)

    def test_count_phase_reuses_the_enumerate_phase(self, monkeypatch):
        graph = _graph()
        with ValidationSession(graph, [], executor="simulated") as session:
            counter = _PassCounter(monkeypatch)
            run = session.discover(n=2, **PARAMS)
            assert run.phase("count") is not None
            assert counter.by_kind.get("mine", 0) > 0
            assert counter.by_kind.get("count", 0) == 0
            assert _keys(run.rules) == _keys(discover_gfds(graph, **PARAMS))


def _attr_op(graph):
    """An attribute write that changes a two-variable candidate's tally."""
    before = _keys(discover_gfds(graph, **LOW))
    nodes = sorted(graph.nodes(), key=lambda n: -len(graph.out_neighbors(n)))
    for node in nodes[:20]:
        for dst in sorted(graph.out_neighbors(node), key=repr):
            for attr, value in sorted(graph.attrs(dst).items()):
                if graph.attrs(node).get(attr) == value:
                    continue
                old = graph.attrs(node).get(attr)
                graph.set_attr(node, attr, value)
                after = _keys(discover_gfds(graph, **LOW))
                graph.set_attr(node, attr, old)
                changed = set(before) ^ set(after)
                if any(
                    isinstance(literal, VariableLiteral)
                    for key in changed for literal in key[2] + key[3]
                ):
                    return ("attr", node, attr, value)
    raise AssertionError("no attribute write changes a pair-table tally")


def _edge(graph):
    """An edge whose removal keeps some unit's block but changes what
    the unit mines there, so a patched block must not serve stale
    eliminations."""

    def mined(probes):
        return {
            (probes[unit.group.leader_index].pattern, unit.assignment,
             unit.block_nodes): unit
            for unit in estimate_workload(probes, graph)
        }

    def evidence(probes, unit):
        mine = replace(unit, kind="mine", payload=(5000, "aggregate"))
        return execute_unit(probes, graph, mine).payload

    probes = probe_gfds(candidate_patterns(graph))
    units = mined(probes)
    for src, dst, label in sorted(graph.edges(), key=repr):
        inside = [
            key for key in units if src in key[2] and dst in key[2]
        ]
        before = {key: evidence(probes, units[key]) for key in inside}
        graph.remove_edge(src, dst, label)
        after_probes = probe_gfds(candidate_patterns(graph))
        after = mined(after_probes)
        changed = any(
            key in after
            and evidence(after_probes, after[key]) != before[key]
            for key in inside
        )
        graph.add_edge(src, dst, label)
        if changed:
            return src, dst, label
    raise AssertionError("no edge removal changes a kept block's evidence")


@pytest.fixture(scope="module")
def update_ops():
    graph = _graph()
    return _attr_op(graph), _edge(graph)


@pytest.mark.parametrize("executor", ["simulated", "process"])
def test_updates_mine_like_a_fresh_session(executor, update_ops):
    """After an attribute op that changes a pair-table tally, and after
    an edge delete and re-insert, the warm session mines and charges
    exactly what a fresh session and the serial miner do."""
    graph = _graph()
    attr_op, (src, dst, label) = update_ops
    options = dict(executor=executor, processes=2, ship_mode=SHIP_MODE)
    with ValidationSession(graph, [], **options) as session:
        session.discover(n=2, **LOW)  # everything resident
        for ops in (
            [attr_op],
            [("edge-", src, dst, label)],
            [("edge+", src, dst, label)],
        ):
            session.update(ops)
            warm = session.discover(n=2, **LOW)
            with ValidationSession(graph, [], **options) as fresh:
                cold = fresh.discover(n=2, **LOW)
            assert _keys(warm.rules) == _keys(cold.rules), ops
            assert _keys(warm.rules) == _keys(discover_gfds(graph, **LOW)), ops
            assert _reports(warm) == _reports(cold), ops


def test_varied_discovers_bound_the_resident_eliminations():
    """A Σ swap drops the eliminations with their matchers, so after
    each discover the resident eliminations are at most the pins of the
    two rule sets the block cache retains."""
    graph = _graph()

    def pins(max_edges, top_edges):
        probes = probe_gfds(candidate_patterns(
            graph, max_edges=max_edges, top_edges=top_edges
        ))
        return sum(
            len(list(candidate_permutations(
                probes[unit.group.leader_index].pattern,
                probes[unit.group.leader_index].pivot,
                unit.pivot_assignment,
            )))
            for unit in estimate_workload(probes, graph)
        )

    with ValidationSession(graph, [], executor="simulated") as session:
        previous = 0
        seen = 0
        for edges, top in ((2, 5), (1, 2), (1, 3), (2, 3), (1, 7)):
            session.discover(n=2, max_edges=edges, top_edges=top, **PARAMS)
            current = pins(edges, top)
            resident, orphaned = _resident(session._materialiser)
            assert orphaned == 0
            assert resident <= current + previous, (edges, top)
            seen = max(seen, resident)
            previous = current
        assert seen > 0


class TestWorkerLifetime:
    """A worker slot's eliminations follow its matchers across deltas."""

    def _slot(self):
        graph = _graph()
        probes = probe_gfds(candidate_patterns(graph))
        units = [
            replace(unit, kind="mine", payload=(50, "aggregate"))
            for unit in estimate_workload(probes, graph)
        ]
        cache = {}
        _run_slot(cache, 0, "full", (
            "e1", pack_shard(probes), ("pickle", pack_shard(graph)), 10_000,
        ), units)
        materialiser = cache[("e1", 0)].materialiser
        block_nodes, entry = next(
            (key, entry) for key, entry in materialiser._cache.items()
            if entry.eliminations and any(
                u.block_nodes == key and len(u.block_nodes) > 1 for u in units
            )
        )
        return graph, cache, block_nodes, entry

    @staticmethod
    def _eliminations(entry):
        return [
            elimination
            for per_unit in entry.eliminations.values()
            for pins in per_unit.values()
            for elimination in pins
        ]

    def test_attribute_delta_drops_eliminations_keeps_matchers(self):
        graph, cache, block_nodes, entry = self._slot()
        assert self._eliminations(entry)
        matchers = dict(entry.matchers)
        node = min(block_nodes, key=repr)
        delta = pack_shard(([("attr", node, "A0", "fresh")], [], []))
        _run_slot(cache, 0, "delta", ("e1", delta, None), [])
        assert not entry.eliminations
        assert entry.matchers == matchers

    def test_structural_delta_drops_eliminations(self):
        graph, cache, block_nodes, entry = self._slot()
        assert entry.eliminations
        edge = min(
            (
                (src, dst, label) for src, dst, label in graph.edges()
                if src in block_nodes and dst in block_nodes
            ),
            key=repr,
        )
        delta = pack_shard(([("edge-", *edge)], [], []))
        _run_slot(cache, 0, "delta", ("e1", delta, None), [])
        assert not entry.eliminations and not entry.matchers
