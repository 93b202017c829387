"""Satellite: the aggregates ≡ matches equivalence contract.

Discovery's parallel data path ships mergeable
:class:`~repro.core.discovery.EvidenceAggregate` payloads instead of
match lists (see ``ISSUE 5`` / ``ROADMAP``); the mined rule set is only
allowed to be identical to serial mining if dependency proposals from
*merged worker aggregates* equal proposals from the *full canonical
match list* — whatever the graph, however the matches are partitioned
into units and workers, and however the partial aggregates are merged.
This suite is the property-level lock on that contract, plus the two
documented match-shipping fallbacks (the ``max_matches`` cap and the
explicit seeded evidence sample), which re-enumerate their units with
VF2 whatever ran before them on the session, and the VF2 path a unit
takes on its own when its leader pattern does not factorise (a cyclic
probe pattern) — each against the enumerating serial reference.
"""

import random
from dataclasses import replace

import pytest

from repro import (
    EvidenceAggregate,
    ValidationSession,
    det_vio,
    discover_gfds,
    power_law_graph,
)
from repro.core.discovery import (
    candidate_dependencies,
    candidate_patterns,
    canonical_matches,
    count_dependency,
    match_items_key,
    probe_gfds,
)
from repro.datasets import dbpedia_like, pokec_like
from repro.matching import SubgraphMatcher
from repro.parallel import estimate_workload, execute_unit
from repro.parallel.balancing import lpt_partition
from repro.parallel.engine import BlockMaterialiser
from repro.parallel.executors import MultiprocessExecutor
from repro.parallel.multiquery import build_shared_groups
from repro.parallel.workload import UnitPhase
from repro.pattern.pattern import GraphPattern

PARAMS = dict(min_support=3, min_confidence=0.85)


def graph_workloads():
    """(name, graph) pairs spanning distinct generators and shapes."""
    dense = power_law_graph(
        150, 360, seed=3, domain_size=6,
        node_labels=["person", "city", "org"],
        edge_labels=["knows", "in", "for"],
    )
    skewed = power_law_graph(
        120, 300, alpha=1.6, seed=11, domain_size=4,
        node_labels=["a", "b"], edge_labels=["e1", "e2"],
        attributes=("A", "B", "C"),
    )
    return [
        ("power_law_dense", dense),
        ("power_law_skewed", skewed),
        ("dbpedia_like", dbpedia_like.build(scale=120, seed=5).graph),
        ("pokec_like", pokec_like.build(seed=7).graph),
    ]


WORKLOADS = graph_workloads()


def pattern_matches(graph, limit=6):
    """Per candidate pattern, its full match list (patterns with any)."""
    out = []
    for pattern in candidate_patterns(graph)[:limit]:
        matches = list(SubgraphMatcher(pattern, graph).matches())
        if matches:
            out.append((pattern, matches))
    return out


def chunked(matches, pieces, seed):
    """A seeded partition of the match list into ``pieces`` chunks."""
    shuffled = list(matches)
    random.Random(seed).shuffle(shuffled)
    chunks = [[] for _ in range(pieces)]
    for position, match in enumerate(shuffled):
        chunks[position % pieces].append(match)
    return chunks


class TestAggregateEquivalence:
    """Merged chunk folds ≡ one fold ≡ the match-list proposal."""

    @pytest.mark.parametrize("name,graph", WORKLOADS,
                             ids=[name for name, _ in WORKLOADS])
    @pytest.mark.parametrize("pieces", [1, 2, 3, 5])
    def test_merged_chunks_propose_identically(self, name, graph, pieces):
        found_any = False
        for pattern, matches in pattern_matches(graph):
            reference = candidate_dependencies(
                pattern, graph, canonical_matches(matches)
            )
            merged = EvidenceAggregate()
            for chunk in chunked(matches, pieces, seed=pieces):
                merged.merge(EvidenceAggregate.from_matches(graph, chunk))
            assert merged.propose(pattern) == reference, (name, pieces)
            assert merged.count == len(matches)
            found_any = found_any or bool(reference)
        assert found_any, f"{name}: no pattern proposed anything"

    @pytest.mark.parametrize("merge_seed", range(4))
    def test_merge_order_invariance(self, merge_seed):
        _, graph = WORKLOADS[0]
        pattern, matches = max(
            pattern_matches(graph), key=lambda pair: len(pair[1])
        )
        parts = [
            EvidenceAggregate.from_matches(graph, chunk)
            for chunk in chunked(matches, 6, seed=1)
        ]
        random.Random(merge_seed).shuffle(parts)
        merged = EvidenceAggregate()
        for part in parts:
            merged.merge(part)
        baseline = EvidenceAggregate.from_matches(
            graph, canonical_matches(matches)
        )
        # Same payload byte-for-byte, not merely the same proposals:
        # folding is commutative and associative all the way down.
        assert merged.to_payload() == baseline.to_payload()

    def test_payload_round_trip(self):
        _, graph = WORKLOADS[0]
        for pattern, matches in pattern_matches(graph):
            aggregate = EvidenceAggregate.from_matches(graph, matches)
            restored = EvidenceAggregate.from_payload(aggregate.to_payload())
            assert restored.to_payload() == aggregate.to_payload()
            assert restored.propose(pattern) == aggregate.propose(pattern)

    def test_rename_commutes_with_folding(self):
        """Renaming the aggregate ≡ folding the translated matches (the
        isomorphism-group member view of the leader's enumeration)."""
        _, graph = WORKLOADS[0]
        pattern, matches = pattern_matches(graph)[0]
        iso = {var: f"m_{var}" for var in pattern.variables}
        renamed = EvidenceAggregate.from_matches(graph, matches).rename(iso)
        translated = EvidenceAggregate.from_matches(
            graph,
            [{iso[var]: node for var, node in match.items()}
             for match in matches],
        )
        assert renamed.to_payload() == translated.to_payload()

    def test_value_table_many_semantics(self):
        """Exactly one distinct value proposes a constant rule; a second
        value anywhere (same unit or a merged one) kills it."""
        from repro.graph import PropertyGraph

        graph = PropertyGraph()
        for index in range(6):
            graph.add_node(f"p{index}", "person",
                           {"uniform": "k", "varied": f"v{index % 2}"})
            graph.add_node(f"c{index}", "city", None)
            graph.add_edge(f"p{index}", f"c{index}", "in")
        pattern = candidate_patterns(graph)[0]
        matches = list(SubgraphMatcher(pattern, graph).matches())
        halves = chunked(matches, 2, seed=0)
        merged = EvidenceAggregate.from_matches(graph, halves[0]).merge(
            EvidenceAggregate.from_matches(graph, halves[1])
        )
        constants = {
            (rhs[0].attr, rhs[0].const)
            for lhs, rhs in merged.propose(pattern)
            if not lhs and rhs[0].var == "x"
        }
        assert ("uniform", "k") in constants
        assert not any(attr == "varied" for attr, _ in constants)
        assert merged.values[("x", "varied")] is EvidenceAggregate.MANY

    def test_empty_aggregate_proposes_nothing(self):
        _, graph = WORKLOADS[0]
        pattern, _ = pattern_matches(graph)[0]
        assert EvidenceAggregate().propose(pattern) == []


class TestFactorisedEquivalence:
    """Tentpole lock: count-only factorised evaluation is observationally
    identical to VF2 enumeration — exact counts, byte-identical
    :class:`EvidenceAggregate` payloads, identical dependency tallies,
    and the same mined rule set — across every workload generator and
    however the pivot space is partitioned into pinned sub-queries
    (mirroring the parallel engine's per-unit evaluation)."""

    @pytest.mark.parametrize("name,graph", WORKLOADS,
                             ids=[name for name, _ in WORKLOADS])
    def test_counts_evidence_tallies_match_enumeration(self, name, graph):
        covered = 0
        for pattern in candidate_patterns(graph)[:8]:
            matcher = SubgraphMatcher(pattern, graph)
            if matcher.factorised_plan() is None:
                continue
            covered += 1
            matches = list(matcher.matches())
            assert matcher.count_matches(eval_mode="factorised") \
                == len(matches)
            fact_count, fact_agg = matcher.evidence(eval_mode="factorised")
            enum_count, enum_agg = matcher.evidence(eval_mode="enumerate")
            assert fact_count == enum_count == len(matches)
            # Byte-identical evidence, not merely identical proposals.
            assert fact_agg.to_payload() == enum_agg.to_payload()
            deps = enum_agg.propose(pattern)
            if deps:
                assert matcher.dependency_tallies(
                    deps, eval_mode="factorised"
                ) == matcher.dependency_tallies(
                    deps, eval_mode="enumerate"
                )
        assert covered, f"{name}: no factorisable candidate pattern"

    @pytest.mark.parametrize("name,graph", WORKLOADS,
                             ids=[name for name, _ in WORKLOADS])
    @pytest.mark.parametrize("pieces", [1, 2, 3, 5])
    def test_pinned_partitions_fold_to_whole(self, name, graph, pieces):
        """Splitting a pattern's pivot space into pinned sub-queries and
        folding the per-pin factorised evidence reproduces the unpinned
        whole — the invariant the engine's mine units rely on."""
        from repro.matching import compute_candidates

        covered = 0
        for pattern in candidate_patterns(graph)[:4]:
            matcher = SubgraphMatcher(pattern, graph)
            if matcher.factorised_plan() is None:
                continue
            covered += 1
            whole_count, whole_agg = matcher.evidence(
                eval_mode="factorised"
            )
            var = min(pattern.variables)
            nodes = sorted(compute_candidates(pattern, graph)[var], key=str)
            merged = EvidenceAggregate()
            total = 0
            for chunk in chunked(nodes, pieces, seed=pieces):
                part = EvidenceAggregate()
                for node in chunk:
                    pin_count, pin_agg = matcher.evidence(
                        fixed={var: node}, eval_mode="factorised"
                    )
                    total += pin_count
                    part.merge(pin_agg)
                merged.merge(part)
            assert total == whole_count, (name, pieces)
            assert merged.to_payload() == whole_agg.to_payload()
        assert covered, f"{name}: no factorisable candidate pattern"

    @pytest.mark.parametrize("name,graph", WORKLOADS,
                             ids=[name for name, _ in WORKLOADS])
    def test_mined_rules_identical_across_eval_modes(self, name, graph):
        runs = {
            mode: discover_gfds(graph, eval_mode=mode, **PARAMS)
            for mode in ("auto", "factorised", "enumerate")
        }
        keys = {
            mode: [(d.gfd.name, d.support, d.confidence) for d in run]
            for mode, run in runs.items()
        }
        assert keys["auto"] == keys["factorised"] == keys["enumerate"]


def rule_keys(rules):
    return [(d.gfd.name, d.support, d.confidence) for d in rules]


#: the backends every session-level fallback must agree with serial
#: mining under
BACKENDS = [
    pytest.param("simulated", None, id="simulated"),
    pytest.param("process", 2, id="process"),
]


def triangle_workload():
    """A graph dense in directed triangles and the triangle's probe Σ.

    A triangle's join structure is cyclic, so no factorised plan exists
    for it: every ``mine`` and ``count`` unit over it takes the VF2
    path, as any cyclic or wider-than-``MAX_VARS`` pattern does.
    """
    graph = power_law_graph(
        60, 300, seed=1, domain_size=3, node_labels=["a"],
        edge_labels=["e"], attributes=("A", "B"),
    )
    triangle = GraphPattern()
    for var in "xyz":
        triangle.add_node(var, "a")
    for src, dst in (("x", "y"), ("y", "z"), ("z", "x")):
        triangle.add_edge(src, dst, "e")
    sigma = probe_gfds([triangle])
    units = estimate_workload(sigma, graph, groups=build_shared_groups(sigma))
    return graph, sigma, units


class TestCyclicProbeFallback:
    """Units whose leader pattern does not factorise enumerate with VF2,
    and their merged payloads are the serial reference's."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph, sigma, units = triangle_workload()
        matcher = SubgraphMatcher(sigma[0].pattern, graph)
        assert matcher.factorised_plan() is None
        matches = list(matcher.matches())
        # A block with no triangle through its pin gets a (trivially
        # empty) factorised plan; the units that hold every match are
        # those pinned on a triangle, and each holds a cyclic block.
        (pivot,) = (entry.variable for entry in sigma[0].pivot.entries)
        pinned = {match[pivot] for match in matches}
        units = [unit for unit in units
                 if unit.pivot_assignment[pivot] in pinned]
        assert units
        return graph, sigma, units, matches

    @pytest.fixture(scope="class", params=["units", "pool"])
    def run_phase(self, request, workload):
        """Runs one phase over the units and returns the group payloads:
        one unit at a time (each asserted to run exactly one VF2 walk),
        or as a two-slot plan through a two-worker pool."""
        graph, sigma, units, _ = workload
        if request.param == "units":
            def run(kind, payload):
                materialiser = BlockMaterialiser(graph)
                payloads = []
                for unit in units:
                    result = execute_unit(
                        sigma, graph, replace(unit, kind=kind, payload=payload),
                        materialiser,
                    )
                    assert result.vf2_units == 1
                    payloads.extend(result.payloads.values())
                return payloads

            yield run
            return
        plan, _ = lpt_partition(units, 2)
        leader = units[0].group.leader_index
        with MultiprocessExecutor(processes=2) as pool:
            def run(kind, payload):
                results = pool.run(
                    sigma, graph, plan,
                    phase=UnitPhase(kind=kind, payloads={leader: payload}),
                )
                assert sum(result.vf2_units for result in results) \
                    == len(units)
                return [
                    found for result in results
                    for found in result.payloads.values()
                ]

            yield run

    def test_mine_aggregate_units_enumerate_the_serial_evidence(
        self, workload, run_phase
    ):
        graph, _, _, matches = workload
        merged = EvidenceAggregate()
        for payload in run_phase("mine", (5000, "aggregate")):
            merged.merge(EvidenceAggregate.from_payload(payload))
        serial = EvidenceAggregate()
        for match in matches:
            serial.add(graph, match)
        assert merged.to_payload() == serial.to_payload()

    def test_mine_match_units_ship_the_serial_matches(
        self, workload, run_phase
    ):
        matches = workload[-1]
        shipped = []
        for kind, found in run_phase("mine", (5000, "matches")):
            assert kind == "shared"
            shipped.extend(found)
        assert sorted(shipped, key=match_items_key) == sorted(
            (tuple(sorted(match.items())) for match in matches),
            key=match_items_key,
        )

    def test_count_units_tally_the_serial_counts(self, workload, run_phase):
        graph, sigma, _, matches = workload
        deps = candidate_dependencies(sigma[0].pattern, graph, matches)
        assert deps
        totals = [[0, 0] for _ in deps]
        for (member_counts,) in run_phase("count", (tuple(deps),)):
            for pos, supported, satisfied in member_counts:
                totals[pos][0] += supported
                totals[pos][1] += satisfied
        assert totals == [
            list(count_dependency(graph, matches, lhs, rhs))
            for lhs, rhs in deps
        ]
        assert any(supported for supported, _ in totals)


class TestFallbackPaths:
    """The two documented match-shipping fallbacks, and the default path,
    against the enumerating serial reference."""

    @pytest.fixture(scope="class")
    def mining_graph(self):
        return power_law_graph(
            170, 400, seed=0, domain_size=7,
            node_labels=["person", "city", "org"],
            edge_labels=["knows", "in", "for"],
        )

    @pytest.mark.parametrize("executor,processes", BACKENDS)
    def test_default_discover_equals_enumerating_serial_mining(
        self, mining_graph, executor, processes
    ):
        """Unit-chosen paths mine the enumerating serial rule set, and
        the telemetry proves every mine and count unit factorised."""
        serial = discover_gfds(mining_graph, eval_mode="enumerate", **PARAMS)
        assert serial
        with ValidationSession(
            mining_graph, [], executor=executor, processes=processes
        ) as session:
            run = session.discover(n=3, **PARAMS)
        assert rule_keys(run.rules) == rule_keys(serial)
        # Every candidate pattern here factorises: zero VF2
        # enumerations in mine and count.
        assert run.phase("enumerate").vf2_units == 0
        assert run.phase("count").vf2_units == 0
        assert run.violations == det_vio(run.sigma, mining_graph)

    @pytest.mark.parametrize("executor,processes", BACKENDS)
    def test_seeded_sample_falls_back_to_match_shipping(
        self, mining_graph, executor, processes
    ):
        serial = discover_gfds(
            mining_graph, sample_size=12, seed=4, eval_mode="enumerate",
            **PARAMS,
        )
        assert serial
        with ValidationSession(
            mining_graph, [], executor=executor, processes=processes
        ) as session:
            run = session.discover(n=3, sample_size=12, seed=4, **PARAMS)
        assert rule_keys(run.rules) == rule_keys(serial)
        # match lists need witnesses: every mine unit enumerated
        assert run.phase("enumerate").vf2_units > 0
        assert run.violations == det_vio(run.sigma, mining_graph)

    @pytest.mark.parametrize("executor,processes", BACKENDS)
    def test_capped_pattern_falls_back_to_match_fetch(
        self, mining_graph, executor, processes
    ):
        serial = discover_gfds(
            mining_graph, max_matches=15, eval_mode="enumerate", **PARAMS
        )
        with ValidationSession(
            mining_graph, [], executor=executor, processes=processes
        ) as session:
            run = session.discover(n=3, max_matches=15, **PARAMS)
        assert rule_keys(run.rules) == rule_keys(serial)
        assert run.capped_rules or any(
            d.support == 15 for d in run.rules
        )  # the cap demonstrably engaged somewhere
        # the capped fetch re-enumerates its groups' units
        assert run.phase("enumerate").vf2_units > 0
        assert run.violations == det_vio(run.sigma, mining_graph)

    def test_non_factorising_units_mine_the_serial_rules(
        self, mining_graph, monkeypatch
    ):
        """With no factorised plan — what a cyclic or wide candidate
        pattern gets — every mine and count unit enumerates, and mining
        still returns the serial rule set.  In-process only: the patch
        would reach forked pool workers but not a respawned one
        (:class:`TestCyclicProbeFallback` covers pools with a pattern
        that really is cyclic)."""
        serial = discover_gfds(mining_graph, eval_mode="enumerate", **PARAMS)
        monkeypatch.setattr(
            SubgraphMatcher, "factorised_plan", lambda self: None
        )
        with ValidationSession(mining_graph, [], executor="simulated") \
                as session:
            run = session.discover(n=3, **PARAMS)
        assert rule_keys(run.rules) == rule_keys(serial)
        for name in ("enumerate", "count"):
            phase = run.phase(name)
            assert phase.vf2_units == phase.num_units, name

    @pytest.mark.parametrize("executor,processes", BACKENDS)
    def test_default_after_fallback_discovers_equals_a_fresh_discover(
        self, mining_graph, executor, processes
    ):
        """Sampled and capped discovers enumerate, and leave nothing a
        default one reads: it still answers mine and count from resident
        eliminations, and mines, confirms and charges exactly what a
        fresh session does."""
        with ValidationSession(
            mining_graph, [], executor=executor, processes=processes
        ) as fresh:
            reference = fresh.discover(n=3, **PARAMS)
        with ValidationSession(
            mining_graph, [], executor=executor, processes=processes
        ) as session:
            session.discover(n=3, sample_size=12, seed=4, **PARAMS)
            session.discover(n=3, max_matches=15, **PARAMS)
            run = session.discover(n=3, **PARAMS)
        assert rule_keys(run.rules) == rule_keys(reference.rules)
        assert run.sigma == reference.sigma
        assert run.violations == reference.violations
        assert [phase.phase for phase in run.phases] == [
            phase.phase for phase in reference.phases
        ]
        for phase in run.phases:
            fresh_phase = reference.phase(phase.phase)
            assert phase.report == fresh_phase.report
            assert phase.vf2_units == fresh_phase.vf2_units, phase.phase
        assert run.phase("enumerate").vf2_units == 0
        assert run.phase("count").vf2_units == 0
