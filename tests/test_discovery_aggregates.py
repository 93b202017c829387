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
VF2 whatever ran before them on the session.
"""

import random

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
)
from repro.datasets import dbpedia_like, pokec_like
from repro.matching import SubgraphMatcher

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


#: every (eval mode, executor, processes) the match-shipping fallbacks
#: must agree with serial mining under
FALLBACK_MATRIX = [
    pytest.param(mode, executor, processes, id=f"{mode}-{executor}")
    for mode in ("auto", "enumerate")
    for executor, processes in (("simulated", None), ("process", 2))
]


class TestFallbackPaths:
    """The two documented match-shipping fallbacks and the eval modes."""

    @pytest.fixture(scope="class")
    def mining_graph(self):
        return power_law_graph(
            170, 400, seed=0, domain_size=7,
            node_labels=["person", "city", "org"],
            edge_labels=["knows", "in", "for"],
        )

    @pytest.mark.parametrize("eval_mode,executor,processes", FALLBACK_MATRIX)
    def test_seeded_sample_falls_back_to_match_shipping(
        self, mining_graph, eval_mode, executor, processes
    ):
        serial = discover_gfds(mining_graph, sample_size=12, seed=4, **PARAMS)
        assert serial
        with ValidationSession(
            mining_graph, [], executor=executor, processes=processes
        ) as session:
            run = session.discover(
                n=3, sample_size=12, seed=4, eval_mode=eval_mode, **PARAMS
            )
        assert rule_keys(run.rules) == rule_keys(serial)
        assert run.violations == det_vio(run.sigma, mining_graph)

    @pytest.mark.parametrize("eval_mode,executor,processes", FALLBACK_MATRIX)
    def test_capped_pattern_falls_back_to_match_fetch(
        self, mining_graph, eval_mode, executor, processes
    ):
        serial = discover_gfds(mining_graph, max_matches=15, **PARAMS)
        with ValidationSession(
            mining_graph, [], executor=executor, processes=processes
        ) as session:
            run = session.discover(
                n=3, max_matches=15, eval_mode=eval_mode, **PARAMS
            )
        assert rule_keys(run.rules) == rule_keys(serial)
        assert run.capped_rules or any(
            d.support == 15 for d in run.rules
        )  # the cap demonstrably engaged somewhere
        assert run.violations == det_vio(run.sigma, mining_graph)

    @pytest.mark.parametrize("executor,processes", [
        ("simulated", None), ("process", 2),
    ])
    def test_eval_modes_agree_with_serial_mining(
        self, mining_graph, executor, processes
    ):
        """Every evaluation mode, on every backend, mines the serial
        rule set — and the telemetry proves which path actually ran."""
        serial = discover_gfds(mining_graph, **PARAMS)
        assert serial
        reference = [(d.gfd.name, d.support, d.confidence) for d in serial]
        for mode in ("auto", "factorised", "enumerate"):
            with ValidationSession(
                mining_graph, [], executor=executor, processes=processes
            ) as session:
                run = session.discover(n=3, eval_mode=mode, **PARAMS)
            assert [(d.gfd.name, d.support, d.confidence)
                    for d in run.rules] == reference, (executor, mode)
            if mode in ("auto", "factorised"):
                # Every candidate pattern here factorises: zero VF2
                # enumerations in mine and count.
                assert run.phase("enumerate").vf2_units == 0
                assert run.phase("count").vf2_units == 0
            if mode == "enumerate":
                assert run.phase("enumerate").vf2_units > 0


    @pytest.mark.parametrize("executor,processes", [
        ("simulated", None), ("process", 2),
    ])
    def test_auto_after_enumerate_equals_a_fresh_auto_discover(
        self, mining_graph, executor, processes
    ):
        """Enumerating discovers leave nothing an ``"auto"`` one reads:
        it still answers mine and count from resident eliminations, and
        mines, confirms and charges exactly what a fresh session does."""
        with ValidationSession(
            mining_graph, [], executor=executor, processes=processes
        ) as fresh:
            reference = fresh.discover(n=3, **PARAMS)
        with ValidationSession(
            mining_graph, [], executor=executor, processes=processes
        ) as session:
            for _ in range(2):
                session.discover(n=3, eval_mode="enumerate", **PARAMS)
            run = session.discover(n=3, eval_mode="auto", **PARAMS)
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
