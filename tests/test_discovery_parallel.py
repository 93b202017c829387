"""Differential suite for session-backed parallel GFD discovery.

Pins the tentpole contract of `ValidationSession.discover`:

* **parallel ≡ serial** — the mined rule set (rules, names, supports,
  confidences) from `session.discover` on the simulated *and* the real
  process executor is identical to serial `discover_gfds`, across seeded
  graphs × worker counts (≥ 10 combinations) and across fragmented-graph
  mining;
* **warm phases ship nothing** — on a persistent process pool the count
  phase and the mined-Σ confirmation pass reuse the worker-resident
  shards mining shipped (zero block-shares, zero nodes; the confirmation
  pass ships only Σ), and a second `discover()` is warm end-to-end;
* **discovery is order-independent** — the snapshot matcher mines the
  same set as the dict-of-dicts oracle in `tests/oracle` (the old
  `matches[:200]` proposal sample depended on enumeration order), and
  the explicit seeded sample is invariant under input shuffling;
* **sessions interleave** — base-Σ validation stays correct before and
  after mining on the same pool (the worker-side rule-set swap);
* **compiled work survives Σ swaps** — a slot's matchers outlive
  discovery's phases and base validates until their block is evicted
  or patched, without changing what is mined or charged; a Σ swap
  drops only the matchers of older rule sets, so they stay bounded
  however many distinct patterns run.
"""

import random
from dataclasses import replace

import pytest

from repro import (
    ValidationSession,
    det_vio,
    discover_gfds,
    generate_gfds,
    power_law_graph,
)
from repro.core.discovery import (
    candidate_dependencies,
    candidate_patterns,
    canonical_matches,
    probe_gfds,
)
from repro.graph import greedy_edge_cut_partition, hash_partition
from repro.matching import SubgraphMatcher
from repro.parallel import estimate_workload
from repro.parallel.executors import _run_slot, pack_shard

from oracle import oracle_discover

SEEDS = (0, 7, 13, 21)
WORKER_COUNTS = (2, 3, 5)
PARAMS = dict(min_support=3, min_confidence=0.85)


def mined_key(discovered):
    """Value identity of a mined rule (name, pattern, dependency, stats)."""
    return (
        discovered.gfd.name,
        discovered.gfd.pattern.signature(),
        discovered.gfd.lhs,
        discovered.gfd.rhs,
        discovered.support,
        discovered.confidence,
    )


@pytest.fixture(scope="module")
def workloads():
    out = {}
    for seed in SEEDS:
        # A dense label alphabet concentrates matches so every seed
        # actually mines a non-trivial rule set (the default 30-label
        # alphabet leaves most candidate patterns below min_support).
        graph = power_law_graph(
            170, 400, seed=seed, domain_size=7,
            node_labels=["person", "city", "org"],
            edge_labels=["knows", "in", "for"],
        )
        out[seed] = (graph, discover_gfds(graph, **PARAMS))
    return out


class TestProcessDiscoveryDifferential:
    """session.discover on the process executor ≡ serial discover_gfds
    across ≥ 10 seeded graph/worker-count combinations (4 × 3 = 12)."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_identical_mined_set_across_worker_counts(self, workloads, seed):
        graph, serial = workloads[seed]
        with ValidationSession(
            graph, [], executor="process", processes=2
        ) as session:
            for n in WORKER_COUNTS:
                run = session.discover(n=n, **PARAMS)
                assert [mined_key(d) for d in run.rules] == [
                    mined_key(d) for d in serial
                ], f"seed={seed} n={n}"
                assert run.executor == "process"
                # The confirmation pass is exact: it must agree with a
                # from-scratch sequential validation of the mined Σ.
                if run.rules:
                    assert run.violations == det_vio(run.sigma, graph)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_warm_phases_ship_zero_block_shares(self, workloads, seed):
        graph, serial = workloads[seed]
        with ValidationSession(
            graph, [], executor="process", processes=2
        ) as session:
            cold = session.discover(n=3, **PARAMS)
            enumerate_phase = cold.phase("enumerate")
            assert enumerate_phase.shipping.full > 0  # mining shipped shards
            # These seeds mine rules below confidence 1.0, so the count
            # tallies leave some open and the confirmation pass runs.
            assert any(d.confidence < 1.0 for d in cold.rules)
            for name in ("count", "confirm"):
                phase = cold.phase(name)
                assert phase is not None, name
                # The acceptance pin: warm passes reuse worker-resident
                # shards — zero block-shares, zero nodes shipped.
                assert phase.shipping.full == 0, name
                assert phase.shipping.delta == 0, name
                assert phase.shipping.shipped_nodes == 0, name
                assert phase.shipping.reused > 0, name
            confirm = cold.phase("confirm")
            # Only the open mined rules themselves travelled.
            assert confirm.shipping.shipped_sigma > 0
            assert (
                confirm.shipping.worker_pids
                == enumerate_phase.shipping.worker_pids
            )
            # A second discover() is warm end-to-end.
            warm = session.discover(n=3, **PARAMS)
            assert [mined_key(d) for d in warm.rules] == [
                mined_key(d) for d in serial
            ]
            for phase in warm.phases:
                assert phase.shipping.full == 0, phase.phase
                assert phase.shipping.shipped_nodes == 0, phase.phase
                # Identical cost figures warm and cold: warmth is a
                # wall-clock win only, never a reporting change.
                assert phase.report == cold.phase(phase.phase).report

    def test_aggregate_payloads_ship_fewer_bytes_than_match_lists(
        self, workloads
    ):
        """The evidence-aggregate data path must beat the match-list
        fallback (an explicit huge sample forces it; the mined set is
        identical because the sample never truncates) on shipped
        payload bytes, for the enumerate *and* the count phase."""
        graph, serial = workloads[0]
        with ValidationSession(
            graph, [], executor="process", processes=2
        ) as session:
            aggregate_run = session.discover(n=3, **PARAMS)
            match_run = session.discover(n=3, sample_size=10**9, **PARAMS)
        for run in (aggregate_run, match_run):
            assert [mined_key(d) for d in run.rules] == [
                mined_key(d) for d in serial
            ]
        for name in ("enumerate", "count"):
            aggregate_bytes = aggregate_run.phase(name).shipping.payload_bytes
            match_bytes = match_run.phase(name).shipping.payload_bytes
            assert aggregate_bytes < match_bytes, (
                f"{name}: aggregates shipped {aggregate_bytes} bytes vs "
                f"{match_bytes} for match lists"
            )

    def test_mining_interleaves_with_base_validation(self, workloads):
        graph, serial = workloads[7]
        sigma = generate_gfds(graph, count=4, pattern_edges=2, seed=7)
        expected = det_vio(sigma, graph)
        with ValidationSession(
            graph, sigma, executor="process", processes=2
        ) as session:
            before = session.validate(n=3)
            assert before.violations == expected
            run = session.discover(n=3, **PARAMS)
            assert [mined_key(d) for d in run.rules] == [
                mined_key(d) for d in serial
            ]
            # The worker pool now holds probe/mined Σ — the next base
            # validation must swap Σ back without reshipping shards.
            after = session.validate(n=3)
            assert after.violations == expected
            assert after.report == before.report
            assert after.shipping.full == 0
            assert after.shipping.shipped_nodes == 0


class TestMatcherRetention:
    """A slot's matchers — candidate sets and factorised plans — live as
    long as their block, across every Σ swap: discovery's phases, a base
    validate in between, a warm repeat.  Keeping them must never change
    what is mined or what is charged."""

    def test_warm_discovers_equal_fresh_and_serial(self, workloads):
        graph = workloads[0][0].copy()
        sigma = generate_gfds(graph, count=3, pattern_edges=1, seed=0)
        removed = min(graph.edges(), key=repr)
        with ValidationSession(
            graph, sigma, executor="process", processes=2
        ) as session:
            session.discover(n=2, **PARAMS)
            for round_ in range(3):
                session.validate(n=2)  # the base Σ swaps in and out
                if round_ == 2:  # a structural delta on warm blocks
                    session.update([("edge-", *removed)])
                warm = session.discover(n=2, **PARAMS)
                current = graph.copy()
                serial = discover_gfds(current, **PARAMS)
                with ValidationSession(current, []) as fresh:
                    cold = fresh.discover(n=2, **PARAMS)
                expected = [mined_key(d) for d in serial]
                assert [mined_key(d) for d in warm.rules] == expected
                assert [mined_key(d) for d in cold.rules] == expected
                assert [(p.phase, p.report) for p in warm.phases] == [
                    (p.phase, p.report) for p in cold.phases
                ], round_

    def test_sigma_swap_keeps_matchers_and_structural_delta_replaces(
        self, workloads
    ):
        graph = workloads[7][0]
        sigma = generate_gfds(graph, count=3, pattern_edges=1, seed=7)
        units = [
            replace(unit, kind="mine", payload=(50, "aggregate"))
            for unit in estimate_workload(sigma, graph)[:20]
        ]
        unit = units[0]
        pattern = sigma[unit.group.leader_index].pattern
        cache = {}
        _run_slot(cache, 0, "full", (
            "e1", pack_shard(sigma), ("pickle", pack_shard(graph)),
        ), units)
        materialiser = cache[("e1", 0)].materialiser

        def matcher():
            return materialiser._cache[unit.block_nodes].matchers[pattern]

        kept = matcher()
        assert kept.factorised_plan() is not None
        # a new rule set over the same shard (a probe Σ, a mined Σ)
        swapped = sigma + generate_gfds(graph, count=2, seed=8)
        _run_slot(cache, 0, "reuse", ("e1", pack_shard(swapped)), units)
        assert matcher() is kept
        # a structural op inside the block drops the block's matchers
        edge = min(
            (
                (src, dst, label) for src, dst, label in graph.edges()
                if src in unit.block_nodes and dst in unit.block_nodes
            ),
            key=repr,
        )
        delta = pack_shard(([("edge-", *edge)], [], []))
        _run_slot(cache, 0, "delta", ("e1", delta, None), [])
        _run_slot(cache, 0, "reuse", ("e1", None), units[:1])
        assert matcher() is not kept

    def test_varied_discovers_keep_two_rule_sets_of_matchers(
        self, workloads
    ):
        """Discovers with changing parameters swap ever new probe Σs
        over one resident shard.  A slot keeps the matchers of the
        outgoing and the incoming Σ and drops older ones, so the
        retained matchers stay bounded however many patterns run."""
        graph = workloads[7][0]
        sigmas = [
            probe_gfds(candidate_patterns(graph, max_edges=edges, top_edges=top))
            for edges, top in ((2, 5), (1, 2), (1, 3), (2, 3), (1, 7))
        ]

        def patterns(sigma):
            return {gfd.pattern for gfd in sigma}

        def retained():
            return {
                pattern
                for entry in cache[("e1", 0)].materialiser._cache.values()
                for pattern in entry.matchers
            }

        cache = {}
        dropped = set()
        for step, sigma in enumerate(sigmas):
            units = [
                replace(unit, kind="mine", payload=(50, "aggregate"))
                for unit in estimate_workload(sigma, graph)
            ]
            allowed = patterns(sigma)
            if step == 0:
                _run_slot(cache, 0, "full", (
                    "e1", pack_shard(sigma), ("pickle", pack_shard(graph)),
                ), units)
            else:
                allowed |= patterns(sigmas[step - 1])
                dropped |= retained() - allowed
                _run_slot(cache, 0, "reuse", ("e1", pack_shard(sigma)), units)
            assert retained() <= allowed, step
        assert dropped  # older rule sets' matchers did go

    def test_simulated_varied_discovers_keep_two_rule_sets_of_matchers(
        self, workloads
    ):
        """The simulated twin: the session's own block cache serves
        every rule set a simulated session runs, and applies the slots'
        Σ-swap rule, so varied discovers do not pile matchers up."""
        graph = workloads[7][0]
        sigma = generate_gfds(graph, count=3, pattern_edges=1, seed=7)

        def patterns(edges, top):
            return {
                gfd.pattern for gfd in probe_gfds(
                    candidate_patterns(graph, max_edges=edges, top_edges=top)
                )
            }

        with ValidationSession(graph, sigma, executor="simulated") as session:

            def retained():
                return {
                    pattern
                    for entry in session._materialiser._cache.values()
                    for pattern in entry.matchers
                }

            session.validate(n=2)
            previous = {gfd.pattern for gfd in sigma}
            dropped = set()
            for edges, top in ((2, 5), (1, 2), (1, 3), (2, 3), (1, 7)):
                before = retained()
                run = session.discover(
                    n=2, max_edges=edges, top_edges=top, **PARAMS
                )
                current = patterns(edges, top)
                dropped |= before - retained()
                assert retained() <= current | previous, (edges, top)
                assert [mined_key(d) for d in run.rules] == [
                    mined_key(d) for d in discover_gfds(
                        graph, max_edges=edges, top_edges=top, **PARAMS
                    )
                ]
                previous = current
            assert session.validate(n=2).violations == det_vio(sigma, graph)
        assert dropped  # older rule sets' matchers did go


class TestSimulatedDiscoveryDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_identical_mined_set(self, workloads, seed):
        graph, serial = workloads[seed]
        with ValidationSession(graph, [], executor="simulated") as session:
            run = session.discover(n=4, **PARAMS)
        assert [mined_key(d) for d in run.rules] == [
            mined_key(d) for d in serial
        ]
        assert run.executor == "simulated"
        assert run.phases[0].shipping is None
        assert run.phases[0].cache is not None

    def test_warm_simulated_discover_reuses_blocks(self, workloads):
        graph, _ = workloads[0]
        with ValidationSession(graph, [], executor="simulated") as session:
            cold = session.discover(n=2, **PARAMS)
            warm = session.discover(n=2, **PARAMS)
        assert cold.phase("enumerate").cache.builds > 0
        assert warm.phase("enumerate").cache.builds == 0
        assert warm.phase("enumerate").cache.hits > 0
        for phase in warm.phases:
            assert phase.report == cold.phase(phase.phase).report


class TestFragmentedDiscovery:
    """The new scenario: mining a fragmented graph, disVal-style."""

    @pytest.mark.parametrize("partitioner", [hash_partition,
                                             greedy_edge_cut_partition])
    @pytest.mark.parametrize("executor,processes", [
        ("simulated", None), ("process", 2),
    ])
    def test_fragmented_mining_matches_serial(
        self, workloads, partitioner, executor, processes
    ):
        graph, serial = workloads[13]
        fragmentation = partitioner(graph, 3, seed=1)
        with ValidationSession(
            graph, [], executor=executor, processes=processes
        ) as session:
            run = session.discover(fragmentation=fragmentation, **PARAMS)
        assert [mined_key(d) for d in run.rules] == [
            mined_key(d) for d in serial
        ]
        # Fragmented mining charges communication for assembling blocks
        # that straddle fragments, exactly like disVal.
        assert run.phase("enumerate").report.total_shipped > 0

    def test_fragmented_rejects_mismatched_n(self, workloads):
        graph, _ = workloads[13]
        fragmentation = hash_partition(graph, 3, seed=0)
        with ValidationSession(graph, []) as session:
            with pytest.raises(ValueError, match="implied"):
                session.discover(n=2, fragmentation=fragmentation)

    def test_fragmented_rejects_foreign_graph(self, workloads):
        graph, _ = workloads[13]
        other = graph.copy()
        with ValidationSession(graph, []) as session:
            with pytest.raises(ValueError, match="different graph"):
                session.discover(
                    fragmentation=hash_partition(other, 2, seed=0)
                )


class TestDiscoveryOrderIndependence:
    """Satellite: the mined set never depends on enumeration order."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_legacy_vs_snapshot_backends_mine_identically(
        self, workloads, seed
    ):
        graph, _ = workloads[seed]
        legacy = oracle_discover(graph, **PARAMS)
        snapshot = discover_gfds(graph, **PARAMS)
        assert [mined_key(d) for d in legacy] == [
            mined_key(d) for d in snapshot
        ]

    def test_seeded_sample_is_input_order_invariant(self, workloads):
        graph, _ = workloads[0]
        pattern, matches = max(
            (
                (p, list(SubgraphMatcher(p, graph).matches()))
                for p in candidate_patterns(graph)
            ),
            key=lambda pair: len(pair[1]),
        )
        assert len(matches) > 12
        baseline = candidate_dependencies(
            pattern, graph, canonical_matches(matches),
            sample_size=10, seed=5,
        )
        for shuffle_seed in range(3):
            shuffled = list(matches)
            random.Random(shuffle_seed).shuffle(shuffled)
            assert candidate_dependencies(
                pattern, graph, shuffled, sample_size=10, seed=5
            ) == baseline

    def test_sample_seed_changes_sample(self, workloads):
        """The sample really is seeded (not a fixed prefix): different
        seeds may propose different evidence, same seed never does."""
        graph, _ = workloads[0]
        pattern = candidate_patterns(graph)[0]
        matches = list(SubgraphMatcher(pattern, graph).matches())
        once = candidate_dependencies(
            pattern, graph, matches, sample_size=5, seed=1
        )
        again = candidate_dependencies(
            pattern, graph, matches, sample_size=5, seed=1
        )
        assert once == again

    def test_max_matches_cap_is_canonical(self, workloads):
        """A cap below the match count still mines deterministically and
        identically to the oracle (the cap selects a canonical prefix,
        not an enumeration-order prefix)."""
        graph, _ = workloads[7]
        capped_legacy = oracle_discover(graph, max_matches=20, **PARAMS)
        capped_snapshot = discover_gfds(graph, max_matches=20, **PARAMS)
        assert [mined_key(d) for d in capped_legacy] == [
            mined_key(d) for d in capped_snapshot
        ]

    def test_capped_parallel_matches_capped_serial(self, workloads):
        """When the cap bites, the session falls back to coordinator-side
        counting over the canonical subset — still identical to serial."""
        graph, _ = workloads[7]
        serial = discover_gfds(graph, max_matches=20, **PARAMS)
        with ValidationSession(
            graph, [], executor="process", processes=2
        ) as session:
            run = session.discover(n=3, max_matches=20, **PARAMS)
        assert [mined_key(d) for d in run.rules] == [
            mined_key(d) for d in serial
        ]

    def test_dense_block_triggers_worker_side_capping(self):
        """A single pivot block with thousands of matches flips the mine
        unit onto the bounded per-member payload path (worker-side
        member-space capping) — the mined set must stay identical to the
        serial reference."""
        from repro.graph import PropertyGraph

        graph = PropertyGraph()
        graph.add_node("hub", "person", {"A": "a"})
        for i in range(70):
            graph.add_node(f"c{i:02d}", "city", {"zip": f"z{i % 2}"})
            graph.add_edge("hub", f"c{i:02d}", "lives_in")
        # The fan pattern x->y, x->z has 70·69 = 4830 matches in one
        # unit — past the worker's compaction threshold.
        serial = discover_gfds(
            graph, min_support=5, min_confidence=0.9, max_matches=30
        )
        assert serial  # the dense block must actually mine something
        for executor, processes in (("simulated", None), ("process", 2)):
            with ValidationSession(
                graph, [], executor=executor, processes=processes
            ) as session:
                run = session.discover(
                    min_support=5, min_confidence=0.9, max_matches=30, n=2
                )
            assert [mined_key(d) for d in run.rules] == [
                mined_key(d) for d in serial
            ], executor
            assert run.capped_rules  # the cap demonstrably bit

    def test_capped_confidence_one_rule_may_be_violated(self):
        """A capped pattern's confidence describes only the counted
        canonical subset: a confidence-1.0 rule can legitimately report
        confirmation violations from uncounted matches.  Such rules are
        flagged in ``DiscoveryRun.capped_rules`` (and the CLI must not
        treat them as an internal inconsistency)."""
        from repro.graph import PropertyGraph

        graph = PropertyGraph()
        for i in range(60):
            # The canonical order of the 60 matches is the zero-padded
            # node-id order; the counted 30 all carry A='c', the
            # uncounted 30 A='d'.
            value = "c" if i < 30 else "d"
            graph.add_node(f"p{i:02d}", "person", {"A": value})
            graph.add_node(f"c{i:02d}", "city", None)
            graph.add_edge(f"p{i:02d}", f"c{i:02d}", "lives_in")
        serial = discover_gfds(
            graph, min_support=5, min_confidence=1.0, max_matches=30
        )
        with ValidationSession(graph, []) as session:
            run = session.discover(
                min_support=5, min_confidence=1.0, max_matches=30, n=2
            )
        assert [mined_key(d) for d in run.rules] == [
            mined_key(d) for d in serial
        ]
        assert run.rules and all(d.confidence == 1.0 for d in run.rules)
        assert run.violations  # the uncounted A='d' matches violate
        assert run.capped_rules == {d.gfd.name for d in run.rules}
        # det_vio agreement still holds — confirmation is exact.
        assert run.violations == det_vio(run.sigma, graph)
