"""Tests for the session layer (:class:`repro.ValidationSession`).

Four pillars:

* **compat shim** — the stateless ``rep_val``/``dis_val`` facades
  delegate to throwaway sessions and return results identical (field by
  field) to an explicitly-constructed session, with no
  ``DeprecationWarning`` (or any warning) emitted;
* **warm pool + shard caches** — a second ``validate()`` on an unchanged
  session ships *zero* block-shares, reuses every resident shard, runs on
  the same worker PIDs, and still reports the exact same figures as the
  cold run;
* **incremental updates** — ``session.update()`` maintains violations on
  the snapshot backend, forwards deltas to the worker shards, and stays
  equal to from-scratch re-validation;
* **per-run materialiser stats** — a materialiser shared across session
  runs reports each run's own builds/hits/evictions, not the cumulative
  tally (the satellite bugfix).
"""

import io
import warnings

import pytest

from repro import (
    ValidationSession,
    det_vio,
    dis_val,
    generate_gfds,
    power_law_graph,
    rep_val,
)
from repro.cli import main as cli_main
from repro.graph import greedy_edge_cut_partition, hash_partition, save_graph
from repro.parallel.engine import BlockMaterialiser

WORKLOAD_SEEDS = (3, 11)


@pytest.fixture(scope="module")
def workloads():
    out = {}
    for seed in WORKLOAD_SEEDS:
        graph = power_law_graph(220, 560, seed=seed, domain_size=12)
        sigma = generate_gfds(graph, count=4, pattern_edges=2, seed=seed)
        out[seed] = (graph, sigma, det_vio(sigma, graph))
    return out


class TestCompatShim:
    """The stateless API is a facade over throwaway sessions."""

    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    def test_rep_val_delegates_identically(self, workloads, seed):
        graph, sigma, expected = workloads[seed]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            shim = rep_val(sigma, graph, n=4)
            with ValidationSession(
                graph, sigma, executor="simulated"
            ) as session:
                direct = session.validate(n=4)
        assert shim == direct  # every field: violations, report, extras
        assert shim.violations == expected

    @pytest.mark.parametrize("partitioner", [hash_partition,
                                             greedy_edge_cut_partition])
    def test_dis_val_delegates_identically(self, workloads, partitioner):
        graph, sigma, expected = workloads[3]
        fragmentation = partitioner(graph, 3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shim = dis_val(sigma, fragmentation)
            with ValidationSession(
                graph, sigma, executor="simulated"
            ) as session:
                direct = session.validate(fragmentation=fragmentation)
        assert shim == direct
        assert shim.violations == expected

    def test_variant_kwargs_pass_through(self, workloads):
        graph, sigma, _ = workloads[3]
        shim = rep_val(sigma, graph, n=3, assignment="random", seed=5,
                       optimize=False)
        with ValidationSession(
            graph, sigma, executor="simulated"
        ) as session:
            direct = session.validate(n=3, assignment="random", seed=5,
                                      optimize=False)
        assert shim == direct
        assert shim.algorithm == "repran"

    def test_bad_arguments_rejected(self, workloads):
        graph, sigma, _ = workloads[3]
        with pytest.raises(ValueError):
            ValidationSession(graph, sigma, executor="threads")
        with pytest.raises(ValueError):
            ValidationSession(graph, sigma, processes=0)
        with ValidationSession(graph, sigma) as session:
            with pytest.raises(ValueError):
                session.validate(n=2, assignment="nope")
            with pytest.raises(ValueError):
                session.validate(
                    n=3, fragmentation=hash_partition(graph, 2, seed=0)
                )


class TestWarmRuns:
    """Second validate(): zero shipping, same PIDs, same figures."""

    def test_warm_repval_ships_nothing_and_reuses_pids(self, workloads):
        graph, sigma, expected = workloads[3]
        with ValidationSession(
            graph, sigma, executor="process", processes=2
        ) as session:
            cold = session.validate(n=4)
            pids = session.worker_pids()
            warm = session.validate(n=4)
        assert cold.violations == expected == warm.violations
        assert cold.report == warm.report  # warmth never changes figures
        assert cold.shipping.full > 0
        assert warm.shipping.full == 0
        assert warm.shipping.delta == 0
        assert warm.shipping.shipped_nodes == 0
        assert warm.shipping.reused == cold.shipping.full
        assert warm.shipping.worker_pids == cold.shipping.worker_pids
        assert pids  # the persistent pool is visible on the session
        assert set(warm.shipping.worker_pids.values()) <= set(pids)

    def test_warm_disval_reuses_fragmentation_shards(self, workloads):
        graph, sigma, expected = workloads[3]
        fragmentation = greedy_edge_cut_partition(graph, 3, seed=1)
        with ValidationSession(
            graph, sigma, executor="process", processes=2
        ) as session:
            cold = session.validate(fragmentation=fragmentation)
            warm = session.validate(fragmentation=fragmentation)
        assert cold.violations == expected == warm.violations
        assert cold.report == warm.report
        assert warm.shipping.full == 0 and warm.shipping.shipped_nodes == 0
        assert warm.shipping.worker_pids == cold.shipping.worker_pids

    def test_equivalent_fragmentation_recut_stays_warm(self, workloads):
        """'Consecutive runs reuse a fragmentation' includes an identical
        re-cut object, recognised via Fragmentation.fingerprint()."""
        graph, sigma, _ = workloads[3]
        first = hash_partition(graph, 3, seed=2)
        second = hash_partition(graph, 3, seed=2)
        assert first is not second
        assert first.fingerprint() == second.fingerprint()
        with ValidationSession(
            graph, sigma, executor="process", processes=2
        ) as session:
            session.validate(fragmentation=first)
            warm = session.validate(fragmentation=second)
        assert warm.shipping.full == 0 and warm.shipping.reused > 0

    def test_simulated_sessions_reuse_blocks_not_processes(self, workloads):
        graph, sigma, expected = workloads[3]
        with ValidationSession(graph, sigma, executor="simulated") as session:
            cold = session.validate(n=4)
            warm = session.validate(n=4)
        assert cold.violations == expected == warm.violations
        assert cold.report == warm.report
        assert cold.shipping is None and warm.shipping is None
        assert cold.cache.builds > 0
        assert warm.cache.builds == 0  # every block came from the cache
        assert warm.cache.hits > 0

    def test_close_is_idempotent_and_restartable(self, workloads):
        graph, sigma, expected = workloads[3]
        session = ValidationSession(graph, sigma, executor="process",
                                    processes=2)
        try:
            session.validate(n=4)
            assert session.worker_pids()
            session.close()
            session.close()
            assert session.worker_pids() == []
            rerun = session.validate(n=4)  # cold again, still correct
            assert rerun.violations == expected
            assert rerun.shipping.full > 0
        finally:
            session.close()

    def test_out_of_band_mutation_drops_simulated_block_cache(self):
        """An unrouted structural edit must not leave stale blocks in the
        shared materialiser (the simulated-path twin of ShardCache.sync)."""
        from repro import parse_gfd
        from repro.graph import PropertyGraph

        graph = PropertyGraph()
        graph.add_node("au", "country", {"val": "Australia"})
        graph.add_node("c1", "city", {"val": "Canberra"})
        graph.add_node("c2", "city", {"val": "Melbourne"})
        graph.add_edge("au", "c1", "capital")
        graph.add_edge("au", "c2", "visits")
        phi = parse_gfd(
            "x:country -capital-> y:city; x -capital-> z:city",
            " => y.val = z.val", name="phi2",
        )
        with ValidationSession(graph, [phi], executor="simulated") as session:
            assert session.validate(n=2).violations == set()
            graph.add_edge("au", "c2", "capital")  # NOT via session.update
            rerun = session.validate(n=2)
        assert rerun.violations == det_vio([phi], graph, backend="legacy")
        assert rerun.violations  # the second capital is a violation

    def test_stale_fragmentation_rejected_with_clear_error(self, workloads):
        base_graph, sigma, _ = workloads[3]
        graph = base_graph.copy()
        fragmentation = hash_partition(graph, 2, seed=0)
        with ValidationSession(graph, sigma) as session:
            session.update([("node", "fresh", "L0", {"A0": "v0"})])
            with pytest.raises(ValueError, match="re-cut"):
                session.validate(fragmentation=fragmentation)
            recut = hash_partition(graph, 2, seed=0)
            run = session.validate(fragmentation=recut)
        assert run.violations == det_vio(sigma, graph, backend="legacy")

    def test_edge_only_stale_fragmentation_tolerated(self, workloads):
        """Pre-session behaviour preserved: a fragmentation cut before an
        edge-only mutation still validates (owner map is still total)."""
        base_graph, sigma, _ = workloads[3]
        graph = base_graph.copy()
        fragmentation = hash_partition(graph, 2, seed=0)
        nodes = list(graph.nodes())
        graph.add_edge(nodes[0], nodes[5], "e0")
        run = dis_val(sigma, fragmentation)
        assert run.violations == det_vio(sigma, graph, backend="legacy")

    def test_out_of_band_mutation_invalidates_maintained_violations(self):
        """g mutated directly, then update(): the stale cached set must
        not seed the incremental validator."""
        from repro import parse_gfd
        from repro.graph import PropertyGraph

        graph = PropertyGraph()
        graph.add_node("au", "country", {"val": "Australia"})
        graph.add_node("c1", "city", {"val": "Canberra"})
        graph.add_node("c2", "city", {"val": "Melbourne"})
        graph.add_edge("au", "c1", "capital")
        phi = parse_gfd(
            "x:country -capital-> y:city; x -capital-> z:city",
            " => y.val = z.val", name="phi2",
        )
        with ValidationSession(graph, [phi], executor="simulated") as session:
            assert session.validate(n=1).violations == set()
            graph.add_edge("au", "c2", "capital")  # NOT via session.update
            session.update([("attr", "c1", "other", "x")])  # unrelated op
            assert session.violations == det_vio([phi], graph)
            assert session.violations  # the out-of-band capital clash

    def test_out_of_band_mutation_refreshes_violations_property(self):
        from repro import parse_gfd
        from repro.graph import PropertyGraph

        graph = PropertyGraph()
        graph.add_node("au", "country", {"val": "Australia"})
        graph.add_node("c1", "city", {"val": "Canberra"})
        graph.add_node("c2", "city", {"val": "Melbourne"})
        graph.add_edge("au", "c1", "capital")
        phi = parse_gfd(
            "x:country -capital-> y:city; x -capital-> z:city",
            " => y.val = z.val", name="phi2",
        )
        with ValidationSession(graph, [phi], executor="simulated") as session:
            assert session.violations == set()
            graph.add_edge("au", "c2", "capital")
            assert session.violations == det_vio([phi], graph)

    def test_foreign_graph_fragmentation_rejected(self, workloads):
        graph, sigma, _ = workloads[3]
        other = graph.copy()
        with ValidationSession(graph, sigma) as session:
            with pytest.raises(ValueError, match="different graph"):
                session.validate(fragmentation=hash_partition(other, 2, seed=0))

    def test_processes_override_restarts_pool(self, workloads):
        graph, sigma, expected = workloads[3]
        with ValidationSession(
            graph, sigma, executor="process", processes=1
        ) as session:
            session.validate(n=4)
            first_pids = set(session.worker_pids())
            run = session.validate(n=4, processes=2)
            assert run.violations == expected
            assert run.shipping.full > 0  # restarted cold, not stale-warm
            assert set(session.worker_pids()) != first_pids

    def test_shard_log_compacts_once_consumed(self, workloads):
        graph, sigma, _ = workloads[3]
        graph = graph.copy()
        with ValidationSession(
            graph, sigma, executor="process", processes=2
        ) as session:
            session.validate(n=4)
            nodes = list(graph.nodes())
            session.update([("attr", nodes[0], "A0", "x")])
            session.validate(n=4)  # consumes the op everywhere
            session.validate(n=4)  # sync() compacts the consumed prefix
            assert session._shard_cache._log == []

    def test_out_of_band_mutation_degrades_to_cold(self, workloads):
        graph, sigma, _ = workloads[3]
        graph = graph.copy()
        sigma = list(sigma)
        with ValidationSession(
            graph, sigma, executor="process", processes=2
        ) as session:
            session.validate(n=4)
            nodes = list(graph.nodes())
            graph.add_edge(nodes[0], nodes[3], "e0")  # NOT via session.update
            run = session.validate(n=4)
        assert run.shipping.reused == 0  # stale shards were not trusted
        assert run.shipping.full > 0
        assert run.violations == det_vio(sigma, graph, backend="legacy")


class TestSessionUpdates:
    """update() maintains violations and forwards deltas to shards."""

    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    def test_update_then_validate_matches_scratch(self, workloads, seed):
        base_graph, sigma, _ = workloads[seed]
        graph = base_graph.copy()
        from repro.parallel import build_shared_groups, estimate_workload

        # Touch nodes that live inside a real data block, so the update
        # demonstrably lands in some worker's resident shard.
        units = estimate_workload(sigma, graph,
                                  groups=build_shared_groups(sigma))
        block = sorted(
            max(units, key=lambda u: len(u.block_nodes)).block_nodes,
            key=repr,
        )
        with ValidationSession(
            graph, sigma, executor="process", processes=2
        ) as session:
            session.validate(n=4)
            session.update([
                ("edge+", block[0], block[1], "e0"),
                ("attr", block[2], "A0", "mutated"),
                ("node", "fresh", "L0", {"A0": "v0"}),
                ("edge+", "fresh", block[0], "e1"),
            ])
            expected = det_vio(sigma, graph, backend="legacy")
            assert session.violations == expected  # incremental, no rerun
            run = session.validate(n=4)
        assert run.violations == expected
        # The post-update run shipped deltas (ops/nodes), not full shards.
        assert run.shipping.full == 0
        assert run.shipping.delta > 0
        assert run.shipping.shipped_ops > 0

    def test_update_returns_added_violations(self):
        graph = power_law_graph(60, 0, seed=0, domain_size=1)
        from repro import parse_gfd

        graph.add_node("au", "country", {"val": "Australia"})
        graph.add_node("c1", "city", {"val": "Canberra"})
        graph.add_node("c2", "city", {"val": "Melbourne"})
        graph.add_edge("au", "c1", "capital")
        phi = parse_gfd(
            "x:country -capital-> y:city; x -capital-> z:city",
            " => y.val = z.val", name="phi2",
        )
        with ValidationSession(graph, [phi], executor="simulated") as session:
            assert session.validate(n=1).violations == set()
            added = session.update([("edge+", "au", "c2", "capital")])
            assert added
            assert session.violations == det_vio([phi], graph)
            removed = session.update([("edge-", "au", "c2", "capital")])
            assert removed == set()
            assert session.violations == set()

    def test_reconcile_after_out_of_band_refreshes_matchers(self):
        """validate() after an out-of-band edge must not leave the
        incremental validator holding pre-mutation matcher caches."""
        from repro import parse_gfd
        from repro.graph import PropertyGraph

        graph = PropertyGraph()
        graph.add_node("au", "country", {"val": "Australia"})
        graph.add_node("c1", "city", {"val": "Canberra"})
        graph.add_node("c2", "city", {"val": "Canberra"})
        graph.add_edge("au", "c1", "capital")
        phi = parse_gfd(
            "x:country -capital-> y:city; x -capital-> z:city",
            " => y.val = z.val", name="phi2",
        )
        with ValidationSession(graph, [phi], executor="simulated") as session:
            # Warm the incremental validator and its matcher caches.
            session.update([("attr", "c1", "noise", 1)])
            graph.add_edge("au", "c2", "capital")  # NOT via session.update
            session.validate(n=1)  # reconciles; matchers must refresh
            # Attribute-only update: no structural invalidation inside
            # the validator — only the reconcile-time refresh saves it.
            session.update([("attr", "c2", "val", "Sydney")])
            assert session.violations == det_vio([phi], graph)
            assert session.violations  # Canberra vs Sydney

    def test_update_before_any_validate(self, workloads):
        base_graph, sigma, _ = workloads[3]
        graph = base_graph.copy()
        with ValidationSession(graph, sigma, executor="simulated") as session:
            nodes = list(graph.nodes())
            session.update([("edge+", nodes[0], nodes[1], "e0")])
            assert session.violations == det_vio(
                sigma, graph, backend="legacy"
            )
            assert session.validate(n=2).violations == session.violations


class TestMaterialiserRunStats:
    """Satellite bugfix: per-run stats from a shared materialiser."""

    def test_take_stats_resets_per_run_slice(self, workloads):
        graph, sigma, _ = workloads[3]
        from repro.parallel import build_shared_groups, estimate_workload

        units = estimate_workload(sigma, graph,
                                  groups=build_shared_groups(sigma))
        materialiser = BlockMaterialiser(graph)
        for unit in units[:4]:
            materialiser.block(unit.block_nodes)
        first = materialiser.take_stats()
        assert first.builds > 0
        for unit in units[:4]:  # second "run": all hits
            materialiser.block(unit.block_nodes)
        second = materialiser.take_stats()
        assert second.builds == 0
        assert second.hits >= 4
        # Cumulative counters still span both runs.
        assert materialiser.builds == first.builds
        assert materialiser.hits == first.hits + second.hits

    def test_evictions_counted_per_run(self, workloads):
        graph, sigma, _ = workloads[3]
        from repro.parallel import build_shared_groups, estimate_workload

        units = estimate_workload(sigma, graph,
                                  groups=build_shared_groups(sigma))
        tiny = BlockMaterialiser(graph, budget=1)  # evict on every build
        for unit in units[:5]:
            tiny.block(unit.block_nodes)
        run1 = tiny.take_stats()
        assert run1.evictions > 0
        assert tiny.take_stats().evictions == 0  # nothing since the take
        for unit in units[:3]:
            tiny.block(unit.block_nodes)
        run2 = tiny.take_stats()
        assert run2.evictions <= run1.evictions + run2.evictions
        assert tiny.evictions == run1.evictions + run2.evictions

    def test_session_runs_report_their_own_cache_slice(self, workloads):
        graph, sigma, _ = workloads[3]
        with ValidationSession(graph, sigma, executor="simulated") as session:
            first = session.validate(n=2)
            second = session.validate(n=2)
            third = session.validate(n=2)
        # Identical warm runs must report identical per-run stats — the
        # old cumulative counters would have grown run over run.
        assert second.cache == third.cache
        assert first.cache.builds > 0 and second.cache.builds == 0


class TestCliSessionSurface:
    """CLI parity satellites: --executor/--processes + bench --repeat."""

    @pytest.fixture
    def files(self, tmp_path, workloads):
        graph, sigma, _ = workloads[3]
        from repro.cli import format_rule_file

        gpath = tmp_path / "g.jsonl"
        rpath = tmp_path / "r.gfd"
        save_graph(graph, gpath)
        rpath.write_text(format_rule_file(sigma))
        return str(gpath), str(rpath)

    def test_validate_accepts_executor_flags(self, files):
        gpath, rpath = files
        out = io.StringIO()
        code = cli_main(
            ["validate", gpath, rpath, "--executor", "process",
             "--processes", "2"],
            out=out,
        )
        baseline = io.StringIO()
        base_code = cli_main(["validate", gpath, rpath], out=baseline)
        assert code == base_code
        assert out.getvalue() == baseline.getvalue()

    def test_discover_accepts_executor_flags(self, files):
        gpath, _ = files
        out = io.StringIO()
        code = cli_main(
            ["discover", gpath, "--support", "2", "--executor", "simulated"],
            out=out,
        )
        assert code == 0

    def test_bench_repeat_runs_warm_iterations(self, files):
        gpath, rpath = files
        out = io.StringIO()
        code = cli_main(
            ["bench", gpath, rpath, "--workers", "3", "--repeat", "2"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "iteration 1" in text and "iteration 2" in text
        assert "repVal" in text and "disVal" in text
