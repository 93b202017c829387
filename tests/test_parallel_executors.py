"""Differential suite: simulated vs. real multiprocess execution.

The central pin of the execution-backend work: for every seeded workload,
assignment strategy, and worker count below, the cost-simulated serial
backend and the real :class:`MultiprocessExecutor` backend (the
supervised worker pool) produce

* identical violation sets (both equal to sequential ``detVio``),
* identical per-unit :class:`UnitResult`s (violations, measured steps,
  block sizes), and
* identical :class:`ClusterReport`s (cost charging happens on the
  coordinator from per-unit measurements, so the simulated figures are
  exactly reproducible under real concurrency).

Heavier combinations carry the ``slow`` marker and are excluded from the
default (tier-1) run; CI runs the full matrix.

``REPRO_SHIP_MODE`` (``pickle``/``shm``/``auto``) overrides how the
process backend ships shards, so CI re-runs the identical matrix over
the shared-memory shard plane — same pins, zero-copy transport.
"""

import os

import pytest

from repro.core import det_vio, generate_gfds
from repro.graph import (
    greedy_edge_cut_partition,
    hash_partition,
    power_law_graph,
)
from repro.parallel import (
    MultiprocessExecutor,
    SimulatedCluster,
    build_shared_groups,
    dis_val,
    estimate_workload,
    execute_plan,
    lpt_partition,
    rep_val,
    resolve_executor,
    run_assignment,
    run_concurrently,
    worker_graph,
)
from repro.parallel.engine import BlockMaterialiser

slow = pytest.mark.slow

WORKLOAD_SEEDS = (3, 11)

#: shard transport for every process-backed run in this module — the CI
#: matrix re-runs the whole suite with ``REPRO_SHIP_MODE=shm``.
SHIP_MODE = os.environ.get("REPRO_SHIP_MODE", "auto")


@pytest.fixture(scope="module")
def workloads():
    """Seed -> (graph, sigma, expected detVio violations)."""
    out = {}
    for seed in WORKLOAD_SEEDS:
        graph = power_law_graph(220, 560, seed=seed, domain_size=12)
        sigma = generate_gfds(graph, count=4, pattern_edges=2, seed=seed)
        out[seed] = (graph, sigma, det_vio(sigma, graph))
    return out


def _pin_runs(sim, proc, expected):
    """The differential contract for one (workload, plan) combination."""
    assert sim.executor == "simulated"
    assert proc.executor == "process"
    assert sim.violations == expected
    assert proc.violations == expected
    assert sim.num_units == proc.num_units
    assert sim.report == proc.report  # planning, makespan, comm — all of it
    assert sim.algorithm == proc.algorithm


# One entry per seeded workload/assignment/worker-count combination; the
# acceptance bar is >= 20 combinations across the two parametrized suites.
REP_CASES = [
    # (seed, n, assignment, split_threshold)
    pytest.param(3, 1, "balanced", None, id="rep-s3-n1-balanced"),
    pytest.param(3, 1, "random", None, id="rep-s3-n1-random"),
    pytest.param(3, 2, "balanced", None, id="rep-s3-n2-balanced"),
    pytest.param(3, 2, "random", None, id="rep-s3-n2-random"),
    pytest.param(3, 4, "balanced", None, id="rep-s3-n4-balanced", marks=slow),
    pytest.param(3, 4, "random", None, id="rep-s3-n4-random", marks=slow),
    pytest.param(3, 2, "balanced", 40, id="rep-s3-n2-split40"),
    pytest.param(11, 1, "balanced", None, id="rep-s11-n1-balanced", marks=slow),
    pytest.param(11, 2, "balanced", None, id="rep-s11-n2-balanced"),
    pytest.param(11, 2, "random", None, id="rep-s11-n2-random", marks=slow),
    pytest.param(11, 4, "balanced", None, id="rep-s11-n4-balanced", marks=slow),
    pytest.param(11, 4, "random", None, id="rep-s11-n4-random", marks=slow),
    pytest.param(11, 4, "balanced", 40, id="rep-s11-n4-split40", marks=slow),
]

DIS_CASES = [
    # (seed, n, assignment, partitioner)
    pytest.param(3, 2, "bicriteria", "hash", id="dis-s3-n2-bicriteria"),
    pytest.param(3, 2, "balance_only", "hash", id="dis-s3-n2-balance-only"),
    pytest.param(3, 2, "random", "greedy", id="dis-s3-n2-random", marks=slow),
    pytest.param(3, 4, "bicriteria", "greedy", id="dis-s3-n4-bicriteria",
                 marks=slow),
    pytest.param(3, 4, "random", "hash", id="dis-s3-n4-random", marks=slow),
    pytest.param(3, 4, "balance_only", "greedy", id="dis-s3-n4-balance-only",
                 marks=slow),
    pytest.param(11, 2, "bicriteria", "greedy", id="dis-s11-n2-bicriteria"),
    pytest.param(11, 4, "bicriteria", "hash", id="dis-s11-n4-bicriteria",
                 marks=slow),
    pytest.param(11, 4, "random", "greedy", id="dis-s11-n4-random",
                 marks=slow),
]

PARTITIONERS = {"hash": hash_partition, "greedy": greedy_edge_cut_partition}


class TestRepValDifferential:
    @pytest.mark.parametrize("seed, n, assignment, split", REP_CASES)
    def test_simulated_vs_process(self, workloads, seed, n, assignment, split):
        graph, sigma, expected = workloads[seed]
        kwargs = dict(assignment=assignment, split_threshold=split)
        sim = rep_val(sigma, graph, n=n, **kwargs)
        proc = rep_val(
            sigma, graph, n=n, executor="process", processes=2,
            ship_mode=SHIP_MODE, **kwargs
        )
        _pin_runs(sim, proc, expected)


class TestDisValDifferential:
    @pytest.mark.parametrize("seed, n, assignment, partitioner", DIS_CASES)
    def test_simulated_vs_process(
        self, workloads, seed, n, assignment, partitioner
    ):
        graph, sigma, expected = workloads[seed]
        fragmentation = PARTITIONERS[partitioner](graph, n, seed=seed)
        sim = dis_val(sigma, fragmentation, assignment=assignment)
        proc = dis_val(
            sigma,
            fragmentation,
            assignment=assignment,
            executor="process",
            processes=2,
            ship_mode=SHIP_MODE,
        )
        _pin_runs(sim, proc, expected)


class TestPerUnitResults:
    """The fine-grained pin: every unit's result matches, not just unions."""

    @pytest.mark.parametrize(
        "seed, n",
        [
            pytest.param(3, 2, id="s3-n2"),
            pytest.param(3, 4, id="s3-n4", marks=slow),
            pytest.param(11, 2, id="s11-n2", marks=slow),
        ],
    )
    def test_unit_results_identical(self, workloads, seed, n):
        graph, sigma, _ = workloads[seed]
        units = estimate_workload(
            sigma, graph, groups=build_shared_groups(sigma)
        )
        plan, _ = lpt_partition(units, n)
        sim = execute_plan(sigma, graph, plan, executor="simulated")
        proc = execute_plan(
            sigma, graph, plan, executor="process", processes=2,
            ship_mode=SHIP_MODE,
        )
        assert [len(w) for w in sim] == [len(w) for w in proc]
        compared = 0
        for sim_worker, proc_worker in zip(sim, proc):
            for sim_result, proc_result in zip(sim_worker, proc_worker):
                assert (sim_result is None) == (proc_result is None)
                if sim_result is None:
                    continue
                assert sim_result.violations == proc_result.violations
                assert sim_result.steps == proc_result.steps
                assert sim_result.block_size == proc_result.block_size
                compared += 1
        assert compared == sum(1 for u in units if u.primary)


class TestSkewedAssignments:
    """Hand-built skewed plans: the backends agree even off the balanced path."""

    def _plans(self, units, n):
        pile_up = [list(units)] + [[] for _ in range(n - 1)]
        round_robin = [units[worker::n] for worker in range(n)]
        return {"pile-up": pile_up, "round-robin": round_robin}

    @pytest.mark.parametrize("shape", ["pile-up", "round-robin"])
    def test_skewed_plan_agrees(self, workloads, shape):
        graph, sigma, expected = workloads[3]
        units = estimate_workload(
            sigma, graph, groups=build_shared_groups(sigma)
        )
        plan = self._plans(units, 4)[shape]
        reports = {}
        violations = {}
        for executor in ("simulated", "process"):
            cluster = SimulatedCluster(4)
            violations[executor] = run_assignment(
                sigma, graph, plan, cluster, executor=executor, processes=2,
                ship_mode=SHIP_MODE,
            )
            reports[executor] = cluster.report()
        assert violations["simulated"] == expected
        assert violations["process"] == expected
        assert reports["simulated"] == reports["process"]


class TestExecutorResolution:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            resolve_executor("threads")

    def test_explicit_names_pass_through(self):
        assert resolve_executor("simulated") == "simulated"
        assert resolve_executor("process") == "process"

    def test_auto_small_plan_stays_simulated(self, workloads, monkeypatch):
        from repro.parallel import executors

        monkeypatch.setattr(executors, "usable_cpus", lambda: 4)
        graph, sigma, _ = workloads[3]
        units = estimate_workload(sigma, graph)[:2]
        plan = [units, []]
        assert resolve_executor("auto", plan) == "simulated"

    def test_auto_empty_plan_stays_simulated(self):
        assert resolve_executor("auto", []) == "simulated"

    def test_auto_big_plan_uses_processes_when_cpus_allow(
        self, workloads, monkeypatch
    ):
        from repro.parallel import executors

        graph, sigma, _ = workloads[3]
        units = estimate_workload(sigma, graph)
        assert len(units) >= 8
        plan = [units[0::2], units[1::2]]
        monkeypatch.setattr(executors, "usable_cpus", lambda: 4)
        assert resolve_executor("auto", plan) == "process"
        # An explicit processes= cap below 2 rules the pool out...
        assert resolve_executor("auto", plan, processes=1) == "simulated"
        # ...and a cap above the machine's CPUs cannot rule it in.
        monkeypatch.setattr(executors, "usable_cpus", lambda: 1)
        assert resolve_executor("auto", plan, processes=4) == "simulated"

    def test_auto_threaded_through_entry_points(self, workloads):
        graph, sigma, expected = workloads[3]
        run = rep_val(sigma, graph, n=2, executor="auto", processes=1)
        assert run.executor == "simulated"
        assert run.violations == expected

    def test_invalid_executor_at_entry_point(self, workloads):
        graph, sigma, _ = workloads[3]
        with pytest.raises(ValueError):
            rep_val(sigma, graph, n=2, executor="threads")

    def test_invalid_process_count_rejected(self):
        with pytest.raises(ValueError):
            MultiprocessExecutor(processes=0)


class TestWorkerGraph:
    """Shard-local payloads: exactly the union of the assigned blocks."""

    def test_contains_exactly_needed_nodes(self, workloads):
        graph, sigma, _ = workloads[3]
        units = estimate_workload(sigma, graph)
        shard = worker_graph(graph, units[:3])
        needed = set().union(*(u.block_nodes for u in units[:3]))
        assert set(shard.nodes()) == needed

    def test_blocks_from_shard_equal_blocks_from_graph(self, workloads):
        graph, sigma, _ = workloads[3]
        units = estimate_workload(sigma, graph)
        shard = worker_graph(graph, units[:3])
        for unit in units[:3]:
            assert shard.induced_subgraph(unit.block_nodes) == (
                graph.induced_subgraph(unit.block_nodes)
            )


class TestSharedMaterialiser:
    """Satellite: the LRU budget is shared safely across concurrent workers."""

    def test_no_duplicate_builds_across_threads(self, workloads):
        graph, sigma, _ = workloads[3]
        units = estimate_workload(sigma, graph)
        distinct_blocks = {u.block_nodes for u in units}
        materialiser = BlockMaterialiser(graph)
        # Four "workers" all materialise every block concurrently.
        tasks = [list(distinct_blocks) for _ in range(4)]
        run_concurrently(tasks, materialiser.block)
        assert materialiser.builds == len(distinct_blocks)

    def test_matcher_deduped_across_threads(self, workloads):
        graph, sigma, _ = workloads[3]
        units = estimate_workload(sigma, graph)
        block_nodes = units[0].block_nodes
        leader = units[0].group.leader_index
        materialiser = BlockMaterialiser(graph)
        results = run_concurrently(
            [[0]] * 4,
            lambda _task: materialiser.matcher(sigma, leader, block_nodes),
        )
        matchers = {id(worker[0][1]) for worker in results}
        assert len(matchers) == 1  # one matcher per (pattern, block)

    def test_eviction_accounting_stays_consistent(self, workloads):
        graph, sigma, _ = workloads[3]
        units = estimate_workload(sigma, graph)
        tiny = BlockMaterialiser(graph, budget=1)  # evict on every build
        for unit in units[:6]:
            tiny.block(unit.block_nodes)
        cached = sum(
            block.size for block, _ in tiny._cache.values()
        )
        assert tiny._retained == cached
        # Rebuild-on-reuse after eviction still yields correct blocks.
        block = tiny.block(units[0].block_nodes)
        assert set(block.nodes()) == set(units[0].block_nodes)
