"""Differential suite: simulated vs. real multiprocess execution.

The central pin of the execution-backend work: for every seeded workload,
assignment strategy, and worker count below, the cost-simulated serial
backend and the real :class:`MultiprocessExecutor` backend (the
supervised worker pool) produce

* identical violation sets (both equal to sequential ``detVio``),
* identical per-slot :class:`SlotResult`s (per-unit measured steps,
  violations, VF2-unit counts), and
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
from contextlib import nullcontext

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
    SimulatedExecutor,
    build_shared_groups,
    dis_val,
    estimate_workload,
    lpt_partition,
    rep_val,
    resolve_executor,
    run_assignment,
    run_concurrently,
    worker_graph,
)
from repro.parallel.engine import BlockMaterialiser

from oracle import oracle_det_vio

slow = pytest.mark.slow

WORKLOAD_SEEDS = (3, 11)
#: every seeded workload finds at least this many violations
MIN_VIOLATIONS = 2

#: shard transport for every process-backed run in this module — the CI
#: matrix re-runs the whole suite with ``REPRO_SHIP_MODE=shm``.
SHIP_MODE = os.environ.get("REPRO_SHIP_MODE", "auto")


@pytest.fixture(scope="module")
def workloads():
    """Seed -> (graph, sigma, expected detVio violations)."""
    out = {}
    for seed in WORKLOAD_SEEDS:
        graph = power_law_graph(
            220, 560, seed=seed, domain_size=4,
            node_labels=[f"L{i}" for i in range(15)],
            edge_labels=[f"e{i}" for i in range(4)],
        )
        sigma = generate_gfds(graph, count=4, pattern_edges=2, seed=seed)
        expected = det_vio(sigma, graph)
        # "identical violation sets" must not compare empty sets: the
        # default 30-label alphabet left one match per rule at most
        assert len(expected) >= MIN_VIOLATIONS, seed
        out[seed] = (graph, sigma, expected)
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
        sim = SimulatedExecutor().run(sigma, graph, plan)
        with MultiprocessExecutor(processes=2, ship_mode=SHIP_MODE) as pool:
            proc = pool.run(sigma, graph, plan)
        assert len(sim) == len(proc) == len(plan)
        compared = 0
        for slot, sim_result, proc_result in zip(plan, sim, proc):
            primaries = sum(1 for unit in slot if unit.primary)
            # one steps entry per primary unit, in slot order
            assert len(sim_result.steps) == primaries
            assert sim_result.steps == proc_result.steps
            assert sim_result.violations == proc_result.violations
            assert sim_result.vf2_units == proc_result.vf2_units == primaries
            assert sim_result.payloads == proc_result.payloads == {}
            compared += len(proc_result.steps)
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
        backends = {
            "simulated": nullcontext(SimulatedExecutor()),
            "process": MultiprocessExecutor(processes=2, ship_mode=SHIP_MODE),
        }
        for executor, backend in backends.items():
            cluster = SimulatedCluster(4)
            with backend as started:
                violations[executor] = run_assignment(
                    sigma, graph, plan, cluster, started
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


class TestPoolLifecycle:
    """A pool runs plans only while started, and its shard mirror lives
    exactly as long as its workers."""

    def test_run_on_unstarted_pool_raises(self, workloads):
        graph, sigma, _ = workloads[3]
        plan, _ = lpt_partition(estimate_workload(sigma, graph), 2)
        pool = MultiprocessExecutor(processes=1, ship_mode=SHIP_MODE)
        with pytest.raises(RuntimeError, match="started pool"):
            pool.run(sigma, graph, plan)
        assert not pool.running and pool.shard_cache is None
        with pool:
            assert pool.shard_cache is not None
            pool.run(sigma, graph, plan)
        assert pool.shard_cache is None
        with pytest.raises(RuntimeError, match="started pool"):
            pool.run(sigma, graph, plan)


def _union(results):
    return set().union(*(result.violations for result in results))


def _set_every_value(graph, value):
    """Set every attribute to ``value``: an edit that bumps no version."""
    for node in list(graph.nodes()):
        for attr in list(graph.attrs(node)):
            graph.set_attr(node, attr, value)


class TestReusedPool:
    """One caller-started pool, several runs: a run that names no
    ``sigma_key`` never sees what an earlier run left in the workers.

    Workload 11's violations are all of ``sigma[3]``; with every value
    set to ``'v2'`` they are all of ``sigma[2]`` instead.
    """

    def _plan(self, sigma, graph):
        plan, _ = lpt_partition(estimate_workload(sigma, graph), 2)
        return plan

    def test_new_rules_on_same_pool(self, workloads):
        graph, sigma, _ = workloads[11]
        sigma_a, sigma_b = sigma[:2], sigma[2:]
        with MultiprocessExecutor(processes=2, ship_mode=SHIP_MODE) as pool:
            first = pool.run(sigma_a, graph, self._plan(sigma_a, graph))
            second = pool.run(sigma_b, graph, self._plan(sigma_b, graph))
        assert _union(first) == oracle_det_vio(sigma_a, graph) == set()
        assert _union(second) == oracle_det_vio(sigma_b, graph) != set()

    def test_attribute_edit_between_runs(self, workloads):
        base, sigma, _ = workloads[11]
        graph = base.copy()
        plan = self._plan(sigma, graph)
        with MultiprocessExecutor(processes=2, ship_mode=SHIP_MODE) as pool:
            before = _union(pool.run(sigma, graph, plan))
            _set_every_value(graph, "v2")
            after = _union(pool.run(sigma, graph, plan))
        assert before == oracle_det_vio(sigma, base)
        assert after == oracle_det_vio(sigma, graph)
        assert after != before

    def test_other_graph_at_same_version_ships_full(self, workloads):
        base, sigma, _ = workloads[11]
        other = base.copy()
        _set_every_value(other, "v2")
        other._version = base._version
        plan = self._plan(sigma, base)
        with MultiprocessExecutor(processes=2, ship_mode=SHIP_MODE) as pool:
            before = _union(pool.run(sigma, base, plan, sigma_key="k"))
            after = _union(pool.run(sigma, other, plan, sigma_key="k"))
            assert pool.last_shipping.full == 2
        assert before == oracle_det_vio(sigma, base) != set()
        assert after == oracle_det_vio(sigma, other) != before


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
            entry.graph.size for entry in tiny._cache.values()
        )
        assert tiny._retained == cached
        # Rebuild-on-reuse after eviction still yields correct blocks.
        block = tiny.block(units[0].block_nodes)
        assert set(block.nodes()) == set(units[0].block_nodes)
