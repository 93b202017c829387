"""Exp-1 headline: parallel scalability against sequential execution.

The paper reports that sequential detVio "does not terminate within 6000
seconds" on graphs where repVal/disVal finish in minutes with 20
processors.  Two honest observations at reproduction scale (documented in
EXPERIMENTS.md):

* The paper's core *parallel scalability* claim is apples-to-apples here:
  the same validation pipeline run with n=1 vs n=20 — parallel time must
  fall near-linearly (Theorems 10/11).
* Our from-scratch ``detVio`` uses label-indexed VF2 matching, so on
  10³-node graphs it is competitive in *total* work; the paper's
  non-termination manifests at 10⁷ nodes where a single machine cannot
  hold the match frontier.  We therefore report detVio's cost for context
  and assert the scalability shape, not detVio's absolute defeat.
"""

from __future__ import annotations

import os
import time


from repro import (
    dis_val,
    generate_gfds,
    greedy_edge_cut_partition,
    power_law_graph,
    rep_val,
    sequential_run,
)
from repro.parallel import (
    MultiprocessExecutor,
    SimulatedExecutor,
    build_shared_groups,
    estimate_workload,
    lpt_partition,
)
from repro.parallel.executors import usable_cpus

from _bench_utils import emit_table

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def test_exp1_parallel_scalability(benchmark):
    nodes, edges = (1500, 3000) if QUICK else (3000, 6000)
    graph = power_law_graph(nodes, edges, seed=10, domain_size=25)
    sigma = generate_gfds(graph, count=6, pattern_edges=3, seed=10)

    rep1 = rep_val(sigma, graph, n=1)
    rep20 = rep_val(sigma, graph, n=20)
    dis4 = dis_val(sigma, greedy_edge_cut_partition(graph, 4, seed=1))
    dis20 = dis_val(sigma, greedy_edge_cut_partition(graph, 20, seed=1))
    seq_vio, seq_cost = sequential_run(sigma, graph)

    emit_table(
        "exp1_sequential_vs_parallel",
        ["algorithm", "T (cost units)", "|Vio|"],
        [
            ("detVio (indexed, full)", round(seq_cost), len(seq_vio)),
            ("repVal n=1", round(rep1.parallel_time), len(rep1.violations)),
            ("repVal n=20", round(rep20.parallel_time), len(rep20.violations)),
            ("disVal n=4", round(dis4.parallel_time), len(dis4.violations)),
            ("disVal n=20", round(dis20.parallel_time), len(dis20.violations)),
        ],
    )

    # Shape 1: everyone agrees on Vio(Σ, G).
    assert rep1.violations == seq_vio
    assert rep20.violations == seq_vio
    assert dis4.violations == seq_vio
    assert dis20.violations == seq_vio
    # Shape 2 (the paper's headline): near-linear parallel speedup of the
    # same pipeline — 20 workers cut parallel time by well over half an
    # order of magnitude.
    speedup = rep1.parallel_time / rep20.parallel_time
    assert speedup > 8.0, f"repVal speedup n=1→20 only {speedup:.1f}×"
    assert dis20.parallel_time < dis4.parallel_time
    # (No assertion pits the parallel pipeline against the indexed detVio:
    # at 10³ nodes the block-based pipeline pays ~|W| redundant block
    # loads that a single indexed pass avoids, so the sequential baseline
    # is honestly competitive here.  The paper's detVio loses at 10⁷ nodes
    # where the match frontier no longer fits one machine — see
    # EXPERIMENTS.md.)

    benchmark.pedantic(
        lambda: rep_val(sigma, graph, n=20), rounds=1, iterations=1
    )


def test_exp1_real_multiprocess_speedup(benchmark):
    """Real concurrency, real wall clocks: the process executor against the
    serial in-process run of the *same* plan on the fig6-scale workload.

    Simulated costs model the paper's cluster; this measurement is the
    sanity check behind them — shipping each worker's shard to a process
    and detecting violations there must beat executing the whole plan
    serially once enough cores exist.  The > 1.3x bar at 4 workers is
    asserted only when >= 4 CPUs are usable (single-core runners can only
    report the numbers); violation equality is asserted everywhere.
    """
    nodes, edges = (1500, 3000) if QUICK else (3000, 6000)
    graph = power_law_graph(nodes, edges, seed=10, domain_size=25)
    sigma = generate_gfds(graph, count=6, pattern_edges=3, seed=10)
    units = estimate_workload(sigma, graph, groups=build_shared_groups(sigma))
    plan, _ = lpt_partition(units, 4)

    def run_on_processes():
        # pool start-up and shutdown belong to the measured process run
        with MultiprocessExecutor(processes=4) as pool:
            return pool.run(sigma, graph, plan)

    serial_start = time.perf_counter()
    serial = SimulatedExecutor().run(sigma, graph, plan)
    serial_time = time.perf_counter() - serial_start

    process_start = time.perf_counter()
    parallel = run_on_processes()
    process_time = time.perf_counter() - process_start

    def vio(results):
        return set().union(*(result.violations for result in results))

    assert vio(serial) == vio(parallel)  # real parallelism changes nothing

    speedup = serial_time / process_time if process_time else float("inf")
    cpus = usable_cpus()
    emit_table(
        "exp1_real_multiprocess",
        ["executor", "wall s", "speedup", "workers", "cpus"],
        [
            ("simulated (serial)", f"{serial_time:.2f}", "1.0x", 1, cpus),
            ("process", f"{process_time:.2f}", f"{speedup:.2f}x", 4, cpus),
        ],
    )
    if cpus >= 4:
        assert speedup > 1.3, (
            f"real 4-worker speedup only {speedup:.2f}x on {cpus} CPUs"
        )
    else:
        print(f"(speedup bar skipped: only {cpus} usable CPU(s))")

    benchmark.pedantic(run_on_processes, rounds=1, iterations=1)
