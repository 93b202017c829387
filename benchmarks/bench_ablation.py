"""Ablation benches for the engine's design choices.

Not a paper figure — these isolate the individual levers inside
repVal/disVal that the ``*nop``/``*ran`` variants only toggle together:

* bi-criteria assignment vs. pure load balancing vs. random (Prop. 13);
* replicate-and-split on vs. off over a skewed graph (Appendix);
* multi-query sharing on vs. off (Appendix);
* incremental maintenance vs. from-scratch re-detection (extension).
"""

from __future__ import annotations

import time


from repro import (
    dis_val,
    generate_gfds,
    greedy_edge_cut_partition,
    rep_val,
    skewed_power_law_graph,
)
from repro.core import det_vio
from repro.core.incremental import IncrementalValidator

from _bench_utils import emit_table


def test_assignment_strategy_ablation(benchmark):
    """Communication volume: bicriteria ≤ balance-only ≤ random (typically)."""
    graph = skewed_power_law_graph(1500, 3000, skew=0.3, seed=20, domain_size=20)
    sigma = generate_gfds(graph, count=5, pattern_edges=2, seed=20)
    fragmentation = greedy_edge_cut_partition(graph, 8, seed=1)
    runs = {
        strategy: dis_val(sigma, fragmentation, assignment=strategy)
        for strategy in ("bicriteria", "balance_only", "random")
    }
    rows = [
        (name, round(run.report.total_shipped), round(run.report.makespan),
         round(run.parallel_time))
        for name, run in runs.items()
    ]
    emit_table("ablation_assignment",
               ["strategy", "shipped", "makespan", "T"], rows)
    # The balanced strategies beat random end-to-end; shipped volumes are
    # tiny at this scale, so the robust signal is parallel time.
    assert runs["bicriteria"].parallel_time <= runs["random"].parallel_time
    assert runs["bicriteria"].report.makespan <= runs["random"].report.makespan
    expected = runs["bicriteria"].violations
    assert all(run.violations == expected for run in runs.values())
    benchmark.pedantic(
        lambda: dis_val(sigma, fragmentation), rounds=1, iterations=1
    )


def test_split_ablation(benchmark):
    """Replicate-and-split never hurts the makespan on skewed graphs."""
    graph = skewed_power_law_graph(1500, 3000, skew=0.1, seed=21, domain_size=20)
    sigma = generate_gfds(graph, count=5, pattern_edges=2, seed=21)
    with_split = rep_val(sigma, graph, n=8)
    without = rep_val(sigma, graph, n=8, split_threshold=0)
    benchmark.pedantic(
        lambda: rep_val(sigma, graph, n=8), rounds=1, iterations=1
    )
    emit_table(
        "ablation_split",
        ["variant", "makespan", "T"],
        [
            ("split on", round(with_split.report.makespan),
             round(with_split.parallel_time)),
            ("split off", round(without.report.makespan),
             round(without.parallel_time)),
        ],
    )
    assert with_split.violations == without.violations
    assert with_split.report.makespan <= without.report.makespan * 1.05


def test_incremental_vs_scratch(benchmark):
    """Maintaining Vio under updates beats re-running detVio."""
    from repro.graph import power_law_graph

    graph = power_law_graph(4000, 8000, seed=22, domain_size=10)
    sigma = generate_gfds(graph, count=3, pattern_edges=2, seed=22)
    benchmark.pedantic(
        lambda: IncrementalValidator(sigma, graph), rounds=1, iterations=1
    )
    validator = IncrementalValidator(sigma, graph)

    nodes = list(graph.nodes())
    updates = [(nodes[(i * 37) % len(nodes)], "A0", f"v{i % 7}")
               for i in range(20)]

    t0 = time.perf_counter()
    for node, attr, value in updates:
        validator.set_attr(node, attr, value)
    incremental_time = time.perf_counter() - t0

    # From-scratch baseline: full detVio after every update (graph already
    # holds the final state; re-run the same count for a fair clock).
    t0 = time.perf_counter()
    for _ in updates:
        det_vio(sigma, graph)
    scratch_time = time.perf_counter() - t0

    emit_table(
        "ablation_incremental",
        ["approach", "20 updates (s)"],
        [
            ("incremental", f"{incremental_time:.3f}"),
            ("from-scratch", f"{scratch_time:.3f}"),
        ],
    )
    assert validator.violations == det_vio(sigma, graph)
    assert incremental_time < scratch_time
