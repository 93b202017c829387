"""Discovery subsystem headline: session-backed parallel mining.

`ValidationSession.discover` runs mining — candidate-pattern match
enumeration and support/confidence counting — as work units over the
parallel engine, so a multi-core box mines with real concurrency while
serial `discover_gfds` stays the single-threaded reference.  Both must
mine the *identical* rule set (asserted here and pinned by
`tests/test_discovery_parallel.py`); this benchmark measures what the
parallelism buys.

Measured as wall-clock medians at 4 (simulated) workers over a real
4-process pool, on an attribute-heavy graph where counting dominates —
the regime the paper's real-life workloads live in.  Asserted:

* mined-set equality (serial ≡ cold process ≡ warm process ≡ the
  match-list baseline);
* zero block-shares shipped on the warm phases (count + confirm reuse
  the shards mining shipped; a warm repeat ships nothing at all);
* zero VF2 units in the ``enumerate`` and ``count`` phases — every
  unit is answered from its block's resident factorised eliminations
  (``DiscoveryPhase.vf2_units``);
* the aggregate data path ships fewer payload bytes than the match-list
  baseline (forced via an explicit never-truncating evidence sample),
  per phase — the reduction is printed *and* asserted;
* the serial count work on a multiplicity-heavy graph runs at least
  ``COUNT_PHASE_BAR`` faster factorised than enumerated (the matcher's
  ``eval_mode`` knob; the session has none — its units factorise
  whenever the leader pattern allows, as the zero-VF2 check above
  shows);
* warm mining beats serial by the bar below whenever ≥ 4 CPUs are
  usable (single/dual-core runners only report).

Per-phase wall-clock and shipped-byte figures land in
``benchmarks/results/discovery_perf.json`` (uploaded by CI, so the
perf trajectory accumulates across PRs).
"""

from __future__ import annotations

import os
import statistics
import time

from repro import ValidationSession, discover_gfds, power_law_graph
from repro.parallel.executors import usable_cpus

from _bench_utils import emit_json, emit_table

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: warm parallel mining must beat serial at least this much at 4 workers.
#: The mining pipeline ships every enumerated match coordinator-wards
#: once (dependency proposal is a global decision), so quick-mode graphs
#: are partly IPC-bound — the bar is set for the quick configuration,
#: with headroom; the table shows the actual ratio.
PARALLEL_MINING_BAR = 1.15

#: the serial count work (evidence + dependency tallies per candidate
#: pattern, on the multiplicity-heavy count graph) must run at least
#: this much faster factorised than enumerated.  Observed quick-mode
#: ratios sit near 1.5–1.6x; the bar guards against the factorised
#: path silently degenerating into enumeration.
COUNT_PHASE_BAR = 1.25

DISCOVERY = dict(min_support=4, min_confidence=0.6, max_attrs=14)


def mined_key(discovered):
    return (
        discovered.gfd.name,
        discovered.gfd.pattern.signature(),
        discovered.gfd.lhs,
        discovered.gfd.rhs,
        discovered.support,
        discovered.confidence,
    )


def test_session_discovery_speedup(benchmark):
    # Attribute-heavy graphs put the work where real workloads have it:
    # support/confidence counting over many proposed dependencies — the
    # embarrassingly parallel phase.
    nodes, edges = (500, 1200) if QUICK else (800, 1900)
    rounds = 2
    graph = power_law_graph(
        nodes, edges, seed=17, domain_size=3,
        node_labels=["person", "city", "org", "repo"],
        edge_labels=["knows", "in", "for"],
        attributes=tuple(f"A{i}" for i in range(14)),
    )

    serial_times = []
    for _ in range(rounds):
        started = time.perf_counter()
        serial = discover_gfds(graph, **DISCOVERY)
        serial_times.append(time.perf_counter() - started)
    assert serial  # the workload must actually mine something

    with ValidationSession(
        graph, [], executor="process", processes=4
    ) as session:
        # Cold: pool start + full shard shipping + workload estimation.
        # confirm=False keeps the comparison apples-to-apples (serial
        # discover_gfds has no confirmation pass).
        started = time.perf_counter()
        cold = session.discover(n=4, confirm=False, **DISCOVERY)
        cold_time = time.perf_counter() - started
        assert [mined_key(d) for d in cold.rules] == [
            mined_key(d) for d in serial
        ]
        assert cold.executor == "process"
        assert cold.phase("enumerate").shipping.full > 0

        # Warm: cached workload, resident shards, same worker PIDs.
        warm_times = []
        for _ in range(rounds):
            started = time.perf_counter()
            warm = session.discover(n=4, confirm=False, **DISCOVERY)
            warm_times.append(time.perf_counter() - started)
            assert [mined_key(d) for d in warm.rules] == [
                mined_key(d) for d in serial
            ]
            for phase in warm.phases:
                assert phase.shipping.full == 0, phase.phase
                assert phase.shipping.shipped_nodes == 0, phase.phase

        # One confirming run: the mined-Σ validation pass must also hit
        # the warm shards — zero block-shares, only Σ travels.
        confirmed = session.discover(n=4, **DISCOVERY)
        confirm = confirmed.phase("confirm")
        assert confirm is not None
        assert confirm.shipping.full == 0
        assert confirm.shipping.delta == 0
        assert confirm.shipping.shipped_nodes == 0
        assert confirm.shipping.shipped_sigma > 0
        assert (
            confirm.shipping.worker_pids
            == confirmed.phase("enumerate").shipping.worker_pids
        )

        # Resident eliminations: enumerate and count run zero VF2 units
        # on this all-acyclic candidate set; only confirm, which needs
        # witnesses, enumerates.
        for name in ("enumerate", "count"):
            phase = confirmed.phase(name)
            assert phase.vf2_units == 0, (
                f"{name} ran VF2 on {phase.vf2_units} unit(s) instead of "
                "reading resident factorised eliminations"
            )

        # The match-list baseline: an explicit never-truncating sample
        # forces the documented match-shipping fallback while mining
        # the identical rule set — its payload bytes are what the
        # aggregate data path replaced.
        baseline = session.discover(n=4, sample_size=10**9, **DISCOVERY)
        assert [mined_key(d) for d in baseline.rules] == [
            mined_key(d) for d in serial
        ]
        reductions = {}
        for name in ("enumerate", "count"):
            aggregate_bytes = confirmed.phase(name).shipping.payload_bytes
            match_bytes = baseline.phase(name).shipping.payload_bytes
            assert aggregate_bytes < match_bytes, (
                f"{name}: aggregate payloads shipped {aggregate_bytes} "
                f"bytes, match lists {match_bytes}"
            )
            reductions[name] = match_bytes / aggregate_bytes
        # Count + confirm ship zero block-shares (asserted above) and
        # strictly sub-match-list payload bytes.
        assert confirm.shipping.payload_bytes <= \
            baseline.phase("confirm").shipping.payload_bytes

        # Factorised count work, serial view: the count-phase speedup.
        # On a multiplicity-heavy graph (hubs → many matches per
        # pattern) the serial count work — evidence aggregation plus
        # dependency tallies per candidate pattern — is where
        # enumeration cost scales with the match count and variable
        # elimination stays O(|G|·|pattern|).
        count_graph = power_law_graph(
            *((400, 2400) if QUICK else (500, 3000)),
            alpha=1.5, seed=17, domain_size=3,
            node_labels=["person", "city", "org", "repo"],
            edge_labels=["knows", "in", "for"],
            attributes=tuple(f"A{i}" for i in range(8)),
        )
        from repro.core.discovery import candidate_patterns
        from repro.matching import SubgraphMatcher

        tasks = []
        for pattern in candidate_patterns(count_graph, max_edges=2):
            matcher = SubgraphMatcher(pattern, count_graph)
            if matcher.factorised_plan() is None:
                continue
            _, evidence = matcher.evidence(eval_mode="factorised")
            deps = evidence.propose(pattern, DISCOVERY["max_attrs"])
            if deps:
                tasks.append((pattern, deps))
        assert tasks  # the workload must propose something to count
        serial_count = {}
        for mode in ("enumerate", "factorised"):
            reps = []
            for _ in range(2):
                total = 0.0
                for pattern, deps in tasks:
                    matcher = SubgraphMatcher(pattern, count_graph)
                    started = time.perf_counter()
                    matcher.evidence(eval_mode=mode)
                    matcher.dependency_tallies(deps, eval_mode=mode)
                    total += time.perf_counter() - started
                reps.append(total)
            serial_count[mode] = min(reps)
        count_speedup = (
            serial_count["enumerate"] / serial_count["factorised"]
            if serial_count["factorised"] else float("inf")
        )
        assert count_speedup > COUNT_PHASE_BAR, (
            f"factorised count work only {count_speedup:.2f}x faster "
            f"than enumeration (bar {COUNT_PHASE_BAR}x)"
        )

        serial_median = statistics.median(serial_times)
        warm_median = statistics.median(warm_times)
        cold_speedup = serial_median / cold_time if cold_time else float("inf")
        warm_speedup = (
            serial_median / warm_median if warm_median else float("inf")
        )
        cpus = usable_cpus()
        emit_table(
            "discovery_parallel",
            ["mode", "median wall s", "speedup", "rules", "workers", "cpus"],
            [
                ("serial discover_gfds", f"{serial_median:.3f}", "1.00x",
                 len(serial), 1, cpus),
                ("cold session.discover (pool+ship+estimate)",
                 f"{cold_time:.3f}", f"{cold_speedup:.2f}x",
                 len(cold.rules), 4, cpus),
                ("warm session.discover",
                 f"{warm_median:.3f}", f"{warm_speedup:.2f}x",
                 len(warm.rules), 4, cpus),
            ],
        )
        phase_rows = []
        phase_records = []
        for run_name, run in (("warm", confirmed), ("match-list", baseline)):
            for phase in run.phases:
                shipping = phase.shipping
                phase_rows.append((
                    run_name, phase.phase, f"{phase.wall_seconds:.3f}",
                    shipping.payload_bytes,
                    shipping.shard_bytes + shipping.sigma_bytes,
                    f"{phase.vf2_units}/{phase.num_units}",
                ))
                phase_records.append({
                    "run": run_name,
                    "phase": phase.phase,
                    "wall_seconds": phase.wall_seconds,
                    "payload_bytes": shipping.payload_bytes,
                    "shard_bytes": shipping.shard_bytes,
                    "sigma_bytes": shipping.sigma_bytes,
                    "shipped_nodes": shipping.shipped_nodes,
                    "vf2_units": phase.vf2_units,
                    "num_units": phase.num_units,
                })
        emit_table(
            "discovery_phases",
            ["run", "phase", "wall s", "payload B", "shard+sigma B",
             "VF2 units"],
            phase_rows,
        )
        print(
            "payload reduction vs match-list baseline: "
            + ", ".join(f"{name} {ratio:.2f}x"
                        for name, ratio in reductions.items())
        )
        emit_table(
            "discovery_count_phase",
            ["view", "eval mode", "wall s", "speedup"],
            [
                ("serial count work", "enumerate",
                 f"{serial_count['enumerate']:.3f}", "1.00x"),
                ("serial count work", "factorised",
                 f"{serial_count['factorised']:.3f}",
                 f"{count_speedup:.2f}x"),
            ],
        )
        emit_json("discovery_perf", {
            "quick": QUICK,
            "graph": {"nodes": nodes, "edges": edges},
            "workers": 4,
            "cpus": cpus,
            "serial_median_seconds": serial_median,
            "cold_seconds": cold_time,
            "warm_median_seconds": warm_median,
            "warm_speedup": warm_speedup,
            "payload_reduction": reductions,
            "phases": phase_records,
            "count_phase": {
                "serial_enumerate_seconds": serial_count["enumerate"],
                "serial_factorised_seconds": serial_count["factorised"],
                "serial_speedup": count_speedup,
            },
        })
        if cpus >= 4:
            assert warm_speedup > PARALLEL_MINING_BAR, (
                f"warm parallel mining only {warm_speedup:.2f}x faster than "
                f"serial discover_gfds on {cpus} CPUs"
            )
        else:
            print(f"(speedup bar skipped: only {cpus} usable CPU(s))")

        benchmark.pedantic(
            lambda: session.discover(n=4, confirm=False, **DISCOVERY),
            rounds=1, iterations=1,
        )
