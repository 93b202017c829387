"""Helpers the three workloads share."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro import load_graph
from repro.cli import parse_rule_file

from .harness import Outcome, median

#: every session the benchmark opens: real worker processes, shards
#: shipped by size (shared memory for large ones when it works)
SESSION_OPTIONS = {"executor": "process", "ship_mode": "auto"}

#: span-based per-layer metrics: metric -> (span names, aggregation).
#: ``call`` is the median duration of one call; ``iteration`` is the
#: median over workload iterations of the summed duration in each.
SPAN_METRICS = {
    "graph.load_s": (("graph.load",), "call"),
    "graph.snapshot_build_s": (("graph.snapshot_build",), "call"),
    "graph.arena_write_s": (("graph.arena_write",), "call"),
    "graph.arena_attach_s": (("graph.arena_attach",), "call"),
    "graph.apply_delta_s": (("graph.apply_delta",), "call"),
    "matching.candidates_s": (("matching.candidates",), "iteration"),
    "matching.vf2_s": (("matching.vf2",), "iteration"),
    "matching.factorised_s": (("matching.factorised",), "iteration"),
    "core.violations_of_s": (("core.violations_of",), "iteration"),
    "plan.plan_s": (
        ("plan.groups", "plan.estimate", "plan.partition"), "iteration"
    ),
    "engine.execute_unit_s": (("engine.execute_unit",), "iteration"),
    "engine.fold_s": (("engine.fold",), "iteration"),
    "executors.pool_start_s": (("executors.pool_start",), "call"),
    "executors.pool_shutdown_s": (("executors.pool_shutdown",), "call"),
    "executors.pack_s": (("executors.pack",), "call"),
    "executors.publish_s": (("executors.publish",), "call"),
    "session.validate_s": (("session.validate",), "call"),
    "session.update_s": (("session.update",), "call"),
    "service.coalesce_s": (("service.coalesce",), "call"),
}


@dataclass
class Context:
    """What one pass of a workload gets and fills in."""

    seed: int
    seconds: float
    workdir: str
    processes: int
    tracer: object
    outcome: Outcome = field(default_factory=Outcome)
    #: per-layer metric values (units come from BENCHMARK.json)
    layer: Dict[str, float] = field(default_factory=dict)


def load_inputs(tr, graph_path: str, rules_text: str):
    """The program's view of the inputs: ``load_graph`` + ``parse_rule_file``."""
    with tr.span("graph.load"):
        graph = load_graph(graph_path)
    return graph, parse_rule_file(rules_text)


class Deferred:
    """Results of one kind, checked against an oracle that runs only
    after the session is closed, so that no oracle data is resident
    while the program runs (and counts in its peak RSS).

    Every result is compared with the first one as it arrives;
    :meth:`settle` compares the first with the oracle's answer and
    accounts every result as an operation.
    """

    def __init__(self) -> None:
        self.reference = None
        self.agreed = 0
        self.disagreed: List[str] = []

    def add(self, value, what: str) -> None:
        if not self.agreed and not self.disagreed:
            self.reference = value
        if value == self.reference:
            self.agreed += 1
        else:
            self.disagreed.append(f"{what}: differs from the first result")

    def settle(self, out: Outcome, expected, what: str) -> None:
        if self.agreed:
            out.ops(self.agreed, self.reference == expected,
                    f"{what}: differs from the oracle")
        for error in self.disagreed:
            out.op(False, error)


def checked(out: Outcome, what: str, call, results: Deferred, **kwargs):
    """Run one validate, adding its violation set to ``results``;
    an exception counts as a failed operation and propagates."""
    try:
        run = call(**kwargs)
    except Exception as exc:
        out.op(False, f"{what}: {exc!r}")
        raise
    results.add(run.violations, what)
    return run


def run_anchors(out: Outcome, run) -> None:
    out.anchor("plan.units", run.num_units)
    out.anchor("engine.cluster_cost", run.report.parallel_time)


def ship_anchors(out: Outcome, shipping) -> None:
    for name in ("full", "delta", "reused", "mapped", "shard_bytes",
                 "mapped_bytes"):
        out.anchor(f"executors.ship.{name}", getattr(shipping, name))


def add(layer: Dict[str, float], name: str, value: float) -> None:
    layer[name] = layer.get(name, 0.0) + value


#: ``FaultStats`` counters: 0 on a healthy run, so a run notes them
#: when they are not, instead of reporting them as metrics
FAULT_COUNTERS = ("crashes", "stalls", "respawns", "retried_units")


def add_faults(layer: Dict[str, float], faults) -> None:
    if faults is None:
        return
    for name in FAULT_COUNTERS:
        add(layer, f"faults.{name}", getattr(faults, name))
    layer["faults.heartbeat_latency_max_ms"] = max(
        layer.get("faults.heartbeat_latency_max_ms", 0.0),
        1000 * faults.heartbeat_latency_max,
    )


def add_shipping(layer: Dict[str, float], shipping) -> None:
    """Sum one run's shipping record into the layer counters."""
    if shipping is None:
        return
    for metric, name in (
        ("ship_full", "full"), ("ship_delta", "delta"),
        ("ship_reused", "reused"), ("ship_mapped", "mapped"),
        ("shard_bytes", "shard_bytes"), ("mapped_bytes", "mapped_bytes"),
        ("shipped_ops", "shipped_ops"), ("sigma_bytes", "sigma_bytes"),
        ("payload_bytes", "payload_bytes"),
    ):
        add(layer, f"executors.{metric}", getattr(shipping, name))
    add(layer, "executors.match_store_hits", shipping.match_store.hits)
    add(layer, "executors.match_store_misses", shipping.match_store.misses)


def record_memory(out: Outcome, memory: Dict[str, float], peak) -> None:
    """Report the peak resident sets behind ``peak_rss_mb`` and what the
    benchmark itself still held when the measurement started."""
    coordinator, worker = peak
    out.e2e["peak_rss_mb"] = coordinator + worker
    out.named.update({
        "peak_rss_coordinator_mb": (coordinator, "MB"),
        "peak_rss_worker_mb": (worker, "MB"),
        "rss_at_measurement_start_mb": (memory["rss_at_reset_mb"], "MB"),
        "peak_rss_before_measurement_mb": (memory["peak_before_reset_mb"], "MB"),
    })


def record_samples(out: Outcome, **samples) -> None:
    """Keep the raw samples for the written report and note their counts."""
    counts = []
    for name, sampled in samples.items():
        out.samples[f"{name}_s"] = sampled.seconds
        out.samples[f"{name}_stolen_ticks"] = sampled.stolen
        counts.append(f"{len(sampled)} {name} ({len(sampled.steady())} least stolen)")
    out.notes.append("samples: " + ", ".join(counts))


def span_metrics(tr, layer: Dict[str, float]) -> None:
    """Fill the span-based metrics and per-layer self times."""
    if not tr.enabled:
        return
    for metric, (names, how) in SPAN_METRICS.items():
        if how == "call":
            values = [d for name in names for d in tr.durations(name)]
        else:
            values = tr.per_iteration(names)
        if values:
            layer[metric] = median(values)
    iterations = max(1, tr.iteration)
    for name, seconds in tr.self_times().items():
        layer[f"self.{name}_s"] = seconds / iterations
