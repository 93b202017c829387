"""``validate-powerlaw``: cold and warm ``ValidationSession.validate``.

Cold runs (a fresh session each time, pool start included) are
dominated by ``executors`` (pool start, pack/publish/attach of the
mapped arena) and the ``graph`` snapshot build; warm runs on one
session by ``matching`` VF2, ``core`` literal checks and ``engine``.
The workload bypasses ``service``, incremental maintenance and
factorised evaluation.
"""

from __future__ import annotations

import gc
import time

from repro import ValidationSession, det_vio, load_graph
from repro.cli import parse_rule_file
from repro.matching.vf2 import MatchStats

from . import inputs, layers
from .common import (
    SESSION_OPTIONS,
    Deferred,
    add_faults,
    add_shipping,
    checked,
    load_inputs,
    record_memory,
    record_samples,
    run_anchors,
    ship_anchors,
    span_metrics,
)
from .harness import Samples, median, peak_rss_mb, quantile, reset_peak_rss

#: set-up repetitions (each is one cold validate), at least
MIN_SETUP_REPS = 3
MAX_SETUP_REPS = 12
#: warm samples, at least: p95 then has ten samples beyond it
MIN_WARM_SAMPLES = 200
#: share of ``--seconds`` spent on cold set-ups; the rest runs warm.
#: A set-up takes seconds and a warm validate tens of milliseconds, so
#: the set-ups get the larger share: with 0.4 a 25 s run held only 3-5
#: cold samples, and the warm loop runs its 200 samples regardless.
COLD_SHARE = 0.6
#: warm iterations that also walk the layers in the traced run
TRACED_WALKS = 3


def run(ctx) -> None:
    out, tr, n = ctx.outcome, ctx.tracer, ctx.processes
    graph_path, rules_path = inputs.write_powerlaw(ctx.workdir, ctx.seed)
    with open(rules_path, encoding="utf-8") as handle:
        rules_text = handle.read()

    memory = reset_peak_rss()
    layer = {}

    # every validate and layer walk must find the first validate's
    # violations; the oracle checks that one once the session is closed
    results = Deferred()
    setups, colds, warms = Samples(), Samples(), Samples()
    session = None
    cold_run = warm_run = None
    try:
        start = time.perf_counter()
        while len(setups) < MIN_SETUP_REPS or (
            len(setups) < MAX_SETUP_REPS
            and time.perf_counter() - start < COLD_SHARE * ctx.seconds
        ):
            if session is not None:
                session.close()
                gc.collect()  # drop the closed session before the next set-up
            tr.next_iteration()
            with setups.measure():
                graph, sigma = load_inputs(tr, graph_path, rules_text)
                session = ValidationSession(
                    graph, sigma, processes=n, **SESSION_OPTIONS
                )
                with colds.measure(), tr.span("session.validate"):
                    run_ = checked(out, "cold validate", session.validate, results, n=n)
            run_anchors(out, run_)
            # a recovered fault re-ships by design: not a determinism bug
            if not run_.shipping.faults.respawns:
                ship_anchors(out, run_.shipping)
            add_faults(layer, run_.shipping.faults)
            if cold_run is None:
                cold_run = run_
                add_shipping(layer, run_.shipping)
            if tr.enabled and len(setups) == 1:
                layer.update(layers.cold(tr, graph, n))

        walks = 0
        start = time.perf_counter()
        while len(warms) < MIN_WARM_SAMPLES or (
            time.perf_counter() - start < (1 - COLD_SHARE) * ctx.seconds
        ):
            tr.next_iteration()
            with warms.measure(), tr.span("session.validate"):
                warm_run = checked(out, "warm validate", session.validate, results, n=n)
            run_anchors(out, warm_run)
            add_faults(layer, warm_run.shipping.faults)
            if tr.enabled and walks < TRACED_WALKS:
                walks += 1
                counters, found, executed = layers.validate(
                    tr, session.sigma, session.graph, n
                )
                results.add(found, "layer walk violations_of")
                results.add(executed, "layer walk execute_unit")
                layer.update(counters)
    finally:
        if session is not None:
            session.close()
    record_memory(out, memory, peak_rss_mb())

    # the oracle, untimed
    stats = MatchStats()
    expected = det_vio(parse_rule_file(rules_text), load_graph(graph_path), stats=stats)
    results.settle(out, expected, "validate")
    out.anchor("matching.vf2_matches", stats.matches)
    layer.update({
        "matching.vf2_steps": stats.steps,
        "matching.vf2_matches": stats.matches,
        "matching.matches_per_kstep": 1000.0 * stats.matches / max(1, stats.steps),
        "core.violations": len(expected),
    })
    layer.update({
        "plan.units": cold_run.num_units,
        "engine.cluster_cost": cold_run.report.parallel_time,
        "engine.block_builds": cold_run.shipping.block_cache.builds,
        "engine.block_hits": warm_run.shipping.block_cache.hits,
        "engine.block_patched": warm_run.shipping.block_cache.patched,
    })
    span_metrics(tr, layer)
    warm = warms.steady()
    # the tail keeps every sample, so that ten lie beyond its p95
    tail = quantile(warms.seconds, 0.95)
    out.e2e.update({
        "setup_s": median(setups.steady()),
        "cold_s": median(colds.steady()),
        "warm_ms": 1000 * median(warm),
        "tail_ms": 1000 * tail,
    })
    out.named.update({
        "validate_cold_s": (median(colds.steady()), "s"),
        "validate_warm_ms": (1000 * median(warm), "ms"),
        "validate_warm_p95_ms": (1000 * tail, "ms"),
    })
    record_samples(out, setup=setups, cold=colds, warm=warms)
    ctx.layer.update(layer)
