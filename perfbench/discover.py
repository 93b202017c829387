"""``discover-pokec``: ``ValidationSession.discover`` cold and warm.

The enumerate and count phases run no VF2 unit at all: they are
``matching.factorised`` elimination plus ``core.discovery`` aggregates
and ``engine`` folding.  Only the confirm phase runs VF2, and shard
shipping is small — ``matching`` is used the opposite way to
``validate-powerlaw``.
"""

from __future__ import annotations

import gc
import time

from repro import ValidationSession, det_vio, discover_gfds

from . import inputs, layers
from .common import (
    SESSION_OPTIONS,
    Deferred,
    add,
    add_faults,
    add_shipping,
    checked,
    load_inputs,
    record_memory,
    record_samples,
    span_metrics,
)
from .harness import (
    NoTrace,
    Samples,
    median,
    peak_rss_mb,
    quantile,
    reset_peak_rss,
)

#: ``session.discover`` parameters (its defaults, spelled out so that
#: the serial oracle gets exactly the same ones)
PARAMS = {
    "min_support": 5,
    "min_confidence": 0.95,
    "max_edges": 2,
    "top_edges": 5,
    "max_matches": 5000,
    "max_attrs": 4,
    "sample_size": None,
    "seed": 0,
}
SETUP_REPS = 7
MIN_COLD, MAX_COLD = 5, 20
MIN_WARM = 10
#: share of ``--seconds`` spent on cold discovers; the rest runs warm
COLD_SHARE = 0.4
TRACED_WALKS = 2
PHASES = ("enumerate", "count", "confirm")


def _discover(out, what: str, session, mined: Deferred, n: int):
    try:
        run = session.discover(n=n, **PARAMS)
    except Exception as exc:
        out.op(False, f"{what}: {exc!r}")
        raise
    mined.add(layers.rule_key(run.rules), what)
    return run


def run(ctx) -> None:
    out, tr, n = ctx.outcome, ctx.tracer, ctx.processes
    graph_path, rules_path = inputs.write_pokec(ctx.workdir, ctx.seed)
    with open(rules_path, encoding="utf-8") as handle:
        rules_text = handle.read()

    memory = reset_peak_rss()
    layer = {}

    # every discover (and layer walk) must mine the first one's rules,
    # every validate find the first one's violations; the oracles check
    # those once the session is closed
    mined, violations = Deferred(), Deferred()

    setups, colds, warms = Samples(), Samples(), Samples()
    phase_walls = {phase: [] for phase in PHASES}
    session = None
    try:
        for _ in range(SETUP_REPS):
            if session is not None:
                session.close()
                gc.collect()  # drop the closed session before the next set-up
            tr.next_iteration()
            with setups.measure():
                graph, sigma = load_inputs(tr, graph_path, rules_text)
                session = ValidationSession(graph, sigma, processes=n, **SESSION_OPTIONS)
                with tr.span("session.validate"):
                    checked(out, "set-up validate", session.validate, violations, n=n)
            if tr.enabled and len(setups) == 1:
                layer.update(layers.cold(tr, graph, n))

        start = time.perf_counter()
        while len(colds) < MIN_COLD or (
            len(colds) < MAX_COLD
            and time.perf_counter() - start < COLD_SHARE * ctx.seconds
        ):
            tr.next_iteration()
            fresh_graph, fresh_sigma = load_inputs(NoTrace(), graph_path, rules_text)
            fresh = ValidationSession(
                fresh_graph, fresh_sigma, processes=n, **SESSION_OPTIONS
            )
            try:
                with colds.measure(), tr.span("session.discover"):
                    cold = _discover(out, "cold discover", fresh, mined, n)
            finally:
                fresh.close()
            for phase in cold.phases:
                add_faults(layer, _faults(phase))

        # the set-up session's first discover builds its mining caches
        _discover(out, "first discover", session, mined, n)
        walks = 0
        start = time.perf_counter()
        while len(warms) < MIN_WARM or (
            time.perf_counter() - start < (1 - COLD_SHARE) * ctx.seconds
        ):
            tr.next_iteration()
            with warms.measure(), tr.span("session.discover"):
                warm = _discover(out, "warm discover", session, mined, n)
            _phase_anchors(out, warm)
            for phase in warm.phases:
                phase_walls[phase.phase].append(phase.wall_seconds)
                add_faults(layer, _faults(phase))
            if tr.enabled and walks < TRACED_WALKS:
                walks += 1
                counters, walked = layers.discover(tr, session.graph, PARAMS, n)
                mined.add(walked, "layer walk")
                layer.update(counters)
    finally:
        if session is not None:
            session.close()
    record_memory(out, memory, peak_rss_mb())

    # the oracles, untimed: serial mining and serial detVio
    oracle_graph, oracle_sigma = load_inputs(NoTrace(), graph_path, rules_text)
    mined.settle(out, layers.rule_key(discover_gfds(oracle_graph, **PARAMS)),
                 "discover (serial discover_gfds)")
    expected_vio = det_vio(oracle_sigma, oracle_graph)
    violations.settle(out, expected_vio, "set-up validate")
    layer["core.violations"] = len(expected_vio)

    for phase in warm.phases:
        add_shipping(layer, phase.shipping)
        add(layer, "plan.units", phase.num_units)
        add(layer, "engine.cluster_cost", phase.report.parallel_time)
        layer[f"session.discover.{phase.phase}_vf2_units"] = phase.vf2_units
        cache = phase.shipping.block_cache if phase.shipping else phase.cache
        add(layer, "engine.block_builds", cache.builds)
        add(layer, "engine.block_hits", cache.hits)
        add(layer, "engine.block_patched", cache.patched)
    for phase, walls in phase_walls.items():
        if walls:
            layer[f"session.discover.{phase}_s"] = median(walls)
    layer["core.discovery_proposals"] = warm.num_proposals
    layer["core.rules_mined"] = len(warm.rules)
    span_metrics(tr, layer)
    steady = warms.steady()
    out.e2e.update({
        "setup_s": median(setups.steady()),
        "cold_s": median(colds.steady()),
        "warm_ms": 1000 * median(steady),
        # too few samples for a p95 with ten beyond it
        "tail_ms": 1000 * quantile(steady, 0.9),
    })
    out.named.update({
        "discover_cold_s": (median(colds.steady()), "s"),
        "discover_warm_s": (median(steady), "s"),
    })
    record_samples(out, setup=setups, cold=colds, warm=warms)
    ctx.layer.update(layer)


def _faults(phase):
    return phase.shipping.faults if phase.shipping is not None else None


def _phase_anchors(out, run) -> None:
    out.anchor("core.rules_mined", len(run.rules))
    for phase in run.phases:
        out.anchor(f"plan.units.{phase.phase}", phase.num_units)
        out.anchor(f"engine.cluster_cost.{phase.phase}", phase.report.parallel_time)
        out.anchor(f"session.discover.{phase.phase}_vf2_units", phase.vf2_units)
