"""``serve-mixed``: a ``ValidationService`` under an open-loop op stream.

A warm session on the ``validate-powerlaw`` inputs sits behind one
service.  A single-thread, open-loop generator (the main thread) sends
a fixed op mix at each rate of a fixed ladder, one window per rate
(four at the reference rate).
Every op's latency runs from its *scheduled* send time to the moment
the generator observes it applied, so a stall charges every op behind
it.  After each window: one ``flush()``, then one ``session.validate``
read beside the writes.  The oracle replays every window on a mirror
graph once the session is closed, so no oracle graph is resident while
the workers run.

Writes load ``service`` (batching, coalescing), ``core.incremental``
and the graph snapshot delta path.  The read after a window ships
deltas when fewer than ``ShardCache.MAX_FORWARD_OPS`` (4096) ops were
applied since the last read and full shards otherwise; the ladder
covers both sides.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import List

from repro import ValidationService, ValidationSession, det_vio
from repro.core.incremental import IncrementalValidator
from repro.graph.snapshot import GraphSnapshot
from repro.matching.vf2 import MatchStats

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
    steal_ticks,
)

#: offered rates (ops/s) in ladder order, and the windows each runs.
#: Interference from the host only slows the service, so the reference
#: latencies come from the valid 400 ops/s window with the lowest p50
#: (over ten seeds, single windows put p50 between 49 and 95 ms as the
#: host took CPU time away, and a window with a full garbage collection
#: also stalls the generator and is invalid).
WINDOWS = {200: 1, 400: 4, 4000: 1}
LADDER = tuple(WINDOWS)
#: the rate ``warm_ms``/``tail_ms`` report: the ladder step below
#: saturation.  On a 2-CPU host the service keeps p99 near 100 ms at
#: 400 ops/s and absorbs roughly 700-1300 ops/s when overloaded, so the
#: top step, 4000 ops/s, is never sustained and the verdict repeats.
REFERENCE_RATE = 400
#: a window sustains its rate when its p99 stays within this limit ...
LATENCY_LIMIT_MS = 500.0
#: ... and at most this many ops are still queued when sending ends
BACKLOG_LIMIT = 512
#: a window whose generator ran later than this at p99 is invalid: one
#: batch-age watermark of the service (``DEFAULT_MAX_BATCH_AGE``)
LATE_LIMIT_MS = 50.0
#: a window lasts this long or sends ``MAX_WINDOW_OPS``, whichever is
#: first: 400 ops/s x 2.5 s gives p95 fifty samples beyond it, and 5000
#: ops pass ``ShardCache.MAX_FORWARD_OPS`` (4096), so the read after a
#: 4000 ops/s window ships full shards and the others ship deltas
MAX_WINDOW_S = 2.5
MAX_WINDOW_OPS = 5000
POLL_S = 0.001
#: an op not applied this long after the window's last send has failed
DRAIN_TIMEOUT_S = 30.0
SETUP_REPS = 3
#: the rate of every window, in order
SCHEDULE = tuple(rate for rate, count in WINDOWS.items() for _ in range(count))


@dataclass
class Window:
    rate: int
    ops: int
    latencies_ms: List[float]
    late_ms: List[float]
    backlog_end: int
    backlog_max: int
    #: seconds from the first scheduled send to the last observed apply
    span_s: float
    #: CPU time the hypervisor took during the window, in clock ticks
    stolen: int = 0
    #: full (generation-2) garbage collections during the window, seconds
    gc_pauses: List[float] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return len(self.latencies_ms) == self.ops

    @property
    def valid(self) -> bool:
        return quantile(self.late_ms, 0.99) <= LATE_LIMIT_MS

    @property
    def rank(self):
        """Valid windows first, then the lower median latency."""
        return (not self.valid, quantile(self.latencies_ms, 0.5))

    @property
    def sustained(self) -> bool:
        return (
            self.valid and self.complete
            and quantile(self.latencies_ms, 0.99) <= LATENCY_LIMIT_MS
            and self.backlog_end <= BACKLOG_LIMIT
        )


def drive(service, ops, rate: int, tr) -> Window:
    """Send ``ops`` open-loop at ``rate`` and time each one's application.

    Ops are due at ``k / rate``; each poll sends every op already due in
    one ``submit`` and reads how many ops the service has processed
    (applied or coalesced away — the service takes them in order), so
    an op's apply time is observed within one poll interval.
    """
    n = len(ops)
    pauses: List[float] = []
    began: List[float] = []

    def on_gc(phase, info):
        if info["generation"] == 2:
            if phase == "start":
                began.append(time.perf_counter())
            elif began:
                pauses.append(time.perf_counter() - began.pop())

    gc.callbacks.append(on_gc)
    try:
        window = _send(service, ops, rate, tr)
    finally:
        gc.callbacks.remove(on_gc)
    window.gc_pauses = pauses
    return window


def _send(service, ops, rate: int, tr) -> Window:
    n = len(ops)
    sent_at = [0.0] * n
    applied_at = [0.0] * n
    stats = service.stats()
    base = stats.applied + stats.cancelled
    sent = done = backlog_max = 0
    backlog_end = None
    t0 = time.perf_counter()
    deadline = n / rate + DRAIN_TIMEOUT_S
    while done < n:
        now = time.perf_counter() - t0
        if sent < n:
            due = min(n, int(now * rate) + 1)
            if due > sent:
                with tr.span("service.submit"):
                    service.submit(ops[sent:due])
                stamp = time.perf_counter() - t0
                sent_at[sent:due] = [stamp] * (due - sent)
                sent = due
        stats = service.stats()
        processed = stats.applied + stats.cancelled - base
        now = time.perf_counter() - t0
        if processed > done:
            applied_at[done:processed] = [now] * (processed - done)
            done = processed
        backlog_max = max(backlog_max, sent - done)
        if sent == n and backlog_end is None:
            backlog_end = sent - done
        if now > deadline:
            break
        wait = POLL_S if sent == n else sent / rate - now
        if wait > 0:
            time.sleep(min(wait, POLL_S))
    return Window(
        rate=rate,
        ops=n,
        latencies_ms=[1000 * (applied_at[k] - k / rate) for k in range(done)],
        late_ms=[1000 * (sent_at[k] - k / rate) for k in range(sent)],
        backlog_end=backlog_end if backlog_end is not None else n - done,
        backlog_max=backlog_max,
        span_s=applied_at[done - 1] if done else float("inf"),
    )


def run(ctx) -> None:
    out, tr, n = ctx.outcome, ctx.tracer, ctx.processes
    graph_path, rules_path = inputs.write_powerlaw(ctx.workdir, ctx.seed)
    with open(rules_path, encoding="utf-8") as handle:
        rules_text = handle.read()
    window_s = min(MAX_WINDOW_S, ctx.seconds / len(SCHEDULE))

    # the op stream is generated to a file and read back; the oracle
    # replays it on a mirror graph once the session is closed
    first_op, windows = inputs.read_serve_ops(inputs.write_serve_ops(
        ctx.workdir, graph_path, ctx.seed,
        [max(1, min(MAX_WINDOW_OPS, int(rate * window_s))) for rate in SCHEDULE],
    ))
    memory = reset_peak_rss()
    layer = {}

    setups, colds, firsts, reads = Samples(), Samples(), Samples(), []
    results: List[Window] = []
    #: per window: (its iteration id, the violation set the service
    #: streamed, which the session and the read agreed with, or None)
    observed = []
    #: the violation set before the first window, as each set-up
    #: validate, the first update and the subscription saw it
    before = Deferred()
    session = service = None
    try:
        for _ in range(SETUP_REPS):
            if session is not None:
                session.close()
                gc.collect()  # drop the closed session before the next set-up
            tr.next_iteration()
            with setups.measure():
                graph, sigma = load_inputs(tr, graph_path, rules_text)
                session = ValidationSession(graph, sigma, processes=n, **SESSION_OPTIONS)
                # a fresh session until it has applied its first write
                with colds.measure():
                    with tr.span("session.validate"):
                        checked(out, "set-up validate", session.validate, before, n=n)
                    with firsts.measure(), tr.span("session.update"):
                        diff = session.update([first_op])
            out.op(not list(diff) and not diff.removed,
                   "first update changed the violation set")
            before.add(session.violations, "violations after the first update")

        service = ValidationService(session)
        subscription = service.subscribe()
        streamed = set(subscription.baseline)
        before.add(streamed, "subscription baseline")
        for index, (rate, ops) in enumerate(zip(SCHEDULE, windows)):
            tr.next_iteration()
            stolen = steal_ticks()
            window = drive(service, ops, rate, tr)
            window.stolen = steal_ticks() - stolen
            results.append(window)
            with tr.span("service.flush"):
                flushed = service.flush(timeout=DRAIN_TIMEOUT_S)
            for diff in subscription.drain():
                streamed = diff.apply(streamed)
            t0 = time.perf_counter()
            try:
                with tr.span("session.validate"):
                    read = session.validate(n=n)
            except Exception as exc:
                out.op(False, f"read after {rate} ops/s: {exc!r}")
                raise
            reads.append(time.perf_counter() - t0)
            agreed = (
                flushed and window.complete
                and streamed == session.violations == read.violations
            )
            if not agreed:
                out.errors.append(
                    f"window {index} at {rate} ops/s: applied={window.complete} "
                    f"flushed={flushed} stream=session="
                    f"{streamed == session.violations} session=read="
                    f"{session.violations == read.violations}"
                )
            observed.append((tr.iteration, streamed if agreed else None))
            out.anchor(f"plan.units.w{index}", read.num_units)
            add_shipping(layer, read.shipping)
            add_faults(layer, read.shipping.faults)
            add(layer, "engine.block_builds", read.shipping.block_cache.builds)
            add(layer, "engine.block_hits", read.shipping.block_cache.hits)
            add(layer, "engine.block_patched", read.shipping.block_cache.patched)
        service_stats = service.stats()
        apply_p50 = service.latency_quantile(0.5)
        apply_p99 = service.latency_quantile(0.99)
    except BaseException:
        if service is not None:
            _close_quietly(service)
            service = None
        raise
    finally:
        try:
            if service is not None:
                service.close()
        finally:
            if session is not None:
                session.close()
    peak = peak_rss_mb()

    expected = _replay_oracle(ctx, graph_path, rules_text, before, windows,
                              observed, layer)

    # per rate, the valid window with the lowest p50 (an invalid one
    # only when no window at that rate is valid)
    chosen = {}
    for window in results:
        best_so_far = chosen.get(window.rate)
        if best_so_far is None or window.rank < best_so_far.rank:
            chosen[window.rate] = window
    reference = chosen[REFERENCE_RATE]
    sustained = [chosen[rate] for rate in LADDER if chosen[rate].sustained]
    best = sustained[-1] if sustained else None
    for rate in LADDER:
        layer[f"service.r{rate}.p99_ms"] = quantile(chosen[rate].latencies_ms, 0.99)
    for window in results:
        out.notes.append(
            f"{window.rate} ops/s ({window.stolen} ticks stolen): p50 {quantile(window.latencies_ms, 0.5):.1f} ms, "
            f"p99 {quantile(window.latencies_ms, 0.99):.1f} ms, generator late "
            f"{quantile(window.late_ms, 0.99):.1f} ms at p99, backlog "
            f"{window.backlog_end} at the last send (max {window.backlog_max}), "
            f"{window.ops / window.span_s:.0f} ops/s absorbed, "
            f"{'sustained' if window.sustained else 'not sustained'}"
            f"{'' if window.valid else ' (invalid: the generator ran late)'}; "
            f"{len(window.gc_pauses)} full GC ({1000 * sum(window.gc_pauses):.0f} ms)"
        )
    if best is None:
        out.notes.append("no ladder rate was sustained")
    # ops/s the service absorbed while overloaded: the top-rate window's
    # ops over the time from its first scheduled send to its last apply.
    # A per-layer metric, not an end-to-end one: over ten seeds its
    # interquartile spread was 21-36 % of its median, with or without
    # stolen CPU time, beyond any bound a regression check could use.
    overload = chosen[LADDER[-1]]
    absorbed = overload.ops / overload.span_s
    submitted = max(1, service_stats.submitted)
    layer.update({
        "service.batches": service_stats.batches,
        "service.ops_per_batch": (
            (service_stats.applied + service_stats.cancelled)
            / max(1, service_stats.batches)
        ),
        "service.cancelled_share": service_stats.cancelled / submitted,
        "service.diffs_emitted": service_stats.diffs_emitted,
        "service.diffs_merged": service_stats.diffs_merged,
        "service.apply_p50_ms": 1000 * (apply_p50 or 0.0),
        "service.apply_p99_ms": 1000 * (apply_p99 or 0.0),
        "service.backlog_max": reference.backlog_max,
        "service.generator_late_p99_ms": quantile(reference.late_ms, 0.99),
        "service.read_s": median(reads),
        "service.invalid_windows": sum(not w.valid for w in results),
        "service.absorbed_ops_per_s": absorbed,
        "core.violations": len(expected),
        "plan.units": read.num_units,
    })
    add_faults(layer, service_stats.faults)
    span_metrics(tr, layer)
    p50 = quantile(reference.latencies_ms, 0.5)
    # p95, not p99: over ten seeds p99 at the reference rate did not
    # repeat within a tenth (interquartile spread 70 % of its median)
    p95 = quantile(reference.latencies_ms, 0.95)
    out.e2e.update({
        "setup_s": median(setups.steady()),
        "cold_s": median(colds.steady()),
        "warm_ms": p50,
        "tail_ms": p95,
    })
    out.named.update({
        "serve_p50_ms": (p50, "ms"),
        "serve_p95_ms": (p95, "ms"),
        "serve_p99_ms": (quantile(reference.latencies_ms, 0.99), "ms"),
        "serve_max_ops_per_s": (best.rate if best else 0, "ops/s"),
        "serve_absorbed_ops_per_s": (absorbed, "ops/s"),
        "serve_read_s": (median(reads), "s"),
        "serve_first_update_s": (median(firsts.steady()), "s"),
    })
    record_samples(out, setup=setups, cold=colds, first_update=firsts)
    out.samples["read_s"] = reads
    out.notes.append(
        f"windows of {window_s:.2f} s at {SCHEDULE} ops/s; reference "
        f"{REFERENCE_RATE} ops/s: {reference.ops} ops, the valid window with "
        f"the lowest p50 of {WINDOWS[REFERENCE_RATE]}"
    )
    record_memory(out, memory, peak)
    ctx.layer.update(layer)


def _replay_oracle(ctx, graph_path, rules_text, before, windows, observed,
                   layer):
    """Check the set-up and every window against ``det_vio`` on a mirror
    graph that takes the same ops serially (``inputs.apply_to_mirror``);
    returns the final violation set.

    In the traced run the layer walk (coalesce, incremental detect,
    snapshot delta) runs on a second, separate copy of the graph and is
    checked against the same mirror.
    """
    out, tr = ctx.outcome, ctx.tracer
    mirror, sigma = load_inputs(NoTrace(), graph_path, rules_text)
    initial = det_vio(sigma, mirror)
    before.settle(out, initial, "set-up")
    walk = snapshot = None
    incremental_ops = 0
    if tr.enabled:
        walk_graph, _ = load_inputs(NoTrace(), graph_path, rules_text)
        walk = IncrementalValidator(sigma, walk_graph, violations=initial)
        snapshot = GraphSnapshot(walk_graph)
    expected = initial
    for index, (ops, (iteration, streamed)) in enumerate(zip(windows, observed)):
        inputs.apply_to_mirror(mirror, ops)
        stats = MatchStats()
        expected = det_vio(sigma, mirror, stats=stats)
        out.anchor(f"matching.vf2_matches.w{index}", stats.matches)
        # ops plus the read after the window
        out.ops(len(ops) + 1, streamed == expected,
                f"window {index}: violations differ from det_vio on the mirror")
        if walk is not None:
            tr.iteration = iteration  # the walk's spans join the window's
            incremental_ops += layers.serve_batches(tr, ops, walk, snapshot)
            out.op(walk.violations == expected,
                   f"window {index}: layer walk differs from det_vio on the mirror")
    if incremental_ops:
        layer["core.incremental_ops"] = incremental_ops
        layer["core.incremental_op_us"] = (
            1e6 * sum(tr.durations("core.incremental")) / incremental_ops
        )
    return expected


def _close_quietly(service) -> None:
    """Stop the applier without draining, on the way out of a failure."""
    try:
        service.close(drain=False)
    except Exception:
        pass  # the failure already propagating is the one to report
