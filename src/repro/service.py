"""Continuous validation: concurrent update streams over a warm session.

The batch API (:meth:`~repro.session.ValidationSession.update`) applies
one op batch synchronously in the caller's thread.  Production traffic is
not shaped like that: many producers emit small mutations continuously,
and consumers want to know *what changed* about ``Vio(Σ, G)``, not to
re-diff full violation sets.  :class:`ValidationService` is the streaming
front end the ROADMAP's north star implies:

* **concurrent ingestion** — any number of threads call
  :meth:`ValidationService.submit` with update ops (README, "Update
  ops"); a bounded queue applies producer backpressure when the applier
  falls behind;
* **bounded delta batching** — one applier thread owns the session and
  cuts batches at a size watermark (``max_batch_ops``) or an age
  watermark (``max_batch_age`` seconds measured on the oldest queued
  op), whichever trips first — latency stays bounded under trickle
  load, throughput stays batched under burst load;
* **per-batch op coalescing** — a batch is folded to a final-state
  equivalent op list before it touches the session
  (:func:`coalesce_ops`): an attribute keeps its last write, an edge
  round trip cancels;
* **violation diffs** — each applied batch advances the service *epoch*
  and emits a :class:`ViolationDiff` ``(epoch, added, removed)`` to
  every subscriber.  Diffs are exact and compose
  (:meth:`ViolationDiff.then`), so any telescoped diff stream
  reproduces the batch-computed violation set precisely;
* **per-subscriber backpressure** — each :class:`Subscription` holds a
  bounded pending queue; when a slow consumer overflows it, the two
  *oldest* diffs are merged into one (composition, not drop), so a lagging
  subscriber loses granularity, never correctness.

The theory anchor is Berkholz, Keppeler and Schweikardt ("Answering
FO+MOD queries under updates on bounded degree databases", PAPERS.md):
for bounded-shape patterns, near-constant delay per update is
achievable.  The engineering counterpart here is that the whole warm
path is O(|Δ|) per batch — the incremental validator re-checks only
matches around the touched nodes, the session's block cache takes
*targeted* invalidation (``BlockMaterialiser.apply_ops``), and
process-backed runs forward the same ops to worker shards, which patch
their materialised blocks in place.

Example::

    from repro import ValidationService, ValidationSession

    with ValidationSession(graph, sigma, executor="process") as session:
        session.validate(n=4)                      # warm the engine
        with ValidationService(session) as service:
            sub = service.subscribe()
            service.submit([("attr", "c1", "val", "Sydney")])
            service.flush()
            diff = sub.next(timeout=1.0)           # ViolationDiff or None
        session.validate(n=4)                      # delta-shipped, warm
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .core.incremental import UpdateDiff
from .core.validation import Violation
from .graph.graph import PropertyGraph
from .graph.updates import check_ops, fold_key, holds, is_structural, op_nodes
from .parallel.faults import FaultPolicy, FaultStats, resolve_fault_policy
from .session import ValidationSession

#: default batch-size watermark: apply once this many ops are queued
DEFAULT_MAX_BATCH_OPS = 256

#: default batch-age watermark (seconds): apply once the oldest queued op
#: has waited this long, however few ops are pending
DEFAULT_MAX_BATCH_AGE = 0.05

#: default producer-side queue bound (ops): ``submit`` blocks past this
DEFAULT_MAX_PENDING_OPS = 16_384

#: default per-subscriber pending-diff bound before coalescing kicks in
DEFAULT_SUBSCRIBER_PENDING = 256

#: per-op apply-latency samples retained for the quantile estimate
LATENCY_WINDOW = 65_536


@dataclass(frozen=True)
class ViolationDiff:
    """What one applied batch changed about ``Vio(Σ, G)``.

    ``epoch`` is the service's batch counter (monotonic from 1);
    ``added`` / ``removed`` are exact deltas against the epoch before,
    so ``added & removed == frozenset()`` and applying the diff to the
    previous violation set (:meth:`apply`) yields the next one.
    """

    epoch: int
    added: frozenset
    removed: frozenset

    @property
    def empty(self) -> bool:
        """Whether this diff changes nothing (kept for epoch bookkeeping)."""
        return not self.added and not self.removed

    def apply(self, violations: Iterable[Violation]) -> Set[Violation]:
        """The violation set after this diff: ``(V - removed) | added``."""
        return (set(violations) - set(self.removed)) | set(self.added)

    def then(self, other: "ViolationDiff") -> "ViolationDiff":
        """Sequential composition (same algebra as ``UpdateDiff.then``).

        The result spans both windows and carries the later epoch; a
        violation introduced then resolved (or vice versa) inside the
        combined window cancels out, so coalesced diff streams telescope
        to exactly the same final set as the originals.
        """
        return ViolationDiff(
            epoch=other.epoch,
            added=frozenset(
                (self.added - other.removed) | (other.added - self.removed)
            ),
            removed=frozenset(
                (self.removed - other.added) | (other.removed - self.added)
            ),
        )


@dataclass
class ServiceStats:
    """Counters of one :class:`ValidationService`'s lifetime.

    ``submitted`` counts ops accepted by :meth:`~ValidationService.
    submit`; ``applied`` the ops that reached ``session.update()`` after
    coalescing; ``cancelled`` the ops coalescing folded away
    (``submitted == applied + cancelled`` once the queue is drained).
    ``batches`` counts applied batches (== the current epoch),
    ``diffs_emitted`` non-empty diffs fanned out to subscribers, and
    ``diffs_merged`` the backpressure coalescing events on slow
    subscribers.

    ``faults`` is the applier's fault-handling slice (see
    :class:`~repro.parallel.faults.FaultStats`): an applier exception
    absorbed by restart-with-replay counts one ``worker_errors``, each
    replay counts one ``respawns`` and its surviving ops count toward
    ``retried_units``.  ``failure`` is the terminal applier exception
    once the retry budget is exhausted (the cause chained onto the
    ``RuntimeError`` that ``submit``/``flush``/``close`` raise) —
    ``None`` while the service is healthy.
    """

    submitted: int = 0
    applied: int = 0
    cancelled: int = 0
    batches: int = 0
    diffs_emitted: int = 0
    diffs_merged: int = 0
    faults: FaultStats = field(default_factory=FaultStats)
    failure: Optional[BaseException] = None


def coalesce_ops(
    ops: Sequence[tuple], graph: PropertyGraph
) -> Tuple[List[tuple], int]:
    """Fold a batch of update ops to a final-state-equivalent op list.

    ``Vio(Σ, G)`` depends only on the final graph state, and diffs are
    emitted per *batch*, so folding that keeps the batch's net effect is
    free.  Ops with equal :func:`~repro.graph.updates.fold_key` keep only
    the last (attr last-wins; an ``edge+``/``edge-`` run keeps its last
    op), and a folded edge op the graph already :func:`~repro.graph.
    updates.holds` cancels outright (the applier owns the graph, so the
    read is race-free).  Node ops pass through and pin their node: ops
    naming it keep their original relative order, since an edge op is
    valid only after its endpoint's insertion.  Folded ops share no node
    with a node op, so they commute with the pass-through ops and are
    emitted after them.  Returns ``(ops, cancelled)``.
    """
    ops = check_ops(ops)
    pinned = {n for op in ops if fold_key(op) is None for n in op_nodes(op)}
    out: List[tuple] = []
    final: dict = {}
    for op in ops:
        key = fold_key(op)
        if key is None or not pinned.isdisjoint(op_nodes(op)):
            out.append(op)
        else:
            final[key] = op
    out += [op for op in final.values() if not is_structural(op)]
    out += [op for op in final.values()
            if is_structural(op) and not holds(graph, op)]
    return out, len(ops) - len(out)


class Subscription:
    """One consumer's view of the service's violation-diff stream.

    Created via :meth:`ValidationService.subscribe`.  ``baseline`` is
    the (frozen) violation set at subscription time; applying every
    received diff to it in order — or any coalesced telescoping of them
    — reproduces the service's current violation set exactly.

    ``max_pending`` bounds the pending queue: past it, the two oldest
    undelivered diffs are merged into one (:meth:`ViolationDiff.then`),
    so a slow consumer degrades to coarser diffs instead of unbounded
    memory or lost changes.
    """

    def __init__(
        self,
        service: "ValidationService",
        max_pending: int = DEFAULT_SUBSCRIBER_PENDING,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self._service = service
        self.max_pending = max_pending
        self.baseline: frozenset = frozenset()
        self._pending: "deque[ViolationDiff]" = deque()  #: guarded-by: _service._cond
        #: backpressure coalescing events on this consumer
        self.merged = 0  #: guarded-by: _service._cond
        self.closed = False  #: guarded-by: _service._cond

    def _offer(self, diff: ViolationDiff) -> None:  #: holds: _service._cond
        """Enqueue one diff (called under the service lock)."""
        self._pending.append(diff)
        while len(self._pending) > self.max_pending:
            first = self._pending.popleft()
            second = self._pending.popleft()
            self._pending.appendleft(first.then(second))
            self.merged += 1
            self._service._stats.diffs_merged += 1

    def next(self, timeout: Optional[float] = None) -> Optional[ViolationDiff]:
        """The next pending diff, blocking up to ``timeout`` seconds.

        Returns ``None`` on timeout, or — once the service is closed —
        when no diffs remain.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        # lexically `self._service._cond` (no local alias) so the
        # lock-discipline lint can see the guarded accesses below
        with self._service._cond:
            while not self._pending:
                if self.closed or self._service._closed:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._service._cond.wait(remaining)
            return self._pending.popleft()

    def drain(self) -> List[ViolationDiff]:
        """All pending diffs, without blocking."""
        with self._service._cond:
            out = list(self._pending)
            self._pending.clear()
            return out

    def close(self) -> None:
        """Detach from the service; pending diffs are discarded."""
        with self._service._cond:
            self.closed = True
            self._pending.clear()
            self._service._subs = [
                sub for sub in self._service._subs if sub is not self
            ]
            self._service._cond.notify_all()


class ValidationService:
    """Streaming violation maintenance over a pinned warm session.

    One applier thread owns the ``session`` (and therefore its graph)
    for the service's lifetime: producers never touch shared state
    beyond the ingestion queue, so ``submit`` is safe from any thread.
    Do not call ``session.update()``/``validate()`` (or mutate the
    graph) from outside while the service is open, except between a
    :meth:`flush` and the next :meth:`submit` — the applier only runs
    when ops are queued.

    ``max_batch_ops`` / ``max_batch_age`` are the batching watermarks
    (size and seconds); ``max_pending_ops`` bounds the ingestion queue
    (producer backpressure); ``clock`` is injectable for tests.

    Closing (:meth:`close`, or leaving the context) drains the queue,
    applies what remains, stops the applier thread and wakes every
    subscriber; the underlying session stays open and warm — worker
    pools and resident shards survive for the next ``validate()``.

    The applier is supervised, not fail-stop: an exception while
    applying a batch is retried up to ``fault_policy.max_retries``
    times (exponential backoff), replaying only the ops that do not
    already hold (idempotent against a half-applied graph) and
    recomputing the emitted :class:`ViolationDiff` from the violation
    *sets*, so a recovered stream carries exactly the diffs and epoch
    numbers a fault-free run would have.  Only an exhausted retry budget closes
    the stream, with the original cause chained
    (``ServiceStats.failure``).
    """

    def __init__(
        self,
        session: ValidationSession,
        max_batch_ops: int = DEFAULT_MAX_BATCH_OPS,
        max_batch_age: float = DEFAULT_MAX_BATCH_AGE,
        max_pending_ops: int = DEFAULT_MAX_PENDING_OPS,
        clock: Callable[[], float] = time.monotonic,
        fault_policy: Optional[FaultPolicy] = None,
    ) -> None:
        if max_batch_ops < 1:
            raise ValueError("max_batch_ops must be >= 1")
        if max_batch_age < 0:
            raise ValueError("max_batch_age must be >= 0")
        if max_pending_ops < max_batch_ops:
            raise ValueError("max_pending_ops must be >= max_batch_ops")
        self.session = session
        #: resolved applier-supervision knobs (retry budget, backoff and
        #: — for tests/CI — the injection plan; see ``parallel/faults.py``)
        self.fault_policy = resolve_fault_policy(fault_policy)
        self.max_batch_ops = max_batch_ops
        self.max_batch_age = max_batch_age
        self.max_pending_ops = max_pending_ops
        self._clock = clock
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # _cond wraps _lock, so holding either means holding the same
        # mutex; the annotations list both to accept either spelling.
        #: queued (submit_seq, op, enqueue_time) triples
        self._queue: "deque[Tuple[int, tuple, float]]" = deque()  #: guarded-by: _lock, _cond
        self._subs: List[Subscription] = []  #: guarded-by: _lock, _cond
        self._closed = False  #: guarded-by: _lock, _cond
        self._error: Optional[BaseException] = None  #: guarded-by: _lock, _cond
        self._epoch = 0  #: guarded-by: _lock, _cond
        self._submit_seq = 0  #: guarded-by: _lock, _cond
        self._applied_seq = 0  #: guarded-by: _lock, _cond
        #: ops up to this seq are cut without waiting for a watermark
        self._flush_seq = 0  #: guarded-by: _lock, _cond
        self._stats = ServiceStats()  #: guarded-by: _lock, _cond
        self._latencies: "deque[float]" = deque(maxlen=LATENCY_WINDOW)  #: guarded-by: _lock, _cond
        # The applier owns the session from here on; seed the current
        # violation set before it starts (the one safe moment).
        self._current: frozenset = frozenset(session.violations)  #: guarded-by: _lock, _cond
        self._thread = threading.Thread(
            target=self._run, name="validation-service-applier", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # producer API
    # ------------------------------------------------------------------
    def submit(self, ops: Iterable[tuple]) -> int:
        """Queue update ops for application; returns the last submit seq.

        Thread-safe; callable from any number of producers.  Blocks when
        the ingestion queue is full (producer backpressure) until the
        applier drains it.  The ops are shape-checked here
        (:func:`~repro.graph.updates.check_ops`), so a malformed op
        raises in the *producer's* thread and nothing of the call is
        queued.
        """
        ops = check_ops(ops)
        with self._cond:
            for op in ops:
                self._raise_if_failed()
                if self._closed:
                    raise RuntimeError("service is closed")
                while len(self._queue) >= self.max_pending_ops:
                    self._cond.wait()
                    self._raise_if_failed()
                    if self._closed:
                        raise RuntimeError("service is closed")
                self._submit_seq += 1
                self._stats.submitted += 1
                self._queue.append((self._submit_seq, op, self._clock()))
            self._cond.notify_all()
            return self._submit_seq

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until everything submitted so far has been applied.

        A pending partial batch is cut at once, without waiting for the
        age watermark.  Returns ``False`` on timeout.  After a
        successful flush (with no concurrent producers) the session's
        violation set reflects every submitted op, and it is safe to
        call ``session.validate()``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            target = self._submit_seq
            if target > self._flush_seq:
                self._flush_seq = target
                self._cond.notify_all()  # wake the applier's age wait
            while self._applied_seq < target:
                self._raise_if_failed()
                if self._closed and not self._queue:
                    return self._applied_seq >= target
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            self._raise_if_failed()
            return True

    # ------------------------------------------------------------------
    # consumer API
    # ------------------------------------------------------------------
    def subscribe(
        self, max_pending: int = DEFAULT_SUBSCRIBER_PENDING
    ) -> Subscription:
        """Register a diff consumer; see :class:`Subscription`.

        The subscription's ``baseline`` is the violation set as of the
        last applied batch — diffs received afterwards telescope from it.
        """
        sub = Subscription(self, max_pending=max_pending)
        with self._cond:
            if self._closed:
                raise RuntimeError("service is closed")
            sub.baseline = self._current
            self._subs.append(sub)
        return sub

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The number of batches applied so far."""
        with self._lock:
            return self._epoch

    def stats(self) -> ServiceStats:
        """A snapshot of the service's counters."""
        with self._lock:
            return replace(
                self._stats, faults=replace(self._stats.faults)
            )

    def latency_quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile of per-op apply latency (seconds).

        Measured submit-to-applied per op over a sliding window of
        :data:`LATENCY_WINDOW` samples; ``None`` before the first batch.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            samples = sorted(self._latencies)
        if not samples:
            return None
        index = min(len(samples) - 1, int(q * len(samples)))
        return samples[index]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ValidationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, drain: bool = True) -> None:
        """Stop the applier (idempotent); the session stays open.

        With ``drain=True`` (default) queued ops are applied before the
        thread exits; ``drain=False`` discards them.  If the applier
        died (retry budget exhausted), the failure is re-raised here
        with its original cause chained.
        """
        with self._cond:
            if not drain:
                self._queue.clear()
            self._closed = True
            self._cond.notify_all()
        self._thread.join()
        with self._cond:
            for sub in self._subs:
                sub.closed = True
            self._cond.notify_all()
            self._raise_if_failed()

    def _raise_if_failed(self) -> None:  #: holds: _lock, _cond
        if self._error is not None:
            # Not consumed: every blocked producer/flusher/closer gets
            # the same failure, with the applier's original exception
            # chained as the cause (it also stays readable on
            # ``stats().failure``).
            raise RuntimeError(
                "validation-service applier failed; the service is closed "
                "and the session may need a full validate() to reconcile"
            ) from self._error

    # ------------------------------------------------------------------
    # the applier thread
    # ------------------------------------------------------------------
    def _cut_batch(self) -> Optional[List[Tuple[int, tuple, float]]]:
        """Wait for a watermark — size, age or a waiting :meth:`flush` —
        and slice one batch off the queue.

        Returns ``None`` when the service is closed and drained.  Must
        be called from the applier thread only.
        """
        with self._cond:
            while True:
                if self._queue:
                    if (
                        self._closed
                        or len(self._queue) >= self.max_batch_ops
                        or self._queue[0][0] <= self._flush_seq
                    ):
                        break
                    age = self._clock() - self._queue[0][2]
                    if age >= self.max_batch_age:
                        break
                    self._cond.wait(self.max_batch_age - age)
                elif self._closed:
                    return None
                else:
                    self._cond.wait()
            batch = [
                self._queue.popleft()
                for _ in range(min(len(self._queue), self.max_batch_ops))
            ]
            self._cond.notify_all()  # wake producers blocked on the bound
            return batch

    def _apply_with_retry(
        self,
        ops: List[tuple],
        epoch: int,
        before: frozenset,
        fired: Dict[int, int],
    ) -> Tuple[frozenset, frozenset, int, int]:
        """Apply one batch, surviving applier faults by replay.

        ``epoch`` is the epoch this batch becomes when it lands;
        ``before`` is the violation set of the epoch before; ``fired``
        tracks injected applier failures already delivered (applier-
        local state, threaded through by :meth:`_run`).  Returns
        ``(added, removed, failures, retried_ops)``: the batch's exact
        violation delta plus the fault accounting.  The fault-free path
        is byte-for-byte the old fail-stop apply; a retried batch
        recomputes its delta from the violation *sets*, which is exact
        whatever prefix of the ops the failed attempts applied.  Raises
        once ``fault_policy.max_retries`` replays are exhausted.
        """
        policy = self.fault_policy
        plan = policy.plan
        failures = 0
        retried_ops = 0
        attempt = 0
        while True:
            try:
                if plan is not None:
                    for at_epoch, times in plan.applier_failures:
                        if at_epoch == epoch and fired.get(epoch, 0) < times:
                            fired[epoch] = fired.get(epoch, 0) + 1
                            raise RuntimeError(
                                f"injected applier failure at epoch {epoch}"
                            )
                if attempt == 0:
                    diff = self.session.update(ops) if ops else UpdateDiff()
                    return (
                        frozenset(diff), frozenset(diff.removed),
                        failures, retried_ops,
                    )
                # The failed attempts applied a prefix of the batch, and
                # session.update carried it into every cache: replay only
                # the ops that do not hold yet (re-removing an absent
                # edge would raise).  The applier owns the graph.
                graph = self.session.graph
                survivors = [op for op in ops if not holds(graph, op)]
                retried_ops += len(survivors)
                if survivors:
                    self.session.update(survivors)
                after = frozenset(self.session.violations)
                return after - before, before - after, failures, retried_ops
            except BaseException:
                failures += 1
                attempt += 1
                if attempt > policy.max_retries:
                    # Terminal: the retry accounting must still land on
                    # the stats channel before the failure surfaces —
                    # a fault that kills the service is a fault that
                    # fired.  (The last failure aborts rather than
                    # replays, hence one fewer respawn than error.)
                    with self._cond:
                        self._stats.faults.worker_errors += failures
                        self._stats.faults.respawns += failures - 1
                        self._stats.faults.retried_units += retried_ops
                    raise
                time.sleep(policy.retry_wait(attempt))

    def _run(self) -> None:
        with self._cond:
            current = self._current
            epoch = self._epoch
        fired: Dict[int, int] = {}
        while True:
            try:
                batch = self._cut_batch()
            except BaseException as exc:  # pragma: no cover - clock bugs
                self._fail(exc)
                return
            if batch is None:
                return
            try:
                ops, cancelled = coalesce_ops(
                    [op for _, op, _ in batch], self.session.graph
                )
                added, removed, failures, retried_ops = (
                    self._apply_with_retry(ops, epoch + 1, current, fired)
                )
            except BaseException as exc:
                self._fail(exc)
                return
            now = self._clock()
            current = (current - removed) | added
            epoch += 1
            with self._cond:
                self._epoch = epoch
                self._applied_seq = batch[-1][0]
                self._stats.batches += 1
                self._stats.applied += len(ops)
                self._stats.cancelled += cancelled
                if failures:
                    self._stats.faults.worker_errors += failures
                    self._stats.faults.respawns += failures
                    self._stats.faults.retried_units += retried_ops
                self._latencies.extend(
                    now - enqueued for _, _, enqueued in batch
                )
                self._current = current
                if added or removed:
                    emitted = ViolationDiff(
                        epoch=epoch, added=added, removed=removed
                    )
                    for sub in self._subs:
                        sub._offer(emitted)
                    self._stats.diffs_emitted += 1
                self._cond.notify_all()

    def _fail(self, exc: BaseException) -> None:
        with self._cond:
            self._error = exc
            self._stats.failure = exc
            self._closed = True
            for sub in self._subs:
                sub.closed = True
            self._cond.notify_all()


# re-exported for convenience alongside the service front end
__all__ = [
    "ValidationService",
    "Subscription",
    "ViolationDiff",
    "ServiceStats",
    "coalesce_ops",
    "DEFAULT_MAX_BATCH_OPS",
    "DEFAULT_MAX_BATCH_AGE",
    "DEFAULT_MAX_PENDING_OPS",
    "DEFAULT_SUBSCRIBER_PENDING",
]
