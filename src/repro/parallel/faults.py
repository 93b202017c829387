"""Fault tolerance for the execution plane: policy, stats, injection.

The paper's distributed model assumes workers answer; production assumes
they sometimes don't.  This module holds the three pieces the supervised
execution plane (``executors.py``) and the service applier
(``service.py``) share:

* :class:`FaultPolicy` — the knobs: how long a worker may stay silent
  (heartbeats), how long one unit may run (deadline), how often a failed
  batch is retried and with what backoff, and how far the pool may
  degrade before the run fails;
* :class:`FaultStats` — the mergeable telemetry slice surfaced on
  ``ShippingStats.faults`` (per process run) and ``ServiceStats.faults``
  (per service lifetime): crashes/stalls seen, respawns, units retried,
  slots degraded, heartbeat latencies;
* :class:`FaultPlan` — a *deterministic* fault-injection harness.  A
  plan names exactly which faults fire where ("crash pool worker 0
  before its unit 1", "delay worker 1's unit 0 by 0.3s", "drop worker
  0's reply", "die mid-shm-attach", "fail the applier at epoch 2"), so
  a test — or the whole CI differential matrix, via the
  ``REPRO_FAULT_PLAN`` environment variable — can replay identical
  faults on every run and pin the recovered outputs byte-identical to
  the fault-free ones.

Triggers are keyed by *pool-worker index* and *incarnation*: a respawned
worker (incarnation 1, 2, …) re-fires a trigger only while its
incarnation is below the trigger's count, so a single-shot crash cannot
respawn-loop forever and multi-shot crashes exercise the degrade path
deliberately.  Unit indices count units *started within one batch
message* (requeued batches restart the count, but the bumped incarnation
blocks the re-fire).  No wall clock or RNG participates anywhere — the
same plan over the same workload fires the same faults every time.

``REPRO_FAULT_PLAN`` holds the plan as JSON, e.g.::

    REPRO_FAULT_PLAN='{"crashes": [[0, 0, 1]]}'                 # crash once
    REPRO_FAULT_PLAN='{"delays": [[0, 0, 0.3]],
                       "policy": {"unit_deadline": 0.1,
                                  "heartbeat_interval": 0.02}}' # stall once

The optional ``"policy"`` object overrides :class:`FaultPolicy` defaults
for runs that did not pass an explicit policy — how CI tightens the
deadlines that make an injected delay an actual detected stall.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Set, Tuple

#: environment variable holding a JSON :class:`FaultPlan` spec
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: exit status of a plan-injected worker death (``os._exit`` — no
#: cleanup, no atexit: the closest python gets to a SIGKILL'd worker)
FAULT_EXIT = 73

#: a worker silent for this many heartbeat intervals is declared dead
#: even without a pipe EOF (wedged hard: its beat thread stopped too)
HEARTBEAT_MISS_LIMIT = 10

#: default worker heartbeat cadence (seconds)
DEFAULT_HEARTBEAT_INTERVAL = 0.5

#: default per-batch retry budget before the run fails
DEFAULT_MAX_RETRIES = 2

#: default base backoff (seconds) before a respawn+requeue; attempt ``k``
#: waits ``backoff * 2**(k-1)``
DEFAULT_BACKOFF = 0.05


def _entries(raw, name: str, width: int, pad) -> Tuple[tuple, ...]:
    """Normalise one plan trigger list from its JSON shape.

    Each entry may omit trailing elements; ``pad`` supplies defaults
    (e.g. a trigger count of 1).  Raises on malformed entries so a CI
    run with a broken ``REPRO_FAULT_PLAN`` fails loudly instead of
    silently injecting nothing.
    """
    out = []
    for entry in raw:
        entry = tuple(entry) if isinstance(entry, (list, tuple)) else (entry,)
        if not entry or len(entry) > width:
            raise ValueError(f"malformed fault-plan entry for {name!r}: {entry!r}")
        out.append(entry + pad[len(entry) - len(pad):] if len(entry) < width else entry)
    return tuple(out)


@dataclass
class FaultPlan:
    """A deterministic script of faults to inject (see module docstring).

    ``crashes`` — ``(worker, unit, incarnations)``: pool worker dies
    hard (``os._exit``) before starting that unit, for its first
    ``incarnations`` lives.  ``delays`` — ``(worker, unit, seconds)``:
    the unit is delayed (first incarnation only), which a
    ``unit_deadline`` turns into a detected stall.  ``drop_replies`` —
    ``(worker, incarnations)``: the worker finishes its batch but never
    replies (a wedged-after-work process).  ``die_mid_attach`` —
    ``(worker, incarnations)``: the worker dies immediately after
    attaching a shared-memory shard segment, before using it — the shm
    lifecycle's nastiest moment.  ``applier_failures`` — ``(epoch,
    times)``: the service applier raises before applying the batch that
    would become that epoch, ``times`` times.  ``policy`` — field
    overrides applied to the default :class:`FaultPolicy` when the env
    plan is active and no explicit policy was passed.
    """

    crashes: Tuple[Tuple[int, int, int], ...] = ()
    delays: Tuple[Tuple[int, int, float], ...] = ()
    drop_replies: Tuple[Tuple[int, int], ...] = ()
    die_mid_attach: Tuple[Tuple[int, int], ...] = ()
    applier_failures: Tuple[Tuple[int, int], ...] = ()
    policy: Dict[str, object] = field(default_factory=dict)

    #: JSON keys accepted by :meth:`from_spec`
    KEYS = (
        "crashes", "delays", "drop_replies", "die_mid_attach",
        "applier_failures", "policy",
    )

    @property
    def empty(self) -> bool:
        """Whether this plan injects nothing at all."""
        return not (
            self.crashes or self.delays or self.drop_replies
            or self.die_mid_attach or self.applier_failures
        )

    @property
    def worker_empty(self) -> bool:
        """Whether this plan injects nothing *worker-side* (applier only)."""
        return not (
            self.crashes or self.delays or self.drop_replies
            or self.die_mid_attach
        )

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Parse a JSON plan spec (the ``REPRO_FAULT_PLAN`` format)."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("fault plan must be a JSON object")
        unknown = set(raw) - set(cls.KEYS)
        if unknown:
            raise ValueError(
                f"unknown fault-plan key(s) {sorted(unknown)}; "
                f"expected a subset of {list(cls.KEYS)}"
            )
        policy = raw.get("policy", {})
        if not isinstance(policy, dict):
            raise ValueError("fault-plan 'policy' must be an object")
        known = {f.name for f in fields(FaultPolicy)} - {"plan"}
        bad = set(policy) - known
        if bad:
            raise ValueError(
                f"unknown fault-policy override(s) {sorted(bad)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(
            crashes=_entries(raw.get("crashes", ()), "crashes", 3, (0, 0, 1)),
            delays=_entries(raw.get("delays", ()), "delays", 3, (0, 0, 0.0)),
            drop_replies=_entries(
                raw.get("drop_replies", ()), "drop_replies", 2, (0, 1)
            ),
            die_mid_attach=_entries(
                raw.get("die_mid_attach", ()), "die_mid_attach", 2, (0, 1)
            ),
            applier_failures=_entries(
                raw.get("applier_failures", ()), "applier_failures", 2, (0, 1)
            ),
            policy=dict(policy),
        )

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULT_PLAN``, or ``None`` when unset."""
        text = os.environ.get(FAULT_PLAN_ENV, "").strip()
        if not text:
            return None
        return cls.from_spec(text)


@dataclass
class FaultPolicy:
    """Supervision knobs for the fault-tolerant execution plane.

    ``max_retries`` bounds how often one failed batch (or one failed
    applier apply) is retried before the run/service fails for real;
    ``backoff`` is the base of the exponential pre-retry wait.
    ``heartbeat_interval`` is the cadence at which a persistent worker's
    beat thread signals liveness; a worker silent for
    :data:`HEARTBEAT_MISS_LIMIT` intervals is declared dead even
    without a pipe EOF.  ``unit_deadline`` (seconds, ``None`` = off)
    declares a worker stalled when its per-batch unit progress stops
    advancing for that long — the per-unit deadline; detection
    granularity is the heartbeat cadence, so keep
    ``heartbeat_interval < unit_deadline``.  ``degrade_floor`` is the
    minimum number of live pool slots: when respawning a slot fails
    repeatedly its work is rerouted to surviving slots, until fewer
    than the floor remain.  ``plan`` optionally embeds a
    :class:`FaultPlan` (tests); when absent, ``REPRO_FAULT_PLAN``
    supplies one (CI).
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    backoff: float = DEFAULT_BACKOFF
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
    unit_deadline: Optional[float] = None
    degrade_floor: int = 1
    plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.unit_deadline is not None and self.unit_deadline <= 0:
            raise ValueError("unit_deadline must be > 0 (or None)")
        if self.degrade_floor < 1:
            raise ValueError("degrade_floor must be >= 1")

    @property
    def stall_timeout(self) -> float:
        """Silence past this (seconds) means the worker is gone."""
        return HEARTBEAT_MISS_LIMIT * self.heartbeat_interval

    def retry_wait(self, attempt: int) -> float:
        """The exponential-backoff wait before retry ``attempt`` (≥ 1)."""
        return self.backoff * (2 ** max(0, attempt - 1))


def resolve_fault_policy(policy: Optional[FaultPolicy]) -> FaultPolicy:
    """The effective policy: explicit, or defaults + the env plan.

    An explicit ``policy`` wins outright (its ``plan`` may still be
    filled from the environment when it has none); with no explicit
    policy the defaults apply, overridden by the env plan's ``policy``
    object — that is how CI tightens deadlines without touching code.
    """
    env_plan = FaultPlan.from_env()
    if policy is None:
        policy = FaultPolicy()
        if env_plan is not None and env_plan.policy:
            policy = replace(policy, **env_plan.policy)
    if policy.plan is None and env_plan is not None:
        policy = replace(policy, plan=env_plan)
    return policy


@dataclass
class FaultStats:
    """One run's (or one service lifetime's) fault-handling activity.

    ``crashes`` counts worker deaths detected (pipe EOF, injected
    exits, OOM kills — and, on the service, applier exceptions);
    ``stalls`` counts missed-heartbeat / unit-deadline overruns (and
    worker start-ups that never reported ``ready``) that got the worker
    killed; ``worker_errors`` counts structured ``"err"``
    replies absorbed by retry.  ``respawns`` counts replacement workers
    forked (applier restarts, on the service), ``retried_units`` the
    work units (ops, on the service) requeued after a fault, and
    ``degraded_slots`` the pool slots retired after respawn kept
    failing.  ``heartbeats`` / ``heartbeat_latency_*`` record the
    liveness channel: latency is send-to-receive per beat (coordinator
    and workers share ``CLOCK_MONOTONIC`` on Linux).

    The differential fault suite uses this as its proof obligation:
    a recovered run must both *match the fault-free run byte-identically*
    and show ``faulted`` here — otherwise the injection silently
    missed and the pin proves nothing.
    """

    crashes: int = 0
    stalls: int = 0
    worker_errors: int = 0
    respawns: int = 0
    retried_units: int = 0
    degraded_slots: int = 0
    heartbeats: int = 0
    heartbeat_latency_sum: float = 0.0
    heartbeat_latency_max: float = 0.0

    @property
    def faulted(self) -> bool:
        """Whether any fault actually fired during the run."""
        return bool(self.crashes or self.stalls or self.worker_errors)

    @property
    def heartbeat_latency_mean(self) -> float:
        """Mean beat latency in seconds (0.0 before the first beat)."""
        if not self.heartbeats:
            return 0.0
        return self.heartbeat_latency_sum / self.heartbeats

    def record_heartbeat(self, latency: float) -> None:
        """Fold one observed beat latency in (clamped at >= 0)."""
        latency = max(0.0, latency)
        self.heartbeats += 1
        self.heartbeat_latency_sum += latency
        self.heartbeat_latency_max = max(self.heartbeat_latency_max, latency)

    def merge(self, other: "FaultStats") -> "FaultStats":
        self.crashes += other.crashes
        self.stalls += other.stalls
        self.worker_errors += other.worker_errors
        self.respawns += other.respawns
        self.retried_units += other.retried_units
        self.degraded_slots += other.degraded_slots
        self.heartbeats += other.heartbeats
        self.heartbeat_latency_sum += other.heartbeat_latency_sum
        self.heartbeat_latency_max = max(
            self.heartbeat_latency_max, other.heartbeat_latency_max
        )
        return self


class WorkerFaultContext:
    """A worker process's compiled view of the plan's triggers for it.

    Built per batch message from ``(plan, worker index, incarnation)``;
    the executor's slot runner consults it before every unit and after
    every shm attach.  All lookups are O(1) and allocation-free so a
    fault-free batch pays nothing measurable.
    """

    __slots__ = ("_crash_units", "_delays", "_mid_attach", "_drop", "_started")

    def __init__(
        self, plan: Optional[FaultPlan], worker: int, incarnation: int
    ) -> None:
        self._started = 0
        self._crash_units: Set[int] = set()
        self._delays: Dict[int, float] = {}
        self._mid_attach = False
        self._drop = False
        if plan is None:
            return
        for w, unit, lives in plan.crashes:
            if w == worker and incarnation < lives:
                self._crash_units.add(unit)
        if incarnation == 0:
            for w, unit, seconds in plan.delays:
                if w == worker:
                    self._delays[unit] = float(seconds)
        self._mid_attach = any(
            w == worker and incarnation < lives
            for w, lives in plan.die_mid_attach
        )
        self._drop = any(
            w == worker and incarnation < lives
            for w, lives in plan.drop_replies
        )

    def before_unit(self) -> None:
        """Fire any crash/delay trigger scheduled before the next unit."""
        unit = self._started
        self._started += 1
        if unit in self._crash_units:
            os._exit(FAULT_EXIT)
        delay = self._delays.get(unit)
        if delay:
            time.sleep(delay)

    def after_attach(self) -> None:
        """Fire the mid-shm-attach death, if scheduled."""
        if self._mid_attach:
            os._exit(FAULT_EXIT)

    @property
    def drop_reply(self) -> bool:
        """Whether this worker should swallow its batch reply."""
        return self._drop


__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_EXIT",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "HEARTBEAT_MISS_LIMIT",
    "FaultPlan",
    "FaultPolicy",
    "FaultStats",
    "WorkerFaultContext",
    "resolve_fault_policy",
]
