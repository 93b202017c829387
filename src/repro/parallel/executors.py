"""Execution backends for the parallel engine: simulated vs. real processes.

The simulated cluster (:mod:`repro.parallel.cluster`) charges deterministic
costs while work units execute serially in-process.  This module adds the
other half the paper's Figures 5–8 are about — *real* concurrency:

* :class:`SimulatedExecutor` — the original path: every worker's units run
  on the coordinator, sharing one :class:`~repro.parallel.engine.
  BlockMaterialiser` so heavily-shared blocks are indexed once;
* :class:`MultiprocessExecutor` — a supervised pool of pinned worker
  processes: each (simulated) worker's primary units are shipped to a
  worker process together with its *shard-local* graph — the subgraph
  induced by the union of its assigned blocks, i.e. exactly the resident
  share a ``disVal`` fragment holds after prefetching.  The worker
  process materialises shard-local
  :class:`~repro.graph.snapshot.GraphSnapshot`s per block (never the whole
  graph), runs local error detection for real, and returns one result
  per slot for the coordinator to aggregate.

Both backends return the same :class:`~repro.parallel.engine.SlotResult`
per plan slot — violations are value-equal sets, group payloads are
value-comparable, and each unit's entry in the ``steps`` column counts
every candidate extension attempted during full enumeration, which is a
set- not order-dependent quantity — so cost charging on the coordinator
yields *identical* :class:`~repro.parallel.cluster.ClusterReport`s.  The
differential suite ``tests/test_parallel_executors.py`` locks this in.

Selection rule
--------------

``executor="simulated"`` (the default on the stateless entry points)
keeps the original behaviour; ``"process"`` forces the pool; ``"auto"``
picks the pool only when it can plausibly pay off — more than one
non-empty worker, at least :data:`AUTO_MIN_PRIMARY_UNITS` primary units,
and more than one usable CPU — and falls back to ``"simulated"``
otherwise.

One process path (pinned pool + warm shards)
--------------------------------------------

Every process run goes through the same pool: ``start()`` forks worker
processes, each plan slot pinned to the same process (slot ``w`` → pool
worker ``w % size``), and each worker keeps a resident-shard cache keyed
by ``(epoch, slot)``.  The pool owns the coordinator's mirror of those
caches, a :class:`ShardCache` minted by ``start()`` and dropped by
``shutdown()``: it records what every slot holds — its shard, its Σ
and its units — so consecutive runs over a reused fragmentation ship
only the block-share *delta*, and a repeated plan (named by a
:class:`PlanKey`) ships no units (when nothing changed, nothing at
all).  Only runs that name their rule set by ``sigma_key`` — whose
caller records every graph edit, as the session does — ship warm; a
run without one, or over another graph object, ships full shards.  The
session layer (:class:`~repro.session.ValidationSession`) keeps one
pool alive across ``run()`` calls; ``run()`` on a pool that is not
started raises.  :class:`ShippingStats` reports full/delta/reuse
counts, worker pids and fault activity per run.

Ship modes (the shard plane)
----------------------------

``ship_mode`` selects how full shards travel to worker processes:

* ``"pickle"`` — the portable baseline: the shard graph is pickled once
  (:func:`pack_shard`) and sent over the worker pipe;
* ``"shm"`` — the zero-copy path: a :class:`ShardPlane` writes the
  shard's :class:`~repro.graph.snapshot.GraphSnapshot` arena (nine
  primary CSR arrays, see ``GraphSnapshot.ARENA_FIELDS``) plus a small
  pickled sidecar (node ids, label tables, attributes) into one
  ``multiprocessing.shared_memory`` segment; only the segment *name* and
  layout travel over the pipe, and the worker attaches and rebuilds
  derived indices locally.  Mapped volume is reported as
  ``ShippingStats.mapped_bytes`` — never as shipped ``shard_bytes``;
* ``"auto"`` (default) — ``"shm"`` for shards of at least
  :data:`AUTO_SHM_MIN_SIZE` size units when shared memory works on this
  platform, ``"pickle"`` otherwise.

Deltas and Σ swaps always use the pipe (they are small by construction —
that is the point of shipping them); a delta against a mapped shard
demotes the worker's copy to private storage and retires the segment.
Both modes produce byte-identical results — the differential suite pins
``shm`` ≡ ``pickle`` across the executor matrix.

Fault tolerance (the supervised execution plane)
------------------------------------------------

Every process run is *supervised*: every worker batch runs under a
heartbeat (a daemon beat thread in the worker reports liveness and
per-batch unit progress at ``FaultPolicy.heartbeat_interval``), and the
coordinator's dispatch loop (:class:`_PersistentRun`) detects dead
workers (pipe EOF), silent workers (missed heartbeats) and stalled
units (``unit_deadline`` overrun on the progress counter).  Those clocks
start only once the worker process has reported ``ready``: a fresh or
respawned process's interpreter start-up is bounded separately by
:data:`WORKER_START_TIMEOUT`, never charged as silence.  A failed
worker is killed, respawned into the same pool slot, and its in-flight
batch is requeued with exponential backoff up to
``FaultPolicy.max_retries``: full payloads are re-sent as-is (a pickle
blob re-ships, a still-published shm segment re-attaches), while
delta/reuse payloads — which assumed resident state that died with the
worker — are rebuilt as full shipments.  When respawning itself fails
repeatedly the slot is retired and its work rerouted to surviving
workers, down to ``FaultPolicy.degrade_floor``.  Because the engine's
results are canonical (violations compare by value, step counts are
enumeration-order free, payload folding is per-(slot, group)) a
re-executed unit yields the identical result, so recovered runs are
byte-identical to fault-free ones — the differential fault suite
(``tests/test_faults.py``) and the CI ``REPRO_FAULT_PLAN`` matrix
re-runs pin exactly that.  :class:`~repro.parallel.faults.FaultStats`
on ``ShippingStats.faults`` proves the faults actually fired.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import pickle
import sys
import threading
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from multiprocessing.reduction import ForkingPickler
from typing import (
    Deque, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple,
    TYPE_CHECKING,
)

from ..graph.graph import PropertyGraph
from ..graph.snapshot import GraphSnapshot
from ..graph.updates import apply_op, op_nodes
from ..core.gfd import GFD
from .faults import (
    DEFAULT_HEARTBEAT_INTERVAL,
    FaultPolicy,
    FaultStats,
    WorkerFaultContext,
    resolve_fault_policy,
)
from .workload import UnitPhase, WorkUnit

try:  # pragma: no cover - present on every supported CPython
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - exotic builds
    resource_tracker = None
    shared_memory = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import BlockMaterialiser, MaterialiserStats, SlotResult

#: Accepted executor names (``auto`` resolves per the module docstring).
EXECUTORS = ("simulated", "process", "auto")

#: ``auto`` only reaches for processes when the plan has at least this
#: many primary units — below it, pool start-up dwarfs the matching work.
AUTO_MIN_PRIMARY_UNITS = 8

#: Accepted shard ship modes (see the module docstring's "Ship modes").
SHIP_MODES = ("pickle", "shm", "auto")

#: ``ship_mode="auto"`` maps a shard only from this ``|V| + |E|`` size
#: up — below it the segment create/attach syscalls cost more than the
#: pickle they replace.
AUTO_SHM_MIN_SIZE = 256

#: name prefix of every shard-plane segment (leak checks grep for it)
SHM_NAME_PREFIX = "rgfd"

#: per-stage patience when reaping a worker process: ``join`` →
#: ``terminate`` → ``kill``, each given this many seconds before
#: escalating, so a wedged worker can never block shutdown forever
SHUTDOWN_GRACE = 5.0

#: how long (seconds) a worker batch may wait for its freshly started
#: process to report ``ready`` — interpreter start-up plus imports, which
#: a respawned ``forkserver`` worker pays in full; the batch's stall and
#: unit-deadline clocks start only once the process is up
WORKER_START_TIMEOUT = 30.0

_SEG_IDS = itertools.count()
_SHM_WORKS: Optional[bool] = None


def shm_available() -> bool:
    """Whether shared-memory segments actually work on this host.

    Probed once per process (create + attach + unlink of a tiny
    segment): ``multiprocessing.shared_memory`` may import fine and
    still fail at runtime (no ``/dev/shm``, sandboxed tmpfs, …) — the
    ``"auto"`` ship mode falls back to pickle in that case.
    """
    global _SHM_WORKS
    if _SHM_WORKS is None:
        if shared_memory is None:
            _SHM_WORKS = False
        else:
            try:
                seg = shared_memory.SharedMemory(create=True, size=16)
                seg.close()
                seg.unlink()
                _SHM_WORKS = True
            except Exception:
                _SHM_WORKS = False
    return _SHM_WORKS


def usable_cpus() -> int:
    """CPUs this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def check_process_knobs(
    processes: Optional[int],
    ship_mode: str,
    fault_policy: Optional[FaultPolicy],
) -> None:
    """Reject bad process-backend settings before any process starts.

    The one check shared by :class:`MultiprocessExecutor` and
    :class:`~repro.session.ValidationSession`: a pool size below one, an
    unknown ship mode, ``"shm"`` on a host where shared memory does not
    work, or a ``fault_policy`` that is not a :class:`FaultPolicy`.
    """
    if processes is not None and processes < 1:
        raise ValueError("need at least one process")
    if ship_mode not in SHIP_MODES:
        raise ValueError(
            f"unknown ship_mode {ship_mode!r}; expected one of {SHIP_MODES}"
        )
    if ship_mode == "shm" and not shm_available():
        raise ValueError(
            "ship_mode='shm' requested but shared memory does not work "
            "on this host; use 'pickle' or 'auto'"
        )
    if fault_policy is not None and not isinstance(fault_policy, FaultPolicy):
        raise TypeError(
            "fault_policy must be a FaultPolicy (or None for the defaults, "
            "overridable via REPRO_FAULT_PLAN)"
        )


def resolve_executor(
    executor: str,
    plan: Sequence[Sequence[WorkUnit]] = (),
    processes: Optional[int] = None,
) -> str:
    """Resolve an executor name to ``"simulated"`` or ``"process"``.

    ``"auto"`` chooses the process pool only when the plan is big enough
    to amortise pool start-up and the machine has more than one usable
    CPU; otherwise it stays simulated.  Unknown names raise.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    if executor != "auto":
        return executor
    primaries = sum(1 for units in plan for unit in units if unit.primary)
    busy_workers = sum(1 for units in plan if units)
    cpus = usable_cpus()
    if processes is not None:
        # Effective *parallelism* for the auto decision: an explicit
        # ``processes`` above the CPU count is honoured by the pool
        # (with a RuntimeWarning, see ``MultiprocessExecutor.start``),
        # but oversubscription never makes real processes pay off more,
        # so it must not make auto more eager either.
        cpus = min(processes, cpus)
    if busy_workers > 1 and primaries >= AUTO_MIN_PRIMARY_UNITS and cpus > 1:
        return "process"
    return "simulated"


def worker_graph(
    graph: PropertyGraph, units: Sequence[WorkUnit]
) -> PropertyGraph:
    """The shard-local graph a worker needs for ``units``.

    The subgraph induced by the union of the units' block node sets.
    Data blocks are induced subgraphs of ``G``, and each block's node set
    is contained in the union, so every block materialised from this
    shard equals the block materialised from the full graph — the worker
    indexes only its resident share, never ``G`` itself.  For ``disVal``
    this is precisely the fragment's share of the assigned blocks plus
    the prefetched remainder.
    """
    needed: Set = set()
    for unit in units:
        needed |= unit.block_nodes
    return graph.induced_subgraph(needed)


#: unique run-epoch tokens for worker-resident cache keys
_EPOCHS = itertools.count()


def next_epoch(prefix: str = "run") -> str:
    """A fresh epoch token for the worker-resident shard caches."""
    return f"{prefix}-{os.getpid()}-{next(_EPOCHS)}"


def pack_shard(data) -> bytes:
    """Serialise a shipping payload once, for both the wire and the stats.

    Every measured payload category — full shard graphs, deltas, rule
    sets, unit input/result payloads — is pickled exactly once here;
    the coordinator (or worker) ships the blob itself (pickling
    ``bytes`` inside a pipe message is a near-free memcpy) and reads
    its length for the matching ``ShippingStats`` field.  Re-pickling
    purely to measure would double the serialisation cost and could
    drift from what actually travels; the blob's length cannot.
    """
    return bytes(ForkingPickler.dumps(data))


def unpack_shard(blob: bytes):
    """Worker-side inverse of :func:`pack_shard`."""
    return pickle.loads(blob)


class ShardPlane:
    """Coordinator-side registry of shared-memory shard segments.

    One per :class:`MultiprocessExecutor`.  :meth:`publish` lays a shard
    out as one segment — the snapshot arena (nine flat CSR arrays, a
    straight ``memcpy`` on both ends) followed by a pickled sidecar
    (node ids, label tables, per-node attribute dicts) — and returns the
    compact *reference* that travels over the worker pipe instead of the
    shard itself.  Workers attach by name (:func:`attach_shard_ref`).

    Lifecycle: publishing a slot retires that slot's previous segment;
    :meth:`unlink` retires one slot (the coordinator does this when a
    delta demotes the worker's mapped shard); :meth:`close` retires
    everything (executor shutdown, session close, worker-crash
    teardown).  Retiring means close + unlink — POSIX keeps existing
    worker mappings valid until the worker itself closes them, so
    unlinking eagerly never races the consumer; it only guarantees the
    name cannot leak.
    """

    def __init__(self) -> None:
        self._segments: Dict[int, "shared_memory.SharedMemory"] = {}

    def __len__(self) -> int:
        return len(self._segments)

    def segment_names(self) -> List[str]:
        """Names of the currently published segments (tests/leak checks)."""
        return [seg.name for seg in self._segments.values()]

    def publish(self, slot: int, shard: PropertyGraph) -> Tuple[Tuple, int]:
        """Publish ``shard`` for ``slot``; returns ``(ref, segment_bytes)``.

        ``ref`` is the tagged tuple the worker resolves with
        :func:`attach_shard_ref`; ``segment_bytes`` is the mapped volume
        (``ShippingStats.mapped_bytes`` — deliberately *not* counted as
        shipped ``shard_bytes``: nothing but the reference travels).
        """
        snapshot = shard.snapshot()
        identity = snapshot.identity_state()
        attrs = [shard.attrs(node) for node in snapshot.node_ids]
        sidecar = pack_shard((identity, attrs))
        arena_nbytes = snapshot.arena_nbytes()
        total = arena_nbytes + len(sidecar)
        seg = shared_memory.SharedMemory(
            name=f"{SHM_NAME_PREFIX}-{os.getpid()}-{next(_SEG_IDS)}",
            create=True,
            size=max(1, total),
        )
        layout = snapshot.write_arena(seg.buf[:arena_nbytes])
        seg.buf[arena_nbytes:total] = sidecar
        self.unlink(slot)
        self._segments[slot] = seg
        ref = ("shm", seg.name, layout, arena_nbytes, len(sidecar))
        return ref, total

    def unlink(self, slot: int) -> None:
        """Retire ``slot``'s segment, if any (idempotent)."""
        seg = self._segments.pop(slot, None)
        if seg is None:
            return
        try:
            seg.close()
        finally:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass  # repro-lint: disable=RPL050 -- segment already unlinked (a crashed worker's residue sweep beat us); nothing left to retire

    def close(self) -> None:
        """Retire every published segment (idempotent)."""
        for slot in list(self._segments):
            self.unlink(slot)


def _attach_untracked(name: str):
    """Attach a named segment without resource-tracker registration.

    CPython < 3.13 registers every ``SharedMemory`` — attachments
    included — with the resource tracker, which unlinks all registered
    names at process exit and warns about them as leaks.  Only the
    coordinator owns segment lifetime here, so attach-side registration
    must be suppressed (the 3.13+ ``track=False`` parameter, by hand).
    Suppression — rather than ``unregister`` after the fact — matters
    under the fork start method: workers share the coordinator's tracker
    process, whose name cache is a set, so a worker-side unregister
    would silently drop the *coordinator's* registration too (and the
    coordinator's own unlink would then trip a tracker ``KeyError``).
    """
    if resource_tracker is None:  # pragma: no cover - exotic builds
        return shared_memory.SharedMemory(name=name)
    registered = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = registered


def attach_shard_ref(ref: Tuple) -> Tuple[PropertyGraph, Optional[object]]:
    """Worker-side resolution of a shard reference to a live graph.

    ``("pickle", blob)`` unpickles the shard; ``("shm", name, layout,
    arena_nbytes, sidecar_len)`` attaches the named segment, rebuilds
    the shard graph from the mapped arena + sidecar, and *adopts* the
    mapped snapshot as the graph's cached indexed view — zero-copy for
    all nine primary arrays; derived indices are rebuilt locally,
    exactly as unpickling would.

    Returns ``(shard, segment)``; ``segment`` is the worker's
    ``SharedMemory`` handle to close when the shard is dropped (``None``
    on the pickle path).
    """
    tag = ref[0]
    if tag == "pickle":
        return unpack_shard(ref[1]), None
    if tag != "shm":
        raise ValueError(f"unknown shard ref tag {tag!r}")
    _, name, layout, arena_nbytes, sidecar_len = ref
    seg = _attach_untracked(name)
    try:
        identity, attrs = unpack_shard(
            seg.buf[arena_nbytes : arena_nbytes + sidecar_len]
        )
        snapshot = GraphSnapshot.from_arena(
            seg.buf[:arena_nbytes], layout, identity, keep_alive=seg
        )
        shard = _graph_from_snapshot(snapshot, attrs)
    except BaseException:
        seg.close()
        raise
    return shard, seg


def _graph_from_snapshot(
    snapshot: GraphSnapshot, attrs: Sequence[Dict]
) -> PropertyGraph:
    """Rebuild a shard graph from a (mapped) snapshot + attribute rows.

    Nodes are added in ``node_ids`` order, so the rebuilt graph's
    insertion order matches the snapshot's interning — the precondition
    of :meth:`~repro.graph.graph.PropertyGraph.adopt_snapshot`.
    """
    g = PropertyGraph()
    ids = snapshot.node_ids
    label_names = snapshot.node_label_names
    label_codes = snapshot.label_codes
    for idx, node in enumerate(ids):
        g.add_node(node, label_names[label_codes[idx]], attrs[idx] or None)
    offsets, nbrs, labs = (
        snapshot.out_offsets, snapshot.out_nbrs, snapshot.out_labs
    )
    edge_names = snapshot.edge_label_names
    for src_idx, src in enumerate(ids):
        for pos in range(offsets[src_idx], offsets[src_idx + 1]):
            g.add_edge(src, ids[nbrs[pos]], edge_names[labs[pos]])
    g.adopt_snapshot(snapshot)
    return g


class _StoreCounters(NamedTuple):
    hits: int = 0
    misses: int = 0


_ZERO_STORE_COUNTERS = _StoreCounters()


@dataclass
class ShippingStats:
    """What one process-executor run shipped to its workers.

    ``full``/``delta``/``reused`` count busy plan slots by how their
    shard travelled: whole induced subgraph, block-share delta, or
    nothing at all (the worker's resident share already covered the
    run).  ``worker_pids`` maps each busy slot to the OS pid that
    executed it — warm-session tests pin pid stability across runs.
    ``shipped_sigma`` counts warm slots that received a *rule-set*
    update alongside their resident shard (a session running discovery
    phases or a mined-Σ confirmation pass swaps Σ without touching the
    shard — block shares stay at zero).

    The ``*_bytes`` fields measure the run's payload volume as the
    length of the blob that was actually serialised for the wire
    (serialise-once: the measured bytes *are* the shipped bytes):
    ``sigma_bytes`` the rule sets shipped (full shipments and warm
    Σ-swaps alike), ``shard_bytes`` the block-share payloads (pickled
    full shards and deltas), and ``payload_bytes`` the work units'
    kind-specific data path — the run's
    :class:`~repro.parallel.workload.UnitPhase` coordinator→worker (once
    per slot) plus each slot's merged group payloads
    worker→coordinator (one blob per slot).  Discovery's
    aggregate-vs-match-list shipping win is the ``payload_bytes`` delta.
    ``plan_bytes`` measures the work-unit lists themselves (one packed
    blob per slot that ships its plan): a warm slot that already holds
    the run's plan ships none, so a repeated validate reports zero.

    ``mapped``/``mapped_bytes`` count full shipments that travelled as
    shared-memory segments instead (``ship_mode="shm"``/``"auto"``, see
    :class:`ShardPlane`): mapped volume is resident-shared, not copied
    through a pipe, so it is deliberately **excluded** from
    ``shard_bytes`` — a co-located shm run reports ``mapped_bytes > 0``
    with ``shard_bytes ≈ 0``.  ``block_cache`` aggregates the workers'
    resident block-materialiser activity for the run — after a delta
    shipment, ``builds == 0`` with ``patched > 0`` is the proof that
    the workers patched their materialised blocks in place instead of
    rebuilding them (the end-to-end O(|Δ|) pin).
    """

    full: int = 0
    delta: int = 0
    reused: int = 0
    mapped: int = 0
    shipped_nodes: int = 0
    shipped_ops: int = 0
    shipped_sigma: int = 0
    sigma_bytes: int = 0
    shard_bytes: int = 0
    mapped_bytes: int = 0
    payload_bytes: int = 0
    plan_bytes: int = 0
    block_cache: Optional["MaterialiserStats"] = None
    #: fault-handling activity (``None`` until a process run reports); a
    #: recovered run's shipping counters include recovery re-shipments —
    #: the fault differential suite pins *results*, not volume
    faults: Optional[FaultStats] = None
    #: full (gen-2) collections in the workers during the run's batches,
    #: and the longest one's pause in seconds — telemetry that never
    #: feeds a result (see README "Worker heap")
    gc_full_collections: int = 0
    gc_pause_max: float = 0.0
    worker_pids: Dict[int, int] = field(default_factory=dict)

    def merge(self, other: "ShippingStats") -> "ShippingStats":
        """Fold another run's shipping in (a phase spanning two runs —
        discovery's enumerate pass plus its capped-match fetch —
        reports one combined record)."""
        self.full += other.full
        self.delta += other.delta
        self.reused += other.reused
        self.mapped += other.mapped
        self.shipped_nodes += other.shipped_nodes
        self.shipped_ops += other.shipped_ops
        self.shipped_sigma += other.shipped_sigma
        self.sigma_bytes += other.sigma_bytes
        self.shard_bytes += other.shard_bytes
        self.mapped_bytes += other.mapped_bytes
        self.payload_bytes += other.payload_bytes
        self.plan_bytes += other.plan_bytes
        if other.block_cache is not None:
            if self.block_cache is None:
                from .engine import MaterialiserStats

                self.block_cache = MaterialiserStats()
            self.block_cache.merge(other.block_cache)
        if other.faults is not None:
            if self.faults is None:
                self.faults = FaultStats()
            self.faults.merge(other.faults)
        self.gc_full_collections += other.gc_full_collections
        self.gc_pause_max = max(self.gc_pause_max, other.gc_pause_max)
        self.worker_pids.update(other.worker_pids)
        return self

    @property
    def match_store(self) -> _StoreCounters:
        """Always zero: there is no match store.  Read only by
        ``perfbench/common.py`` (``add_shipping``), which still reports
        ``executors.match_store_hits``/``_misses``."""
        return _ZERO_STORE_COUNTERS


class PlanKey:
    """Identity of one cached plan, with each slot's needed node set.

    A session that re-runs an unchanged plan passes the same key, and a
    warm slot whose worker already holds that plan (the
    :class:`ShardCache` mirror says so) is sent no units at all.  Keys
    compare by identity: a re-planned run gets a new key, so its units
    always ship.  ``needed[w]`` is the union of slot ``w``'s primary
    block node sets — the shard the slot must hold — computed once
    with the plan instead of once per run.
    """

    __slots__ = ("needed",)

    def __init__(self, plan: Sequence[Sequence[WorkUnit]]) -> None:
        self.needed: Tuple[frozenset, ...] = tuple(
            frozenset().union(
                *(unit.block_nodes for unit in units if unit.primary)
            )
            for units in plan
        )


@dataclass
class _SlotState:
    """Coordinator-side mirror of one worker slot's resident shard."""

    resident: Set
    seq: int  # position in the ShardCache op log already shipped
    #: identity of the rule set the worker currently holds for this slot
    sigma_key: Optional[object] = None
    #: the :class:`PlanKey` of the units the worker holds for this slot
    #: (``None``: a plan no later run can name, such as a discovery phase)
    plan_key: Optional[PlanKey] = None


class ShardCache:
    """Coordinator-side bookkeeping for warm worker-resident shards.

    A started :class:`MultiprocessExecutor` owns one of these, minted
    with the pool and dropped with it, together with the ``epoch`` that
    names its slots in the workers' resident caches.  For every busy
    plan slot it remembers which nodes the pinned worker process
    currently holds (and at which op-log position), so consecutive runs
    over an unchanged — or session-updated — graph ship only the
    *delta*: graph updates routed through ``session.update()`` land in
    the op log and are forwarded to resident shards; newly needed block
    nodes travel as an induced add-payload; an unchanged slot ships
    nothing.

    Out-of-band structural mutations (not routed through the session) are
    detected via the graph's structural version and drop every slot cold,
    as does a run over a different graph object.  Attribute edits do not
    bump the version, so those *must* go through ``session.update()`` —
    the same contract ``IncrementalValidator`` already imposes.  A run
    that names no rule set (``sigma_key=None``) has made no such promise
    and starts cold (see :meth:`MultiprocessExecutor.run`).
    """

    #: forwarded-op budget per slot and run: past this, reship instead
    MAX_FORWARD_OPS = 4096

    def __init__(self) -> None:
        #: names this mirror's slots in the workers' resident caches
        self.epoch = next_epoch("pool")
        self._lock = threading.RLock()
        self._slots: Dict[int, _SlotState] = {}  #: guarded-by: _lock
        self._log: List[Tuple] = []  #: guarded-by: _lock
        self._marked_version: Optional[int] = None  #: guarded-by: _lock
        #: the graph the resident shards mirror (held until shutdown)
        self._graph: Optional[PropertyGraph] = None  #: guarded-by: _lock

    def record(self, ops: Sequence[Tuple], version: int) -> None:
        """Log a batch of session-routed update ops for forwarding.

        ``version`` is the graph's structural version after the batch,
        so :meth:`sync` can tell these ops from out-of-band mutations.
        The log is compacted at every :meth:`sync` and hard-capped here:
        a backlog several times :data:`MAX_FORWARD_OPS` means no slot is
        keeping up (or none exists), so reshipping beats forwarding and
        everything is dropped cold.
        """
        with self._lock:
            self._log.extend(ops)
            if len(self._log) > 4 * self.MAX_FORWARD_OPS:
                self.invalidate()
            self._marked_version = version

    def _compact(self) -> None:  #: holds: _lock
        """Drop the log prefix every slot has already consumed."""
        if not self._slots:
            self._log.clear()
            return
        low = min(state.seq for state in self._slots.values())
        if low:
            del self._log[:low]
            for state in self._slots.values():
                state.seq -= low

    def invalidate(self) -> None:
        """Drop every slot cold (next run reships full shards)."""
        with self._lock:
            self._slots.clear()
            self._log.clear()

    def slots(self) -> List[int]:
        """Slots with a live resident-shard mirror (for recovery sweeps)."""
        with self._lock:
            return list(self._slots)

    def drop_slots(self, slots: Sequence[int]) -> None:
        """Drop specific slots cold — their worker process died or moved.

        Unlike :meth:`invalidate` every other slot stays warm; the op
        log survives (and is compacted at the next :meth:`sync`) so
        surviving slots still forward deltas.
        """
        with self._lock:
            for slot in slots:
                self._slots.pop(slot, None)
            if not self._slots:
                self._log.clear()

    def sync(self, graph: PropertyGraph) -> None:
        """Reconcile with the graph before a run.

        A structural version the session did not announce means someone
        mutated the graph out-of-band, and a different graph object shares
        nothing with the resident shards: either way every one is stale.
        """
        with self._lock:
            if (
                self._graph is not graph
                or self._marked_version != graph._version
            ):
                self.invalidate()
                self._graph = graph
                self._marked_version = graph._version
            else:
                self._compact()

    def plan(
        self,
        slot: int,
        needed: Set,
        graph: PropertyGraph,
        sigma_key: Optional[object] = None,
        plan_key: Optional[PlanKey] = None,
    ) -> Tuple[str, object, bool, bool]:
        """Decide how ``slot``'s shard travels this run.

        Returns ``("full", shard_graph, False, True)``, ``("delta",
        (ops, add_nodes, add_edges), ship_sigma, ship_plan)`` or
        ``("reuse", None, ship_sigma, ship_plan)``, updating the slot's
        mirror state to match what the worker will hold afterwards.
        ``ship_sigma`` is ``True`` when the rule set identified by
        ``sigma_key`` differs from what the worker holds for the slot —
        the caller then sends Σ along (a full shipment always carries Σ,
        so there it is ``False``).  ``ship_plan`` is ``False`` only when
        the worker already holds the units of ``plan_key`` over the same
        Σ; a full shipment always carries the units.
        """
        with self._lock:
            state = self._slots.get(slot)
            if (
                state is not None
                and len(self._log) - state.seq <= self.MAX_FORWARD_OPS
            ):
                # forward the logged ops that land inside the resident share
                ops = [
                    op for op in self._log[state.seq:]
                    if state.resident.issuperset(op_nodes(op))
                ]
                ship_sigma = state.sigma_key != sigma_key
                state.sigma_key = sigma_key
                ship_plan = (
                    ship_sigma or plan_key is None
                    or state.plan_key is not plan_key
                )
                state.plan_key = plan_key
                # A slot that holds the plan holds its needed nodes too:
                # they were resident when the plan was last shipped, and
                # a resident share only grows.
                missing = (
                    needed - state.resident if ship_plan else frozenset()
                )
                state.seq = len(self._log)
                if not ops and not missing:
                    return "reuse", None, ship_sigma, ship_plan
                add_nodes, add_edges = self._add_payload(
                    graph, state.resident, missing
                )
                state.resident |= missing
                return (
                    "delta", (ops, add_nodes, add_edges), ship_sigma,
                    ship_plan,
                )
            shard = graph.induced_subgraph(needed)
            self._slots[slot] = _SlotState(
                resident=set(needed), seq=len(self._log),
                sigma_key=sigma_key, plan_key=plan_key,
            )
            return "full", shard, False, True

    @staticmethod
    def _add_payload(
        graph: PropertyGraph, resident: Set, missing: Set
    ) -> Tuple[List[Tuple], List[Tuple]]:
        """Nodes + induced edges that extend a resident shard by ``missing``."""
        new_resident = resident | missing
        add_nodes = [
            (node, graph.label(node), dict(graph.attrs(node)))
            for node in missing
        ]
        add_edges: List[Tuple] = []
        for node in missing:
            for dst, labels in graph.out_neighbors(node).items():
                if dst in new_resident:
                    add_edges.extend((node, dst, label) for label in labels)
            for src, labels in graph.in_neighbors(node).items():
                if src in new_resident and src not in missing:
                    add_edges.extend((src, node, label) for label in labels)
        return add_nodes, add_edges


class _ResidentShard:
    """A worker process's cached state for one (epoch, slot).

    ``segment`` is the worker's handle on the shared-memory segment a
    mapped shard is backed by (``None`` on the pickle path), closed via
    :meth:`release_segment` when the shard is dropped or patched.

    ``plan`` is the slot's last shipped unit list (the run's phase, if
    any, travels per run): a task that ships no units runs this one, as
    the coordinator's :class:`ShardCache` mirror decided.
    """

    __slots__ = (
        "sigma", "shard", "materialiser", "segment", "plan",
    )

    def __init__(self, sigma, shard, materialiser, segment=None) -> None:
        self.sigma = sigma
        self.shard = shard
        self.materialiser = materialiser
        self.segment = segment
        self.plan: Optional[List[WorkUnit]] = None

    def swap_sigma(self, sigma_blob: bytes) -> None:
        """Install a new rule set over the resident shard.

        Discovery's phases, a mined-Σ confirmation pass and a base
        validate in between all swap Σ over the same shard.  Blocks and
        snapshots stay warm, and so do the matchers of every pattern in
        the outgoing or the incoming Σ.  Matchers are keyed by pattern
        *content*, so the next phase reuses the factorised plans and the
        per-pin eliminations an earlier one built, while matchers of
        older rule sets are dropped, not accumulated.
        """
        previous = self.sigma
        self.sigma = unpack_shard(sigma_blob)
        self.materialiser.keep_matchers(
            {gfd.pattern for gfd in (*previous, *self.sigma)}
        )

    def release_segment(self) -> None:
        """Detach from the backing shared-memory segment, if any.

        The shard's adopted mapped snapshot still references the arena,
        so it is dropped first (a later ``snapshot()`` call rebuilds a
        private index) — then the mapping can be closed safely.
        """
        if self.segment is None:
            return
        self.shard.drop_snapshot_cache()
        self.segment.close()
        self.segment = None


def _run_slot(
    cache: Dict[Tuple[str, int], _ResidentShard],
    slot: int,
    mode: str,
    payload,
    units: Optional[Sequence[WorkUnit]],
    phase_blob: Optional[bytes] = None,
    faults: Optional[WorkerFaultContext] = None,
    progress: Optional[List[int]] = None,
) -> "SlotResult":
    """Worker-side execution of one plan slot with shard-cache handling.

    ``units`` becomes the slot's resident plan; ``None`` runs the plan
    the slot already holds.  ``phase_blob`` is the run's packed
    :class:`~repro.parallel.workload.UnitPhase`, if it has one; it
    travels per run and is never resident.  ``faults`` is the worker's
    compiled fault-injection triggers (consulted before every unit and
    right after an shm attach); ``progress`` is the shared per-batch
    unit counter the heartbeat thread reports, so the coordinator's
    ``unit_deadline`` watches real per-unit advancement.
    """
    from .engine import BlockMaterialiser, run_slot

    if mode == "full":
        epoch, sigma_blob, shard_ref = payload
        shard, segment = attach_shard_ref(shard_ref)
        if faults is not None:
            faults.after_attach()
        # One resident shard per slot: every prior entry is released,
        # same-epoch ones included — a crash-recovery requeue can ship
        # the same slot full twice within one epoch, and the replaced
        # entry's segment must be detached, not dropped to the GC.
        for key in [k for k in cache if k[1] == slot]:
            cache.pop(key).release_segment()
        entry = _ResidentShard(
            unpack_shard(sigma_blob), shard, BlockMaterialiser(shard), segment,
        )
        cache[(epoch, slot)] = entry
    elif mode == "delta":
        epoch, blob, sigma_blob = payload
        ops, add_nodes, add_edges = unpack_shard(blob)
        entry = cache[(epoch, slot)]
        # A mapped shard demotes to a private copy before patching: row
        # splicing cannot happen inside a read-only arena, and the
        # coordinator has already retired the slot's segment.
        entry.release_segment()
        shard = entry.shard
        for op in ops:
            apply_op(shard, op)
        for node, label, attrs in add_nodes:
            shard.add_node(node, label, attrs)
        for src, dst, label in add_edges:
            shard.add_edge(src, dst, label)
        # Targeted invalidation, not a rebuild (see apply_ops).  The
        # block-share extension cannot touch a cached block: its nodes
        # were absent from the resident share, hence from every block.
        entry.materialiser.apply_ops(ops)
        if sigma_blob is not None:
            entry.swap_sigma(sigma_blob)
    else:  # reuse: shard, snapshot *and* block cache stay warm
        epoch, sigma_blob = payload
        entry = cache[(epoch, slot)]
        if sigma_blob is not None:
            entry.swap_sigma(sigma_blob)
    if units is None:  # the coordinator's mirror says the slot holds them
        units = entry.plan
    else:
        entry.plan = list(units)
    return run_slot(
        entry.sigma, units, entry.materialiser, faults=faults, progress=progress,
        phase=unpack_shard(phase_blob) if phase_blob is not None else None,
    )


def _heartbeat_loop(
    conn, send_lock: threading.Lock, pid: int, progress: List[int],
    stop: threading.Event, interval: float,
) -> None:
    """Beat thread of one worker batch: liveness + unit progress.

    Runs in its own daemon thread so the coordinator hears from a worker
    even while a single unit computes for a long time — that is what
    lets it tell "slow unit" (progress fresh, beats arriving) from
    "stalled unit" (beats arriving, progress frozen past the deadline)
    from "dead worker" (no beats at all).  The send timestamp rides
    along; coordinator and workers share ``CLOCK_MONOTONIC`` on Linux,
    so receive-minus-send is the pipe latency ``FaultStats`` records.
    """
    while not stop.wait(interval):
        try:
            with send_lock:
                conn.send(("hb", pid, progress[0], time.monotonic()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            return  # repro-lint: disable=RPL050 -- coordinator went away; the batch reply send will notice and end the worker loop


class _GcWatch:
    """A worker's ``gc.callbacks`` hook: full (gen-2) collections and the
    longest one's pause since the last :meth:`take`.

    Telemetry only: the pair rides the batch reply into
    :class:`ShippingStats` and never feeds a result or a cost report.
    """

    __slots__ = ("full", "pause_max", "_started")

    def __init__(self) -> None:
        self.full = 0
        self.pause_max = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.full += 1
        self.pause_max = max(
            self.pause_max, time.perf_counter() - self._started
        )

    def take(self) -> Tuple[int, float]:
        """Return and reset ``(full collections, longest pause in s)``."""
        taken = (self.full, self.pause_max)
        self.full, self.pause_max = 0, 0.0
        return taken


def _freeze_batch_heap() -> None:
    """Collect a finished batch's young garbage, then freeze the rest.

    Frozen objects sit in the permanent generation, which no collection
    walks, so a full collection during the next batch costs that
    batch's own objects, not the resident shard, blocks and matchers
    kept from earlier ones.  Freezing is safe only because resident
    state is acyclic (README "Worker heap"): a replaced shard, an
    evicted block or dropped matchers are freed by reference counting
    while frozen, whereas frozen cyclic garbage would never be freed.
    Only the young generations are collected: that is bounded work,
    done after the reply is sent.
    """
    gc.collect(1)
    gc.freeze()


def _persistent_worker_main(
    conn, worker_index: int = 0, incarnation: int = 0
) -> None:
    """Command loop of one persistent (pinned) worker process.

    ``worker_index`` and ``incarnation`` identify this process to the
    fault-injection harness (a respawned worker carries the next
    incarnation, which is what stops single-shot fault triggers from
    re-firing forever).  The first message is ``("ready", pid)``, sent
    once the process is up: the coordinator starts a batch's liveness
    clocks from it, not from dispatch.  Batch messages optionally carry
    the heartbeat cadence and the run's
    :class:`~repro.parallel.faults.FaultPlan`; the beat thread is
    stopped and joined *before* the reply is sent, so a reply is always
    the last message of its batch.

    The heap inherited at start-up is frozen, and so is whatever a
    batch leaves behind once its reply is sent (:func:`_freeze_batch_heap`).
    """
    cache: Dict[Tuple[str, int], _ResidentShard] = {}
    pid = os.getpid()
    send_lock = threading.Lock()
    gc.freeze()
    gc_watch = _GcWatch()
    gc.callbacks.append(gc_watch)
    try:
        conn.send(("ready", pid))
    except (BrokenPipeError, OSError):  # pragma: no cover
        conn.close()  # the coordinator is gone: nothing left to serve
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - coordinator died
            break  # repro-lint: disable=RPL050 -- no coordinator left to tell; the loop exit below releases every segment
        if message[0] == "stop":
            break
        tasks = message[1]
        hb_interval = (
            message[2] if len(message) > 2 else DEFAULT_HEARTBEAT_INTERVAL
        )
        plan = message[3] if len(message) > 3 else None
        faults = WorkerFaultContext(plan, worker_index, incarnation)
        progress = [0]
        gc_watch.take()  # count this batch's collections only
        stop_beat = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(conn, send_lock, pid, progress, stop_beat, hb_interval),
            daemon=True,
            name="worker-heartbeat",
        )
        beat.start()
        try:
            replies = []
            for slot, mode, payload, plan_blob, phase_blob in tasks:
                units = (
                    unpack_shard(plan_blob) if plan_blob is not None
                    else None
                )
                result = _run_slot(
                    cache, slot, mode, payload, units, phase_blob,
                    faults=faults, progress=progress,
                )
                # The groups' payloads travel as one blob, serialised
                # once and measured from its length.
                payloads = (
                    pack_shard(result.payloads) if result.payloads else None
                )
                result.payloads = {}
                replies.append((slot, result, payloads))
            # Per-batch block-cache slices, summed over this worker's
            # resident shards (untouched entries contribute zeros) — the
            # coordinator aggregates these into the run's ShippingStats.
            from .engine import MaterialiserStats

            cache_stats = MaterialiserStats()
            for entry in cache.values():
                cache_stats.merge(entry.materialiser.take_stats())
            reply = ("ok", pid, replies, cache_stats, gc_watch.take())
        except BaseException:
            reply = ("err", pid, traceback.format_exc())
        finally:
            stop_beat.set()
            beat.join()
        if faults.drop_reply:
            # Injected wedged-after-work fault: the batch computed but
            # the reply never leaves — the coordinator must detect the
            # silence and recover by requeue.
            continue
        try:
            with send_lock:
                conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover
            break  # repro-lint: disable=RPL050 -- coordinator went away mid-run; loop exit releases every segment
        _freeze_batch_heap()
    for entry in cache.values():
        entry.release_segment()
    conn.close()


def _reap_process(proc, grace: float = SHUTDOWN_GRACE) -> None:
    """Collect one worker process, escalating until it is really gone.

    ``join(timeout)`` → ``terminate()`` (SIGTERM) → ``kill()`` (SIGKILL),
    each stage bounded by ``grace`` seconds, so a wedged worker — blocked
    in a syscall, spinning with signals masked, or deliberately
    fault-injected — can never block :meth:`MultiprocessExecutor.shutdown`
    or a crash-recovery respawn forever.
    """
    proc.join(timeout=grace)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=grace)
    if proc.is_alive():  # pragma: no cover - SIGTERM-immune worker
        proc.kill()
        proc.join(timeout=grace)


class SimulatedExecutor:
    """Serial in-process execution (the original, cost-simulated path).

    One :class:`~repro.parallel.engine.BlockMaterialiser` is shared across
    all simulated workers, so pivot blocks named by units of *different*
    workers are still built once per run.
    """

    name = "simulated"
    #: nothing travels, so there is never a shipping record
    last_shipping: Optional["ShippingStats"] = None

    def __init__(self, materialiser: Optional["BlockMaterialiser"] = None):
        self.materialiser = materialiser

    def run(
        self,
        sigma: Sequence[GFD],
        graph: PropertyGraph,
        plan: Sequence[Sequence[WorkUnit]],
        sigma_key: Optional[object] = None,
        plan_key: Optional["PlanKey"] = None,
        phase: Optional[UnitPhase] = None,
    ) -> List["SlotResult"]:
        """Execute every primary unit: one result per plan slot.

        Each slot runs through the engine's one slot loop
        (:func:`~repro.parallel.engine.run_slot`), the same one a worker
        process runs, so both backends consume and produce identical
        slot results.  ``phase`` gives every unit its kind, inputs and
        eval mode.  ``sigma_key`` and ``plan_key``
        name what a worker slot may already hold; nothing is resident
        here, so they are unused.
        """
        from .engine import BlockMaterialiser, run_slot

        materialiser = self.materialiser
        if materialiser is None:
            materialiser = BlockMaterialiser(graph)
        return [
            run_slot(sigma, worker_units, materialiser, phase=phase)
            for worker_units in plan
        ]


@dataclass
class _BatchState:
    """One batch of tasks bound for one pool worker, plus its liveness.

    ``tasks`` are ``(slot, mode, payload, plan_blob, phase_blob)``
    tuples (the worker protocol's batch entries; ``plan_blob`` is
    ``None`` when the slot runs the plan it already holds, and
    ``phase_blob`` when the run has no phase).
    ``attempts`` counts how often this batch has been requeued after a
    fault; ``progress`` / ``progress_at`` track the worker's reported
    per-batch unit counter (for the ``unit_deadline``), ``last_signal``
    the last heartbeat or arming (for the missed-heartbeat stall
    detector).  Those clocks
    only start ticking once the batch is sent *and* its worker process
    has reported ``ready`` (:meth:`arm`) — a batch queued behind another
    on the same worker is not "running", and neither is one waiting for
    a replacement process to finish starting (``sent_at`` bounds that
    wait by :data:`WORKER_START_TIMEOUT`).
    """

    tasks: List[Tuple]
    attempts: int = 0
    armed: bool = False
    sent_at: float = 0.0
    progress: int = -1
    progress_at: float = 0.0
    last_signal: float = 0.0

    def mark_sent(self, worker_ready: bool) -> None:
        self.sent_at = time.monotonic()
        self.armed = False
        if worker_ready:
            self.arm(self.sent_at)

    def arm(self, now: float) -> None:
        """Start the stall and unit-deadline clocks at ``now``."""
        self.armed = True
        self.last_signal = now
        self.progress_at = now
        self.progress = -1


class _PersistentRun:
    """One supervised run over the worker pool: ship, watch, recover.

    The coordinator half of the fault-tolerant execution plane.  It
    builds per-slot shipping payloads, dispatches one batch message per
    pool worker, then *polls* the worker pipes instead of blocking on
    replies: ``"ready"`` arms a batch's clocks, heartbeats refresh
    liveness and per-unit progress, ``"ok"`` completes a batch,
    ``"err"``/pipe-EOF/silence/deadline-overrun trigger recovery — kill
    and respawn the slot's worker (next incarnation), requeue its
    batches after an exponential backoff, re-using self-contained full
    payloads (pickle blobs re-ship; still-published shm segments
    re-attach) and rebuilding delta/reuse payloads whose resident base
    died with the worker.  A slot whose respawn fails is retired and
    its work rerouted to surviving workers (``degrade_floor`` bounds
    how far); an exhausted retry budget tears the pool down exactly
    like the old fail-stop path did.

    Determinism: recovery changes *where and how often* units execute,
    never their results — violations compare by value, step counts are
    enumeration-order free, and the coordinator folds replies by slot,
    so a recovered run is byte-identical to a fault-free one.  Shipping
    counters do include recovery re-shipments, and a slot that crashed
    mid-run re-ships full on the *next* run too (its cache mirror is
    dropped rather than re-registered — simpler, and only a warm-path
    pessimisation).
    """

    def __init__(
        self,
        pool: "MultiprocessExecutor",
        sigma: Sequence[GFD],
        graph: PropertyGraph,
        primaries: List[List[WorkUnit]],
        busy: List[int],
        sigma_key: Optional[object],
        stats: ShippingStats,
        policy: FaultPolicy,
        plan_key: Optional[PlanKey] = None,
        phase: Optional[UnitPhase] = None,
    ) -> None:
        self.pool = pool
        self.sigma = sigma
        self.graph = graph
        self.primaries = primaries
        self.busy = busy
        #: the pool's mirror of its workers' resident caches
        self.shard_cache: ShardCache = pool.shard_cache
        self.epoch = self.shard_cache.epoch
        self.sigma_key = sigma_key
        self.plan_key = plan_key
        #: per plan slot, the node set its shard must hold
        self.needed = (
            plan_key if plan_key is not None else PlanKey(primaries)
        ).needed
        self.stats = stats
        self.policy = policy
        plan = policy.plan
        #: the injection plan shipped to workers (``None`` when it has
        #: no worker-side triggers — applier-only plans stay out of band)
        self.worker_plan = (
            plan if plan is not None and not plan.worker_empty else None
        )
        self._sigma_blob: Optional[bytes] = None
        #: the run's phase, serialised once and sent with every slot
        self._phase_blob = pack_shard(phase) if phase is not None else None
        #: per pool slot: batches dispatched (head) or queued behind it
        self.pending: Dict[int, Deque[_BatchState]] = {}
        #: raw ``"ok"`` replies collected so far
        self.replies: List[Tuple] = []

    # -- shipping ------------------------------------------------------
    def _route_slot(self, slot: int) -> int:
        """Pool slot serving plan slot ``slot`` (degrade-aware).

        The classic pinning ``slot % size`` — except that retired pool
        slots fall through to the live ones, deterministically, so a
        degraded pool keeps a stable slot→process mapping across runs.
        """
        procs = self.pool._procs
        index = slot % len(procs)
        if procs[index] is not None:
            return index
        live = self.pool._live_indices()
        return live[slot % len(live)] if live else index

    def _build_task(self, worker: int) -> Tuple:
        """Build plan slot ``worker``'s task: shard plan + payloads.

        This is the shipping decision (full / delta / reuse via the
        :class:`ShardCache`, shm vs pickle via the ship mode, units or
        the slot's resident plan) plus the serialise-once accounting;
        recovery calls it again when a requeued slot needs its payload
        rebuilt from scratch.
        """
        stats = self.stats
        mode, data, ship_sigma, ship_plan = self.shard_cache.plan(
            worker, self.needed[worker], self.graph,
            sigma_key=self.sigma_key, plan_key=self.plan_key,
        )
        if ship_sigma or mode == "full":
            if self._sigma_blob is None:
                self._sigma_blob = pack_shard(self.sigma)
            stats.sigma_bytes += len(self._sigma_blob)
        sigma_update = self._sigma_blob if ship_sigma else None
        if ship_sigma:
            stats.shipped_sigma += 1
        if mode == "full":
            if self.pool._map_shard(data):
                ref, segment_bytes = self.pool._plane_for_run().publish(
                    worker, data
                )
                stats.mapped += 1
                stats.mapped_bytes += segment_bytes
            else:
                blob = pack_shard(data)
                ref = ("pickle", blob)
                stats.shard_bytes += len(blob)
            payload = (self.epoch, self._sigma_blob, ref)
            stats.full += 1
            stats.shipped_nodes += data.num_nodes
        elif mode == "delta":
            # A delta always travels the pipe (it is small by
            # construction); the slot's mapped segment — if any —
            # is retired here and the worker demotes its shard to a
            # private copy before patching.
            if self.pool._plane is not None:
                self.pool._plane.unlink(worker)
            ops, add_nodes, add_edges = data
            blob = pack_shard((ops, add_nodes, add_edges))
            payload = (self.epoch, blob, sigma_update)
            stats.delta += 1
            stats.shipped_nodes += len(add_nodes)
            stats.shipped_ops += len(ops)
            stats.shard_bytes += len(blob)
        else:
            payload = (self.epoch, sigma_update)
            stats.reused += 1
        if self._phase_blob is not None:
            stats.payload_bytes += len(self._phase_blob)
        if ship_plan:
            # the slot's units, serialised once and measured like every
            # other shipped category
            plan_blob = pack_shard(self.primaries[worker])
            stats.plan_bytes += len(plan_blob)
        else:
            plan_blob = None
        return (worker, mode, payload, plan_blob, self._phase_blob)

    def _unit_count(self, batch: _BatchState) -> int:
        return sum(len(self.primaries[task[0]]) for task in batch.tasks)

    def _requeue_tasks(self, tasks: List[Tuple]) -> List[Tuple]:
        """Re-shippable versions of a dead worker's tasks.

        Full payloads are self-contained — the pickle blob re-ships and
        a still-published shm segment re-attaches as-is (the zero-cost
        recovery path).  Delta/reuse payloads assumed resident state
        that died with the worker, so their slots are dropped cold and
        rebuilt (the cache then plans a full shipment).
        """
        out = []
        for task in tasks:
            worker, mode = task[0], task[1]
            if mode == "full":
                out.append(task)
            else:
                self.shard_cache.drop_slots([worker])
                out.append(self._build_task(worker))
        return out

    # -- dispatch ------------------------------------------------------
    def _dispatch(self, index: int, batch: _BatchState) -> None:
        """Queue ``batch`` on pool slot ``index``; send it when it is head.

        At most one batch message sits unread in a worker's pipe at a
        time (queued batches are sent as their predecessors complete),
        so the coordinator never blocks writing a large batch while a
        worker blocks writing a large reply.
        """
        queue = self.pending.setdefault(index, deque())
        queue.append(batch)
        if queue[0] is batch:
            self._send(index, batch)

    def _send(self, index: int, batch: _BatchState) -> None:
        conn = self.pool._conns[index]
        try:
            conn.send(
                (
                    "batch", batch.tasks,
                    self.policy.heartbeat_interval, self.worker_plan,
                )
            )
        except (BrokenPipeError, OSError):
            pass  # repro-lint: disable=RPL050 -- dead pipe surfaces as an EOF crash in the poll loop, which requeues this batch
        batch.mark_sent(index in self.pool._ready)

    # -- supervision ---------------------------------------------------
    def execute(self) -> List[Tuple]:
        """Dispatch every slot's batch and supervise until all reply."""
        grouped: Dict[int, List[int]] = {}
        for worker in self.busy:
            grouped.setdefault(self._route_slot(worker), []).append(worker)
        for index, slots in grouped.items():
            # Each pool worker's batch is sent as soon as it is built,
            # so that worker computes while later shards are still cut.
            tasks = [self._build_task(worker) for worker in slots]
            self._dispatch(index, _BatchState(tasks=tasks))
        while self.pending:
            self._poll_once()
        return self.replies

    def _poll_timeout(self) -> float:
        timeout = min(
            self.policy.heartbeat_interval, self.policy.stall_timeout / 4
        )
        if self.policy.unit_deadline is not None:
            timeout = min(timeout, self.policy.unit_deadline / 2)
        return max(0.005, min(0.25, timeout))

    def _poll_once(self) -> None:
        """One supervision step: drain ready pipes, then scan deadlines.

        Any recovery action mutates the pending map and possibly the
        pool itself, so the step returns right after handling one
        failure and the outer loop recomputes its view.
        """
        conn_index = {
            self.pool._conns[index]: index
            for index in self.pending
            if self.pool._conns[index] is not None
        }
        ready = _connection_wait(
            list(conn_index), timeout=self._poll_timeout()
        )
        for conn in ready:
            if self._consume(conn_index[conn], conn):
                return
        now = time.monotonic()
        for index in list(self.pending):
            queue = self.pending.get(index)
            if not queue:  # pragma: no cover - defensive
                self.pending.pop(index, None)
                continue
            head = queue[0]
            if not head.armed:
                if now - head.sent_at > WORKER_START_TIMEOUT:
                    self._on_failure(index, "stall")
                    return
                continue
            if now - head.last_signal > self.policy.stall_timeout:
                self._on_failure(index, "stall")
                return
            deadline = self.policy.unit_deadline
            if deadline is not None and (
                now - head.progress_at
                > deadline + self.policy.heartbeat_interval
            ):
                # Progress is sampled at heartbeat cadence, so one
                # interval of slack keeps a just-under-deadline unit
                # from being misread as stalled.
                self._on_failure(index, "stall")
                return

    def _consume(self, index: int, conn) -> bool:
        """Handle one message from pool slot ``index``.

        Returns ``True`` when a failure was handled (the caller's view
        of the pending map is stale and must be recomputed).
        """
        queue = self.pending.get(index)
        if not queue:  # pragma: no cover - raced a completed batch
            return False
        head = queue[0]
        try:
            message = conn.recv()
        except (EOFError, OSError):
            self._on_failure(index, "crash")
            return True
        kind = message[0]
        now = time.monotonic()
        if kind == "ready":
            self.pool._ready.add(index)
            if not head.armed:
                head.arm(now)
        elif kind == "hb":
            head.last_signal = now
            self.stats.faults.record_heartbeat(now - message[3])
            progress = message[2]
            if progress != head.progress:
                head.progress = progress
                head.progress_at = now
        elif kind == "ok":
            queue.popleft()
            if queue:
                self._send(index, queue[0])
            else:
                self.pending.pop(index, None)
            self.replies.append(message)
        elif kind == "err":
            self.stats.faults.worker_errors += 1
            self._on_failure(index, "err", tb=message[2])
            return True
        return False

    # -- recovery ------------------------------------------------------
    def _abort(self, message: str) -> None:
        """Terminal failure: tear down exactly like the fail-stop path.

        The cache mirror and the pool state are unknowable, so the next
        run must restart cold — shutdown drops the pool's mirror — and
        no stale reply may survive in a pipe, which shutdown guarantees
        by closing every conn.
        """
        self.pool.shutdown()
        raise RuntimeError(message)

    def _on_failure(self, index: int, kind: str, tb: Optional[str] = None):
        """Recover pool slot ``index`` after a crash/stall/error.

        One uniform path for all three: even an ``"err"`` reply (the
        worker is alive and caught the exception) leaves the worker's
        resident state uncertain — a mid-batch failure may have
        half-patched a shard — so the slot is killed and respawned, and
        its batches requeued, every time.
        """
        faults = self.stats.faults
        if kind == "crash":
            faults.crashes += 1
        elif kind == "stall":
            faults.stalls += 1
        batches = list(self.pending.pop(index, ()))
        # Everything resident on the dead process died with it —
        # including slots from previous runs this run merely reused.
        self.shard_cache.drop_slots([
            slot for slot in self.shard_cache.slots()
            if self._route_slot(slot) == index
        ])
        head = batches[0] if batches else None
        if head is not None:
            head.attempts += 1
            if head.attempts > self.policy.max_retries:
                if kind == "err":
                    self._abort(f"worker process failed:\n{tb}")
                self._abort(
                    f"persistent worker pool lost a process (pool slot "
                    f"{index} {kind} survived {self.policy.max_retries} "
                    "retries); pool shut down — the next run restarts it "
                    "cold"
                )
        if self.pool._respawn_worker(index):
            faults.respawns += 1
            if head is not None:
                time.sleep(self.policy.retry_wait(head.attempts))
            for batch in batches:
                batch.tasks = self._requeue_tasks(batch.tasks)
                faults.retried_units += self._unit_count(batch)
                self._dispatch(index, batch)
            return
        # Respawn failed: degrade — retire the slot and reroute its
        # work to the surviving workers (slot routing changes for every
        # plan slot, so the whole cache mirror goes cold).
        self.pool._retire_worker(index)
        faults.degraded_slots += 1
        self.shard_cache.invalidate()
        live = self.pool._live_indices()
        if len(live) < self.policy.degrade_floor:
            self._abort(
                "persistent worker pool lost a process and degraded "
                f"below its floor ({len(live)} live slot(s) < "
                f"degrade_floor={self.policy.degrade_floor}); pool shut "
                "down"
            )
        attempts = max((batch.attempts for batch in batches), default=0)
        rerouted: Dict[int, List[Tuple]] = {}
        for batch in batches:
            for task in self._requeue_tasks(batch.tasks):
                rerouted.setdefault(self._route_slot(task[0]), []).append(
                    task
                )
        for target, tasks in rerouted.items():
            batch = _BatchState(tasks=tasks, attempts=attempts)
            faults.retried_units += self._unit_count(batch)
            self._dispatch(target, batch)


class MultiprocessExecutor:
    """Real parallel execution in a supervised pool of worker processes.

    Each non-empty worker of the plan becomes one task: its primary units
    plus the shard-local graph they need (see :func:`worker_graph`) are
    shipped to a worker process, which indexes the shard and detects
    violations for real.  Snapshots travel compactly
    (:meth:`~repro.graph.snapshot.GraphSnapshot.__getstate__` ships
    primary CSR state only) and graphs drop their cached whole-graph
    snapshot on the wire.

    :meth:`start` forks pinned worker processes: plan slot ``w`` is
    always served by pool worker ``w % size``, and each worker process
    keeps a resident-shard cache keyed by ``(epoch, slot)``.  The pool
    mirrors those caches in its own :class:`ShardCache`
    (:attr:`shard_cache`, minted by :meth:`start` and dropped by
    :meth:`shutdown`), so a warm run — one that names its rule set by
    ``sigma_key``, as a ``ValidationSession`` does — ships only the
    block-share delta (or nothing at all) and reuses the worker's shard,
    snapshot and block cache; a run without one ships full shards.
    :meth:`shutdown` (or the context manager) ends the pool; :meth:`run`
    needs a started one.

    ``processes`` caps the pool size.  ``start_method`` defaults to
    ``"fork"`` where available — workers then share the parent's hash
    seed, though result equality does not depend on it: violation sets
    compare by value and step counts are enumeration-order independent.
    """

    name = "process"

    def __init__(
        self,
        processes: Optional[int] = None,
        start_method: Optional[str] = None,
        ship_mode: str = "auto",
        fault_policy: Optional[FaultPolicy] = None,
    ) -> None:
        check_process_knobs(processes, ship_mode, fault_policy)
        self.processes = processes
        #: how full shards travel (see the module docstring's Ship modes)
        self.ship_mode = ship_mode
        #: default supervision knobs for every run (``None`` means
        #: defaults + any ``REPRO_FAULT_PLAN`` overrides, resolved per run)
        self.fault_policy = fault_policy
        self._plane: Optional[ShardPlane] = None
        #: mirror of the workers' resident caches (``None`` while down)
        self.shard_cache: Optional[ShardCache] = None
        if start_method is None:
            # Prefer fork only on Linux: macOS lists it but its system
            # libraries are not fork-safe (intermittent aborts once the
            # parent has started threads), so elsewhere we take the
            # platform's default start method.
            if sys.platform == "linux":
                start_method = "fork"
            else:  # pragma: no cover - non-Linux
                start_method = multiprocessing.get_start_method()
        self.start_method = start_method
        #: pool slots; a retired (degraded) slot holds ``None`` in both
        self._procs: List = []
        self._conns: List = []
        #: respawn count per pool slot (the fault harness's incarnation)
        self._incarnations: Dict[int, int] = {}
        #: pool slots whose current process has reported ``ready``
        self._ready: Set[int] = set()
        #: shipping record of the most recent run
        self.last_shipping: Optional[ShippingStats] = None

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the pool is up."""
        return bool(self._procs)

    def worker_pids(self) -> List[int]:
        """PIDs of the pool (empty when not started;
        degraded slots are skipped)."""
        return [proc.pid for proc in self._procs if proc is not None]

    def start(self, size: Optional[int] = None) -> "MultiprocessExecutor":
        """Fork the worker pool (idempotent).

        ``size`` defaults to ``processes`` (or usable CPUs when unset).
        An explicit request above the usable CPU count is *honoured* —
        oversubscription is legitimate for I/O-heavy or test workloads —
        but warns loudly, because it used to be silently clamped and
        never speeds up CPU-bound matching.
        """
        if self._procs:
            return self
        if size is None:
            size = self.processes or usable_cpus()
        size = max(1, size)
        cpus = usable_cpus()
        if size > cpus:
            warnings.warn(
                f"starting {size} worker processes on {cpus} "
                "usable CPU(s): the explicit request is honoured, but the "
                "pool is oversubscribed",
                RuntimeWarning,
                stacklevel=2,
            )
        self.shard_cache = ShardCache()
        for index in range(size):
            proc, parent = self._spawn_worker(index, 0)
            self._procs.append(proc)
            self._conns.append(parent)
        return self

    @staticmethod
    def _clean_start_method() -> str:
        """Start method giving a replacement worker a pristine heap.

        ``forkserver`` children are forked from a freshly exec'd server
        process, so — unlike a mid-run ``fork`` — they inherit none of
        the coordinator's published shared-memory segments or exported
        arena views; unlike ``spawn`` they never re-run ``__main__``.
        """
        if "forkserver" in multiprocessing.get_all_start_methods():
            return "forkserver"
        return "spawn"  # pragma: no cover - no-forkserver platforms

    def _spawn_worker(
        self, index: int, incarnation: int, method: Optional[str] = None
    ) -> Tuple:
        """Fork one pool worker for slot ``index`` at ``incarnation``."""
        context = multiprocessing.get_context(method or self.start_method)
        if method == "forkserver":
            # The default preload re-imports __main__ inside the server,
            # which breaks under embedded/stdin entry points and buys a
            # worker process nothing — it gets everything via messages.
            context.set_forkserver_preload([])
        parent, child = context.Pipe()
        proc = context.Process(
            target=_persistent_worker_main,
            args=(child, index, incarnation),
            daemon=True,
        )
        proc.start()
        child.close()
        return proc, parent

    def _respawn_worker(self, index: int) -> bool:
        """Replace slot ``index``'s worker after a crash/stall/error.

        Kills and reaps whatever occupies the slot, closes its pipe (so
        no stale message from the old incarnation can ever be read) and
        forks a replacement at the next incarnation.  Returns ``False``
        when the fork itself fails — the caller then degrades the pool.
        """
        conn = self._conns[index]
        if conn is not None:
            conn.close()
            self._conns[index] = None
        proc = self._procs[index]
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            _reap_process(proc)
            self._procs[index] = None
        self._ready.discard(index)
        incarnation = self._incarnations.get(index, 0) + 1
        self._incarnations[index] = incarnation
        try:
            # Replacements must not fork the coordinator mid-run: the
            # child would inherit published shared-memory segments (and
            # their exported arena views) it can neither use nor cleanly
            # finalise at exit.  A clean-heap start method costs
            # interpreter start-up once per respawn, recovery path only.
            proc, conn = self._spawn_worker(
                index, incarnation, self._clean_start_method()
            )
        except OSError:
            return False  # caller retires the slot and reroutes its work
        self._procs[index] = proc
        self._conns[index] = conn
        return True

    def _retire_worker(self, index: int) -> None:
        """Permanently retire a pool slot whose respawn failed (degrade)."""
        conn = self._conns[index]
        if conn is not None:
            conn.close()
        self._conns[index] = None
        proc = self._procs[index]
        if proc is not None:
            if proc.is_alive():  # pragma: no cover - defensive
                proc.kill()
            _reap_process(proc)
        self._procs[index] = None
        self._ready.discard(index)

    def _live_indices(self) -> List[int]:
        """Pool slots still holding a live worker process."""
        return [i for i, proc in enumerate(self._procs) if proc is not None]

    def shutdown(self) -> None:
        """Stop the worker pool (idempotent).

        Teardown escalates per worker — ``join(timeout)`` →
        ``terminate()`` → ``kill()`` — so a wedged or fault-injected
        worker can never hang session close, and retires every published
        shared-memory segment even when reaping goes badly: after this
        no shard-plane name survives, whatever state the workers died in.
        """
        try:
            for conn in self._conns:
                if conn is None:
                    continue
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass  # repro-lint: disable=RPL050 -- worker already dead; it is reaped (join/terminate/kill) just below
            for conn in self._conns:
                if conn is not None:
                    conn.close()
            for proc in self._procs:
                if proc is not None:
                    _reap_process(proc)
        finally:
            self._procs.clear()
            self._conns.clear()
            self._incarnations.clear()
            self._ready.clear()
            self.shard_cache = None
            if self._plane is not None:
                self._plane.close()
                self._plane = None

    def __enter__(self) -> "MultiprocessExecutor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.shutdown()
        except Exception:
            pass  # repro-lint: disable=RPL050 -- interpreter teardown; raising from __del__ only produces an unraisable-error banner

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _map_shard(self, shard: PropertyGraph) -> bool:
        """Whether this full shard travels via the shard plane (shm)."""
        if self.ship_mode == "pickle":
            return False
        if self.ship_mode == "shm":
            return True
        return shm_available() and shard.size >= AUTO_SHM_MIN_SIZE

    def _plane_for_run(self) -> ShardPlane:
        if self._plane is None:
            self._plane = ShardPlane()
        return self._plane

    def run(
        self,
        sigma: Sequence[GFD],
        graph: PropertyGraph,
        plan: Sequence[Sequence[WorkUnit]],
        sigma_key: Optional[object] = None,
        plan_key: Optional[PlanKey] = None,
        phase: Optional[UnitPhase] = None,
    ) -> List["SlotResult"]:
        """Execute every primary unit in the started pool's workers.

        Returns one :class:`~repro.parallel.engine.SlotResult` per plan
        slot (an empty one for a slot without primaries), as
        :class:`SimulatedExecutor` does; each is the worker's own reply
        object, with its group payloads unpacked from their one blob,
        so nothing is rebuilt per unit.  Shipping is warm through the
        pool's :attr:`shard_cache` only for a caller that names its rule set:
        ``sigma_key`` identifies it so a warm slot reships Σ — and only
        Σ — when it changed since the slot's last run, and the caller
        promises to record every edit of ``graph`` in between (as
        ``ValidationSession.update`` does).  With ``sigma_key=None`` the
        run ships full shards.  ``plan_key`` (a :class:`PlanKey`)
        likewise identifies ``plan``, so a warm slot that holds it is
        sent no units.  ``phase`` (a
        :class:`~repro.parallel.workload.UnitPhase`) is packed once and
        sent with every slot.  Supervision follows :attr:`fault_policy`,
        with any ``REPRO_FAULT_PLAN`` resolved per run (see the module
        docstring's "Fault tolerance").
        """
        from .engine import MaterialiserStats, SlotResult

        if not self._procs:
            raise RuntimeError(
                "MultiprocessExecutor.run needs a started pool; call "
                "start() or use the executor as a context manager"
            )
        primaries: List[List[WorkUnit]] = [
            [unit for unit in worker_units if unit.primary]
            for worker_units in plan
        ]
        busy = [w for w, units in enumerate(primaries) if units]
        if sigma_key is None:
            self.shard_cache.invalidate()
        self.shard_cache.sync(graph)
        stats = ShippingStats(
            block_cache=MaterialiserStats(), faults=FaultStats(),
        )
        # Shipping decisions, dispatch and supervision (heartbeats,
        # retry/requeue, respawn, degrade) all live in _PersistentRun;
        # terminal failures shut the pool down, so the next run
        # restarts cold.
        replies = _PersistentRun(
            self, sigma, graph, primaries, busy, sigma_key, stats,
            resolve_fault_policy(self.fault_policy), plan_key, phase,
        ).execute()
        results = [SlotResult() for _ in plan]
        for _, pid, entries, cache_stats, gc_stats in replies:
            stats.block_cache.merge(cache_stats)
            stats.gc_full_collections += gc_stats[0]
            stats.gc_pause_max = max(stats.gc_pause_max, gc_stats[1])
            for slot, result, payloads in entries:
                if payloads is not None:
                    # the one blob the worker serialised, and we measure
                    result.payloads = unpack_shard(payloads)
                    stats.payload_bytes += len(payloads)
                results[slot] = result
                stats.worker_pids[slot] = pid
        self.last_shipping = stats
        return results
