"""The session layer: stateful, warm, repeated GFD validation.

The paper's setting is *repeated* validation — a fixed Σ checked again and
again over a graph that keeps evolving and a fragmentation that rarely
changes.  The stateless entry points (:func:`~repro.parallel.repval.
rep_val`, :func:`~repro.parallel.disval.dis_val`, :func:`~repro.core.
validation.det_vio`) re-pay every fixed cost per call: pool start-up,
shard shipping, workload estimation, block materialisation, snapshot
construction.  :class:`ValidationSession` owns all of that state and
amortises it across calls:

* a **persistent worker pool** — one
  :class:`~repro.parallel.executors.MultiprocessExecutor` started lazily
  on the first process-backed run and reused until :meth:`close`; plan
  slots are pinned to worker processes, so a warm run talks to the same
  PIDs;
* **warm shard caches** — each worker process keeps its resident share
  of the graph between runs; the pool's
  :class:`~repro.parallel.executors.ShardCache` mirrors them on the
  coordinator and computes the block-share *delta* when consecutive
  runs reuse a fragmentation, so an unchanged slot ships nothing at all;
* a **shared block materialiser** — simulated-backend runs reuse
  materialised blocks (with per-run stats so cluster reports stay
  comparable, see :meth:`~repro.parallel.engine.BlockMaterialiser.
  take_stats`);
* a **workload and plan cache** — ``W(Σ, G)`` is recomputed only when
  the graph's structural version (or the fragmentation) changes, and a
  replicated run's split, partitioned plan only when that or its
  options change or an update lands; the simulated planning costs are
  still charged in full, so warm and cold runs report identical
  :class:`~repro.parallel.cluster.ClusterReport`s — wall-clock is what
  warmth buys, not different figures.  Worker slots keep the cached
  plan's units resident, so a repeated validate ships no units;
* **delta-maintained violations** — :meth:`update` routes graph
  mutations through :class:`~repro.core.incremental.IncrementalValidator`
  (on the delta-maintained snapshot backend), reconciling the maintained
  violation set with full runs, and forwards the ops to resident worker
  shards (only while a pool is up: with no pool, nothing is resident).

The stateless API is now a facade: ``rep_val``/``dis_val`` construct a
throwaway session per call, so they keep working verbatim and produce
identical results by construction; a process run there starts the
session's supervised pool for the call and shuts it down on return.

Contract: route every graph mutation through :meth:`update` (the same
rule :class:`IncrementalValidator` imposes).  Structural out-of-band
mutations are detected via the graph version and degrade gracefully to
cold behaviour; attribute-only out-of-band edits are undetectable and
would leave worker shards stale.

Example::

    from repro import ValidationSession

    with ValidationSession(graph, sigma, executor="process", processes=4) as s:
        first = s.validate(n=4)           # cold: pool starts, shards ship
        again = s.validate(n=4)           # warm: zero shipping, same PIDs
        assert again.shipping.reused > 0 and again.shipping.shipped_nodes == 0
        s.update([("edge+", "au", "sydney", "capital")])   # incremental
        third = s.validate(n=4)           # delta-shipped, still exact
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .core.discovery import (
    DEFAULT_SAMPLE_SIZE,
    DiscoveredGFD,
    EvidenceAggregate,
    candidate_dependencies,
    candidate_patterns,
    canonical_matches,
    count_dependency,
    probe_gfds,
    select_rules,
)
from .core.gfd import GFD
from .core.incremental import IncrementalValidator, UpdateDiff
from .core.validation import Violation, det_vio
from .graph.graph import PropertyGraph
from .graph.partition import Fragmentation
from .graph.updates import check_ops
from .matching.factorised import EVAL_MODES
from .parallel.assignment import (
    balance_only_assign,
    bicriteria_assign,
    random_assign,
)
from .parallel.balancing import lpt_partition, random_partition
from .parallel.cluster import ClusterReport, CostModel, SimulatedCluster
from .parallel.disval import _charge_data_shipment
from .parallel.engine import (
    BlockMaterialiser,
    MaterialiserStats,
    ValidationRun,
    run_assignment,
    run_units,
)
from .parallel.executors import (
    EXECUTORS,
    MultiprocessExecutor,
    PlanKey,
    ShippingStats,
    SimulatedExecutor,
    check_process_knobs,
    resolve_executor,
)
from .parallel.faults import FaultPolicy
from .parallel.multiquery import (
    GroupMember,
    SharedGroup,
    build_shared_groups,
    singleton_groups,
)
from .parallel.repval import SPLIT_FACTOR
from .parallel.skew import split_oversized
from .parallel.workload import UnitPhase, WorkUnit, estimate_workload


#: shard-cache identity of the session's own rule set — a warm worker slot
#: that last ran a discovery phase (probe or mined Σ) reships Σ (and only
#: Σ) on the next base validation, and vice versa.
_BASE_SIGMA_KEY = "sigma:base"


@dataclass
class DiscoveryPhase:
    """One phase of a session-backed discovery run.

    Discovery executes as (up to) three plans over the parallel engine —
    ``enumerate`` (pivoted match enumeration per isomorphism group, plus
    the capped-pattern match fetch when the fallback engages), ``count``
    (support/confidence tallies for the proposed dependencies) and
    ``confirm`` (validation of the mined Σ) — each reported exactly
    like a :class:`~repro.parallel.engine.ValidationRun`: the simulated
    cluster's cost figures plus what the warm machinery actually did
    (``shipping`` on process runs, ``cache`` on simulated ones).

    ``wall_seconds`` is the phase's measured wall-clock (planning,
    execution and result folding).  ``vf2_units`` counts the units that
    actually ran a VF2 enumeration; every other unit was answered from
    its block's resident factorised eliminations.  It is zero across
    ``enumerate`` and ``count`` when every candidate pattern evaluated
    factorised (the default for the acyclic patterns discovery
    proposes), and every unit under ``eval_mode="enumerate"``.
    """

    phase: str
    report: ClusterReport
    num_units: int
    executor: str
    shipping: Optional[ShippingStats] = None
    cache: Optional[MaterialiserStats] = None
    wall_seconds: float = 0.0
    vf2_units: int = 0

    @property
    def parallel_time(self) -> float:
        """Convenience alias for ``report.parallel_time``."""
        return self.report.parallel_time


@dataclass
class DiscoveryRun:
    """The result of :meth:`ValidationSession.discover`.

    ``rules`` is the mined set — identical (rules, names, supports,
    confidences) to serial :func:`~repro.core.discovery.discover_gfds`
    with the same parameters, whatever the executor or worker count.
    ``violations`` is the mined-Σ confirmation pass's result (``None``
    when confirmation was skipped or nothing was mined).  A rule mined
    at confidence 1.0 can appear in it only when its pattern's match set
    was capped at ``max_matches`` — its name is then in
    ``capped_rules``, because support/confidence describe the canonical
    counted subset while confirmation validates *every* match.  For
    uncapped rules, confidence 1.0 guarantees absence from
    ``violations``.
    """

    rules: List[DiscoveredGFD]
    phases: List[DiscoveryPhase]
    num_patterns: int
    num_proposals: int
    executor: str
    violations: Optional[Set[Violation]] = None
    #: names of mined rules whose pattern hit the ``max_matches`` cap
    capped_rules: frozenset = frozenset()

    @property
    def sigma(self) -> List[GFD]:
        """The mined rules as a plain rule set."""
        return [mined.gfd for mined in self.rules]

    def phase(self, name: str) -> Optional[DiscoveryPhase]:
        """The named phase (``enumerate``/``count``/``confirm``), if run."""
        for phase in self.phases:
            if phase.phase == name:
                return phase
        return None


class ValidationSession:
    """A long-lived validation context for one ``(graph, Σ)`` pair.

    ``executor`` and ``processes`` set the session-wide defaults
    (overridable per :meth:`validate` call); ``ship_mode`` fixes how the
    session's process runs ship full shards (``"pickle"`` blobs,
    ``"shm"`` zero-copy shared-memory arenas, or size-based ``"auto"`` —
    see the shard plane in ``parallel/executors.py``).  The first
    process-backed run starts a supervised worker pool of ``processes``
    workers (usable CPUs when unset); the pool and its workers' shard
    caches stay alive across runs until :meth:`close`.  The stateless
    facade (``rep_val``/``dis_val``) wraps one run in a throwaway
    session, so its pool lives exactly as long as that run.

    Use as a context manager (or call :meth:`close`) so the pool is torn
    down deterministically.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        sigma: Sequence[GFD],
        executor: str = "auto",
        processes: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
        ship_mode: str = "auto",
        fault_policy: Optional["FaultPolicy"] = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        check_process_knobs(processes, ship_mode, fault_policy)
        self.graph = graph
        self.sigma = list(sigma)
        self.executor = executor
        self.processes = processes
        #: how process-backed runs ship full shards — ``"pickle"``
        #: (portable blobs over the pipe), ``"shm"`` (zero-copy
        #: shared-memory arenas) or ``"auto"`` (shm for large shards when
        #: available; see ``parallel/executors.py``).
        self.ship_mode = ship_mode
        #: supervision knobs for process-backed runs — retry budget,
        #: backoff, heartbeat cadence, unit deadline, degrade floor (and
        #: optionally an injection plan); ``None`` resolves to the
        #: defaults plus any ``REPRO_FAULT_PLAN`` environment plan at
        #: run time (see ``parallel/faults.py``).
        self.fault_policy = fault_policy
        self.cost_model = cost_model
        self._pool: Optional[MultiprocessExecutor] = None
        self._materialiser: Optional[BlockMaterialiser] = None
        self._materialiser_version = -1
        # the rule set the shared materialiser last served (Σ swaps keep
        # the matchers of the outgoing and the incoming Σ only)
        self._materialiser_sigma: Optional[Sequence[GFD]] = None
        self._units_cache: Dict[Tuple, List[WorkUnit]] = {}
        # (unit count, plan, plan key) per replicated validate's options
        # and graph version; dropped by every update
        self._plan_cache: Dict[Tuple, Tuple[int, List, PlanKey]] = {}
        # (patterns, probes, groups, units) per mining parameterisation —
        # warm repeated discover() calls reuse pattern objects and the
        # estimated workload exactly like _units_cache does for Σ.
        self._mining_cache: Dict[Tuple, Tuple] = {}
        self._incremental: Optional[IncrementalValidator] = None
        self._violations: Optional[Set[Violation]] = None
        # graph version the maintained violation set was computed against;
        # a mismatch means an out-of-band structural mutation happened.
        self._violations_version = -1
        # last (fragmentation fingerprint, graph version) whose owner map
        # was verified total — skips the O(|V|) orphan rescan on warm
        # fragmented runs over an edge-only-stale fragmentation.
        self._frag_checked: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ValidationSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down and drop warm state (idempotent).

        The session stays usable — the next process-backed run simply
        starts cold again.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._materialiser = None
        self._materialiser_sigma = None
        self._units_cache.clear()
        self._plan_cache.clear()
        self._mining_cache.clear()

    def worker_pids(self) -> List[int]:
        """PIDs of the persistent pool (empty before the first process run)."""
        return self._pool.worker_pids() if self._pool is not None else []

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(
        self,
        n: Optional[int] = None,
        fragmentation: Optional[Fragmentation] = None,
        assignment: Optional[str] = None,
        optimize: bool = True,
        split_threshold: Optional[int] = None,
        seed: int = 0,
        executor: Optional[str] = None,
        processes: Optional[int] = None,
    ) -> ValidationRun:
        """Run one parallel validation, reusing every warm resource.

        Without ``fragmentation`` this is the replicated setting
        (``repVal``; ``n`` defaults to ``processes`` or 1, ``assignment``
        to ``"balanced"``).  With one, the fragmented setting (``disVal``;
        ``n`` comes from the fragmentation, ``assignment`` defaults to
        ``"bicriteria"``).  All remaining options mirror the stateless
        entry points, which delegate here.

        The simulated cost figures are charged identically on warm and
        cold runs (warmth is a wall-clock win, not a reporting change);
        the returned run's ``shipping``/``cache`` fields record what the
        warm machinery actually did.
        """
        executor = executor if executor is not None else self.executor
        processes = processes if processes is not None else self.processes
        if fragmentation is not None:
            if n is not None and n != fragmentation.n:
                raise ValueError(
                    "n is implied by the fragmentation in the fragmented "
                    f"setting (got n={n} vs {fragmentation.n} fragments)"
                )
            run = self._validate_fragmented(
                fragmentation, assignment or "bicriteria", optimize,
                split_threshold, seed, executor, processes,
            )
        else:
            run = self._validate_replicated(
                n if n is not None else (processes or 1),
                assignment or "balanced", optimize, split_threshold, seed,
                executor, processes,
            )
        self._reconcile(run.violations)
        return run

    def detect(self) -> Set[Violation]:
        """Sequential ``detVio`` over the session's warm snapshot."""
        violations = det_vio(self.sigma, self.graph)
        self._reconcile(violations)
        return violations

    @property
    def violations(self) -> Set[Violation]:
        """The current ``Vio(Σ, G)`` (recomputed when stale or absent).

        An out-of-band *structural* mutation invalidates the maintained
        set (detected via the graph version, like every other warm
        resource); the next access recomputes from scratch.
        """
        if self._violations is None or (
            self._violations_version != self.graph._version
        ):
            return self.detect()
        if self._incremental is not None:
            return set(self._incremental.violations)
        return set(self._violations)

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def update(self, ops: Iterable[tuple]) -> UpdateDiff:
        """Apply graph updates through the incremental path.

        ``ops`` are update-op tuples (README, "Update ops").  Violations
        are maintained incrementally (on the delta-applied snapshot
        backend — no full re-validation, no full re-index), and the ops
        are queued for the worker shard caches (when a pool is up) so the
        next process-backed run ships only deltas.  Returns the batch's
        :class:`~repro.core.incremental.UpdateDiff`: iterating it yields
        the newly-introduced violations, ``.removed`` holds the ones the
        batch resolved.

        Warm caches survive the batch via *targeted* invalidation: the
        shared block materialiser patches exactly the cached blocks the
        ops land in (``BlockMaterialiser.apply_ops``), so a session
        absorbing an update stream does O(|Δ|) maintenance work per
        batch.  An empty ``ops``
        list is a true no-op: no cache activity, no version marks.

        A malformed batch raises before anything changes; an op the graph
        rejects raises after the ops before it have landed everywhere —
        graph, violation set and warm caches alike.
        """
        ops = check_ops(ops)
        if not ops:
            return UpdateDiff()
        stale = (
            self._violations is not None
            and self._violations_version != self.graph._version
        )
        if self._incremental is None:
            self._incremental = IncrementalValidator(
                self.sigma,
                self.graph,
                violations=None if stale else self._violations,
            )
        elif stale:
            # An out-of-band structural mutation since the last reconcile:
            # the maintained set cannot be trusted as a seed.
            self._incremental.rebuild()
        diff = UpdateDiff()
        applied = 0
        # the next validate re-plans, so worker slots are re-sent units
        self._plan_cache.clear()
        try:
            for op in ops:
                diff = diff.then(self._incremental.apply(op))
                applied += 1
        finally:  # what landed reaches every cache, even if a later op raised
            ops = ops[:applied]
            if self._pool is not None and self._pool.shard_cache is not None:
                self._pool.shard_cache.record(ops, self.graph._version)
            if self._materialiser is not None:
                self._materialiser.apply_ops(ops)
                self._materialiser_version = self.graph._version
            self._violations = set(self._incremental.violations)
            self._violations_version = self.graph._version
        return diff

    def _reconcile(self, violations: Set[Violation]) -> None:
        """Sync the maintained violation set with a full run's result."""
        if (
            self._incremental is not None
            and self._violations_version != self.graph._version
        ):
            # The version moved outside update(): the validator's cached
            # matchers predate the mutation (the run's violations are
            # fine — it recomputed; the matcher caches are not).
            self._incremental.invalidate_matchers()
        self._violations = set(violations)
        self._violations_version = self.graph._version
        if self._incremental is not None:
            self._incremental.violations = set(violations)

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def discover(
        self,
        min_support: int = 5,
        min_confidence: float = 0.95,
        max_edges: int = 2,
        top_edges: int = 5,
        max_matches: int = 5000,
        max_attrs: int = 4,
        sample_size: Optional[int] = DEFAULT_SAMPLE_SIZE,
        seed: int = 0,
        n: Optional[int] = None,
        fragmentation: Optional[Fragmentation] = None,
        executor: Optional[str] = None,
        processes: Optional[int] = None,
        confirm: bool = True,
        eval_mode: str = "auto",
    ) -> DiscoveryRun:
        """Mine GFDs over the session's warm engine.

        Produces the *identical* mined rule set as serial
        :func:`~repro.core.discovery.discover_gfds` with the same
        parameters, but runs mining itself as work units over the
        parallel stack: candidate patterns are wrapped as probe GFDs and
        grouped by isomorphism (one enumeration per group serves every
        dependency candidate of every isomorphic pattern), units are
        weighed and balanced exactly like detection units, and the plan
        executes on the chosen backend.  On a persistent process pool
        the three phases — ``enumerate``, ``count``, ``confirm`` — run
        over the same plan, so the second and third hit warm
        worker-resident shards and ship *zero* block-shares (the
        confirmation pass ships only the mined Σ itself).

        Without ``fragmentation`` this is replicated-style mining (``n``
        worker slots, LPT-balanced); with one, fragmented-graph mining
        (``disVal``-style bi-criteria assignment over the fragments'
        block shares).  ``confirm=False`` skips the mined-Σ validation
        pass; otherwise ``DiscoveryRun.violations`` holds its result
        (an uncapped rule mined at confidence 1.0 can never appear in
        it — see :attr:`DiscoveryRun.capped_rules` for the cap caveat).

        ``eval_mode`` is threaded to every mine/count unit (see
        :func:`~repro.core.discovery.discover_gfds`): under ``"auto"``
        (default) the aggregate phases answer by factorised variable
        elimination — zero VF2 enumerations — whenever a unit's leader
        pattern factorises; witness-needing paths (the capped match
        fetch, the sampled fallback, confirmation) always enumerate.
        The mined rule set is eval-mode-invariant.
        """
        if eval_mode not in EVAL_MODES:
            raise ValueError(f"unknown eval mode {eval_mode!r}")
        if eval_mode == "factorised" and sample_size is not None:
            raise ValueError(
                "eval_mode='factorised' cannot honour an explicit "
                "evidence sample (sampling draws from materialised "
                "matches)"
            )
        executor = executor if executor is not None else self.executor
        processes = processes if processes is not None else self.processes
        graph = self.graph
        if fragmentation is not None:
            if n is not None and n != fragmentation.n:
                raise ValueError(
                    "n is implied by the fragmentation in the fragmented "
                    f"setting (got n={n} vs {fragmentation.n} fragments)"
                )
            self._check_fragmentation(fragmentation)
            workers = fragmentation.n
        else:
            workers = n if n is not None else (processes or 1)
            if workers < 1:
                raise ValueError("need at least one worker slot")

        patterns, probes, groups, units = self._mining_workload(
            max_edges, top_edges, fragmentation
        )
        probe_key = (
            "sigma:probe", graph._version, max_edges, top_edges,
            fragmentation.fingerprint() if fragmentation is not None else None,
        )
        phases: List[DiscoveryPhase] = []

        # ---- phase 1: enumerate — pivoted matches per isomorphism group.
        phase_started = time.perf_counter()
        cluster = SimulatedCluster(workers, self.cost_model)
        cluster.charge_estimation([unit.block_size for unit in units])
        if fragmentation is None:
            plan, _ = lpt_partition(units, workers)
            cluster.charge_partitioning(len(units))
            resolved = resolve_executor(executor, plan, processes)
            materialiser = (
                self._shared_materialiser(probes) if resolved == "simulated"
                else None
            )
        else:
            cluster.charge_planning(len(units) * cluster.cost.estimate_cost)
            plan, _, _ = bicriteria_assign(units, workers)
            w = max(1, len(units))
            cluster.charge_planning(
                cluster.cost.partition_unit_cost * workers * w
                * math.log2(w + 1)
            )
            resolved = resolve_executor(executor, plan, processes)
            materialiser = self._shared_materialiser(probes)
            _charge_data_shipment(
                probes, fragmentation, plan, cluster, materialiser
            )
        if resolved == "simulated":
            backend = SimulatedExecutor(materialiser)
        else:
            backend = self._started_pool(processes)
        # Mine units fold matches into mergeable evidence aggregates by
        # default — O(vars × attrs) per unit on the wire instead of
        # O(matches).  An explicit
        # seeded evidence sample needs the match lists themselves: that
        # is one of the two documented fallbacks to match shipping (the
        # other — a pattern whose ``max_matches`` cap bites — is
        # detected after merging and fetched below).
        mine_mode = "matches" if sample_size is not None else "aggregate"
        # The unit payload carries the cap so workers bound what they
        # materialise and ship (see engine._execute_mine).
        mine_phase = UnitPhase(
            kind="mine", eval_mode=eval_mode,
            payloads={
                group.leader_index: (max_matches, mine_mode)
                for group in groups
            },
        )
        mine_results = run_units(
            probes, graph, plan, cluster, backend, sigma_key=probe_key,
            phase=mine_phase,
        )
        mine_shipping = backend.last_shipping
        mine_vf2 = sum(result.vf2_units for result in mine_results)
        by_leader = {group.leader_index: group for group in groups}

        # Merge the units' evidence — worker aggregates in the common
        # path, match lists on the sampled fallback — and propose
        # dependencies, byte-identical to the serial reference.
        pattern_matches: Dict[int, List[dict]] = {}
        proposals: Dict[int, List[Tuple]] = {}
        capped: Dict[int, bool] = {}
        if mine_mode == "matches":
            raw_matches, raw_counts = _gather_match_lists(
                mine_results, by_leader, range(len(patterns)), max_matches
            )
            for index, pattern in enumerate(patterns):
                matches = canonical_matches(
                    raw_matches[index], cap=max_matches
                )
                if len(matches) < min_support:
                    continue
                pattern_matches[index] = matches
                capped[index] = raw_counts[index] > max_matches
                proposals[index] = candidate_dependencies(
                    pattern, graph, matches,
                    max_attrs=max_attrs, sample_size=sample_size, seed=seed,
                )
        else:
            aggregates: Dict[int, EvidenceAggregate] = {
                index: EvidenceAggregate()
                for index in range(len(patterns))
            }
            for result in mine_results:
                for leader, agg_payload in result.payloads.items():
                    slot_agg = EvidenceAggregate.from_payload(agg_payload)
                    for member in by_leader[leader].members:
                        aggregates[member.index].merge(
                            slot_agg.rename(member.iso)
                        )
            need_fetch: List[int] = []
            for index, pattern in enumerate(patterns):
                aggregate = aggregates[index]
                if min(aggregate.count, max_matches) < min_support:
                    continue
                if aggregate.count > max_matches:
                    # The cap bites: support/confidence (and proposal
                    # evidence) must cover exactly the canonical capped
                    # subset the serial reference counts — only the
                    # match lists themselves can answer that.
                    capped[index] = True
                    need_fetch.append(index)
                else:
                    capped[index] = False
                    proposals[index] = aggregate.propose(pattern, max_attrs)
            if need_fetch:
                # The capped fallback: re-request match lists for the
                # affected groups.  The units re-enumerate on their warm
                # blocks (zero block-shares), charging the deterministic
                # steps of that enumeration, so reports stay
                # backend-invariant.
                fetch_indices = frozenset(need_fetch)
                fetch_phase = UnitPhase(
                    kind="mine", eval_mode="enumerate",
                    payloads={
                        group.leader_index: (max_matches, "matches")
                        for group in groups
                        if any(member.index in fetch_indices
                               for member in group.members)
                    },
                )
                fetch_plan = [
                    [
                        unit for unit in slot
                        if unit.group.leader_index in fetch_phase.payloads
                    ]
                    for slot in plan
                ]
                fetch_results = run_units(
                    probes, graph, fetch_plan, cluster, backend,
                    sigma_key=probe_key, phase=fetch_phase,
                )
                mine_vf2 += sum(result.vf2_units for result in fetch_results)
                if mine_shipping is not None:
                    mine_shipping.merge(backend.last_shipping)
                raw_matches, _ = _gather_match_lists(
                    fetch_results, by_leader, need_fetch, max_matches
                )
                for index in need_fetch:
                    matches = canonical_matches(
                        raw_matches[index], cap=max_matches
                    )
                    pattern_matches[index] = matches
                    proposals[index] = candidate_dependencies(
                        patterns[index], graph, matches,
                        max_attrs=max_attrs, sample_size=sample_size,
                        seed=seed,
                    )
        num_proposals = sum(len(deps) for deps in proposals.values())
        phases.append(DiscoveryPhase(
            phase="enumerate",
            report=cluster.report(),
            num_units=len(units),
            executor=resolved,
            shipping=mine_shipping,
            cache=materialiser.take_stats() if materialiser else None,
            wall_seconds=time.perf_counter() - phase_started,
            vf2_units=mine_vf2,
        ))

        # ---- phase 2: count — support/confidence tallies as work units
        # over the same plan (warm shards: zero block-shares shipped).
        # A pattern whose match set was capped is tallied on the
        # coordinator instead (workers see every match, the cap selects a
        # canonical subset only the coordinator holds).
        group_payload: Dict[int, tuple] = {}
        for group in groups:
            member_payloads = []
            for member in group.members:
                deps = (
                    proposals.get(member.index, [])
                    if not capped.get(member.index, False)
                    else []
                )
                if not deps:
                    member_payloads.append(())
                elif mine_mode == "aggregate":
                    # Ship the recipe, not the candidates: workers
                    # re-derive the identical proposal list from the
                    # merged aggregate (engine._derived_count_payload) —
                    # one compact aggregate per pattern on the wire
                    # instead of O(proposals) literal objects per slot.
                    member_payloads.append((
                        "derive",
                        tuple(patterns[member.index].variables),
                        aggregates[member.index].to_payload(),
                        max_attrs,
                    ))
                else:
                    # Sampled fallback: proposals came from an explicit
                    # seeded sample, not the aggregate — only the
                    # concrete candidate list reproduces them.
                    inverse = {v: k for k, v in member.iso.items()}
                    member_payloads.append(tuple(
                        (
                            tuple(l.rename(inverse) for l in lhs),
                            tuple(l.rename(inverse) for l in rhs),
                        )
                        for lhs, rhs in deps
                    ))
            if any(member_payloads):
                group_payload[group.leader_index] = tuple(member_payloads)
        totals: Dict[int, List[List[int]]] = {
            index: [[0, 0] for _ in deps]
            for index, deps in proposals.items()
            if not capped[index]
        }
        count_plan = [
            [unit for unit in slot if unit.group.leader_index in group_payload]
            for slot in plan
        ]
        if any(count_plan):
            phase_started = time.perf_counter()
            count_cluster = SimulatedCluster(workers, self.cost_model)
            count_results = run_units(
                probes, graph, count_plan, count_cluster, backend,
                sigma_key=probe_key,
                phase=UnitPhase(
                    kind="count", eval_mode=eval_mode, payloads=group_payload
                ),
            )
            for result in count_results:
                for leader, tallies_payload in result.payloads.items():
                    for member, member_counts in zip(
                        by_leader[leader].members, tallies_payload
                    ):
                        tallies = totals.get(member.index)
                        if tallies is None:
                            continue
                        for pos, sup, sat in member_counts:
                            tallies[pos][0] += sup
                            tallies[pos][1] += sat
            phases.append(DiscoveryPhase(
                phase="count",
                report=count_cluster.report(),
                num_units=sum(len(slot) for slot in count_plan),
                executor=resolved,
                shipping=backend.last_shipping,
                cache=materialiser.take_stats() if materialiser else None,
                wall_seconds=time.perf_counter() - phase_started,
                vf2_units=sum(result.vf2_units for result in count_results),
            ))

        # Threshold + naming in the serial reference's iteration order.
        selected = []
        for index, pattern in enumerate(patterns):
            deps = proposals.get(index)
            if not deps:
                continue
            if capped[index]:
                counts = [
                    count_dependency(graph, pattern_matches[index], lhs, rhs)
                    for lhs, rhs in deps
                ]
            else:
                counts = [tuple(tally) for tally in totals[index]]
            for (lhs, rhs), (supported, satisfied) in zip(deps, counts):
                selected.append((pattern, (lhs, rhs), supported, satisfied))
        rules = select_rules(selected, min_support, min_confidence)
        pattern_pos = {id(p): i for i, p in enumerate(patterns)}
        capped_rules = frozenset(
            mined.gfd.name
            for mined in rules
            if capped.get(pattern_pos[id(mined.gfd.pattern)], False)
        )

        # ---- phase 3: confirm — validate the mined Σ over the same plan
        # slots, so warm worker shards are hit again (only Σ travels).
        violations: Optional[Set[Violation]] = None
        if confirm and rules:
            violations, phase = self._confirm_mined(
                rules, patterns, probes, groups, plan, workers,
                backend, materialiser, probe_key,
            )
            phases.append(phase)

        return DiscoveryRun(
            rules=rules,
            phases=phases,
            num_patterns=len(patterns),
            num_proposals=num_proposals,
            executor=resolved,
            violations=violations,
            capped_rules=capped_rules,
        )

    def _confirm_mined(
        self, rules, patterns, probes, groups, plan, workers,
        backend, materialiser, probe_key,
    ) -> Tuple[Set[Violation], DiscoveryPhase]:
        """Validate the mined Σ over the mining plan.

        Mined rules inherit their probes' patterns, pivots and blocks, so
        detection runs the mining units themselves under a ``detect``
        phase whose groups hold the mined members — same slots, same
        block node sets.  Per-slot
        ``needed`` is therefore a subset of what mining left resident:
        the pass ships zero block-shares, only the mined Σ itself.  Each
        unit enumerates its witnesses afresh with VF2 over its warm block
        (the Σ swap keeps the block's matchers).  Probes prefix the
        shipped Σ so leader indices keep naming the enumerated pattern;
        dependency-free probes produce no violations.
        """
        mined = [mined_rule.gfd for mined_rule in rules]
        confirm_sigma = probes + mined
        pattern_pos = {id(pattern): i for i, pattern in enumerate(patterns)}
        mined_by_pattern: Dict[int, List[int]] = {}
        for offset, gfd in enumerate(mined):
            mined_by_pattern.setdefault(
                pattern_pos[id(gfd.pattern)], []
            ).append(len(probes) + offset)
        confirm_groups: Dict[int, SharedGroup] = {}  # by leader index
        for group in groups:
            members = []
            for member in group.members:
                inverse = {v: k for k, v in member.iso.items()}
                for sigma_index in mined_by_pattern.get(member.index, ()):
                    gfd = confirm_sigma[sigma_index]
                    members.append(GroupMember(
                        index=sigma_index,
                        iso=member.iso,
                        lhs=tuple(l.rename(inverse) for l in gfd.lhs),
                        rhs=tuple(l.rename(inverse) for l in gfd.rhs),
                    ))
            if members:
                confirm_groups[group.leader_index] = SharedGroup(
                    leader_index=group.leader_index, members=tuple(members)
                )
        confirm_plan = [
            [unit for unit in slot if unit.group.leader_index in confirm_groups]
            for slot in plan
        ]
        confirm_key = ("sigma:mined", probe_key, tuple(mined))
        phase_started = time.perf_counter()
        if materialiser is not None:
            self._shared_materialiser(confirm_sigma)  # the Σ swap
        cluster = SimulatedCluster(workers, self.cost_model)
        results = run_units(
            confirm_sigma, self.graph, confirm_plan, cluster, backend,
            sigma_key=confirm_key,
            phase=UnitPhase(kind="detect", groups=confirm_groups),
        )
        violations: Set[Violation] = set()
        for result in results:
            violations |= result.violations
        phase = DiscoveryPhase(
            phase="confirm",
            report=cluster.report(),
            num_units=sum(len(slot) for slot in confirm_plan),
            executor=backend.name,
            shipping=backend.last_shipping,
            cache=materialiser.take_stats() if materialiser else None,
            wall_seconds=time.perf_counter() - phase_started,
            vf2_units=sum(result.vf2_units for result in results),
        )
        return violations, phase

    def _mining_workload(
        self,
        max_edges: int,
        top_edges: int,
        fragmentation: Optional[Fragmentation],
    ) -> Tuple[List, List[GFD], List[SharedGroup], List[WorkUnit]]:
        """Candidate patterns + probe workload, cached like ``_units``.

        Cached per (graph version, mining parameters, fragmentation), so
        warm repeated ``discover()`` calls reuse the pattern objects, the
        isomorphism groups and the estimated units; the estimation cost
        is still charged to each run's cluster by the caller.
        """
        key = (
            self.graph._version, max_edges, top_edges,
            fragmentation.fingerprint() if fragmentation is not None else None,
        )
        entry = self._mining_cache.get(key)
        if entry is None:
            patterns = candidate_patterns(
                self.graph, max_edges=max_edges, top_edges=top_edges
            )
            probes = probe_gfds(patterns)
            groups = build_shared_groups(probes)
            units = estimate_workload(
                probes, self.graph, groups=groups,
                fragmentation=fragmentation,
            )
            entry = (patterns, probes, groups, units)
            self._mining_cache[key] = entry
            while len(self._mining_cache) > 2:
                self._mining_cache.pop(next(iter(self._mining_cache)))
        return entry

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _shared_materialiser(self, sigma: Sequence[GFD]) -> BlockMaterialiser:
        """The session-wide block cache serving rule set ``sigma``.

        Guarded by the graph version: out-of-band *structural* mutations
        (not routed through :meth:`update`) drop every cached block,
        mirroring what ``ShardCache.sync`` does for worker shards — warm
        state is never trusted past a version the session did not
        witness.  (Attribute edits don't bump the version and must go
        through :meth:`update`.)  A rule-set change applies a worker
        slot's Σ-swap rule (``_ResidentShard.swap_sigma``): the matchers
        of the outgoing and the incoming Σ stay, older ones go, so
        varied discovers cannot pile matchers up.
        """
        if self._materialiser is None:
            self._materialiser = BlockMaterialiser(self.graph)
            self._materialiser_version = self.graph._version
        elif self._materialiser_version != self.graph._version:
            self._materialiser.clear()
            self._materialiser_version = self.graph._version
        previous = self._materialiser_sigma
        if sigma is not previous:
            if previous is not None:
                self._materialiser.keep_matchers(
                    {gfd.pattern for gfd in (*previous, *sigma)}
                )
            self._materialiser_sigma = sigma
        return self._materialiser

    def _started_pool(self, processes: Optional[int]) -> MultiprocessExecutor:
        """The session's started worker pool, for a process run.

        A per-call ``processes`` override that differs from the live
        pool's restarts the pool at the new size — slot→process pinning
        (``w % size``) changes with the size, and the pool's shard mirror
        goes with the old pool.
        """
        if (
            self._pool is not None
            and self._pool.running
            and processes != self._pool.processes
        ):
            self._pool.shutdown()
            self._pool = None
        if self._pool is None:
            self._pool = MultiprocessExecutor(
                processes=processes,
                ship_mode=self.ship_mode,
                fault_policy=self.fault_policy,
            )
        return self._pool.start()

    def _units(
        self,
        cluster: SimulatedCluster,
        optimize: bool,
        fragmentation: Optional[Fragmentation] = None,
    ) -> List[WorkUnit]:
        """``W(Σ, G)``, cached per (graph version, grouping, fragmentation).

        The estimation cost is charged to ``cluster`` whether the units
        came from cache or not — warm runs report the same figures.
        """
        key = (
            self.graph._version,
            optimize,
            fragmentation.fingerprint() if fragmentation is not None else None,
        )
        units = self._units_cache.get(key)
        if units is None:
            groups = (
                build_shared_groups(self.sigma)
                if optimize
                else singleton_groups(self.sigma)
            )
            units = estimate_workload(
                self.sigma, self.graph, groups=groups,
                fragmentation=fragmentation,
            )
            # A few live entries, FIFO-bounded: alternating replicated/
            # fragmented runs (bench --repeat) stay warm, stale graph
            # versions age out instead of accumulating.
            self._units_cache[key] = units
            while len(self._units_cache) > 4:
                self._units_cache.pop(next(iter(self._units_cache)))
        cluster.charge_estimation([unit.block_size for unit in units])
        return units

    @staticmethod
    def _split(units, optimize, split_threshold):
        if not optimize:
            return units
        threshold = split_threshold
        if threshold is None:
            mean = (
                sum(u.block_size for u in units) / len(units) if units else 0.0
            )
            threshold = int(mean * SPLIT_FACTOR) or 0
        if threshold:
            units = split_oversized(units, threshold)
        return units

    def _replicated_plan(
        self, units, n, assignment, optimize, split_threshold, seed,
    ) -> Tuple[int, List, PlanKey]:
        """The split, partitioned plan: ``(unit count, plan, plan key)``.

        Cached per graph version and run options, and dropped by every
        :meth:`update`, so a repeated validate re-plans nothing and its
        :class:`~repro.parallel.executors.PlanKey` lets warm worker
        slots run the units they already hold.
        """
        key = (
            self.graph._version, n, assignment, optimize, split_threshold,
            seed,
        )
        entry = self._plan_cache.get(key)
        if entry is None:
            units = self._split(units, optimize, split_threshold)
            if assignment == "balanced":
                plan, _ = lpt_partition(units, n)
            elif assignment == "random":
                plan, _ = random_partition(units, n, seed=seed)
            else:
                raise ValueError(
                    f"unknown assignment strategy {assignment!r}"
                )
            entry = (len(units), plan, PlanKey(plan))
            self._plan_cache[key] = entry
            while len(self._plan_cache) > 4:
                self._plan_cache.pop(next(iter(self._plan_cache)))
        return entry

    def _validate_replicated(
        self, n, assignment, optimize, split_threshold, seed, executor,
        processes,
    ) -> ValidationRun:
        graph = self.graph
        cluster = SimulatedCluster(n, self.cost_model)
        units = self._units(cluster, optimize)
        num_units, plan, plan_key = self._replicated_plan(
            units, n, assignment, optimize, split_threshold, seed
        )
        cluster.charge_partitioning(num_units)

        resolved = resolve_executor(executor, plan, processes)
        if resolved == "simulated":
            materialiser = self._shared_materialiser(self.sigma)
            backend = SimulatedExecutor(materialiser)
        else:
            materialiser, backend = None, self._started_pool(processes)
        violations = run_assignment(
            self.sigma, graph, plan, cluster, backend,
            sigma_key=_BASE_SIGMA_KEY, plan_key=plan_key,
        )
        return ValidationRun(
            violations=violations,
            report=cluster.report(),
            num_units=num_units,
            algorithm=_rep_name(assignment, optimize),
            executor=resolved,
            shipping=backend.last_shipping,
            cache=materialiser.take_stats() if materialiser else None,
        )

    def _check_fragmentation(self, fragmentation: Fragmentation) -> None:
        """Reject fragmentations a fragmented run cannot trust.

        Edge-only staleness is tolerated exactly as the stateless API
        always did (fragment block-share records go mildly stale); an
        owner map that no longer covers the graph would crash deep
        inside workload estimation, so fail it clearly.  The scan result
        is cached per (fragmentation, version) so warm repeated runs pay
        it once.
        """
        graph = self.graph
        if fragmentation.graph is not graph:
            raise ValueError(
                "fragmentation was cut from a different graph than this "
                "session's"
            )
        check_key = (fragmentation.fingerprint(), graph._version)
        if (
            fragmentation.built_version != graph._version
            and self._frag_checked != check_key
        ):
            orphans = sum(
                1 for node in graph.nodes() if node not in fragmentation.owner
            )
            if orphans:
                raise ValueError(
                    f"fragmentation does not cover {orphans} node(s) added "
                    "since it was cut; re-cut it — e.g. hash_partition/"
                    "greedy_edge_cut_partition — before the next fragmented "
                    "validate()"
                )
            self._frag_checked = check_key

    def _validate_fragmented(
        self, fragmentation, assignment, optimize, split_threshold, seed,
        executor, processes,
    ) -> ValidationRun:
        graph = self.graph
        self._check_fragmentation(fragmentation)
        n = fragmentation.n
        cluster = SimulatedCluster(n, self.cost_model)
        units = self._units(cluster, optimize, fragmentation=fragmentation)
        # Partial units travel fragment → coordinator: one message per
        # fragment per GFD group, payload ∝ number of local candidates.
        cluster.charge_planning(len(units) * cluster.cost.estimate_cost)
        units = self._split(units, optimize, split_threshold)

        if assignment == "bicriteria":
            plan, _, _ = bicriteria_assign(units, n)
        elif assignment == "random":
            plan, _, _ = random_assign(units, n, seed=seed)
        elif assignment == "balance_only":
            plan, _, _ = balance_only_assign(units, n)
        else:
            raise ValueError(f"unknown assignment strategy {assignment!r}")
        # Bi-criteria assignment is the heavier coordinator phase:
        # O(n·|W|² log |W|) per Proposition 13, softened as in disval.py.
        w = max(1, len(units))
        cluster.charge_planning(
            cluster.cost.partition_unit_cost * n * w * math.log2(w + 1)
        )

        resolved = resolve_executor(executor, plan, processes)
        # One materialiser for both the shipment estimate and detection,
        # shared across the session's runs (warm blocks, per-run stats).
        materialiser = self._shared_materialiser(self.sigma)
        _charge_data_shipment(
            self.sigma, fragmentation, plan, cluster, materialiser
        )
        backend = (
            SimulatedExecutor(materialiser) if resolved == "simulated"
            else self._started_pool(processes)
        )
        violations = run_assignment(
            self.sigma, graph, plan, cluster, backend,
            sigma_key=_BASE_SIGMA_KEY, ship_partial_matches=True,
        )
        return ValidationRun(
            violations=violations,
            report=cluster.report(),
            num_units=len(units),
            algorithm=_dis_name(assignment, optimize),
            executor=resolved,
            shipping=backend.last_shipping,
            cache=materialiser.take_stats(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        pool = "up" if self._pool is not None and self._pool.running else "down"
        return (
            f"ValidationSession(|Σ|={len(self.sigma)}, |G|={self.graph.size}, "
            f"executor={self.executor!r}, pool={pool})"
        )


def _gather_match_lists(
    results, by_leader, indices, max_matches: int
) -> Tuple[Dict[int, List[dict]], Dict[int, int]]:
    """Union match-shipping mine payloads per candidate pattern.

    Gathers matches for the patterns named by ``indices`` only (pivot
    candidates partition the match space, so this is a disjoint union)
    from each slot's one payload per group (``by_leader`` maps a leader
    index to its group), translating leader-space matches into each
    member pattern's variables.  Accumulation is compacted to the
    canonical ``max_matches`` smallest once a bucket overflows the
    floor, so coordinator memory stays O(patterns × max_matches) —
    compacting to the n-smallest commutes with unioning more matches,
    so the final canonical selection is unchanged.  Returns
    ``(matches, totals)``; ``totals`` counts every match (pre-cap),
    which is what decides whether the ``max_matches`` cap bit.
    """
    compact_floor = max(2 * max_matches, 4096)
    raw_matches: Dict[int, List[dict]] = {index: [] for index in indices}
    raw_counts: Dict[int, int] = {index: 0 for index in raw_matches}
    for result in results:
        for leader, payload in result.payloads.items():
            for position, member in enumerate(by_leader[leader].members):
                bucket = raw_matches.get(member.index)
                if bucket is None:
                    continue
                if payload[0] == "shared":
                    # Leader-space matches: translate per member.
                    iso = member.iso
                    bucket.extend(
                        {iso[var]: node for var, node in items}
                        for items in payload[1]
                    )
                    raw_counts[member.index] += len(payload[1])
                else:  # "members": worker already translated + capped
                    _, total, per_member = payload
                    bucket.extend(
                        dict(items) for items in per_member[position]
                    )
                    raw_counts[member.index] += total
                if len(bucket) > compact_floor:
                    raw_matches[member.index] = canonical_matches(
                        bucket, cap=max_matches
                    )
    return raw_matches, raw_counts


def _rep_name(assignment: str, optimize: bool) -> str:
    if assignment == "random":
        return "repran"
    return "repVal" if optimize else "repnop"


def _dis_name(assignment: str, optimize: bool) -> str:
    if assignment == "random":
        return "disran"
    if assignment == "balance_only":
        return "disbal"
    return "disVal" if optimize else "disnop"
