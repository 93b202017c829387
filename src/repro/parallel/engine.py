"""Shared execution machinery for ``repVal`` and ``disVal``.

Executes assigned work units for real (local error detection, Section 6.1
``localVio`` / Section 6.2 ``dlovalVio``), charging measured costs to the
simulated cluster.  Detection inside a unit:

1. materialise the data block ``G_z̄`` (induced subgraph of the block's
   node set);
2. for every pivot-variable permutation of the candidate tuple within its
   symmetry classes (re-expanding Example 10's deduplication), enumerate
   matches of the group leader's pattern pinned to the pivot candidate;
3. evaluate every group member's dependency on each match; collect
   violations under the member's own GFD name and variables.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executors import (
        MatchStore,
        MultiprocessExecutor,
        ShardCache,
        ShippingStats,
    )
    from .faults import FaultPolicy

from ..graph.graph import NodeId, PropertyGraph
from ..graph.updates import apply_op, is_structural, op_nodes
from ..matching.locality import candidate_permutations
from ..matching.vf2 import _NO_MATCH, MatchStats, SubgraphMatcher
from ..core.discovery import EvidenceAggregate, match_items_key
from ..core.gfd import GFD
from ..core.satisfaction import match_satisfies_all
from ..core.validation import Violation, det_vio, make_violation
from .cluster import ClusterReport, CostModel, SimulatedCluster
from .workload import WorkUnit

#: partial matches are far denser than raw block data: a replica of a
#: split unit ships roughly this fraction of its block-size equivalent.
PARTIAL_MATCH_SHIP_FACTOR = 0.25


@dataclass
class UnitResult:
    """Outcome of executing one work unit.

    ``violations`` is populated by ``detect`` units; mining units leave
    it empty and return their data — matches or dependency tallies — in
    ``payload`` (a value-comparable tuple, so results stay identical
    across execution backends).  ``steps`` counts full-enumeration
    extensions for every kind.  ``enumerated`` records whether a VF2
    enumeration actually ran for this unit — ``False`` for match-store
    replays and factorised evaluation; the session surfaces the per-
    phase sum as :attr:`repro.session.DiscoveryPhase.vf2_units`.
    """

    violations: Set[Violation]
    steps: int
    block_size: int
    payload: Optional[tuple] = None
    enumerated: bool = False


@dataclass
class MaterialiserStats:
    """One run's share of a :class:`BlockMaterialiser`'s activity.

    A session shares one materialiser across ``validate()`` calls, so the
    cumulative counters on the materialiser itself span runs; this is the
    per-run slice (taken via :meth:`BlockMaterialiser.take_stats`) that
    keeps cluster reports comparable between warm and cold runs.

    ``patched`` counts cached blocks updated *in place* by
    :meth:`BlockMaterialiser.apply_ops` — the targeted-invalidation path
    that replaced wholesale clears under ``session.update()`` — one
    count per (op, affected block) pair.  A warm cache absorbing an
    update stream shows ``patched > 0`` with ``builds == 0``.
    """

    builds: int = 0
    hits: int = 0
    evictions: int = 0
    patched: int = 0

    def merge(self, other: "MaterialiserStats") -> "MaterialiserStats":
        """Fold another slice in (worker replies aggregate per run)."""
        self.builds += other.builds
        self.hits += other.hits
        self.evictions += other.evictions
        self.patched += other.patched
        return self


@dataclass
class ValidationRun:
    """The result of a parallel validation: ``Vio(Σ, G)`` plus the costs.

    ``report.parallel_time`` is the quantity the paper's figures plot;
    ``violations`` is exact (every unit is executed for real).
    ``executor`` records which execution backend actually ran the units —
    ``"simulated"`` (serial, cost-accounted) or ``"process"`` (real
    worker processes); both produce identical violations and reports
    (see :mod:`repro.parallel.executors`).  Session-produced runs carry
    two extras: ``shipping`` (what the process pool shipped — zero on a
    fully warm run) and ``cache`` (this run's block-materialiser
    activity).
    """

    violations: Set[Violation]
    report: ClusterReport
    num_units: int
    algorithm: str
    executor: str = "simulated"
    shipping: Optional["ShippingStats"] = None
    cache: Optional[MaterialiserStats] = None

    @property
    def parallel_time(self) -> float:
        """Convenience alias for ``report.parallel_time``."""
        return self.report.parallel_time


#: total block size (``|V| + |E|``, the paper's measure) retained per run:
#: bounds BlockMaterialiser's peak memory at O(budget) instead of
#: O(sum of all distinct blocks), while the typical repVal/disVal run —
#: many small, heavily-shared pivot blocks — stays fully cached.
BLOCK_CACHE_BUDGET = 200_000


class BlockMaterialiser:
    """Per-run size-bounded LRU cache of data blocks and their matchers.

    Symmetric pivot candidates and split units repeatedly name the same
    ``G_z̄``; materialising a block therefore builds its induced subgraph
    and its :class:`GraphSnapshot` once per distinct node set (within the
    cache budget), and one indexed matcher per ``(leader pattern, block)``
    — instead of re-deriving adjacency structure and candidate sets per
    work unit.  Least-recently-used blocks are evicted once the summed
    block size exceeds :data:`BLOCK_CACHE_BUDGET`, so peak memory is
    bounded by the budget, not by the number of distinct blocks in the
    run (an evicted block is simply rebuilt on its next use).

    A cached block holds at most one matcher per distinct leader pattern
    run over it, each sized ``O(|Q| · |block|)``.  Matchers are keyed by
    pattern content, so they can outlive a rule-set swap: a worker slot
    calls :meth:`keep_matchers` with the patterns of the outgoing and
    the incoming Σ, so each discovery phase reuses the candidate sets
    and factorised plans an earlier one compiled, while the matchers of
    older rule sets go.  Per block, the retained matchers are therefore
    bounded by the patterns of two rule sets; they also go when the
    block is evicted, or when a structural op patches it.

    Concurrency semantics (the coordinator path): one materialiser may be
    shared by concurrently running workers (e.g. the thread-backed
    :func:`~repro.parallel.cluster.run_concurrently` demo).  All cache
    state — the LRU order, the retained-size accounting against the
    single shared budget, and the per-block matcher tables — is guarded
    by one reentrant lock, and a block or matcher is *built while holding
    it*: two workers requesting the same block serialise on the lock and
    the second finds the first's entry, so no duplicate snapshot builds
    occur and ``retained`` never drifts from the cache contents.  Builds
    of *distinct* blocks therefore also serialise — acceptable on the
    coordinator path, where the alternative (duplicate builds racing into
    a shared budget) costs more than it saves.  Worker *processes* never
    share a materialiser; each builds its own over its shard
    (:mod:`repro.parallel.executors`).  ``builds`` counts the block
    materialisations actually performed (cache-miss builds, including
    rebuilds after eviction); tests use it to pin the no-duplicates
    guarantee.
    """

    def __init__(
        self, graph: PropertyGraph, budget: int = BLOCK_CACHE_BUDGET
    ) -> None:
        self.graph = graph
        self.budget = budget
        #: number of block materialisations performed (cache misses),
        #: cumulative over the materialiser's lifetime
        self.builds = 0
        #: cumulative cache hits / LRU evictions
        self.hits = 0
        self.evictions = 0
        #: cumulative in-place block patches (see :meth:`apply_ops`)
        self.patched = 0
        self._retained = 0  #: guarded-by: _lock
        self._lock = threading.RLock()
        self._run_stats = MaterialiserStats()  #: guarded-by: _lock
        #: guarded-by: _lock
        self._cache: "OrderedDict[FrozenSet[NodeId], Tuple[PropertyGraph, Dict[object, SubgraphMatcher]]]" = (
            OrderedDict()
        )

    def take_stats(self) -> MaterialiserStats:
        """Return and reset the *per-run* counters.

        A materialiser shared across session runs keeps its cumulative
        ``builds``/``hits``/``evictions``, but each ``validate()`` call
        must report only its own slice — otherwise a shared cache makes
        later runs' cluster reports look progressively worse.  Call once
        at the end of each run.
        """
        with self._lock:
            stats = self._run_stats
            self._run_stats = MaterialiserStats()
            return stats

    def clear(self) -> None:
        """Drop every cached block/matcher (after graph mutations)."""
        with self._lock:
            self._cache.clear()
            self._retained = 0

    def keep_matchers(self, patterns: "Set[object]") -> None:
        """Drop every cached matcher whose pattern is not in ``patterns``.

        Blocks and snapshots stay warm.  Called on a rule-set swap with
        the patterns of both rule sets, so what the next phase shares
        with the last one stays compiled and nothing older lingers.
        """
        with self._lock:
            for _, matchers in self._cache.values():
                for pattern in [p for p in matchers if p not in patterns]:
                    del matchers[pattern]

    def apply_ops(self, ops: "Sequence[tuple]") -> int:
        """Patch cached blocks in place for a batch of graph update ops.

        A cached block is the induced subgraph over a *fixed* node set,
        so an op affects it iff the set holds every one of its
        :func:`~repro.graph.updates.op_nodes` (a genuinely new node is
        in no key).  Affected blocks are patched in place — snapshots
        follow via ``apply_delta`` — and only *their* matchers are
        dropped, only on structural ops.  Every other block, snapshot and
        matcher stays warm, which keeps a warm cache O(|Δ|) under update
        streams.  Returns the number of (op, block) patches applied; the
        count also lands in ``patched`` and the per-run stats slice.
        """
        patched = 0
        with self._lock:
            for op in ops:
                # one node, or an edge's two endpoints: first and last
                # cover both without a per-block loop
                nodes = op_nodes(op)
                first, last = nodes[0], nodes[-1]
                structural = is_structural(op)
                for key in self._cache:
                    if first not in key or last not in key:
                        continue
                    block, matchers = self._cache[key]
                    before = block.size
                    apply_op(block, op)
                    self._retained += block.size - before
                    if structural:
                        matchers.clear()
                    patched += 1
            self.patched += patched
            self._run_stats.patched += patched
            while self._retained > self.budget and len(self._cache) > 1:
                _, (evicted, _) = self._cache.popitem(last=False)
                self._retained -= evicted.size
                self.evictions += 1
                self._run_stats.evictions += 1
        return patched

    def _entry(
        self, block_nodes: Set[NodeId]
    ) -> Tuple[PropertyGraph, Dict[object, SubgraphMatcher]]:
        key = frozenset(block_nodes)
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                self.hits += 1
                self._run_stats.hits += 1
                return entry
            block = self.graph.induced_subgraph(block_nodes)
            block.snapshot()  # one snapshot per materialised block
            entry = (block, {})
            self._cache[key] = entry
            self.builds += 1
            self._run_stats.builds += 1
            self._retained += block.size
            while self._retained > self.budget and len(self._cache) > 1:
                _, (evicted, _) = self._cache.popitem(last=False)
                self._retained -= evicted.size
                self.evictions += 1
                self._run_stats.evictions += 1
            return entry

    def block(self, block_nodes: Set[NodeId]) -> PropertyGraph:
        """The induced subgraph for ``block_nodes`` (cached, snapshot warm)."""
        return self._entry(block_nodes)[0]

    def matcher(
        self, sigma: Sequence[GFD], leader_index: int, block_nodes: Set[NodeId]
    ) -> Tuple[PropertyGraph, SubgraphMatcher]:
        """The block plus the leader pattern's matcher over it (cached).

        Matchers are keyed by the leader *pattern* (content-hashed via
        its signature), not by its index into ``sigma`` — a materialiser
        shared across rule sets (a session's base Σ, discovery probes,
        mined Σ) therefore never serves a matcher compiled for a
        different pattern, and identical patterns across rule sets share
        one compiled matcher per block.
        """
        block, matchers = self._entry(block_nodes)
        pattern = sigma[leader_index].pattern
        with self._lock:
            matcher = matchers.get(pattern)
            if matcher is None:
                matcher = SubgraphMatcher(pattern, block)
                matchers[pattern] = matcher
        return block, matcher


def execute_unit(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    unit: WorkUnit,
    materialiser: Optional[BlockMaterialiser] = None,
    match_store: Optional["MatchStore"] = None,
) -> UnitResult:
    """Execute one (primary) work unit per its :attr:`WorkUnit.kind`.

    All kinds share the same locality machinery — materialise the block,
    re-expand the pivot candidate's symmetry permutations, enumerate the
    leader pattern's pinned matches — and differ only in what they do
    per match: ``detect`` evaluates member dependencies into violations,
    ``mine`` folds or returns the matches, ``count`` tallies proposed
    dependencies (see :mod:`repro.core.discovery`).

    ``match_store`` (a :class:`~repro.parallel.executors.MatchStore`)
    short-circuits the enumeration itself: ``mine`` units deposit their
    enumerated matches, and any later unit naming the same ``(leader
    pattern, pivot candidate, block)`` — discovery's ``count`` and
    ``confirm`` phases over an unchanged shard — *replays* the resident
    matches instead of re-running VF2.  Replayed units charge the
    entry's recorded ``steps``, which equals what a fresh enumeration
    would measure (step counts are enumeration-order-free), so results
    and cost reports are replay-invariant; an evicted or never-stored
    entry transparently falls back to enumeration.
    """
    if materialiser is None:
        materialiser = BlockMaterialiser(graph)
    if unit.kind == "detect":
        return _execute_detect(sigma, unit, materialiser, match_store)
    if unit.kind == "mine":
        return _execute_mine(sigma, unit, materialiser, match_store)
    if unit.kind == "count":
        return _execute_count(sigma, unit, materialiser, match_store)
    raise ValueError(f"unknown work-unit kind {unit.kind!r}")


def _pinned_matches(sigma, unit, materialiser, stats):
    """Pivoted leader-pattern matches of a unit (symmetry re-expanded)."""
    block, matcher = materialiser.matcher(
        sigma, unit.group.leader_index, unit.block_nodes
    )
    leader = sigma[unit.group.leader_index]

    def generate():
        for pinned in candidate_permutations(
            leader.pattern, leader.pivot, unit.pivot_assignment
        ):
            yield from matcher.matches(fixed=pinned, stats=stats)

    return block, generate()


def _store_key(sigma: Sequence[GFD], unit: WorkUnit) -> tuple:
    """A unit's enumeration identity: (leader pattern, pivot, block).

    Keyed by pattern *content* (signature hash), not by Σ-index — the
    same triple enumerates the same match set whichever rule set is
    live, so a hit is always semantically safe across discovery's
    probe/mined Σ swaps.
    """
    return (
        sigma[unit.group.leader_index].pattern,
        unit.assignment,
        unit.block_nodes,
    )


def _replayed(sigma, unit, materialiser, match_store):
    """The unit's resident ``(steps, match items, block)``, if stored."""
    if match_store is None:
        return None
    stored = match_store.get(_store_key(sigma, unit))
    if stored is None:
        return None
    steps, items = stored
    return steps, items, materialiser.block(unit.block_nodes)


def _execute_detect(
    sigma: Sequence[GFD],
    unit: WorkUnit,
    materialiser: BlockMaterialiser,
    match_store: Optional["MatchStore"] = None,
) -> UnitResult:
    """Local error detection (the original unit semantics).

    With a match store, a unit whose enumeration is resident (discovery's
    ``confirm`` phase re-skins mining units as ``detect``) replays it —
    the mined-Σ validation pass then runs zero VF2 on warm blocks.
    """
    replay = _replayed(sigma, unit, materialiser, match_store)
    if replay is not None:
        steps, items, block = replay
        matches = (dict(match_items) for match_items in items)
    else:
        stats = MatchStats()
        block, matches = _pinned_matches(sigma, unit, materialiser, stats)
    violations: Set[Violation] = set()
    for match in matches:
        for member in unit.group.members:
            if not match_satisfies_all(block, match, member.lhs):
                continue
            if match_satisfies_all(block, match, member.rhs):
                continue
            member_gfd = sigma[member.index]
            member_match = {
                member.iso[var]: node for var, node in match.items()
            }
            violations.add(make_violation(member_gfd, member_match))
    return UnitResult(
        violations=violations,
        steps=steps if replay is not None else stats.steps,
        block_size=unit.block_size,
        enumerated=replay is None,
    )


def _factorised_mine(
    sigma: Sequence[GFD],
    unit: WorkUnit,
    materialiser: BlockMaterialiser,
    strict: bool,
) -> Optional[UnitResult]:
    """The aggregate mine result by factorised evaluation, if possible.

    Sums the leader pattern's evidence over the unit's re-expanded pivot
    permutations straight off the block's factorised plan — no VF2, and
    nothing deposited in the match store (there are no matches to
    retain; later phases on the factorised path don't replay either).
    Returns ``None`` when the pattern does not factorise on this block
    (``strict`` raises instead — the ``eval_mode="factorised"``
    contract).
    """
    block, matcher = materialiser.matcher(
        sigma, unit.group.leader_index, unit.block_nodes
    )
    plan = matcher.factorised_plan()
    if plan is None:
        if strict:
            raise ValueError(
                "eval_mode='factorised' but the unit's leader pattern "
                "does not factorise"
            )
        return None
    leader = sigma[unit.group.leader_index]
    stats = MatchStats()
    count = 0
    aggregate = EvidenceAggregate()
    for pinned in candidate_permutations(
        leader.pattern, leader.pivot, unit.pivot_assignment
    ):
        restrict = matcher._pin_indices(pinned)
        if restrict is _NO_MATCH:
            continue
        pin_count, pin_aggregate = plan.evidence(block, restrict, stats=stats)
        count += pin_count
        aggregate.merge(pin_aggregate)
    return UnitResult(
        violations=set(),
        steps=stats.steps,
        block_size=unit.block_size,
        payload=("agg", count, aggregate.to_payload()),
    )


def _factorised_count(
    sigma: Sequence[GFD],
    unit: WorkUnit,
    materialiser: BlockMaterialiser,
    member_deps,
    strict: bool,
) -> Optional[UnitResult]:
    """The count-unit tallies by factorised evaluation, if possible.

    Falls back (``None``) as one whole unit — pattern not factorisable,
    a member candidate spanning more than two variables, or unhashable
    attribute values — so the enumeration fallback stays a single
    shared VF2 walk over all members, exactly as before.
    """
    block, matcher = materialiser.matcher(
        sigma, unit.group.leader_index, unit.block_nodes
    )
    plan = matcher.factorised_plan()
    shapes = (
        [plan.compile_tallies(deps) for deps in member_deps]
        if plan is not None else None
    )
    if shapes is None or any(shape is None for shape in shapes):
        if strict:
            raise ValueError(
                "eval_mode='factorised' but the unit does not factorise "
                "(cyclic pattern or unsupported dependency forms)"
            )
        return None
    leader = sigma[unit.group.leader_index]
    stats = MatchStats()
    counts = [[[0, 0] for _ in deps] for deps in member_deps]
    for pinned in candidate_permutations(
        leader.pattern, leader.pivot, unit.pivot_assignment
    ):
        restrict = matcher._pin_indices(pinned)
        if restrict is _NO_MATCH:
            continue
        # One elimination per pin serves every member's tallies; each
        # member is still charged what its own elimination would cost.
        elimination = plan.eliminate(restrict)
        for member_pos, (deps, shape) in enumerate(zip(member_deps, shapes)):
            tallies = plan.tallies(
                block, deps, shape, elimination, stats=stats
            )
            if tallies is None:
                if strict:
                    raise ValueError(
                        "eval_mode='factorised' but a dependency "
                        "candidate's attribute values are unhashable"
                    )
                return None
            for tally, (supported, satisfied) in zip(
                counts[member_pos], tallies
            ):
                tally[0] += supported
                tally[1] += satisfied
    return UnitResult(
        violations=set(),
        steps=stats.steps,
        block_size=unit.block_size,
        payload=_sparse_tallies(counts),
    )


def _sparse_tallies(counts) -> tuple:
    """The count result payload: per member, supported-only triples."""
    return tuple(
        tuple(
            (dep_pos, supported, satisfied)
            for dep_pos, (supported, satisfied) in enumerate(deps)
            if supported
        )
        for deps in counts
    )


def _match_list_payload(
    items: Sequence[Tuple], count: int, cap: Optional[int], members
) -> tuple:
    """The match-shipping payload for a complete canonical match list.

    Mirrors the incremental selection of :func:`_execute_mine`'s
    enumeration path (same threshold, same per-member canonical cap), so
    a replayed unit ships the byte-identical payload a fresh enumeration
    would have.
    """
    threshold = max(2 * cap, 4096) if cap is not None else None
    if threshold is None or count <= threshold:
        return ("shared", tuple(items))
    return (
        "members",
        count,
        tuple(
            tuple(
                heapq.nsmallest(
                    cap,
                    (
                        tuple(sorted((member.iso[var], node)
                                     for var, node in match_items))
                        for match_items in items
                    ),
                    key=match_items_key,
                )
            )
            for member in members
        ),
    )


def _execute_mine(
    sigma: Sequence[GFD],
    unit: WorkUnit,
    materialiser: BlockMaterialiser,
    match_store: Optional["MatchStore"] = None,
) -> UnitResult:
    """Discovery's enumeration phase: fold or return the pivoted matches.

    The result payload is a pure value — equal across execution backends
    and enumeration orders.  Pivot candidates partition the match space
    (each match pins the pivot variables at exactly one deduplicated
    candidate), so merging unit payloads over a plan covers every match
    of the leader pattern exactly once.

    ``unit.payload`` is ``(max_matches, mode)``:

    * ``mode="aggregate"`` (discovery's default): matches are folded
      worker-side into a mergeable
      :class:`~repro.core.discovery.EvidenceAggregate` and the unit
      ships ``("agg", count, aggregate_payload)`` — ``O(vars × attrs)``
      however many matches the block holds.  The enumerated matches are
      deposited in ``match_store`` (budget permitting) so the later
      ``count``/``confirm`` phases replay them.
    * ``mode="matches"``: the match list itself ships — the documented
      fallback the coordinator requests when a pattern's ``max_matches``
      cap bites (support/confidence must then be counted over the
      canonical capped subset only the coordinator can select) or when
      an explicit seeded evidence sample is requested.  The common case
      — a block with at most ~2×cap matches — ships ``("shared",
      matches)`` in *leader* variable space, translated per member on
      the coordinator.  A pathological block with more matches switches
      to ``("members", total_count, per_member)``: matches are
      translated into each member's variable space *on the worker* and
      kept as the member-space canonical ``cap``-smallest (the cap must
      be taken per member — variable renaming permutes the canonical
      order, so a leader-space cut could drop a member's smallest
      matches).  Either way worker memory and the shipped payload stay
      ``O(members × cap)``, and the per-unit selection commutes with
      the coordinator's global canonical cap.

    A resident entry (a warm repeated ``discover()``, or the capped
    fallback re-requesting matches the aggregate pass already
    enumerated) replays instead of re-running VF2 on either mode.
    """
    payload_in = unit.payload or ()
    cap = payload_in[0] if payload_in else None
    mode = payload_in[1] if len(payload_in) > 1 else "matches"
    members = unit.group.members

    replay = _replayed(sigma, unit, materialiser, match_store)
    if replay is not None:
        steps, items, block = replay
        if mode == "aggregate":
            aggregate = EvidenceAggregate()
            for match_items in items:
                aggregate.add(block, dict(match_items))
            payload = ("agg", len(items), aggregate.to_payload())
        else:
            payload = _match_list_payload(items, len(items), cap, members)
        return UnitResult(
            violations=set(),
            steps=steps,
            block_size=unit.block_size,
            payload=payload,
        )

    if mode == "aggregate" and unit.eval_mode != "enumerate":
        result = _factorised_mine(
            sigma, unit, materialiser,
            strict=unit.eval_mode == "factorised",
        )
        if result is not None:
            return result

    stats = MatchStats()
    block, matches = _pinned_matches(sigma, unit, materialiser, stats)

    if mode == "aggregate":
        aggregate = EvidenceAggregate()
        # Retain the canonical items for the resident store while they
        # fit its budget; past it, keep folding without retention (the
        # later phases then fall back to re-enumeration).
        retain_limit = match_store.budget if match_store is not None else 0
        found: Optional[List[Tuple]] = [] if retain_limit else None
        count = 0
        for match in matches:
            count += 1
            aggregate.add(block, match)
            if found is not None:
                found.append(tuple(sorted(match.items())))
                if len(found) > retain_limit:
                    found = None
        if found is not None and match_store is not None:
            found.sort(key=match_items_key)
            match_store.put(_store_key(sigma, unit), stats.steps,
                            tuple(found))
        return UnitResult(
            violations=set(),
            steps=stats.steps,
            block_size=unit.block_size,
            payload=("agg", count, aggregate.to_payload()),
            enumerated=True,
        )

    threshold = max(2 * cap, 4096) if cap is not None else None
    found = []
    per_member: Optional[List[List[Tuple]]] = None
    count = 0

    def translate(items, member):
        return tuple(sorted((member.iso[var], node) for var, node in items))

    for match in matches:
        count += 1
        items = tuple(sorted(match.items()))
        if per_member is None:
            found.append(items)
            if threshold is not None and len(found) > threshold:
                per_member = [
                    [translate(m, member) for m in found]
                    for member in members
                ]
                found = None
        else:
            for bucket, member in zip(per_member, members):
                bucket.append(translate(items, member))
            # Amortised overflow handling: pruning to the cap-smallest
            # commutes with appending more matches, so letting a bucket
            # run to 2×threshold before compacting keeps the final
            # selection identical while costing O(n log cap) overall
            # instead of O(n · cap) re-heaps (one per append).
            for pos, bucket in enumerate(per_member):
                if len(bucket) > 2 * threshold:
                    per_member[pos] = heapq.nsmallest(
                        cap, bucket, key=match_items_key
                    )
    if per_member is None:
        found.sort(key=match_items_key)
        found = tuple(found)
        if match_store is not None:
            match_store.put(_store_key(sigma, unit), stats.steps, found)
        payload = ("shared", found)
    else:
        payload = (
            "members",
            count,
            tuple(
                tuple(heapq.nsmallest(cap, bucket, key=match_items_key))
                for bucket in per_member
            ),
        )
    return UnitResult(
        violations=set(),
        steps=stats.steps,
        block_size=unit.block_size,
        payload=payload,
        enumerated=True,
    )


def _execute_count(
    sigma: Sequence[GFD],
    unit: WorkUnit,
    materialiser: BlockMaterialiser,
    match_store: Optional["MatchStore"] = None,
) -> UnitResult:
    """Discovery's counting phase: tally proposed dependencies.

    ``unit.payload`` carries, per group member, the member's proposed
    ``(lhs, rhs)`` candidates *rewritten into leader variable space* (the
    same alignment detection uses), so one pinned enumeration of the
    leader pattern serves every member's tallies.  The result payload is
    *sparse*: per member, ``(dep_pos, supported, satisfied)`` triples for
    the candidates some match actually supported — a typical pivot block
    supports few of the proposed premises, so dense zero rows would
    dominate the tally traffic (``satisfied`` can only tick inside a
    supported match, so ``supported == 0`` implies nothing to report).

    On a warm shard the enumeration the ``mine`` phase deposited in the
    match store replays here — the counting phase of a persistent-pool
    ``discover()`` runs zero VF2 on resident blocks.
    """
    member_deps = unit.payload or ()
    counts = [
        [[0, 0] for _ in deps] for deps in member_deps
    ]
    replay = _replayed(sigma, unit, materialiser, match_store)
    if replay is not None:
        steps, items, block = replay
        matches = (dict(match_items) for match_items in items)
    else:
        if unit.eval_mode != "enumerate":
            result = _factorised_count(
                sigma, unit, materialiser, member_deps,
                strict=unit.eval_mode == "factorised",
            )
            if result is not None:
                return result
        stats = MatchStats()
        block, matches = _pinned_matches(sigma, unit, materialiser, stats)
    for match in matches:
        for member_pos, deps in enumerate(member_deps):
            for dep_pos, (lhs, rhs) in enumerate(deps):
                if not match_satisfies_all(block, match, lhs):
                    continue
                tally = counts[member_pos][dep_pos]
                tally[0] += 1
                if match_satisfies_all(block, match, rhs):
                    tally[1] += 1
    return UnitResult(
        violations=set(),
        steps=steps if replay is not None else stats.steps,
        block_size=unit.block_size,
        payload=_sparse_tallies(counts),
        enumerated=replay is None,
    )


def expand_count_payloads(units: Sequence[WorkUnit]) -> List[WorkUnit]:
    """Materialise ``("derive", …)`` count payloads into concrete deps.

    The counting phase's unit inputs are, in the aggregate data path,
    *recipes* rather than literal lists: ``("derive", variables,
    aggregate_payload, max_attrs)`` per group member.  Re-deriving the
    candidate list locally — via the deterministic
    :meth:`~repro.core.discovery.EvidenceAggregate.propose_for_variables`
    — reproduces the coordinator's proposals exactly (same positions,
    same literals), so a slot ships one compact aggregate per pattern
    instead of ``O(proposals)`` literal objects.  Derivation is cached
    per payload object (units of a shared group reference one payload),
    and the derived deps are rewritten into leader variable space
    through each member's stored alignment, exactly as the coordinator
    used to ship them.  Units with concrete payloads pass through
    untouched (the match-shipping fallback keeps the explicit form —
    sampled proposals are not a pure function of the aggregate).
    """
    derived_cache: Dict[int, tuple] = {}
    out: List[WorkUnit] = []
    for unit in units:
        payload = unit.payload
        if (
            unit.kind != "count"
            or not payload
            or not any(spec and spec[0] == "derive" for spec in payload)
        ):
            out.append(unit)
            continue
        concrete = derived_cache.get(id(payload))
        if concrete is None:
            member_deps = []
            for spec, member in zip(payload, unit.group.members):
                if not spec or spec[0] != "derive":
                    member_deps.append(spec or ())
                    continue
                _, variables, aggregate_payload, max_attrs = spec
                aggregate = EvidenceAggregate.from_payload(aggregate_payload)
                inverse = {v: k for k, v in member.iso.items()}
                member_deps.append(tuple(
                    (
                        tuple(lit.rename(inverse) for lit in lhs),
                        tuple(lit.rename(inverse) for lit in rhs),
                    )
                    for lhs, rhs in aggregate.propose_for_variables(
                        variables, max_attrs
                    )
                ))
            concrete = tuple(member_deps)
            derived_cache[id(payload)] = concrete
        out.append(replace(unit, payload=concrete))
    return out


def consolidate_slot_results(
    units: Sequence[WorkUnit], results: Sequence[Optional[UnitResult]]
) -> None:
    """Fold one slot's mergeable result payloads per shared group, in place.

    Mine aggregates and count tallies merge associatively, so a slot
    needs to ship exactly one of each per isomorphism group — not one
    per work unit (pivot blocks are typically small and plentiful, so
    per-unit payload overhead would dominate the wire volume).  The
    first unit of each group becomes the carrier of the merged payload;
    folded units keep their per-unit ``steps`` and ``block_size`` (cost
    charging is untouched) with an empty payload marker (``None`` for
    mine, ``()`` for count — both no-ops for the coordinator's gather).
    Match-shipping mine payloads pass through unmerged: the capped
    fallback needs per-unit granularity for its per-member canonical
    caps.

    ``detect`` units fold the same way: their violation sets merge as a
    plain union, so a slot ships each distinct violation once per group
    instead of once per work unit (pivot blocks overlap, and symmetric
    pivot candidates of one group re-find the same violating matches).
    The coordinator's gather unions every result's violations anyway, so
    folding is invisible to it — only the reply volume shrinks.
    """
    mine_carriers: Dict[int, list] = {}
    count_carriers: Dict[int, list] = {}
    detect_carriers: Dict[int, "UnitResult"] = {}
    for unit, result in zip(units, results):
        if result is None:
            continue
        if unit.kind == "detect":
            carrier = detect_carriers.get(id(unit.group))
            if carrier is None:
                detect_carriers[id(unit.group)] = result
            elif result.violations:
                carrier.violations |= result.violations
                result.violations = set()
            continue
        if result.payload is None:
            continue
        gid = id(unit.group)
        if unit.kind == "mine" and result.payload[0] == "agg":
            entry = mine_carriers.get(gid)
            if entry is None:
                mine_carriers[gid] = [
                    result,
                    result.payload[1],
                    EvidenceAggregate.from_payload(result.payload[2]),
                    False,
                ]
            else:
                entry[1] += result.payload[1]
                entry[2].merge(
                    EvidenceAggregate.from_payload(result.payload[2])
                )
                entry[3] = True
                result.payload = None
        elif unit.kind == "count":
            entry = count_carriers.get(gid)
            if entry is None:
                count_carriers[gid] = [
                    result,
                    [
                        {pos: [sup, sat] for pos, sup, sat in member}
                        for member in result.payload
                    ],
                    False,
                ]
            else:
                for tally, member in zip(entry[1], result.payload):
                    for pos, sup, sat in member:
                        slot_tally = tally.get(pos)
                        if slot_tally is None:
                            tally[pos] = [sup, sat]
                        else:
                            slot_tally[0] += sup
                            slot_tally[1] += sat
                entry[2] = True
                result.payload = ()
    for result, count, aggregate, folded in mine_carriers.values():
        if folded:
            result.payload = ("agg", count, aggregate.to_payload())
    for result, tallies, folded in count_carriers.values():
        if folded:
            result.payload = tuple(
                tuple(
                    (pos, sup, sat)
                    for pos, (sup, sat) in sorted(member.items())
                )
                for member in tallies
            )


def run_assignment(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    assignment: Sequence[Sequence[WorkUnit]],
    cluster: SimulatedCluster,
    ship_partial_matches: bool = False,
    materialiser: Optional[BlockMaterialiser] = None,
    executor: str = "simulated",
    processes: Optional[int] = None,
    pool: Optional["MultiprocessExecutor"] = None,
    shard_cache: Optional["ShardCache"] = None,
    epoch: Optional[str] = None,
    sigma_key: Optional[object] = None,
    ship_mode: str = "auto",
    fault_policy: Optional["FaultPolicy"] = None,
) -> Set[Violation]:
    """Execute a per-worker unit assignment, charging costs as measured.

    Split units (replicate-and-split): the primary executes detection and
    its measured step count is shared across all sub-units with the same
    ``split_id``; replicas are charged their share.  With
    ``ship_partial_matches=True`` (the fragmented setting) replicas are
    additionally charged the partial-match shipment the strategy incurs;
    over a replicated graph the exchange is free (Section 6.1: repVal
    "requires no data exchange").  Primaries are processed first so the
    shares are known when replicas are charged.  ``materialiser`` shares
    block/matcher materialisation across units (one is created per run
    when not supplied; simulated backend only).

    ``executor`` selects how the primary units actually run —
    ``"simulated"`` (serial, in-process), ``"process"`` (real worker
    processes, ``processes`` capping the pool), or ``"auto"`` (see
    :func:`~repro.parallel.executors.resolve_executor`).  ``pool`` lends
    a caller-owned :class:`~repro.parallel.executors.MultiprocessExecutor`
    (a session's persistent pool) to the process backend, with
    ``shard_cache``/``epoch`` enabling warm shard shipping.  ``ship_mode``
    selects how ad-hoc pools ship full shards (pickle vs. shared-memory
    mapping; lent pools keep their own configured mode).  Cost
    charging happens on the coordinator from the per-unit measurements
    either way, so all backends yield identical violations *and*
    identical cluster reports.  ``fault_policy`` configures the process
    backend's supervision plane (see
    :class:`~repro.parallel.faults.FaultPolicy`); recovered runs stay
    on this same canonical folding path, so the guarantee extends to
    runs that lost and respawned workers mid-flight.
    """
    from .executors import execute_plan

    violations: Set[Violation] = set()
    split_steps: Dict[int, int] = {}

    # Pass 1: primaries (every unsplit unit is its own primary), executed
    # by the selected backend; results align 1:1 with the assignment.
    results = execute_plan(
        sigma,
        graph,
        assignment,
        executor=executor,
        processes=processes,
        materialiser=materialiser,
        pool=pool,
        shard_cache=shard_cache,
        epoch=epoch,
        sigma_key=sigma_key,
        ship_mode=ship_mode,
        fault_policy=fault_policy,
    )
    for worker, worker_units in enumerate(assignment):
        for unit, result in zip(worker_units, results[worker]):
            if not unit.primary:
                continue
            violations |= result.violations
            if unit.split_id is not None:
                split_steps[unit.split_id] = result.steps
            cluster.charge_unit(
                worker,
                steps=int(result.steps * unit.cost_share),
                block_size=unit.block_size * unit.cost_share,
            )
    # Pass 2: replicas share the primary's measured cost and ship partial
    # matches between each other.
    for worker, worker_units in enumerate(assignment):
        for unit in worker_units:
            if unit.primary:
                continue
            steps = split_steps.get(unit.split_id, 0)
            cluster.charge_unit(
                worker,
                steps=int(steps * unit.cost_share),
                block_size=unit.block_size * unit.cost_share,
            )
            if ship_partial_matches:
                cluster.ship_to(
                    worker,
                    size=unit.block_size * unit.cost_share
                    * PARTIAL_MATCH_SHIP_FACTOR,
                    messages=1,
                )
    return violations


def run_units(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    plan: Sequence[Sequence[WorkUnit]],
    cluster: SimulatedCluster,
    materialiser: Optional[BlockMaterialiser] = None,
    executor: str = "simulated",
    processes: Optional[int] = None,
    pool: Optional["MultiprocessExecutor"] = None,
    shard_cache: Optional["ShardCache"] = None,
    epoch: Optional[str] = None,
    sigma_key: Optional[object] = None,
    match_store: Optional["MatchStore"] = None,
    ship_mode: str = "auto",
    fault_policy: Optional["FaultPolicy"] = None,
) -> List[List[Optional["UnitResult"]]]:
    """Execute a plan and return the per-unit results, charging costs.

    The result-bearing sibling of :func:`run_assignment`, used by phases
    that consume unit *payloads* (discovery's mine/count phases) rather
    than unioned violations.  Cost charging is the primary-unit part of
    :func:`run_assignment` (mining plans carry no split replicas); the
    backend switches are identical.  ``match_store`` gives the simulated
    backend a coordinator-side resident match store (worker processes
    keep their own; see :func:`execute_unit`).
    """
    from .executors import execute_plan

    results = execute_plan(
        sigma,
        graph,
        plan,
        executor=executor,
        processes=processes,
        materialiser=materialiser,
        pool=pool,
        shard_cache=shard_cache,
        epoch=epoch,
        sigma_key=sigma_key,
        match_store=match_store,
        ship_mode=ship_mode,
        fault_policy=fault_policy,
    )
    for worker, worker_units in enumerate(plan):
        for unit, result in zip(worker_units, results[worker]):
            if not unit.primary or result is None:
                continue
            cluster.charge_unit(
                worker,
                steps=int(result.steps * unit.cost_share),
                block_size=unit.block_size * unit.cost_share,
            )
    return results


def sequential_run(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    cost_model: Optional[CostModel] = None,
    step_budget: Optional[int] = None,
) -> Tuple[Optional[Set[Violation]], float]:
    """``detVio`` with the same cost accounting as the parallel runs.

    Returns ``(violations, cost)``.  With ``step_budget`` set, gives up
    once the matcher exceeds the budget and returns ``(None, cost so
    far)`` — reproducing the paper's "detVio does not terminate within the
    limit" observations without actually burning the time.
    """
    model = cost_model or CostModel()
    stats = MatchStats()
    if step_budget is None:
        violations = det_vio(sigma, graph, stats=stats)
        cost = stats.steps * model.step_cost + graph.size * model.load_cost
        return violations, cost
    violations = set()
    from ..core.validation import violations_of

    for gfd in sigma:
        for violation in violations_of(gfd, graph, stats=stats):
            violations.add(violation)
            if stats.steps > step_budget:
                cost = stats.steps * model.step_cost
                return None, cost
        if stats.steps > step_budget:
            return None, stats.steps * model.step_cost
    cost = stats.steps * model.step_cost + graph.size * model.load_cost
    return violations, cost
