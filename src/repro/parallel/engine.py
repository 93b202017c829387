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
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
    TYPE_CHECKING, Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executors import (
        MultiprocessExecutor,
        PlanKey,
        ShippingStats,
        SimulatedExecutor,
    )
    from .faults import WorkerFaultContext

from ..graph.graph import NodeId, PropertyGraph
from ..graph.updates import apply_op, is_structural, op_nodes
from ..matching.factorised import FactorisedPlan
from ..matching.locality import candidate_permutations, symmetry_classes
from ..matching.vf2 import _NO_MATCH, MatchStats, SubgraphMatcher
from ..core.discovery import EvidenceAggregate, match_items_key
from ..core.gfd import GFD
from ..core.satisfaction import match_satisfies_all
from ..core.validation import Violation, det_vio, make_violation
from .cluster import ClusterReport, CostModel, SimulatedCluster
from .workload import UnitPhase, WorkUnit

#: partial matches are far denser than raw block data: a replica of a
#: split unit ships roughly this fraction of its block-size equivalent.
PARTIAL_MATCH_SHIP_FACTOR = 0.25


@dataclass
class SlotResult:
    """Outcome of executing one plan slot: the unit of result.

    Work units stay the grain of planning and charging (the paper's
    repVal/disVal charge each unit its own cost), so ``steps`` holds
    one entry per primary unit, in slot order: the full-enumeration
    extensions the unit charged.  Everything else is per slot:
    ``vf2_units`` counts the units a VF2 enumeration answered (the
    rest came off resident factorised eliminations; the session
    surfaces the per-phase sum as
    :attr:`repro.session.DiscoveryPhase.vf2_units`), ``violations`` is
    the union of the ``detect`` units' violations, and ``payloads``
    maps each group leader's index to its group's one merged payload:
    the mine aggregate's wire form, the count tallies, or the match
    lists of the capped and sampled fallbacks (see :func:`slot_fold`).
    Payloads are value-comparable,
    so results stay identical across execution backends.
    """

    steps: List[int] = field(default_factory=list)
    vf2_units: int = 0
    violations: Set[Violation] = field(default_factory=set)
    payloads: Dict[int, tuple] = field(default_factory=dict)


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


class _CachedBlock:
    """One cached block: its induced subgraph and what was compiled on it.

    ``matchers`` maps a leader pattern to its matcher over ``graph``;
    ``eliminations`` maps the same pattern to the factorised
    eliminations its matcher's plan produced, per unit assignment (one
    :class:`~repro.matching.factorised.Elimination` per surviving pin).
    A pattern's eliminations go whenever its matcher goes.
    """

    __slots__ = ("graph", "matchers", "eliminations")

    def __init__(self, graph: PropertyGraph) -> None:
        self.graph = graph
        self.matchers: Dict[object, SubgraphMatcher] = {}
        self.eliminations: Dict[object, Dict[tuple, tuple]] = {}

    def drop(self, pattern) -> None:
        """Forget ``pattern``'s matcher and its eliminations."""
        self.matchers.pop(pattern, None)
        self.eliminations.pop(pattern, None)

    def patched(self, structural: bool) -> None:
        """Forget what an op just applied to ``graph`` made stale.

        Every op drops the eliminations, whose views read attribute
        values; a structural op also changes candidate sets and plans,
        so the matchers go too.
        """
        self.eliminations.clear()
        if structural:
            self.matchers.clear()


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

    Beside each matcher the block keeps the factorised eliminations its
    plan produced (:meth:`eliminations`).  An elimination is a pure
    function of the plan and the pin, so discovery's count phase reuses
    what its enumerate phase computed, and a warm discover recomputes
    nothing.
    An elimination holds, per quotient of its plan, one candidate list
    and one marginal per class — ``O(quotients · |Q| · |block|)``, with
    at most five quotients for discovery's three-variable patterns —
    plus the views read off it: pair tables keyed by attribute
    profiles, per-variable rows and the evidence.  A block retains at
    most one elimination per pin of each unit run over it, for each
    retained matcher's pattern.  They go when their matcher goes, and
    also on any op that patches the block, since their views read
    attribute values.

    Concurrency semantics (the coordinator path): one materialiser may be
    shared by concurrently running workers (e.g. the thread-backed
    :func:`~repro.parallel.cluster.run_concurrently` demo).  All cache
    state — the LRU order, the retained-size accounting against the
    single shared budget, and the per-block matcher and elimination
    tables — is guarded by one reentrant lock, and a block, matcher or
    elimination is *built while holding it*: two workers requesting the same block serialise on the lock and
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
        self._cache: "OrderedDict[FrozenSet[NodeId], _CachedBlock]" = (
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
            for entry in self._cache.values():
                for pattern in [p for p in entry.matchers if p not in patterns]:
                    entry.drop(pattern)

    def apply_ops(self, ops: "Sequence[tuple]") -> int:
        """Patch cached blocks in place for a batch of graph update ops.

        A cached block is the induced subgraph over a *fixed* node set,
        so an op affects it iff the set holds every one of its
        :func:`~repro.graph.updates.op_nodes` (a genuinely new node is
        in no key).  Affected blocks are patched in place — snapshots
        follow via ``apply_delta`` — and only *their* eliminations are
        dropped, with their matchers on structural ops.  Every other
        block, snapshot and matcher stays warm, which keeps a warm cache
        O(|Δ|) under update streams.  Returns the number of (op, block) patches applied; the
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
                    entry = self._cache[key]
                    block = entry.graph
                    before = block.size
                    apply_op(block, op)
                    self._retained += block.size - before
                    entry.patched(structural)
                    patched += 1
            self.patched += patched
            self._run_stats.patched += patched
            self._evict()
        return patched

    def _evict(self) -> None:  #: holds: _lock
        """Drop least-recently-used blocks until the budget holds."""
        while self._retained > self.budget and len(self._cache) > 1:
            _, evicted = self._cache.popitem(last=False)
            self._retained -= evicted.graph.size
            self.evictions += 1
            self._run_stats.evictions += 1

    def _entry(self, block_nodes: Set[NodeId]) -> _CachedBlock:
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
            entry = _CachedBlock(block)
            self._cache[key] = entry
            self.builds += 1
            self._run_stats.builds += 1
            self._retained += block.size
            self._evict()
            return entry

    def block(self, block_nodes: Set[NodeId]) -> PropertyGraph:
        """The induced subgraph for ``block_nodes`` (cached, snapshot warm)."""
        return self._entry(block_nodes).graph

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
        entry = self._entry(block_nodes)
        pattern = sigma[leader_index].pattern
        with self._lock:
            matcher = entry.matchers.get(pattern)
            if matcher is None:
                matcher = SubgraphMatcher(pattern, entry.graph)
                entry.matchers[pattern] = matcher
        return entry.graph, matcher

    def eliminations(
        self,
        block_nodes: Set[NodeId],
        matcher: SubgraphMatcher,
        assignment: tuple,
        eliminate: Callable[[], tuple],
    ) -> tuple:
        """A unit's per-pin eliminations, kept beside ``matcher``.

        ``assignment`` is the unit's pivot candidate, which fixes its
        pins; ``eliminate`` computes them on a miss.  They are kept
        only while ``matcher`` is the block's matcher for its pattern,
        so they never outlive it (see the class docstring); a block
        evicted since ``matcher`` was handed out keeps nothing.
        """
        with self._lock:
            entry = self._cache.get(frozenset(block_nodes))
            pattern = matcher.pattern
            if entry is None or entry.matchers.get(pattern) is not matcher:
                return eliminate()
            per_unit = entry.eliminations.get(pattern)
            if per_unit is None:
                per_unit = entry.eliminations[pattern] = {}
            found = per_unit.get(assignment)
            if found is None:
                found = per_unit[assignment] = eliminate()
            return found


def execute_unit(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    unit: WorkUnit,
    materialiser: Optional[BlockMaterialiser] = None,
) -> SlotResult:
    """Execute one (primary) work unit per its :attr:`WorkUnit.kind`.

    All kinds share the same locality machinery — materialise the block,
    re-expand the pivot candidate's symmetry permutations, enumerate the
    leader pattern's pinned matches — and differ only in what they do
    per match: ``detect`` evaluates member dependencies into violations,
    ``mine`` folds or returns the matches, ``count`` tallies proposed
    dependencies (see :mod:`repro.core.discovery`).  A unit is answered
    one of two ways, by what it can observe: from the block's resident
    factorised eliminations (an aggregate ``mine`` or a ``count`` whose
    leader pattern factorises and, for ``count``, whose tally shapes
    compile), or by a fresh VF2 enumeration (everything else: cyclic
    or wide patterns, unhashable values, ``"matches"`` folds and
    ``detect``).

    This is a one-unit :func:`run_slot`: a replica's result is empty.
    A whole slot runs through :func:`run_slot` instead, which resolves
    each group's pattern-level work once rather than once per unit.
    """
    if materialiser is None:
        materialiser = BlockMaterialiser(graph)
    return run_slot(sigma, (unit,), materialiser)


class _Group:
    """One shared group's unit-invariant work, resolved once per slot.

    Every unit of a group runs the same leader pattern over its own
    block, so the leader, its members and its pivot's symmetry classes
    depend on the group alone, and so do the kind and inputs the run's
    :class:`~repro.parallel.workload.UnitPhase` gives it.
    When every class is a singleton (a one-entry pivot, or one whose
    components are pairwise non-isomorphic), a candidate tuple has
    exactly one permutation — itself — so a unit pins its own
    assignment instead of re-expanding it.  A count group compiles its
    members' tally shapes on first use.  ``fold`` merges the group's
    results within the slot (:func:`slot_fold`); apart from it the
    group holds no per-unit state: a unit's ``steps`` are what
    :func:`execute_unit` gives it alone.
    """

    __slots__ = ("sigma", "leader_index", "pattern", "pivot", "members",
                 "direct", "kind", "given", "payload",
                 "fold", "_shapes")

    def __init__(
        self, sigma: Sequence[GFD], group, phase: UnitPhase
    ) -> None:
        leader = sigma[group.leader_index]
        self.sigma = sigma
        self.leader_index = group.leader_index
        self.pattern = leader.pattern
        self.pivot = leader.pivot
        self.members = phase.groups.get(group.leader_index, group).members
        self.direct = all(
            len(members) == 1
            for members in symmetry_classes(leader.pattern, leader.pivot)
        )
        self.kind = phase.kind
        self.given = payload = phase.payloads.get(group.leader_index)
        if self.kind == "count":
            payload = _derived_count_payload(payload, self.members)
        self.payload = payload
        self.fold = slot_fold(phase, self.given, self.members)
        self._shapes = None

    def names(self, unit: WorkUnit) -> bool:
        """Whether ``unit``'s own fields name this group's phase."""
        return (
            unit.kind == self.kind
            and (unit.payload is self.given or unit.payload == self.given)
        )

    def execute_unit(
        self, unit: WorkUnit, materialiser: BlockMaterialiser,
        out: SlotResult,
    ) -> None:
        """Run ``unit``: append its steps to ``out``, fold its result."""
        if self.kind == "detect":
            steps = _execute_detect(self, unit, materialiser, out.violations)
            enumerated = True
        elif self.kind == "mine":
            steps, enumerated = _execute_mine(self, unit, materialiser)
        elif self.kind == "count":
            steps, enumerated = _execute_count(self, unit, materialiser)
        else:
            raise ValueError(f"unknown work-unit kind {self.kind!r}")
        out.steps.append(steps)
        out.vf2_units += enumerated

    def close(self, out: SlotResult) -> None:
        """Write the group's merged payload into ``out``."""
        if self.fold is None:
            return
        held = out.payloads.get(self.leader_index)
        if held is not None:  # the group ran under another phase before
            self.fold.merge(held)
        out.payloads[self.leader_index] = self.fold.payload()

    def pins(self, unit: WorkUnit):
        """The unit's candidate tuple re-expanded over symmetry classes."""
        if self.direct:
            return (dict(unit.assignment),)
        return candidate_permutations(
            self.pattern, self.pivot, unit.pivot_assignment
        )

    def matcher(
        self, materialiser: BlockMaterialiser, unit: WorkUnit
    ) -> Tuple[PropertyGraph, SubgraphMatcher]:
        return materialiser.matcher(
            self.sigma, self.leader_index, unit.block_nodes
        )

    def tally_shapes(self) -> list:
        """Each member's count payload compiled by ``compile_tallies``."""
        if self._shapes is None:
            self._shapes = [
                FactorisedPlan.compile_tallies(deps) for deps in self.payload
            ]
        return self._shapes


def run_slot(
    sigma: Sequence[GFD],
    units: Sequence[WorkUnit],
    materialiser: BlockMaterialiser,
    faults: Optional["WorkerFaultContext"] = None,
    progress: Optional[List[int]] = None,
    phase: Optional[UnitPhase] = None,
) -> SlotResult:
    """Execute one plan slot's primary units into one :class:`SlotResult`.

    The one slot loop of both backends (the simulated executor and a
    worker process); replicas are skipped.  Each shared group's leader,
    members and symmetry classes are resolved on its first unit and
    reused by the rest, while every unit keeps its own
    :class:`MatchStats` — so each unit's ``steps``, and with them the
    cost report, are what :func:`execute_unit` measures.  Each group's
    results merge as they are produced, into one payload per group
    (:func:`slot_fold`).  ``phase`` gives every unit its kind and
    inputs; without one, each unit's own fields do.  ``faults``
    (a worker's fault injection triggers) is consulted before every
    unit, and ``progress[0]`` — the counter a worker's heartbeat
    reports — ticks after each.
    """
    out = SlotResult()
    groups: Dict[int, _Group] = {}
    for unit in units:
        if not unit.primary:
            continue
        if faults is not None:
            faults.before_unit()
        group = groups.get(id(unit.group))
        if group is None or (phase is None and not group.names(unit)):
            if group is not None:
                group.close(out)
            group = groups[id(unit.group)] = _Group(
                sigma, unit.group,
                phase if phase is not None else UnitPhase.of(unit),
            )
        group.execute_unit(unit, materialiser, out)
        if progress is not None:
            progress[0] += 1
    for group in groups.values():
        group.close(out)
    return out


def _pinned_matches(group, unit, materialiser, stats):
    """Pivoted leader-pattern matches of a unit (symmetry re-expanded)."""
    block, matcher = group.matcher(materialiser, unit)
    if group.direct:  # one pin: hand back the matcher's own generator
        return block, matcher.matches(fixed=dict(unit.assignment), stats=stats)

    def generate():
        for pinned in group.pins(unit):
            yield from matcher.matches(fixed=pinned, stats=stats)

    return block, generate()


def _execute_detect(
    group: _Group,
    unit: WorkUnit,
    materialiser: BlockMaterialiser,
    violations: Set[Violation],
) -> int:
    """Local error detection (the original unit semantics).

    Adds the unit's violations to ``violations`` and returns its steps.
    """
    stats = MatchStats()
    block, matches = _pinned_matches(group, unit, materialiser, stats)
    for match in matches:
        for member in group.members:
            if not match_satisfies_all(block, match, member.lhs):
                continue
            if match_satisfies_all(block, match, member.rhs):
                continue
            member_gfd = group.sigma[member.index]
            member_match = {
                member.iso[var]: node for var, node in match.items()
            }
            violations.add(make_violation(member_gfd, member_match))
    return stats.steps


def _eliminations(group, unit, materialiser, matcher, plan) -> tuple:
    """The unit's per-pin eliminations, resident beside its matcher.

    Computed on first use — one :meth:`FactorisedPlan.eliminate` per
    pin the matcher admits — and served from the block cache after
    that, to every phase and every later run (see
    :meth:`BlockMaterialiser.eliminations`).
    """

    def eliminate() -> tuple:
        out = []
        for pinned in group.pins(unit):
            restrict = matcher._pin_indices(pinned)
            if restrict is not _NO_MATCH:
                out.append(plan.eliminate(restrict))
        return tuple(out)

    return materialiser.eliminations(
        unit.block_nodes, matcher, unit.assignment, eliminate
    )


def _factorised_mine(
    group: _Group,
    unit: WorkUnit,
    materialiser: BlockMaterialiser,
) -> Optional[int]:
    """Fold the unit's evidence by factorised evaluation, if possible.

    Merges the leader pattern's evidence over the unit's re-expanded
    pivot permutations, straight off the block's factorised plan — no
    VF2 — into the group's aggregate, and returns the unit's steps.
    Returns ``None`` when the pattern does not factorise on this block.
    """
    block, matcher = group.matcher(materialiser, unit)
    plan = matcher.factorised_plan()
    if plan is None:
        return None
    stats = MatchStats()
    aggregate = group.fold.aggregate
    for elimination in _eliminations(group, unit, materialiser, matcher, plan):
        _, pin_aggregate = plan.evidence_of(block, elimination, stats=stats)
        aggregate.merge(pin_aggregate)
    return stats.steps


def _factorised_count(
    group: _Group,
    unit: WorkUnit,
    materialiser: BlockMaterialiser,
) -> Optional[Tuple[int, tuple]]:
    """The count-unit steps and tallies by factorised evaluation, if possible.

    Falls back (``None``) as one whole unit — pattern not factorisable,
    a member candidate spanning more than two variables, or unhashable
    attribute values — so the enumeration fallback stays a single
    shared VF2 walk over all members, exactly as before.
    """
    block, matcher = group.matcher(materialiser, unit)
    plan = matcher.factorised_plan()
    shapes = group.tally_shapes() if plan is not None else None
    if shapes is None or any(shape is None for shape in shapes):
        return None
    member_deps = group.payload
    stats = MatchStats()
    counts = [[[0, 0] for _ in deps] for deps in member_deps]
    # One elimination per pin serves every member's tallies; each member
    # is still charged what its own elimination would cost.
    for elimination in _eliminations(group, unit, materialiser, matcher, plan):
        for member_pos, (deps, shape) in enumerate(zip(member_deps, shapes)):
            tallies = plan.tallies(
                block, deps, shape, elimination, stats=stats
            )
            if tallies is None:
                return None
            for tally, (supported, satisfied) in zip(
                counts[member_pos], tallies
            ):
                tally[0] += supported
                tally[1] += satisfied
    return stats.steps, _sparse_tallies(counts)


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


def _execute_mine(
    group: _Group,
    unit: WorkUnit,
    materialiser: BlockMaterialiser,
) -> Tuple[int, bool]:
    """Discovery's enumeration phase: fold the pivoted matches.

    Returns the unit's steps and whether it enumerated.  The group's
    merged payload is a pure value — equal across execution backends
    and enumeration orders.  Pivot candidates partition the
    match space (each match pins the pivot variables at exactly one
    deduplicated candidate), so merging the slots' payloads over a plan
    covers every match of the leader pattern exactly once.

    The group's payload is ``(max_matches, mode)``:

    * ``mode="aggregate"`` (discovery's default): matches fold into the
      group's mergeable
      :class:`~repro.core.discovery.EvidenceAggregate`, which the slot
      ships encoded — ``O(vars × attrs)`` however many matches the
      blocks hold.  When the leader pattern factorises, the evidence
      comes off the block's resident eliminations instead of an
      enumeration; otherwise (cyclic or wide patterns) the unit
      enumerates.
    * ``mode="matches"``: the match lists themselves ship
      (:class:`_MatchFold`) — the documented fallback the coordinator
      requests when a pattern's ``max_matches`` cap bites
      (support/confidence must then be counted over the canonical
      capped subset only the coordinator can select) or when an
      explicit seeded evidence sample is requested.
    """
    fold = group.fold
    if fold.__class__ is _EvidenceFold:
        steps = _factorised_mine(group, unit, materialiser)
        if steps is not None:
            return steps, False

    stats = MatchStats()
    block, matches = _pinned_matches(group, unit, materialiser, stats)
    if fold.__class__ is _EvidenceFold:
        aggregate = fold.aggregate
        for match in matches:
            aggregate.add(block, match)
    else:
        for match in matches:
            fold.add(tuple(sorted(match.items())))
    return stats.steps, True


def _execute_count(
    group: _Group,
    unit: WorkUnit,
    materialiser: BlockMaterialiser,
) -> Tuple[int, bool]:
    """Discovery's counting phase: tally proposed dependencies.

    Returns the unit's steps and whether it enumerated.  The group's
    payload carries, per member, the member's proposed ``(lhs, rhs)``
    candidates *rewritten into leader variable space* (the same
    alignment detection uses), so one pinned enumeration of the leader
    pattern serves every member's tallies.  The tallies fold *sparse*:
    per member, ``(dep_pos, supported, satisfied)`` triples for the
    candidates some match actually supported — a typical pivot block
    supports few of the proposed premises, so dense zero rows would
    dominate the tally traffic (``satisfied`` can only tick inside a
    supported match, so ``supported == 0`` implies nothing to report).

    On the factorised path the ``mine`` phase's eliminations, resident
    beside the block's matcher, serve here — the counting phase of a
    warm ``discover()`` runs zero VF2.  Otherwise the unit enumerates.
    """
    found = _factorised_count(group, unit, materialiser)
    if found is not None:
        steps, tallies = found
        group.fold.merge(tallies)
        return steps, False
    member_deps = group.payload
    counts = [
        [[0, 0] for _ in deps] for deps in member_deps
    ]
    stats = MatchStats()
    block, matches = _pinned_matches(group, unit, materialiser, stats)
    for match in matches:
        for member_pos, deps in enumerate(member_deps):
            for dep_pos, (lhs, rhs) in enumerate(deps):
                if not match_satisfies_all(block, match, lhs):
                    continue
                tally = counts[member_pos][dep_pos]
                tally[0] += 1
                if match_satisfies_all(block, match, rhs):
                    tally[1] += 1
    group.fold.merge(_sparse_tallies(counts))
    return stats.steps, True


def _derived_count_payload(payload, members) -> tuple:
    """A count group's payload with ``("derive", …)`` recipes materialised.

    The counting phase's inputs are, in the aggregate data path,
    *recipes* rather than literal lists: ``("derive", variables,
    aggregate_payload, max_attrs)`` per group member.  Re-deriving the
    candidate list locally — via the deterministic
    :meth:`~repro.core.discovery.EvidenceAggregate.propose_for_variables`
    — reproduces the coordinator's proposals exactly (same positions,
    same literals), so a slot ships one compact aggregate per pattern
    instead of ``O(proposals)`` literal objects.  The derived deps are
    rewritten into leader variable space through each member's stored
    alignment, exactly as the coordinator used to ship them.  Concrete
    member payloads pass through untouched (the match-shipping fallback
    keeps the explicit form — sampled proposals are not a pure function
    of the aggregate).  Runs once per group and slot.
    """
    member_deps = []
    for spec, member in zip(payload or (), members):
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
    return tuple(member_deps)


def slot_fold(named, given, members):
    """A fresh merge of one group's results within a slot, per kind.

    ``named`` is the phase (or unit) naming the kind, ``given`` the
    group's input payload and ``members`` the members it evaluates.
    Mine aggregates and count tallies merge associatively, so a slot
    ships exactly one of each per group, not one per work unit (pivot
    blocks are small and plentiful, so per-unit payloads would dominate
    the wire volume).  ``detect`` results need no fold: violations
    union straight into the slot's set, so a slot ships each distinct
    violation once (pivot blocks overlap, and symmetric pivot
    candidates of one group re-find the same violating matches).
    """
    if named.kind == "detect":
        return None
    if named.kind == "mine":
        given = given or ()
        mode = given[1] if len(given) > 1 else "matches"
        if mode == "aggregate":
            return _EvidenceFold()
        return _MatchFold(given[0] if given else None, members)
    if named.kind == "count":
        return _TallyFold(len(given or ()))
    raise ValueError(f"unknown work-unit kind {named.kind!r}")


class _EvidenceFold:
    """A mine group's evidence: one live aggregate, shipped encoded
    (:meth:`~repro.core.discovery.EvidenceAggregate.to_payload`)."""

    __slots__ = ("aggregate",)

    def __init__(self) -> None:
        self.aggregate = EvidenceAggregate()

    def merge(self, payload: tuple) -> None:
        self.aggregate.merge(EvidenceAggregate.from_payload(payload))

    def payload(self) -> tuple:
        return self.aggregate.to_payload()


class _TallyFold:
    """A count group's tallies: per member, dep position → supported,
    satisfied; shipped sparse, in position order."""

    __slots__ = ("tallies",)

    def __init__(self, members: int) -> None:
        self.tallies: List[Dict[int, List[int]]] = [
            {} for _ in range(members)
        ]

    def merge(self, payload: tuple) -> None:
        for tally, member in zip(self.tallies, payload):
            for pos, sup, sat in member:
                held = tally.get(pos)
                if held is None:
                    tally[pos] = [sup, sat]
                else:
                    held[0] += sup
                    held[1] += sat

    def payload(self) -> tuple:
        return tuple(
            tuple((pos, sup, sat) for pos, (sup, sat) in sorted(tally.items()))
            for tally in self.tallies
        )


class _MatchFold:
    """A mine group's match lists: the capped and sampled fallbacks.

    The common case — at most ~2×cap matches — ships ``("shared",
    matches)`` in *leader* variable space, translated per member on
    the coordinator.  Past that the fold switches to ``("members",
    total_count, per_member)``: matches are translated into each
    member's variable space here and kept as the member-space canonical
    ``cap``-smallest (the cap must be taken per member — variable
    renaming permutes the canonical order, so a leader-space cut could
    drop a member's smallest matches).  Either way memory and the
    shipped payload stay ``O(members × cap)``, and the selection
    commutes with the coordinator's global canonical cap.
    """

    __slots__ = ("cap", "members", "threshold", "count", "found",
                 "per_member")

    def __init__(self, cap: Optional[int], members) -> None:
        self.cap = cap
        self.members = members
        self.threshold = max(2 * cap, 4096) if cap is not None else None
        self.count = 0
        self.found: List[tuple] = []
        self.per_member: Optional[List[List[tuple]]] = None

    def add(self, items: tuple) -> None:
        """Fold one leader-space match (var-sorted ``(var, node)`` items)."""
        self.count += 1
        if self.per_member is None:
            self.found.append(items)
            if self.threshold is not None and len(self.found) > self.threshold:
                self._split()
            return
        for bucket, member in zip(self.per_member, self.members):
            bucket.append(_translate(items, member))
        self._compact()

    def merge(self, payload: tuple) -> None:
        if payload[0] == "shared":
            for items in payload[1]:
                self.add(items)
            return
        _, total, per_member = payload
        if self.per_member is None:
            self._split()
        self.count += total
        for bucket, matches in zip(self.per_member, per_member):
            bucket.extend(matches)
        self._compact()

    def payload(self) -> tuple:
        if self.per_member is None:
            return ("shared", tuple(sorted(self.found, key=match_items_key)))
        return ("members", self.count, tuple(
            tuple(heapq.nsmallest(self.cap, bucket, key=match_items_key))
            for bucket in self.per_member
        ))

    def _split(self) -> None:
        """Switch to per-member buckets, translating what was found."""
        self.per_member = [
            [_translate(items, member) for items in self.found]
            for member in self.members
        ]
        self.found = []

    def _compact(self) -> None:
        # Amortised overflow handling: pruning to the cap-smallest
        # commutes with appending more matches, so letting a bucket run
        # to 2×threshold before compacting keeps the final selection
        # identical while costing O(n log cap) overall instead of
        # O(n · cap) re-heaps (one per append).
        for pos, bucket in enumerate(self.per_member):
            if len(bucket) > 2 * self.threshold:
                self.per_member[pos] = heapq.nsmallest(
                    self.cap, bucket, key=match_items_key
                )


def _translate(items: tuple, member) -> tuple:
    """A leader-space match in ``member``'s variables, var-sorted."""
    return tuple(sorted((member.iso[var], node) for var, node in items))


def consolidate_slot_results(
    units: Sequence[WorkUnit],
    results: Sequence[SlotResult],
    phase: Optional[UnitPhase] = None,
) -> SlotResult:
    """Merge ``results`` of the same slot's ``units`` into one.

    The results may be one-unit ones (:func:`execute_unit`) or partial
    slots; ``steps`` concatenate in the given order, VF2 counts add,
    violations union, and each group's payloads merge the way
    :func:`run_slot` merges them as they are produced
    (:func:`slot_fold`), so merging the per-unit results of a slot
    equals running it whole.  ``phase`` is the run's
    :class:`~repro.parallel.workload.UnitPhase`, if it named the units'
    kind; otherwise each unit's own does.
    """
    folds = {}
    for unit in units:
        leader = unit.group.leader_index
        if leader not in folds:
            named = phase if phase is not None else UnitPhase.of(unit)
            folds[leader] = slot_fold(
                named, named.payloads.get(leader),
                named.groups.get(leader, unit.group).members,
            )
    merged = SlotResult()
    order: Dict[int, None] = {}
    for result in results:
        merged.steps += result.steps
        merged.vf2_units += result.vf2_units
        merged.violations |= result.violations
        for leader, payload in result.payloads.items():
            folds[leader].merge(payload)
            order[leader] = None
    merged.payloads = {leader: folds[leader].payload() for leader in order}
    return merged


def run_units(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    plan: Sequence[Sequence[WorkUnit]],
    cluster: SimulatedCluster,
    backend: Union["SimulatedExecutor", "MultiprocessExecutor"],
    sigma_key: Optional[object] = None,
    plan_key: Optional["PlanKey"] = None,
    phase: Optional[UnitPhase] = None,
) -> List[SlotResult]:
    """Execute a plan on ``backend`` and return one result per slot,
    charging costs.

    Every primary unit (every unsplit unit is its own primary) is
    charged its measured steps — its entry in its slot's ``steps``
    column — and its block size, scaled by its ``cost_share``.  Phases
    that consume the slots' payloads (discovery's mine/count/confirm
    phases) call this directly; :func:`run_assignment` builds on it.

    ``backend`` is the one executor of the run: a
    :class:`~repro.parallel.executors.SimulatedExecutor` (serial,
    in-process, over its block materialiser)
    or a started :class:`~repro.parallel.executors.MultiprocessExecutor`
    (a session's supervised pool, shipping warm through its own shard
    mirror).  ``sigma_key`` and ``plan_key`` name the rule set and the
    plan, so warm worker slots that already hold them are sent neither.
    ``phase`` gives every unit its kind and inputs (see
    :class:`~repro.parallel.workload.UnitPhase`); it travels once per
    slot, apart from the units.
    Cost charging happens on the coordinator from the per-unit
    measurements either way, so both backends — recovered process runs
    included — yield identical results *and* identical cluster reports.
    """
    results = backend.run(
        sigma, graph, plan, sigma_key=sigma_key, plan_key=plan_key,
        phase=phase,
    )
    for worker, (worker_units, result) in enumerate(zip(plan, results)):
        primaries = (unit for unit in worker_units if unit.primary)
        for unit, steps in zip(primaries, result.steps):
            cluster.charge_unit(
                worker,
                steps=int(steps * unit.cost_share),
                block_size=unit.block_size * unit.cost_share,
            )
    return results


def run_assignment(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    assignment: Sequence[Sequence[WorkUnit]],
    cluster: SimulatedCluster,
    backend: Union["SimulatedExecutor", "MultiprocessExecutor"],
    sigma_key: Optional[object] = None,
    plan_key: Optional["PlanKey"] = None,
    ship_partial_matches: bool = False,
) -> Set[Violation]:
    """Execute a per-worker unit assignment, charging costs as measured.

    :func:`run_units` runs and charges the primaries on ``backend``;
    this adds the union of the slots' violations and the replica
    charges.  Split units (replicate-and-split): the primary executes
    detection and its measured step count is shared across all
    sub-units with the same ``split_id``; replicas are charged their
    share after every primary.  With ``ship_partial_matches=True`` (the
    fragmented setting) replicas are additionally charged the
    partial-match shipment the strategy incurs; over a replicated graph
    the exchange is free (Section 6.1: repVal "requires no data
    exchange").
    """
    results = run_units(
        sigma, graph, assignment, cluster, backend,
        sigma_key=sigma_key, plan_key=plan_key,
    )
    violations: Set[Violation] = set()
    split_steps: Dict[int, int] = {}
    for worker_units, result in zip(assignment, results):
        violations |= result.violations
        primaries = (unit for unit in worker_units if unit.primary)
        for unit, steps in zip(primaries, result.steps):
            if unit.split_id is not None:
                split_steps[unit.split_id] = steps
    # Replicas share the primary's measured cost and ship partial
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
