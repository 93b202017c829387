"""The workload model of Section 5.2: pivot vectors and work units.

A *work unit* ``w = ⟨v_z̄, G_z̄⟩`` pairs a pivot candidate (a one-to-one,
label-compatible assignment of the pivot variables ``z̄`` to graph nodes)
with the data block formed by the pivots' radius-hop neighbourhoods.  The
workload ``W(Σ, G)`` is the set of all work units over all GFDs; its size
is at most ``|G|^k`` for pivot arity ``k`` (typically ≤ 2), exponentially
smaller than the matching cost it organises.

Units are built per :class:`repro.parallel.multiquery.SharedGroup`: GFDs
with isomorphic patterns share one unit per candidate (multi-query
optimisation); without optimisation every GFD gets its own units.

Unit *weights* estimate local detection cost.  The paper charges
``|G_z̄|^{|Σ|}`` per block; enumeration inside a block is really
``O(|G_z̄|^{|Q|})``, so we use the pattern's edge count as the exponent
(capped to keep weights within float range) — any monotone estimate yields
the same balancing behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..graph.graph import NodeId, PropertyGraph
from ..graph.partition import Fragmentation
from ..graph.subgraph import k_hop_nodes
from ..matching.locality import pivot_candidates
from ..pattern.components import PivotVector
from ..core.gfd import GFD
from .cluster import SimulatedCluster
from .multiquery import SharedGroup, singleton_groups

#: Exponent cap for unit weights (see module docstring).
MAX_WEIGHT_EXPONENT = 3


@dataclass
class WorkUnit:
    """One unit ``⟨v_z̄, G_z̄⟩``, serving every GFD of its shared group.

    ``assignment`` binds the *leader* GFD's pivot variables; members are
    evaluated through their stored variable alignment.  In the distributed
    setting ``fragment_sizes`` records how much of the block each fragment
    owns (the basis of communication-cost estimation), and the
    ``split_*``/``primary`` fields implement the replicate-and-split skew
    strategy (one primary sub-unit executes; replicas share its cost).

    ``kind`` selects what executing the unit *does* inside its block
    (same pivot, same block, same locality argument either way):

    * ``"detect"`` — local error detection (the original unit kind);
    * ``"mine"`` — discovery's enumeration phase: return the pivoted
      matches of the leader pattern instead of violations;
    * ``"count"`` — discovery's counting phase: evaluate the proposed
      dependencies carried in ``payload`` on every pivoted match and
      return ``(supported, satisfied)`` tallies.

    ``payload`` is the kind-specific input — ``"mine"`` carries the
    coordinator's match cap, ``"count"`` the proposed dependencies;
    results travel back merged per group and slot, in
    :attr:`~repro.parallel.engine.SlotResult.payloads`.

    An aggregate ``mine`` or ``count`` unit answers from the block's
    factorised eliminations when its leader pattern's join structure
    permits (see :mod:`repro.matching.factorised`) and enumerates
    otherwise; ``detect`` units always enumerate (violations need
    witness matches).

    A run that gives every unit of a plan the same kind names it once,
    in a :class:`UnitPhase`, instead of copying each unit; the unit's
    own ``kind`` and ``payload`` then go unread.
    """

    group: SharedGroup
    assignment: Tuple[Tuple[str, NodeId], ...]
    block_nodes: frozenset
    block_size: int
    weight: float
    fragment_sizes: Dict[int, int] = field(default_factory=dict)
    split_id: Optional[int] = None
    split_k: int = 1
    primary: bool = True
    kind: str = "detect"
    payload: Optional[tuple] = None

    @property
    def cost_share(self) -> float:
        """Fraction of the unit's work this (sub-)unit accounts for."""
        return 1.0 / self.split_k

    @property
    def pivot_assignment(self) -> Dict[str, NodeId]:
        """The pivot candidate ``v_z̄`` as a dict (leader variables)."""
        return dict(self.assignment)

    def missing_size(self, fragment: int) -> int:
        """Block size not resident on ``fragment`` (data to prefetch)."""
        return self.block_size - self.fragment_sizes.get(fragment, 0)


@dataclass(frozen=True)
class UnitPhase:
    """What every unit of one run does: its kind and inputs.

    Discovery runs one plan as three phases — ``mine``, ``count`` and
    a ``detect`` confirmation — that differ only in what a unit does
    inside its block.  A phase says so once for the whole run, so the
    plan's units travel and execute as they are.  ``payloads`` maps a
    group's leader index to the input payload of that group's units
    (see :attr:`WorkUnit.payload`); ``groups`` maps a leader index to
    the group whose members the phase evaluates in place of the unit's
    own (confirmation's mined rules).  Leader indices survive pickling,
    so the phase ships apart from the units, and they key the one
    merged result payload per group that each slot returns
    (:class:`~repro.parallel.engine.SlotResult`).
    """

    kind: str = "detect"
    payloads: Dict[int, tuple] = field(default_factory=dict)
    groups: Dict[int, SharedGroup] = field(default_factory=dict)

    @classmethod
    def of(cls, unit: WorkUnit) -> "UnitPhase":
        """The phase a single unit names through its own fields."""
        payloads = (
            {unit.group.leader_index: unit.payload}
            if unit.payload is not None else {}
        )
        return cls(kind=unit.kind, payloads=payloads)


def unit_weight(block_size: int, pattern_edges: int) -> float:
    """The balancing weight of a unit (see module docstring)."""
    exponent = min(MAX_WEIGHT_EXPONENT, max(1, pattern_edges))
    return float(block_size) ** exponent


def block_of(
    graph: PropertyGraph, pivot: PivotVector, assignment: Dict[str, NodeId]
) -> Set[NodeId]:
    """Node set of the data block ``G_z̄`` for a pivot candidate."""
    nodes: Set[NodeId] = set()
    for entry in pivot:
        nodes |= k_hop_nodes(graph, [assignment[entry.variable]], entry.radius)
    return nodes


def block_size_of(graph: PropertyGraph, nodes: Set[NodeId]) -> int:
    """``|G_z̄|`` = nodes + edges induced by ``nodes``."""
    edges = 0
    for node in nodes:
        for dst, labels in graph.out_neighbors(node).items():
            if dst in nodes:
                edges += len(labels)
    return len(nodes) + edges


def estimate_workload(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    cluster: Optional[SimulatedCluster] = None,
    groups: Optional[List[SharedGroup]] = None,
    fragmentation: Optional[Fragmentation] = None,
) -> List[WorkUnit]:
    """Compute ``W(Σ, G)`` — the estimation phase of ``bPar``/``disPar``.

    One unit per (group, pivot candidate); symmetric candidates are
    deduplicated per Example 10.  When ``fragmentation`` is given, each
    unit records per-fragment block shares (``disPar``'s border/"missing
    data" bookkeeping).  The estimation cost — proportional to the block
    volume scanned — is charged to ``cluster``, split evenly across
    workers as the m-balanced ranges of Section 6.1 achieve.
    """
    if groups is None:
        groups = singleton_groups(sigma)
    units: List[WorkUnit] = []
    estimation_sizes: List[float] = []
    # Units naming the same block share one node-set object, so block
    # cache lookups match by identity instead of comparing whole sets,
    # and a pickled plan carries each block once.
    blocks: Dict[frozenset, Tuple[frozenset, int]] = {}

    for group in groups:
        leader = sigma[group.leader_index]
        pivot = leader.pivot
        for assignment in pivot_candidates(graph, leader.pattern, pivot):
            nodes = frozenset(block_of(graph, pivot, assignment))
            known = blocks.get(nodes)
            if known is None:
                known = blocks[nodes] = (nodes, block_size_of(graph, nodes))
            nodes, size = known
            estimation_sizes.append(size)
            fragment_sizes: Dict[int, int] = {}
            if fragmentation is not None:
                fragment_sizes = _per_fragment_sizes(fragmentation, nodes)
            units.append(
                WorkUnit(
                    group=group,
                    assignment=tuple(sorted(assignment.items(), key=lambda kv: kv[0])),
                    block_nodes=nodes,
                    block_size=size,
                    weight=unit_weight(size, leader.pattern.num_edges),
                    fragment_sizes=fragment_sizes,
                )
            )
    if cluster is not None:
        cluster.charge_estimation(estimation_sizes)
    return units


def _per_fragment_sizes(
    fragmentation: Fragmentation, nodes: frozenset
) -> Dict[int, int]:
    """Size share of a block per owning fragment (nodes + local edges)."""
    graph = fragmentation.graph
    owner = fragmentation.owner
    sizes: Dict[int, int] = {}
    for node in nodes:
        frag = owner[node]
        sizes[frag] = sizes.get(frag, 0) + 1
        for dst, labels in graph.out_neighbors(node).items():
            if dst in nodes and owner[dst] == frag:
                sizes[frag] = sizes.get(frag, 0) + len(labels)
    return sizes


def total_weight(units: Sequence[WorkUnit]) -> float:
    """Sum of unit weights — the ``t(|Σ|, |G|)`` estimate being balanced."""
    return sum(unit.weight * unit.cost_share for unit in units)
