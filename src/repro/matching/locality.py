"""Pivoted local matching inside data blocks (Section 6.1, ``localVio``).

By the locality of subgraph isomorphism, every match that instantiates the
pivot variables ``z̄`` at candidate nodes ``v_z̄`` lies entirely inside the
data block ``G_z̄`` (the union of the pivots' radius-hop neighbourhoods).
Workers therefore enumerate matches in the small block, never the full
graph.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from ..graph.graph import NodeId, PropertyGraph
from ..graph.subgraph import k_hop_nodes
from ..pattern.components import PivotVector
from ..pattern.pattern import GraphPattern, Variable
from .vf2 import Match, MatchStats, SubgraphMatcher


def data_block(
    graph: PropertyGraph,
    pivot: PivotVector,
    assignment: Dict[Variable, NodeId],
) -> PropertyGraph:
    """The data block ``G_z̄`` for a pivot candidate assignment.

    The subgraph induced by all nodes within ``c_i_Q`` hops of each pivot
    image, unioned over the pivot entries.
    """
    nodes: set = set()
    for entry in pivot:
        seed = assignment[entry.variable]
        nodes |= k_hop_nodes(graph, [seed], entry.radius)
    return graph.induced_subgraph(nodes)


def data_block_size(
    graph: PropertyGraph,
    pivot: PivotVector,
    assignment: Dict[Variable, NodeId],
) -> int:
    """``|G_z̄|`` without materialising the block (workload estimation)."""
    nodes: set = set()
    for entry in pivot:
        seed = assignment[entry.variable]
        nodes |= k_hop_nodes(graph, [seed], entry.radius)
    edges = 0
    for node in nodes:
        for dst, labels in graph.out_neighbors(node).items():
            if dst in nodes:
                edges += len(labels)
    return len(nodes) + edges


def pivoted_matches(
    pattern: GraphPattern,
    block: PropertyGraph,
    assignment: Dict[Variable, NodeId],
    stats: Optional[MatchStats] = None,
) -> Iterator[Match]:
    """Matches of ``pattern`` in ``block`` that include the pivot candidate.

    ``assignment`` maps pivot variables to their candidate nodes; all
    enumerated matches satisfy ``h(z_i) = v_z̄[z_i]``.
    """
    matcher = SubgraphMatcher(pattern, block)
    return matcher.matches(fixed=assignment, stats=stats)


def pivot_candidates(
    graph: PropertyGraph,
    pattern: GraphPattern,
    pivot: PivotVector,
) -> Iterator[Dict[Variable, NodeId]]:
    """Enumerate pivot candidate assignments ``v_z̄`` (Section 5.2).

    One-to-one mappings from pivot variables to graph nodes with the same
    label (wildcard pivots range over all nodes).  For pivot entries whose
    components are isomorphic, symmetric permutations are deduplicated by
    requiring candidate tuples in non-decreasing node order within each
    symmetry class — the paper's Example 10 deduplication.

    A depth-first walk over the per-entry pools with an explicit stack of
    pool iterators, not a recursive nested generator (one holds itself
    through its own cell: a cycle per call that only a full collection
    frees).  Output order is the pools' product order, first entry
    slowest.
    """
    from ..graph.graph import WILDCARD

    entries = list(pivot)
    pools: List[List[NodeId]] = []
    for entry in entries:
        label = pattern.label(entry.variable)
        if label == WILDCARD:
            pool = list(graph.nodes())
        else:
            pool = list(graph.nodes_with_label(label))
        pools.append(sorted(pool, key=repr))

    prev_in_class = symmetry_predecessors(pattern, pivot)
    if not entries:
        yield {}
        return
    chosen: List[NodeId] = []
    levels = [iter(pools[0])]  # one pool iterator per open depth
    while levels:
        depth = len(chosen)
        prev = prev_in_class[depth]
        for node in levels[-1]:
            if node in chosen:
                continue  # one-to-one mapping σ
            if prev is not None and repr(node) < repr(chosen[prev]):
                # Canonical order within a class of isomorphic components
                # removes symmetric duplicates (Example 10).
                continue
            chosen.append(node)
            if depth + 1 == len(entries):
                yield {
                    entry.variable: chosen_node
                    for entry, chosen_node in zip(entries, chosen)
                }
                chosen.pop()
                continue
            levels.append(iter(pools[depth + 1]))
            break
        else:  # this depth is exhausted: back to the one above
            levels.pop()
            if chosen:
                chosen.pop()


def symmetry_predecessors(
    pattern: GraphPattern, pivot: PivotVector
) -> List[Optional[int]]:
    """For each pivot entry, the previous entry with an isomorphic component.

    ``None`` when the entry opens its symmetry class.  Used both to
    deduplicate candidate tuples and — dually — to re-expand a deduplicated
    tuple into all pivot-variable permutations during local detection (the
    dependency ``X → Y`` need not be symmetric under component swaps, so
    both orientations must be checked).
    """
    return list(_symmetry(pattern.signature(), pivot)[0])


def symmetry_classes(
    pattern: GraphPattern, pivot: PivotVector
) -> Tuple[Tuple[int, ...], ...]:
    """Pivot entry indices grouped into symmetry classes, first-seen order."""
    return _symmetry(pattern.signature(), pivot)[1]


#: distinct ``(pattern, pivot)`` shapes whose symmetry structure is kept
SYMMETRY_CACHE_SIZE = 512


@lru_cache(maxsize=SYMMETRY_CACHE_SIZE)
def _symmetry(signature: Tuple, pivot: PivotVector) -> Tuple[tuple, tuple]:
    """``(predecessors, classes)`` of a pivot vector, computed once.

    Every work unit re-expands its candidate over the leader's symmetry
    classes, and deciding them takes ``restricted_to`` views and
    isomorphism tests that depend only on the pattern and its pivot.
    Keyed by the pattern's *signature* (an immutable value), never by
    the mutable pattern object, so a later ``add_edge`` cannot alias an
    entry.
    """
    from ..pattern.containment import are_isomorphic

    nodes, edges = signature
    pattern = GraphPattern()
    for var, label in nodes:
        pattern.add_node(var, label)
    for src, dst, label in edges:
        pattern.add_edge(src, dst, label)
    entries = list(pivot)
    views = [pattern.restricted_to(entry.component) for entry in entries]
    prev: List[Optional[int]] = [None] * len(entries)
    classes: List[List[int]] = []
    class_of: List[int] = []
    for i in range(len(entries)):
        for j in range(i - 1, -1, -1):
            if are_isomorphic(views[i], views[j]):
                prev[i] = j
                break
        if prev[i] is None:
            class_of.append(len(classes))
            classes.append([i])
        else:
            class_of.append(class_of[prev[i]])
            classes[class_of[i]].append(i)
    return tuple(prev), tuple(tuple(members) for members in classes)


def candidate_permutations(
    pattern: GraphPattern,
    pivot: PivotVector,
    assignment: Dict[Variable, NodeId],
) -> Iterator[Dict[Variable, NodeId]]:
    """All reassignments of a candidate tuple within its symmetry classes.

    A deduplicated work unit for pivot ``(x, y)`` with candidate ``(a, b)``
    must check matches with ``h(x)=a, h(y)=b`` *and* ``h(x)=b, h(y)=a``
    when the two components are isomorphic; this generator produces exactly
    those assignments (each one a valid label-compatible bijection).
    """
    from itertools import permutations, product

    entries = list(pivot)
    classes = symmetry_classes(pattern, pivot)
    base = [assignment[entry.variable] for entry in entries]

    # Distinct permutations per class, first-seen order; their cartesian
    # product (first class slowest) is every reassignment, once each.  No
    # recursive nested generator: one holds itself through its own cell,
    # a cycle per call that only a full collection frees.
    class_perms = [
        list(dict.fromkeys(permutations([base[i] for i in members])))
        for members in classes
    ]
    for combo in product(*class_perms):
        values = list(base)
        for members, perm in zip(classes, combo):
            for slot, value in zip(members, perm):
                values[slot] = value
        yield {entry.variable: value for entry, value in zip(entries, values)}
