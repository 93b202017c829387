"""Candidate filtering for subgraph isomorphism.

Before the backtracking search runs, each pattern variable gets a candidate
set: graph nodes with a compatible label whose degree profile can cover the
variable's pattern edges.  Tight candidate sets are what make matching
feasible on the benchmark graphs — label filtering alone typically shrinks
the search space by two to three orders of magnitude.

Filtering runs over a :class:`GraphSnapshot` — label-pair-index seeding
plus precomputed neighbour-label histograms — and never touches an
adjacency dict.  The differential suite checks that its candidate sets are
subsets of the plain label-and-degree filter of the dict-of-dicts
reference walk in ``tests/oracle``, and that both yield identical match
sets downstream.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple, Union

from ..graph.graph import NodeId, PropertyGraph, WILDCARD
from ..graph.snapshot import ABSENT_CODE, GraphSnapshot
from ..pattern.pattern import GraphPattern, Variable


def compute_candidate_indices(
    pattern: GraphPattern, snap: GraphSnapshot
) -> Dict[Variable, Set[int]]:
    """Candidate node *indices* per variable, via the snapshot's indices.

    Three narrowing stages, each sound (a match image always survives):

    1. label seeding from the interned label index;
    2. pair-index intersection — for every pattern edge whose source
       label, edge label, and target label are all concrete, candidates
       must actually participate in such a graph edge;
    3. histogram degree filtering against the precomputed per-node
       neighbour-label histograms: for every outgoing edge label ``l``
       of the variable (counted with multiplicity) a node needs at least
       that many outgoing ``l``-edges, symmetrically for incoming edges,
       and wildcard pattern edges count against total degree.
    """
    cand: Dict[Variable, Set[int]] = {}
    all_idx: Optional[range] = None
    for var in pattern.nodes():
        label = pattern.label(var)
        if label == WILDCARD:
            if all_idx is None:
                all_idx = range(snap.num_nodes)
            cand[var] = set(all_idx)
        else:
            code = snap.node_label_code(label)
            members = snap.nodes_by_label.get(code) if code is not None else None
            cand[var] = set(members) if members else set()

    for src, dst, elabel in pattern.edges():
        src_label = pattern.label(src)
        dst_label = pattern.label(dst)
        if WILDCARD in (src_label, dst_label, elabel):
            continue
        key = (
            snap.node_label_code(src_label),
            snap.edge_label_code(elabel),
            snap.node_label_code(dst_label),
        )
        cand[src] &= snap.pair_src.get(key, frozenset())
        cand[dst] &= snap.pair_dst.get(key, frozenset())

    for var in pattern.nodes():
        pool = cand[var]
        if not pool:
            continue
        out_need = _need_codes(snap, pattern.out_edges(var))
        in_need = _need_codes(snap, pattern.in_edges(var))
        if out_need is None or in_need is None:
            # A pattern edge label the graph has never seen: unmatchable.
            pool.clear()
            continue
        if not out_need[0] and not out_need[1] and not in_need[0] and not in_need[1]:
            continue
        cand[var] = {
            idx
            for idx in pool
            if _hist_covers(snap.out_hist[idx], snap.out_deg[idx], out_need)
            and _hist_covers(snap.in_hist[idx], snap.in_deg[idx], in_need)
        }
    return cand


def _need_codes(
    snap: GraphSnapshot, edges: List[Tuple[Variable, str]]
) -> Optional[Tuple[List[Tuple[int, int]], int]]:
    """``(concrete (code, count) needs, total including wildcards)``.

    ``None`` when some needed edge label is absent from the graph — no
    node can cover it.
    """
    concrete: Counter = Counter()
    total = 0
    for _, elabel in edges:
        total += 1
        if elabel == WILDCARD:
            continue
        code = snap.edge_label_code(elabel)
        if code == ABSENT_CODE:
            return None
        concrete[code] += 1
    wildcards = total - sum(concrete.values())
    # The total-degree bound applies only when a wildcard edge is present.
    return (list(concrete.items()), total if wildcards else 0)


def _hist_covers(
    hist: Dict[int, int], degree: int, need: Tuple[List[Tuple[int, int]], int]
) -> bool:
    concrete, total = need
    if total and degree < total:
        return False
    for code, count in concrete:
        if hist.get(code, 0) < count:
            return False
    return True


def compute_candidates(
    pattern: GraphPattern, graph: Union[PropertyGraph, GraphSnapshot]
) -> Dict[Variable, Set[NodeId]]:
    """Filtered candidate sets in original-id space (the matcher's
    starting point): the id view of :func:`compute_candidate_indices`.

    A :class:`PropertyGraph` resolves to its cached ``graph.snapshot()``.
    """
    snap = graph if isinstance(graph, GraphSnapshot) else graph.snapshot()
    ids = snap.node_ids
    return {
        var: {ids[idx] for idx in members}
        for var, members in compute_candidate_indices(pattern, snap).items()
    }
