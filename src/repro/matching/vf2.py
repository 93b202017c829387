"""Subgraph isomorphism matching (Section 2 semantics).

A *match* of pattern ``Q[x̄]`` in graph ``G`` is an injective mapping ``h``
from pattern variables to graph nodes such that

* node labels agree (the wildcard ``'_'`` matches any label), and
* every pattern edge ``(u, u')`` with label ``l`` maps to a graph edge
  ``(h(u), h(u'))`` carrying ``l`` (or any label, if ``l`` is wildcard).

This is non-induced subgraph isomorphism: extra graph edges between matched
nodes are permitted, exactly as in the paper's definition (the isomorphism
is onto the subgraph ``G'`` formed by the *images* of the pattern's nodes
and edges).

The matcher is a VF2-flavoured backtracking search: variables are ordered
so that each one (where possible) is adjacent to an already-placed
variable, in which case its candidates come from the placed neighbour's
adjacency rather than the global label index.  Disconnected patterns
fall back to the label index when a fresh component starts, preserving
completeness.

Two interchangeable backends drive the search (see
:mod:`repro.graph.snapshot` for the selection rules):

* ``legacy`` — the original dict-of-dicts walk over a
  :class:`PropertyGraph`;
* ``snapshot`` — index-space search over a :class:`GraphSnapshot`:
  candidates, frontiers, and edge checks all run on interned ints, and
  matches are translated back to original node ids only when yielded.

Both backends enumerate exactly the same match set (the differential
harness in ``tests/test_matcher_differential.py`` locks this in); only
the traversal cost differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..graph.graph import NodeId, PropertyGraph, WILDCARD
from ..graph.snapshot import GraphSnapshot
from ..pattern.pattern import GraphPattern, Variable
from .candidates import compute_candidate_indices, compute_candidates
from .factorised import EVAL_MODES, FactorisedPlan, build_plan

Match = Dict[Variable, NodeId]

#: Sentinel for "this pivot assignment admits no matches" — distinct from
#: ``None`` (no restriction at all) in the factorised query paths.
_NO_MATCH = object()

#: Accepted matcher backends: ``auto`` resolves a PropertyGraph to its
#: cached snapshot; ``legacy``/``snapshot`` force one path.
BACKENDS = ("auto", "legacy", "snapshot")


@dataclass
class MatchStats:
    """Search-effort counters, used by the cluster cost model.

    ``steps`` counts candidate extensions attempted — a deterministic,
    machine-independent proxy for matching work.  The two backends may
    report different ``steps`` for the same query (the indexed one prunes
    earlier); ``matches`` is always identical.
    """

    steps: int = 0
    matches: int = 0


class SubgraphMatcher:
    """Reusable matcher for one pattern over one graph.

    Construct once, then call :meth:`matches` (optionally with pre-assigned
    pivot variables) as many times as needed; candidate computation is done
    once at construction.

    ``graph`` may be a :class:`PropertyGraph` or a :class:`GraphSnapshot`.
    ``backend`` selects the search implementation: ``"auto"`` (default)
    uses the graph's cached snapshot, ``"legacy"`` forces the dict-backed
    path, ``"snapshot"`` forces the indexed path.
    """

    def __init__(
        self,
        pattern: GraphPattern,
        graph: Union[PropertyGraph, GraphSnapshot],
        backend: str = "auto",
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown matcher backend {backend!r}")
        self.pattern = pattern
        self.graph: Optional[PropertyGraph]
        self.snapshot: Optional[GraphSnapshot]
        if isinstance(graph, GraphSnapshot):
            if backend == "legacy":
                raise ValueError(
                    "backend='legacy' requires a PropertyGraph, got a snapshot"
                )
            self.graph = None
            self.snapshot = graph
        elif backend == "legacy":
            self.graph = graph
            self.snapshot = None
        else:
            self.graph = graph
            self.snapshot = graph.snapshot()
        self.backend = "legacy" if self.snapshot is None else "snapshot"

        if self.snapshot is not None:
            self._cand: Dict[Variable, Set] = compute_candidate_indices(
                pattern, self.snapshot
            )
            self._compile_pattern(self.snapshot)
            # Plain functions, called as ``self._frontier(self, ...)``: a
            # bound method stored on ``self`` is a reference cycle that
            # only a full collection frees (see README "Worker heap").
            self._frontier = SubgraphMatcher._frontier_indexed
            self._consistent = SubgraphMatcher._consistent_indexed
        else:
            self._cand = compute_candidates(pattern, graph)
            self._frontier = SubgraphMatcher._frontier_legacy
            self._consistent = SubgraphMatcher._consistent_legacy
        self._cand_nodes: Optional[Dict[Variable, Set[NodeId]]] = None
        self.order = self._plan_order()
        # Lazily-compiled factorised plan: None = not tried yet, False =
        # tried and the pattern does not factorise on this backend.
        self._fact_plan: Union[FactorisedPlan, None, bool] = None

    def _compile_pattern(self, snap: GraphSnapshot) -> None:
        """Pre-translate pattern edge labels to interned codes."""
        self._pat_out: Dict[Variable, List[Tuple[Variable, int]]] = {}
        self._pat_in: Dict[Variable, List[Tuple[Variable, int]]] = {}
        for var in self.pattern.nodes():
            self._pat_out[var] = [
                (nbr, snap.edge_label_code(elabel))
                for nbr, elabel in self.pattern.out_edges(var)
            ]
            self._pat_in[var] = [
                (nbr, snap.edge_label_code(elabel))
                for nbr, elabel in self.pattern.in_edges(var)
            ]

    @property
    def candidates(self) -> Dict[Variable, Set[NodeId]]:
        """Candidate sets in original-id space (either backend)."""
        if self._cand_nodes is None:
            if self.snapshot is not None:
                ids = self.snapshot.node_ids
                self._cand_nodes = {
                    var: {ids[idx] for idx in members}
                    for var, members in self._cand.items()
                }
            else:
                self._cand_nodes = self._cand
        return self._cand_nodes

    def _plan_order(self) -> List[Variable]:
        """Connectivity-first, rarest-candidates-first search order."""
        pattern = self.pattern
        placed: Set[Variable] = set()
        order: List[Variable] = []
        remaining = list(pattern.nodes())
        while remaining:
            def key(var: Variable) -> Tuple[int, int, str]:
                connected = sum(
                    1 for nbr, _ in pattern.out_edges(var) if nbr in placed
                ) + sum(1 for nbr, _ in pattern.in_edges(var) if nbr in placed)
                return (-connected, len(self._cand[var]), var)

            best = min(remaining, key=key)
            order.append(best)
            placed.add(best)
            remaining.remove(best)
        return order

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def matches(
        self,
        fixed: Optional[Match] = None,
        limit: Optional[int] = None,
        stats: Optional[MatchStats] = None,
    ) -> Iterator[Match]:
        """Enumerate matches lazily.

        ``fixed`` pre-assigns variables to graph nodes (pivoted matching,
        Section 6.1: matches "h(x̄) such that h(x̄) includes v_z̄").
        ``limit`` stops after that many matches — per call: the bound
        applies to the matches *this* iterator yields, regardless of any
        shared ``stats`` carried over from earlier calls, and
        ``limit=0`` yields nothing.  ``stats`` accumulates search-effort
        counters.
        """
        fixed = fixed or {}
        stats = stats if stats is not None else MatchStats()
        for var in fixed:
            if var not in self.pattern:
                raise KeyError(f"unknown pattern variable {var!r}")
        if self.snapshot is not None:
            index_of = self.snapshot.index
            pinned: Dict[Variable, int] = {}
            for var, node in fixed.items():
                idx = index_of.get(node)
                if idx is None or idx not in self._cand[var]:
                    return iter(())  # incompatible pivot: no matches
                pinned[var] = idx
        else:
            pinned = dict(fixed)
            for var, node in pinned.items():
                if node not in self._cand[var]:
                    return iter(())  # incompatible pivot: no matches
        if len(set(pinned.values())) != len(pinned):
            return iter(())  # pivot assignment not injective
        mapping = dict(pinned)
        used = set(pinned.values())
        # Validate edges among fixed variables up front.
        for var in pinned:
            if not self._consistent(self, var, mapping[var], mapping, skip=var):
                return iter(())
        order = [v for v in self.order if v not in pinned]
        found = self._search(order, 0, mapping, used, stats)
        if limit is not None:
            return islice(found, limit)
        return found

    def first_match(self, fixed: Optional[Match] = None) -> Optional[Match]:
        """The first match found, or ``None``."""
        return next(self.matches(fixed=fixed, limit=1), None)

    def count_matches(
        self,
        fixed: Optional[Match] = None,
        stats: Optional[MatchStats] = None,
        eval_mode: str = "auto",
    ) -> int:
        """Total number of matches (materialises nothing).

        ``eval_mode`` selects the evaluation strategy: ``"auto"``
        answers by factorised variable elimination when the pattern's
        join structure permits (see :mod:`repro.matching.factorised`)
        and enumerates otherwise; ``"factorised"`` forces elimination
        (raising :class:`ValueError` when the pattern does not
        factorise); ``"enumerate"`` forces the VF2 walk.
        """
        plan = self._plan_for(eval_mode)
        if plan is not None:
            restrict = self._pin_indices(fixed)
            if restrict is _NO_MATCH:
                return 0
            return plan.count(restrict, stats=stats)
        return sum(1 for _ in self.matches(fixed=fixed, stats=stats))

    def evidence(
        self,
        graph: Optional[PropertyGraph] = None,
        fixed: Optional[Match] = None,
        eval_mode: str = "auto",
        stats: Optional[MatchStats] = None,
    ):
        """``(count, EvidenceAggregate)`` over the full match set.

        Equivalent to folding every match through
        :meth:`repro.core.discovery.EvidenceAggregate.add`, but under
        ``eval_mode="auto"``/``"factorised"`` computed without
        enumerating when the pattern factorises.  ``graph`` supplies
        node attributes (snapshots index structure only) and defaults
        to the matcher's own ``PropertyGraph``; pass it explicitly when
        the matcher was built directly on a snapshot.
        """
        from ..core.discovery import EvidenceAggregate

        source = graph if graph is not None else self.graph
        if source is None:
            raise ValueError(
                "evidence() needs a PropertyGraph for attribute lookups"
            )
        plan = self._plan_for(eval_mode)
        if plan is not None:
            restrict = self._pin_indices(fixed)
            if restrict is _NO_MATCH:
                return 0, EvidenceAggregate()
            return plan.evidence(source, restrict, stats=stats)
        aggregate = EvidenceAggregate()
        for match in self.matches(fixed=fixed, stats=stats):
            aggregate.add(source, match)
        return aggregate.count, aggregate

    def dependency_tallies(
        self,
        deps,
        graph: Optional[PropertyGraph] = None,
        fixed: Optional[Match] = None,
        eval_mode: str = "auto",
        stats: Optional[MatchStats] = None,
    ) -> List[Tuple[int, int]]:
        """``(supported, satisfied)`` per ``(lhs, rhs)`` candidate.

        The count phase's core query, answered over the *full* match
        set.  Factorised evaluation handles candidates spanning at most
        two variables (everything proposal emits); anything else — or an
        unhashable attribute value — falls back to a single shared
        enumeration over all candidates.
        """
        from ..core.satisfaction import match_satisfies_all

        source = graph if graph is not None else self.graph
        if source is None:
            raise ValueError(
                "dependency_tallies() needs a PropertyGraph for attributes"
            )
        plan = self._plan_for(eval_mode)
        if plan is not None:
            restrict = self._pin_indices(fixed)
            if restrict is _NO_MATCH:
                return [(0, 0) for _ in deps]
            tallies = plan.dependency_tallies(
                source, deps, restrict, stats=stats
            )
            if tallies is not None:
                return tallies
            if eval_mode == "factorised":
                raise ValueError(
                    "dependency candidates exceed the factorised plan's "
                    "supported forms (more than two variables involved, "
                    "or unhashable attribute values)"
                )
        counts = [[0, 0] for _ in deps]
        for match in self.matches(fixed=fixed, stats=stats):
            for position, (lhs, rhs) in enumerate(deps):
                if match_satisfies_all(source, match, lhs):
                    counts[position][0] += 1
                    if match_satisfies_all(source, match, rhs):
                        counts[position][1] += 1
        return [(supported, satisfied) for supported, satisfied in counts]

    # ------------------------------------------------------------------
    # factorised evaluation plumbing
    # ------------------------------------------------------------------
    def factorised_plan(self) -> Optional[FactorisedPlan]:
        """The compiled factorised plan, or ``None`` if not factorisable.

        Compiled lazily on first use and cached on the matcher (the
        engine's block materialiser caches matchers per pattern, so the
        plan survives across work units exactly like the candidate
        sets).  Always ``None`` on the legacy backend — elimination
        runs on the snapshot's CSR index.
        """
        plan = self._fact_plan
        if plan is None:
            plan = build_plan(self.pattern, self.snapshot, self._cand)
            self._fact_plan = plan if plan is not None else False
        return plan or None

    def _plan_for(self, eval_mode: str) -> Optional[FactorisedPlan]:
        if eval_mode not in EVAL_MODES:
            raise ValueError(f"unknown eval mode {eval_mode!r}")
        if eval_mode == "enumerate":
            return None
        plan = self.factorised_plan()
        if plan is None and eval_mode == "factorised":
            raise ValueError(
                "pattern does not factorise (cyclic join structure, too "
                "many variables, or legacy backend); use eval_mode='auto' "
                "or 'enumerate'"
            )
        return plan

    def _pin_indices(self, fixed: Optional[Match]):
        """Translate ``fixed`` to an index-space restriction.

        Mirrors :meth:`matches`' pivot validation exactly: unknown
        variables raise, incompatible or non-injective assignments
        admit no matches (returned as :data:`_NO_MATCH`)."""
        if not fixed:
            return None
        index_of = self.snapshot.index
        restrict: Dict[Variable, int] = {}
        for var, node in fixed.items():
            if var not in self.pattern:
                raise KeyError(f"unknown pattern variable {var!r}")
            idx = index_of.get(node)
            if idx is None or idx not in self._cand[var]:
                return _NO_MATCH
            restrict[var] = idx
        if len(set(restrict.values())) != len(restrict):
            return _NO_MATCH
        return restrict

    # ------------------------------------------------------------------
    # search internals
    # ------------------------------------------------------------------
    def _search(
        self,
        order: List[Variable],
        index: int,
        mapping: Dict[Variable, object],
        used: Set,
        stats: MatchStats,
    ) -> Iterator[Match]:
        if index == len(order):
            stats.matches += 1
            yield self._emit(mapping)
            return
        var = order[index]
        for node in self._frontier(self, var, mapping):
            if node in used:
                continue
            stats.steps += 1
            if not self._consistent(self, var, node, mapping):
                continue
            mapping[var] = node
            used.add(node)
            yield from self._search(order, index + 1, mapping, used, stats)
            del mapping[var]
            used.discard(node)

    def _emit(self, mapping: Dict[Variable, object]) -> Match:
        if self.snapshot is not None:
            ids = self.snapshot.node_ids
            return {var: ids[idx] for var, idx in mapping.items()}
        return dict(mapping)

    # -- legacy backend -------------------------------------------------
    def _frontier_legacy(self, var: Variable, mapping: Match) -> Iterator[NodeId]:
        """Candidates for ``var`` given the partial mapping.

        If ``var`` is adjacent to a mapped variable, walk that node's
        adjacency (small); otherwise fall back to the global candidate set.
        """
        pattern = self.pattern
        graph = self.graph
        candidates = self._cand[var]
        # Find the mapped neighbour with the smallest adjacency.
        best: Optional[Tuple[int, Iterator[NodeId]]] = None
        for nbr, elabel in pattern.in_edges(var):
            # pattern edge nbr -> var: candidates are out-neighbours of h(nbr)
            if nbr in mapping:
                image = mapping[nbr]
                nbrs = graph.out_neighbors(image)
                pool = [
                    node
                    for node, labels in nbrs.items()
                    if (elabel == WILDCARD or elabel in labels) and node in candidates
                ]
                if best is None or len(pool) < best[0]:
                    best = (len(pool), iter(pool))
        for nbr, elabel in pattern.out_edges(var):
            # pattern edge var -> nbr: candidates are in-neighbours of h(nbr)
            if nbr in mapping:
                image = mapping[nbr]
                nbrs = graph.in_neighbors(image)
                pool = [
                    node
                    for node, labels in nbrs.items()
                    if (elabel == WILDCARD or elabel in labels) and node in candidates
                ]
                if best is None or len(pool) < best[0]:
                    best = (len(pool), iter(pool))
        if best is not None:
            return best[1]
        return iter(candidates)

    def _consistent_legacy(
        self,
        var: Variable,
        node: NodeId,
        mapping: Match,
        skip: Optional[Variable] = None,
    ) -> bool:
        """All pattern edges between ``var`` and mapped variables must exist."""
        graph = self.graph
        for nbr, elabel in self.pattern.out_edges(var):
            if nbr == var:  # self loop
                if not _edge_ok(graph, node, node, elabel):
                    return False
            elif nbr in mapping and nbr != skip:
                if not _edge_ok(graph, node, mapping[nbr], elabel):
                    return False
        for nbr, elabel in self.pattern.in_edges(var):
            if nbr in mapping and nbr != skip and nbr != var:
                if not _edge_ok(graph, mapping[nbr], node, elabel):
                    return False
        return True

    # -- indexed backend ------------------------------------------------
    def _frontier_indexed(self, var: Variable, mapping: Dict[Variable, int]):
        """Index-space frontier: CSR slices instead of adjacency-dict scans."""
        snap = self.snapshot
        candidates = self._cand[var]
        best: Optional[List[int]] = None
        for nbr, code in self._pat_in[var]:
            # pattern edge nbr -> var: candidates are out-neighbours of h(nbr)
            if nbr in mapping:
                pool = [
                    idx
                    for idx in snap.out_pool(mapping[nbr], code)
                    if idx in candidates
                ]
                if best is None or len(pool) < len(best):
                    best = pool
        for nbr, code in self._pat_out[var]:
            # pattern edge var -> nbr: candidates are in-neighbours of h(nbr)
            if nbr in mapping:
                pool = [
                    idx
                    for idx in snap.in_pool(mapping[nbr], code)
                    if idx in candidates
                ]
                if best is None or len(pool) < len(best):
                    best = pool
        if best is not None:
            return best
        return iter(candidates)

    def _consistent_indexed(
        self,
        var: Variable,
        node: int,
        mapping: Dict[Variable, int],
        skip: Optional[Variable] = None,
    ) -> bool:
        """Consistency via the snapshot's O(1) interned edge sets."""
        edge_ok = self.snapshot.edge_ok
        for nbr, code in self._pat_out[var]:
            if nbr == var:  # self loop
                if not edge_ok(node, node, code):
                    return False
            elif nbr in mapping and nbr != skip:
                if not edge_ok(node, mapping[nbr], code):
                    return False
        for nbr, code in self._pat_in[var]:
            if nbr in mapping and nbr != skip and nbr != var:
                if not edge_ok(mapping[nbr], node, code):
                    return False
        return True


def _edge_ok(graph: PropertyGraph, src: NodeId, dst: NodeId, elabel: str) -> bool:
    if elabel == WILDCARD:
        return graph.has_edge(src, dst)
    return graph.has_edge(src, dst, elabel)


# ----------------------------------------------------------------------
# module-level conveniences
# ----------------------------------------------------------------------
def find_matches(
    pattern: GraphPattern,
    graph: Union[PropertyGraph, GraphSnapshot],
    fixed: Optional[Match] = None,
    limit: Optional[int] = None,
    stats: Optional[MatchStats] = None,
    backend: str = "auto",
) -> Iterator[Match]:
    """Enumerate matches of ``pattern`` in ``graph`` (see the class docs)."""
    return SubgraphMatcher(pattern, graph, backend=backend).matches(
        fixed=fixed, limit=limit, stats=stats
    )


def has_match(
    pattern: GraphPattern,
    graph: Union[PropertyGraph, GraphSnapshot],
    backend: str = "auto",
) -> bool:
    """Whether ``pattern`` matches anywhere in ``graph``."""
    return SubgraphMatcher(pattern, graph, backend=backend).first_match() is not None


def count_matches(
    pattern: GraphPattern,
    graph: Union[PropertyGraph, GraphSnapshot],
    backend: str = "auto",
    eval_mode: str = "auto",
) -> int:
    """Number of matches of ``pattern`` in ``graph``."""
    return SubgraphMatcher(pattern, graph, backend=backend).count_matches(
        eval_mode=eval_mode
    )
