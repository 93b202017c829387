"""The dict-of-dicts reference matcher (Section 2 match semantics).

Non-induced subgraph isomorphism, searched the plain way: candidates are
the label-compatible nodes whose adjacency dicts can cover each
variable's labelled edges, and the backtracking search takes each
variable's frontier from a mapped neighbour's adjacency dict, checking
every pattern edge against ``PropertyGraph.has_edge``.  Slow and
obviously correct; product code runs :class:`repro.matching.
SubgraphMatcher` on the graph's snapshot index instead.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import AbstractSet, Dict, Iterator, List, Optional, Set, Tuple
from unittest import mock

from repro.core import discovery
from repro.core.satisfaction import match_satisfies_all
from repro.core.validation import make_violation
from repro.graph import WILDCARD
from repro.matching import MatchStats


def _label_candidates(pattern, graph) -> Dict[str, AbstractSet]:
    """Label-compatible candidates per pattern variable."""
    out: Dict[str, AbstractSet] = {}
    for var in pattern.nodes():
        label = pattern.label(var)
        if label == WILDCARD:
            out[var] = frozenset(graph.nodes())
        else:
            out[var] = set(graph.nodes_with_label(label))
    return out


def _covers(neighbors, need: Counter) -> bool:
    """Whether an adjacency dict has edges for every needed label.

    Wildcard pattern edges count against total degree.
    """
    if not need:
        return True
    have: Counter = Counter()
    total = 0
    for labels in neighbors.values():
        for label in labels:
            have[label] += 1
            total += 1
    for label, count in need.items():
        if label == WILDCARD:
            if total < sum(need.values()):
                return False
        elif have.get(label, 0) < count:
            return False
    return True


def oracle_candidates(pattern, graph) -> Dict[str, Set]:
    """Label- and degree-filtered candidates per pattern variable.

    A node survives for ``u`` only if, for every outgoing edge label of
    ``u`` (counted with multiplicity), it has at least that many outgoing
    edges with that label; symmetrically for incoming edges.
    """
    filtered: Dict[str, Set] = {}
    for var, cand in _label_candidates(pattern, graph).items():
        out_need = Counter(elabel for _, elabel in pattern.out_edges(var))
        in_need = Counter(elabel for _, elabel in pattern.in_edges(var))
        filtered[var] = {
            node
            for node in cand
            if _covers(graph.out_neighbors(node), out_need)
            and _covers(graph.in_neighbors(node), in_need)
        }
    return filtered


def _edge_ok(graph, src, dst, elabel: str) -> bool:
    if elabel == WILDCARD:
        return graph.has_edge(src, dst)
    return graph.has_edge(src, dst, elabel)


class OracleMatcher:
    """Reference matcher for one pattern over one ``PropertyGraph``.

    Mirrors the :class:`repro.matching.SubgraphMatcher` enumeration
    contract: ``matches(fixed=, limit=, stats=)`` yields every match
    (``fixed`` pre-assigns pivot variables), ``stats`` counts candidate
    extensions and matches, and ``candidates`` are in original-id space.
    """

    def __init__(self, pattern, graph) -> None:
        self.pattern = pattern
        self.graph = graph
        self.candidates = oracle_candidates(pattern, graph)
        self.order = self._plan_order()

    def _plan_order(self) -> List[str]:
        """Connectivity-first, rarest-candidates-first search order."""
        pattern = self.pattern
        placed: Set[str] = set()
        order: List[str] = []
        remaining = list(pattern.nodes())
        while remaining:
            def key(var: str) -> Tuple[int, int, str]:
                connected = sum(
                    1 for nbr, _ in pattern.out_edges(var) if nbr in placed
                ) + sum(1 for nbr, _ in pattern.in_edges(var) if nbr in placed)
                return (-connected, len(self.candidates[var]), var)

            best = min(remaining, key=key)
            order.append(best)
            placed.add(best)
            remaining.remove(best)
        return order

    def matches(
        self,
        fixed: Optional[Dict] = None,
        limit: Optional[int] = None,
        stats: Optional[MatchStats] = None,
    ) -> Iterator[Dict]:
        fixed = fixed or {}
        stats = stats if stats is not None else MatchStats()
        for var, node in fixed.items():
            if var not in self.candidates:
                raise KeyError(f"unknown pattern variable {var!r}")
            if node not in self.candidates[var]:
                return iter(())  # incompatible pivot: no matches
        if len(set(fixed.values())) != len(fixed):
            return iter(())  # pivot assignment not injective
        mapping = dict(fixed)
        for var in fixed:
            if not self._consistent(var, mapping[var], mapping, skip=var):
                return iter(())
        order = [v for v in self.order if v not in fixed]
        found = self._search(order, 0, mapping, set(fixed.values()), stats)
        return islice(found, limit) if limit is not None else found

    def _search(self, order, index, mapping, used, stats):
        if index == len(order):
            stats.matches += 1
            yield dict(mapping)
            return
        var = order[index]
        for node in self._frontier(var, mapping):
            if node in used:
                continue
            stats.steps += 1
            if not self._consistent(var, node, mapping):
                continue
            mapping[var] = node
            used.add(node)
            yield from self._search(order, index + 1, mapping, used, stats)
            del mapping[var]
            used.discard(node)

    def _frontier(self, var: str, mapping: Dict):
        """Candidates for ``var``: the smallest mapped neighbour's
        adjacency, else the global candidate set."""
        candidates = self.candidates[var]
        best: Optional[list] = None
        adjacent = [
            (self.graph.out_neighbors, nbr, elabel)
            for nbr, elabel in self.pattern.in_edges(var)
        ] + [
            (self.graph.in_neighbors, nbr, elabel)
            for nbr, elabel in self.pattern.out_edges(var)
        ]
        for neighbours_of, nbr, elabel in adjacent:
            if nbr not in mapping:
                continue
            pool = [
                node
                for node, labels in neighbours_of(mapping[nbr]).items()
                if (elabel == WILDCARD or elabel in labels)
                and node in candidates
            ]
            if best is None or len(pool) < len(best):
                best = pool
        return best if best is not None else candidates

    def _consistent(self, var, node, mapping, skip=None) -> bool:
        """All pattern edges between ``var`` and mapped variables exist."""
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


def oracle_matches(pattern, graph, fixed=None) -> Iterator[Dict]:
    """Every match of ``pattern`` in ``graph`` (see :class:`OracleMatcher`)."""
    return OracleMatcher(pattern, graph).matches(fixed=fixed)


def oracle_det_vio(sigma, graph) -> Set:
    """``Vio(Σ, G)``: every match satisfying ``X`` but not ``Y``."""
    out = set()
    for gfd in sigma:
        for match in oracle_matches(gfd.pattern, graph):
            if match_satisfies_all(graph, match, gfd.lhs) and not (
                match_satisfies_all(graph, match, gfd.rhs)
            ):
                out.add(make_violation(gfd, match))
    return out


def oracle_discover(graph, **params):
    """Serial discovery with every match enumerated by the oracle.

    Runs :func:`repro.core.discovery.discover_gfds` in ``"enumerate"``
    mode with its matcher swapped for :class:`OracleMatcher`, so the
    evidence, supports and confidences all come from reference matches.
    """
    with mock.patch.object(discovery, "SubgraphMatcher", OracleMatcher):
        return discovery.discover_gfds(graph, eval_mode="enumerate", **params)
