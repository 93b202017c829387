"""Incremental violation maintenance under graph updates.

The paper's related work ([17, 18]) maintains CFD violations under
relational updates; the GFD workload model makes the graph analogue
natural: by the locality of subgraph isomorphism (Section 5.2), a match of
``φ``'s pattern that gains or loses violation status after an update must
lie within ``c_Q`` hops of the touched nodes — so only the affected data
blocks need re-validation, not the whole graph.

:class:`IncrementalValidator` keeps ``Vio(Σ, G)`` current under four update
kinds — attribute set, edge insertion, edge deletion, node insertion.
Only matches *containing* a touched node can change status (an attribute
flip changes their literal values; an edge change creates or destroys them
through its endpoints), so maintenance drops exactly those stale verdicts
and re-enumerates exactly those matches — by pinning each pattern variable
to each touched node and letting the matcher's adjacency-driven search
complete the rest.  Cost is proportional to the match volume around the
touched nodes, independent of ``|G|`` (the ``test_incremental`` suite
asserts equality with from-scratch detection after every update, and
``bench_ablation`` measures the gap).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Set

from ..graph.graph import NodeId, PropertyGraph
from ..graph.updates import apply_op, check_ops, is_structural, op_nodes
from ..matching.vf2 import SubgraphMatcher
from .gfd import GFD
from .satisfaction import match_satisfies_all
from .validation import Violation, det_vio, make_violation


class UpdateDiff(set):
    """The violation delta of one update (or batch): added and removed.

    The set content *is* the added violations — callers that treat the
    return of :meth:`IncrementalValidator.set_attr` /
    :func:`apply_updates` as "the new violations" keep working verbatim —
    and :attr:`removed` carries the violations the update resolved.
    Both sides are exact deltas against the pre-update state:
    ``added ⊆ Vio_after - Vio_before`` and ``removed ⊆ Vio_before -
    Vio_after`` hold with equality, so ``added & removed == set()`` by
    construction and an add-then-remove of the same edge inside one
    batch folds to the empty diff.
    """

    __slots__ = ("removed",)

    def __init__(
        self,
        added: Iterable[Violation] = (),
        removed: Iterable[Violation] = (),
    ) -> None:
        super().__init__(added)
        self.removed: Set[Violation] = set(removed)

    @property
    def added(self) -> Set[Violation]:
        """The added violations as a plain set (== ``set(self)``)."""
        return set(self)

    def then(self, other: "UpdateDiff") -> "UpdateDiff":
        """Sequential composition: this diff, then ``other``.

        With ``(A, R)`` exact against state ``V0`` (giving ``V1``) and
        ``(a, r)`` exact against ``V1`` (giving ``V2``), the composition
        is exact against ``V0``::

            added   = (A - r) | (a - R)
            removed = (R - a) | (r - A)

        A violation introduced then resolved (or resolved then
        re-introduced) inside the window cancels out entirely, so
        telescoping a diff stream always reproduces ``V_final - V_0`` /
        ``V_0 - V_final`` exactly.
        """
        return UpdateDiff(
            (self - other.removed) | (set(other) - self.removed),
            (self.removed - set(other)) | (other.removed - self),
        )

    def apply(self, violations: Set[Violation]) -> Set[Violation]:
        """The violation set after this diff: ``(V - removed) | added``."""
        return (set(violations) - self.removed) | set(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"UpdateDiff(added={len(self)}, removed={len(self.removed)})"


class IncrementalValidator:
    """Maintains ``Vio(Σ, G)`` while ``G`` is updated in place.

    Construct over a graph and rule set (pays one full ``detVio``), then
    route every update through the mutator methods::

        validator = IncrementalValidator(sigma, graph)
        validator.set_attr(node, "city", "Edi")
        validator.add_edge(u, v, "capital")
        print(validator.violations)

    The graph object is shared — do not mutate it behind the validator's
    back, or call :meth:`rebuild` afterwards.

    The update path matches on the graph's indexed
    :class:`GraphSnapshot`: snapshots are delta-maintained
    (``GraphSnapshot.apply_delta``), so re-indexing after an update costs
    ``O(|Δ| · deg)`` rather than ``O(|G|)`` and the locality bound this
    class honours survives the index.

    ``violations`` seeds the maintained set when the caller has already
    computed ``Vio(Σ, G)`` for the *current* graph (e.g. a
    :class:`~repro.session.ValidationSession` run), skipping the
    constructor's full ``detVio`` pass.
    """

    def __init__(
        self,
        sigma: Sequence[GFD],
        graph: PropertyGraph,
        violations: Optional[Set[Violation]] = None,
    ) -> None:
        self.sigma = list(sigma)
        names = [gfd.name or "gfd" for gfd in self.sigma]
        if len(set(names)) != len(names):
            # Stale-violation removal is keyed by GFD name.
            raise ValueError("incremental validation requires unique GFD names")
        self.graph = graph
        self.violations: Set[Violation] = (
            set(violations)
            if violations is not None
            else det_vio(self.sigma, graph)
        )
        # Matchers are cached across updates: their candidate sets depend
        # only on labels and degrees, so attribute updates reuse them and
        # structural updates invalidate the cache.
        self._matchers: Dict[int, SubgraphMatcher] = {}

    # ------------------------------------------------------------------
    # update API
    # ------------------------------------------------------------------
    def apply(self, op: tuple) -> UpdateDiff:
        """Apply one checked op and re-validate every GFD around it.

        Only matches *containing* one of the op's nodes can change status
        (an attribute flip changes their literals; an edge change creates
        or destroys them through its endpoints), so exactly those verdicts
        are dropped and exactly those matches re-checked.  Returns the
        exact :class:`UpdateDiff`: ``fresh - stale`` appeared with this
        op, ``stale - fresh`` disappeared.  An op the graph rejects
        raises with the graph and the maintained set unchanged.
        """
        apply_op(self.graph, op)
        touched = set(op_nodes(op))
        if is_structural(op):
            self._matchers.clear()
        diff = UpdateDiff()
        for index, gfd in enumerate(self.sigma):
            stale = {
                v
                for v in self.violations
                if v.gfd_name == (gfd.name or "gfd") and (v.nodes() & touched)
            }
            self.violations -= stale
            fresh = self._violations_touching(index, gfd, touched)
            self.violations |= fresh
            diff |= fresh - stale
            diff.removed |= stale - fresh
        return diff

    def set_attr(self, node: NodeId, attr: str, value: Any) -> UpdateDiff:
        """Set an attribute and refresh affected violations."""
        return self.apply(("attr", node, attr, value))

    def add_edge(self, src: NodeId, dst: NodeId, label: str) -> UpdateDiff:
        """Insert an edge and refresh affected violations."""
        return self.apply(("edge+", src, dst, label))

    def remove_edge(self, src: NodeId, dst: NodeId, label: str) -> UpdateDiff:
        """Delete an edge and refresh affected violations."""
        return self.apply(("edge-", src, dst, label))

    def add_node(
        self, node: NodeId, label: str, attrs: Optional[Dict[str, Any]] = None
    ) -> UpdateDiff:
        """Insert a node (with attributes) and refresh affected violations."""
        return self.apply(("node", node, label, attrs))

    def rebuild(self) -> None:
        """Recompute from scratch (after out-of-band mutations)."""
        self._matchers.clear()
        self.violations = det_vio(self.sigma, self.graph)

    def invalidate_matchers(self) -> None:
        """Drop cached matchers (their candidate sets went stale).

        For callers that already know the correct violation set for the
        current graph (e.g. a session reconciling after a full run) and
        only need the matcher caches refreshed, without paying
        :meth:`rebuild`'s full ``detVio``.
        """
        self._matchers.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _violations_touching(
        self, index: int, gfd: GFD, touched: Set[NodeId]
    ) -> Set[Violation]:
        """Violating matches containing at least one touched node.

        Every such match maps *some* pattern variable onto a touched node,
        so pinning each (label-compatible) variable to each touched node
        and letting the matcher's adjacency-driven search complete the
        rest enumerates them all — no data block is materialised, and the
        cost is proportional to the matches around the touched nodes
        rather than to any neighbourhood's size.
        """
        out: Set[Violation] = set()
        matcher = self._matchers.get(index)
        if matcher is None:
            # This resolves to the graph's cached snapshot, which
            # apply_delta keeps current in O(|Δ| · deg) per update —
            # matcher construction (candidate seeding over the warm
            # index) is the only per-update rebuild cost.
            matcher = SubgraphMatcher(gfd.pattern, self.graph)
            self._matchers[index] = matcher
        graph = self.graph
        for node in touched:
            if node not in graph:
                continue  # e.g. endpoint of a removed structure
            for var in gfd.pattern.variables:
                for match in matcher.matches(fixed={var: node}):
                    if match_satisfies_all(graph, match, gfd.lhs) and not \
                            match_satisfies_all(graph, match, gfd.rhs):
                        out.add(make_violation(gfd, match))
        return out


def apply_updates(
    validator: IncrementalValidator,
    updates: Iterable[tuple],
) -> UpdateDiff:
    """Apply a batch of updates; returns the batch's :class:`UpdateDiff`.

    ``updates`` are update-op tuples (README, "Update ops"); the whole
    batch is shape-checked before the first op is applied.

    The per-op diffs are folded with :meth:`UpdateDiff.then`, so the
    result is exact against the *pre-batch* state: the set content is
    the violations the whole batch introduced, ``.removed`` the ones it
    resolved, and a violation that flickered inside the batch appears in
    neither.  Iterating the return as a plain set (the historical
    behaviour) still yields exactly the newly-introduced violations.
    """
    diff = UpdateDiff()
    for op in check_ops(updates):
        diff = diff.then(validator.apply(op))
    return diff
