"""Enumeration-free pattern evaluation by variable elimination.

Discovery's count phase asks *aggregate* questions about a pattern's
match set — how many injective matches are there, how many map variable
``x`` to each node, which dependency candidates do they support — yet
until now every one of them was answered by running VF2 and folding the
enumerated matches.  For the tree-shaped patterns ``candidate_patterns``
emits (and most of what the generators produce), those aggregates are
computable *without materialising a single match*: the pattern's join
structure is acyclic, so homomorphism counts factorise into a bottom-up
dynamic program over :class:`~repro.graph.snapshot.GraphSnapshot`'s CSR
label-pair index, in ``O(|G| · |pattern|)`` — the FAQ / factorised-
database observation applied to GFD mining.

Injectivity — the part plain homomorphism counting gets wrong — is
restored exactly via Möbius inversion over the partition lattice of the
pattern's variables::

    inj(Q) = Σ_P  μ(P) · hom(Q / P)        over set partitions P,
    μ(P)   = Π_{blocks B} (-1)^{|B|-1} (|B|-1)!

where ``Q / P`` merges each block of variables into one quotient node
(keeping every edge as a constraint).  The identity holds pointwise per
assignment, so it survives *any* per-variable candidate restriction
applied consistently (quotient candidates are block-wise intersections)
— which is what makes pivot pinning and the matcher's pruned candidate
sets sound here.  A quotient whose condensed constraint graph is cyclic
cannot be eliminated on a tree; if such a quotient has non-empty
candidates the plan is rejected and the caller falls back to
enumeration.  :class:`~repro.matching.vf2.SubgraphMatcher` wires the
fallback behind its ``eval_mode`` knob, which the serial reference
:func:`~repro.core.discovery.discover_gfds` passes through; the parallel
engine has no knob — its mine/count units factorise whenever
:meth:`~repro.matching.vf2.SubgraphMatcher.factorised_plan` exists and
enumerate otherwise.

Everything here is deterministic: candidates are iterated in sorted
index order, and the work counter (``ops``) is a sum of pool and
candidate sizes — invariant under execution backend and enumeration
order, so factorised units charge identical steps on every executor.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
    Tuple,
)

from ..graph.snapshot import GraphSnapshot
from ..pattern.pattern import GraphPattern, Variable

if TYPE_CHECKING:  # avoid a cycle: vf2 imports this module at load time
    from .vf2 import MatchStats

#: Evaluation-mode knob of the matcher's aggregate queries and the serial
#: reference ``discover_gfds``: ``auto`` factorises when the plan is valid
#: and enumerates otherwise;
#: the explicit modes force one path (``factorised`` raising when the
#: pattern does not factorise).
EVAL_MODES = ("auto", "factorised", "enumerate")

#: Largest pattern (in variables) we build partition plans for: Bell(6)
#: = 203 partitions.  Candidate patterns have ≤ 3 variables (5
#: partitions); anything past the cap enumerates.
MAX_VARS = 6

_MISSING = object()


def _set_partitions(items: Sequence) -> List[List[List]]:
    """All set partitions of ``items``, deterministically ordered."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out: List[List[List]] = []
    for partition in _set_partitions(rest):
        for pos in range(len(partition)):
            out.append(
                partition[:pos] + [[first] + partition[pos]]
                + partition[pos + 1:]
            )
        out.append([[first]] + partition)
    return out


def _mobius_weight(blocks: Sequence[Sequence]) -> int:
    """``μ(0̂, P)`` on the partition lattice (see module docstring)."""
    weight = 1
    for block in blocks:
        size = len(block)
        weight *= (-1) ** (size - 1) * factorial(size - 1)
    return weight


class _Quotient:
    """One partition's condensed pattern: classes, candidates, tree."""

    __slots__ = (
        "weight", "blocks", "var_class", "cand", "cand_sets",
        "adj", "components", "comp_of", "empty",
    )

    def __init__(self, snapshot, pattern, candidates, blocks) -> None:
        self.weight = _mobius_weight(blocks)
        self.blocks: Tuple[FrozenSet[Variable], ...] = tuple(
            frozenset(block) for block in blocks
        )
        self.var_class: Dict[Variable, int] = {}
        for cls, block in enumerate(self.blocks):
            for var in block:
                self.var_class[var] = cls

        # Per-class candidates: block-wise intersection of the matcher's
        # per-variable sets, filtered by within-class edges (a merged
        # block containing pattern edge u -> v needs a self-loop on the
        # class's image; labels are already enforced by the sets).
        edge_ok = snapshot.edge_ok
        constraints: Dict[Tuple[int, int], List[Tuple[bool, int]]] = {}
        self_codes: Dict[int, List[int]] = {}
        for src, dst, elabel in pattern.edges():
            code = snapshot.edge_label_code(elabel)
            c_src, c_dst = self.var_class[src], self.var_class[dst]
            if c_src == c_dst:
                self_codes.setdefault(c_src, []).append(code)
            else:
                # One undirected condensed edge per class pair; every
                # pattern edge between the pair (either direction, any
                # label) rides it as a (src-is-lower-class, code)
                # constraint.
                low, high = min(c_src, c_dst), max(c_src, c_dst)
                constraints.setdefault((low, high), []).append(
                    (c_src == low, code)
                )
        self.cand: List[Tuple[int, ...]] = []
        self.cand_sets: List[frozenset] = []
        self.empty = False
        for cls, block in enumerate(self.blocks):
            members = None
            for var in block:
                var_cand = candidates[var]
                members = (
                    set(var_cand) if members is None
                    else members & var_cand
                )
            codes = self_codes.get(cls, ())
            kept = sorted(
                a for a in members
                if all(edge_ok(a, a, code) for code in codes)
            )
            self.cand.append(tuple(kept))
            self.cand_sets.append(frozenset(kept))
            if not kept:
                self.empty = True

        # Condensed undirected adjacency; cyclic quotients (per
        # component, #condensed edges ≠ #classes − 1) invalidate the
        # plan unless their candidates are already empty.
        self.adj: List[List[Tuple[int, Tuple[Tuple[bool, int], ...]]]] = [
            [] for _ in self.blocks
        ]
        for (low, high), cons in constraints.items():
            cons_low = tuple(cons)
            cons_high = tuple((not from_low, code) for from_low, code in cons)
            self.adj[low].append((high, cons_low))
            self.adj[high].append((low, cons_high))

        self.components: List[Tuple[int, ...]] = []
        self.comp_of: Dict[int, int] = {}
        seen: set = set()
        for start in range(len(self.blocks)):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            queue = [start]
            while queue:
                cls = queue.pop()
                for nbr, _ in self.adj[cls]:
                    if nbr not in seen:
                        seen.add(nbr)
                        comp.append(nbr)
                        queue.append(nbr)
            comp.sort()
            for cls in comp:
                self.comp_of[cls] = len(self.components)
            self.components.append(tuple(comp))

    def is_forest(self) -> bool:
        """Whether every component's condensed graph is a tree."""
        num_edges = sum(len(nbrs) for nbrs in self.adj) // 2
        return num_edges == len(self.blocks) - len(self.components)


class FactorisedPlan:
    """The compiled elimination plan for one ``(pattern, snapshot)`` pair.

    Built from the matcher's pruned candidate sets (index space).  Use
    :func:`build_plan`, which returns ``None`` when the pattern does not
    factorise — too many variables, or some reachable quotient is
    cyclic.  Candidate restriction (pivot pinning) enters per query via
    ``restrict`` — a ``variable → node index`` dict; every public method
    is a pure function of ``(plan, restrict)``.
    """

    def __init__(
        self,
        pattern: GraphPattern,
        snapshot: GraphSnapshot,
        quotients: List[_Quotient],
    ) -> None:
        self.pattern = pattern
        self.snapshot = snapshot
        self.quotients = quotients
        self.variables = tuple(pattern.variables)

    # ------------------------------------------------------------------
    # per-query candidate restriction
    # ------------------------------------------------------------------
    def _restricted(
        self, quotient: _Quotient, restrict: Optional[Dict[Variable, int]]
    ) -> Optional[List[Tuple[int, ...]]]:
        """Class candidate lists under ``restrict`` (``None`` if empty)."""
        if not restrict:
            if quotient.empty:
                return None
            return list(quotient.cand)
        cand = []
        for cls, block in enumerate(quotient.blocks):
            pins = {restrict[var] for var in block if var in restrict}
            if not pins:
                members = quotient.cand[cls]
            elif len(pins) > 1:
                return None  # merged block pinned to two distinct nodes
            else:
                # repro-lint: disable=RPL001 -- pins is a singleton here (len>1 returned above), so the pick is deterministic
                pin = next(iter(pins))
                members = (pin,) if pin in quotient.cand_sets[cls] else ()
            if not members:
                return None
            cand.append(members)
        return cand

    # ------------------------------------------------------------------
    # the elimination passes
    # ------------------------------------------------------------------
    def _down_pass(self, quotient, root, cand, ops, annotate=None):
        """Bottom-up messages of the component rooted at ``root``.

        Returns ``down[root]`` — per root candidate, the number of
        homomorphisms of the root's component that map the root class
        there.  With ``annotate`` (a class id plus a per-candidate
        profile function), the counts along the unique subtree holding
        that class are dicts ``profile → count`` instead of ints; at
        most one factor per product is a dict, so the pass stays linear.
        """
        snapshot = self.snapshot
        neighbour_pool = snapshot.neighbour_pool
        edge_ok = snapshot.edge_ok
        ann_cls, profile = annotate if annotate is not None else (None, None)

        # BFS rooting (components hold ≤ MAX_VARS classes).
        parent: Dict[int, int] = {root: -1}
        order = [root]
        queue = [root]
        while queue:
            cls = queue.pop()
            for nbr, _ in quotient.adj[cls]:
                if nbr not in parent:
                    parent[nbr] = cls
                    order.append(nbr)
                    queue.append(nbr)
        children: Dict[int, list] = {cls: [] for cls in order}
        for cls in order:
            if parent[cls] != -1:
                for nbr, cons in quotient.adj[parent[cls]]:
                    if nbr == cls:
                        children[parent[cls]].append((cls, cons))
                        break

        down: Dict[int, Dict[int, object]] = {}
        for cls in reversed(order):
            table: Dict[int, object] = {}
            members = cand[cls]
            ops[0] += len(members)
            annotated_here = cls == ann_cls
            for a in members:
                value: object = 1
                for child, cons in children[cls]:
                    child_table = down[child]
                    from_parent, code = cons[0]
                    pool = neighbour_pool(a, code, from_parent)
                    ops[0] += len(pool)
                    total: object = 0
                    for b in pool:
                        entry = child_table.get(b)
                        if entry is None:
                            continue
                        if all(
                            edge_ok(a, b, c) if fp else edge_ok(b, a, c)
                            for fp, c in cons[1:]
                        ):
                            total = _vadd(total, entry)
                    if not total:
                        value = 0
                        break
                    value = _vmul(value, total)
                if not value:
                    continue
                if annotated_here:
                    value = {profile(a): value}
                table[a] = value
            down[cls] = table
        return down[root]

    def _component_roots(self, quotient, cand, ops):
        """Per component: ``(total, marginal-by-class)`` via re-rooting.

        ``marginal[cls][a]`` is the number of homomorphisms of the
        class's *component* mapping ``cls`` to ``a`` — rooting the tree
        at the queried class makes the marginal simply its own down
        message (no up-pass needed at these sizes).
        """
        totals: List[int] = []
        marginals: Dict[int, Dict[int, int]] = {}
        for comp in quotient.components:
            total = None
            for cls in comp:
                root_table = self._down_pass(quotient, cls, cand, ops)
                marginals[cls] = root_table
                if total is None:
                    total = sum(root_table.values())
            totals.append(total or 0)
        return totals, marginals

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------
    def count(
        self,
        restrict: Optional[Dict[Variable, int]] = None,
        stats: Optional[MatchStats] = None,
    ) -> int:
        """Exact number of injective matches under ``restrict``."""
        ops = [0]
        total = 0
        for quotient in self.quotients:
            cand = self._restricted(quotient, restrict)
            if cand is None:
                continue
            product = 1
            for comp in quotient.components:
                root_table = self._down_pass(quotient, comp[0], cand, ops)
                comp_total = sum(root_table.values())
                if not comp_total:
                    product = 0
                    break
                product *= comp_total
            total += quotient.weight * product
        if stats is not None:
            stats.steps += ops[0]
        return total

    def eliminate(
        self, restrict: Optional[Dict[Variable, int]] = None
    ) -> "Elimination":
        """The component-rooted passes of every quotient under ``restrict``.

        One elimination per pin serves every aggregate query over it —
        the marginals, every pair table and every group member's
        tallies (see :class:`Elimination`).
        """
        ops = [0]
        rows = []
        for quotient in self.quotients:
            cand = self._restricted(quotient, restrict)
            if cand is None:
                continue
            totals, by_class = self._component_roots(quotient, cand, ops)
            rows.append((quotient, cand, totals, by_class))
        return Elimination(rows, ops[0])

    def _marginals(
        self, elimination: "Elimination"
    ) -> Tuple[int, Dict[Variable, Dict[int, int]]]:
        """``(count, per-variable injective count vectors)``, read off
        ``elimination`` once, uncharged.

        ``marginals[var][idx]`` is the exact number of injective matches
        mapping ``var`` to node index ``idx`` (entries with positive
        counts only) — the per-pivot count vector pivoted workloads
        aggregate.
        """
        if elimination.marginals is not None:
            return elimination.marginals
        count = 0
        inj: Dict[Variable, Counter] = {
            var: Counter() for var in self.variables
        }
        for quotient, _, totals, by_class in elimination.rows:
            if not all(totals):
                continue
            full = 1
            for total in totals:
                full *= total
            count += quotient.weight * full
            others = [full // total for total in totals]
            for var in self.variables:
                cls = quotient.var_class[var]
                scale = quotient.weight * others[quotient.comp_of[cls]]
                bucket = inj[var]
                for a, hom in by_class[cls].items():
                    bucket[a] += scale * hom
        elimination.marginals = count, {
            var: {a: n for a, n in sorted(bucket.items()) if n > 0}
            for var, bucket in inj.items()
        }
        return elimination.marginals

    def evidence(
        self,
        graph,
        restrict: Optional[Dict[Variable, int]] = None,
        stats: Optional[MatchStats] = None,
    ):
        """``(count, EvidenceAggregate)`` — identical to folding every
        injective match, computed from the marginal count vectors.

        ``graph`` supplies node attributes (snapshots index structure
        only); it may be the full graph or any block containing the
        candidates.
        """
        return self.evidence_of(graph, self.eliminate(restrict), stats)

    def evidence_of(
        self,
        graph,
        elimination: "Elimination",
        stats: Optional[MatchStats] = None,
    ):
        """:meth:`evidence` over a shared elimination.

        Charged ``elimination.ops``, exactly what a standalone call
        measures.  The result is a view of the elimination, shared by
        every later call: read it, do not change it.
        """
        if stats is not None:
            stats.steps += elimination.ops
        if elimination.evidence is None:
            elimination.evidence = self._evidence(graph, elimination)
        return elimination.evidence

    def _evidence(self, graph, elimination: "Elimination"):
        from ..core.discovery import EvidenceAggregate

        count, inj = self._marginals(elimination)
        aggregate = EvidenceAggregate()
        aggregate.count = count
        node_ids = self.snapshot.node_ids
        many = EvidenceAggregate.MANY
        for var in self.variables:
            counter = None
            for a, matched in inj[var].items():
                node_attrs = graph.attrs(node_ids[a])
                if not node_attrs:
                    continue
                if counter is None:
                    counter = aggregate.attrs.setdefault(var, Counter())
                for attr, value in node_attrs.items():
                    counter[attr] += matched
                    key = (var, attr)
                    current = aggregate.values.get(key, ())
                    if current == ():
                        aggregate.values[key] = (value,)
                    elif current is not many and current[0] != value:
                        aggregate.values[key] = many
        return count, aggregate

    # ------------------------------------------------------------------
    # dependency tallies
    # ------------------------------------------------------------------
    @staticmethod
    def compile_tallies(deps) -> Optional["TallyShape"]:
        """The variable shape of each candidate, or ``None``.

        ``None`` when a candidate's literals span more than two
        variables (the caller enumerates instead).  Compile once per
        dependency list and reuse it for every pin.
        """
        keys = []
        pair_attrs: Dict[Tuple[Variable, Variable], set] = {}
        for lhs, rhs in deps:
            involved = tuple(sorted(_involved_vars(lhs, rhs)))
            if len(involved) > 2:
                return None
            if len(involved) == 2:
                bucket = pair_attrs.setdefault(involved, set())
                for literal in lhs + rhs:
                    bucket.update(_literal_attrs(literal))
            keys.append(involved)
        tables = {
            pair: (pair, tuple(sorted(attrs)))
            for pair, attrs in pair_attrs.items()
        }
        return TallyShape(
            tuple(tables[key] if len(key) == 2 else key for key in keys),
            tuple(tables.values()),
        )

    def dependency_tallies(
        self,
        graph,
        deps,
        restrict: Optional[Dict[Variable, int]] = None,
        stats: Optional[MatchStats] = None,
    ) -> Optional[List[Tuple[int, int]]]:
        """``(supported, satisfied)`` per candidate, or ``None``.

        Single-variable candidates (constant rules) read the marginal
        count vectors; two-variable candidates read an injective joint
        *profile table* — the distribution of the referenced attribute
        values over the variable pair, computed by a profile-annotated
        elimination pass per quotient.  ``None`` signals the caller to
        enumerate instead: a candidate spans more than two variables, or
        an attribute value is unhashable (profile tables key on values).
        Equivalent to :meth:`compile_tallies` + :meth:`eliminate` +
        :meth:`tallies`, which callers asking many dependency lists per
        pin use directly.
        """
        shape = self.compile_tallies(deps)
        if shape is None:
            return None
        return self.tallies(
            graph, deps, shape, self.eliminate(restrict), stats
        )

    def tallies(
        self,
        graph,
        deps,
        shape: "TallyShape",
        elimination: "Elimination",
        stats: Optional[MatchStats] = None,
    ) -> Optional[List[Tuple[int, int]]]:
        """:meth:`dependency_tallies` over a shared elimination.

        ``shape`` is ``deps`` compiled by :meth:`compile_tallies`.
        Charges exactly what a standalone call measures: the marginals
        are free, and each pair table costs one full elimination plus
        its profile-annotated passes — recorded once, charged per use.
        """
        charge = 0
        try:
            for key in shape.tables:
                entry = elimination.tables.get(key)
                if entry is None:
                    entry = self._pair_rows(graph, key, elimination)
                    elimination.tables[key] = entry
                charge += entry[1]
        except TypeError:
            return None  # unhashable attribute value in a profile key

        count = None
        out: List[Tuple[int, int]] = []
        for (lhs, rhs), key in zip(deps, shape.keys):
            if not key:
                if count is None:
                    count = self._marginals(elimination)[0]
                out.append((count, count))
                continue
            if len(key) == 1:
                rows = elimination.var_rows.get(key[0])
                if rows is None:
                    rows = self._var_rows(graph, key[0], elimination)
                    elimination.var_rows[key[0]] = rows
            else:
                rows = elimination.tables[key][0]
            supported = satisfied = 0
            for values, matched in rows:
                if not _profile_satisfies(values, lhs):
                    continue
                supported += matched
                if _profile_satisfies(values, rhs):
                    satisfied += matched
            out.append((supported, satisfied))
        if stats is not None:
            stats.steps += charge
        return out

    def _var_rows(self, graph, var, elimination):
        """``[(profile values, matched)]`` off ``var``'s marginal."""
        node_ids = self.snapshot.node_ids
        return [
            ({var: graph.attrs(node_ids[a])}, matched)
            for a, matched in self._marginals(elimination)[1][var].items()
        ]

    def _pair_rows(self, graph, key, elimination):
        """``([(profile values, matched)], ops)`` of one pair table.

        ``ops`` is the table's standalone cost: one full elimination
        plus its own profile-annotated passes.
        """
        pair, attrs = key
        ops = [elimination.ops]
        table = self._pair_table(graph, pair, attrs, elimination, ops)
        rows = [
            (
                {pair[0]: dict(zip(attrs, p1)), pair[1]: dict(zip(attrs, p2))},
                matched,
            )
            for (p1, p2), matched in table.items()
        ]
        return rows, ops[0]

    def _pair_table(self, graph, pair, attrs, elimination, ops):
        """Injective joint profile distribution of a variable pair.

        ``table[(profile(v1), profile(v2))]`` = number of injective
        matches whose images of ``(v1, v2)`` carry exactly those
        attribute values (``_MISSING`` marking absence) — Möbius-summed
        over quotients like everything else.  Per quotient the classes
        of the pair are either merged (read the diagonal off the
        marginal), in one component (one profile-annotated pass rooted
        at ``v2``'s class), or in different components (outer product of
        per-component profile marginals).
        """
        v1, v2 = pair
        node_ids = self.snapshot.node_ids

        def profile(a):
            node_attrs = graph.attrs(node_ids[a])
            return tuple(
                node_attrs.get(attr, _MISSING) for attr in attrs
            )

        table: Counter = Counter()
        for quotient, cand, totals, by_class in elimination.rows:
            if not all(totals):
                continue
            full = 1
            for total in totals:
                full *= total
            others = [full // total for total in totals]
            c1, c2 = quotient.var_class[v1], quotient.var_class[v2]
            weight = quotient.weight
            if c1 == c2:
                scale = weight * others[quotient.comp_of[c1]]
                for a, hom in by_class[c1].items():
                    prof = profile(a)
                    table[(prof, prof)] += scale * hom
            elif quotient.comp_of[c1] == quotient.comp_of[c2]:
                root_table = self._down_pass(
                    quotient, c2, cand, ops, annotate=(c1, profile)
                )
                scale = weight * others[quotient.comp_of[c2]]
                for b, by_profile in root_table.items():
                    prof2 = profile(b)
                    for prof1, hom in by_profile.items():
                        table[(prof1, prof2)] += scale * hom
            else:
                comp1, comp2 = quotient.comp_of[c1], quotient.comp_of[c2]
                scale = weight * full // (totals[comp1] * totals[comp2])
                prof1_marg: Counter = Counter()
                for a, hom in by_class[c1].items():
                    prof1_marg[profile(a)] += hom
                prof2_marg: Counter = Counter()
                for b, hom in by_class[c2].items():
                    prof2_marg[profile(b)] += hom
                for prof1, hom1 in prof1_marg.items():
                    for prof2, hom2 in prof2_marg.items():
                        table[(prof1, prof2)] += scale * hom1 * hom2
        return {key: n for key, n in table.items() if n}


class Elimination:
    """One restriction's elimination, shared by every query over it.

    ``rows`` holds, per quotient whose candidates survive the
    restriction, ``(quotient, class candidates, per-component totals,
    per-class rooted marginals)``.  ``ops`` is what computing them cost;
    every query that reads them is charged as if it had run the pass
    itself, so a unit's ``steps`` do not depend on how many queries
    share one elimination.  Derived views (the marginals, the pair
    tables, the per-variable profile rows and the evidence) are cached
    here too, so an elimination serves a single pin over a single graph
    in a single state: the block its plan was compiled for, until the
    block changes.
    """

    __slots__ = (
        "rows", "ops", "marginals", "tables", "var_rows", "evidence",
    )

    def __init__(self, rows, ops: int) -> None:
        self.rows = rows
        self.ops = ops
        self.marginals = None
        self.tables: Dict[tuple, tuple] = {}
        self.var_rows: Dict[Variable, list] = {}
        self.evidence = None


class TallyShape(NamedTuple):
    """A dependency list compiled by :meth:`FactorisedPlan.compile_tallies`.

    ``keys`` holds one key per candidate: ``()`` (no variables),
    ``(var,)`` or a pair table's ``(pair, attrs)``; ``tables`` lists
    each pair table the list reads, once.
    """

    keys: tuple
    tables: tuple


def _vadd(x, y):
    """Add two down-pass values (ints, or at most profile dicts)."""
    if isinstance(x, dict) or isinstance(y, dict):
        if not isinstance(x, dict):
            if x:
                raise AssertionError("mixed scalar/profile messages")
            return y
        if not isinstance(y, dict):
            if y:
                raise AssertionError("mixed scalar/profile messages")
            return x
        merged = dict(x)
        for key, value in y.items():
            merged[key] = merged.get(key, 0) + value
        return merged
    return x + y


def _vmul(x, y):
    """Multiply down-pass values (at most one operand is a profile dict)."""
    if isinstance(x, dict):
        return {key: value * y for key, value in x.items()}
    if isinstance(y, dict):
        return {key: value * x for key, value in y.items()}
    return x * y


def _involved_vars(lhs, rhs) -> set:
    out: set = set()
    for literal in lhs + rhs:
        var = getattr(literal, "var", None)
        if var is not None:
            out.add(var)
        else:
            out.add(literal.var1)
            out.add(literal.var2)
    return out


def _literal_attrs(literal):
    attr = getattr(literal, "attr", None)
    if attr is not None:
        return (attr,)
    return (literal.attr1, literal.attr2)


def _profile_satisfies(values: Dict[Variable, Dict], literals) -> bool:
    """Literal satisfaction over attribute-value profiles.

    Mirrors :func:`repro.core.satisfaction.match_satisfies_literal`
    exactly: a referenced attribute must be present and equal.
    """
    for literal in literals:
        var = getattr(literal, "var", None)
        if var is not None:
            value = values[var].get(literal.attr, _MISSING)
            if value is _MISSING or value != literal.const:
                return False
        else:
            value1 = values[literal.var1].get(literal.attr1, _MISSING)
            if value1 is _MISSING:
                return False
            value2 = values[literal.var2].get(literal.attr2, _MISSING)
            if value2 is _MISSING or value1 != value2:
                return False
    return True


def build_plan(
    pattern: GraphPattern,
    snapshot: GraphSnapshot,
    candidates: Dict[Variable, set],
) -> Optional[FactorisedPlan]:
    """Compile a :class:`FactorisedPlan`, or ``None`` if not factorisable.

    ``candidates`` are the matcher's pruned per-variable candidate sets
    in snapshot index space.  Pruning is sound here: a candidate set is
    a *necessary* condition on matches, the elimination checks every
    edge exactly, and the Möbius identity holds under any consistent
    per-variable restriction — so over-approximation never changes the
    result, it only costs work.

    Rejected (→ enumeration): more than :data:`MAX_VARS` variables, or
    any quotient with non-empty candidates whose condensed graph is
    cyclic — including the trivial case of a cyclic pattern itself (the
    identity partition).
    """
    variables = pattern.variables
    if not variables or len(variables) > MAX_VARS:
        return None
    quotients = []
    for blocks in _set_partitions(variables):
        quotient = _Quotient(snapshot, pattern, candidates, blocks)
        if quotient.empty:
            continue  # contributes 0 under any restriction
        if not quotient.is_forest():
            return None
        quotients.append(quotient)
    return FactorisedPlan(pattern, snapshot, quotients)
