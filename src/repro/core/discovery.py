"""GFD discovery (the paper's first "future work" topic, Section 8).

A pragmatic discovery algorithm in the spirit the conclusion sketches:
enumerate candidate patterns from frequent features, propose dependencies
over their matches, and keep those meeting *support* (enough matches
satisfy ``X``) and *confidence* (the fraction of ``X``-satisfying matches
that also satisfy ``Y``) thresholds.  Confidence 1.0 yields GFDs that hold
exactly on the input graph; slightly lower thresholds surface "almost"
dependencies whose violators are candidate errors.

This module holds the *primitives* — pattern proposal, match
canonicalisation, dependency proposal, support/confidence counting — plus
the serial reference orchestration :func:`discover_gfds`.  The
session-backed parallel orchestration
(:meth:`repro.session.ValidationSession.discover`) composes the same
primitives into work units over the parallel engine and is pinned to
produce the *identical* mined rule set.

Determinism contract
--------------------

The mined rule set (rules, names, supports, confidences) depends only on
the graph and the discovery parameters — never on match enumeration
order, evaluation mode, or execution backend:

* evidence for dependency proposal is either *every* match (the default)
  or an explicit seeded sample drawn from the canonically-ordered match
  list (:func:`canonical_matches`);
* attribute rankings break frequency ties lexicographically instead of
  leaning on ``Counter`` insertion order;
* the ``max_matches`` cap selects a canonical prefix, not an
  enumeration-order prefix.
"""

from __future__ import annotations

import heapq
import random
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..graph.graph import PropertyGraph
from ..matching.factorised import EVAL_MODES
from ..matching.vf2 import SubgraphMatcher
from ..pattern.pattern import GraphPattern
from .gfd import GFD
from .generator import mine_frequent_edges
from .literals import ConstantLiteral, Literal, VariableLiteral
from .satisfaction import match_satisfies_all

#: default evidence cap for dependency proposal — ``None`` aggregates over
#: every (capped) match, which is the strongest order-independent choice.
DEFAULT_SAMPLE_SIZE: Optional[int] = None


@dataclass(frozen=True)
class DiscoveredGFD:
    """A mined GFD with its evidence."""

    gfd: GFD
    support: int
    confidence: float


def candidate_patterns(
    graph: PropertyGraph, max_edges: int = 2, top_edges: int = 5
) -> List[GraphPattern]:
    """Small candidate patterns built from frequent edge types.

    Single edges plus two-edge combinations sharing an endpoint — the
    pattern shapes that dominate real-world GFDs (99% of pattern
    components have radius ≤ 2, Section 5.2).
    """
    seeds = mine_frequent_edges(graph, top=top_edges)
    patterns: List[GraphPattern] = []
    for src_label, elabel, dst_label in seeds:
        single = GraphPattern()
        single.add_node("x", src_label)
        single.add_node("y", dst_label)
        single.add_edge("x", "y", elabel)
        patterns.append(single)
    if max_edges < 2:
        return patterns
    for first in seeds:
        for second in seeds:
            if first[0] == second[0]:  # shared source: x -a-> y, x -b-> z
                fan = GraphPattern()
                fan.add_node("x", first[0])
                fan.add_node("y", first[2])
                fan.add_node("z", second[2])
                fan.add_edge("x", "y", first[1])
                fan.add_edge("x", "z", second[1])
                if fan.num_edges == 2:
                    patterns.append(fan)
            if first[2] == second[0]:  # chain: x -a-> y -b-> z
                chain = GraphPattern()
                chain.add_node("x", first[0])
                chain.add_node("y", first[2])
                chain.add_node("z", second[2])
                chain.add_edge("x", "y", first[1])
                chain.add_edge("y", "z", second[1])
                if chain.num_edges == 2:
                    patterns.append(chain)
    # Deduplicate by signature.
    unique: Dict[Tuple, GraphPattern] = {}
    for pattern in patterns:
        unique.setdefault(pattern.signature(), pattern)
    return list(unique.values())


def probe_gfds(patterns: Sequence[GraphPattern]) -> List[GFD]:
    """Wrap candidate patterns as dependency-free *probe* GFDs.

    A probe carries only the topological constraint (``∅ → ∅``), so the
    parallel engine's workload/grouping machinery — pivot vectors, shared
    isomorphism groups, data blocks — applies to mining verbatim: one
    probe's match enumeration serves every dependency candidate of every
    pattern isomorphic to it.
    """
    return [
        GFD(pattern=pattern, lhs=(), rhs=(), name=f"cand{index}")
        for index, pattern in enumerate(patterns)
    ]


def match_items_key(items) -> Tuple:
    """Total, type-safe order on var-sorted ``((var, node), ...)`` tuples.

    The single source of the canonical match order: serial mining, the
    coordinator's capped selection and the workers' per-unit capped
    selection (:mod:`repro.parallel.engine`) must all sort by the *same*
    key, or capped session mining would silently diverge from serial.
    """
    return tuple((var, repr(node)) for var, node in items)


def match_sort_key(match: Mapping) -> Tuple:
    """A total, type-safe order on matches (var → node mappings)."""
    return match_items_key(sorted(match.items()))


def canonical_matches(
    matches, cap: Optional[int] = None
) -> List[dict]:
    """Matches in canonical order, optionally truncated to ``cap``.

    The order (and hence the capped selection) depends only on the match
    *set*, never on how the matches were enumerated — the property every
    downstream discovery decision relies on.  ``matches`` may be any
    iterable (a lazy matcher enumeration included); with a ``cap`` the
    selection runs as a bounded heap, so memory stays ``O(cap)`` however
    many matches the pattern has.
    """
    if cap is not None:
        ordered = heapq.nsmallest(cap, matches, key=match_sort_key)
    else:
        ordered = sorted(matches, key=match_sort_key)
    return [dict(match) for match in ordered]


def interned(value, _intern=sys.intern):
    """``value``, as the one interned object if it is a string."""
    return _intern(value) if value.__class__ is str else value


def _ranked_attrs(counter: Counter, limit: int) -> List[str]:
    """Top ``limit`` attrs by count, frequency ties broken by name."""
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    return [attr for attr, _ in ranked[:limit]]


class EvidenceAggregate:
    """Mergeable proposal evidence — a compact aggregate over matches.

    Dependency proposal (:func:`candidate_dependencies`) is an aggregate
    query over the match set, in the FAQ sense: everything it reads from
    the matches folds into per-variable tables that merge associatively.
    Workers therefore fold their units' matches into one of these and
    ship it instead of the ``O(matches)`` match list (see
    ``repro.parallel.engine._execute_mine``); the coordinator merges the
    units' aggregates and proposes from the result.

    Two tables, both in the enumerated (leader) variable space:

    * ``attrs`` — per variable, attribute → number of matches whose
      matched node carries the attribute (the counter
      :func:`candidate_dependencies` ranks and intersects);
    * ``values`` — per ``(variable, attribute)``, the distinct-value
      summary constant-rule proposal needs: ``(value,)`` while exactly
      one distinct value has been seen, :data:`MANY` (``None``) as soon
      as a second appears.  Proposal only asks "exactly one distinct
      value, and which" — this two-state table answers that exactly,
      stays ``O(1)`` per attribute however wild the value domain, and
      is trivially order-independent to fold.

    Equivalence contract: ``propose(pattern, max_attrs)`` over the fold
    of a match list equals ``candidate_dependencies`` over that list —
    *by construction*, because :func:`candidate_dependencies` itself now
    folds its evidence through this class.  ``merge`` is associative and
    commutative, so any unit partition of the match multiset (pivot
    candidates partition it exactly) aggregates to the same proposals;
    ``tests/test_discovery_aggregates.py`` locks both properties in.

    The wire form interns attribute names and values on both sides
    (:meth:`to_payload`, :meth:`from_payload`), and so the literals
    proposed from a decoded aggregate hold interned strings too.  Pickle
    writes an object once and refers back to it by identity, and which
    of several equal strings an aggregate met first follows a block's
    node order — set iteration, so the hash seed.  With one object per
    distinct string, the packed bytes depend on the values only.
    """

    #: the ``values`` state for "more than one distinct value seen" —
    #: must merge as an absorbing element, hence a sentinel rather than
    #: retained exemplars.
    MANY = None

    __slots__ = ("count", "attrs", "values")

    def __init__(self) -> None:
        self.count = 0
        self.attrs: Dict[str, Counter] = {}
        self.values: Dict[Tuple[str, str], Optional[Tuple]] = {}

    # -- folding -------------------------------------------------------
    def add(self, graph: PropertyGraph, match: Mapping) -> None:
        """Fold one match (``graph`` may be any block containing it)."""
        self.count += 1
        for var, node in match.items():
            node_attrs = graph.attrs(node)
            if not node_attrs:
                continue
            counter = self.attrs.get(var)
            if counter is None:
                counter = self.attrs.setdefault(var, Counter())
            counter.update(node_attrs.keys())
            for attr, value in node_attrs.items():
                key = (var, attr)
                current = self.values.get(key, ())
                if current == ():
                    self.values[key] = (value,)
                elif current is not self.MANY and current[0] != value:
                    self.values[key] = self.MANY

    @classmethod
    def from_matches(
        cls, graph: PropertyGraph, matches: Sequence[Mapping]
    ) -> "EvidenceAggregate":
        agg = cls()
        for match in matches:
            agg.add(graph, match)
        return agg

    # -- merging / renaming --------------------------------------------
    def merge(self, other: "EvidenceAggregate") -> "EvidenceAggregate":
        """Fold ``other`` in (associative, commutative); returns self."""
        self.count += other.count
        for var, counter in other.attrs.items():
            mine = self.attrs.get(var)
            if mine is None:
                self.attrs[var] = Counter(counter)
            else:
                mine.update(counter)
        for key, values in other.values.items():
            current = self.values.get(key, ())
            if current == ():
                self.values[key] = values
            elif current is not self.MANY and (
                values is self.MANY or values[0] != current[0]
            ):
                self.values[key] = self.MANY
        return self

    def rename(self, iso: Mapping[str, str]) -> "EvidenceAggregate":
        """The same evidence in another variable space (``var → iso[var]``).

        Isomorphism-group members see the leader's matches through their
        variable alignment; renaming the aggregate's keys is the
        aggregate-side image of translating every match.
        """
        renamed = EvidenceAggregate()
        renamed.count = self.count
        renamed.attrs = {
            iso[var]: Counter(counter) for var, counter in self.attrs.items()
        }
        renamed.values = {
            (iso[var], attr): values
            for (var, attr), values in self.values.items()
        }
        return renamed

    # -- wire format ---------------------------------------------------
    def to_payload(self) -> tuple:
        """A deterministic, value-comparable (and compact) wire form,
        deterministic in its packed bytes too (see the class docstring).
        """
        many = self.MANY
        return (
            self.count,
            tuple(
                (var, tuple(sorted(
                    (interned(attr), n) for attr, n in counter.items()
                )))
                for var, counter in sorted(self.attrs.items())
            ),
            tuple(
                ((var, interned(attr)),
                 held if held is many else (interned(held[0]),))
                for (var, attr), held in sorted(
                    self.values.items(), key=lambda kv: kv[0]
                )
            ),
        )

    @classmethod
    def from_payload(cls, payload: tuple) -> "EvidenceAggregate":
        agg = cls()
        count, attrs, values = payload
        agg.count = count
        agg.attrs = {
            var: Counter({interned(attr): n for attr, n in items})
            for var, items in attrs
        }
        agg.values = {
            (var, interned(attr)): (
                held if held is cls.MANY else (interned(held[0]),)
            )
            for (var, attr), held in values
        }
        return agg

    # -- proposal ------------------------------------------------------
    def propose(
        self, pattern: GraphPattern, max_attrs: int = 4
    ) -> List[Tuple[Tuple[Literal, ...], Tuple[Literal, ...]]]:
        """``X → Y`` candidates from this evidence (canonical order)."""
        return self.propose_for_variables(pattern.variables, max_attrs)

    def propose_for_variables(
        self, variables: Sequence[str], max_attrs: int = 4
    ) -> List[Tuple[Tuple[Literal, ...], Tuple[Literal, ...]]]:
        """Propose over an explicit variable order.

        Exactly :func:`candidate_dependencies`' proposal loop, reading
        the aggregate tables instead of re-scanning matches.  Fully
        deterministic in ``(aggregate, variables, max_attrs)`` — which
        is what lets discovery's counting phase ship the aggregate and
        have workers *re-derive* the identical candidate list (same
        positions, same literals) instead of shipping ``O(proposals)``
        literal objects per work unit.
        """
        empty: Counter = Counter()
        out: List[Tuple[Tuple[Literal, ...], Tuple[Literal, ...]]] = []
        for var1 in variables:
            for var2 in variables:
                if var1 >= var2:
                    continue
                common = _ranked_attrs(
                    self.attrs.get(var1, empty) & self.attrs.get(var2, empty),
                    max_attrs,
                )
                for lhs_attr in common:
                    for rhs_attr in common:
                        if lhs_attr == rhs_attr:
                            continue
                        out.append(
                            (
                                (VariableLiteral(var1, lhs_attr, var2, lhs_attr),),
                                (VariableLiteral(var1, rhs_attr, var2, rhs_attr),),
                            )
                        )
        # Single-variable constant rules: X = ∅ → x.A = c (capital-style).
        for var in variables:
            for attr in _ranked_attrs(self.attrs.get(var, empty), max_attrs):
                values = self.values.get((var, attr), ())
                if values is not self.MANY and len(values) == 1:
                    out.append(((), (ConstantLiteral(var, attr, values[0]),)))
        return out


def candidate_dependencies(
    pattern: GraphPattern,
    graph: PropertyGraph,
    matches: Sequence[Mapping],
    max_attrs: int = 4,
    sample_size: Optional[int] = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
) -> List[Tuple[Tuple[Literal, ...], Tuple[Literal, ...]]]:
    """Propose ``X → Y`` candidates from attributes seen on the matches.

    Evidence is every match by default; ``sample_size`` makes the sample
    explicit and ``seed`` makes it reproducible — the sample is drawn
    from the canonically-ordered match list, so the proposed (and hence
    mined) rule set never depends on enumeration order.  (The old
    implicit ``matches[:200]`` prefix did.)

    The evidence is folded through an :class:`EvidenceAggregate` — the
    same fold workers apply unit-locally in parallel mining — so
    aggregate-based and match-list-based proposal agree by construction.
    """
    evidence: Sequence[Mapping] = matches
    if sample_size is not None and len(matches) > sample_size:
        rng = random.Random(seed)
        evidence = rng.sample(canonical_matches(matches), sample_size)
    aggregate = EvidenceAggregate.from_matches(graph, evidence)
    return aggregate.propose(pattern, max_attrs)


def count_dependency(
    graph: PropertyGraph,
    matches: Sequence[Mapping],
    lhs: Tuple[Literal, ...],
    rhs: Tuple[Literal, ...],
) -> Tuple[int, int]:
    """``(supported, satisfied)`` for one candidate over ``matches``.

    ``supported`` counts matches whose premise ``X`` holds; ``satisfied``
    those that additionally satisfy the conclusion ``Y``.  ``graph`` may
    be the full graph or any subgraph containing the matched nodes (a
    data block) — attribute lookups agree either way.
    """
    supported = 0
    satisfied = 0
    for match in matches:
        if match_satisfies_all(graph, match, lhs):
            supported += 1
            if match_satisfies_all(graph, match, rhs):
                satisfied += 1
    return supported, satisfied


def select_rules(
    selected: Sequence[
        Tuple[GraphPattern, Tuple[Tuple[Literal, ...], Tuple[Literal, ...]], int, int]
    ],
    min_support: int,
    min_confidence: float,
) -> List[DiscoveredGFD]:
    """Apply the support/confidence thresholds and name the survivors.

    ``selected`` lists ``(pattern, (lhs, rhs), supported, satisfied)``
    in proposal order; names are assigned in that order (``mined0``,
    ``mined1``, …), exactly as the serial loop always did — shared so
    serial and session-backed discovery agree byte-for-byte.
    """
    results: List[DiscoveredGFD] = []
    for pattern, (lhs, rhs), supported, satisfied in selected:
        if supported < min_support or not supported:
            # The second clause matters only for min_support <= 0:
            # a premise no match satisfies has no confidence to speak
            # of (and would divide by zero), so it never survives.
            continue
        confidence = satisfied / supported
        if confidence < min_confidence:
            continue
        results.append(
            DiscoveredGFD(
                gfd=GFD(
                    pattern=pattern,
                    lhs=lhs,
                    rhs=rhs,
                    name=f"mined{len(results)}",
                ),
                support=supported,
                confidence=confidence,
            )
        )
    return results


def discover_gfds(
    graph: PropertyGraph,
    min_support: int = 5,
    min_confidence: float = 0.95,
    max_edges: int = 2,
    max_matches: int = 5000,
    top_edges: int = 5,
    max_attrs: int = 4,
    sample_size: Optional[int] = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
    eval_mode: str = "auto",
) -> List[DiscoveredGFD]:
    """Mine GFDs from ``graph`` — the serial reference implementation.

    ``min_support`` counts matches whose premise holds; ``min_confidence``
    is the fraction of those that also satisfy the conclusion.
    ``max_matches`` caps the matches *counted* per candidate pattern; the
    cap selects a canonical prefix (see :func:`canonical_matches`), so
    the mined set is independent of enumeration order.  When the cap
    bites, support and confidence describe the canonical subset only —
    a confidence-1.0 rule may still be violated by uncounted matches
    (:attr:`repro.session.DiscoveryRun.capped_rules` flags these on the
    session path).

    ``eval_mode`` selects how evidence and support/confidence tallies
    are computed (pinned by tests to be result-invisible too):
    ``"auto"`` answers the aggregate queries by factorised variable
    elimination — no match enumeration at all — whenever the pattern
    factorises, the cap does not bite, and no explicit evidence sample
    was requested; ``"enumerate"`` forces the match-list path;
    ``"factorised"`` forces elimination and raises when it cannot apply.

    For parallel, warm-engine mining over the same primitives use
    :meth:`repro.session.ValidationSession.discover`, which produces the
    identical mined rule set.
    """
    if eval_mode not in EVAL_MODES:
        raise ValueError(f"unknown eval mode {eval_mode!r}")
    if eval_mode == "factorised" and sample_size is not None:
        raise ValueError(
            "eval_mode='factorised' cannot honour an explicit evidence "
            "sample (sampling draws from materialised matches)"
        )
    tallies = []
    for pattern in candidate_patterns(
        graph, max_edges=max_edges, top_edges=top_edges
    ):
        matcher = SubgraphMatcher(pattern, graph)
        plan = None
        if eval_mode != "enumerate" and sample_size is None:
            plan = matcher.factorised_plan()
            if plan is None and eval_mode == "factorised":
                raise ValueError(
                    "eval_mode='factorised' but a candidate pattern does "
                    "not factorise (cyclic structure)"
                )
        if plan is not None:
            count, aggregate = matcher.evidence(eval_mode="factorised")
            if min(count, max_matches) < min_support:
                continue
            if count <= max_matches:
                deps = aggregate.propose(pattern, max_attrs)
                for (lhs, rhs), (supported, satisfied) in zip(
                    deps,
                    matcher.dependency_tallies(deps, eval_mode=eval_mode),
                ):
                    tallies.append(
                        (pattern, (lhs, rhs), supported, satisfied)
                    )
                continue
            # The cap bites: tallies are defined over the canonical
            # prefix of the match set, which factorised aggregates
            # cannot see — fall through to enumeration.
        # The lazy enumeration feeds a bounded heap: O(max_matches)
        # memory however many matches the pattern has.
        matches = canonical_matches(matcher.matches(), cap=max_matches)
        if len(matches) < min_support:
            continue
        for lhs, rhs in candidate_dependencies(
            pattern, graph, matches,
            max_attrs=max_attrs, sample_size=sample_size, seed=seed,
        ):
            supported, satisfied = count_dependency(graph, matches, lhs, rhs)
            tallies.append((pattern, (lhs, rhs), supported, satisfied))
    return select_rules(tallies, min_support, min_confidence)
