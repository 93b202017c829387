"""GFD validation and sequential error detection (Section 5.1).

Given Σ and ``G``, a match ``h(x̄)`` of ``φ``'s pattern is a *violation*
when ``h(x̄) ⊭ X → Y``; ``Vio(Σ, G)`` collects every violation of every
GFD.  Deciding emptiness (the validation problem) is coNP-complete
(Proposition 9) — the sequential algorithm ``detVio`` below simply
enumerates matches per GFD, which is what the paper reports "does not
terminate within 6000 seconds" on its real-life graphs, motivating the
parallel algorithms of Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..graph.graph import NodeId, PropertyGraph
from ..matching.vf2 import Match, MatchStats, SubgraphMatcher
from .gfd import GFD
from .satisfaction import match_satisfies_all


@dataclass(frozen=True)
class Violation:
    """One violating match: the GFD's name and the bound entities ``h(x̄)``.

    ``assignment`` is an ordered tuple following the pattern's variable
    list, making violations hashable and set-friendly (``Vio(Σ, G)`` is a
    set in the paper).
    """

    gfd_name: str
    assignment: Tuple[Tuple[str, NodeId], ...]

    @property
    def match(self) -> Dict[str, NodeId]:
        """The match as a dict ``variable -> node``."""
        return dict(self.assignment)

    def nodes(self) -> FrozenSet[NodeId]:
        """The entities involved in the violation."""
        return frozenset(node for _, node in self.assignment)

    def __str__(self) -> str:
        binding = ", ".join(f"{var}↦{node}" for var, node in self.assignment)
        return f"Violation({self.gfd_name}: {binding})"


def make_violation(gfd: GFD, match: Match) -> Violation:
    """Build a :class:`Violation` with canonical variable ordering."""
    ordered = tuple((var, match[var]) for var in gfd.pattern.variables)
    return Violation(gfd_name=gfd.name or "gfd", assignment=ordered)


def violations_of(
    gfd: GFD,
    graph: PropertyGraph,
    limit: Optional[int] = None,
    stats: Optional[MatchStats] = None,
) -> Iterator[Violation]:
    """Enumerate violations of a single GFD in ``graph``.

    A match violates when it satisfies ``X`` but not ``Y``; matching and
    the two literal checks follow Section 3's semantics exactly.
    """
    matcher = SubgraphMatcher(gfd.pattern, graph)
    emitted = 0
    for match in matcher.matches(stats=stats):
        if not match_satisfies_all(graph, match, gfd.lhs):
            continue
        if match_satisfies_all(graph, match, gfd.rhs):
            continue
        yield make_violation(gfd, match)
        emitted += 1
        if limit is not None and emitted >= limit:
            return


def det_vio(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    stats: Optional[MatchStats] = None,
) -> Set[Violation]:
    """The sequential algorithm ``detVio``: compute ``Vio(Σ, G)`` directly.

    Enumerates all matches of every GFD's pattern and filters violators.
    Exponential in pattern size — "prohibitive for big G" (Section 5.1) —
    but the ground truth the parallel algorithms are tested against.
    The graph's snapshot is built once and reused across all of Σ.
    """
    out: Set[Violation] = set()
    for gfd in sigma:
        out.update(violations_of(gfd, graph, stats=stats))
    return out


def satisfies(sigma: Sequence[GFD], graph: PropertyGraph) -> bool:
    """``G ⊨ Σ`` — the validation problem (Proposition 9).

    Short-circuits on the first violation found.
    """
    for gfd in sigma:
        if next(violations_of(gfd, graph, limit=1), None) is not None:
            return False
    return True


def violation_entities(violations: Iterable[Violation]) -> Set[NodeId]:
    """All entities involved in any violation (for precision/recall)."""
    out: Set[NodeId] = set()
    for violation in violations:
        out |= violation.nodes()
    return out
