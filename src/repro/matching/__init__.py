"""Subgraph isomorphism matching: candidate filtering, the VF2-style
backtracking enumerator, and pivoted local matching over data blocks."""

from .candidates import compute_candidate_indices, compute_candidates
from .factorised import EVAL_MODES, FactorisedPlan, build_plan
from .vf2 import (
    Match,
    MatchStats,
    SubgraphMatcher,
    count_matches,
    find_matches,
    has_match,
)
from .locality import (
    candidate_permutations,
    data_block,
    data_block_size,
    pivot_candidates,
    pivoted_matches,
    symmetry_predecessors,
)

__all__ = [
    "EVAL_MODES",
    "FactorisedPlan",
    "build_plan",
    "compute_candidate_indices",
    "compute_candidates",
    "Match",
    "MatchStats",
    "SubgraphMatcher",
    "count_matches",
    "find_matches",
    "has_match",
    "candidate_permutations",
    "data_block",
    "data_block_size",
    "pivot_candidates",
    "pivoted_matches",
    "symmetry_predecessors",
]
