"""Differential harness: the indexed (snapshot) matcher must agree with
the dict-of-dicts reference walk in ``tests/oracle`` on everything
observable — match sets, violation sets, and ``MatchStats.matches`` —
across seeded random graph/pattern pairs.

Any divergence between the two search paths (candidate seeding,
frontier expansion, consistency checks, pivoted matching) shows up here
as a set difference on a reproducible seed.
"""

from __future__ import annotations

import random

import pytest

from repro.core import det_vio, generate_gfds
from repro.graph import WILDCARD, power_law_graph, uniform_random_graph
from repro.matching import MatchStats, SubgraphMatcher
from repro.pattern import GraphPattern

from oracle import OracleMatcher, oracle_det_vio

NODE_LABELS = tuple(f"L{i}" for i in range(6))
EDGE_LABELS = tuple(f"e{i}" for i in range(3))

#: seeded (graph, pattern) pair count — the harness contract from ISSUE 1
NUM_PAIRS = 50


def random_pattern(rng: random.Random) -> GraphPattern:
    """A small random pattern over the generator's label alphabet.

    Mixes concrete and wildcard node/edge labels; every variable gets at
    least one incident edge so match counts stay bounded on the dense
    test graphs.
    """
    q = GraphPattern()
    num_vars = rng.randint(2, 4)
    variables = [f"x{i}" for i in range(num_vars)]
    for var in variables:
        label = WILDCARD if rng.random() < 0.25 else rng.choice(NODE_LABELS)
        q.add_node(var, label)
    num_edges = rng.randint(num_vars - 1, num_vars + 1)
    for _ in range(num_edges):
        src, dst = rng.sample(variables, 2)
        elabel = WILDCARD if rng.random() < 0.25 else rng.choice(EDGE_LABELS)
        q.add_edge(src, dst, elabel)
    for var in variables:
        if q.degree(var) == 0:
            other = rng.choice([v for v in variables if v != var])
            q.add_edge(var, other, rng.choice(EDGE_LABELS))
    return q


def make_pair(seed: int):
    """The ``seed``-th random graph/pattern pair."""
    rng = random.Random(seed)
    build = power_law_graph if seed % 2 == 0 else uniform_random_graph
    graph = build(
        num_nodes=rng.randint(60, 140),
        num_edges=rng.randint(150, 320),
        node_labels=NODE_LABELS,
        edge_labels=EDGE_LABELS,
        domain_size=20,
        seed=seed,
    )
    return graph, random_pattern(rng)


def match_set(matcher, fixed=None):
    stats = MatchStats()
    found = frozenset(
        frozenset(m.items()) for m in matcher.matches(fixed=fixed, stats=stats)
    )
    return found, stats


@pytest.mark.parametrize("seed", range(NUM_PAIRS))
def test_backends_agree(seed):
    """Match sets and match counts are identical on pair ``seed``."""
    graph, pattern = make_pair(seed)
    legacy = OracleMatcher(pattern, graph)
    indexed = SubgraphMatcher(pattern, graph)

    legacy_matches, legacy_stats = match_set(legacy)
    indexed_matches, indexed_stats = match_set(indexed)
    assert legacy_matches == indexed_matches
    assert legacy_stats.matches == indexed_stats.matches
    assert legacy_stats.matches == len(legacy_matches)

    # The indexed candidates are a (pair-index-narrowed) subset of the
    # oracle's, and both contain every match image.
    for var in pattern.nodes():
        assert indexed.candidates[var] <= legacy.candidates[var]
    for match in legacy_matches:
        for var, node in match:
            assert node in indexed.candidates[var]


@pytest.mark.parametrize("seed", range(0, NUM_PAIRS, 5))
def test_pivoted_backends_agree(seed):
    """Pivoted (fixed-variable) matching agrees on matching and
    non-matching pivots alike."""
    graph, pattern = make_pair(seed)
    legacy = OracleMatcher(pattern, graph)
    indexed = SubgraphMatcher(pattern, graph)

    variables = list(pattern.nodes())
    pivots = []
    first = next(legacy.matches(), None)
    if first is not None:
        pivots.append({variables[0]: first[variables[0]]})
        pivots.append(dict(list(first.items())[:2]))
    rng = random.Random(seed + 1000)
    nodes = list(graph.nodes())
    pivots.append({variables[0]: rng.choice(nodes)})
    pivots.append({variables[-1]: rng.choice(nodes)})
    pivots.append({variables[0]: "no-such-node"})

    for fixed in pivots:
        legacy_matches, legacy_stats = match_set(legacy, fixed=fixed)
        indexed_matches, indexed_stats = match_set(indexed, fixed=fixed)
        assert legacy_matches == indexed_matches, f"pivot {fixed!r} diverged"
        assert legacy_stats.matches == indexed_stats.matches


@pytest.mark.parametrize("seed", range(0, NUM_PAIRS, 2))
def test_violation_sets_agree(seed):
    """``Vio(Σ, G)`` equals the oracle's on generated rule sets."""
    graph, _ = make_pair(seed)
    sigma = generate_gfds(graph, count=3, pattern_edges=2, seed=seed)
    legacy_vio = oracle_det_vio(sigma, graph)
    indexed_vio = det_vio(sigma, graph)
    assert legacy_vio == indexed_vio
