"""Property-based tests (hypothesis) for core invariants.

Each property pins an invariant the paper's machinery relies on:
matcher completeness vs brute force, closure monotonicity/idempotence,
LPT's approximation bound, fragmentation coverage, the equality of
``Vio(Σ, G)`` across the sequential and parallel algorithms, and the
service's op coalescing against applying a batch op by op.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.core import det_vio, generate_gfds, is_satisfiable, build_model
from repro.core.closure import EqualityClosure
from repro.core.literals import ConstantLiteral, VariableLiteral
from repro.graph import GraphError, PropertyGraph, hash_partition
from repro.graph.updates import apply_op
from repro.matching import find_matches
from repro.parallel import (
    dis_val,
    lpt_partition,
    makespan,
    makespan_lower_bound,
    rep_val,
)
from repro.pattern import GraphPattern
from repro.service import coalesce_ops

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
NODE_LABELS = ("a", "b")
EDGE_LABELS = ("e", "f")


@st.composite
def small_graphs(draw, max_nodes=6, max_edges=8, attrs=("A",)):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    g = PropertyGraph()
    for i in range(n):
        label = draw(st.sampled_from(NODE_LABELS))
        g.add_node(i, label, {
            attr: draw(st.integers(min_value=0, max_value=2))
            for attr in attrs
        })
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    for _ in range(num_edges):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        if src == dst:
            continue
        g.add_edge(src, dst, draw(st.sampled_from(EDGE_LABELS)))
    return g


@st.composite
def small_patterns(draw, max_nodes=3):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    q = GraphPattern()
    variables = [f"v{i}" for i in range(n)]
    for var in variables:
        q.add_node(var, draw(st.sampled_from(NODE_LABELS + ("_",))))
    num_edges = draw(st.integers(min_value=0, max_value=n))
    for _ in range(num_edges):
        src = draw(st.sampled_from(variables))
        dst = draw(st.sampled_from(variables))
        if src == dst:
            continue
        q.add_edge(src, dst, draw(st.sampled_from(EDGE_LABELS)))
    return q


def brute_force_matches(pattern, graph):
    """Reference matcher: try every injective variable→node mapping."""
    from repro.graph.graph import WILDCARD

    variables = pattern.variables
    nodes = list(graph.nodes())
    out = []
    for image in itertools.permutations(nodes, len(variables)):
        mapping = dict(zip(variables, image))
        ok = True
        for var in variables:
            label = pattern.label(var)
            if label != WILDCARD and graph.label(mapping[var]) != label:
                ok = False
                break
        if not ok:
            continue
        for src, dst, elabel in pattern.edges():
            if elabel == WILDCARD:
                if not graph.has_edge(mapping[src], mapping[dst]):
                    ok = False
                    break
            elif not graph.has_edge(mapping[src], mapping[dst], elabel):
                ok = False
                break
        if ok:
            out.append(mapping)
    return out


# ----------------------------------------------------------------------
# matcher properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(pattern=small_patterns(), graph=small_graphs())
def test_matcher_agrees_with_brute_force(pattern, graph):
    fast = sorted(
        tuple(sorted(m.items())) for m in find_matches(pattern, graph)
    )
    slow = sorted(
        tuple(sorted(m.items())) for m in brute_force_matches(pattern, graph)
    )
    assert fast == slow


@settings(max_examples=30, deadline=None)
@given(pattern=small_patterns(), graph=small_graphs())
def test_matches_are_injective_and_label_correct(pattern, graph):
    from repro.graph.graph import WILDCARD

    for match in find_matches(pattern, graph):
        assert len(set(match.values())) == len(match)
        for var, node in match.items():
            label = pattern.label(var)
            assert label == WILDCARD or graph.label(node) == label


# ----------------------------------------------------------------------
# closure properties
# ----------------------------------------------------------------------
literals = st.one_of(
    st.builds(
        ConstantLiteral,
        var=st.sampled_from(("x", "y", "z")),
        attr=st.sampled_from(("A", "B")),
        const=st.integers(min_value=0, max_value=2),
    ),
    st.builds(
        VariableLiteral,
        var1=st.sampled_from(("x", "y", "z")),
        attr1=st.sampled_from(("A", "B")),
        var2=st.sampled_from(("x", "y", "z")),
        attr2=st.sampled_from(("A", "B")),
    ),
)


@settings(max_examples=80, deadline=None)
@given(batch=st.lists(literals, max_size=8))
def test_closure_entails_everything_added(batch):
    closure = EqualityClosure()
    closure.add_all(batch)
    # A conflicting closure is contradictory — callers (implies,
    # is_satisfiable) branch on `conflicting` before consulting entails.
    assert closure.conflicting or all(closure.entails(l) for l in batch)


@settings(max_examples=80, deadline=None)
@given(batch=st.lists(literals, max_size=8), extra=literals)
def test_closure_monotone(batch, extra):
    base = EqualityClosure()
    base.add_all(batch)
    grown = base.copy()
    grown.add_literal(extra)
    if not grown.conflicting:
        for literal in batch:
            assert grown.entails(literal)
    if base.conflicting:
        assert grown.conflicting  # conflicts never disappear


@settings(max_examples=80, deadline=None)
@given(batch=st.lists(literals, max_size=8))
def test_closure_idempotent(batch):
    closure = EqualityClosure()
    closure.add_all(batch)
    again = closure.copy()
    again.add_all(batch)
    assert again.conflicting == closure.conflicting


# ----------------------------------------------------------------------
# balancing properties
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(
        st.integers(min_value=1, max_value=100), min_size=1, max_size=30
    ),
    n=st.integers(min_value=1, max_value=8),
)
def test_lpt_within_factor_two_of_lower_bound(weights, n):
    from tests.test_balancing_assignment import make_unit

    units = [make_unit(w) for w in weights]
    _, loads = lpt_partition(units, n)
    assert makespan(loads) <= 2 * makespan_lower_bound(units, n) + 1e-9
    assert sum(loads) == float(sum(weights))


# ----------------------------------------------------------------------
# fragmentation properties
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(graph=small_graphs(max_nodes=8, max_edges=12),
       n=st.integers(min_value=1, max_value=4))
def test_fragmentation_covers_graph(graph, n):
    fr = hash_partition(graph, n)
    assert sum(len(f.owned) for f in fr.fragments) == graph.num_nodes
    union_edges = set()
    for fragment in fr.fragments:
        union_edges |= set(fragment.graph.edges())
    assert union_edges == set(graph.edges())


# ----------------------------------------------------------------------
# end-to-end properties
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50),
       n=st.integers(min_value=2, max_value=6))
def test_parallel_algorithms_agree_with_sequential(seed, n):
    from repro.graph import power_law_graph

    graph = power_law_graph(120, 300, seed=seed, domain_size=8)
    sigma = generate_gfds(graph, count=3, pattern_edges=2, seed=seed)
    expected = det_vio(sigma, graph)
    assert rep_val(sigma, graph, n=n).violations == expected
    fr = hash_partition(graph, n)
    assert dis_val(sigma, fr).violations == expected


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs(max_nodes=10, max_edges=16, attrs=("A", "B")),
       min_confidence=st.sampled_from((0.5, 0.8, 1.0)),
       max_matches=st.sampled_from((3, 5000)),
       eval_mode=st.sampled_from(("auto", "enumerate")))
def test_exact_uncapped_mined_rules_have_no_violations(
    graph, min_confidence, max_matches, eval_mode
):
    """A rule mined from an uncapped pattern with ``satisfied ==
    supported`` has no violation: every match satisfying X satisfies Y.

    Session discovery skips confirming such rules on this lemma alone,
    so it is pinned against ``det_vio`` on the serial miner, over both
    tally paths (factorised and enumerated).  A capped pattern's tallies
    cover only the canonical prefix, so its rules are left out."""
    from repro.core import discover_gfds

    rules = discover_gfds(
        graph, min_support=2, min_confidence=min_confidence,
        max_matches=max_matches, eval_mode=eval_mode,
    )
    for mined in rules:
        pattern = mined.gfd.pattern
        capped = sum(
            1 for _ in find_matches(pattern, graph, limit=max_matches + 1)
        ) > max_matches
        if mined.confidence == 1.0 and not capped:
            assert det_vio([mined.gfd], graph) == set(), mined.gfd


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100))
def test_satisfiable_sets_admit_models(seed):
    """is_satisfiable ⇔ build_model returns a certified model."""
    import random

    from repro.core import parse_gfd

    rng = random.Random(seed)
    pool = [
        parse_gfd("x:tau", " => x.A = 'c'", name="c"),
        parse_gfd("x:tau", " => x.A = 'd'", name="d"),
        parse_gfd("x:tau", "x.A = 'c' => x.B = '1'", name="cb"),
        parse_gfd("x:tau -l-> y:tau", " => y.A = 'c'", name="edge"),
        parse_gfd("x:sigma", " => x.A = 'e'", name="sigma"),
        parse_gfd("x:tau; y:sigma", "x.A = 'c' => y.A = 'f'", name="cross"),
    ]
    sigma = rng.sample(pool, rng.randint(1, 4))
    satisfiable = is_satisfiable(sigma)
    model = build_model(sigma)
    if satisfiable:
        assert model is not None
        assert det_vio(sigma, model) == set()
        for gfd in sigma:
            assert next(find_matches(gfd.pattern, model), None) is not None
    else:
        assert model is None


# ----------------------------------------------------------------------
# update coalescing
# ----------------------------------------------------------------------
def _coalescing_sigma():
    from repro.core import parse_gfd

    return [
        parse_gfd("x:a -e-> y:b", " => x.A = y.A", name="e-equal"),
        parse_gfd("x:a -f-> y:a", "x.A = y.A => x.B = y.B", name="f-implies"),
    ]


@settings(max_examples=200, deadline=None)
@given(graph=small_graphs(), data=st.data())
def test_coalesced_batch_equals_op_by_op_application(graph, data):
    """``coalesce_ops`` then ``apply`` leaves the graph, and so
    ``Vio(Σ, G)``, exactly as applying the batch one op at a time.

    The stream is drawn against a mirror that applies each op as it is
    drawn, so it is valid op by op; ops the mirror rejects are dropped.
    New node ids (past the graph's) make node inserts and edges to
    fresh nodes part of the stream."""
    sequential = graph.copy()
    fresh = [graph.num_nodes, graph.num_nodes + 1]
    values = st.integers(min_value=0, max_value=2)
    ops = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=14))):
        nodes = sorted(sequential.nodes()) + fresh
        node = data.draw(st.sampled_from(nodes))
        kind = data.draw(st.sampled_from(("attr", "edge+", "edge-", "node")))
        if kind == "attr":
            op = ("attr", node, data.draw(st.sampled_from("AB")),
                  data.draw(values))
        elif kind == "node":
            op = ("node", node, data.draw(st.sampled_from(NODE_LABELS)),
                  data.draw(st.one_of(st.none(), st.fixed_dictionaries(
                      {"A": values}))))
        else:
            op = (kind, node, data.draw(st.sampled_from(nodes)),
                  data.draw(st.sampled_from(EDGE_LABELS)))
        try:
            apply_op(sequential, op)
        except GraphError:
            continue
        ops.append(op)
    coalesced, cancelled = coalesce_ops(ops, graph)
    assert len(coalesced) + cancelled == len(ops)
    folded = graph.copy()
    for op in coalesced:
        apply_op(folded, op)
    assert folded == sequential
    sigma = _coalescing_sigma()
    assert det_vio(sigma, folded) == det_vio(sigma, sequential)
