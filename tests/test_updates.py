"""The update-op vocabulary (``repro.graph.updates``) and the guarantees
every streaming path builds on it.

One table drives the per-kind checks: for each op kind, which nodes it
touches, whether it is structural, what ``apply_op`` does to a small
graph and when ``holds`` says the graph is already in the op's final
state.  The rest pins the batch guarantees end to end: a malformed op
changes nothing and fails in the caller, on every executor; an op the
graph rejects mid-batch leaves every warm cache consistent with the
applied prefix, so the next warm ``validate`` still equals ``detVio``.
"""

import pytest

from repro import ValidationService, ValidationSession, det_vio, parse_gfd
from repro.graph import GraphError, PropertyGraph
from repro.graph.updates import (
    OP_KINDS,
    apply_op,
    check_ops,
    fold_key,
    holds,
    is_structural,
    op_nodes,
)

EXECUTORS = ("simulated", "process")


def small_graph():
    graph = PropertyGraph()
    graph.add_node("a", "city", {"val": "x"})
    graph.add_node("b", "city", {"val": "y"})
    graph.add_edge("a", "b", "road")
    return graph


#: kind -> (op, nodes, structural, fold key, graph-after check)
CASES = {
    "attr": (
        ("attr", "a", "val", "z"), ("a",), False, ("a", "val"),
        lambda g: g.get_attr("a", "val") == "z",
    ),
    "edge+": (
        ("edge+", "b", "a", "road"), ("b", "a"), True, ("b", "a", "road"),
        lambda g: g.has_edge("b", "a", "road"),
    ),
    "edge-": (
        ("edge-", "a", "b", "road"), ("a", "b"), True, ("a", "b", "road"),
        lambda g: not g.has_edge("a", "b", "road"),
    ),
    "node": (
        ("node", "c", "town", {"val": "w"}), ("c",), True, None,
        lambda g: g.label("c") == "town" and g.get_attr("c", "val") == "w",
    ),
}


def test_table_covers_every_kind():
    assert set(CASES) == set(OP_KINDS)


@pytest.mark.parametrize("kind", OP_KINDS)
def test_vocabulary_per_kind(kind):
    op, nodes, structural, key, landed = CASES[kind]
    graph = small_graph()
    assert check_ops([list(op)]) == [op]
    assert op_nodes(op) == nodes
    assert is_structural(op) is structural
    assert fold_key(op) == key
    assert not holds(graph, op)
    version = graph._version
    apply_op(graph, op)
    assert landed(graph)
    assert holds(graph, op)
    assert (graph._version != version) is structural


def test_node_op_on_existing_node_holds_only_when_label_and_attrs_match():
    graph = small_graph()
    assert holds(graph, ("node", "a", "city", None))
    assert holds(graph, ("node", "a", "city", {"val": "x"}))
    assert not holds(graph, ("node", "a", "town", None))
    assert not holds(graph, ("node", "a", "city", {"val": "q"}))
    assert not holds(graph, ("node", "a", "city", {"other": None}))


def test_three_field_node_op_is_normalised():
    assert check_ops([("node", "c", "town")]) == [("node", "c", "town", None)]


@pytest.mark.parametrize("bad, match", [
    (("bogus", 1), "unknown update kind 'bogus' in op 1"),
    ((), "unknown update kind None in op 1"),
    ((3, "a"), "unknown update kind 3 in op 1"),
    ((["attr"], "a"), r"unknown update kind \['attr'\] in op 1"),
    (("attr", "x"), r"op 1 \('attr', 'x'\): 'attr' takes 3 fields, got 1"),
    (("edge+", "a", "b"), "'edge\\+' takes 3 fields, got 2"),
    (("edge-", "a", "b", "road", "extra"), "'edge-' takes 3 fields, got 4"),
    (("node", "c"), "'node' takes 3 fields, got 1"),
    (("node", "c", "town", None, "extra"), "'node' takes 3 fields, got 4"),
])
def test_rejections_name_the_op_and_its_position(bad, match):
    with pytest.raises(ValueError, match=match):
        check_ops([("attr", "a", "val", 1), bad])


def test_apply_op_state_errors_leave_the_graph_unchanged():
    graph = small_graph()
    before = (graph._version, sorted(graph.edges()), dict(graph.attrs("a")))
    for op in [
        ("attr", "nope", "val", 1),
        ("edge+", "a", "nope", "road"),
        ("edge-", "b", "a", "road"),
    ]:
        with pytest.raises(GraphError):
            apply_op(graph, op)
    assert (graph._version, sorted(graph.edges()), dict(graph.attrs("a"))) \
        == before


# ---------------------------------------------------------------------------
# batch guarantees through the session and the service
# ---------------------------------------------------------------------------

PHI2 = ("x:country -capital-> y:city; x -capital-> z:city", " => y.val = z.val")


def capital_graph():
    graph = PropertyGraph()
    graph.add_node("au", "country", {"val": "Australia"})
    graph.add_node("c1", "city", {"val": "Canberra"})
    graph.add_node("c2", "city", {"val": "Canberra"})
    graph.add_edge("au", "c1", "capital")
    graph.add_edge("au", "c2", "capital")
    return graph


def phi2():
    return parse_gfd(*PHI2, name="phi2")


def session_for(graph, executor):
    processes = 1 if executor == "process" else None
    return ValidationSession(
        graph, [phi2()], executor=executor, processes=processes
    )


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("bad", [
    ("bogus", 1),
    ("attr", "x"),
    ("attr", "nope", "val", 1),
])
def test_rejected_batch_leaves_warm_caches_consistent(executor, bad):
    graph = capital_graph()
    with session_for(graph, executor) as session:
        assert session.validate(n=1).violations == set()
        with pytest.raises((ValueError, GraphError)):
            session.update([("attr", "c2", "val", "Sydney"), bad])
        if len(bad) == 4:
            # a state error: the op before it landed, everywhere
            assert graph.get_attr("c2", "val") == "Sydney"
        else:
            # a shape error: nothing changed
            assert graph.get_attr("c2", "val") == "Canberra"
        expected = det_vio([phi2()], graph)
        assert session.violations == expected
        assert session.validate(n=1).violations == expected


@pytest.mark.parametrize("executor", EXECUTORS)
def test_three_field_node_op_on_warm_session(executor):
    graph = capital_graph()
    with session_for(graph, executor) as session:
        session.validate(n=1)
        session.update([("node", "c2", "town")])
        session.update([("node", "c2", "city"), ("attr", "c2", "val", "Perth")])
        expected = det_vio([phi2()], graph)
        assert expected
        assert session.validate(n=1).violations == expected


def test_submit_rejects_malformed_op_in_the_producer():
    graph = capital_graph()
    with session_for(graph, "simulated") as session:
        session.validate(n=1)
        with ValidationService(session) as service:
            with pytest.raises(ValueError, match="'attr' takes 3 fields"):
                service.submit([("attr", "c1", "val", "Perth"), ("attr", "c2")])
            service.submit([("attr", "c2", "val", "Sydney")])
            assert service.flush(timeout=30)
            stats = service.stats()
        assert stats.failure is None and stats.submitted == 1
        assert graph.get_attr("c1", "val") == "Canberra"
        assert graph.get_attr("c2", "val") == "Sydney"
        assert session.violations == det_vio([phi2()], graph)
        assert session.violations
