"""One factorised elimination per pin serves every count query over it.

A count unit asks, per pin, for the tallies of every group member's
dependency list.  ``_factorised_count`` eliminates each pin once and
shares the result across the marginals, every pair table and every
member; the standalone ``FactorisedPlan.dependency_tallies`` recomputes
it per call.  Cost reports charge each unit its ``steps``, so sharing
must change the work done, never the work charged: these tests pin the
shared path's payload *and* steps to the sum of standalone calls over
pins × members, on patterns that reach all three pair-table cases
(classes merged, one component, different components).
"""

from dataclasses import replace

import pytest

from repro.core.gfd import make_gfd
from repro.core.literals import ConstantLiteral, VariableLiteral
from repro.graph import power_law_graph
from repro.matching.factorised import FactorisedPlan
from repro.matching.locality import candidate_permutations
from repro.matching.vf2 import _NO_MATCH, MatchStats, SubgraphMatcher
from repro.parallel import estimate_workload, execute_unit
from repro.parallel.engine import (
    BlockMaterialiser,
    _factorised_count,
    _Group,
    _sparse_tallies,
)
from repro.parallel.multiquery import build_shared_groups
from repro.parallel.workload import UnitPhase
from repro.pattern.pattern import GraphPattern


def _pattern(nodes, edges):
    pattern = GraphPattern()
    for var, label in nodes:
        pattern.add_node(var, label)
    for src, dst, label in edges:
        pattern.add_edge(src, dst, label)
    return pattern


#: x and y in different components; merging them is a valid quotient
DISCONNECTED = _pattern([("x", "person"), ("y", "person")], [])
#: x and y in one component, through z; merging x and y is valid too
PATH = _pattern(
    [("x", "person"), ("y", "person"), ("z", "city")],
    [("x", "z", "in"), ("y", "z", "in")],
)


def _inputs(seed):
    """The graph, Σ and count units of one seed."""
    graph = power_law_graph(
        90, 220, seed=seed, domain_size=3,
        node_labels=["person", "city"], edge_labels=["in", "knows"],
        attributes=("A", "B"),
    )
    value = next(
        graph.get_attr(node, "A") for node in sorted(graph.nodes(), key=repr)
        if graph.has_attr(node, "A")
    )
    return (graph, *_count_units(graph, value))


def _deps(variables, value):
    """Candidates over zero, one and two variables of one member."""
    x, y = variables[0], variables[1]
    pair = (
        (VariableLiteral(x, "A", y, "A"),),
        (VariableLiteral(x, "B", y, "B"),),
    )
    return (
        ((), ()),
        ((ConstantLiteral(x, "A", value),), (ConstantLiteral(x, "B", value),)),
        pair,
        ((VariableLiteral(y, "B", x, "A"),), ()),
        ((), (ConstantLiteral(y, "A", value),)),
    )


def _count_units(graph, value):
    # Two isomorphic GFDs per pattern: one shared group, two members
    # whose dependency lists share the (x, y) pair table and, on PATH,
    # each read one more table of their own.
    sigma = []
    for pattern in (DISCONNECTED, PATH):
        renamed = pattern.rename({"x": "u", "y": "v", "z": "w"})
        sigma.append(make_gfd(pattern, name=f"lead{len(sigma)}"))
        sigma.append(make_gfd(renamed, name=f"member{len(sigma)}"))
    groups = build_shared_groups(sigma)
    assert all(len(group.members) == 2 for group in groups)
    out = []
    for unit in estimate_workload(sigma, graph, groups=groups):
        first = _deps(("x", "y"), value)
        second = _deps(("y", "x"), value)[1:] + (first[2],)
        if "z" in sigma[unit.group.leader_index].pattern:
            first += (((VariableLiteral("y", "A", "z", "A"),), ()),)
            second += (((), (VariableLiteral("x", "B", "z", "B"),)),)
        out.append(replace(unit, kind="count", payload=(first, second)))
    return sigma, out


def _standalone(sigma, unit, materialiser):
    """Payload and steps from per-(pin, member) standalone tallies."""
    block, matcher = materialiser.matcher(
        sigma, unit.group.leader_index, unit.block_nodes
    )
    plan = matcher.factorised_plan()
    leader = sigma[unit.group.leader_index]
    counts = [[[0, 0] for _ in deps] for deps in unit.payload]
    steps = 0
    for pinned in candidate_permutations(
        leader.pattern, leader.pivot, unit.pivot_assignment
    ):
        restrict = matcher._pin_indices(pinned)
        if restrict is _NO_MATCH:
            continue
        for member_pos, deps in enumerate(unit.payload):
            stats = MatchStats()
            tallies = plan.dependency_tallies(
                block, deps, restrict, stats=stats
            )
            steps += stats.steps
            for tally, (supported, satisfied) in zip(
                counts[member_pos], tallies
            ):
                tally[0] += supported
                tally[1] += satisfied
    return _sparse_tallies(counts), steps


def _pair_cases(plan, pair):
    """Which ``_pair_table`` cases the plan's quotients reach."""
    v1, v2 = pair
    cases = set()
    for quotient in plan.quotients:
        c1, c2 = quotient.var_class[v1], quotient.var_class[v2]
        if c1 == c2:
            cases.add("merged")
        elif quotient.comp_of[c1] == quotient.comp_of[c2]:
            cases.add("same component")
        else:
            cases.add("different components")
    return cases


@pytest.mark.parametrize("seed", [2, 9])
def test_shared_elimination_charges_and_tallies_like_standalone(
    seed, monkeypatch
):
    graph, sigma, units = _inputs(seed)
    materialiser = BlockMaterialiser(graph)
    cases = set()
    supported = 0
    factorised = []
    for unit in units:
        found = _factorised_count(
            _Group(sigma, unit.group, UnitPhase.of(unit)), unit, materialiser,
        )
        assert found is not None  # every unit here factorises
        shared_steps, shared = found
        factorised.append(shared)
        payload, steps = _standalone(sigma, unit, materialiser)
        assert shared == payload
        assert shared_steps == steps
        supported += sum(len(member) for member in payload)
        _, matcher = materialiser.matcher(
            sigma, unit.group.leader_index, unit.block_nodes
        )
        cases |= _pair_cases(matcher.factorised_plan(), ("x", "y"))
    assert cases == {"merged", "same component", "different components"}
    assert supported > 0  # the tallies are not all zero
    # and the factorised answer is the enumerated one: with no plan,
    # a unit takes the VF2 path a non-factorising pattern takes
    monkeypatch.setattr(SubgraphMatcher, "factorised_plan", lambda self: None)
    materialiser = BlockMaterialiser(graph)
    for unit, shared in zip(units, factorised):
        enumerated = execute_unit(sigma, graph, unit, materialiser)
        assert enumerated.vf2_units == 1
        assert enumerated.payloads[unit.group.leader_index] == shared


def test_elimination_is_shared_across_members_and_pair_tables(monkeypatch):
    graph, sigma, units = _inputs(2)
    materialiser = BlockMaterialiser(graph)
    unit = next(u for u in units if sigma[u.group.leader_index].pattern == PATH)
    _, matcher = materialiser.matcher(
        sigma, unit.group.leader_index, unit.block_nodes
    )
    plan = matcher.factorised_plan()
    passes = []
    original = FactorisedPlan._component_roots

    def counted(self, quotient, cand, ops):
        passes.append(quotient)
        return original(self, quotient, cand, ops)

    monkeypatch.setattr(FactorisedPlan, "_component_roots", counted)
    assert _factorised_count(
        _Group(sigma, unit.group, UnitPhase.of(unit)), unit, materialiser,
    ) is not None
    leader = sigma[unit.group.leader_index]
    pins = sum(
        matcher._pin_indices(pinned) is not _NO_MATCH
        for pinned in candidate_permutations(
            leader.pattern, leader.pivot, unit.pivot_assignment
        )
    )
    # one pass per surviving quotient per pin, whatever the number of
    # members and pair tables
    assert 0 < len(passes) <= pins * len(plan.quotients)
