"""Tests for workload reduction (Appendix) and the execution engine."""


from repro.core import det_vio, parse_gfd, satisfies
from repro.graph import power_law_graph
from repro.parallel import (
    build_shared_groups,
    estimate_workload,
    execute_unit,
    reduce_rules,
    reduction_ratio,
)
from repro.parallel.engine import SlotResult


class TestWorkloadReduction:
    def test_removes_implied(self):
        a = parse_gfd("x:R", "x.A = 1 => x.B = 2", name="a")
        b = parse_gfd("x:R", "x.B = 2 => x.C = 3", name="b")
        implied = parse_gfd("x:R", "x.A = 1 => x.C = 3", name="implied")
        kept, removed = reduce_rules([a, b, implied])
        assert len(kept) == 2
        assert [g.name for g in removed] == ["implied"]

    def test_validity_preserved(self):
        """G ⊨ Σ iff G ⊨ reduced(Σ) — the reduction's soundness."""
        a = parse_gfd("x:R", "x.A = 1 => x.B = 2", name="a")
        b = parse_gfd("x:R", "x.B = 2 => x.C = 3", name="b")
        implied = parse_gfd("x:R", "x.A = 1 => x.C = 3", name="implied")
        kept, _ = reduce_rules([a, b, implied])

        from repro.core import relation_to_graph

        clean = relation_to_graph("R", [{"A": 1, "B": 2, "C": 3}])
        dirty = relation_to_graph("R", [{"A": 1, "B": 2, "C": 99}])
        assert satisfies([a, b, implied], clean) == satisfies(kept, clean)
        assert satisfies([a, b, implied], dirty) == satisfies(kept, dirty)

    def test_ratio(self):
        a = parse_gfd("x:R", "x.A = 1 => x.B = 2", name="a")
        dup = parse_gfd("x:R", "x.A = 1 => x.B = 2", name="dup")
        assert reduction_ratio([a, dup]) == 0.5
        assert reduction_ratio([]) == 0.0


class TestExecuteUnit:
    def test_unit_finds_local_violations(self, phi2):
        from repro.graph import PropertyGraph

        graph = PropertyGraph()
        graph.add_node("au", "country", {"val": "Australia"})
        graph.add_node("c1", "city", {"val": "Canberra"})
        graph.add_node("c2", "city", {"val": "Melbourne"})
        graph.add_edge("au", "c1", "capital")
        graph.add_edge("au", "c2", "capital")

        sigma = [phi2]
        units = estimate_workload(
            sigma, graph, groups=build_shared_groups(sigma)
        )
        assert len(units) == 1
        result = execute_unit(sigma, graph, units[0])
        assert isinstance(result, SlotResult)
        assert result.violations == det_vio(sigma, graph)
        assert len(result.steps) == 1  # one column entry for the one unit

    def test_units_cover_all_violations(self):
        graph = power_law_graph(200, 500, seed=17, domain_size=5)
        from repro.core import generate_gfds

        sigma = generate_gfds(graph, count=4, pattern_edges=2, seed=17)
        units = estimate_workload(
            sigma, graph, groups=build_shared_groups(sigma)
        )
        collected = set()
        for unit in units:
            collected |= execute_unit(sigma, graph, unit).violations
        assert collected == det_vio(sigma, graph)

    def test_shared_unit_checks_all_members(self):
        """Two GFDs over one pattern: the shared unit reports both names."""
        from repro.core import relation_to_graph

        graph = relation_to_graph("R", [{"A": 1, "B": 2}, {"A": 1, "B": 3}])
        fd1 = parse_gfd("x:R; y:R", "x.A = y.A => x.B = y.B", name="fd1")
        fd2 = parse_gfd("u:R; v:R", "u.A = v.A => u.B = v.B", name="fd2")
        sigma = [fd1, fd2]
        groups = build_shared_groups(sigma)
        assert len(groups) == 1
        units = estimate_workload(sigma, graph, groups=groups)
        collected = set()
        for unit in units:
            collected |= execute_unit(sigma, graph, unit).violations
        assert {v.gfd_name for v in collected} == {"fd1", "fd2"}
        assert collected == det_vio(sigma, graph)


class TestBlockMaterialiser:
    def test_size_budget_and_reuse(self):
        from repro.parallel.engine import BlockMaterialiser
        from repro.graph import power_law_graph

        graph = power_law_graph(120, 240, seed=3, domain_size=10)
        mat = BlockMaterialiser(graph, budget=300)
        nodes = list(graph.nodes())
        # Repeated requests for the same block return the same object...
        first = mat.block(set(nodes[:10]))
        assert mat.block(set(nodes[:10])) is first
        # ...and retained size never outgrows the budget (except when a
        # single oversized block is all that remains).
        for start in range(0, 110):
            mat.block(set(nodes[start : start + 8]))
            assert mat._retained <= mat.budget or len(mat._cache) == 1
        assert len(mat._cache) >= 1
        # An evicted block is rebuilt, not lost.
        rebuilt = mat.block(set(nodes[:10]))
        assert rebuilt == first
