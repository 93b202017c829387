"""End-to-end reproduction of the paper's worked examples (Examples 1–13,
Figures 1–3 and 7) — the integration layer of the test suite."""


from repro.core import (
    det_vio,
    implies,
    is_satisfiable,
    parse_gfd,
    satisfies,
    violation_entities,
)
from repro.graph import PropertyGraph
from repro.matching import count_matches, find_matches
from repro.parallel import estimate_workload, lpt_partition, rep_val
from repro.pattern import parse_pattern, pivot_vector
from repro.datasets import dbpedia_like, yago_like

from oracle import oracle_det_vio, oracle_matches


class TestExample1KnowledgeBaseInconsistencies:
    """The three knowledge-base inconsistencies of Example 1 are each
    caught by a GFD."""

    def test_flight_inconsistency(self, g1, phi1):
        vio = det_vio([phi1], g1)
        assert violation_entities(vio) >= {"flight1", "flight2"}

    def test_capital_inconsistency(self, phi2):
        graph = PropertyGraph()
        graph.add_node("au", "country", {"val": "Australia"})
        graph.add_node("c1", "city", {"val": "Canberra"})
        graph.add_node("c2", "city", {"val": "Melbourne"})
        graph.add_edge("au", "c1", "capital")
        graph.add_edge("au", "c2", "capital")
        vio = det_vio([phi2], graph)
        assert len(vio) == 2  # both (y,z) orders

    def test_penguin_inconsistency(self):
        """Birds fly, penguins are birds, penguins don't fly."""
        graph = PropertyGraph()
        graph.add_node("bird", "bird", {"can_fly": "true"})
        graph.add_node("penguin", "penguin", {"can_fly": "false"})
        graph.add_edge("penguin", "bird", "is_a")
        phi3 = parse_gfd("y -is_a-> x", " => x.can_fly = y.can_fly", name="phi3")
        assert not satisfies([phi3], graph)


class TestExample1SocialGraphs:
    def test_blog_status_rule(self):
        """φ5: the status annotation must match the photo description."""
        graph = PropertyGraph()
        graph.add_node("z", "blog", {})
        graph.add_node("x", "status", {"text": "sunset"})
        graph.add_node("y", "photo", {"desc": "sunrise"})
        graph.add_edge("z", "x", "has_status")
        graph.add_edge("z", "y", "has_photo")
        graph.add_edge("x", "y", "has_attachment")
        phi5 = parse_gfd(
            "z:blog -has_status-> x:status; z -has_photo-> y:photo; "
            "x -has_attachment-> y",
            " => x.text = y.desc",
            name="phi5",
        )
        assert not satisfies([phi5], graph)
        graph.set_attr("x", "text", "sunrise")
        assert satisfies([phi5], graph)

    def test_fake_account_rule(self, g2, phi6):
        vio = det_vio([phi6], g2)
        assert {"acct4"} == {v.match["x"] for v in vio}


class TestExamples4And6:
    def test_match_counts(self, q1, q2, g1, g3):
        assert count_matches(q1, g1) == 2
        assert count_matches(q2, g3) == 0

    def test_g2_has_clean_and_dirty_matches(self, g2, phi6):
        """Example 6: some Q6 matches satisfy X6 → Y6 (acct1/acct2), yet
        G2 ⊭ φ6 because one match does not."""
        matches = list(find_matches(phi6.pattern, g2))
        assert len(matches) > len(det_vio([phi6], g2))
        assert not satisfies([phi6], g2)


class TestExample7Satisfiability:
    def test_phi7_pair(self):
        phi7 = parse_gfd("x:tau", " => x.A = 'c'")
        phi7b = parse_gfd("x:tau", " => x.A = 'd'")
        assert not is_satisfiable([phi7, phi7b])

    def test_phi8_phi9(self):
        q8 = "x:tau -l-> y:tau; x -l-> z:tau; y -l-> z"
        q9 = q8 + "; y -l-> w:tau; z -l-> w"
        phi8 = parse_gfd(q8, " => x.A = 'c'")
        phi9 = parse_gfd(q9, " => x.A = 'd'")
        assert is_satisfiable([phi8])
        assert is_satisfiable([phi9])
        assert not is_satisfiable([phi8, phi9])


class TestExample8Implication:
    def test_phi11_implied(self):
        q8 = "x:tau -l-> y:tau; x -l-> z:tau; y -l-> z"
        q9 = q8 + "; y -l-> w:tau; z -l-> w"
        sigma = [
            parse_gfd(q8, "x.A = y.A => x.B = y.B"),
            parse_gfd(q9, "x.B = y.B => z.C = w.C"),
        ]
        phi11 = parse_gfd(q9, "x.A = y.A => z.C = w.C")
        assert implies(sigma, phi11)


class TestExamples9To13Workload:
    def test_example9_pivot_vectors(self, q1, q2):
        assert pivot_vector(q1).radii == (1, 1)
        assert pivot_vector(q2).radii == (1,)
        q4 = parse_pattern("x:R; y:R")
        assert pivot_vector(q4).radii == (0, 0)

    def test_example11_work_unit(self, phi1, g1):
        """The (flight1, flight2) unit's block is all 22 of G1's elements."""
        units = estimate_workload([phi1], g1)
        assert len(units) == 1
        assert units[0].block_size == 22

    def test_example12_partition(self):
        from tests.test_balancing_assignment import make_unit

        units = [make_unit(s) for s in (22, 22, 26, 26, 30, 30, 24, 28, 28)]
        _, loads = lpt_partition(units, 3, smallest_first=True)
        assert sorted(loads) == [76.0, 78.0, 82.0]

    def test_example13_local_detection(self, phi1, g1):
        """repVal finds exactly the φ1 violations via its work units."""
        run = rep_val([phi1], g1, n=2)
        assert run.violations == det_vio([phi1], g1)


class TestExamplesOnSnapshotBackend:
    """The same worked examples pinned against the dict-of-dicts
    reference matcher in ``tests/oracle`` (the differential harness
    covers random inputs; these cover the paper's own figures)."""

    def test_example4_match_counts(self, q1, q2, g1, g3):
        assert count_matches(q1, g1) == 2
        assert count_matches(q2, g3) == 0
        # ...and identically over an explicitly-built snapshot object.
        assert count_matches(q1, g1.snapshot()) == 2

    def test_example1_flight_inconsistency(self, g1, phi1):
        vio = det_vio([phi1], g1)
        assert vio == oracle_det_vio([phi1], g1)
        assert violation_entities(vio) >= {"flight1", "flight2"}

    def test_example1_capital_inconsistency(self, phi2):
        graph = PropertyGraph()
        graph.add_node("au", "country", {"val": "Australia"})
        graph.add_node("c1", "city", {"val": "Canberra"})
        graph.add_node("c2", "city", {"val": "Melbourne"})
        graph.add_edge("au", "c1", "capital")
        graph.add_edge("au", "c2", "capital")
        vio = det_vio([phi2], graph)
        assert len(vio) == 2  # both (y,z) orders

    def test_example6_fake_account_rule(self, g2, phi6):
        vio = det_vio([phi6], g2)
        assert {"acct4"} == {v.match["x"] for v in vio}
        matches = list(find_matches(phi6.pattern, g2))
        assert {tuple(sorted(m.items())) for m in matches} == {
            tuple(sorted(m.items()))
            for m in oracle_matches(phi6.pattern, g2)
        }

    def test_example13_local_detection_uses_snapshots(self, phi1, g1):
        """repVal's engine (snapshot-backed blocks) equals the oracle."""
        run = rep_val([phi1], g1, n=2)
        assert run.violations == oracle_det_vio([phi1], g1)


class TestFigure7RealLifeGFDs:
    def test_gfd1_child_parent(self):
        ds = yago_like.build(scale=50, seed=20, flight_errors=0,
                             capital_errors=0, mayor_errors=0)
        vio = det_vio(ds.gfds, ds.graph)
        assert vio
        assert {v.gfd_name for v in vio} == {"gfd1-child-parent"}

    def test_gfd2_disjoint_types(self):
        ds = dbpedia_like.build(scale=60, seed=21)
        vio = det_vio(ds.gfds, ds.graph)
        assert {v.gfd_name for v in vio} == {"gfd2-disjoint-types"}

    def test_gfd3_mayor_party(self):
        ds = yago_like.build(scale=50, seed=22, flight_errors=0,
                             capital_errors=0, family_errors=0)
        vio = det_vio(ds.gfds, ds.graph)
        assert vio
        assert {v.gfd_name for v in vio} == {"gfd3-mayor-party"}
