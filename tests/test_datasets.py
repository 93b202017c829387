"""Tests for the dataset stand-ins for the paper's real-life graphs."""


from repro.core import det_vio, satisfies, violation_entities
from repro.quality import accuracy
from repro.datasets import dbpedia_like, pokec_like, yago_like


class TestYagoLike:
    def test_deterministic(self):
        a = yago_like.build(scale=50, seed=2)
        b = yago_like.build(scale=50, seed=2)
        assert a.graph == b.graph
        assert a.truth_entities == b.truth_entities

    def test_all_rules_catch_their_seeds(self):
        ds = yago_like.build(scale=80, seed=3)
        vio = det_vio(ds.gfds, ds.graph)
        fired = {v.gfd_name for v in vio}
        assert fired == {
            "phi1-flight", "phi2-capital", "gfd1-child-parent",
            "gfd3-mayor-party",
        }

    def test_perfect_accuracy_on_seeded_errors(self):
        ds = yago_like.build(scale=80, seed=3)
        detected = violation_entities(det_vio(ds.gfds, ds.graph))
        acc = accuracy(detected, ds.truth_entities)
        assert acc.precision == 1.0
        assert acc.recall == 1.0

    def test_clean_when_no_errors_seeded(self):
        ds = yago_like.build(
            scale=60, seed=4, flight_errors=0, capital_errors=0,
            family_errors=0, mayor_errors=0,
        )
        assert satisfies(ds.gfds, ds.graph)
        assert ds.truth_entities == set()

    def test_scale_controls_size(self):
        small = yago_like.build(scale=30, seed=1)
        large = yago_like.build(scale=120, seed=1)
        assert large.graph.num_nodes > small.graph.num_nodes


class TestDbpediaLike:
    def test_disjoint_type_errors_caught(self):
        ds = dbpedia_like.build(scale=120, seed=5)
        vio = det_vio(ds.gfds, ds.graph)
        assert vio
        detected = violation_entities(vio)
        acc = accuracy(detected, ds.truth_entities)
        assert acc.precision == 1.0 and acc.recall == 1.0

    def test_clean_without_seeded_errors(self):
        ds = dbpedia_like.build(scale=100, seed=5, type_errors=0)
        assert satisfies(ds.gfds, ds.graph)

    def test_ontology_structure(self):
        ds = dbpedia_like.build(scale=60, seed=6)
        graph = ds.graph
        assert graph.nodes_with_label("class")
        assert "subClassOf" in graph.edge_labels()
        assert "disjointWith" in graph.edge_labels()

    def test_entities_have_generator_attributes(self):
        ds = dbpedia_like.build(scale=40, seed=7)
        clean_entities = [
            node for node in ds.graph.nodes()
            if str(node).startswith("entity")
        ]
        assert clean_entities
        assert all(ds.graph.has_attr(n, "A0") for n in clean_entities)

    def test_entities_carry_typed_labels(self):
        ds = dbpedia_like.build(scale=60, seed=7)
        # The stand-in mirrors DBpedia's type diversity: several entity
        # labels, each with a non-trivial population.
        entity_labels = ds.graph.labels() - {"class"}
        assert len(entity_labels) >= 4


class TestPokecLike:
    def test_phi6_catches_unmarked_rings(self):
        ds = pokec_like.build(scale=150, seed=8)
        vio = det_vio(ds.gfds, ds.graph)
        assert vio
        detected = violation_entities(vio)
        acc = accuracy(detected, ds.truth_entities)
        assert acc.precision == 1.0 and acc.recall == 1.0

    def test_marked_rings_are_clean(self):
        ds = pokec_like.build(scale=100, seed=9, unmarked_rings=0)
        assert satisfies(ds.gfds, ds.graph)

    def test_violating_accounts_unmarked(self):
        ds = pokec_like.build(scale=100, seed=10)
        for violation in det_vio(ds.gfds, ds.graph):
            x = violation.match["x"]
            assert ds.graph.get_attr(x, "is_fake") == "false"

    def test_social_structure(self):
        ds = pokec_like.build(scale=100, seed=11)
        labels = ds.graph.edge_labels()
        assert {"friend", "post", "like"} <= labels
