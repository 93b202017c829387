"""Tests for incremental violation maintenance.

The governing invariant: after any update sequence, the maintained set
equals from-scratch ``detVio`` on the current graph.
"""

import random

import pytest

from repro.core import det_vio, parse_gfd
from repro.core.incremental import IncrementalValidator, apply_updates
from repro.graph import PropertyGraph, power_law_graph
from repro.core import generate_gfds

from oracle import oracle_det_vio


@pytest.fixture
def capital_world(phi2):
    graph = PropertyGraph()
    graph.add_node("au", "country", {"val": "Australia"})
    graph.add_node("c1", "city", {"val": "Canberra"})
    graph.add_node("c2", "city", {"val": "Melbourne"})
    graph.add_edge("au", "c1", "capital")
    return graph


class TestSingleUpdates:
    def test_initial_state_matches_detvio(self, capital_world, phi2):
        validator = IncrementalValidator([phi2], capital_world)
        assert validator.violations == det_vio([phi2], capital_world)

    def test_edge_insert_creates_violation(self, capital_world, phi2):
        validator = IncrementalValidator([phi2], capital_world)
        assert not validator.violations
        added = validator.add_edge("au", "c2", "capital")
        assert added
        assert validator.violations == det_vio([phi2], capital_world)

    def test_edge_delete_clears_violation(self, capital_world, phi2):
        validator = IncrementalValidator([phi2], capital_world)
        validator.add_edge("au", "c2", "capital")
        validator.remove_edge("au", "c2", "capital")
        assert validator.violations == set()

    def test_attr_update_flips_status(self, capital_world, phi2):
        validator = IncrementalValidator([phi2], capital_world)
        validator.add_edge("au", "c2", "capital")
        assert validator.violations
        # Renaming Melbourne to Canberra fixes the inconsistency.
        validator.set_attr("c2", "val", "Canberra")
        assert validator.violations == set()
        # And breaking it again restores the violations.
        validator.set_attr("c2", "val", "Sydney")
        assert validator.violations == det_vio([phi2], capital_world)

    def test_node_insert(self, capital_world, phi2):
        validator = IncrementalValidator([phi2], capital_world)
        validator.add_node("c3", "city", {"val": "Perth"})
        added = validator.add_edge("au", "c3", "capital")
        assert added
        assert validator.violations == det_vio([phi2], capital_world)

    def test_duplicate_names_rejected(self, capital_world, phi2):
        with pytest.raises(ValueError):
            IncrementalValidator([phi2, phi2], capital_world)


class TestDisconnectedPatterns:
    def test_cross_component_matches_maintained(self):
        """FD-style two-node patterns: updates anywhere can pair with
        far-away nodes."""
        graph = PropertyGraph()
        graph.add_node(0, "R", {"A": 1, "B": 1})
        graph.add_node(1, "R", {"A": 1, "B": 1})
        fd = parse_gfd("x:R; y:R", "x.A = y.A => x.B = y.B", name="fd")
        validator = IncrementalValidator([fd], graph)
        assert not validator.violations
        added = validator.set_attr(1, "B", 2)
        assert added
        assert validator.violations == det_vio([fd], graph)
        validator.set_attr(1, "B", 1)
        assert validator.violations == set()

    def test_new_node_joins_cross_matches(self):
        graph = PropertyGraph()
        graph.add_node(0, "R", {"A": 1, "B": 1})
        fd = parse_gfd("x:R; y:R", "x.A = y.A => x.B = y.B", name="fd")
        validator = IncrementalValidator([fd], graph)
        validator.add_node(1, "R", {"A": 1, "B": 9})
        assert validator.violations == det_vio([fd], graph)
        assert len(validator.violations) == 2  # both orientations


#: from-scratch re-validations the maintained set is held to: the
#: product matcher on the graph's own delta-patched snapshot, the product
#: matcher on a freshly built snapshot of a copy, and the dict-of-dicts
#: reference matcher in ``tests/oracle``
SCRATCH = {
    "auto": lambda sigma, graph: det_vio(sigma, graph),
    "snapshot": lambda sigma, graph: det_vio(sigma, graph.copy()),
    "legacy": oracle_det_vio,
}


class TestRandomisedEquivalence:
    @pytest.mark.parametrize("reference", ["auto", "legacy", "snapshot"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_stream_matches_scratch(self, seed, reference):
        scratch = SCRATCH[reference]
        rng = random.Random(seed)
        graph = power_law_graph(120, 300, seed=seed, domain_size=5)
        sigma = generate_gfds(graph, count=3, pattern_edges=2, seed=seed)
        validator = IncrementalValidator(sigma, graph)
        assert validator.violations == scratch(sigma, graph)
        nodes = list(graph.nodes())
        edge_labels = sorted(graph.edge_labels())
        for step in range(15):
            kind = rng.choice(["attr", "edge+", "edge-"])
            if kind == "attr":
                node = rng.choice(nodes)
                attr = rng.choice(["A0", "A1", "A2"])
                validator.set_attr(node, attr, f"v{rng.randrange(5)}")
            elif kind == "edge+":
                src, dst = rng.sample(nodes, 2)
                validator.add_edge(src, dst, rng.choice(edge_labels))
            else:
                edges = list(graph.edges())
                if not edges:
                    continue
                validator.remove_edge(*rng.choice(edges))
            assert validator.violations == scratch(sigma, graph), (
                f"diverged at step {step} ({kind})"
            )

    def test_batch_api(self):
        graph = PropertyGraph()
        graph.add_node("au", "country", {"val": "Australia"})
        graph.add_node("c1", "city", {"val": "Canberra"})
        graph.add_edge("au", "c1", "capital")
        phi2 = parse_gfd(
            "x:country -capital-> y:city; x -capital-> z:city",
            " => y.val = z.val", name="phi2",
        )
        validator = IncrementalValidator([phi2], graph)
        added = apply_updates(validator, [
            ("node", "c2", "city", {"val": "Melbourne"}),
            ("edge+", "au", "c2", "capital"),
        ])
        assert added
        assert validator.violations == det_vio([phi2], graph)

    def test_unknown_update_kind(self, capital_world, phi2):
        validator = IncrementalValidator([phi2], capital_world)
        with pytest.raises(ValueError):
            apply_updates(validator, [("wat",)])
