"""Property/invariant tests for :class:`GraphSnapshot` itself: round-trip
fidelity, label-index consistency, pair-index completeness/soundness,
histogram correctness, and the caching/invalidation contract of
``PropertyGraph.snapshot()``."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.graph import (
    GraphSnapshot,
    PropertyGraph,
    graph_from_edges,
    power_law_graph,
)
from repro.graph.snapshot import ABSENT_CODE, WILD_CODE
from repro.matching import compute_candidates

from oracle import oracle_candidates

SEEDS = (0, 1, 2, 7)


def generated(seed: int) -> PropertyGraph:
    return power_law_graph(
        num_nodes=80 + 20 * seed,
        num_edges=200 + 40 * seed,
        node_labels=tuple(f"L{i}" for i in range(8)),
        edge_labels=tuple(f"e{i}" for i in range(4)),
        domain_size=10,
        seed=seed,
    )


class TestRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_nodes_edges_labels(self, seed):
        graph = generated(seed)
        snap = GraphSnapshot(graph)
        assert set(snap.nodes()) == set(graph.nodes())
        assert len(snap) == graph.num_nodes
        assert snap.num_nodes == graph.num_nodes
        assert snap.num_edges == graph.num_edges
        assert snap.size == graph.size
        assert sorted(snap.edges()) == sorted(graph.edges())
        for node in graph.nodes():
            assert snap.label(node) == graph.label(node)
        assert snap.labels() == graph.labels()
        assert snap.edge_labels() == graph.edge_labels()

    def test_empty_graph(self):
        snap = GraphSnapshot(PropertyGraph())
        assert snap.num_nodes == 0
        assert snap.num_edges == 0
        assert list(snap.edges()) == []
        assert snap.nodes_with_label("anything") == set()

    def test_index_bijection(self):
        graph = generated(0)
        snap = GraphSnapshot(graph)
        for node in graph.nodes():
            assert snap.node_of(snap.index_of(node)) == node
        assert snap.index_of("not-a-node") is None


class TestLabelIndex:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_nodes_with_label_parity(self, seed):
        graph = generated(seed)
        snap = GraphSnapshot(graph)
        for label in graph.labels():
            assert snap.nodes_with_label(label) == graph.nodes_with_label(label)
        assert snap.nodes_with_label("L-missing") == set()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_partition_of_nodes(self, seed):
        """nodes_by_label partitions the index space."""
        snap = GraphSnapshot(generated(seed))
        seen = set()
        for members in snap.nodes_by_label.values():
            assert not (seen & members)
            seen |= members
        assert seen == set(range(snap.num_nodes))


class TestPairIndex:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_completeness(self, seed):
        """Every edge is findable through its label triple."""
        graph = generated(seed)
        snap = GraphSnapshot(graph)
        for src, dst, elabel in graph.edges():
            sources, targets = snap.pair_nodes(
                graph.label(src), elabel, graph.label(dst)
            )
            assert src in sources
            assert dst in targets

    @pytest.mark.parametrize("seed", SEEDS)
    def test_soundness(self, seed):
        """Every indexed node really participates in such an edge."""
        graph = generated(seed)
        snap = GraphSnapshot(graph)
        names = snap.node_label_names
        elabels = snap.edge_label_names
        for (_src_lab, elab, dst_lab), members in snap.pair_src.items():
            for src_idx in members:
                src = snap.node_of(src_idx)
                assert any(
                    label == elabels[elab] and graph.label(dst) == names[dst_lab]
                    for dst, labels in graph.out_neighbors(src).items()
                    for label in labels
                )
        for (src_lab, elab, _dst_lab), members in snap.pair_dst.items():
            for dst_idx in members:
                dst = snap.node_of(dst_idx)
                assert any(
                    label == elabels[elab] and graph.label(src) == names[src_lab]
                    for src, labels in graph.in_neighbors(dst).items()
                    for label in labels
                )


class TestHistogramsAndAdjacency:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_histograms_match_recount(self, seed):
        graph = generated(seed)
        snap = GraphSnapshot(graph)
        for node in graph.nodes():
            out_count = Counter(
                label
                for labels in graph.out_neighbors(node).values()
                for label in labels
            )
            in_count = Counter(
                label
                for labels in graph.in_neighbors(node).values()
                for label in labels
            )
            assert snap.neighbor_label_counts(node, out=True) == dict(out_count)
            assert snap.neighbor_label_counts(node, out=False) == dict(in_count)
            assert snap.out_degree(node) == graph.out_degree(node)
            assert snap.in_degree(node) == graph.in_degree(node)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_pools_match_adjacency(self, seed):
        graph = generated(seed)
        snap = GraphSnapshot(graph)
        for node in graph.nodes():
            idx = snap.index_of(node)
            expected_out = {snap.index_of(n) for n in graph.out_neighbors(node)}
            assert set(snap.out_pool(idx, WILD_CODE)) == expected_out
            assert set(snap.in_pool(idx, WILD_CODE)) == {
                snap.index_of(n) for n in graph.in_neighbors(node)
            }
            for elabel in graph.edge_labels():
                code = snap.edge_label_code(elabel)
                expected = {
                    snap.index_of(nbr)
                    for nbr, labels in graph.out_neighbors(node).items()
                    if elabel in labels
                }
                assert set(snap.out_pool(idx, code)) == expected
            assert snap.out_pool(idx, ABSENT_CODE) == ()

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_has_edge_parity(self, seed):
        graph = generated(seed)
        snap = GraphSnapshot(graph)
        rng = random.Random(seed)
        nodes = list(graph.nodes())
        probes = [(s, d, l) for s, d, l in graph.edges()][:50]
        probes += [
            (rng.choice(nodes), rng.choice(nodes), rng.choice(["e0", "e9"]))
            for _ in range(100)
        ]
        for src, dst, label in probes:
            assert snap.has_edge(src, dst, label) == graph.has_edge(src, dst, label)
            assert snap.has_edge(src, dst) == graph.has_edge(src, dst)
        assert not snap.has_edge("ghost", nodes[0])

    def test_has_edge_wildcard_label_is_literal(self):
        """'_' as a has_edge argument names a '_'-labelled data edge,
        exactly as on PropertyGraph — not the pattern wildcard."""
        graph = graph_from_edges([("a", "x", "b")], default_label="n")
        snap = graph.snapshot()
        assert not snap.has_edge("a", "b", "_")
        assert snap.has_edge("a", "b", "_") == graph.has_edge("a", "b", "_")
        graph.add_edge("a", "b")  # default label is the literal "_"
        snap = graph.snapshot()
        assert snap.has_edge("a", "b", "_")
        assert snap.has_edge("a", "b", "x")


class TestCandidatesOverSnapshot:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_candidates_subset_of_legacy(self, seed):
        from repro.core import generate_gfds

        graph = generated(seed)
        snap = graph.snapshot()
        for gfd in generate_gfds(graph, count=4, pattern_edges=2, seed=seed):
            legacy = oracle_candidates(gfd.pattern, graph)
            indexed = compute_candidates(gfd.pattern, snap)
            assert set(legacy) == set(indexed)
            for var in legacy:
                assert indexed[var] <= legacy[var]


class TestCachingContract:
    def test_snapshot_is_cached(self):
        graph = generated(0)
        assert graph.snapshot() is graph.snapshot()

    def test_structural_mutations_refresh_content(self):
        """Structural mutations must be visible in the next snapshot().

        Since the session layer the cached snapshot is *delta-patched in
        place* (a live view of the graph, same contract as holding the
        graph itself) rather than rebuilt, so the returned object may be
        identical — content freshness is the contract, not identity.
        """
        graph = graph_from_edges(
            [("a", "knows", "b"), ("b", "knows", "c")],
            node_labels={"a": "person", "b": "person", "c": "person"},
        )
        graph.snapshot()  # warm the cache pre-mutation
        graph.add_edge("a", "c", "knows")
        fresh = graph.snapshot()
        assert fresh.has_edge("a", "c", "knows")
        assert fresh.num_edges == graph.num_edges

        graph.remove_edge("a", "c", "knows")
        assert not graph.snapshot().has_edge("a", "c", "knows")

        graph.add_node("d", "robot")
        assert "d" in graph.snapshot()

        graph.remove_node("d")
        assert "d" not in graph.snapshot()

        graph.add_node("a", "robot")  # label change
        assert graph.snapshot().label("a") == "robot"
        assert graph.snapshot().nodes_with_label("robot") == {"a"}

    def test_small_deltas_patch_the_cached_snapshot_in_place(self):
        """A handful of updates is absorbed by apply_delta, not a rebuild."""
        graph = generated(0)
        snap = graph.snapshot()
        nodes = list(graph.nodes())
        graph.add_edge(nodes[0], nodes[1], "e-fresh")
        assert graph.snapshot() is snap  # patched, same object
        assert snap.has_edge(nodes[0], nodes[1], "e-fresh")

    def test_large_deltas_fall_back_to_rebuild(self):
        graph = generated(0)
        snap = graph.snapshot()
        for i in range(graph.size):  # far past the delta budget
            graph.add_node(f"fresh{i}", "L0")
        assert graph.snapshot() is not snap
        assert f"fresh{0}" in graph.snapshot()

    def test_attr_updates_do_not_invalidate(self):
        """Snapshots index structure only; literal values live on the graph."""
        graph = generated(1)
        snap = graph.snapshot()
        node = next(graph.nodes())
        graph.set_attr(node, "A0", "new-value")
        assert graph.snapshot() is snap

    def test_noop_mutations_do_not_invalidate(self):
        graph = graph_from_edges([("a", "knows", "b")], default_label="person")
        snap = graph.snapshot()
        graph.add_edge("a", "b", "knows")  # duplicate edge: no-op
        assert graph.snapshot() is snap
        graph.add_node("a", "person")  # same label: structure unchanged
        assert graph.snapshot() is snap


class TestPickling:
    """Snapshots ship to worker processes: round-trip + payload guards."""

    DERIVED = (
        "index",
        "node_label_ids",
        "edge_label_ids",
        "nodes_by_label",
        "out_slices",
        "out_uniq",
        "out_hist",
        "in_slices",
        "in_uniq",
        "in_hist",
        "edge_set",
        "adj_set",
        "pair_src",
        "pair_dst",
        "num_edges",
    )
    ARRAYS = ("label_codes", "out_offsets", "out_nbrs", "out_labs",
              "out_deg", "in_offsets", "in_nbrs", "in_labs", "in_deg")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_getstate_setstate_round_trip(self, seed):
        import pickle

        graph = generated(seed)
        snap = GraphSnapshot(graph)
        restored = pickle.loads(pickle.dumps(snap))
        # Primary state survives verbatim.
        assert restored.node_ids == snap.node_ids
        assert restored.node_label_names == snap.node_label_names
        assert restored.edge_label_names == snap.edge_label_names
        for name in self.ARRAYS:
            assert getattr(restored, name) == getattr(snap, name), name
        # Every derived index is rebuilt identically from the CSR.
        for name in self.DERIVED:
            assert getattr(restored, name) == getattr(snap, name), name

    def test_round_trip_preserves_matching(self):
        from repro.core import generate_gfds
        from repro.matching import SubgraphMatcher
        import pickle

        graph = generated(2)
        sigma = generate_gfds(graph, count=3, pattern_edges=2, seed=2)
        snap = GraphSnapshot(graph)
        restored = pickle.loads(pickle.dumps(snap))
        for gfd in sigma:
            original = SubgraphMatcher(gfd.pattern, snap)
            recovered = SubgraphMatcher(gfd.pattern, restored)
            def key(m):
                return sorted(m.items(), key=repr)
            assert sorted(map(key, original.matches())) == (
                sorted(map(key, recovered.matches()))
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pickled_size_within_3x_of_memory_estimate(self, seed):
        """Guard: shipping a snapshot never costs wildly more than holding
        it — the wire format (primary CSR state only) must stay within 3x
        of the byte estimate backing the LRU budget's size accounting."""
        import pickle

        snap = GraphSnapshot(generated(seed))
        pickled = len(pickle.dumps(snap))
        assert snap.memory_estimate() > 0
        assert pickled <= 3 * snap.memory_estimate(), (
            f"pickled {pickled}B vs estimate {snap.memory_estimate()}B"
        )

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_pickled_size_guard_survives_heavy_deltas(self, seed):
        """The 3x guard must also hold on a snapshot grown by in-place
        ``apply_delta`` patching — heavy edge/attr churn inflates the
        pair index and leaves slack rows behind, and the estimate has to
        keep tracking that, not just the freshly-built layout."""
        import pickle

        rng = random.Random(seed)
        graph = generated(seed)
        snap = graph.snapshot()
        nodes = sorted(graph.nodes())
        for round_no in range(8):
            for _ in range(10):
                src, dst = rng.choice(nodes), rng.choice(nodes)
                graph.add_edge(src, dst, f"e{rng.randrange(4)}")
            for _ in range(10):
                graph.set_attr(
                    rng.choice(nodes), "A0", f"w{rng.randrange(6)}"
                )
            for i in range(3):
                name = f"extra-{round_no}-{i}"
                graph.add_node(name, f"L{rng.randrange(8)}")
                graph.add_edge(name, rng.choice(nodes), "e0")
                nodes.append(name)
            snap = graph.snapshot()  # patched in place while in budget
        pickled = len(pickle.dumps(snap))
        assert pickled <= 3 * snap.memory_estimate(), (
            f"post-delta pickled {pickled}B vs estimate "
            f"{snap.memory_estimate()}B"
        )

    def test_graph_pickle_drops_snapshot_cache(self):
        import pickle

        graph = generated(1)
        cold = len(pickle.dumps(graph))
        snap = graph.snapshot()  # warm the cache
        warm = len(pickle.dumps(graph))
        assert warm == cold  # the cached index never rides along
        restored = pickle.loads(pickle.dumps(graph))
        assert restored == graph
        assert restored._snapshot_cache is None
        # A restored graph rebuilds an equivalent snapshot on demand.
        assert restored.snapshot().edge_set == snap.edge_set
