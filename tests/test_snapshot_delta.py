"""Differential suite for :meth:`GraphSnapshot.apply_delta`.

Two pins, applied after every update of randomized op sequences:

1. **Semantic equality with a full rebuild** — the delta-applied snapshot
   answers every public query (nodes, labels, edges, pools, histograms,
   degrees, pair index, label index) identically to ``GraphSnapshot``
   built from scratch over the mutated graph.  Interned *codes* may
   legitimately differ (a delta never renumbers surviving labels), so the
   comparison runs in original-id / label-name space.
2. **Derived-index exactness** — every derived structure of the patched
   snapshot is byte-equal to what ``_derive_indices`` produces from the
   patched primary CSR state (via a pickle round-trip, which re-derives).
   This catches any drift between the surgical per-op maintenance and the
   one-shot derivation they must agree with.

Plus the acceptance pin for the session layer: an
:class:`IncrementalValidator` maintains violation sets identical to
from-scratch re-validation by the dict-of-dicts reference matcher in
``tests/oracle`` after every update.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core import generate_gfds
from repro.core.incremental import IncrementalValidator
from repro.graph import GraphSnapshot, PropertyGraph, power_law_graph
from repro.graph.snapshot import WILD_CODE
from repro.graph.updates import apply_op
from repro.matching import SubgraphMatcher

from oracle import oracle_det_vio, oracle_matches

#: every derived (non-pickled) structure of a snapshot
DERIVED = (
    "index",
    "node_label_ids",
    "edge_label_ids",
    "nodes_by_label",
    "out_slices",
    "out_uniq",
    "out_hist",
    "out_deg",
    "in_slices",
    "in_uniq",
    "in_hist",
    "in_deg",
    "edge_set",
    "adj_set",
    "pair_src",
    "pair_dst",
    "num_edges",
)


def generated(seed: int) -> PropertyGraph:
    return power_law_graph(
        num_nodes=70 + 15 * seed,
        num_edges=180 + 30 * seed,
        node_labels=tuple(f"L{i}" for i in range(6)),
        edge_labels=tuple(f"e{i}" for i in range(4)),
        domain_size=8,
        seed=seed,
    )


def by_repr(items):
    return sorted(items, key=repr)


def fingerprint(snap: GraphSnapshot) -> dict:
    """Everything a snapshot knows, in original-id / label-name space."""
    nodes = list(snap.nodes())
    out = {
        "nodes": nodes,  # order matters: delta and rebuild must agree
        "labels": {n: snap.label(n) for n in nodes},
        "edges": by_repr(snap.edges()),
        "num_edges": snap.num_edges,
        "size": snap.size,
        "node_labels": sorted(snap.labels()),
        "edge_labels": sorted(snap.edge_labels()),
        "by_label": {
            label: by_repr(snap.nodes_with_label(label))
            for label in snap.labels()
        },
        "degrees": {
            n: (snap.out_degree(n), snap.in_degree(n)) for n in nodes
        },
        "hists": {
            n: (
                snap.neighbor_label_counts(n, out=True),
                snap.neighbor_label_counts(n, out=False),
            )
            for n in nodes
        },
    }
    pools = {}
    for n in nodes:
        idx = snap.index_of(n)
        pools[(n, None)] = (
            by_repr(snap.node_of(i) for i in snap.out_pool(idx, WILD_CODE)),
            by_repr(snap.node_of(i) for i in snap.in_pool(idx, WILD_CODE)),
        )
        for elabel in snap.edge_labels():
            code = snap.edge_label_code(elabel)
            pools[(n, elabel)] = (
                by_repr(snap.node_of(i) for i in snap.out_pool(idx, code)),
                by_repr(snap.node_of(i) for i in snap.in_pool(idx, code)),
            )
    out["pools"] = pools
    # The raw pair tables (not just triples of current edges) so *stale*
    # entries a buggy delta left behind are caught too.
    for attr in ("pair_src", "pair_dst"):
        table = {}
        for (sl, el, dl), members in getattr(snap, attr).items():
            key = (
                snap.node_label_names[sl],
                snap.edge_label_names[el],
                snap.node_label_names[dl],
            )
            table[key] = by_repr(snap.node_of(i) for i in members)
        out[attr] = table
    out["edge_set"] = by_repr(
        (snap.node_of(s), snap.node_of(d), snap.edge_label_names[c])
        for s, d, c in snap.edge_set
    )
    out["adj_set"] = by_repr(
        (snap.node_of(s), snap.node_of(d)) for s, d in snap.adj_set
    )
    return out


def assert_delta_snapshot_exact(graph: PropertyGraph) -> None:
    """The two pins: vs. full rebuild, and vs. re-derivation."""
    snap = graph.snapshot()  # delta-applied (or rebuilt — both must hold)
    rebuilt = GraphSnapshot(graph)
    assert snap.node_ids == rebuilt.node_ids
    assert fingerprint(snap) == fingerprint(rebuilt)
    rederived = pickle.loads(pickle.dumps(snap))
    for name in DERIVED:
        assert getattr(snap, name) == getattr(rederived, name), name


def random_op(rng: random.Random, graph: PropertyGraph, labels, elabels):
    """Apply one random structural/attribute update; returns its kind."""
    nodes = list(graph.nodes())
    kind = rng.choice(
        ["edge+", "edge+", "edge-", "edge-", "node+", "node-", "relabel",
         "attr"]
    )
    if kind == "edge+" and len(nodes) >= 2:
        src, dst = rng.sample(nodes, 2)
        if rng.random() < 0.1:
            dst = src  # self loop
        graph.add_edge(src, dst, rng.choice(elabels))
    elif kind == "edge-":
        edges = list(graph.edges())
        if edges:
            graph.remove_edge(*rng.choice(edges))
    elif kind == "node+":
        node = f"fresh-{rng.randrange(10**9)}"
        graph.add_node(node, rng.choice(labels + ("Lnew",)))
        if nodes and rng.random() < 0.8:
            graph.add_edge(node, rng.choice(nodes), rng.choice(elabels))
    elif kind == "node-" and nodes:
        graph.remove_node(rng.choice(nodes))
    elif kind == "relabel" and nodes:
        graph.add_node(rng.choice(nodes), rng.choice(labels + ("Lre",)))
    elif nodes:
        graph.set_attr(rng.choice(nodes), "A0", f"v{rng.randrange(5)}")
    return kind


class TestRandomisedDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_op_sequence_stays_exact(self, seed):
        rng = random.Random(seed)
        graph = generated(seed)
        labels = tuple(f"L{i}" for i in range(6))
        elabels = tuple(f"e{i}" for i in range(4)) + ("e-new",)
        graph.snapshot()  # warm the cache so deltas are exercised
        for _step in range(40):
            random_op(rng, graph, labels, elabels)
            assert_delta_snapshot_exact(graph)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_batched_ops_stay_exact(self, seed):
        """Several ops per snapshot() call — the delta log replays them."""
        rng = random.Random(100 + seed)
        graph = generated(seed)
        labels = tuple(f"L{i}" for i in range(6))
        elabels = tuple(f"e{i}" for i in range(4))
        graph.snapshot()
        for _ in range(8):
            for _ in range(5):
                random_op(rng, graph, labels, elabels)
            assert_delta_snapshot_exact(graph)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_matching_after_deltas(self, seed):
        """End-to-end: the patched index enumerates the same matches as
        the dict-of-dicts oracle over the mutated graph."""
        rng = random.Random(7 + seed)
        graph = generated(seed)
        sigma = generate_gfds(graph, count=3, pattern_edges=2, seed=seed)
        labels = tuple(f"L{i}" for i in range(6))
        elabels = tuple(f"e{i}" for i in range(4))
        graph.snapshot()
        for _ in range(12):
            random_op(rng, graph, labels, elabels)
        snap = graph.snapshot()
        def key(m):
            return sorted(m.items(), key=repr)
        for gfd in sigma:
            indexed = SubgraphMatcher(gfd.pattern, snap)
            assert sorted(map(key, indexed.matches())) == sorted(
                map(key, oracle_matches(gfd.pattern, graph))
            )


class TestTargetedDeltas:
    """Hand-picked corners the randomized sweep may visit rarely."""

    def _world(self):
        graph = PropertyGraph()
        graph.add_node("a", "person")
        graph.add_node("b", "person")
        graph.add_node("c", "city")
        graph.add_edge("a", "b", "knows")
        graph.add_edge("a", "c", "lives_in")
        graph.snapshot()
        return graph

    def test_new_edge_label(self):
        graph = self._world()
        graph.add_edge("b", "c", "visits")  # label unseen at build time
        assert_delta_snapshot_exact(graph)

    def test_self_loop_insert_and_relabel(self):
        graph = self._world()
        graph.add_edge("a", "a", "knows")
        assert_delta_snapshot_exact(graph)
        graph.add_node("a", "robot")  # relabel with a live self loop
        assert_delta_snapshot_exact(graph)
        graph.remove_edge("a", "a", "knows")
        assert_delta_snapshot_exact(graph)

    def test_removing_last_node_of_a_label(self):
        graph = self._world()
        graph.remove_node("c")  # the only "city"
        assert_delta_snapshot_exact(graph)
        assert graph.snapshot().nodes_with_label("city") == set()

    def test_node_readded_after_removal(self):
        graph = self._world()
        graph.remove_node("b")
        assert_delta_snapshot_exact(graph)
        graph.add_node("b", "city")
        graph.add_edge("b", "c", "twin")
        assert_delta_snapshot_exact(graph)

    def test_parallel_edges_with_distinct_labels(self):
        graph = self._world()
        graph.add_edge("a", "b", "likes")
        assert_delta_snapshot_exact(graph)
        graph.remove_edge("a", "b", "knows")  # adjacency must survive
        assert_delta_snapshot_exact(graph)
        snap = graph.snapshot()
        assert snap.has_edge("a", "b")
        assert not snap.has_edge("a", "b", "knows")

    def test_attr_ops_are_structure_neutral(self):
        graph = self._world()
        snap = graph.snapshot()
        graph.set_attr("a", "age", 30)
        assert graph.snapshot() is snap
        assert_delta_snapshot_exact(graph)

    def test_direct_node_removal_delta(self):
        """apply_delta's node- path, driven directly — the graph-level
        recorder prefers a full rebuild for removals (compaction costs a
        re-derive anyway), so this is the API-level coverage."""
        graph = self._world()
        snap = pickle.loads(pickle.dumps(graph.snapshot()))  # private copy
        graph.remove_node("b")
        snap.apply_delta([("edge-", "a", "b", "knows"), ("node-", "b")])
        rebuilt = GraphSnapshot(graph)
        assert snap.node_ids == rebuilt.node_ids
        assert fingerprint(snap) == fingerprint(rebuilt)

    def test_node_removal_through_graph_falls_back_to_rebuild(self):
        """remove_node drops the cached snapshot rather than queueing an
        op whose replay costs as much as a rebuild."""
        graph = self._world()
        snap = graph.snapshot()
        graph.remove_node("b")
        fresh = graph.snapshot()
        assert fresh is not snap
        assert "b" not in fresh
        assert_delta_snapshot_exact(graph)

    def test_apply_delta_rejects_garbage(self):
        graph = self._world()
        snap = graph.snapshot()
        with pytest.raises(ValueError):
            snap.apply_delta([("wat",)])
        with pytest.raises(ValueError):
            snap.apply_delta([("edge+", "a", "ghost", "knows")])
        with pytest.raises(ValueError):
            snap.apply_delta([("node-", "a")])  # incident edges present


class TestIncrementalValidatorBackends:
    """Acceptance pin: the incremental validator (matching on the
    delta-maintained snapshot) maintains violation sets identical to a
    from-scratch oracle re-validation after every update — both of its
    own graph and of a mirror that only ``apply_op`` ever mutated."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_snapshot_vs_legacy_update_stream(self, seed):
        rng = random.Random(seed)
        graph = power_law_graph(110, 280, seed=seed, domain_size=5)
        mirror = graph.copy()
        sigma = generate_gfds(graph, count=3, pattern_edges=2, seed=seed)
        indexed = IncrementalValidator(sigma, graph)
        assert indexed.violations == oracle_det_vio(sigma, mirror)
        nodes = list(graph.nodes())
        elabels = sorted(graph.edge_labels())
        for step in range(12):
            kind = rng.choice(["attr", "edge+", "edge-", "node"])
            if kind == "attr":
                node = rng.choice(nodes)
                attr, value = rng.choice(["A0", "A1"]), f"v{rng.randrange(5)}"
                indexed.set_attr(node, attr, value)
                apply_op(mirror, ("attr", node, attr, value))
            elif kind == "edge+":
                src, dst = rng.sample(nodes, 2)
                label = rng.choice(elabels)
                indexed.add_edge(src, dst, label)
                apply_op(mirror, ("edge+", src, dst, label))
            elif kind == "edge-":
                edges = list(graph.edges())
                if not edges:
                    continue
                edge = rng.choice(edges)
                indexed.remove_edge(*edge)
                apply_op(mirror, ("edge-", *edge))
            else:
                node = f"n{step}"
                indexed.add_node(node, "L0", {"A0": "v0"})
                apply_op(mirror, ("node", node, "L0", {"A0": "v0"}))
                nodes.append(node)
            assert indexed.violations == oracle_det_vio(
                sigma, mirror
            ), f"step {step}"
            assert indexed.violations == oracle_det_vio(
                sigma, graph
            ), f"step {step}: diverged from full oracle re-validation"
