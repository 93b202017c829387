"""Property graphs ``G = (V, E, L, F_A)`` (Section 2 of the paper).

A :class:`PropertyGraph` is a directed graph whose nodes and edges carry
string labels and whose nodes carry an attribute tuple ``F_A(v) =
(A1 = a1, ..., An = an)``.  This is the data model every other part of the
library operates on: patterns are matched against it, GFDs are validated
over it, and fragments of it are shipped between (simulated) processors.

The implementation is deliberately plain — dict-of-dicts adjacency with a
label index — because the reproduction band for this paper flags networkx
as too slow for the graph sizes the benchmarks sweep.  All hot-path
operations (neighbour iteration, label lookup, edge membership) are O(1)
amortised.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

NodeId = Hashable
Edge = Tuple[NodeId, NodeId, str]

#: Wildcard label; matches any node or edge label during pattern matching.
WILDCARD = "_"


class GraphError(Exception):
    """Raised on structurally invalid graph operations."""


class PropertyGraph:
    """A directed graph with labelled nodes/edges and node attributes.

    Nodes are arbitrary hashable identifiers.  Each node has exactly one
    label (a string); parallel edges with distinct labels are allowed,
    parallel edges with the same label are not (the edge set is a set).

    Example::

        g = PropertyGraph()
        g.add_node(1, "flight", {"number": "DL1", "from": "Paris"})
        g.add_node(2, "city", {"val": "NYC"})
        g.add_edge(1, 2, "to")
    """

    __slots__ = (
        "_labels",
        "_attrs",
        "_out",
        "_in",
        "_label_index",
        "_num_edges",
        "_version",
        "_snapshot_cache",
        "_snapshot_version",
        "_snapshot_delta",
    )

    def __init__(self) -> None:
        # node -> label
        self._labels: Dict[NodeId, str] = {}
        # node -> {attr: value}
        self._attrs: Dict[NodeId, Dict[str, Any]] = {}
        # node -> {neighbour: set(edge labels)}
        self._out: Dict[NodeId, Dict[NodeId, Set[str]]] = {}
        self._in: Dict[NodeId, Dict[NodeId, Set[str]]] = {}
        # label -> set of nodes
        self._label_index: Dict[str, Set[NodeId]] = {}
        self._num_edges = 0
        # structural version: bumped on node/edge/label mutation so cached
        # snapshots know when they are stale (attribute edits don't count —
        # snapshots index structure only, see graph/snapshot.py).
        self._version = 0
        self._snapshot_cache: Optional["GraphSnapshot"] = None
        self._snapshot_version = -1
        # structural ops since the cached snapshot was current; replayed
        # through GraphSnapshot.apply_delta on the next snapshot() call.
        # None = tracking abandoned (delta outgrew the graph): rebuild.
        self._snapshot_delta: Optional[List[Tuple]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node: NodeId,
        label: str,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> NodeId:
        """Add ``node`` with ``label`` and optional attribute dict.

        Re-adding an existing node updates its label/attributes.
        """
        old_label = self._labels.get(node)
        if old_label is not None and old_label != label:
            self._label_index[old_label].discard(node)
            self._record_delta(("relabel", node, label))
        if old_label is None or old_label != label:
            self._version += 1
        if old_label is None:
            self._record_delta(("node+", node, label))
            self._out[node] = {}
            self._in[node] = {}
            self._attrs[node] = {}
        self._labels[node] = label
        self._label_index.setdefault(label, set()).add(node)
        if attrs:
            self._attrs[node].update(attrs)
        return node

    def add_edge(self, src: NodeId, dst: NodeId, label: str = WILDCARD) -> None:
        """Add a directed edge ``src -[label]-> dst``.

        Both endpoints must already exist.  Adding the same edge twice is a
        no-op.
        """
        if src not in self._labels:
            raise GraphError(f"unknown source node {src!r}")
        if dst not in self._labels:
            raise GraphError(f"unknown destination node {dst!r}")
        labels = self._out[src].setdefault(dst, set())
        if label in labels:
            return
        labels.add(label)
        self._in[dst].setdefault(src, set()).add(label)
        self._num_edges += 1
        self._version += 1
        self._record_delta(("edge+", src, dst, label))

    def remove_edge(self, src: NodeId, dst: NodeId, label: str) -> None:
        """Remove the edge ``src -[label]-> dst``; raise if absent."""
        try:
            labels = self._out[src][dst]
            labels.remove(label)
        except KeyError:
            raise GraphError(f"no edge {src!r} -[{label}]-> {dst!r}") from None
        if not labels:
            del self._out[src][dst]
        in_labels = self._in[dst][src]
        in_labels.discard(label)
        if not in_labels:
            del self._in[dst][src]
        self._num_edges -= 1
        self._version += 1
        self._record_delta(("edge-", src, dst, label))

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._labels:
            raise GraphError(f"unknown node {node!r}")
        for dst in list(self._out[node]):
            for label in list(self._out[node][dst]):
                self.remove_edge(node, dst, label)
        for src in list(self._in[node]):
            for label in list(self._in[node][src]):
                self.remove_edge(src, node, label)
        self._label_index[self._labels[node]].discard(node)
        del self._labels[node]
        del self._attrs[node]
        del self._out[node]
        del self._in[node]
        self._version += 1
        self._record_delta(("node-", node))

    def _record_delta(self, op: Tuple) -> None:
        """Track a structural op for snapshot delta maintenance.

        Recording only happens while a cached snapshot exists.  Node
        *removals* drop the cache outright: compacting the snapshot's
        interned index space costs a full re-derive per op, so a rebuild
        is never worse than replaying them.  And once the pending delta
        outgrows the budget — capped at a constant because each edge op
        also pays an ``O(|V|)`` offset shift — replaying would cost more
        than rebuilding, so tracking is abandoned (the next
        ``snapshot()`` call rebuilds from scratch).
        """
        if self._snapshot_cache is None or self._snapshot_delta is None:
            return
        if op[0] == "node-":
            self._snapshot_delta = None
            self._snapshot_cache = None
            return
        self._snapshot_delta.append(op)
        if len(self._snapshot_delta) > max(16, min(256, self.size // 8)):
            self._snapshot_delta = None
            self._snapshot_cache = None

    # ------------------------------------------------------------------
    # attributes
    # ------------------------------------------------------------------
    def set_attr(self, node: NodeId, attr: str, value: Any) -> None:
        """Set attribute ``attr`` of ``node`` to ``value``."""
        if node not in self._labels:
            raise GraphError(f"unknown node {node!r}")
        self._attrs[node][attr] = value

    def get_attr(self, node: NodeId, attr: str, default: Any = None) -> Any:
        """Return attribute ``attr`` of ``node``, or ``default`` if absent."""
        return self._attrs[node].get(attr, default)

    def has_attr(self, node: NodeId, attr: str) -> bool:
        """Whether ``node`` carries attribute ``attr``."""
        return attr in self._attrs[node]

    def attrs(self, node: NodeId) -> Dict[str, Any]:
        """The attribute dict of ``node`` (live view; do not mutate)."""
        return self._attrs[node]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of labelled edges ``|E|``."""
        return self._num_edges

    @property
    def size(self) -> int:
        """``|V| + |E|`` — the size measure the paper uses for data blocks."""
        return len(self._labels) + self._num_edges

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node identifiers."""
        return iter(self._labels)

    def edges(self) -> Iterator[Edge]:
        """Iterate over ``(src, dst, label)`` triples."""
        for src, nbrs in self._out.items():
            for dst, labels in nbrs.items():
                for label in labels:
                    yield (src, dst, label)

    def label(self, node: NodeId) -> str:
        """The label of ``node``."""
        return self._labels[node]

    def labels(self) -> Set[str]:
        """The set of node labels present in the graph."""
        return {label for label, nodes in self._label_index.items() if nodes}

    def nodes_with_label(self, label: str) -> Set[NodeId]:
        """All nodes carrying ``label`` (empty set if none)."""
        return self._label_index.get(label, set())

    def has_edge(self, src: NodeId, dst: NodeId, label: Optional[str] = None) -> bool:
        """Whether edge ``src -> dst`` exists (with ``label`` if given)."""
        labels = self._out.get(src, {}).get(dst)
        if labels is None:
            return False
        if label is None:
            return True
        return label in labels

    def out_neighbors(self, node: NodeId) -> Dict[NodeId, Set[str]]:
        """Successors of ``node``: ``{neighbour: {edge labels}}``."""
        return self._out[node]

    def in_neighbors(self, node: NodeId) -> Dict[NodeId, Set[str]]:
        """Predecessors of ``node``: ``{neighbour: {edge labels}}``."""
        return self._in[node]

    def out_degree(self, node: NodeId) -> int:
        """Number of outgoing labelled edges of ``node``."""
        return sum(len(labels) for labels in self._out[node].values())

    def in_degree(self, node: NodeId) -> int:
        """Number of incoming labelled edges of ``node``."""
        return sum(len(labels) for labels in self._in[node].values())

    def degree(self, node: NodeId) -> int:
        """Total degree (in + out) of ``node``."""
        return self.out_degree(node) + self.in_degree(node)

    def edge_labels(self) -> Set[str]:
        """The set of edge labels present in the graph."""
        out: Set[str] = set()
        for nbrs in self._out.values():
            for labels in nbrs.values():
                out |= labels
        return out

    # ------------------------------------------------------------------
    # indexed view
    # ------------------------------------------------------------------
    def snapshot(self) -> "GraphSnapshot":
        """The compact indexed view of this graph (the matching backend).

        Built lazily and cached: repeated calls on an unmutated graph
        return the same object.  Structural mutations are *delta-applied*
        to the cached snapshot (``GraphSnapshot.apply_delta``) — the call
        after a handful of updates patches the touched index entries
        instead of rebuilding the whole index (see ``apply_delta`` for
        the honest per-op costs), which is what keeps
        :class:`~repro.core.incremental.IncrementalValidator`
        on the index.  The returned object may therefore be the
        *same* (patched-in-place) snapshot as before the mutation: treat
        a held snapshot as a live view of the graph, and pickle-roundtrip
        it if a frozen copy is needed.  A full rebuild still happens when
        no snapshot was ever built, or when the pending delta outgrew the
        graph.  Attribute updates never invalidate — snapshots index
        structure only (see :mod:`repro.graph.snapshot`).
        """
        from .snapshot import GraphSnapshot

        cache = self._snapshot_cache
        if cache is not None and self._snapshot_version == self._version:
            return cache
        delta = self._snapshot_delta
        if cache is not None and delta:
            cache.apply_delta(delta)
            delta.clear()
            self._snapshot_version = self._version
            return cache
        self._snapshot_cache = GraphSnapshot(self)
        self._snapshot_version = self._version
        self._snapshot_delta = []
        return self._snapshot_cache

    def adopt_snapshot(self, snapshot: "GraphSnapshot") -> None:
        """Install ``snapshot`` as this graph's cached indexed view.

        The caller warrants the snapshot indexes exactly this graph's
        current structure *in insertion order* — the shared-memory shard
        plane uses this after rebuilding a worker-side graph from the
        very arena snapshot it adopts, so the warrant holds by
        construction.  From here on the normal delta-maintenance
        contract applies, as if :meth:`snapshot` had built it.
        """
        self._snapshot_cache = snapshot
        self._snapshot_version = self._version
        self._snapshot_delta = []

    def drop_snapshot_cache(self) -> None:
        """Forget the cached snapshot (the next :meth:`snapshot` rebuilds).

        Used when the cached view must not be patched further — e.g. a
        worker releasing a shared-memory arena its mapped snapshot still
        references.
        """
        self._snapshot_cache = None
        self._snapshot_version = -1
        self._snapshot_delta = []

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> Tuple:
        """Pickle the graph without its cached snapshot.

        Workers rebuild (shard-local) snapshots from the shipped graph
        data, so carrying the coordinator's cached whole-graph index would
        roughly double the payload for nothing.
        """
        return (
            self._labels,
            self._attrs,
            self._out,
            self._in,
            self._label_index,
            self._num_edges,
            self._version,
        )

    def __setstate__(self, state: Tuple) -> None:
        (
            self._labels,
            self._attrs,
            self._out,
            self._in,
            self._label_index,
            self._num_edges,
            self._version,
        ) = state
        self._snapshot_cache = None
        self._snapshot_version = -1
        self._snapshot_delta = []

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "PropertyGraph":
        """A deep copy (attribute dicts are copied shallowly per node)."""
        g = PropertyGraph()
        for node, label in self._labels.items():
            g.add_node(node, label, dict(self._attrs[node]))
        for src, dst, label in self.edges():
            g.add_edge(src, dst, label)
        return g

    def induced_subgraph(self, nodes: Iterable[NodeId]) -> "PropertyGraph":
        """The subgraph induced by ``nodes`` (Section 2).

        Contains every given node and every edge of this graph whose two
        endpoints are both given.
        """
        keep = set(nodes)
        g = PropertyGraph()
        for node in keep:
            if node not in self._labels:
                raise GraphError(f"unknown node {node!r}")
            g.add_node(node, self._labels[node], dict(self._attrs[node]))
        for node in keep:
            for dst, labels in self._out[node].items():
                if dst in keep:
                    for label in labels:
                        g.add_edge(node, dst, label)
        return g

    def is_subgraph_of(self, other: "PropertyGraph") -> bool:
        """Whether this graph is a subgraph of ``other`` (Section 2).

        Requires node containment with equal labels and attributes, and
        edge containment with equal labels.
        """
        for node, label in self._labels.items():
            if node not in other or other.label(node) != label:
                return False
            if other.attrs(node) != self._attrs[node]:
                return False
        for src, dst, label in self.edges():
            if not other.has_edge(src, dst, label):
                return False
        return True

    def merge(self, other: "PropertyGraph") -> None:
        """Union ``other`` into this graph in place (shared ids coalesce)."""
        for node in other.nodes():
            if node in self._labels:
                self._attrs[node].update(other.attrs(node))
            else:
                self.add_node(node, other.label(node), dict(other.attrs(node)))
        for src, dst, label in other.edges():
            self.add_edge(src, dst, label)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PropertyGraph(|V|={self.num_nodes}, |E|={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        if self._labels != other._labels or self._attrs != other._attrs:
            return False
        return set(self.edges()) == set(other.edges())

    def __hash__(self) -> int:  # graphs are mutable; identity hash
        return id(self)


def graph_from_edges(
    edges: Iterable[Tuple[NodeId, str, NodeId]],
    node_labels: Optional[Dict[NodeId, str]] = None,
    attrs: Optional[Dict[NodeId, Dict[str, Any]]] = None,
    default_label: str = "node",
) -> PropertyGraph:
    """Build a graph from ``(src, edge_label, dst)`` triples.

    Convenience constructor for tests and examples.  Node labels default to
    ``default_label`` unless given in ``node_labels``.
    """
    node_labels = node_labels or {}
    attrs = attrs or {}
    g = PropertyGraph()

    def ensure(node: NodeId) -> None:
        if node not in g:
            g.add_node(node, node_labels.get(node, default_label), attrs.get(node))

    for src, elabel, dst in edges:
        ensure(src)
        ensure(dst)
        g.add_edge(src, dst, elabel)
    for node in node_labels:
        ensure(node)
    return g
