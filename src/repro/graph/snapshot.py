"""Compact index over a :class:`PropertyGraph` — what subgraph matching
runs on.

A :class:`GraphSnapshot` re-encodes a property graph into integer-interned,
CSR-style structures so the subgraph-matching hot path (candidate seeding,
degree filtering, frontier expansion, edge checks) runs on dense ints and
precomputed indices instead of nested ``Dict[NodeId, Dict[NodeId,
Set[str]]]`` walks:

* node identifiers are interned to dense indices ``0 .. |V|-1``;
* node and edge labels are interned to small ints;
* out/in adjacency is stored CSR-style (``array`` offsets + flat
  neighbour/label arrays), with per-``(node, edge label)`` slices so a
  frontier expansion over one edge label is a contiguous array slice;
* every node carries a precomputed neighbour-label histogram, so the
  degree filter never re-counts edge labels per candidate;
* a ``(src_label, edge_label, dst_label)`` pair index maps each concrete
  label triple to the nodes that actually participate in such an edge,
  seeding candidate sets far tighter than the label index alone.

Who runs on it
--------------

:class:`~repro.matching.vf2.SubgraphMatcher` and
:func:`~repro.matching.candidates.compute_candidates` accept either a
:class:`PropertyGraph` or a :class:`GraphSnapshot`; a graph resolves to
its cached ``graph.snapshot()``, so every matching path — validation,
discovery, the parallel engine's data blocks and
:class:`~repro.core.incremental.IncrementalValidator` after updates —
runs on this index.  The original dict-of-dicts walk survives only as
the reference the differential tests compare against (``tests/oracle``).

When snapshots are rebuilt (and when they are patched)
------------------------------------------------------

``PropertyGraph.snapshot()`` caches the snapshot on the graph and tags it
with the graph's structural version.  Since the session layer (PR 3) the
graph also records the structural delta since the cached snapshot was
current; the *next* ``snapshot()`` call replays that delta through
:meth:`GraphSnapshot.apply_delta` — patching the CSR rows, label tables,
histograms, and the pair index of the touched nodes in place — instead of
rebuilding the whole index.  Only when the delta grows past a fraction of
``|G|`` (or a caller mutated out-of-band) does a full rebuild happen.
Attribute-only updates (``set_attr``) never invalidate: snapshots index
structure and labels only — attribute literals are always evaluated
against the backing ``PropertyGraph``.

Consequently a cached snapshot is a *live view* of its graph, not a
frozen copy: holding it across structural mutations is the same contract
as holding the ``PropertyGraph`` itself, and matchers constructed before
a mutation must be rebuilt after it (their candidate caches are stale —
:class:`~repro.core.incremental.IncrementalValidator` does exactly this).
Code that needs a frozen copy should pickle-roundtrip the snapshot.
Exposed structures remain frozen *by convention* for every consumer
except :meth:`apply_delta` itself.

Pickling
--------

Snapshots are pickle-friendly — the groundwork the multiprocess executor
(:mod:`repro.parallel.executors`) relies on to ship shard-local indices to
worker processes.  Only the *primary* structures travel over the wire
(node ids, interned label tables, and the CSR arrays); every derived
index — the edge/adjacency sets, label-pair index, per-node slices,
histograms and degree arrays — is rebuilt on unpickling from the CSR in
one ``O(|V| + |E|)`` pass.  This keeps the pickled payload within a small
factor of :meth:`GraphSnapshot.memory_estimate` (guarded by tests) rather
than paying for the set-heavy derived structures twice.

Arena layout (zero-copy shipping)
---------------------------------

The nine primary arrays (:data:`GraphSnapshot.ARENA_FIELDS`) can also
live in one contiguous, ``memoryview``-sliceable byte arena:
:meth:`GraphSnapshot.write_arena` lays them out back to back in a caller-
supplied buffer (a ``multiprocessing.shared_memory`` segment, a
``bytearray``, an mmap — anything buffer-protocol) and returns a compact
layout descriptor; :meth:`GraphSnapshot.from_arena` reattaches by casting
``memoryview`` slices over the buffer *without copying* and rebuilding
the derived indices locally, exactly as unpickling does.  The executor
layer's :class:`~repro.parallel.executors.ShardPlane` uses this to map
shards across co-located processes instead of pickling them.  A mapped
snapshot is read-only until :meth:`GraphSnapshot.materialise` copies the
views into private ``array`` storage — :meth:`apply_delta` does so
automatically, because index patching needs ``insert``/``pop`` on the
rows (the one thing a flat mapped buffer cannot do).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .graph import Edge, NodeId, PropertyGraph, WILDCARD

#: Pattern-edge label codes with no concrete interned id.
WILD_CODE = -1  #: the wildcard label — matches any edge label
ABSENT_CODE = -2  #: a label the snapshot has never seen — matches nothing

#: The one typecode every primary array uses (and the arena is cast to).
ARENA_TYPECODE = "l"


class GraphSnapshot:
    """Read-only indexed view of one structural version of a graph.

    Exposed attributes are build-time artefacts shared with the matching
    layer; treat them as frozen.  All ``*_code``/``*_idx`` APIs work in
    interned index space, the remaining methods mirror the
    :class:`PropertyGraph` inspection API in original-id space.
    """

    __slots__ = (
        "node_ids",
        "index",
        "node_label_names",
        "node_label_ids",
        "edge_label_names",
        "edge_label_ids",
        "label_codes",
        "nodes_by_label",
        "out_offsets",
        "out_nbrs",
        "out_labs",
        "in_offsets",
        "in_nbrs",
        "in_labs",
        "out_slices",
        "in_slices",
        "out_uniq",
        "in_uniq",
        "out_hist",
        "in_hist",
        "out_deg",
        "in_deg",
        "edge_set",
        "adj_set",
        "pair_src",
        "pair_dst",
        "num_edges",
        "arena",
    )

    def __init__(self, graph: PropertyGraph) -> None:
        #: index -> original node id
        self.node_ids: List[NodeId] = list(graph.nodes())
        index: Dict[NodeId, int] = {
            node: i for i, node in enumerate(self.node_ids)
        }

        #: node label interning (id -> name); name -> id is derived
        self.node_label_names: List[str] = []
        node_label_ids: Dict[str, int] = {}
        #: node index -> node label id
        label_codes = array("l")
        for node in self.node_ids:
            name = graph.label(node)
            code = node_label_ids.get(name)
            if code is None:
                code = len(self.node_label_names)
                node_label_ids[name] = code
                self.node_label_names.append(name)
            label_codes.append(code)
        self.label_codes = label_codes

        #: edge label interning (id -> name); name -> id is derived
        self.edge_label_names: List[str] = []
        edge_label_ids: Dict[str, int] = {}

        # Primary CSR adjacency, one pass per direction.  Everything else
        # — edge/adjacency sets, the label-pair index, per-node slices,
        # histograms and degrees — is derived from it by the same
        # ``_derive_indices`` pass construction and unpickling share.
        self.out_offsets, self.out_nbrs, self.out_labs = self._build_csr(
            graph, index, edge_label_ids, out=True
        )
        self.in_offsets, self.in_nbrs, self.in_labs = self._build_csr(
            graph, index, edge_label_ids, out=False
        )
        self.arena = None
        self._derive_indices()

    def _build_csr(
        self,
        graph: PropertyGraph,
        index: Dict[NodeId, int],
        edge_label_ids: Dict[str, int],
        out: bool,
    ) -> Tuple["array", "array", "array"]:
        """CSR rows sorted by (edge label id, neighbour index), one pass."""
        offsets: List[int] = [0]
        nbrs: List[int] = []
        labs: List[int] = []
        names = self.edge_label_names
        adjacency_of = graph.out_neighbors if out else graph.in_neighbors
        for node in self.node_ids:
            row: List[Tuple[int, int]] = []
            for nbr, labels in adjacency_of(node).items():
                nbr_idx = index[nbr]
                for label in labels:
                    code = edge_label_ids.get(label)
                    if code is None:
                        code = len(names)
                        edge_label_ids[label] = code
                        names.append(label)
                    row.append((code, nbr_idx))
            row.sort()
            for code, nbr_idx in row:
                nbrs.append(nbr_idx)
                labs.append(code)
            offsets.append(len(nbrs))
        return array("l", offsets), array("l", nbrs), array("l", labs)

    # ------------------------------------------------------------------
    # pickling (multiprocess shipping)
    # ------------------------------------------------------------------
    #: slots that travel over the wire; everything else is derived.
    _PICKLED_FIELDS = (
        "node_ids",
        "node_label_names",
        "label_codes",
        "edge_label_names",
        "out_offsets",
        "out_nbrs",
        "out_labs",
        "in_offsets",
        "in_nbrs",
        "in_labs",
    )

    def __getstate__(self) -> Dict[str, object]:
        """Primary structures only — derived indices are rebuilt on load.

        Mapped (arena-backed) snapshots hold ``memoryview`` primaries,
        which cannot pickle; they are copied into plain ``array`` form on
        the way out, so a pickle round-trip always yields a private,
        fully materialised snapshot.
        """
        state = {}
        for name in self._PICKLED_FIELDS:
            value = getattr(self, name)
            if isinstance(value, memoryview):
                value = array(ARENA_TYPECODE, value)
            state[name] = value
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name in self._PICKLED_FIELDS:
            setattr(self, name, state[name])
        self.arena = None
        self._derive_indices()

    def _derive_indices(self) -> None:
        """Build every derived structure from the primary CSR state.

        The single implementation shared by construction and unpickling:
        rows are already sorted by (edge label id, neighbour index), so
        slices are runs and histograms are run lengths.  One pass per
        direction, ``O(|V| + |E|)`` total.
        """
        self.index = {node: i for i, node in enumerate(self.node_ids)}
        self.node_label_ids = {
            name: code for code, name in enumerate(self.node_label_names)
        }
        self.edge_label_ids = {
            name: code for code, name in enumerate(self.edge_label_names)
        }
        by_label: Dict[int, Set[int]] = {}
        for idx, code in enumerate(self.label_codes):
            by_label.setdefault(code, set()).add(idx)
        # Plain (mutable) sets so apply_delta can patch memberships in
        # O(1); frozen by convention for every other consumer.
        self.nodes_by_label = by_label
        self.edge_set = set()
        self.adj_set = set()
        pair_src: Dict[Tuple[int, int, int], Set[int]] = {}
        pair_dst: Dict[Tuple[int, int, int], Set[int]] = {}
        (
            self.out_slices,
            self.out_uniq,
            self.out_hist,
            self.out_deg,
        ) = self._derive_direction(
            self.out_offsets, self.out_nbrs, self.out_labs, pair_src, pair_dst
        )
        (
            self.in_slices,
            self.in_uniq,
            self.in_hist,
            self.in_deg,
        ) = self._derive_direction(self.in_offsets, self.in_nbrs, self.in_labs)
        self.pair_src = pair_src
        self.pair_dst = pair_dst
        self.num_edges = len(self.edge_set)

    def _derive_direction(
        self,
        offsets,
        nbrs,
        labs,
        pair_src: Optional[Dict[Tuple[int, int, int], Set[int]]] = None,
        pair_dst: Optional[Dict[Tuple[int, int, int], Set[int]]] = None,
    ):
        """Per-node slices/uniq/hist/deg from one direction's CSR rows.

        Slice positions are *row-relative* (offsets from the node's CSR
        row base) so that :meth:`apply_delta` edits to one node's row
        never touch any other node's slice table.
        """
        label_codes = self.label_codes
        fill_pairs = pair_src is not None
        edge_set = self.edge_set
        adj_set = self.adj_set
        slices: List[Dict[int, Tuple[int, int]]] = []
        uniq: List[Tuple[int, ...]] = []
        hist: List[Dict[int, int]] = []
        deg: List[int] = []
        for src_idx in range(len(self.node_ids)):
            base, end = offsets[src_idx], offsets[src_idx + 1]
            row_slices, uniq_row, row_hist = self._derive_row(
                nbrs, labs, base, end
            )
            if fill_pairs:
                for pos in range(base, end):
                    code = labs[pos]
                    nbr_idx = nbrs[pos]
                    edge_set.add((src_idx, nbr_idx, code))
                    key = (label_codes[src_idx], code, label_codes[nbr_idx])
                    pair_src.setdefault(key, set()).add(src_idx)
                    pair_dst.setdefault(key, set()).add(nbr_idx)
                adj_set.update((src_idx, nbr_idx) for nbr_idx in uniq_row)
            slices.append(row_slices)
            uniq.append(uniq_row)
            hist.append(row_hist)
            deg.append(end - base)
        return slices, uniq, hist, array("l", deg)

    @staticmethod
    def _derive_row(nbrs, labs, base: int, end: int):
        """``(row-relative slices, uniq tuple, histogram)`` of one CSR row."""
        row_slices: Dict[int, Tuple[int, int]] = {}
        row_hist: Dict[int, int] = {}
        uniq_row: Set[int] = set()
        run_code: Optional[int] = None
        run_start = base
        for pos in range(base, end):
            code = labs[pos]
            uniq_row.add(nbrs[pos])
            if code != run_code:
                if run_code is not None:
                    row_slices[run_code] = (run_start - base, pos - base)
                    row_hist[run_code] = pos - run_start
                run_code = code
                run_start = pos
        if run_code is not None:
            row_slices[run_code] = (run_start - base, end - base)
            row_hist[run_code] = end - run_start
        return row_slices, tuple(sorted(uniq_row)), row_hist

    # ------------------------------------------------------------------
    # shared-memory arena (zero-copy shipping)
    # ------------------------------------------------------------------
    #: the nine primary arrays, in arena layout order: everything a
    #: snapshot stores as a flat ``array("l")`` — the six CSR arrays, the
    #: node-label codes, and the two degree arrays.
    ARENA_FIELDS = (
        "label_codes",
        "out_offsets",
        "out_nbrs",
        "out_labs",
        "in_offsets",
        "in_nbrs",
        "in_labs",
        "out_deg",
        "in_deg",
    )

    @property
    def mapped(self) -> bool:
        """Whether the primary arrays are views into a shared arena."""
        return self.arena is not None

    def arena_nbytes(self) -> int:
        """Byte size of the contiguous arena :meth:`write_arena` fills."""
        return sum(
            len(getattr(self, name)) for name in self.ARENA_FIELDS
        ) * array(ARENA_TYPECODE).itemsize

    def identity_state(self) -> Tuple[List, List[str], List[str]]:
        """The non-array primary state an arena cannot carry.

        ``(node_ids, node_label_names, edge_label_names)`` — together
        with the arena bytes this is exactly :attr:`_PICKLED_FIELDS`, so
        ``from_arena(buffer, layout, identity)`` reconstructs the same
        snapshot a pickle round-trip would, minus the array copies.
        """
        return (self.node_ids, self.node_label_names, self.edge_label_names)

    def write_arena(self, buffer) -> Tuple[Tuple[str, int, int], ...]:
        """Lay the nine primary arrays contiguously into ``buffer``.

        ``buffer`` is any writable buffer of at least
        :meth:`arena_nbytes` bytes (a ``shared_memory`` segment's
        ``.buf``, a ``bytearray``, …).  Returns the layout — one
        ``(field, start, length)`` triple per array, positions in items
        of :data:`ARENA_TYPECODE` — which :meth:`from_arena` needs to
        reattach.  Works on materialised and mapped snapshots alike.
        """
        itemsize = array(ARENA_TYPECODE).itemsize
        view = memoryview(buffer)
        layout = []
        offset = 0
        for name in self.ARENA_FIELDS:
            arr = getattr(self, name)
            data = bytes(arr)
            view[offset : offset + len(data)] = data
            layout.append((name, offset // itemsize, len(arr)))
            offset += len(data)
        return tuple(layout)

    @classmethod
    def from_arena(
        cls,
        buffer,
        layout: Sequence[Tuple[str, int, int]],
        identity: Tuple[List, List[str], List[str]],
        keep_alive=None,
    ) -> "GraphSnapshot":
        """Attach a snapshot over an arena *without copying* it.

        The primary arrays become read-only ``memoryview`` slices of
        ``buffer``; derived indices are rebuilt locally (the same
        ``O(|V| + |E|)`` pass unpickling runs).  ``identity`` is
        :meth:`identity_state` of the snapshot that wrote the arena.
        ``keep_alive`` (e.g. a ``SharedMemory`` handle) is retained on
        :attr:`arena` so the mapping outlives the caller's reference;
        without it the buffer itself is retained.  The views stay valid
        only while the backing buffer does — close/unlink the segment
        only after dropping the snapshot or calling :meth:`materialise`.
        """
        snap = object.__new__(cls)
        node_ids, node_label_names, edge_label_names = identity
        snap.node_ids = list(node_ids)
        snap.node_label_names = list(node_label_names)
        snap.edge_label_names = list(edge_label_names)
        view = memoryview(buffer)
        if not view.readonly:
            view = view.toreadonly()
        typed = view.cast(ARENA_TYPECODE)
        fields = {}
        for name, start, length in layout:
            fields[name] = typed[start : start + length]
        for name in cls._PICKLED_FIELDS:
            if name in fields:
                setattr(snap, name, fields[name])
        snap.arena = keep_alive if keep_alive is not None else buffer
        snap._derive_indices()
        # The degree arrays are derivable (and _derive_indices just
        # rebuilt them); rebind to the mapped views so all nine primaries
        # genuinely share the arena's storage.
        snap.out_deg = fields["out_deg"]
        snap.in_deg = fields["in_deg"]
        return snap

    def materialise(self) -> "GraphSnapshot":
        """Copy mapped primaries into private storage; release the arena.

        No-op on an already-materialised snapshot.  After this the
        snapshot no longer references its backing buffer, so the shared
        segment can be closed/unlinked safely.
        """
        if self.arena is None:
            return self
        for name in self.ARENA_FIELDS:
            value = getattr(self, name)
            if isinstance(value, memoryview):
                setattr(self, name, array(ARENA_TYPECODE, value))
        self.arena = None
        return self

    # ------------------------------------------------------------------
    # delta maintenance (incremental index patching)
    # ------------------------------------------------------------------
    def apply_delta(self, ops: Sequence[Tuple]) -> None:
        """Patch this snapshot in place with a structural delta.

        ``ops`` is a sequence of update tuples, in application order:

        * ``("node+", node, label)`` — insert a fresh node;
        * ``("node-", node)`` — remove a node (its incident edges must
          already be gone, i.e. preceded by their ``edge-`` ops — exactly
          the order ``PropertyGraph.remove_node`` records);
        * ``("relabel", node, label)`` — change a node's label;
        * ``("edge+", src, dst, label)`` / ``("edge-", src, dst, label)``;
        * ``("attr", ...)`` — ignored (snapshots index structure only).

        Edge and node-insert ops are surgical: only the touched CSR rows
        and their derived entries (slices, uniq, histograms, degrees, the
        affected edge/adjacency-set and pair-index memberships) are
        recomputed — ``O(deg)`` dict/set work per op, plus two
        array-level shifts per edge op (a ``memmove`` of the flat
        neighbour arrays and an ``O(|V|)`` bulk rewrite of the offset
        array).  That is far below the ``O(|V| + |E|)`` dict/set churn of
        a full rebuild — every *derived* index stays warm — which is what
        lets :class:`~repro.core.incremental.IncrementalValidator` keep
        the indexed backend across updates.  Node removal is the honest
        exception: it compacts the interned index space and then
        re-derives (one ``O(|V| + |E|)`` pass).

        The result is semantically identical to ``GraphSnapshot(graph)``
        over the mutated graph (pinned by the differential suite in
        ``tests/test_snapshot_delta.py``); interned *codes* may differ —
        a delta never renumbers surviving labels, a rebuild re-interns in
        first-seen order.

        A *mapped* (arena-backed) snapshot is materialised first: row
        splicing needs ``insert``/``pop`` on the flat arrays, which a
        shared arena cannot provide — patching demotes the snapshot to a
        private local copy (see :meth:`materialise`).
        """
        if self.arena is not None:
            self.materialise()
        for op in ops:
            kind = op[0]
            # repro-lint: disable=RPL042 -- PropertyGraph's delta log, not an update op: it reuses the edge kind names
            if kind == "edge+":
                self._delta_edge(op[1], op[2], op[3], insert=True)
            # repro-lint: disable=RPL042 -- PropertyGraph's delta log, not an update op: it reuses the edge kind names
            elif kind == "edge-":
                self._delta_edge(op[1], op[2], op[3], insert=False)
            elif kind == "node+":
                self._delta_add_node(op[1], op[2])
            elif kind == "node-":
                self._delta_remove_node(op[1])
            elif kind == "relabel":
                self._delta_relabel(op[1], op[2])
            # repro-lint: disable=RPL042 -- PropertyGraph's delta log, not an update op: attr entries are tolerated and ignored
            elif kind != "attr":
                raise ValueError(f"unknown snapshot delta op {kind!r}")

    def _intern_node_label(self, name: str) -> int:
        code = self.node_label_ids.get(name)
        if code is None:
            code = len(self.node_label_names)
            self.node_label_ids[name] = code
            self.node_label_names.append(name)
        return code

    def _intern_edge_label(self, name: str) -> int:
        code = self.edge_label_ids.get(name)
        if code is None:
            code = len(self.edge_label_names)
            self.edge_label_ids[name] = code
            self.edge_label_names.append(name)
        return code

    def _delta_add_node(self, node: NodeId, label: str) -> None:
        if node in self.index:
            raise ValueError(f"node {node!r} already indexed")
        idx = len(self.node_ids)
        self.node_ids.append(node)
        self.index[node] = idx
        code = self._intern_node_label(label)
        self.label_codes.append(code)
        self.nodes_by_label.setdefault(code, set()).add(idx)
        for offsets, slices, uniq, hist, deg in (
            (self.out_offsets, self.out_slices, self.out_uniq, self.out_hist,
             self.out_deg),
            (self.in_offsets, self.in_slices, self.in_uniq, self.in_hist,
             self.in_deg),
        ):
            offsets.append(offsets[-1])
            slices.append({})
            uniq.append(())
            hist.append({})
            deg.append(0)

    def _delta_remove_node(self, node: NodeId) -> None:
        idx = self.index.get(node)
        if idx is None:
            raise ValueError(f"unknown node {node!r}")
        if (
            self.out_offsets[idx] != self.out_offsets[idx + 1]
            or self.in_offsets[idx] != self.in_offsets[idx + 1]
        ):
            raise ValueError(
                f"node {node!r} still has incident edges; apply their "
                "edge- ops first"
            )
        self.node_ids.pop(idx)
        self.label_codes.pop(idx)
        self.out_offsets.pop(idx)
        self.in_offsets.pop(idx)
        # Interned indices above ``idx`` shift down by one: remap the CSR
        # neighbour arrays in one pass, then re-derive (the index space
        # itself changed, so every index-keyed structure must follow).
        for nbrs in (self.out_nbrs, self.in_nbrs):
            for pos, nbr in enumerate(nbrs):
                if nbr > idx:
                    nbrs[pos] = nbr - 1
        self._derive_indices()

    def _delta_relabel(self, node: NodeId, label: str) -> None:
        idx = self.index.get(node)
        if idx is None:
            raise ValueError(f"unknown node {node!r}")
        old = self.label_codes[idx]
        new = self._intern_node_label(label)
        if new == old:
            return
        members = self.nodes_by_label[old]
        members.discard(idx)
        if not members:
            del self.nodes_by_label[old]
        self.nodes_by_label.setdefault(new, set()).add(idx)
        self.label_codes[idx] = new
        # Every incident edge migrates between pair-index keys: the node
        # itself moves wholesale (it can no longer contribute under the
        # old label), each counterpart's membership under the old key is
        # recomputed from its own CSR row.
        label_codes = self.label_codes
        base, end = self.out_offsets[idx], self.out_offsets[idx + 1]
        for pos in range(base, end):
            code, nbr = self.out_labs[pos], self.out_nbrs[pos]
            # A self-loop's old key had the old label in *both* slots.
            old_key = (old, code, old if nbr == idx else label_codes[nbr])
            new_key = (new, code, label_codes[nbr])
            self._pair_discard(self.pair_src, old_key, idx)
            self.pair_src.setdefault(new_key, set()).add(idx)
            self.pair_dst.setdefault(new_key, set()).add(nbr)
            if not self._has_in_edge(nbr, code, old):
                self._pair_discard(self.pair_dst, old_key, nbr)
        base, end = self.in_offsets[idx], self.in_offsets[idx + 1]
        for pos in range(base, end):
            code, nbr = self.in_labs[pos], self.in_nbrs[pos]
            if nbr == idx:
                continue  # self-loop: fully handled by the out pass
            old_key = (label_codes[nbr], code, old)
            new_key = (label_codes[nbr], code, new)
            self._pair_discard(self.pair_dst, old_key, idx)
            self.pair_dst.setdefault(new_key, set()).add(idx)
            self.pair_src.setdefault(new_key, set()).add(nbr)
            if not self._has_out_edge(nbr, code, old):
                self._pair_discard(self.pair_src, old_key, nbr)

    def _delta_edge(
        self, src: NodeId, dst: NodeId, label: str, insert: bool
    ) -> None:
        src_idx = self.index.get(src)
        dst_idx = self.index.get(dst)
        if src_idx is None or dst_idx is None:
            missing = src if src_idx is None else dst
            raise ValueError(f"unknown node {missing!r}")
        code = (
            self._intern_edge_label(label)
            if insert
            else self.edge_label_ids.get(label)
        )
        if code is None or (
            insert == ((src_idx, dst_idx, code) in self.edge_set)
        ):
            raise ValueError(
                f"edge {src!r} -[{label}]-> {dst!r} "
                f"{'already indexed' if insert else 'not indexed'}"
            )
        self._splice_row(
            self.out_offsets, self.out_nbrs, self.out_labs, self.out_slices,
            self.out_uniq, self.out_hist, self.out_deg,
            src_idx, code, dst_idx, insert,
        )
        self._splice_row(
            self.in_offsets, self.in_nbrs, self.in_labs, self.in_slices,
            self.in_uniq, self.in_hist, self.in_deg,
            dst_idx, code, src_idx, insert,
        )
        key = (self.label_codes[src_idx], code, self.label_codes[dst_idx])
        if insert:
            self.edge_set.add((src_idx, dst_idx, code))
            self.adj_set.add((src_idx, dst_idx))
            self.pair_src.setdefault(key, set()).add(src_idx)
            self.pair_dst.setdefault(key, set()).add(dst_idx)
            self.num_edges += 1
        else:
            self.edge_set.remove((src_idx, dst_idx, code))
            if dst_idx not in self.out_uniq[src_idx]:
                self.adj_set.discard((src_idx, dst_idx))
            if not self._has_out_edge(src_idx, code, key[2]):
                self._pair_discard(self.pair_src, key, src_idx)
            if not self._has_in_edge(dst_idx, code, key[0]):
                self._pair_discard(self.pair_dst, key, dst_idx)
            self.num_edges -= 1

    def _splice_row(
        self, offsets, nbrs, labs, slices, uniq, hist, deg,
        row: int, code: int, nbr_idx: int, insert: bool,
    ) -> None:
        """Insert/remove one ``(code, nbr_idx)`` entry in a sorted CSR row."""
        base, end = offsets[row], offsets[row + 1]
        pos = base
        while pos < end and (labs[pos], nbrs[pos]) < (code, nbr_idx):
            pos += 1
        if insert:
            nbrs.insert(pos, nbr_idx)
            labs.insert(pos, code)
            shift = 1
        else:
            nbrs.pop(pos)
            labs.pop(pos)
            shift = -1
        # Bulk slice assignment beats an indexed += loop by a constant
        # factor, but the shift is still O(|V|) work per edge op.
        tail = offsets[row + 1 :]
        offsets[row + 1 :] = array("l", [value + shift for value in tail])
        new_base, new_end = offsets[row], offsets[row + 1]
        slices[row], uniq[row], hist[row] = self._derive_row(
            nbrs, labs, new_base, new_end
        )
        deg[row] = new_end - new_base

    def _has_out_edge(self, idx: int, code: int, dst_label: int) -> bool:
        """Whether ``idx`` has an out-edge ``code`` to a ``dst_label`` node."""
        base = self.out_offsets[idx]
        slc = self.out_slices[idx].get(code)
        if slc is None:
            return False
        label_codes = self.label_codes
        return any(
            label_codes[self.out_nbrs[pos]] == dst_label
            for pos in range(base + slc[0], base + slc[1])
        )

    def _has_in_edge(self, idx: int, code: int, src_label: int) -> bool:
        """Whether ``idx`` has an in-edge ``code`` from a ``src_label`` node."""
        base = self.in_offsets[idx]
        slc = self.in_slices[idx].get(code)
        if slc is None:
            return False
        label_codes = self.label_codes
        return any(
            label_codes[self.in_nbrs[pos]] == src_label
            for pos in range(base + slc[0], base + slc[1])
        )

    @staticmethod
    def _pair_discard(table, key, idx) -> None:
        members = table.get(key)
        if members is None:
            return
        members.discard(idx)
        if not members:
            del table[key]

    def memory_estimate(self) -> int:
        """Estimated resident bytes of this snapshot (primary + derived).

        The byte-level counterpart of the ``|V| + |E|`` size units the
        :class:`~repro.parallel.engine.BlockMaterialiser` LRU budget is
        measured in.  The per-node/per-edge constants approximate the
        CPython cost of the dict/set-heavy derived indices; the pickled
        payload (primary structures only) is guarded by tests to stay
        within 3× of this estimate, so shipping a snapshot never costs
        wildly more than holding it.
        """
        arrays = (
            self.label_codes,
            self.out_offsets,
            self.out_nbrs,
            self.out_labs,
            self.out_deg,
            self.in_offsets,
            self.in_nbrs,
            self.in_labs,
            self.in_deg,
        )
        estimate = sum(a.itemsize * len(a) for a in arrays)
        estimate += 80 * self.num_nodes  # node_ids, index, per-node dicts
        estimate += 96 * self.num_edges  # edge/adj sets, pair index, slices
        estimate += 64 * (
            len(self.node_label_names) + len(self.edge_label_names)
        )
        return estimate

    # ------------------------------------------------------------------
    # index-space API (matching hot path)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self.node_ids)

    @property
    def size(self) -> int:
        """``|V| + |E|`` — the paper's size measure."""
        return len(self.node_ids) + self.num_edges

    def index_of(self, node: NodeId) -> Optional[int]:
        """The interned index of ``node``, or ``None`` if absent."""
        return self.index.get(node)

    def node_of(self, idx: int) -> NodeId:
        """The original id of interned index ``idx``."""
        return self.node_ids[idx]

    def node_label_code(self, label: str) -> Optional[int]:
        """The interned id of node label ``label`` (``None`` if unseen)."""
        return self.node_label_ids.get(label)

    def edge_label_code(self, label: str) -> int:
        """Pattern-edge label -> interned code, wildcard- and absence-aware."""
        if label == WILDCARD:
            return WILD_CODE
        return self.edge_label_ids.get(label, ABSENT_CODE)

    def out_pool(self, idx: int, code: int):
        """Out-neighbours of ``idx`` over edge-label ``code`` (a sequence).

        ``WILD_CODE`` returns the deduplicated neighbour tuple; a concrete
        code returns the contiguous CSR slice (each neighbour at most once
        per label); ``ABSENT_CODE`` returns nothing.
        """
        if code >= 0:
            slc = self.out_slices[idx].get(code)
            if slc is None:
                return ()
            base = self.out_offsets[idx]
            return self.out_nbrs[base + slc[0] : base + slc[1]]
        if code == WILD_CODE:
            return self.out_uniq[idx]
        return ()

    def in_pool(self, idx: int, code: int):
        """In-neighbours of ``idx`` over edge-label ``code`` (see out_pool)."""
        if code >= 0:
            slc = self.in_slices[idx].get(code)
            if slc is None:
                return ()
            base = self.in_offsets[idx]
            return self.in_nbrs[base + slc[0] : base + slc[1]]
        if code == WILD_CODE:
            return self.in_uniq[idx]
        return ()

    def neighbour_pool(self, idx: int, code: int, out: bool):
        """Directional pool: ``out_pool``/``in_pool`` behind one knob.

        The factorised eliminator walks condensed edges whose direction
        is data (a per-constraint flag), not code shape — this keeps its
        inner loop branch-free on the caller side.
        """
        return self.out_pool(idx, code) if out else self.in_pool(idx, code)

    def edge_ok(self, src_idx: int, dst_idx: int, code: int) -> bool:
        """Whether edge ``src -> dst`` exists with label ``code``."""
        if code >= 0:
            return (src_idx, dst_idx, code) in self.edge_set
        if code == WILD_CODE:
            return (src_idx, dst_idx) in self.adj_set
        return False

    # ------------------------------------------------------------------
    # original-id API (mirrors PropertyGraph inspection)
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self.index

    def __len__(self) -> int:
        return len(self.node_ids)

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over original node identifiers."""
        return iter(self.node_ids)

    def label(self, node: NodeId) -> str:
        """The label of ``node``."""
        return self.node_label_names[self.label_codes[self.index[node]]]

    def labels(self) -> Set[str]:
        """The set of node labels present.

        Computed from live memberships, not the intern table — a delta
        that removed a label's last node leaves its interned code behind
        but must not report the label as present.
        """
        names = self.node_label_names
        return {names[code] for code in self.nodes_by_label}

    def edge_labels(self) -> Set[str]:
        """The set of edge labels present (live, like :meth:`labels`)."""
        names = self.edge_label_names
        return {names[code] for _, code, _ in self.pair_src}

    def nodes_with_label(self, label: str) -> Set[NodeId]:
        """All original node ids carrying ``label``."""
        code = self.node_label_ids.get(label)
        if code is None:
            return set()
        ids = self.node_ids
        return {ids[idx] for idx in self.nodes_by_label.get(code, ())}

    def edges(self) -> Iterator[Edge]:
        """Iterate over ``(src, dst, label)`` triples in original ids."""
        ids = self.node_ids
        names = self.edge_label_names
        for src_idx in range(len(ids)):
            start, stop = self.out_offsets[src_idx], self.out_offsets[src_idx + 1]
            for pos in range(start, stop):
                yield (ids[src_idx], ids[self.out_nbrs[pos]], names[self.out_labs[pos]])

    def has_edge(self, src: NodeId, dst: NodeId, label: Optional[str] = None) -> bool:
        """Whether edge ``src -> dst`` exists (with ``label`` if given).

        ``label`` is literal, mirroring ``PropertyGraph.has_edge`` — the
        string ``"_"`` names a ``"_"``-labelled data edge here, not the
        pattern wildcard (pattern-label semantics live in
        :meth:`edge_label_code`/:meth:`edge_ok`).
        """
        src_idx = self.index.get(src)
        dst_idx = self.index.get(dst)
        if src_idx is None or dst_idx is None:
            return False
        if label is None:
            return (src_idx, dst_idx) in self.adj_set
        code = self.edge_label_ids.get(label)
        if code is None:
            return False
        return (src_idx, dst_idx, code) in self.edge_set

    def out_degree(self, node: NodeId) -> int:
        """Number of outgoing labelled edges of ``node``."""
        return self.out_deg[self.index[node]]

    def in_degree(self, node: NodeId) -> int:
        """Number of incoming labelled edges of ``node``."""
        return self.in_deg[self.index[node]]

    def neighbor_label_counts(self, node: NodeId, out: bool = True) -> Dict[str, int]:
        """Edge-label histogram of ``node`` (out or in) with string keys."""
        hist = (self.out_hist if out else self.in_hist)[self.index[node]]
        names = self.edge_label_names
        return {names[code]: count for code, count in hist.items()}

    def pair_nodes(
        self, src_label: str, edge_label: str, dst_label: str
    ) -> Tuple[Set[NodeId], Set[NodeId]]:
        """Original-id view of one pair-index entry: ``(sources, targets)``."""
        key = (
            self.node_label_ids.get(src_label),
            self.edge_label_ids.get(edge_label),
            self.node_label_ids.get(dst_label),
        )
        ids = self.node_ids
        return (
            {ids[idx] for idx in self.pair_src.get(key, ())},
            {ids[idx] for idx in self.pair_dst.get(key, ())},
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GraphSnapshot(|V|={self.num_nodes}, |E|={self.num_edges})"
