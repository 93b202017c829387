"""Graph patterns ``Q[x̄]`` (Section 2).

A pattern is a directed graph over *variables*: the paper's mapping ``µ``
from the variable list ``x̄`` to pattern nodes is a bijection, so we
identify each pattern node with its variable outright (the paper itself
uses ``x`` and ``µ(x)`` interchangeably).  Node and edge labels may be the
wildcard ``'_'``, which matches any label during matching and embedding.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..graph.graph import WILDCARD

Variable = str
PatternEdge = Tuple[Variable, Variable, str]


class PatternError(Exception):
    """Raised on structurally invalid pattern operations."""


class GraphPattern:
    """A directed, labelled pattern ``Q[x̄]``.

    Example (pattern ``Q2`` of the paper — a country with two capitals)::

        q = GraphPattern()
        q.add_node("x", "country")
        q.add_node("y", "city")
        q.add_node("z", "city")
        q.add_edge("x", "y", "capital")
        q.add_edge("x", "z", "capital")
    """

    __slots__ = (
        "_labels", "_out", "_in", "_order", "_num_edges", "_sig", "_hash",
    )

    #: the slots a pickle carries (``_sig``/``_hash`` are derived, never
    #: shipped)
    _STATE = ("_labels", "_out", "_in", "_order", "_num_edges")

    def __init__(self) -> None:
        self._labels: Dict[Variable, str] = {}
        self._out: Dict[Variable, List[Tuple[Variable, str]]] = {}
        self._in: Dict[Variable, List[Tuple[Variable, str]]] = {}
        #: insertion order of variables = the list x̄
        self._order: List[Variable] = []
        self._num_edges = 0
        #: cached :meth:`signature` and its hash; reset by every mutation
        self._sig: Optional[Tuple] = None
        self._hash: Optional[int] = None

    def __getstate__(self):
        return (None, {slot: getattr(self, slot) for slot in self._STATE})

    def __setstate__(self, state) -> None:
        for slot, value in state[1].items():
            setattr(self, slot, value)
        self._sig = None
        self._hash = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, variable: Variable, label: str = WILDCARD) -> Variable:
        """Declare pattern node ``variable`` with ``label``.

        Re-declaring with a different label is an error (µ is a bijection;
        each variable denotes one node with one label).
        """
        existing = self._labels.get(variable)
        if existing is not None:
            if existing != label:
                raise PatternError(
                    f"variable {variable!r} already has label {existing!r}"
                )
            return variable
        self._labels[variable] = label
        self._out[variable] = []
        self._in[variable] = []
        self._order.append(variable)
        self._sig = self._hash = None
        return variable

    def add_edge(self, src: Variable, dst: Variable, label: str = WILDCARD) -> None:
        """Add pattern edge ``src -[label]-> dst`` (endpoints must exist)."""
        if src not in self._labels:
            raise PatternError(f"unknown variable {src!r}")
        if dst not in self._labels:
            raise PatternError(f"unknown variable {dst!r}")
        if (dst, label) in self._out[src]:
            return
        self._out[src].append((dst, label))
        self._in[dst].append((src, label))
        self._num_edges += 1
        self._sig = self._hash = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __contains__(self, variable: Variable) -> bool:
        return variable in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def variables(self) -> List[Variable]:
        """The variable list ``x̄`` in declaration order."""
        return list(self._order)

    def nodes(self) -> Iterator[Variable]:
        """Iterate over pattern variables."""
        return iter(self._order)

    @property
    def num_nodes(self) -> int:
        """``|V_Q|``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """``|E_Q|``."""
        return self._num_edges

    @property
    def size(self) -> int:
        """``|V_Q| + |E_Q|`` — the pattern size ``|Q|`` of the paper."""
        return len(self._labels) + self._num_edges

    def label(self, variable: Variable) -> str:
        """The label of ``variable`` (possibly the wildcard)."""
        return self._labels[variable]

    def out_edges(self, variable: Variable) -> List[Tuple[Variable, str]]:
        """Outgoing ``(target, edge label)`` pairs of ``variable``."""
        return self._out[variable]

    def in_edges(self, variable: Variable) -> List[Tuple[Variable, str]]:
        """Incoming ``(source, edge label)`` pairs of ``variable``."""
        return self._in[variable]

    def edges(self) -> Iterator[PatternEdge]:
        """Iterate over ``(src, dst, label)`` pattern edges."""
        for src in self._order:
            for dst, label in self._out[src]:
                yield (src, dst, label)

    def degree(self, variable: Variable) -> int:
        """Total degree of ``variable`` within the pattern."""
        return len(self._out[variable]) + len(self._in[variable])

    def has_edge(self, src: Variable, dst: Variable, label: Optional[str] = None) -> bool:
        """Whether pattern edge ``src -> dst`` (with ``label``) exists."""
        for target, elabel in self._out.get(src, ()):
            if target == dst and (label is None or elabel == label):
                return True
        return False

    def labels(self) -> Set[str]:
        """All node labels used (wildcard included if used)."""
        return set(self._labels.values())

    def edge_labels(self) -> Set[str]:
        """All edge labels used (wildcard included if used)."""
        return {label for _, _, label in self.edges()}

    def is_tree(self) -> bool:
        """Whether the pattern is a forest of trees (undirected acyclic).

        Tree-structured patterns make satisfiability and implication
        tractable (Corollaries 4 and 8).
        """
        return self._num_edges == self.num_nodes - self._count_components()

    def _count_components(self) -> int:
        from .components import connected_components

        return len(connected_components(self))

    # ------------------------------------------------------------------
    # derived patterns
    # ------------------------------------------------------------------
    def copy(self) -> "GraphPattern":
        """An independent copy."""
        q = GraphPattern()
        for var in self._order:
            q.add_node(var, self._labels[var])
        for src, dst, label in self.edges():
            q.add_edge(src, dst, label)
        return q

    def rename(self, mapping: Dict[Variable, Variable]) -> "GraphPattern":
        """A copy with variables renamed by ``mapping`` (must be injective).

        Variables absent from ``mapping`` keep their names.
        """
        targets = [mapping.get(v, v) for v in self._order]
        if len(set(targets)) != len(targets):
            raise PatternError("rename mapping is not injective")
        q = GraphPattern()
        for var in self._order:
            q.add_node(mapping.get(var, var), self._labels[var])
        for src, dst, label in self.edges():
            q.add_edge(mapping.get(src, src), mapping.get(dst, dst), label)
        return q

    def restricted_to(self, variables: Sequence[Variable]) -> "GraphPattern":
        """The sub-pattern induced by ``variables``."""
        keep = set(variables)
        q = GraphPattern()
        for var in self._order:
            if var in keep:
                q.add_node(var, self._labels[var])
        for src, dst, label in self.edges():
            if src in keep and dst in keep:
                q.add_edge(src, dst, label)
        return q

    def signature(self) -> Tuple:
        """A hashable fingerprint invariant under variable *identity*.

        Two patterns with equal variables/labels/edges share a signature.
        (For isomorphism-invariant grouping see
        :func:`repro.pattern.containment.canonical_form`.)  Computed once
        and cached until the next ``add_node``/``add_edge``: matcher
        tables and match stores hash patterns on every lookup.
        """
        sig = self._sig
        if sig is None:
            nodes = tuple(sorted((v, self._labels[v]) for v in self._order))
            edges = tuple(sorted(self.edges()))
            sig = self._sig = (nodes, edges)
        return sig

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphPattern):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        # Matcher tables and match stores hash the leader pattern once
        # per work unit; the nested signature tuple is hashed only once.
        value = self._hash
        if value is None:
            value = self._hash = hash(self.signature())
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [f"{v}:{self._labels[v]}" for v in self._order]
        edges = [f"{s}-{l}->{d}" for s, d, l in self.edges()]
        return f"GraphPattern({', '.join(parts)} | {', '.join(edges)})"


def pattern_from_edges(
    edges: Sequence[PatternEdge],
    labels: Optional[Dict[Variable, str]] = None,
    isolated: Optional[Dict[Variable, str]] = None,
) -> GraphPattern:
    """Build a pattern from edge triples plus label/isolated-node maps."""
    labels = labels or {}
    q = GraphPattern()
    for src, dst, elabel in edges:
        if src not in q:
            q.add_node(src, labels.get(src, WILDCARD))
        if dst not in q:
            q.add_node(dst, labels.get(dst, WILDCARD))
        q.add_edge(src, dst, elabel)
    for var, label in (isolated or {}).items():
        if var not in q:
            q.add_node(var, label)
    return q
