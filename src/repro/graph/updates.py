"""The update-op vocabulary: the one module where an op kind means something.

Updates travel as tuples (README, "Update ops") through the public API,
the CLI's JSON lines, the service and the worker pipe.  Every interpreter
calls the functions below instead of re-deciding what a kind does, which
nodes it touches (the per-op locality of the insert/delete update model
in PAPERS.md) or whether an op is well-formed.  PropertyGraph's private
structural delta log is a separate vocabulary.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from .graph import NodeId, PropertyGraph

#: kind -> (how many node fields follow the kind, structural)
_KINDS = {"attr": (1, False), "edge+": (2, True), "edge-": (2, True),
          "node": (1, True)}
OP_KINDS = tuple(_KINDS)


def check_ops(ops: Iterable) -> List[tuple]:
    """The ops as 4-tuples, or :class:`ValueError` naming the first bad one.

    Checks kind and arity only, before anything is applied;
    ``("node", n, label)`` is normalised to ``("node", n, label, None)``.
    """
    out: List[tuple] = []
    for position, op in enumerate(ops):
        op = tuple(op)
        kind = op[0] if op else None
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(
                f"unknown update kind {kind!r} in op {position} {op!r}; "
                f"expected one of {OP_KINDS}"
            )
        if kind == "node" and len(op) == 3:
            op += (None,)
        if len(op) != 4:
            raise ValueError(f"op {position} {op!r}: {kind!r} takes 3 "
                             f"fields, got {len(op) - 1}")
        out.append(op)
    return out


def op_nodes(op: tuple) -> Tuple[NodeId, ...]:
    """The nodes ``op`` touches: its node, or an edge's two endpoints."""
    return op[1:1 + _KINDS[op[0]][0]]


def is_structural(op: tuple) -> bool:
    """Whether ``op`` can change labels or edges (all but ``attr``)."""
    return _KINDS[op[0]][1]


def fold_key(op: tuple) -> Optional[tuple]:
    """The state ``op`` overwrites: a later op with an equal key supersedes it.

    ``(node, attr)`` for an attr write, ``(src, dst, label)`` for both
    edge kinds, ``None`` for a node op (it writes a label and several
    attributes at once, so it never folds).
    """
    kind = op[0]
    if kind == "node":
        return None
    return op[1:3] if kind == "attr" else op[1:]


def apply_op(graph: PropertyGraph, op: tuple) -> None:
    """Apply ``op`` to ``graph``: the one mutation interpreter.

    The op lands whole, or raises with ``graph`` unchanged
    (``GraphError`` on an unknown node or an absent edge).
    """
    kind = op[0]
    if kind == "attr":
        graph.set_attr(op[1], op[2], op[3])
    elif kind == "edge+":
        graph.add_edge(op[1], op[2], op[3])
    elif kind == "edge-":
        graph.remove_edge(op[1], op[2], op[3])
    elif kind == "node":
        graph.add_node(op[1], op[2], op[3])
    else:
        raise ValueError(f"unknown update kind {kind!r}")


def holds(graph: PropertyGraph, op: tuple) -> bool:
    """Whether ``graph`` is already in the state ``op`` would leave."""
    kind = op[0]
    if kind in ("edge+", "edge-"):
        return graph.has_edge(op[1], op[2], op[3]) == (kind == "edge+")
    if op[1] not in graph:
        return False
    current = graph.attrs(op[1])
    if kind == "attr":
        return op[2] in current and current[op[2]] == op[3]
    return graph.label(op[1]) == op[2] and all(
        k in current and current[k] == v for k, v in dict(op[3] or ()).items())
