"""Heap rule: resident state holds no bound method of itself.

Pool workers freeze what they keep after every batch (README "Worker
heap"), so full collections skip the resident shard, its blocks and
their matchers.  That is sound only while resident state is acyclic: a
replaced shard or an evicted block must be freed by reference counting,
because frozen cyclic garbage is never freed.  The matcher once broke
this by storing ``self._frontier = self._frontier_indexed``: a bound
method holds its ``self``, so every matcher — and the block graph and
snapshot it references — became garbage only a full collection could
free.

:class:`BoundMethodSelfCycleRule` (RPL070) flags that shape: an
assignment to ``self.<attr>`` whose value is ``self.<method>`` (or a
tuple/list/set/dict literal of them) for a plain method of the
enclosing class.  Store the function instead (``Cls._method``, called as
``self._attr(self, ...)``), or justify the cycle with a suppression.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Set

from .framework import Finding, ModuleContext, Rule, register

#: decorators whose functions bind no ``self`` (or are not callables)
_UNBOUND = frozenset({"staticmethod", "classmethod", "property"})


def _plain_methods(cls: ast.ClassDef) -> Set[str]:
    """Names of the class's methods that bind ``self`` when looked up."""
    names = set()
    for stmt in cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = {
            d.id if isinstance(d, ast.Name) else getattr(d, "attr", "")
            for d in stmt.decorator_list
        }
        if not decorators & _UNBOUND:
            names.add(stmt.name)
    return names


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _stored_values(value: ast.expr) -> Iterator[ast.expr]:
    """The value itself, or the elements of a container literal."""
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        yield from value.elts
    elif isinstance(value, ast.Dict):
        yield from value.values
    else:
        yield value


@register
class BoundMethodSelfCycleRule(Rule):
    """No ``self.<attr> = self.<method>``: a bound method stored on its
    own instance is a reference cycle.

    Worker processes freeze their heap after each batch, which keeps
    full collections off the resident shard — and relies on every piece
    of resident state being freed by reference counting once dropped.
    ``self._f = self._g`` makes the instance reference itself through
    the bound method, so it (and all it holds: a block graph, its
    snapshot) outlives its last reference until a full collection, and
    forever once frozen.  Store the plain function (``Cls._g``, called
    as ``self._f(self, ...)``) or suppress with the reason the cycle is
    harmless: ``# repro-lint: disable=RPL070 -- <why>``.
    """

    code = "RPL070"
    name = "bound-method-self-cycle"

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        methods_of = {}
        for node in module.nodes(ast.Assign, ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            if node.value is None or not any(map(_is_self_attr, targets)):
                continue
            cls = module.enclosing_class(node)
            if cls is None:
                continue
            if cls not in methods_of:
                methods_of[cls] = _plain_methods(cls)
            for stored in _stored_values(node.value):
                if _is_self_attr(stored) and stored.attr in methods_of[cls]:
                    yield module.finding(self.code, node, (
                        f"`self.{stored.attr}` stored on `self` is a bound "
                        "method holding its instance: a reference cycle "
                        "only a full collection frees; store "
                        f"`{cls.name}.{stored.attr}` and pass `self`"))
                    break
