"""Dispatch-exhaustiveness rules: every ``WorkUnit.kind`` has a story.

``WorkUnit.kind`` grew from one literal (``"detect"``) to three
(``"mine"``, ``"count"``) across PRs 5–6, and each addition had to
remember *two* dispatch sites: ``execute_unit`` (what running the unit
does) and ``consolidate_slot_results`` (how a slot's partial results
fold into the run outcome).  Forgetting the second site is silent —
results are dropped, not raised — which is why this is a cross-file
*project* rule rather than a module lint:

* :class:`ExecuteDispatchRule` (RPL040) — a constructed kind literal
  (``WorkUnit(kind=...)``, ``UnitPhase(kind=...)``,
  ``replace(unit, kind=...)``, or the dataclass default) with no
  ``….kind == "..."`` branch in ``execute_unit``;
* :class:`ConsolidateDispatchRule` (RPL041) — the same for
  ``consolidate_slot_results``.

Both rules stay silent when the project has no dispatcher of that name
(fixture trees must supply one to exercise them).

Update-op kinds are dispatched in one module only: RPL042 flags a
comparison with one outside ``repro/graph/updates.py``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..graph.updates import OP_KINDS
from .framework import (
    Finding,
    ModuleContext,
    ProjectContext,
    ProjectRule,
    Rule,
    call_name,
    register,
)

#: call / class names whose ``kind=`` keyword constructs a work-unit kind
_CONSTRUCTORS = frozenset({"WorkUnit", "UnitPhase", "replace"})
_UNIT_CLASS = "WorkUnit"

#: one construction site: (kind literal, module, AST node)
Construction = Tuple[str, ModuleContext, ast.AST]


def collect_constructions(project: ProjectContext) -> List[Construction]:
    """Every ``kind`` literal a work unit can be constructed with."""
    out: List[Construction] = []
    for module in project.modules:
        for node in module.nodes(ast.Call):
            if call_name(node) not in _CONSTRUCTORS:
                continue
            for keyword in node.keywords:
                if keyword.arg != "kind":
                    continue
                value = keyword.value
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    out.append((value.value, module, node))
        for cls in module.nodes(ast.ClassDef):
            if cls.name != _UNIT_CLASS:
                continue
            for stmt in cls.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "kind"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    out.append((stmt.value.value, module, stmt))
    return out


def handled_kinds(
    project: ProjectContext, dispatcher: str
) -> Optional[Set[str]]:
    """Kind literals positively compared against ``.kind`` in ``dispatcher``.

    Counts ``unit.kind == "lit"`` and ``unit.kind in ("a", "b")``;
    ``!=``/``not in`` guards are exclusions, not handling.  Returns
    ``None`` when no function named ``dispatcher`` exists anywhere.
    """
    found_dispatcher = False
    handled: Set[str] = set()
    for module in project.modules:
        for func in module.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
            if func.name != dispatcher:
                continue
            found_dispatcher = True
            for node in ast.walk(func):
                if not isinstance(node, ast.Compare):
                    continue
                left = node.left
                if not (
                    isinstance(left, ast.Attribute) and left.attr == "kind"
                ):
                    continue
                for op, comparator in zip(node.ops, node.comparators):
                    if isinstance(op, ast.Eq) and isinstance(
                        comparator, ast.Constant
                    ):
                        if isinstance(comparator.value, str):
                            handled.add(comparator.value)
                    elif isinstance(op, ast.In) and isinstance(
                        comparator, (ast.Tuple, ast.List, ast.Set)
                    ):
                        for element in comparator.elts:
                            if isinstance(
                                element, ast.Constant
                            ) and isinstance(element.value, str):
                                handled.add(element.value)
    return handled if found_dispatcher else None


class _DispatchRule(ProjectRule):
    """Shared machinery: constructed kinds must appear in ``dispatcher``."""

    dispatcher = ""

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        handled = handled_kinds(project, self.dispatcher)
        if handled is None:
            return []  # no dispatcher in this tree: nothing to be exhaustive
        findings: List[Finding] = []
        reported: Dict[Tuple[str, str], bool] = {}
        for kind, module, node in collect_constructions(project):
            if kind in handled:
                continue
            if reported.setdefault((module.path, kind), False):
                continue
            reported[(module.path, kind)] = True
            findings.append(module.finding(
                self.code, node,
                f"work-unit kind {kind!r} is constructed here but "
                f"`{self.dispatcher}` has no `== {kind!r}` branch; "
                "units of this kind would "
                + self.consequence,
            ))
        return findings


@register
class ExecuteDispatchRule(_DispatchRule):
    """Every constructed ``WorkUnit.kind`` needs an ``execute_unit`` branch.

    ``execute_unit`` raises on unknown kinds, so the failure is loud —
    but only at run time, on the first workload that constructs the new
    kind.  The rule moves that discovery to lint time.
    """

    code = "RPL040"
    name = "execute-dispatch-exhaustive"
    dispatcher = "execute_unit"
    consequence = "raise at run time on first execution"


@register
class ConsolidateDispatchRule(_DispatchRule):
    """Every constructed kind needs a ``consolidate_slot_results`` story.

    Consolidation *skips* entries it does not recognise, so a missing
    branch silently drops every result the new kind produces — the
    workload appears to run and returns nothing.  This is the dangerous
    half of the pair.
    """

    code = "RPL041"
    name = "consolidate-dispatch-exhaustive"
    dispatcher = "consolidate_slot_results"
    consequence = "be silently dropped at consolidation"


@register
class UpdateOpKindRule(Rule):
    """Update-op kinds are compared only in ``repro/graph/updates.py``.

    Nine interpreters in five modules once each decided what an op kind
    means, so one op was accepted in one place and crashed in another
    after the graph had changed.  A ``kind == "attr"`` elsewhere is a new
    interpreter: call the vocabulary, or suppress inline for a different
    tuple protocol that reuses a kind name.
    """

    code = "RPL042"
    name = "update-op-kind-outside-vocabulary"

    def applies_to(self, module: ModuleContext) -> bool:
        return not module.path.endswith("graph/updates.py")

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        for node in module.nodes(ast.Compare):
            for operand in [node.left, *node.comparators]:
                elements = getattr(operand, "elts", [operand])
                kinds = [e.value for e in elements if isinstance(
                    e, ast.Constant) and e.value in OP_KINDS]
                if kinds:
                    yield module.finding(self.code, node, (
                        f"comparison with update-op kind {kinds[0]!r}; "
                        "only repro/graph/updates.py interprets op kinds"))
                    break
