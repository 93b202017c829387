"""repro.analysis — repo-invariant static analysis for the engine.

An AST-based lint pass whose rules encode this codebase's *own*
invariants — the bug classes PRs 1–8's differential suites kept
re-catching dynamically: order-dependent iteration (RPL001/002),
lock-discipline holes (RPL010), shm lifecycle splits (RPL020–022),
shipping-accounting drift (RPL030), non-exhaustive work-unit dispatch
(RPL040/041), update-op kinds read outside their module (RPL042),
swallowed exceptions in the fault-tolerant plane (RPL050), and bound
methods stored on their own instance (RPL070).  Run it with::

    PYTHONPATH=src python -m repro.analysis

See ``--explain RPLxxx`` for any rule's full rationale, and the README
"Static analysis" section for the suppression / baseline workflow.
"""

from .framework import (
    SUPPRESSION_CODE,
    AnalysisReport,
    Finding,
    ModuleContext,
    ProjectContext,
    ProjectRule,
    Rule,
    RULES,
    register,
    run_analysis,
)

# importing the rule modules registers their rules in RULES
from . import determinism  # noqa: F401  (registration side effect)
from . import locking  # noqa: F401
from . import shm  # noqa: F401
from . import shipping  # noqa: F401
from . import dispatch  # noqa: F401
from . import faults  # noqa: F401
from . import heap  # noqa: F401

__all__ = [
    "SUPPRESSION_CODE",
    "AnalysisReport",
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "RULES",
    "register",
    "run_analysis",
]
