"""``repVal``: parallel error detection over a replicated graph (§6.1).

The graph is replicated at every processor, so no data is shipped; the
whole game is balancing the workload.  The algorithm (Fig. 4):

1. ``bPar`` — estimate ``W(Σ, G)`` in parallel and compute a balanced
   n-partition with the greedy 2-approximation (Proposition 12);
2. ``localVio`` — each processor detects violations inside the data blocks
   of its assigned units;
3. the coordinator unions the per-processor violation sets.

Variants reproduced for the evaluation:

* ``repran`` — random unit assignment instead of the balanced partition;
* ``repnop`` — no multi-query sharing and no replicate-and-split.

Parallel time follows Theorem 10:
``O(t(|Σ|,|G|)/n + |W|(n + log |W|))``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..graph.graph import PropertyGraph
from ..core.gfd import GFD
from .cluster import CostModel
from .engine import ValidationRun

#: default replicate-and-split threshold, as a multiple of the mean block
#: size (only blocks dramatically above the mean are split).
SPLIT_FACTOR = 8.0


def rep_val(
    sigma: Sequence[GFD],
    graph: PropertyGraph,
    n: int,
    cost_model: Optional[CostModel] = None,
    assignment: str = "balanced",
    optimize: bool = True,
    split_threshold: Optional[int] = None,
    seed: int = 0,
    executor: str = "simulated",
    processes: Optional[int] = None,
    ship_mode: str = "auto",
) -> ValidationRun:
    """Compute ``Vio(Σ, G)`` with ``n`` processors and a replicated ``G``.

    ``assignment`` is ``"balanced"`` (the paper's bPar) or ``"random"``
    (the ``repran`` baseline).  ``optimize=False`` gives ``repnop``.
    ``split_threshold`` overrides the automatic skew threshold; pass ``0``
    to disable splitting entirely.  ``executor`` selects the execution
    backend (``"simulated"``/``"process"``/``"auto"``, see
    :mod:`repro.parallel.executors`); ``processes`` sizes the real pool;
    ``ship_mode`` picks how full shards travel to worker processes
    (``"pickle"``/``"shm"``/``"auto"`` — the shard plane).

    This is a thin facade over the session layer: each call constructs a
    throwaway :class:`~repro.session.ValidationSession` and runs one
    replicated validation — identical results, no state kept.  A process
    run starts the session's supervised pool with at most ``n`` workers
    and shuts it down on return; ``run.shipping`` reports what it
    shipped, fault recoveries included.  Repeated-validation workloads
    should hold a session instead and call
    :meth:`~repro.session.ValidationSession.validate` to reuse the worker
    pool, shards, and workload estimates.
    """
    from ..session import ValidationSession

    with ValidationSession(
        graph,
        sigma,
        executor=executor,
        processes=n if processes is None else min(processes, n),
        cost_model=cost_model,
        ship_mode=ship_mode,
    ) as session:
        return session.validate(
            n=n,
            assignment=assignment,
            optimize=optimize,
            split_threshold=split_threshold,
            seed=seed,
        )


def rep_ran(sigma: Sequence[GFD], graph: PropertyGraph, n: int, **kwargs) -> ValidationRun:
    """The ``repran`` baseline: random assignment, optimisations on."""
    return rep_val(sigma, graph, n, assignment="random", **kwargs)


def rep_nop(sigma: Sequence[GFD], graph: PropertyGraph, n: int, **kwargs) -> ValidationRun:
    """The ``repnop`` baseline: balanced assignment, optimisations off."""
    return rep_val(sigma, graph, n, optimize=False, **kwargs)
