"""Replicate-and-split for skewed graphs (Appendix, Fig. 8).

Power-law graphs concentrate edges on hub nodes, so a few data blocks
``G_z̄`` dwarf the rest and a single worker's unit dominates the makespan.
The paper's remedy: for units whose block exceeds a threshold θ, replicate
the unit ``k = ⌈|G_z̄| / θ⌉`` times with the same pivot, each replica
responsible for a θ-sized share; errors are then detected by shipping
partial matches between the replicas rather than whole blocks.

In this reproduction the *primary* sub-unit executes the detection once
(so ``Vio(Σ, G)`` stays exact) while the measured matching cost is shared
evenly across all ``k`` sub-units' workers, and each non-primary replica
is charged its partial-match shipment — the parallel-time effect of the
real sharded enumeration.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Sequence

from .workload import WorkUnit


def split_oversized(
    units: Sequence[WorkUnit], threshold: int
) -> List[WorkUnit]:
    """Apply replicate-and-split to every unit with ``block_size > θ``.

    Returns a new unit list; oversized units are replaced by ``k``
    sub-units sharing a ``split_id``, the first of which is the primary.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    out: List[WorkUnit] = []
    next_split = 0
    for unit in units:
        if unit.block_size <= threshold:
            out.append(unit)
            continue
        k = math.ceil(unit.block_size / threshold)
        for replica in range(k):
            out.append(
                replace(
                    unit,
                    weight=unit.weight,  # weight is pre-share; cost_share=1/k
                    split_id=next_split,
                    split_k=k,
                    primary=replica == 0,
                )
            )
        next_split += 1
    return out


def split_statistics(units: Sequence[WorkUnit]) -> dict:
    """Summary counters for reporting/benchmarks."""
    split_units = [u for u in units if u.split_id is not None]
    return {
        "total_units": len(units),
        "split_units": len(split_units),
        "split_groups": len({u.split_id for u in split_units}),
        "max_block": max((u.block_size for u in units), default=0),
    }
