"""``disVal``: parallel error detection over a fragmented graph (§6.2).

When ``G`` is partitioned across processors, validation becomes a
bi-criteria problem: balance the workload *and* minimise the data shipped
to assemble data blocks that straddle fragments.  The algorithm:

1. ``disPar`` — each fragment estimates its partial work units (local
   candidates, local block shares, border nodes); the coordinator
   assembles complete units and solves the bi-criteria assignment with
   the greedy 2-approximation (Proposition 13);
2. ``dlovalVio`` — each processor detects violations for its units,
   choosing per unit between *prefetching* (ship the missing block share)
   and *partial detection* (ship partial matches, sized via graph
   simulation on the locally-resident share), whichever is estimated
   cheaper;
3. the coordinator unions the per-processor violation sets.

Variants: ``disran`` (random assignment) and ``disnop`` (no multi-query
sharing / no splitting).  Parallel time follows Theorem 11.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from ..graph.partition import Fragmentation
from ..graph.simulation import graph_simulation
from ..core.gfd import GFD
from .cluster import CostModel, SimulatedCluster
from .engine import BlockMaterialiser, ValidationRun
from .workload import WorkUnit

#: cap on the per-fragment partial-match volume considered shippable
PARTIAL_MATCH_CAP = 10_000


def dis_val(
    sigma: Sequence[GFD],
    fragmentation: Fragmentation,
    cost_model: Optional[CostModel] = None,
    assignment: str = "bicriteria",
    optimize: bool = True,
    split_threshold: Optional[int] = None,
    seed: int = 0,
    executor: str = "simulated",
    processes: Optional[int] = None,
    ship_mode: str = "auto",
) -> ValidationRun:
    """Compute ``Vio(Σ, G)`` over a fragmented graph.

    ``assignment`` ∈ {``"bicriteria"`` (the paper's disPar),
    ``"random"`` (disran), ``"balance_only"`` (ablation: ignore
    communication)}.  ``optimize=False`` gives ``disnop``.  ``executor``
    selects the execution backend (``"simulated"``/``"process"``/
    ``"auto"``); with ``"process"`` each worker process receives and
    indexes only its shard — the resident share of its assigned blocks —
    mirroring ``dlovalVio``'s locally-available data after prefetching
    (see :mod:`repro.parallel.executors`); ``ship_mode`` picks how those
    shards travel (``"pickle"``/``"shm"``/``"auto"`` — the shard plane).

    This is a thin facade over the session layer: each call constructs a
    throwaway :class:`~repro.session.ValidationSession` and runs one
    fragmented validation — identical results, no state kept.  A process
    run starts the session's supervised pool with at most one worker per
    fragment and shuts it down on return; ``run.shipping`` reports what
    it shipped, fault recoveries included.  Repeated validation over the
    *same* fragmentation should hold a session instead: its workers then
    keep their resident shares and only block-share deltas are shipped.
    """
    from ..session import ValidationSession

    with ValidationSession(
        fragmentation.graph,
        sigma,
        executor=executor,
        processes=(
            fragmentation.n if processes is None
            else min(processes, fragmentation.n)
        ),
        cost_model=cost_model,
        ship_mode=ship_mode,
    ) as session:
        return session.validate(
            fragmentation=fragmentation,
            assignment=assignment,
            optimize=optimize,
            split_threshold=split_threshold,
            seed=seed,
        )


def _charge_data_shipment(
    sigma: Sequence[GFD],
    fragmentation: Fragmentation,
    plan: Sequence[Sequence[WorkUnit]],
    cluster: SimulatedCluster,
    materialiser: BlockMaterialiser,
) -> None:
    """Account per-unit communication, choosing the cheaper scheme.

    *Prefetching* ships the block share missing from the worker's fragment
    (block nodes already fetched by earlier units on the same worker are
    free).  *Partial detection* ships partial matches instead, estimated
    via graph simulation of the leader pattern over the locally-resident
    part of the block.  ``dlovalVio`` picks the cheaper per unit.
    """
    for worker, worker_units in enumerate(plan):
        resident: Set = set()
        for unit in worker_units:
            missing = unit.missing_size(worker)
            if missing <= 0:
                resident |= unit.block_nodes
                continue
            new_nodes = (
                unit.block_nodes
                if not resident
                else unit.block_nodes - resident
            )
            prefetch_cost = (
                missing * (len(new_nodes) / len(unit.block_nodes))
                if unit.block_nodes
                else 0.0
            )
            partial_cost = _partial_match_cost(
                sigma, fragmentation, unit, worker, materialiser
            )
            shipped = min(prefetch_cost, partial_cost) * unit.cost_share
            if shipped > 0:
                cluster.ship_to(worker, size=shipped, messages=1)
            resident |= unit.block_nodes
        # disPar metadata: one message per unit carrying ⟨v_z̄, |G_z̄|, B_z̄⟩.
        if worker_units:
            cluster.workers[worker].messages += 1


def _partial_match_cost(
    sigma: Sequence[GFD],
    fragmentation: Fragmentation,
    unit: WorkUnit,
    worker: int,
    materialiser: BlockMaterialiser,
) -> float:
    """Estimated bytes to ship partial matches instead of block data.

    Graph simulation of the leader pattern over the (whole) data block
    over-approximates which nodes can participate in any match; the
    foreign-owned portion of the simulation images is what the other
    fragments would ship as partial matches (one entry per node per
    pattern role).  Nodes outside every image can never join a match, so
    not shipping them is sound.
    """
    leader = sigma[unit.group.leader_index]
    owner = fragmentation.owner
    if all(owner[node] == worker for node in unit.block_nodes):
        return 0.0
    block = materialiser.block(unit.block_nodes)
    sim = graph_simulation(leader.pattern, block)
    volume = 0
    for image in sim.values():
        volume += sum(1 for node in image if owner[node] != worker)
        if volume >= PARTIAL_MATCH_CAP:
            return float(PARTIAL_MATCH_CAP)
    return float(volume)


def dis_ran(
    sigma: Sequence[GFD], fragmentation: Fragmentation, **kwargs
) -> ValidationRun:
    """The ``disran`` baseline: random assignment, optimisations on."""
    return dis_val(sigma, fragmentation, assignment="random", **kwargs)


def dis_nop(
    sigma: Sequence[GFD], fragmentation: Fragmentation, **kwargs
) -> ValidationRun:
    """The ``disnop`` baseline: bi-criteria assignment, optimisations off."""
    return dis_val(sigma, fragmentation, optimize=False, **kwargs)
