"""The simulated cluster: cost-accounted parallel execution.

The paper's experiments run on 4–20 Amazon EC2 instances; this module is
the documented substitution.  Every work unit is executed
*for real* — the matcher runs and real violations are produced — but the
unit's measured cost is charged to the worker it was assigned to, and the
reported *parallel time* is what the paper's figures plot:

    T  =  T_plan  +  max_i(comp_i)  +  T_comm,

where ``T_plan`` models the coordinator's estimation/partitioning work,
``comp_i`` accumulates the matching/loading cost of worker ``i``'s units,
and ``T_comm`` models data shipment (bytes over a shared-bandwidth
network, shipped in parallel per worker — which is why the paper observes
communication time to be insensitive to ``n``).

Costs are deterministic, derived from matcher step counts and data-block
sizes rather than wall clocks, so benchmark curves are reproducible on any
machine.  A ``threads`` backend is also provided to run a plan with real
concurrency.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence


@dataclass(frozen=True)
class CostModel:
    """Calibration constants for the simulated cluster.

    All times are in abstract "cost units"; only ratios matter for the
    reproduced figures.  Defaults are tuned so communication lands in the
    paper's observed 12–24% share of total time for ``disVal`` on the
    benchmark graphs.
    """

    #: cost per matcher search step (candidate extension attempted)
    step_cost: float = 1.0
    #: cost to load / scan one unit of data-block size at a worker
    load_cost: float = 0.25
    #: cost to estimate one unit of block size during workload estimation
    estimate_cost: float = 0.05
    #: coordinator cost per unit during partitioning (the n·|W| term)
    partition_unit_cost: float = 0.002
    #: network: cost per byte-equivalent of shipped data
    ship_cost: float = 0.2
    #: network: fixed cost per message exchanged
    message_cost: float = 2.0
    #: simultaneous transfers supported by the interconnect per worker
    bandwidth_share: float = 1.0


@dataclass
class WorkerState:
    """Per-processor accumulators."""

    index: int
    computation: float = 0.0
    shipped_bytes: float = 0.0
    messages: int = 0
    units: int = 0

    def charge(self, cost: float) -> None:
        """Add computation cost to this worker."""
        self.computation += cost

    def ship(self, size: float, messages: int = 1) -> None:
        """Record ``size`` byte-equivalents shipped to this worker."""
        self.shipped_bytes += size
        self.messages += messages


@dataclass
class ClusterReport:
    """What a validation run reports — the quantities Figures 5–8 plot."""

    n: int
    planning_time: float
    makespan: float
    communication_time: float
    total_computation: float
    total_shipped: float
    per_worker_computation: List[float]
    per_worker_shipped: List[float]
    units: int

    @property
    def parallel_time(self) -> float:
        """``T(|Σ|, |G|, n)`` — the headline measurement."""
        return self.planning_time + self.makespan + self.communication_time

    @property
    def communication_share(self) -> float:
        """Fraction of parallel time spent on communication."""
        total = self.parallel_time
        return self.communication_time / total if total else 0.0

    @property
    def balance(self) -> float:
        """Makespan over mean worker computation (1.0 = perfect balance)."""
        mean = (
            sum(self.per_worker_computation) / self.n
            if self.n and sum(self.per_worker_computation)
            else 0.0
        )
        return self.makespan / mean if mean else 1.0

    def speedup_against(self, sequential_cost: float) -> float:
        """Speedup relative to a sequential cost in the same units."""
        return sequential_cost / self.parallel_time if self.parallel_time else 0.0


class SimulatedCluster:
    """A coordinator plus ``n`` cost-accounted workers."""

    def __init__(self, n: int, cost_model: Optional[CostModel] = None) -> None:
        if n < 1:
            raise ValueError("need at least one worker")
        self.n = n
        self.cost = cost_model or CostModel()
        self.workers = [WorkerState(index=i) for i in range(n)]
        self.planning_time = 0.0

    # ------------------------------------------------------------------
    # coordinator-side accounting
    # ------------------------------------------------------------------
    def charge_planning(self, cost: float) -> None:
        """Account coordinator work (estimation splits, partitioning)."""
        self.planning_time += cost

    def charge_estimation(self, per_candidate_sizes: Sequence[float]) -> None:
        """Account workload estimation, balanced over the ``n`` workers.

        ``bPar``/``disPar`` split candidate enumeration across processors
        via m-balanced ranges; we model that as an even split of the total
        estimation cost, so estimation time falls as ``1/n``.
        """
        total = sum(per_candidate_sizes) * self.cost.estimate_cost
        self.planning_time += total / self.n

    def charge_partitioning(self, num_units: int) -> None:
        """The ``O(n·|W| + |W| log |W|)`` partitioning term (Prop. 12)."""
        w = max(1, num_units)
        self.planning_time += self.cost.partition_unit_cost * (
            self.n * w + w * math.log2(w + 1)
        )

    # ------------------------------------------------------------------
    # worker-side accounting
    # ------------------------------------------------------------------
    def charge_unit(
        self, worker: int, steps: int, block_size: float
    ) -> None:
        """Account one executed work unit at ``worker``."""
        state = self.workers[worker]
        state.charge(steps * self.cost.step_cost + block_size * self.cost.load_cost)
        state.units += 1

    def ship_to(self, worker: int, size: float, messages: int = 1) -> None:
        """Account data shipped *to* ``worker`` (prefetch or partial matches)."""
        self.workers[worker].ship(
            size * self.cost.ship_cost, messages
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> ClusterReport:
        """Aggregate the run into a :class:`ClusterReport`."""
        comp = [w.computation for w in self.workers]
        shipped = [w.shipped_bytes for w in self.workers]
        messages = sum(w.messages for w in self.workers)
        comm_time = (
            max(shipped) / self.cost.bandwidth_share if shipped else 0.0
        ) + messages * self.cost.message_cost / max(1, self.n)
        return ClusterReport(
            n=self.n,
            planning_time=self.planning_time,
            makespan=max(comp) if comp else 0.0,
            communication_time=comm_time,
            total_computation=sum(comp),
            total_shipped=sum(shipped),
            per_worker_computation=comp,
            per_worker_shipped=shipped,
            units=sum(w.units for w in self.workers),
        )


def run_concurrently(
    tasks_per_worker: Sequence[Sequence],
    execute: Callable,
    max_threads: Optional[int] = None,
) -> List[List]:
    """Run per-worker task lists with real threads (demo backend).

    Each worker's tasks run sequentially on its thread, workers run
    concurrently — the execution shape of the simulated plan.  Returns the
    per-worker result lists in worker order.
    """
    def run_worker(tasks: Sequence) -> List:
        return [execute(task) for task in tasks]

    workers = len(tasks_per_worker)
    with ThreadPoolExecutor(max_workers=max_threads or workers) as pool:
        futures = [pool.submit(run_worker, tasks) for tasks in tasks_per_worker]
        return [future.result() for future in futures]
