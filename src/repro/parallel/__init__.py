"""Parallel-scalable GFD validation (Sections 5.2 and 6): the workload
model, balancing/assignment strategies, the simulated cost-accounted
cluster, and the repVal/disVal algorithm families with their ablation
variants."""

from .cluster import ClusterReport, CostModel, SimulatedCluster, run_concurrently
from .workload import WorkUnit, block_of, block_size_of, estimate_workload, total_weight, unit_weight
from .balancing import (
    lpt_partition,
    makespan,
    makespan_lower_bound,
    random_partition,
)
from .assignment import balance_only_assign, bicriteria_assign, random_assign
from .multiquery import (
    GroupMember,
    SharedGroup,
    build_shared_groups,
    singleton_groups,
)
from .skew import split_oversized, split_statistics
from .engine import (
    MaterialiserStats,
    UnitResult,
    ValidationRun,
    execute_unit,
    run_assignment,
    run_units,
    sequential_run,
)
from .executors import (
    EXECUTORS,
    SHIP_MODES,
    MatchStore,
    MatchStoreStats,
    MultiprocessExecutor,
    ShardCache,
    ShardPlane,
    ShippingStats,
    SimulatedExecutor,
    resolve_executor,
    shm_available,
    worker_graph,
)
from .faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultPolicy,
    FaultStats,
    resolve_fault_policy,
)
from .repval import rep_nop, rep_ran, rep_val
from .disval import dis_nop, dis_ran, dis_val
from .reduction import reduce_rules, reduction_ratio

__all__ = [
    "ClusterReport",
    "CostModel",
    "SimulatedCluster",
    "run_concurrently",
    "WorkUnit",
    "block_of",
    "block_size_of",
    "estimate_workload",
    "total_weight",
    "unit_weight",
    "lpt_partition",
    "makespan",
    "makespan_lower_bound",
    "random_partition",
    "balance_only_assign",
    "bicriteria_assign",
    "random_assign",
    "GroupMember",
    "SharedGroup",
    "build_shared_groups",
    "singleton_groups",
    "split_oversized",
    "split_statistics",
    "MatchStore",
    "MatchStoreStats",
    "MaterialiserStats",
    "UnitResult",
    "ValidationRun",
    "execute_unit",
    "run_assignment",
    "run_units",
    "sequential_run",
    "EXECUTORS",
    "SHIP_MODES",
    "MultiprocessExecutor",
    "ShardCache",
    "ShardPlane",
    "ShippingStats",
    "SimulatedExecutor",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultPolicy",
    "FaultStats",
    "resolve_fault_policy",
    "resolve_executor",
    "shm_available",
    "worker_graph",
    "rep_nop",
    "rep_ran",
    "rep_val",
    "dis_nop",
    "dis_ran",
    "dis_val",
    "reduce_rules",
    "reduction_ratio",
]
