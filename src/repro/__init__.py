"""repro — GFDs: Functional Dependencies for Graphs.

A from-scratch reproduction of Fan, Wu & Xu, *Functional Dependencies for
Graphs* (SIGMOD 2016): the GFD dependency class for property graphs, its
static analyses (satisfiability, implication), sequential and
parallel-scalable validation (``repVal``/``disVal``), and the evaluation
harness regenerating the paper's tables and figures.

Quickstart::

    from repro import PropertyGraph, parse_gfd, det_vio

    g = PropertyGraph()
    g.add_node(1, "country", {"val": "Australia"})
    g.add_node(2, "city", {"val": "Canberra"})
    g.add_node(3, "city", {"val": "Melbourne"})
    g.add_edge(1, 2, "capital")
    g.add_edge(1, 3, "capital")

    phi2 = parse_gfd(
        "x:country -capital-> y:city; x -capital-> z:city",
        " => y.val = z.val", name="capital")
    print(det_vio([phi2], g))          # the Canberra/Melbourne clash
"""

from .graph import (
    Fragmentation,
    GraphError,
    PropertyGraph,
    WILDCARD,
    graph_from_edges,
    greedy_edge_cut_partition,
    hash_partition,
    load_graph,
    power_law_graph,
    save_graph,
    skewed_power_law_graph,
)
from .pattern import (
    GraphPattern,
    PatternError,
    parse_pattern,
    pattern_from_edges,
    pivot_vector,
)
from .matching import SubgraphMatcher, count_matches, find_matches, has_match
from .core import (
    CFD,
    ConstantLiteral,
    DiscoveredGFD,
    EvidenceAggregate,
    FD,
    GFD,
    GFDError,
    VariableLiteral,
    Violation,
    build_model,
    det_vio,
    discover_gfds,
    generate_gfds,
    implies,
    is_satisfiable,
    make_gfd,
    minimal_cover,
    parse_gfd,
    parse_literal,
    relation_to_graph,
    satisfies,
    violation_entities,
    violations_of,
)
from .core.gfd import denial
from .parallel import (
    ClusterReport,
    CostModel,
    FaultPlan,
    FaultPolicy,
    FaultStats,
    MaterialiserStats,
    ShippingStats,
    SlotResult,
    ValidationRun,
    dis_nop,
    dis_ran,
    dis_val,
    rep_nop,
    rep_ran,
    rep_val,
    sequential_run,
)
from .core.incremental import IncrementalValidator, UpdateDiff, apply_updates
from .session import DiscoveryPhase, DiscoveryRun, ValidationSession
from .service import (
    ServiceStats,
    Subscription,
    ValidationService,
    ViolationDiff,
    coalesce_ops,
)
from .quality import accuracy, inject_noise, validate_bigdansing, validate_gcfd
from .datasets import Dataset, dbpedia_like, pokec_like, yago_like

__version__ = "1.0.0"

__all__ = [
    # graph substrate
    "Fragmentation",
    "GraphError",
    "PropertyGraph",
    "WILDCARD",
    "graph_from_edges",
    "greedy_edge_cut_partition",
    "hash_partition",
    "load_graph",
    "power_law_graph",
    "save_graph",
    "skewed_power_law_graph",
    # patterns + matching
    "GraphPattern",
    "PatternError",
    "parse_pattern",
    "pattern_from_edges",
    "pivot_vector",
    "SubgraphMatcher",
    "count_matches",
    "find_matches",
    "has_match",
    # GFDs
    "CFD",
    "ConstantLiteral",
    "DiscoveredGFD",
    "FD",
    "GFD",
    "GFDError",
    "VariableLiteral",
    "Violation",
    "build_model",
    "denial",
    "det_vio",
    "discover_gfds",
    "generate_gfds",
    "implies",
    "is_satisfiable",
    "make_gfd",
    "minimal_cover",
    "parse_gfd",
    "parse_literal",
    "relation_to_graph",
    "satisfies",
    "violation_entities",
    "violations_of",
    # parallel validation + the session layer
    "ClusterReport",
    "CostModel",
    "DiscoveryPhase",
    "DiscoveryRun",
    "EvidenceAggregate",
    "MaterialiserStats",
    "ShippingStats",
    "FaultPlan",
    "FaultPolicy",
    "FaultStats",
    "SlotResult",
    "ValidationRun",
    "ValidationSession",
    "dis_nop",
    "dis_ran",
    "dis_val",
    "rep_nop",
    "rep_ran",
    "rep_val",
    "sequential_run",
    # continuous validation (streaming updates)
    "IncrementalValidator",
    "ServiceStats",
    "Subscription",
    "UpdateDiff",
    "ValidationService",
    "ViolationDiff",
    "apply_updates",
    "coalesce_ops",
    # quality + datasets
    "accuracy",
    "inject_noise",
    "validate_bigdansing",
    "validate_gcfd",
    "Dataset",
    "dbpedia_like",
    "pokec_like",
    "yago_like",
]
