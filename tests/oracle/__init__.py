"""Reference implementations the differential suites compare against.

:mod:`oracle.matcher` is the original dict-of-dicts subgraph matcher: a
plain backtracking walk over :class:`~repro.graph.PropertyGraph`
adjacency dicts with a label-and-degree candidate filter.  It shares no
code with the product matcher's snapshot index, which is what makes it
a useful reference.
"""

from .matcher import (
    OracleMatcher,
    oracle_candidates,
    oracle_det_vio,
    oracle_discover,
    oracle_matches,
)

__all__ = [
    "OracleMatcher",
    "oracle_candidates",
    "oracle_det_vio",
    "oracle_discover",
    "oracle_matches",
]
