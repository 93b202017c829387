"""Shared fixtures for the benchmark harness.

Every module regenerates one of the paper's tables/figures.  Graphs are
scaled-down stand-ins and "times" are the simulated cluster's deterministic
cost units, so the *shapes* — orderings, speedup ratios, crossovers — are
reproducible on any machine; pytest-benchmark additionally records wall
time for one representative configuration per figure.

Each bench writes its series to ``benchmarks/results/<name>.txt`` and
prints it (visible with ``pytest -s``).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro import generate_gfds, power_law_graph
from repro.datasets import dbpedia_like, pokec_like, yago_like


@pytest.fixture(scope="session")
def bench_datasets() -> Dict[str, object]:
    """The three real-life dataset stand-ins at benchmark scale."""
    return {
        "DBpedia": dbpedia_like.build(scale=700, seed=1),
        "YAGO2": yago_like.build(scale=260, seed=1),
        "Pokec": pokec_like.build(scale=600, seed=1),
    }


@pytest.fixture(scope="session")
def bench_workloads(bench_datasets):
    """Generated Σ per dataset (‖Σ‖=8, |Q|=2 scaled from the paper's 50/5)."""
    return {
        name: generate_gfds(ds.graph, count=8, pattern_edges=2, seed=2)
        for name, ds in bench_datasets.items()
    }


@pytest.fixture(scope="session")
def synthetic_graph():
    """The synthetic power-law graph used by Fig. 6/8-style sweeps."""
    return power_law_graph(3000, 6000, seed=5, domain_size=25)
