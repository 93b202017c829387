"""Common shape for the dataset stand-ins.

The paper evaluates on DBpedia, YAGO2 and Pokec; offline we generate
synthetic graphs with the same *relevant* structure.
Every builder returns a :class:`Dataset`: the graph, a curated GFD set
matching the paper's examples, and the ground-truth entity set of seeded
inconsistencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from ..graph.graph import NodeId, PropertyGraph
from ..core.gfd import GFD


@dataclass
class Dataset:
    """A benchmark dataset: graph + curated rules + seeded ground truth."""

    name: str
    graph: PropertyGraph
    gfds: List[GFD] = field(default_factory=list)
    truth_entities: Set[NodeId] = field(default_factory=set)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Dataset({self.name}, |V|={self.graph.num_nodes}, "
            f"|E|={self.graph.num_edges}, ‖Σ‖={len(self.gfds)}, "
            f"|truth|={len(self.truth_entities)})"
        )
