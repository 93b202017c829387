"""Workload inputs, generated from the seed and written to files.

The program under test only ever sees these files (read back through
``load_graph`` / ``parse_rule_file``) and, for ``serve-mixed``, the op
stream, which is written to a file too and read back as fresh objects:
no object of a graph the benchmark built stays resident while the
program runs.
"""

from __future__ import annotations

import json
import os
import random
from typing import List, Sequence, Tuple

from repro import generate_gfds, load_graph, power_law_graph, save_graph
from repro.cli import format_rule_file
from repro.datasets import pokec_like

#: ``validate-powerlaw`` / ``serve-mixed`` graph: 20 k nodes, 40 k edges,
#: attribute domain 25 (small, so the rules find violations)
POWERLAW_NODES = 20_000
POWERLAW_EDGES = 40_000
POWERLAW_DOMAIN = 25
#: Σ: 8 GFDs with two-edge patterns
POWERLAW_RULES = 8
POWERLAW_PATTERN_EDGES = 2
#: The topology (and Σ, generated from it) is fixed; ``--seed`` draws
#: every attribute value and the serve op stream.  Hub neighbourhoods
#: of a power-law topology decide the work: over ten generator seeds
#: the summed block size of Σ's units ranged 46 k-86 k (interquartile
#: spread 48 % of the median), so a seeded topology would make the
#: benchmark measure the seed instead of the program.
TOPOLOGY_SEED = 0

#: ``discover-pokec`` graph: 150 regular accounts.  Rescaled from 600
#: so that one run holds enough cold and warm discovers for steady
#: medians (discover time grows with the number of work units, which
#: grows linearly with the scale).
POKEC_SCALE = 150

#: serve op mix: 80 % attr writes, 10 % of nodes take 80 % of them,
#: the rest are edge deletes / re-inserts
ATTR_SHARE = 0.8
HOT_NODE_SHARE = 0.1
HOT_WRITE_SHARE = 0.8
#: removed edges waiting for their re-insert, at most.  An edge op
#: re-inserts with probability (waiting edges) / MAX_REMOVED, so about
#: half as many edges wait after the first few hundred edge ops, for
#: every seed.  How many edges wait sets how often a re-insert cancels
#: a delete of the same batch, and edge ops are the costly ones.  With a
#: fair coin instead, the waiting count wandered with the seed: over four
#: seeds the incremental path applied the overload window's ops at
#: 960-1840 ops/s on a 2-CPU VM, against 790-910 over five with this rule.
MAX_REMOVED = 200


def write_powerlaw(workdir: str, seed: int) -> Tuple[str, str]:
    """Write the power-law graph with seeded attribute values, and Σ;
    returns ``(graph, rules)``."""
    graph = power_law_graph(
        POWERLAW_NODES, POWERLAW_EDGES, domain_size=POWERLAW_DOMAIN,
        seed=TOPOLOGY_SEED,
    )
    sigma = generate_gfds(
        graph, count=POWERLAW_RULES, pattern_edges=POWERLAW_PATTERN_EDGES,
        seed=TOPOLOGY_SEED,
    )
    rng = random.Random(seed)
    for node in graph.nodes():
        for attr in sorted(graph.attrs(node)):
            graph.set_attr(node, attr, f"v{rng.randrange(POWERLAW_DOMAIN)}")
    return _write(workdir, graph, sigma)


def write_pokec(workdir: str, seed: int) -> Tuple[str, str]:
    """Write the Pokec-like graph and its curated rules."""
    dataset = pokec_like.build(scale=POKEC_SCALE, seed=seed)
    return _write(workdir, dataset.graph, dataset.gfds)


def _write(workdir: str, graph, sigma) -> Tuple[str, str]:
    os.makedirs(workdir, exist_ok=True)
    graph_path = os.path.join(workdir, "graph.jsonl")
    rules_path = os.path.join(workdir, "rules.txt")
    save_graph(graph, graph_path)
    with open(rules_path, "w", encoding="utf-8") as handle:
        handle.write(format_rule_file(sigma))
    return graph_path, rules_path


def write_serve_ops(
    workdir: str, graph_path: str, seed: int, counts: Sequence[int]
) -> str:
    """Write the serve op stream for the graph at ``graph_path``: the
    set-up's first op, then one op list per window (``serve_ops``)."""
    graph = load_graph(graph_path)
    path = os.path.join(workdir, "ops.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"first": identity_op(graph),
                   "windows": serve_ops(graph, seed, counts)}, handle)
    return path


def read_serve_ops(path: str) -> Tuple[tuple, List[List[tuple]]]:
    """``(first op, windows)`` as written by :func:`write_serve_ops`."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return tuple(data["first"]), [
        [tuple(op) for op in ops] for ops in data["windows"]
    ]


def serve_ops(
    graph, seed: int, counts: Sequence[int]
) -> List[List[tuple]]:
    """One op list per window, valid when applied in order to ``graph``.

    Attr writes pick a hot node (a fixed 10 % of nodes) with probability
    0.8; edge ops delete a present edge or re-insert a deleted one, so
    the graph's edge set keeps its size.  Deterministic in ``seed``.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes(), key=repr)
    hot = rng.sample(nodes, max(1, int(len(nodes) * HOT_NODE_SHARE)))
    attrs = sorted({a for n in nodes[:100] for a in graph.attrs(n)})
    values = sorted({v for n in nodes[:500] for v in graph.attrs(n).values()})
    edges = sorted(graph.edges(), key=repr)
    removed: List[tuple] = []
    removed_set = set()
    windows = []
    for count in counts:
        ops = []
        for _ in range(count):
            if rng.random() < ATTR_SHARE:
                pool = hot if rng.random() < HOT_WRITE_SHARE else nodes
                ops.append((
                    "attr", rng.choice(pool), rng.choice(attrs),
                    rng.choice(values),
                ))
            elif rng.random() < len(removed) / MAX_REMOVED:
                edge = removed.pop(rng.randrange(len(removed)))
                removed_set.discard(edge)
                ops.append(("edge+",) + edge)
            else:
                edge = edges[rng.randrange(len(edges))]
                while edge in removed_set:
                    edge = edges[rng.randrange(len(edges))]
                removed.append(edge)
                removed_set.add(edge)
                ops.append(("edge-",) + edge)
        windows.append(ops)
    return windows


def apply_to_mirror(graph, ops: Sequence[tuple]) -> None:
    """Apply ops to a plain ``PropertyGraph`` copy (the serve oracle)."""
    for op in ops:
        kind = op[0]
        if kind == "attr":
            graph.set_attr(op[1], op[2], op[3])
        elif kind == "edge+":
            graph.add_edge(op[1], op[2], op[3])
        elif kind == "edge-":
            graph.remove_edge(op[1], op[2], op[3])
        else:
            raise ValueError(f"unexpected op kind {kind!r}")


def identity_op(graph) -> tuple:
    """An attr write that leaves the graph unchanged (set-up's first
    ``update``, which builds the incremental validator)."""
    node = min(graph.nodes(), key=repr)
    attr, value = sorted(graph.attrs(node).items())[0]
    return ("attr", node, attr, value)
