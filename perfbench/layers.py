"""Layer walks of the traced run.

A session calls most layers internally, where the benchmark cannot put
a span.  In the traced run the benchmark therefore calls each layer's
public function itself, on the same inputs the session got, and spans
the call.  Each walk returns exact counters and its own result, which
the workload checks against its oracle, so a walk that drifts from what
the session computes shows up as a failure, not as a plausible number.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Set, Tuple

from repro.core import violations_of
from repro.core.discovery import (
    candidate_dependencies,
    candidate_patterns,
    canonical_matches,
    count_dependency,
    probe_gfds,
    select_rules,
)
from repro.core.incremental import apply_updates
from repro.graph.snapshot import GraphSnapshot
from repro.matching import SubgraphMatcher
from repro.matching.vf2 import MatchStats
from repro.parallel.balancing import (
    lpt_partition,
    makespan,
    makespan_lower_bound,
)
from repro.parallel.engine import (
    BlockMaterialiser,
    consolidate_slot_results,
    execute_unit,
)
from repro.parallel.executors import MultiprocessExecutor, ShardPlane, pack_shard
from repro.parallel.multiquery import build_shared_groups
from repro.parallel.workload import estimate_workload
from repro.service import DEFAULT_MAX_BATCH_OPS, coalesce_ops


def _plan(tr, sigma, graph, n) -> Tuple[list, list, list, float]:
    with tr.span("plan.groups"):
        groups = build_shared_groups(sigma)
    with tr.span("plan.estimate"):
        units = estimate_workload(sigma, graph, groups=groups)
    with tr.span("plan.partition"):
        plan, loads = lpt_partition(units, n)
    bound = makespan_lower_bound(units, n)
    ratio = makespan(loads) / bound if bound else 1.0
    return groups, units, plan, ratio


def cold(tr, graph, processes: int) -> Dict[str, float]:
    """Pool start/stop, snapshot build, arena write/attach, pack, publish."""
    pool = MultiprocessExecutor(processes=processes, ship_mode="auto")
    try:
        with tr.span("executors.pool_start"):
            pool.start()
    finally:
        with tr.span("executors.pool_shutdown"):
            pool.shutdown()
    with tr.span("graph.snapshot_build"):
        snapshot = GraphSnapshot(graph)
    arena = bytearray(snapshot.arena_nbytes())
    with tr.span("graph.arena_write"):
        layout = snapshot.write_arena(arena)
    with tr.span("graph.arena_attach"):
        GraphSnapshot.from_arena(arena, layout, snapshot.identity_state())
    with tr.span("executors.pack"):
        pack_shard(graph)
    plane = ShardPlane()
    try:
        with tr.span("executors.publish"):
            plane.publish(0, graph)
    finally:
        plane.close()
    return {"graph.arena_bytes": float(len(arena))}


def validate(tr, sigma, graph, n: int) -> Tuple[Dict, Set, Set]:
    """Plan, candidates, VF2, literal checks, unit execution and fold;
    returns the counters and the violation sets ``violations_of`` and
    the executed units found."""
    groups, units, plan, ratio = _plan(tr, sigma, graph, n)
    candidates = 0
    for group in groups:
        pattern = sigma[group.leader_index].pattern
        with tr.span("matching.candidates"):
            matcher = SubgraphMatcher(pattern, graph)
        candidates += sum(len(c) for c in matcher.candidates.values())
        with tr.span("matching.vf2"):
            for _ in matcher.matches():
                pass
    found: Set = set()
    with tr.span("core.violations_of"):
        for gfd in sigma:
            found.update(violations_of(gfd, graph))
    executed = _execute(tr, sigma, graph, plan)
    counters = {
        "plan.groups": float(len(groups)),
        "plan.makespan_ratio": ratio,
        "matching.candidates_total": float(candidates),
    }
    return counters, found, executed


def _execute(tr, sigma, graph, plan) -> Set:
    """Run every unit on the simulated path, folding per slot."""
    materialiser = BlockMaterialiser(graph)
    violations: Set = set()
    for slot in plan:
        results = []
        for unit in slot:
            with tr.span("engine.execute_unit"):
                results.append(
                    execute_unit(sigma, graph, unit, materialiser=materialiser)
                )
        with tr.span("engine.fold"):
            consolidate_slot_results(slot, results)
        for result in results:
            violations |= result.violations
    return violations


def discover(tr, graph, params: Dict, n: int) -> Tuple[Dict, List]:
    """The serial mining pipeline, step by step, plus the mine units;
    returns the counters and the mined rules' :func:`rule_key`."""
    max_matches = params["max_matches"]
    min_support = params["min_support"]
    with tr.span("core.candidate_patterns"):
        patterns = candidate_patterns(
            graph, max_edges=params["max_edges"], top_edges=params["top_edges"]
        )
    probes = probe_gfds(patterns)
    _, _, plan, ratio = _plan(tr, probes, graph, n)
    mine_plan = [
        [replace(unit, kind="mine", payload=(max_matches, "aggregate"))
         for unit in slot]
        for slot in plan
    ]
    _execute(tr, probes, graph, mine_plan)

    stats = MatchStats()
    tallies = []
    fallback = candidates = 0
    for pattern in patterns:
        with tr.span("matching.candidates"):
            matcher = SubgraphMatcher(pattern, graph)
        candidates += sum(len(c) for c in matcher.candidates.values())
        with tr.span("matching.factorised"):
            fplan = matcher.factorised_plan()
        if fplan is None:
            fallback += 1
        else:
            with tr.span("matching.factorised"):
                count, aggregate = matcher.evidence(eval_mode="factorised")
            if min(count, max_matches) < min_support:
                continue
            if count <= max_matches:
                with tr.span("core.propose"):
                    deps = aggregate.propose(pattern, params["max_attrs"])
                with tr.span("matching.factorised"):
                    counted = matcher.dependency_tallies(deps)
                for (lhs, rhs), (supported, satisfied) in zip(deps, counted):
                    tallies.append((pattern, (lhs, rhs), supported, satisfied))
                continue
        with tr.span("matching.vf2"):
            matches = canonical_matches(
                matcher.matches(stats=stats), cap=max_matches
            )
        if len(matches) < min_support:
            continue
        with tr.span("core.candidate_dependencies"):
            deps = candidate_dependencies(
                pattern, graph, matches, max_attrs=params["max_attrs"],
                sample_size=params["sample_size"], seed=params["seed"],
            )
        with tr.span("core.count_dependency"):
            for lhs, rhs in deps:
                supported, satisfied = count_dependency(graph, matches, lhs, rhs)
                tallies.append((pattern, (lhs, rhs), supported, satisfied))
    with tr.span("core.select_rules"):
        rules = select_rules(tallies, min_support, params["min_confidence"])

    # the confirm phase: VF2 plus literal checks over the mined Σ
    for mined in rules:
        with tr.span("matching.candidates"):
            matcher = SubgraphMatcher(mined.gfd.pattern, graph)
        with tr.span("matching.vf2"):
            for _ in matcher.matches(stats=stats):
                pass
    with tr.span("core.violations_of"):
        for mined in rules:
            for _ in violations_of(mined.gfd, graph):
                pass
    counters = {
        "plan.groups": float(len(build_shared_groups(probes))),
        "plan.makespan_ratio": ratio,
        "matching.factorised_fallback_share": fallback / len(patterns),
        "matching.candidates_total": float(candidates),
        "matching.vf2_steps": float(stats.steps),
        "matching.vf2_matches": float(stats.matches),
        "matching.matches_per_kstep": 1000.0 * stats.matches / max(1, stats.steps),
    }
    return counters, rule_key(rules)


def rule_key(rules) -> List[Tuple[str, int, float]]:
    """What the discover oracle compares: names, supports, confidences."""
    return [(r.gfd.name, r.support, r.confidence) for r in rules]


def serve_batches(
    tr, ops: Sequence[tuple], validator, snapshot: GraphSnapshot
) -> int:
    """Coalesce, incremental detect and snapshot delta, cut into the
    service's default batch size.

    ``validator`` is an ``IncrementalValidator`` over the serve mirror
    graph (``apply_updates`` mutates that graph); ``snapshot`` is a
    separate snapshot of the same graph that takes only the structural
    delta.  Returns the number of ops applied after coalescing.
    """
    applied = 0
    for start in range(0, len(ops), DEFAULT_MAX_BATCH_OPS):
        batch = ops[start:start + DEFAULT_MAX_BATCH_OPS]
        with tr.span("service.coalesce"):
            folded, _ = coalesce_ops(batch, validator.graph)
        with tr.span("core.incremental"):
            apply_updates(validator, folded)
        with tr.span("graph.apply_delta"):
            snapshot.apply_delta([op for op in folded if op[0] != "attr"])
        applied += len(folded)
    return applied
