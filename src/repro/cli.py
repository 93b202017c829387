"""Command-line interface: ``python -m repro <command>``.

Wraps the library's main entry points for shell use:

* ``validate``   — detect GFD violations in a graph file
* ``reason``     — satisfiability / implication / cover analysis of a rule file
* ``generate``   — emit a synthetic graph (and optionally a rule set)
* ``bench``      — a one-shot repVal/disVal comparison on a graph file
* ``discover``   — mine GFDs from a graph file
* ``serve``      — continuous validation: stream update ops, emit
  violation diffs

Graphs use the line-JSON format of :mod:`repro.graph.io`.  Rules use a
small text format, one GFD per ``[name]`` section::

    [unique-capital]
    pattern: x:country -capital-> y:city; x -capital-> z:city
    when:
    then: y.val = z.val

(an empty/omitted ``when`` is ``X = ∅``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, TextIO

from .core import GFD, det_vio, generate_gfds, is_satisfiable, parse_gfd
from .core.implication import minimal_cover
from .graph import load_graph, power_law_graph, save_graph
from .graph.partition import greedy_edge_cut_partition
from .session import ValidationSession


# ----------------------------------------------------------------------
# rule files
# ----------------------------------------------------------------------
def parse_rule_file(text: str) -> List[GFD]:
    """Parse the ``[name] / pattern: / when: / then:`` rule format."""
    rules: List[GFD] = []
    name: Optional[str] = None
    fields = {}

    def flush() -> None:
        if name is None:
            return
        if "pattern" not in fields or "then" not in fields:
            raise ValueError(f"rule [{name}] needs 'pattern:' and 'then:'")
        rules.append(
            parse_gfd(
                fields["pattern"],
                f"{fields.get('when', '')} => {fields['then']}",
                name=name,
            )
        )

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            name = line[1:-1].strip()
            fields = {}
        elif ":" in line:
            key, value = line.split(":", 1)
            fields[key.strip()] = value.strip()
        else:
            raise ValueError(f"line {line_no}: unrecognised rule syntax {raw!r}")
    flush()
    return rules


def format_rule_file(rules: Sequence[GFD]) -> str:
    """Inverse of :func:`parse_rule_file` (used by ``discover``)."""
    from .pattern.parser import format_pattern

    blocks = []
    for index, gfd in enumerate(rules):
        lines = [f"[{gfd.name or f'rule{index}'}]"]
        lines.append(f"pattern: {format_pattern(gfd.pattern)}")
        if gfd.lhs:
            lines.append("when: " + ", ".join(str(l) for l in gfd.lhs))
        lines.append("then: " + ", ".join(str(l) for l in gfd.rhs))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _detect(graph, rules, args):
    """Violations with the chosen backend.

    The default (``--executor simulated``, no ``--processes``) is direct
    sequential ``detVio`` — one indexed pass, no per-pivot data-block
    materialisation, same cost as before the session layer.  The flags
    opt into a session-backed parallel run; without an explicit
    ``--processes`` cap, a process/auto run is sized to the usable CPUs
    (one worker slot per process).
    """
    if args.executor == "simulated" and not args.processes:
        return det_vio(rules, graph)
    from .parallel.executors import usable_cpus

    n = args.processes or max(1, usable_cpus())
    with ValidationSession(
        graph, rules, executor=args.executor, processes=n,
        ship_mode=args.ship_mode,
        fault_policy=_fault_policy(args),
    ) as session:
        return session.validate(n=n).violations


def cmd_validate(args, out: TextIO) -> int:
    graph = load_graph(args.graph)
    rules = parse_rule_file(Path(args.rules).read_text())
    violations = _detect(graph, rules, args)
    if args.json:
        payload = [
            {"rule": v.gfd_name, "match": {k: str(n) for k, n in v.assignment}}
            for v in sorted(violations, key=str)
        ]
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        out.write(f"{len(violations)} violation(s) of {len(rules)} rule(s) "
                  f"in {args.graph}\n")
        for violation in sorted(violations, key=str)[: args.limit]:
            out.write(f"  {violation}\n")
        if len(violations) > args.limit:
            out.write(f"  ... and {len(violations) - args.limit} more\n")
    return 1 if violations else 0


def cmd_reason(args, out: TextIO) -> int:
    rules = parse_rule_file(Path(args.rules).read_text())
    satisfiable = is_satisfiable(rules)
    out.write(f"rules: {len(rules)}\n")
    out.write(f"satisfiable: {satisfiable}\n")
    if satisfiable:
        cover = minimal_cover(rules)
        removed = len(rules) - len(cover)
        out.write(f"minimal cover: {len(cover)} rule(s) "
                  f"({removed} implied by the rest)\n")
        for gfd in rules:
            if all(gfd.name != kept.name for kept in cover):
                out.write(f"  redundant: {gfd.name}\n")
    return 0 if satisfiable else 1


def cmd_generate(args, out: TextIO) -> int:
    graph = power_law_graph(
        args.nodes, args.edges, alpha=args.alpha, seed=args.seed,
        domain_size=args.domain,
    )
    save_graph(graph, args.output)
    out.write(f"wrote {args.output}: |V|={graph.num_nodes}, "
              f"|E|={graph.num_edges}\n")
    if args.rules_output:
        sigma = generate_gfds(graph, count=args.rules, seed=args.seed)
        Path(args.rules_output).write_text(format_rule_file(sigma))
        out.write(f"wrote {args.rules_output}: {len(sigma)} rule(s)\n")
    return 0


def cmd_bench(args, out: TextIO) -> int:
    graph = load_graph(args.graph)
    rules = parse_rule_file(Path(args.rules).read_text())
    fragmentation = greedy_edge_cut_partition(graph, args.workers, seed=0)
    with ValidationSession(
        graph, rules, executor=args.executor, processes=args.processes,
        ship_mode=args.ship_mode, fault_policy=_fault_policy(args),
    ) as session:
        for iteration in range(args.repeat):
            started = time.perf_counter()
            rep = session.validate(n=args.workers)
            rep_wall = time.perf_counter() - started
            started = time.perf_counter()
            dis = session.validate(fragmentation=fragmentation)
            dis_wall = time.perf_counter() - started
            if args.repeat > 1:
                out.write(
                    f"iteration {iteration + 1}: repVal {rep_wall:.3f}s  "
                    f"disVal {dis_wall:.3f}s\n"
                )
    out.write(f"{'algorithm':8s} {'T(cost)':>12s} {'makespan':>10s} "
              f"{'comm%':>6s} {'|Vio|':>6s}  executor\n")
    for run in (rep, dis):
        out.write(
            f"{run.algorithm:8s} {run.parallel_time:12,.0f} "
            f"{run.report.makespan:10,.0f} "
            f"{run.report.communication_share * 100:5.1f}% "
            f"{len(run.violations):6d}  {run.executor}\n"
        )
    # The final iteration's shipping is always reported (not only on
    # --repeat > 1): it is how a user verifies the warm path engaged.
    stats = [s for s in (rep.shipping, dis.shipping) if s]
    if stats:
        out.write(
            f"shipping (final iteration): {sum(s.full for s in stats)} "
            f"full, {sum(s.delta for s in stats)} delta, "
            f"{sum(s.reused for s in stats)} reused shard(s), "
            f"{sum(s.shipped_nodes for s in stats)} node(s) shipped\n"
        )
        out.write(
            f"shipped bytes (final iteration): "
            f"{sum(s.shard_bytes for s in stats)} shard, "
            f"{sum(s.sigma_bytes for s in stats)} sigma, "
            f"{sum(s.payload_bytes for s in stats)} unit payload\n"
        )
        if any(s.mapped for s in stats):
            out.write(
                f"mapped via shared memory (final iteration): "
                f"{sum(s.mapped for s in stats)} shard(s), "
                f"{sum(s.mapped_bytes for s in stats)} byte(s) "
                "(zero-copy, not shipped)\n"
            )
    else:
        out.write("shipping (final iteration): none "
                  "(simulated executor ships nothing)\n")
    if rep.violations != dis.violations:
        out.write("WARNING: algorithms disagree on Vio — this is a bug\n")
        return 2
    return 0


def cmd_serve(args, out: TextIO) -> int:
    """Continuous validation over a stream of update ops.

    Update ops (README, "Update ops") arrive as JSON lines, one op or one
    batch of ops per line, from ``--replay FILE`` or stdin.  Each applied
    batch's violation diff is written as it is emitted; a summary
    (service counters, final violation count, p99 apply latency) closes
    the stream.  Exit code 0
    when the final graph satisfies every rule, 1 otherwise.
    """
    from .parallel.executors import usable_cpus
    from .service import ValidationService

    graph = load_graph(args.graph)
    rules = parse_rule_file(Path(args.rules).read_text())
    workers = args.processes or max(1, usable_cpus())
    source = open(args.replay) if args.replay else sys.stdin
    try:
        fault_policy = _fault_policy(args)
        with ValidationSession(
            graph, rules, executor=args.executor, processes=args.processes,
            ship_mode=args.ship_mode, fault_policy=fault_policy,
        ) as session:
            session.validate(n=workers)  # warm pool, shards and caches
            with ValidationService(
                session,
                max_batch_ops=args.batch_ops,
                max_batch_age=args.batch_age,
                fault_policy=fault_policy,
            ) as service:
                subscriber = service.subscribe()
                for raw in source:
                    raw = raw.strip()
                    if not raw or raw.startswith("#"):
                        continue
                    payload = json.loads(raw)
                    if payload and isinstance(payload[0], str):
                        payload = [payload]  # a single op line
                    service.submit(tuple(op) for op in payload)
                    for diff in subscriber.drain():
                        _write_diff(diff, args.json, out)
                service.flush()
                for diff in subscriber.drain():
                    _write_diff(diff, args.json, out)
                stats = service.stats()
                p99 = service.latency_quantile(0.99)
            violations = session.violations
        summary = {
            "submitted": stats.submitted,
            "applied": stats.applied,
            "cancelled": stats.cancelled,
            "batches": stats.batches,
            "diffs": stats.diffs_emitted,
            "violations": len(violations),
            "p99_apply_seconds": p99,
        }
        if args.json:
            json.dump({"summary": summary}, out)
            out.write("\n")
        else:
            out.write(
                "# served {submitted} op(s) in {batches} batch(es) "
                "({cancelled} coalesced away): {diffs} diff(s), "
                "{violations} final violation(s)".format(**summary)
            )
            if p99 is not None:
                out.write(f", p99 apply {p99 * 1e3:.2f}ms")
            out.write("\n")
        return 1 if violations else 0
    finally:
        if args.replay:
            source.close()


def _write_diff(diff, as_json: bool, out: TextIO) -> None:
    if as_json:
        json.dump(
            {
                "epoch": diff.epoch,
                "added": [str(v) for v in sorted(diff.added, key=str)],
                "removed": [str(v) for v in sorted(diff.removed, key=str)],
            },
            out,
        )
        out.write("\n")
    else:
        out.write(
            f"epoch {diff.epoch}: +{len(diff.added)} -{len(diff.removed)}\n"
        )
        for violation in sorted(diff.added, key=str):
            out.write(f"  + {violation}\n")
        for violation in sorted(diff.removed, key=str):
            out.write(f"  - {violation}\n")


def cmd_discover(args, out: TextIO) -> int:
    graph = load_graph(args.graph)
    from .parallel.executors import usable_cpus

    workers = args.workers or args.processes or max(1, usable_cpus())
    # Mining itself runs session-backed: enumeration and counting are
    # work units over the chosen execution backend, and the mined-Σ
    # confirmation pass reuses the same warm worker shards.
    with ValidationSession(
        graph, [], executor=args.executor, processes=args.processes,
        ship_mode=args.ship_mode, fault_policy=_fault_policy(args),
    ) as session:
        run = session.discover(
            min_support=args.support,
            min_confidence=args.confidence,
            max_edges=args.max_edges,
            max_matches=args.max_matches,
            n=workers,
        )
    rules = run.sigma
    text = format_rule_file(rules) if rules else "# nothing discovered\n"
    if args.output:
        Path(args.output).write_text(text)
        out.write(f"wrote {args.output}: {len(rules)} rule(s)\n")
    else:
        out.write(text)
    # Data-path accounting per mining phase: shipped byte volume (the
    # aggregate-payload win as a number, not a claim) and how many units
    # ran VF2 instead of reading resident factorised eliminations.
    for phase in run.phases:
        shipping = phase.shipping
        line = f"# {phase.phase}: {phase.wall_seconds:.3f}s wall"
        if shipping is not None:
            line += (
                f", {shipping.full} full / {shipping.delta} delta / "
                f"{shipping.reused} reused shard(s), "
                f"{shipping.shard_bytes + shipping.sigma_bytes} shard+sigma "
                f"byte(s), {shipping.payload_bytes} unit-payload byte(s)"
            )
            if shipping.mapped:
                line += (
                    f", {shipping.mapped_bytes} byte(s) shm-mapped "
                    f"({shipping.mapped} shard(s))"
                )
        if phase.phase in ("enumerate", "count", "confirm"):
            line += f", {phase.vf2_units} unit(s) ran VF2 enumeration"
        out.write(line + "\n")
    if rules:
        # Vio of the mined Σ (rules mined below confidence 1.0
        # legitimately carry violations).
        violations = run.violations if run.violations is not None else set()
        out.write(
            f"# verified ({run.executor}): {len(violations)} "
            f"violation(s) across {len(rules)} rule(s)\n"
        )
        # A confidence-1.0 rule from an *uncapped* pattern holds on every
        # match.  The session relies on that and does not confirm such
        # rules, so one in ``violations`` means mining and the session's
        # confirmation disagree — the same internal-inconsistency
        # contract cmd_bench enforces, kept as a guard on the session.
        # Capped rules are excluded: their confidence covers only the
        # canonical counted subset, so confirmation violations from
        # uncounted matches are legitimate.
        exact = {
            m.gfd.name
            for m in run.rules
            if m.confidence == 1.0 and m.gfd.name not in run.capped_rules
        }
        broken = sorted(exact & {v.gfd_name for v in violations})
        if broken:
            out.write(
                "ERROR: rule(s) mined at confidence 1.0 still report "
                f"violations: {', '.join(broken)}\n"
            )
            return 2
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def _positive_int(text: str) -> int:
    """Argparse type for counts that must be ≥ 1 (workers, repeats, …).

    Rejecting at parse time beats silent clamping: ``--repeat 0`` used to
    be quietly promoted to one iteration.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _fault_plan_spec(text: str):
    """Argparse type for ``--fault-plan``: parse at the CLI boundary so
    a malformed plan fails loudly on *every* subcommand, including runs
    that end up on the sequential backend and would never consult it."""
    from .parallel.faults import FaultPlan

    try:
        return FaultPlan.from_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonnegative_int(text: str) -> int:
    """Argparse type for budgets where 0 is meaningful (disables)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return value


def _unit_float(text: str) -> float:
    """Argparse type for ratios that must lie in [0, 1] (confidence)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be between 0 and 1, got {value}"
        )
    return value


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    """The execution-backend switches every validating command accepts."""
    parser.add_argument("--executor", choices=["simulated", "process", "auto"],
                        default="simulated",
                        help="execution backend: cost-simulated serial run, "
                             "a real process pool, or auto-selection")
    parser.add_argument("--processes", type=_positive_int, default=None,
                        help="size the real process pool "
                             "(executor=process/auto; oversubscribing the "
                             "CPUs is honoured with a warning)")
    parser.add_argument("--ship-mode", choices=["pickle", "shm", "auto"],
                        default="auto", dest="ship_mode",
                        help="how full shards reach worker processes: "
                             "pickled blobs over the pipe, zero-copy "
                             "shared-memory arenas, or size-based "
                             "auto-selection")
    parser.add_argument("--fault-retries", type=_nonnegative_int,
                        default=None, dest="fault_retries",
                        help="per-batch retry budget after a worker "
                             "crash/stall before the run fails "
                             "(default: 2)")
    parser.add_argument("--fault-backoff", type=float, default=None,
                        dest="fault_backoff",
                        help="base pre-retry backoff in seconds, doubled "
                             "per attempt (default: 0.05)")
    parser.add_argument("--heartbeat-interval", type=float, default=None,
                        dest="heartbeat_interval",
                        help="worker liveness beat cadence in seconds; "
                             "silence past 10 intervals means dead "
                             "(default: 0.5)")
    parser.add_argument("--unit-deadline", type=float, default=None,
                        dest="unit_deadline",
                        help="declare a worker stalled when one unit "
                             "makes no progress for this many seconds "
                             "(default: off)")
    parser.add_argument("--degrade-floor", type=_positive_int,
                        default=None, dest="degrade_floor",
                        help="minimum live pool slots before a "
                             "degrading run fails outright (default: 1)")
    parser.add_argument("--fault-plan", type=_fault_plan_spec,
                        default=None, dest="fault_plan",
                        help="JSON fault-injection plan (the "
                             "REPRO_FAULT_PLAN format) — deterministic "
                             "crash/stall/drop/applier faults for "
                             "recovery testing")


def _fault_policy(args):
    """The explicit FaultPolicy the flags describe, or ``None``.

    ``None`` (no flag given) lets the library resolve defaults plus any
    ``REPRO_FAULT_PLAN`` environment plan; any explicit flag builds a
    full policy (unset fields keep their defaults).  ``--fault-plan``
    arrives already parsed (see :func:`_fault_plan_spec`).
    """
    from .parallel.faults import FaultPolicy

    plan = args.fault_plan
    overrides = {
        name: value
        for name, value in (
            ("max_retries", args.fault_retries),
            ("backoff", args.fault_backoff),
            ("heartbeat_interval", args.heartbeat_interval),
            ("unit_deadline", args.unit_deadline),
            ("degrade_floor", args.degrade_floor),
            ("plan", plan),
        )
        if value is not None
    }
    if not overrides:
        return None
    return FaultPolicy(**overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GFDs: functional dependencies for graphs "
                    "(Fan, Wu, Xu — SIGMOD 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="detect GFD violations")
    validate.add_argument("graph", help="graph file (line-JSON)")
    validate.add_argument("rules", help="rule file")
    validate.add_argument("--json", action="store_true",
                          help="machine-readable output")
    validate.add_argument("--limit", type=_nonnegative_int, default=20,
                          help="max violations to print")
    _add_executor_flags(validate)
    validate.set_defaults(func=cmd_validate)

    reason = sub.add_parser("reason", help="satisfiability / cover analysis")
    reason.add_argument("rules", help="rule file")
    reason.set_defaults(func=cmd_reason)

    generate = sub.add_parser("generate", help="emit a synthetic graph")
    generate.add_argument("output", help="graph file to write")
    generate.add_argument("--nodes", type=int, default=1000)
    generate.add_argument("--edges", type=int, default=2000)
    generate.add_argument("--alpha", type=float, default=1.0,
                          help="power-law skew exponent")
    generate.add_argument("--domain", type=int, default=100,
                          help="attribute active-domain size")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--rules", type=int, default=10,
                          help="rules to generate with --rules-output")
    generate.add_argument("--rules-output", help="also write a rule file")
    generate.set_defaults(func=cmd_generate)

    bench = sub.add_parser("bench", help="repVal/disVal comparison "
                                         "(optionally repeated warm)")
    bench.add_argument("graph", help="graph file")
    bench.add_argument("rules", help="rule file")
    bench.add_argument("--workers", type=_positive_int, default=8)
    bench.add_argument("--repeat", type=_positive_int, default=1,
                       help="run the comparison N times inside one warm "
                            "ValidationSession (pool + shards reused)")
    _add_executor_flags(bench)
    bench.set_defaults(func=cmd_bench)

    discover = sub.add_parser("discover", help="mine GFDs from a graph "
                                               "(session-backed, parallel)")
    discover.add_argument("graph", help="graph file")
    discover.add_argument("--support", type=_positive_int, default=5)
    discover.add_argument("--confidence", type=_unit_float, default=0.95)
    discover.add_argument("--output", help="rule file to write")
    discover.add_argument("--workers", type=_positive_int, default=None,
                          help="worker slots for the mining plan "
                               "(default: --processes or the usable CPUs)")
    discover.add_argument("--max-edges", type=_positive_int, default=2,
                          help="largest candidate pattern, in edges")
    discover.add_argument("--max-matches", type=_positive_int, default=5000,
                          help="matches counted per candidate pattern "
                               "(canonical selection)")
    _add_executor_flags(discover)
    discover.set_defaults(func=cmd_discover)

    serve = sub.add_parser("serve", help="continuous validation: stream "
                                         "update ops, emit violation diffs")
    serve.add_argument("graph", help="graph file (line-JSON)")
    serve.add_argument("rules", help="rule file")
    serve.add_argument("--replay", help="read op JSON-lines from a file "
                                        "instead of stdin")
    serve.add_argument("--json", action="store_true",
                       help="machine-readable diffs and summary")
    serve.add_argument("--batch-ops", type=_positive_int, default=256,
                       dest="batch_ops",
                       help="batch-size watermark: apply once this many "
                            "ops are queued")
    serve.add_argument("--batch-age", type=float, default=0.05,
                       dest="batch_age",
                       help="batch-age watermark in seconds: apply once "
                            "the oldest queued op has waited this long")
    _add_executor_flags(serve)
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None, out: TextIO = sys.stdout) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
