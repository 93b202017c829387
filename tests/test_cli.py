"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import format_rule_file, main, parse_rule_file
from repro.graph import PropertyGraph, save_graph

RULES_TEXT = """
# unique capitals
[unique-capital]
pattern: x:country -capital-> y:city; x -capital-> z:city
then: y.val = z.val

[flagged]
pattern: a:account
when: a.kind = 'bot'
then: a.is_fake = 'true'
"""


@pytest.fixture
def graph_file(tmp_path):
    g = PropertyGraph()
    g.add_node("au", "country", {"val": "Australia"})
    g.add_node("c1", "city", {"val": "Canberra"})
    g.add_node("c2", "city", {"val": "Melbourne"})
    g.add_edge("au", "c1", "capital")
    g.add_edge("au", "c2", "capital")
    path = tmp_path / "g.jsonl"
    save_graph(g, path)
    return path


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.gfd"
    path.write_text(RULES_TEXT)
    return path


def rule_key(gfd):
    """Value identity of a GFD for round-trip comparison."""
    return (gfd.name, gfd.pattern.signature(), gfd.lhs, gfd.rhs)


class TestRuleFileRoundTrip:
    """Satellite: mined and generated rules survive the rule-file format.

    ``format_rule_file`` → ``parse_rule_file`` must reproduce equivalent
    GFDs — same name, pattern signature, and lhs/rhs literal tuples —
    over property-style sweeps of generated and mined rule sets.
    """

    @pytest.mark.parametrize("seed", [1, 5, 9, 14])
    def test_generated_rules_round_trip(self, seed):
        from repro import generate_gfds, power_law_graph

        graph = power_law_graph(160, 360, seed=seed, domain_size=8)
        sigma = generate_gfds(graph, count=8, pattern_edges=3, seed=seed)
        again = parse_rule_file(format_rule_file(sigma))
        assert [rule_key(r) for r in again] == [rule_key(r) for r in sigma]

    @pytest.mark.parametrize("seed", [2, 6])
    def test_mined_rules_round_trip(self, seed):
        from repro import discover_gfds, power_law_graph

        graph = power_law_graph(
            150, 340, seed=seed, domain_size=6,
            node_labels=["person", "city"], edge_labels=["knows", "in"],
        )
        mined = discover_gfds(graph, min_support=3, min_confidence=0.8)
        assert mined  # the sweep must exercise a non-empty mined set
        rules = [m.gfd for m in mined]
        again = parse_rule_file(format_rule_file(rules))
        assert [rule_key(r) for r in again] == [rule_key(r) for r in rules]

    def test_empty_lhs_and_constants_round_trip(self):
        rules = parse_rule_file(RULES_TEXT)
        twice = parse_rule_file(format_rule_file(
            parse_rule_file(format_rule_file(rules))
        ))
        assert [rule_key(r) for r in twice] == [rule_key(r) for r in rules]


class TestRuleFileFormat:
    def test_parse(self):
        rules = parse_rule_file(RULES_TEXT)
        assert [r.name for r in rules] == ["unique-capital", "flagged"]
        assert rules[0].has_empty_lhs
        assert len(rules[1].lhs) == 1

    def test_roundtrip(self):
        rules = parse_rule_file(RULES_TEXT)
        again = parse_rule_file(format_rule_file(rules))
        assert [r.name for r in again] == [r.name for r in rules]
        assert [r.lhs for r in again] == [r.lhs for r in rules]
        assert [r.rhs for r in again] == [r.rhs for r in rules]

    def test_missing_pattern_rejected(self):
        with pytest.raises(ValueError, match="needs"):
            parse_rule_file("[x]\nthen: a.b = 1\n")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="unrecognised"):
            parse_rule_file("what is this")


class TestValidateCommand:
    def test_violations_found(self, graph_file, rules_file):
        out = io.StringIO()
        code = main(["validate", str(graph_file), str(rules_file)], out=out)
        assert code == 1  # violations present
        assert "unique-capital" in out.getvalue()

    def test_json_output(self, graph_file, rules_file):
        out = io.StringIO()
        main(["validate", str(graph_file), str(rules_file), "--json"], out=out)
        payload = json.loads(out.getvalue())
        assert payload
        assert payload[0]["rule"] == "unique-capital"

    def test_rejects_negative_limit(self, graph_file, rules_file):
        # Satellite: --limit -1 used to be accepted and mangle the
        # "... and N more" arithmetic; argparse now rejects negatives.
        with pytest.raises(SystemExit):
            main(["validate", str(graph_file), str(rules_file),
                  "--limit", "-1"], out=io.StringIO())

    def test_limit_zero_prints_no_witnesses(self, graph_file, rules_file):
        out = io.StringIO()
        code = main(["validate", str(graph_file), str(rules_file),
                     "--limit", "0"], out=out)
        assert code == 1  # violations still detected and counted
        assert "violation(s)" in out.getvalue()
        assert "more" in out.getvalue()  # all witnesses elided

    def test_clean_graph_exit_zero(self, tmp_path, rules_file):
        g = PropertyGraph()
        g.add_node("x", "country", {"val": "A"})
        path = tmp_path / "clean.jsonl"
        save_graph(g, path)
        out = io.StringIO()
        assert main(["validate", str(path), str(rules_file)], out=out) == 0

    def test_malformed_fault_plan_rejected_at_parse(
        self, graph_file, rules_file, capsys
    ):
        # The plan must fail on every subcommand — including sequential
        # runs that would never consult it — so it is an argparse type.
        with pytest.raises(SystemExit):
            main(["validate", str(graph_file), str(rules_file),
                  "--fault-plan", '{"bogus": 1}'], out=io.StringIO())
        assert "unknown fault-plan key" in capsys.readouterr().err

    def test_fault_flags_build_a_policy(self, graph_file, rules_file):
        from repro.cli import _fault_policy, build_parser

        args = build_parser().parse_args([
            "validate", str(graph_file), str(rules_file),
            "--fault-retries", "4", "--fault-backoff", "0.2",
            "--unit-deadline", "9.5", "--degrade-floor", "2",
            "--fault-plan", '{"crashes": [[0, 0, 1]]}',
        ])
        policy = _fault_policy(args)
        assert policy.max_retries == 4
        assert policy.backoff == pytest.approx(0.2)
        assert policy.unit_deadline == pytest.approx(9.5)
        assert policy.degrade_floor == 2
        assert policy.plan.crashes == ((0, 0, 1),)
        # and no flags at all means "library defaults decide"
        bare = build_parser().parse_args(
            ["validate", str(graph_file), str(rules_file)]
        )
        assert _fault_policy(bare) is None


class TestReasonCommand:
    def test_satisfiable_rules(self, rules_file):
        out = io.StringIO()
        assert main(["reason", str(rules_file)], out=out) == 0
        assert "satisfiable: True" in out.getvalue()

    def test_unsatisfiable_rules(self, tmp_path):
        path = tmp_path / "bad.gfd"
        path.write_text(
            "[a]\npattern: x:t\nthen: x.A = 'c'\n"
            "[b]\npattern: x:t\nthen: x.A = 'd'\n"
        )
        out = io.StringIO()
        assert main(["reason", str(path)], out=out) == 1
        assert "satisfiable: False" in out.getvalue()

    def test_reports_redundant(self, tmp_path):
        path = tmp_path / "red.gfd"
        path.write_text(
            "[a]\npattern: x:t\nwhen: x.A = 1\nthen: x.B = 2\n"
            "[dup]\npattern: x:t\nwhen: x.A = 1\nthen: x.B = 2\n"
        )
        out = io.StringIO()
        main(["reason", str(path)], out=out)
        assert "redundant" in out.getvalue()


class TestGenerateAndBench:
    def test_generate_writes_graph_and_rules(self, tmp_path):
        gpath = tmp_path / "synth.jsonl"
        rpath = tmp_path / "synth.gfd"
        out = io.StringIO()
        code = main(
            ["generate", str(gpath), "--nodes", "120", "--edges", "240",
             "--rules", "4", "--rules-output", str(rpath), "--seed", "3"],
            out=out,
        )
        assert code == 0
        assert gpath.exists() and rpath.exists()
        from repro.graph import load_graph

        g = load_graph(gpath)
        assert g.num_nodes == 120
        rules = parse_rule_file(rpath.read_text())
        assert len(rules) == 4

    def test_bench_runs_and_agrees(self, tmp_path):
        gpath = tmp_path / "synth.jsonl"
        rpath = tmp_path / "synth.gfd"
        main(["generate", str(gpath), "--nodes", "150", "--edges", "300",
              "--rules", "3", "--rules-output", str(rpath), "--seed", "4",
              "--domain", "10"], out=io.StringIO())
        out = io.StringIO()
        code = main(
            ["bench", str(gpath), str(rpath), "--workers", "4"], out=out
        )
        assert code == 0
        assert "repVal" in out.getvalue()
        assert "disVal" in out.getvalue()
        # Satellite: the shipping summary is no longer skipped when
        # --repeat is 1 — the final iteration is always reported.
        assert "shipping (final iteration)" in out.getvalue()

    def test_bench_process_reports_final_shipping(self, tmp_path):
        gpath = tmp_path / "synth.jsonl"
        rpath = tmp_path / "synth.gfd"
        main(["generate", str(gpath), "--nodes", "150", "--edges", "300",
              "--rules", "3", "--rules-output", str(rpath), "--seed", "4",
              "--domain", "10"], out=io.StringIO())
        out = io.StringIO()
        code = main(
            ["bench", str(gpath), str(rpath), "--workers", "3",
             "--executor", "process", "--processes", "2"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "shipping (final iteration):" in text
        assert "reused shard(s)" in text

    def test_bench_rejects_non_positive_counts(self, tmp_path):
        # Satellite: --repeat 0 used to be silently clamped to one
        # iteration; now argparse rejects it (and friends) outright.
        for flag in ("--repeat", "--workers", "--processes"):
            with pytest.raises(SystemExit):
                main(["bench", "g", "r", flag, "0"], out=io.StringIO())
            with pytest.raises(SystemExit):
                main(["bench", "g", "r", flag, "-3"], out=io.StringIO())


class TestDiscoverCommand:
    @pytest.fixture
    def mining_graph_file(self, tmp_path):
        g = PropertyGraph()
        for i in range(25):
            g.add_node(f"p{i}", "person", {"zip": f"z{i % 3}", "city": f"C{i % 3}"})
            g.add_node(f"c{i}", "city", {"zip": f"z{i % 3}", "city": f"C{i % 3}"})
            g.add_edge(f"p{i}", f"c{i}", "lives_in")
        path = tmp_path / "g.jsonl"
        save_graph(g, path)
        return path

    def test_discover_emits_rules(self, mining_graph_file):
        out = io.StringIO()
        code = main(["discover", str(mining_graph_file), "--support", "5"],
                    out=out)
        assert code == 0
        assert "pattern:" in out.getvalue()
        # Emitted rules must parse back.
        assert parse_rule_file(out.getvalue())

    def test_discover_flags_govern_mining(self, mining_graph_file):
        """--executor/--processes/--workers/--max-* drive mining itself
        (not just the confirmation pass) and leave the output unchanged."""
        baseline = io.StringIO()
        assert main(["discover", str(mining_graph_file), "--support", "5"],
                    out=baseline) == 0
        out = io.StringIO()
        code = main(
            ["discover", str(mining_graph_file), "--support", "5",
             "--executor", "process", "--processes", "2", "--workers", "3",
             "--max-edges", "2", "--max-matches", "500"],
            out=out,
        )
        assert code == 0
        # Same mined rules; only the accounting comments (executor,
        # per-phase wall-clock/shipping) legitimately differ.
        def strip(text):
            return [line for line in text.splitlines()
                    if not line.startswith("#")]

        assert strip(out.getvalue()) == strip(baseline.getvalue())
        assert "# verified (process):" in out.getvalue()
        # The process run reports its data path: per-phase byte counts
        # and how many units ran VF2.
        assert "unit-payload byte(s)" in out.getvalue()

    def test_discover_exit_2_on_confidence_one_inconsistency(
        self, mining_graph_file, monkeypatch
    ):
        """Mined-at-1.0 rules reporting violations is an internal
        inconsistency → exit 2 (mirrors cmd_bench's disagreement guard)."""
        from repro.core import make_violation
        from repro.session import DiscoveryRun, ValidationSession

        real = ValidationSession.discover

        def broken(self, **kwargs):
            run = real(self, **kwargs)
            assert run.rules and run.violations == set()
            exact = next(m for m in run.rules if m.confidence == 1.0)
            match = {v: "p0" for v in exact.gfd.pattern.variables}
            return DiscoveryRun(
                rules=run.rules,
                phases=run.phases,
                num_patterns=run.num_patterns,
                num_proposals=run.num_proposals,
                executor=run.executor,
                violations={make_violation(exact.gfd, match)},
            )

        monkeypatch.setattr(ValidationSession, "discover", broken)
        out = io.StringIO()
        code = main(["discover", str(mining_graph_file), "--support", "5"],
                    out=out)
        assert code == 2
        assert "ERROR" in out.getvalue()

    def test_discover_low_confidence_violations_exit_zero(self, tmp_path):
        """Rules mined below confidence 1.0 legitimately carry violations
        — that is not an inconsistency and must not flip the exit code."""
        g = PropertyGraph()
        for i in range(30):
            g.add_node(f"p{i}", "person", {"zip": "z1", "city": "C1"})
            g.add_node(f"c{i}", "city", {"zip": "z1", "city": "C1"})
            g.add_edge(f"p{i}", f"c{i}", "lives_in")
        g.set_attr("c0", "city", "WRONG")  # poison one pair
        path = tmp_path / "noisy.jsonl"
        save_graph(g, path)
        out = io.StringIO()
        code = main(
            ["discover", str(path), "--support", "5",
             "--confidence", "0.9"],
            out=out,
        )
        assert code == 0

    def test_discover_capped_confidence_one_exits_zero(self, tmp_path):
        """A rule mined at confidence 1.0 over a *capped* match set can
        legitimately be violated by uncounted matches — that must not
        trip the internal-inconsistency exit code."""
        g = PropertyGraph()
        for i in range(60):
            value = "c" if i < 30 else "d"
            g.add_node(f"p{i:02d}", "person", {"A": value})
            g.add_node(f"c{i:02d}", "city", None)
            g.add_edge(f"p{i:02d}", f"c{i:02d}", "lives_in")
        path = tmp_path / "capped.jsonl"
        save_graph(g, path)
        out = io.StringIO()
        code = main(
            ["discover", str(path), "--support", "5",
             "--confidence", "1.0", "--max-matches", "30"],
            out=out,
        )
        assert code == 0
        assert "ERROR" not in out.getvalue()
        assert "violation(s)" in out.getvalue()

    def test_discover_rejects_bad_counts(self, mining_graph_file):
        for flag in ("--workers", "--max-edges", "--max-matches"):
            with pytest.raises(SystemExit):
                main(["discover", str(mining_graph_file), flag, "0"],
                     out=io.StringIO())

    def test_discover_rejects_out_of_range_confidence(
        self, mining_graph_file
    ):
        # Satellite: --confidence used to accept any float (1.5, -0.1),
        # silently mining nothing or everything; now argparse rejects
        # values outside [0, 1] at parse time.
        for bad in ("1.5", "-0.1", "nan", "abc"):
            with pytest.raises(SystemExit):
                main(["discover", str(mining_graph_file),
                      "--confidence", bad], out=io.StringIO())
        # The boundary values stay legal.
        for ok in ("0", "1.0", "0.95"):
            code = main(["discover", str(mining_graph_file),
                         "--support", "5", "--confidence", ok],
                        out=io.StringIO())
            assert code == 0

    def test_discover_eval_mode_choices(self, mining_graph_file):
        with pytest.raises(SystemExit):
            main(["discover", str(mining_graph_file),
                  "--eval-mode", "bogus"], out=io.StringIO())
        outputs = {}
        for mode in ("auto", "factorised", "enumerate"):
            out = io.StringIO()
            code = main(["discover", str(mining_graph_file),
                         "--support", "5", "--eval-mode", mode], out=out)
            assert code == 0
            outputs[mode] = [line for line in out.getvalue().splitlines()
                             if not line.startswith("#")]
        # All three evaluation modes mine the same rules.
        assert outputs["auto"] == outputs["factorised"] \
            == outputs["enumerate"]

    def test_discover_reports_vf2_units(self, mining_graph_file):
        out = io.StringIO()
        assert main(["discover", str(mining_graph_file), "--support", "5",
                     "--eval-mode", "factorised"], out=out) == 0
        text = out.getvalue()
        count_line = next(line for line in text.splitlines()
                          if line.startswith("# count:"))
        assert "0 unit(s) ran VF2 enumeration" in count_line
