"""Confirmation validates only the mined rules the count tallies leave open.

A mined rule (Q, X → Y) from an uncapped pattern whose tallies give
``satisfied == supported`` has no violation, so `session.discover`
confirms only the *open* rules: those with a tally deficit and those
whose pattern hit the ``max_matches`` cap.  These tests pin, on the
simulated and the process executor:

* an all-exact input runs no ``confirm`` phase, reports the empty set,
  and leaves the probe Σ resident, so the next warm discover ships no Σ;
* a mixed input confirms exactly the open rules, over exactly the units
  of the groups with an open member;
* either way ``DiscoveryRun.violations`` is ``Vio`` of the *whole* mined
  Σ, the rules it skipped included.
"""

import os

import pytest

from repro import ValidationSession, det_vio, discover_gfds, power_law_graph
from repro import session as session_module
from repro.datasets import pokec_like

SHIP_MODE = os.environ.get("REPRO_SHIP_MODE", "auto")
EXECUTORS = (("simulated", None), ("process", 2))
#: the discovery suite's thresholds: its seeds mine rules below 1.0
PARAMS = dict(min_support=3, min_confidence=0.85)
MIXED_SEEDS = (0, 7)


@pytest.fixture(scope="module")
def exact_graph():
    return pokec_like.build(scale=40, seed=1).graph


def _mixed_graph(seed):
    return power_law_graph(
        170, 400, seed=seed, domain_size=7,
        node_labels=["person", "city", "org"],
        edge_labels=["knows", "in", "for"],
    )


def _session(graph, executor, processes):
    return ValidationSession(
        graph, [], executor=executor, processes=processes,
        ship_mode=SHIP_MODE,
    )


def _open_rules(run):
    return [
        mined for mined in run.rules
        if mined.confidence < 1.0 or mined.gfd.name in run.capped_rules
    ]


@pytest.fixture
def run_units_calls(monkeypatch):
    """Every ``run_units`` call a discover makes: (Σ, plan, phase)."""
    calls = []
    real = session_module.run_units

    def recording(sigma, graph, plan, *args, **kwargs):
        calls.append((list(sigma), plan, kwargs["phase"]))
        return real(sigma, graph, plan, *args, **kwargs)

    monkeypatch.setattr(session_module, "run_units", recording)
    return calls


@pytest.mark.parametrize("executor,processes", EXECUTORS)
def test_all_exact_input_runs_no_confirm_phase(
    exact_graph, executor, processes, run_units_calls
):
    with _session(exact_graph, executor, processes) as session:
        run = session.discover(n=2)
    assert run.rules
    assert all(mined.confidence == 1.0 for mined in run.rules)
    assert not run.capped_rules
    assert [phase.phase for phase in run.phases] == ["enumerate", "count"]
    assert [call[2].kind for call in run_units_calls] == ["mine", "count"]
    assert run.violations == set() == det_vio(run.sigma, exact_graph)


def test_all_exact_warm_discover_ships_no_sigma(exact_graph):
    with _session(exact_graph, "process", 2) as session:
        cold = session.discover(n=2)
        assert cold.phase("enumerate").shipping.sigma_bytes > 0
        warm = session.discover(n=2)
    # The workers still hold the probe Σ: the skipped confirmation
    # swapped nothing in.
    enumerate_phase = warm.phase("enumerate")
    assert enumerate_phase.shipping.shipped_sigma == 0
    assert enumerate_phase.shipping.sigma_bytes == 0
    assert warm.violations == set()


def test_confirm_off_and_nothing_mined_leave_violations_none(exact_graph):
    with _session(exact_graph, "simulated", None) as session:
        assert session.discover(n=2, confirm=False).violations is None
        nothing = session.discover(n=2, min_support=10 ** 6)
    assert nothing.rules == []
    assert nothing.violations is None


@pytest.mark.parametrize("executor,processes", EXECUTORS)
@pytest.mark.parametrize("seed", MIXED_SEEDS)
def test_mixed_input_confirms_exactly_the_open_rules(
    seed, executor, processes, run_units_calls
):
    graph = _mixed_graph(seed)
    serial = discover_gfds(graph, **PARAMS)
    with _session(graph, executor, processes) as session:
        run = session.discover(n=3, **PARAMS)
    assert [
        (m.gfd.name, m.support, m.confidence) for m in run.rules
    ] == [(m.gfd.name, m.support, m.confidence) for m in serial]
    open_rules = _open_rules(run)
    # The input is mixed: the filter both confirms and skips rules.
    assert 0 < len(open_rules) < len(run.rules)

    (probes, plan, _), = [c for c in run_units_calls if c[2].kind == "mine"]
    (sigma, confirm_plan, detect), = [
        c for c in run_units_calls if c[2].kind == "detect"
    ]
    assert sigma[:len(probes)] == probes
    assert sigma[len(probes):] == [mined.gfd for mined in open_rules]

    open_patterns = {id(mined.gfd.pattern) for mined in open_rules}
    open_plan = [
        [
            unit for unit in slot
            if any(
                id(probes[member.index].pattern) in open_patterns
                for member in unit.group.members
            )
        ]
        for slot in plan
    ]
    assert run.phase("confirm").num_units == sum(map(len, open_plan))
    assert [[id(unit) for unit in slot] for slot in confirm_plan] == [
        [id(unit) for unit in slot] for slot in open_plan
    ]
    assert set(detect.groups) == {
        unit.group.leader_index for slot in open_plan for unit in slot
    }
    # Vio of the whole mined Σ, the skipped exact rules included.
    assert run.violations == det_vio(run.sigma, graph)
    assert run.violations
