"""The fault-tolerant execution plane (PR 10): recovered ≡ fault-free.

Five pillars:

* **plan/policy surface** — ``FaultPlan.from_spec`` (the
  ``REPRO_FAULT_PLAN`` JSON format) parses, pads and *rejects* exactly
  as documented; ``FaultPolicy`` validates its knobs; ``FaultStats``
  merges and proves;
* **recovery differential matrix** — for every injected worker fault
  (hard crash before a unit, delay-turned-stall, dropped reply,
  death mid-shm-attach) the recovered run's violations and report are
  byte-identical to the fault-free run's, with ``ShippingStats.faults``
  proving the fault actually fired — a recovery pin over a silent miss
  proves nothing;
* **start-up liveness and ad-hoc runs** — a slow worker start-up is
  not silence, a hung one is bounded by ``WORKER_START_TIMEOUT``, and
  ``rep_val``/``dis_val`` run supervised and report their faults;
* **failure paths** — retry exhaustion and zero-retry policies fail
  loudly ("lost a process"), and the pool is torn down clean;
* **service applier supervision** — an injected applier exception is
  retried with idempotent replay, the subscriber's ``ViolationDiff``
  stream (epochs included) stays byte-identical to the fault-free
  stream, and a terminal applier failure surfaces with its cause
  chained and recorded on ``ServiceStats.failure``.

The shm-lifecycle side of recovery (segment residue, re-attach) lives
in ``test_shard_plane.py``; CI additionally re-runs the executor
differential matrix wholesale under ``REPRO_FAULT_PLAN`` crash and
delay plans in both ship modes.
"""

from __future__ import annotations

import time
import warnings

import pytest

from repro import ValidationService, ValidationSession, det_vio
from repro.core import generate_gfds
from repro.graph import hash_partition, power_law_graph
from repro.parallel import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultPolicy,
    FaultStats,
    dis_val,
    rep_val,
    resolve_fault_policy,
    shm_available,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this host"
)

# Two-worker pools on a single-CPU runner trip the (intentional)
# oversubscription warning everywhere.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(autouse=True)
def no_env_plan(monkeypatch):
    """Injection here is explicit-only: a CI ``REPRO_FAULT_PLAN`` run
    must not stack a second plan under these pins."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


def workload(seed: int = 3):
    graph = power_law_graph(220, 560, seed=seed, domain_size=12)
    sigma = generate_gfds(graph, count=4, pattern_edges=2, seed=seed)
    return graph, sigma


def quiet_session(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ValidationSession(*args, **kwargs)


#: fast-recovery knobs shared by every injected-fault session; the
#: tight heartbeat keeps stall detection (10 missed beats) sub-second
FAST = dict(backoff=0.01, heartbeat_interval=0.05)


class TestFaultPlanSpec:
    def test_parse_pads_and_normalises(self):
        plan = FaultPlan.from_spec(
            '{"crashes": [[1, 4], 0], "delays": [[0, 2, 0.25]],'
            ' "drop_replies": [1], "die_mid_attach": [[0, 2]],'
            ' "applier_failures": [[3, 2]],'
            ' "policy": {"max_retries": 5, "unit_deadline": 0.5}}'
        )
        assert plan.crashes == ((1, 4, 1), (0, 0, 1))  # padded counts
        assert plan.delays == ((0, 2, 0.25),)
        assert plan.drop_replies == ((1, 1),)
        assert plan.die_mid_attach == ((0, 2),)
        assert plan.applier_failures == ((3, 2),)
        assert plan.policy == {"max_retries": 5, "unit_deadline": 0.5}
        assert not plan.empty and not plan.worker_empty

    def test_empty_and_worker_empty(self):
        assert FaultPlan().empty
        applier_only = FaultPlan(applier_failures=((1, 1),))
        assert applier_only.worker_empty and not applier_only.empty

    @pytest.mark.parametrize("spec,match", [
        ("not json", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"meteor_strike": []}', "unknown fault-plan key"),
        ('{"crashes": [[0, 0, 1, 9]]}', "malformed fault-plan entry"),
        ('{"crashes": [[]]}', "malformed fault-plan entry"),
        ('{"policy": ["max_retries"]}', "'policy' must be an object"),
        ('{"policy": {"warp_speed": 1}}', "unknown fault-policy override"),
        ('{"policy": {"plan": {}}}', "unknown fault-policy override"),
    ])
    def test_malformed_specs_fail_loudly(self, spec, match):
        with pytest.raises(ValueError, match=match):
            FaultPlan.from_spec(spec)

    def test_from_env(self, monkeypatch):
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULT_PLAN_ENV, '{"crashes": [[0, 0, 1]]}')
        plan = FaultPlan.from_env()
        assert plan is not None and plan.crashes == ((0, 0, 1),)


class TestFaultPolicy:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(max_retries=-1), "max_retries"),
        (dict(backoff=-0.1), "backoff"),
        (dict(heartbeat_interval=0.0), "heartbeat_interval"),
        (dict(unit_deadline=0.0), "unit_deadline"),
        (dict(degrade_floor=0), "degrade_floor"),
    ])
    def test_knob_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FaultPolicy(**kwargs)

    def test_retry_wait_is_exponential(self):
        policy = FaultPolicy(backoff=0.1)
        assert [policy.retry_wait(k) for k in (1, 2, 3)] == [
            pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.4),
        ]

    def test_stall_timeout_tracks_heartbeat(self):
        assert FaultPolicy(heartbeat_interval=0.05).stall_timeout == (
            pytest.approx(0.5)
        )

    def test_resolve_env_plan_overrides_defaults(self, monkeypatch):
        monkeypatch.setenv(
            FAULT_PLAN_ENV,
            '{"delays": [[0, 0, 0.3]],'
            ' "policy": {"unit_deadline": 0.1, "max_retries": 7}}',
        )
        resolved = resolve_fault_policy(None)
        assert resolved.max_retries == 7
        assert resolved.unit_deadline == pytest.approx(0.1)
        assert resolved.plan is not None and resolved.plan.delays

    def test_resolve_explicit_policy_wins(self, monkeypatch):
        monkeypatch.setenv(
            FAULT_PLAN_ENV, '{"policy": {"max_retries": 7}}'
        )
        explicit = FaultPolicy(max_retries=1)
        resolved = resolve_fault_policy(explicit)
        assert resolved.max_retries == 1  # env policy does not override
        assert resolved.plan is not None  # but the env plan still loads

    def test_resolve_explicit_plan_wins(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, '{"crashes": [[1, 1, 1]]}')
        mine = FaultPlan(delays=((0, 0, 0.1),))
        resolved = resolve_fault_policy(FaultPolicy(plan=mine))
        assert resolved.plan is mine

    def test_session_rejects_non_policy(self):
        graph, sigma = workload()
        with pytest.raises(TypeError, match="fault_policy"):
            ValidationSession(graph, sigma, fault_policy="retry-lots")


class TestFaultStats:
    def test_faulted_requires_a_fired_fault(self):
        assert not FaultStats().faulted
        assert not FaultStats(respawns=1, retried_units=5).faulted
        assert FaultStats(crashes=1).faulted
        assert FaultStats(stalls=1).faulted
        assert FaultStats(worker_errors=1).faulted

    def test_merge_and_heartbeat_accounting(self):
        left, right = FaultStats(crashes=1), FaultStats(stalls=2, respawns=1)
        left.record_heartbeat(0.010)
        left.record_heartbeat(0.030)
        right.record_heartbeat(0.020)
        left.merge(right)
        assert (left.crashes, left.stalls, left.respawns) == (1, 2, 1)
        assert left.heartbeats == 3
        assert left.heartbeat_latency_mean == pytest.approx(0.020)
        assert left.heartbeat_latency_max == pytest.approx(0.030)


def fault_run(graph, sigma, plan, ship_mode="pickle", **knobs):
    """One full validate under ``plan``; returns the run result."""
    policy = FaultPolicy(plan=plan, **{**FAST, **knobs})
    with quiet_session(
        graph, sigma, executor="process", processes=2, ship_mode=ship_mode,
        fault_policy=policy,
    ) as session:
        return session.validate(n=2)


class TestRecoveryDifferential:
    """Recovered runs must be byte-identical to fault-free runs, and
    the stats channel must prove the fault actually fired."""

    def assert_recovered(self, run, baseline, expected):
        assert run.violations == expected
        assert run.report == baseline.report
        faults = run.shipping.faults
        assert faults is not None and faults.faulted
        assert faults.respawns >= 1
        assert faults.retried_units > 0
        return faults

    @pytest.fixture(scope="class")
    def fixed(self):
        graph, sigma = workload()
        expected = det_vio(sigma, graph)
        baseline = fault_run(graph, sigma, plan=None)
        assert baseline.shipping.faults is not None
        assert not baseline.shipping.faults.faulted
        return graph, sigma, expected, baseline

    def test_hard_crash_recovers_identically(self, fixed):
        graph, sigma, expected, baseline = fixed
        run = fault_run(graph, sigma, FaultPlan(crashes=((0, 0, 1),)))
        faults = self.assert_recovered(run, baseline, expected)
        assert faults.crashes >= 1

    def test_mid_batch_crash_recovers_identically(self, fixed):
        graph, sigma, expected, baseline = fixed
        run = fault_run(graph, sigma, FaultPlan(crashes=((1, 2, 1),)))
        faults = self.assert_recovered(run, baseline, expected)
        assert faults.crashes >= 1

    def test_stall_is_detected_and_recovered(self, fixed):
        graph, sigma, expected, baseline = fixed
        run = fault_run(
            graph, sigma, FaultPlan(delays=((0, 0, 2.0),)),
            unit_deadline=0.2,
        )
        faults = self.assert_recovered(run, baseline, expected)
        assert faults.stalls >= 1

    def test_dropped_reply_is_a_stall(self, fixed):
        """A worker that finishes its batch but never replies is only
        distinguishable by silence: the missed-heartbeat limit reaps it."""
        graph, sigma, expected, baseline = fixed
        run = fault_run(
            graph, sigma, FaultPlan(drop_replies=((0, 1),)),
            heartbeat_interval=0.02,
        )
        faults = self.assert_recovered(run, baseline, expected)
        assert faults.stalls + faults.crashes >= 1

    @needs_shm
    def test_mid_attach_death_recovers_identically(self, fixed):
        graph, sigma, expected, _ = fixed
        shm_baseline = fault_run(graph, sigma, plan=None, ship_mode="shm")
        run = fault_run(
            graph, sigma, FaultPlan(die_mid_attach=((1, 1),)),
            ship_mode="shm",
        )
        faults = self.assert_recovered(run, shm_baseline, expected)
        assert faults.crashes >= 1

    def test_recovery_keeps_cost_accounting_canonical(self, fixed):
        """Cost is charged coordinator-side exactly once per unit, so a
        retried batch must not double-charge the cluster report."""
        graph, sigma, expected, baseline = fixed
        run = fault_run(graph, sigma, FaultPlan(crashes=((0, 0, 1),)))
        assert run.report.makespan == baseline.report.makespan
        assert run.report.total_computation == (
            baseline.report.total_computation
        )

    def test_discovery_mines_identical_rules_under_faults(self):
        graph, _ = workload()
        results = {}
        for plan in (None, FaultPlan(crashes=((0, 0, 1),))):
            policy = FaultPolicy(plan=plan, **FAST)
            with quiet_session(
                graph, [], executor="process", processes=2,
                fault_policy=policy,
            ) as session:
                results[plan is None] = session.discover(
                    min_support=4, max_edges=2, n=2
                )
        clean, faulted = results[True], results[False]
        assert [
            (m.gfd.name, m.support, m.confidence) for m in clean.rules
        ] == [
            (m.gfd.name, m.support, m.confidence) for m in faulted.rules
        ]
        assert clean.violations == faulted.violations


class TestStartUpLiveness:
    """A worker's start-up is not batch silence: the stall and deadline
    clocks arm on its ``ready``, and only a start-up that never ends
    (past ``WORKER_START_TIMEOUT``) counts as a stall."""

    @pytest.fixture
    def first_life_delay(self, monkeypatch):
        """Delay pool worker 0's first incarnation before it comes up.

        Workers — replacements included — fork from this process, so
        they run the patched entry point directly.
        """
        from repro.parallel import executors

        real_main = executors._persistent_worker_main

        def install(seconds):
            def delayed_main(conn, index=0, incarnation=0):
                if index == 0 and incarnation == 0:
                    time.sleep(seconds)
                real_main(conn, index, incarnation)

            monkeypatch.setattr(
                executors, "_persistent_worker_main", delayed_main
            )
            monkeypatch.setattr(
                executors.MultiprocessExecutor, "_clean_start_method",
                staticmethod(lambda: "fork"),
            )
            return executors

        return install

    def test_slow_start_is_not_silence(self, first_life_delay):
        """Twice the stall timeout of start-up, then a healthy batch."""
        first_life_delay(2 * FaultPolicy(**FAST).stall_timeout)
        graph, sigma = workload()
        run = fault_run(graph, sigma, plan=None)
        assert run.violations == det_vio(sigma, graph)
        assert not run.shipping.faults.faulted
        assert run.shipping.faults.respawns == 0

    def test_hung_start_is_bounded(self, first_life_delay, monkeypatch):
        executors = first_life_delay(60.0)
        monkeypatch.setattr(executors, "WORKER_START_TIMEOUT", 0.5)
        graph, sigma = workload()
        run = fault_run(graph, sigma, plan=None)
        assert run.violations == det_vio(sigma, graph)
        assert run.shipping.faults.stalls >= 1
        assert run.shipping.faults.respawns >= 1


class TestAdHocSupervision:
    """The stateless facades run on the same supervised pool as sessions,
    so an env-injected crash is recovered *and* visible on their runs."""

    CRASH_ONCE = '{"crashes": [[0, 0, 1]], "policy": {"backoff": 0.01}}'

    def test_rep_val_reports_recovered_crash(self, monkeypatch):
        graph, sigma = workload()
        expected = det_vio(sigma, graph)
        monkeypatch.setenv(FAULT_PLAN_ENV, self.CRASH_ONCE)
        run = rep_val(sigma, graph, n=2, executor="process", processes=2)
        assert run.violations == expected
        assert run.shipping.faults.respawns >= 1

    def test_dis_val_reports_recovered_crash(self, monkeypatch):
        graph, sigma = workload()
        expected = det_vio(sigma, graph)
        fragmentation = hash_partition(graph, 2, seed=0)
        monkeypatch.setenv(FAULT_PLAN_ENV, self.CRASH_ONCE)
        run = dis_val(sigma, fragmentation, executor="process")
        assert run.violations == expected
        assert run.shipping.faults.respawns >= 1


class TestFailurePaths:
    def test_retry_exhaustion_fails_loudly(self):
        """A worker that dies on every incarnation burns the whole
        retry budget and the run fails for real."""
        graph, sigma = workload()
        with pytest.raises(RuntimeError, match="lost a process"):
            fault_run(
                graph, sigma, FaultPlan(crashes=((0, 0, 10),)),
                max_retries=2,
            )

    def test_zero_retry_policy_is_fail_stop(self):
        graph, sigma = workload()
        with pytest.raises(RuntimeError, match="lost a process"):
            fault_run(
                graph, sigma, FaultPlan(crashes=((0, 0, 1),)),
                max_retries=0,
            )

    def test_cold_restart_refires_the_plan_deterministically(self):
        """Exhaustion tears the pool down; the next validate restarts
        it cold, which resets incarnations — so the same single-shot
        plan fires again and fails the same way.  Determinism holds
        across restarts, not just within one run; and a session whose
        retry budget absorbs the plan succeeds outright."""
        graph, sigma = workload()
        expected = det_vio(sigma, graph)
        policy = FaultPolicy(
            plan=FaultPlan(crashes=((0, 0, 1),)), max_retries=0, **FAST
        )
        with quiet_session(
            graph, sigma, executor="process", processes=2,
            fault_policy=policy,
        ) as session:
            for _ in range(2):  # identical failure on the cold restart
                with pytest.raises(RuntimeError, match="lost a process"):
                    session.validate(n=2)
        tolerant = FaultPolicy(plan=FaultPlan(crashes=((0, 0, 1),)), **FAST)
        with quiet_session(
            graph, sigma, executor="process", processes=2,
            fault_policy=tolerant,
        ) as session:
            run = session.validate(n=2)
            assert run.violations == expected
            assert run.shipping.faults.crashes >= 1


class TestServiceApplierSupervision:
    """The applier survives injected failures with exact diff replay."""

    def stream(self, plan, policy_knobs=None):
        """Run one scripted service stream; returns (diffs, stats,
        expected violations)."""
        graph, sigma = workload()
        mirror, _ = workload()
        nodes = sorted(graph.nodes())
        script = [
            ("attr", nodes[i % len(nodes)], "val", f"s{i}")
            for i in range(24)
        ]
        policy = None
        if plan is not None or policy_knobs:
            policy = FaultPolicy(
                plan=plan, **(policy_knobs or {"backoff": 0.01})
            )
        with ValidationSession(graph, sigma, executor="simulated") as session:
            session.validate(n=2)
            with ValidationService(
                session, max_batch_ops=8, fault_policy=policy
            ) as service:
                subscriber = service.subscribe()
                baseline = set(subscriber.baseline)
                for start in range(0, len(script), 8):
                    service.submit(script[start:start + 8])
                assert service.flush(timeout=120)
                diffs = subscriber.drain()
                stats = service.stats()
        for op in script:
            mirror.set_attr(op[1], op[2], op[3])
        expected = det_vio(sigma, mirror)
        return diffs, stats, baseline, expected

    def test_applier_failures_replay_to_identical_diffs(self):
        clean = self.stream(plan=None)
        faulted = self.stream(
            plan=FaultPlan(applier_failures=((1, 2), (3, 1)))
        )
        clean_diffs, clean_stats, baseline, expected = clean
        fault_diffs, fault_stats, fault_baseline, fault_expected = faulted
        assert expected == fault_expected
        assert baseline == fault_baseline
        # The subscriber streams are byte-identical: same epochs, same
        # added/removed sets, same order — restart-with-replay preserved
        # the exact ViolationDiff stream.
        assert [
            (d.epoch, d.added, d.removed) for d in clean_diffs
        ] == [
            (d.epoch, d.added, d.removed) for d in fault_diffs
        ]
        current = set(baseline)
        for diff in fault_diffs:
            current = diff.apply(current)
        assert current == expected
        # Proof the injection fired and was absorbed by replay.
        assert not clean_stats.faults.faulted
        assert fault_stats.faults.worker_errors == 3
        assert fault_stats.faults.respawns == 3
        assert fault_stats.failure is None

    def test_epochs_stay_contiguous_under_replay(self):
        diffs, stats, _, _ = self.stream(
            plan=FaultPlan(applier_failures=((1, 1), (2, 1)))
        )
        epochs = [diff.epoch for diff in diffs]
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)  # no epoch re-emitted
        assert all(1 <= e <= stats.batches for e in epochs)
        assert stats.faults.worker_errors == 2  # both injections fired

    def test_terminal_applier_failure_chains_cause(self):
        graph, sigma = workload()
        policy = FaultPolicy(
            plan=FaultPlan(applier_failures=((1, 99),)),
            max_retries=1, backoff=0.01,
        )
        with ValidationSession(graph, sigma, executor="simulated") as session:
            session.validate(n=2)
            service = ValidationService(
                session, max_batch_ops=8, fault_policy=policy
            )
            node = sorted(graph.nodes())[0]
            with pytest.raises(RuntimeError, match="applier failed") as info:
                with service:
                    service.submit([("attr", node, "val", "x")])
                    service.flush(timeout=30)
            cause = info.value.__cause__
            assert isinstance(cause, RuntimeError)
            assert "injected applier failure at epoch 1" in str(cause)
            stats = service.stats()
            assert stats.failure is cause  # satellite: recorded, not lost
            assert stats.faults.worker_errors == 2  # attempts accounted
            assert stats.faults.respawns == 1  # the one replay that ran
