"""Tests for the continuous validation service (:mod:`repro.service`).

Five pillars:

* **diff algebra** — ``UpdateDiff``/``ViolationDiff`` composition is
  exact: flickering violations cancel, telescoping any diff stream
  reproduces the endpoint violation sets (randomized against a replay
  oracle);
* **satellite bugfixes** — ``session.update([])`` is a true no-op, and
  ``update()`` exposes *resolved* violations alongside added ones;
* **coalescing** — per-batch op folding (attr last-wins, edge
  final-state cancellation, node-op pass-through) preserves the batch's
  net effect;
* **stream-vs-batch differential** — concurrent producers streaming
  through a :class:`~repro.service.ValidationService` converge to the
  same violation set as one from-scratch ``det_vio`` on an identically
  mutated graph, with subscriber diffs telescoping exactly — on both
  the simulated and process executors, with the process path staying on
  warm delta shipping (zero block rebuilds, in-place patches);
* **backpressure + lifecycle** — slow subscribers degrade to merged
  diffs (never lost ones), full ingestion queues block producers,
  applier failures fail stop, and shutdown leaks neither threads nor
  shared-memory segments.
"""

import os
import random
import threading
import time
from types import SimpleNamespace

import pytest

from repro import (
    UpdateDiff,
    ValidationService,
    ValidationSession,
    ViolationDiff,
    coalesce_ops,
    det_vio,
    generate_gfds,
    power_law_graph,
)
from repro.parallel.engine import SlotResult, consolidate_slot_results
from repro.parallel.executors import shm_available
from repro.service import Subscription


def make_workload(seed):
    graph = power_law_graph(220, 560, seed=seed, domain_size=12)
    sigma = generate_gfds(graph, count=4, pattern_edges=2, seed=seed)
    return graph, sigma


def telescope(baseline, diffs):
    current = set(baseline)
    for diff in diffs:
        current = diff.apply(current)
    return current


class TestDiffAlgebra:
    def test_then_cancels_flicker(self):
        first = UpdateDiff(added=("v1",), removed=("v0",))
        second = UpdateDiff(added=("v0",), removed=("v1",))
        composed = first.then(second)
        assert set(composed) == set() and composed.removed == set()

    def test_then_is_exact_against_replay(self):
        rng = random.Random(17)
        universe = [f"v{i}" for i in range(12)]
        for _ in range(200):
            state = {v for v in universe if rng.random() < 0.5}
            start = set(state)
            total = UpdateDiff()
            for _ in range(rng.randint(1, 6)):
                added = {
                    v for v in universe
                    if v not in state and rng.random() < 0.3
                }
                removed = {v for v in state if rng.random() < 0.3}
                state = (state - removed) | added
                total = total.then(UpdateDiff(added, removed))
            assert total.apply(start) == state
            assert set(total) == state - start
            assert total.removed == start - state

    def test_violation_diff_same_algebra_and_epoch(self):
        first = ViolationDiff(
            epoch=3, added=frozenset({"a"}), removed=frozenset({"b"})
        )
        second = ViolationDiff(
            epoch=4, added=frozenset({"b"}), removed=frozenset({"a"})
        )
        composed = first.then(second)
        assert composed.epoch == 4
        assert composed.empty
        assert first.apply({"b", "c"}) == {"a", "c"}

    def test_update_diff_is_set_of_added(self):
        diff = UpdateDiff(added=("v1", "v2"), removed=("v3",))
        assert diff == {"v1", "v2"}  # backward-compat: iterable of added
        assert diff.added == {"v1", "v2"}
        assert diff.removed == {"v3"}


class TestSatelliteFixes:
    def test_empty_update_is_true_noop(self):
        graph, sigma = make_workload(3)
        with ValidationSession(graph, sigma, executor="simulated") as session:
            session.validate(n=4)
            version = graph._version
            diff = session.update([])
            assert isinstance(diff, UpdateDiff)
            assert set(diff) == set() and diff.removed == set()
            assert graph._version == version  # no version bump
            run = session.validate(n=4)
            # the block cache survived — nothing was cleared
            assert run.cache.builds == 0 and run.cache.hits > 0

    def test_update_exposes_removed_violations(self, g1, phi1):
        with ValidationSession(g1, [phi1], executor="simulated") as session:
            run = session.validate(n=2)
            assert run.violations  # DL1 flies to both NYC and Singapore
            stale = set(session.violations)
            diff = session.update([("attr", "flight2_to", "val", "NYC")])
            assert diff.removed == stale
            assert set(diff) == set()
            assert session.violations == set()
            back = session.update([("attr", "flight2_to", "val", "Singapore")])
            assert set(back) == stale and back.removed == set()
            assert session.violations == stale

    def test_update_diff_tracks_violation_sets(self):
        graph, sigma = make_workload(11)
        rng = random.Random(11)
        nodes = sorted(graph.nodes())
        with ValidationSession(graph, sigma, executor="simulated") as session:
            session.validate(n=4)
            for step in range(20):
                before = set(session.violations)
                diff = session.update([
                    ("attr", rng.choice(nodes), "val", f"d{step}")
                ])
                assert diff.apply(before) == set(session.violations)
                assert set(diff) & diff.removed == set()


class TestCoalesce:
    def setup_method(self):
        self.graph = power_law_graph(30, 60, seed=5, domain_size=4)

    def test_attr_last_wins(self):
        node = sorted(self.graph.nodes())[0]
        ops, cancelled = coalesce_ops(
            [
                ("attr", node, "val", "a"),
                ("attr", node, "other", "x"),
                ("attr", node, "val", "b"),
            ],
            self.graph,
        )
        assert cancelled == 1
        assert ("attr", node, "val", "b") in ops
        assert ("attr", node, "other", "x") in ops
        assert len(ops) == 2

    def test_edge_round_trip_cancels(self):
        nodes = sorted(self.graph.nodes())[:2]
        ops, cancelled = coalesce_ops(
            [
                ("edge+", nodes[0], nodes[1], "fresh"),
                ("edge-", nodes[0], nodes[1], "fresh"),
            ],
            self.graph,
        )
        assert ops == [] and cancelled == 2

    def test_edge_remove_readd_of_existing_edge_cancels(self):
        src, dst, label = next(iter(self.graph.edges()))
        ops, cancelled = coalesce_ops(
            [("edge-", src, dst, label), ("edge+", src, dst, label)],
            self.graph,
        )
        assert ops == [] and cancelled == 2

    def test_effective_edge_ops_survive(self):
        src, dst, label = next(iter(self.graph.edges()))
        nodes = sorted(self.graph.nodes())
        ops, cancelled = coalesce_ops(
            [
                ("edge-", src, dst, label),
                ("edge+", nodes[0], nodes[1], "fresh"),
            ],
            self.graph,
        )
        assert cancelled == 0
        assert set(ops) == {
            ("edge-", src, dst, label),
            ("edge+", nodes[0], nodes[1], "fresh"),
        }

    def test_node_ops_disable_folding_and_keep_order(self):
        batch = [
            ("node", "brand-new", "city", {"val": "Oslo"}),
            ("attr", "brand-new", "val", "Bergen"),
            ("edge+", "brand-new", "brand-new-2", "road"),
            ("node", "brand-new-2", "city", None),
        ]
        ops, cancelled = coalesce_ops(batch, self.graph)
        assert ops == batch and cancelled == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown update kind"):
            coalesce_ops([("frobnicate", "x")], self.graph)


def producer_script(seed, producer, graph_nodes):
    """A deterministic op stream whose net effect is interleaving-proof.

    Attribute keys, edge labels and node ids are producer-unique, so any
    interleaving of the producers' streams (which each preserve their own
    order) reaches the same final graph.
    """
    rng = random.Random(f"{seed}-{producer}")
    ops = []
    live_edges = []
    for step in range(40):
        roll = rng.random()
        if roll < 0.5:
            ops.append((
                "attr", rng.choice(graph_nodes),
                f"p{producer}", f"s{step}",
            ))
        elif roll < 0.7:
            src, dst = rng.sample(graph_nodes, 2)
            if (src, dst) not in live_edges:  # duplicate add = graph no-op,
                ops.append(("edge+", src, dst, f"link{producer}"))
                live_edges.append((src, dst))  # but must not double-remove
        elif roll < 0.8 and live_edges:
            src, dst = live_edges.pop(rng.randrange(len(live_edges)))
            ops.append(("edge-", src, dst, f"link{producer}"))
        else:
            name = f"new-{producer}-{step}"
            ops.append(("node", name, "city", {"val": f"c{step}"}))
            ops.append(("edge+", rng.choice(graph_nodes), name, "to"))
    return ops


def chunked(ops, rng):
    index = 0
    while index < len(ops):
        size = rng.randint(1, 7)
        yield ops[index:index + size]
        index += size


class TestStreamVsBatchDifferential:
    @pytest.mark.parametrize("seed", (3, 11))
    def test_simulated_stream_matches_batch_detect(self, seed):
        graph, sigma = make_workload(seed)
        mirror, _ = make_workload(seed)
        scripts = [
            producer_script(seed, producer, sorted(graph.nodes()))
            for producer in range(3)
        ]
        with ValidationSession(graph, sigma, executor="simulated") as session:
            session.validate(n=4)
            with ValidationService(
                session, max_batch_ops=16, max_batch_age=0.005
            ) as service:
                subscriber = service.subscribe()
                threads = [
                    threading.Thread(
                        target=lambda s=script, p=producer: [
                            service.submit(chunk)
                            for chunk in chunked(
                                s, random.Random(f"{seed}-{p}-chunks")
                            )
                        ]
                    )
                    for producer, script in enumerate(scripts)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert service.flush(timeout=120)
                stats = service.stats()
                assert stats.submitted == sum(map(len, scripts))
                assert stats.applied + stats.cancelled == stats.submitted
                assert service.epoch == stats.batches
                diffs = subscriber.drain()
                # every op already applied: mutate the mirror per-producer
                for script in scripts:
                    apply_script(mirror, script)
                expected = det_vio(sigma, mirror)
                assert set(session.violations) == expected
                assert telescope(subscriber.baseline, diffs) == expected
                epochs = [diff.epoch for diff in diffs]
                assert epochs == sorted(epochs)
            # the session survives the service and re-validates warm
            run = session.validate(n=4)
            assert run.violations == expected

    def test_process_stream_stays_on_delta_path(self):
        seed = 3
        graph, sigma = make_workload(seed)
        mirror, _ = make_workload(seed)
        nodes = sorted(graph.nodes())
        rng = random.Random(seed)
        script = [
            ("attr", rng.choice(nodes), "val", f"s{step}")
            for step in range(80)
        ]
        with ValidationSession(
            graph, sigma, executor="process", processes=2
        ) as session:
            session.validate(n=4)
            with ValidationService(
                session, max_batch_ops=16, max_batch_age=0.005
            ) as service:
                subscriber = service.subscribe()
                for chunk in chunked(script, rng):
                    service.submit(chunk)
                assert service.flush(timeout=120)
                diffs = subscriber.drain()
            run = session.validate(n=4)
            apply_script(mirror, script)
            expected = det_vio(sigma, mirror)
            assert run.violations == expected
            assert telescope(subscriber.baseline, diffs) == expected
            # warm delta shipping end to end: nothing reshipped wholesale,
            # worker block caches patched in place — zero rebuilds
            assert run.shipping.full == 0
            assert run.shipping.delta > 0
            assert run.shipping.block_cache is not None
            assert run.shipping.block_cache.builds == 0
            assert run.shipping.block_cache.patched > 0


def apply_script(graph, ops):
    for op in ops:
        kind = op[0]
        if kind == "attr":
            graph.set_attr(op[1], op[2], op[3])
        elif kind == "edge+":
            graph.add_edge(op[1], op[2], op[3])
        elif kind == "edge-":
            graph.remove_edge(op[1], op[2], op[3])
        else:
            graph.add_node(op[1], op[2], op[3])


class TestBackpressure:
    def test_slow_subscriber_merges_oldest_diffs(self, g1, phi1):
        with ValidationSession(g1, [phi1], executor="simulated") as session:
            session.validate(n=2)
            with ValidationService(
                session, max_batch_ops=1, max_batch_age=0.0
            ) as service:
                subscriber = service.subscribe(max_pending=2)
                baseline = subscriber.baseline
                # each flip toggles the violation set → a non-empty diff
                for flip in range(8):
                    city = "NYC" if flip % 2 == 0 else "Singapore"
                    service.submit([("attr", "flight2_to", "val", city)])
                    assert service.flush(timeout=30)
                assert subscriber.merged > 0
                diffs = subscriber.drain()
                assert len(diffs) <= 2
                assert telescope(baseline, diffs) == set(session.violations)
                stats = service.stats()
                assert stats.diffs_merged >= subscriber.merged

    def test_full_queue_blocks_producers(self, g1, phi1, monkeypatch):
        with ValidationSession(g1, [phi1], executor="simulated") as session:
            session.validate(n=2)
            gate = threading.Event()
            real_update = session.update

            def slow_update(ops):
                gate.wait(timeout=30)
                return real_update(ops)

            monkeypatch.setattr(session, "update", slow_update)
            with ValidationService(
                session,
                max_batch_ops=2,
                max_batch_age=0.0,
                max_pending_ops=4,
            ) as service:
                done = threading.Event()

                def producer():
                    for step in range(12):
                        service.submit([
                            ("attr", "flight2_to", "val", f"c{step}")
                        ])
                    done.set()

                thread = threading.Thread(target=producer)
                thread.start()
                # the applier is gated, the queue bound is 4: the producer
                # cannot finish its 12 ops until the gate opens
                assert not done.wait(timeout=0.3)
                gate.set()
                assert done.wait(timeout=30)
                thread.join()
                assert service.flush(timeout=30)
                stats = service.stats()
                assert stats.submitted == 12
                assert stats.applied + stats.cancelled == 12


class TestLifecycle:
    def test_close_drains_and_session_survives(self, g1, phi1):
        with ValidationSession(g1, [phi1], executor="simulated") as session:
            run = session.validate(n=2)
            expected = run.violations
            service = ValidationService(session, max_batch_age=30.0)
            service.submit([("attr", "flight2_to", "val", "NYC")])
            service.submit([("attr", "flight2_to", "val", "Singapore")])
            service.close()  # drains the queue before stopping
            service.close()  # idempotent
            stats = service.stats()
            assert stats.submitted == stats.applied + stats.cancelled == 2
            assert session.validate(n=2).violations == expected
            with pytest.raises(RuntimeError, match="closed"):
                service.submit([("attr", "flight2_to", "val", "NYC")])

    def test_flush_cuts_a_partial_batch(self, g1, phi1):
        """A flush does not wait out the age watermark: with the clock
        frozen the batch never ages, so only the flush can cut it."""
        with ValidationSession(g1, [phi1], executor="simulated") as session:
            session.validate(n=2)
            with ValidationService(
                session, max_batch_ops=4, max_batch_age=5,
                clock=lambda: 0.0,
            ) as service:
                for city in ("NYC", "Singapore", "Paris"):
                    service.submit([("attr", "flight2_to", "val", city)])
                started = time.monotonic()
                assert service.flush(timeout=1.0)
                assert time.monotonic() - started < 1.0
                stats = service.stats()
                assert stats.applied + stats.cancelled == 3
                assert stats.batches == 1
            assert session.violations == det_vio([phi1], g1)

    def test_applier_failure_fails_stop(self, g1, phi1):
        with ValidationSession(g1, [phi1], executor="simulated") as session:
            session.validate(n=2)
            with pytest.raises(RuntimeError, match="applier failed"):
                with ValidationService(session, max_batch_age=0.0) as service:
                    subscriber = service.subscribe()
                    # attr on an unknown node raises inside the applier
                    service.submit([("attr", "no-such-node", "val", "x")])
                    service.flush(timeout=30)
            assert subscriber.next(timeout=0.1) is None  # woken, not hung

    def test_shutdown_leaks_no_threads(self, g1, phi1):
        def service_threads():
            return [
                thread for thread in threading.enumerate()
                if "validation-service" in thread.name
            ]

        with ValidationSession(g1, [phi1], executor="simulated") as session:
            session.validate(n=2)
            with ValidationService(session) as service:
                service.submit([("attr", "flight2_to", "val", "NYC")])
                service.flush(timeout=30)
                assert service_threads()
        deadline = time.monotonic() + 5
        while service_threads() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service_threads() == []

    @pytest.mark.skipif(not shm_available(), reason="no usable /dev/shm")
    def test_shutdown_leaves_no_shm_residue(self):
        import glob

        graph, sigma = make_workload(3)
        with ValidationSession(
            graph, sigma, executor="process", processes=2, ship_mode="shm"
        ) as session:
            session.validate(n=4)
            with ValidationService(session, max_batch_ops=8) as service:
                nodes = sorted(graph.nodes())
                service.submit(
                    [("attr", node, "val", "x") for node in nodes[:20]]
                )
                assert service.flush(timeout=120)
            session.validate(n=4)
        # names carry the publishing pid, so look at this process's only
        assert glob.glob(f"/dev/shm/rgfd-{os.getpid()}-*") == []

    def test_subscription_close_detaches(self, g1, phi1):
        with ValidationSession(g1, [phi1], executor="simulated") as session:
            session.validate(n=2)
            with ValidationService(
                session, max_batch_ops=1, max_batch_age=0.0
            ) as service:
                subscriber = service.subscribe()
                assert isinstance(subscriber, Subscription)
                subscriber.close()
                service.submit([("attr", "flight2_to", "val", "NYC")])
                assert service.flush(timeout=30)
                assert subscriber.next(timeout=0.1) is None

    def test_bad_construction_rejected(self, g1, phi1):
        with ValidationSession(g1, [phi1], executor="simulated") as session:
            with pytest.raises(ValueError, match="max_batch_ops"):
                ValidationService(session, max_batch_ops=0)
            with pytest.raises(ValueError, match="max_pending_ops"):
                ValidationService(session, max_batch_ops=64, max_pending_ops=8)
            with pytest.raises(ValueError, match="unknown update kind"):
                with ValidationService(session) as service:
                    service.submit([("drop-table", "x")])


class TestServeCli:
    def test_serve_replay_emits_diffs_and_summary(self, tmp_path, g1, phi1):
        import io
        import json

        from repro.cli import format_rule_file, main as cli_main
        from repro.graph import save_graph

        graph_file = tmp_path / "g.jsonl"
        save_graph(g1, graph_file)
        rules_file = tmp_path / "rules.txt"
        rules_file.write_text(format_rule_file([phi1]))
        replay = tmp_path / "ops.jsonl"
        replay.write_text(
            '["attr", "flight2_to", "val", "NYC"]\n'
            "# comments and blank lines are skipped\n\n"
            '[["attr", "flight1_dep", "val", "15:00"]]\n'
        )
        out = io.StringIO()
        code = cli_main(
            [
                "serve", str(graph_file), str(rules_file),
                "--replay", str(replay), "--json",
            ],
            out,
        )
        assert code == 0  # the replay repairs the DL1 inconsistency
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        diffs = [line for line in lines if "epoch" in line]
        assert diffs and diffs[0]["removed"] and not diffs[0]["added"]
        summary = lines[-1]["summary"]
        assert summary["submitted"] == 2
        assert summary["violations"] == 0
        assert summary["applied"] + summary["cancelled"] == 2


class TestDetectConsolidation:
    def test_detect_results_union_into_one_slot_result(self):
        group_a = SimpleNamespace(leader_index=0, members=())
        group_b = SimpleNamespace(leader_index=1, members=())
        units = [
            SimpleNamespace(kind="detect", group=group, payload=None)
            for group in (group_a, group_a, group_b, group_a)
        ]
        results = [
            SlotResult(steps=[3], vf2_units=1, violations={"v1"}),
            SlotResult(steps=[2], vf2_units=1, violations={"v1", "v2"}),
            SlotResult(steps=[1], vf2_units=1, violations={"v3"}),
            SlotResult(),  # a replica's one-unit result is empty
        ]
        merged = consolidate_slot_results(units, results)
        assert merged.violations == {"v1", "v2", "v3"}
        assert merged.payloads == {}  # detect ships violations only
        # cost accounting keeps one steps entry per executed unit
        assert merged.steps == [3, 2, 1]
        assert merged.vf2_units == 3
        assert results[0].violations == {"v1"}  # inputs stay as they were
