"""The shared-memory shard plane: arena round-trips, publish/attach,
shm ≡ pickle differentials, shipping accounting, segment lifecycle
(including worker crashes and resource-tracker silence), and the
oversubscription honour-or-warn contract.

Everything here complements the executor differential matrix in
``test_parallel_executors.py``, which CI re-runs wholesale with
``REPRO_SHIP_MODE=shm``.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro import ValidationSession
from repro.core import det_vio, generate_gfds
from repro.graph import GraphSnapshot, hash_partition, power_law_graph
from repro.matching import SubgraphMatcher
from repro.parallel import (
    FaultPlan,
    FaultPolicy,
    MultiprocessExecutor,
    ShardPlane,
    dis_val,
    estimate_workload,
    rep_val,
    shm_available,
    worker_graph,
)
from repro.parallel.executors import SHM_NAME_PREFIX, attach_shard_ref

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this host"
)

# Two-worker pools on a single-CPU runner trip the (intentional)
# oversubscription warning everywhere; the tests that pin the warning
# itself re-enable it locally.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def workload(seed: int = 3):
    graph = power_law_graph(220, 560, seed=seed, domain_size=12)
    sigma = generate_gfds(graph, count=4, pattern_edges=2, seed=seed)
    return graph, sigma


def leaked_segments():
    """Shard-plane names still present in /dev/shm (should be none)."""
    return sorted(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}-*"))


@pytest.fixture(autouse=True)
def no_segment_residue():
    """Every test in this module must leave /dev/shm clean."""
    before = leaked_segments()
    yield
    assert leaked_segments() == before


def quiet_session(*args, **kwargs):
    """A process-backed session without the 1-CPU oversubscription noise."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ValidationSession(*args, **kwargs)


class TestArena:
    def test_roundtrip_preserves_primary_state(self):
        graph, _ = workload()
        snap = GraphSnapshot(graph)
        buffer = bytearray(snap.arena_nbytes())
        layout = snap.write_arena(buffer)
        mapped = GraphSnapshot.from_arena(
            buffer, layout, snap.identity_state()
        )
        assert mapped.mapped and not snap.mapped
        assert mapped.node_ids == snap.node_ids
        for field in GraphSnapshot.ARENA_FIELDS:
            assert list(getattr(mapped, field)) == list(getattr(snap, field))
        assert sorted(mapped.edges()) == sorted(snap.edges())

    def test_mapped_snapshot_matches_identically(self):
        graph, sigma = workload(seed=11)
        snap = GraphSnapshot(graph)
        buffer = bytearray(snap.arena_nbytes())
        mapped = GraphSnapshot.from_arena(
            buffer, snap.write_arena(buffer), snap.identity_state()
        )
        for gfd in sigma:
            def key(m):
                return sorted(m.items(), key=repr)
            assert sorted(
                map(key, SubgraphMatcher(gfd.pattern, snap).matches())
            ) == sorted(
                map(key, SubgraphMatcher(gfd.pattern, mapped).matches())
            )

    def test_materialise_detaches_from_buffer(self):
        graph, _ = workload()
        snap = GraphSnapshot(graph)
        buffer = bytearray(snap.arena_nbytes())
        mapped = GraphSnapshot.from_arena(
            buffer, snap.write_arena(buffer), snap.identity_state()
        )
        private = mapped.materialise()
        assert not private.mapped
        buffer[:] = bytes(len(buffer))  # scribble over the arena
        assert sorted(private.edges()) == sorted(snap.edges())

    def test_apply_delta_demotes_mapped_snapshot(self):
        graph, _ = workload()
        snap = GraphSnapshot(graph)
        buffer = bytearray(snap.arena_nbytes())
        mapped = GraphSnapshot.from_arena(
            buffer, snap.write_arena(buffer), snap.identity_state()
        )
        src = next(iter(graph.nodes()))
        graph.add_edge(src, src, "delta-probe")
        mapped.apply_delta([("edge+", src, src, "delta-probe")])
        assert not mapped.mapped  # demoted to private storage
        buffer[:] = bytes(len(buffer))  # the arena is no longer referenced
        assert sorted(mapped.edges()) == sorted(graph.edges())


@needs_shm
class TestShardPlane:
    def test_publish_attach_roundtrips_the_shard(self):
        graph, sigma = workload()
        units = estimate_workload(sigma, graph)
        shard = worker_graph(graph, units[:3])
        plane = ShardPlane()
        try:
            ref, segment_bytes = plane.publish(0, shard)
            assert ref[0] == "shm" and segment_bytes > 0
            assert all(
                name.startswith(SHM_NAME_PREFIX)
                for name in plane.segment_names()
            )
            attached, segment = attach_shard_ref(ref)
            try:
                assert attached == shard  # labels, attrs, edges — all of it
                assert attached.snapshot().mapped
            finally:
                attached.drop_snapshot_cache()
                segment.close()
        finally:
            plane.close()

    def test_republish_retires_previous_segment(self):
        graph, sigma = workload()
        shard = worker_graph(graph, estimate_workload(sigma, graph)[:2])
        plane = ShardPlane()
        try:
            first_ref, _ = plane.publish(0, shard)
            plane.publish(0, shard)
            assert len(plane) == 1
            with pytest.raises(FileNotFoundError):
                attach_shard_ref(first_ref)
        finally:
            plane.close()

    def test_close_unlinks_names(self):
        graph, sigma = workload()
        shard = worker_graph(graph, estimate_workload(sigma, graph)[:2])
        plane = ShardPlane()
        ref, _ = plane.publish(0, shard)
        plane.close()
        plane.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            attach_shard_ref(ref)


@needs_shm
class TestShmPickleDifferential:
    """shm and pickle transports must be observationally identical."""

    def test_rep_val_agrees(self):
        graph, sigma = workload()
        expected = det_vio(sigma, graph)
        runs = {
            mode: rep_val(
                sigma, graph, n=2, executor="process", processes=2,
                ship_mode=mode,
            )
            for mode in ("pickle", "shm")
        }
        for run in runs.values():
            assert run.violations == expected
        assert runs["pickle"].report == runs["shm"].report

    def test_dis_val_agrees(self):
        graph, sigma = workload(seed=11)
        expected = det_vio(sigma, graph)
        fragmentation = hash_partition(graph, 2, seed=11)
        runs = {
            mode: dis_val(
                sigma, fragmentation, executor="process", processes=2,
                ship_mode=mode,
            )
            for mode in ("pickle", "shm")
        }
        for run in runs.values():
            assert run.violations == expected
        assert runs["pickle"].report == runs["shm"].report

    def test_discovery_mines_identical_rules(self):
        graph, _ = workload()
        results = {}
        for mode in ("pickle", "shm"):
            with quiet_session(
                graph, [], executor="process", processes=2, ship_mode=mode,
            ) as session:
                results[mode] = session.discover(
                    min_support=4, max_edges=2, n=2
                )
        pickle_run, shm_run = results["pickle"], results["shm"]
        assert [
            (m.gfd.name, m.support, m.confidence) for m in pickle_run.rules
        ] == [
            (m.gfd.name, m.support, m.confidence) for m in shm_run.rules
        ]
        assert pickle_run.violations == shm_run.violations


@needs_shm
class TestSessionShipping:
    """Accounting: mapped volume is not shipped volume."""

    def test_warm_sequence_full_reuse_delta(self):
        graph, sigma = workload()
        with quiet_session(
            graph, sigma, executor="process", processes=2, ship_mode="shm",
        ) as session:
            cold = session.validate(n=2)
            assert cold.shipping.full == 2
            assert cold.shipping.mapped == 2
            assert cold.shipping.mapped_bytes > 0
            assert cold.shipping.shard_bytes == 0  # nothing pickled
            assert len(leaked_segments()) == 2  # live, published segments

            warm = session.validate(n=2)
            assert warm.shipping.reused == 2
            assert warm.shipping.mapped == 0
            assert warm.shipping.mapped_bytes == 0

            # The op must touch a node resident in some slot's shard,
            # else every slot legitimately reports "reuse" (the edge is
            # invisible to its blocks).  Any unit's block node qualifies.
            units = estimate_workload(sigma, graph)
            src = next(iter(units[0].block_nodes))
            session.update([("edge+", src, src, "self-probe")])
            patched = session.validate(n=2)
            assert patched.violations == det_vio(sigma, graph)
            assert patched.shipping.mapped == 0
            assert patched.shipping.delta + patched.shipping.reused == 2
            assert patched.shipping.delta >= 1
            # Delta shipping demotes mapped shards: every slot that got a
            # delta had its segment retired on the spot.
            assert len(leaked_segments()) <= 2 - patched.shipping.delta
        assert leaked_segments() == []

    def test_pickle_mode_never_maps(self):
        graph, sigma = workload()
        with quiet_session(
            graph, sigma, executor="process", processes=2, ship_mode="pickle",
        ) as session:
            run = session.validate(n=2)
            assert run.shipping.mapped == 0
            assert run.shipping.mapped_bytes == 0
            assert run.shipping.shard_bytes > 0
            assert leaked_segments() == []


@needs_shm
class TestSegmentLifecycle:
    def test_shutdown_unlinks_everything(self):
        graph, sigma = workload()
        session = quiet_session(
            graph, sigma, executor="process", processes=2, ship_mode="shm",
        )
        try:
            session.validate(n=2)
            assert len(leaked_segments()) == 2
        finally:
            session.close()
        assert leaked_segments() == []
        # The session stays usable: the next run starts cold again.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rerun = session.validate(n=2)
        assert rerun.shipping.mapped == 2
        session.close()
        assert leaked_segments() == []

    def test_worker_crash_recovers_with_no_residue(self):
        """A SIGKILL'd worker is respawned mid-run; /dev/shm stays clean.

        Under the default :class:`FaultPolicy` the supervised pool
        detects the pipe EOF, respawns the slot, re-ships its shard and
        requeues the in-flight units — the run completes with the
        fault-free answer and the dead worker's segments are retired,
        not leaked.
        """
        graph, sigma = workload()
        expected = det_vio(sigma, graph)
        session = quiet_session(
            graph, sigma, executor="process", processes=2, ship_mode="shm",
            fault_policy=FaultPolicy(backoff=0.01),
        )
        try:
            session.validate(n=2)
            victim = session._pool._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            run = session.validate(n=2)
            assert run.violations == expected
            assert run.shipping.faults is not None
            assert run.shipping.faults.crashes >= 1
            assert run.shipping.faults.respawns >= 1
            # One resident segment per slot, recovery or not.
            assert len(leaked_segments()) == 2
        finally:
            session.close()
        assert leaked_segments() == []

    def test_worker_crash_without_retries_fails_clean(self):
        """``max_retries=0`` pins the old fail-stop contract — and even
        the failing path must leave /dev/shm spotless."""
        graph, sigma = workload()
        session = quiet_session(
            graph, sigma, executor="process", processes=2, ship_mode="shm",
            fault_policy=FaultPolicy(max_retries=0, backoff=0.01),
        )
        try:
            session.validate(n=2)
            victim = session._pool._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(RuntimeError, match="lost a process"):
                session.validate(n=2)
            # The failed run tore the pool down — plane included.
            assert leaked_segments() == []
        finally:
            session.close()
        assert leaked_segments() == []

    def test_death_mid_attach_recovers_with_no_residue(self):
        """A worker dying *between* shm attach and first use is the
        lifecycle's nastiest window: the segment is mapped in a process
        that will never unmap it deliberately.  Recovery must re-ship,
        re-attach cleanly and leave zero residue."""
        graph, sigma = workload()
        expected = det_vio(sigma, graph)
        plan = FaultPlan(die_mid_attach=((0, 1),))
        session = quiet_session(
            graph, sigma, executor="process", processes=2, ship_mode="shm",
            fault_policy=FaultPolicy(plan=plan, backoff=0.01),
        )
        try:
            run = session.validate(n=2)
            assert run.violations == expected
            assert run.shipping.faults.crashes >= 1
            assert len(leaked_segments()) == 2
            # The respawned worker re-attached for real.  Its slot's
            # cache mirror was dropped (not re-registered) by recovery,
            # so the warm rerun re-ships that one slot full and reuses
            # the survivor's resident shard.
            warm = session.validate(n=2)
            assert warm.violations == expected
            assert warm.shipping.full == 1
            assert warm.shipping.reused == 1
        finally:
            session.close()
        assert leaked_segments() == []

    def test_death_mid_unit_reattaches_cleanly(self):
        """An injected hard exit mid-batch (after attach, between units)
        must requeue onto a respawned worker that re-attaches the same
        published segment — and retire the replaced attachment without
        dropping mapped buffers to the GC."""
        graph, sigma = workload()
        expected = det_vio(sigma, graph)
        plan = FaultPlan(crashes=((0, 1, 1),))  # die before its 2nd unit
        session = quiet_session(
            graph, sigma, executor="process", processes=2, ship_mode="shm",
            fault_policy=FaultPolicy(plan=plan, backoff=0.01),
        )
        try:
            run = session.validate(n=2)
            assert run.violations == expected
            assert run.shipping.faults.crashes >= 1
            assert run.shipping.faults.retried_units > 0
            assert len(leaked_segments()) == 2
            warm = session.validate(n=2)
            assert warm.violations == expected
            assert warm.shipping.full == 1  # recovered slot went cold
            assert warm.shipping.reused == 1
        finally:
            session.close()
        assert leaked_segments() == []

    def test_no_resource_tracker_noise(self, tmp_path):
        """A full shm session in a clean interpreter must exit silently.

        Worker attachments are deliberately invisible to the resource
        tracker (see ``_attach_untracked``); a stray registration shows
        up here as tracker stderr — either a leaked-resource warning or
        the double-unregister ``KeyError`` traceback.
        """
        src_dir = Path(repro.__file__).resolve().parents[1]
        code = (
            "import warnings\n"
            "from repro import ValidationSession\n"
            "from repro.core import generate_gfds\n"
            "from repro.graph import power_law_graph\n"
            "graph = power_law_graph(220, 560, seed=3, domain_size=12)\n"
            "sigma = generate_gfds(graph, count=4, pattern_edges=2, seed=3)\n"
            "warnings.simplefilter('ignore', RuntimeWarning)\n"
            "with ValidationSession(graph, sigma, executor='process',\n"
            "                       processes=2, ship_mode='shm') as s:\n"
            "    s.validate(n=2)\n"
            "    s.validate(n=2)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "resource_tracker" not in result.stderr, result.stderr
        assert "KeyError" not in result.stderr, result.stderr
        assert "leaked" not in result.stderr, result.stderr


class TestShipModeValidation:
    def test_unknown_mode_rejected_everywhere(self):
        graph, sigma = workload()
        with pytest.raises(ValueError, match="ship_mode"):
            MultiprocessExecutor(ship_mode="carrier-pigeon")
        with pytest.raises(ValueError, match="ship_mode"):
            ValidationSession(graph, sigma, ship_mode="carrier-pigeon")

    def test_explicit_shm_rejected_when_unavailable(self, monkeypatch):
        from repro.parallel import executors

        graph, sigma = workload()
        monkeypatch.setattr(executors, "shm_available", lambda: False)
        with pytest.raises(ValueError, match="shared memory"):
            MultiprocessExecutor(ship_mode="shm")
        # the session validates through the same executors check
        with pytest.raises(ValueError, match="shared memory"):
            ValidationSession(graph, sigma, ship_mode="shm")

    def test_auto_falls_back_without_shm(self, monkeypatch):
        from repro.parallel import executors

        monkeypatch.setattr(executors, "shm_available", lambda: False)
        pool = MultiprocessExecutor(ship_mode="auto")
        graph, sigma = workload()
        shard = worker_graph(graph, estimate_workload(sigma, graph)[:3])
        assert not pool._map_shard(shard)


class TestOversubscription:
    """processes=N above the CPU count is honoured — loudly."""

    def test_persistent_pool_warns_and_honours(self):
        from repro.parallel.executors import usable_cpus

        size = usable_cpus() + 2
        pool = MultiprocessExecutor(processes=size)
        try:
            with pytest.warns(RuntimeWarning, match="oversubscribed"):
                pool.start()
            assert len(pool.worker_pids()) == size
        finally:
            pool.shutdown()

    def test_fitting_pool_stays_silent(self):
        pool = MultiprocessExecutor(processes=1)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                pool.start()
            assert len(pool.worker_pids()) == 1
        finally:
            pool.shutdown()

    def test_adhoc_run_warns_and_honours(self):
        from repro.parallel.executors import usable_cpus

        graph, sigma = workload()
        expected = det_vio(sigma, graph)
        n = usable_cpus() + 1
        with pytest.warns(RuntimeWarning, match="oversubscribed"):
            run = rep_val(
                sigma, graph, n=n, executor="process", processes=n
            )
        assert run.violations == expected


class TestAdHocRuns:
    """Stateless process runs go through the supervised pool: sized by
    the plan, reported on ``run.shipping``, and gone once they return."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_rep_val_starts_at_most_n_workers(self, monkeypatch, n):
        slots = set()
        spawn = MultiprocessExecutor._spawn_worker

        def recording_spawn(pool, index, *args, **kwargs):
            slots.add(index)
            return spawn(pool, index, *args, **kwargs)

        monkeypatch.setattr(
            MultiprocessExecutor, "_spawn_worker", recording_spawn
        )
        graph, sigma = workload()
        run = rep_val(sigma, graph, n=n, executor="process")
        assert run.violations == det_vio(sigma, graph)
        assert 1 <= len(set(run.shipping.worker_pids.values())) <= n
        assert slots <= set(range(n))

    @needs_shm
    def test_nothing_outlives_the_call(self):
        graph, sigma = workload()
        run = rep_val(sigma, graph, n=2, executor="process", ship_mode="shm")
        assert run.shipping.mapped >= 1
        assert run.shipping.worker_pids
        children = {child.pid for child in multiprocessing.active_children()}
        for pid in run.shipping.worker_pids.values():
            assert pid not in children
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert leaked_segments() == []
