"""Shared machinery of the benchmark: run outcome, spans, statistics, the
hard wall-clock cap and the no-process-left-behind checks.

Nothing here starts a thread or a process.
"""

from __future__ import annotations

import gc
import glob
import json
import math
import multiprocessing
import os
import resource
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: shard-plane segments (``repro.parallel.executors.SHM_NAME_PREFIX``)
SHM_GLOB = "/dev/shm/rgfd-*"

#: layers of ``src/repro`` on the measured paths; a span's layer is the
#: part of its name before the first dot
LAYERS = (
    "graph", "matching", "core", "plan", "engine", "executors", "session",
    "service",
)


class CapExpired(BaseException):
    """The workload's hard wall-clock cap fired.

    A ``BaseException`` so that no ``except Exception`` on the program's
    side swallows it on its way out of the workload.
    """


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


class Samples:
    """Wall-clock samples of one operation, each with the CPU time the
    hypervisor stole while it ran."""

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.stolen: List[int] = []

    def __len__(self) -> int:
        return len(self.seconds)

    @contextmanager
    def measure(self):
        """Time the block; a block that raises adds no sample."""
        stolen = steal_ticks()
        start = time.perf_counter()
        yield
        self.seconds.append(time.perf_counter() - start)
        self.stolen.append(steal_ticks() - stolen)

    def steady(self) -> List[float]:
        """The samples during which the hypervisor stole at most the
        median amount of CPU time — at least half of them.

        On a shared host, stolen time moves whole runs: the all-sample
        median of one seed's warm validate ranged 50-95 ms between runs,
        and a validate without steal ran 20 % faster than one with.  The
        selection looks only at the host, never at a sample's own time.
        """
        limit = statistics.median(self.stolen)
        return [s for s, st in zip(self.seconds, self.stolen) if st <= limit]


def steal_ticks() -> int:
    """CPU time the hypervisor has taken from this machine so far
    (``/proc/stat`` steal, in clock ticks); 0 where it is not reported."""
    try:
        with open("/proc/stat") as handle:
            return int(handle.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


# ----------------------------------------------------------------------
# outcome of one run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Everything one run reports.

    ``attempted``/``failed`` count operations (a validate, a discover or
    a submitted update); an operation fails on an exception, a timeout
    or an oracle mismatch.  ``problems`` holds run-level failures that
    are not operations (anchor drift, a leaked process); any problem or
    failed operation makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: end-to-end metrics: name -> value (units come from BENCHMARK.json)
    e2e: Dict[str, float] = field(default_factory=dict)
    #: the workload's metrics under the names README uses: name -> (value, unit)
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: exact-count anchors: name -> value (must repeat exactly per seed)
    anchors: Dict[str, object] = field(default_factory=dict)
    #: raw timing samples behind the medians, for the written report
    samples: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def ops(self, count: int, ok: bool, what: str = "") -> None:
        """Account ``count`` operations that all passed or all failed."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.errors.append(what)

    def op(self, ok: bool, what: str = "") -> None:
        self.ops(1, ok, what)

    def problem(self, what: str) -> None:
        self.problems.append(what)

    def anchor(self, name: str, value) -> None:
        """Record an exact-count anchor; a second, different value within
        the run is a determinism bug."""
        if name in self.anchors and self.anchors[name] != value:
            self.problem(
                f"anchor {name} drifted within the run: "
                f"{self.anchors[name]!r} then {value!r}"
            )
            return
        self.anchors[name] = value


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder for the traced run.

    A span is ``(name, start, end, parent index, iteration id)``; every
    span opened during one workload iteration carries that iteration's
    id.  Spans are only recorded, never printed, until the run ends.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.iteration = 0

    def next_iteration(self) -> None:
        self.iteration += 1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.iteration]
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def _closed(self):
        return [span for span in self.spans if span[2] is not None]

    def durations(self, name: str) -> List[float]:
        """Duration of every closed span called ``name``."""
        return [end - start for n, start, end, _, _ in self._closed()
                if n == name]

    def per_iteration(self, names: Sequence[str]) -> List[float]:
        """Summed duration of the ``names`` spans per iteration that
        opened any of them."""
        totals: Dict[int, float] = {}
        for n, start, end, _, it in self._closed():
            if n in names:
                totals[it] = totals.get(it, 0.0) + (end - start)
        return list(totals.values())

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: each span's duration minus the time its
        child spans cover, summed by layer."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self._closed():
            if parent is not None:
                child_time[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child_time[index]
        return out

    def dump(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "iteration": i}
            for n, s, e, p, i in self.spans
        ]


class NoTrace:
    """Tracing off: spans cost one attribute lookup and nothing else."""

    enabled = False
    iteration = 0
    _NULL = nullcontext()

    def next_iteration(self) -> None:
        pass

    def span(self, name: str):
        return self._NULL


# ----------------------------------------------------------------------
# wall-clock cap
# ----------------------------------------------------------------------
class WallClockCap:
    """Hard cap on a workload's wall-clock time (``SIGALRM``, no thread).

    On expiry :class:`CapExpired` is raised in the main thread, so the
    workload's ``finally`` blocks close its service (without draining)
    and its sessions.  If that clean-up itself overruns ``backstop``
    seconds, every descendant process is killed, this process's shard
    segments are unlinked and the process exits with code 3.
    """

    def __init__(self, seconds: float, backstop: float = 45.0) -> None:
        self.seconds = seconds
        self.backstop = backstop
        self.fired = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if not self.fired:
            self.fired = True
            signal.setitimer(signal.ITIMER_REAL, self.backstop)
            raise CapExpired(f"wall-clock cap of {self.seconds:.0f} s expired")
        kill_descendants()
        for path in glob.glob(f"/dev/shm/rgfd-{os.getpid()}-*"):
            try:
                os.unlink(path)
            except OSError:
                pass
        os._exit(3)

    def __enter__(self) -> "WallClockCap":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# ----------------------------------------------------------------------
# process and segment hygiene
# ----------------------------------------------------------------------
def shm_segments() -> set:
    return set(glob.glob(SHM_GLOB))


def descendants(root: Optional[int] = None) -> List[int]:
    """Live descendant pids of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] == "Z":  # exited, only waiting to be reaped
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def kill_descendants() -> List[int]:
    pids = descendants()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    multiprocessing.active_children()  # reaps what it knows about
    return pids


def _stop_multiprocessing_helpers() -> None:
    """Stop the resource tracker and fork server, if they were started.

    Both are helper processes the standard library starts on the
    program's behalf (shared-memory segments, respawned workers) and
    keeps until interpreter exit; the benchmark stops them so that no
    process it caused outlives it.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (
        getattr(resource_tracker, "_resource_tracker", None),
        getattr(forkserver, "_forkserver", None),
    ):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def check_hygiene(shm_before: set) -> List[str]:
    """The three exit conditions; returns one message per breach.

    Any breach is also cleaned up (children killed, segments left
    alone but reported), so the benchmark never leaves a process behind.
    """
    problems = []
    children = multiprocessing.active_children()
    if children:
        problems.append(
            f"multiprocessing children still alive: {[c.pid for c in children]}"
        )
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        problems.append(f"shared-memory segments left behind: {leaked}")
    _stop_multiprocessing_helpers()
    alive = descendants()
    if alive:
        problems.append(f"descendant processes still alive: {alive}")
        kill_descendants()
    return problems


def _status_mb(field_name: str) -> Optional[float]:
    """A ``kB`` field of ``/proc/self/status``, in MB (None if absent)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, IndexError, ValueError):
        pass
    return None


def reset_peak_rss() -> Dict[str, float]:
    """Start the coordinator's peak-RSS measurement here.

    Called once a workload's inputs are written (its oracles run after
    its last session is closed), so that the peak covers the program's
    work and not the benchmark's own.  Writing ``5`` to ``/proc/self/clear_refs`` resets the kernel's
    high-water mark (``VmHWM``) to the current resident set.  Returns
    the peak before the reset and the resident set the measurement
    starts from, in MB.
    """
    gc.collect()
    before = _status_mb("VmHWM")
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # no reset: the peak then also covers the set-up
    return {"peak_before_reset_mb": before or 0.0,
            "rss_at_reset_mb": _status_mb("VmRSS") or 0.0}


def peak_rss_mb() -> Tuple[float, float]:
    """``(coordinator, largest reaped worker)`` peak resident set, MB.

    The coordinator's is its high-water mark since
    :func:`reset_peak_rss`; the worker's is the largest of every child
    reaped so far (``RUSAGE_CHILDREN``).
    """
    own = _status_mb("VmHWM")
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, workers


def write_json(path: str, data) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True, default=repr)
