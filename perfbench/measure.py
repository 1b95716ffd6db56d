"""Shared pieces of the workloads: verdict bookkeeping, the segmented
timing loop with its host-speed calibration, set-up timing, and turning
samples into the reported metrics."""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from calibrate import REFERENCE_S, kernel_s, scale
from verdicts import verdict_problem

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: scratch space for cache files, server logs and span dumps
OUT = ROOT / ".perfbench-out"

#: CPython's default; the benchmark refuses to run under any other, so
#: verdicts are measured as a default-configured interpreter gives them.
DEFAULT_RECURSION_LIMIT = 1000

SETUP_REPEATS = 5

#: Length of a timed segment; a calibration pass follows each one.
SEGMENT_S = 0.25


def one_cpu() -> set[int]:
    """The CPU every process of a run shares: the benchmark, its
    children and, for ``serve-*``, the server.  On a virtual machine the
    two vCPUs run at different speeds from moment to moment, so the
    calibration only speaks for timings taken on its own CPU; and across
    two CPUs every HTTP request crosses between them twice, which made
    ``serve-hot`` throughput swing by a third within a run."""
    return {min(os.sched_getaffinity(0))}


def child_env() -> dict:
    """The environment for child interpreters: the checkout's ``src``
    first on the path, nothing inherited that changes their start-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


class Verifier:
    """Checks every verdict against its expected answer.

    A payload identical to one already verified for the same request is
    accepted by comparison, so repeated requests cost a string compare.
    """

    def __init__(self) -> None:
        self._good: dict[tuple[str, bool], str | bytes] = {}
        self.problems: list[str] = []

    def check(self, name: str, source: str, lint: bool, expected, raw: str | bytes) -> bool:
        """Is ``raw``, a serialised verdict for ``source``, right?"""
        key = (source, lint)
        if self._good.get(key) == raw:
            return True
        problem = verdict_problem(expected, json.loads(raw))
        if problem is None:
            self._good[key] = raw
            return True
        if len(self.problems) < 20:
            self.problems.append(f"{name}: {problem}")
        return False


class Samples:
    """The timed requests of one window: counts and seconds, raw and
    scaled to the reference host, and the scaled latencies.

    Latencies go to a store of fixed size allocated up front (a uniform
    reservoir once more requests than it holds have come), so the
    benchmark process's own memory does not grow with throughput and
    ``peak_rss_mb`` of an in-process run tracks the checker alone.
    """

    CAPACITY = 1 << 18

    def __init__(self, seed: str):
        self._latencies = array("d", bytes(8 * self.CAPACITY))
        self._rng = random.Random(seed)
        self.requests = 0
        self.seconds = 0.0
        self.scaled_seconds = 0.0
        self.latency_s = 0.0
        self.kernel: list[float] = []

    def add(self, latencies: list[float], seconds: float, factor: float) -> None:
        """One segment: its raw latencies and length, and its factor."""
        store, capacity = self._latencies, self.CAPACITY
        for latency in latencies:
            if self.requests < capacity:
                store[self.requests] = latency * factor
            else:
                slot = self._rng.randrange(self.requests + 1)
                if slot < capacity:
                    store[slot] = latency * factor
            self.requests += 1
            self.latency_s += latency
        self.seconds += seconds
        self.scaled_seconds += seconds * factor

    def latencies(self) -> list[float]:
        """The scaled latencies kept, ascending."""
        return sorted(self._latencies[: min(self.requests, self.CAPACITY)])

    def throughput(self) -> float:
        """Requests per second on the reference host."""
        return self.requests / self.scaled_seconds


def timed_window(segment, seconds: float, samples: Samples) -> int:
    """Run ``segment(segment_deadline, run_deadline)`` back to back for
    ``seconds``, with a calibration pass before the first and after each
    one.  A segment returns (raw latencies, its length in seconds, wrong
    verdicts, whether the run is over); the run is over at the first
    pass boundary over the inputs after ``run_deadline``, so every run
    weighs the inputs alike.  Returns the wrong verdicts."""
    run_deadline = time.perf_counter() + seconds
    before = kernel_s()
    samples.kernel.append(before)
    wrong = 0
    while True:
        latencies, length, segment_wrong, done = segment(
            time.perf_counter() + SEGMENT_S, run_deadline
        )
        after = kernel_s()
        samples.kernel.append(after)
        if latencies:
            samples.add(latencies, length, scale(before, after))
        wrong += segment_wrong
        before = after
        if done:
            return wrong


def timed_start(start_once) -> tuple[float, float]:
    """Call ``start_once()``, which returns the seconds it measured,
    between two calibration passes: (scaled, raw) seconds."""
    before = kernel_s()
    seconds = start_once()
    return seconds * scale(before, kernel_s()), seconds


def median_setup(starts: list[tuple[float, float]]) -> tuple[float, float]:
    """The medians of (scaled, raw) set-up times."""
    return (
        statistics.median(scaled for scaled, _ in starts),
        statistics.median(raw for _, raw in starts),
    )


_SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro\n"
    "repro.Session()\n"
    "print(time.perf_counter() - start)\n"
)


def inprocess_setup_once() -> float:
    """In a fresh interpreter: import ``repro`` and build the prelude
    ``Session``."""
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples: Samples, setup: tuple[float, float], peak_rss_mb: float) -> tuple[dict, str]:
    """The end-to-end metrics of one run, and lines describing the
    samples and raw figures behind them."""
    ordered = samples.latencies()
    beyond = len(ordered) - math.ceil(0.99 * len(ordered))
    kernel = statistics.median(samples.kernel)
    report = (
        f"{samples.requests} requests timed; p99 from {len(ordered)} samples, "
        f"{beyond} beyond it\n"
        f"calibration kernel median {kernel * 1e3:.3f} ms over {len(samples.kernel)} passes "
        f"(reference host {REFERENCE_S * 1e3:.3f} ms)\n"
        f"raw (this host): throughput {samples.requests / samples.seconds:.6g}/s, "
        f"mean latency {samples.latency_s / samples.requests * 1e3:.6g} ms, "
        f"setup {setup[1]:.6g} s"
    )
    return {
        "setup_s": metric(setup[0], "s"),
        "throughput_per_s": metric(samples.throughput(), "verdicts/s"),
        "latency_p50_ms": metric(statistics.median(ordered) * 1e3, "ms"),
        "latency_p99_ms": metric(percentile(ordered, 0.99) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }, report


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(plain: Samples, traced_window, snapshot, figures) -> dict:
    """The traced-run protocol shared by every workload.

    ``plain`` holds an untraced window already run.  With the layers
    wrapped, ``traced_window()`` runs a window and returns (samples,
    wrong verdicts); it runs twice, with ``snapshot()`` taken before,
    between and after.  ``figures(marks, windows)`` turns the snapshots
    bounding some windows, and those windows' samples, into per-layer
    metrics.  The counters are compared between the two windows to see
    which repeat exactly; the tracing overhead compares throughput with
    and without tracing (both scaled to the reference host).
    """
    from spans import repeats

    marks = [snapshot()]
    windows, wrong = [], 0
    for _ in range(2):
        samples, window_wrong = traced_window()
        wrong += window_wrong
        marks.append(snapshot())
        windows.append(samples)
    values = figures(marks, windows)
    requests = sum(w.requests for w in windows)
    traced_rate = requests / sum(w.scaled_seconds for w in windows)
    values["trace.overhead_pct"] = (plain.throughput() / traced_rate - 1) * 100
    values["trace.requests"] = requests
    return {
        "attempted": plain.requests + requests,
        "failed": wrong,
        "metrics": values,
        "repeats": repeats(figures(marks[:2], windows[:1]), figures(marks[1:], windows[1:])),
    }
