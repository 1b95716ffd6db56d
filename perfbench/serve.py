"""The ``serve-hot`` and ``serve-fresh`` workloads: HTTP load on ``repro serve``.

The server runs as its own process (through :mod:`launcher`) with
``--jobs 1`` and a fresh SQLite cache file; the load comes from this
process, as closed-loop clients on keep-alive connections (one thread
and one connection each, as many as there are cores, at most two).
Server, load and calibration share one CPU (see
:func:`measure.one_cpu`).
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import programs
from measure import (
    BENCH,
    OUT,
    ROOT,
    Samples,
    Verifier,
    child_env,
    end_to_end,
    SETUP_REPEATS,
    median_setup,
    timed_start,
    timed_window,
    traced_run,
)

CLIENTS = min(2, os.cpu_count() or 1)
HOT_DRAWS = 512  # requests per serve-hot pass
# serve-fresh passes: the 58 corpus programs and FRESH_GENERATED seeded
# programs sent plain, and FRESH_LINTED programs (a quarter of the pass)
# sent with lint on.  Lint's cost grows faster than program size and
# swings with content, so the linted programs are the same for every
# seed (only their order and unique tags vary); seeded contents would
# move the figures more than any change to the checker.
FRESH_GENERATED = 104
FRESH_LINTED = 54
LINT_SEED = 0
FRESH_WARMUP = 16
SPOT_CHECKS = 8


class Server:
    """One ``repro serve`` process; ``setup_s`` is the time from spawn
    to the first 200 from ``/healthz``."""

    def __init__(self, spans_file=None):
        OUT.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=OUT, prefix="serve-")
        command = [sys.executable, str(BENCH / "launcher.py")]
        if spans_file is not None:
            command += ["--trace", str(spans_file)]
        command += [
            "serve", "--port", "0", "--jobs", "1",
            f"--cache={os.path.join(self.dir, 'verdicts.sqlite')}",
        ]
        self._log = open(os.path.join(self.dir, "server.log"), "wb")
        self._buffer = b""
        self.conn = None
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            found = re.search(r"http://[\d.]+:(\d+)", self._readline(60))
            if found is None:
                raise RuntimeError("the server did not report its port")
            self.port = int(found.group(1))
            self.conn = _KeepAlive(self.port)
            status, _ = self.get(b"/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _readline(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("the server did not answer in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise RuntimeError("the server exited early")
                self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8")

    def get(self, path: bytes) -> tuple[int, dict]:
        status, data = self.conn.request(b"GET", path)
        return status, json.loads(data)

    def post(self, source: str, lint: bool) -> tuple[int, bytes]:
        body = json.dumps({"source": source, "lint": lint}).encode("utf-8")
        return self.conn.request(b"POST", b"/check", body)

    def mark(self) -> dict:
        """The tracing launcher's cumulative span totals (no request may
        be in flight)."""
        self.proc.stdin.write(b"mark\n")
        self.proc.stdin.flush()
        while True:
            line = self._readline(120)
            if line.startswith("perfbench-mark "):
                return json.loads(line[len("perfbench-mark "):])

    def service_totals(self) -> dict:
        """Service counters summed over every broker class."""
        _, stats = self.get(b"/stats")
        totals = {"requests": 0, "hits": 0, "coalesced": 0}
        for entry in stats["classes"].values():
            for key in totals:
                totals[key] += entry[key]
        return totals

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGTERM (the server drains clean), then wait; kill if stuck."""
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


class Traffic:
    """The request sequence: ``item(i)`` is request ``i`` (name, source,
    lint flag, expected verdict); it repeats every ``pass_len``."""

    def __init__(self, workload: str, seed: int):
        rng = random.Random(f"{workload}:{seed}")
        base = programs.corpus(ROOT)
        self.distinct = [(p, False) for p in sorted(base, key=lambda p: p.name)]
        if workload == "serve-hot":
            # A seeded draw with Zipf weights over a fixed ranking: which
            # programs are hot -- and so the response sizes that dominate
            # this workload -- is the same for every seed.
            ranked = [p for p, _ in self.distinct]
            weights = [1.0 / (rank + 1) for rank in range(len(ranked))]
            self.sequence = [(p, False) for p in rng.choices(ranked, weights, k=HOT_DRAWS)]
            self.unique = False
        else:
            plain = base + programs.fresh_set(seed, FRESH_GENERATED)
            linted = programs.fresh_set(LINT_SEED, FRESH_LINTED)
            self.sequence = [(p, False) for p in plain] + [(p, True) for p in linted]
            rng.shuffle(self.sequence)
            self.unique = True
        self.pass_len = len(self.sequence)

    def item(self, index: int):
        program, lint = self.sequence[index % self.pass_len]
        if self.unique:
            program = programs.make_unique(program, index)
        return program.name, program.source, lint, program.expected


class _KeepAlive:
    """A minimal HTTP/1.1 keep-alive client.

    The load shares a CPU with the server; ``http.client`` spends about
    180 us of CPU per request parsing headers, a raw socket about 20 us,
    so this keeps the load generator out of the server's way.
    ``repro serve`` always answers with Content-Length.
    """

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("the server closed the connection")
        self.buffer += chunk

    def request(self, method: bytes, path: bytes, body: bytes = b"") -> tuple[int, bytes]:
        self.sock.sendall(
            b"%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
            % (method, path, len(body), body)
        )
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, _, rest = self.buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        lengths = [
            int(line.split(b":", 1)[1])
            for line in lines[1:]
            if line.lower().startswith(b"content-length:")
        ]
        if len(lengths) != 1:
            raise ValueError("response without one Content-Length")
        length = lengths[0]
        self.buffer = rest
        while len(self.buffer) < length:
            self._fill()
        data, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, data

    def close(self) -> None:
        self.sock.close()


class Load:
    """Closed-loop clients over the traffic, in segments: the clients
    stop at each segment's end, so the calibration pass between segments
    has the CPU to itself, and the run ends at the first pass boundary
    after its deadline."""

    def __init__(self, traffic: Traffic, verifier: Verifier, spot: set[int]):
        self.traffic = traffic
        self.verifier = verifier
        self.spot = spot
        self.spot_bodies: list[tuple[str, bool, bytes]] = []
        self.next_index = 0
        self._done = False
        self._lock = threading.Lock()

    def _take(self, segment_deadline: float, run_deadline: float):
        with self._lock:
            if self._done:
                return None
            now = time.perf_counter()
            index = self.next_index
            if now >= run_deadline and index % self.traffic.pass_len == 0:
                self._done = True
                return None
            if now >= segment_deadline:
                return None
            self.next_index += 1
        return index

    def _client(self, conn, segment_deadline: float, run_deadline: float, out: list) -> None:
        latencies: list[float] = []
        wrong = 0
        last = time.perf_counter()
        try:
            while (index := self._take(segment_deadline, run_deadline)) is not None:
                name, source, lint, expected = self.traffic.item(index)
                body = json.dumps({"source": source, "lint": lint}).encode("utf-8")
                began = time.perf_counter()
                status, data = conn.request(b"POST", b"/check", body)
                last = time.perf_counter()
                latencies.append(last - began)
                if status != 200:
                    wrong += 1
                    self.verifier.problems.append(f"{name}: HTTP {status}")
                elif not self.verifier.check(name, source, lint, expected, data):
                    wrong += 1
                if index in self.spot:
                    self.spot_bodies.append((source, lint, data))
        except (OSError, ValueError) as exc:
            wrong += 1
            self.verifier.problems.append(f"client: {type(exc).__name__}: {exc}")
            with self._lock:
                self._done = True
        finally:
            out.append((latencies, last, wrong))

    def window(self, port: int, seconds: float, samples: Samples) -> int:
        """Run the clients, one keep-alive connection each, for one
        window into ``samples``; returns the wrong verdicts."""
        conns = [_KeepAlive(port) for _ in range(CLIENTS)]
        self._done = False

        def segment(segment_deadline: float, run_deadline: float):
            out: list = []
            began = time.perf_counter()
            threads = [
                threading.Thread(
                    target=self._client, args=(conn, segment_deadline, run_deadline, out)
                )
                for conn in conns
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            latencies = [latency for part, _, _ in out for latency in part]
            length = max(last for _, last, _ in out) - began
            return latencies, length, sum(wrong for _, _, wrong in out), self._done

        try:
            return timed_window(segment, seconds, samples)
        finally:
            for conn in conns:
                conn.close()


def warm_up(server: Server, traffic: Traffic, verifier: Verifier) -> tuple[int, int]:
    """serve-hot: every distinct program once, so the cache holds every
    answer.  serve-fresh: a few distinct requests to load the code
    paths.  Returns (requests, wrong)."""
    if traffic.unique:
        items = [traffic.item(-1 - i) for i in range(FRESH_WARMUP)]
    else:
        items = [(p.name, p.source, lint, p.expected) for p, lint in traffic.distinct]
    wrong = 0
    for name, source, lint, expected in items:
        status, data = server.post(source, lint)
        if status != 200 or not verifier.check(name, source, lint, expected, data):
            wrong += 1
    return len(items), wrong


def spot_check(bodies: list[tuple[str, bool, bytes]], problems: list[str]) -> int:
    """Byte identity: each sampled response, minus ``file`` (the label)
    and ``cached``, must be the bytes of an in-process
    ``Session.check(...).to_dict()``.  Returns the mismatches."""
    from repro import Session

    session = Session()
    mismatches = 0
    for source, lint, data in bodies:
        served = json.loads(data)
        local = session.fork().check(source, lint=lint).to_dict()
        exact = data == (json.dumps(served, indent=2) + "\n").encode("utf-8")
        served.pop("file")
        served.pop("cached")
        local.pop("cached")
        if not exact or json.dumps(served, indent=2) != json.dumps(local, indent=2):
            mismatches += 1
            problems.append(f"served bytes differ from Session.check for {source[:40]!r}")
    return mismatches


def run(args) -> dict:
    traffic = Traffic(args.workload, args.seed)
    verifier = Verifier()
    rng = random.Random(f"spot:{args.workload}:{args.seed}")
    load = Load(traffic, verifier, set(rng.sample(range(traffic.pass_len), SPOT_CHECKS)))
    seed = f"samples:{args.workload}:{args.seed}"
    if args.trace:
        outcome = _traced(args, traffic, verifier, load, seed)
    else:
        outcome = _timed(args, traffic, verifier, load, seed)
    outcome["failed"] += spot_check(load.spot_bodies, verifier.problems)
    outcome["problems"] = verifier.problems
    return outcome


def _timed(args, traffic: Traffic, verifier: Verifier, load: Load, seed: str) -> dict:
    """The load is spread over the servers started to time set-up, a
    share of the run each: the state a server process lands in (hash
    seeds, memory layout, thread timing) moves its throughput, and no
    one server should set the figures."""
    samples = Samples(seed)
    starts, rss = [], []
    attempted = wrong = 0
    for _ in range(SETUP_REPEATS):
        started: list[Server] = []

        def start() -> float:
            started.append(Server())
            return started[0].setup_s

        try:
            starts.append(timed_start(start))
            server = started[0]
            warm, warm_wrong = warm_up(server, traffic, verifier)
            window_wrong = load.window(server.port, args.seconds / SETUP_REPEATS, samples)
            rss.append(server.peak_rss_mb())
        finally:
            for server in started:
                server.stop()
        attempted += warm
        wrong += warm_wrong + window_wrong
    metrics, report = end_to_end(samples, median_setup(starts), max(rss))
    return {
        "attempted": attempted + samples.requests,
        "failed": wrong,
        "metrics": metrics,
        "report": report,
    }


def _traced(args, traffic: Traffic, verifier: Verifier, load: Load, seed: str) -> dict:
    from spans import layer_values, parse_nodes, window

    # Untraced reference on its own server, then a traced server.
    server = Server()
    try:
        plain_warm, wrong = warm_up(server, traffic, verifier)
        plain = Samples(seed)
        plain_wrong = load.window(server.port, args.seconds / 2, plain)
    finally:
        server.stop()
    wrong += plain_wrong

    memo: dict[str, int] = {}

    def figures(marks, windows) -> dict:
        (mark0, stats0), (mark1, stats1) = marks[0], marks[-1]
        requests = sum(w.requests for w in windows)
        nodes = sum(parse_nodes(s, memo) for mark, _ in marks[1:] for s in mark["sources"])
        out = layer_values(window(mark0, mark1), requests, nodes)
        served = stats1["requests"] - stats0["requests"]
        out["service.hit_ratio"] = (stats1["hits"] - stats0["hits"]) / served if served else 0.0
        out["service.coalesced"] = (stats1["coalesced"] - stats0["coalesced"]) / requests
        mean_ms = sum(w.latency_s for w in windows) * 1e3 / requests
        out["server.overhead_ms"] = mean_ms - out["service.batch_ms"]
        return out

    server = Server(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    try:
        warm, warm_wrong = warm_up(server, traffic, verifier)
        outcome = traced_run(
            plain,
            lambda: _window(load, server, args.seconds / 4, seed),
            lambda: (server.mark(), server.service_totals()),
            figures,
        )
    finally:
        server.stop()
    outcome["attempted"] += plain_warm + warm
    outcome["failed"] += wrong + warm_wrong
    return outcome


def _window(load: Load, server: Server, seconds: float, seed: str) -> tuple[Samples, int]:
    samples = Samples(seed)
    return samples, load.window(server.port, seconds, samples)
