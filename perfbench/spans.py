"""Span tracing around the public entry points of each layer.

The wrappers live here, in the benchmark, and are installed by
monkeypatching the names each caller looks up at call time (a module
global or a class attribute), so the program under test is unchanged
and runs with no tracing cost when they are not installed.

Each span has a name, start, end, parent and request id.  Aggregates
(calls, busy time, self time) are kept online, so a long run needs no
span storage; the first :data:`KEEP_SPANS` raw spans are kept in memory
and written out when the run ends.  A layer's self time is its span
minus the part its child spans cover.  Busy time counts a span only
when no span of the same name encloses it, so recursive layers are not
counted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

KEEP_SPANS = 20_000

#: (span name, module or class path, attribute, counter name, counter)
#: for every wrapped entry point.  A counter maps the call's result to
#: the amount added to the named count.
_ENTRY_POINTS = [
    ("lexer", "repro.syntax.parser", "tokenize", "lexer.tokens", len),
    ("parser", "repro.api", "parse_term_spanned", None, None),
    ("parser", "repro.extensions.toplevel", "parse_term_spanned", None, None),
    ("parser", "repro.api", "parse_program", None, None),
    ("parser", "repro.api", "parse_program_spanned", None, None),
    ("parser", "repro.api", "desugar_program", None, None),
    ("wellformed.env", "repro.core.infer", "env_well_formed", None, None),
    ("wellformed.scope", "repro.core.infer", "well_scoped", None, None),
    ("infer", "repro.engines.freezeml:FreezeMLEngine", "infer", None, None),
    ("solver.unify", "repro.core.solver:SolverState", "unify", None, None),
    ("solver.zonk", "repro.core.solver:SolverState", "zonk", None, None),
    ("render", "repro.api", "normalise_type", None, None),
    ("render", "repro.api", "pretty_type", None, None),
    ("diagnostics", "repro.api", "diagnostic_from_error", None, None),
    ("api.check", "repro.api:Session", "check", None, None),
    ("analysis", "repro.analysis", "run_lint", "analysis.warnings", len),
    ("service.batch", "repro.service:TypecheckService", "check_many", None, None),
    ("cache.get", "repro.cache:PersistentCache", "get", None, None),
    ("cache.put", "repro.cache:PersistentCache", "put", None, None),
]


def _resolve(path: str):
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Per-thread span stacks feeding process-wide aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []
        self._seq = itertools.count(1)
        self.spans: list[tuple] = []
        #: sources seen by ``Session.check`` since the last snapshot
        #: (their parse trees are counted later, outside any span)
        self.sources: list[str] = []

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "depth": {}, "stats": {}, "counts": {}}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def span(self, name: str):
        """A context manager recording one span (for the benchmark's own
        layers, such as JSON rendering)."""
        return _Span(self, name)

    def enter(self, name: str) -> list:
        state = self._state()
        stack = state["stack"]
        depth = state["depth"]
        seq = next(self._seq)
        if stack:
            parent, rid = stack[-1][3], stack[-1][4]
        else:
            parent, rid = 0, seq
        outer = depth.get(name, 0) == 0
        depth[name] = depth.get(name, 0) + 1
        frame = [name, 0.0, time.perf_counter(), seq, rid, parent, outer, state]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, child, start, seq, rid, parent, outer, state = frame
        state["stack"].pop()
        state["depth"][name] -= 1
        duration = end - start
        stats = state["stats"].get(name)
        if stats is None:
            stats = state["stats"][name] = [0, 0.0, 0.0]
        stats[0] += 1
        if outer:
            stats[1] += duration
        stats[2] += duration - child
        if state["stack"]:
            state["stack"][-1][1] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((name, start, end, parent, rid))

    def count(self, name: str, amount: int) -> None:
        counts = self._state()["counts"]
        counts[name] = counts.get(name, 0) + amount

    def snapshot(self) -> dict:
        """Cumulative totals over every thread: ``{"spans": {name:
        [calls, busy_s, self_s]}, "counts": {name: n}}``.  Take it while
        no request is in flight."""
        spans: dict[str, list] = {}
        counts: dict[str, int] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, (calls, busy, own) in list(state["stats"].items()):
                total = spans.setdefault(name, [0, 0.0, 0.0])
                total[0] += calls
                total[1] += busy
                total[2] += own
            for name, amount in list(state["counts"].items()):
                counts[name] = counts.get(name, 0) + amount
        return {"spans": spans, "counts": counts}

    def write(self, path: Path) -> None:
        """Write the kept raw spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, rid in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "request": rid}
                    )
                    + "\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc_info):
        self.tracer.exit(self.frame)


def _wrap(tracer: Tracer, name: str, fn, counter_name, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if counter is not None:
            tracer.count(counter_name, counter(result))
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`_ENTRY_POINTS`; ``Session.check``
    also records its source so parse trees can be counted untimed."""
    for name, owner_path, attr, counter_name, counter in _ENTRY_POINTS:
        owner = _resolve(owner_path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, _wrap(tracer, name, original, counter_name, counter))
    session_cls = _resolve("repro.api:Session")
    traced_check = session_cls.check

    @functools.wraps(traced_check)
    def check(self, source, *args, **kwargs):
        tracer.sources.append(source)
        return traced_check(self, source, *args, **kwargs)

    session_cls.check = check


def _tree_nodes(source: str) -> int:
    from repro.api import _is_program
    from repro.core.terms import App, Lam, LamAnn, Let, LetAnn
    from repro.errors import FreezeMLError
    from repro.extensions.toplevel import desugar_program, parse_program
    from repro.syntax.parser import parse_term

    try:
        if _is_program(source):
            term = desugar_program(*parse_program(source))
        else:
            term = parse_term(source)
    except (FreezeMLError, RecursionError):
        return 0
    nodes = 0
    todo = [term]
    while todo:
        node = todo.pop()
        nodes += 1
        if isinstance(node, (Lam, LamAnn)):
            todo.append(node.body)
        elif isinstance(node, App):
            todo.extend((node.fn, node.arg))
        elif isinstance(node, (Let, LetAnn)):
            todo.extend((node.bound, node.body))
    return nodes


def parse_nodes(source: str, memo: dict[str, int]) -> int:
    """Term nodes in the tree ``Session.check`` infers for ``source``
    (the desugared program, or the parsed term); 0 if it does not parse.

    Counted by the benchmark outside any span, and only in a process
    whose parser is not wrapped (or with ``memo`` filled before the
    wrappers went in).  Whole-line comments never change the tree, so
    the memo key drops them.
    """
    key = "\n".join(
        line for line in source.splitlines() if not line.lstrip().startswith("#")
    )
    nodes = memo.get(key)
    if nodes is None:
        nodes = memo[key] = _tree_nodes(source)
    return nodes


def take_snapshot(tracer: Tracer) -> dict:
    """A snapshot plus what the layer metrics need besides spans: the
    sources ``Session.check`` saw since the previous snapshot, and the
    intern tables' occupancy."""
    from repro.core.types import intern_stats

    sources, tracer.sources = tracer.sources, []
    snap = tracer.snapshot()
    interned = intern_stats()
    snap["interned"] = interned["tvar"] + interned["tcon"] + interned["tforall"]
    snap["sources"] = sources
    return snap


#: The traced run's metrics: name -> unit.  Times are per request;
#: ``_ms`` is self time except where the layer table in README.md says
#: busy.  Counts are per request too, so whole passes over the same
#: inputs give the same values whatever the run length.
PER_LAYER = {
    "lexer.ms": "ms/req",
    "lexer.tokens": "count/req",
    "parser.self_ms": "ms/req",
    "parser.nodes": "count/req",
    "wellformed.env_ms": "ms/req",
    "wellformed.env_calls": "count/req",
    "wellformed.scope_ms": "ms/req",
    "infer.self_ms": "ms/req",
    "solver.unify_ms": "ms/req",
    "solver.unify_calls": "count/req",
    "solver.zonk_ms": "ms/req",
    "solver.zonk_calls": "count/req",
    "types.interned": "count",
    "render.ms": "ms/req",
    "diagnostics.ms": "ms/req",
    "diagnostics.count": "count/req",
    "api.check_ms": "ms/req",
    "api.self_ms": "ms/req",
    "api.json_ms": "ms/req",
    "analysis.ms": "ms/req",
    "analysis.warnings": "count/req",
    "service.batch_ms": "ms/req",
    "service.batches": "count/req",
    "service.hit_ratio": "ratio",
    "service.coalesced": "count/req",
    "cache.get_ms": "ms/req",
    "cache.gets": "count/req",
    "cache.put_ms": "ms/req",
    "cache.puts": "count/req",
    "server.overhead_ms": "ms/req",
    "trace.overhead_pct": "%",
    "trace.attributed_share": "ratio",
    "trace.requests": "count",
}

#: Counters a later change may cite for a count-based claim, provided
#: the traced run marks them as repeating exactly.
COUNTERS = (
    "lexer.tokens",
    "parser.nodes",
    "wellformed.env_calls",
    "solver.unify_calls",
    "solver.zonk_calls",
    "diagnostics.count",
    "analysis.warnings",
    "service.batches",
    "service.hit_ratio",
    "service.coalesced",
    "cache.gets",
    "cache.puts",
    "types.interned",
)

_BUSY, _SELF = 1, 2


def window(before: dict, after: dict) -> dict:
    """The spans and counts recorded between two snapshots."""
    spans = {}
    for name, (calls, busy, own) in after["spans"].items():
        calls0, busy0, own0 = before["spans"].get(name, (0, 0.0, 0.0))
        spans[name] = (calls - calls0, busy - busy0, own - own0)
    counts = {
        name: amount - before["counts"].get(name, 0)
        for name, amount in after["counts"].items()
    }
    return {"spans": spans, "counts": counts, "interned": after["interned"]}


def layer_values(win: dict, requests: int, nodes: int) -> dict[str, float]:
    """Per-request layer figures of one window (the metrics that need
    more than the spans -- service, server, trace -- are added by the
    workload)."""
    spans, counts = win["spans"], win["counts"]

    def ms(name: str, kind: int) -> float:
        return spans.get(name, (0, 0.0, 0.0))[kind] * 1e3 / requests

    def calls(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[0] / requests

    check_busy = ms("api.check", _BUSY)
    return {
        "lexer.ms": ms("lexer", _BUSY),
        "lexer.tokens": counts.get("lexer.tokens", 0) / requests,
        "parser.self_ms": ms("parser", _SELF),
        "parser.nodes": nodes / requests,
        "wellformed.env_ms": ms("wellformed.env", _SELF),
        "wellformed.env_calls": calls("wellformed.env"),
        "wellformed.scope_ms": ms("wellformed.scope", _SELF),
        "infer.self_ms": ms("infer", _SELF),
        "solver.unify_ms": ms("solver.unify", _SELF),
        "solver.unify_calls": calls("solver.unify"),
        "solver.zonk_ms": ms("solver.zonk", _SELF),
        "solver.zonk_calls": calls("solver.zonk"),
        "types.interned": win["interned"],
        "render.ms": ms("render", _SELF),
        "diagnostics.ms": ms("diagnostics", _SELF),
        "diagnostics.count": calls("diagnostics"),
        "api.check_ms": check_busy,
        "api.self_ms": ms("api.check", _SELF),
        "api.json_ms": ms("api.json", _SELF),
        "analysis.ms": ms("analysis", _SELF),
        "analysis.warnings": counts.get("analysis.warnings", 0) / requests,
        "service.batch_ms": ms("service.batch", _BUSY),
        "service.batches": calls("service.batch"),
        "cache.get_ms": ms("cache.get", _BUSY),
        "cache.gets": calls("cache.get"),
        "cache.put_ms": ms("cache.put", _BUSY),
        "cache.puts": calls("cache.put"),
        "trace.attributed_share": (
            1.0 - ms("api.check", _SELF) / check_busy if check_busy else 0.0
        ),
    }


def repeats(first: dict[str, float], second: dict[str, float]) -> dict[str, bool]:
    """Which counters read exactly the same in two windows."""
    return {name: first.get(name) == second.get(name) for name in COUNTERS if name in first}
