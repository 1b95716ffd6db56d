"""The command-line surface of the reproduction (``python -m repro``).

Everything here is a thin client of :class:`repro.api.Session`: the REPL,
the ``-c`` one-shot mode and the ``check`` subcommand all issue session
requests and render the structured :class:`~repro.api.Result` they get
back.  No type-system code runs in this module.

REPL commands::

    <term>            infer and print the principal type
    :run <term>       evaluate (CBV, type erasure)
    :f <term>         elaborate to System F (Figure 11) and print
    :derive <term>    print the full typing derivation (Figure 7)
    :hmf <term>       infer under the HMF baseline
    :lint <term>      typecheck and report FML4xx lint warnings
    :let x = <term>   add a top-level definition (generalising let)
    :env              list bindings added on top of the Figure 2 prelude
    :strategy v|e     switch variable/eliminator instantiation
    :help, :quit

The REPL starts with the paper's Figure 2 prelude in scope.  One-shot
mode (``python -m repro -c "<line>" ...``) feeds each argument to the
same dispatcher and exits nonzero if any line produced an error.

Subcommands::

    python -m repro check FILE... [--json] [--engine=ENGINE]
                                  [--strategy=v|e] [--no-value-restriction]
                                  [--jobs N] [--no-cache] [--stats]
                                  [--fuel N] [--max-depth N] [--timeout SECS]

typechecks each file (a bare term, or the ``sig``/``def``/``main``
program format -- auto-detected; ``-`` reads a program from stdin)
through one :class:`~repro.service.TypecheckService` batch with
per-program isolation.  ``--engine`` selects the type system (any
registered engine: ``freezeml``, ``hmf``, ``ml``, ``systemf``, ...);
``--jobs N`` checks across N worker processes and ``--no-cache``
disables the service's result cache; ``--json`` emits machine-readable
diagnostics (error codes, severities, ``line:column`` spans, offending
types) on stdout.  Timings are omitted from ``--json`` so the output is
byte-reproducible at any ``--jobs`` setting.

``--fuel N`` / ``--max-depth N`` bound solver work deterministically: a
pathological program degrades to the ``FML901``/``FML902`` diagnostic
(same verdict at any ``--jobs`` setting) instead of running away.
``--timeout SECS`` adds the wall-clock backstop: each dispatched
request gets a deadline, hung workers are preempted and crashed ones
recovered (``FML910``/``FML911``).  ``--stats`` prints the service's
:class:`~repro.service.ServiceStats` as JSON *to stderr* after the
batch -- timing-free fields only, so both streams stay
byte-reproducible.  Exit status: 0 all programs typecheck, 1 some
failed, 2 usage error, 3 some program was *degraded* (an FML9xx
resilience verdict: budget, deadline, crash or shed) -- a distinct
code so callers can tell "the program is ill-typed" from "the service
gave up on it".

    python -m repro lint FILE... [check options]

is ``check --lint``: the static-analysis tier (:mod:`repro.analysis`)
runs alongside typechecking and its ``FML4xx`` warning diagnostics
travel in the output (text and ``--json``), deterministically ordered.
Warnings never change the exit status unless ``--strict-warnings`` is
given, which turns an otherwise-clean exit 0 into exit 1 when any
warning was reported.

    python -m repro serve [--host ADDR] [--port N] [--jobs N]
                          [--engine=ENGINE] [--strategy=v|e]
                          [--no-value-restriction] [--fuel N]
                          [--max-depth N] [--timeout SECS]
                          [--cache=FILE | --no-persist] [--no-cache]
                          [--max-pending N] [--no-coalesce] [--lint]
                          [--drain-timeout SECS]

starts the asyncio HTTP serving tier (:mod:`repro.server`): ``POST
/check`` (single program or batch -- batch responses are byte-identical
to ``repro check --json``), ``GET /healthz`` and ``GET /stats``.
Identical in-flight sources are coalesced into one dispatch, verdicts
persist across restarts in a SQLite cache (``--cache=FILE``; default
``~/.cache/repro/verdicts.sqlite``; ``--no-persist`` keeps the cache
in-memory only), and requests beyond ``--max-pending`` queued sources
are shed to the deterministic ``FML903`` verdict.  A request may name
a fuel class (``{"fuel_class": "low" | "default" | "high"}``) resolved
against the ``--fuel`` base; each class has one service behind one
dispatch thread.  ``--jobs N`` runs checks in N worker processes,
where ``--timeout`` preempts a hung worker and a crashed one is
recovered (``FML910``/``FML911``, the same machinery as ``check``).
SIGTERM drains clean: new ``POST /check`` gets 503, in-flight work
completes up to ``--drain-timeout`` seconds, the persistent cache
flushes, and the process exits 0.

    python -m repro bench [--quick] [--all] [--suite=A,B] [--group=GLOB]
                          [--output=FILE] [--compare=OLD.json]

runs the pytest-benchmark perf suites (solver, unification, scaling,
environment scaling, service) and writes ``BENCH_solver.json`` -- the
perf trajectory baseline that future PRs compare against.  ``--quick``
runs each benchmark once with timing disabled (the CI smoke mode);
``--all`` includes every benchmark module, not just the perf-critical
default set.  ``--suite=solver,unification`` restricts the run to the
named ``benchmarks/bench_<name>.py`` modules (mutually exclusive with
``--all``), and ``--group=GLOB[,GLOB]`` keeps only benchmarks whose
pytest-benchmark group matches one of the fnmatch patterns (e.g.
``--group='unify-*'``) -- together they let a solver-perf iteration
loop skip the HTTP serve harness entirely.  ``--compare=OLD.json``
additionally diffs the fresh run
against a saved baseline and prints per-group speedups, flagging >10%
regressions (``--compare=BENCH_solver.json`` regenerates the baseline
in place and diffs against its previous contents).  The comparison is
also an SLO gate: serving-tier benchmarks record client-observed
``p99_ms`` in their ``extra_info``, and a fresh p99 more than 25%
above the baseline's fails the run (exit 1).
"""

from __future__ import annotations

import json
import os
import sys

from .api import Result, Session, check_document_json
from .diagnostics import Severity, render_all
from .errors import is_resilience_code

BANNER = (
    "FreezeML repl -- PLDI 2020 reproduction.  :help for commands, :quit to exit."
)
PROMPT = "freezeml> "


class Repl:
    """Command dispatch over a :class:`~repro.api.Session`.

    The REPL holds no interpreter state of its own: bindings, strategy
    and environments live in the session; this class only parses command
    lines and renders results.
    """

    def __init__(self, out=None, session: Session | None = None):
        self.out = out or sys.stdout
        self.session = session or Session()
        self.error_count = 0

    def emit(self, text: str) -> None:
        print(text, file=self.out)

    # -- command handlers ---------------------------------------------------

    def handle(self, line: str) -> bool:
        """Process one input line; returns False when the REPL should quit."""
        line = line.strip()
        if not line or line.startswith("#"):
            return True
        if line in (":quit", ":q"):
            return False
        if line in (":help", ":h"):
            self.emit(__doc__.split("REPL commands::")[1].split("The REPL starts")[0])
        elif line == ":env":
            self._show_env()
        elif line.startswith(":strategy"):
            self._set_strategy(line.split(None, 1)[1:])
        elif line.startswith(":run "):
            self._render(self.session.evaluate(line[5:]), "  = {rendered}")
        elif line.startswith(":f "):
            self._elaborate(line[3:])
        elif line.startswith(":derive "):
            self._render(self.session.derive(line[8:]), "{rendered}")
        elif line.startswith(":hmf "):
            self._render(
                self.session.infer(line[5:], engine="hmf"), "  (HMF) : {rendered}"
            )
        elif line.startswith(":lint "):
            self._lint(line[6:])
        elif line.startswith(":let "):
            self._define(line[5:])
        elif line.startswith(":"):
            self.error_count += 1
            self.emit(f"unknown command {line.split()[0]} (:help)")
        else:
            self._render(self.session.infer(line), "  : {rendered}")
        return True

    # -- rendering ------------------------------------------------------------

    def _render(self, result: Result, template: str) -> None:
        if result.ok:
            self.emit(template.format(rendered=result.rendered))
        else:
            self._report(result)

    def _report(self, result: Result) -> None:
        self.error_count += 1
        self._emit_diagnostics(result)

    def _emit_diagnostics(self, result: Result) -> None:
        """Severity-aware rendering: lint warnings ride along in check
        results and must not be presented (or counted) as errors."""
        for diag in result.diagnostics:
            where = f" at {diag.span}" if diag.span is not None else ""
            label = (
                "warning" if diag.severity is Severity.WARNING else "error"
            )
            self.emit(f"{label}: {diag.message} [{diag.code}{where}]")

    def _lint(self, source: str) -> None:
        """``:lint <term>`` -- typecheck and run the analysis tier."""
        result = self.session.lint(source)
        if not result.ok:
            self._report(result)
            return
        self.emit(f"  : {result.rendered}")
        if result.diagnostics:
            self._emit_diagnostics(result)
        else:
            self.emit("  (no warnings)")

    def _elaborate(self, source: str) -> None:
        result = self.session.elaborate(source)
        if not result.ok:
            self._report(result)
            return
        self.emit(f"  C[[-]] = {result.value.fterm}")
        self.emit(f"  :      {result.type_str}")

    def _define(self, rest: str) -> None:
        name, eq, body = rest.partition("=")
        name = name.strip()
        if not eq or not name.isidentifier():
            self.error_count += 1
            self.emit("usage: :let x = <term>")
            return
        self._render(self.session.define(name, body.strip()), "  {rendered}")

    def _show_env(self) -> None:
        if not self.session.bindings:
            self.emit("  (only the Figure 2 prelude)")
        for name, ty in self.session.bindings.items():
            self.emit(f"  {name} : {ty}")

    def _set_strategy(self, args: list[str]) -> None:
        choice = args[0].strip().lower() if args else ""
        try:
            resolved = self.session.set_strategy(choice)
        except ValueError:
            self.error_count += 1
            self.emit("usage: :strategy v|e")
            return
        self.emit(f"  instantiation strategy: {resolved}")


# ---------------------------------------------------------------------------
# The `check` subcommand
# ---------------------------------------------------------------------------


CHECK_USAGE = (
    "usage: python -m repro check FILE... [--json] [--engine=ENGINE] "
    "[--strategy=v|e] [--no-value-restriction] [--jobs N] [--no-cache] "
    "[--stats] [--fuel N] [--max-depth N] [--timeout SECS] "
    "[--lint] [--strict-warnings]"
)

LINT_USAGE = (
    "usage: python -m repro lint FILE... [--json] [--strict-warnings] "
    "[check options]"
)

#: `check` exit status for batches containing a degraded (FML9xx) verdict.
EXIT_DEGRADED = 3


def _flag_value(argv: list[str], i: int, flag: str) -> tuple[str | None, int]:
    """The value of ``--flag N`` / ``--flag=N`` at position ``i``;
    returns ``(raw_or_None, next_i)`` -- ``None`` means the value is
    missing."""
    if argv[i] == flag:
        if i + 1 >= len(argv):
            return None, i
        return argv[i + 1], i + 1
    return argv[i].split("=", 1)[1], i


def parse_check_args(argv: list[str]) -> dict | str:
    """Parse ``check`` options; returns the option dict, or an error
    message (pure: tested without capturing stdio)."""
    opts = {
        "files": [],
        "json": False,
        "engine": "freezeml",
        "strategy": "variable",
        "value_restriction": True,
        "jobs": 1,
        "cache": True,
        "stats": False,
        "fuel": None,
        "max_depth": None,
        "timeout": None,
        "lint": False,
        "strict_warnings": False,
    }
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--json":
            opts["json"] = True
        elif arg == "--stats":
            opts["stats"] = True
        elif arg == "--lint":
            opts["lint"] = True
        elif arg == "--strict-warnings":
            opts["strict_warnings"] = True
        elif arg.startswith("--engine="):
            opts["engine"] = arg.split("=", 1)[1]
        elif arg.startswith("--strategy="):
            opts["strategy"] = arg.split("=", 1)[1]
        elif arg == "--no-value-restriction":
            opts["value_restriction"] = False
        elif arg == "--no-cache":
            opts["cache"] = False
        elif arg == "--jobs" or arg.startswith("--jobs="):
            raw, i = _flag_value(argv, i, "--jobs")
            if raw is None:
                return "--jobs needs a worker count"
            try:
                opts["jobs"] = int(raw)
            except ValueError:
                return f"--jobs needs an integer, got {raw!r}"
            if opts["jobs"] < 1:
                return f"--jobs must be >= 1, got {opts['jobs']}"
        elif arg in ("--fuel", "--max-depth") or arg.startswith(
            ("--fuel=", "--max-depth=")
        ):
            flag = "--fuel" if arg.startswith("--fuel") else "--max-depth"
            raw, i = _flag_value(argv, i, flag)
            if raw is None:
                return f"{flag} needs a step limit"
            try:
                limit = int(raw)
            except ValueError:
                return f"{flag} needs an integer, got {raw!r}"
            if limit < 1:
                return f"{flag} must be >= 1, got {limit}"
            opts["fuel" if flag == "--fuel" else "max_depth"] = limit
        elif arg == "--timeout" or arg.startswith("--timeout="):
            raw, i = _flag_value(argv, i, "--timeout")
            if raw is None:
                return "--timeout needs a deadline in seconds"
            try:
                opts["timeout"] = float(raw)
            except ValueError:
                return f"--timeout needs a number of seconds, got {raw!r}"
            if opts["timeout"] <= 0:
                return f"--timeout must be positive, got {raw}"
        elif arg == "-":
            opts["files"].append(arg)  # read a program from stdin
        elif arg.startswith("-"):
            return f"unknown check option {arg}"
        else:
            opts["files"].append(arg)
        i += 1
    return opts


def _print_responses(responses, opts: dict) -> None:
    """Write ``check``'s verdicts to stdout: the ``--json`` document, or
    one human-readable block per program."""
    if opts["json"]:
        # The layout `repro serve` answers with, byte for byte.
        entries = [
            response.result.entry_json(response.request.label, response.cached)
            for response in responses
        ]
        print(check_document_json(opts["engine"], entries))
        return
    for response in responses:
        path, result = response.request.label, response.result
        if result.ok:
            suffix = " (cached)" if response.cached else ""
            print(f"{path}: ok: {result.type_str}{suffix}")
        # Under --lint an ok result may still carry warnings.
        for line in render_all(result.diagnostics, file=path):
            print(line)


def run_check(argv: list[str]) -> int:
    """``python -m repro check FILE... [--json] [--jobs N] [...]``."""
    from .service import CheckRequest, SessionConfig, TypecheckService

    opts = parse_check_args(argv)
    if isinstance(opts, str):
        print(f"error: {opts}", file=sys.stderr)
        return 2
    if not opts["files"]:
        print(CHECK_USAGE, file=sys.stderr)
        return 2
    requests: list[CheckRequest] = []
    stdin_source: str | None = None
    for path in opts["files"]:
        if path == "-":
            # stdin is consumable exactly once; a repeated `-` reuses
            # the first read instead of seeing an empty stream.
            if stdin_source is None:
                stdin_source = sys.stdin.read()
            requests.append(CheckRequest(source=stdin_source, label="<stdin>"))
            continue
        try:
            with open(path, encoding="utf-8") as handle:
                requests.append(CheckRequest(source=handle.read(), label=path))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2

    config = SessionConfig(
        engine=opts["engine"],
        strategy=opts["strategy"],
        value_restriction=opts["value_restriction"],
        fuel=opts["fuel"],
        max_depth=opts["max_depth"],
        lint=opts["lint"],
    )
    try:
        service = TypecheckService(
            config,
            jobs=opts["jobs"],
            cache=opts["cache"],
            timeout=opts["timeout"],
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with service:
        responses = service.check_many(requests)
    if opts["stats"]:
        # Timing-free fields only, on stderr: `--json` stdout and this
        # stats record are both byte-reproducible at any --jobs setting.
        print(
            json.dumps(service.stats.to_reproducible_dict(), indent=2),
            file=sys.stderr,
        )

    try:
        _print_responses(responses, opts)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`repro check ... | head`).  Point stdout
        # at devnull so the exit-time flush cannot raise again, and exit
        # 1 without a traceback (the recipe in Python's `signal` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if any(
        is_resilience_code(diag.code)
        for response in responses
        for diag in response.result.diagnostics
    ):
        # Degraded verdicts (budget/deadline/crash) get their own exit
        # status: "the service gave up" is not "the program is ill-typed".
        return EXIT_DEGRADED
    if not all(response.ok for response in responses):
        return 1
    if opts["strict_warnings"] and any(
        diag.severity is Severity.WARNING
        for response in responses
        for diag in response.result.diagnostics
    ):
        # Warnings never flip a passing exit status unless asked to.
        return 1
    return 0


# ---------------------------------------------------------------------------
# The `serve` subcommand
# ---------------------------------------------------------------------------

SERVE_USAGE = (
    "usage: python -m repro serve [--host ADDR] [--port N] [--jobs N] "
    "[--engine=ENGINE] [--strategy=v|e] "
    "[--no-value-restriction] [--fuel N] [--max-depth N] [--timeout SECS] "
    "[--cache=FILE | --no-persist] [--no-cache] "
    "[--max-pending N] [--no-coalesce] [--lint] "
    "[--drain-timeout SECS]"
)


def parse_serve_args(argv: list[str]) -> dict | str:
    """Parse ``serve`` options; returns the option dict, or an error
    message (pure: tested without capturing stdio)."""
    opts = {
        "host": "127.0.0.1",
        "port": 8765,
        "jobs": 1,
        "engine": "freezeml",
        "strategy": "variable",
        "value_restriction": True,
        "cache": True,
        "cache_path": None,
        "persist": True,
        "max_pending": 256,
        "coalesce": True,
        "fuel": None,
        "max_depth": None,
        "timeout": None,
        "lint": False,
        "drain_timeout": 10.0,
    }
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--lint":
            opts["lint"] = True
        elif arg == "--host" or arg.startswith("--host="):
            raw, i = _flag_value(argv, i, "--host")
            if raw is None:
                return "--host needs an address"
            opts["host"] = raw
        elif arg.startswith("--engine="):
            opts["engine"] = arg.split("=", 1)[1]
        elif arg.startswith("--strategy="):
            opts["strategy"] = arg.split("=", 1)[1]
        elif arg == "--no-value-restriction":
            opts["value_restriction"] = False
        elif arg == "--no-cache":
            opts["cache"] = False
        elif arg == "--no-persist":
            opts["persist"] = False
        elif arg == "--no-coalesce":
            opts["coalesce"] = False
        elif arg == "--cache" or arg.startswith("--cache="):
            raw, i = _flag_value(argv, i, "--cache")
            if raw is None:
                return "--cache needs a file path"
            opts["cache_path"] = raw
        elif arg in ("--port", "--jobs", "--max-pending") or arg.startswith(
            ("--port=", "--jobs=", "--max-pending=")
        ):
            flag = "--" + arg.lstrip("-").split("=", 1)[0]
            raw, i = _flag_value(argv, i, flag)
            if raw is None:
                return f"{flag} needs an integer"
            try:
                value = int(raw)
            except ValueError:
                return f"{flag} needs an integer, got {raw!r}"
            floor = {"--port": 0, "--jobs": 1, "--max-pending": 0}[flag]
            if value < floor:
                return f"{flag} must be >= {floor}, got {value}"
            opts[flag.lstrip("-").replace("-", "_")] = value
        elif arg in ("--fuel", "--max-depth") or arg.startswith(
            ("--fuel=", "--max-depth=")
        ):
            flag = "--fuel" if arg.startswith("--fuel") else "--max-depth"
            raw, i = _flag_value(argv, i, flag)
            if raw is None:
                return f"{flag} needs a step limit"
            try:
                limit = int(raw)
            except ValueError:
                return f"{flag} needs an integer, got {raw!r}"
            if limit < 1:
                return f"{flag} must be >= 1, got {limit}"
            opts["fuel" if flag == "--fuel" else "max_depth"] = limit
        elif arg == "--timeout" or arg.startswith("--timeout="):
            raw, i = _flag_value(argv, i, "--timeout")
            if raw is None:
                return "--timeout needs a deadline in seconds"
            try:
                opts["timeout"] = float(raw)
            except ValueError:
                return f"--timeout needs a number of seconds, got {raw!r}"
            if opts["timeout"] <= 0:
                return f"--timeout must be positive, got {raw}"
        elif arg == "--drain-timeout" or arg.startswith("--drain-timeout="):
            raw, i = _flag_value(argv, i, "--drain-timeout")
            if raw is None:
                return "--drain-timeout needs a number of seconds"
            try:
                value = float(raw)
            except ValueError:
                return f"--drain-timeout needs a number of seconds, got {raw!r}"
            if value < 0:
                return f"--drain-timeout must be >= 0, got {raw}"
            opts["drain_timeout"] = value
        else:
            return f"unknown serve option {arg}"
        i += 1
    return opts


def run_serve(argv: list[str]) -> int:
    """``python -m repro serve [--port N] [--jobs N] [...]``."""
    import asyncio

    from .cache import default_cache_path
    from .server import ReproServer, run_server
    from .service import SessionConfig

    opts = parse_serve_args(argv)
    if isinstance(opts, str):
        print(f"error: {opts}", file=sys.stderr)
        print(SERVE_USAGE, file=sys.stderr)
        return 2
    config = SessionConfig(
        engine=opts["engine"],
        strategy=opts["strategy"],
        value_restriction=opts["value_restriction"],
        fuel=opts["fuel"],
        max_depth=opts["max_depth"],
        lint=opts["lint"],
    )
    cache_path = opts["cache_path"]
    if cache_path is None and opts["persist"]:
        cache_path = str(default_cache_path())
    try:
        server = ReproServer(
            config,
            jobs=opts["jobs"],
            timeout=opts["timeout"],
            cache=opts["cache"],
            cache_path=cache_path if opts["persist"] else None,
            max_pending=opts["max_pending"],
            coalesce=opts["coalesce"],
            drain_timeout=opts["drain_timeout"],
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        asyncio.run(run_server(server, host=opts["host"], port=opts["port"]))
    except KeyboardInterrupt:
        pass
    return 0


# ---------------------------------------------------------------------------
# The `bench` subcommand
# ---------------------------------------------------------------------------

BENCH_DEFAULT_SUITES = (
    "benchmarks/bench_solver.py",
    "benchmarks/bench_unification.py",
    "benchmarks/bench_scaling.py",
    "benchmarks/bench_env_scaling.py",
    "benchmarks/bench_service.py",
    "benchmarks/bench_serve.py",
)


def bench_means(doc: dict) -> "dict[tuple[str, str], float]":
    """``(group, name) -> mean seconds`` from a pytest-benchmark JSON doc."""
    out: dict[tuple[str, str], float] = {}
    for bench in doc.get("benchmarks", ()):
        out[(bench.get("group") or "", bench["name"])] = bench["stats"]["mean"]
    return out


def format_bench_comparison(
    old_doc: dict, new_doc: dict, regression_threshold: float = 1.10
) -> list[str]:
    """Render a per-group speedup/regression table between two bench runs.

    ``speedup`` is old/new mean (>1 is faster now).  Benchmarks present
    in only one run are listed separately; a new mean more than
    ``regression_threshold`` times the old one is flagged.  Pure
    function over the JSON documents, so it is unit-testable without
    timing anything.
    """
    old = bench_means(old_doc)
    new = bench_means(new_doc)
    lines: list[str] = []
    groups: dict[str, list[tuple[str, float, float]]] = {}
    for key in old.keys() & new.keys():
        group, name = key
        groups.setdefault(group, []).append((name, old[key], new[key]))
    for group in sorted(groups):
        rows = sorted(groups[group])
        ratios = [o / n for _, o, n in rows if n > 0]
        geo = 1.0
        for r in ratios:
            geo *= r
        geo **= 1 / len(ratios) if ratios else 1
        lines.append(f"{group}  (geomean speedup {geo:.2f}x)")
        for name, o, n in rows:
            speedup = o / n if n > 0 else float("inf")
            flag = ""
            if speedup < 1.0 and (n / o if o > 0 else 0) > regression_threshold:
                flag = "  ** REGRESSION"
            lines.append(
                f"  {name}: {o * 1e3:.3f} ms -> {n * 1e3:.3f} ms"
                f"  ({speedup:.2f}x){flag}"
            )
    only_old = sorted(old.keys() - new.keys())
    only_new = sorted(new.keys() - old.keys())
    if only_old:
        lines.append(
            "only in baseline: " + ", ".join(f"{g}:{n}" for g, n in only_old)
        )
    if only_new:
        lines.append(
            "only in new run: " + ", ".join(f"{g}:{n}" for g, n in only_new)
        )
    return lines


def slo_violations(
    old_doc: dict,
    new_doc: dict,
    metric: str = "p99_ms",
    threshold: float = 1.25,
) -> "list[tuple[str, str, float, float]]":
    """Benchmarks whose ``extra_info[metric]`` regressed past the SLO.

    The serving-tier suites record client-observed latency percentiles
    in ``extra_info`` precisely so ``bench --compare`` can gate on
    them: a fresh value more than ``threshold`` times the baseline's
    is a violation.  Returns ``(group, name, old, new)`` rows; pure
    function over the two JSON documents, like
    :func:`format_bench_comparison`.
    """
    old: dict[tuple[str, str], float] = {}
    for bench in old_doc.get("benchmarks", ()):
        value = bench.get("extra_info", {}).get(metric)
        if isinstance(value, (int, float)) and value > 0:
            old[(bench.get("group") or "", bench["name"])] = value
    violations: list[tuple[str, str, float, float]] = []
    for bench in new_doc.get("benchmarks", ()):
        key = (bench.get("group") or "", bench["name"])
        value = bench.get("extra_info", {}).get(metric)
        baseline = old.get(key)
        if (
            baseline is not None
            and isinstance(value, (int, float))
            and value > threshold * baseline
        ):
            violations.append((*key, baseline, value))
    return sorted(violations)


def bench_suite_name(name: str) -> str:
    """Normalise a ``--suite=`` entry to its bare name: accepts
    ``solver``, ``bench_solver``, ``bench_solver.py`` and
    ``benchmarks/bench_solver.py`` alike."""
    name = name.rsplit("/", 1)[-1]
    if name.endswith(".py"):
        name = name[:-3]
    if name.startswith("bench_"):
        name = name[len("bench_"):]
    return name


def build_bench_command(
    argv: list[str], python: str = sys.executable
) -> tuple[list[str], str]:
    """The pytest invocation for ``python -m repro bench`` (pure: tested).

    Returns ``(command, output_path)``; ``output_path`` is empty in quick
    mode (no JSON is written).
    """
    quick = "--quick" in argv
    output = "BENCH_solver.json"
    named: list[str] = []
    for arg in argv:
        if arg.startswith("--output="):
            output = arg.split("=", 1)[1]
        elif arg.startswith("--suite="):
            named.extend(n for n in arg.split("=", 1)[1].split(",") if n)
    if named:
        suites = [f"benchmarks/bench_{bench_suite_name(n)}.py" for n in named]
    elif "--all" in argv:
        # bench_*.py does not match pytest's default test_*.py pattern;
        # explicit paths are always collected, a bare directory is not,
        # so widen the pattern for the whole-directory run.
        suites = ["-o", "python_files=bench_*.py", "benchmarks"]
    else:
        suites = list(BENCH_DEFAULT_SUITES)
    cmd = [python, "-m", "pytest", "-q", *suites]
    if quick:
        cmd.append("--benchmark-disable")
        return cmd, ""
    cmd.append(f"--benchmark-json={output}")
    return cmd, output


def run_bench(argv: list[str]) -> int:
    """Run the benchmark suites from the repository root."""
    import os
    import subprocess
    from pathlib import Path

    usage = (
        "usage: python -m repro bench [--quick] [--all] [--suite=A,B]"
        " [--group=GLOB] [--output=FILE] [--compare=OLD.json]"
    )
    unknown = [
        a
        for a in argv
        if a not in ("--quick", "--all")
        and not a.startswith("--output=")
        and not a.startswith("--compare=")
        and not a.startswith("--suite=")
        and not a.startswith("--group=")
    ]
    if unknown:
        print(f"error: unknown bench option(s): {' '.join(unknown)}")
        print(usage)
        return 2
    if "--all" in argv and any(a.startswith("--suite=") for a in argv):
        print("error: --all and --suite are mutually exclusive")
        print(usage)
        return 2
    root_probe = Path(__file__).resolve().parents[2]
    for a in argv:
        if a.startswith("--suite="):
            for name in a.split("=", 1)[1].split(","):
                if not name:
                    continue
                path = root_probe / "benchmarks" / f"bench_{bench_suite_name(name)}.py"
                if not path.is_file():
                    print(f"error: unknown bench suite: {name} (no {path.name})")
                    return 2
    groups = ""
    for a in argv:
        if a.startswith("--group="):
            groups = a.split("=", 1)[1]
    compare_path = None
    for a in argv:
        if a.startswith("--compare="):
            compare_path = os.path.abspath(a.split("=", 1)[1])
    baseline = None
    if compare_path is not None:
        if "--quick" in argv:
            print("error: --compare needs a timed run (drop --quick)")
            return 2
        # Load the baseline up front: the fresh run may overwrite the
        # file (`--compare=BENCH_solver.json` regenerates in place and
        # diffs against the previous contents).
        try:
            with open(compare_path) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {compare_path}: {exc}")
            return 2
    # The pytest subprocess runs from the repo root; anchor user-given
    # relative output paths to the caller's cwd so the file lands (and
    # the success message reads) where they expect.
    argv = [
        f"--output={os.path.abspath(a.split('=', 1)[1])}"
        if a.startswith("--output=")
        else a
        for a in argv
    ]
    if "--quick" in argv and any(a.startswith("--output=") for a in argv):
        print("note: --quick runs with timing disabled and writes no JSON; "
              "--output is ignored")
    root = Path(__file__).resolve().parents[2]
    if not (root / "benchmarks").is_dir():
        print("error: benchmarks/ not found (run from a source checkout)")
        return 1
    cmd, output = build_bench_command(argv)
    env = dict(os.environ)
    src = str(root / "src")
    extra = f"{src}{os.pathsep}{root}"
    env["PYTHONPATH"] = (
        f"{extra}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else extra
    )
    if groups:
        # Consumed by benchmarks/conftest.py: deselects benchmarks whose
        # pytest-benchmark group matches none of the fnmatch patterns.
        env["REPRO_BENCH_GROUPS"] = groups
    code = subprocess.call(cmd, cwd=root, env=env)
    if code == 0 and output:
        # The subprocess runs from the repo root; print where the file
        # actually landed.
        resolved = output if os.path.isabs(output) else str(root / output)
        print(f"benchmark results written to {resolved}")
        if baseline is not None:
            with open(resolved) as fh:
                fresh = json.load(fh)
            print(f"\ncomparison against {compare_path}:")
            for line in format_bench_comparison(baseline, fresh):
                print(line)
            violations = slo_violations(baseline, fresh)
            if violations:
                print("\nSLO gate FAILED: p99 regressed >25% vs baseline:")
                for group, name, old_p99, new_p99 in violations:
                    print(
                        f"  {group}:{name}: p99 {old_p99:.3f} ms ->"
                        f" {new_p99:.3f} ms ({new_p99 / old_p99:.2f}x)"
                    )
                return 1
            print("SLO gate: all recorded p99 latencies within 25% of baseline")
    return code


def main(argv: list[str] | None = None) -> int:
    """Entry point: interactive loop, ``-c "line"`` one-shot mode, or the
    ``check``/``serve``/``bench`` subcommands."""
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["bench"]:
        return run_bench(argv[1:])
    if argv[:1] == ["check"]:
        return run_check(argv[1:])
    if argv[:1] == ["lint"]:
        # `repro lint` is `repro check --lint`: same service, same
        # verdict bytes, warnings switched on.  Appending the flag
        # keeps the two spellings impossible to drift apart.
        return run_check([*argv[1:], "--lint"])
    if argv[:1] == ["serve"]:
        return run_serve(argv[1:])
    repl = Repl()
    if argv[:1] == ["-c"]:
        for chunk in argv[1:]:
            if chunk == "-c":
                continue
            if not repl.handle(chunk):
                break
        return 1 if repl.error_count else 0
    print(BANNER)
    while True:
        try:
            line = input(PROMPT)
        except EOFError:
            print()
            return 0
        if not repl.handle(line):
            return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
