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

Any other first word is a usage error (exit 2), so a mistyped
subcommand cannot fall through to the REPL.  Each subcommand parses its
options with :mod:`argparse`; ``lint`` shares ``check``'s parser.
"""

from __future__ import annotations

import argparse
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
# Option parsing
# ---------------------------------------------------------------------------


def _bounded(convert, floor: float, *, strict: bool = False):
    """An argparse ``type=``: ``convert`` the value, then require it to
    be ``>= floor`` (``> floor`` when ``strict``)."""

    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"needs {'an integer' if convert is int else 'a number'}, got {raw!r}"
            ) from None
        if value < floor or (strict and value == floor):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {floor}, got {raw}"
            )
        return value

    return parse


_POSITIVE_INT = _bounded(int, 1)  # --jobs, --fuel, --max-depth
_NON_NEGATIVE_INT = _bounded(int, 0)  # --port, --max-pending


def _parser(command: str) -> argparse.ArgumentParser:
    """A subcommand parser with the options ``check`` and ``serve``
    share.  ``allow_abbrev=False`` keeps ``--stat`` from meaning
    ``--stats``; there is no ``--help``, so every error exits 2."""
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {command}", allow_abbrev=False, add_help=False
    )
    parser.add_argument("--engine", default="freezeml", metavar="ENGINE")
    parser.add_argument("--strategy", default="variable", metavar="v|e")
    parser.add_argument(
        "--no-value-restriction", dest="value_restriction", action="store_false"
    )
    parser.add_argument("--jobs", type=_POSITIVE_INT, default=1, metavar="N")
    parser.add_argument("--no-cache", dest="cache", action="store_false")
    parser.add_argument("--fuel", type=_POSITIVE_INT, metavar="N")
    parser.add_argument("--max-depth", type=_POSITIVE_INT, metavar="N")
    parser.add_argument(
        "--timeout", type=_bounded(float, 0, strict=True), metavar="SECS"
    )
    parser.add_argument("--lint", action="store_true")
    return parser


def check_parser() -> argparse.ArgumentParser:
    """``check``'s options (``lint`` is ``check --lint``)."""
    parser = _parser("check")
    parser.add_argument("files", nargs="+", metavar="FILE")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--stats", action="store_true")
    parser.add_argument("--strict-warnings", action="store_true")
    return parser


def serve_parser() -> argparse.ArgumentParser:
    """``serve``'s options."""
    parser = _parser("serve")
    parser.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    parser.add_argument(
        "--port", type=_NON_NEGATIVE_INT, default=8765, metavar="N"
    )
    parser.add_argument("--cache", dest="cache_path", metavar="FILE")
    parser.add_argument("--no-persist", dest="persist", action="store_false")
    parser.add_argument(
        "--max-pending", type=_NON_NEGATIVE_INT, default=256, metavar="N"
    )
    parser.add_argument("--no-coalesce", dest="coalesce", action="store_false")
    parser.add_argument(
        "--drain-timeout", type=_bounded(float, 0), default=10.0, metavar="SECS"
    )
    return parser


def _session_config(opts: argparse.Namespace):
    from .service import SessionConfig

    return SessionConfig(
        engine=opts.engine,
        strategy=opts.strategy,
        value_restriction=opts.value_restriction,
        fuel=opts.fuel,
        max_depth=opts.max_depth,
        lint=opts.lint,
    )


# ---------------------------------------------------------------------------
# The `check` subcommand
# ---------------------------------------------------------------------------

#: `check` exit status for batches containing a degraded (FML9xx) verdict.
EXIT_DEGRADED = 3


def _print_responses(responses, opts: argparse.Namespace) -> None:
    """Write ``check``'s verdicts to stdout: the ``--json`` document, or
    one human-readable block per program."""
    if opts.json:
        # The layout `repro serve` answers with, byte for byte.
        entries = [
            response.result.entry_json(response.request.label, response.cached)
            for response in responses
        ]
        print(check_document_json(opts.engine, entries))
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
    from .service import CheckRequest, TypecheckService

    try:
        # Intermixed: options may come after, before or between files.
        opts = check_parser().parse_intermixed_args(argv)
    except SystemExit as exc:  # usage and error already on stderr
        return exc.code
    requests: list[CheckRequest] = []
    stdin_source: str | None = None
    for path in opts.files:
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

    try:
        service = TypecheckService(
            _session_config(opts),
            jobs=opts.jobs,
            cache=opts.cache,
            timeout=opts.timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with service:
        responses = service.check_many(requests)
    if opts.stats:
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
    if opts.strict_warnings and any(
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


def run_serve(argv: list[str]) -> int:
    """``python -m repro serve [--port N] [--jobs N] [...]``."""
    import asyncio

    from .cache import default_cache_path
    from .server import ReproServer, run_server

    try:
        opts = serve_parser().parse_args(argv)
    except SystemExit as exc:  # usage and error already on stderr
        return exc.code
    cache_path = opts.cache_path
    if cache_path is None and opts.persist:
        cache_path = str(default_cache_path())
    try:
        server = ReproServer(
            _session_config(opts),
            jobs=opts.jobs,
            timeout=opts.timeout,
            cache=opts.cache,
            cache_path=cache_path if opts.persist else None,
            max_pending=opts.max_pending,
            coalesce=opts.coalesce,
            drain_timeout=opts.drain_timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        asyncio.run(run_server(server, host=opts.host, port=opts.port))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: interactive loop, ``-c "line"`` one-shot mode, or the
    ``check``/``lint``/``serve`` subcommands."""
    argv = sys.argv[1:] if argv is None else argv
    command, rest = (argv[0], argv[1:]) if argv else ("", [])
    if command == "check":
        return run_check(rest)
    if command == "lint":
        # `repro lint` is `repro check --lint`: same service, same
        # verdict bytes, warnings switched on.  Appending the flag
        # keeps the two spellings impossible to drift apart.
        return run_check([*rest, "--lint"])
    if command == "serve":
        return run_serve(rest)
    if command not in ("", "-c"):
        # A mistyped subcommand must not fall through to the REPL (and
        # exit 0 on a closed stdin).
        print(
            "usage: python -m repro [-c LINE ...] | {check,lint,serve} ...\n"
            f"error: unknown command {command!r}",
            file=sys.stderr,
        )
        return 2
    repl = Repl()
    if command == "-c":
        for chunk in rest:
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
