"""The unified programmatic facade: one :class:`Session`, many requests.

The paper presents FreezeML as a single judgement, and this module gives
the reproduction a single programmatic surface to match.  A
:class:`Session` owns the pieces of interpreter state that used to be
scattered across ad-hoc entrypoints -- the type environment, the runtime
value environment, the instantiation strategy, the engine selection --
and exposes request methods (:meth:`~Session.infer`,
:meth:`~Session.define`, :meth:`~Session.elaborate`,
:meth:`~Session.derive`, :meth:`~Session.evaluate`,
:meth:`~Session.run_program`, :meth:`~Session.check`) that all return a
structured :class:`Result` carrying either a payload or a list of
:class:`~repro.diagnostics.Diagnostic` records.  **Exceptions never
cross this boundary**: every :class:`~repro.errors.FreezeMLError` is
converted to a diagnostic with an error code and, where the parser's
span table can locate the offending subterm, a source span.

Engines
-------

``engine`` selects which type system answers the request.  Engines are
first-class: :mod:`repro.engines` defines the :class:`~repro.engines.Engine`
protocol and a registry, ``ENGINES`` is a live view of the registered
names, and the session dispatches every typing question through the
resolved engine instance -- no string dispatch lives here.  The
built-ins:

* ``"freezeml"`` -- the paper's Figure 16 inference (default); honours
  ``strategy`` (variable/eliminator instantiation) and
  ``value_restriction``.
* ``"hmf"``      -- the HMF baseline (Leijen 2008, our Figure 8 rival).
* ``"ml"``       -- the mini-ML fragment (Figure 20/21); terms outside
  the fragment are rejected with a diagnostic.
* ``"systemf"``  -- elaborate to System F (Figure 11) and re-check the
  image with the Figure 18 typechecker (the Theorem 3 cross-check).

Batch workloads
---------------

:meth:`Session.check_many` types a list of programs with per-program
isolation: each program runs in a fork of the session (fresh solver
state and name supply per run, private environment extension) over the
shared prelude, so results are independent of submission order and no
state leaks between programs.  This is the serving-style entrypoint the
``python -m repro check`` subcommand and the corpus machinery build on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .core.derivation import derive as _derive
from .core.env import TypeEnv
from .core.infer import ELIMINATOR, VARIABLE, normalise_type
from .core.kinds import Kind, KindEnv
from .core.solver import Budget
from .core.terms import Term
from .core.types import TCon, TForall, TVar, Type, ftv, rename
from .corpus.signatures import prelude
from .diagnostics import Diagnostic, Span, diagnostic_from_error, error_span
from .engines import ENGINES, Engine, get_engine
from .engines.freezeml import FreezeMLEngine
from .errors import FreezeMLError, RecursionLimitError
from .extensions.toplevel import (
    desugar_program,
    parse_program,
    parse_program_spanned,
)
from .names import display_names
from .semantics import eval_freezeml, value_prelude
from .semantics.values import show_value
from .syntax.parser import SpanTable, parse_term_spanned
from .syntax.pretty import pretty_type
from .translate import elaborate as _elaborate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .analysis.inference import InstrumentedRun

STRATEGY_ALIASES = {
    "v": VARIABLE,
    "variable": VARIABLE,
    "e": ELIMINATOR,
    "eliminator": ELIMINATOR,
}


@dataclass(frozen=True, slots=True, init=False)
class Result:
    """The outcome of one session request.

    ``ok`` distinguishes success from failure; on failure ``diagnostics``
    is non-empty and the payload fields are unset.  ``value`` holds the
    request's raw payload (a runtime value, a derivation tree, an
    :class:`~repro.translate.freezeml_to_f.ElaborationResult`, ...),
    ``ty``/``type_str`` the inferred type where the request produces one,
    and ``rendered`` a one-stop human-readable rendering.
    """

    request: str
    ok: bool
    source: str = ""
    engine: str = "freezeml"
    rendered: str = ""
    ty: Type | None = None
    type_str: str = ""
    value: Any = field(default=None, compare=False)
    diagnostics: tuple[Diagnostic, ...] = ()
    #: populated by the service layer (:mod:`repro.service`): was this
    #: result served from the batch cache, and how long did the check take?
    cached: bool = False
    duration_ms: float | None = field(default=None, compare=False)
    #: the rendered check-response entry, minus its ``file`` value and
    #: ``cached`` flag (see :meth:`hold_entry_json`).  Process-local:
    #: ``to_dict``, ``replace`` and pickling never carry it.
    _entry_memo: tuple[str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __init__(
        self,
        request: str,
        ok: bool,
        source: str = "",
        engine: str = "freezeml",
        rendered: str = "",
        ty: Type | None = None,
        type_str: str = "",
        value: Any = None,
        diagnostics: tuple[Diagnostic, ...] = (),
        cached: bool = False,
        duration_ms: float | None = None,
    ) -> None:
        # What the generated frozen ``__init__`` does, with
        # ``object.__setattr__`` looked up once instead of per field:
        # every check builds a Result.
        set_ = object.__setattr__
        set_(self, "request", request)
        set_(self, "ok", ok)
        set_(self, "source", source)
        set_(self, "engine", engine)
        set_(self, "rendered", rendered)
        set_(self, "ty", ty)
        set_(self, "type_str", type_str)
        set_(self, "value", value)
        set_(self, "diagnostics", diagnostics)
        set_(self, "cached", cached)
        set_(self, "duration_ms", duration_ms)
        set_(self, "_entry_memo", None)

    def __bool__(self) -> bool:
        return self.ok

    def __getstate__(self) -> list:
        return [getattr(self, name) for name in _RESULT_STATE]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(_RESULT_STATE, state):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_entry_memo", None)

    def to_dict(self) -> dict:
        """JSON-ready form (used by ``python -m repro check --json``).

        The key order is fixed (serving consumers diff these payloads),
        ``engine`` is always present, and ``cached`` always appears so a
        cache-aware reader never needs a fallback.  ``duration_ms`` is
        included only once the service layer has populated it -- plain
        session results stay byte-stable run to run.
        """
        payload = {
            "request": self.request,
            "engine": self.engine,
            "ok": self.ok,
            "source": self.source,
            "type": self.type_str or None,
            "rendered": self.rendered,
            "cached": self.cached,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        if self.duration_ms is not None:
            payload["duration_ms"] = self.duration_ms
        return payload

    def entry(self, label: str, cached: bool) -> dict:
        """This verdict as one program of a check response: the layout
        ``repro check --json`` prints and ``POST /check`` serves.
        ``label`` names the program (``file``), ``cached`` is the flag
        the caller reports, and the wall-clock ``duration_ms`` is left
        out so the bytes are reproducible."""
        payload = {"file": label, **self.to_dict()}
        payload.pop("duration_ms", None)
        payload["cached"] = cached
        return payload

    def entry_json(self, label: str, cached: bool) -> str:
        """``json.dumps(self.entry(label, cached), indent=2)``, spliced
        from the memo when :meth:`hold_entry_json` has filled it."""
        memo = self._entry_memo
        if memo is None:
            return json.dumps(self.entry(label, cached), indent=2)
        head, tail = memo
        flag = "true" if cached else "false"
        return _ENTRY_OPEN + json.dumps(label) + head + flag + tail

    def hold_entry_json(self) -> None:
        """Render this verdict's entry once, for a verdict that is held
        and answered again and again.  The memo keeps the text around
        the two per-request values; a JSON string holds no raw newline,
        so the only ``cached`` key at two spaces of indentation is the
        entry's own."""
        if self._entry_memo is None:
            text = json.dumps(self.entry("", False), indent=2)
            rest = text[len(_ENTRY_OPEN) + len('""') :]
            head, _, tail = rest.partition(_CACHED_KEY + "false")
            object.__setattr__(self, "_entry_memo", (head + _CACHED_KEY, tail))


#: What pickles of a :class:`Result`: every field but the entry memo.
_RESULT_STATE = tuple(f.name for f in fields(Result) if f.name != "_entry_memo")
_ENTRY_OPEN = '{\n  "file": '
_CACHED_KEY = '\n  "cached": '


def check_document_json(engine: str, entries: Sequence[str]) -> str:
    """``json.dumps({"engine": engine, "programs": [...]}, indent=2)``
    for programs already rendered by :meth:`Result.entry_json`: the
    document ``repro check --json`` prints and a batch ``POST /check``
    serves.  Nesting indents every line of an entry by four more
    spaces, and only structure puts a newline in JSON text."""
    if not entries:
        return json.dumps({"engine": engine, "programs": []}, indent=2)
    programs = ",\n".join(entries).replace("\n", "\n    ")
    return (
        '{\n  "engine": ' + json.dumps(engine)
        + ',\n  "programs": [\n    ' + programs + "\n  ]\n}"
    )


def _collect_type_names(ty: Type, acc: set) -> None:
    """All variable names occurring in ``ty`` (free and bound)."""
    if isinstance(ty, TVar):
        acc.add(ty.name)
    elif isinstance(ty, TCon):
        for arg in ty.args:
            _collect_type_names(arg, acc)
    elif isinstance(ty, TForall):
        acc.add(ty.var)
        _collect_type_names(ty.body, acc)


def _is_program(source: str) -> bool:
    """Does ``source`` use the ``sig``/``def``/``main`` program format?"""
    # Every line boundary is whitespace to ``lstrip``, so the first
    # non-blank character opens the first non-blank line: a program
    # starts it with a comment or one of its keywords.  (``lstrip``
    # copies the source, so skip it when the first character decides.)
    first = source[:1]
    if first.isspace():
        first = source.lstrip()[:1]
    if first not in ("#", "s", "d", "m"):
        return False
    for raw in source.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head = line.split(None, 1)[0]
        if head in ("sig", "def") or head == "main" or head.startswith("main="):
            return True
        return False
    return False


class Session:
    """Interpreter state plus a guarded request interface.

    A session is cheap to construct and cheap to :meth:`fork`; forks
    share the immutable prelude but extend privately, which is what
    gives :meth:`check_many` its per-program isolation.
    """

    def __init__(
        self,
        *,
        engine: str | Engine = "freezeml",
        strategy: str = VARIABLE,
        value_restriction: bool = True,
        env: TypeEnv | None = None,
        values: dict | None = None,
        fuel: int | None = None,
        max_depth: int | None = None,
    ):
        self._engine_impl = get_engine(engine)  # ValueError on unknown names
        self.engine = self._engine_impl.name
        self.strategy = STRATEGY_ALIASES.get(strategy, strategy)
        if self.strategy not in (VARIABLE, ELIMINATOR):
            raise ValueError(f"unknown instantiation strategy: {strategy!r}")
        self.value_restriction = value_restriction
        #: Deterministic work budget for every typing request (None =
        #: unlimited).  Exhaustion surfaces as the FML901/FML902
        #: diagnostics; Budget() validates the limits eagerly.
        self.budget: Budget | None = (
            Budget(fuel=fuel, max_depth=max_depth)
            if fuel is not None or max_depth is not None
            else None
        )
        self.env = env if env is not None else prelude()
        self.values = values if values is not None else value_prelude()
        #: user-added top-level bindings, name -> pretty type (REPL ``:env``)
        self.bindings: dict[str, str] = {}
        #: session-level rigid type variables (``Delta``): residual
        #: monomorphic variables of value-restricted definitions are
        #: *fixed* here so the environment stays well-formed (see
        #: :meth:`define`).
        self.delta: KindEnv = KindEnv.empty()

    def fork(self) -> "Session":
        """An isolated copy: shares the prelude, extends privately."""
        child = Session.__new__(Session)
        child.engine = self.engine
        child._engine_impl = self._engine_impl
        child.strategy = self.strategy
        child.value_restriction = self.value_restriction
        child.budget = self.budget  # frozen dataclass: safe to share
        child.env = self.env  # TypeEnv extension is persistent/immutable
        child.values = dict(self.values)
        child.bindings = dict(self.bindings)
        child.delta = self.delta
        return child

    def set_strategy(self, strategy: str) -> str:
        """Switch instantiation strategy (accepts ``v``/``e`` aliases)."""
        resolved = STRATEGY_ALIASES.get(strategy, strategy)
        if resolved not in (VARIABLE, ELIMINATOR):
            raise ValueError(f"unknown instantiation strategy: {strategy!r}")
        self.strategy = resolved
        return resolved

    # -- plumbing -----------------------------------------------------------

    def _parse(self, source: str | Term) -> tuple[Term, SpanTable | None]:
        if isinstance(source, Term):
            return source, None
        return parse_term_spanned(source)

    def _fail(
        self,
        request: str,
        source: str,
        exc: BaseException,
        *,
        engine: str = "",
        warnings: tuple[Diagnostic, ...] = (),
    ) -> Result:
        # Most errors carry their own span; only the rest need the
        # whole-source fallback, which walks every line of the source.
        fallback = (
            Span.whole_source(source)
            if source and error_span(exc) is None
            else None
        )
        diag = diagnostic_from_error(exc, fallback_span=fallback)
        return Result(
            request=request,
            ok=False,
            source=source,
            engine=engine or self.engine,
            diagnostics=(diag, *warnings),
        )

    def _resolve_engine(self, engine: str | Engine | None) -> Engine:
        """The engine answering this request: the session's own, or a
        per-call override resolved through the registry."""
        if engine is None:
            return self._engine_impl
        if isinstance(engine, str) and engine == self.engine:
            return self._engine_impl
        return get_engine(engine)

    def _infer_term(
        self, term: Term, spans: SpanTable | None, impl: Engine
    ) -> tuple[Type, str]:
        """Delegate to the engine; returns the (display-normalised) type
        and its pretty rendering.  Raises :class:`FreezeMLError`."""
        ty = normalise_type(
            impl.infer(
                term,
                self.env,
                delta=self.delta,
                strategy=self.strategy,
                value_restriction=self.value_restriction,
                spans=spans,
                budget=self.budget,
            )
        )
        return ty, pretty_type(ty)

    # -- requests -----------------------------------------------------------

    def infer(
        self, source: str | Term, *, engine: str | Engine | None = None
    ) -> Result:
        """Infer the principal type of a term under the session engine."""
        impl = self._resolve_engine(engine)
        text = source if isinstance(source, str) else str(source)
        try:
            term, spans = self._parse(source)
            ty, shown = self._infer_term(term, spans, impl)
        except FreezeMLError as exc:
            return self._fail("infer", text, exc, engine=impl.name)
        return Result(
            request="infer",
            ok=True,
            source=text,
            engine=impl.name,
            rendered=shown,
            ty=ty,
            type_str=shown,
        )

    def _definition_type(
        self, name: str, term: Term, spans: SpanTable | None, impl: Engine
    ) -> Type:
        """The type a top-level ``let name = term`` gives ``name`` under
        ``impl``, *un-normalised*: free flexible variables keep their
        machine names (``%N``) so :meth:`define` can tell residual
        flexibles from session ``Delta`` variables.
        Raises :class:`FreezeMLError`."""
        return impl.definition_type(
            name,
            term,
            self.env,
            delta=self.delta,
            strategy=self.strategy,
            value_restriction=self.value_restriction,
            spans=spans,
            budget=self.budget,
        )

    def infer_definition(
        self, name: str, source: str | Term, *, engine: str | Engine | None = None
    ) -> Result:
        """The type a top-level definition would get -- type only: nothing
        is evaluated and the session environment is not extended."""
        impl = self._resolve_engine(engine)
        text = source if isinstance(source, str) else str(source)
        try:
            term, spans = self._parse(source)
            ty = normalise_type(self._definition_type(name, term, spans, impl))
        except FreezeMLError as exc:
            return self._fail("infer_definition", text, exc, engine=impl.name)
        shown = pretty_type(ty)
        return Result(
            request="infer_definition",
            ok=True,
            source=text,
            engine=impl.name,
            rendered=f"{name} : {shown}",
            ty=ty,
            type_str=shown,
        )

    def _fix_residual_vars(self, ty: Type) -> Type:
        """Close a definition type over its free type variables.

        A value-restricted binding (``let c = choose id``) keeps
        monomorphic variables free in its type.  Storing such a type
        as-is would make the environment ill-formed and poison every
        later request.  Following the OCaml treatment of weak variables
        at a module boundary, the residual variables are *fixed*: renamed
        to fresh display names and declared rigid in the session's
        ``Delta``, so the environment stays well-formed (the variables
        can no longer be instantiated -- re-define with an annotation or
        a generalisable body to choose their types).
        """
        # Machine names (%N flexibles, !skolems) are this run's residual
        # variables; display-named frees are session Delta variables from
        # the environment and must keep their identity.
        free = [v for v in ftv(ty) if v[0] in "%!" and v not in self.delta]
        if not free:
            return ty
        avoid = set(self.delta.names()) | self.env.free_type_vars()
        _collect_type_names(ty, avoid)
        supply = display_names(avoid)
        mapping = {v: next(supply) for v in free}
        self.delta = self.delta.extend_all(mapping.values(), Kind.MONO)
        return rename(ty, mapping)

    def define(
        self, name: str, source: str | Term, *, engine: str | Engine | None = None
    ) -> Result:
        """Add a top-level binding ``let name = term`` (generalising let).

        Extends both the type and the value environment on success; on
        failure the session is left untouched.  Free type variables of a
        non-generalisable definition become rigid session variables (see
        :meth:`_fix_residual_vars`).
        """
        impl = self._resolve_engine(engine)
        text = source if isinstance(source, str) else str(source)
        try:
            term, spans = self._parse(source)
            ty = self._definition_type(name, term, spans, impl)
            value = eval_freezeml(term, dict(self.values))
        except FreezeMLError as exc:
            return self._fail("define", text, exc, engine=impl.name)
        ty = normalise_type(self._fix_residual_vars(ty))
        shown = pretty_type(ty)
        self.env = self.env.extend(name, ty)
        self.values[name] = value
        self.bindings[name] = shown
        return Result(
            request="define",
            ok=True,
            source=text,
            engine=impl.name,
            rendered=f"{name} : {shown}",
            ty=ty,
            type_str=shown,
            value=value,
        )

    def elaborate(self, source: str | Term) -> Result:
        """Elaborate to System F (Figure 11); payload is the
        :class:`~repro.translate.freezeml_to_f.ElaborationResult`."""
        text = source if isinstance(source, str) else str(source)
        try:
            term, _spans = self._parse(source)
            elab = _elaborate(
                term,
                self.env,
                self.delta,
                strategy=self.strategy,
                value_restriction=self.value_restriction,
            )
        except FreezeMLError as exc:
            return self._fail("elaborate", text, exc)
        ty = normalise_type(elab.ty)
        shown = pretty_type(ty)
        return Result(
            request="elaborate",
            ok=True,
            source=text,
            engine=self.engine,
            rendered=f"{elab.fterm} : {shown}",
            ty=ty,
            type_str=shown,
            value=elab,
        )

    def derive(self, source: str | Term) -> Result:
        """Build the full Figure 7 typing derivation; payload is the
        :class:`~repro.core.derivation.Derivation` tree."""
        text = source if isinstance(source, str) else str(source)
        try:
            term, _spans = self._parse(source)
            deriv, _theta = _derive(
                term,
                self.env,
                self.delta,
                strategy=self.strategy,
                value_restriction=self.value_restriction,
            )
        except FreezeMLError as exc:
            return self._fail("derive", text, exc)
        ty = normalise_type(deriv.ty)
        shown = pretty_type(ty)
        return Result(
            request="derive",
            ok=True,
            source=text,
            engine=self.engine,
            rendered=deriv.pretty(indent=1),
            ty=ty,
            type_str=shown,
            value=deriv,
        )

    def evaluate(self, source: str | Term) -> Result:
        """Evaluate under the CBV semantics (type erasure)."""
        text = source if isinstance(source, str) else str(source)
        try:
            term, _spans = self._parse(source)
            value = eval_freezeml(term, dict(self.values))
        except FreezeMLError as exc:
            return self._fail("evaluate", text, exc)
        return Result(
            request="evaluate",
            ok=True,
            source=text,
            engine=self.engine,
            rendered=show_value(value),
            value=value,
        )

    def run_program(self, source: str) -> Result:
        """Type and run a ``sig``/``def``/``main`` program (Section 6).

        The program desugars to nested (annotated) lets around ``main``;
        the result carries both the program type and the value of
        ``main``.
        """
        try:
            definitions, main = parse_program(source)
            term = desugar_program(definitions, main)
            ty, shown = self._infer_term(term, None, self._engine_impl)
            value = eval_freezeml(term, dict(self.values))
        except FreezeMLError as exc:
            return self._fail("run_program", source, exc)
        return Result(
            request="run_program",
            ok=True,
            source=source,
            engine=self.engine,
            rendered=f"{show_value(value)} : {shown}",
            ty=ty,
            type_str=shown,
            value=value,
        )

    # -- batch / serving ----------------------------------------------------

    def check(self, source: str, *, lint: bool = False) -> Result:
        """Typecheck one program: a bare term, or the program format
        (auto-detected).  Type only -- nothing is evaluated.

        With ``lint=True`` the static-analysis tier (:mod:`repro.analysis`)
        also runs and its warning diagnostics travel in the result:
        alone in ``diagnostics`` when the program typechecks, after the
        error diagnostic when it does not (syntactic findings still
        apply to an ill-typed program; inference-aware ones degrade to
        silence).  Warnings never flip ``ok``.

        As the serving entrypoint, ``check`` additionally backstops the
        interpreter's own :class:`RecursionError` (deeply nested source
        can exhaust the stack in the parser or an unbudgeted engine)
        with the ``FML912`` diagnostic -- non-deterministic, so never
        cached; configure ``fuel``/``max_depth`` for the deterministic
        ``FML901``/``FML902`` guards instead.
        """
        program = _is_program(source)
        def_sites: tuple[tuple[str, Span], ...] = ()
        if program:
            try:
                if lint:
                    # The spanned parse keeps def-line token positions so
                    # warnings (and type errors) point into the source.
                    term, spans, def_sites = parse_program_spanned(source)
                else:
                    definitions, main = parse_program(source)
                    term = desugar_program(definitions, main)
                    spans = None
            except FreezeMLError as exc:
                return self._fail("check", source, exc)
            except RecursionError:
                return self._fail("check", source, RecursionLimitError())
        else:
            try:
                term, spans = parse_term_spanned(source)
            except FreezeMLError as exc:
                return self._fail("check", source, exc)
            except RecursionError:
                return self._fail("check", source, RecursionLimitError())
        warnings: tuple[Diagnostic, ...] = ()
        run = None
        if lint:
            try:
                warnings, run = self._lint_warnings(
                    source, term, spans, program, def_sites
                )
            except RecursionError:
                warnings = ()  # lint must never take the check down
        try:
            if run is not None and type(self._engine_impl) is FreezeMLEngine:
                # Lint's instrumented run is this engine's own inference
                # under the same options: take its type, don't infer twice.
                raw = run.result.ty
            else:
                # `_infer_term` inlined: the serving hot path.
                raw = self._engine_impl.infer(
                    term,
                    self.env,
                    delta=self.delta,
                    strategy=self.strategy,
                    value_restriction=self.value_restriction,
                    spans=spans,
                    budget=self.budget,
                )
            ty = normalise_type(raw)
            shown = pretty_type(ty)
        except FreezeMLError as exc:
            return self._fail("check", source, exc, warnings=warnings)
        except RecursionError:
            return self._fail(
                "check", source, RecursionLimitError(), warnings=warnings
            )
        # Positional (request, ok, source, engine, rendered, ty,
        # type_str, value, diagnostics): keywords cost a check more.
        return Result("check", True, source, self.engine, shown, ty, shown, None, warnings)

    def lint(self, source: str) -> Result:
        """Typecheck *and* lint: sugar for ``check(source, lint=True)``
        (same request kind, so serving caches and verdict bytes agree)."""
        return self.check(source, lint=True)

    def _lint_warnings(
        self,
        source: str,
        term: Term,
        spans: SpanTable | None,
        program: bool,
        def_sites: tuple[tuple[str, Span], ...],
    ) -> tuple[tuple[Diagnostic, ...], InstrumentedRun | None]:
        """Run the analysis tier under this session's exact typing
        context (engine, strategy, value restriction, budget, env).
        Returns the warnings and, under the ``freezeml`` engine, the
        instrumented inference run (``None`` when it failed)."""
        from .analysis import LintContext, run_lint

        ctx = LintContext(
            source=source,
            term=term,
            spans=spans,
            env=self.env,
            delta=self.delta,
            engine=self.engine,
            strategy=self.strategy,
            value_restriction=self.value_restriction,
            budget=self.budget,
            program=program,
            def_sites=def_sites,
        )
        warnings = run_lint(ctx)
        return warnings, ctx.inference() if ctx.engine == "freezeml" else None

    def check_many(
        self, sources: Iterable[str], *, lint: bool = False
    ) -> list[Result]:
        """Typecheck many programs with per-program isolation.

        Each program is checked in a :meth:`fork` of this session: fresh
        solver state and name supply (one per inference run), a private
        environment, shared prelude.  Results come back in input order.
        """
        return [self.fork().check(source, lint=lint) for source in sources]

    def typechecks(
        self, source: str | Term, *, engine: str | Engine | None = None
    ) -> bool:
        """Boolean convenience over :meth:`infer` (corpus/verdict use)."""
        return self.infer(source, engine=engine).ok

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(engine={self.engine!r}, strategy={self.strategy!r}, "
            f"bindings={len(self.bindings)})"
        )


__all__ = [
    "ENGINES",
    "Result",
    "Session",
    "check_document_json",
]
