"""The pass framework: contexts, registration, deterministic ordering.

A lint *pass* is a function from a :class:`LintContext` -- the parsed
term, its span table, and everything needed to run inference -- to a
stream of warning-severity :class:`~repro.diagnostics.Diagnostic`
records.  Passes are registered declaratively (:func:`lint_pass`) with
the stable ``FML4xx`` codes they may emit, so the registry doubles as
the machine-checked contract between :data:`repro.errors.WARNING_CODES`
and the implementations (``tests/test_lint.py`` asserts they agree).

Two groups exist:

* ``"syntactic"`` passes walk the term and its annotations; they run
  for every engine.
* ``"inference"`` passes consult solver state (one instrumented run
  of Figure 16 inference, shared across passes via
  :meth:`LintContext.inference`); they only run under the ``freezeml``
  engine, whose :class:`~repro.core.infer.Inferencer` they drive.

Determinism is part of the serving contract (lint warnings travel in
``repro check --json`` verdicts, which must be byte-identical at any
worker count): :func:`run_lint` sorts the merged findings by span,
code and message, and every pass is required to emit messages that are
pure functions of (source, config) -- machine-generated names
(``%N``/``%tmpN``) must never appear in a message, because their
counters depend on process history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..diagnostics import Diagnostic, Severity, Span
from ..errors import WARNING_CODES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.env import TypeEnv
    from ..core.kinds import KindEnv
    from ..core.solver import Budget
    from ..core.terms import Term
    from ..syntax.parser import SpanTable
    from .inference import InstrumentedRun

#: The registration groups, in execution order.
GROUPS = ("syntactic", "inference")


@dataclass
class LintContext:
    """Everything one lint run may consult.

    ``spans`` locates term nodes (``None`` only when linting a
    pre-parsed :class:`~repro.core.terms.Term` with no source);
    ``def_sites`` carries the ordered top-level definition sites of the
    program format (empty for bare terms).  The inference-aware fields
    (``env`` through ``budget``) mirror the owning session so the
    instrumented run sees exactly the typing context the check did.
    """

    source: str
    term: "Term"
    spans: "SpanTable | None"
    env: "TypeEnv"
    delta: "KindEnv"
    engine: str
    strategy: str
    value_restriction: bool
    budget: "Budget | None" = None
    program: bool = False
    def_sites: tuple[tuple[str, Span], ...] = ()
    _inference: "InstrumentedRun | None | bool" = field(
        default=False, repr=False, compare=False
    )
    _unused: "tuple[Term, ...] | None" = field(
        default=None, repr=False, compare=False
    )

    def span_of(self, node: "Term") -> Span | None:
        """The source span of ``node``, when the parser recorded one."""
        return self.spans.get(node) if self.spans is not None else None

    def inference(self) -> "InstrumentedRun | None":
        """The shared instrumented inference run (memoised; ``None``
        when the term does not typecheck, so inference-aware passes
        degrade to silence instead of double-reporting the error)."""
        if self._inference is False:
            from .inference import instrumented_run

            self._inference = instrumented_run(self)
        memoised = self._inference
        assert not isinstance(memoised, bool)
        return memoised

    def unused_binders(self) -> "tuple[Term, ...]":
        """The ``let`` and lambda nodes whose variable is never used in
        its scope, in pre-order (memoised: one walk serves both
        ``FML401`` and ``FML402``)."""
        if self._unused is None:
            from .syntactic import unused_binders

            self._unused = unused_binders(self.term)
        return self._unused


@dataclass(frozen=True)
class LintPass:
    """One registered analysis: its name, group, and declared codes."""

    name: str
    group: str
    codes: tuple[str, ...]
    run: Callable[[LintContext], Iterable[Diagnostic]]


_PASSES: list[LintPass] = []


def lint_pass(
    name: str, *, group: str, codes: tuple[str, ...]
) -> Callable[[Callable[[LintContext], Iterable[Diagnostic]]], Callable[[LintContext], Iterable[Diagnostic]]]:
    """Register a pass.  ``codes`` must be declared in
    :data:`~repro.errors.WARNING_CODES` -- the registry is the single
    namespace for the ``FML4xx`` family."""
    if group not in GROUPS:
        raise ValueError(f"unknown lint group {group!r} (expected one of {GROUPS})")
    for code in codes:
        if code not in WARNING_CODES:
            raise ValueError(f"unregistered warning code {code!r} (add to errors.WARNING_CODES)")

    def register(
        fn: Callable[[LintContext], Iterable[Diagnostic]]
    ) -> Callable[[LintContext], Iterable[Diagnostic]]:
        _PASSES.append(LintPass(name=name, group=group, codes=codes, run=fn))
        return fn

    return register


def all_passes() -> tuple[LintPass, ...]:
    """Every registered pass, syntactic group first."""
    _load_builtin_passes()
    return tuple(
        sorted(_PASSES, key=lambda p: (GROUPS.index(p.group), p.codes, p.name))
    )


def warning(
    code: str, message: str, span: Span | None, *, hint: str = ""
) -> Diagnostic:
    """A warning-severity diagnostic with a registered ``FML4xx`` code."""
    assert code in WARNING_CODES, f"unregistered warning code {code!r}"
    return Diagnostic(
        code=code,
        message=message,
        severity=Severity.WARNING,
        span=span,
        hint=hint,
    )


def _sort_key(diag: Diagnostic) -> tuple[int, int, int, int, str, str]:
    span = diag.span
    if span is None:
        # Span-less findings sort after located ones, stably by code.
        return (1 << 30, 1 << 30, 1 << 30, 1 << 30, diag.code, diag.message)
    return (
        span.line,
        span.column,
        span.end_line,
        span.end_column,
        diag.code,
        diag.message,
    )


_LOADED = False


def _load_builtin_passes() -> None:
    """Import the built-in pass modules (registration is an import
    side effect; deferred so ``repro.analysis`` stays import-light)."""
    global _LOADED
    if not _LOADED:
        from . import inference, syntactic  # noqa: F401  (side-effect import)

        _LOADED = True


def iter_findings(ctx: LintContext) -> Iterator[Diagnostic]:
    """Run every applicable pass over ``ctx`` (unordered stream).

    Passes must not fail a check: a pass that raises a
    :class:`~repro.errors.FreezeMLError` or :class:`RecursionError`
    contributes nothing (inference-aware passes already swallow probe
    failures themselves; this is the outer backstop).
    """
    from ..errors import FreezeMLError

    inference_ok = ctx.engine == "freezeml"
    for lint in all_passes():
        if lint.group == "inference" and not inference_ok:
            continue
        try:
            yield from lint.run(ctx)
        except (FreezeMLError, RecursionError):  # pragma: no cover - backstop
            continue


def run_lint(ctx: LintContext) -> tuple[Diagnostic, ...]:
    """All warnings for ``ctx``, deterministically ordered.

    The order -- span, then code, then message -- is independent of
    pass registration order and of which group produced a finding, so
    the serving tier can merge lint output into verdict bytes that are
    identical at any ``--jobs`` count.
    """
    return tuple(sorted(iter_findings(ctx), key=_sort_key))
