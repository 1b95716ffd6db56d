"""Exception hierarchy for the FreezeML reproduction.

Every failure mode of the paper's partial functions (kinding, unification,
inference -- Figures 15 and 16 are explicitly partial) is modelled as an
exception deriving from :class:`FreezeMLError`, so callers can catch the
whole family or discriminate precisely in tests.

Each class declares a stable ``code`` (``FML0xx`` surface syntax and
scoping, ``FML1xx`` type inference, ``FML2xx`` backend typecheckers,
``FML3xx`` runtime, ``FML9xx`` resilience guards) and may carry a
source ``span`` pointing at the offending region; :mod:`repro.diagnostics`
turns a raised error into a structured
:class:`~repro.diagnostics.Diagnostic` and the ``repro.api`` session
guarantees no exception from this hierarchy ever crosses the API
boundary.

The ``FML9xx`` family (:class:`ResilienceError`) is not about the
*program* being ill-typed -- it reports that a resource guard fired or
the serving infrastructure failed while typechecking it.  Two of the
codes are **deterministic** (the same program under the same budget gets
byte-identical verdicts at any worker count, so the serving cache may
store them); the rest are wall-clock/environment-dependent backstops
that must never be cached:

========  ===============================  ==============
code      meaning                          deterministic?
========  ===============================  ==============
FML901    solver fuel budget exhausted     yes
FML902    recursion-depth guard fired      yes
FML903    shed by admission control        bytes only
FML904    retired (never emitted)          --
FML910    per-request deadline exceeded    no
FML911    worker crashed / raised          no
FML912    interpreter recursion limit      no
========  ===============================  ==============

``FML903`` is a hybrid: its verdict *bytes* are a pure function of
the request and the server configuration (same message and
whole-source span at any worker count, so ``--jobs 1`` and ``--jobs
N`` servers shed identically), but *whether* a request is shed depends
on instantaneous queue depth -- so it is grouped with the volatile
codes and never cached or persisted.  ``FML904`` named a circuit
breaker's shed verdict; the breaker is gone and the code stays
reserved so it is never reused.
"""

from __future__ import annotations


class FreezeMLError(Exception):
    """Base class for all errors raised by this library."""

    #: Stable machine-readable error code, overridden per class.
    code = "FML000"

    #: Source location (a :class:`repro.diagnostics.Span`) when known.
    #: Attached after the fact by whoever holds location information --
    #: the parser for syntax errors, the API session for type errors.
    span = None


class ParseError(FreezeMLError):
    """Raised by the lexer/parser on malformed surface syntax."""

    code = "FML001"

    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: int | None = None,
        end_line: int | None = None,
        end_column: int | None = None,
    ):
        #: The bare message, without the location prefix (diagnostics
        #: carry the location structurally in their span).
        self.raw_message = message
        self.line = line
        self.column = column
        self.end_line = end_line if end_line is not None else line
        self.end_column = end_column
        location = f" at {line}:{column}" if line is not None else ""
        super().__init__(f"parse error{location}: {message}")


class ScopeError(FreezeMLError):
    """A term is not well-scoped (the judgement ``Delta |> M`` of Figure 9)."""

    code = "FML002"


class KindError(FreezeMLError):
    """A type is ill-kinded (Figure 4 / Figure 12 rejected it)."""

    code = "FML003"


class TypeInferenceError(FreezeMLError):
    """Base class for failures of ``unify``/``infer`` (Figures 15, 16)."""

    code = "FML100"


class UnboundVariableError(TypeInferenceError):
    """A term variable has no binding in the type environment."""

    code = "FML101"

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable: {name}")


class UnificationError(TypeInferenceError):
    """Two types could not be unified."""

    code = "FML102"

    def __init__(self, left, right, reason: str = ""):
        self.left = left
        self.right = right
        detail = f" ({reason})" if reason else ""
        super().__init__(f"cannot unify `{left}` with `{right}`{detail}")


class OccursCheckError(UnificationError):
    """A flexible variable occurs in the type it would be bound to.

    ``var`` is the variable *name* and ``ty`` the type it occurs in;
    ``left``/``right`` hold the same information as types, consistent
    with the :class:`UnificationError` contract.
    """

    code = "FML103"

    def __init__(self, var: str, ty):
        from .core.types import TVar

        self.var = var
        self.ty = ty
        TypeInferenceError.__init__(
            self, f"occurs check failed: `{var}` occurs in `{ty}`"
        )
        self.left = TVar(var)
        self.right = ty


class SkolemEscapeError(TypeInferenceError):
    """A rigid (skolem or annotation-bound) variable escaped its scope.

    Raised by the quantifier case of unification (``assert c not in
    ftv(theta)``) and by the annotated-let rule (``assert ftv(theta2) #
    Delta'``).
    """

    code = "FML104"

    def __init__(self, var: str, context: str = ""):
        self.var = var
        detail = f" in {context}" if context else ""
        super().__init__(f"rigid type variable `{var}` would escape its scope{detail}")


class MonomorphismError(TypeInferenceError):
    """A kind-`mono` flexible variable was asked to become polymorphic.

    This is the "never guess polymorphism" invariant of Section 3.2 biting:
    e.g. an unannotated lambda parameter used at a polymorphic type.
    """

    code = "FML105"

    def __init__(self, var: str, ty):
        self.var = var
        self.ty = ty
        super().__init__(
            f"monomorphic type variable `{var}` cannot be unified with "
            f"polymorphic type `{ty}` (unannotated binders must be monomorphic)"
        )


class AnnotationError(TypeInferenceError):
    """An explicit type annotation did not match the inferred type."""

    code = "FML106"


class SystemFTypeError(FreezeMLError):
    """A System F term failed to typecheck (Figure 18)."""

    code = "FML200"


class MLTypeError(FreezeMLError):
    """A mini-ML term failed to typecheck (Figure 21)."""

    code = "FML201"


class EvaluationError(FreezeMLError):
    """Runtime failure in one of the evaluators (ill-typed program run)."""

    code = "FML300"


class ResilienceError(FreezeMLError):
    """Base of the ``FML9xx`` family: resource guards and serving faults.

    These do not claim the program is ill-typed -- they report that a
    configured guard fired (fuel, depth, deadline) or that the serving
    infrastructure failed (worker crash) while typechecking it.  See the
    module docstring for the deterministic/volatile split.
    """

    code = "FML900"


class BudgetExceededError(ResilienceError):
    """The solver's deterministic step budget ("fuel") ran out.

    Fuel is spent on inference nodes, unification steps, variable
    bindings and zonk resolutions, so exhaustion depends only on the
    program and the configured limit -- never on the wall clock.  The
    resulting verdict is deterministic and safe to cache.
    """

    code = "FML901"

    def __init__(self, resource: str, limit: int, message: str = ""):
        self.resource = resource
        self.limit = limit
        super().__init__(
            message
            or f"inference {resource} budget exhausted (limit {limit}); "
            "raise --fuel or simplify the program"
        )


class DepthExceededError(BudgetExceededError):
    """The solver's recursion-depth guard fired.

    Like fuel, the guard is a pure function of the program and the
    configured limit, so the verdict is deterministic and cacheable.
    It exists to fire *before* the interpreter's own recursion limit
    (which would be the non-deterministic ``FML912`` backstop).
    """

    code = "FML902"

    def __init__(self, limit: int):
        super().__init__(
            "depth",
            limit,
            f"inference recursion depth exceeded the configured guard "
            f"(limit {limit}); raise --max-depth or flatten the program",
        )


class LoadShedError(ResilienceError):
    """Admission control refused this request before dispatch.

    Raised (conceptually -- the server constructs the diagnostic
    directly) when the serving tier's bounded pending queue is full.
    The verdict bytes are deterministic -- the same message and
    whole-source span regardless of worker count -- but the shed
    *decision* reflects instantaneous load, so the verdict is never
    cached or persisted: the same program resubmitted under lighter
    load deserves a real answer.
    """

    code = "FML903"

    def __init__(self, max_pending: int | None = None):
        self.max_pending = max_pending
        detail = (
            f" (pending limit {max_pending})" if max_pending is not None else ""
        )
        super().__init__(
            f"request shed by admission control{detail}: the server's "
            "pending queue is full; retry later or raise --max-pending"
        )


class DeadlineExceededError(ResilienceError):
    """A per-request wall-clock deadline preempted typechecking.

    Wall-clock verdicts are non-deterministic (a loaded machine can
    push an innocent request over the line), so they are never cached;
    the deterministic guard for pathological programs is fuel.
    """

    code = "FML910"

    def __init__(self, timeout: float):
        self.timeout = timeout
        super().__init__(
            f"typechecking exceeded the {timeout:g}s deadline and was preempted"
        )


class WorkerCrashError(ResilienceError):
    """A worker process died (or raised outside the API contract)
    while typechecking this program.  Environment-dependent, so the
    verdict is never cached."""

    code = "FML911"

    def __init__(self, message: str = "typechecking crashed its worker process"):
        super().__init__(message)


class RecursionLimitError(ResilienceError):
    """The Python interpreter's recursion limit fired before any
    configured guard.  The limit is interpreter- and thread-dependent,
    so the verdict is never cached; configure ``fuel``/``max_depth``
    for a stable, cacheable verdict instead."""

    code = "FML912"

    def __init__(self):
        super().__init__(
            "interpreter recursion limit hit during typechecking; "
            "configure fuel/max-depth for a deterministic verdict"
        )


# ---------------------------------------------------------------------------
# The FML4xx warning family (static analysis).
#
# Warnings are not exceptions: the program typechecks (or at least
# parses) and the analysis tier (:mod:`repro.analysis`) merely points at
# something suspicious.  They are declared here, next to the error
# codes, so the whole FMLxxx namespace has one registry: codes are
# stable across releases, ``repro lint --json`` consumers key on them,
# and tests assert the table and the rule implementations agree.
# ---------------------------------------------------------------------------

#: Stable warning codes, code -> short human title.  ``FML40x`` rules
#: are purely syntactic (a walk over the parsed term); ``FML41x`` rules
#: are inference-aware (they consult solver results after a check).
WARNING_CODES: "dict[str, str]" = {
    "FML401": "unused let binding",
    "FML402": "unused lambda parameter",
    "FML403": "variable shadowing",
    "FML404": "duplicate top-level definition",
    "FML405": "unused quantifier in annotation",
    "FML406": "freeze of a monomorphic lambda parameter",
    "FML410": "redundant type annotation",
    "FML411": "redundant freeze",
    "FML412": "value-restriction demotion",
}

#: The syntactic subset of :data:`WARNING_CODES` (no inference needed).
SYNTACTIC_WARNING_CODES = frozenset(
    code for code in WARNING_CODES if code < "FML410"
)

#: The inference-aware subset (require a solver run to decide).
INFERENCE_WARNING_CODES = frozenset(
    code for code in WARNING_CODES if code >= "FML410"
)


def is_warning_code(code: str) -> bool:
    """True for any ``FML4xx`` diagnostic code (lint warning)."""
    return code.startswith("FML4")


#: FML9xx codes whose verdicts are pure functions of (program, config):
#: the serving cache may store them.
DETERMINISTIC_GUARD_CODES = frozenset(
    {BudgetExceededError.code, DepthExceededError.code}
)

#: FML9xx codes that depend on wall clock, load or environment: the
#: serving caches (in-memory and persistent) must never store them.
#: ``FML903`` belongs here even though its bytes are deterministic --
#: the shed decision is a function of queue depth, not of the program.
VOLATILE_RESILIENCE_CODES = frozenset(
    {
        LoadShedError.code,
        DeadlineExceededError.code,
        WorkerCrashError.code,
        RecursionLimitError.code,
    }
)


def is_resilience_code(code: str) -> bool:
    """True for any ``FML9xx`` diagnostic code (degraded verdict)."""
    return code.startswith("FML9")
