"""repro: a full reproduction of *FreezeML: Complete and Easy Type
Inference for First-Class Polymorphism* (Emrich, Lindley, Stolarek,
Cheney, Coates; PLDI 2020).

Public API quick reference
--------------------------

>>> from repro import parse_term, infer_type, prelude, pretty_type
>>> pretty_type(infer_type(parse_term("poly ~id"), prelude()))
'Int * Bool'

The main entry points:

* :class:`Session` -- the unified facade: a stateful session with
  guarded request methods (``infer``, ``define``, ``elaborate``,
  ``derive``, ``evaluate``, ``check``, ``check_many``) returning
  structured :class:`Result`/:class:`Diagnostic` records; every request
  reads bare terms and ``sig``/``def``/``main`` programs alike.
  Exceptions never escape it.

  >>> from repro import Session
  >>> Session().infer("poly ~id").type_str
  'Int * Bool'

* :mod:`repro.engines` -- the pluggable :class:`Engine` protocol and
  registry the session dispatches through; ``register_engine`` makes a
  third-party type system answer ``Session(engine=...)`` and
  ``repro check --engine=...`` immediately.
* :class:`TypecheckService` (:mod:`repro.service`) -- the serving
  layer: batch checks across a worker-process pool with a result cache,
  JSON-ready request/response records, and fault tolerance for worker
  pools (per-request deadlines, crash recovery, retries, bisection and
  quarantine).
* :class:`Budget` (:mod:`repro.core.solver`) -- the deterministic work
  budget (``fuel``/``max_depth``) that degrades runaway inference to a
  stable ``FML901``/``FML902`` diagnostic instead of running away;
  accepted by :class:`Session` and :class:`SessionConfig`.
* :class:`PersistentCache` (:mod:`repro.cache`) -- the durable SQLite
  verdict tier under the service cache, and
  :class:`~repro.server.ReproServer` (:mod:`repro.server`, ``python -m
  repro serve``) -- the asyncio HTTP frontend with request coalescing
  and ``FML903`` admission control on top of it.
* :mod:`repro.analysis` (``python -m repro lint``) -- the
  static-analysis tier: registered span-preserving passes over the
  parsed AST emitting warning-severity ``FML4xx`` diagnostics
  (:func:`run_lint`, ``Session.lint``, ``check(lint=True)``).

* :func:`parse_term` / :func:`parse_type` -- surface syntax.
* :func:`infer_type` / :func:`infer_definition` / :func:`typecheck` --
  the Algorithm W extension of Figure 16 (options: ``value_restriction``,
  ``strategy``).
* :func:`typeable` -- the declarative relation ``Delta; Gamma |- M : A``.
* :func:`prelude` -- the Figure 2 type environment.
* :mod:`repro.translate` -- type-preserving translations to/from System F.
* :mod:`repro.semantics` -- a CBV evaluator and runtime prelude.
"""

from .analysis import LintContext, LintPass, all_passes, run_lint
from .api import ENGINES, Result, Session
from .cache import PersistentCache
from .core.check import typeable
from .engines import Engine, get_engine, register_engine, unregister_engine
from .service import (
    CheckRequest,
    CheckResponse,
    ServiceStats,
    SessionConfig,
    TypecheckService,
)
from .core.solver import Budget
from .core.env import TypeEnv
from .core.infer import (
    infer_definition,
    infer_raw,
    infer_type,
    normalise_type,
    typecheck,
)
from .core.kinds import Kind, KindEnv
from .core.subst import Subst
from .core import terms
from .core import types
from .corpus.signatures import prelude, prelude_with
from .diagnostics import Diagnostic, Severity, Span, diagnostic_from_error
from .errors import (
    BudgetExceededError,
    FreezeMLError,
    LoadShedError,
    ResilienceError,
    TypeInferenceError,
    UnificationError,
    is_resilience_code,
    is_warning_code,
)
from .syntax.parser import parse_term, parse_type
from .syntax.pretty import pretty_term, pretty_type

#: single source of truth for the package version (setup.py reads it).
__version__ = "1.6.0"

__all__ = [
    "ENGINES",
    "Budget",
    "BudgetExceededError",
    "CheckRequest",
    "CheckResponse",
    "Diagnostic",
    "Engine",
    "FreezeMLError",
    "LoadShedError",
    "PersistentCache",
    "ResilienceError",
    "Kind",
    "KindEnv",
    "LintContext",
    "LintPass",
    "Result",
    "ServiceStats",
    "Session",
    "SessionConfig",
    "Severity",
    "Span",
    "Subst",
    "TypeEnv",
    "TypecheckService",
    "TypeInferenceError",
    "UnificationError",
    "all_passes",
    "diagnostic_from_error",
    "get_engine",
    "register_engine",
    "unregister_engine",
    "infer_definition",
    "infer_raw",
    "is_resilience_code",
    "is_warning_code",
    "infer_type",
    "normalise_type",
    "parse_term",
    "parse_type",
    "prelude",
    "prelude_with",
    "pretty_term",
    "pretty_type",
    "run_lint",
    "terms",
    "typeable",
    "typecheck",
    "types",
]
