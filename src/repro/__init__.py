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

Loading
-------

``import repro`` loads nothing but this module, and ``repro.Session()``
loads only what a check runs: the lexer and parser, the core solver and
inferencer, the ``freezeml`` engine, diagnostics and the Figure 2
prelude.  Every other tier loads on first use: the names below resolve
through a PEP 562 ``__getattr__`` over :data:`_EXPORTS`, the
``hmf``/``ml``/``systemf`` engines on their first
:func:`~repro.engines.get_engine`, derivations, System F elaboration
and evaluation on the first ``Session.derive``/``elaborate``/
``evaluate``, the worker pool on the first pooled batch, and the SQLite
tier when a persistent cache is configured.  So an editor or a
pre-commit hook that runs ``repro check FILE`` pays for the checking
core alone, and a request that needs another tier loads it itself.
"""

from ._lazy import lazy_getattr

#: single source of truth for the package version (setup.py reads it).
__version__ = "1.6.0"

#: Exported name -> the module (relative to this package) defining it;
#: ``terms`` and ``types`` are the modules themselves.
_EXPORTS = {
    "ENGINES": ".api",
    "Result": ".api",
    "Session": ".api",
    "Budget": ".core.solver",
    "TypeEnv": ".core.env",
    "Kind": ".core.kinds",
    "KindEnv": ".core.kinds",
    "Subst": ".core.subst",
    "typeable": ".core.check",
    "infer_definition": ".core.infer",
    "infer_raw": ".core.infer",
    "infer_type": ".core.infer",
    "normalise_type": ".core.infer",
    "typecheck": ".core.infer",
    "terms": ".core.terms",
    "types": ".core.types",
    "prelude": ".corpus.signatures",
    "prelude_with": ".corpus.signatures",
    "Diagnostic": ".diagnostics",
    "Severity": ".diagnostics",
    "Span": ".diagnostics",
    "diagnostic_from_error": ".diagnostics",
    "Engine": ".engines",
    "get_engine": ".engines",
    "register_engine": ".engines",
    "unregister_engine": ".engines",
    "BudgetExceededError": ".errors",
    "FreezeMLError": ".errors",
    "LoadShedError": ".errors",
    "ResilienceError": ".errors",
    "TypeInferenceError": ".errors",
    "UnificationError": ".errors",
    "is_resilience_code": ".errors",
    "is_warning_code": ".errors",
    "parse_term": ".syntax.parser",
    "parse_type": ".syntax.parser",
    "pretty_term": ".syntax.pretty",
    "pretty_type": ".syntax.pretty",
    "CheckRequest": ".service",
    "CheckResponse": ".service",
    "ServiceStats": ".service",
    "SessionConfig": ".service",
    "TypecheckService": ".service",
    "PersistentCache": ".cache",
    "LintContext": ".analysis",
    "LintPass": ".analysis",
    "all_passes": ".analysis",
    "run_lint": ".analysis",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_getattr(globals(), _EXPORTS)
