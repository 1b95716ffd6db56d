"""The :class:`Engine` protocol and the engine registry.

An *engine* is one complete answer to "what type does this term have?":
the paper's FreezeML inference, the HMF baseline, the mini-ML fragment,
the System F cross-check -- or a third-party type system plugged in from
outside the package.  :class:`repro.api.Session` owns environments,
strategy and the value restriction and delegates every typing question
to an engine through two methods:

* :meth:`Engine.infer` -- the principal type of a term.  The returned
  type may use machine variable names (``%N`` flexibles, ``!`` skolems);
  the session normalises for display.
* :meth:`Engine.definition_type` -- the (generalised) type a top-level
  ``let name = term`` gives ``name``.  The default implementation simply
  defers to :meth:`Engine.infer`, which is right for engines that either
  generalise everywhere or not at all.

Both take the full session context as keywords (``delta``, ``strategy``,
``value_restriction``, ``spans``, ``budget``); engines ignore what they
do not model, and declare what they honour through the capability flags
``supports_strategy`` and ``generalises``.  Failures are reported by
raising :class:`~repro.errors.FreezeMLError` subclasses -- the session
converts them to diagnostics, so an engine never has to know about
:class:`~repro.api.Result`.

The registry maps engine names to instances.  Engines are stateless
(all state arrives per call), so one shared instance per name is safe,
and a :class:`~repro.service.SessionConfig` can name an engine and stay
picklable across process-pool workers.  :data:`ENGINES` is a live,
tuple-like view of the registered names: engines registered later (for
example by a plugin, or by a test) appear in it immediately.
"""

from __future__ import annotations

import abc
from importlib import import_module
from typing import TYPE_CHECKING, Any, ClassVar

from ..core.infer import VARIABLE
from ..core.kinds import KindEnv

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.env import TypeEnv
    from ..core.terms import Term
    from ..core.types import Type


class Engine(abc.ABC):
    """One pluggable type system behind :class:`repro.api.Session`.

    Subclasses set ``name`` (the registry key / CLI ``--engine`` value)
    and the capability flags, and implement :meth:`infer`.  Engines must
    be stateless: every request carries its whole context, so a single
    instance may serve many sessions and processes concurrently.
    """

    #: registry key; what ``Session(engine=...)`` and ``--engine`` accept.
    name: ClassVar[str] = ""
    #: does the instantiation strategy (variable/eliminator) change results?
    supports_strategy: ClassVar[bool] = False
    #: do top-level definitions get generalised types?
    generalises: ClassVar[bool] = True

    @abc.abstractmethod
    def infer(
        self,
        term: "Term",
        env: "TypeEnv",
        *,
        delta: KindEnv | None = None,
        strategy: str = VARIABLE,
        value_restriction: bool = True,
        spans: Any = None,
        budget: Any = None,
    ) -> "Type":
        """The principal type of ``term`` under ``env``.

        ``delta`` holds the session's rigid type variables, ``spans`` the
        parser's term-span side table (attach source locations to errors
        if the engine can).  ``budget`` is a
        :class:`~repro.core.solver.Budget` bounding solver work; engines
        that honour it raise :class:`~repro.errors.BudgetExceededError`
        on exhaustion, engines that cannot may ignore it (the session's
        interpreter-recursion backstop still applies).  Raises
        :class:`~repro.errors.FreezeMLError` on failure.
        """

    def definition_type(
        self,
        name: str,
        term: "Term",
        env: "TypeEnv",
        *,
        delta: KindEnv | None = None,
        strategy: str = VARIABLE,
        value_restriction: bool = True,
        spans: Any = None,
        budget: Any = None,
    ) -> "Type":
        """The type a top-level ``let name = term`` binds ``name`` at.

        May be un-normalised: residual flexible variables keep their
        machine names (``%N``) so the session can tell them apart from
        its own rigid ``Delta`` variables when fixing them.
        """
        return self.infer(
            term,
            env,
            delta=delta,
            strategy=strategy,
            value_restriction=value_restriction,
            spans=spans,
            budget=budget,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Engine name -> instance, or the ``module:Class`` path of a built-in
#: that is not imported yet (see :func:`get_engine`).
_REGISTRY: dict[str, Engine | str] = {}


def register_engine(engine: Engine | type[Engine], *, replace: bool = False) -> Engine:
    """Register an engine (instance or zero-argument class) by its name.

    Returns the registered instance.  Registering a name twice is an
    error unless ``replace=True`` -- accidental shadowing of a built-in
    should be loud.
    """
    instance = engine() if isinstance(engine, type) else engine
    if not isinstance(instance, Engine):
        raise TypeError(f"not an Engine: {engine!r}")
    if not instance.name or not isinstance(instance.name, str):
        raise ValueError(f"engine {instance!r} must declare a non-empty name")
    if instance.name in _REGISTRY and not replace:
        raise ValueError(
            f"engine {instance.name!r} is already registered "
            "(pass replace=True to shadow it)"
        )
    _REGISTRY[instance.name] = instance
    return instance


def register_builtin(name: str, path: str) -> None:
    """Register a built-in by the ``module:Class`` path of its zero-
    argument class; it keeps its place in :data:`ENGINES` but is
    imported and instantiated on its first :func:`get_engine`."""
    _REGISTRY[name] = path


def unregister_engine(name: str) -> None:
    """Remove a registered engine (tests and plugins clean up with this)."""
    try:
        del _REGISTRY[name]
    except KeyError:
        raise ValueError(f"no engine named {name!r} is registered") from None


def get_engine(engine: str | Engine) -> Engine:
    """Resolve an engine name (or pass an instance through).

    Raises :class:`ValueError` for unknown names -- the message lists
    what *is* registered, so CLI usage errors stay self-explanatory.
    """
    if isinstance(engine, Engine):
        return engine
    try:
        found = _REGISTRY[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r} (one of {tuple(_REGISTRY)})"
        ) from None
    if isinstance(found, str):
        # A built-in's first lookup imports its module.
        module, _, cls = found.partition(":")
        found = _REGISTRY[engine] = getattr(import_module(module), cls)()
    return found


def engine_names() -> tuple[str, ...]:
    """The registered engine names, in registration order."""
    return tuple(_REGISTRY)


class _EngineNames:
    """A live, tuple-like view of the registered engine names.

    ``repro.api.ENGINES`` predates the registry as a plain tuple; this
    view keeps that reading style (iteration, ``in``, indexing, ``repr``)
    while always reflecting the current registry contents.
    """

    __slots__ = ()

    def __iter__(self):
        return iter(engine_names())

    def __len__(self) -> int:
        return len(_REGISTRY)

    def __getitem__(self, index):
        return engine_names()[index]

    def __contains__(self, name: object) -> bool:
        return name in _REGISTRY

    # No __eq__: the view compares (and hashes) by identity, like any
    # live container -- compare contents via tuple(ENGINES) instead.

    def __repr__(self) -> str:
        return repr(engine_names())


#: Live view over the registry; import-site compatible with the old tuple.
ENGINES = _EngineNames()
