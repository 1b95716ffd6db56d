"""Pluggable type-system engines behind :class:`repro.api.Session`.

Importing this package registers the four built-in engines in their
canonical order (``freezeml``, ``hmf``, ``ml``, ``systemf``).  Only
``freezeml`` is imported here; the other three load on their first
:func:`get_engine` (or first access to their class below).  Third
parties add their own::

    from repro.engines import Engine, register_engine

    class MyEngine(Engine):
        name = "mine"
        def infer(self, term, env, **context): ...

    register_engine(MyEngine)

and ``Session(engine="mine")`` / ``repro check --engine=mine`` work
immediately -- :data:`ENGINES` is a live view of the registry.
"""

from .._lazy import lazy_getattr
from .base import (
    ENGINES,
    Engine,
    engine_names,
    get_engine,
    register_builtin,
    register_engine,
    unregister_engine,
)
from .freezeml import FreezeMLEngine

#: The other built-ins, in canonical order: class -> its module, which
#: is named after the engine.
_DEFERRED = {"HMFEngine": ".hmf", "MLEngine": ".ml", "SystemFEngine": ".systemf"}

register_engine(FreezeMLEngine)
for _cls, _module in _DEFERRED.items():
    register_builtin(_module[1:], f"{__name__}{_module}:{_cls}")
del _cls, _module

__getattr__ = lazy_getattr(globals(), _DEFERRED)

__all__ = [
    "ENGINES",
    "Engine",
    "FreezeMLEngine",
    "HMFEngine",
    "MLEngine",
    "SystemFEngine",
    "engine_names",
    "get_engine",
    "register_engine",
    "unregister_engine",
]
