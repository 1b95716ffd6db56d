"""PEP 562 lazy exports for :mod:`repro` and its subpackages.

A package that re-exports names from heavyweight submodules binds
``__getattr__ = lazy_getattr(globals(), {name: module, ...})``: the
submodule is imported on the first access to one of its names, so
importing the package costs only what it imports eagerly.
"""

from importlib import import_module


def lazy_getattr(namespace: dict, exports: dict[str, str]):
    """A module ``__getattr__`` resolving ``exports`` (name -> module
    path relative to the package owning ``namespace``) on first access.

    The value is cached in ``namespace``, so later reads are plain
    attribute lookups.  An export named like the last component of its
    module path is that module itself (``repro.types``)."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            path = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = import_module(path, package)
        value = module if path.rpartition(".")[2] == name else getattr(module, name)
        namespace[name] = value
        return value

    return __getattr__
