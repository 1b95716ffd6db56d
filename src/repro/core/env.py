"""Type environments ``Gamma`` mapping term variables to types."""

from __future__ import annotations

from typing import Iterable, Iterator

from .kinds import KindEnv
from .types import Type, ftv_set
from ..errors import UnboundVariableError


class TypeEnv:
    """An immutable ordered mapping from term variables to types.

    Later bindings shadow earlier ones, as in the paper (``Gamma, x : A``).

    ``_valid_under`` memoises ``Theta |- Gamma``: the kind environment
    this environment last passed :func:`~repro.core.wellformed.env_well_formed`
    under, or ``None``.  Every constructor below starts without a memo.
    """

    __slots__ = ("_map", "_valid_under")

    def __init__(self, bindings: Iterable[tuple[str, Type]] = ()):
        self._map: dict[str, Type] = dict(bindings)
        self._valid_under: KindEnv | None = None

    @staticmethod
    def empty() -> "TypeEnv":
        return _EMPTY

    def extend(self, name: str, ty: Type) -> "TypeEnv":
        env = TypeEnv.__new__(TypeEnv)
        new_map = self._map.copy()
        new_map[name] = ty
        env._map = new_map
        env._valid_under = None
        return env

    # -- scoped mutation (inference-internal) -------------------------------
    #
    # The inferencer walks the term tree with strictly scoped extensions:
    # ``Gamma, x : A`` is only ever consulted inside the recursive call.
    # Copy-on-extend made that O(|Gamma|) per binder (quadratic over a
    # program); push/pop below is O(1).  Callers MUST work on a private
    # :meth:`copy_for_mutation` and restore via _pop (in a ``finally``)
    # before the environment escapes.

    def copy_for_mutation(self) -> "TypeEnv":
        """A private copy safe to mutate via :meth:`_push`/:meth:`_pop`."""
        env = TypeEnv.__new__(TypeEnv)
        env._map = dict(self._map)
        env._valid_under = None
        return env

    def _push(self, name: str, ty: Type):
        """Temporarily bind ``name``; returns the token for :meth:`_pop`."""
        prev = self._map.get(name, _MISSING)
        self._map[name] = ty
        return prev

    def _pop(self, name: str, prev) -> None:
        """Undo a :meth:`_push` with its returned token."""
        if prev is _MISSING:
            del self._map[name]
        else:
            self._map[name] = prev

    def lookup(self, name: str) -> Type:
        try:
            return self._map[name]
        except KeyError:
            raise UnboundVariableError(name) from None

    def get(self, name: str) -> Type | None:
        return self._map.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def __iter__(self) -> Iterator[str]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def items(self) -> Iterator[tuple[str, Type]]:
        return iter(self._map.items())

    def map_types(self, fn) -> "TypeEnv":
        """Apply ``fn`` to every type in the environment (e.g. a subst)."""
        env = TypeEnv()
        env._map = {name: fn(ty) for name, ty in self._map.items()}
        return env

    def free_type_vars(self) -> frozenset[str]:
        """Free variables of every entry (boundary use only).

        Inference never sweeps the environment like this any more -- the
        solver's level discipline answers reachability per variable --
        but the classic ``ftv(Gamma)`` remains for paper-shaped callers
        (e.g. the eager ML ``gen``).  Uses the memoised per-node sets:
        environment entries are stable, so repeated calls are cheap.
        """
        out: set[str] = set()
        for ty in self._map.values():
            out.update(ftv_set(ty))
        return frozenset(out)

    def __repr__(self) -> str:
        inside = ", ".join(f"{n} : {t}" for n, t in self._map.items())
        return f"TypeEnv({inside})"


_EMPTY = TypeEnv()
_MISSING = object()
