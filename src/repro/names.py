"""Fresh name generation and display normalisation.

FreezeML type inference (paper Section 5.1) distinguishes *rigid* type
variables (object-language variables and skolems, living in a fixed kind
environment ``Delta``) from *flexible* type variables (unification
variables, living in a refined kind environment ``Theta``).

To make freshness trivially correct we draw the two classes of generated
names from disjoint alphabets that the surface lexer can never produce:

* flexible (unification) variables look like ``%1``, ``%2``, ...
* skolem constants (rigid variables invented by the unifier when going
  under quantifiers, Figure 15) look like ``!1``, ``!2``, ...
* internal term variables (used when expanding the ``$``/``@`` sugar)
  look like ``%tmp1``, ...

Names carry no further structure: the solver's level (rank) discipline
stamps both flavours with their region in side tables on
:class:`repro.core.solver.SolverState` (``levels``/``rigid_levels``)
rather than encoding levels into names, so names stay stable across
level adjustments.

User-written identifiers are plain ``[a-z][A-Za-z0-9_']*`` so no capture
between generated and user names is possible.
"""

from __future__ import annotations

import itertools
import string

FLEXIBLE_PREFIX = "%"
SKOLEM_PREFIX = "!"


class NameSupply:
    """A monotonically increasing supply of fresh names.

    One supply is used per inference run; since every generated name embeds
    a counter value that is never reused, generated names are globally
    unique within a run.
    """

    def __init__(self, prefix: str = "") -> None:
        self._counter = itertools.count(1)
        self._prefix = prefix

    def copy(self) -> "NameSupply":
        """An independent supply that continues from this one's counter."""
        start = next(self._counter)
        self._counter = itertools.count(start)
        new = NameSupply(self._prefix)
        new._counter = itertools.count(start)
        return new

    def fresh_flexible(self, hint: str = "") -> str:
        """Return a fresh flexible (unification) variable name."""
        if hint or self._prefix:
            return f"{FLEXIBLE_PREFIX}{self._prefix}{hint}{next(self._counter)}"
        return FLEXIBLE_PREFIX + str(next(self._counter))

    def fresh_flexibles(self, count: int) -> tuple[str, ...]:
        """Return ``count`` fresh flexible names in one call (the hot
        instantiation path draws one per quantifier in a prefix)."""
        counter = self._counter
        if self._prefix:
            prefix = FLEXIBLE_PREFIX + self._prefix
        else:
            prefix = FLEXIBLE_PREFIX
        return tuple(prefix + str(next(counter)) for _ in range(count))

    def fresh_skolem(self) -> str:
        """Return a fresh rigid skolem name."""
        return f"{SKOLEM_PREFIX}{self._prefix}{next(self._counter)}"

    def fresh_term_var(self) -> str:
        """Return a fresh term variable name (for desugaring $ and @)."""
        return f"%tmp{self._prefix}{next(self._counter)}"


def is_flexible_name(name: str) -> bool:
    """True if ``name`` was generated as a flexible variable."""
    return name.startswith(FLEXIBLE_PREFIX)


def is_skolem_name(name: str) -> bool:
    """True if ``name`` was generated as a skolem constant."""
    return name.startswith(SKOLEM_PREFIX)


def display_names(avoid: set[str]):
    """Yield an infinite stream of pretty type-variable names.

    Produces ``a, b, c, ..., z, a1, b1, ...`` skipping anything in
    ``avoid``.  Used when normalising inferred types for display so that
    the machine-generated ``%17`` style names never leak to users.
    """
    for round_ in itertools.count():
        for letter in string.ascii_lowercase:
            name = letter if round_ == 0 else f"{letter}{round_}"
            if name not in avoid:
                yield name
