"""The paper's evaluation corpus: Figure 2 prelude and Figure 1 examples.

The examples (which parse every Figure 1 term) load on first access."""

from .._lazy import lazy_getattr
from .signatures import prelude, prelude_with

__getattr__ = lazy_getattr(
    globals(),
    dict.fromkeys(("EXAMPLES", "BAD_EXAMPLES", "Example", "examples_in_section"), ".examples"),
)

__all__ = [
    "prelude",
    "prelude_with",
    "EXAMPLES",
    "BAD_EXAMPLES",
    "Example",
    "examples_in_section",
]
