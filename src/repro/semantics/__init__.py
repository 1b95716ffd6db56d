"""Call-by-value semantics for FreezeML and System F (type erasure).

The runtime prelude loads with the package; the evaluator (which pulls
in System F syntax) on first access."""

from .._lazy import lazy_getattr
from .prelude import value_prelude

__getattr__ = lazy_getattr(
    globals(), dict.fromkeys(("eval_freezeml", "eval_system_f", "run"), ".eval")
)

__all__ = ["eval_freezeml", "eval_system_f", "run", "value_prelude"]
