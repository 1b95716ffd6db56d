"""Optional extensions discussed in the paper (Sections 3.2 and 6).

The top-level program format loads with the package (every check of a
``sig``/``def``/``main`` program reads it); the other extensions on
first access."""

from .._lazy import lazy_getattr
from .toplevel import Definition, desugar_program, infer_program, parse_program

__getattr__ = lazy_getattr(
    globals(),
    {
        "FreezeTerm": ".pervasive",
        "PervasiveInferencer": ".pervasive",
        "infer_type_pervasive": ".pervasive",
        "STRATEGIES": ".strategies",
        "infer_with_strategy": ".strategies",
        "TyApp": ".type_application",
        "TypeApplicationInferencer": ".type_application",
        "infer_type_vta": ".type_application",
    },
)

__all__ = [
    "Definition",
    "FreezeTerm",
    "PervasiveInferencer",
    "STRATEGIES",
    "TyApp",
    "TypeApplicationInferencer",
    "desugar_program",
    "infer_program",
    "infer_type_pervasive",
    "infer_type_vta",
    "infer_with_strategy",
    "parse_program",
]
