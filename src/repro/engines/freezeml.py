"""The paper's engine: Figure 16 inference on the mutable solver."""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from .base import Engine
from ..core.infer import VARIABLE, Inferencer, infer_raw
from ..core.kinds import KindEnv
from ..core.terms import FrozenVar, Let, Term
from ..errors import FreezeMLError


class _Located(Inferencer):
    """An :class:`Inferencer` whose failures carry the span of the
    innermost located subterm (the first frame the exception crosses)."""

    def __init__(self, spans: Any, **options: Any):
        super().__init__(**options)
        self.spans = spans

    def infer_node(self, delta, gamma, term):
        try:
            return super().infer_node(delta, gamma, term)
        except FreezeMLError as exc:
            if exc.span is None:
                span = self.spans.get(term)
                if span is not None:
                    exc.span = span
            raise


def located_inferencer(spans: Any) -> Callable[..., Inferencer]:
    """The ``inferencer_factory`` that attaches ``spans`` to failures."""
    if spans is None:
        return Inferencer
    return partial(_Located, spans)


class FreezeMLEngine(Engine):
    """The default engine; honours ``strategy`` and ``value_restriction``."""

    name = "freezeml"
    supports_strategy = True
    generalises = True

    def infer(
        self,
        term: Term,
        env,
        *,
        delta: KindEnv | None = None,
        strategy: str = VARIABLE,
        value_restriction: bool = True,
        spans: Any = None,
        budget: Any = None,
    ):
        result = infer_raw(
            term,
            env,
            delta if delta is not None else KindEnv.empty(),
            strategy=strategy,
            value_restriction=value_restriction,
            inferencer_factory=located_inferencer(spans),
            budget=budget,
        )
        return result.ty

    def definition_type(
        self,
        name: str,
        term: Term,
        env,
        *,
        delta: KindEnv | None = None,
        strategy: str = VARIABLE,
        value_restriction: bool = True,
        spans: Any = None,
        budget: Any = None,
    ):
        # Faithful to the paper: the definition's type is the type of the
        # frozen variable in `let name = term in ~name`.
        probe = Let(name, term, FrozenVar(name))
        return self.infer(
            probe,
            env,
            delta=delta,
            strategy=strategy,
            value_restriction=value_restriction,
            spans=spans,
            budget=budget,
        )
