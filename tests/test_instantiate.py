"""``SolverState.instantiate``: the ``Var`` rule's instantiation without
``Subst``, checked against the capture-avoiding ``Subst`` application it
replaced."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kinds import Kind
from repro.core.solver import SolverState
from repro.core.subst import instantiation_from
from repro.core.types import (
    BOOL,
    INT,
    TForall,
    TVar,
    arrow,
    forall,
    list_of,
    split_foralls,
)
from repro.names import NameSupply
from repro.syntax.parser import parse_type
from tests.test_deep_towers import DEPTH, arrow_tower, forall_tower, recursion_limit

#: Binder and variable names: prefix candidates, a free rigid, and the
#: first fresh names a new supply hands out (a binder spelled like one
#: must not capture the fresh variable).
NAMES = ("a", "b", "p", "c", "%1", "%2")


def _types():
    leaves = st.one_of(st.sampled_from([INT, BOOL]), st.sampled_from([TVar(n) for n in NAMES]))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(arrow, inner, inner),
            st.builds(list_of, inner),
            st.builds(TForall, st.sampled_from(NAMES), inner),
        ),
        max_leaves=10,
    )


def _instantiate(ty):
    prefix, body = split_foralls(ty)
    solver = SolverState()
    args, result = solver.instantiate(ty, NameSupply())
    return solver, prefix, body, args, result


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(("a", "b", "p")), min_size=1, max_size=3), _types())
def test_matches_subst_application(prefix, body):
    ty = forall(prefix, body)
    solver, prefix, body, args, result = _instantiate(ty)
    assert result is instantiation_from(prefix, args)(body)
    assert [a.name for a in args] == [f"%{i}" for i in range(1, len(prefix) + 1)]
    for arg in args:
        assert solver.kinds[arg.name] is Kind.POLY
        assert solver.levels[arg.name] == solver.level
    # A second instantiation runs the template cached on the node.
    again_args, again = SolverState().instantiate(ty, NameSupply("x"))
    assert again is instantiation_from(prefix, again_args)(body)


def test_inner_binder_shadowing_a_prefix_name_is_left_alone():
    _, _, _, args, result = _instantiate(parse_type("forall a. (forall a. a -> a) -> a"))
    assert args == (TVar("%1"),)
    assert result is arrow(parse_type("forall a. a -> a"), TVar("%1"))
    # The shadowing binder's body also mentions another prefix binder,
    # so the walk goes under it and must leave its own `a` alone.
    _, _, _, args, result = _instantiate(parse_type("forall a b. (forall a. a -> b) -> a"))
    assert result is arrow(TForall("a", arrow(TVar("a"), TVar("%2"))), TVar("%1"))


def test_inner_binder_spelled_like_a_fresh_name_is_renamed_not_captured():
    ty = TForall("a", TForall("%1", arrow(TVar("a"), TVar("%1"))))
    _, prefix, body, args, result = _instantiate(ty)
    assert prefix == ("a", "%1")
    assert result is arrow(TVar("%1"), TVar("%2"))
    ty = TForall("a", arrow(TForall("%1", arrow(TVar("a"), TVar("%1"))), INT))
    _, prefix, body, args, result = _instantiate(ty)
    assert result is instantiation_from(prefix, args)(body)
    inner = result.args[0]
    assert inner.var != "%1" and inner.body.args[0] is TVar("%1")


def test_unrelated_subtrees_are_shared():
    shared = arrow_tower(8, INT)
    _, _, _, _, result = _instantiate(forall("a", arrow(shared, TVar("a"))))
    assert result.args[0] is shared


def test_deep_tower_instantiates_under_a_tight_recursion_limit():
    body = forall_tower(DEPTH, "q", arrow_tower(DEPTH, TVar("a")))
    ty = TForall("a", arrow(TVar("a"), body))
    with recursion_limit(256):
        _, prefix, body, args, result = _instantiate(ty)
        expected = instantiation_from(prefix, args)(body)
    assert result is expected
    assert result.args[0] is TVar("%1")


@pytest.mark.parametrize("depth", [1, DEPTH])
def test_deep_prefix_instantiates_under_a_tight_recursion_limit(depth):
    ty = forall_tower(depth, "q", arrow_tower(depth, TVar(f"q{depth - 1}")))
    with recursion_limit(256):
        _, prefix, body, args, result = _instantiate(ty)
    assert len(args) == depth
    assert result is arrow_tower(depth, args[-1])
