"""Experiment E15 -- environment-scaling benchmarks for the level engine.

The level (rank) discipline makes `let` generalisation and quantifier
unification O(type) instead of O(environment): generalisation reads
per-variable level stamps rather than zonk-sweeping every ambient
flexible variable, and `forall` unification threads binder maps rather
than renaming binder -> skolem through both bodies.  These workloads pin
the asymptotic claims:

* ``env-let-chain`` -- a chain of value-restricted lets, each leaving
  residual flexible variables in the ambient environment.  The ambient
  sweep made this quadratic in the number of bindings; levels make it
  linear (doubling the chain should well under triple the time).
* ``env-wide-let`` -- a block of generalising lets under an ever-wider
  lambda environment.  The let cost must not grow with the number of
  enclosing binders.
* ``env-quantifier-tower`` -- unifying two deep ``forall`` towers.
  Eager skolemisation renamed O(body) per quantifier (O(depth^2)
  total); binder maps are O(depth).
* ``env-annotation`` -- annotated lets under a wide lambda environment.
  The skolem-escape premise is a bind-time level comparison, not a
  post-hoc scan over the ambient variables.

Smoke with ``python -m pytest benchmarks/bench_env_scaling.py
--benchmark-disable`` (a CI step of its own); drop the flag to time,
and save or diff runs with pytest-benchmark's ``--benchmark-json`` and
``--benchmark-compare``.
"""

from __future__ import annotations

import pytest

from repro.core.infer import infer_type
from repro.core.kinds import Kind, KindEnv
from repro.core.terms import App, Lam, Let, LetAnn, Var
from repro.core.types import TForall, TVar, arrow, forall
from repro.core.unify import unify
from tests.helpers import fixed

DELTA = fixed("r")


def residual_let_chain(n: int):
    """``let x1 = (fun y -> y) (fun z -> z) in ... in x_n``.

    Each bound term is an application, so the value restriction blocks
    generalisation and every let adds residual flexible variables to the
    ambient refined environment -- the worst case for an ambient sweep.
    """
    term = Var(f"x{n}")
    for i in range(n, 0, -1):
        term = Let(f"x{i}", App(Lam("y", Var("y")), Lam("z", Var("z"))), term)
    return term


def wide_env_lets(n_params: int, n_lets: int = 16):
    """``fun p1 ... p_n -> let w1 = fun y -> y in ... in p1``: a fixed
    block of generalising lets under a growing monomorphic environment."""
    term = Var("p1")
    for i in range(n_lets, 0, -1):
        term = Let(f"w{i}", Lam("y", Var("y")), term)
    for i in range(n_params, 0, -1):
        term = Lam(f"p{i}", term)
    return term


def annotated_lets(n_params: int, n_lets: int = 16):
    """Annotated identity lets under a growing lambda environment; each
    annotation opens (and must not leak) a rigid binder."""
    ann = forall("a", arrow(TVar("a"), TVar("a")))
    term = Var("f1")
    for i in range(n_lets, 0, -1):
        term = LetAnn(f"f{i}", ann, Lam("x", Var("x")), term)
    for i in range(n_params, 0, -1):
        term = Lam(f"p{i}", term)
    return term


def quantifier_tower(depth: int):
    ty = TVar(f"q{depth}")
    for i in range(depth, 0, -1):
        ty = TForall(f"q{i}", arrow(TVar(f"q{i}"), ty))
    return ty


@pytest.mark.parametrize("length", (64, 128, 256, 512))
@pytest.mark.benchmark(group="env-let-chain")
def test_bench_residual_let_chain(benchmark, length):
    """Value-restricted let chains: linear in the number of bindings."""
    term = residual_let_chain(length)
    ty = benchmark(lambda: infer_type(term, normalise=False))
    # Each binding stays monomorphic: `x_n : %a -> %a` for flexible %a.
    assert ty.con == "->" and ty.args[0] == ty.args[1]


@pytest.mark.parametrize("width", (64, 256, 1024))
@pytest.mark.benchmark(group="env-wide-let")
def test_bench_wide_environment_lets(benchmark, width):
    """Generalisation cost is independent of the enclosing environment."""
    term = wide_env_lets(width)
    ty = benchmark(lambda: infer_type(term, normalise=False))
    for _ in range(width):  # fun p1 -> ... -> fun p_n -> p1
        ty = ty.args[1]


@pytest.mark.parametrize("width", (64, 256, 1024))
@pytest.mark.benchmark(group="env-annotation")
def test_bench_annotated_lets_wide_env(benchmark, width):
    """Rigid-binder (skolem) escape checking at a wide level boundary."""
    term = annotated_lets(width)
    ty = benchmark(lambda: infer_type(term, normalise=False))
    for _ in range(width):
        ty = ty.args[1]
    # The body instantiates `f1 : forall a. a -> a` at a fresh flexible.
    assert ty.con == "->" and ty.args[0] == ty.args[1]


@pytest.mark.parametrize("depth", (32, 128, 256))
@pytest.mark.benchmark(group="env-quantifier-tower")
def test_bench_quantifier_tower(benchmark, depth):
    """forall towers unify in O(depth): no per-quantifier body rename."""
    left = quantifier_tower(depth)
    right = quantifier_tower(depth)
    theta = KindEnv([(f"q{depth}", Kind.POLY)])

    theta_out, subst = benchmark(lambda: unify(DELTA, theta, left, right))
    assert subst.is_identity()
