"""Experiment E14 -- solver-state engine micro-benchmarks.

The mutable-store engine (PR "solver") replaces eager ``Subst``
composition with in-place binding + zonking.  These benches pin down the
primitives the engine's complexity claims rest on -- binding throughput,
variable-chain pruning, zonk cost, boundary-view synthesis -- and keep
one head-to-head group against the paper-literal reference algorithm so
the speedup ratio is visible in every run's JSON.

Run with ``python -m pytest benchmarks/bench_solver.py`` (add
``--benchmark-disable`` for a correctness smoke).
"""

from __future__ import annotations

import pytest

from repro.core.kinds import Kind, KindEnv
from repro.core.reference import reference_unify
from repro.core.solver import SolverState
from repro.core.types import TCon, TVar, arrow, list_of
from repro.core.unify import unify
from tests.helpers import fixed

DELTA = fixed("r")
EMPTY = KindEnv.empty()


def chain_problem(width: int):
    """The wide-lists shape: width variables solved one after another."""
    theta = KindEnv((f"v{i}", Kind.POLY) for i in range(width))
    left = TVar("v0")
    right = TCon("Int")
    for i in range(1, width):
        left = list_of(arrow(TVar(f"v{i}"), left))
        right = list_of(arrow(TCon("Int"), right))
    return theta, left, right


@pytest.mark.parametrize("width", (64, 256, 1024))
@pytest.mark.benchmark(group="solver-bind")
def test_bench_binding_throughput(benchmark, width):
    """In-place binding keeps per-variable cost near-constant."""
    theta, left, right = chain_problem(width)

    def work():
        solver = SolverState(theta)
        solver.unify(DELTA, left, right)
        return solver

    solver = benchmark(work)
    assert solver.zonk(TVar(f"v{width - 1}")) == TCon("Int")


@pytest.mark.parametrize("length", (64, 256, 1024))
@pytest.mark.benchmark(group="solver-prune")
def test_bench_path_compression(benchmark, length):
    """Variable-to-variable chains collapse to O(alpha) via compression."""
    def work():
        solver = SolverState()
        for i in range(length - 1):
            solver.store[f"v{i}"] = TVar(f"v{i + 1}")
        solver.store[f"v{length - 1}"] = TCon("Int")
        # Chase from every chain head; compression makes later calls O(1).
        for i in range(length):
            solver.prune(TVar(f"v{i}"))
        return solver

    solver = benchmark(work)
    assert solver.store["v0"] == TCon("Int")


@pytest.mark.parametrize("width", (64, 256, 1024))
@pytest.mark.benchmark(group="solver-zonk")
def test_bench_zonk_wide_store(benchmark, width):
    """Zonking a type over a large store, with store-entry memoisation."""
    theta, left, right = chain_problem(width)
    solver = SolverState(theta)
    solver.unify(DELTA, left, right)

    def work():
        # Force a full re-resolution: drop the per-entry clean set (else
        # iterations 2+ resolve every entry in one lookup).
        solver._clean.clear()
        return solver.zonk(left)

    zonked = benchmark(work)
    assert zonked == right


@pytest.mark.parametrize("width", (64, 256, 1024))
@pytest.mark.benchmark(group="solver-view")
def test_bench_subst_view_synthesis(benchmark, width):
    """Cost of materialising the classic eager Subst at the boundary."""
    theta, left, right = chain_problem(width)

    def work():
        solver = SolverState(theta)
        solver.unify(DELTA, left, right)
        return solver.as_subst()

    subst = benchmark(work)
    assert subst(TVar("v0")) == TCon("Int")


@pytest.mark.parametrize("width", (16, 48))
@pytest.mark.benchmark(group="solver-vs-reference")
def test_bench_solver_engine(benchmark, width):
    theta, left, right = chain_problem(width)
    theta_out, subst = benchmark(lambda: unify(DELTA, theta, left, right))
    assert subst(TVar("v0")) == TCon("Int")


@pytest.mark.parametrize("width", (16, 48))
@pytest.mark.benchmark(group="solver-vs-reference")
def test_bench_reference_engine(benchmark, width):
    """The paper-literal eager-composition algorithm, for the ratio."""
    theta, left, right = chain_problem(width)
    theta_out, subst = benchmark(
        lambda: reference_unify(DELTA, theta, left, right)
    )
    assert subst(TVar("v0")) == TCon("Int")
