"""Host-speed calibration for the end-to-end timings.

On a shared virtual machine single-thread speed drifts by up to a
factor of two, over seconds and over minutes, under neighbouring load;
no estimator over the program's own timings removes a drift that lasts
a whole run.  So every timed stretch of a run is bracketed by a fixed
kernel -- a small Hindley-Milner inferencer over fixed terms, written
here so that no change to the program under test can move it, and busy
in the same interpreter paths as the checker (small objects,
dictionaries, ``isinstance`` dispatch, recursion, ``json.dumps``).  A
stretch's timings are multiplied by ``REFERENCE_S`` over the kernel's
mean time before and after it: every reported time is the time the
reference host, on which one kernel pass takes ``REFERENCE_S``, would
have taken.
"""

from __future__ import annotations

import json
import time

#: the kernel's typical time on the reference host (2 vCPU VM, CPython 3.11)
REFERENCE_S = 0.0035


class _Var:
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n


class _Con:
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = args


def _terms() -> list[tuple]:
    """Fixed let-polymorphic terms: ("v", x), ("l", x, body),
    ("a", fn, arg) and ("t", x, bound, body) for ``let``."""
    out = []
    for k in range(24):
        body: tuple = ("v", "x")
        for i in range(6 + k % 5):
            body = ("a", ("l", f"y{i}", body), ("v", "one" if i % 2 else "x"))
        term: tuple = (
            "t", "id", ("l", "z", ("v", "z")),
            ("a", ("l", "x", body), ("a", ("v", "id"), ("v", "one"))),
        )
        for i in range(k % 4):
            term = ("t", f"k{i}", ("l", "a", ("l", "b", ("v", "a"))), term)
        out.append(term)
    return out


_TERMS = _terms()


def _infer_rendered(term: tuple) -> str:
    subst: dict[int, object] = {}
    supply = [0]

    def fresh() -> _Var:
        supply[0] += 1
        return _Var(supply[0])

    def find(t):
        while isinstance(t, _Var) and t.n in subst:
            t = subst[t.n]
        return t

    def unify(a, b) -> None:
        a, b = find(a), find(b)
        if isinstance(a, _Var):
            if not (isinstance(b, _Var) and b.n == a.n):
                subst[a.n] = b
        elif isinstance(b, _Var):
            subst[b.n] = a
        elif a.name != b.name or len(a.args) != len(b.args):
            raise TypeError(f"{a.name} is not {b.name}")
        else:
            for x, y in zip(a.args, b.args):
                unify(x, y)

    def free(t, acc: set) -> set:
        t = find(t)
        if isinstance(t, _Var):
            acc.add(t.n)
        else:
            for x in t.args:
                free(x, acc)
        return acc

    def instantiate(scheme):
        quantified, body = scheme
        fresh_vars = {q: fresh() for q in quantified}

        def go(t):
            t = find(t)
            if isinstance(t, _Var):
                return fresh_vars.get(t.n, t)
            return _Con(t.name, tuple(go(x) for x in t.args))

        return go(body)

    def infer(env: dict, e: tuple):
        kind = e[0]
        if kind == "v":
            return instantiate(env[e[1]])
        if kind == "l":
            param = fresh()
            return _Con("->", (param, infer({**env, e[1]: ((), param)}, e[2])))
        if kind == "a":
            fn, arg, result = infer(env, e[1]), infer(env, e[2]), fresh()
            unify(fn, _Con("->", (arg, result)))
            return result
        bound = infer(env, e[2])
        env_free: set = set()
        for quantified, t in env.values():
            env_free |= free(t, set()) - set(quantified)
        scheme = (tuple(sorted(free(bound, set()) - env_free)), bound)
        return infer({**env, e[1]: scheme}, e[3])

    def render(t) -> str:
        t = find(t)
        if isinstance(t, _Var):
            return f"t{t.n}"
        if not t.args:
            return t.name
        return "(" + f" {t.name} ".join(render(x) for x in t.args) + ")"

    return render(infer({"one": ((), _Con("Int", ()))}, term))


def _pass_s() -> float:
    start = time.perf_counter()
    for term in _TERMS:
        json.dumps({"type": _infer_rendered(term), "ok": True})
    return time.perf_counter() - start


def kernel_s() -> float:
    """Seconds one pass of the kernel takes now: the faster of two, so
    that one pass interrupted by other work (a server's periodic probe,
    say) does not skew the timings around it."""
    return min(_pass_s(), _pass_s())


def scale(before_s: float, after_s: float) -> float:
    """The factor turning timings taken between two kernel passes into
    reference-host timings."""
    return 2 * REFERENCE_S / (before_s + after_s)
