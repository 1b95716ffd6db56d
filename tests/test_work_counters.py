"""Deterministic work counters: the amount of work inference does on
fixed inputs, pinned in ``tests/golden/work_counters.json``.

FreezeML inference is deterministic, so the number of inference steps,
unifications, binds, zonks and instantiations it performs on a fixed
program is a fixed number; unlike a wall-clock baseline, a gate on it
cannot flake.  The inputs are the sources pinned in
``tests/golden/verdicts.json`` (grouped by their key prefix: ``corpus``,
``fresh``, ``large``, ``term``) and ``tests/golden/lint_programs/*.fml``,
each checked in a default :class:`~repro.api.Session` with lint off and
on.  The counts come from wrapping the library's entry points in the
test itself; no production code is metered.

Counters (names shared with perfbench's per-layer metrics where the two
overlap):

* ``infer.infer_node_calls`` -- ``Inferencer.infer_node`` entries;
* ``solver.unify_calls``, ``solver.unify_app_calls``,
  ``solver.declare_calls``, ``solver.zonk_calls``,
  ``solver.instantiate_calls`` -- ``SolverState`` method entries;
* ``solver.binds`` -- ``SolverState._record`` entries (every solved
  variable);
* ``lexer.tokens`` -- tokens the lexer produced.

Any change fails the test, which names each counter that moved and the
direction.  A PR that does less work regenerates the golden (and says
so); one that does more must justify it.  Regenerate with::

    PYTHONPATH=src python tests/test_work_counters.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Session
from repro.core.infer import Inferencer
from repro.core.solver import SolverState
from repro.syntax import parser

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "work_counters.json"
VERDICTS = ROOT / "tests" / "golden" / "verdicts.json"
LINT_PROGRAMS = ROOT / "tests" / "golden" / "lint_programs"

#: counter name -> (owner, attribute, amount per call: None counts the
#: call, a function maps the call's result to the amount).
COUNTERS = {
    "infer.infer_node_calls": (Inferencer, "infer_node", None),
    "solver.unify_calls": (SolverState, "unify", None),
    "solver.unify_app_calls": (SolverState, "unify_app", None),
    "solver.binds": (SolverState, "_record", None),
    "solver.declare_calls": (SolverState, "declare", None),
    "solver.zonk_calls": (SolverState, "zonk", None),
    "solver.instantiate_calls": (SolverState, "instantiate", None),
    "lexer.tokens": (parser, "tokenize", len),
}


def source_groups() -> dict[str, list[str]]:
    """Group name -> sources, in a fixed order."""
    groups: dict[str, list[str]] = {}
    for key, entry in sorted(json.loads(VERDICTS.read_text()).items()):
        groups.setdefault(key.split(":", 1)[0], []).append(entry["source"])
    groups["lint_programs"] = [
        path.read_text() for path in sorted(LINT_PROGRAMS.glob("*.fml"))
    ]
    return groups


def _counting(totals: dict[str, int], name: str, fn, amount):
    def wrapper(*args, **kwargs):
        if amount is None:
            totals[name] += 1
            return fn(*args, **kwargs)
        result = fn(*args, **kwargs)
        totals[name] += amount(result)
        return result

    return wrapper


def count_work() -> dict[str, dict[str, int]]:
    """``{group or group+lint: {counter: total}}`` over every source."""
    out: dict[str, dict[str, int]] = {}
    with pytest.MonkeyPatch.context() as patch:
        totals: dict[str, int] = {}
        for name, (owner, attribute, amount) in COUNTERS.items():
            fn = getattr(owner, attribute)
            patch.setattr(owner, attribute, _counting(totals, name, fn, amount))
        for group, sources in source_groups().items():
            for lint in (False, True):
                totals.update(dict.fromkeys(COUNTERS, 0))
                session = Session()
                for source in sources:
                    session.check(source, lint=lint)
                out[group + ("+lint" if lint else "")] = dict(totals)
    return out


def render(counts: dict[str, dict[str, int]]) -> str:
    """One JSON object, one group per line (diffs stay readable)."""
    lines = [f"{json.dumps(group)}: {json.dumps(row)}" for group, row in counts.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def drift(golden: dict, counts: dict) -> list[str]:
    """One line per counter that moved: ``group counter: old -> new (up)``."""
    lines = []
    for group in sorted(golden.keys() | counts.keys()):
        old, new = golden.get(group, {}), counts.get(group, {})
        for name in sorted(old.keys() | new.keys()):
            before, after = old.get(name), new.get(name)
            if before == after:
                continue
            if before is None:
                direction = "added"
            elif after is None:
                direction = "removed"
            else:
                direction = "up" if after > before else "down"
            lines.append(f"{group} {name}: {before} -> {after} ({direction})")
    return lines


def test_work_counters_match_golden():
    moved = drift(json.loads(GOLDEN.read_text()), count_work())
    assert not moved, (
        "work counters moved from tests/golden/work_counters.json:\n  "
        + "\n  ".join(moved)
    )


def test_counts_repeat_in_one_process():
    # Warm intern tables and caches must not change the work done.
    assert count_work() == count_work()


if __name__ == "__main__":
    GOLDEN.write_text(render(count_work()))
