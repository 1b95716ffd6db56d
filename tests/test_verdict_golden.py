"""Byte-for-byte pin of check verdicts across session configurations.

``tests/golden/verdicts.json`` holds, for the benchmark corpus (Figure 1
programs and ``examples/*.fml``), seeded slices of the generated
``sig``/``def``/``main`` programs (5-20 and 60-67 definitions, every
fifth ill-typed) and a few application-heavy terms, the
``Session.check`` verdict under each configuration below, with lint off
and on: the default session, eliminator instantiation, no value
restriction, a fuel sweep and a depth sweep that both cross from
``FML901``/``FML902`` to a finished check.  The sources live in the
golden file itself, so the pin does not move when the benchmark's
generator does.

Each line is one source; configurations that give the same verdict are
listed together.  A verdict is ``Result.to_dict()`` without the echoed
source.

Regenerate (only when a verdict change is intended)::

    PYTHONPATH=src:. python tests/test_verdict_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api import Session

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "verdicts.json"

FUELS = (30, 300, 3000, 30000)
DEPTHS = (8, 40, 200)

#: name -> Session options.
CONFIGS: dict[str, dict] = {
    "default": {},
    "eliminator": {"strategy": "eliminator"},
    "no-vr": {"value_restriction": False},
    **{f"fuel={n}": {"fuel": n} for n in FUELS},
    **{f"depth={n}": {"max_depth": n} for n in DEPTHS},
}

#: Applications of known arrows, of flexible codomains and of
#: non-functions, where error messages name machine variables.
EXTRA_TERMS = (
    "inc true",
    "1 2",
    "(fun f -> f 1) 2",
    "(fun f -> f 1 true) inc",
    "(fun f -> (f 1, f true)) id",
    "fun f -> f (f 1)",
    "fun f x -> f x x",
    "choose id inc",
    "choose ~id inc",
    "let g = fun f -> f 1 in g inc true",
    "auto ~id 3",
    "head ids 3",
    "poly (fun x -> x) 1",
    "(fun (f : forall a. a -> a) -> f f) id",
    "runST ~argST 1",
)


def collect_sources() -> dict[str, str]:
    """The pinned sources (only regeneration reads the benchmark's
    generator; the test reads them back from the golden file)."""
    from perfbench.programs import corpus, fresh_set, large_set

    out: dict[str, str] = {}
    for program in corpus(ROOT):
        out[f"corpus:{program.name}"] = program.source
    for seed in (1, 2):
        for program in fresh_set(seed, 6):
            out[f"fresh:{seed}:{program.name}"] = program.source
    for program in large_set(1, 40)[:3]:
        out[f"large:1:{program.name}"] = program.source
    for i, source in enumerate(EXTRA_TERMS):
        out[f"term:{i}"] = source
    return out


def verdicts(source: str, sessions: dict[str, Session]) -> list[list]:
    """``[[config, ...], verdict]`` pairs, in configuration order."""
    grouped: dict[str, list[str]] = {}
    for lint in (False, True):
        for name, session in sessions.items():
            payload = session.check(source, lint=lint).to_dict()
            del payload["source"]
            text = json.dumps(payload, sort_keys=False)
            grouped.setdefault(text, []).append(name + ("+lint" if lint else ""))
    return [[names, json.loads(text)] for text, names in grouped.items()]


def render(sources: dict[str, str]) -> str:
    """One JSON object, one source per line (diffs stay readable)."""
    sessions = {name: Session(**options) for name, options in CONFIGS.items()}
    lines = [
        json.dumps(key)
        + ": "
        + json.dumps({"source": source, "verdicts": verdicts(source, sessions)})
        for key, source in sorted(sources.items())
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_verdicts_match_golden():
    text = GOLDEN.read_text()
    sources = {key: entry["source"] for key, entry in json.loads(text).items()}
    assert render(sources) == text, (
        "verdicts drifted from tests/golden/verdicts.json"
    )


if __name__ == "__main__":
    GOLDEN.write_text(render(collect_sources()))
