"""Benchmark inputs: the corpus, generated programs, and their expected verdicts.

Every expected answer here comes from outside the checker under test:
the Figure 1 corpus carries the paper's own types, the example files
carry hand-written expectations, and generated programs are typed by
construction (each definition is built from a template whose type is
known up front; an ill-typed program gets one definition that is
ill-typed whatever its context).  The benchmark's self-test confirms a
seeded sample against the paper-literal oracle ``repro.core.reference``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

#: ``large`` programs nest their definitions as one ``let`` chain, which
#: the recursive front end and term walks descend one level per
#: definition.  At the interpreter's default recursion limit (1000),
#: checking these programs first degrades to FML912 between 300 and 350
#: definitions (at 260 with lint), so definitions are capped at 200 (and
#: bodies at two levels of application) to keep a margin.
MAX_DEFINITIONS = 200
LARGE_DEFINITIONS = (60, MAX_DEFINITIONS)
FRESH_DEFINITIONS = (5, 20)


@dataclass(frozen=True)
class Program:
    """One benchmark input: its source text and expected verdict.

    ``expected`` is a surface type (compared up to consistent renaming
    by :mod:`verdicts`) or ``None`` for a program that must be rejected.
    """

    name: str
    source: str
    expected: str | None


# -- the corpus -------------------------------------------------------------

#: Hand-written expectations for ``examples/*.fml``: the paper's types for
#: the programs the files transcribe (poly ~id is A10, runST ~argST is D3).
EXAMPLE_EXPECTATIONS = {
    "ids_program.fml": "Int",
    "lint_demo.fml": "Int",
    "poly_id.fml": "Int * Bool",
    "st.fml": "Int",
}


def corpus(root: Path) -> list[Program]:
    """The self-contained Figure 1 / Section 2 programs plus the example
    files.  Entries needing extra environment bindings are left out (a
    request carries source text only), as is F10, which needs the value
    restriction off.  Figure 1's *definition* rows (F1-F4) give the type
    of a top-level binding, so they are checked as ``let x = M in ~x``.
    """
    from repro.corpus.examples import ALL_EXAMPLES

    programs = []
    for example in ALL_EXAMPLES:
        if example.extra_env or example.flag == "no-vr":
            continue
        source = example.source
        if example.mode == "definition":
            source = f"let x = {source} in ~x"
        programs.append(Program(example.id, source, example.expected))
    for name, expected in sorted(EXAMPLE_EXPECTATIONS.items()):
        text = (root / "examples" / name).read_text(encoding="utf-8")
        programs.append(Program(name, text, expected))
    return programs


# -- generated programs -----------------------------------------------------

# The sorts of value a definition can have -- n: Int, b: Bool, l: List
# Int, f: Int -> Int, p: forall a. a -> a, ps: List (forall a. a -> a),
# q: Int * Bool, g: forall a. a -> List a -> a -- weighted so that the
# first-order sorts dominate, as in ordinary code.
_SORT_WEIGHTS = {"n": 5, "b": 2, "l": 3, "f": 3, "p": 2, "ps": 2, "q": 2, "g": 1}

# Prelude (or literal) stand-ins used before a sort has a definition.
_FALLBACK = {
    "n": ["1", "42", "length ids"],
    "b": ["true", "false"],
    "l": ["[1, 2]", "single 3"],
    "f": ["inc"],
    "p": ["id"],
    "ps": ["ids"],
    "q": ["poly ~id"],
    "g": ["fun x ys -> head (x :: ys)"],
}

# Bodies per sort.  Placeholders name the sort of a referenced value:
# {n} an Int, {p} a polymorphic identity used as a variable (so it is
# instantiated) and {~p} the same frozen.  A ``sig`` marks definitions
# written in the annotated ``sig``/``def`` form, ``params`` their
# parameter list.
_TEMPLATES: dict[str, list[tuple[str | None, str, str]]] = {
    "n": [
        (None, "", "inc ({n} + length {l})"),
        (None, "", "fst (pair {n} {b})"),
        (None, "", "head (map {f} {l})"),
        (None, "", "length ({ps} ++ ids)"),
        (None, "", "{f} {n}"),
        (None, "", "fst (poly {~p})"),
        (None, "", "(head {ps})@ {n}"),
        (None, "", "runST ~argST + {n}"),
        (None, "", "choose {n} ({f} {n})"),
        (None, "", "let y = {n} in {f} y"),
        (None, "", "fst {q} + {p} {n}"),
        (None, "", "{g} {n} {l}"),
    ],
    "b": [
        (None, "", "not {b}"),
        (None, "", "snd (poly {~p})"),
        (None, "", "snd {q}"),
        (None, "", "choose {b} (not {b})"),
        (None, "", "{g} {b} (single {b})"),
    ],
    "l": [
        (None, "", "{n} :: {l}"),
        (None, "", "map {f} {l}"),
        (None, "", "single {n} ++ {l}"),
        (None, "", "tail ({n} :: {l})"),
        (None, "", "[{n}, {f} {n}]"),
    ],
    "f": [
        ("Int -> Int", "x", "{f} (x + {n})"),
        (None, "", "fun x -> inc ({f} x)"),
        ("Int -> Int", "x", "choose {f} inc x"),
        ("Int -> Int", "x", "{p} x + {n}"),
    ],
    "p": [
        ("forall a. a -> a", "x", "{p} x"),
        ("forall a. a -> a", "x", "(head {ps})@ x"),
        (None, "", "fun x -> x"),
        (None, "", "auto {~p}"),
        (None, "", "$(fun x -> {p} x)"),
    ],
    "ps": [
        (None, "", "{~p} :: {ps}"),
        (None, "", "single {~p}"),
        (None, "", "tail {ps} ++ ids"),
        (None, "", "choose {ps} ids"),
        (None, "", "$(fun x -> x) :: {ps}"),
    ],
    "q": [
        (None, "", "poly {~p}"),
        (None, "", "app poly {~p}"),
        (None, "", "revapp {~p} poly"),
        (None, "", "pair {n} {b}"),
        (None, "", "pair (fst {q}) (snd {q})"),
    ],
    "g": [
        ("forall a. a -> List a -> a", "x ys", "choose x (head ys)"),
        ("forall a. a -> List a -> a", "x ys", "head (x :: ys)"),
    ],
}

# Definitions that are ill-typed in any context: each applies a value
# of a known, fixed type where a different one is required.
_ILL_TYPED = [
    "inc {b}",  # Bool where Int is required
    "poly {p}",  # an instantiated identity is not polymorphic
    "not {n}",  # Int where Bool is required
    "{n} :: {ps}",  # Int is not forall a. a -> a
    "head {n}",  # Int is not a list
    "{f} {b}",  # Bool where Int is required
]

_MAIN = "{n} + fst {q} + length {l}"


class _Scope:
    """The names defined so far, by sort, and the filler for placeholders."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.names: dict[str, list[str]] = {sort: [] for sort in _SORT_WEIGHTS}

    def ref(self, sort: str) -> str:
        # Prefer recent definitions, as real code mostly does.
        defined = self.names[sort][-8:]
        if defined and self.rng.random() < 0.85:
            return self.rng.choice(defined)
        return self.rng.choice(_FALLBACK[sort])

    def fill(self, template: str) -> str:
        out = template
        while "{" in out:
            start = out.index("{")
            end = out.index("}", start)
            key = out[start + 1 : end]
            if key.startswith("~"):
                name = self.ref(key[1:])
                text = f"~{name}"
            else:
                text = self.ref(key)
            if " " in text and not text.startswith("["):
                text = f"({text})"
            out = out[:start] + text + out[end + 1 :]
        return out


class _Deck:
    """Draws ``cards`` in shuffled rounds: the seed picks the order, but
    over a program every card comes up in proportion."""

    def __init__(self, rng: random.Random, cards: list):
        self.rng = rng
        self.cards = cards
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = list(self.cards)
            self.rng.shuffle(self.left)
        return self.left.pop()


def generate(
    rng: random.Random, definitions: int, *, ill_typed: bool, name: str = "gen"
) -> Program:
    """One ``sig``/``def``/``main`` program with ``definitions`` definitions.

    Well-typed programs have type ``Int``.  An ill-typed program carries
    exactly one definition from :data:`_ILL_TYPED`, three quarters of
    the way down the chain, so rejecting it costs a fixed share of the
    work whatever the seed.  Sorts and templates are dealt from decks,
    so programs of one size cost about the same whatever the seed (the
    slowest programs set ``large``'s p99).
    """
    if not 1 <= definitions <= MAX_DEFINITIONS:
        raise ValueError(f"definitions must be in 1..{MAX_DEFINITIONS}")
    scope = _Scope(rng)
    sorts = _Deck(rng, [sort for sort, weight in _SORT_WEIGHTS.items() for _ in range(weight)])
    templates = {sort: _Deck(rng, choices) for sort, choices in _TEMPLATES.items()}
    bad_at = definitions * 3 // 4 if ill_typed else -1
    lines = [f"# {name}"]
    for index in range(definitions):
        if index == bad_at:
            lines.append(f"def bad{index} = {scope.fill(rng.choice(_ILL_TYPED))}")
            continue
        sort = sorts.draw()
        sig, params, body = templates[sort].draw()
        ident = f"{sort}{index}"
        text = scope.fill(body)
        if sig is not None:
            lines.append(f"sig {ident} : {sig}")
        lhs = f"{ident} {params}".strip()
        lines.append(f"def {lhs} = {text}")
        scope.names[sort].append(ident)
    lines.append(f"main = {scope.fill(_MAIN)}")
    return Program(name, "\n".join(lines) + "\n", None if ill_typed else "Int")


def _spread(seed: str, bounds: tuple[int, int], count: int, kind: str) -> list[Program]:
    """``count`` programs with sizes spread evenly over ``bounds``, every
    fifth ill-typed: the seed picks contents, never the mix of sizes
    and verdicts, so every seed puts the same load on the checker."""
    rng = random.Random(seed)
    low, high = bounds
    return [
        generate(
            rng,
            low + (high - low) * i // max(1, count - 1),
            ill_typed=i % 5 == 2,
            name=f"{kind}{i}",
        )
        for i in range(count)
    ]


def large_set(seed: int, count: int) -> list[Program]:
    """The ``large`` inputs: 60-200 definitions each."""
    return _spread(f"large:{seed}", LARGE_DEFINITIONS, count, "large")


def fresh_set(seed: int, count: int) -> list[Program]:
    """The generated part of ``serve-fresh``: 5-20 definitions each."""
    return _spread(f"fresh:{seed}", FRESH_DEFINITIONS, count, "fresh")


def make_unique(program: Program, serial: int) -> Program:
    """A byte-distinct copy of ``program`` with the same verdict: a
    leading comment line, which the lexer and the program reader skip."""
    return Program(
        f"{program.name}#{serial}",
        f"# request {serial}\n{program.source}",
        program.expected,
    )
