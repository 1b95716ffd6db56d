"""The Figure 2 prelude: type signatures used throughout the paper.

These are adapted (by the paper) from Serrano et al. [24].  They include
the impredicative classics ``ids : List (forall a. a -> a)``,
``poly : (forall a. a -> a) -> Int * Bool`` and the ST-monad pair
``runST``/``argST``.

We add the arithmetic/boolean constants the examples use informally
(``+``, literals are term formers).
"""

from __future__ import annotations

from ..core.env import TypeEnv
from ..syntax.parser import parse_type

_SIGNATURES: dict[str, str] = {
    # lists
    "head": "forall a. List a -> a",
    "tail": "forall a. List a -> List a",
    "[]": "forall a. List a",
    "::": "forall a. a -> List a -> List a",
    "single": "forall a. a -> List a",
    "++": "forall a. List a -> List a -> List a",
    "length": "forall a. List a -> Int",
    "map": "forall a b. (a -> b) -> List a -> List b",
    # polymorphism playground
    "id": "forall a. a -> a",
    "ids": "List (forall a. a -> a)",
    "inc": "Int -> Int",
    "choose": "forall a. a -> a -> a",
    "poly": "(forall a. a -> a) -> Int * Bool",
    "auto": "(forall a. a -> a) -> (forall a. a -> a)",
    "auto'": "forall b. (forall a. a -> a) -> b -> b",
    "app": "forall a b. (a -> b) -> a -> b",
    "revapp": "forall a b. a -> (a -> b) -> b",
    "pair": "forall a b. a -> b -> a * b",
    "pair'": "forall b a. a -> b -> a * b",
    # the ST simulation
    "runST": "forall a. (forall s. ST s a) -> a",
    "argST": "forall s. ST s Int",
    # arithmetic / misc (used informally by examples in the paper text)
    "+": "Int -> Int -> Int",
    "fst": "forall a b. a * b -> a",
    "snd": "forall a b. a * b -> b",
    "not": "Bool -> Bool",
}


def signature_sources() -> dict[str, str]:
    """The prelude as (name -> surface type string), Figure 2 verbatim."""
    return dict(_SIGNATURES)


def prelude() -> TypeEnv:
    """The Figure 2 type environment (plus arithmetic constants)."""
    env = TypeEnv()
    for name, source in _SIGNATURES.items():
        env = env.extend(name, parse_type(source))
    return env


def prelude_with(**extra: str) -> TypeEnv:
    """The prelude extended with additional ``name="type"`` bindings."""
    env = prelude()
    for name, source in extra.items():
        env = env.extend(name, parse_type(source))
    return env
