"""Seeded profile corpora for the benchmark.

A corpus is 24 even profiles in the builtin term class of ``radsob``:
coefficients in eighths in [-2, 2], powers in {0, 2, 4, 6}, decay rates in
{0, 1/2, 1, 2}, and every term of an even-numbered generated entry decays.
The four canonical profiles of the builtin corpus come first.  The twenty
generated entries have a fixed shape: entry ``i`` has ``1 + i % 3`` terms
with distinct (power, decay) pairs, every odd-numbered entry has a term
without decay, and the pairs themselves are the same for every seed (they
are drawn once from ``SHAPE_SEED``).  The seed draws only the coefficients,
so every seed gives the program the same term lists to multiply, the same
half-line profiles and nearly the same quadrature work; only the values
change.

Coefficients are written as exact ``"p/q"`` strings, which
``radsob.profile.load_corpus`` reads through ``Fraction(str)`` without
rounding.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# The benchmark seed that stands for "the program's own builtin corpus".
# It equals radsob's own default seed, so the default run is the default
# configuration of every command.
DEFAULT_SEED = 20240001

CANONICAL = [
    ("one", [(Fraction(1), 0, Fraction(0))]),
    ("rho2", [(Fraction(1), 2, Fraction(0))]),
    ("gauss", [(Fraction(1), 0, Fraction(1))]),
    ("rho4_gauss2", [(Fraction(3), 4, Fraction(2))]),
]
POWERS = (0, 2, 4, 6)
DECAYING = (Fraction(1, 2), Fraction(1), Fraction(2))
ALL_DECAYS = (Fraction(0),) + DECAYING
GENERATED = 20
# Seed of the (power, decay) pairs of the generated entries, fixed so that
# the amount of term-list work does not depend on the benchmark seed.
SHAPE_SEED = 0
NUMERATORS = [n for n in range(-16, 17) if n]


def shape() -> list[list[tuple[int, Fraction]]]:
    """The sorted (power, decay) pairs of each generated entry."""
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for idx in range(GENERATED):
        if idx % 2 == 0:
            keys = rng.sample([(a, b) for a in POWERS for b in DECAYING], 1 + idx % 3)
        else:
            # one term without decay, so the entry has a half-line norm
            first = (rng.choice(POWERS), Fraction(0))
            rest = [(a, b) for a in POWERS for b in ALL_DECAYS if (a, b) != first]
            keys = [first] + rng.sample(rest, idx % 3)
        shapes.append(sorted(keys))
    return shapes


def generate(seed: int) -> list[dict]:
    """The corpus of ``seed`` as a list of {"label", "terms"} documents."""
    rng = random.Random(seed)
    docs = [
        {"label": label, "terms": [[str(c), a, str(b)] for c, a, b in terms]}
        for label, terms in CANONICAL
    ]
    for idx, keys in enumerate(shape()):
        terms = [[str(Fraction(rng.choice(NUMERATORS), 8)), a, str(b)] for a, b in keys]
        docs.append({"label": f"gen{idx:02d}", "terms": terms})
    return docs


def write(seed: int, path: Path) -> None:
    path.write_text(json.dumps(generate(seed), indent=1, sort_keys=True) + "\n")
