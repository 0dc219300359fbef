import json
from fractions import Fraction
from pathlib import Path

import pytest

from shufflealg.lincomb import LinComb
from shufflealg.biwords import parse_biword
from shufflealg.rigidity import UNIT_LABEL, Presentation

GOLDEN_DIR = Path(__file__).parent / "golden"


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / name) as fh:
        return json.load(fh)


def biword_combination(pairs) -> LinComb:
    """Build a biword combination from [[text, coeff], ...] golden entries."""
    return LinComb((parse_biword(text), Fraction(coeff)) for text, coeff in pairs)


@pytest.fixture
def golden():
    return load_golden


def half_coordinates_presentation() -> Presentation:
    """A weight-2 presentation whose primitive p has non-integer coordinates:
    u < u = s - 2p - q with the primitive labels p and q, so tau(s) = 2p + q is
    the first echelon row and p = 1/2 (2p + q) - 1/2 q."""
    two_sided = lambda label: {(label, UNIT_LABEL): 1, (UNIT_LABEL, label): 1}
    return Presentation(
        basis={1: ["u"], 2: ["s", "p", "q"]},
        prec={("u", "u"): LinComb({"s": 1, "p": -2, "q": -1})},
        coproduct={
            "u": LinComb(two_sided("u")),
            "s": LinComb({**two_sided("s"), ("u", "u"): 1}),
            "p": LinComb(two_sided("p")),
            "q": LinComb(two_sided("q")),
        },
    )


@pytest.fixture
def half_coordinates():
    return half_coordinates_presentation()
