"""Fixed pure-Python work that measures how fast the machine runs right now.

The benchmark runs this script in a fresh interpreter between the jobs it
times and expresses each job's time as a multiple of the probe's nearby
times (see ``run.py``).  It never imports ``shufflealg``, so no change to
the program moves it; it does the same kind of work the program does:
interpreter start-up and imports, then sparse rational combinations keyed
by tuples, built in dicts of ``Fraction`` values.

It prints one checksum; ``run.py`` refuses to measure if it is not
``CHECKSUM``.
"""

import argparse  # noqa: F401  (start-up work like the CLI's)
import json
from fractions import Fraction

ROUNDS = 12
CHECKSUM = "4294642467"


def combine(size: int, salt: int) -> dict:
    out: dict = {}
    for i in range(size):
        key = (i % 23, (i * salt) % 11, i % 5)
        coeff = Fraction((i * 7 + salt) % 13 - 6, i % 4 + 1)
        if coeff:
            c = out.get(key, 0) + coeff
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(sorted(ka + kb))[:3]
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def main() -> None:
    total = Fraction(0)
    for r in range(ROUNDS):
        a = combine(160, r + 1)
        b = combine(24, r + 2)
        for c in product(a, b).values():
            total += c
    digest = (total.numerator * 31 + total.denominator) % 2**32
    print(json.dumps(str(digest)))


if __name__ == "__main__":
    main()
