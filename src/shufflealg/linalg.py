"""Exact rank and pivot rows over the rationals.

Rows are sparse linear combinations; internally each row is cleared of
denominators and kept as a primitive integer vector, and elimination uses
fraction-free updates (g = gcd(c, pivot_lead); row = (lead/g) row - (c/g)
pivot) with periodic content stripping, so coefficients stay small without
leaving exact arithmetic.  Pivoting is first-nonzero in the canonical key
order, which makes ranks and stored pivot rows deterministic.  Each step
leads with the smallest key left in the row; a pivot row holds no key below
its lead, so the leads rise step by step.
"""

from __future__ import annotations

from math import gcd, lcm

from .lincomb import LinComb, canonical_key


def _to_int_row(lc: LinComb, sort_keys: dict) -> dict:
    denom_lcm = lcm(*[coeff.denominator for coeff in lc.terms().values()])
    row = {}
    for key, coeff in lc.terms().items():
        sk = sort_keys.get(key)
        if sk is None:
            sk = sort_keys[key] = canonical_key(key)
        row[sk] = int(coeff * denom_lcm)
    return row


def _strip_content(row: dict) -> None:
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


class RowEchelon:
    """Incrementally built row echelon form with exact integer rows."""

    def __init__(self):
        self._pivots: dict = {}  # lead sort key -> integer row (dict)
        self._sort_keys: dict = {}  # key -> canonical_key(key), in the order first added

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduce(self, row: dict) -> dict:
        """Eliminate against stored pivots, each step at the smallest key left.

        Stops at the first lead without a pivot: for insertion that lead is
        the new pivot position, for membership any unmatched lead already
        means a nonzero remainder.
        """
        steps = 0
        while row:
            lead = min(row)
            pivot = self._pivots.get(lead)
            if pivot is None:
                break
            c, plead = row[lead], pivot[lead]
            g = gcd(c, plead)
            scale_row, scale_piv = plead // g, c // g
            if scale_row != 1:
                for k in row:
                    row[k] *= scale_row
            for k, v in pivot.items():
                nv = row.get(k, 0) - scale_piv * v
                if nv:
                    row[k] = nv
                else:
                    del row[k]
            steps += 1
            if steps % 16 == 0:
                _strip_content(row)
        return row

    def add(self, lc: LinComb) -> bool:
        """Insert a vector; True when it enlarged the span."""
        if lc.is_zero():
            return False
        row = self._reduce(_to_int_row(lc, self._sort_keys))
        if not row:
            return False
        _strip_content(row)
        lead = min(row)
        if row[lead] < 0:
            for k in row:
                row[k] = -row[k]
        self._pivots[lead] = row
        return True

    def pivot_rows(self) -> list[LinComb]:
        """Primitive integer pivot rows, ordered by leading key."""
        keyof = {sk: key for key, sk in reversed(self._sort_keys.items())}  # first key wins
        out = []
        for lead in sorted(self._pivots):
            row = self._pivots[lead]
            out.append(LinComb._raw({keyof[k]: v for k, v in row.items()}))
        return out


def rank_of(vectors) -> int:
    ech = RowEchelon()
    for v in vectors:
        ech.add(v)
    return ech.rank

