"""Exact rank, span membership, and kernel dimensions over the rationals.

Rows are sparse linear combinations; internally each row is cleared of
denominators and kept as a primitive integer vector, and elimination uses
fraction-free updates (g = gcd(c, pivot_lead); row = (lead/g) row - (c/g)
pivot) with periodic content stripping, so coefficients stay small without
leaving exact arithmetic.  Pivoting is first-nonzero in the canonical key
order, which makes ranks and stored pivot rows deterministic.

A dense mod-p elimination (numpy) is provided separately: the mod-p rank is
a certified lower bound for the rational rank, which turns an explicit list
of exactly-verified kernel vectors into an exact kernel dimension without
running the big rational elimination.
"""

from __future__ import annotations

import heapq
from math import gcd

from .lincomb import LinComb, canonical_key


def _to_int_row(lc: LinComb, keyof: dict) -> dict:
    denom_lcm = 1
    for coeff in lc.terms().values():
        d = coeff.denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    row = {}
    for key, coeff in lc.terms().items():
        sk = canonical_key(key)
        keyof.setdefault(sk, key)
        row[sk] = int(coeff * denom_lcm)
    return row


def _strip_content(row: dict) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in row:
            row[k] //= g


class RowEchelon:
    """Incrementally built row echelon form with exact integer rows."""

    def __init__(self):
        self._pivots: dict = {}  # lead sort key -> integer row (dict)
        self._keyof: dict = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduce(self, row: dict) -> dict:
        """Eliminate against stored pivots, sweeping keys in ascending order.

        Stops at the first lead without a pivot: for insertion that lead is
        the new pivot position, for membership any unmatched lead already
        means a nonzero remainder.
        """
        heap = list(row)
        heapq.heapify(heap)
        steps = 0
        while heap:
            lead = heapq.heappop(heap)
            while heap and heap[0] == lead:
                heapq.heappop(heap)
            c = row.get(lead, 0)
            if not c:
                row.pop(lead, None)
                continue
            pivot = self._pivots.get(lead)
            if pivot is None:
                return row
            plead = pivot[lead]
            g = gcd(c, plead)
            scale_row = plead // g
            scale_piv = c // g
            if scale_row != 1:
                for k in row:
                    row[k] *= scale_row
            for k, v in pivot.items():
                nv = row.get(k, 0) - scale_piv * v
                if nv:
                    if k not in row:
                        heapq.heappush(heap, k)
                    row[k] = nv
                else:
                    row.pop(k, None)
            steps += 1
            if steps % 16 == 0:
                _strip_content(row)
        return {k: v for k, v in row.items() if v}

    def add(self, lc: LinComb) -> bool:
        """Insert a vector; True when it enlarged the span."""
        if lc.is_zero():
            return False
        row = self._reduce(_to_int_row(lc, self._keyof))
        if not row:
            return False
        _strip_content(row)
        lead = min(row)
        if row[lead] < 0:
            for k in row:
                row[k] = -row[k]
        self._pivots[lead] = row
        return True

    def contains(self, lc: LinComb) -> bool:
        """Span membership by exact reduction."""
        if lc.is_zero():
            return True
        row = _to_int_row(lc, dict(self._keyof))
        return not self._reduce(row)

    def pivot_rows(self) -> list[LinComb]:
        """Primitive integer pivot rows, ordered by leading key."""
        out = []
        for lead in sorted(self._pivots):
            row = self._pivots[lead]
            out.append(LinComb._raw({self._keyof[k]: v for k, v in row.items()}))
        return out


def rank_of(vectors) -> int:
    ech = RowEchelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


_CERT_PRIME = 2_147_483_647  # largest signed-32-bit prime; products fit in int64


def modp_rank(vectors, p: int = _CERT_PRIME) -> int:
    """Rank of the vectors over GF(p); a lower bound for the rational rank."""
    import numpy as np

    keyof: dict = {}
    rows = [_to_int_row(v, keyof) for v in vectors if not v.is_zero()]
    if not rows:
        return 0
    cols = {sk: i for i, sk in enumerate(sorted(keyof))}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for r, row in enumerate(rows):
        for sk, v in row.items():
            mat[r, cols[sk]] = v % p
    rank = 0
    n_rows, n_cols = mat.shape
    for col in range(n_cols):
        piv = None
        for r in range(rank, n_rows):
            if mat[r, col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            mat[[rank, piv]] = mat[[piv, rank]]
        inv = pow(int(mat[rank, col]), p - 2, p)
        mat[rank] = (mat[rank] * inv) % p
        below = mat[rank + 1 :, col]
        nz = below.nonzero()[0]
        if nz.size:
            idx = nz + rank + 1
            mat[idx] = (mat[idx] - np.outer(mat[idx, col], mat[rank])) % p
        rank += 1
        if rank == n_rows:
            break
    return rank
