"""Lazily evaluated exact-rational formal power series.

A :class:`PowerSeries` wraps a coefficient oracle ``n -> coefficient``
together with a memo, so recursive constructions (products, square roots,
multiplicative inverses) cost polynomial instead of exponential work.
Asking for coefficient n fills the memo for every index up to n, lowest
first, so deep indices need no deep recursion.  Coefficients are exact: an
``int`` while integral, a ``Fraction`` only after a division that leaves a
remainder.

The dimension series substitute x/(1-x) into a series.  That substitution
is the binomial transform (:meth:`PowerSeries.geometric_substitution`), n
products for coefficient n, so no power of x/(1-x) is ever expanded.
Square roots and inverses require constant term one, checked eagerly so the
failure happens at construction, not at some later coefficient query.

Values are immutable and safe to share; the memo fill is idempotent, so
concurrent readers can at worst recompute a coefficient to the same value.
The series x is ``from_coeffs([0, 1])``, and x/(1-x) is
``PowerSeries(lambda n: 1 if n else 0)``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import comb, factorial

# ``Fraction`` in the annotations is fractions.Fraction, which lincomb loads
# only at the first non-integral coefficient
from .lincomb import exact, exact_div


class PowerSeries:
    """Formal power series given by a memoized coefficient oracle."""

    __slots__ = ("_fn", "_memo")

    def __init__(self, fn: Callable[[int], int | Fraction]):
        self._fn = fn
        self._memo: dict[int, int | Fraction] = {}

    def __getitem__(self, n: int) -> int | Fraction:
        if n < 0:
            raise IndexError("coefficient index must be non-negative")
        memo = self._memo
        # Fill bottom-up from the lowest missing index: a recursive oracle
        # (sqrt, inverse) then finds its lower coefficients memoized, so the
        # call depth stays bounded instead of growing with n.
        for i in range(len(memo), n + 1):
            memo[i] = exact(self._fn(i))
        return memo[n]

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "PowerSeries":
        """Polynomial: listed coefficients, zero beyond."""
        frozen = [exact(c) for c in coeffs]
        return cls(lambda n: frozen[n] if n < len(frozen) else 0)

    @classmethod
    def one(cls) -> "PowerSeries":
        return cls.from_coeffs([1])

    @classmethod
    def factorials(cls) -> "PowerSeries":
        """sum_k k! x^k"""
        return cls(factorial)

    # -- ring operations ---------------------------------------------------

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return PowerSeries(lambda n: self[n] - other[n])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        return PowerSeries(lambda n: sum(self[i] * other[n - i] for i in range(n + 1)))

    def geometric_substitution(self) -> "PowerSeries":
        """f(x/(1-x)), the binomial transform: f_0 at n = 0 and
        sum_{k=1..n} f_k C(n-1, k-1) at n >= 1."""
        return PowerSeries(
            lambda n: sum(self[k] * comb(n - 1, k - 1) for k in range(1, n + 1)) if n else self[0]
        )

    def sqrt(self) -> "PowerSeries":
        """The square root with constant term 1; requires f[0] == 1."""
        if self[0] != 1:
            raise ValueError("square root needs constant term 1")
        root = PowerSeries(lambda n: _sqrt_coeff(self, root, n))
        return root

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; requires f[0] == 1."""
        if self[0] != 1:
            raise ValueError("multiplicative inverse needs constant term 1")
        inv = PowerSeries(lambda n: _inverse_coeff(self, inv, n))
        return inv


def _sqrt_coeff(f: PowerSeries, g: PowerSeries, n: int) -> int | Fraction:
    if n == 0:
        return 1
    # g_n = (f_n - sum_{i=1}^{n-1} g_i g_{n-i}) / 2
    acc = f[n]
    for i in range(1, n):
        acc -= g[i] * g[n - i]
    return exact_div(acc, 2)

def _inverse_coeff(f: PowerSeries, g: PowerSeries, n: int) -> int | Fraction:
    if n == 0:
        return 1
    acc = 0
    for i in range(1, n + 1):
        acc -= f[i] * g[n - i]
    return acc


def catalan_series() -> PowerSeries:
    """The Catalan numbers C(2n, n) / (n + 1): 1, 1, 2, 5, 14, ..."""
    return PowerSeries(lambda n: comb(2 * n, n) // (n + 1))


def biword_count_series() -> PowerSeries:
    """(sum_k k! x^k) o (x/(1-x)); coefficient n counts biwords of weight n."""
    return PowerSeries.factorials().geometric_substitution()


def descent_dim_series_closed() -> PowerSeries:
    """(1 - x - sqrt((1-x)(1-5x))) / (2x)."""
    root = PowerSeries.from_coeffs([1, -6, 5]).sqrt()
    numer = PowerSeries.from_coeffs([1, -1]) - root
    return PowerSeries(lambda n: exact_div(numer[n + 1], 2))


def descent_dim_series_catalan() -> PowerSeries:
    """Catalan series composed with x/(1-x); same expansion as the closed form."""
    return catalan_series().geometric_substitution()


def primitive_dim_series() -> PowerSeries:
    """(R - 1) / R^2 for R the biword counting series."""
    r = biword_count_series()
    return (r - PowerSeries.one()) * (r * r).inverse()
