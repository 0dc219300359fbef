"""Lazily evaluated exact-rational formal power series.

A :class:`PowerSeries` wraps a coefficient oracle ``n -> Fraction`` together
with a memo, so recursive constructions (products, composition, square
roots, multiplicative inverses) cost polynomial instead of exponential work.
Asking for coefficient n fills the memo for every index up to n, lowest
first, so deep indices need no deep recursion.
Coefficients are only ever computed up to a caller-supplied index; nothing
closed-form is attempted.

Composition ``f(g)`` requires ``g`` to have zero constant term; square roots
and inverses require constant term one.  These are checked eagerly so the
failure happens at construction, not at some later coefficient query.

Values are immutable and safe to share; the memo fill is idempotent, so
concurrent readers can at worst recompute a coefficient to the same value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence


class PowerSeries:
    """Formal power series given by a memoized coefficient oracle."""

    __slots__ = ("_fn", "_memo")

    def __init__(self, fn: Callable[[int], Fraction]):
        self._fn = fn
        self._memo: dict[int, Fraction] = {}

    def __getitem__(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError("coefficient index must be non-negative")
        memo = self._memo
        # Fill bottom-up from the lowest missing index: a recursive oracle
        # (sqrt, inverse) then finds its lower coefficients memoized, so the
        # call depth stays bounded instead of growing with n.
        for i in range(len(memo), n + 1):
            memo[i] = Fraction(self._fn(i))
        return memo[n]

    def coefficients(self, count: int) -> list[Fraction]:
        """The first ``count`` coefficients, indices ``0 .. count-1``."""
        return [self[n] for n in range(count)]

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Sequence) -> "PowerSeries":
        """Polynomial: listed coefficients, zero beyond."""
        frozen = [Fraction(c) for c in coeffs]
        return cls(lambda n: frozen[n] if n < len(frozen) else Fraction(0))

    @classmethod
    def zero(cls) -> "PowerSeries":
        return cls(lambda n: Fraction(0))

    @classmethod
    def one(cls) -> "PowerSeries":
        return cls.from_coeffs([1])

    @classmethod
    def x(cls) -> "PowerSeries":
        return cls.from_coeffs([0, 1])

    @classmethod
    def geometric(cls) -> "PowerSeries":
        """x/(1-x) = x + x^2 + x^3 + ..."""
        return cls(lambda n: Fraction(1 if n >= 1 else 0))

    @classmethod
    def factorials(cls) -> "PowerSeries":
        """sum_k k! x^k"""
        import math

        return cls(lambda n: Fraction(math.factorial(n)))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return PowerSeries(lambda n: self[n] + other[n])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return PowerSeries(lambda n: self[n] - other[n])

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(lambda n: -self[n])

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            return PowerSeries(
                lambda n: sum((self[i] * other[n - i] for i in range(n + 1)), Fraction(0))
            )
        scalar = Fraction(other)
        return PowerSeries(lambda n: self[n] * scalar)

    __rmul__ = __mul__

    def shift_down(self) -> "PowerSeries":
        """Divide by x; the constant term must vanish."""
        if self[0]:
            raise ValueError("cannot divide by x: nonzero constant term")
        return PowerSeries(lambda n: self[n + 1])

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """f(g) for g with zero constant term."""
        if inner[0]:
            raise ValueError("composition needs zero constant term in the inner series")
        powers = [PowerSeries.one()]

        def coeff(n: int) -> Fraction:
            while len(powers) <= n:
                powers.append(powers[-1] * inner)
            # inner^k has valuation >= k, so only k <= n contributes
            return sum((self[k] * powers[k][n] for k in range(n + 1)), Fraction(0))

        return PowerSeries(coeff)

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


def _sqrt_coeff(f: PowerSeries, g: PowerSeries, n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    # g_n = (f_n - sum_{i=1}^{n-1} g_i g_{n-i}) / 2
    acc = f[n]
    for i in range(1, n):
        acc -= g[i] * g[n - i]
    return acc / 2

def _inverse_coeff(f: PowerSeries, g: PowerSeries, n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for i in range(1, n + 1):
        acc -= f[i] * g[n - i]
    return acc


def catalan_series() -> PowerSeries:
    """(1 - sqrt(1-4x)) / (2x): 1, 1, 2, 5, 14, ..."""
    root = PowerSeries.from_coeffs([1, -4]).sqrt()
    numer = PowerSeries.one() - root
    return PowerSeries(lambda n: numer[n + 1] / 2)


def biword_count_series() -> PowerSeries:
    """(sum_k k! x^k) o (x/(1-x)); coefficient n counts biwords of weight n."""
    return PowerSeries.factorials().compose(PowerSeries.geometric())


def descent_dim_series_closed() -> PowerSeries:
    """(1 - x - sqrt((1-x)(1-5x))) / (2x)."""
    root = PowerSeries.from_coeffs([1, -6, 5]).sqrt()
    numer = PowerSeries.from_coeffs([1, -1]) - root
    return PowerSeries(lambda n: numer[n + 1] / 2)


def descent_dim_series_catalan() -> PowerSeries:
    """Catalan series composed with x/(1-x); same expansion as the closed form."""
    return catalan_series().compose(PowerSeries.geometric())


def primitive_dim_series() -> PowerSeries:
    """(R - 1) / R^2 for R the biword counting series."""
    r = biword_count_series()
    return (r - PowerSeries.one()) * (r * r).inverse()
