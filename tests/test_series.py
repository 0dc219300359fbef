from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import compose
from shufflealg.series import (
    PowerSeries,
    biword_count_series,
    catalan_series,
    descent_dim_series_catalan,
    descent_dim_series_closed,
    primitive_dim_series,
)


def ints(series, lo, hi):
    return [series[n] for n in range(lo, hi + 1)]


def geometric():
    """x/(1-x) = x + x^2 + x^3 + ..."""
    return PowerSeries(lambda n: 1 if n else 0)


def test_compose_factorials_with_geometric():
    r = compose(PowerSeries.factorials(), geometric())
    assert ints(r, 1, 6) == [1, 3, 11, 49, 261, 1631]


def test_compose_identity_left_slot():
    g = PowerSeries.from_coeffs([0, 2, -1, Fraction(1, 3)])
    assert ints(compose(PowerSeries.from_coeffs([0, 1]), g), 0, 7) == ints(g, 0, 7)


def test_compose_catalan_with_geometric():
    s = compose(catalan_series(), geometric())
    assert ints(s, 1, 6) == [1, 3, 10, 36, 137, 543]


def test_compose_rejects_nonzero_constant_term():
    with pytest.raises(ValueError):
        compose(PowerSeries.factorials(), PowerSeries.one())


def test_sqrt_of_one():
    assert ints(PowerSeries.one().sqrt(), 0, 5) == [1, 0, 0, 0, 0, 0]


def test_sqrt_closed_form_descent_series():
    closed = descent_dim_series_closed()
    assert ints(closed, 1, 6) == [1, 3, 10, 36, 137, 543]


def _binary_tree_count(n: int) -> int:
    # brute-force: trees with n internal nodes split as left/right subtrees
    if n == 0:
        return 1
    return sum(_binary_tree_count(i) * _binary_tree_count(n - 1 - i) for i in range(n))


def test_sqrt_one_minus_4x_counts_binary_trees():
    g = PowerSeries.from_coeffs([1, -4]).sqrt()
    numer = PowerSeries.one() - g
    counts = [numer[n + 1] / 2 for n in range(5)]
    assert counts == [_binary_tree_count(n) for n in range(5)]
    assert counts == [1, 1, 2, 5, 14]


def test_sqrt_rejects_bad_constant_term():
    with pytest.raises(ValueError):
        PowerSeries.from_coeffs([4, 1]).sqrt()


def test_inverse_geometric():
    inv = PowerSeries.from_coeffs([1, -1]).inverse()
    assert ints(inv, 0, 5) == [1] * 6


def test_inverse_one_plus_x():
    inv = PowerSeries.from_coeffs([1, 1]).inverse()
    assert ints(inv, 0, 5) == [1, -1, 1, -1, 1, -1]


def test_inverse_factorial_series():
    # triangular solve by hand: g0=1, g_n = -sum f_i g_{n-i}
    inv = PowerSeries.factorials().inverse()
    assert ints(inv, 0, 4) == [1, -1, -1, -3, -13]


def test_inverse_rejects_bad_constant_term():
    with pytest.raises(ValueError):
        PowerSeries.from_coeffs([0, 1]).inverse()


def test_descent_series_routes_agree_to_12():
    closed = descent_dim_series_closed()
    composed = descent_dim_series_catalan()
    assert ints(closed, 0, 12) == ints(composed, 0, 12)


def test_primitive_series_small_values():
    p = primitive_dim_series()
    assert ints(p, 1, 5) == [1, 1, 2, 10, 70]


def test_biword_series_equals_composition_count():
    from math import comb, factorial

    r = biword_count_series()
    for n in range(1, 9):
        assert r[n] == sum(factorial(k) * comb(n - 1, k - 1) for k in range(1, n + 1))
    with pytest.raises(IndexError, match="non-negative"):
        r[-1]


small = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(small)
def test_sqrt_squares_back(coeffs):
    f = PowerSeries.from_coeffs([1] + coeffs)
    g = f.sqrt()
    gg = g * g
    for n in range(10):
        assert gg[n] == f[n]


@settings(max_examples=40, deadline=None)
@given(small)
def test_inverse_multiplies_to_one(coeffs):
    f = PowerSeries.from_coeffs([1] + coeffs)
    product = f * f.inverse()
    assert ints(product, 0, 9) == [1] + [0] * 9


@settings(max_examples=25, deadline=None)
@given(small, small, small)
def test_compose_associative(fc, gc, hc):
    f = PowerSeries.from_coeffs(fc)
    g = PowerSeries.from_coeffs([0] + gc)
    h = PowerSeries.from_coeffs([0] + hc)
    lhs = compose(compose(f, g), h)
    rhs = compose(f, compose(g, h))
    for n in range(8):
        assert lhs[n] == rhs[n]


coefficient_lists = st.one_of(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=15),
    st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=7), min_size=1, max_size=15),
)


@settings(max_examples=40, deadline=None)
@given(coefficient_lists)
def test_geometric_substitution_is_composition_with_geometric(coeffs):
    f = PowerSeries.from_coeffs(coeffs)
    expected = ints(compose(f, geometric()), 0, 14)
    got = ints(f.geometric_substitution(), 0, 14)
    assert got == expected
    assert [type(c) for c in got] == [type(c) for c in expected]


def test_memo_is_stable():
    calls = []

    def fn(n):
        calls.append(n)
        return Fraction(n)

    s = PowerSeries(fn)
    assert s[3] == 3 and s[3] == 3
    assert calls.count(3) == 1


def test_memo_fills_bottom_up():
    calls = []

    def fn(n):
        calls.append(n)
        return Fraction(n)

    s = PowerSeries(fn)
    assert s[3] == 3
    assert calls == [0, 1, 2, 3]
    assert s[1] == 1 and s[5] == 5
    assert calls == [0, 1, 2, 3, 4, 5]


def test_closed_route_at_1000_matches_recurrence():
    # A002212: (n+1) a(n) = (6n-3) a(n-1) - 5(n-2) a(n-2); a deep index used
    # to overflow the stack through the recursive sqrt oracle
    a = [1, 1]
    for n in range(2, 1001):
        a.append(((6 * n - 3) * a[n - 1] - 5 * (n - 2) * a[n - 2]) // (n + 1))
    closed = descent_dim_series_closed()
    assert closed[1000] == a[1000]
    assert ints(closed, 990, 1000) == a[990:]
    # every n <= 1000, and the floor divisions above were exact
    assert ints(closed, 0, 1000) == a
    assert all((n + 1) * a[n] == (6 * n - 3) * a[n - 1] - 5 * (n - 2) * a[n - 2] for n in range(2, 1001))


def test_catalan_route_equals_closed_route_to_300():
    closed = descent_dim_series_closed()
    catalan = descent_dim_series_catalan()
    assert catalan[300] == closed[300]
    assert ints(catalan, 0, 300) == ints(closed, 0, 300)


def _fraction_fold(n_max: int) -> dict:
    # the four dimension series from Fraction-only folds of their formulas
    def sqrt(f):
        g = [Fraction(1)]
        for n in range(1, n_max + 2):
            g.append((f[n] - sum((g[i] * g[n - i] for i in range(1, n)), Fraction(0))) / 2)
        return g

    def with_geometric(f):
        # f(x/(1-x)) has coefficient sum_k f_k C(n-1, k-1) at n >= 1
        return [f[0]] + [
            sum((f[k] * comb(n - 1, k - 1) for k in range(1, n + 1)), Fraction(0))
            for n in range(1, n_max + 1)
        ]

    def pad(coeffs):
        return [Fraction(c) for c in coeffs] + [Fraction(0)] * (n_max + 2 - len(coeffs))

    root4 = sqrt(pad([1, -4]))
    catalan = [(pad([1])[n + 1] - root4[n + 1]) / 2 for n in range(n_max + 1)]
    root5 = sqrt(pad([1, -6, 5]))
    closed = [(pad([1, -1])[n + 1] - root5[n + 1]) / 2 for n in range(n_max + 1)]
    r = with_geometric([Fraction(factorial(k)) for k in range(n_max + 1)])
    r2 = [sum((r[i] * r[n - i] for i in range(n + 1)), Fraction(0)) for n in range(n_max + 1)]
    inv = [Fraction(1)]
    for n in range(1, n_max + 1):
        inv.append(-sum((r2[i] * inv[n - i] for i in range(1, n + 1)), Fraction(0)))
    prim = [
        sum(((r[i] - (i == 0)) * inv[n - i] for i in range(n + 1)), Fraction(0))
        for n in range(n_max + 1)
    ]
    return {
        catalan_series: catalan,
        biword_count_series: r,
        descent_dim_series_closed: closed,
        descent_dim_series_catalan: with_geometric(catalan),
        primitive_dim_series: prim,
    }


def test_coefficients_stay_int_while_integral():
    for make, expected in _fraction_fold(60).items():
        got = ints(make(), 0, 60)
        assert got == expected, make.__name__
        assert {type(c) for c in got} == {int}, make.__name__
    # a division with a remainder still gives an exact Fraction
    half = ints(PowerSeries.from_coeffs([1, 1]).sqrt(), 0, 3)
    assert half == [1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)]
    assert [type(c) for c in half] == [int, Fraction, Fraction, Fraction]
