from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_compose_factorials_with_geometric():
    r = PowerSeries.factorials().compose(PowerSeries.geometric())
    assert ints(r, 1, 6) == [1, 3, 11, 49, 261, 1631]


def test_compose_identity_left_slot():
    g = PowerSeries.from_coeffs([0, 2, -1, Fraction(1, 3)])
    assert PowerSeries.x().compose(g).coefficients(8) == g.coefficients(8)


def test_compose_catalan_with_geometric():
    s = catalan_series().compose(PowerSeries.geometric())
    assert ints(s, 1, 6) == [1, 3, 10, 36, 137, 543]


def test_compose_rejects_nonzero_constant_term():
    with pytest.raises(ValueError):
        PowerSeries.factorials().compose(PowerSeries.one())


def test_sqrt_of_one():
    assert PowerSeries.one().sqrt().coefficients(6) == [1, 0, 0, 0, 0, 0]


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
    assert inv.coefficients(6) == [1] * 6


def test_inverse_one_plus_x():
    inv = PowerSeries.from_coeffs([1, 1]).inverse()
    assert inv.coefficients(6) == [1, -1, 1, -1, 1, -1]


def test_inverse_factorial_series():
    # triangular solve by hand: g0=1, g_n = -sum f_i g_{n-i}
    inv = PowerSeries.factorials().inverse()
    assert inv.coefficients(5) == [1, -1, -1, -3, -13]


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
    assert product.coefficients(10) == [1] + [0] * 9


@settings(max_examples=25, deadline=None)
@given(small, small, small)
def test_compose_associative(fc, gc, hc):
    f = PowerSeries.from_coeffs(fc)
    g = PowerSeries.from_coeffs([0] + gc)
    h = PowerSeries.from_coeffs([0] + hc)
    lhs = f.compose(g).compose(h)
    rhs = f.compose(g.compose(h))
    for n in range(8):
        assert lhs[n] == rhs[n]


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
