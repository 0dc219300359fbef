from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shufflealg.lincomb import LinComb, bilinear_extend, exact, exact_div, linear_extend


def test_cancellation():
    assert LinComb({"w": 1}) + LinComb({"w": -1}) == LinComb.zero()


def test_disjoint_supports():
    total = LinComb({"u": 1}) + LinComb({"v": 2})
    assert total == LinComb({"u": 1, "v": 2})


def test_rational_addition():
    total = LinComb({"u": Fraction(1, 2)}) + LinComb({"u": Fraction(1, 3)})
    assert total == LinComb({"u": Fraction(5, 6)})


def test_no_stored_zeros():
    lc = LinComb({"a": 0, "b": 1})
    assert "a" not in lc
    assert len(lc) == 1


def test_iteration_is_sorted():
    lc = LinComb({"c": 1, "a": 2, "b": 3})
    assert lc.keys() == ["a", "b", "c"]


def test_str_rendering():
    assert str(LinComb.zero()) == "0"
    assert str(LinComb({"a": 1, "b": -1, "c": Fraction(3, 2)})) == "a - b + 3/2*c"


coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
combos = st.dictionaries(st.integers(0, 6), coeffs, max_size=5).map(LinComb)


@given(combos, combos, combos)
def test_addition_associative_commutative(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u


@given(combos)
def test_negation_cancels(v):
    assert (v + (-v)).is_zero()
    assert v - v == LinComb.zero()


@given(coeffs, coeffs, combos)
def test_module_axioms(r, s, v):
    assert (r + s) * v == r * v + s * v
    assert r * (s * v) == (r * s) * v


@given(coeffs, combos, combos)
def test_scalar_distributes(r, v, w):
    assert r * (v + w) == r * v + r * w


@given(st.fractions(min_value=-100, max_value=100, max_denominator=100),
       st.fractions(min_value=-100, max_value=100, max_denominator=100))
def test_rational_arithmetic_exact(a, b):
    assert (a + b) - b == a


def test_linear_extend():
    double = lambda k: LinComb.single(k, 2)
    assert linear_extend(double, LinComb({"a": 1, "b": 3})) == LinComb({"a": 2, "b": 6})


def test_bilinear_extend():
    pair = lambda x, y: LinComb.single((x, y))
    out = bilinear_extend(pair, LinComb({"a": 2}), LinComb({"x": 1, "y": -1}))
    assert out == LinComb({("a", "x"): 2, ("a", "y"): -2})


def test_tensor_pairs_render_with_x():
    assert str(LinComb({("a", "b"): 1, ("a", "c"): -2, ("b", "a"): Fraction(1, 2)})) == (
        "a (x) b - 2*a (x) c + 1/2*b (x) a"
    )


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        LinComb({"a": 0.1})
    with pytest.raises(TypeError):
        LinComb([("a", 1), ("b", 0.0)])
    with pytest.raises(TypeError):
        LinComb.single("a", 0.5)
    with pytest.raises(TypeError):
        LinComb({"a": 1}) * 0.5
    with pytest.raises(TypeError):
        0.5 * LinComb({"a": 1})
    with pytest.raises(TypeError):
        LinComb.sum([(LinComb({"a": 1}), 1.0)])


def test_coefficients_stay_integers_until_a_division():
    lc = LinComb({"a": 2, "b": Fraction(6, 3)}) * 3 + LinComb({"a": True})
    assert lc == LinComb({"a": 7, "b": 6})
    assert all(type(c) is int for c in lc.terms().values())
    assert exact_div(1, 2) == Fraction(1, 2) and type(exact_div(1, 2)) is Fraction
    assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int


def _stored_coefficients_ok(lc):
    return all(c != 0 and type(c) in (int, Fraction) for c in lc.terms().values())


keys = st.integers(0, 3)
int_or_fraction = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=4))
small_combos = st.dictionaries(keys, int_or_fraction, max_size=4).map(LinComb)
tables = st.dictionaries(keys, small_combos, max_size=4)
pair_tables = st.dictionaries(st.tuples(keys, keys), small_combos, max_size=8)


@given(tables, small_combos)
def test_linear_extend_equals_naive_fold(table, x):
    fn = lambda k: table.get(k, LinComb.zero())
    naive = LinComb.zero()
    for k, c in x.terms().items():
        naive = naive + fn(k) * c
    got = linear_extend(fn, x)
    assert got == naive
    assert _stored_coefficients_ok(got)


@given(pair_tables, small_combos, small_combos)
def test_bilinear_extend_equals_naive_fold(table, x, y):
    fn = lambda a, b: table.get((a, b), LinComb.zero())
    naive = LinComb.zero()
    for a, ca in x.terms().items():
        for b, cb in y.terms().items():
            naive = naive + fn(a, b) * (ca * cb)
    got = bilinear_extend(fn, x, y)
    assert got == naive
    assert _stored_coefficients_ok(got)


@given(small_combos, int_or_fraction.filter(bool))
def test_full_cancellation_leaves_nothing_stored(v, c):
    # keys 0 and 1 map to the same image, so c*0 - c*1 sums to zero
    fn = lambda k: v
    x = LinComb({0: c, 1: -c})
    assert linear_extend(fn, x).terms() == {}
    assert bilinear_extend(lambda a, b: v, x, LinComb({2: c})).terms() == {}
    assert LinComb.sum([(v, c), (v, -c)]).terms() == {}


@given(st.dictionaries(keys, st.integers(-6, 6), max_size=4))
def test_int_and_fraction_coefficients_compare_and_hash_alike(data):
    as_int = LinComb(data)
    as_fraction = LinComb({k: Fraction(c) for k, c in data.items()})
    assert as_int == as_fraction
    assert frozenset(as_int.terms().items()) == frozenset(as_fraction.terms().items())
    assert all(type(c) is int for c in as_fraction.terms().values())
    for c in data.values():
        assert hash(exact(Fraction(c))) == hash(Fraction(c)) == hash(c)
