import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import shufflealg
from shufflealg.biwords import UNIT_BIWORD, Biword
from shufflealg.lincomb import LinComb, bilinear_extend, exact, exact_div, linear_extend, parse_coefficient
from shufflealg.words import EMPTY_WORD, Letter, Word


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
    # each sign comes from the coefficient, never from the key's own text
    assert str(LinComb({"+p": 1, "-q": 1})) == "+p + -q"
    assert str(LinComb({"+p": 1, "-q": -1})) == "+p - -q"


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
    assert str(LinComb({("a", "b", "c"): -1, ("b", "a", "c"): 2})) == "-a (x) b (x) c + 2*b (x) a (x) c"


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
    with pytest.raises(TypeError, match="must be int or Fraction, not float"):
        exact(0.5)


def test_coefficients_stay_integers_until_a_division():
    lc = LinComb({"a": 2, "b": Fraction(6, 3)}) * 3 + LinComb({"a": True})
    assert lc == LinComb({"a": 7, "b": 6})
    assert all(type(c) is int for c in lc.terms().values())
    assert exact_div(1, 2) == Fraction(1, 2) and type(exact_div(1, 2)) is Fraction
    assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
    assert exact_div(-6, 3) == -2 and type(exact_div(-6, 3)) is int
    assert exact_div(-7, 2) == Fraction(-7, 2) and exact_div(Fraction(3, 2), 3) == Fraction(1, 2)
    assert exact(True) == 1 and type(exact(True)) is int
    assert exact(Fraction(4, 2)) == 2 and type(exact(Fraction(4, 2))) is int
    for a in (1, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError):
            exact_div(a, 0)


def test_parse_coefficient():
    assert parse_coefficient("1e-3") == Fraction(1, 1000)
    assert parse_coefficient("3/4") == Fraction(3, 4) and type(parse_coefficient("4/2")) is int
    with pytest.raises(ValueError, match="exponent"):
        parse_coefficient("1e100000000")


def test_numpy_integer_coefficient_becomes_int():
    np = pytest.importorskip("numpy")
    assert exact(np.int64(7)) == 7 and type(exact(np.int64(7))) is int


def test_coefficient_rules_before_fractions_is_loaded():
    # in a fresh interpreter an int quotient stays clear of fractions, and the
    # first non-integral value imports it and gets the same rules as above
    code = """
import sys
from shufflealg.lincomb import exact, exact_div, parse_coefficient
assert "fractions" not in sys.modules
assert type(exact_div(6, 3)) is int and parse_coefficient("-12") == -12
assert "fractions" not in sys.modules
try:
    exact(0.5)
except TypeError:
    pass
else:
    raise AssertionError("a float coefficient was accepted")
half = exact_div(-7, 2)
assert type(half).__name__ == "Fraction" and (half.numerator, half.denominator) == (-7, 2)
assert exact(half * 2) == -7 and type(exact(half * 2)) is int
"""
    env = {**os.environ, "PYTHONPATH": str(Path(shufflealg.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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


_KEYS = (Word((Letter(1, 0), Letter(2, 1))), EMPTY_WORD, Biword((2, 1), (1, 3)), UNIT_BIWORD)


@pytest.mark.parametrize(
    "value",
    [*_KEYS, *(LinComb({key: Fraction(-3, 2)}) for key in _KEYS), *(LinComb({(key, key): 2}) for key in _KEYS)],
)
@pytest.mark.parametrize(
    "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
)
def test_keys_and_combinations_pickle_and_copy(value, clone):
    twin = clone(value)
    assert twin == value and type(twin) is type(value)
    if type(value) is LinComb:
        # each key, and each leg of a tensor key, keeps its type
        types = lambda lc: [tuple(map(type, k)) if type(k) is tuple else type(k) for k in lc.keys()]
        assert types(twin) == types(value)
