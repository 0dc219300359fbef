"""Acceptance criteria, one test per criterion.

Every check is exact (rational arithmetic, equality on the nose); the only
tolerances are the stated wall-clock bounds; the package keeps no memo
cache between calls, so each timing starts cold.  Each criterion prints one pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import time

import pytest

from conftest import biword_combination, load_golden
from oracles import perturbed_presentation, prim_dend_dimension
from shufflealg.lincomb import LinComb
from shufflealg import action as act
from shufflealg import biwords as B
from shufflealg import descent as D
from shufflealg import rigidity as R
from shufflealg import verify as V
from shufflealg import words as W
from shufflealg.series import (
    biword_count_series,
    descent_dim_series_catalan,
    descent_dim_series_closed,
)

EXPECTED_BIWORD_COUNTS = [1, 3, 11, 49, 261, 1631]
EXPECTED_DESCD_DIMS = [1, 3, 10, 36, 137, 543]
EXPECTED_PRIM_DIMS = [1, 1, 2, 10, 70]


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {desc}")


def check(num: int, desc: str, ok: bool) -> None:
    report(num, ok, desc)
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_biword_counts():
    start = time.perf_counter()
    counts = [len(B.enumerate_biwords(n)) for n in range(1, 7)]
    elapsed = time.perf_counter() - start
    r = biword_count_series()
    series = [int(r[n]) for n in range(1, 7)]
    ok = counts == EXPECTED_BIWORD_COUNTS == series and elapsed < 5.0
    check(1, f"biword counts 1..6 = {counts} = R(x) coefficients in {elapsed:.2f}s", ok)


def test_criterion_2_spanning_ranks():
    start = time.perf_counter()
    ranks = [D.descd_dimension(n) for n in range(1, 7)]
    elapsed = time.perf_counter() - start
    closed = descent_dim_series_closed()
    catalan = descent_dim_series_catalan()
    series_match = all(
        int(closed[n]) == int(catalan[n]) == ranks[n - 1] for n in range(1, 7)
    )
    ok = ranks == EXPECTED_DESCD_DIMS and series_match and elapsed < 60.0
    check(2, f"descd ranks 1..6 = {ranks}, series routes agree, in {elapsed:.2f}s", ok)


@pytest.mark.parametrize(
    "n,expected",
    [
        # id keeps the historical name cited in README, ROADMAP, CHANGES.md; value corrected
        pytest.param(7, 2219, id="7-2218"),
        (8, 9285),
        (9, 39587),
    ],
)
def test_criterion_2_series_extension(n, expected):
    start = time.perf_counter()
    closed = int(descent_dim_series_closed()[n])
    catalan = int(descent_dim_series_catalan()[n])
    elapsed = time.perf_counter() - start
    ok = closed == catalan == expected and elapsed < 1.0
    check(
        2,
        f"series extension at n={n}: expected {expected}, closed route {closed}, "
        f"catalan route {catalan}, in {elapsed:.2f}s",
        ok,
    )


def test_criterion_3_primitive_dimensions():
    start = time.perf_counter()
    dims = [prim_dend_dimension(n) for n in range(1, 6)]
    elapsed = time.perf_counter() - start
    ok = dims == EXPECTED_PRIM_DIMS and elapsed < 60.0
    check(3, f"primitive dimensions 1..5 = {dims} in {elapsed:.2f}s", ok)


def test_criterion_4_worked_examples_match_goldens():
    products = load_golden("biword_products.json")
    ok = True
    for kind, fn in (("prec", B.biword_prec), ("succ", B.biword_succ)):
        case = products[kind]
        got = fn(B.parse_biword(case["lhs"]), B.parse_biword(case["rhs"]))
        ok = ok and got == biword_combination(case["expected"])
    cops = load_golden("half_coproducts.json")
    x = B.parse_biword(cops["input"])
    for kind, fn in (("prec", B.coproduct_prec), ("succ", B.coproduct_succ)):
        expected = LinComb.zero()
        for left, right, coeff in cops[kind]:
            expected = expected + LinComb.single(
                (B.parse_biword(left), B.parse_biword(right)), int(coeff)
            )
        ok = ok and fn(x) == expected
    check(4, "worked products and half-coproducts match the golden files", ok)


def test_criterion_5_bidendriform_compatibilities():
    failures = V.check_biword_bidendriform(5)
    check(5, f"bidendriform compatibilities up to weight 5: {len(failures)} violations", not failures)


def test_criterion_6_projector_coproducts():
    failures = V.check_pn_coproducts(6)
    check(6, f"graded projector coproducts up to weight 6: {len(failures)} violations", not failures)


def test_criterion_7_idempotent_routes():
    failures = V.check_pi_primitive(6)
    check(7, f"idempotent routes and primitivity up to weight 6: {len(failures)} violations", not failures)


def test_criterion_8_orthogonal_idempotent_family():
    failures = V.check_idempotents(5)
    check(8, f"nested idempotent family up to weight 5: {len(failures)} violations", not failures)


def test_criterion_9_action_compatibility():
    failures = V.check_action_compatibility(4)
    check(9, f"action compatibility (weight 4 probes, size 3 composes): {len(failures)} violations", not failures)


def test_criterion_10_non_stability():
    composed = B.internal_compose(B.Biword((3, 1, 2), (1, 1, 1)), B.Biword((1, 3, 2), (1, 1, 1)))
    culprit = B.Biword((2, 1, 3), (1, 1, 1))
    ok = composed == LinComb.single(culprit)
    ok = ok and act.compose_rows_via_action([((3, 1, 2), (1, 1, 1))], ((1, 3, 2), (1, 1, 1))) == [
        (culprit.perm, culprit.deg)
    ]
    ok = ok and not D.descd_membership(LinComb.single(culprit), 3)
    pair = biword_combination([["213|111", 1], ["231|111", 1]])
    ok = ok and D.descd_membership(pair, 3)
    check(10, "composite escapes the descent algebra; the paired combination stays", ok)


def test_criterion_11_tau_and_antipode_on_words():
    failures = V.check_tau_on_words(6)
    ok = not failures
    alphabet = W.standard_alphabet(6, 2)
    for weight in range(1, 7):
        for w in W.enumerate_words(weight, alphabet):
            conv = LinComb.zero()
            for (left, right), c in W.deconcat(w).terms().items():
                for key, cl in W.word_antipode(left).terms().items():
                    conv = conv + W.word_shuffle(key, right) * (cl * c)
            if not conv.is_zero():
                ok = False
    check(11, "tau projector and antipode identities on words up to weight 6", ok)


def test_criterion_12_rigidity_roundtrip():
    failures = V.check_rigidity(4)
    ok = not failures
    A = R.shuffle_presentation(W.standard_alphabet(3, 2), 3)
    bad = perturbed_presentation(A, "a1", "a1", LinComb.single("a2"))
    ok = ok and bool(R.validate_presentation(bad))
    try:
        R.primitive_decomposition(bad, "a1.a1.a1")
        ok = False
    except R.RigidityError:
        pass
    check(12, "rigidity round-trip on the word model; perturbation detected", ok)
