from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflealg.lincomb import LinComb, bilinear_extend
from shufflealg import biwords as B
from shufflealg import verify as V
from shufflealg.action import act_letters, compose_rows_via_action, endo_image
from shufflealg.biwords import (
    UNIT_BIWORD,
    Biword,
    enumerate_biwords,
    enumerate_biwords_by_size,
)
from shufflealg.descent import convolution_inverse, identity_series, p_n, pi_n
from shufflealg.verify import check_action_compatibility, check_idempotents
from shufflealg.words import (
    EMPTY_WORD,
    Letter,
    Word,
    enumerate_words,
    compositions,
    deconcat,
    generic_word,
    standard_alphabet,
    word_prec,
    word_shuffle,
    word_succ,
)

a1 = Letter(1, 0)
b2 = Letter(2, 1)


def _act(b: Biword, w: Word):
    return act_letters(*b.row, w)


def _apply(f: LinComb, *words: Word) -> list[dict]:
    return [endo_image(f, w) for w in words]


def _compose(a: Biword, b: Biword):
    """The row of "apply b, then a" read off the action, or None for zero."""
    return compose_rows_via_action([(a.perm, a.deg)], (b.perm, b.deg))[0]


def test_phi_permutes_when_weights_match():
    w = Word((a1, b2))
    assert _act(Biword((2, 1), (2, 1)), w) == (b2, a1)


def test_phi_kills_weight_mismatch():
    w = Word((a1, b2))
    assert _act(Biword((2, 1), (1, 1)), w) is None


def test_phi_identity_biword():
    w = Word((a1, b2))
    assert _act(Biword((1, 2), (1, 2)), w) == tuple(w)


def test_phi_length_mismatch():
    assert _act(Biword((1,), (1,)), Word((a1, b2))) is None


def test_unit_biword_projects_to_scalars():
    assert _act(UNIT_BIWORD, EMPTY_WORD) == ()
    assert _act(UNIT_BIWORD, Word((a1,))) is None


def test_endo_apply_zero_and_linearity():
    w = Word((a1, b2))
    assert _apply(LinComb.zero(), w) == [{}]
    f = LinComb.single(Biword((1, 2), (1, 2))) + LinComb.single(Biword((2, 1), (2, 1)))
    assert _apply(f, w) == [{Word((a1, b2)): 1, Word((b2, a1)): 1}]


def test_p2_fixes_weight_two_words():
    alphabet = standard_alphabet(2, 2)
    words = enumerate_words(2, alphabet)
    assert _apply(p_n(2), *words) == [{w: 1} for w in words]
    words = enumerate_words(1, alphabet)
    assert _apply(p_n(2), *words) == [{}] * len(words)


def test_compose_via_action_worked_example():
    out = _compose(Biword((3, 1, 2), (1, 1, 1)), Biword((1, 3, 2), (1, 1, 1)))
    assert out == ((2, 1, 3), (1, 1, 1))


def test_compose_via_action_identity():
    x = Biword((2, 3, 1), (1, 2, 1))
    ident = Biword((1, 2, 3), x.deg)
    assert _compose(ident, x) == (x.perm, x.deg)
    assert _compose(UNIT_BIWORD, UNIT_BIWORD) == ((), ())


def test_compose_via_action_annihilates():
    assert _compose(Biword((2, 1), (1, 2)), Biword((1, 2), (1, 1))) is None
    assert _compose(Biword((1,), (1,)), Biword((1, 2), (1, 1))) is None


def _convolution_fold(f, g, w, combine):
    # op . (f (x) g) . Delta, one term at a time, every cut and every pair of
    # biwords through act_letters
    total = LinComb.zero()
    for (left, right), c in deconcat(w).terms().items():
        for x, cx in f.terms().items():
            for y, cy in g.terms().items():
                u, v = _act(x, left), _act(y, right)
                if u is not None and v is not None:
                    total = total + combine(Word(u), Word(v)) * (c * cx * cy)
    return total


def test_convolution_prec_of_weight_projectors():
    # pi_1 < pi_1 on the probe a.b keeps only the cut (a)(x)(b)
    pi1 = pi_n(1)
    probe = Word((a1, Letter(1, 1)))
    out = _convolution_fold(pi1, pi1, probe, word_prec)
    assert out == LinComb.single(probe)


def test_convolution_unit_is_scalar_projector():
    unit = LinComb.single(UNIT_BIWORD)
    g = p_n(2)
    for w in enumerate_words(2, standard_alphabet(2, 2)):
        got = _convolution_fold(unit, g, w, word_shuffle)
        assert [got.terms()] == _apply(g, w)


def test_identity_convolved_with_antipode_vanishes():
    # the star-inverse of the identity series is the signed-reversal series
    cutoff = 4
    ident = identity_series(cutoff)
    inverse = convolution_inverse(ident)
    assert len(inverse) == cutoff + 1
    for n in range(1, cutoff + 1):
        expected = LinComb.zero()
        for comp in compositions(n):
            k = len(comp)
            expected = expected + LinComb.single(
                Biword(tuple(range(k, 0, -1)), comp), (-1) ** k
            )
        assert inverse[n] == expected
    alphabet = standard_alphabet(cutoff, 2)
    for n in range(1, cutoff + 1):
        for probe in enumerate_words(n, alphabet):
            # nonzero cuts pair weights (i, n-i); sum over all components
            total = LinComb.zero()
            for i in range(0, n + 1):
                total = total + _convolution_fold(ident[i], inverse[n - i], probe, word_shuffle)
            assert total.is_zero(), probe


def test_action_compatibility_weight_3():
    assert V._check_action_compatibility(3, 2, V._generic_probes) == []


def test_internal_compose_matches_action_size_3():
    pool = []
    for k in (0, 1, 2, 3):
        pool.extend(enumerate_biwords_by_size(k, (1, 2)))
    from shufflealg.biwords import internal_compose

    for x in pool:
        for y in pool:
            row = _compose(x, y)
            expected = LinComb.zero() if row is None else LinComb.single(Biword(*row))
            assert internal_compose(x, y) == expected, (x, y)


def test_composition_routes_agree_size_3():
    # the row kernel, its Biword wrapper and the action's row form
    pool = [b for k in (0, 1, 2, 3) for b in enumerate_biwords_by_size(k, (1, 2))]
    rows = [(b.perm, b.deg) for b in pool]
    nonzero = 0
    for y, y_row in zip(pool, rows):
        column = compose_rows_via_action(rows, y_row)
        for x, x_row, via_action in zip(pool, rows, column):
            row = B.compose_row(x_row, y_row)
            assert row == via_action, (x, y)
            expected = LinComb.zero() if row is None else LinComb.single(Biword(*row))
            assert B.internal_compose(x, y) == expected, (x, y)
            nonzero += row is not None
    # size k with degrees in {1, 2}: 2^k * k! * k! pairs whose degrees agree
    assert nonzero == 1 + 2 + 4 * 2 * 2 + 8 * 6 * 6


def _reading_a_in_reverse(a, b):
    """compose_row with a's top row read backwards: b's top row is read
    through a in the wrong order, while the degree check stays right."""
    (perm_a, deg_a), (perm_b, deg_b) = a, b
    if len(perm_a) != len(perm_b) or any(d != deg_b[v - 1] for v, d in zip(perm_a, deg_a)):
        return None
    return tuple([perm_b[v - 1] for v in reversed(perm_a)]), deg_a


def test_a_planted_compose_row_fault_fails_both_action_suites(monkeypatch):
    monkeypatch.setattr(B, "compose_row", _reading_a_in_reverse)
    action = check_action_compatibility(4)
    assert (action.checked, len(action)) == (3979, 304)
    assert {f.identity for f in action} == {"internal-compose-vs-action"}
    first = action[0]
    assert str(first) == "internal-compose-vs-action fails at (12|11, 12|11):\n  lhs = 21|11\n  rhs = 12|11"
    idempotents = check_idempotents(4)
    assert (idempotents.checked, len(idempotents)) == (104, 11)
    assert {f.identity for f in idempotents} == {"pi-orthogonality"}
    # the Biword-level product goes through the same kernel
    identity = Biword((1, 2), (1, 1))
    assert B.internal_compose(identity, identity) == LinComb.single(Biword((2, 1), (1, 1)))


def _composing_through_b(a, b):
    """compose_row with the top row read as a through b: perm_a[perm_b[i] - 1]."""
    (perm_a, deg_a), (perm_b, deg_b) = a, b
    if len(perm_a) != len(perm_b) or any(d != deg_b[v - 1] for v, d in zip(perm_a, deg_a)):
        return None
    return tuple([perm_a[v - 1] for v in perm_b]), deg_a


def _carrying_b_degrees(a, b):
    """compose_row giving the composite b's degrees."""
    (perm_a, deg_a), (perm_b, deg_b) = a, b
    if len(perm_a) != len(perm_b) or any(d != deg_b[v - 1] for v, d in zip(perm_a, deg_a)):
        return None
    return tuple([perm_b[v - 1] for v in perm_a]), deg_b


def _matching_degrees_by_position(a, b):
    """compose_row comparing the degrees position by position, not through a."""
    (perm_a, deg_a), (perm_b, deg_b) = a, b
    if len(perm_a) != len(perm_b) or deg_a != deg_b:
        return None
    return tuple([perm_b[v - 1] for v in perm_a]), deg_a


@pytest.mark.parametrize("fault, failures, first", [
    (_composing_through_b, 144, "(132|111, 213|111)"),
    (_carrying_b_degrees, 148, "(21|12, 12|21)"),
    (_matching_degrees_by_position, 296, "(21|12, 12|12)"),
])
def test_action_compat_catches_each_planted_compose_row_fault(monkeypatch, fault, failures, first):
    monkeypatch.setattr(B, "compose_row", fault)
    action = check_action_compatibility(4)
    assert (action.checked, len(action)) == (3979, failures)
    assert {f.identity for f in action} == {"internal-compose-vs-action"}
    assert str(action[0]).startswith(f"internal-compose-vs-action fails at {first}:")


def test_action_compat_catches_swapped_convolution_halves(monkeypatch):
    # the suite's convolution side takes its word products from one op table
    monkeypatch.setitem(V._WORD_OPS, "prec", word_succ)
    monkeypatch.setitem(V._WORD_OPS, "succ", word_prec)
    action = check_action_compatibility(4)
    assert (action.checked, len(action)) == (3979, 332)
    assert Counter(f.identity for f in action) == {"action-prec": 166, "action-succ": 166}
    assert str(action[0]).startswith("action-prec fails at (1, 1|1, b1):")


def _losing_the_right_unit(a, b, first_from_left):
    """riffle_rows with x < 1 = 0 in place of x."""
    if first_from_left and a[0] and not b[0]:
        return []
    return _real_riffle_rows(a, b, first_from_left)


def test_action_compat_pairs_the_top_weight_with_the_unit(monkeypatch):
    # at weight 1 only the pair (1|1, 1) reaches x < 1 = x
    monkeypatch.setattr(B, "riffle_rows", _losing_the_right_unit)
    action = check_action_compatibility(1)
    assert (action.checked, len(action)) == (3487, 2)
    assert Counter(f.identity for f in action) == {"action-prec": 1, "action-star": 1}


def test_composite_acts_as_composition_on_words():
    # the composite acts as applying the factors in sequence, on every word,
    # including the ones the right factor annihilates
    from shufflealg.biwords import internal_compose

    pool = []
    for k in (1, 2):
        pool.extend(enumerate_biwords_by_size(k, (1, 2)))
    alphabet = standard_alphabet(4, 2)
    words = []
    for weight in range(1, 5):
        words.extend(enumerate_words(weight, alphabet))
    for x in pool:
        for y in pool:
            for w, lhs in zip(words, _apply(internal_compose(x, y), *words)):
                mid = _act(y, w)
                rhs = {} if mid is None else _apply(LinComb.single(x), Word(mid))[0]
                assert lhs == rhs, (x, y, w)


def test_generic_word():
    assert generic_word((2, 1, 2)) == Word((Letter(2, 1), Letter(1, 2), Letter(2, 3)))
    assert generic_word(()) == EMPTY_WORD


# -- generic probes against the exhaustive oracle ------------------------------
#
# The action suites probe each identity with one generic word per composition.
# The oracle probes with every word over two symbols per weight, an
# independent probe set.  The suites' private helpers take the probe set, so
# both routes run the same identity comparisons.

def _exhaustive_probes(weight: int) -> list[Word]:
    return enumerate_words(weight, standard_alphabet(weight, 2))


def _flagged(report) -> set:
    return {(f.identity, f.inputs[0], f.inputs[1]) for f in report}


def test_probe_routes_pass_on_the_real_products():
    assert check_idempotents(5).checked == 377
    checked = {}
    for probes in (V._generic_probes, _exhaustive_probes):
        action = V._check_action_compatibility(4, 3, probes)
        idempotents = V._check_idempotents(4, probes)
        assert action == [] and idempotents == []
        checked[probes] = action.checked
    assert checked == {V._generic_probes: 3979, _exhaustive_probes: 8497}


def test_probe_routes_flag_the_same_dropped_term(monkeypatch):
    real_star = B.biword_star

    def star_missing_a_term(a, b):
        # drops one of the interleavings that put b's first column in front
        succ = B.biword_succ(a, b)
        if succ.is_zero():
            return real_star(a, b)
        return real_star(a, b) - LinComb.single(succ.keys()[0])

    monkeypatch.setattr(B, "biword_star", star_missing_a_term)
    generic = _flagged(V._check_action_compatibility(3, 1, V._generic_probes))
    exhaustive = _flagged(V._check_action_compatibility(3, 1, _exhaustive_probes))
    assert generic == exhaustive
    assert len(generic) == 22
    assert {identity for identity, _, _ in generic} == {"action-star"}


_real_riffle_rows, _real_biword_star = B.riffle_rows, B.biword_star


def _riffles_with_degrees_reversed(a, b, first_from_left):
    """riffle_rows giving every row of size 3 or more its degrees backwards."""
    rows = _real_riffle_rows(a, b, first_from_left)
    return [(perm, deg[::-1]) if len(perm) >= 3 else (perm, deg) for perm, deg in rows]


def _star_plus_a_foreign_term(a, b):
    """biword_star plus the identity biword with a's and b's degrees reversed,
    whose source profile is in general not src(a).src(b), the riffles' one."""
    out = _real_biword_star(a, b)
    n = len(a.perm) + len(b.perm)
    extra = Biword(tuple(range(1, n + 1)), (a.deg + b.deg)[::-1])
    if a.perm and b.perm and extra not in out.terms():
        out = out + LinComb.single(extra)
    return out


@pytest.mark.parametrize("probes, riffle_failures, star_failures", [
    (V._generic_probes, (176, 4), 29),
    (_exhaustive_probes, (1408, 32), 320),
], ids=["generic", "exhaustive"])
def test_the_source_filter_keeps_every_failure(monkeypatch, probes, riffle_failures, star_failures):
    # the suites skip a probe whose profile is no source of either side; these
    # faults put terms on other profiles, and every failure is still found
    with monkeypatch.context() as m:
        m.setattr(B, "riffle_rows", _riffles_with_degrees_reversed)
        action = V._check_action_compatibility(4, 3, probes)
        idempotents = V._check_idempotents(4, probes)
    assert (len(action), len(idempotents)) == riffle_failures
    monkeypatch.setattr(B, "biword_star", _star_plus_a_foreign_term)
    assert len(V._check_action_compatibility(4, 3, probes)) == star_failures


def _sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
    return (-1) ** inversions


def test_only_generic_probes_catch_the_antisymmetrizer(monkeypatch):
    # sum sign(s) s|111 kills every 3-letter weight-1 word that repeats a
    # symbol, so over two symbols per weight it acts as zero
    real_star = B.biword_star
    target = (Biword((1,), (1,)), Biword((1, 2), (1, 1)))
    antisymmetrizer = LinComb((Biword(p, (1, 1, 1)), _sign(p)) for p in permutations((1, 2, 3)))

    def star_plus_antisymmetrizer(a, b):
        out = real_star(a, b)
        return out + antisymmetrizer if (a, b) == target else out

    monkeypatch.setattr(B, "biword_star", star_plus_antisymmetrizer)
    generic = _flagged(V._check_action_compatibility(3, 1, V._generic_probes))
    exhaustive = _flagged(V._check_action_compatibility(3, 1, _exhaustive_probes))
    assert generic == {("action-star",) + target}
    assert exhaustive == set()


# -- naturality: the property the generic probes rest on -------------------------

words_of_small_weight = st.lists(
    st.builds(Letter, st.integers(1, 3), st.integers(0, 2)), max_size=4
).filter(lambda letters: sum(let.weight for let in letters) <= 5).map(lambda ls: Word(tuple(ls)))
coefficients = st.integers(-3, 3)


def _combination(draw, weight: int) -> LinComb:
    pool = st.sampled_from(enumerate_biwords(weight))
    return LinComb(draw(st.lists(st.tuples(pool, coefficients), max_size=4)))


def _substitution(w: Word):
    """The letter substitution sending the generic word of w's profile to w."""
    sub = dict(zip(generic_word(w.profile()), w))
    return lambda lc: lc.map_keys(lambda u: Word(tuple(sub[let] for let in u)))


@settings(max_examples=60, deadline=None)
@given(words_of_small_weight, st.data())
def test_action_commutes_with_letter_substitution(w, data):
    generic = generic_word(w.profile())
    sigma = _substitution(w)
    f = _combination(data.draw, w.weight)
    got, got_generic = _apply(f, w, generic)
    assert LinComb(got) == sigma(LinComb(got_generic))
    k = data.draw(st.integers(0, w.weight))
    f, g = _combination(data.draw, k), _combination(data.draw, w.weight - k)
    for combine in (word_prec, word_succ, word_shuffle):
        assert _convolution_fold(f, g, w, combine) == sigma(_convolution_fold(f, g, generic, combine))


# -- key-level kernels against their bilinear extensions -----------------------

biwords_of_small_size = st.integers(0, 3).flatmap(
    lambda k: st.sampled_from(enumerate_biwords_by_size(k, (1, 2)))
)
biword_combinations = st.lists(st.tuples(biwords_of_small_size, coefficients), max_size=6).map(LinComb)


@settings(max_examples=80, deadline=None)
@given(biword_combinations, biword_combinations)
def test_internal_compose_lc_is_the_bilinear_extension(x, y):
    assert B.internal_compose_lc(x, y) == bilinear_extend(B.internal_compose, x, y)


# words that repeat letters, as the exhaustive probes do: two symbols per weight
words_repeating_letters = st.lists(
    st.builds(Letter, st.integers(1, 2), st.integers(0, 1)), max_size=4
).map(lambda ls: Word(tuple(ls)))


@settings(max_examples=80, deadline=None)
@given(biword_combinations, st.lists(words_repeating_letters, min_size=1, max_size=4))
def test_endo_image_matches_the_one_biword_action(f, words):
    # f mixes sizes 0-3, the unit included
    for w, image in zip(words, _apply(f, *words)):
        expected = LinComb((Word(u), c) for b, c in f.terms().items() if (u := _act(b, w)) is not None)
        assert image == expected.terms()


def test_endo_apply_drops_a_cancelled_word():
    # both biwords send a1.a1 to a1.a1, so their difference acts as zero
    f = LinComb({Biword((1, 2), (1, 1)): 1, Biword((2, 1), (1, 1)): -1})
    assert _apply(f, Word((a1, a1))) == [{}]
