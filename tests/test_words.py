import itertools
from math import comb

import pytest

from oracles import antipode_by_recursion, nested_prec_form, word_prec_by_descents, word_succ_by_descents
from shufflealg.lincomb import LinComb
from shufflealg.words import (
    EMPTY_WORD,
    Letter,
    Word,
    compositions,
    deconcat,
    enumerate_words,
    graded_tuples,
    parse_word,
    standard_alphabet,
    word_antipode,
    word_prec,
    word_shuffle,
    word_succ,
    word_to_json,
)
from shufflealg.verify import check_word_shuffle_axioms

a = Letter(1, 0)
b = Letter(1, 1)
c = Letter(1, 2)
ab = Word((a, b))
cw = Word((c,))


def single(*letters):
    return LinComb.single(Word(letters))


def test_word_value_contract():
    # a word is the tuple of its letters: hash and equality are the tuple's,
    # and set and dict orders, and so every printed combination, depend on them
    w = Word(letters=(a, b))
    assert hash(w) == hash((a, b))
    assert w == (a, b)  # the letters alone: weight takes no part
    assert w != Word((b, a)) and w != ((a, b),)
    assert repr(w) == "Word(letters=(Letter(weight=1, symbol=0), Letter(weight=1, symbol=1)))"
    assert repr(EMPTY_WORD) == "Word(letters=())"
    for change in (
        lambda: setattr(w, "letters", ()),
        lambda: setattr(w, "weight", 0),
        lambda: delattr(w, "letters"),
        lambda: delattr(w, "weight"),
    ):
        with pytest.raises(AttributeError):
            change()
    assert (tuple(w), w.weight) == ((a, b), 2)
    assert Word(iter((a, b))) == w  # an iterable is taken once, as a tuple
    with pytest.raises(ValueError):
        Word((Letter(0, 0),))


def test_prec_basic():
    assert word_prec(ab, cw) == single(a, b, c) + single(a, c, b)


def test_prec_unit_conventions():
    w = Word((a,))
    assert word_prec(w, EMPTY_WORD) == LinComb.single(w)
    assert word_prec(EMPTY_WORD, w).is_zero()
    assert word_prec(EMPTY_WORD, EMPTY_WORD).is_zero()


def test_succ_single_letters():
    assert word_succ(Word((a,)), Word((b,))) == single(b, a)


def test_succ_unit_conventions():
    w = Word((a, b))
    assert word_succ(EMPTY_WORD, w) == LinComb.single(w)
    assert word_succ(w, EMPTY_WORD).is_zero()


def test_succ_is_mirrored_prec():
    # (a,b) > (c) keeps c in front: a single term, not two
    assert word_succ(ab, cw) == single(c, a, b)
    assert word_succ(ab, cw) == word_prec(cw, ab)


def test_shuffle_lowest_case():
    assert word_shuffle(Word((a,)), Word((b,))) == single(a, b) + single(b, a)


def test_shuffle_unit():
    assert word_shuffle(ab, EMPTY_WORD) == LinComb.single(ab)
    assert word_shuffle(EMPTY_WORD, EMPTY_WORD) == LinComb.single(EMPTY_WORD)


def test_shuffle_term_count_distinct_letters():
    d = Letter(1, 3)
    result = word_shuffle(ab, Word((c, d)))
    assert sum(result.terms().values()) == comb(4, 2)
    assert len(result) == comb(4, 2)


def test_shuffle_repeated_letters_multiplicity():
    w = Word((a,))
    result = word_shuffle(w, Word((a, a)))
    assert result == LinComb({Word((a, a, a)): 3})


def test_shuffle_of_a_repeated_letter_is_one_binomial_term():
    # the riffles of a1^12 and a1^12 all give a1^24: C(24, 12) of them
    w = Word((a,) * 12)
    assert word_shuffle(w, w) == LinComb({Word((a,) * 24): comb(24, 12)})


def test_shuffles_keep_no_cache():
    assert not hasattr(word_shuffle, "cache_info")
    assert not hasattr(word_prec, "cache_info")


def test_deconcat():
    assert deconcat(Word((a,))) == LinComb(
        {(EMPTY_WORD, Word((a,))): 1, (Word((a,)), EMPTY_WORD): 1}
    )
    assert deconcat(ab) == LinComb(
        {(EMPTY_WORD, ab): 1, (Word((a,)), Word((b,))): 1, (ab, EMPTY_WORD): 1}
    )
    assert deconcat(EMPTY_WORD) == LinComb({(EMPTY_WORD, EMPTY_WORD): 1})


def test_antipode_small():
    assert word_antipode(Word((a,))) == single(a) * -1
    assert word_antipode(ab) == single(b, a)
    assert word_antipode(EMPTY_WORD) == LinComb.single(EMPTY_WORD)


def test_antipode_is_signed_reversal_up_to_weight_4():
    alphabet = standard_alphabet(4, 2)
    for weight in range(1, 5):
        for w in enumerate_words(weight, alphabet):
            assert word_antipode(w) == antipode_by_recursion(w)


def test_antipode_convolution_identity():
    alphabet = standard_alphabet(4, 2)
    for weight in range(1, 5):
        for w in enumerate_words(weight, alphabet):
            conv = LinComb.zero()
            for (left, right), coeff in deconcat(w).terms().items():
                for key, cl in word_antipode(left).terms().items():
                    conv = conv + word_shuffle(key, right) * (cl * coeff)
            assert conv.is_zero(), w


def test_nested_prec_form():
    tree = nested_prec_form(Word((a, b, c)))
    assert str(tree) == "a1<(b1<(c1))"
    assert tree.evaluate() == single(a, b, c)
    assert nested_prec_form(ab).evaluate() == LinComb.single(ab)
    assert nested_prec_form(Word((a,))).evaluate() == single(a)


def test_nested_prec_form_rejects_unit():
    with pytest.raises(ValueError):
        nested_prec_form(EMPTY_WORD)


def test_enumerate_words_weight_2():
    words = enumerate_words(2, {1: 1, 2: 1})
    assert words == [Word((Letter(2, 0),)), Word((Letter(1, 0), Letter(1, 0)))]


def test_enumerate_words_weight_1():
    assert enumerate_words(1, {1: 3}) == [Word((Letter(1, 0),)), Word((Letter(1, 1),)), Word((Letter(1, 2),))]


def test_enumerate_words_counts_compositions():
    words = enumerate_words(3, {1: 1, 2: 1, 3: 1})
    assert len(words) == 4  # compositions of 3


def test_nonpositive_parts_are_rejected():
    from shufflealg.biwords import enumerate_biwords
    from shufflealg.rigidity import shuffle_presentation

    for call in (
        lambda: list(compositions(3, [0, 1])),
        lambda: list(compositions(3, [-1, 2])),
        lambda: enumerate_words(2, {0: 1, 1: 1}),
        lambda: enumerate_biwords(2, (0, 1)),
        lambda: shuffle_presentation({0: 1, 1: 1}, 2),
    ):
        with pytest.raises(ValueError, match="positive"):
            call()
    assert list(compositions(3, [2, 1])) == [(1, 1, 1), (1, 2), (2, 1)]


def test_graded_tuples_order_and_unit():
    items = {0: ["1"], 1: ["a", "b"], 2: ["c"]}.get
    assert list(graded_tuples(2, 2, items)) == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    assert list(graded_tuples(2, 2, items, unit=True)) == [
        ("1", "1"), ("1", "a"), ("1", "b"), ("1", "c"),
        ("a", "1"), ("a", "a"), ("a", "b"), ("b", "1"), ("b", "a"), ("b", "b"), ("c", "1"),
    ]
    assert list(graded_tuples(0, 2, items)) == [()]
    assert list(graded_tuples(2, 1, items)) == []
    # arity 3 with the unit, against a filter of all triples sorted by
    # (weight, position) entry by entry; no item has weight 3
    items_or_empty = lambda m: items(m) or ()
    keyed = [(m, i, x) for m in range(4) for i, x in enumerate(items_or_empty(m))]
    brute = sorted(t for t in itertools.product(keyed, repeat=3) if sum(m for m, _, _ in t) <= 3)
    assert graded_tuples(3, 3, items_or_empty, unit=True) == [tuple(x for _, _, x in t) for t in brute]


def test_descent_class_oracle_agrees():
    alphabet = standard_alphabet(3, 2)
    small = [EMPTY_WORD]
    for weight in (1, 2, 3):
        small.extend(enumerate_words(weight, alphabet))
    for u in small:
        for v in small:
            if u.weight + v.weight > 4:
                continue
            assert word_prec(u, v) == word_prec_by_descents(u, v), (u, v)
            assert word_succ(u, v) == word_succ_by_descents(u, v), (u, v)


def test_axiom_suite_weight_6():
    # the stated invariant scale: two symbols per weight, total weight <= 6
    assert check_word_shuffle_axioms(6) == []


def test_parse_and_render():
    w = parse_word("a1.b2.a1")
    assert str(w) == "a1.b2.a1"
    assert parse_word("a") == Word((Letter(1, 0),))
    assert parse_word("") == EMPTY_WORD
    assert parse_word("1") == EMPTY_WORD
    assert Word(tuple(Letter(it["weight"], it["symbol"]) for it in word_to_json(w))) == w


def test_parse_errors_carry_position():
    from shufflealg.words import WordParseError

    with pytest.raises(WordParseError) as err:
        parse_word("a1.?2")
    assert err.value.position == 3
