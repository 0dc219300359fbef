"""The generic probe route of the word and biword identity suites.

The suites probe each identity with one tuple per tuple of shapes, letters
(or degrees) pairwise distinct across the tuple.  The tests here check the
premise (the operations commute with letter and degree substitutions) and
compare the route with the exhaustive oracle: every word over two symbols
per weight and every biword with degrees in {1, 2}, bounded by weight.
"""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_golden
from shufflealg import biwords as B
from shufflealg import verify as V
from shufflealg import words as W
from shufflealg.cli import main
from shufflealg.biwords import (
    UNIT_BIWORD,
    Biword,
    biword_prec,
    biword_star,
    biword_succ,
    coproduct_prec,
    coproduct_succ,
    enumerate_biwords,
    generic_biword,
    hopf_coproduct,
)
from shufflealg.lincomb import LinComb
from shufflealg.words import (
    Letter,
    Word,
    deconcat,
    enumerate_words,
    standard_alphabet,
    word_antipode,
    word_prec,
)


def test_generic_biword():
    assert generic_biword((2, 3, 1)) == Biword((2, 3, 1), (1, 2, 3))
    assert generic_biword((2, 1), 4) == Biword((2, 1), (4, 5))
    assert generic_biword(()) == UNIT_BIWORD


def test_generic_tuples_are_distinct_across_the_tuple():
    a, b = V._word_probes(2, 3)[1]
    assert (a, b) == (Word((Letter(1, 1),)), Word((Letter(1, 2), Letter(1, 3))))
    x, y = V._biword_probes(2, 3)[1]
    assert (x, y) == (Biword((1,), (1,)), Biword((1, 2), (2, 3)))
    assert len(V._biword_probes(1, 4, unit=True)) == 1 + 1 + 2 + 6 + 24


def test_generic_tuple_counts():
    # compositions for words, permutations for biwords, total at most 5
    assert [len(V._word_probes(k, 5)) for k in (1, 2, 3)] == [31, 49, 31]
    assert [len(V._biword_probes(k, 5)) for k in (2, 3)] == [93, 37]


# -- naturality: the property the generic probes rest on -------------------------

words_of_small_weight = st.lists(
    st.builds(Letter, st.integers(1, 3), st.integers(0, 2)), max_size=4
).filter(lambda letters: sum(let.weight for let in letters) <= 5).map(lambda ls: Word(tuple(ls)))

small_biwords = st.integers(0, 3).flatmap(
    lambda k: st.tuples(
        st.permutations(range(1, k + 1)), st.lists(st.integers(1, 3), min_size=k, max_size=k)
    )
).map(lambda rows: Biword(tuple(rows[0]), tuple(rows[1])))


def _on_keys(fn):
    """Apply ``fn`` to each key of a combination, component-wise on tensors."""
    return lambda lc: lc.map_keys(lambda k: tuple(map(fn, k)) if type(k) is tuple else fn(k))


def _letter_substitution(generic, actual):
    """The letter substitution sending the generic tuple to the actual one."""
    letters = lambda ws: itertools.chain.from_iterable(ws)
    sub = dict(zip(letters(generic), letters(actual)))
    return _on_keys(lambda u: Word(tuple(sub[let] for let in u)))


def _degree_substitution(degrees):
    """The column-wise degree substitution sending degree j to degrees[j - 1]."""
    return _on_keys(lambda b: Biword(b.perm, tuple(degrees[d - 1] for d in b.deg)))


@settings(max_examples=60, deadline=None)
@given(words_of_small_weight, words_of_small_weight)
def test_word_operations_commute_with_letter_substitution(u, v):
    generic = V._generic_words((u.profile(), v.profile()))
    sigma = _letter_substitution(generic, (u, v))
    assert word_prec(u, v) == sigma(word_prec(*generic))
    for w, g in zip((u, v), generic):
        assert deconcat(w) == sigma(deconcat(g))
        assert word_antipode(w) == sigma(word_antipode(g))


@settings(max_examples=60, deadline=None)
@given(small_biwords, small_biwords)
def test_biword_operations_commute_with_degree_substitution(a, b):
    generic = V._generic_biwords((a.perm, b.perm))
    sigma = _degree_substitution(a.deg + b.deg)
    for op in (biword_prec, biword_succ, biword_star):
        assert op(a, b) == sigma(op(*generic))
    for x, g in zip((a, b), generic):
        assert hopf_coproduct(LinComb.single(x)) == sigma(hopf_coproduct(LinComb.single(g)))
        if not x.is_unit():
            assert coproduct_prec(x) == sigma(coproduct_prec(g))
            assert coproduct_succ(x) == sigma(coproduct_succ(g))


# -- generic probes against the exhaustive oracle ----------------------------------

def _words_up_to(max_weight: int, symbols: int = 2) -> list[Word]:
    alphabet = standard_alphabet(max(max_weight, 1), symbols)
    return [w for n in range(1, max_weight + 1) for w in enumerate_words(n, alphabet)]


def _biwords_up_to(max_weight: int, degrees=V.TEST_DEGREES) -> list[Biword]:
    return [b for n in range(1, max_weight + 1) for b in enumerate_biwords(n, degrees)]


def _bounded_tuples(pool, arity: int, bound: int) -> list[tuple]:
    """Tuples from ``pool`` of total weight at most ``bound``."""
    if arity == 0:
        return [()]
    return [
        (x,) + rest
        for x in pool
        if x.weight <= bound
        for rest in _bounded_tuples(pool, arity - 1, bound - x.weight)
    ]


def _exhaustive_word_probes(arity: int, max_weight: int) -> list[tuple]:
    return _bounded_tuples(_words_up_to(max_weight), arity, max_weight)


def _exhaustive_biword_probes(arity: int, max_weight: int, unit: bool = False) -> list[tuple]:
    pool = ([UNIT_BIWORD] if unit else []) + _biwords_up_to(max_weight)
    return _bounded_tuples(pool, arity, max_weight)


CHANGED_SUITES = ("shuffle-axioms", "dendriform", "bidendriform", "bialgebra", "tau")


def _verdict(report) -> str:
    if report:
        return "fail"
    return "pass" if report.checked else "empty"


def _verdicts(max_weight: int) -> dict:
    """Each suite's verdict on the generic and on the exhaustive probe route."""
    out = {"generic": {s: _verdict(V.SUITES[s](max_weight)) for s in CHANGED_SUITES}}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(V, "_word_probes", _exhaustive_word_probes)
        m.setattr(V, "_biword_probes", _exhaustive_biword_probes)
        out["exhaustive"] = {s: _verdict(V.SUITES[s](max_weight)) for s in CHANGED_SUITES}
    return out


def _expected(failing) -> dict:
    return {s: "fail" if s in failing else "pass" for s in CHANGED_SUITES}


def test_probe_routes_agree_on_the_real_operations():
    for n in range(1, 6):
        verdicts = _verdicts(n)
        assert verdicts["generic"] == verdicts["exhaustive"], n
        assert "fail" not in verdicts["generic"].values()
    assert verdicts["generic"] == _expected(())


def _dropping_the_last_prec_row(riffles):
    """The riffle row kernel ``riffles``, dropping the canonically last row of a < b."""
    def kernel(a, b, first_from_left):
        rows = riffles(a, b, first_from_left)
        return sorted(rows)[:-1] if first_from_left and len(rows) > 1 else rows

    return kernel


def _swapping_size_5_degrees(riffles):
    """The riffle row kernel ``riffles``, swapping the degrees of the first two
    columns of every size-5 row of a < b."""
    def kernel(a, b, first_from_left):
        rows = riffles(a, b, first_from_left)
        if not first_from_left or len(a[0]) + len(b[0]) < 5:
            return rows
        return [(perm, deg[1::-1] + deg[2:]) for perm, deg in rows]

    return kernel


def test_probe_routes_flag_the_same_dropped_riffle_term(monkeypatch):
    monkeypatch.setattr(B, "riffle_rows", _dropping_the_last_prec_row(B.riffle_rows))
    verdicts = _verdicts(5)
    assert verdicts["generic"] == verdicts["exhaustive"]
    assert verdicts["generic"] == _expected({"dendriform", "bidendriform", "bialgebra"})


def test_a_dropped_term_at_the_biword_level_still_fails_dendriform(monkeypatch):
    # the Hopf suites count riffle rows and never call biword_prec; the
    # dendriform axioms, on Biword combinations, still flag a fault there
    real_prec = B.biword_prec

    def prec_missing_a_term(a, b):
        out = real_prec(a, b)
        return out - LinComb.single(out.keys()[-1]) if len(out) > 1 else out

    monkeypatch.setattr(B, "biword_prec", prec_missing_a_term)
    assert _verdict(V.SUITES["dendriform"](5)) == "fail"


def test_only_generic_probes_catch_a_degree_swap(monkeypatch):
    # within weight 5 the exhaustive biwords of size 5 all have degree row
    # 11111, on which the swap is invisible
    monkeypatch.setattr(B, "riffle_rows", _swapping_size_5_degrees(B.riffle_rows))
    verdicts = _verdicts(5)
    assert verdicts["generic"] == _expected({"dendriform", "bidendriform", "bialgebra"})
    assert verdicts["exhaustive"] == _expected(())


@pytest.mark.parametrize("fault, planted", [
    ("drop-last-prec-row", _dropping_the_last_prec_row),
    ("swap-size-5-degrees", _swapping_size_5_degrees),
])
def test_hopf_suite_failure_text_under_planted_faults(monkeypatch, fault, planted):
    # pinned from the suites on Biword combinations, before they counted rows
    golden = load_golden("planted_fault_reports.json")
    monkeypatch.setattr(B, "riffle_rows", planted(B.riffle_rows))
    for suite in ("bidendriform", "bialgebra"):
        text = "\n".join(map(str, V.SUITES[suite](4)))
        assert text == golden["weight_4"][fault][suite], suite
        digest = hashlib.sha256("\n".join(map(str, V.SUITES[suite](5))).encode()).hexdigest()
        assert digest == golden["weight_5_sha256"][fault][suite], suite


def test_verify_text_reports_a_planted_fault_with_five_records(monkeypatch, capsys):
    monkeypatch.setattr(B, "riffle_rows", _dropping_the_last_prec_row(B.riffle_rows))
    failures = V.SUITES["bidendriform"](4)
    assert len(failures) > 5
    assert main(["verify", "bidendriform", "4"]) == 1
    out = capsys.readouterr().out
    assert out == "\n".join([
        f"FAIL: bidendriform up to weight 4: {len(failures)} violation(s)", *map(str, failures[:5])
    ]) + "\n"


def _dropping_the_last_cut(cuts):
    """The cut row kernel ``cuts``, dropping the last cut of every cut list
    longer than 1; it wraps only the output, whatever says where to cut."""
    def kernel(row, where):
        rows = cuts(row, where)
        return rows[:-1] if len(rows) > 1 else rows

    return kernel


def test_hopf_suite_failure_text_under_a_dropped_last_cut(monkeypatch):
    # pinned when only the counted halves took whole cut lists from the
    # kernel; coassociativity and the half-coproducts on Biword keys cut one
    # position at a time, out of the fault's reach, and now flag it as well
    golden = load_golden("planted_fault_reports.json")
    monkeypatch.setattr(B, "cut_rows", _dropping_the_last_cut(B.cut_rows))
    reached_now = ("hopf-coassociativity", "prec-coproduct of p_n")
    for weight in (4, 5):
        reports = {suite: V.SUITES[suite](weight) for suite in ("bialgebra", "bidendriform", "pn-coproduct")}
        # without the cut (x, 1), the left side loses every triple (a, 1, c) with a, c nonempty
        assert [f.inputs for f in reports["bialgebra"] if f.identity == reached_now[0]] == [
            probe for probe in V._biword_probes(1, weight) if probe[0].size >= 2
        ]
        # the identity biwords of p_n lose a cut from size 3 on
        assert [f.inputs for f in reports["pn-coproduct"]] == [(n,) for n in range(3, weight + 1)]
        for suite, report in reports.items():
            text = "\n".join(str(f) for f in report if f.identity not in reached_now)
            if weight == 4:
                assert text == golden["weight_4"]["drop-last-cut"][suite], suite
            else:
                digest = hashlib.sha256(text.encode()).hexdigest()
                assert digest == golden["weight_5_sha256"]["drop-last-cut"][suite], suite


def test_coassociativity_failures_render_triples_as_tensors(monkeypatch):
    # the test above leaves these records out of its goldens; a triple key
    # joins its legs with (x), as a pair does
    monkeypatch.setattr(B, "cut_rows", _dropping_the_last_cut(B.cut_rows))
    report = [f for f in V.SUITES["bialgebra"](4) if f.identity == "hopf-coassociativity"]
    assert str(report[0]) == (
        "hopf-coassociativity fails at (12|12):\n"
        "  lhs = 1 (x) 1 (x) 12|12 + 1 (x) 1|1 (x) 1|2\n"
        "  rhs = 1 (x) 1 (x) 12|12 + 1 (x) 1|1 (x) 1|2 + 1|1 (x) 1 (x) 1|2"
    )
    digest = hashlib.sha256("\n".join(map(str, report)).encode()).hexdigest()
    assert digest == "80aa0dfa81bc16587938b1cc2bfde1a4cc229e2fa0630a9d944ff25b38195bda"


def test_probe_routes_flag_the_same_repeated_letter_fault(monkeypatch):
    # a shuffle that counts each word once, so a1 sh a1 = a1.a1: wrong only on
    # words that repeat a letter, which the generic tuples never contain; on
    # the generic route the validation of the word presentation over two
    # symbols per weight, which both routes share, flags it
    real_shuffle = W.word_shuffle
    monkeypatch.setattr(
        W, "word_shuffle", lambda w, z: LinComb((k, 1) for k in real_shuffle(w, z).terms())
    )
    verdicts = _verdicts(5)
    assert verdicts["generic"] == verdicts["exhaustive"]
    assert verdicts["generic"] == _expected({"shuffle-axioms", "tau"})
