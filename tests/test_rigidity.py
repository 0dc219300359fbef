import hashlib
import json
import random
from fractions import Fraction

import pytest

from shufflealg import rigidity as R
from shufflealg import verify as V
from shufflealg import words as W
from shufflealg.lincomb import LinComb, bilinear_extend
from shufflealg.biwords import Biword
from oracles import antipode_by_recursion, nested_prec_form, perturbed_presentation, tables, validate_by_lincomb
from shufflealg.descent import p_n
from shufflealg.rigidity import (
    Presentation,
    PresentationError,
    RigidityError,
    UNIT_LABEL,
    antipode,
    biword_act,
    load_presentation,
    nested_word_count,
    presentation_from_json,
    presentation_to_json,
    primitive_basis,
    primitive_decomposition,
    save_presentation,
    shuffle_presentation,
    tau,
    validate_presentation,
)
from shufflealg.words import (
    Letter,
    enumerate_words,
    standard_alphabet,
    word_antipode,
)


@pytest.fixture(scope="module")
def shx3():
    return shuffle_presentation(standard_alphabet(3, 2), 3)


@pytest.fixture(scope="module")
def shx4():
    return shuffle_presentation(standard_alphabet(4, 2), 4)


def test_word_model_validates_clean(shx4):
    assert validate_presentation(shx4) == []


def test_perturbed_prec_breaks_shuffle_axiom(shx3):
    bad = perturbed_presentation(shx3, "a1", "a1", LinComb.single("a2"))
    violations = validate_presentation(bad)
    assert violations
    assert any(v.identity == "shuffle-axiom" for v in violations)
    assert violations.checked == 114
    assert [(v.identity, v.inputs) for v in violations] == [
        ("shuffle-axiom", ("a1", "a1", "a1")),
        ("shuffle-axiom", ("a1", "a1", "b1")),
        ("shuffle-axiom", ("b1", "a1", "a1")),
        ("left-compatibility", ("a1", "a1.a1")),
        ("left-compatibility", ("a1", "a1.b1")),
        ("left-compatibility", ("a1.a1", "a1")),
        ("left-compatibility", ("a1.b1", "a1")),
        ("left-compatibility", ("b1.a1", "a1")),
    ]


@pytest.mark.parametrize("weight, checked", [(4, 456), (5, 1806)])
def test_word_model_checked_counts(weight, checked):
    report = validate_presentation(shuffle_presentation(standard_alphabet(weight, 2), weight))
    assert report == []
    assert report.checked == checked


def test_word_model_takes_one_shuffle_per_rest_and_right_factor(monkeypatch):
    # u < v = u1 . (rest(u) sh v): the 568 label pairs at weight 5 share 216
    # shuffles, the empty rest included
    calls = []
    real_shuffle = W.word_shuffle
    monkeypatch.setattr(W, "word_shuffle", lambda w, z: calls.append((w, z)) or real_shuffle(w, z))
    A = shuffle_presentation(standard_alphabet(5, 2), 5)
    assert len(tables(A)[0]) == 568
    assert len(calls) == len(set(calls)) == 216


@pytest.mark.parametrize("weight", range(1, 7))
def test_word_model_json_matches_the_pinned_digest(golden, weight):
    body = presentation_to_json(shuffle_presentation(standard_alphabet(weight, 2), weight))
    digest = hashlib.sha256(json.dumps(body).encode()).hexdigest()
    assert digest == golden("word_model_json.json")["sha256"][str(weight)]


def test_validation_draws_label_tuples_by_weight(monkeypatch):
    # a loop over all label pairs (and pairs times labels) that skips the
    # tuples over the weight bound makes 3,077,284 weight_of calls here
    A = shuffle_presentation(standard_alphabet(6, 2), 6)
    calls = 0
    real_weight_of = Presentation.weight_of

    def counting_weight_of(self, label):
        nonlocal calls
        calls += 1
        return real_weight_of(self, label)

    monkeypatch.setattr(Presentation, "weight_of", counting_weight_of)
    report = validate_presentation(A)
    assert report.checked == 7044
    assert calls < 10 * report.checked


def test_validation_builds_few_lincombs(monkeypatch):
    # the kernels add table terms into dicts; a LinComb per lookup and per
    # sum built 8814 of them (both constructors) for the 1806 instances here
    A = shuffle_presentation(standard_alphabet(5, 2), 5)
    built = 0
    real_raw, real_init = LinComb._raw.__func__, LinComb.__init__

    def counting_raw(cls, data):
        nonlocal built
        built += 1
        return real_raw(cls, data)

    def counting_init(self, terms=None):
        nonlocal built
        built += 1
        real_init(self, terms)

    monkeypatch.setattr(LinComb, "_raw", classmethod(counting_raw))
    monkeypatch.setattr(LinComb, "__init__", counting_init)
    report = validate_presentation(A)
    assert report == [] and report.checked == 1806
    assert built <= 2 * report.checked


def _faulted_copy(A, rng):
    """A copy of A with one or two half-product or coproduct entries shifted:
    by minus an existing term (which cancels it), by minus twice one (which
    flips its sign, so that sums over the entry cancel to zero at some keys),
    or by a multiple of a term of the right weight."""
    prec, coproduct = tables(A)
    for _ in range(rng.randint(1, 2)):
        table = rng.choice((prec, coproduct))
        key = rng.choice(sorted(table))
        terms = table[key].terms()
        if terms and rng.random() < 0.5:
            term = rng.choice(sorted(terms, key=str))
            delta = LinComb.single(term, -terms[term] * rng.choice((1, 2)))
        else:
            weight = sum(map(A.weight_of, key)) if table is prec else A.weight_of(key)
            if table is prec:
                term = rng.choice(A.basis[weight])
            else:
                left = rng.randint(0, weight)
                term = tuple(rng.choice(A.basis.get(w, [UNIT_LABEL])) for w in (left, weight - left))
            delta = LinComb.single(term, rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-3, 2))))
        table[key] = table[key] + delta
    return Presentation(A.basis, prec, coproduct)


def test_validator_matches_the_lincomb_oracle_on_faulted_copies():
    rng = random.Random(20140)
    models = [shuffle_presentation(standard_alphabet(w, 2), w) for w in (3, 4)]
    identities = set()
    for i in range(120):
        bad = _faulted_copy(models[i % 2], rng)
        fast, slow = validate_presentation(bad), validate_by_lincomb(bad)
        assert fast.checked == slow.checked
        assert [str(f) for f in fast] == [str(f) for f in slow]
        identities.update(f.identity for f in fast)
    assert {"counit-left", "counit-right", "coassociativity", "shuffle-axiom", "left-compatibility"} <= identities


def _one_letter_model(prec, coproduct):
    """The words a1, a1.a1, a1.a1.a1 with some table entries replaced."""
    A = shuffle_presentation({1: 1}, 3)
    base_prec, base_coproduct = tables(A)
    return Presentation(A.basis, {**base_prec, **prec}, {**base_coproduct, **coproduct})


def _cuts(*pairs):
    return LinComb(dict.fromkeys(pairs, 1))


@pytest.mark.parametrize("identity, prec, coproduct, inputs", [
    ("prec-grading", {("a1", "a1"): LinComb.single("a1")}, {}, ("a1", "a1")),
    (
        "coproduct-grading", {},
        {"a1.a1": _cuts(("1", "a1.a1"), ("a1", "a1"), ("a1.a1", "1"), ("a1", "1"))}, ("a1.a1",),
    ),
    ("counit-left", {}, {"a1": _cuts(("a1", "1"))}, ("a1",)),
    ("counit-right", {}, {"a1": _cuts(("1", "a1"))}, ("a1",)),
    # the cut a1 (x) a1.a1 dropped: counital, but not coassociative
    (
        "coassociativity", {},
        {"a1.a1.a1": _cuts(("1", "a1.a1.a1"), ("a1.a1", "a1"), ("a1.a1.a1", "1"))}, ("a1.a1.a1",),
    ),
])
def test_validator_reports_each_planted_fault(identity, prec, coproduct, inputs):
    assert validate_presentation(_one_letter_model({}, {})) == []
    report = validate_presentation(_one_letter_model(prec, coproduct))
    assert [v.inputs for v in report if v.identity == identity] == [inputs]


def test_zero_prec_table_breaks_left_compatibility():
    # one letter, all products zero, coproducts primitive
    basis = {1: ["a"], 2: ["m"]}
    zero = LinComb.zero()
    prec = {("a", "a"): zero, ("a", "m"): zero, ("m", "a"): zero}
    coproduct = {
        "a": LinComb({(UNIT_LABEL, "a"): 1, ("a", UNIT_LABEL): 1}),
        "m": LinComb({(UNIT_LABEL, "m"): 1, ("m", UNIT_LABEL): 1}),
    }
    A = Presentation(basis, prec, coproduct)
    violations = validate_presentation(A)
    assert any(v.identity == "left-compatibility" and v.inputs == ("a", "a") for v in violations)


def test_structural_errors_rejected():
    with pytest.raises(PresentationError):
        Presentation({1: ["1"]}, {}, {})
    with pytest.raises(PresentationError):
        Presentation({1: ["a"], 2: ["a"]}, {}, {})
    with pytest.raises(PresentationError):
        Presentation({0: ["a"]}, {}, {})


@pytest.mark.parametrize("prec, coproduct", [
    ({("a", UNIT_LABEL): LinComb.single("a")}, {}),
    ({("a", "a"): LinComb.single(UNIT_LABEL)}, {}),
    ({}, {UNIT_LABEL: LinComb.single((UNIT_LABEL, UNIT_LABEL))}),
])
def test_an_entry_naming_the_unit_is_rejected(prec, coproduct):
    # the unit rows are the presentation's own; a given entry may not name the unit
    with pytest.raises(PresentationError) as err:
        Presentation({1: ["a"], 2: ["m"]}, prec, coproduct)
    assert str(err.value) == "the unit cannot appear here"


def test_the_unit_rows_answer_through_prec_and_coproduct(shx3):
    assert shx3.prec("a1", UNIT_LABEL) == LinComb.single("a1")
    assert shx3.prec(UNIT_LABEL, "a1").is_zero() and shx3.prec(UNIT_LABEL, UNIT_LABEL).is_zero()
    assert shx3.coproduct(UNIT_LABEL) == LinComb.single((UNIT_LABEL, UNIT_LABEL))


@pytest.mark.parametrize("read, message", [
    (lambda A: A.prec("a1", "zz"), "missing half-product entry ('a1', 'zz')"),
    (lambda A: A.coproduct("zz"), "missing coproduct entry for 'zz'"),
    # a label outside the basis has no unit row either
    (lambda A: A.prec("zz", UNIT_LABEL), "missing half-product entry ('zz', '1')"),
    (lambda A: A.prec(UNIT_LABEL, "zz"), "missing half-product entry ('1', 'zz')"),
])
def test_a_missing_entry_is_named(shx3, read, message):
    with pytest.raises(PresentationError) as err:
        read(shx3)
    assert str(err.value) == message


def test_missing_entries_flagged():
    A = Presentation({1: ["a"], 2: ["m"]}, {}, {})
    axioms = {v.identity for v in validate_presentation(A)}
    assert "prec-completeness" in axioms
    assert "coproduct-completeness" in axioms


def test_antipode_matches_word_antipode(shx4):
    alphabet = standard_alphabet(4, 2)
    for weight in range(1, 5):
        for w in enumerate_words(weight, alphabet):
            expected = LinComb(
                (str(key), c) for key, c in antipode_by_recursion(w).terms().items()
            )
            assert antipode(shx4, str(w)) == expected
            signed = LinComb((str(key), c) for key, c in word_antipode(w).terms().items())
            assert expected == signed


def test_antipode_unit_and_primitive(shx4):
    assert antipode(shx4, UNIT_LABEL) == LinComb.single(UNIT_LABEL)
    assert antipode(shx4, "a1") == LinComb.single("a1", -1)


def test_tau_fixes_primitives_kills_products(shx4):
    assert tau(shx4, "a1") == LinComb.single("a1")
    assert tau(shx4, "a3") == LinComb.single("a3")
    for label in shx4.labels():
        expected = (
            LinComb.single(label) if "." not in label else LinComb.zero()
        )
        assert tau(shx4, label) == expected


def test_tau_idempotent_and_kills_prec_products(shx4):
    for label in shx4.labels():
        image = tau(shx4, label)
        assert tau(shx4, image) == image
    # tau annihilates x < y for nonunit x, y
    for x in ("a1", "b1", "a2"):
        for y in ("a1", "a2", "b2"):
            if shx4.weight_of(x) + shx4.weight_of(y) > 4:
                continue
            assert tau(shx4, shx4.prec(x, y)).is_zero()


def test_primitive_basis_is_letter_span(shx3):
    prim = primitive_basis(shx3)
    for w in (1, 2, 3):
        letters = [label for label in shx3.basis[w] if "." not in label]
        assert len(prim[w]) == len(letters) == 2
        span_keys = {key for row in prim[w] for key in row.terms()}
        assert span_keys == set(letters)


def test_primitive_basis_without_weight_one():
    A = shuffle_presentation({2: 1}, 4)
    prim = primitive_basis(A)
    assert prim.get(1, []) == []
    assert len(prim[2]) == 1
    assert len(prim.get(4, [])) == 0  # a2.a2 is not primitive


def test_decomposition_matches_nested_form(shx4):
    alphabet = standard_alphabet(4, 2)
    for weight in range(1, 5):
        for w in enumerate_words(weight, alphabet):
            decomp = primitive_decomposition(shx4, str(w))
            assert decomp.evaluate() == LinComb.single(str(w))
            assert len(decomp.terms) == 1
            ((pid_word, coeff),) = decomp.terms.items()
            assert coeff == 1
            assert len(pid_word) == len(w)
            assert str(decomp) == str(nested_prec_form(w))


def test_decomposition_of_primitive_label(shx4):
    decomp = primitive_decomposition(shx4, "b3")
    assert str(decomp) == "b3"
    assert decomp.evaluate() == LinComb.single("b3")


def test_decomposition_rendering(shx4):
    decomp = primitive_decomposition(shx4, "a1.b1.a2")
    assert str(decomp) == "a1<(b1<(a2))"


def test_nested_word_counts_match_dimensions(shx4):
    prim = primitive_basis(shx4)
    dims = {w: len(rows) for w, rows in prim.items()}
    for w in range(1, 5):
        assert nested_word_count(dims, w) == len(shx4.basis[w])


def test_all_nested_words_independent(shx4):
    # rigidity at desk scale: evaluated nested words of each weight span the
    # full weight component with independent values
    from shufflealg.linalg import rank_of
    from shufflealg.words import compositions

    prim = primitive_basis(shx4)
    for weight in range(1, 5):
        values = []
        for comp in compositions(weight):
            pools = [list(range(len(prim[part]))) for part in comp]
            import itertools

            for choice in itertools.product(*pools):
                value = prim[comp[-1]][choice[-1]]
                for part, idx in zip(reversed(comp[:-1]), reversed(choice[:-1])):
                    value = bilinear_extend(shx4.prec, prim[part][idx], value)
                values.append(value)
        assert rank_of(values) == len(shx4.basis[weight]) == len(values)


def test_perturbed_presentation_fails_decomposition(shx3):
    bad = perturbed_presentation(shx3, "a1", "a1", LinComb.single("a2"))
    with pytest.raises(RigidityError):
        primitive_decomposition(bad, "a1.a1.a1")


def test_biword_action_transport(shx3):
    total = LinComb.zero()
    for bw, c in p_n(2).terms().items():
        total = total + biword_act(shx3, bw, "a1.b1") * c
    assert total == LinComb.single("a1.b1")
    assert biword_act(shx3, Biword((1, 2), (1, 1)), "a1.b1") == LinComb.single("a1.b1")
    assert biword_act(shx3, Biword((2, 1), (1, 1)), "a1.b1") == LinComb.single("b1.a1")
    assert biword_act(shx3, Biword((1,), (2,)), "a1.b1").is_zero()


def _transport_failures(A):
    """The labels of A on which pi_n, acting through the primitive
    realization, is not the primitive projector, and those on which the
    terms of p_n do not sum to the identity (n the label's weight)."""
    not_tau, not_identity = [], []
    for label in A.labels():
        n = A.weight_of(label)
        if biword_act(A, Biword((1,), (n,)), label) != tau(A, label):
            not_tau.append(label)
        acted = LinComb.sum((biword_act(A, b, label), c) for b, c in p_n(n).items())
        if acted != LinComb.single(label):
            not_identity.append(label)
    return not_tau, not_identity


@pytest.fixture(scope="module")
def transport_models(shx4):
    return [shx4, shuffle_presentation({1: 3, 2: 1}, 4)]


def test_transported_action_on_every_label(transport_models, half_coordinates):
    models = [*transport_models, half_coordinates]
    assert sum(len(A.labels()) for A in models) == 239
    for A in models:
        assert _transport_failures(A) == ([], [])


def test_transported_action_goes_through_the_one_action_rule(transport_models, monkeypatch):
    # without its weight check, every identity biword of p_n acts on every
    # word of its size, so a word of k primitive letters is counted once per
    # composition of n into k parts
    def act_letters_without_weights(perm, deg, letters):
        return tuple(letters[v - 1] for v in perm) if len(perm) == len(letters) else None

    monkeypatch.setattr(R, "act_letters", act_letters_without_weights)
    for A in transport_models:
        assert _transport_failures(A)[1]


def test_the_rigidity_roundtrip_evaluates_every_decomposition(monkeypatch):
    # a decomposition that does not evaluate back to its label is a failure:
    # with every word of three or more primitives evaluating to 0, the 48
    # labels of three or more letters fail
    real = R.PrimitiveDecomposition.evaluate_word
    monkeypatch.setattr(
        R.PrimitiveDecomposition, "evaluate_word",
        lambda self, letters: LinComb.zero() if len(letters) >= 3 else real(self, letters),
    )
    report = V.check_rigidity(4)
    assert (report.checked, len(report)) == (540, 48)
    assert {f.identity for f in report} == {"decomposition-roundtrip"}
    assert report[0].inputs == ("a1.a1.a1",)


def test_json_roundtrip(tmp_path, shx3):
    path = tmp_path / "shx.json"
    save_presentation(shx3, path)
    loaded = load_presentation(path)
    assert loaded.basis == shx3.basis
    assert tables(loaded) == tables(shx3)
    again = presentation_from_json(presentation_to_json(shx3))
    assert tables(again)[0] == tables(shx3)[0]


def test_decomposition_with_non_integer_coordinates_is_exact():
    # weight 2 has a decomposable label s with u < u = s - 2p - q and the
    # primitive labels p, q; tau(s) = 2p + q is the first echelon row, so p
    # has the coordinates (1/2, -1/2) in the rows (2p + q, q)
    two_sided = lambda label: {(label, UNIT_LABEL): 1, (UNIT_LABEL, label): 1}
    A = Presentation(
        basis={1: ["u"], 2: ["s", "p", "q"]},
        prec={("u", "u"): LinComb({"s": 1, "p": -2, "q": -1})},
        coproduct={
            "u": LinComb(two_sided("u")),
            "s": LinComb({**two_sided("s"), ("u", "u"): 1}),
            "p": LinComb(two_sided("p")),
            "q": LinComb(two_sided("q")),
        },
    )
    assert validate_presentation(A) == []
    assert primitive_basis(A)[2] == [LinComb({"p": 2, "q": 1}), LinComb({"q": 1})]
    decomp = primitive_decomposition(A, "p")
    coords = dict(decomp.terms.items())
    assert coords == {(Letter(2, 0),): Fraction(1, 2), (Letter(2, 1),): Fraction(-1, 2)}
    assert {type(p) for word in coords for p in word} == {Letter}
    assert all(type(c) is Fraction for c in coords.values())
    assert decomp.evaluate() == LinComb.single("p")
    assert dict(primitive_decomposition(A, "s").terms.items()) == {
        (Letter(2, 0),): 1,
        (Letter(1, 0), Letter(1, 0)): 1,
    }


def test_decomposition_text_names_the_primitives(half_coordinates):
    # the primitive rows are 2p + q and q: a row with one term under
    # coefficient 1 is named by its label, any other as P<weight>.<index>;
    # words nest as right-nested <
    assert str(primitive_decomposition(half_coordinates, "p")) == "1/2*P2.0 - 1/2*q"
    assert str(primitive_decomposition(half_coordinates, "s")) == "u<(u) + P2.0"


def test_decomposition_text_keeps_a_label_with_a_sign_in_it():
    label = "p+ -q"
    A = presentation_from_json({
        "basis": {"1": [label]},
        "prec": [[label, label, []]],
        "coproduct": [[label, [["1", label, "1"], [label, "1", "1"]]]],
    })
    assert str(primitive_decomposition(A, label)) == label


def test_perturbed_prec_failure_text(shx3):
    bad = perturbed_presentation(shx3, "a1", "a1", LinComb.single("a2"))
    assert [str(v) for v in validate_presentation(bad)] == [
        "shuffle-axiom fails at (a1, a1, a1):\n"
        "  lhs = 2*a1.a1.a1 + a2.a1\n"
        "  rhs = 2*a1.a1.a1 + 2*a1.a2",
        "shuffle-axiom fails at (a1, a1, b1):\n"
        "  lhs = a1.a1.b1 + a1.b1.a1 + a2.b1\n"
        "  rhs = a1.a1.b1 + a1.b1.a1",
        "shuffle-axiom fails at (b1, a1, a1):\n"
        "  lhs = 2*b1.a1.a1\n"
        "  rhs = 2*b1.a1.a1 + 2*b1.a2",
        "left-compatibility fails at (a1, a1.a1):\n"
        "  lhs = 1 (x) a1.a1.a1 + a1 (x) a1.a1 + a1.a1 (x) a1 + a1.a1.a1 (x) 1\n"
        "  rhs = 1 (x) a1.a1.a1 + a1 (x) a1.a1 + a1.a1 (x) a1 + a1.a1.a1 (x) 1 + a2 (x) a1",
        "left-compatibility fails at (a1, a1.b1):\n"
        "  lhs = 1 (x) a1.a1.b1 + a1 (x) a1.b1 + a1.a1 (x) b1 + a1.a1.b1 (x) 1\n"
        "  rhs = 1 (x) a1.a1.b1 + a1 (x) a1.b1 + a1.a1 (x) b1 + a1.a1.b1 (x) 1 + a2 (x) b1",
        "left-compatibility fails at (a1.a1, a1):\n"
        "  lhs = 2*1 (x) a1.a1.a1 + 2*a1 (x) a1.a1 + 2*a1.a1 (x) a1 + 2*a1.a1.a1 (x) 1\n"
        "  rhs = 2*1 (x) a1.a1.a1 + 2*a1 (x) a1.a1 + 2*a1 (x) a2 + 2*a1.a1 (x) a1"
        " + 2*a1.a1.a1 (x) 1 + a2 (x) a1",
        "left-compatibility fails at (a1.b1, a1):\n"
        "  lhs = 1 (x) a1.a1.b1 + 1 (x) a1.b1.a1 + a1 (x) a1.b1 + a1 (x) b1.a1 + a1.a1 (x) b1"
        " + a1.a1.b1 (x) 1 + a1.b1 (x) a1 + a1.b1.a1 (x) 1\n"
        "  rhs = 1 (x) a1.a1.b1 + 1 (x) a1.b1.a1 + a1 (x) a1.b1 + a1 (x) b1.a1 + a1.a1 (x) b1"
        " + a1.a1.b1 (x) 1 + a1.b1 (x) a1 + a1.b1.a1 (x) 1 + a2 (x) b1",
        "left-compatibility fails at (b1.a1, a1):\n"
        "  lhs = 2*1 (x) b1.a1.a1 + 2*b1 (x) a1.a1 + 2*b1.a1 (x) a1 + 2*b1.a1.a1 (x) 1\n"
        "  rhs = 2*1 (x) b1.a1.a1 + 2*b1 (x) a1.a1 + 2*b1 (x) a2 + 2*b1.a1 (x) a1 + 2*b1.a1.a1 (x) 1",
    ]


def _one_coefficient(text):
    return {"basis": {"1": ["a"]}, "prec": [["a", "a", []]], "coproduct": [["a", [["1", "a", text]]]]}


@pytest.mark.parametrize("text", ["3", "-1", "+2", " 3 ", "1_0", "3/4", "1.5", "1e3", 7])
def test_loaded_coefficient_is_the_exact_number(text):
    A = presentation_from_json(_one_coefficient(text))
    (coeff,) = A.coproduct("a").terms().values()
    assert coeff == Fraction(text)
    assert type(coeff) is (int if Fraction(text).denominator == 1 else Fraction)


@pytest.mark.parametrize("text", ["1/0", "x", "1/2/3", 0.5, 2.0, "1e100000000", "1e-100000000"])
def test_inexact_or_malformed_coefficient_fails_to_load(text):
    with pytest.raises(PresentationError, match="not an exact number"):
        presentation_from_json(_one_coefficient(text))
