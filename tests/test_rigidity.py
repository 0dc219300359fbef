from fractions import Fraction

import pytest

from shufflealg.lincomb import LinComb
from shufflealg.biwords import Biword
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
    perturbed_presentation,
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
    enumerate_words,
    nested_prec_form,
    signed_reversal,
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
    assert any(v.axiom == "shuffle-axiom" for v in violations)


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
    assert any(v.axiom == "left-compatibility" and v.inputs == ("a", "a") for v in violations)


def test_structural_errors_rejected():
    with pytest.raises(PresentationError):
        Presentation({1: ["1"]}, {}, {})
    with pytest.raises(PresentationError):
        Presentation({1: ["a"], 2: ["a"]}, {}, {})
    with pytest.raises(PresentationError):
        Presentation({0: ["a"]}, {}, {})


def test_missing_entries_flagged():
    A = Presentation({1: ["a"], 2: ["m"]}, {}, {})
    axioms = {v.axiom for v in validate_presentation(A)}
    assert "prec-completeness" in axioms
    assert "coproduct-completeness" in axioms


def test_antipode_matches_word_antipode(shx4):
    alphabet = standard_alphabet(4, 2)
    for weight in range(1, 5):
        for w in enumerate_words(weight, alphabet):
            expected = LinComb(
                (str(key), c) for key, c in word_antipode(w).terms().items()
            )
            assert antipode(shx4, str(w)) == expected
            signed = LinComb((str(key), c) for key, c in signed_reversal(w).terms().items())
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
                    value = shx4.prec_lc(prim[part][idx], value)
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


def test_json_roundtrip(tmp_path, shx3):
    path = tmp_path / "shx.json"
    save_presentation(shx3, path)
    loaded = load_presentation(path)
    assert loaded.basis == shx3.basis
    assert loaded.prec_table == shx3.prec_table
    assert loaded.coproduct_table == shx3.coproduct_table
    again = presentation_from_json(presentation_to_json(shx3))
    assert again.prec_table == shx3.prec_table


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
    assert coords == {(("P", 2, 0),): Fraction(1, 2), (("P", 2, 1),): Fraction(-1, 2)}
    assert all(type(c) is Fraction for c in coords.values())
    assert decomp.evaluate() == LinComb.single("p")
    assert dict(primitive_decomposition(A, "s").terms.items()) == {
        (("P", 2, 0),): 1,
        (("P", 1, 0), ("P", 1, 0)): 1,
    }
