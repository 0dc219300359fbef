from itertools import permutations
from math import comb

import pytest

from conftest import biword_combination, load_golden
from oracles import biword_prec_by_descents, biword_succ_by_descents, coassociativity_sides, standardize
from shufflealg.lincomb import LinComb
from shufflealg.biwords import (
    UNIT_BIWORD,
    Biword,
    BiwordParseError,
    biword_prec,
    biword_star,
    biword_succ,
    biword_to_json,
    biword_tuple,
    coproduct_prec,
    coproduct_succ,
    cut_rows,
    enumerate_biwords,
    enumerate_biwords_by_size,
    generic_biword,
    hopf_coproduct,
    internal_compose,
    parse_biword,
    render_biword,
)
from shufflealg.series import biword_count_series
from shufflealg import verify as V
from shufflealg.verify import check_biword_bialgebra, check_biword_bidendriform, check_biword_dendriform


def test_standardize():
    assert standardize((3, 1)) == (2, 1)
    assert standardize(range(1, 5)) == (1, 2, 3, 4)
    assert standardize((3, 1, 4)) == (2, 1, 3)


def test_standardize_rejects_repeats():
    with pytest.raises(ValueError):
        standardize((2, 2))


def test_biword_validation():
    with pytest.raises(ValueError):
        Biword((1, 3), (1, 1))
    with pytest.raises(ValueError):
        Biword((1,), (0,))
    with pytest.raises(ValueError):
        Biword((1, 2), (1,))


def test_biword_value_contract():
    # a biword holds its row (perm, deg): hash and equality are the row's,
    # against biwords only
    b = Biword(perm=(2, 1), deg=(1, 3))
    assert b.row == ((2, 1), (1, 3)) and hash(b) == hash(b.row)
    assert b != b.row and b.__eq__(b.row) is NotImplemented
    assert Biword([2, 1], [1, 3]) == b and hash(Biword([2, 1], [1, 3])) == hash(b)  # rows become tuples
    assert Biword([2, 1], [1, 3]).row == b.row
    assert b != Biword((2, 1), (3, 1)) and b != Biword((1, 2), (1, 3))
    assert repr(b) == "Biword(perm=(2, 1), deg=(1, 3))"
    assert repr(UNIT_BIWORD) == "Biword(perm=(), deg=())"
    for change in (
        lambda: setattr(b, "perm", (1, 2)),
        lambda: setattr(b, "weight", 0),
        lambda: delattr(b, "deg"),
        lambda: delattr(b, "weight"),
    ):
        with pytest.raises(AttributeError):
            change()
    assert (b.perm, b.deg, b.weight) == ((2, 1), (1, 3), 4)


def test_worked_products_match_golden():
    golden = load_golden("biword_products.json")
    for kind, fn in (("prec", biword_prec), ("succ", biword_succ)):
        case = golden[kind]
        lhs = parse_biword(case["lhs"])
        rhs = parse_biword(case["rhs"])
        assert fn(lhs, rhs) == biword_combination(case["expected"])


def test_star_is_union_of_halves():
    golden = load_golden("biword_products.json")
    lhs = parse_biword(golden["prec"]["lhs"])
    rhs = parse_biword(golden["prec"]["rhs"])
    expected = biword_combination(golden["prec"]["expected"]) + biword_combination(
        golden["succ"]["expected"]
    )
    assert biword_star(lhs, rhs) == expected
    assert len(biword_star(lhs, rhs)) == comb(4, 2)


def test_prec_simple_cases():
    x = Biword((1,), (1,))
    y = Biword((1,), (2,))
    assert biword_prec(x, y) == LinComb.single(Biword((1, 2), (1, 2)))
    assert biword_succ(x, y) == LinComb.single(Biword((2, 1), (2, 1)))


def test_product_unit_conventions():
    x = Biword((2, 1), (1, 1))
    assert biword_prec(x, UNIT_BIWORD) == LinComb.single(x)
    assert biword_prec(UNIT_BIWORD, x).is_zero()
    assert biword_prec(UNIT_BIWORD, UNIT_BIWORD).is_zero()
    assert biword_succ(UNIT_BIWORD, x) == LinComb.single(x)
    assert biword_succ(x, UNIT_BIWORD).is_zero()
    assert biword_star(UNIT_BIWORD, x) == LinComb.single(x)
    assert biword_star(x, UNIT_BIWORD) == LinComb.single(x)
    assert biword_star(UNIT_BIWORD, UNIT_BIWORD) == LinComb.single(UNIT_BIWORD)


def test_prec_term_count():
    a = Biword((1, 2), (1, 1))
    b = Biword((2, 1, 3), (1, 1, 1))
    assert len(biword_prec(a, b)) == comb(4, 3)
    assert len(biword_star(a, b)) == comb(5, 2)


def test_descents_oracle_agrees():
    pool = [UNIT_BIWORD]
    for w in (1, 2, 3):
        pool.extend(enumerate_biwords(w, (1, 2)))
    for x in pool:
        for y in pool:
            if x.weight + y.weight > 4:
                continue
            assert biword_prec(x, y) == biword_prec_by_descents(x, y), (x, y)
            assert biword_succ(x, y) == biword_succ_by_descents(x, y), (x, y)


def test_worked_coproducts_match_golden():
    golden = load_golden("half_coproducts.json")
    x = parse_biword(golden["input"])
    for kind, fn in (("prec", coproduct_prec), ("succ", coproduct_succ)):
        expected = LinComb.zero()
        for left, right, coeff in golden[kind]:
            expected = expected + LinComb.single(
                (parse_biword(left), parse_biword(right)), int(coeff)
            )
        assert fn(x) == expected


def test_coproduct_small_cases():
    assert coproduct_prec(Biword((1,), (1,))).is_zero()
    assert coproduct_prec(Biword((1, 2), (1, 2))) == LinComb.single(
        (Biword((1,), (1,)), Biword((1,), (2,)))
    )
    assert coproduct_succ(Biword((1, 2), (1, 1))).is_zero()
    assert coproduct_succ(Biword((2, 1), (1, 2))) == LinComb.single(
        (Biword((1,), (1,)), Biword((1,), (2,)))
    )


def test_coproduct_rejects_unit():
    with pytest.raises(ValueError):
        coproduct_prec(UNIT_BIWORD)
    with pytest.raises(ValueError):
        coproduct_succ(UNIT_BIWORD)


def test_hopf_coproduct():
    unit = LinComb.single(UNIT_BIWORD)
    assert hopf_coproduct(unit) == LinComb.single((UNIT_BIWORD, UNIT_BIWORD))
    single = Biword((1,), (1,))
    assert hopf_coproduct(LinComb.single(single)) == LinComb(
        {(single, UNIT_BIWORD): 1, (UNIT_BIWORD, single): 1}
    )
    x = Biword((1, 2), (1, 2))
    assert hopf_coproduct(LinComb.single(x)) == LinComb(
        {
            (x, UNIT_BIWORD): 1,
            (UNIT_BIWORD, x): 1,
            (Biword((1,), (1,)), Biword((1,), (2,))): 1,
        }
    )


def test_internal_compose_worked_example():
    result = internal_compose(Biword((3, 1, 2), (1, 1, 1)), Biword((1, 3, 2), (1, 1, 1)))
    assert result == LinComb.single(Biword((2, 1, 3), (1, 1, 1)))


def test_internal_compose_identity():
    x = Biword((3, 1, 2), (2, 1, 1))
    ident = Biword((1, 2, 3), x.deg)
    assert internal_compose(ident, x) == LinComb.single(x)


def test_internal_compose_annihilation():
    assert internal_compose(Biword((1, 2), (1, 1)), Biword((1, 2, 3), (1, 1, 1))).is_zero()
    # same size, incompatible degrees
    assert internal_compose(Biword((2, 1), (1, 2)), Biword((1, 2), (1, 1))).is_zero()


def test_internal_compose_associative():
    pool = []
    for k in (0, 1, 2, 3):
        pool.extend(enumerate_biwords_by_size(k, (1, 2)))
    for x in pool:
        for y in pool:
            xy = internal_compose(x, y)
            for z in pool:
                lhs = LinComb.zero()
                for k, c in xy.terms().items():
                    lhs = lhs + internal_compose(k, z) * c
                rhs = LinComb.zero()
                for k, c in internal_compose(y, z).terms().items():
                    rhs = rhs + internal_compose(x, k) * c
                assert lhs == rhs, (x, y, z)


def test_counts_match_series():
    r = biword_count_series()
    for n in range(7):
        assert len(enumerate_biwords(n)) == r[n]


def test_enumeration_has_no_duplicates():
    for n in range(5):
        pool = enumerate_biwords(n)
        assert len(set(pool)) == len(pool)


def test_dendriform_axioms_weight_5():
    assert check_biword_dendriform(5) == []


def test_bidendriform_compatibilities_weight_4():
    assert check_biword_bidendriform(4) == []


def test_bialgebra_weight_5():
    assert check_biword_bialgebra(5) == []


def test_counted_coassociativity_matches_the_lincomb_route():
    # the bialgebra suite counts both sides over cut rows; the oracle applies
    # hopf_coproduct to either leg of a combination of Biword pairs
    def cop(b):
        return hopf_coproduct(LinComb.single(b))

    probes = V._biword_probes(1, 5, unit=True)
    assert probes[0] == (UNIT_BIWORD,) and len(probes) == 1 + 1 + 2 + 6 + 24 + 120
    for (x,) in probes:
        counted = V._coassociativity_counts((x.perm, x.deg))
        keyed = [{biword_tuple(rows): c for rows, c in side.items()} for side in counted]
        assert keyed == [side.terms() for side in coassociativity_sides(cop(x), cop)], x


def test_render_and_parse():
    x = Biword((3, 1, 4, 2), (1, 2, 3, 4))
    assert render_biword(x) == "3142|1234"
    assert parse_biword("3142|1234") == x
    assert parse_biword("3,1,4,2|1,2,3,4") == x
    assert parse_biword("12|ab") == Biword((1, 2), (1, 2))
    assert parse_biword("") == UNIT_BIWORD
    assert parse_biword("1") == UNIT_BIWORD
    assert render_biword(UNIT_BIWORD) == "1"
    big = Biword(tuple(range(1, 11)), tuple([1] * 10))
    assert parse_biword(render_biword(big)) == big


def test_parse_errors():
    with pytest.raises(BiwordParseError):
        parse_biword("12")
    with pytest.raises(BiwordParseError) as err:
        parse_biword("12|1x")
    assert err.value.position == 4
    with pytest.raises(BiwordParseError):
        parse_biword("13|11")


def test_json_roundtrip():
    x = Biword((2, 1), (5, 1))
    obj = biword_to_json(x)
    assert Biword(tuple(obj["perm"]), tuple(obj["deg"])) == x


def test_cut_standardizes_both_halves():
    for size in range(7):
        for perm in permutations(range(1, size + 1)):
            a = generic_biword(perm)
            cuts = cut_rows((a.perm, a.deg), "full")
            assert len(cuts) == size + 1
            for k, rows in enumerate(cuts):
                left, right = biword_tuple(rows)
                assert left == Biword(standardize(perm[:k]), a.deg[:k]), (perm, k)
                assert right == Biword(standardize(perm[k:]), a.deg[k:]), (perm, k)
                assert (left.weight, right.weight) == (sum(a.deg[:k]), sum(a.deg[k:]))
