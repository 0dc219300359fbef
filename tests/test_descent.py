import importlib
import json
import pkgutil
import random
from fractions import Fraction
from math import comb

import pytest

import shufflealg
from conftest import biword_combination, load_golden
from oracles import bst_class_by_recursion, contains, coproduct_image, exp_prec, prim_dend_dimension
from shufflealg.lincomb import LinComb
from shufflealg.biwords import (
    UNIT_BIWORD,
    Biword,
    biword_prec_lc,
    biword_star_lc,
    biword_succ_lc,
    coproduct_prec_lc,
    coproduct_succ_lc,
    enumerate_biwords,
    internal_compose_lc,
)
from shufflealg import descent as D
from shufflealg.cli import main
from shufflealg.descent import (
    DendMonomial,
    biword_count,
    bst_class,
    convolution_inverse,
    descd_class_dimension,
    descd_classes,
    descd_dimension,
    descd_membership,
    descd_spanning_set,
    dimension_report,
    identity_series,
    p_n,
    pi_composite,
    pi_n,
    prec_logarithm,
    tree_class,
)
from shufflealg.linalg import rank_of
from shufflealg.series import descent_dim_series_closed, primitive_dim_series
from shufflealg.verify import check_idempotents, check_pi_primitive, check_pn_coproducts
from shufflealg.words import compositions


def test_p_small():
    assert p_n(0) == LinComb.single(UNIT_BIWORD)
    assert p_n(1) == LinComb.single(Biword((1,), (1,)))
    assert p_n(2) == biword_combination([["1|2", 1], ["12|11", 1]])
    assert p_n(3) == biword_combination(
        [["1|3", 1], ["12|12", 1], ["12|21", 1], ["123|111", 1]]
    )


def test_p_n_term_count():
    for n in range(1, 8):
        assert len(p_n(n)) == 2 ** (n - 1)


def test_pi_routes_agree():
    for n in range(1, 11):
        closed = pi_n(n, "closed")
        assert closed == LinComb.single(Biword((1,), (n,)))
        assert pi_n(n, "alternating") == closed
        assert pi_n(n, "recursive") == closed


def test_pi_alternating_n2_unrolled():
    from shufflealg.biwords import biword_prec_lc

    assert p_n(2) - biword_prec_lc(p_n(1), p_n(1)) == pi_n(2)


def test_pi_rejects_bad_input():
    with pytest.raises(ValueError):
        pi_n(0)
    with pytest.raises(ValueError):
        pi_n(3, route="sideways")


def test_pi_composite():
    assert pi_composite((3,)) == LinComb.single(Biword((1,), (3,)))
    assert pi_composite((1, 1)) == LinComb.single(Biword((1, 2), (1, 1)))
    # the nested idempotent is the identity biword with those degrees
    assert pi_composite((2, 1, 3)) == LinComb.single(Biword((1, 2, 3), (2, 1, 3)))


def test_pi_composite_completeness():
    for n in range(1, 6):
        total = LinComb.zero()
        for comp in compositions(n):
            total = total + pi_composite(comp)
        assert total == p_n(n)


def test_pi_composite_rejects_empty():
    with pytest.raises(ValueError):
        pi_composite(())


def test_pi_family_orthogonal_idempotents():
    comps = list(compositions(4))
    values = {c: pi_composite(c) for c in comps}
    for c1 in comps:
        for c2 in comps:
            prod = internal_compose_lc(values[c1], values[c2])
            assert prod == (values[c1] if c1 == c2 else LinComb.zero())


def test_prec_logarithm_of_identity():
    q = identity_series(6)
    mu = prec_logarithm(q)
    assert len(mu) == 7
    for n in range(1, 7):
        assert mu[n] == pi_n(n)
    assert mu[0].is_zero()


def test_prec_logarithm_of_unit_is_zero():
    unit = LinComb.single(UNIT_BIWORD)
    assert prec_logarithm([unit]) == [LinComb.zero()]
    assert prec_logarithm([unit, LinComb.zero(), LinComb.zero()]) == [LinComb.zero()] * 3


def test_prec_logarithm_rejects_bad_constant_term():
    with pytest.raises(ValueError):
        prec_logarithm([LinComb.zero(), p_n(1)])
    with pytest.raises(ValueError):
        convolution_inverse([p_n(1)])
    with pytest.raises(ValueError):
        exp_prec([p_n(0), p_n(1)])


def test_graded_series_rejects_mixed_weights():
    # a component holding a biword of another weight, as input to each operation
    for op, constant in ((prec_logarithm, p_n(0)), (convolution_inverse, p_n(0)), (exp_prec, LinComb.zero())):
        with pytest.raises(ValueError, match="component 2 holds a biword of weight 3"):
            op([constant, LinComb.zero(), p_n(3)])


def _random_graded_series(seed: int, max_weight: int) -> list[LinComb]:
    rng = random.Random(seed)
    comps = [LinComb.single(UNIT_BIWORD)]
    for n in range(1, max_weight + 1):
        pool = enumerate_biwords(n, (1, 2))
        terms = {}
        for b in rng.sample(pool, min(3, len(pool))):
            terms[b] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        comps.append(LinComb(terms))
    return comps


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_logarithm_exponential_roundtrip(seed):
    cutoff = 4
    q = _random_graded_series(seed, cutoff)
    mu = prec_logarithm(q)
    assert len(mu) == cutoff + 1
    assert exp_prec(mu) == q
    assert prec_logarithm(exp_prec(mu)) == mu


def test_convolution_inverse_inverts():
    cutoff = 4
    q = _random_graded_series(7, cutoff)
    z = convolution_inverse(q)
    assert len(z) == cutoff + 1
    product = [LinComb.sum((biword_star_lc(q[i], z[n - i]), 1) for i in range(n + 1)) for n in range(cutoff + 1)]
    assert product == [LinComb.single(UNIT_BIWORD)] + [LinComb.zero()] * cutoff


def _pi_by_alternating_sum(n: int) -> LinComb:
    # the sum over compositions (a1..ak) of n of (-1)^(k-1) p_a1 < (p_a2 * ... * p_ak)
    def term(comp_):
        if len(comp_) == 1:
            return p_n(n)
        star_part = p_n(comp_[1])
        for a in comp_[2:]:
            star_part = biword_star_lc(star_part, p_n(a))
        return biword_prec_lc(p_n(comp_[0]), star_part)

    return LinComb.sum((term(c), (-1) ** (len(c) - 1)) for c in compositions(n))


def _pis_by_nested_completion(max_n: int) -> dict[int, LinComb]:
    # pi_m is p_m minus every strictly finer nested idempotent pi_c1 < (pi_c2 < (...))
    pis = {}
    for m in range(1, max_n + 1):
        def nested(comp_):
            out = pis[comp_[-1]]
            for i in reversed(comp_[:-1]):
                out = biword_prec_lc(pis[i], out)
            return out

        pis[m] = p_n(m) - LinComb.sum((nested(c), 1) for c in compositions(m) if len(c) > 1)
    return pis


def test_pi_routes_match_the_composition_expansions():
    nested = _pis_by_nested_completion(6)
    for n in range(1, 7):
        assert pi_n(n, "alternating") == _pi_by_alternating_sum(n)
        assert pi_n(n, "recursive") == nested[n]


def test_spanning_set_small():
    n1 = descd_spanning_set(1)
    assert len(n1) == 1
    assert n1[0][1] == pi_n(1)

    golden = load_golden("descd_bases.json")
    n2 = descd_spanning_set(2)
    assert [str(m) for m, _ in n2] == golden["2"]["monomials"]
    assert [v for _, v in n2] == [biword_combination(c) for c in golden["2"]["combinations"]]


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def test_spanning_set_counts():
    # compositions into k parts contribute Catalan(k-1) * 2^(k-1) trees each
    for n in range(1, 6):
        expected = sum(
            comb(n - 1, k - 1) * catalan(k - 1) * 2 ** (k - 1) for k in range(1, n + 1)
        )
        assert len(descd_spanning_set(n)) == expected


def test_spanning_set_rank_small():
    assert descd_dimension(3) == 10
    assert len(descd_spanning_set(3)) == 13


def test_spanning_set_rank_weight_7():
    # The definition route: the exact rank of the 20805 tree evaluations at n=7,
    # independent of both series; it must equal A002212(7) and the count of
    # planar binary trees with k vertices decorated by compositions of 7 into k parts.
    trees = sum(catalan(k) * comb(6, k - 1) for k in range(1, 8))
    assert descd_dimension(7) == 2219 == int(descent_dim_series_closed()[7]) == trees
    assert descd_class_dimension(7) == 2219


def test_src_holds_no_memo_cache():
    # every function and method of the package, found by module and class
    # scan; a memo cache among them would show its cache_info attribute
    caches = {}
    for info in pkgutil.iter_modules(shufflealg.__path__):
        mod = importlib.import_module(f"shufflealg.{info.name}")
        owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
        for owner in owners:
            for name, value in vars(owner).items():
                value = getattr(value, "__func__", value)
                if callable(getattr(value, "cache_info", None)):
                    caches[f"{owner.__name__}.{name}"] = value
    assert caches == {}
    assert not hasattr(shufflealg, "clear_caches") and not hasattr(shufflealg, "_CACHES")


def test_class_dimension_matches_spanning_rank():
    for n in range(1, 7):
        assert descd_class_dimension(n) == descd_dimension(n)


def _decorated_trees(n: int):
    """(tree, x(t)) for every planar binary tree with vertices decorated by a
    composition of n in order, x(t) = x(t_l) > pi_m < x(t_r); the tree uses
    bst_class's nested (left, degree, right) form."""
    if n == 0:
        yield (), None
        return
    for m in range(1, n + 1):
        for l in range(n - m + 1):
            for left, xl in _decorated_trees(l):
                for right, xr in _decorated_trees(n - m - l):
                    x = pi_n(m)
                    if xr is not None:
                        x = biword_prec_lc(x, xr)
                    if xl is not None:
                        x = biword_succ_lc(xl, x)
                    yield (left, m, right), x


def test_tree_monomials_are_class_sums():
    # each decorated-tree monomial is the 0/1 sum of the biwords with that
    # search tree, and together the supports partition the weight-n biwords
    for n in range(1, 6):
        covered = []
        for tree, x in _decorated_trees(n):
            assert set(x.terms().values()) == {1}
            assert {bst_class(b) for b in x.terms()} == {tree}
            assert tuple(sorted(x.terms(), key=lambda b: b.sort_key())) == descd_classes(n)[tree]
            covered.extend(x.terms())
        assert len(covered) == len(set(covered)) == len(enumerate_biwords(n))
        assert set(covered) == set(enumerate_biwords(n))


def test_bst_class_matches_the_recursive_insertion():
    biwords = [b for n in range(7) for b in enumerate_biwords(n)]
    assert len(biwords) == 1957  # the unit and the 1956 biwords of weights 1-6
    assert all(bst_class(b) == bst_class_by_recursion(b) for b in biwords)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_class_membership_matches_elimination(n):
    rng = random.Random(100 + n)
    classes = list(descd_classes(n).values())
    echelon = D.descd_echelon(n)
    verdicts = []
    for _ in range(40):
        chosen = rng.sample(classes, rng.randint(1, 4))
        terms = {}
        for members in chosen:
            coeff = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2]))
            terms.update(dict.fromkeys(members, coeff))
        member = LinComb(terms)
        big = max(chosen, key=len)
        moved = dict(terms)
        moved[big[-1]] += 1
        partial = {b: c for b, c in terms.items() if b != big[0]}
        for x in (member, LinComb(moved), LinComb(partial)):
            verdict = descd_membership(x, n)
            assert verdict == contains(echelon, x)
            verdicts.append(verdict)
        if len(big) > 1:
            assert not descd_membership(LinComb(moved), n)
            assert not descd_membership(LinComb(partial), n)
    assert True in verdicts and False in verdicts


def test_class_route_builds_no_echelon(monkeypatch):
    def refuse(n):
        raise AssertionError("the class route reached the spanning set")

    monkeypatch.setattr(D, "descd_echelon", refuse)
    monkeypatch.setattr(D, "descd_spanning_set", refuse)
    rows, _ = dimension_report(6, include=("descd",), rank_cutoff=6, prim_cutoff=6)
    assert [row["descd_rank"] for row in rows] == [1, 3, 10, 36, 137, 543]
    assert descd_membership(p_n(5), 5)
    assert D._kernel_dimension(descd_classes(5).values()) == 1


def test_monomial_rendering():
    mono = DendMonomial(("<", 1, (">", 1, 1)))
    assert str(mono) == "pi1 < (pi1 > pi1)"
    assert mono.weight == 3


def test_rank_edge_cases():
    assert rank_of([]) == 0
    v = biword_combination([["12|11", 1], ["21|11", 2]])
    assert rank_of([v, v * Fraction(3, 2)]) == 1


def test_rank_weight_4_spanning_values():
    assert rank_of([v for _, v in descd_spanning_set(4)]) == 36


def test_membership():
    for n in range(1, 6):
        assert descd_membership(p_n(n), n)
    assert not descd_membership(LinComb.single(Biword((2, 1, 3), (1, 1, 1))), 3)
    pair = biword_combination([["213|111", 1], ["231|111", 1]])
    assert descd_membership(pair, 3)


def test_tree_class_lists_each_class_from_its_tree():
    # the linear extensions of each decorated tree against the grouping oracle
    for n in range(1, 7):
        for tree, members in descd_classes(n).items():
            assert tree_class(tree) == members, tree
    classes = descd_classes(7)
    for tree in random.Random(7).sample(list(classes), 200):
        assert tree_class(tree) == classes[tree], tree
    assert tree_class(()) == (UNIT_BIWORD,)


def test_membership_at_weight_10_builds_no_weight_wide_structure(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("membership enumerated a whole weight")

    monkeypatch.setattr(D, "enumerate_biwords", refuse)
    monkeypatch.setattr(D, "descd_classes", refuse)
    # 213|433 and 231|433 make up the class of their decorated tree
    member = biword_combination([["213|433", 1], ["231|433", 1]])
    assert descd_membership(member, 10)
    assert not descd_membership(LinComb.single(Biword((2, 1, 3), (4, 3, 3))), 10)
    assert main(["membership", "213|433 + 231|433", "--json"]) == 0
    assert main(["membership", "213|433", "--json"]) == 1
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == [
        {"member": True, "weight": 10},
        {"member": False, "weight": 10},
    ]


def test_membership_rejects_weight_mismatch():
    with pytest.raises(ValueError):
        descd_membership(p_n(2), 3)


def test_golden_basis_families_span_and_belong():
    golden = load_golden("descd_bases.json")
    for n_text, data in golden.items():
        n = int(n_text)
        vectors = [biword_combination(c) for c in data["combinations"]]
        assert rank_of(vectors) == descd_dimension(n) == len(vectors)
        for v in vectors:
            assert descd_membership(v, n)


def test_internal_products_leave_descd():
    # exhaustively compose the weight-3 golden basis; at least one product
    # escapes the span, e.g. the single biword 213|111
    golden = load_golden("descd_bases.json")
    vectors = [biword_combination(c) for c in golden["3"]["combinations"]]
    escaped = []
    for x in vectors:
        for y in vectors:
            prod = internal_compose_lc(x, y)
            if prod.is_zero():
                continue
            if not descd_membership(prod, 3):
                escaped.append((x, y, prod))
    assert escaped
    culprit = LinComb.single(Biword((2, 1, 3), (1, 1, 1)))
    assert any(prod == culprit for _, _, prod in escaped)


def test_prim_dimensions_full_space():
    assert [prim_dend_dimension(n) for n in range(1, 5)] == [1, 1, 2, 10]


def _kernel_by_elimination(biwords) -> int:
    # one row per biword, eliminated all at once: the route the blocks replace
    images = [coproduct_image(LinComb.single(b)) for b in biwords]
    return len(images) - rank_of(images)


def test_prim_dimensions_by_blocks_match_full_enumeration():
    # the block of the size-k permutations with degrees 1^k
    assert [_kernel_by_elimination(enumerate_biwords(k, (1,))) for k in range(1, 7)] == [1, 0, 1, 6, 39, 284]
    for n in range(1, 7):
        assert prim_dend_dimension(n) == _kernel_by_elimination(enumerate_biwords(n))


def _rekeyed(image: LinComb) -> dict:
    # ("P", (left, right)) -> (True, j, left top row, right top row, degree row)
    out = {}
    for (tag, (left, right)), coeff in image.terms().items():
        out[(tag == "P", left.size, *left.perm, *right.perm, *left.deg, *right.deg)] = coeff
    return out


def test_cut_rows_match_the_lincomb_coproduct_images():
    for k in range(1, 7):
        for b in enumerate_biwords(k, (1,)):
            assert D._cut_row((b,)).terms() == _rekeyed(coproduct_image(LinComb.single(b)))
    # a descd row sums the cuts of every member of one class
    for n in range(1, 6):
        for members in descd_classes(n).values():
            image = coproduct_image(LinComb.sum((LinComb.single(b), 1) for b in members))
            assert D._cut_row(members).terms() == _rekeyed(image)


def test_prim_dimensions_descd():
    # the idempotents span the primitives: one dimension per weight
    assert [D._kernel_dimension(descd_classes(n).values()) for n in range(1, 7)] == [1] * 6


def test_prim_dimension_has_no_library_cap():
    # the CLI's default prim cutoff (6) bounds the command line only
    assert prim_dend_dimension(7) == 4730 == int(primitive_dim_series()[7])


def test_prim_dimension_cutoff():
    with pytest.raises(ValueError):
        prim_dend_dimension(0)


def test_pn_coproduct_and_pi_primitive_suites():
    assert check_pn_coproducts(6) == []
    assert check_pi_primitive(6) == []


def test_idempotent_suite_weight_4():
    assert check_idempotents(4) == []


def test_pi_n_half_coproducts_vanish():
    for n in range(1, 7):
        assert coproduct_prec_lc(pi_n(n)).is_zero()
        assert coproduct_succ_lc(pi_n(n)).is_zero()


def test_biword_count_formula():
    for n in range(7):
        assert biword_count(n) == len(enumerate_biwords(n))


def test_dimension_report_values_and_flags():
    rows, flags = dimension_report(6, include=D.REPORT_COLUMNS, rank_cutoff=4, prim_cutoff=3)
    assert flags == []
    by_n = {row["n"]: row for row in rows}
    assert [by_n[n]["descd_closed"] for n in range(1, 7)] == [1, 3, 10, 36, 137, 543]
    assert [by_n[n]["biword_series"] for n in range(1, 7)] == [1, 3, 11, 49, 261, 1631]
    assert by_n[4]["descd_rank"] == 36
    assert "descd_rank" not in by_n[5]
    assert by_n[3]["prim_kernel"] == 2
    assert "prim_kernel" not in by_n[4]
    assert [by_n[n]["prim_series"] for n in range(1, 6)] == [1, 1, 2, 10, 70]


def test_dimension_report_eliminates_each_block_once(monkeypatch):
    # one elimination per permutation size k <= prim_cutoff; recomputing the
    # blocks of every k <= n for each row n takes 1 + 2 + ... + 6 = 21
    sizes = []

    def counting_rank_of(rows):
        rows = list(rows)
        sizes.append(len(rows))
        return rank_of(rows)

    monkeypatch.setattr(D, "rank_of", counting_rank_of)
    rows, _ = dimension_report(40, include=D.REPORT_COLUMNS, rank_cutoff=6, prim_cutoff=6)
    assert sizes == [1, 2, 6, 24, 120, 720]
    assert [row.get("prim_kernel") for row in rows[:7]] == [1, 1, 2, 10, 70, 550, None]


def test_dimension_report_series_extension():
    rows, flags = dimension_report(9, include=("descd", "series"), rank_cutoff=3, prim_cutoff=6)
    by_n = {row["n"]: row for row in rows}
    assert flags == []
    for n in range(1, 10):
        assert by_n[n]["descd_closed"] == by_n[n]["descd_catalan"]
    # A002212 three-term recurrence: (n+1) a_n = 3(2n-1) a_{n-1} - 5(n-2) a_{n-2}
    values = {0: 1}
    values.update({n: by_n[n]["descd_closed"] for n in range(1, 10)})
    for n in range(2, 10):
        assert (n + 1) * values[n] == 3 * (2 * n - 1) * values[n - 1] - 5 * (n - 2) * values[n - 2]


def test_dimension_report_rejects_unknown_column():
    with pytest.raises(ValueError):
        dimension_report(3, include=("rainbows",), rank_cutoff=6, prim_cutoff=6)
