"""Independent routes that the tests check the library against.

Not collected by pytest; the test modules import from it.

Series composition.  ``compose(f, g)`` expands f(g) through the lazy powers
g^k, in O(n^3) coefficient products; it checks the binomial transform
:meth:`PowerSeries.geometric_substitution` and the dimension series built on it.

Coproduct images.  ``coproduct_image(x)`` forms both half-coproducts of a
combination through ``LinComb`` and tags them "P" and "S"; it checks the
key-level cut rows of the primitive kernel in :mod:`shufflealg.descent`.
``coassociativity_sides(cop, coproduct)`` applies a coproduct given on keys
to either leg of a combination of key pairs; on ``hopf_coproduct`` it checks
the counted coassociativity half of the ``bialgebra`` suite.

Descent-class half-products.  w < z is the sum over permutations alpha of
[k+l] with descent set inside {k} and alpha^{-1}(1) = 1 of the rearranged
concatenation; w > z pins alpha^{-1}(1) = k + 1 instead.  The same rule
rearranges biword columns.  Exponential-time; used only to cross-check the
recursive word half-shuffles and the riffles of :mod:`shufflealg.biwords`.

The word antipode.  ``antipode_by_recursion(w)`` is the graded-connected
recursion S(w) = -w - sum over proper cuts of S(w') sh w'', with no cache;
it checks the closed form :func:`~shufflealg.words.word_antipode`.

The right-nested form of a word.  ``nested_prec_form(w)`` rewrites a word
as y1 < (y2 < (... < yn)) over its letters, a :class:`NestedPrec` that
evaluates back through the word half-shuffle; it checks the primitive
decomposition of the word model in :mod:`shufflealg.rigidity`.

The half-shuffle exponential.  ``exp_prec(mu)`` solves e = 1 + mu < e degree
by degree on a truncated graded series; it inverts
:func:`~shufflealg.descent.prec_logarithm`.

One primitive dimension.  ``prim_dend_dimension(n)`` reads the weight-n
entry of the block eliminations that the ``dims`` kernel column advances
through; the tests compare it with elimination on every biword of weight n.

Search-tree classes by recursion.  ``bst_class_by_recursion(b)`` splits the
columns after the first into those below and above its top entry and
recurses on each; it checks the one-pass :func:`~shufflealg.descent.bst_class`.

Span membership.  ``contains(echelon, x)`` reduces x against the pivots of
a :class:`~shufflealg.linalg.RowEchelon`; on the spanning-set echelon it
checks the class test :func:`~shufflealg.descent.descd_membership`.

Standardization.  ``standardize(values)`` relabels distinct integers by
their ranks, sorting them; it checks the one-sweep standardization of every
cut in :func:`~shufflealg.biwords.cut_rows`.

Presentation entries.  ``tables(A)`` reads the half-product entry of every
label pair within the weight bound and the coproduct of every label through
the public ``prec`` and ``coproduct``, as dicts of ``LinComb``; the tests
copy, count and compare presentations through it.

Planted faults.  ``perturbed_presentation`` shifts one half-product entry of
a presentation, so the validator and the decomposition have a known defect
to report.

The presentation validator through ``LinComb``.  ``validate_by_lincomb``
runs the table checks of :func:`~shufflealg.rigidity.validate_presentation`,
then its counit, coassociativity, shuffle-axiom and left-compatibility checks
the way they were first written: every lookup goes through the public
``prec`` and ``coproduct`` of the presentation, ``LinComb`` views of its
item tables (the shuffle of two labels is their two half-products), and every sum
through ``accumulate`` or ``coassociativity_sides``.  It checks the
item-table kernels of :mod:`shufflealg.rigidity`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from itertools import islice
from typing import Callable, NamedTuple

from shufflealg.biwords import Biword, biword_prec_lc, coproduct_prec_lc, coproduct_succ_lc
from shufflealg.descent import _UNIT, _check_series, _full_S_dimensions, _positive_op
from shufflealg.linalg import RowEchelon, _to_int_row
from shufflealg.lincomb import LinComb, accumulate
from shufflealg.rigidity import UNIT_LABEL, Presentation, Report, _label_tuples, _validate_tables
from shufflealg.series import PowerSeries
from shufflealg.words import EMPTY_WORD, Letter, Word, _cuts, word_prec_lc, word_shuffle_lc


def standardize(values) -> tuple[int, ...]:
    """Order-isomorphic relabeling of distinct integers to a permutation of [k]."""
    values = tuple(values)
    if len(set(values)) != len(values):
        raise ValueError(f"cannot standardize a sequence with repeats: {values}")
    ranks = {v: i + 1 for i, v in enumerate(sorted(values))}
    return tuple(ranks[v] for v in values)


def descent_class_rearrangements(left: tuple, right: tuple, first: int):
    """The columns ``left + right`` rearranged by each permutation alpha of
    [k+l] (k = len(left)) with descent set inside {k} and alpha^{-1}(1) = first."""
    columns = left + right
    n = len(columns)
    k = len(left)
    for alpha in itertools.permutations(range(1, n + 1)):
        descents = {i + 1 for i in range(n - 1) if alpha[i] > alpha[i + 1]}
        if not descents <= {k}:
            continue
        inv = [0] * (n + 1)
        for pos, val in enumerate(alpha, start=1):
            inv[val] = pos
        if inv[1] == first:
            yield tuple(columns[inv[i] - 1] for i in range(1, n + 1))


def word_prec_by_descents(w: Word, z: Word) -> LinComb:
    if w.is_empty():
        return LinComb.zero()
    if z.is_empty():
        return LinComb.single(w)
    return LinComb((Word(cols), 1) for cols in descent_class_rearrangements(w, z, 1))


def word_succ_by_descents(w: Word, z: Word) -> LinComb:
    if z.is_empty():
        return LinComb.zero()
    if w.is_empty():
        return LinComb.single(z)
    first = len(w) + 1
    return LinComb((Word(cols), 1) for cols in descent_class_rearrangements(w, z, first))


def _halves_by_descents(a: Biword, b: Biword, first: int) -> LinComb:
    left = tuple(zip(a.perm, a.deg))
    right = tuple((v + a.size, d) for v, d in zip(b.perm, b.deg))
    return LinComb((Biword(*zip(*cols)), 1) for cols in descent_class_rearrangements(left, right, first))


def biword_prec_by_descents(a: Biword, b: Biword) -> LinComb:
    if a.is_unit():
        return LinComb.zero()
    if b.is_unit():
        return LinComb.single(a)
    return _halves_by_descents(a, b, 1)


def biword_succ_by_descents(a: Biword, b: Biword) -> LinComb:
    if b.is_unit():
        return LinComb.zero()
    if a.is_unit():
        return LinComb.single(b)
    return _halves_by_descents(a, b, a.size + 1)


def antipode_by_recursion(w: Word) -> LinComb:
    """Antipode by the graded-connected recursion S(w) = -w - sum S(w') sh w''."""
    if w.is_empty():
        return LinComb.single(EMPTY_WORD)
    proper = list(_cuts(w))[1:-1]
    return LinComb.single(w, -1) - LinComb.sum(
        (word_shuffle_lc(antipode_by_recursion(left), LinComb.single(right)), 1) for left, right in proper
    )


class NestedPrec(NamedTuple):
    """Right-nested half-shuffle expression y1 < (y2 < (... < yn))."""

    head: Letter
    tail: "NestedPrec | None" = None

    def evaluate(self) -> LinComb:
        if self.tail is None:
            return LinComb.single(Word((self.head,)))
        head_word = LinComb.single(Word((self.head,)))
        return word_prec_lc(head_word, self.tail.evaluate())

    def __str__(self):
        if self.tail is None:
            return str(self.head)
        return f"{self.head}<({self.tail})"


def nested_prec_form(w: Word) -> NestedPrec:
    """Rewrite a word as the right-nested tree of its letters."""
    if w.is_empty():
        raise ValueError("the empty word has no nested half-shuffle form")
    node = NestedPrec(w[-1])
    for let in reversed(w[:-1]):
        node = NestedPrec(let, node)
    return node


def exp_prec(mu: list[LinComb]) -> list[LinComb]:
    """Right-nested half-shuffle exponential e = 1 + mu < e, degree by degree:
    e[n] = sum over i >= 1 of mu[i] < e[n - i]."""
    if not mu or mu[0] != LinComb.zero():
        raise ValueError("exp_prec needs zero constant term")
    # the grading check of the library's series, which takes a unit constant term
    _check_series([_UNIT, *mu[1:]], "exp_prec")
    e = [_UNIT] * len(mu)
    for n in range(1, len(mu)):
        e[n] = _positive_op(biword_prec_lc, mu, e, n)
    return e


def prim_dend_dimension(n: int) -> int:
    """dim of Ker(prec coproduct) intersect Ker(succ coproduct) on all biwords of weight n."""
    if n < 1:
        raise ValueError(f"primitive dimensions start at weight 1, got {n}")
    return next(islice(_full_S_dimensions(), n - 1, None))


def bst_class_by_recursion(b: Biword) -> tuple:
    return _bst(tuple(zip(*b.row)))  # the columns (top entry, degree)


def _bst(cols: tuple) -> tuple:
    if not cols:
        return ()
    (root, d), rest = cols[0], cols[1:]
    left = _bst(tuple(c for c in rest if c[0] < root))
    return (left, d, _bst(tuple(c for c in rest if c[0] > root)))


def contains(echelon: RowEchelon, lc: LinComb) -> bool:
    """Span membership by exact reduction."""
    if lc.is_zero():
        return True
    row = _to_int_row(lc, {})
    return not echelon._reduce(row)


def compose(f: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """f(g) for g with zero constant term."""
    if inner[0]:
        raise ValueError("composition needs zero constant term in the inner series")
    powers = [PowerSeries.one()]

    def coeff(n: int) -> int | Fraction:
        while len(powers) <= n:
            powers.append(powers[-1] * inner)
        # inner^k has valuation >= k, so only k <= n contributes
        return sum(f[k] * powers[k][n] for k in range(n + 1))

    return PowerSeries(coeff)


def coproduct_image(row: LinComb) -> LinComb:
    left = coproduct_prec_lc(row).map_keys(lambda t: ("P", t))
    right = coproduct_succ_lc(row).map_keys(lambda t: ("S", t))
    return left + right


def coassociativity_sides(cop: LinComb, coproduct: Callable) -> tuple[LinComb, LinComb]:
    """(Delta (x) id)(cop) and (id (x) Delta)(cop) as combinations of key
    triples, for ``cop`` a combination of key pairs and ``coproduct`` a map
    from one key to its coproduct."""
    items = cop.terms().items()
    # products of exact nonzero coefficients: no check needed
    lhs = accumulate({}, (
        ((l1, l2, right), c * c2)
        for (left, right), c in items
        for (l1, l2), c2 in coproduct(left).terms().items()
    ))
    rhs = accumulate({}, (
        ((left, r1, r2), c * c2)
        for (left, right), c in items
        for (r1, r2), c2 in coproduct(right).terms().items()
    ))
    return LinComb._raw(lhs), LinComb._raw(rhs)


def tables(A: Presentation) -> tuple[dict, dict]:
    """The half-product entries of the label pairs within the weight bound and
    the coproduct of every label, read through ``prec`` and ``coproduct``."""
    prec = {(a, b): A.prec(a, b) for a, b in _label_tuples(A, 2)}
    return prec, {label: A.coproduct(label) for label in A.labels()}


def perturbed_presentation(
    A: Presentation, left: str, right: str, delta: LinComb
) -> Presentation:
    """Copy of the presentation with one half-product entry shifted by delta."""
    prec, coproduct = tables(A)
    key = (left, right)
    prec[key] = prec.get(key, LinComb.zero()) + delta
    return Presentation(A.basis, prec, coproduct)


def _shuffle(A: Presentation, a: str, b: str) -> LinComb:
    if a == UNIT_LABEL:
        return LinComb.single(b)
    if b == UNIT_LABEL:
        return LinComb.single(a)
    return A.prec(a, b) + A.prec(b, a)


def validate_by_lincomb(A: Presentation) -> Report:
    out = Report()
    _validate_tables(A, out)
    if out:
        return out
    _validate_counit(A, out)
    _validate_coassociativity(A, out)
    _validate_shuffle_axiom(A, out)
    _validate_left_compatibility(A, out)
    return out


def _validate_counit(A: Presentation, out: Report) -> None:
    for label in A.labels():
        cop = A.coproduct(label)
        left_unit = LinComb(
            (right, c) for (left, right), c in cop.terms().items() if left == UNIT_LABEL
        )
        right_unit = LinComb(
            (left, c) for (left, right), c in cop.terms().items() if right == UNIT_LABEL
        )
        expected = LinComb.single(label)
        out.expect("counit-left", (label,), left_unit, expected)
        out.expect("counit-right", (label,), right_unit, expected)


def _validate_coassociativity(A: Presentation, out: Report) -> None:
    for label in A.labels():
        out.expect("coassociativity", (label,), *coassociativity_sides(A.coproduct(label), A.coproduct))


def _validate_shuffle_axiom(A: Presentation, out: Report) -> None:
    # (a < b) < c = a < (b sh c) on basis triples within the weight bound
    prec, shuffle = A.prec, lambda a, b: _shuffle(A, a, b)
    for a, b, c in _label_tuples(A, 3):
        ab_c = ((k, c1 * c2) for ab, c1 in prec(a, b).terms().items() for k, c2 in prec(ab, c).terms().items())
        a_bc = ((k, c1 * c2) for bc, c1 in shuffle(b, c).terms().items() for k, c2 in prec(a, bc).terms().items())
        lhs, rhs = (LinComb._raw(accumulate({}, side)) for side in (ab_c, a_bc))
        out.expect("shuffle-axiom", (a, b, c), lhs, rhs)


def _validate_left_compatibility(A: Presentation, out: Report) -> None:
    # Delta(x < y) = x' < y' (x) x'' sh y'' + 1 (x) (x < y), full Sweedler sums
    prec, shuffle, coproduct = A.prec, lambda a, b: _shuffle(A, a, b), A.coproduct
    for x, y in _label_tuples(A, 2):
        xy = prec(x, y).terms().items()
        lhs = accumulate({}, ((pair, c * c2) for key, c in xy for pair, c2 in coproduct(key).terms().items()))
        rhs = {(UNIT_LABEL, key): c for key, c in xy}
        cop_y = coproduct(y).terms().items()
        for (x1, x2), cx in coproduct(x).terms().items():
            for (y1, y2), cy in cop_y:
                left = prec(x1, y1).terms().items()
                if left:
                    right = shuffle(x2, y2).terms().items()
                    c = cx * cy
                    accumulate(rhs, (((l, r), c * cl * cr) for l, cl in left for r, cr in right))
        out.expect("left-compatibility", (x, y), LinComb._raw(lhs), LinComb._raw(rhs))
