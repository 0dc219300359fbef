"""Verification suites for the algebraic identities.

Each suite, run as ``SUITES[name](max_weight)``, returns a
:class:`~shufflealg.rigidity.Report`: the failures it found, with the number
of identity instances it checked.  An empty list is a pass only when that
number is positive.  A failure carries the inputs and both sides, so it
prints a minimal counterexample.  Enumeration order is fixed, so suites are
deterministic.

The suites probe with generic inputs, as the naturality argument allows.
Both sides of a word identity commute with weight-preserving letter
substitutions, and every tuple of words is such an image of the tuple of
the same letter-weight profiles whose letters are pairwise distinct across
the tuple; one such tuple per tuple of compositions decides the identity on
all words.  Riffles, cuts and standardization carry each biword column's
degree along without reading it, so one tuple of permutations with pairwise
distinct degrees across the tuple decides a biword identity on every
decoration of those permutations.  Biword tuples are bounded by total size,
which covers every tuple the same bound on weight covers, because size is at
most weight.  :func:`~shufflealg.words.graded_tuples` enumerates both kinds.

``dendriform`` compares combinations of
:class:`~shufflealg.biwords.Biword` keys.  ``bidendriform`` and
``bialgebra`` pass the rows of the probes to the riffle and cut row
kernels of :mod:`shufflealg.biwords` directly, every cut through
``cut_rows(row, side)``: every coefficient there is a count, so each side is
counted once over tuples of rows (pairs, and triples for coassociativity),
and biword keys are built only for a failure record.

The action suites (``idempotents``, ``action-compat``) probe with one
generic word per composition.  Unlike words over two symbols per weight, on
which the antisymmetrizer of three weight-1 letters acts as zero, these tell
every two biword combinations apart.  Both sides of an action identity are
zero on a probe whose profile is no source of either side (see
:func:`~shufflealg.action.source_profile`), so a suite checks only the others.
``action-compat`` compares each half-product of a pair (a, b) acting on a
probe w with the convolution side, built apart from it: a acts on the cut
w[:k], k its size, and b on w[k:], each by
:func:`~shufflealg.action.act_letters`, and the word product of the two
images is taken directly.  The internal product reads degrees, so
``internal-compose-vs-action`` probes with the biwords of degrees in {1, 2}
instead, on their rows: it compares
:func:`~shufflealg.biwords.compose_row` with the action's row form pair by
pair and builds biword combinations only for a failure record.

Deconcatenation coassociativity and the coproduct compatibility of the
half-shuffle are checked by :func:`~shufflealg.rigidity.validate_presentation`
on the words over two symbols per weight, the presentation that the ``tau``
and ``rigidity`` suites also use; ``tau`` checks that presentation's
antipode recursion against the closed form on every label.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .lincomb import LinComb, tensor
from . import words as W
from . import biwords as B
from . import action as act
from . import descent as D
from . import rigidity as R
from .rigidity import Report

TEST_DEGREES = (1, 2)

_WORD_OPS = {"prec": W.word_prec, "succ": W.word_succ, "star": W.word_shuffle}


# -- generic probes ------------------------------------------------------------

def _generic_words(profiles) -> tuple[W.Word, ...]:
    """Words of the given profiles, letters pairwise distinct across the tuple."""
    letters = W.generic_word(itertools.chain(*profiles))
    cuts = itertools.accumulate(map(len, profiles), initial=0)
    return tuple(W.Word(letters[i:j]) for i, j in itertools.pairwise(cuts))


def _generic_biwords(perms) -> tuple[B.Biword, ...]:
    """Biwords of the given top rows, degrees pairwise distinct across the tuple."""
    firsts = itertools.accumulate(map(len, perms), initial=1)
    return tuple(B.generic_biword(perm, first) for perm, first in zip(perms, firsts))


def _permutations(size: int):
    return itertools.permutations(range(1, size + 1))


def _word_probes(arity: int, max_weight: int) -> list[tuple[W.Word, ...]]:
    """The generic tuples of nonempty words of total weight at most max_weight."""
    return [_generic_words(t) for t in W.graded_tuples(arity, max_weight, W.compositions)]


def _biword_probes(arity: int, max_size: int, unit: bool = False) -> list[tuple[B.Biword, ...]]:
    """The generic tuples of biwords (nonempty unless ``unit``) of total size
    at most max_size."""
    return [_generic_biwords(t) for t in W.graded_tuples(arity, max_size, _permutations, unit)]


def _dendriform_axioms(out: Report, triples, prec, succ, star) -> None:
    """The three half-product associativity axioms, for ``star = prec + succ``."""
    for abc in triples:
        la, lb, lc = (LinComb.single(x) for x in abc)
        out.expect("(a<b)<c = a<(b*c)", abc, prec(prec(la, lb), lc), prec(la, star(lb, lc)))
        out.expect("(a*b)>c = a>(b>c)", abc, succ(star(la, lb), lc), succ(la, succ(lb, lc)))
        out.expect("(a>b)<c = a>(b<c)", abc, prec(succ(la, lb), lc), succ(la, prec(lb, lc)))


# -- word suites -------------------------------------------------------------

def _word_presentation(max_weight: int) -> R.Presentation:
    """The shuffle algebra of words over two symbols per weight, truncated."""
    return R.shuffle_presentation(W.standard_alphabet(max_weight, 2), max_weight)


def check_word_shuffle_axioms(max_weight: int) -> Report:
    """Zinbiel/dendriform axioms, shuffle commutativity and associativity,
    and the antipode convolution identity on generic words; the word
    presentation's axioms, among them coassociativity of deconcatenation and
    the coproduct compatibility of the half-product."""
    out = R.validate_presentation(_word_presentation(max_weight))
    for a, b in _word_probes(2, max_weight):
        out.expect("shuffle-commutativity", (a, b), W.word_shuffle(a, b), W.word_shuffle(b, a))
    _dendriform_axioms(out, _word_probes(3, max_weight), W.word_prec_lc, _word_succ_lc, W.word_shuffle_lc)
    zero = LinComb.zero()
    for (w,) in _word_probes(1, max_weight):
        # antipode convolution both ways: S * Id = Id * S = 0 on nonempty words
        cuts = W.deconcat(w).terms().items()
        conv = LinComb.sum(
            (W.word_shuffle_lc(W.word_antipode(left), LinComb.single(right)), c)
            for (left, right), c in cuts
        )
        vnoc = LinComb.sum(
            (W.word_shuffle_lc(LinComb.single(left), W.word_antipode(right)), c)
            for (left, right), c in cuts
        )
        out.expect("antipode-convolution-left", (w,), conv, zero)
        out.expect("antipode-convolution-right", (w,), vnoc, zero)
    return out


def _word_succ_lc(x: LinComb, y: LinComb) -> LinComb:
    return W.word_prec_lc(y, x)


# -- biword suites --------------------------------------------------------------

def check_biword_dendriform(max_weight: int) -> Report:
    """The three half-product associativity axioms on biword triples."""
    out = Report()
    _dendriform_axioms(
        out, _biword_probes(3, max_weight), B.biword_prec_lc, B.biword_succ_lc, B.biword_star_lc
    )
    return out


def _count_products(pieces) -> Counter:
    """The pairs of left x right, counted, over (left rows, right rows) pieces."""
    return Counter(itertools.chain.from_iterable(itertools.starmap(itertools.product, pieces)))


def _count_cuts(rows, side: str) -> Counter:
    """The cut pairs that the coproduct ``side`` takes of the given rows, counted."""
    return Counter(itertools.chain.from_iterable(B.cut_rows(row, side) for row in rows))


def _expect_pairs(out: Report, identity: str, inputs: tuple, lhs: Counter, rhs: Counter) -> None:
    """:meth:`Report.expect` for sides counted over tuples of rows; biword keys
    are built only for a failure."""
    # no count is zero, so dict equality decides, without Counter's Python-level loop
    if dict.__eq__(lhs, rhs):
        out.checked += 1
    else:
        lhs, rhs = ({B.biword_tuple(rows): c for rows, c in side.items()} for side in (lhs, rhs))
        out.expect(identity, inputs, lhs, rhs)


def check_biword_bidendriform(max_weight: int) -> Report:
    """The four half-coproduct/half-product compatibilities on biword pairs."""
    out = Report()
    riffles, star, cuts = B.riffle_rows, B.star_rows, B.cut_rows
    for xy in _biword_probes(2, max_weight):
        x, y = (b.row for b in xy)
        dp_x, ds_x = cuts(x, "prec"), cuts(x, "succ")
        dt_y = cuts(y, "prec") + cuts(y, "succ")
        x_prec_y, x_succ_y = riffles(x, y, True), riffles(x, y, False)

        rhs = _count_products(itertools.chain(
            ((riffles(x1, y1, True), star(x2, y2)) for x1, x2 in dp_x for y1, y2 in dt_y),
            [([x], [y])],
            ((riffles(x, y1, True), [y2]) for y1, y2 in dt_y),
            (([x1], star(x2, y)) for x1, x2 in dp_x),
            ((riffles(x1, y, True), [x2]) for x1, x2 in dp_x),
        ))
        _expect_pairs(out, "prec-coproduct of x<y", xy, _count_cuts(x_prec_y, "prec"), rhs)

        rhs = _count_products(itertools.chain(
            ((riffles(x1, y1, True), star(x2, y2)) for x1, x2 in ds_x for y1, y2 in dt_y),
            ((riffles(x1, y, True), [x2]) for x1, x2 in ds_x),
            (([x1], star(x2, y)) for x1, x2 in ds_x),
        ))
        _expect_pairs(out, "succ-coproduct of x<y", xy, _count_cuts(x_prec_y, "succ"), rhs)

        rhs = _count_products(itertools.chain(
            ((riffles(x1, y1, False), star(x2, y2)) for x1, x2 in dp_x for y1, y2 in dt_y),
            ((riffles(x1, y, False), [x2]) for x1, x2 in dp_x),
            ((riffles(x, y1, False), [y2]) for y1, y2 in dt_y),
        ))
        _expect_pairs(out, "prec-coproduct of x>y", xy, _count_cuts(x_succ_y, "prec"), rhs)

        rhs = _count_products(itertools.chain(
            ((riffles(x1, y1, False), star(x2, y2)) for x1, x2 in ds_x for y1, y2 in dt_y),
            [([y], [x])],
            (([y1], star(x, y2)) for y1, y2 in dt_y),
            ((riffles(x1, y, False), [x2]) for x1, x2 in ds_x),
        ))
        _expect_pairs(out, "succ-coproduct of x>y", xy, _count_cuts(x_succ_y, "succ"), rhs)
    return out


def _coassociativity_counts(row: tuple) -> tuple[Counter, Counter]:
    """(Delta (x) id) Delta and (id (x) Delta) Delta of a row for the full
    coproduct, counted over triples of rows."""
    cuts = B.cut_rows
    dt = cuts(row, "full")
    return (
        Counter((x1, x2, right) for left, right in dt for x1, x2 in cuts(left, "full")),
        Counter((left, x1, x2) for left, right in dt for x1, x2 in cuts(right, "full")),
    )


def check_biword_bialgebra(max_weight: int) -> Report:
    """Coassociativity of the full coproduct and the morphism property for star."""
    out = Report()
    for (x,) in _biword_probes(1, max_weight, unit=True):
        _expect_pairs(out, "hopf-coassociativity", (x,), *_coassociativity_counts(x.row))
    star, cuts = B.star_rows, B.cut_rows
    for xy in _biword_probes(2, max_weight, unit=True):
        x, y = (b.row for b in xy)
        dt_y = cuts(y, "full")
        rhs = _count_products((star(x1, y1), star(x2, y2)) for x1, x2 in cuts(x, "full") for y1, y2 in dt_y)
        _expect_pairs(out, "coproduct-star-morphism", xy, _count_cuts(star(x, y), "full"), rhs)
    return out


def check_pn_coproducts(max_weight: int) -> Report:
    """succ coproduct of p_n vanishes; prec coproduct splits as sum p_i (x) p_{n-i}."""
    out = Report()
    for n in range(1, max_weight + 1):
        pn = D.p_n(n)
        out.expect("succ-coproduct of p_n", (n,), B.coproduct_succ_lc(pn), LinComb.zero())
        rhs = LinComb.sum((tensor(D.p_n(i), D.p_n(n - i)), 1) for i in range(1, n))
        out.expect("prec-coproduct of p_n", (n,), B.coproduct_prec_lc(pn), rhs)
    return out


def check_pi_primitive(max_weight: int) -> Report:
    """The three idempotent routes agree and both half-coproducts vanish."""
    out = Report()
    for n in range(1, max_weight + 1):
        closed = D.pi_n(n, "closed")
        for route in ("alternating", "recursive"):
            out.expect(f"pi route {route}", (n,), D.pi_n(n, route), closed)
        for name, cop in (("prec", B.coproduct_prec_lc), ("succ", B.coproduct_succ_lc)):
            out.expect(f"{name}-coproduct of pi_n", (n,), cop(closed), LinComb.zero())
    return out


def _generic_probes(weight: int) -> list[W.Word]:
    """The generic word of each composition of ``weight``."""
    return [W.generic_word(c) for c in W.compositions(weight)]


def check_idempotents(max_weight: int) -> Report:
    """pi over compositions: orthogonal idempotents, complete to p_n, and the
    advertised projection action on words."""
    return _check_idempotents(max_weight, _generic_probes)


def _check_idempotents(max_weight: int, probes) -> Report:
    """The idempotents suite, projecting the words ``probes(n)`` of each weight n."""
    out = Report()
    values = {}
    for n in range(1, max_weight + 1):
        comps = list(W.compositions(n))
        values.update((c, D.pi_composite(c)) for c in comps)
        for c in comps:
            for c2 in comps:
                expected = values[c] if c == c2 else LinComb.zero()
                prod = B.internal_compose_lc(values[c], values[c2])
                out.expect("pi-orthogonality", (c, c2), prod, expected)
        total = LinComb.sum((values[c], 1) for c in comps)
        out.expect("pi-completeness", (n,), total, D.p_n(n))
    words = [(w, w.profile()) for n in range(1, max_weight + 1) for w in probes(n)]
    for c, value in values.items():
        seen = act.sources(value) | {c}  # both sides are zero on the other profiles
        for w, profile in words:
            if profile in seen:
                expected = {w: 1} if profile == c else {}
                out.expect("pi-projection-action", (c, w), act.endo_image(value, w), expected)
    return out


def check_action_compatibility(max_weight: int) -> Report:
    """Biword half-products realize the convolution half-products, and the
    internal product matches composition of actions."""
    return _check_action_compatibility(max_weight, 3, _generic_probes)


def _check_action_compatibility(max_weight: int, max_size: int, probes) -> Report:
    """The action suite, probing pairs of total weight n with the words ``probes(n)``."""
    out = Report()
    biwords = {m: B.enumerate_biwords(m) for m in range(max_weight + 1)}
    probes_of = {n: [(w, w.profile()) for w in probes(n)] for n in range(1, max_weight + 1)}
    for a, b in W.graded_tuples(2, max_weight, lambda m: biwords.get(m, ()), unit=True):
        total = a.weight + b.weight
        if total == 0:
            continue
        products = {
            "prec": B.biword_prec(a, b),
            "succ": B.biword_succ(a, b),
            "star": B.biword_star(a, b),
        }
        # both sides are zero on a probe of any other profile
        seen = {act.source_profile(*a.row) + act.source_profile(*b.row)}
        seen.update(*map(act.sources, products.values()))
        k = a.size
        for probe, profile in probes_of[total]:
            if profile not in seen:
                continue
            # op . (a (x) b) . Delta on the probe: only the cut at a's size survives
            u = act.act_letters(*a.row, probe[:k])
            v = act.act_letters(*b.row, probe[k:])
            pair = None if u is None or v is None else (W.Word(u), W.Word(v))
            for op, prod in products.items():
                convolution = _WORD_OPS[op](*pair).terms() if pair else {}
                out.expect(f"action-{op}", (a, b, probe), act.endo_image(prod, probe), convolution)
    sized = [b for k in range(max_size + 1) for b in B.enumerate_biwords_by_size(k, TEST_DEGREES)]
    rows = [b.row for b in sized]
    # column j holds the action's row of "apply sized[j], then a" for every a in sized
    columns = [act.compose_rows_via_action(rows, b) for b in rows]
    compose = B.compose_row
    for a, via_action in zip(sized, zip(*columns)):
        direct = tuple([compose(a.row, b) for b in rows])
        if direct == via_action:
            out.checked += len(rows)
            continue
        for b, got, want in zip(sized, direct, via_action):
            out.expect("internal-compose-vs-action", (a, b), _row_map(got), _row_map(want))
    return out


def _row_map(row) -> dict:
    """A row, or None for zero, as a zero-free coefficient map on biwords."""
    return {} if row is None else dict.fromkeys(B.biword_tuple((row,)), 1)


def check_tau_on_words(max_weight: int) -> Report:
    """On the shuffle algebra of words: the antipode of the presentation, by
    its graded-connected recursion, is the signed reversal of every label, and
    tau fixes letters, kills longer words and squares to itself."""
    out = Report()
    A = _word_presentation(max_weight)
    for label in A.labels():
        expected = W.word_antipode(W.parse_word(label)).map_keys(str)
        out.expect("antipode-signed-reversal", (label,), R.antipode(A, label), expected)
    for label in A.labels():
        t = R.tau(A, label)
        word_len = label.count(".") + 1
        expected = LinComb.single(label) if word_len == 1 else LinComb.zero()
        out.expect("tau-on-words", (label,), t, expected)
        out.expect("tau-idempotent", (label,), R.tau(A, t), t)
    return out


def check_rigidity(max_weight: int) -> Report:
    """Validate the word model, decompose every label with round-trip
    evaluation, and compare nested-word counts with ambient dimensions."""
    A = _word_presentation(max_weight)
    out = R.validate_presentation(A)
    if out:
        return out
    prim = R.primitive_basis(A)
    dims = {w: len(rows) for w, rows in prim.items()}
    for w in range(1, max_weight + 1):
        expected = len(A.basis.get(w, []))
        out.expect("nested-word-count", (w,), R.nested_word_count(dims, w), expected)
    for label in A.labels():
        out.checked += 1
        try:
            R.primitive_decomposition(A, label)
        except R.RigidityError as exc:
            out.append(R.Failure("decomposition-roundtrip", (label,), str(exc), ""))
    return out


SUITES = {
    "shuffle-axioms": check_word_shuffle_axioms,
    "dendriform": check_biword_dendriform,
    "bidendriform": check_biword_bidendriform,
    "bialgebra": check_biword_bialgebra,
    "pn-coproduct": check_pn_coproducts,
    "pi-primitive": check_pi_primitive,
    "idempotents": check_idempotents,
    "action-compat": check_action_compatibility,
    "tau": check_tau_on_words,
    "rigidity": check_rigidity,
}
