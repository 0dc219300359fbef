"""Verification suites for the algebraic identities.

Each suite enumerates a bounded family (words over a two-symbols-per-weight
alphabet, biwords with degrees in {1, 2}, or both) and returns a
:class:`Report`: the list of violations, with the number of identity
instances it checked.  An empty list is a pass only when that number is
positive.  Violations carry the inputs and both sides so a failure prints a
minimal counterexample.  Enumeration order is fixed, so suites are
deterministic.

The action suites (``idempotents``, ``action-compat``) instead probe with one
generic word (pairwise distinct letters) per composition.  Both sides of each
action identity commute with weight-preserving letter substitutions, and
every word is such an image of the generic word of its profile, so these
probes decide the identity on all words.  Unlike words over two symbols per
weight, on which the antisymmetrizer of three weight-1 letters acts as zero,
they also tell every two biword combinations apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lincomb import LinComb, coassociativity_sides, linear_extend, tensor, tensor_extend
from . import words as W
from . import biwords as B
from . import action as act
from . import descent as D
from . import rigidity as R

TEST_DEGREES = (1, 2)


@dataclass
class Failure:
    identity: str
    inputs: tuple
    lhs: object
    rhs: object

    def __str__(self):
        ins = ", ".join(str(i) for i in self.inputs)
        return f"{self.identity} fails at ({ins}):\n  lhs = {self.lhs}\n  rhs = {self.rhs}"


class Report(list):
    """The failures of one suite run; ``checked`` counts the identity
    instances it compared."""

    checked = 0

    def expect(self, identity: str, inputs: tuple, lhs, rhs) -> None:
        """Count one instance of an identity and record it if the sides differ."""
        self.checked += 1
        if lhs != rhs:
            self.append(Failure(identity, inputs, lhs, rhs))


def _words_up_to(max_weight: int, symbols: int = 2) -> list[W.Word]:
    alphabet = W.standard_alphabet(max(max_weight, 1), symbols)
    out = []
    for w in range(1, max_weight + 1):
        out.extend(W.enumerate_words(w, alphabet))
    return out


def _biwords_up_to(max_weight: int, degrees=TEST_DEGREES) -> list[B.Biword]:
    out = []
    for w in range(1, max_weight + 1):
        out.extend(B.enumerate_biwords(w, degrees))
    return out


# -- word suites -------------------------------------------------------------

def check_word_shuffle_axioms(max_weight: int) -> Report:
    """Zinbiel/dendriform axioms, shuffle commutativity and associativity,
    coassociativity of deconcatenation, the coproduct compatibility of the
    half-product, and the antipode convolution identity."""
    out = Report()
    words = _words_up_to(max_weight)
    for a in words:
        for b in words:
            if a.weight + b.weight > max_weight:
                continue
            out.expect("shuffle-commutativity", (a, b), W.word_shuffle(a, b), W.word_shuffle(b, a))
            for c in words:
                if a.weight + b.weight + c.weight > max_weight:
                    continue
                _dendriform_triple_word(out, a, b, c)
    _word_coproduct_checks(out, words, max_weight)
    return out


def _dendriform_triple_word(out: Report, a, b, c) -> None:
    la, lb, lc = (LinComb.single(x) for x in (a, b, c))
    prec, succ, star = W.word_prec_lc, _word_succ_lc, W.word_shuffle_lc
    out.expect(
        "half-shuffle-axiom (a<b)<c = a<(b sh c)", (a, b, c),
        prec(prec(la, lb), lc), prec(la, star(lb, lc)),
    )
    out.expect("(a sh b)>c = a>(b>c)", (a, b, c), succ(star(la, lb), lc), succ(la, succ(lb, lc)))
    out.expect("(a>b)<c = a>(b<c)", (a, b, c), prec(succ(la, lb), lc), succ(la, prec(lb, lc)))


def _word_succ_lc(x: LinComb, y: LinComb) -> LinComb:
    return W.word_prec_lc(y, x)


def _word_coproduct_checks(out: Report, words, max_weight: int) -> None:
    zero = LinComb.zero()
    for w in words:
        cop = W.deconcat(w)
        lhs, rhs = coassociativity_sides(cop, W.deconcat)
        out.expect("deconcat-coassociativity", (w,), lhs, rhs)
        # antipode convolution both ways: S * Id = Id * S = 0 on nonempty words
        cuts = cop.terms().items()
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
    for x in words:
        for y in words:
            if x.weight + y.weight > max_weight:
                continue
            # Delta(x < y) = x' < y' (x) x'' sh y'' + 1 (x) x < y
            xy = W.word_prec(x, y)
            rhs = tensor_extend(W.word_prec, W.word_shuffle, W.deconcat(x), W.deconcat(y))
            rhs = rhs + xy.map_keys(lambda key: (W.EMPTY_WORD, key))
            out.expect("word-left-compatibility", (x, y), linear_extend(W.deconcat, xy), rhs)


# -- biword suites --------------------------------------------------------------

def check_biword_dendriform(max_weight: int) -> Report:
    """The three half-product associativity axioms on biword triples."""
    out = Report()
    biwords = _biwords_up_to(max_weight)
    for a in biwords:
        for b in biwords:
            if a.weight + b.weight >= max_weight:
                continue
            ab_prec = B.biword_prec(a, b)
            ab_star = B.biword_star(a, b)
            ab_succ = B.biword_succ(a, b)
            la = LinComb.single(a)
            for c in biwords:
                if a.weight + b.weight + c.weight > max_weight:
                    continue
                lc_ = LinComb.single(c)
                abc = (a, b, c)
                out.expect(
                    "(a<b)<c = a<(b*c)", abc,
                    B.biword_prec_lc(ab_prec, lc_), B.biword_prec_lc(la, B.biword_star(b, c)),
                )
                out.expect(
                    "(a*b)>c = a>(b>c)", abc,
                    B.biword_succ_lc(ab_star, lc_), B.biword_succ_lc(la, B.biword_succ(b, c)),
                )
                out.expect(
                    "(a>b)<c = a>(b<c)", abc,
                    B.biword_prec_lc(ab_succ, lc_), B.biword_succ_lc(la, B.biword_prec(b, c)),
                )
    return out


def _tensor_map(left_op, right_op, cop: LinComb) -> LinComb:
    """(left_op (x) right_op)(cop) for a combination of key pairs."""
    return LinComb.sum(
        (tensor(left_op(k1), right_op(k2)), c) for (k1, k2), c in cop.terms().items()
    )


def check_biword_bidendriform(max_weight: int) -> Report:
    """The four half-coproduct/half-product compatibilities on biword pairs."""
    out = Report()
    single = LinComb.single
    biwords = _biwords_up_to(max_weight)
    for x in biwords:
        dp_x = B.coproduct_prec(x)
        ds_x = B.coproduct_succ(x)
        for y in biwords:
            if x.weight + y.weight > max_weight:
                continue
            dt_y = B.coproduct_prec(y) + B.coproduct_succ(y)
            xy = (x, y)
            prec_y = lambda t: B.biword_prec(t, y)
            succ_y = lambda t: B.biword_succ(t, y)
            star_y = lambda t: B.biword_star(t, y)

            rhs = (
                tensor_extend(B.biword_prec, B.biword_star, dp_x, dt_y)
                + single(xy)
                + _tensor_map(lambda t: B.biword_prec(x, t), single, dt_y)
                + _tensor_map(single, star_y, dp_x)
                + _tensor_map(prec_y, single, dp_x)
            )
            out.expect("prec-coproduct of x<y", xy, B.coproduct_prec_lc(B.biword_prec(x, y)), rhs)

            rhs = (
                tensor_extend(B.biword_prec, B.biword_star, ds_x, dt_y)
                + _tensor_map(prec_y, single, ds_x)
                + _tensor_map(single, star_y, ds_x)
            )
            out.expect("succ-coproduct of x<y", xy, B.coproduct_succ_lc(B.biword_prec(x, y)), rhs)

            rhs = (
                tensor_extend(B.biword_succ, B.biword_star, dp_x, dt_y)
                + _tensor_map(succ_y, single, dp_x)
                + _tensor_map(lambda t: B.biword_succ(x, t), single, dt_y)
            )
            out.expect("prec-coproduct of x>y", xy, B.coproduct_prec_lc(B.biword_succ(x, y)), rhs)

            rhs = (
                tensor_extend(B.biword_succ, B.biword_star, ds_x, dt_y)
                + single((y, x))
                + _tensor_map(single, lambda t: B.biword_star(x, t), dt_y)
                + _tensor_map(succ_y, single, ds_x)
            )
            out.expect("succ-coproduct of x>y", xy, B.coproduct_succ_lc(B.biword_succ(x, y)), rhs)
    return out


def _hopf_coproduct_of(b: B.Biword) -> LinComb:
    return B.hopf_coproduct(LinComb.single(b))


def check_biword_bialgebra(max_weight: int) -> Report:
    """Coassociativity of the full coproduct and the morphism property for star."""
    out = Report()
    biwords = [B.UNIT_BIWORD] + _biwords_up_to(max_weight)
    for x in biwords:
        lhs, rhs = coassociativity_sides(_hopf_coproduct_of(x), _hopf_coproduct_of)
        out.expect("hopf-coassociativity", (x,), lhs, rhs)
    for x in biwords:
        cop_x = _hopf_coproduct_of(x)
        for y in biwords:
            if x.weight + y.weight > max_weight:
                continue
            out.expect(
                "coproduct-star-morphism", (x, y),
                B.hopf_coproduct(B.biword_star(x, y)),
                tensor_extend(B.biword_star, B.biword_star, cop_x, _hopf_coproduct_of(y)),
            )
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
    words = [w for n in range(1, max_weight + 1) for w in probes(n)]
    for c, value in values.items():
        for w in words:
            got = act.endo_apply(value, LinComb.single(w))
            expected = LinComb.single(w) if w.profile() == c else LinComb.zero()
            out.expect("pi-projection-action", (c, w), got, expected)
    return out


def check_action_compatibility(max_weight: int, max_size: int = 3) -> Report:
    """Biword half-products realize the convolution half-products, and the
    internal product matches composition of actions."""
    return _check_action_compatibility(max_weight, max_size, _generic_probes)


def _check_action_compatibility(max_weight: int, max_size: int, probes) -> Report:
    """The action suite, probing pairs of total weight n with the words ``probes(n)``."""
    out = Report()
    biwords = [B.UNIT_BIWORD] + _biwords_up_to(max_weight - 1, degrees=None)
    probes_of = {n: probes(n) for n in range(1, max_weight + 1)}
    for a in biwords:
        for b in biwords:
            total = a.weight + b.weight
            if total > max_weight or total == 0:
                continue
            products = {
                "prec": B.biword_prec(a, b),
                "succ": B.biword_succ(a, b),
                "star": B.biword_star(a, b),
            }
            fa, fb = LinComb.single(a), LinComb.single(b)
            for probe in probes_of[total]:
                lprobe = LinComb.single(probe)
                convolutions = act.convolutions_via_action(fa, fb, probe)
                for op, prod in products.items():
                    out.expect(f"action-{op}", (a, b, probe), act.endo_apply(prod, lprobe), convolutions[op])
    sized = [b for k in range(max_size + 1) for b in B.enumerate_biwords_by_size(k, TEST_DEGREES)]
    for a in sized:
        for b in sized:
            out.expect(
                "internal-compose-vs-action", (a, b),
                B.internal_compose(a, b), act.compose_via_action(a, b),
            )
    return out


def check_tau_on_words(max_weight: int) -> Report:
    """On the shuffle algebra of words: tau fixes letters, kills longer words
    and squares to itself; the antipode is the signed reversal and inverts
    the identity under convolution."""
    out = Report()
    words = _words_up_to(max_weight)
    for w in words:
        out.expect("antipode-signed-reversal", (w,), W.word_antipode(w), W.signed_reversal(w))
    A = R.shuffle_presentation(W.standard_alphabet(max_weight, 2), max_weight)
    for label in A.labels():
        t = R.tau(A, label)
        word_len = label.count(".") + 1
        expected = LinComb.single(label) if word_len == 1 else LinComb.zero()
        out.expect("tau-on-words", (label,), t, expected)
        out.expect("tau-idempotent", (label,), R.tau(A, t), t)
    return out


def check_rigidity(max_weight: int, symbols: int = 2) -> Report:
    """Validate the word model, decompose every label with round-trip
    evaluation, and compare nested-word counts with ambient dimensions."""
    out = Report()
    alphabet = W.standard_alphabet(max_weight, symbols)
    A = R.shuffle_presentation(alphabet, max_weight)
    violations = R.validate_presentation(A)
    for v in violations:
        out.append(Failure("presentation-axiom", (v.axiom,) + v.inputs, v.lhs, v.rhs))
    if violations:
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
            out.append(Failure("decomposition-roundtrip", (label,), str(exc), ""))
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

DEFAULT_SUITE_WEIGHT = 5


def run_suite(name: str, max_weight: int) -> Report:
    fn = SUITES.get(name)
    if fn is None:
        raise KeyError(name)
    return fn(max_weight)
