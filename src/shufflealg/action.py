"""Biwords acting as endomorphisms of the shuffle algebra of words.

A biword (sigma, d) of size k sends a word x1...xk to the permuted word
x_{sigma(1)}...x_{sigma(k)} when every output letter has the prescribed
weight (|x_{sigma(i)}| = d(i)), and kills everything else.  This action is
the ground truth behind the internal product on biwords and behind the
claim that the biword half-products realize the convolution half-products
``f op g = op . (f (x) g) . Delta`` on endomorphisms.

Endomorphisms are handled extensionally as linear combinations of biwords,
which keeps them comparable and serializable.
"""

from __future__ import annotations

from .lincomb import LinComb, accumulate
from .biwords import Biword
from .words import Word, deconcat, generic_word, word_prec, word_shuffle, word_succ


def _permuted(b: Biword, w: Word) -> Word | None:
    """The word b sends w to, or None where b kills w."""
    letters = w.letters
    if len(b.perm) != len(letters):
        return None
    permuted = tuple([letters[v - 1] for v in b.perm])
    for letter, d in zip(permuted, b.deg):
        if letter.weight != d:
            return None
    return Word.trusted(permuted, w.weight)


def phi_apply(b: Biword, w: Word) -> LinComb:
    """Apply one biword to one word: a single permuted word, or zero."""
    out = _permuted(b, w)
    return LinComb.zero() if out is None else LinComb._raw({out: 1})


def endo_apply(f: LinComb, x: LinComb) -> LinComb:
    """Bilinear extension of the action to combinations on both sides."""
    return LinComb._raw(_act(f.terms().items(), x.terms().items()))


def _act(fs, xs) -> dict:
    """The action of (biword, coefficient) pairs on (word, coefficient) pairs, zeros dropped."""
    return accumulate({}, (
        (out, cf * cx) for b, cf in fs for w, cx in xs if (out := _permuted(b, w)) is not None
    ))


def compose_via_action(a: Biword, b: Biword) -> LinComb:
    """The biword of "apply b, then a", read off from a generic probe word.

    The probe is the generic word (pairwise distinct letters, symbol =
    position) whose profile b accepts, so the permuted output identifies the
    composite uniquely; when the degree conditions collide it is zero.
    """
    if a.size != b.size:
        return LinComb.zero()
    # the degree of the column with top entry j goes to position j
    probe = generic_word(d for _, d in sorted(zip(b.perm, b.deg)))
    mid = _permuted(b, probe)
    assert mid is not None, "probe was built to survive b"
    out = _permuted(a, mid)
    if out is None:
        return LinComb.zero()
    # the probe's symbols are the positions 1..k, so the symbols form a permutation
    perm = tuple([letter.symbol for letter in out.letters])
    deg = tuple([letter.weight for letter in out.letters])
    return LinComb._raw({Biword.trusted(perm, deg, out.weight): 1})


_WORD_OPS = {
    "prec": word_prec,
    "succ": word_succ,
    "star": word_shuffle,
}


def convolutions_via_action(f: LinComb, g: LinComb, probe: Word) -> dict[str, LinComb]:
    """Evaluate ``op . (f (x) g) . Delta`` on a probe word for each op
    (``prec``, ``succ``, ``star``), from one pass: the cuts of the probe and
    the actions of the biword combinations f and g are shared."""
    sums = {op: {} for op in _WORD_OPS}
    fs, gs = f.terms().items(), g.terms().items()
    for (left, right), ccut in deconcat(probe).terms().items():
        fl = _act(fs, ((left, ccut),)).items()
        gr = _act(gs, ((right, 1),)).items() if fl else ()
        if not gr:
            continue
        for op, combine in _WORD_OPS.items():
            accumulate(sums[op], (
                (key, cu * cv * c) for u, cu in fl for v, cv in gr for key, c in combine(u, v).terms().items()
            ))
    return {op: LinComb._raw(data) for op, data in sums.items()}
