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

from .lincomb import LinComb, bilinear_extend
from .biwords import Biword
from .words import Word, deconcat, generic_word, word_prec, word_shuffle, word_succ


def phi_apply(b: Biword, w: Word) -> LinComb:
    """Apply one biword to one word: a single permuted word, or zero."""
    letters = w.letters
    if len(b.perm) != len(letters):
        return LinComb.zero()
    permuted = tuple(letters[v - 1] for v in b.perm)
    for letter, d in zip(permuted, b.deg):
        if letter.weight != d:
            return LinComb.zero()
    return LinComb.single(Word.trusted(permuted, w.weight))


def endo_apply(f: LinComb, x: LinComb) -> LinComb:
    """Bilinear extension of the action to combinations on both sides."""
    return bilinear_extend(phi_apply, f, x)


def compose_via_action(a: Biword, b: Biword) -> LinComb:
    """The biword of "apply b, then a", read off from a generic probe word.

    The probe is the generic word (pairwise distinct letters, symbol =
    position) whose profile b accepts, so the permuted output identifies the
    composite uniquely; when the degree conditions collide it is zero.
    """
    if a.size != b.size:
        return LinComb.zero()
    if a.size == 0:
        return LinComb.single(Biword())
    # the degree of the column with top entry j goes to position j
    probe = generic_word(d for _, d in sorted(zip(b.perm, b.deg)))
    mid = phi_apply(b, probe)
    assert len(mid) == 1, "probe was built to survive b"
    (mid_word,) = mid.keys()
    final = phi_apply(a, mid_word)
    if final.is_zero():
        return LinComb.zero()
    (out_word,) = final.keys()
    perm = tuple(letter.symbol for letter in out_word.letters)
    deg = tuple(letter.weight for letter in out_word.letters)
    return LinComb.single(Biword(perm, deg))


_WORD_OPS = {
    "prec": word_prec,
    "succ": word_succ,
    "star": word_shuffle,
}


def convolution_via_action(f: LinComb, g: LinComb, probe: Word, op: str = "star") -> LinComb:
    """Evaluate ``op . (f (x) g) . Delta`` on a probe word.

    ``op`` is one of ``prec``, ``succ``, ``star``; f and g are biword
    combinations acting through phi.
    """
    return convolutions_via_action(f, g, probe, (op,))[op]


def convolutions_via_action(
    f: LinComb, g: LinComb, probe: Word, ops=tuple(_WORD_OPS)
) -> dict[str, LinComb]:
    """``convolution_via_action`` for each op in ``ops``, from one pass: the
    cuts of the probe and the actions of f and g on them are shared."""
    combines = {op: _WORD_OPS[op] for op in ops}
    cuts = []
    for (left, right), ccut in deconcat(probe).terms().items():
        fl = endo_apply(f, LinComb.single(left))
        gr = endo_apply(g, LinComb.single(right))
        if not (fl.is_zero() or gr.is_zero()):
            cuts.append((fl, gr, ccut))
    return {
        op: LinComb.sum((bilinear_extend(combine, fl, gr), ccut) for fl, gr, ccut in cuts)
        for op, combine in combines.items()
    }
