"""Biwords acting as endomorphisms of the shuffle algebra of words.

A biword (sigma, d) of size k sends a word x1...xk to the permuted word
x_{sigma(1)}...x_{sigma(k)} when every output letter has the prescribed
weight (|x_{sigma(i)}| = d(i)), and kills everything else.  This action is
the ground truth behind the internal product on biwords and behind the
claim that the biword half-products realize the convolution half-products
``f op g = op . (f (x) g) . Delta`` on endomorphisms.

Endomorphisms are handled extensionally as linear combinations of biwords,
which keeps them comparable and serializable.  :func:`act_letters` is the
one definition of the action, on a biword's two rows and a tuple of letters;
a word is its letter tuple, so a call reads ``act_letters(*b.row, w)``.
:func:`source_profile` states the rule it implies: a biword kills every
word outside its source profile, so a combination kills every word whose
profile is not among its :func:`sources`.  :func:`endo_image` acts with a
combination on one word and returns a zero-free ``{word: coefficient}`` map.
:func:`compose_rows_via_action` reads the internal product off the action on
rows: it builds b's image of the generic word of b's source profile and
applies each left factor to it, with no ``Word`` or ``LinComb`` per pair.
"""

from __future__ import annotations

from .lincomb import LinComb, accumulate
from .words import Word, _word, generic_word


def act_letters(perm: tuple, deg: tuple, letters: tuple) -> tuple | None:
    """The letters the biword (perm, deg) sends ``letters`` to, or None where
    it kills them: output letter i is letters[perm[i] - 1], and its weight
    must be deg[i].  This is the one definition of the action."""
    if len(perm) != len(letters):
        return None
    for v, d in zip(perm, deg):
        if letters[v - 1].weight != d:
            return None
    return tuple([letters[v - 1] for v in perm])


def source_profile(perm: tuple, deg: tuple) -> tuple:
    """The letter-weight profile src of the words the biword (perm, deg) does
    not kill: src[perm(i) - 1] = deg(i).  This is the one statement of the
    rule; the source of a riffle of a and b is src(a) followed by src(b)."""
    src = [0] * len(perm)
    for v, d in zip(perm, deg):
        src[v - 1] = d
    return tuple(src)


def sources(f: LinComb) -> set:
    """The source profiles of f's terms: f kills every word of another profile."""
    return {source_profile(*b.row) for b in f.terms()}


def endo_image(f: LinComb, w: Word) -> dict:
    """The action of f on the word w, as a zero-free ``{word: coefficient}`` map."""
    images = ((act_letters(*b.row, w), c) for b, c in f.terms().items())
    return accumulate({}, [(_word(u), c) for u, c in images if u is not None])


def compose_rows_via_action(lefts, b: tuple) -> list:
    """For each row a in ``lefts``, the row of "apply b, then a", or None
    where it is zero, read off from the action on one probe word.

    The probe is the generic word of b's source profile whose letter at
    position j has symbol j, so b's image of it names the source position of
    every letter, and a's image of that identifies the composite uniquely:
    its symbols are the top row and its weights the degrees.
    """
    mid = act_letters(*b, generic_word(source_profile(*b)))
    out = []
    for perm, deg in lefts:
        image = act_letters(perm, deg, mid)
        if image is None:
            out.append(None)
        else:
            weights, symbols = zip(*image) if image else ((), ())
            out.append((symbols, weights))
    return out

