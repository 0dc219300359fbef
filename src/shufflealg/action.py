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
every route below goes through it.  A combination acts through its
source-profile index: a biword (sigma, d) does not kill a word exactly when
the word's letter-weight profile is its source profile src, with
src[sigma(i) - 1] = d(i), so one dict lookup on a word's profile gives every
term that acts on it.  :func:`endo_apply_batch` prepares a combination once
for a whole list of words and returns plain zero-free
``{word: coefficient}`` maps.  :func:`compose_rows_via_action` reads the
internal product off the action on rows: it builds b's image of one generic
probe word and applies each left factor to it, with no ``Word`` or
``LinComb`` per pair.
"""

from __future__ import annotations

from .lincomb import LinComb, accumulate
from .words import Letter, Word


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


def _by_source(f: LinComb) -> dict:
    """The terms of f by source profile: ``{src: (weight, [(perm, deg, coefficient), ...])}``."""
    index = {}
    for b, c in f.terms().items():
        src = [0] * len(b.perm)
        for v, d in zip(b.perm, b.deg):
            src[v - 1] = d
        index.setdefault(tuple(src), (b.weight, []))[1].append((b.perm, b.deg, c))
    return index


def _images(entry: tuple, letters: tuple) -> list:
    """The (word, coefficient) images of the word of ``letters`` under the
    terms of one index ``entry`` (its source profile's); equal images are not
    merged yet."""
    weight, terms = entry
    return [(Word.trusted(act_letters(perm, deg, letters), weight), c) for perm, deg, c in terms]


def endo_apply_batch(f: LinComb, words, profiles) -> list[dict]:
    """The action of f on each of the words, as zero-free coefficient maps;
    ``profiles[i]`` is ``words[i].profile()``, computed once by the caller
    for every batch over the same words."""
    get = _by_source(f).get
    return [
        accumulate({}, _images(entry, w.letters)) if (entry := get(p)) else {}
        for w, p in zip(words, profiles)
    ]


def compose_rows_via_action(lefts, b: tuple) -> list:
    """For each row a in ``lefts``, the row of "apply b, then a", or None
    where it is zero, read off from the action on one probe word.

    The probe is the generic word of b's source profile whose letter at
    position j has symbol j, so b's image of it names the source position of
    every letter, and a's image of that identifies the composite uniquely:
    its symbols are the top row and its weights the degrees.
    """
    perm_b, deg_b = b
    probe = [None] * len(perm_b)
    for v, d in zip(perm_b, deg_b):
        probe[v - 1] = Letter(d, v)
    mid = act_letters(perm_b, deg_b, tuple(probe))
    out = []
    for perm, deg in lefts:
        image = act_letters(perm, deg, mid)
        if image is None:
            out.append(None)
        else:
            weights, symbols = zip(*image) if image else ((), ())
            out.append((symbols, weights))
    return out

