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
every route below goes through it, and :func:`phi_apply` is the one-biword
form.  A combination acts through its source-profile index: a biword
(sigma, d) does not kill a word exactly when the word's letter-weight
profile is its source profile src, with src[sigma(i) - 1] = d(i), so one
dict lookup on a word's profile gives every term that acts on it.  The
batch forms :func:`endo_apply_batch` and
:func:`convolutions_via_action_batch` prepare their biword arguments once
for a whole list of words and return plain zero-free ``{word: coefficient}``
maps; the one-word forms are their one-element calls.  A convolution takes
only the cuts (w[:k], w[k:]) where f has a term of size k and g one of size
n - k.  :func:`compose_rows_via_action` reads the internal product off the
action on rows: it builds b's image of one generic probe word and applies
each left factor to it, with no ``Word`` or ``LinComb`` per pair.
"""

from __future__ import annotations

from .lincomb import LinComb, accumulate
from .biwords import Biword
from .words import Letter, Word, word_prec, word_shuffle, word_succ


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


def phi_apply(b: Biword, w: Word) -> LinComb:
    """Apply one biword to one word: a single permuted word, or zero."""
    permuted = act_letters(b.perm, b.deg, w.letters)
    return LinComb.zero() if permuted is None else LinComb._raw({Word.trusted(permuted, w.weight): 1})


def _by_source(f: LinComb) -> dict:
    """The terms of f by source profile: ``{src: (weight, [(perm, deg, coefficient), ...])}``."""
    index = {}
    for b, c in f.terms().items():
        src = [0] * len(b.perm)
        for v, d in zip(b.perm, b.deg):
            src[v - 1] = d
        index.setdefault(tuple(src), (b.weight, []))[1].append((b.perm, b.deg, c))
    return index


def _images(entry: tuple, letters: tuple, scale=1) -> list:
    """The (word, coefficient) images of the word of ``letters`` under the
    terms of one index ``entry`` (its source profile's), scaled; equal images
    are not merged yet."""
    weight, terms = entry
    return [(Word.trusted(act_letters(perm, deg, letters), weight), c * scale) for perm, deg, c in terms]


def endo_apply(f: LinComb, x: LinComb) -> LinComb:
    """Bilinear extension of the action to combinations on both sides."""
    index, data = _by_source(f), {}
    for w, cx in x.terms().items():
        entry = index.get(w.profile())
        if entry:
            accumulate(data, _images(entry, w.letters, cx))
    return LinComb._raw(data)


def endo_apply_batch(f: LinComb, words, profiles) -> list[dict]:
    """The action of f on each of the words, as zero-free coefficient maps;
    ``profiles[i]`` is ``words[i].profile()``, computed once by the caller
    for every batch over the same words."""
    get = _by_source(f).get
    return [
        accumulate({}, _images(entry, w.letters)) if (entry := get(p)) else {}
        for w, p in zip(words, profiles)
    ]


def compose_via_action(a: Biword, b: Biword) -> LinComb:
    """The biword of "apply b, then a", read off from a generic probe word
    (see :func:`compose_rows_via_action`)."""
    (row,) = compose_rows_via_action([(a.perm, a.deg)], (b.perm, b.deg))
    if row is None:
        return LinComb.zero()
    perm, deg = row
    return LinComb._raw({Biword.trusted(perm, deg, sum(deg)): 1})


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


_WORD_OPS = {
    "prec": word_prec,
    "succ": word_succ,
    "star": word_shuffle,
}


def convolutions_via_action(f: LinComb, g: LinComb, probe: Word) -> dict[str, LinComb]:
    """Evaluate ``op . (f (x) g) . Delta`` on a probe word for each op
    (``prec``, ``succ``, ``star``), from one pass: the cuts of the probe and
    the actions of the biword combinations f and g are shared."""
    sums = convolutions_via_action_batch(f, g, [probe], [probe.profile()])[0]
    return {op: LinComb._raw(data) for op, data in sums.items()}


def convolutions_via_action_batch(f: LinComb, g: LinComb, words, profiles) -> list[dict[str, dict]]:
    """``convolutions_via_action(f, g, w)`` for each of the words, each op's
    value as a zero-free coefficient map; ``profiles`` as for
    :func:`endo_apply_batch`."""
    f_index, g_index = _by_source(f), _by_source(g)
    f_sizes = sorted({len(src) for src in f_index})
    g_sizes = {len(src) for src in g_index}
    out = []
    for w, profile in zip(words, profiles):
        letters, n = w.letters, len(profile)
        sums = {op: {} for op in _WORD_OPS}
        for k in f_sizes:
            if n - k not in g_sizes:
                continue
            f_entry, g_entry = f_index.get(profile[:k]), g_index.get(profile[k:])
            if not (f_entry and g_entry):
                continue
            fl = accumulate({}, _images(f_entry, letters[:k])).items()
            gr = accumulate({}, _images(g_entry, letters[k:])).items()
            for op, combine in _WORD_OPS.items():
                accumulate(sums[op], (
                    (key, cu * cv * c) for u, cu in fl for v, cv in gr for key, c in combine(u, v).terms().items()
                ))
        out.append(sums)
    return out
