"""Words over a graded alphabet and the shuffle bialgebra structure.

A letter carries a positive weight and a symbol index inside its weight
class; a word is a finite sequence of letters (the empty word is the unit).
A :class:`Word` is the tuple of its letters: it equals, hashes and pickles
as that tuple (a plain tuple of the same letters included), and the kernels
index, slice and concatenate it directly.
``_word`` wraps letters taken from valid words without a check.

The half-shuffles follow the recursion ``w < z = w1 . (rest(w) sh z)`` with
``w > z := z < w`` and the unit conventions

    w < 1 = w,   1 < w = 0,   1 < 1 = 0,   w > 1 = 0,   1 > w = w,

so that the full shuffle ``sh = < + >`` is the commutative associative
product with unit 1.  The deconcatenation coproduct and the antipode make
this a graded connected commutative Hopf algebra, whose antipode is
S(w) = (-1)^len(w) reverse(w) (Reutenauer, *Free Lie Algebras*, 1993).

The shuffle fills this recursion's table bottom-up within one call, with no
cache.  The independent oracles, in ``tests/oracles.py``, are the
descent-class enumeration (permutations with at most one descent, at a
pinned position), the graded-connected antipode recursion and the
right-nested half-shuffle form of a word.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Iterable, Mapping, NamedTuple

from .lincomb import LinComb, accumulate, bilinear_extend


class Letter(NamedTuple):
    weight: int
    symbol: int

    def __str__(self):
        return symbol_name(self.symbol) + str(self.weight)


def symbol_name(symbol: int) -> str:
    if 0 <= symbol < 26:
        return chr(ord("a") + symbol)
    return f"s{symbol}"


class Word(tuple):
    """Finite sequence of graded letters, as the tuple of its letters; the
    empty word is the unit.

    A word equals and hashes as its letter tuple.  ``weight`` (the sum of the
    letter weights) is computed on access; it takes no part in equality,
    hashing or ``repr``.
    """

    __slots__ = ()

    def __new__(cls, letters: tuple[Letter, ...] = ()):
        letters = tuple(letters)
        for let in letters:
            if let.weight < 1:
                raise ValueError(f"letter weight must be positive: {let}")
        return tuple.__new__(cls, letters)

    @property
    def weight(self) -> int:
        return sum([let.weight for let in self])

    def __repr__(self):
        return f"Word(letters={tuple(self)!r})"

    def profile(self) -> tuple[int, ...]:
        """Letter weights in order."""
        return tuple([let.weight for let in self])

    def is_empty(self) -> bool:
        return not self

    def sort_key(self):
        return (self.weight, len(self), self)

    def __str__(self):
        return ".".join(map(str, self)) or "1"


# construction without validation, for letters taken from valid words
_word = partial(tuple.__new__, Word)

EMPTY_WORD = Word()


def word_shuffle(w: Word, z: Word) -> LinComb:
    """Full shuffle product; 1 is the unit.

    ``row[j]`` holds the shuffles of ``w[i:]`` and ``z[j:]`` (letter tuples
    to coefficients), ``w[i] . row[j] + z[j] . row[j + 1]``, as i runs down.
    """
    row = [{z[j:]: 1} for j in range(len(z) + 1)]
    for i in reversed(range(len(w))):
        head = (w[i],)
        right = row[-1] = {w[i:]: 1}
        for j in reversed(range(len(z))):
            other = (z[j],)
            right = row[j] = accumulate(
                {head + k: c for k, c in row[j].items()}, [(other + k, c) for k, c in right.items()]
            )
    return LinComb._raw({_word(k): c for k, c in row[0].items()})


def word_prec(w: Word, z: Word) -> LinComb:
    """Left half-shuffle: shuffles of w and z starting with the head of w."""
    if w.is_empty():
        return LinComb.zero()
    # distinct words stay distinct, so the map is rebuilt without merging
    head = w[:1]
    return LinComb._raw({_word(head + k): c for k, c in word_shuffle(w[1:], z).terms().items()})


def word_succ(w: Word, z: Word) -> LinComb:
    """Right half-shuffle: w > z = z < w."""
    return word_prec(z, w)


def word_prec_lc(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_extend(word_prec, x, y)


def word_shuffle_lc(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_extend(word_shuffle, x, y)


def _cuts(w: Word):
    """The cuts (w[:k], w[k:]) for k = 0 .. len(w)."""
    for k in range(len(w) + 1):
        yield _word(w[:k]), _word(w[k:])


def deconcat(w: Word) -> LinComb:
    """Deconcatenation coproduct: all cuts, including the trivial ones."""
    return LinComb._raw(dict.fromkeys(_cuts(w), 1))


def word_antipode(w: Word) -> LinComb:
    """Antipode in closed form: (-1)^len(w) times the reversed word."""
    return LinComb.single(_word(w[::-1]), (-1) ** len(w))


def generic_word(profile: Iterable[int]) -> Word:
    """The word of a letter-weight profile whose letters are pairwise distinct
    (symbol = position, from 1); every word of that profile is its image
    under a weight-preserving letter substitution."""
    return Word(tuple(Letter(weight, j) for j, weight in enumerate(profile, start=1)))


def compositions(total: int, parts: Iterable[int] | None = None):
    """All ordered compositions of ``total`` into the allowed parts (default: any)."""
    allowed = sorted(set(parts)) if parts is not None else range(1, total + 1)
    if allowed and allowed[0] < 1:
        raise ValueError(f"composition parts must be positive, got {allowed[0]}")

    def rec(rest):
        if rest == 0:
            yield ()
            return
        for p in allowed:
            if p <= rest:
                for more in rec(rest - p):
                    yield (p,) + more

    yield from rec(total)


def graded_tuples(arity: int, bound: int, items_of, unit: bool = False) -> list[tuple]:
    """The ``arity``-tuples whose i-th entry is drawn from ``items_of(m_i)``,
    every weight m_i >= 1 (>= 0 with ``unit``) and the m_i summing to at most
    ``bound``, in lexicographic order of (weight, position in its list)."""
    least = 0 if unit else 1
    items = {m: list(items_of(m)) for m in range(least, bound - (arity - 1) * least + 1)} if arity else {}
    # the prefixes of one length with the weight room they leave, extended
    # position by position; each extension keeps the order
    level = [((), bound)]
    for after in reversed(range(arity)):
        level = [
            (head + (item,), room - m)
            for head, room in level
            for m in range(least, room - after * least + 1)
            for item in items[m]
        ]
    return [head for head, _ in level]


def enumerate_words(weight: int, alphabet: Mapping[int, int]) -> list[Word]:
    """All words of the given weight over a finite alphabet.

    ``alphabet`` maps a letter weight to the number of symbols of that
    weight; output is in canonical order without duplicates.
    """
    if weight == 0:
        return [EMPTY_WORD]
    parts = [w for w, count in alphabet.items() if count > 0]
    out = []
    for comp in compositions(weight, parts):
        ranges = [range(alphabet[p]) for p in comp]
        for symbols in itertools.product(*ranges):
            out.append(Word(tuple(Letter(p, s) for p, s in zip(comp, symbols))))
    out.sort(key=Word.sort_key)
    return out


def standard_alphabet(max_weight: int, symbols_per_weight: int = 2) -> dict[int, int]:
    return {w: symbols_per_weight for w in range(1, max_weight + 1)}


class WordParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def parse_word(text: str) -> Word:
    """Parse the dot-separated text form, e.g. ``a1.b2.a1``.

    Each letter is a lowercase symbol character followed by its weight in
    digits (weight 1 when omitted); ``1`` or the empty string is the unit.
    A parse error gives its position in ``text`` as typed, leading spaces
    included.
    """
    pos = len(text) - len(text.lstrip())
    text = text.strip()
    if text in ("", "1"):
        return EMPTY_WORD
    letters = []
    for chunk in text.split("."):
        if not chunk:
            raise WordParseError("empty letter", pos)
        sym = chunk[0]
        if not ("a" <= sym <= "z"):
            raise WordParseError(f"expected a symbol character, got {sym!r}", pos)
        digits = chunk[1:]
        if digits and not digits.isdigit():
            raise WordParseError(f"expected a weight, got {digits!r}", pos + 1)
        weight = int(digits) if digits else 1
        if weight < 1:
            raise WordParseError("letter weight must be positive", pos + 1)
        letters.append(Letter(weight, ord(sym) - ord("a")))
        pos += len(chunk) + 1
    return Word(tuple(letters))


def word_to_json(w: Word) -> list:
    return [{"weight": let.weight, "symbol": let.symbol} for let in w]

