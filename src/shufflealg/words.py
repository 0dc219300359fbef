"""Words over a graded alphabet and the shuffle bialgebra structure.

A letter carries a positive weight and a symbol index inside its weight
class; a word is a finite sequence of letters (the empty word is the unit).
The half-shuffles follow the recursion ``w < z = w1 . (rest(w) sh z)`` with
``w > z := z < w`` and the unit conventions

    w < 1 = w,   1 < w = 0,   1 < 1 = 0,   w > 1 = 0,   1 > w = w,

so that the full shuffle ``sh = < + >`` is the commutative associative
product with unit 1.  The deconcatenation coproduct and the antipode make
this a graded connected commutative Hopf algebra.

Half-shuffles are computed recursively; the descent-class enumeration
(permutations with at most one descent, at a pinned position) is kept as an
independent oracle for cross-checking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

from .lincomb import LinComb, bilinear_extend


class Letter(NamedTuple):
    weight: int
    symbol: int

    def __str__(self):
        return symbol_name(self.symbol) + str(self.weight)


def symbol_name(symbol: int) -> str:
    if 0 <= symbol < 26:
        return chr(ord("a") + symbol)
    return f"s{symbol}"


@dataclass(frozen=True, slots=True)
class Word:
    """Finite sequence of graded letters; the empty word is the unit.

    ``weight`` (the sum of the letter weights) is computed once, at
    construction; it takes no part in equality, hashing or ``repr``.
    """

    letters: tuple[Letter, ...] = ()
    weight: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weight = 0
        for let in self.letters:
            if let.weight < 1:
                raise ValueError(f"letter weight must be positive: {let}")
            weight += let.weight
        object.__setattr__(self, "weight", weight)

    @classmethod
    def trusted(cls, letters: tuple[Letter, ...], weight: int) -> "Word":
        """Construction without validation, for letters taken from valid
        words; ``weight`` must be their total weight."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        object.__setattr__(w, "weight", weight)
        return w

    def __len__(self):
        return len(self.letters)

    def profile(self) -> tuple[int, ...]:
        """Letter weights in order."""
        return tuple(let.weight for let in self.letters)

    def is_empty(self) -> bool:
        return not self.letters

    def head(self) -> Letter:
        return self.letters[0]

    def tail(self) -> "Word":
        if not self.letters:
            return self
        return Word.trusted(self.letters[1:], self.weight - self.letters[0].weight)

    def concat(self, other: "Word") -> "Word":
        return Word.trusted(self.letters + other.letters, self.weight + other.weight)

    def reversed(self) -> "Word":
        return Word.trusted(self.letters[::-1], self.weight)

    def sort_key(self):
        return (self.weight, len(self.letters), self.letters)

    def __str__(self):
        if not self.letters:
            return "1"
        return ".".join(str(let) for let in self.letters)


EMPTY_WORD = Word()


def word(*letters: tuple[int, int]) -> Word:
    """Convenience builder from (weight, symbol) pairs."""
    return Word(tuple(Letter(w, s) for w, s in letters))


def _prepend(letter: Letter, combo: LinComb) -> LinComb:
    # distinct words stay distinct, so the map is rebuilt without merging
    head, weight = (letter,), letter.weight
    return LinComb._raw(
        {Word.trusted(head + w.letters, weight + w.weight): c for w, c in combo.terms().items()}
    )


@lru_cache(maxsize=None)
def word_shuffle(w: Word, z: Word) -> LinComb:
    """Full shuffle product; 1 is the unit."""
    if w.is_empty():
        return LinComb.single(z)
    if z.is_empty():
        return LinComb.single(w)
    return word_prec(w, z) + word_succ(w, z)


@lru_cache(maxsize=None)
def word_prec(w: Word, z: Word) -> LinComb:
    """Left half-shuffle: shuffles of w and z starting with the head of w."""
    if w.is_empty():
        return LinComb.zero()
    if z.is_empty():
        return LinComb.single(w)
    return _prepend(w.head(), word_shuffle(w.tail(), z))


def word_succ(w: Word, z: Word) -> LinComb:
    """Right half-shuffle: w > z = z < w."""
    return word_prec(z, w)


def word_prec_lc(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_extend(word_prec, x, y)


def word_shuffle_lc(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_extend(word_shuffle, x, y)


def _cuts(w: Word):
    """The cuts (w[:k], w[k:]) for k = 0 .. len(w)."""
    letters = w.letters
    left = 0
    for k in range(len(letters) + 1):
        yield Word.trusted(letters[:k], left), Word.trusted(letters[k:], w.weight - left)
        if k < len(letters):
            left += letters[k].weight


def deconcat(w: Word) -> LinComb:
    """Deconcatenation coproduct: all cuts, including the trivial ones."""
    return LinComb._raw(dict.fromkeys(_cuts(w), 1))


@lru_cache(maxsize=None)
def word_antipode(w: Word) -> LinComb:
    """Antipode by the graded-connected recursion S(w) = -w - sum S(w') sh w''."""
    if w.is_empty():
        return LinComb.single(EMPTY_WORD)
    proper = list(_cuts(w))[1:-1]
    return LinComb.single(w, -1) - LinComb.sum(
        (word_shuffle_lc(word_antipode(left), LinComb.single(right)), 1) for left, right in proper
    )


def signed_reversal(w: Word) -> LinComb:
    """(-1)^len(w) times the reversed word; the antipode in closed form."""
    return LinComb.single(w.reversed(), (-1) ** len(w))


@dataclass(frozen=True)
class NestedPrec:
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
    node = NestedPrec(w.letters[-1])
    for let in reversed(w.letters[:-1]):
        node = NestedPrec(let, node)
    return node


def compositions(total: int, parts: Iterable[int] | None = None):
    """All ordered compositions of ``total`` into the allowed parts (default: any)."""
    allowed = sorted(set(parts)) if parts is not None else range(1, total + 1)

    def rec(rest):
        if rest == 0:
            yield ()
            return
        for p in allowed:
            if p <= rest:
                for more in rec(rest - p):
                    yield (p,) + more

    yield from rec(total)


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
    """
    text = text.strip()
    if text in ("", "1"):
        return EMPTY_WORD
    letters = []
    pos = 0
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
    return [{"weight": let.weight, "symbol": let.symbol} for let in w.letters]


def word_from_json(items: list) -> Word:
    return Word(tuple(Letter(it["weight"], it["symbol"]) for it in items))


# -- descent-class oracle ---------------------------------------------------
#
# w < z is the sum over permutations alpha of [k+l] with descent set inside
# {k} and alpha^{-1}(1) = 1 of the rearranged concatenation; w > z pins
# alpha^{-1}(1) = k + 1 instead.  Exponential-time; used only to cross-check
# the recursive implementation.

def _descent_class_halves(w: Word, z: Word, first: int) -> LinComb:
    letters = w.letters + z.letters
    n = len(letters)
    k = len(w.letters)
    out = []
    for alpha in itertools.permutations(range(1, n + 1)):
        descents = {i + 1 for i in range(n - 1) if alpha[i] > alpha[i + 1]}
        if not descents <= {k}:
            continue
        inv = [0] * (n + 1)
        for pos, val in enumerate(alpha, start=1):
            inv[val] = pos
        if inv[1] != first:
            continue
        out.append((Word(tuple(letters[inv[i] - 1] for i in range(1, n + 1))), 1))
    return LinComb(out)


def word_prec_by_descents(w: Word, z: Word) -> LinComb:
    if w.is_empty():
        return LinComb.zero()
    if z.is_empty():
        return LinComb.single(w)
    return _descent_class_halves(w, z, 1)


def word_succ_by_descents(w: Word, z: Word) -> LinComb:
    if z.is_empty():
        return LinComb.zero()
    if w.is_empty():
        return LinComb.single(z)
    return _descent_class_halves(w, z, len(w.letters) + 1)
