"""Graded permutations (biwords) and their Hopf-dendriform structure.

A biword is a pair (sigma, d): a permutation of [k] written in one-line
notation on the top row and a map d: [k] -> positive integers on the bottom
row.  Its weight is the sum of the degrees; the size-0 biword is the unit.

The half-products interleave the columns of the left biword with the
columns of the right biword after shifting its top row by k, keeping the
relative order inside each biword: ``a < b`` keeps the first column of a in
front, ``a > b`` the first (shifted) column of b, and the convolution
``a * b = a < b + a > b`` runs over all riffle interleavings.  The two
half-coproducts cut the biword in two and standardize the top rows; the
column carrying top entry 1 stays left for the prec coproduct and right for
the succ coproduct.

The internal product is pinned to endomorphism composition (see
:mod:`shufflealg.action`): ``internal_compose(a, b)`` is the biword whose
action equals "apply b, then a".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .lincomb import LinComb, bilinear_extend, linear_extend
from .words import compositions


@dataclass(frozen=True, slots=True)
class Biword:
    """A permutation of [k] with a positive degree attached to each column.

    ``weight`` (the sum of the degrees) is computed once, at construction;
    it takes no part in equality, hashing or ``repr``.
    """

    perm: tuple[int, ...] = ()
    deg: tuple[int, ...] = ()
    weight: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.perm) != len(self.deg):
            raise ValueError("permutation and degree rows differ in length")
        k = len(self.perm)
        if sorted(self.perm) != list(range(1, k + 1)):
            raise ValueError(f"top row is not a permutation of [{k}]: {self.perm}")
        for d in self.deg:
            if d < 1:
                raise ValueError(f"degrees must be positive: {self.deg}")
        object.__setattr__(self, "weight", sum(self.deg))

    @classmethod
    def trusted(cls, perm: tuple[int, ...], deg: tuple[int, ...], weight: int) -> "Biword":
        """Construction without validation, for rows that are valid by
        construction; ``weight`` must be ``sum(deg)``."""
        b = object.__new__(cls)
        object.__setattr__(b, "perm", perm)
        object.__setattr__(b, "deg", deg)
        object.__setattr__(b, "weight", weight)
        return b

    @property
    def size(self) -> int:
        return len(self.perm)

    def is_unit(self) -> bool:
        return not self.perm

    def inverse_position(self, value: int) -> int:
        """1-based position of ``value`` in the top row."""
        return self.perm.index(value) + 1

    def sort_key(self):
        return (self.weight, self.size, self.perm, self.deg)

    def __str__(self):
        return render_biword(self)


UNIT_BIWORD = Biword()


def biword(perm, deg) -> Biword:
    return Biword(tuple(perm), tuple(deg))


def standardize(values) -> tuple[int, ...]:
    """Order-isomorphic relabeling of distinct integers to a permutation of [k]."""
    values = tuple(values)
    if len(set(values)) != len(values):
        raise ValueError(f"cannot standardize a sequence with repeats: {values}")
    ranks = {v: i + 1 for i, v in enumerate(sorted(values))}
    return tuple(ranks[v] for v in values)


def tensor_biword(a: Biword, b: Biword) -> Biword:
    """Block-diagonal concatenation: b's top row shifted by a's size."""
    k = a.size
    return Biword.trusted(a.perm + tuple(v + k for v in b.perm), a.deg + b.deg, a.weight + b.weight)


def _interleavings(a: Biword, b: Biword, first_from_left: bool):
    """Riffle interleavings of a's columns with b's shifted columns."""
    k, l = a.size, b.size
    cols_a = list(zip(a.perm, a.deg))
    cols_b = [(v + k, d) for v, d in zip(b.perm, b.deg)]
    n = k + l
    weight = a.weight + b.weight
    # choose the slots occupied by b's columns, preserving orders
    if first_from_left:
        slot_iter = itertools.combinations(range(1, n), l)
    else:
        slot_iter = ((0,) + rest for rest in itertools.combinations(range(1, n), l - 1))
    for slots in slot_iter:
        cols = []
        ia = ib = 0
        slot_set = set(slots)
        for pos in range(n):
            if pos in slot_set:
                cols.append(cols_b[ib])
                ib += 1
            else:
                cols.append(cols_a[ia])
                ia += 1
        perm, deg = zip(*cols)
        yield Biword.trusted(perm, deg, weight)


def biword_prec(a: Biword, b: Biword) -> LinComb:
    """Half-product keeping a's first column in front; 1 < x = 0."""
    if a.is_unit():
        return LinComb.zero()
    if b.is_unit():
        return LinComb.single(a)
    return LinComb._raw(dict.fromkeys(_interleavings(a, b, first_from_left=True), 1))


def biword_succ(a: Biword, b: Biword) -> LinComb:
    """Half-product keeping b's first (shifted) column in front; x > 1 = 0."""
    if b.is_unit():
        return LinComb.zero()
    if a.is_unit():
        return LinComb.single(b)
    return LinComb._raw(dict.fromkeys(_interleavings(a, b, first_from_left=False), 1))


def biword_star(a: Biword, b: Biword) -> LinComb:
    """Convolution product: all riffle interleavings; the unit is two-sided."""
    if a.is_unit() and b.is_unit():
        return LinComb.single(UNIT_BIWORD)
    return biword_prec(a, b) + biword_succ(a, b)


def biword_prec_lc(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_extend(biword_prec, x, y)


def biword_succ_lc(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_extend(biword_succ, x, y)


def biword_star_lc(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_extend(biword_star, x, y)


# -- descent-class oracle for the half-products ------------------------------

def _halves_by_descents(a: Biword, b: Biword, first: int) -> LinComb:
    k, l = a.size, b.size
    n = k + l
    top = a.perm + tuple(v + k for v in b.perm)
    bottom = a.deg + b.deg
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
        perm = tuple(top[inv[i] - 1] for i in range(1, n + 1))
        deg = tuple(bottom[inv[i] - 1] for i in range(1, n + 1))
        out.append((Biword(perm, deg), 1))
    return LinComb(out)


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


# -- coproducts ---------------------------------------------------------------

def coproduct_prec(a: Biword) -> LinComb:
    """Cuts at and after the column with top entry 1 (that column stays left)."""
    if a.is_unit():
        raise ValueError("half-coproducts are defined on nonempty biwords")
    return _cut_sum(a, range(a.inverse_position(1), a.size))


def coproduct_succ(a: Biword) -> LinComb:
    """Cuts strictly before the column with top entry 1 (it lands right)."""
    if a.is_unit():
        raise ValueError("half-coproducts are defined on nonempty biwords")
    return _cut_sum(a, range(1, a.inverse_position(1)))


def _cut_sum(a: Biword, positions) -> LinComb:
    """Sum of the cuts of ``a`` after each of the given column counts."""
    return LinComb._raw(dict.fromkeys((_cut(a, k) for k in positions), 1))


def _cut(a: Biword, k: int) -> tuple[Biword, Biword]:
    left_deg = a.deg[:k]
    left_weight = sum(left_deg)
    left = Biword.trusted(standardize(a.perm[:k]), left_deg, left_weight)
    right = Biword.trusted(standardize(a.perm[k:]), a.deg[k:], a.weight - left_weight)
    return (left, right)


def coproduct_prec_lc(x: LinComb) -> LinComb:
    return linear_extend(coproduct_prec, x)


def coproduct_succ_lc(x: LinComb) -> LinComb:
    return linear_extend(coproduct_succ, x)


def hopf_coproduct(x: LinComb) -> LinComb:
    """Counital coproduct: x (x) 1 + 1 (x) x + both half-coproducts, i.e.
    every cut of each biword, the two trivial ones included."""
    return linear_extend(lambda a: _cut_sum(a, range(a.size + 1)), x)


# -- internal composition -----------------------------------------------------

def internal_compose(a: Biword, b: Biword) -> LinComb:
    """The biword acting as "apply b, then a", or 0 when the actions annihilate.

    Sizes must agree and a's degrees must match b's degrees read through a's
    top row (a.deg[i] == b.deg[a.perm[i]]); the composite permutes position i
    to b.perm[a.perm[i]] and carries a's degrees.  Derived from, and tested
    against, the endomorphism oracle in :mod:`shufflealg.action`.
    """
    if a.size != b.size:
        return LinComb.zero()
    k = a.size
    for i in range(k):
        if a.deg[i] != b.deg[a.perm[i] - 1]:
            return LinComb.zero()
    perm = tuple(b.perm[a.perm[i] - 1] for i in range(k))
    return LinComb.single(Biword.trusted(perm, a.deg, a.weight))


def internal_compose_lc(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_extend(internal_compose, x, y)


# -- enumeration ---------------------------------------------------------------

@lru_cache(maxsize=None)
def enumerate_biwords(weight: int, degrees: tuple[int, ...] | None = None) -> tuple[Biword, ...]:
    """All biwords of the given weight, canonical order.

    ``degrees`` restricts the allowed degree values (default: all positive
    integers up to the weight).
    """
    if weight == 0:
        return (UNIT_BIWORD,)
    parts = degrees if degrees is not None else None
    out = []
    for comp in compositions(weight, parts):
        k = len(comp)
        for perm in itertools.permutations(range(1, k + 1)):
            out.append(Biword.trusted(perm, comp, weight))
    out.sort(key=Biword.sort_key)
    return tuple(out)


def enumerate_biwords_by_size(size: int, degrees: tuple[int, ...]) -> tuple[Biword, ...]:
    """All biwords of a fixed size with degrees drawn from ``degrees``."""
    if size == 0:
        return (UNIT_BIWORD,)
    out = []
    for perm in itertools.permutations(range(1, size + 1)):
        for deg in itertools.product(sorted(degrees), repeat=size):
            out.append(Biword(perm, deg))
    out.sort(key=Biword.sort_key)
    return tuple(out)


# -- text and JSON forms --------------------------------------------------------

def _render_row(row: tuple[int, ...]) -> str:
    if all(v <= 9 for v in row):
        return "".join(str(v) for v in row)
    return ",".join(str(v) for v in row)


def render_biword(b: Biword) -> str:
    if b.is_unit():
        return "1"
    return f"{_render_row(b.perm)}|{_render_row(b.deg)}"


def render_biword_matrix(b: Biword) -> str:
    """Two-row matrix form, one column per biletter."""
    if b.is_unit():
        return "( )"
    cells = [(str(v), str(d)) for v, d in zip(b.perm, b.deg)]
    widths = [max(len(t), len(d)) for t, d in cells]
    top = " ".join(t.rjust(w) for (t, _), w in zip(cells, widths))
    bottom = " ".join(d.rjust(w) for (_, d), w in zip(cells, widths))
    return f"( {top} )\n( {bottom} )"


class BiwordParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


_DEGREE_LETTERS = {chr(ord("a") + i): i + 1 for i in range(9)}


def _parse_row(text: str, offset: int, letters_ok: bool) -> tuple[int, ...]:
    if not text:
        return ()
    if "," in text:
        vals = []
        pos = offset
        for chunk in text.split(","):
            if not chunk.strip().isdigit():
                raise BiwordParseError(f"expected an integer, got {chunk!r}", pos)
            vals.append(int(chunk))
            pos += len(chunk) + 1
        return tuple(vals)
    vals = []
    for i, ch in enumerate(text):
        if ch.isdigit():
            vals.append(int(ch))
        elif letters_ok and ch in _DEGREE_LETTERS:
            vals.append(_DEGREE_LETTERS[ch])
        else:
            raise BiwordParseError(f"unexpected character {ch!r}", offset + i)
    return tuple(vals)


def parse_biword(text: str) -> Biword:
    """Parse ``perm|deg``: digit strings (or comma lists); degree letters a..i
    are read as 1..9.  ``1``, ``|`` or the empty string is the unit."""
    text = text.strip()
    if text in ("", "|", "1"):
        return UNIT_BIWORD
    if "|" not in text:
        raise BiwordParseError("missing '|' between permutation and degrees", len(text))
    top, bottom = text.split("|", 1)
    perm = _parse_row(top, 0, letters_ok=False)
    deg = _parse_row(bottom, len(top) + 1, letters_ok=True)
    if len(perm) != len(deg):
        raise BiwordParseError(
            f"rows have different lengths ({len(perm)} vs {len(deg)})", len(top) + 1
        )
    try:
        return Biword(perm, deg)
    except ValueError as exc:
        raise BiwordParseError(str(exc), 0) from None


def biword_to_json(b: Biword) -> dict:
    return {"perm": list(b.perm), "deg": list(b.deg)}


def biword_from_json(obj: dict) -> Biword:
    return Biword(tuple(obj["perm"]), tuple(obj["deg"]))
