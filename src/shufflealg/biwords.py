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

from .lincomb import LinComb, accumulate, bilinear_extend, linear_extend
from .words import Word, compositions


class Biword:
    """A permutation of [k] with a positive degree attached to each column.

    ``weight`` (the sum of the degrees) is computed once, at construction;
    it takes no part in equality, hashing or ``repr``.
    """

    __slots__ = ("perm", "deg", "weight")

    def __init__(self, perm: tuple[int, ...] = (), deg: tuple[int, ...] = ()):
        if len(perm) != len(deg):
            raise ValueError("permutation and degree rows differ in length")
        k = len(perm)
        if sorted(perm) != list(range(1, k + 1)):
            raise ValueError(f"top row is not a permutation of [{k}]: {perm}")
        if any(d < 1 for d in deg):
            raise ValueError(f"degrees must be positive: {deg}")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "deg", deg)
        object.__setattr__(self, "weight", sum(deg))

    @classmethod
    def trusted(cls, perm: tuple[int, ...], deg: tuple[int, ...], weight: int) -> "Biword":
        """Construction without validation, for rows that are valid by
        construction; ``weight`` must be ``sum(deg)``."""
        b = object.__new__(cls)
        object.__setattr__(b, "perm", perm)
        object.__setattr__(b, "deg", deg)
        object.__setattr__(b, "weight", weight)
        return b

    def __eq__(self, other):
        same_class = other.__class__ is self.__class__
        return (self.perm == other.perm and self.deg == other.deg) if same_class else NotImplemented

    def __hash__(self):
        return hash((self.perm, self.deg))

    def __repr__(self):
        return f"Biword(perm={self.perm!r}, deg={self.deg!r})"

    __setattr__ = __delattr__ = Word.__setattr__  # immutable, as Word is

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


def generic_biword(perm, first_degree: int = 1) -> Biword:
    """The biword of a top row whose degrees are pairwise distinct
    (first_degree, first_degree + 1, ... by column); every biword with that
    top row is its image under a column-wise degree substitution."""
    perm = tuple(perm)
    return Biword(perm, tuple(range(first_degree, first_degree + len(perm))))


def standardize(values) -> tuple[int, ...]:
    """Order-isomorphic relabeling of distinct integers to a permutation of [k]."""
    values = tuple(values)
    if len(set(values)) != len(values):
        raise ValueError(f"cannot standardize a sequence with repeats: {values}")
    ranks = {v: i + 1 for i, v in enumerate(sorted(values))}
    return tuple(ranks[v] for v in values)


def _interleavings(a: Biword, b: Biword, first_from_left: bool):
    """Riffle interleavings of a's columns with b's shifted columns."""
    k, l = a.size, b.size
    perm_a, deg_a = list(a.perm), list(a.deg)
    cols_b = [(v + k, d) for v, d in zip(b.perm, b.deg)]
    n = k + l
    weight = a.weight + b.weight
    # choose the slots occupied by b's columns, preserving orders
    if first_from_left:
        slot_iter = itertools.combinations(range(1, n), l)
    else:
        slot_iter = ((0,) + rest for rest in itertools.combinations(range(1, n), l - 1))
    for slots in slot_iter:
        perm, deg = perm_a.copy(), deg_a.copy()
        # ascending slots: each insertion lands at its final position
        for pos, (v, d) in zip(slots, cols_b):
            perm.insert(pos, v)
            deg.insert(pos, d)
        yield Biword.trusted(tuple(perm), tuple(deg), weight)


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
    """The first k columns and the rest, each top row standardized."""
    left_perm, right_perm = standardized_halves(a.perm, k)
    left_deg = a.deg[:k]
    left_weight = sum(left_deg)
    left = Biword.trusted(left_perm, left_deg, left_weight)
    return (left, Biword.trusted(right_perm, a.deg[k:], a.weight - left_weight))


def standardized_halves(perm: tuple[int, ...], k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first k entries of a permutation of [n] and the rest, each standardized."""
    n = len(perm)
    # mark the prefix values with 1, then rank the values 1..n in one pass
    rank = [0] * (n + 1)
    for v in perm[:k]:
        rank[v] = 1
    seen = [0, 0]  # the values ranked so far in the suffix and in the prefix
    for v in range(1, n + 1):
        half = rank[v]
        seen[half] += 1
        rank[v] = seen[half]
    return tuple([rank[v] for v in perm[:k]]), tuple([rank[v] for v in perm[k:]])


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
    c = _composed(a, b)
    return LinComb.zero() if c is None else LinComb._raw({c: 1})


def _composed(a: Biword, b: Biword) -> Biword | None:
    """The composite biword of :func:`internal_compose`, or None for 0."""
    if a.size != b.size:
        return None
    b_perm, b_deg = b.perm, b.deg
    for v, d in zip(a.perm, a.deg):
        if d != b_deg[v - 1]:
            return None
    return Biword.trusted(tuple([b_perm[v - 1] for v in a.perm]), a.deg, a.weight)


def internal_compose_lc(x: LinComb, y: LinComb) -> LinComb:
    ys = y.terms().items()
    return LinComb._raw(accumulate({}, (
        (c, ca * cb) for ka, ca in x.terms().items() for kb, cb in ys if (c := _composed(ka, kb)) is not None
    )))


# -- enumeration ---------------------------------------------------------------

def enumerate_biwords(weight: int, degrees: tuple[int, ...] | None = None) -> tuple[Biword, ...]:
    """All biwords of the given weight, canonical order.

    ``degrees`` restricts the allowed degree values (default: all positive
    integers up to the weight).
    """
    if weight == 0:
        return (UNIT_BIWORD,)
    out = []
    for comp in compositions(weight, degrees):
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
