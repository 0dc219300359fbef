"""Graded permutations (biwords) and their Hopf-dendriform structure.

A biword is a pair (sigma, d): a permutation of [k] written in one-line
notation on the top row and a map d: [k] -> positive integers on the bottom
row.  Its weight is the sum of the degrees; the size-0 biword is the unit.

The half-products interleave the columns of the left biword with the
columns of the right biword after shifting its top row by k, keeping the
relative order inside each biword: ``a < b`` keeps the first column of a in
front, ``a > b`` the first (shifted) column of b, and the convolution
``a * b = a < b + a > b`` runs over all riffle interleavings.  The full
coproduct cuts the biword in two in every way and standardizes the top rows
(deconcatenation, then standardization); the half-coproducts take the
nontrivial cuts, split by where the column carrying top entry 1 lands: left
for the prec coproduct, right for the succ coproduct.

A :class:`Biword` holds its row, the pair ``(perm, deg)``, as ``b.row``,
and equals, hashes and pickles as that pair.  Every riffle and every cut is
computed by two kernels on rows, :func:`riffle_rows` and :func:`cut_rows`;
``cut_rows(row, side)`` is the one place that knows which cuts each
coproduct takes.  The products and coproducts wrap each row the kernels
return as a key without a check (``_biword``, and :func:`biword_tuple` for a
tuple of rows); the Hopf suites of :mod:`shufflealg.verify` and the descd
primitive kernel of :mod:`shufflealg.descent` count the rows directly.

The internal product is pinned to endomorphism composition (see
:mod:`shufflealg.action`): ``internal_compose(a, b)`` is the biword whose
action equals "apply b, then a".  Its rule lives in one row kernel,
:func:`compose_row`, which ``internal_compose``, ``internal_compose_lc`` and
the ``action-compat`` suite call.
"""

from __future__ import annotations

import itertools

from .lincomb import LinComb, accumulate, bilinear_extend, linear_extend
from .words import compositions


class Biword:
    """A permutation of [k] with a positive degree attached to each column.

    ``row`` is the pair ``(perm, deg)`` of its rows, which the row kernels
    take; a biword equals and hashes as its row, and equals no other kind of
    key.  ``weight`` (the sum of the degrees) is computed on access; it takes
    no part in equality, hashing or ``repr``.  A biword is a dict key: its row
    is never reassigned.
    """

    __slots__ = ("row",)

    def __init__(self, perm: tuple[int, ...] = (), deg: tuple[int, ...] = ()):
        perm, deg = tuple(perm), tuple(deg)
        if len(perm) != len(deg):
            raise ValueError("permutation and degree rows differ in length")
        k = len(perm)
        if sorted(perm) != list(range(1, k + 1)):
            raise ValueError(f"top row is not a permutation of [{k}]: {perm}")
        if any(d < 1 for d in deg):
            raise ValueError(f"degrees must be positive: {deg}")
        self.row = (perm, deg)

    def __eq__(self, other):
        return self.row == other.row if other.__class__ is Biword else NotImplemented

    def __hash__(self):
        return hash(self.row)

    def __reduce__(self):  # pickle and copy rebuild a biword from its rows
        return Biword, self.row

    @property
    def perm(self) -> tuple[int, ...]:
        return self.row[0]

    @property
    def deg(self) -> tuple[int, ...]:
        return self.row[1]

    @property
    def weight(self) -> int:
        return sum(self.row[1])

    def __repr__(self):
        return f"Biword(perm={self.perm!r}, deg={self.deg!r})"

    @property
    def size(self) -> int:
        return len(self.row[0])

    def is_unit(self) -> bool:
        return not self.row[0]

    def sort_key(self):
        return (self.weight, self.size, *self.row)

    def __str__(self):
        return render_biword(self)


def _biword(row: tuple) -> Biword:
    """The biword of a row that is valid by construction, without the checks."""
    b = object.__new__(Biword)
    b.row = row
    return b


UNIT_BIWORD = Biword()


def generic_biword(perm, first_degree: int = 1) -> Biword:
    """The biword of a top row whose degrees are pairwise distinct
    (first_degree, first_degree + 1, ... by column); every biword with that
    top row is its image under a column-wise degree substitution."""
    perm = tuple(perm)
    return Biword(perm, tuple(range(first_degree, first_degree + len(perm))))


# -- the row kernels: a row is the plain pair (perm, deg) of a biword ------------

def riffle_rows(a: tuple, b: tuple, first_from_left: bool) -> list:
    """The rows of a < b (``first_from_left``) or of a > b, for rows a and b.

    These are the interleavings of a's columns with b's columns shifted by
    len(a), each side keeping its order, with a's first column in front for
    < and b's for >; the unit conventions are x < 1 = x, 1 < x = 0, x > 1 = 0
    and 1 > x = x.
    """
    (perm_a, deg_a), (perm_b, deg_b) = a, b
    k, l = len(perm_a), len(perm_b)
    front, other = (k, l) if first_from_left else (l, k)
    if not front:  # 1 < x = 0, x > 1 = 0
        return []
    if not other:  # x < 1 = x, 1 > x = x
        return [a if first_from_left else b]
    n = k + l
    top_b = [v + k for v in perm_b]
    # choose the slots occupied by b's columns, preserving orders
    if first_from_left:
        slot_iter = itertools.combinations(range(1, n), l)
    else:
        slot_iter = ((0,) + rest for rest in itertools.combinations(range(1, n), l - 1))
    rows = []
    for slots in slot_iter:
        perm, deg = list(perm_a), list(deg_a)
        # ascending slots: each insertion lands at its final position
        for pos, v, d in zip(slots, top_b, deg_b):
            perm.insert(pos, v)
            deg.insert(pos, d)
        rows.append((tuple(perm), tuple(deg)))
    return rows


def star_rows(a: tuple, b: tuple) -> list:
    """The rows of a * b, all riffles: those of a < b, then those of a > b;
    the unit is two-sided."""
    if not a[0] and not b[0]:
        return [a]
    return riffle_rows(a, b, True) + riffle_rows(a, b, False)


def cut_rows(row: tuple, side: str) -> list:
    """The cuts of a row taken by one coproduct, as pairs (first columns, the
    rest) of rows, each top row standardized.

    ``side`` "full" cuts after every column count, the two trivial cuts
    included.  The half-coproducts are defined on nonempty rows: "prec" cuts
    at and after the column with top entry 1, which stays left, and "succ"
    strictly before it, so that it lands right.  One left-to-right sweep
    standardizes every cut: an entry v ranks ``below[v] + 1`` on the left and
    ``v - below[v]`` on the right.
    """
    perm, deg = row
    n = len(perm)
    if side == "full":
        first, last = 0, n
    elif side != "prec" and side != "succ":
        raise ValueError(f"unknown coproduct side {side!r}")
    elif not perm:
        raise ValueError("half-coproducts are defined on nonempty biwords")
    else:
        one = perm.index(1) + 1  # the column count through the column with top entry 1
        first, last = (one, n - 1) if side == "prec" else (1, one - 1)
    below = [0] * (n + 1)  # below[v]: the entries left of the cut that are smaller than v
    cuts = []
    for k in range(last + 1):
        if k >= first:
            cuts.append((
                (tuple([below[v] + 1 for v in perm[:k]]), deg[:k]),
                (tuple([v - below[v] for v in perm[k:]]), deg[k:]),
            ))
        if k < last:
            for v in range(perm[k] + 1, n + 1):
                below[v] += 1
    return cuts


def biword_tuple(rows: tuple) -> tuple:
    """A tuple of rows as the tuple of their biwords."""
    return tuple(map(_biword, rows))


# -- half-products -------------------------------------------------------------

def _riffle_sum(rows: list) -> LinComb:
    """The combination of riffle rows, each once."""
    return LinComb._raw(dict.fromkeys(map(_biword, rows), 1))


def biword_prec(a: Biword, b: Biword) -> LinComb:
    """Half-product keeping a's first column in front; 1 < x = 0."""
    return _riffle_sum(riffle_rows(a.row, b.row, True))


def biword_succ(a: Biword, b: Biword) -> LinComb:
    """Half-product keeping b's first (shifted) column in front; x > 1 = 0."""
    return _riffle_sum(riffle_rows(a.row, b.row, False))


def biword_star(a: Biword, b: Biword) -> LinComb:
    """Convolution product: all riffle interleavings; the unit is two-sided."""
    return _riffle_sum(star_rows(a.row, b.row))


def biword_prec_lc(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_extend(biword_prec, x, y)


def biword_succ_lc(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_extend(biword_succ, x, y)


def biword_star_lc(x: LinComb, y: LinComb) -> LinComb:
    return bilinear_extend(biword_star, x, y)


# -- coproducts ---------------------------------------------------------------

def coproduct_prec(a: Biword) -> LinComb:
    """Cuts at and after the column with top entry 1 (that column stays left)."""
    return _cut_sum(a, "prec")


def coproduct_succ(a: Biword) -> LinComb:
    """Cuts strictly before the column with top entry 1 (it lands right)."""
    return _cut_sum(a, "succ")


def _cut_sum(a: Biword, side: str) -> LinComb:
    """The sum of the cuts of ``a`` that the coproduct ``side`` takes."""
    return LinComb._raw(dict.fromkeys(map(biword_tuple, cut_rows(a.row, side)), 1))


def coproduct_prec_lc(x: LinComb) -> LinComb:
    return linear_extend(coproduct_prec, x)


def coproduct_succ_lc(x: LinComb) -> LinComb:
    return linear_extend(coproduct_succ, x)


def hopf_coproduct(x: LinComb) -> LinComb:
    """Counital coproduct: x (x) 1 + 1 (x) x + both half-coproducts, i.e.
    every cut of each biword, the two trivial ones included."""
    return linear_extend(lambda a: _cut_sum(a, "full"), x)


# -- internal composition -----------------------------------------------------

def compose_row(a: tuple, b: tuple) -> tuple | None:
    """The row of "apply b, then a" for rows a and b, or None when the actions
    annihilate.

    Sizes must agree and a's degrees must match b's degrees read through a's
    top row (a.deg[i] == b.deg[a.perm[i]]); the composite permutes position i
    to b.perm[a.perm[i]] and carries a's degrees.  This is the one place that
    knows the composition rule; it is tested against the action route of
    :mod:`shufflealg.action`.
    """
    perm_a, deg_a = a
    perm_b, deg_b = b
    if len(perm_a) != len(perm_b):
        return None
    for v, d in zip(perm_a, deg_a):
        if d != deg_b[v - 1]:
            return None
    return tuple([perm_b[v - 1] for v in perm_a]), deg_a


def internal_compose(a: Biword, b: Biword) -> LinComb:
    """The biword acting as "apply b, then a", or 0 when the actions annihilate
    (see :func:`compose_row`)."""
    row = compose_row(a.row, b.row)
    return LinComb.zero() if row is None else LinComb._raw({_biword(row): 1})


def internal_compose_lc(x: LinComb, y: LinComb) -> LinComb:
    ys = [(b.row, cb) for b, cb in y.terms().items()]
    return LinComb._raw(accumulate({}, (
        (_biword(row), ca * cb)
        for a, ca in x.terms().items() for b, cb in ys if (row := compose_row(a.row, b)) is not None
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
            out.append(_biword((perm, comp)))
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
    are read as 1..9.  ``1``, ``|`` or the empty string is the unit.  A parse
    error gives its position in ``text`` as typed, leading spaces included."""
    at = len(text) - len(text.lstrip())
    text = text.strip()
    if text in ("", "|", "1"):
        return UNIT_BIWORD
    if "|" not in text:
        raise BiwordParseError("missing '|' between permutation and degrees", at + len(text))
    top, bottom = text.split("|", 1)
    perm = _parse_row(top, at, letters_ok=False)
    deg = _parse_row(bottom, at + len(top) + 1, letters_ok=True)
    if len(perm) != len(deg):
        raise BiwordParseError(
            f"rows have different lengths ({len(perm)} vs {len(deg)})", at + len(top) + 1
        )
    try:
        return Biword(perm, deg)
    except ValueError as exc:
        raise BiwordParseError(str(exc), at) from None


def biword_to_json(b: Biword) -> dict:
    return {"perm": list(b.perm), "deg": list(b.deg)}
