"""The dendriform descent algebra of graded permutations.

The graded projector p_n is the sum of the identity biwords over all
compositions of n; the half-products of the p_n generate a dendriform
subalgebra whose weight-n component is spanned by op-labeled binary trees
over compositions of n.  The idempotent pi_n is the single one-column
biword of degree n; it comes out of three routes (the closed form, the
alternating convolution formula, and the recursive completion against the
nested idempotents pi_{n1..nk}), which must agree.

Ranks, span membership, and primitive dimensions (the joint kernel of the
two half-coproducts) run on exact rational elimination; the only shortcut
is a certified mod-p rank bound for the one large kernel computation, which
never changes a result (it either certifies the exact answer or falls back
to the rational elimination).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterable, Mapping

from .lincomb import LinComb
from .biwords import (
    UNIT_BIWORD,
    Biword,
    biword_prec_lc,
    biword_star_lc,
    biword_succ_lc,
    coproduct_prec_lc,
    coproduct_succ_lc,
    enumerate_biwords,
)
from .linalg import RowEchelon, modp_rank, rank_of
from .series import (
    biword_count_series,
    descent_dim_series_catalan,
    descent_dim_series_closed,
    primitive_dim_series,
)
from .words import compositions

DEFAULT_RANK_CUTOFF = 6
DEFAULT_PRIM_CUTOFF = 6
DEFAULT_SERIES_CUTOFF = 12


# -- graded projectors and idempotents --------------------------------------

@lru_cache(maxsize=None)
def p_n(n: int) -> LinComb:
    """Projector onto weight n: identity biwords over all compositions of n."""
    if n < 0:
        raise ValueError("weight must be non-negative")
    if n == 0:
        return LinComb.single(UNIT_BIWORD)
    out = []
    for comp_ in compositions(n):
        k = len(comp_)
        out.append((Biword(tuple(range(1, k + 1)), comp_), 1))
    return LinComb(out)


def pi_n(n: int, route: str = "closed") -> LinComb:
    """The weight-n idempotent; all routes return the one-column biword."""
    if n < 1:
        raise ValueError("pi_n needs a positive weight")
    if route == "closed":
        return LinComb.single(Biword((1,), (n,)))
    if route == "alternating":
        return _pi_alternating(n)
    if route == "recursive":
        return _pi_recursive(n)
    raise ValueError(f"unknown route {route!r}")


def _pi_alternating(n: int) -> LinComb:
    # sum over compositions (a1..ak) of (-1)^(k-1) p_a1 < (p_a2 * ... * p_ak)
    def term(comp_):
        if len(comp_) == 1:
            return p_n(n)
        star_part = p_n(comp_[1])
        for a in comp_[2:]:
            star_part = biword_star_lc(star_part, p_n(a))
        return biword_prec_lc(p_n(comp_[0]), star_part)

    return LinComb.sum((term(c), (-1) ** (len(c) - 1)) for c in compositions(n))


@lru_cache(maxsize=None)
def _pi_recursive(n: int) -> LinComb:
    # peel all strictly finer nested idempotents off p_n
    return p_n(n) - LinComb.sum(
        (_nested_prec([_pi_recursive(i) for i in comp_]), 1)
        for comp_ in compositions(n)
        if len(comp_) > 1
    )


def _nested_prec(factors: list[LinComb]) -> LinComb:
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = biword_prec_lc(f, out)
    return out


def pi_composite(comp_: Iterable[int]) -> LinComb:
    """Right-nested half-product pi_{n1} < (pi_{n2} < (...)): the projector
    onto words whose letter-weight profile is the composition."""
    parts = tuple(comp_)
    if not parts:
        raise ValueError("the empty composition has no idempotent")
    return _nested_prec([pi_n(i) for i in parts])


# -- graded series and the half-shuffle logarithm -----------------------------

class GradedSeries:
    """Weight-graded biword combination, handled one component at a time."""

    __slots__ = ("_components",)

    def __init__(self, components: Mapping[int, LinComb]):
        data = {}
        for n, lc in components.items():
            if lc.is_zero():
                continue
            for key in lc.terms():
                if key.weight != n:
                    raise ValueError(
                        f"component {n} holds a biword of weight {key.weight}"
                    )
            data[n] = lc
        self._components = data

    @classmethod
    def unit(cls) -> "GradedSeries":
        return cls({0: LinComb.single(UNIT_BIWORD)})

    @classmethod
    def zero(cls) -> "GradedSeries":
        return cls({})

    def component(self, n: int) -> LinComb:
        return self._components.get(n, LinComb.zero())

    def weights(self) -> list[int]:
        return sorted(self._components)

    def max_weight(self) -> int:
        return max(self._components, default=0)

    def positive_part(self) -> "GradedSeries":
        return GradedSeries({n: lc for n, lc in self._components.items() if n > 0})

    def has_unit_constant_term(self) -> bool:
        return self.component(0) == LinComb.single(UNIT_BIWORD)

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        weights = set(self._components) | set(other._components)
        return GradedSeries({n: self.component(n) + other.component(n) for n in weights})

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        weights = set(self._components) | set(other._components)
        return GradedSeries({n: self.component(n) - other.component(n) for n in weights})

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self._components == other._components

    __hash__ = None

    def __repr__(self):
        return f"GradedSeries({self._components!r})"


def _series_bilinear(op, a: GradedSeries, b: GradedSeries, cutoff: int) -> GradedSeries:
    out: dict[int, LinComb] = {}
    for i in a.weights():
        if i > cutoff:
            continue
        for j in b.weights():
            if i + j > cutoff:
                continue
            term = op(a.component(i), b.component(j))
            if term.is_zero():
                continue
            n = i + j
            out[n] = out.get(n, LinComb.zero()) + term
    return GradedSeries(out)


def series_star(a: GradedSeries, b: GradedSeries, cutoff: int) -> GradedSeries:
    return _series_bilinear(biword_star_lc, a, b, cutoff)


def series_prec(a: GradedSeries, b: GradedSeries, cutoff: int) -> GradedSeries:
    return _series_bilinear(biword_prec_lc, a, b, cutoff)


def identity_series(cutoff: int) -> GradedSeries:
    """The completed identity: unit plus every graded projector up to the cutoff."""
    comps = {0: LinComb.single(UNIT_BIWORD)}
    for n in range(1, cutoff + 1):
        comps[n] = p_n(n)
    return GradedSeries(comps)


def convolution_inverse(q: GradedSeries, cutoff: int | None = None) -> GradedSeries:
    """Star-inverse of a series with unit constant term: sum (-1)^k (q+)^k."""
    if not q.has_unit_constant_term():
        raise ValueError("convolution inverse needs unit constant term")
    if cutoff is None:
        cutoff = q.max_weight()
    qplus = q.positive_part()
    out = GradedSeries.unit()
    power = GradedSeries.unit()
    for k in range(1, cutoff + 1):
        power = series_star(power, qplus, cutoff)
        if not power.weights():
            break
        out = out + power if k % 2 == 0 else out - power
    return out


def prec_logarithm(q: GradedSeries, cutoff: int | None = None) -> GradedSeries:
    """The series mu with q = exp_prec(mu), via mu = q+ < (star-inverse of q)."""
    if not q.has_unit_constant_term():
        raise ValueError("the half-shuffle logarithm needs unit constant term")
    if cutoff is None:
        cutoff = q.max_weight()
    return series_prec(q.positive_part(), convolution_inverse(q, cutoff), cutoff)


def exp_prec(mu: GradedSeries, cutoff: int | None = None) -> GradedSeries:
    """Right-nested half-shuffle exponential: unit + mu + mu<(mu) + ..."""
    if mu.component(0):
        raise ValueError("exp_prec needs zero constant term")
    if cutoff is None:
        cutoff = mu.max_weight()
    total = GradedSeries.unit()
    power = GradedSeries.unit()
    for _ in range(1, cutoff + 1):
        power = series_prec(mu, power, cutoff)
        if not power.weights():
            break
        total = total + power
    return total


# -- spanning monomials and ranks ---------------------------------------------

@dataclass(frozen=True)
class DendMonomial:
    """Op-labeled binary tree over generator weights.

    The tree is either an int (a generator leaf pi_w) or a triple
    ``(op, left, right)`` with op ``"<"`` or ``">"``.
    """

    tree: tuple | int

    @property
    def weight(self) -> int:
        return _tree_weight(self.tree)

    def __str__(self):
        return _render_tree(self.tree)


def _tree_weight(tree) -> int:
    if isinstance(tree, int):
        return tree
    return _tree_weight(tree[1]) + _tree_weight(tree[2])


def _render_tree(tree) -> str:
    if isinstance(tree, int):
        return f"pi{tree}"
    _, left, right = tree
    ls = _render_tree(left)
    rs = _render_tree(right)
    if not isinstance(left, int):
        ls = f"({ls})"
    if not isinstance(right, int):
        rs = f"({rs})"
    return f"{ls} {tree[0]} {rs}"


def _tree_shapes(parts: tuple[int, ...]):
    if len(parts) == 1:
        yield parts[0]
        return
    for split in range(1, len(parts)):
        for left in _tree_shapes(parts[:split]):
            for right in _tree_shapes(parts[split:]):
                for op in ("<", ">"):
                    yield (op, left, right)


@lru_cache(maxsize=None)
def _evaluate_tree(tree) -> LinComb:
    if isinstance(tree, int):
        return pi_n(tree)
    op, left, right = tree
    lv = _evaluate_tree(left)
    rv = _evaluate_tree(right)
    return biword_prec_lc(lv, rv) if op == "<" else biword_succ_lc(lv, rv)


def descd_spanning_set(n: int) -> list[tuple[DendMonomial, LinComb]]:
    """Every parenthesized half-product of idempotents over compositions of n."""
    if n < 1:
        raise ValueError("spanning sets exist for positive weight only")
    out = []
    for comp_ in sorted(compositions(n), key=lambda c: (len(c), c)):
        for tree in _tree_shapes(comp_):
            out.append((DendMonomial(tree), _evaluate_tree(tree)))
    return out


def _check_homogeneous(vectors) -> int | None:
    weight = None
    for v in vectors:
        for key in v.terms():
            if weight is None:
                weight = key.weight
            elif key.weight != weight:
                raise ValueError("vectors are not weight-homogeneous of equal weight")
    return weight


def rank(vectors) -> int:
    """Dimension of the span of weight-homogeneous biword combinations."""
    vectors = list(vectors)
    _check_homogeneous(vectors)
    seen = set()
    distinct = []
    for v in vectors:
        marker = frozenset(v.terms().items())
        if marker not in seen:
            seen.add(marker)
            distinct.append(v)
    return rank_of(distinct)


@lru_cache(maxsize=None)
def descd_echelon(n: int) -> RowEchelon:
    ech = RowEchelon()
    for _, value in descd_spanning_set(n):
        ech.add(value)
    return ech


def descd_dimension(n: int) -> int:
    return descd_echelon(n).rank


def descd_membership(x: LinComb, n: int) -> bool:
    """Whether x lies in the weight-n component of the descent algebra."""
    for key in x.terms():
        if key.weight != n:
            raise ValueError(f"expected weight {n}, found a biword of weight {key.weight}")
    return descd_echelon(n).contains(x)


# -- primitive dimensions -------------------------------------------------------

def _coproduct_image(row: LinComb) -> LinComb:
    left = coproduct_prec_lc(row).map_keys(lambda t: ("P", t))
    right = coproduct_succ_lc(row).map_keys(lambda t: ("S", t))
    return left + right


def prim_dend_dimension(n: int, space: str = "full_S", cutoff: int | None = None) -> int:
    """dim of Ker(prec coproduct) intersect Ker(succ coproduct) at weight n."""
    if cutoff is None:
        cutoff = DEFAULT_PRIM_CUTOFF
    if n < 1 or n > cutoff:
        raise ValueError(f"weight {n} is outside the configured cutoff {cutoff}")
    if space == "full_S":
        rows = [LinComb.single(b) for b in enumerate_biwords(n)]
    elif space == "descd":
        rows = descd_echelon(n).pivot_rows()
    else:
        raise ValueError(f"unknown space {space!r}")
    images = [_coproduct_image(row) for row in rows]

    if space == "descd" and n >= 6:
        # Large instance: certify instead of running the rational elimination.
        # pi_n has no cuts, so it is an exact kernel vector; the mod-p rank
        # bounds the rational kernel from above by rows - rank_p.
        candidate = pi_n(n)
        exact_lower = 0
        if descd_echelon(n).contains(candidate) and _coproduct_image(candidate).is_zero():
            exact_lower = 1
        upper = len(rows) - modp_rank(images)
        if exact_lower == upper:
            return exact_lower
    return len(rows) - rank_of(images)


# -- dimension report ------------------------------------------------------------

def biword_count(n: int) -> int:
    """Number of biwords of weight n: sum over k of k! C(n-1, k-1)."""
    if n == 0:
        return 1
    from math import factorial

    return sum(factorial(k) * comb(n - 1, k - 1) for k in range(1, n + 1))


@dataclass
class DimensionRow:
    n: int
    biword_count: int | None = None
    biword_series: int | None = None
    descd_rank: int | None = None
    descd_closed: int | None = None
    descd_catalan: int | None = None
    prim_kernel: int | None = None
    prim_series: int | None = None


@dataclass
class DimensionReport:
    rows: list[DimensionRow] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.flags


_ALL_COLUMNS = ("biwords", "descd", "prim", "series")


def dimension_report(
    max_n: int,
    include: Iterable[str] = _ALL_COLUMNS,
    rank_cutoff: int = DEFAULT_RANK_CUTOFF,
    prim_cutoff: int = DEFAULT_PRIM_CUTOFF,
    count_cutoff: int = 7,
) -> DimensionReport:
    """Tabulate the dimension data up to max_n and flag any disagreement.

    Series columns are exact rational coefficients evaluated on demand; the
    rank and kernel columns are computed only up to their cutoffs.
    """
    include = set(include)
    unknown = include - set(_ALL_COLUMNS)
    if unknown:
        raise ValueError(f"unknown report columns: {sorted(unknown)}")
    r_series = biword_count_series()
    closed = descent_dim_series_closed()
    catalan = descent_dim_series_catalan()
    p_series = primitive_dim_series()
    report = DimensionReport()
    for n in range(1, max_n + 1):
        row = DimensionRow(n=n)
        if "biwords" in include:
            row.biword_count = biword_count(n) if n <= count_cutoff else None
            if "series" in include:
                row.biword_series = int(r_series[n])
        if "descd" in include:
            if n <= rank_cutoff:
                row.descd_rank = descd_dimension(n)
            if "series" in include:
                row.descd_closed = int(closed[n])
                row.descd_catalan = int(catalan[n])
        if "prim" in include:
            if n <= prim_cutoff:
                row.prim_kernel = prim_dend_dimension(n, "full_S", cutoff=prim_cutoff)
            if "series" in include:
                row.prim_series = int(p_series[n])
        report.rows.append(row)
        _flag_row(report, row)
    return report


def _flag_row(report: DimensionReport, row: DimensionRow) -> None:
    pairs = [
        ("biword count", row.biword_count, "R coefficient", row.biword_series),
        ("descd rank", row.descd_rank, "closed-form coefficient", row.descd_closed),
        ("closed-form coefficient", row.descd_closed, "catalan-compose coefficient", row.descd_catalan),
        ("primitive kernel", row.prim_kernel, "primitive series", row.prim_series),
    ]
    for name_a, a, name_b, b in pairs:
        if a is not None and b is not None and a != b:
            report.flags.append(f"n={row.n}: {name_a} {a} != {name_b} {b}")
