"""The dendriform descent algebra of graded permutations.

The graded projector p_n is the sum of the identity biwords over all
compositions of n; the half-products of the p_n generate a dendriform
subalgebra whose weight-n component is spanned by op-labeled binary trees
over compositions of n.  The idempotent pi_n is the single one-column
biword of degree n; it comes out of three routes, which must agree: the
closed form, the half-shuffle logarithm of the identity series (its weight-n
component), and the inverse of the half-shuffle exponential (the series mu
with exp_prec(mu) = identity, solved degree by degree; ``exp_prec`` is a
test oracle).  A graded series is a plain list of combinations, entry n
holding the weight-n component.

Each weight-n basis vector is the sum of the biwords with one decorated
binary search tree (insert the top row from left to right, each node keeping
its column's degree: the graded sylvester congruence); it equals the tree
monomial ``x(t_l) > pi_m < x(t_r)``.  Dimensions and membership run on
these classes without elimination; the spanning set and its exact rank
(``descd_echelon``) are the independent route the tests compare against.
One class is listed from its tree alone (:func:`tree_class`, the linear
extensions of the tree), so membership walks only the classes its operand
touches; ``descd_classes(n)`` groups every biword of weight n, for the
``dims`` class count and as the tests' oracle.  Primitive dimensions (the
joint kernel of the two half-coproducts) eliminate exactly, one block per
permutation size.  :func:`dimension_report` tabulates
these counts beside the series coefficients as plain dict rows, holding only
the computed columns, and cross-checks each pair of columns that must agree.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import count
from math import comb, factorial

from .lincomb import LinComb
from .biwords import (
    UNIT_BIWORD,
    Biword,
    _biword,
    biword_prec_lc,
    biword_star_lc,
    biword_succ_lc,
    cut_rows,
    enumerate_biwords,
)
from .linalg import RowEchelon, rank_of
from .series import (
    biword_count_series,
    descent_dim_series_catalan,
    descent_dim_series_closed,
    primitive_dim_series,
)
from .words import compositions

# the last weight at which the dims table fills its biword-count column
BIWORD_COUNT_CUTOFF = 7


# -- graded projectors and idempotents --------------------------------------

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
    if route not in ("alternating", "recursive"):
        raise ValueError(f"unknown route {route!r}")
    ident = identity_series(n)
    if route == "alternating":
        return prec_logarithm(ident)[n]
    # solve exp_prec(mu) = identity degree by degree: mu[m] is still zero while
    # its own component is formed, so the sum runs over the mu[i] with i < m
    mu = [LinComb.zero()] * (n + 1)
    for m in range(1, n + 1):
        mu[m] = ident[m] - _positive_op(biword_prec_lc, mu, ident, m)
    return mu[n]


def pi_composite(comp_: Iterable[int]) -> LinComb:
    """Right-nested half-product pi_{n1} < (pi_{n2} < (...)): the projector
    onto words whose letter-weight profile is the composition."""
    parts = tuple(comp_)
    if not parts:
        raise ValueError("the empty composition has no idempotent")
    out = pi_n(parts[-1])
    for i in reversed(parts[:-1]):
        out = biword_prec_lc(pi_n(i), out)
    return out


# -- graded series and the half-shuffle logarithm -----------------------------
#
# A graded series truncated at weight N is a list of N + 1 combinations whose
# entry n holds the weight-n component.

_UNIT = LinComb.single(UNIT_BIWORD)


def _check_series(s: list[LinComb], what: str) -> None:
    if not s or s[0] != _UNIT:
        raise ValueError(f"{what} needs unit constant term")
    for n, lc in enumerate(s):
        for key in lc.terms():
            if key.weight != n:
                raise ValueError(f"component {n} holds a biword of weight {key.weight}")


def _positive_op(op, a: list[LinComb], b: list[LinComb], n: int) -> LinComb:
    """Component n of op(a+, b), a+ the positive part of a."""
    return LinComb.sum((op(a[i], b[n - i]), 1) for i in range(1, n + 1))


def identity_series(cutoff: int) -> list[LinComb]:
    """The completed identity: unit plus every graded projector up to the cutoff."""
    return [p_n(n) for n in range(cutoff + 1)]


def convolution_inverse(q: list[LinComb]) -> list[LinComb]:
    """Star-inverse of a series with unit constant term, degree by degree:
    z[0] = 1 and z[n] = -sum over i >= 1 of q[i] * z[n - i]."""
    _check_series(q, "the convolution inverse")
    z = [_UNIT] * len(q)
    for n in range(1, len(q)):
        z[n] = -_positive_op(biword_star_lc, q, z, n)
    return z


def prec_logarithm(q: list[LinComb]) -> list[LinComb]:
    """The series mu with q = exp_prec(mu), via mu = q+ < (star-inverse of q)."""
    _check_series(q, "the half-shuffle logarithm")
    z = convolution_inverse(q)
    return [LinComb.zero()] + [_positive_op(biword_prec_lc, q, z, n) for n in range(1, len(q))]


# -- spanning monomials and ranks ---------------------------------------------

class DendMonomial(namedtuple("DendMonomial", "tree")):
    """Op-labeled binary tree over generator weights.

    The tree is either an int (a generator leaf pi_w) or a triple
    ``(op, left, right)`` with op ``"<"`` or ``">"``.
    """

    __slots__ = ()

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


def _evaluate_tree(tree, memo: dict) -> LinComb:
    if tree not in memo:
        if isinstance(tree, int):
            memo[tree] = pi_n(tree)
        else:
            op, left, right = tree
            lv, rv = _evaluate_tree(left, memo), _evaluate_tree(right, memo)
            memo[tree] = biword_prec_lc(lv, rv) if op == "<" else biword_succ_lc(lv, rv)
    return memo[tree]


def descd_spanning_set(n: int) -> list[tuple[DendMonomial, LinComb]]:
    """Every parenthesized half-product of idempotents over compositions of n."""
    if n < 1:
        raise ValueError("spanning sets exist for positive weight only")
    out, memo = [], {}
    for comp_ in sorted(compositions(n), key=lambda c: (len(c), c)):
        for tree in _tree_shapes(comp_):
            out.append((DendMonomial(tree), _evaluate_tree(tree, memo)))
    return out


def descd_echelon(n: int) -> RowEchelon:
    ech = RowEchelon()
    for _, value in descd_spanning_set(n):
        ech.add(value)
    return ech


def descd_dimension(n: int) -> int:
    return descd_echelon(n).rank


# -- decorated binary-search-tree classes ---------------------------------------

def bst_class(b: Biword) -> tuple:
    """The decorated binary search tree of a biword, as nested ``(left, degree,
    right)`` triples with ``()`` for the empty tree: the top row is inserted
    from left to right and each node keeps its column's degree.

    Each column enters the tree once.  Taken in order of top entry, the
    columns are the tree's in-order walk, and a parent is inserted before its
    children, so one stack pass builds it: the stack holds the columns whose
    right subtree is still open, each with its finished left subtree, and a
    column closes every column above it inserted later, the last one closed
    becoming its left subtree.
    """
    perm, deg = b.row
    stack = [(-1, ())]  # (column, left subtree); the bottom entry is never closed
    # a last step at column -1 closes every open column, leaving the whole tree on top
    for i in [*sorted(range(len(perm)), key=perm.__getitem__), -1]:
        done = ()
        while stack[-1][0] > i:
            j, left = stack.pop()
            done = (left, deg[j], done)
        stack.append((i, done))
    return stack[-1][1]


def tree_class(t: tuple) -> tuple[Biword, ...]:
    """The biwords whose decorated search tree is t, in canonical order.

    Number t's nodes 1..k in order; the members are the linear extensions of
    t (parent before child) read as top rows, each column carrying its node's
    degree.  Taking the smallest ready node first lists them in lexicographic
    order of the top row, which is the canonical order within one class.
    """
    degree, children = {}, {}

    def number(node) -> int:
        """Number the subtree's nodes in order, after those numbered so far;
        return its root's number, or 0 for the empty tree."""
        if not node:
            return 0
        left, d, right = node
        left_root = number(left)
        v = len(degree) + 1
        degree[v] = d
        children[v] = [c for c in (left_root, number(right)) if c]
        return v

    root = number(t)
    out, top = [], []

    def extend(ready: list) -> None:
        if not ready:
            perm = tuple(top)
            out.append(_biword((perm, tuple([degree[v] for v in perm]))))
            return
        for i, v in enumerate(ready):
            top.append(v)
            extend(sorted(ready[:i] + ready[i + 1:] + children[v]))
            top.pop()

    extend([root] if root else [])
    return tuple(out)


def descd_classes(n: int) -> dict[tuple, tuple[Biword, ...]]:
    """The biwords of weight n grouped by decorated tree, in canonical order;
    each class sum is one basis vector of the weight-n descent component.
    Only the ``dims`` class count and the tests use it; one class comes from
    :func:`tree_class`."""
    if n < 1:
        raise ValueError("descent classes exist for positive weight only")
    out: dict[tuple, list[Biword]] = {}
    for b in enumerate_biwords(n):
        out.setdefault(bst_class(b), []).append(b)
    return {t: tuple(members) for t, members in out.items()}


def descd_class_dimension(n: int) -> int:
    return len(descd_classes(n))


def descd_membership(x: LinComb, n: int) -> bool:
    """Whether x lies in the weight-n component of the descent algebra: every
    class that x touches is fully present, with one coefficient.  Only the
    touched classes are listed, each from its tree."""
    terms = x.terms()
    for key in terms:
        if key.weight != n:
            raise ValueError(f"expected weight {n}, found a biword of weight {key.weight}")
    if n < 1:
        raise ValueError("descent classes exist for positive weight only")
    touched = {bst_class(key): coeff for key, coeff in terms.items()}
    return all(terms.get(b) == coeff for t, coeff in touched.items() for b in tree_class(t))


# -- primitive dimensions -------------------------------------------------------

def _full_S_dimensions():
    """The full_S kernel dimensions at n = 1, 2, ..., one block elimination per n.

    The half-coproducts cut columns and keep the degree row, so each composition
    with k parts has a copy of the block of the size-k permutations (degrees 1^k).
    Each row of block k holds the k - 1 nontrivial cuts of one permutation.
    """
    blocks = []
    for n in count(1):
        blocks.append(_kernel_dimension((b,) for b in enumerate_biwords(n, (1,))))
        yield sum(comb(n - 1, k - 1) * dim for k, dim in enumerate(blocks, 1))


def _kernel_dimension(sums) -> int:
    """Joint kernel dimension of the half-coproducts on the span of sums of biwords."""
    rows = [_cut_row(members) for members in sums]
    return len(rows) - rank_of(rows)


def _cut_row(members) -> LinComb:
    """Both half-coproducts of a sum of distinct biwords, as one row.  The key
    (is prec, j, standardized prefix, standardized suffix, degree row) of the
    cut after column j determines the pair of biwords it gives."""
    row: dict = {}
    for b in members:
        # the succ cuts, then the prec cuts: every cut in column order
        for is_prec, side in ((False, "succ"), (True, "prec")):
            for (left, _), (right, _) in cut_rows(b.row, side):
                key = (is_prec, len(left), *left, *right, *b.deg)
                row[key] = row.get(key, 0) + 1
    return LinComb._raw(row)


# -- dimension report ------------------------------------------------------------

def biword_count(n: int) -> int:
    """Number of biwords of weight n: sum over k of k! C(n-1, k-1)."""
    if n == 0:
        return 1
    return sum(factorial(k) * comb(n - 1, k - 1) for k in range(1, n + 1))


REPORT_COLUMNS = ("biwords", "descd", "prim", "series")


# the cross-checks: (column, its name in a flag, column, its name) for the
# pairs of columns that must agree wherever both are computed
_CROSS_CHECKS = (
    ("biword_count", "biword count", "biword_series", "R coefficient"),
    ("descd_rank", "descd rank", "descd_closed", "closed-form coefficient"),
    ("descd_closed", "closed-form coefficient", "descd_catalan", "catalan-compose coefficient"),
    ("prim_kernel", "primitive kernel", "prim_series", "primitive series"),
)


def dimension_report(
    max_n: int,
    include: Iterable[str],
    rank_cutoff: int,
    prim_cutoff: int,
) -> tuple[list[dict], list[str]]:
    """Tabulate the dimension data up to max_n and flag any disagreement.

    Returns ``(rows, flags)``: one dict per weight n holding only the computed
    columns, in the key order of a ``dims --json`` row, and one line per
    failed cross-check.  Series columns are exact coefficients evaluated on
    demand; the descd class-count and kernel columns are computed only up to
    ``rank_cutoff`` and ``prim_cutoff``, which the caller always passes (the
    command line's defaults are ``cli.DEFAULTS``).
    """
    include = set(include)
    unknown = include - set(REPORT_COLUMNS)
    if unknown:
        raise ValueError(f"unknown report columns: {sorted(unknown)}")
    r_series = biword_count_series()
    closed = descent_dim_series_closed()
    catalan = descent_dim_series_catalan()
    p_series = primitive_dim_series()
    prim_kernels = _full_S_dimensions()  # advanced once per row up to the cutoff
    rows, flags = [], []
    for n in range(1, max_n + 1):
        row = {"n": n}
        if "biwords" in include:
            if n <= BIWORD_COUNT_CUTOFF:
                row["biword_count"] = biword_count(n)
            if "series" in include:
                row["biword_series"] = int(r_series[n])
        if "descd" in include:
            if n <= rank_cutoff:
                row["descd_rank"] = descd_class_dimension(n)
            if "series" in include:
                row["descd_closed"] = int(closed[n])
                row["descd_catalan"] = int(catalan[n])
        if "prim" in include:
            if n <= prim_cutoff:
                row["prim_kernel"] = next(prim_kernels)
            if "series" in include:
                row["prim_series"] = int(p_series[n])
        rows.append(row)
        flags += [
            f"n={n}: {name_a} {row[a]} != {name_b} {row[b]}"
            for a, name_a, b, name_b in _CROSS_CHECKS
            if a in row and b in row and row[a] != row[b]
        ]
    return rows, flags
