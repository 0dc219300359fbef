"""Abstract graded connected shuffle bialgebras given by structure constants.

A presentation lists a finite graded basis (weights 1..N, the unit "1" is
implicit), a table for the left half-product on basis pairs with weight sum
at most N, and a full counital coproduct table per basis label.  The right
half-product is never stored: ``x > y := y < x``.  Everything is verified,
not assumed: :func:`validate_presentation` checks grading, counitality,
coassociativity, the half-shuffle associativity axiom, and the coproduct
compatibility of the half-product, and reports each violation with the
offending inputs and both sides.

On a valid presentation the projector ``tau(x) = sum x' < S(x'')`` (left
part nonunit) is an idempotent onto the primitive elements, and every basis
label decomposes exactly into right-nested half-products of primitive basis
vectors, by peeling the leading primitive through the coproduct:

    x = tau(x) + sum over proper cuts of tau(x') < (decomposition of x'').

Invalid presentations surface as :class:`RigidityError` (a tau image that
fails primitivity, or a decomposition that does not evaluate back to its
label) or as explicit axiom violations from the validator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lincomb import (
    LinComb,
    bilinear_extend,
    canonical_key,
    coassociativity_sides,
    exact_div,
    linear_extend,
    tensor_extend,
)
from .words import Word, deconcat, enumerate_words, word_prec

UNIT_LABEL = "1"


class RigidityError(ValueError):
    """The presentation cannot be a graded connected shuffle bialgebra."""


class PresentationError(ValueError):
    """Structurally broken presentation data (missing labels or entries)."""


@dataclass
class Violation:
    axiom: str
    inputs: tuple
    lhs: object
    rhs: object

    def __str__(self):
        ins = ", ".join(str(i) for i in self.inputs)
        return f"{self.axiom} fails at ({ins}): lhs = {self.lhs}, rhs = {self.rhs}"


class Presentation:
    """Structure constants of a truncated graded shuffle bialgebra."""

    def __init__(self, basis, prec, coproduct):
        self.basis: dict[int, list[str]] = {
            int(w): list(labels) for w, labels in sorted(basis.items()) if labels
        }
        self._weight: dict[str, int] = {}
        for w, labels in self.basis.items():
            if w < 1:
                raise PresentationError("basis weights start at 1; the unit is implicit")
            for label in labels:
                if label == UNIT_LABEL:
                    raise PresentationError("the unit label '1' cannot be a basis label")
                if label in self._weight:
                    raise PresentationError(f"duplicate basis label {label!r}")
                self._weight[label] = w
        self.prec_table: dict[tuple[str, str], LinComb] = dict(prec)
        self.coproduct_table: dict[str, LinComb] = dict(coproduct)
        for (a, b), out in self.prec_table.items():
            self._require_label(a)
            self._require_label(b)
            for key in out.terms():
                self._require_label(key)
        for label, cop in self.coproduct_table.items():
            self._require_label(label)
            for left, right in cop.terms():
                self._require_label(left, unit_ok=True)
                self._require_label(right, unit_ok=True)
        self._antipode_cache: dict[str, LinComb] = {}
        self._tau_cache: dict[str, LinComb] = {}
        self._primitive_basis = None
        self._decomp_cache: dict[str, LinComb] = {}

    def _require_label(self, label: str, unit_ok: bool = False):
        if label == UNIT_LABEL:
            if not unit_ok:
                raise PresentationError("the unit cannot appear here")
            return
        if label not in self._weight:
            raise PresentationError(f"unknown basis label {label!r}")

    @property
    def max_weight(self) -> int:
        return max(self.basis, default=0)

    def weight_of(self, label: str) -> int:
        if label == UNIT_LABEL:
            return 0
        return self._weight[label]

    def labels(self) -> list[str]:
        return [label for w in sorted(self.basis) for label in self.basis[w]]

    # -- products and coproducts ------------------------------------------

    def prec(self, a: str, b: str) -> LinComb:
        """Left half-product on labels with the unit conventions."""
        if a == UNIT_LABEL:
            return LinComb.zero()
        if b == UNIT_LABEL:
            return LinComb.single(a)
        entry = self.prec_table.get((a, b))
        if entry is None:
            raise PresentationError(f"missing half-product entry ({a!r}, {b!r})")
        return entry

    def prec_lc(self, x: LinComb, y: LinComb) -> LinComb:
        return bilinear_extend(self.prec, x, y)

    def shuffle(self, a: str, b: str) -> LinComb:
        if a == UNIT_LABEL:
            return LinComb.single(b)
        if b == UNIT_LABEL:
            return LinComb.single(a)
        return self.prec(a, b) + self.prec(b, a)

    def shuffle_lc(self, x: LinComb, y: LinComb) -> LinComb:
        return bilinear_extend(self.shuffle, x, y)

    def coproduct(self, label: str) -> LinComb:
        if label == UNIT_LABEL:
            return LinComb.single((UNIT_LABEL, UNIT_LABEL))
        entry = self.coproduct_table.get(label)
        if entry is None:
            raise PresentationError(f"missing coproduct entry for {label!r}")
        return entry

    def coproduct_lc(self, x: LinComb) -> LinComb:
        return linear_extend(self.coproduct, x)

    def reduced_coproduct_lc(self, x: LinComb) -> LinComb:
        """Coproduct with both unit tensor legs removed."""
        full = self.coproduct_lc(x)
        return LinComb(
            (pair, c)
            for pair, c in full.terms().items()
            if pair[0] != UNIT_LABEL and pair[1] != UNIT_LABEL
        )


# -- validation ----------------------------------------------------------------

def validate_presentation(A: Presentation) -> list[Violation]:
    """All axiom violations up to the presentation's weight bound."""
    out: list[Violation] = []
    out.extend(_validate_tables(A))
    if out:
        # grading or completeness problems make the axiom checks unreliable
        return out
    out.extend(_validate_counit(A))
    out.extend(_validate_coassociativity(A))
    out.extend(_validate_shuffle_axiom(A))
    out.extend(_validate_left_compatibility(A))
    return out


def _validate_tables(A: Presentation) -> list[Violation]:
    out = []
    n = A.max_weight
    labels = A.labels()
    for a in labels:
        for b in labels:
            wsum = A.weight_of(a) + A.weight_of(b)
            if wsum > n:
                continue
            entry = A.prec_table.get((a, b))
            if entry is None:
                out.append(Violation("prec-completeness", (a, b), "missing entry", ""))
                continue
            for key, _ in entry.terms().items():
                if A.weight_of(key) != wsum:
                    out.append(Violation("prec-grading", (a, b), entry, f"weight {wsum}"))
                    break
    for label in labels:
        entry = A.coproduct_table.get(label)
        if entry is None:
            out.append(Violation("coproduct-completeness", (label,), "missing entry", ""))
            continue
        w = A.weight_of(label)
        for (left, right), _ in entry.terms().items():
            if A.weight_of(left) + A.weight_of(right) != w:
                out.append(Violation("coproduct-grading", (label,), entry, f"weight {w}"))
                break
    return out


def _validate_counit(A: Presentation) -> list[Violation]:
    out = []
    for label in A.labels():
        cop = A.coproduct(label)
        left_unit = LinComb(
            (right, c) for (left, right), c in cop.terms().items() if left == UNIT_LABEL
        )
        right_unit = LinComb(
            (left, c) for (left, right), c in cop.terms().items() if right == UNIT_LABEL
        )
        expected = LinComb.single(label)
        if left_unit != expected:
            out.append(Violation("counit-left", (label,), left_unit, expected))
        if right_unit != expected:
            out.append(Violation("counit-right", (label,), right_unit, expected))
    return out


def _validate_coassociativity(A: Presentation) -> list[Violation]:
    out = []
    for label in A.labels():
        lhs, rhs = coassociativity_sides(A.coproduct(label), A.coproduct)
        if lhs != rhs:
            out.append(Violation("coassociativity", (label,), lhs, rhs))
    return out


def _validate_shuffle_axiom(A: Presentation) -> list[Violation]:
    # (a < b) < c = a < (b sh c) on basis triples within the weight bound
    out = []
    n = A.max_weight
    labels = A.labels()
    for a in labels:
        wa = A.weight_of(a)
        for b in labels:
            wab = wa + A.weight_of(b)
            if wab >= n:
                continue
            ab = A.prec(a, b)
            for c in labels:
                if wab + A.weight_of(c) > n:
                    continue
                lhs = A.prec_lc(ab, LinComb.single(c))
                rhs = A.prec_lc(LinComb.single(a), A.shuffle(b, c))
                if lhs != rhs:
                    out.append(Violation("shuffle-axiom", (a, b, c), lhs, rhs))
    return out


def _validate_left_compatibility(A: Presentation) -> list[Violation]:
    # Delta(x < y) = x' < y' (x) x'' sh y'' + 1 (x) (x < y), full Sweedler sums
    out = []
    n = A.max_weight
    labels = A.labels()
    for x in labels:
        for y in labels:
            if A.weight_of(x) + A.weight_of(y) > n:
                continue
            xy = A.prec(x, y)
            lhs = A.coproduct_lc(xy)
            rhs = tensor_extend(A.prec, A.shuffle, A.coproduct(x), A.coproduct(y))
            rhs = rhs + xy.map_keys(lambda key: (UNIT_LABEL, key))
            if lhs != rhs:
                out.append(Violation("left-compatibility", (x, y), lhs, rhs))
    return out


# -- antipode and the primitive projector ----------------------------------------

def antipode(A: Presentation, x) -> LinComb:
    """Antipode by the graded-connected recursion; accepts a label or a LinComb."""
    if isinstance(x, str):
        x = LinComb.single(x)
    return linear_extend(lambda label: _antipode_label(A, label), x)


def _antipode_label(A: Presentation, label: str) -> LinComb:
    if label == UNIT_LABEL:
        return LinComb.single(UNIT_LABEL)
    cached = A._antipode_cache.get(label)
    if cached is not None:
        return cached
    acc = LinComb.single(label, -1) - LinComb.sum(
        (A.shuffle_lc(_antipode_label(A, left), LinComb.single(right)), c)
        for (left, right), c in A.coproduct(label).terms().items()
        if left != UNIT_LABEL and right != UNIT_LABEL
    )
    A._antipode_cache[label] = acc
    return acc


def tau(A: Presentation, x) -> LinComb:
    """Primitive projector tau(x) = sum over cuts with nonunit left part of
    x' < S(x''); fixes primitives, kills products, squares to itself."""
    if isinstance(x, str):
        x = LinComb.single(x)
    return linear_extend(lambda label: _tau_label(A, label), x)


def _tau_label(A: Presentation, label: str) -> LinComb:
    if label == UNIT_LABEL:
        return LinComb.zero()
    cached = A._tau_cache.get(label)
    if cached is not None:
        return cached
    acc = LinComb.sum(
        (A.prec_lc(LinComb.single(left), _antipode_label(A, right)), c)
        for (left, right), c in A.coproduct(label).terms().items()
        if left != UNIT_LABEL
    )
    A._tau_cache[label] = acc
    return acc


# -- primitive basis and decomposition ---------------------------------------------

def primitive_basis(A: Presentation) -> dict[int, list[LinComb]]:
    """Per-weight basis of the image of tau, deterministic echelon order.

    Raises :class:`RigidityError` when some tau image is not primitive,
    which convicts the presentation of not being a shuffle bialgebra.
    """
    if A._primitive_basis is not None:
        return A._primitive_basis
    from .linalg import RowEchelon

    out: dict[int, list[LinComb]] = {}
    for w in sorted(A.basis):
        ech = RowEchelon()
        for label in A.basis[w]:
            ech.add(tau(A, label))
        rows = ech.pivot_rows()
        for row in rows:
            bad = A.reduced_coproduct_lc(row)
            if not bad.is_zero():
                raise RigidityError(
                    f"tau image {row} at weight {w} is not primitive: "
                    f"reduced coproduct {bad}"
                )
        out[w] = rows
    A._primitive_basis = out
    return out


def _expand_in_rows(rows: list[LinComb], v: LinComb) -> list:
    """Exact coordinates of v in echelon rows (distinct leading keys)."""
    by_lead = {}
    for idx, row in enumerate(rows):
        lead = min(row.terms(), key=canonical_key)
        by_lead[lead] = idx
    result = [0] * len(rows)
    remainder = v
    while not remainder.is_zero():
        lead = min(remainder.terms(), key=canonical_key)
        idx = by_lead.get(lead)
        if idx is None:
            raise RigidityError(f"vector {v} does not lie in the primitive span")
        row = rows[idx]
        c = exact_div(remainder[lead], row[lead])
        result[idx] += c
        remainder = remainder - row * c
    return result


def primitive_decomposition(A: Presentation, label: str) -> "PrimitiveDecomposition":
    """Expand a basis label over right-nested half-products of primitives.

    The coefficients are peeled off the coproduct weight by weight; the
    result is re-evaluated through the product table and must reproduce the
    label exactly, otherwise a :class:`RigidityError` is raised.
    """
    A._require_label(label)
    basis = primitive_basis(A)
    terms = _decompose_label(A, basis, label)
    decomp = PrimitiveDecomposition(label=label, terms=terms, presentation=A)
    value = decomp.evaluate()
    if value != LinComb.single(label):
        raise RigidityError(
            f"decomposition of {label!r} evaluates to {value}, not to the label: "
            "the presentation is not a shuffle bialgebra"
        )
    return decomp


def _decompose_label(A: Presentation, basis, label: str) -> LinComb:
    cached = A._decomp_cache.get(label)
    if cached is not None:
        return cached
    acc = _expand_primitive(A, basis, tau(A, label)) + LinComb.sum(
        (
            bilinear_extend(
                lambda head, tail: LinComb.single(head + tail),
                _expand_primitive(A, basis, tau(A, left)),
                _decompose_label(A, basis, right),
            ),
            c,
        )
        for (left, right), c in A.coproduct(label).terms().items()
        if left != UNIT_LABEL and right != UNIT_LABEL
    )
    A._decomp_cache[label] = acc
    return acc


def _expand_primitive(A: Presentation, basis, v: LinComb) -> LinComb:
    """Write a primitive vector as length-1 nested words over the basis."""
    if v.is_zero():
        return LinComb.zero()
    weights = {A.weight_of(k) for k in v.terms()}
    if len(weights) != 1:
        raise RigidityError(f"tau image {v} is not weight-homogeneous")
    (w,) = weights
    rows = basis.get(w, [])
    coords = _expand_in_rows(rows, v)
    return LinComb(((("P", w, i),), c) for i, c in enumerate(coords) if c)


@dataclass
class PrimitiveDecomposition:
    """A label expanded over right-nested half-products of primitives.

    Keys of ``terms`` are tuples of primitive ids ("P", weight, index) into
    the presentation's primitive basis; the tuple (p1, ..., pk) denotes
    p1 < (p2 < (... < pk)).
    """

    label: str
    terms: LinComb
    presentation: Presentation

    def primitive_vector(self, pid) -> LinComb:
        _, w, i = pid
        return primitive_basis(self.presentation)[w][i]

    def evaluate(self) -> LinComb:
        return linear_extend(self.evaluate_word, self.terms)

    def evaluate_word(self, pid_word) -> LinComb:
        """p1 < (p2 < (... < pk)) for the primitive ids (p1, ..., pk)."""
        value = self.primitive_vector(pid_word[-1])
        for pid in reversed(pid_word[:-1]):
            value = self.presentation.prec_lc(self.primitive_vector(pid), value)
        return value

    def primitive_name(self, pid) -> str:
        vec = self.primitive_vector(pid)
        if len(vec) == 1:
            ((key, coeff),) = vec.items()
            if coeff == 1:
                return key
        _, w, i = pid
        return f"P{w}.{i}"

    def __str__(self):
        if self.terms.is_zero():
            return "0"
        chunks = []
        for pid_word, c in self.terms.items():
            names = [self.primitive_name(p) for p in pid_word]
            nested = names[-1]
            for name in reversed(names[:-1]):
                nested = f"{name}<({nested})"
            if c == 1:
                text = nested
            elif c == -1:
                text = f"-{nested}"
            else:
                text = f"{c}*{nested}"
            chunks.append(text)
        return " + ".join(chunks).replace("+ -", "- ")


def nested_word_count(prim_dims: dict[int, int], weight: int) -> int:
    """Number of nested words of a given weight over graded primitive dims."""
    from .words import compositions

    total = 0
    for comp_ in compositions(weight, [w for w, d in prim_dims.items() if d > 0]):
        prod = 1
        for part in comp_:
            prod *= prim_dims[part]
        total += prod
    return total


# -- transport of the biword action ------------------------------------------------

def biword_act(A: Presentation, b, label: str) -> LinComb:
    """Act with a biword on a basis label through the primitive realization.

    The label is decomposed into nested words of primitives; the biword
    permutes a nested word like a word whose letters are the primitives
    (weights must match the degree row), and the permuted nested words are
    evaluated back through the product table.
    """
    decomp = primitive_decomposition(A, label)

    def act(pid_word) -> LinComb:
        if b.size != len(pid_word):
            return LinComb.zero()
        permuted = tuple(pid_word[v - 1] for v in b.perm)
        if any(pid[1] != d for pid, d in zip(permuted, b.deg)):
            return LinComb.zero()
        return decomp.evaluate_word(permuted)

    return linear_extend(act, decomp.terms)


# -- the shuffle algebra of words as a presentation ----------------------------------

def shuffle_presentation(alphabet: dict[int, int], max_weight: int) -> Presentation:
    """Truncate the shuffle algebra of words over a finite graded alphabet."""
    words_by_weight = {w: enumerate_words(w, alphabet) for w in range(1, max_weight + 1)}
    label_of: dict[Word, str] = {}
    basis = {}
    for w, words_ in words_by_weight.items():
        basis[w] = [str(word_) for word_ in words_]
        for word_ in words_:
            label_of[word_] = str(word_)

    def relabel(lc: LinComb) -> LinComb:
        return LinComb((label_of[k], c) for k, c in lc.terms().items())

    prec = {}
    coproduct = {}
    for wa in range(1, max_weight + 1):
        for wb in range(1, max_weight - wa + 1):
            for u in words_by_weight[wa]:
                for v in words_by_weight[wb]:
                    prec[(label_of[u], label_of[v])] = relabel(word_prec(u, v))
    for w, words_ in words_by_weight.items():
        for word_ in words_:
            coproduct[str(word_)] = deconcat(word_).map_keys(
                lambda cut: tuple(UNIT_LABEL if w.is_empty() else label_of[w] for w in cut)
            )
    return Presentation(basis, prec, coproduct)


def perturbed_presentation(
    A: Presentation, left: str, right: str, delta: LinComb
) -> Presentation:
    """Copy of the presentation with one half-product entry shifted by delta."""
    prec = dict(A.prec_table)
    key = (left, right)
    prec[key] = prec.get(key, LinComb.zero()) + delta
    return Presentation(A.basis, prec, A.coproduct_table)


# -- JSON body -----------------------------------------------------------------------

def presentation_to_json(A: Presentation) -> dict:
    return {
        "basis": {str(w): list(labels) for w, labels in A.basis.items()},
        "prec": [
            [a, b, [[key, str(c)] for key, c in entry.items()]]
            for (a, b), entry in sorted(A.prec_table.items())
        ],
        "coproduct": [
            [label, [[left, right, str(c)] for (left, right), c in entry.items()]]
            for label, entry in sorted(A.coproduct_table.items())
        ],
    }


def presentation_from_json(obj: dict) -> Presentation:
    basis = {int(w): list(labels) for w, labels in obj["basis"].items()}
    prec = {}
    for a, b, entries in obj["prec"]:
        prec[(a, b)] = LinComb((key, Fraction(c)) for key, c in entries)
    coproduct = {}
    for label, entries in obj["coproduct"]:
        coproduct[label] = LinComb(((left, right), Fraction(c)) for left, right, c in entries)
    return Presentation(basis, prec, coproduct)


def save_presentation(A: Presentation, path) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(presentation_to_json(A), fh, indent=1)


def load_presentation(path) -> Presentation:
    import json

    with open(path) as fh:
        return presentation_from_json(json.load(fh))
