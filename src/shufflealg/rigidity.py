"""Abstract graded connected shuffle bialgebras given by structure constants.

A presentation lists a finite graded basis (weights 1..N, the unit "1" is
implicit), a table for the left half-product on basis pairs with weight sum
at most N, and a full counital coproduct table per basis label.  The right
half-product is never stored: ``x > y := y < x``.  Everything is verified,
not assumed: :func:`validate_presentation` checks grading, counitality,
coassociativity, the half-shuffle associativity axiom, and the coproduct
compatibility of the half-product on the tuples of basis labels within the
weight bound (enumerated by :func:`~shufflealg.words.graded_tuples`), and
reports each violation with the offending inputs and both sides.

On a valid presentation the projector ``tau(x) = sum x' < S(x'')`` (left
part nonunit) is an idempotent onto the primitive elements, and every basis
label decomposes exactly into right-nested half-products of primitive basis
vectors, by peeling the leading primitive through the coproduct:

    x = tau(x) + sum over proper cuts of tau(x') < (decomposition of x'').

Invalid presentations surface as :class:`RigidityError` (a tau image that
fails primitivity, or a decomposition that does not evaluate back to its
label) or as explicit axiom violations from the validator.

By rigidity the bialgebra is the shuffle algebra on its primitives, so a
decomposition is a combination of words over the primitive alphabet: the
letter ``Letter(w, i)`` stands for row i of the weight-w primitive basis, and
a biword acts on these words by :func:`~shufflealg.action.act_letters`, the
one action rule (:func:`biword_act`).

The item tables, tuples of (key, coefficient) pairs with the unit rows, are
the one stored copy of a :class:`Presentation`'s structure constants; ``prec``
and ``coproduct`` view one row as a ``LinComb``.  The kernels add terms into
plain dicts through :func:`~shufflealg.lincomb.accumulate`: a ``LinComb`` is
built only for a failure record or a public result.
"""

from __future__ import annotations

from math import prod

from .action import act_letters
from .linalg import RowEchelon
from .lincomb import LinComb, accumulate, canonical_key, exact_div, linear_extend, parse_coefficient, signed_sum
from . import words as W
from .words import Letter, compositions, enumerate_words, graded_tuples

UNIT_LABEL = "1"


class RigidityError(ValueError):
    """The presentation cannot be a graded connected shuffle bialgebra."""


class PresentationError(ValueError):
    """Structurally broken presentation data (missing labels or entries)."""


class Failure:
    """One instance of an identity whose two sides differ."""

    def __init__(self, identity: str, inputs: tuple, lhs, rhs):
        self.identity, self.inputs, self.lhs, self.rhs = identity, inputs, lhs, rhs

    def __str__(self):
        ins = ", ".join(str(i) for i in self.inputs)
        return f"{self.identity} fails at ({ins}):\n  lhs = {self.lhs}\n  rhs = {self.rhs}"


class Report(list):
    """The failures of one check run; ``checked`` counts the identity
    instances it compared."""

    checked = 0

    def expect(self, identity: str, inputs: tuple, lhs, rhs) -> None:
        """Count one instance of an identity and record it if the sides differ;
        a side given as a zero-free coefficient map is recorded as a LinComb."""
        self.checked += 1
        if lhs != rhs:
            lhs, rhs = (LinComb._raw(x) if type(x) is dict else x for x in (lhs, rhs))
            self.append(Failure(identity, inputs, lhs, rhs))


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
        # the item tables, unit rows first: a < 1 = a, 1 < b = 0, Delta(1) = 1 (x) 1
        self._prec_rows = prec_rows = {(a, UNIT_LABEL): ((a, 1),) for a in self._weight}
        prec_rows.update(((UNIT_LABEL, b), ()) for b in [UNIT_LABEL, *self._weight])
        self._coproduct_rows = coproduct_rows = {UNIT_LABEL: (((UNIT_LABEL, UNIT_LABEL), 1),)}
        coproduct = dict(coproduct)
        labels, legs = set(coproduct), set()
        for pair, out in dict(prec).items():
            terms = out.terms()
            prec_rows[pair] = tuple(terms.items())
            labels.update(pair, terms)
        for label, cop in coproduct.items():
            terms = cop.terms()
            coproduct_rows[label] = tuple(terms.items())
            legs.update(*terms)
        self._require_labels(labels)
        self._require_labels(legs, unit_ok=True)
        self._shuffle_rows = {(UNIT_LABEL, UNIT_LABEL): ((UNIT_LABEL, 1),)}  # 1 * 1 = 1, but 1 < 1 = 0
        self._antipode_cache: dict[str, LinComb] = {}
        self._tau_cache: dict[str, LinComb] = {}
        self._primitive_basis = self._primitive_leads = None
        self._decomp_cache: dict[str, LinComb] = {}

    def _require_labels(self, labels, unit_ok: bool = False):
        bad = set(labels).difference(self._weight, [UNIT_LABEL] if unit_ok else [])
        if UNIT_LABEL in bad:
            raise PresentationError("the unit cannot appear here")
        if bad:
            raise PresentationError(f"unknown basis label {min(bad)!r}")

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
        """Left half-product on labels, unit included."""
        return LinComb._raw(dict(self._prec_row(a, b)))

    def coproduct(self, label: str) -> LinComb:
        return LinComb._raw(dict(self._coproduct_row(label)))

    def _prec_row(self, a: str, b: str):
        """The (label, coefficient) terms of a < b."""
        try:
            return self._prec_rows[a, b]
        except KeyError:
            raise PresentationError(f"missing half-product entry ({a!r}, {b!r})") from None

    def _coproduct_row(self, label: str):
        """The ((left, right), coefficient) terms of the coproduct of a label."""
        try:
            return self._coproduct_rows[label]
        except KeyError:
            raise PresentationError(f"missing coproduct entry for {label!r}") from None

    def _shuffle_row(self, a: str, b: str) -> tuple:
        """The terms of a * b, kept per unordered pair (the shuffle commutes)."""
        pair = (a, b) if a <= b else (b, a)
        row = self._shuffle_rows.get(pair)
        if row is None:
            terms = accumulate(dict(self._prec_row(a, b)), self._prec_row(b, a))
            row = self._shuffle_rows[pair] = tuple(terms.items())
        return row

    def _prec_terms(self, x: dict, y: dict) -> dict:
        """x < y for coefficient maps of labels."""
        row, ys = self._prec_row, y.items()
        return accumulate({}, ((k, cx * cy * c) for a, cx in x.items() for b, cy in ys for k, c in row(a, b)))


# -- validation ----------------------------------------------------------------

def validate_presentation(A: Presentation) -> Report:
    """All axiom violations up to the presentation's weight bound, with the
    number of axiom instances compared."""
    out = Report()
    _validate_tables(A, out)
    if out:
        # grading or completeness problems make the axiom checks unreliable
        return out
    _validate_counit(A, out)
    _validate_coassociativity(A, out)
    _validate_shuffle_axiom(A, out)
    _validate_left_compatibility(A, out)
    return out


def _label_tuples(A: Presentation, arity: int):
    """The tuples of basis labels within the weight bound, in label order."""
    return graded_tuples(arity, A.max_weight, lambda m: A.basis.get(m, ()))


def _validate_tables(A: Presentation, out: Report) -> None:
    for a, b in _label_tuples(A, 2):
        row = A._prec_rows.get((a, b))
        if row is None:
            out.append(Failure("prec-completeness", (a, b), "missing entry", ""))
            continue
        wsum = A.weight_of(a) + A.weight_of(b)
        for key, _ in row:
            if A.weight_of(key) != wsum:
                out.append(Failure("prec-grading", (a, b), A.prec(a, b), f"weight {wsum}"))
                break
    for label in A.labels():
        row = A._coproduct_rows.get(label)
        if row is None:
            out.append(Failure("coproduct-completeness", (label,), "missing entry", ""))
            continue
        w = A.weight_of(label)
        for (left, right), _ in row:
            if A.weight_of(left) + A.weight_of(right) != w:
                out.append(Failure("coproduct-grading", (label,), A.coproduct(label), f"weight {w}"))
                break


def _validate_counit(A: Presentation, out: Report) -> None:
    for label in A.labels():
        row, expected = A._coproduct_rows[label], {label: 1}
        out.expect("counit-left", (label,), {r: c for (l, r), c in row if l == UNIT_LABEL}, expected)
        out.expect("counit-right", (label,), {l: c for (l, r), c in row if r == UNIT_LABEL}, expected)


def _validate_coassociativity(A: Presentation, out: Report) -> None:
    rows = A._coproduct_rows
    for label in A.labels():
        row = rows[label]
        lhs = accumulate({}, (((l1, l2, r), c * c2) for (l, r), c in row for (l1, l2), c2 in rows[l]))
        rhs = accumulate({}, (((l, r1, r2), c * c2) for (l, r), c in row for (r1, r2), c2 in rows[r]))
        out.expect("coassociativity", (label,), lhs, rhs)


def _validate_shuffle_axiom(A: Presentation, out: Report) -> None:
    # (a < b) < c = a < (b sh c) on basis triples within the weight bound
    prec, shuffle = A._prec_rows, A._shuffle_row
    for a, b, c in _label_tuples(A, 3):
        lhs, rhs = {}, {}
        for ab, c1 in prec[a, b]:
            row = prec[ab, c]
            accumulate(lhs, row if c1 == 1 else [(k, c1 * c2) for k, c2 in row])
        for bc, c1 in shuffle(b, c):
            row = prec[a, bc]
            accumulate(rhs, row if c1 == 1 else [(k, c1 * c2) for k, c2 in row])
        out.expect("shuffle-axiom", (a, b, c), lhs, rhs)


def _validate_left_compatibility(A: Presentation, out: Report) -> None:
    # Delta(x < y) = x' < y' (x) x'' sh y'' + 1 (x) (x < y), full Sweedler sums
    prec, cop, shuffle = A._prec_rows, A._coproduct_rows, A._shuffle_row
    for x, y in _label_tuples(A, 2):
        xy, lhs = prec[x, y], {}
        for key, c in xy:
            row = cop[key]
            accumulate(lhs, row if c == 1 else [(pair, c * c2) for pair, c2 in row])
        rhs = {(UNIT_LABEL, key): c for key, c in xy}
        for (x1, x2), cx in cop[x]:
            for (y1, y2), cy in cop[y]:
                row = prec[x1, y1]
                shuffled = shuffle(x2, y2) if row else ()
                for l, cl in row:
                    factor = cx * cy * cl
                    for r, cr in shuffled:  # accumulate's loop, inlined
                        c = rhs.get((l, r), 0) + (cr if factor == 1 else factor * cr)
                        if c:
                            rhs[l, r] = c
                        else:
                            del rhs[l, r]
        out.expect("left-compatibility", (x, y), lhs, rhs)


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
    if cached is None:
        # S(x) = -x - sum over proper cuts of S(x') sh x''
        acc = accumulate({label: -1}, (
            (k, -c * ck * cs)
            for (left, right), c in A._coproduct_row(label)
            if left != UNIT_LABEL and right != UNIT_LABEL
            for key, ck in _antipode_label(A, left).terms().items()
            for k, cs in A._shuffle_row(key, right)
        ))
        cached = A._antipode_cache[label] = LinComb._raw(acc)
    return cached


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
    if cached is None:
        acc = accumulate({}, (
            (k, c * ck * cp)
            for (left, right), c in A._coproduct_row(label)
            if left != UNIT_LABEL
            for key, ck in _antipode_label(A, right).terms().items()
            for k, cp in A._prec_row(left, key)
        ))
        cached = A._tau_cache[label] = LinComb._raw(acc)
    return cached


# -- primitive basis and decomposition ---------------------------------------------

def primitive_basis(A: Presentation) -> dict[int, list[LinComb]]:
    """Per-weight basis of the image of tau, deterministic echelon order.

    Raises :class:`RigidityError` when some tau image is not primitive,
    which convicts the presentation of not being a shuffle bialgebra.
    """
    if A._primitive_basis is not None:
        return A._primitive_basis
    out: dict[int, list[LinComb]] = {}
    leads: dict[int, dict] = {}  # per weight, the leading key of each row -> its index
    for w in sorted(A.basis):
        ech = RowEchelon()
        for label in A.basis[w]:
            ech.add(_tau_label(A, label))
        rows = ech.pivot_rows()
        for row in rows:
            terms = ((pair, c * c2) for key, c in row.terms().items() for pair, c2 in A._coproduct_row(key))
            bad = accumulate({}, ((pair, c) for pair, c in terms if UNIT_LABEL not in pair))  # reduced coproduct
            if bad:
                raise RigidityError(
                    f"tau image {row} at weight {w} is not primitive: "
                    f"reduced coproduct {LinComb._raw(bad)}"
                )
        out[w] = rows
        leads[w] = {min(row.terms(), key=canonical_key): i for i, row in enumerate(rows)}
    A._primitive_basis, A._primitive_leads = out, leads
    return out


def primitive_decomposition(A: Presentation, label: str) -> "PrimitiveDecomposition":
    """Expand a basis label over right-nested half-products of primitives.

    The coefficients are peeled off the coproduct weight by weight; the
    result is re-evaluated through the product table and must reproduce the
    label exactly, otherwise a :class:`RigidityError` is raised.
    """
    A._require_labels((label,))
    primitive_basis(A)
    terms = _decompose_label(A, label)
    decomp = PrimitiveDecomposition(label=label, terms=terms, presentation=A)
    value = decomp.evaluate()
    if value != LinComb.single(label):
        raise RigidityError(
            f"decomposition of {label!r} evaluates to {value}, not to the label: "
            "the presentation is not a shuffle bialgebra"
        )
    return decomp


def _decompose_label(A: Presentation, label: str) -> LinComb:
    cached = A._decomp_cache.get(label)
    if cached is None:
        acc = _expand_primitive(A, _tau_label(A, label))
        for (left, right), c in A._coproduct_row(label):
            if left != UNIT_LABEL and right != UNIT_LABEL:
                tails = _decompose_label(A, right).terms().items()
                for head, ch in _expand_primitive(A, _tau_label(A, left)).items():
                    accumulate(acc, ((head + tail, c * ch * ct) for tail, ct in tails))
        cached = A._decomp_cache[label] = LinComb._raw(acc)
    return cached


def _expand_primitive(A: Presentation, v: LinComb) -> dict:
    """A primitive vector as one-letter words over the primitive alphabet: its
    coordinates in the echelon rows (:func:`primitive_basis` has run)."""
    remainder, out = dict(v.terms()), {}
    weights = {A.weight_of(k) for k in remainder}
    if len(weights) > 1:
        raise RigidityError(f"tau image {v} is not weight-homogeneous")
    w = weights.pop() if weights else 0
    rows, by_lead = A._primitive_basis.get(w, []), A._primitive_leads.get(w, {})
    while remainder:
        # the leading key rises at every step, so each row is used at most once
        lead = min(remainder, key=canonical_key)
        i = by_lead.get(lead)
        if i is None:
            raise RigidityError(f"vector {v} does not lie in the primitive span")
        row = rows[i].terms()
        c = out[(Letter(w, i),)] = exact_div(remainder[lead], row[lead])
        accumulate(remainder, ((k, -c * ck) for k, ck in row.items()))
    return out


class PrimitiveDecomposition:
    """A label expanded over right-nested half-products of primitives.

    Keys of ``terms`` are words over the primitive alphabet: tuples of
    letters ``Letter(w, i)``, each standing for row i of the weight-w
    primitive basis, and the word (p1, ..., pk) denotes p1 < (p2 < (... < pk)).
    """

    def __init__(self, label: str, terms: LinComb, presentation: Presentation):
        self.label, self.terms, self.presentation = label, terms, presentation

    def primitive_vector(self, letter: Letter) -> LinComb:
        return primitive_basis(self.presentation)[letter.weight][letter.symbol]

    def evaluate(self) -> LinComb:
        return linear_extend(self.evaluate_word, self.terms)

    def evaluate_word(self, letters) -> LinComb:
        """p1 < (p2 < (... < pk)) for the primitive letters (p1, ..., pk)."""
        value = self.primitive_vector(letters[-1]).terms()
        for letter in reversed(letters[:-1]):
            value = self.presentation._prec_terms(self.primitive_vector(letter).terms(), value)
        return LinComb._raw(value)

    def primitive_name(self, letter: Letter) -> str:
        vec = self.primitive_vector(letter)
        if len(vec) == 1:
            ((key, coeff),) = vec.items()
            if coeff == 1:
                return key
        return f"P{letter.weight}.{letter.symbol}"

    def __str__(self):
        # the primitive word (p1, p2, p3) renders as p1<(p2<(p3))
        return signed_sum(
            ("<(".join(map(self.primitive_name, letters)) + ")" * (len(letters) - 1), c)
            for letters, c in self.terms.items()
        )


def nested_word_count(prim_dims: dict[int, int], weight: int) -> int:
    """Number of nested words of a given weight over graded primitive dims."""
    parts = [w for w, d in prim_dims.items() if d > 0]
    return sum(prod(prim_dims[part] for part in comp_) for comp_ in compositions(weight, parts))


# -- transport of the biword action ------------------------------------------------

def biword_act(A: Presentation, b, label: str) -> LinComb:
    """Act with a biword on a basis label through the primitive realization.

    The label is decomposed into words over the primitive alphabet; the
    biword acts on each by :func:`~shufflealg.action.act_letters`, the one
    action rule, and the permuted words are evaluated back through the
    product table.
    """
    decomp = primitive_decomposition(A, label)

    def act(letters) -> LinComb:
        permuted = act_letters(*b.row, letters)
        return LinComb.zero() if permuted is None else decomp.evaluate_word(permuted)

    return linear_extend(act, decomp.terms)


# -- the shuffle algebra of words as a presentation ----------------------------------

def shuffle_presentation(alphabet: dict[int, int], max_weight: int) -> Presentation:
    """Truncate the shuffle algebra of words over a finite graded alphabet.

    The half-shuffle u < v = u1 . (rest(u) sh v) takes one shuffle per
    distinct pair (rest(u), v), relabelled by prefixing the label of u1.
    """
    words_by_weight = {w: enumerate_words(w, alphabet) for w in range(1, max_weight + 1)}
    basis = {w: [str(word_) for word_ in words_] for w, words_ in words_by_weight.items()}
    word_of = {label: word_ for w, words_ in words_by_weight.items() for label, word_ in zip(basis[w], words_)}
    label_of = {word_: label for label, word_ in word_of.items()}
    # relabelling merges no terms: the Presentation rejects a label shared by two words
    shuffles = {}
    prec = {}
    for u, v in graded_tuples(2, max_weight, basis.get):
        head, _, rest = u.partition(".")
        terms = shuffles.get((rest, v))
        if terms is None:
            shuffled = W.word_shuffle(word_of[rest] if rest else W.EMPTY_WORD, word_of[v]).terms().items()
            terms = shuffles[(rest, v)] = [(label_of[k], c) for k, c in shuffled]
        head += "."
        prec[(u, v)] = LinComb._raw({head + k: c for k, c in terms})
    coproduct = {}
    for label in word_of:
        # deconcatenation, cut between the dot-separated letters of the label
        letters = label.split(".")
        cuts = (
            (".".join(letters[:k]) or UNIT_LABEL, ".".join(letters[k:]) or UNIT_LABEL)
            for k in range(len(letters) + 1)
        )
        coproduct[label] = LinComb._raw(dict.fromkeys(cuts, 1))
    return Presentation(basis, prec, coproduct)


# -- JSON body -----------------------------------------------------------------------

def presentation_to_json(A: Presentation) -> dict:
    return {
        "basis": {str(w): list(labels) for w, labels in A.basis.items()},
        "prec": [
            [a, b, [[key, str(c)] for key, c in sorted(row)]]
            for (a, b), row in sorted(A._prec_rows.items()) if UNIT_LABEL not in (a, b)
        ],
        "coproduct": [
            [label, [[left, right, str(c)] for (left, right), c in sorted(row)]]
            for label, row in sorted(A._coproduct_rows.items()) if label != UNIT_LABEL
        ],
    }


def presentation_from_json(obj) -> Presentation:
    """Parse the body :func:`presentation_to_json` writes; any other shape
    raises :class:`PresentationError`."""
    if not isinstance(obj, dict) or not isinstance(obj.get("basis"), dict):
        raise PresentationError("expected an object with a 'basis' object")
    basis = {}
    for w, labels in obj["basis"].items():
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise PresentationError(f"basis weight {w} must list its labels as strings")
        basis[_number(int, w)] = labels
    prec = {}
    for a, b, entries in _rows(obj.get("prec"), 3, "'prec'"):
        prec[(a, b)] = _exact_terms((key, c) for key, c in _rows(entries, 2, "prec terms"))
    coproduct = {}
    for label, entries in _rows(obj.get("coproduct"), 2, "'coproduct'"):
        terms = _rows(entries, 3, "coproduct terms")
        coproduct[label] = _exact_terms(((left, right), c) for left, right, c in terms)
    return Presentation(basis, prec, coproduct)


def _exact_terms(pairs) -> LinComb:
    # the parsed coefficients are exact already: drop zeros, add up repeated keys
    parsed = ((key, _number(parse_coefficient, text)) for key, text in pairs)
    return LinComb._raw(accumulate({}, ((key, c) for key, c in parsed if c)))


def _rows(value, width: int, what: str) -> list:
    """``value`` if it lists rows of ``width`` entries, labels but the last."""
    if isinstance(value, list) and all(
        isinstance(row, list) and len(row) == width and all(isinstance(x, str) for x in row[:-1])
        for row in value
    ):
        return value
    raise PresentationError(f"{what} must be a list of {width}-element rows led by labels")


def _number(parse, text):
    # a JSON float would turn into its binary expansion, so only strings and integers
    try:
        if type(text) in (str, int):
            return parse(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise PresentationError(f"{text!r} is not an exact number")


def save_presentation(A: Presentation, path) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(presentation_to_json(A), fh, indent=1)


def load_presentation(path) -> Presentation:
    import json

    with open(path) as fh:
        return presentation_from_json(json.load(fh))
