"""Sparse linear combinations with exact rational coefficients.

A :class:`LinComb` is a finitely supported map from basis keys to exact
rationals.  A coefficient is a plain ``int`` while it is integral and a
``fractions.Fraction`` only once a division made it non-integral (see
:func:`exact_div`); a ``float`` is never stored: building or scaling a
combination with one raises ``TypeError``.  ``int`` and ``Fraction`` compare
and hash alike, so the representation never shows in equality.  Keys can be
anything hashable with a total order: words, biwords, tensor pairs (plain
tuples of keys), strings, integers.  Zero coefficients are never stored, so
equality is support-wise equality of the coefficient maps.  Iteration is
deterministic: keys are emitted in canonical order (see
:func:`canonical_key`).

Values are immutable once built; all arithmetic returns fresh objects.  Every
sum goes through one in-place accumulator, :func:`accumulate`: it adds
(key, coefficient) pairs into a private dict, drops a key the moment its
coefficient cancels to zero and never copies the dict, so a sum costs time
linear in the number of terms it adds.  :meth:`LinComb.sum`,
:func:`linear_extend` and :func:`bilinear_extend` are built on it.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Integral, Rational
from typing import Callable, Iterable


def canonical_key(key):
    """Total-order sort key: ``sort_key()`` when provided, tuples recursed."""
    sk = getattr(key, "sort_key", None)
    if sk is not None:
        return sk()
    if isinstance(key, tuple):
        return tuple(canonical_key(k) for k in key)
    return key


def exact(coeff):
    """A coefficient as ``int`` (when integral) or ``Fraction``.

    Floats and non-rational values raise ``TypeError``.
    """
    kind = type(coeff)
    if kind is int:
        return coeff
    if kind is not Fraction:
        if isinstance(coeff, Integral):  # bool, numpy integers
            return int(coeff)
        if not isinstance(coeff, Rational):
            raise TypeError(f"coefficients must be int or Fraction, not {kind.__name__}")
        coeff = Fraction(coeff)
    return coeff.numerator if coeff.denominator == 1 else coeff


def exact_div(a, b):
    """The exact quotient a / b of two coefficients, ``int`` when integral."""
    return exact(Fraction(a) / b)


def accumulate(data: dict, pairs: Iterable) -> dict:
    """Add (key, coefficient) pairs into ``data`` in place and return it.

    Coefficients must be exact and nonzero; a key whose coefficient cancels
    to zero is removed, so ``data`` never holds a zero.
    """
    get = data.get
    for key, coeff in pairs:
        c = get(key)
        if c is None:
            data[key] = coeff
        else:
            c += coeff
            if c:
                data[key] = c
            else:
                del data[key]
    return data


def _checked(pairs):
    for key, coeff in pairs:
        coeff = exact(coeff)
        if coeff:
            yield key, coeff


class LinComb:
    """Finitely supported rational linear combination of basis keys."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """From a mapping or an iterable of (key, coefficient) pairs; repeated
        keys add up."""
        items = getattr(terms, "items", None)
        if items is not None:
            terms = items()
        self._terms = accumulate({}, _checked(terms or ()))

    @classmethod
    def zero(cls) -> "LinComb":
        return cls._raw({})

    @classmethod
    def single(cls, key, coeff=1) -> "LinComb":
        coeff = exact(coeff)
        return cls._raw({key: coeff} if coeff else {})

    @classmethod
    def sum(cls, scaled: Iterable) -> "LinComb":
        """The sum of ``c * x`` over (LinComb x, coefficient c) pairs."""
        data = {}
        for x, scale in scaled:
            scale = exact(scale)
            if scale == 1:
                pairs = x._terms.items()
            elif scale:
                pairs = ((k, c * scale) for k, c in x._terms.items())
            else:
                continue
            if data:
                accumulate(data, pairs)
            else:
                data.update(pairs)
        return cls._raw(data)

    @classmethod
    def _raw(cls, data: dict) -> "LinComb":
        # trusted constructor: data holds exact nonzero coefficients only
        out = object.__new__(cls)
        out._terms = data
        return out

    # -- read access -------------------------------------------------------

    def items(self):
        """Terms in canonical key order."""
        return sorted(self._terms.items(), key=lambda kv: canonical_key(kv[0]))

    def keys(self):
        return sorted(self._terms, key=canonical_key)

    def terms(self) -> dict:
        """Unordered live view of the underlying map; do not mutate."""
        return self._terms

    def coefficient(self, key):
        return self._terms.get(key, 0)

    __getitem__ = coefficient

    def __contains__(self, key) -> bool:
        return key in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __iter__(self):
        return iter(self.keys())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        return LinComb._raw(accumulate(dict(big), small.items()))

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb._raw(accumulate(dict(self._terms), ((k, -c) for k, c in other._terms.items())))

    def __neg__(self) -> "LinComb":
        return LinComb._raw({k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar) -> "LinComb":
        scalar = exact(scalar)
        if not scalar:
            return LinComb._raw({})
        return LinComb._raw({k: c * scalar for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def map_keys(self, fn: Callable) -> "LinComb":
        """Relabel basis keys through ``fn`` (may merge terms)."""
        return LinComb._raw(accumulate({}, ((fn(k), c) for k, c in self._terms.items())))

    def __repr__(self):
        return f"LinComb({dict(self.items())!r})"

    def __str__(self):
        """Signed sum in canonical order, e.g. ``a - b + 3/2*c``; a tensor
        pair of keys renders as ``left (x) right``."""
        if not self._terms:
            return "0"
        chunks = []
        for key, coeff in self.items():
            text = _key_text(key)
            if coeff == -1:
                text = "-" + text
            elif coeff != 1:
                text = f"{coeff}*{text}"
            if not chunks:
                chunks.append(text)
            elif text.startswith("-"):
                chunks.append(" - " + text[1:])
            else:
                chunks.append(" + " + text)
        return "".join(chunks)


def _key_text(key) -> str:
    if isinstance(key, tuple) and len(key) == 2:
        return f"{_key_text(key[0])} (x) {_key_text(key[1])}"
    return str(key)


def linear_extend(fn: Callable, x: LinComb) -> LinComb:
    """Apply a key-level map ``fn: key -> LinComb`` linearly to ``x``."""
    return LinComb.sum((fn(key), coeff) for key, coeff in x.terms().items())


def bilinear_extend(fn: Callable, x: LinComb, y: LinComb) -> LinComb:
    """Apply ``fn: (key, key) -> LinComb`` bilinearly to ``x`` and ``y``."""
    ys = y.terms().items()
    return LinComb.sum(
        (fn(ka, kb), ca * cb) for ka, ca in x.terms().items() for kb, cb in ys
    )


# -- tensor pairs --------------------------------------------------------------

def tensor(x: LinComb, y: LinComb) -> LinComb:
    """x (x) y: key pairs (a, b) with coefficient x[a] * y[b]."""
    ys = y.terms().items()
    return LinComb._raw({(a, b): ca * cb for a, ca in x.terms().items() for b, cb in ys})


def tensor_extend(left_op: Callable, right_op: Callable, x: LinComb, y: LinComb) -> LinComb:
    """The sum of ``left_op(x1, y1) (x) right_op(x2, y2)`` over the pair
    terms x1 (x) x2 of ``x`` and y1 (x) y2 of ``y``, weighted by their
    coefficients; ``right_op`` is skipped where ``left_op`` vanishes."""

    def scaled():
        ys = y.terms().items()
        for (x1, x2), cx in x.terms().items():
            for (y1, y2), cy in ys:
                left = left_op(x1, y1)
                if left:
                    yield tensor(left, right_op(x2, y2)), cx * cy

    return LinComb.sum(scaled())


def coassociativity_sides(cop: LinComb, coproduct: Callable) -> tuple[LinComb, LinComb]:
    """(Delta (x) id)(cop) and (id (x) Delta)(cop) as combinations of key
    triples, for ``cop`` a combination of key pairs and ``coproduct`` a map
    from one key to its coproduct."""
    items = cop.terms().items()
    lhs = LinComb(
        ((l1, l2, right), c * c2)
        for (left, right), c in items
        for (l1, l2), c2 in coproduct(left).terms().items()
    )
    rhs = LinComb(
        ((left, r1, r2), c * c2)
        for (left, right), c in items
        for (r1, r2), c2 in coproduct(right).terms().items()
    )
    return lhs, rhs
