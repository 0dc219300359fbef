"""Sparse linear combinations with exact rational coefficients.

A :class:`LinComb` is a finitely supported map from basis keys to exact
rationals.  A coefficient is a plain ``int`` while it is integral and a
``fractions.Fraction`` only once a division made it non-integral (see
:func:`exact_div`); ``fractions`` is first imported by a coefficient that is
not an ``int``.  A ``float`` is never stored: building or scaling a
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
:func:`linear_extend` and :func:`bilinear_extend` are built on it.  Every
signed sum is rendered by :func:`signed_sum`, which reads each sign off the
coefficient, never off the term's text.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable

_Fraction = None  # fractions.Fraction, imported by the first coefficient that is not an int


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
    global _Fraction
    kind = type(coeff)
    if kind is int:
        return coeff
    if kind is not _Fraction:
        from fractions import Fraction as _Fraction
        if kind is not _Fraction:
            from numbers import Integral, Rational
            if isinstance(coeff, Integral):  # bool, numpy integers
                return int(coeff)
            if not isinstance(coeff, Rational):
                raise TypeError(f"coefficients must be int or Fraction, not {kind.__name__}")
            coeff = _Fraction(coeff)
    return coeff.numerator if coeff.denominator == 1 else coeff


def parse_coefficient(text):
    """The exact number a coefficient's text names, as ``Fraction`` reads it
    (``3``, ``+2``, ``1_0``, ``3/4``, ``1.5``, ``1e3``), ``int`` when integral.

    Malformed text raises ``ValueError`` or ``ZeroDivisionError``.  So does an
    exponent larger in magnitude than the integer-text digit limit, which
    ``int`` applies to written-out digits, before its power is computed.
    """
    try:
        return int(text)
    except ValueError:
        pass
    _, e, exponent = text.lower().partition("e")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    if e and limit and abs(int(exponent)) > limit:
        raise ValueError(f"the exponent of {text!r} is larger than {limit}")
    import fractions
    return exact(fractions.Fraction(text))


def exact_div(a, b):
    """The exact quotient a / b of two coefficients, ``int`` when integral."""
    if type(a) is type(b) is int and b and not a % b:
        return a // b
    import fractions  # cheaper per call than a from-import, which looks up fractions.__path__
    return exact(fractions.Fraction(a) / b)


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
        """:func:`signed_sum` in canonical order, e.g. ``a - b + 3/2*c``; a
        tensor key, a tuple of two or more keys, renders as ``a (x) b (x) c``."""
        return signed_sum((_key_text(key), coeff) for key, coeff in self.items())


def signed_sum(terms: Iterable) -> str:
    """The signed sum of (text, coefficient) pairs, e.g. ``a - b + 3/2*c``, or
    ``0`` for none; each sign is the coefficient's, so a text is never rewritten."""
    out = ""
    for text, coeff in terms:
        if abs(coeff) != 1:
            text = f"{abs(coeff)}*{text}"
        if out:
            out += (" - " if coeff < 0 else " + ") + text
        else:
            out = "-" + text if coeff < 0 else text
    return out or "0"


def _key_text(key) -> str:
    if type(key) is tuple and len(key) >= 2:
        return " (x) ".join(map(_key_text, key))
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
