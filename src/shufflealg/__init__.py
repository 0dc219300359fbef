"""Exact-arithmetic kernel for shuffle algebras over graded alphabets.

Subpackages cover: sparse rational linear combinations and lazy power
series (:mod:`.lincomb`, :mod:`.series`), words with half-shuffles and the
deconcatenation Hopf structure (:mod:`.words`), graded permutations with
dendriform products, coproducts, and the internal composition
(:mod:`.biwords`), their action on words (:mod:`.action`), the dendriform
descent algebra with its idempotents and dimension machinery
(:mod:`.descent`), exact elimination (:mod:`.linalg`), and abstract shuffle
bialgebra presentations with the primitive projector and decomposition
(:mod:`.rigidity`).  The command line lives in :mod:`.cli`, and a command
loads only the modules it runs; each public name resolves on first access.
No module keeps a memo cache; each memo belongs to one object or one call.
"""

_PUBLIC = {  # the module that defines each public name
    "LinComb": "lincomb", "PowerSeries": "series", "Letter": "words", "Word": "words",
    "Biword": "biwords", "parse_biword": "biwords", "p_n": "descent", "pi_composite": "descent",
    "pi_n": "descent", "Presentation": "rigidity", "RigidityError": "rigidity",
}


def __getattr__(name):
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = globals()[name] = getattr(importlib.import_module(f".{_PUBLIC[name]}", __name__), name)
    return value


__version__ = "0.1.0"

__all__ = [
    "Biword",
    "Letter",
    "LinComb",
    "PowerSeries",
    "Presentation",
    "RigidityError",
    "Word",
    "p_n",
    "parse_biword",
    "pi_composite",
    "pi_n",
    "__version__",
]
