"""Exact-arithmetic kernel for shuffle algebras over graded alphabets.

Subpackages cover: sparse rational linear combinations and lazy power
series (:mod:`.lincomb`, :mod:`.series`), words with half-shuffles and the
deconcatenation Hopf structure (:mod:`.words`), graded permutations with
dendriform products, coproducts, and the internal composition
(:mod:`.biwords`), their action on words (:mod:`.action`), the dendriform
descent algebra with its idempotents and dimension machinery
(:mod:`.descent`), exact elimination (:mod:`.linalg`), and abstract shuffle
bialgebra presentations with the primitive projector and decomposition
(:mod:`.rigidity`).  The command line lives in :mod:`.cli`.
"""

from .lincomb import LinComb
from .series import PowerSeries
from .words import Letter, Word, word
from .biwords import Biword, biword, parse_biword
from .descent import p_n, pi_composite, pi_n
from .rigidity import Presentation, RigidityError
from . import descent as _descent, words as _words

__version__ = "0.1.0"

# every memo cache in the package; all are unbounded
_CACHES = (_words.word_antipode, _descent._evaluate_tree, _descent.descd_echelon)


def clear_caches() -> None:
    """Empty every memo cache; later calls recompute on demand."""
    for cached in _CACHES:
        cached.cache_clear()


__all__ = [
    "Biword",
    "Letter",
    "LinComb",
    "PowerSeries",
    "Presentation",
    "RigidityError",
    "Word",
    "biword",
    "clear_caches",
    "p_n",
    "parse_biword",
    "pi_composite",
    "pi_n",
    "word",
    "__version__",
]
