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
No module keeps a memo cache; each memo belongs to one object or one call.
"""

from .lincomb import LinComb
from .series import PowerSeries
from .words import Letter, Word
from .biwords import Biword, parse_biword
from .descent import p_n, pi_composite, pi_n
from .rigidity import Presentation, RigidityError

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
