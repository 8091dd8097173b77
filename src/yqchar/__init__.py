"""Exact q-character calculus for loop-algebra module families.

Subpackages:
  coords        exact spectral coordinates (rationals + indeterminates)
  cartan        Cartan data and the weight lattice
  monomials     Psi/Y/A monomial calculus, conversions and printing
  textio        the monomial grammar (JSON: ``characters._JSON``)
  characters    truncated characters and the expansion engine
  identities    identity verifiers and the multiplicative translation
  sl2_explicit  exact matrix modules in rank one
  cli           command-line front end
"""

__version__ = "0.1.0"

from .coords import Coord, coord, parse_coord
from .cartan import CartanData, LieType, Weight, build_cartan
from .monomials import AVector, PsiMonomial, YMonomial
from .characters import EngineConfig, EngineError, TruncatedCharacter

__all__ = [
    "Coord", "coord", "parse_coord",
    "CartanData", "LieType", "Weight", "build_cartan",
    "AVector", "PsiMonomial", "YMonomial",
    "EngineConfig", "EngineError", "TruncatedCharacter",
    "__version__",
]
