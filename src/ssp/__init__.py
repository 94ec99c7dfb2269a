"""Exact computations around superspecial unitary Dieudonné modules:
finite-field and truncated Witt arithmetic, the mod-p Hermitian
quotient and its automorphism group, finite unitary/symplectic group
orders with enumeration oracles, and the mod-p Hecke-eigensystem
counting bound.
"""

from .count import CountReport, CosetSpace, GroupRepresentation, SignatureParams
from .dieudonne import DieudonneModule, HodgePolygon, NewtonPolygon
from .groups import GroupSpec
from .hermitian import HermitianQuotient
from .witt import WittElem, WittRing, witt_ring

__version__ = "0.1.0"

__all__ = [
    "CountReport",
    "CosetSpace",
    "DieudonneModule",
    "GroupRepresentation",
    "GroupSpec",
    "HermitianQuotient",
    "HodgePolygon",
    "NewtonPolygon",
    "SignatureParams",
    "WittElem",
    "WittRing",
    "witt_ring",
    "__version__",
]
