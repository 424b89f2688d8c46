"""Exact K-theoretic Schubert calculus on flag varieties.

The engine computes, over arbitrary-precision integers and without any
floating point, the Schubert-structure-sheaf basis of the Grothendieck
ring of G/P, its three companion bases, structure constants and
line-bundle restriction coefficients, together with verification sweeps
for the sign and positivity identities these objects satisfy.

``LaurentPoly``, the weight-lattice ring, ``UniPoly``, the one-variable
ring, and ``EquivClass`` and ``ExpansionResult`` of ``kflag.tables`` are
imported on first use (a module ``__getattr__``).  So a process that runs
only the integer commands, as ``python -m kflag`` does, never loads
``kflag.laurent``, and of those commands only ``verify`` and a cache
store load ``kflag.univariate`` and ``kflag.tables``.
"""

from .errors import (
    BoundExceededError,
    ConfigError,
    IntegrityError,
    KflagError,
    NonzeroResidualError,
    NotDivisibleError,
    PoleAtOneError,
)
from .model import SchubertModel
from .ring import KClass, LineReport, SchubertRing, SignReport
from .roots import (
    ParabolicData,
    RootDatum,
    WeylElement,
    WeylGroup,
    build_root_datum,
    root_datum_from_cartan,
    weyl_dimension,
)

__all__ = [
    "BoundExceededError",
    "ConfigError",
    "EquivClass",
    "ExpansionResult",
    "IntegrityError",
    "KClass",
    "KflagError",
    "LaurentPoly",
    "LineReport",
    "NonzeroResidualError",
    "NotDivisibleError",
    "ParabolicData",
    "PoleAtOneError",
    "RootDatum",
    "SchubertModel",
    "SchubertRing",
    "SignReport",
    "UniPoly",
    "WeylElement",
    "WeylGroup",
    "build_root_datum",
    "root_datum_from_cartan",
    "weyl_dimension",
]

__version__ = "0.37.0"


def __getattr__(name: str):
    if name == "LaurentPoly":
        from .laurent import LaurentPoly

        return LaurentPoly
    if name == "UniPoly":
        from .univariate import UniPoly

        return UniPoly
    if name in ("EquivClass", "ExpansionResult"):
        from . import tables

        return getattr(tables, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
