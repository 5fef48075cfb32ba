"""Exact symbolic toolkit for Peirce polynomials, spectra, symbols, and
fusion tables of commutative nonassociative algebra identities, with
cross-validation on concrete finite-dimensional algebras."""

# Each module's __all__ is its one list of public names; the package exports their union.
from . import algebras, identities, magma, peirce, poly
from .magma import *
from .poly import *
from .peirce import *
from .identities import *
from .algebras import *

__all__ = [*magma.__all__, *poly.__all__, *peirce.__all__, *identities.__all__, *algebras.__all__]
__version__ = "1.0.0"
