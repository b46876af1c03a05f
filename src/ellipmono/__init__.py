"""Certified enclosures and sign certificates around the complete
elliptic integral of the first kind: exact pi-polynomial coefficient
tables for the exponential series exp(K), interval evaluation of K and
related hypergeometric functionals, and grid/sequence certification of
the truncated logarithmic bounds they generate."""

from . import certify, coefficients, constants, elliptic, intervals, pi_expr
from .intervals import *
from .constants import *
from .pi_expr import *
from .coefficients import *
from .elliptic import *
from .certify import *

__version__ = "0.1.0"

__all__ = [*intervals.__all__, *constants.__all__, *pi_expr.__all__,
           *coefficients.__all__, *elliptic.__all__, *certify.__all__,
           "__version__"]
