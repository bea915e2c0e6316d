"""Toolkit for layered sparse random codes: ensembles, thresholds,
Fourier containment bounds, and distance certificates over F_q."""

from .gf import Field, field_new
from .errors import (
    LdpcLabError,
    NumericError,
    PreconditionError,
    ResourceGuardError,
)

__all__ = [
    "Field",
    "field_new",
    "LdpcLabError",
    "PreconditionError",
    "ResourceGuardError",
    "NumericError",
]

__version__ = "0.1.0"
