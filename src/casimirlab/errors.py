"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CasimirLabError(Exception):
    """Base class for all package-specific errors.

    field, when given, names the dataclass field whose value was refused.
    """

    def __init__(self, *args, field: str | None = None):
        super().__init__(*args)
        self.field = field


class ModelError(CasimirLabError):
    """Invalid or inconsistent response-model definition."""


class DivergentAtZeroError(ModelError):
    """Permittivity diverges at zero frequency; use the zero-term path."""


class AmbiguousZeroTermError(ModelError):
    """Model carries no zero-frequency extrapolation tag."""


class ValidityDomainError(CasimirLabError):
    """Requested evaluation point lies outside a formula's validity domain."""


class PrecisionError(CasimirLabError):
    """Inputs would lose all significant digits in double precision."""


class NumericsError(CasimirLabError):
    """Quadrature or series evaluation failed to converge."""


class DegenerateFitError(CasimirLabError):
    """A fit produced a physically impossible shape (e.g. repulsive parabola)."""


class FitConvergenceError(CasimirLabError):
    """Nonlinear least squares did not converge within iteration bounds."""


class GridAlignmentError(CasimirLabError):
    """Two data series do not share the same separation grid."""


class ConfigError(CasimirLabError):
    """Malformed configuration file or invalid option value."""
