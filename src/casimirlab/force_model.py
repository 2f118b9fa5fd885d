"""Sphere-plate Casimir force gradient from the plate-plate pressure.

The proximity-force result -2 pi R P(a) is corrected by the first-order
aspect term beta(a, R) a / R and by the second-order rms roughness factor
1 + 10 (ds^2 + dp^2) / a^2.  Pressure is negative for attraction; the
gradient reported here is the positive plotted quantity (attractive force
gradient > 0), i.e. the sign flip lives entirely in the -2 pi R prefactor.

pressure_to_gradient_sweep evaluates the thermal sum at every grid point;
gradient_curve interpolates P(a) a^4, which is analytic in ln a, with
chebyshev.Interpolant, the rule the gamma/C table of the calibration
follows too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import Interpolant
from .errors import ValidityDomainError
from .lifshitz import MatsubaraCache, casimir_pressure
from .optics import PermittivityModel

__all__ = [
    "Geometry",
    "BetaTable",
    "ForceGradient",
    "GradientSweep",
    "force_gradient",
    "gradient_curve",
    "pressure_to_gradient_sweep",
]


@dataclass(frozen=True)
class Geometry:
    """Sphere-plate geometry and environment.

    max_aspect bounds a/R for the first-order-corrected proximity formula;
    a_min/a_max bound the separation range the formula is applied over.
    Both are overridable for campaigns probing the edges of that domain.
    """

    R: float                      # sphere radius, m
    delta_s: float = 0.0          # sphere rms roughness, m
    delta_p: float = 0.0          # plate rms roughness, m
    temperature: float = 293.15   # K
    max_aspect: float = 0.022
    a_min: float = 250e-9
    a_max: float = 2e-6

    def __post_init__(self):
        if not self.R > 0:
            raise ValidityDomainError(f"sphere radius must be positive, got {self.R}")
        if self.delta_s < 0 or self.delta_p < 0:
            raise ValidityDomainError("rms roughness must be >= 0")
        if not self.temperature > 0:
            raise ValidityDomainError("temperature must be positive")

    def roughness_factor(self, a: float) -> float:
        """1 + 10 (delta_s^2 + delta_p^2) / a^2."""
        return 1.0 + 10.0 * (self.delta_s**2 + self.delta_p**2) / (a * a)

    def check_separation(self, a: float) -> None:
        if not (self.a_min <= a <= self.a_max):
            raise ValidityDomainError(
                f"separation {a * 1e9:.1f} nm outside [{self.a_min * 1e9:.0f}, "
                f"{self.a_max * 1e9:.0f}] nm"
            )
        if a / self.R >= self.max_aspect:
            raise ValidityDomainError(
                f"a/R = {a / self.R:.4f} >= {self.max_aspect} invalidates the "
                "first-order proximity correction"
            )


@dataclass(frozen=True)
class BetaTable:
    """First-order proximity-correction knots (a, beta) per response tag.

    Empty knot tuples mean beta = 0.  Evaluation uses monotone piecewise
    cubic interpolation, clamped to the knot range; a clamped evaluation is
    flagged to the caller.
    """

    drude: tuple[tuple[float, float], ...] = ()
    plasma: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        for knots in (self.drude, self.plasma):
            a_vals = [k[0] for k in knots]
            if any(b <= a for a, b in zip(a_vals, a_vals[1:])):
                raise ValidityDomainError("beta knots must be sorted by separation")

    def beta(self, tag: str, a: float) -> tuple[float, bool]:
        """Return (beta(a), clamped) for the given response tag."""
        knots = getattr(self, tag, ())
        if not knots:
            return 0.0, False
        if len(knots) == 1:
            return knots[0][1], a != knots[0][0]
        a_lo, a_hi = knots[0][0], knots[-1][0]
        clamped = not (a_lo <= a <= a_hi)
        interp = _pchip_for(knots)
        return float(interp(min(max(a, a_lo), a_hi))), clamped


@lru_cache(maxsize=16)
def _pchip_for(knots):
    from scipy.interpolate import PchipInterpolator

    xs = np.array([k[0] for k in knots])
    ys = np.array([k[1] for k in knots])
    return PchipInterpolator(xs, ys)


@dataclass
class ForceGradient:
    """Force-gradient value at one separation.

    value is the plotted channel in N/m (positive = attractive); pressure
    is the underlying signed plate-plate pressure in Pa (negative).  The
    thermal-sum truncation bound is given for both: in N/m for the value,
    in Pa for the pressure.
    """

    value: float
    pressure: float
    beta_value: float
    roughness_factor: float
    beta_clamped: bool
    truncation_error_estimate: float
    pressure_truncation: float


def force_gradient(
    model: PermittivityModel,
    geometry: Geometry,
    beta: BetaTable,
    a: float,
    tol: float = 1e-9,
    cache: MatsubaraCache | None = None,
) -> ForceGradient:
    """Sphere-plate force gradient -2 pi R [1 + beta a/R] [roughness] P(a).

    Parameters
    ----------
    model : PermittivityModel
        Metal response with a declared zero-frequency tag.
    geometry : Geometry
        Sphere radius, roughness and temperature; also the validity bounds.
    beta : BetaTable
        First-order proximity correction; an empty table means beta = 0.
    a : float
        Absolute sphere-plate separation in m.
    """
    geometry.check_separation(a)
    res = casimir_pressure(model, a, geometry.temperature, tol, cache=cache)
    b, clamped = beta.beta(model.zero_tag, a)
    rough = geometry.roughness_factor(a)
    value = -2.0 * np.pi * geometry.R * (1.0 + b * a / geometry.R) * rough * res.pressure
    return ForceGradient(
        value=float(value),
        pressure=res.pressure,
        beta_value=b,
        roughness_factor=rough,
        beta_clamped=clamped,
        truncation_error_estimate=2.0 * np.pi * geometry.R * rough * res.truncation_error_estimate,
        pressure_truncation=res.truncation_error_estimate,
    )


@dataclass
class GradientSweep:
    """Force-gradient sweep over a separation grid."""

    separations: np.ndarray       # m, sorted
    values: np.ndarray            # N/m, positive = attractive
    pressures: np.ndarray         # Pa
    truncation_estimates: np.ndarray  # N/m
    pressure_truncations: np.ndarray  # Pa
    beta_clamped: np.ndarray      # bool per row


def pressure_to_gradient_sweep(
    model: PermittivityModel,
    geometry: Geometry,
    beta: BetaTable,
    grid,
    tol: float = 1e-9,
) -> GradientSweep:
    """Vectorised force_gradient over a sorted separation grid.

    Matsubara permittivity evaluations are shared across separations
    through a single cache.
    """
    grid = _checked_grid(grid)
    cache = MatsubaraCache(model, geometry.temperature)
    values = np.empty_like(grid)
    pressures = np.empty_like(grid)
    trunc = np.empty_like(grid)
    p_trunc = np.empty_like(grid)
    clamped = np.zeros(grid.size, dtype=bool)
    for i, a in enumerate(grid):
        fg = force_gradient(model, geometry, beta, float(a), tol, cache=cache)
        values[i] = fg.value
        pressures[i] = fg.pressure
        trunc[i] = fg.truncation_error_estimate
        p_trunc[i] = fg.pressure_truncation
        clamped[i] = fg.beta_clamped
    return GradientSweep(
        separations=grid,
        values=values,
        pressures=pressures,
        truncation_estimates=trunc,
        pressure_truncations=p_trunc,
        beta_clamped=clamped,
    )


def _checked_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValidityDomainError("empty separation grid")
    if np.any(np.diff(grid) <= 0):
        raise ValidityDomainError("separation grid must be strictly increasing")
    return grid


def gradient_curve(
    model: PermittivityModel,
    geometry: Geometry,
    beta: BetaTable,
    grid,
    tol: float = 1e-9,
) -> GradientSweep:
    """pressure_to_gradient_sweep interpolated from Chebyshev nodes.

    P(a) a^4 is a chebyshev.Interpolant over [grid[0], grid[-1]], accepted
    at tol, with casimir_pressure at its nodes; beta and the roughness
    factor are applied per point afterwards.  Each point's pressure
    truncation is sum_i |l_i(a)| trunc_i a_i^4 / a^4 + |p_n - p_2n| / a^4,
    with l_i the Lagrange basis of the 2n + 1 nodes: the node truncations
    carried through the interpolation (at most the Lebesgue constant,
    < 3.3 for 2n = 32, times the largest) plus the interpolation error
    estimate, plus a rounding allowance of the interpolation.  The gradient
    truncation is that times 2 pi R times the roughness factor.  A one-point
    grid is the per-point sweep.
    """
    grid = _checked_grid(grid)
    if grid.size == 1:
        return pressure_to_gradient_sweep(model, geometry, beta, grid, tol)
    geometry.check_separation(float(grid[0]))
    geometry.check_separation(float(grid[-1]))
    cache = MatsubaraCache(model, geometry.temperature)
    node_truncs = {}

    def evaluate(a):
        res = [casimir_pressure(model, float(s), geometry.temperature, tol, cache=cache)
               for s in a]
        node_truncs.update(zip(a, np.array([r.truncation_error_estimate for r in res]) * a**4))
        return (np.array([r.pressure for r in res]) * a**4)[None]

    curve = Interpolant(grid[0], grid[-1], evaluate, tol,
                        f"P a^4 over [{grid[0] * 1e9:.3f}, {grid[-1] * 1e9:.3f}] nm")
    trunc = np.array([node_truncs[s] for s in curve.separations])
    (p_fine,), (p_coarse,) = curve(grid), curve(grid, coarse=True)
    # node truncations through the basis, the n-against-2n gap, and the
    # rounding of the barycentric formula, (3 m + 4) u sum_i |l_i f_i|
    # (N. J. Higham, IMA J. Numer. Anal. 24, 547 (2004))
    abs_basis = np.abs(curve.basis(grid))
    rounding = ((3 * (curve.nodes.size - 1) + 4) * np.finfo(float).eps
                * (abs_basis @ np.abs(curve.values[0])))
    p_trunc = (abs_basis @ trunc + np.abs(p_coarse - p_fine) + rounding) / grid**4
    pressures = p_fine / grid**4

    b, clamped = map(np.array, zip(*(beta.beta(model.zero_tag, float(a)) for a in grid)))
    rough = geometry.roughness_factor(grid)
    values = -2.0 * np.pi * geometry.R * (1.0 + b * grid / geometry.R) * rough * pressures
    return GradientSweep(
        separations=grid,
        values=values,
        pressures=pressures,
        truncation_estimates=2.0 * np.pi * geometry.R * rough * p_trunc,
        pressure_truncations=p_trunc,
        beta_clamped=clamped,
    )
