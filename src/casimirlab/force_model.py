"""Sphere-plate Casimir force gradient from the plate-plate pressure.

The proximity-force approximation, with the second-order rms roughness
factor, gives F'(a) = -2 pi R [1 + 10 (ds^2 + dp^2) / a^2] P(a).
Geometry owns the domain where it is applied, a >= a_min with a/R below
max_aspect (0.022 by default, 0.0306 for set 4): contains and check_separation
are the one statement of it.  The curvature correction 1 + beta a/R
of the derivative expansion (G. Bimonte, T. Emig and M. Kardar, Appl. Phys.
Lett. 100, 074110 (2012); L. P. Teo, Phys. Rev. D 88, 045019 (2013)) is
left out: it would be a 1-2 % change at a/R <= 0.025, shared by the
synthesis and by compare, so the compared differences would only scale by it.

Pressure is negative for attraction; the gradient reported here is the
positive plotted quantity (attractive force gradient > 0), i.e. the sign
flip lives entirely in the -2 pi R prefactor.

The package computes its gradients with gradient_sweeps, which gives the
sweeps of several models from the arrays of one lifshitz.pressure_sweep
batch, with _proximity applied over the whole grid, and with gradient_curve,
which interpolates P(a) a^4, analytic in ln a, with chebyshev.Interpolant
and reads it through the same barycentric sums as the gamma/C table of the
calibration; it returns F' only, the one array its callers read.
pressure_to_gradient_sweep, one force_gradient per grid point, is the
per-point oracle that gradient_sweeps equals bit for bit; nothing in the
package calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import Interpolant
from .errors import ValidityDomainError
from .lifshitz import MatsubaraCache, casimir_pressure, pressure_sweep
from .optics import PermittivityModel

__all__ = [
    "Geometry",
    "BetaTable",
    "ForceGradient",
    "GradientSweep",
    "force_gradient",
    "gradient_curve",
    "gradient_sweeps",
    "pressure_to_gradient_sweep",
]


@dataclass(frozen=True)
class Geometry:
    """Sphere-plate geometry and environment.

    The separations it admits are a >= a_min with a/R < max_aspect, the
    proximity-force bound (0.022 by default, 0.0306 for set 4); both are
    overridable for campaigns probing the edges of that domain.  Every field
    must be finite; a refused one raises ValidityDomainError naming it.
    """

    R: float                      # sphere radius, m
    delta_s: float = 0.0          # sphere rms roughness, m
    delta_p: float = 0.0          # plate rms roughness, m
    temperature: float = 293.15   # K
    max_aspect: float = 0.022
    a_min: float = 250e-9

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValidityDomainError(f"{name} must be finite, got {value}", field=name)
        if not self.R > 0:
            raise ValidityDomainError(f"sphere radius must be positive, got {self.R}", field="R")
        for name in ("delta_s", "delta_p"):
            if getattr(self, name) < 0:
                raise ValidityDomainError("rms roughness must be >= 0", field=name)
        for name in ("temperature", "a_min", "max_aspect"):
            if not getattr(self, name) > 0:
                raise ValidityDomainError(f"{name} must be positive", field=name)

    def roughness_factor(self, a: float) -> float:
        """1 + 10 (delta_s^2 + delta_p^2) / a^2."""
        return 1.0 + 10.0 * (self.delta_s**2 + self.delta_p**2) / (a * a)

    def contains(self, a):
        """a_min <= a and a/R < max_aspect: plain arithmetic for floats and arrays alike."""
        return (self.a_min <= a) & (a / self.R < self.max_aspect)

    def check_separation(self, a: float) -> None:
        """ValidityDomainError naming a and the bound it fails, unless contains(a)."""
        if not self.contains(a):
            raise ValidityDomainError(
                f"separation {a * 1e9:.1f} nm below a_min = {self.a_min * 1e9:g} nm"
                if not self.a_min <= a else f"a/R = {a / self.R:.4f} >= {self.max_aspect} "
                "invalidates the proximity-force approximation")


@dataclass(frozen=True)
class BetaTable:
    """Placeholder for the curvature correction beta, which is left out (see
    the module docstring); it carries nothing."""


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
    truncation_error_estimate: float
    pressure_truncation: float


def force_gradient(
    model: PermittivityModel,
    geometry: Geometry,
    beta: BetaTable,
    a: float,
    tol: float,
    cache: MatsubaraCache | None = None,
) -> ForceGradient:
    """Sphere-plate force gradient -2 pi R [roughness] P(a) (_proximity).

    Parameters
    ----------
    model : PermittivityModel
        Metal response with a declared zero-frequency tag.
    geometry : Geometry
        Sphere radius, roughness and temperature; also the validity bounds.
    beta : BetaTable
        Placeholder; carries nothing.
    a : float
        Absolute sphere-plate separation in m.
    """
    geometry.check_separation(a)
    res = casimir_pressure(model, a, geometry.temperature, tol, cache=cache)
    scale = _proximity(geometry, a)
    return ForceGradient(
        value=float(scale * res.pressure),
        pressure=res.pressure,
        truncation_error_estimate=-scale * res.truncation_error_estimate,
        pressure_truncation=res.truncation_error_estimate,
    )


def _proximity(geometry: Geometry, a):
    """The proximity factor -2 pi R [roughness]: F' is it times P, and the
    gradient's truncation minus it times P's.  Plain arithmetic for floats
    and arrays alike."""
    return -2.0 * np.pi * geometry.R * geometry.roughness_factor(a)


@dataclass
class GradientSweep:
    """Force-gradient sweep over a separation grid."""

    separations: np.ndarray       # m, sorted
    values: np.ndarray            # N/m, positive = attractive
    pressures: np.ndarray         # Pa
    truncation_estimates: np.ndarray  # N/m
    pressure_truncations: np.ndarray  # Pa


def pressure_to_gradient_sweep(
    model: PermittivityModel,
    geometry: Geometry,
    beta: BetaTable,
    grid,
    tol: float = 1e-9,
) -> GradientSweep:
    """force_gradient at every point of a sorted separation grid, one call per
    point: the per-point oracle that gradient_sweeps is checked against.

    Every grid point is checked against the geometry first; then the
    thermal sums are computed as one batch per sweep, in the sweep's
    lifshitz.MatsubaraCache: the first grid point's pressure computes every
    point's.  beta carries nothing.
    """
    grid = _checked_grid(grid, geometry)
    cache = MatsubaraCache(model, geometry.temperature, grid)
    # ForceGradient's fields are GradientSweep's after separations, in order
    points = [vars(force_gradient(model, geometry, beta, a, tol, cache=cache)).values()
              for a in grid.tolist()]
    return GradientSweep(grid, *map(np.array, zip(*points)))


def gradient_sweeps(models, geometry: Geometry, grid, tol: float) -> list[GradientSweep]:
    """pressure_to_gradient_sweep of each of models, bit for bit, from one batch.

    The grid is checked against the geometry once; one
    lifshitz.pressure_sweep computes every model's thermal sums, and
    _proximity turns each model's pressure and truncation arrays into
    gradients over the whole grid, with no per-point call in between.
    """
    grid = _checked_grid(grid, geometry)
    scale = _proximity(geometry, grid)
    batch = pressure_sweep(list(models), grid, geometry.temperature, tol)
    return [GradientSweep(separations=grid, values=scale * pressures, pressures=pressures,
                          truncation_estimates=-scale * p_trunc, pressure_truncations=p_trunc)
            for pressures, p_trunc in batch]


def _checked_grid(grid, geometry: Geometry) -> np.ndarray:
    """grid as a float array; an empty or unsorted grid raises, and so does
    its first point outside the geometry's domain (check_separation)."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValidityDomainError("empty separation grid")
    if np.any(np.diff(grid) <= 0):
        raise ValidityDomainError("separation grid must be strictly increasing")
    inside = geometry.contains(grid)
    if not inside.all():
        geometry.check_separation(float(grid[inside.argmin()]))
    return grid


def gradient_curve(
    model: PermittivityModel,
    geometry: Geometry,
    grid,
    tol: float = 1e-9,
) -> np.ndarray:
    """F' of one model on grid (N/m), interpolated from Chebyshev nodes.

    P(a) a^4 is a chebyshev.Interpolant over [grid[0], grid[-1]], accepted
    at tol, with pressure_sweep at its nodes; its barycentric read at the
    grid, divided by a^4, times _proximity's -2 pi R [roughness] is F'.  A
    one-point grid is that point's gradient_sweeps values.
    """
    grid = _checked_grid(grid, geometry)
    if grid.size == 1:
        return gradient_sweeps([model], geometry, grid, tol)[0].values

    def evaluate(a):
        return (pressure_sweep(model, a, geometry.temperature, tol)[0] * a**4)[None]

    curve = Interpolant(grid[0], grid[-1], evaluate, tol,
                        f"P a^4 over [{grid[0] * 1e9:.3f}, {grid[-1] * 1e9:.3f}] nm")
    return _proximity(geometry, grid) * (curve(grid)[0] / grid**4)
