"""Sphere-plate Casimir force gradient from the plate-plate pressure.

The proximity-force result -2 pi R P(a) is corrected by the first-order
aspect term beta(a, R) a / R and by the second-order rms roughness factor
1 + 10 (ds^2 + dp^2) / a^2.  Pressure is negative for attraction; the
gradient reported here is the positive plotted quantity (attractive force
gradient > 0), i.e. the sign flip lives entirely in the -2 pi R prefactor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import ValidityDomainError
from .lifshitz import MatsubaraCache, casimir_pressure
from .optics import PermittivityModel

__all__ = [
    "Geometry",
    "BetaTable",
    "ForceGradient",
    "GradientSweep",
    "force_gradient",
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

    def source(self) -> str:
        return "zero" if not (self.drude or self.plasma) else "knots"


@lru_cache(maxsize=16)
def _pchip_for(knots):
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

    @property
    def magnitude(self) -> float:
        return abs(self.value)


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
    model_label: str
    geometry: Geometry
    beta_source: str

    def to_text(self) -> str:
        g = self.geometry
        lines = [
            "# sphere-plate Casimir force-gradient sweep",
            f"# model = {self.model_label}",
            f"# R_um = {g.R * 1e6:.6g}",
            f"# delta_s_nm = {g.delta_s * 1e9:.6g}",
            f"# delta_p_nm = {g.delta_p * 1e9:.6g}",
            f"# temperature_K = {g.temperature:.6g}",
            f"# beta_source = {self.beta_source}",
            "# columns: a_nm  Fgrad_uN_per_m  P_Pa  trunc_uN_per_m  beta_clamped",
        ]
        for i, a in enumerate(self.separations):
            lines.append(
                f"{a * 1e9:.3f}  {self.values[i] * 1e6:.9e}  {self.pressures[i]:.9e}  "
                f"{self.truncation_estimates[i] * 1e6:.3e}  {int(self.beta_clamped[i])}"
            )
        return "\n".join(lines) + "\n"


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
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValidityDomainError("empty separation grid")
    if np.any(np.diff(grid) <= 0):
        raise ValidityDomainError("separation grid must be strictly increasing")
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
        model_label=model.label(),
        geometry=geometry,
        beta_source=beta.source(),
    )
