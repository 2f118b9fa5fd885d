"""Dielectric response along the imaginary frequency axis.

Metal models evaluated at imaginary frequencies i*xi: the dissipative Drude
form, the dissipationless plasma form, and tabulated-absorption models
evaluated through the standard dispersion integral

    eps(i xi) = 1 + (2/pi) * int_0^inf  w Im eps(w) / (w^2 + xi^2) dw.

All model values are immutable; evaluation is a pure function of the model
and the frequency, so instances are safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ev_to_rad_per_s
from .errors import DivergentAtZeroError, ModelError

__all__ = [
    "DrudeParams",
    "OpticalTable",
    "PermittivityModel",
    "Drude",
    "Plasma",
    "Tabulated",
    "AU_DRUDE",
]


@dataclass(frozen=True)
class DrudeParams:
    """Free-electron response parameters, both energies in eV."""

    plasma_energy: float      # hbar * omega_p
    relaxation_energy: float  # hbar / tau; zero degenerates to the plasma form

    def __post_init__(self):
        if not self.plasma_energy > 0:
            raise ModelError(f"plasma energy must be positive, got {self.plasma_energy}")
        if self.relaxation_energy < 0:
            raise ModelError(f"relaxation energy must be >= 0, got {self.relaxation_energy}")

    @property
    def omega_p(self) -> float:
        """Plasma frequency in rad/s."""
        return ev_to_rad_per_s(self.plasma_energy)

    @property
    def relaxation_rate(self) -> float:
        """Relaxation rate 1/tau in rad/s."""
        return ev_to_rad_per_s(self.relaxation_energy)


@dataclass(frozen=True)
class OpticalTable:
    """Tabulated absorption Im eps(w) on a strictly increasing photon-energy grid (eV)."""

    photon_energies: tuple[float, ...]
    im_epsilon: tuple[float, ...]
    extrapolation: str          # 'drude' or 'plasma'
    drude: DrudeParams          # low-frequency parameters used by the extrapolation

    def __post_init__(self):
        if len(self.photon_energies) == 0:
            raise ModelError("empty optical table")
        if len(self.photon_energies) != len(self.im_epsilon):
            raise ModelError("optical table columns have unequal lengths")
        w = np.asarray(self.photon_energies, dtype=float)
        if w[0] <= 0 or np.any(np.diff(w) <= 0):
            raise ModelError("photon energies must be positive and strictly increasing")
        if np.any(np.asarray(self.im_epsilon, dtype=float) < 0):
            raise ModelError("Im eps must be >= 0 everywhere")
        if self.extrapolation not in ("drude", "plasma"):
            raise ModelError(f"unknown extrapolation tag {self.extrapolation!r}")


def _require_positive(xi, name):
    if np.any(xi <= 0):
        raise DivergentAtZeroError(
            f"{name} permittivity is defined for xi > 0 only; it diverges as xi -> 0")


class PermittivityModel:
    """Common interface: epsilon(xi) for xi > 0 plus a zero-frequency tag.

    The tag ('drude' or 'plasma') declares how the zero-frequency limit is
    taken; it is dispatched on explicitly and never inferred numerically.
    """

    zero_tag: str = ""

    def epsilon(self, xi):
        raise NotImplementedError

    @property
    def omega_p(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Drude(PermittivityModel):
    """Dissipative free-electron response 1 + wp^2 / (xi (xi + 1/tau))."""

    params: DrudeParams
    zero_tag = "drude"

    @property
    def omega_p(self) -> float:
        return self.params.omega_p

    def epsilon(self, xi):
        xi = np.asarray(xi, dtype=float)
        _require_positive(xi, "drude")
        g = self.params.relaxation_rate
        wp = self.params.omega_p
        eps = 1.0 + wp * wp / (xi * (xi + g))
        return float(eps) if eps.ndim == 0 else eps


@dataclass(frozen=True)
class Plasma(PermittivityModel):
    """Dissipationless free-electron response 1 + wp^2 / xi^2."""

    params: DrudeParams
    zero_tag = "plasma"

    @property
    def omega_p(self) -> float:
        return self.params.omega_p

    def epsilon(self, xi):
        xi = np.asarray(xi, dtype=float)
        _require_positive(xi, "plasma")
        wp = self.params.omega_p
        eps = 1.0 + (wp / xi) ** 2
        return float(eps) if eps.ndim == 0 else eps


@dataclass(frozen=True)
class Tabulated(PermittivityModel):
    """Permittivity from tabulated Im eps through the dispersion integral.

    The table covers [w_min, w_max]; below w_min the tagged low-frequency
    extrapolation contributes.  For the 'drude' tag that is the dispersion
    integral of the analytic Drude absorption over [0, w_min], in closed form; for the
    'plasma' tag the free-electron part enters in closed form as wp^2/xi^2
    (the table then holds only the bound-electron absorption).
    """

    table: OpticalTable

    @property
    def zero_tag(self) -> str:  # type: ignore[override]
        return self.table.extrapolation

    @property
    def omega_p(self) -> float:
        return self.table.drude.omega_p

    def epsilon(self, xi):
        xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
        _require_positive(xi_arr, "tabulated metal")
        eps = 1.0 + self._table_integral(xi_arr) + self._extrapolation_part(xi_arr)
        return float(eps[0]) if np.ndim(xi) == 0 else eps

    def _table_integral(self, xi):
        """Dispersion integral over the tabulated range.

        The table is interpreted as a piecewise-linear Im eps(w); each
        segment then integrates in closed form, which is exact for the
        interpolant (no quadrature error).

        Parameters
        ----------
        xi : ndarray
            Imaginary frequencies in rad/s, all positive.

        Returns
        -------
        ndarray
            (2/pi) * int_{w_min}^{w_max} w Im eps(w) / (w^2 + xi^2) dw.
        """
        w = ev_to_rad_per_s(np.asarray(self.table.photon_energies, dtype=float))
        y = np.asarray(self.table.im_epsilon, dtype=float)
        w1, w2 = w[:-1], w[1:]
        y1, y2 = y[:-1], y[1:]
        dw = w2 - w1
        b = (y2 - y1) / dw          # Im eps = a + b*w on each segment
        a = (y1 * w2 - y2 * w1) / dw

        x = xi[:, None]
        # int w(a + b w)/(w^2 + xi^2) dw
        #   = (a/2) ln(w^2 + xi^2) + b [w - xi arctan(w/xi)]
        log_part = np.log1p((w2 * w2 - w1 * w1) / (w1 * w1 + x * x))
        atan_part = np.arctan2(x * dw, x * x + w1 * w2)
        seg = 0.5 * a * log_part + b * (dw - x * atan_part)
        return (2.0 / math.pi) * seg.sum(axis=1)

    def _extrapolation_part(self, xi):
        if self.table.extrapolation == "plasma":
            return (self.table.drude.omega_p / xi) ** 2
        wp = self.table.drude.omega_p
        g = self.table.drude.relaxation_rate
        w_min = ev_to_rad_per_s(self.table.photon_energies[0])
        # (2/pi) int_0^W w ImepsD(w)/(w^2+xi^2) dw with ImepsD = wp^2 g / (w (w^2 + g^2))
        # and W = w_min is (2/pi) wp^2 g [atan(W/g)/g - atan(W/xi)/xi] / (xi^2 - g^2).
        # With atan(W/g) - atan(W/xi) = atan(u), u = W (xi - g) / d, d = g xi + W^2,
        # it becomes the form below, which does not cancel at xi = g.
        d = g * xi + w_min * w_min
        u = w_min * (xi - g) / d
        atan_u_over_u = np.divide(np.arctan(u), u, out=np.ones_like(u), where=u != 0.0)
        bracket = math.atan2(w_min, g) + g * w_min / d * atan_u_over_u
        return (2.0 / math.pi) * wp * wp * bracket / (xi * (xi + g))


# Default gold-like free-electron parameters, the standard compilation values.
# The bound (core) electrons are left out: the usual five-oscillator
# Lorentz-Drude set for Au would raise |P| at 250, 500, 950 and 1300 nm by
# 1.47, 0.37, 0.10 and 0.05 % (Drude) and 1.36, 0.32, 0.07 and 0.03 % (plasma).
AU_DRUDE = DrudeParams(plasma_energy=9.0, relaxation_energy=0.035)
