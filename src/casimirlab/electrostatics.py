"""Cantilever mechanics and the exact sphere-plate electrostatic response.

The frequency shift of the oscillating cantilever in the linear regime is
delta_omega = -gamma(a) (V - V0)^2 - C F'(a) with C = omega_0 / (2 k); the
electrostatic coefficient gamma follows from the exact image-charge series
for the sphere-plate capacitance, parameterised by cosh(kappa) = 1 + a/R.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .constants import EPSILON_0
from .errors import ModelError, NumericsError, PrecisionError, ValidityDomainError

__all__ = [
    "CantileverSpec",
    "FrequencyShiftModel",
    "spring_constant",
    "calibration_constant",
    "amplitude_limit",
    "gamma_coefficient",
    "gamma_over_c",
    "frequency_shift",
]


def spring_constant(width: float, thickness: float, length: float, youngs_modulus: float) -> float:
    """Rectangular-beam spring constant w v^3 Y / (4 L^3) in N/m."""
    for name, val in (("width", width), ("thickness", thickness),
                      ("length", length), ("youngs_modulus", youngs_modulus)):
        if not val > 0:
            raise ValueError(f"{name} must be positive, got {val}")
    return width * thickness**3 * youngs_modulus / (4.0 * length**3)


def calibration_constant(k: float, omega0: float) -> float:
    """Force-gradient-to-frequency-shift constant omega_0 / (2 k) in s/kg."""
    if not k > 0:
        raise ValueError(f"spring constant must be positive, got {k}")
    if not omega0 > 0:
        raise ValueError(f"resonant frequency must be positive, got {omega0}")
    return omega0 / (2.0 * k)


@dataclass(frozen=True)
class CantileverSpec:
    """Cantilever beam parameters; dimensions optional when k is measured."""

    k: float                    # N/m
    omega0: float               # rad/s
    width: float | None = None
    thickness: float | None = None
    length: float | None = None
    youngs_modulus: float | None = None

    def __post_init__(self):
        if not self.k > 0 or not self.omega0 > 0:
            raise ModelError("k and omega0 must be positive")
        dims = (self.width, self.thickness, self.length, self.youngs_modulus)
        if all(d is not None for d in dims):
            k_beam = spring_constant(*dims)
            if abs(k_beam - self.k) > 0.01 * self.k:
                raise ModelError(
                    f"beam dimensions give k = {k_beam:.4g} N/m, inconsistent "
                    f"with stated k = {self.k:.4g} N/m beyond 1%"
                )

    @property
    def calibration(self) -> float:
        return calibration_constant(self.k, self.omega0)


def amplitude_limit(closest_approach: float) -> float:
    """Largest oscillation amplitude keeping the shift linear, by regime.

    20 nm is safe when the closest approach stays above 600 nm, 10 nm above
    250 nm; smaller approaches are outside the validated linear regime.
    """
    if closest_approach >= 600e-9:
        return 20e-9
    if closest_approach >= 250e-9:
        return 10e-9
    raise ValidityDomainError(
        f"no validated linearity limit below 250 nm closest approach "
        f"(got {closest_approach * 1e9:.0f} nm)"
    )


@dataclass(frozen=True)
class FrequencyShiftModel:
    """Linear frequency-shift response with an amplitude validity guard."""

    calibration: float        # C = omega0/(2k), s/kg
    amplitude: float          # m
    linearity_limit: float    # m

    def __post_init__(self):
        if not self.calibration > 0:
            raise ModelError("calibration constant must be positive")
        if self.amplitude > self.linearity_limit:
            raise ValidityDomainError(
                f"amplitude {self.amplitude * 1e9:.1f} nm exceeds the linear-regime "
                f"limit {self.linearity_limit * 1e9:.1f} nm"
            )


# n-blocks keep their temporaries cache-resident, and never above 512 x points
_BLOCK_ELEMENTS = 1 << 15
_MAX_TERMS = 4_000_000


def _coth_csch(x):
    """coth(x) and csch(x) from exp(-x), free of overflow and cancellation."""
    em = np.exp(-x)
    d = -np.expm1(-2.0 * x)
    return (1.0 + em * em) / d, 2.0 * em / d


def _terms(n, kappa, slope=False):
    """Image-series terms t_n(kappa), and dt_n/dkappa with slope (else None).

    t_n = csch(n k) B_n, B_n = A (A - coth k) - csch^2 k + P, A = n coth(n k), P = (n csch(n k))^2;
    dt_n/dk = csch(n k) [P (coth k - 4 A) + csch^2 k (A + 2 coth k) - A B_n].
    Every t_n >= 0: it is proportional to the second a-derivative of
    sinh k / sinh(n k) = 1 / U_{n-1}(1 + a/R), which is convex for a > 0.
    """
    coth_k, csch_k = _coth_csch(kappa)
    coth_n, csch_n = _coth_csch(n * kappa)
    csch2_k = csch_k * csch_k
    a = n * coth_n
    p = (n * csch_n) ** 2
    b = a * (a - coth_k) - csch2_k + p
    if not slope:
        return csch_n * b, None
    return csch_n * b, csch_n * (p * (coth_k - 4.0 * a) + csch2_k * (a + 2.0 * coth_k) - a * b)


def _term_count(kappas: np.ndarray, tol: float) -> int:
    """Smallest N whose omitted tail sum_{n>N} t_n is below tol * S at every kappa.

    For n > N, t_n <= K n^2 q^n with q = e^{-k}, K = 2 (coth^2 + csch^2)(N k) / (1 - e^{-2 N k}),
    so with r = ((N+2)/(N+1))^2 q < 1 the tail is at most K (N+1)^2 q^{N+1} / (1 - r).
    S is at least its term at n = 2/k, where n^2 q^n peaks; the bound falls with N.
    """
    floor = tol * _terms(np.maximum(2.0, np.round(2.0 / kappas)), kappas)[0]

    def enough(n):
        coth_u, csch_u = _coth_csch(n * kappas)
        r = ((n + 2.0) / (n + 1.0)) ** 2 * np.exp(-kappas)
        tail = (2.0 * (coth_u**2 + csch_u**2) / -np.expm1(-2.0 * n * kappas)
                * np.exp(2.0 * math.log(n + 1.0) - (n + 1.0) * kappas))
        return bool(np.all((r < 1.0) & (tail <= floor * (1.0 - r))))

    hi = 2
    while not enough(hi):
        if hi > _MAX_TERMS:
            raise NumericsError("electrostatic image series needs more than 4e6 terms")
        hi *= 2
    return hi // 2 + bisect.bisect_left(range(hi // 2, hi + 1), True, key=enough)


def _kappa(a, R: float):
    """arccosh(1 + a/R) evaluated without cancellation for small a/R."""
    x = np.asarray(a, dtype=float) / R
    if np.any(x < 1e-9):
        raise PrecisionError(
            f"a/R = {np.min(x):.2e} < 1e-9 loses all digits in kappa; use the "
            "proximity asymptote C pi eps0 R / a^2 instead"
        )
    return np.log1p(x + np.sqrt(x * (x + 2.0)))


def gamma_over_c(a, R: float, tol: float = 1e-10, slope: bool = False):
    """gamma / C, i.e. the calibration-independent electrostatic coefficient.

    Vectorised over a; used directly by the calibration fit where C is a
    free linear parameter.  With slope=True returns (gamma / C, its
    derivative in a), both from the same series terms.
    """
    a_arr = np.atleast_1d(np.asarray(a, dtype=float))
    if not (np.all(a_arr > 0) and np.all(np.isfinite(a_arr))) or not R > 0:
        raise ValueError("a and R must be positive and finite")
    kappas = _kappa(a_arr, R)
    n_terms = _term_count(kappas, tol)
    cols = min(512, max(1, _BLOCK_ELEMENTS // kappas.size))
    s, ds = np.zeros_like(kappas), np.zeros_like(kappas)
    for n0 in range(1, n_terms + 1, cols):
        n = np.arange(n0, min(n0 + cols, n_terms + 1), dtype=float)
        t, dt = _terms(n, kappas[:, None], slope)
        s += t.sum(axis=1)
        if slope:
            ds += dt.sum(axis=1)
    root = np.sqrt(a_arr * (2.0 * R + a_arr))      # R sinh(kappa) = 1 / (dkappa/da)
    g = 2.0 * math.pi * EPSILON_0 / root * s
    scalar = np.ndim(a) == 0
    if not slope:
        return float(g[0]) if scalar else g
    dg = 2.0 * math.pi * EPSILON_0 / root**2 * (ds - s * (R + a_arr) / root)
    return (float(g[0]), float(dg[0])) if scalar else (g, dg)


def gamma_coefficient(a: float, R: float, c_cal: float, tol: float = 1e-10) -> float:
    """Electrostatic frequency-shift coefficient gamma in rad s^-1 V^-2.

    Evaluates the exact sphere-plate image series with
    cosh(kappa) = 1 + a/R over a term count whose omitted tail is bounded
    by tol relative to the sum.

    Parameters
    ----------
    a : float
        Absolute separation in m, > 0.
    R : float
        Sphere radius in m, > 0.
    c_cal : float
        Calibration constant omega_0/(2k) in s/kg.
    tol : float
        Relative bound on the omitted series tail.
    """
    return c_cal * gamma_over_c(a, R, tol)


def frequency_shift(a: float, v: float, v0: float, gamma_fn, fprime_fn, c_cal: float) -> float:
    """Linear-regime shift -gamma(a) (V - V0)^2 - C F'(a) in rad/s.

    gamma_fn and fprime_fn map separation to the electrostatic coefficient
    and the force gradient (positive = attractive).
    """
    dv = v - v0
    return -gamma_fn(a) * dv * dv - c_cal * fprime_fn(a)
