"""Calibration constant and the exact sphere-plate electrostatic coefficient.

In the linear regime the frequency shift of the oscillating cantilever is
delta_omega = -gamma(a) (V - V0)^2 - C F'(a) with C = omega_0 / (2 k);
vexp.synthesize_campaign writes that law and analysis.extract_gradients
inverts it.  The coefficient gamma follows from the exact image-charge
series for the sphere-plate capacitance, parameterised by
cosh(kappa) = 1 + a/R.

gamma_over_c sums that series directly.  GammaTable interpolates a^2
gamma/C, which is analytic in ln a, with chebyshev.Interpolant, the rule
the theory curves follow too: the calibration fit and the gradient
extraction evaluate gamma/C at hundreds of separations some twenty times
per set, so they build one table and run the series only at its nodes.
The synthetic truth (vexp) keeps the direct series, so the fit is checked
against an independent evaluation.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .constants import EPSILON_0
from .chebyshev import Interpolant
from .errors import NumericsError, PrecisionError

__all__ = [
    "GammaTable",
    "calibration_constant",
    "gamma_coefficient",
    "gamma_over_c",
]


def calibration_constant(k: float, omega0: float) -> float:
    """Force-gradient-to-frequency-shift constant omega_0 / (2 k) in s/kg."""
    if not k > 0:
        raise ValueError(f"spring constant must be positive, got {k}")
    if not omega0 > 0:
        raise ValueError(f"resonant frequency must be positive, got {omega0}")
    return omega0 / (2.0 * k)


# n-blocks keep their temporaries cache-resident, and never above 512 x points
_BLOCK_ELEMENTS = 1 << 15
_MAX_TERMS = 1 << 22


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
    The search gallops from m = N + 1 solving 2 m^2 q^m = floor (1 - q) at
    each kappa; K >= 2 and r > q place that start at or below the answer,
    within 2 on the calibration grids.
    """
    floor = tol * _terms(np.maximum(2.0, np.round(2.0 / kappas)), kappas)[0]

    def enough(n):
        coth_u, csch_u = _coth_csch(n * kappas)
        r = ((n + 2.0) / (n + 1.0)) ** 2 * np.exp(-kappas)
        tail = (2.0 * (coth_u**2 + csch_u**2) / -np.expm1(-2.0 * n * kappas)
                * np.exp(2.0 * math.log(n + 1.0) - (n + 1.0) * kappas))
        return bool(np.all((r < 1.0) & (tail <= floor * (1.0 - r))))

    target = floor * -np.expm1(-kappas)
    start = _MAX_TERMS
    if np.all(target > 0.0):
        # m = (ln 2 + 2 ln m - ln target) / k contracts by 2 / (m k) < 1 on
        # the falling branch m > 2 / k; three steps from below settle it
        rhs = math.log(2.0) - np.log(target)
        m = np.maximum(rhs, 2.0) / kappas
        for _ in range(3):
            m = np.maximum(rhs + 2.0 * np.log(m), 2.0) / kappas
        start = int(min(_MAX_TERMS, max(1.0, math.ceil(float(m.max())) - 1)))
    step = 1
    if enough(start):
        hi, lo = start, start - 1
        while lo > 0 and enough(lo):
            hi, step = lo, 2 * step
            lo = max(0, hi - step)
    else:
        lo = start
        while True:
            if lo >= _MAX_TERMS:
                raise NumericsError(
                    f"electrostatic image series needs more than {_MAX_TERMS} terms")
            hi = min(lo + step, _MAX_TERMS)
            if enough(hi):
                break
            lo, step = hi, 2 * step
    return lo + 1 + bisect.bisect_left(range(lo + 1, hi), True, key=enough)


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


class GammaTable:
    """gamma / C and its slope over [lo, hi], interpolated from the image series.

    A chebyshev.Interpolant of a^2 gamma/C and a^3 (d gamma/da)/C, accepted
    at tol relative for values and slopes alike, from gamma_over_c(...,
    slope=True) at its nodes.  The series runs at tol / 1000, so that
    neither the node errors carried through the interpolation nor the slope
    series, whose terms fall off one power of n slower, come near tol.
    """

    def __init__(self, lo: float, hi: float, R: float, tol: float = 1e-10):
        def evaluate(a):
            g, dg = gamma_over_c(a, R, 1e-3 * tol, slope=True)
            return np.array([a * a * g, a**3 * dg])

        self._curve = Interpolant(lo, hi, evaluate, tol,
                                  f"a^2 gamma/C over [{lo * 1e9:.3f}, {hi * 1e9:.3f}] nm")

    def __call__(self, a, slope: bool = False):
        """gamma / C at the separations a, and with slope=True its derivative in a."""
        a = np.asarray(a, dtype=float)
        g, dg = self._curve(a)
        return (g / (a * a), dg / a**3) if slope else g / (a * a)


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

