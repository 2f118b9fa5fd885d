"""Calibration and statistics pipeline for frequency-shift campaigns.

Per-separation parabola fits give V0(a) and gamma(a); the exact
electrostatic series fitted over (C, z0) calibrates the setup; force
gradients are then extracted channel by channel, averaged with a 67%
confidence budget, and compared against theory through the confidence-band
exclusion rule (an interval is excluded when more than 33% of the
difference points fall outside the band).

The fit and the extraction read gamma/C from one electrostatics.GammaTable
per fit range, built once per process (_gamma_table), so the image series
runs only at the table's nodes, and not at all for a set whose range an
earlier set already had.  The compared grid asks the Geometry which
separations it admits.  The 67% budget's Student t quantile comes from the
incomplete beta function, which keeps scipy out of the import.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import textio
# gamma_over_c is not called here; bench/tests/test_bench_tracing.py checks
# that the layer tracer rebinds it in this module too
from .electrostatics import GammaTable, gamma_over_c  # noqa: F401
from .errors import (
    ConfigError,
    DegenerateFitError,
    FitConvergenceError,
    GridAlignmentError,
    NumericsError,
    ValidityDomainError,
)
from .force_model import gradient_curve
from .vexp import MeasurementGrid, V0Law, grid_range, synthesize_campaign

__all__ = [
    "ParabolaSeries",
    "V0LineFit",
    "CalibrationResult",
    "GradientSeries",
    "TheoryErrorConfig",
    "WindowVerdict",
    "ComparisonReport",
    "fit_parabolas",
    "fit_v0_line",
    "CalibrationFit",
    "fit_calibration",
    "calibrate",
    "extract_gradients",
    "combine_gradient_series",
    "default_windows",
    "window_mask",
    "compare",
    "CompareSettings",
    "compare_series",
    "PipelineRun",
    "run_pipeline",
    "calibration_text",
    "comparison_text",
    "gradient_series_text",
    "load_gradient_series",
]


@dataclass
class ParabolaSeries:
    """Per-separation quadratic-fit results over the applied voltages."""

    z_rel: np.ndarray
    v0: np.ndarray            # V, apex abscissa
    sigma_v0: np.ndarray
    gamma: np.ndarray         # rad s^-1 V^-2, minus the quadratic coefficient
    sigma_gamma: np.ndarray


def fit_parabolas(grid: MeasurementGrid) -> ParabolaSeries:
    """Least-squares parabola in V at every separation.

    All 21 voltage channels (times repetitions) enter each fit; the eleven
    fixed-voltage channels are repeated abscissa points.  The quadratic
    coefficient must come out negative (attractive electrostatics); a
    non-negative one raises DegenerateFitError for that separation.
    """
    v = np.repeat(grid.voltages, grid.shifts.shape[1])
    if np.unique(v).size < 3:
        raise DegenerateFitError("need at least 3 distinct voltages per separation")
    y = grid.shifts.reshape(v.size, grid.z_rel.size)

    x = np.column_stack([v * v, v, np.ones_like(v)])
    xtx_inv = np.linalg.inv(x.T @ x)
    coef = xtx_inv @ (x.T @ y)
    resid = y - x @ coef
    dof = v.size - 3
    s2 = (resid * resid).sum(axis=0) / dof

    c2, c1, _c0 = coef
    bad = c2 >= 0
    if np.any(bad):
        a_bad = grid.z_rel[np.argmax(bad)]
        raise DegenerateFitError(
            f"non-negative quadratic coefficient at z_rel = {a_bad * 1e9:.1f} nm "
            "(repulsive parabola)"
        )

    var = np.outer(np.diag(xtx_inv), s2)      # diagonal elements per separation
    cov12 = xtx_inv[0, 1] * s2                # cov(c2, c1)
    gamma = -c2
    v0 = -c1 / (2.0 * c2)

    # delta-method propagation for v0 = -c1/(2 c2)
    dv0_dc1 = -1.0 / (2.0 * c2)
    dv0_dc2 = c1 / (2.0 * c2 * c2)
    var_v0 = (
        dv0_dc1 * dv0_dc1 * var[1]
        + dv0_dc2 * dv0_dc2 * var[0]
        + 2.0 * dv0_dc1 * dv0_dc2 * cov12
    )

    # sigma_gamma = |gamma row of (X^T X)^-1 X^T| max(s, 16 eps max|shift|): the
    # floor is the fit's rounding scale, so weights never come from rounding.  A
    # residual is a four-term inner product rounded within 4 eps of its terms,
    # which add to about 2 max|y|, so a noiseless s < 8 sqrt(n/(n-3)) eps max|y|
    # in any summation order; a power of two scales the floored weights exactly.
    floor = 16.0 * np.finfo(float).eps * np.abs(y).max(axis=0)
    return ParabolaSeries(
        z_rel=grid.z_rel.copy(),
        v0=v0,
        sigma_v0=np.sqrt(np.maximum(var_v0, 0.0)),
        gamma=gamma,
        sigma_gamma=np.sqrt(xtx_inv[0, 0] * np.maximum(s2, floor * floor)),
    )


@dataclass
class V0LineFit:
    """Straight-line residual potential V0 = K a + b over absolute separation."""

    law: V0Law
    mean_v0: float            # V, arithmetic mean of the V0 samples
    sigma_slope: float
    sigma_intercept: float


def fit_v0_line(abscissa, v0_values) -> V0LineFit:
    """Ordinary least squares of V0 against separation."""
    a = np.asarray(abscissa, dtype=float)
    v0 = np.asarray(v0_values, dtype=float)
    if a.size < 2:
        raise DegenerateFitError("V0 line fit needs at least 2 separations")
    x = np.column_stack([a, np.ones_like(a)])
    coef, *_ = np.linalg.lstsq(x, v0, rcond=None)
    resid = v0 - x @ coef
    dof = max(a.size - 2, 1)
    s2 = float(resid @ resid) / dof
    cov = np.linalg.inv(x.T @ x) * s2
    return V0LineFit(
        law=V0Law(slope=float(coef[0]), intercept=float(coef[1])),
        mean_v0=float(v0.mean()),
        sigma_slope=math.sqrt(max(cov[0, 0], 0.0)),
        sigma_intercept=math.sqrt(max(cov[1, 1], 0.0)),
    )


@dataclass
class WindowFit:
    """Calibration refit restricted to one contiguous separation window."""

    z_rel_lo: float
    z_rel_hi: float
    c_cal: float
    z0: float


_Z0_RTOL = 1e-10      # Gauss-Newton stops once the z0 step falls below this, relative
_MAX_STEPS = 50


@dataclass
class CalibrationFit:
    """fit_calibration result: the (C, z0) fit of the gamma series."""

    c_cal: float
    z0: float
    sigma_c: float
    sigma_z0: float
    window_fits: list[WindowFit]
    chi2_dof: float           # weighted residual sum of squares per degree of freedom
    gamma_evals: int          # gamma/C table reads; one read serves every running window
    scan_fallback: bool       # the seeded bracket missed and the full-range scan ran


@dataclass
class CalibrationResult(CalibrationFit, ParabolaSeries):
    """Full electrostatic calibration of one measurement set: its parabola
    series, then its (C, z0) fit, then the V0 line over the calibrated
    separations and the sphere radius.  calibration_text leaves out the fit's
    run statistics (chi2_dof, gamma_evals, scan_fallback)."""

    line: V0LineFit
    R: float

    @property
    def separations(self) -> np.ndarray:
        return self.z0 + self.z_rel


def _project(gamma, weights, g):
    """Weighted least-squares C of the model C g, the residual r and the cost sum w r^2.

    Also returns w g and <w g g>, which the Gauss-Newton step reuses.
    """
    wg = weights * g
    wgg = float(wg @ g)
    c = float(wg @ gamma) / wgg
    r = gamma - c * g
    return c, r, float(weights @ (r * r)), wg, wgg


def _gauss_newton(windows, table):
    """Variable-projection Gauss-Newton on z0, for each window in lockstep.

    windows holds one (z_rel, gamma, weights, z0, lo, hi) per window: its
    data, its start and the bracket its z0 is clamped to.  C is the weighted
    projection at every z0; the step uses the projected Jacobian
    -C (g' - <w g g'>/<w g g> g).  Each step reads the table once, at the
    joined separations z0 + z_rel of every window still running, and that
    read serves them all; a window's numbers may differ from a run on its
    own in the last bits only (chebyshev.Interpolant._at).  A window drops
    out once its step converges or at _MAX_STEPS; its C, cost, g and g'
    belong to its returned z0, the last point evaluated.
    Returns one (z0, c, rss, g, dg, converged strictly inside) per window,
    and the number of table reads.
    """
    z0 = [float(w[3]) for w in windows]
    out = [None] * len(windows)
    running = list(range(len(windows)))
    reads = 0
    while running:
        reads += 1
        ends = list(itertools.accumulate(windows[i][0].size for i in running))
        g_all, dg_all = table(np.concatenate([z0[i] + windows[i][0] for i in running]),
                              slope=True)
        still = []
        for i, start, end in zip(running, [0, *ends], ends):
            g, dg = g_all[start:end], dg_all[start:end]
            _, gamma, weights, _, lo, hi = windows[i]
            c, r, rss, wg, wgg = _project(gamma, weights, g)
            p = dg - float(wg @ dg) / wgg * g
            wp = weights * p
            step = float(wp @ r) / (c * float(wp @ p))
            new = float(min(max(z0[i] + step, lo), hi))
            converged = abs(new - z0[i]) <= _Z0_RTOL * z0[i]
            if converged or reads == _MAX_STEPS:
                out[i] = (z0[i], c, rss, g, dg, converged and lo < z0[i] < hi)
            else:
                z0[i] = new
                still.append(i)
        running = still
    return out, reads


_WINDOW_HALF_WIDTH = 30e-9   # z0 bracket of the window refits
_Z0_BOUNDS = (50e-9, 10e-6)  # the z0 search range of fit_calibration


@lru_cache(maxsize=16)
def _gamma_table(lo: float, hi: float, R: float) -> GammaTable:
    """The GammaTable over [lo, hi] for radius R, built once per key."""
    return GammaTable(lo, hi, R)


def _fit_table(z_rel, R) -> GammaTable:
    """The table over every separation a fit of z_rel reaches.

    That is z0 in _Z0_BOUNDS, and up to 30 nm past them in the window refits.
    """
    lo, hi = _Z0_BOUNDS
    return _gamma_table(float(lo + z_rel.min()),
                        float(hi + _WINDOW_HALF_WIDTH + z_rel.max()), float(R))


def fit_calibration(z_rel, gamma, sigma_gamma, R) -> CalibrationFit:
    """Fit the exact electrostatic coefficient over (C, z0), z0 in _Z0_BOUNDS.

    The model gamma(z0 + z_rel) is linear in C, so the fit separates: for
    each closest-approach candidate the optimal C is a weighted projection,
    and z0 follows from Gauss-Newton steps with the analytic slope of the
    series, started at a proximity-limit seed inside a bracket around it.
    If the steps reach the bracket edge, a full-range scan picks a new start;
    it reads the table once for all its candidates.
    Every evaluation reads the one GammaTable of the fit range (_fit_table),
    which extract_gradients reads too; a range met before reuses its table.
    """
    z_rel = np.asarray(z_rel, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if z_rel.size < 100 or not np.all(np.isfinite(gamma)):
        raise ValidityDomainError("calibration fit needs at least 100 separations, finite gamma")
    sigma_gamma = np.asarray(sigma_gamma, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(sigma_gamma) & (sigma_gamma > 0)))
    if bad.size:
        raise ValidityDomainError(f"sigma_gamma[{bad[0]}] = {sigma_gamma[bad[0]]} must be "
                                  "finite and positive")
    weights = 1.0 / (sigma_gamma * sigma_gamma)

    lo, hi = _Z0_BOUNDS
    table = _fit_table(z_rel, R)

    # Proximity-limit seed: gamma ~ 1/a^2 gives z0 from the ratio of two
    # samples; Gauss-Newton runs in a generous bracket around it.
    k = z_rel.size // 2
    ratio = math.sqrt(max(gamma[0] / gamma[k], 1.0 + 1e-12))
    guess = min(max(z_rel[k] / (ratio - 1.0), lo), hi) if ratio > 1 else hi
    [(z0, c_cal, rss, g, dg, inside)], evals = _gauss_newton(
        [(z_rel, gamma, weights, guess, max(lo, 0.4 * guess), min(hi, 2.5 * guess))], table
    )
    scan_fallback = not inside
    if scan_fallback:
        scan = np.geomspace(lo, hi, 80)
        g_scan = table(np.concatenate([z + z_rel for z in scan]))
        costs = [_project(gamma, weights, g)[2] for g in np.split(g_scan, scan.size)]
        evals += 1
        i_best = int(np.argmin(costs))
        if i_best == 0 or i_best == scan.size - 1:
            raise FitConvergenceError(
                f"calibration cost minimised at the z0 search boundary "
                f"({scan[i_best] * 1e9:.1f} nm); residual {costs[i_best]:.3e}"
            )
        [(z0, c_cal, rss, g, dg, inside)], n = _gauss_newton(
            [(z_rel, gamma, weights, scan[i_best], scan[i_best - 1], scan[i_best + 1])], table
        )
        evals += n
        if not inside:
            raise FitConvergenceError(f"z0 Gauss-Newton failed near {z0 * 1e9:.1f} nm")

    # Gauss-Newton covariance at the optimum, from the analytic Jacobian.
    jac = np.column_stack([g, c_cal * dg])
    chi2_dof = rss / max(z_rel.size - 2, 1)
    cov = np.linalg.inv(jac.T @ (weights[:, None] * jac)) * chi2_dof

    splits = np.array_split(np.arange(z_rel.size), 4)
    fits, n = _gauss_newton(
        [(z_rel[idx], gamma[idx], weights[idx], z0,
          max(lo, z0 - _WINDOW_HALF_WIDTH), z0 + _WINDOW_HALF_WIDTH) for idx in splits], table
    )
    evals += n
    window_fits = [WindowFit(float(z_rel[idx[0]]), float(z_rel[idx[-1]]), cw, z0w)
                   for idx, (z0w, cw, *_) in zip(splits, fits)]

    return CalibrationFit(
        c_cal, z0, math.sqrt(max(cov[0, 0], 0.0)), math.sqrt(max(cov[1, 1], 0.0)),
        window_fits, chi2_dof, evals, scan_fallback,
    )


def calibrate(grid: MeasurementGrid) -> CalibrationResult:
    """Full calibration chain: parabolas, (C, z0) fit, V0 straight line."""
    par = fit_parabolas(grid)
    fit = fit_calibration(par.z_rel, par.gamma, par.sigma_gamma, grid.geometry.R)
    return CalibrationResult(**vars(par), **vars(fit),
                             line=fit_v0_line(fit.z0 + par.z_rel, par.v0), R=grid.geometry.R)


@dataclass
class GradientSeries:
    """Mean force gradient with its 67%-confidence error budget."""

    separations: np.ndarray        # m, absolute (calibrated)
    mean: np.ndarray               # N/m, positive = attractive
    random_error: np.ndarray       # N/m at 67% confidence
    systematic_error: np.ndarray   # N/m
    total_error: np.ndarray        # N/m
    n_channels: int


# the gradient-series file's columns: each GradientSeries field but n_channels,
# in field order, with its column name and its scale to and from the file's
# units; the read scales stay products (x * 1e-6 and x / 1e6 differ in the last bit)
_SERIES_COLUMNS = (("separations", "a_nm", 1e9, 1e-9),
                   ("mean", "Fgrad_uN_per_m", 1e6, 1e-6),
                   ("random_error", "random_uN_per_m", 1e6, 1e-6),
                   ("systematic_error", "systematic_uN_per_m", 1e6, 1e-6),
                   ("total_error", "total_uN_per_m", 1e6, 1e-6))


def extract_gradients(grid: MeasurementGrid, calib: CalibrationResult) -> GradientSeries:
    """Invert the shift model per channel and average at 67% confidence.

    F' = [-delta_omega - gamma_hat(a) (V_i - V0_hat(a))^2] / C_hat with the
    calibrated analytic gamma, read from the calibration fit's table
    (_fit_table; a z0 outside _Z0_BOUNDS, which no fit returns, raises its
    ValidityDomainError), and the straight-line V0; the random error is the
    Student-scaled standard error over the 21 x repetitions channels, the
    systematic error is the quoted frequency-shift error divided by C, and
    the two combine in quadrature.  A non-finite channel raises
    ValidityDomainError naming its separation.
    """
    a = calib.separations
    gamma_hat = calib.c_cal * _fit_table(calib.z_rel, calib.R)(a)
    v0_hat = calib.line.law.v0(a)
    v = grid.voltages[:, None, None]
    f = (-grid.shifts - gamma_hat[None, None, :] * (v - v0_hat[None, None, :]) ** 2) / calib.c_cal
    flat = f.reshape(-1, a.size)

    bad = np.flatnonzero(~np.isfinite(flat).all(axis=0))
    if bad.size:
        raise ValidityDomainError(f"non-finite channel at separation {bad[0]} "
                                  f"({a[bad[0]] * 1e9:.3f} nm)")
    mean = flat.mean(axis=0)
    sd = flat.std(axis=0, ddof=1)
    n = flat.shape[0]
    random_error = _t_quantile(0.5 + 0.67 / 2.0, n - 1) * sd / np.sqrt(n)
    systematic = grid.spec.freq_systematic / calib.c_cal
    systematic_error = np.full_like(mean, systematic)
    total = np.hypot(random_error, systematic_error)
    return GradientSeries(
        separations=a,
        mean=mean,
        random_error=random_error,
        systematic_error=systematic_error,
        total_error=total,
        n_channels=n,
    )


_LOG_SQRT_PI = 0.5 * math.log(math.pi)
# Stirling coefficients B_2k / (2k (2k - 1)), k = 1..7
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


@lru_cache(maxsize=64)
def _t_quantile(q: float, df: int) -> float:
    """Quantile of Student's t distribution with df degrees of freedom, 0.5 < q < 1.

    With y = t^2 / (df + t^2) the distribution function is
    F(t) = 1/2 + I_y(1/2, df/2) / 2 for t >= 0, I the regularized incomplete
    beta function.  F is concave for t > 0, so Newton steps from t = 0 rise
    monotonically to the root; they stop once a step is below 1e-8 t, which
    leaves an error of order 1e-16 t.
    """
    b = 0.5 * df
    log_beta = _LOG_SQRT_PI + _log_gamma_ratio(b)      # ln B(1/2, df/2)
    t = 0.0
    for _ in range(50):
        log_1py = math.log1p(t * t / df)                # -ln(1 - y), free of cancellation
        pdf = math.exp(-log_beta - 0.5 * math.log(df) - (b + 0.5) * log_1py)
        step = (q - 0.5 - 0.5 * _beta_half(t, df, b, log_beta, log_1py)) / pdf
        t += step
        if step <= 1e-8 * t:
            return t
    raise NumericsError(f"Student t quantile {q} for {df} degrees of freedom did not converge")


def _log_gamma_ratio(b: float) -> float:
    """ln Gamma(b) - ln Gamma(b + 1/2).

    Above b = 10 it comes from the difference of the Stirling series, whose
    omitted term is below 1e-16 there; the difference of two math.lgamma
    values would lose their size, 1e5 at b = 1.5e4, times the rounding.
    """
    if b < 10.0:
        return math.lgamma(b) - math.lgamma(b + 0.5)

    def series(z):
        return sum(c / z ** (2 * k + 1) for k, c in enumerate(_STIRLING))

    return -0.5 * math.log(b) + (0.5 - b * math.log1p(0.5 / b)) + series(b) - series(b + 0.5)


def _beta_half(t, df, b, log_beta, log_1py) -> float:
    """I_y(1/2, b) at y = t^2 / (df + t^2), 1 - y = df / (df + t^2), by continued fraction.

    The prefactor y^(1/2) (1 - y)^b / B(1/2, b) takes ln(1 - y) = -log1p(t^2/df),
    exact to rounding where the naive logarithm, times b, would not be.  The
    fraction converges fast below y = (a + 1) / (a + b + 2) for I_y(a, b);
    above it the symmetry I_y(1/2, b) = 1 - I_{1-y}(b, 1/2) applies.
    """
    if t == 0.0:
        return 0.0
    y, y_c = t * t / (df + t * t), df / (df + t * t)
    front = math.exp(0.5 * math.log(y) - b * log_1py - log_beta)
    if y < 1.5 / (b + 2.5):
        return front * _beta_fraction(0.5, b, y) / 0.5
    return 1.0 - front * _beta_fraction(b, 0.5, y_c) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by the modified Lentz method
    (Numerical Recipes, 3rd ed., section 6.4)."""
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 200):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            h *= d * c
        if abs(d * c - 1.0) <= 4e-16:
            return h
    raise NumericsError(f"incomplete beta fraction did not converge at a = {a}, b = {b}")


def combine_gradient_series(series_list, grid) -> GradientSeries:
    """Cross-set mean on the common grid given (compare_series builds it).

    Per-set series are linearly resampled onto the grid, each value column
    averages, and so the combined total error is the mean of the per-set totals.  A grid
    point past either end of a series takes that end's value with a
    UserWarning when it lies within the series' largest step, and raises
    GridAlignmentError further out.
    """
    if not series_list:
        raise ValueError("no series to combine")
    grid = np.asarray(grid, dtype=float)
    for k, s in enumerate(series_list):
        past = max(np.max(s.separations[0] - grid, initial=0.0),
                   np.max(grid - s.separations[-1], initial=0.0))
        if past > 0.0:
            step = np.max(np.diff(s.separations), initial=0.0)
            if past > step:
                raise GridAlignmentError(
                    f"grid reaches {past * 1e9:.3f} nm past series {k}, beyond its "
                    f"largest step of {step * 1e9:.3f} nm"
                )
            warnings.warn(f"series {k} held at its end value {past * 1e9:.3f} nm past "
                          "its data", stacklevel=2)

    columns = [np.array([np.interp(grid, s.separations, getattr(s, name)) for s in series_list])
               .mean(axis=0) for name, *_ in _SERIES_COLUMNS[1:]]
    return GradientSeries(grid, *columns, n_channels=sum(s.n_channels for s in series_list))


@dataclass(frozen=True)
class TheoryErrorConfig:
    """Theory-side error model for the confidence band.

    optical_fraction scales |F'| for the response-data inaccuracy;
    delta_z converts curvature |F''| into a gradient error from the
    absolute-separation uncertainty.
    """

    optical_fraction: float
    delta_z: float


@dataclass
class WindowVerdict:
    lo: float                     # m, inclusive
    hi: float                     # m, exclusive (inclusive for the last window)
    n_points: int
    fraction_outside: float
    verdict: str                  # 'excluded' or 'consistent'


@dataclass
class ComparisonReport:
    """Differences to theory with the confidence band and interval verdicts."""

    separations: np.ndarray
    differences: dict[str, np.ndarray]     # model label -> F'_expt - F'_theory, N/m
    band: dict[str, np.ndarray]            # model label -> band half-width, N/m
    windows: dict[str, list[WindowVerdict]]

    def verdict_for(self, label: str, lo: float, hi: float) -> str:
        for w in self.windows[label]:
            if abs(w.lo - lo) < 1e-12 and abs(w.hi - hi) < 1e-12:
                return w.verdict
        raise KeyError(f"no window [{lo}, {hi}] in report for {label}")


def default_windows(a_lo: float, a_hi: float, width: float):
    """Contiguous windows aligned to multiples of the width, clipped to
    [a_lo, a_hi] so that each label states the range its verdict covers."""
    k0 = math.floor(a_lo / width)
    k1 = math.ceil(a_hi / width - 1e-12)
    return [(max(k * width, a_lo), min((k + 1) * width, a_hi)) for k in range(k0, k1)]


def window_mask(a, lo: float, hi: float) -> np.ndarray:
    """The points of the ascending grid a that the window [lo, hi) holds; a
    window that reaches the last point holds it too."""
    return (a >= lo) & ((a <= hi) if hi >= a[-1] else (a < hi))


def compare(
    series: GradientSeries,
    theory: dict[str, np.ndarray],
    config: TheoryErrorConfig,
    windows,
) -> ComparisonReport:
    """Confidence-band comparison of measured and theoretical gradients.

    The band half-width is the quadrature of the experimental total error
    and the theory error (optical_fraction * |F'| + |F''| * delta_z); an
    interval is excluded when more than 33% of the difference points fall
    outside the band.  A series of fewer than 2 separations raises
    GridAlignmentError, as _compared_grid does: the band's F'' needs two.
    """
    a = series.separations
    if a.size < 2:
        raise GridAlignmentError(f"the series holds {a.size} separation(s); "
                                 "the band's F'' needs at least 2")
    diffs: dict[str, np.ndarray] = {}
    bands: dict[str, np.ndarray] = {}
    verdicts: dict[str, list[WindowVerdict]] = {}

    for label, vals in theory.items():
        vals = np.asarray(vals, dtype=float)
        if vals.shape != a.shape:
            raise GridAlignmentError(
                f"theory '{label}' has {vals.size} points for {a.size} separations"
            )
        d = series.mean - vals
        fpp = np.gradient(vals, a)
        theo_err = config.optical_fraction * np.abs(vals) + np.abs(fpp) * config.delta_z
        band = np.hypot(series.total_error, theo_err)
        outside = np.abs(d) > band
        wlist = []
        for lo, hi in windows:
            mask = window_mask(a, lo, hi)
            n = int(mask.sum())
            if n == 0:
                continue
            frac = float(outside[mask].mean())
            wlist.append(
                WindowVerdict(
                    lo=lo, hi=hi, n_points=n, fraction_outside=frac,
                    verdict="excluded" if frac > 0.33 else "consistent",
                )
            )
        diffs[label] = d
        bands[label] = band
        verdicts[label] = wlist

    return ComparisonReport(separations=a, differences=diffs, band=bands, windows=verdicts)


class CompareSettings(NamedTuple):
    """The [compare] settings that compare_series reads."""

    intervals: list | None        # (lo, hi) in m; None: default_windows of width
    width: float                  # m
    errors: TheoryErrorConfig
    ends: tuple                   # grid start and stop in nm, each None where the overlap sets it


def _compared_grid(settings: CompareSettings, ranges, geometry):
    """The compared grid, its one definition, and whether the geometry clipped it.

    The grid runs over the overlap of ranges, each series' (first, last) in m.  A
    [compare] grid end outside the geometry's domain, or over 1 nm (the grid's
    step) outside the overlap, is a config error; an end not set follows the
    overlap, clipped to the domain (Geometry.contains).  A grid of fewer than 2
    points is an error (the band's F'' needs two), and a [compare] interval that
    holds no grid point is a config error.
    """
    overlap = max(r[0] for r in ranges) * 1e9, min(r[1] for r in ranges) * 1e9
    start, stop = settings.ends
    for key, end, sign, edge in (("grid_start_nm", start, -1, overlap[0]),
                                 ("grid_stop_nm", stop, 1, overlap[1])):
        if end is not None:
            try:
                geometry.check_separation(end * 1e-9)
            except ValidityDomainError as exc:
                raise ConfigError(f"[compare] {key} = {end:g}: {exc}") from None
            if round(sign * (end - edge), 6) > 1:
                raise ConfigError(f"[compare] {key} = {end:g} lies over 1 nm (the grid's step) "
                                  f"outside the series overlap [{overlap[0]:g}, {overlap[1]:g}] nm")
    lo = overlap[0] if start is None else start
    hi = overlap[1] if stop is None else stop
    # whole nanometres; ends rounded to 1e-6 nm keep 300 from 300e-9 * 1e9 = 300.00000000000006
    common = np.arange(math.ceil(round(lo, 6)), math.floor(round(hi, 6)) + 1) * 1e-9
    inside = geometry.contains(common)
    clipped = not inside.all()
    if clipped:
        if not inside.any():
            raise ValidityDomainError(
                f"the series overlap [{lo:.1f}, {hi:.1f}] nm lies outside the geometry's range")
        common = common[inside]
    if common.size < 2:
        raise GridAlignmentError(f"the compared grid over [{lo:g}, {hi:g}] nm holds {common.size} "
                                 "whole-nanometre point(s); the band's F'' needs at least 2")
    for w_lo, w_hi in settings.intervals or ():
        if not window_mask(common, w_lo, w_hi).any():
            raise ConfigError(
                f"[compare] intervals: {w_lo * 1e9:g}:{w_hi * 1e9:g} nm holds no point of the "
                f"compared grid [{common[0] * 1e9:.0f}, {common[-1] * 1e9:.0f}] nm")
    return common, clipped


def compare_series(series_list, settings: CompareSettings, models, geometry, tol: float):
    """The compare stage: the series combined on the compared grid of their
    overlap (_compared_grid) and compared there with each model's
    gradient_curve at tol.  Returns (clipped, combined, report); the grid is
    report.separations."""
    common, clipped = _compared_grid(
        settings, [(s.separations[0], s.separations[-1]) for s in series_list], geometry)
    combined = combine_gradient_series(series_list, grid=common)
    theory = {tag: gradient_curve(model, geometry, common, tol)
              for tag, model in models.items()}
    windows = settings.intervals if settings.intervals is not None else \
        default_windows(float(common[0]), float(common[-1]), settings.width)
    return clipped, combined, compare(combined, theory, settings.errors, windows)


class PipelineRun(NamedTuple):
    """run_pipeline's result: (grid, calibration, series) per set, then compare_series'."""

    sets: tuple
    clipped: bool
    combined: GradientSeries
    report: ComparisonReport


def run_pipeline(campaigns, seeds, settings, models, tol) -> PipelineRun:
    """Synthesise, calibrate and extract each (spec, geometry) of campaigns with
    its seed, then compare_series of all the series with the last set's
    geometry; no file is read or written and nothing is printed.  First, before
    any set, _compared_grid runs on the overlap of the sets' own analysis grids
    (vexp.grid_range), so a [compare] setting those grids cannot meet fails there."""
    # every preset shares the physical geometry (R, roughness, T), so one theory
    # curve serves all the sets; only the validity bounds differ
    geometry = campaigns[-1][1]
    _compared_grid(settings, [grid_range(spec) for spec, _ in campaigns], geometry)
    sets = []
    for (spec, set_geometry), seed in zip(campaigns, seeds):
        grid = synthesize_campaign(spec, set_geometry, seed)
        calib = calibrate(grid)
        sets.append((grid, calib, extract_gradients(grid, calib)))
    return PipelineRun(tuple(sets), *compare_series([s for *_, s in sets], settings, models,
                                                    geometry, tol))


def calibration_text(calib: CalibrationResult) -> str:
    """CalibrationResult as textio text (fit summary + V0/gamma table)."""
    windows = [f"window {w.z_rel_lo * 1e9:.1f}..{w.z_rel_hi * 1e9:.1f} nm: "
               f"C = {w.c_cal:.6e}, z0 = {w.z0 * 1e9:.3f} nm" for w in calib.window_fits]
    return textio.header("electrostatic calibration", {
        "c_cal_s_per_kg": calib.c_cal,
        "sigma_c_s_per_kg": calib.sigma_c,
        "z0_nm": calib.z0 * 1e9,
        "sigma_z0_nm": calib.sigma_z0 * 1e9,
        "v0_slope_mv_per_nm": calib.line.law.slope_mv_per_nm,
        "v0_intercept_mv": calib.line.law.intercept_mv,
        "v0_mean_mv": calib.line.mean_v0 * 1e3,
        "R_um": calib.R * 1e6,
    }, windows) + textio.table(
        ("a_nm", "V0_mV", "sigma_V0_mV", "gamma", "sigma_gamma"), "%.3f  %.6f  %.6f  %.9e  %.3e",
        (calib.separations * 1e9, calib.v0 * 1e3, calib.sigma_v0 * 1e3, calib.gamma,
         calib.sigma_gamma))


def gradient_series_text(series: GradientSeries) -> str:
    return textio.header("extracted force-gradient series", {"n_channels": series.n_channels}) \
        + textio.table([column for _, column, *_ in _SERIES_COLUMNS], "%.3f  %r  %r  %r  %r",
                       [getattr(series, name) * scale for name, _, scale, _ in _SERIES_COLUMNS])


def load_gradient_series(path) -> GradientSeries:
    """Read a gradient_series_text file; textio.read's errors are ConfigErrors, and so
    are a non-finite number, a negative error and a separation not above the one
    before (rows from 1)."""
    text = textio.read(path, len(_SERIES_COLUMNS))
    data = np.concatenate(text.groups)
    prev = -math.inf
    for i, row in enumerate(data.tolist(), 1):
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"{path}: data row {i} holds a non-finite number: {row}")
        if min(row[2:]) < 0:
            raise ConfigError(f"{path}: data row {i} holds a negative error: {row}")
        if row[0] <= prev:
            raise ConfigError(f"{path}: data row {i} separation {row[0]} nm does not exceed "
                              f"row {i - 1}'s {prev} nm; separations must increase")
        prev = row[0]
    columns = [column * scale for column, (*_, scale) in zip(data.T, _SERIES_COLUMNS)]
    return GradientSeries(*columns, n_channels=text.value("n_channels", int))


def comparison_text(report: ComparisonReport) -> str:
    labels = list(report.differences)
    windows = [f"window {label} {w.lo * 1e9:.0f}..{w.hi * 1e9:.0f} nm: n = {w.n_points}, "
               f"outside = {w.fraction_outside:.3f}, {w.verdict}"
               for label in labels for w in report.windows[label]]
    names = ["a_nm"]
    columns = [report.separations * 1e9]
    for label in labels:
        names += [f"d_{label}_uN_per_m", f"band_{label}_uN_per_m"]
        columns += [report.differences[label] * 1e6, report.band[label] * 1e6]
    row = "  ".join(["%.3f"] + ["%.6e"] * (2 * len(labels)))
    return textio.header("experiment-theory comparison", notes=windows) \
        + textio.table(names, row, columns)
