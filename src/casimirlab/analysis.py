"""Calibration and statistics pipeline for frequency-shift campaigns.

Per-separation parabola fits give V0(a) and gamma(a); the exact
electrostatic series fitted over (C, z0) calibrates the setup; force
gradients are then extracted channel by channel, averaged with a 67%
confidence budget, and compared against theory through the confidence-band
exclusion rule (an interval is excluded when more than 33% of the
difference points fall outside the band).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.stats import t as student_t

from .electrostatics import gamma_over_c
from .errors import (
    DegenerateFitError,
    FitConvergenceError,
    GridAlignmentError,
    ValidityDomainError,
)
from .vexp import MeasurementGrid, V0Law

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
    "compare",
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
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
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

    return ParabolaSeries(
        z_rel=grid.z_rel.copy(),
        v0=v0,
        sigma_v0=np.sqrt(np.maximum(var_v0, 0.0)),
        gamma=gamma,
        sigma_gamma=np.sqrt(np.maximum(var[0], 0.0)),
    )


@dataclass
class V0LineFit:
    """Straight-line residual potential V0 = K a + b over absolute separation."""

    law: V0Law
    mean_v0: float            # V, arithmetic mean of the V0 samples
    sigma_slope: float
    sigma_intercept: float

    def v0(self, a):
        return self.law.v0(a)


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


@dataclass
class CalibrationResult:
    """Full electrostatic calibration of one measurement set."""

    z_rel: np.ndarray
    v0: np.ndarray
    sigma_v0: np.ndarray
    gamma: np.ndarray
    sigma_gamma: np.ndarray
    c_cal: float
    sigma_c: float
    z0: float
    sigma_z0: float
    line: V0LineFit
    R: float
    window_fits: list[WindowFit] = field(default_factory=list)
    # run statistics of the fit; calibration_text leaves them out
    chi2_dof: float = math.nan
    gamma_evals: int = 0
    scan_fallback: bool = False

    @property
    def separations(self) -> np.ndarray:
        return self.z0 + self.z_rel


_Z0_RTOL = 1e-10      # Gauss-Newton stops once the z0 step falls below this, relative
_MAX_STEPS = 50


class CalibrationFit(NamedTuple):
    """fit_calibration result; unpacks like a tuple, in this order."""

    c_cal: float
    z0: float
    sigma_c: float
    sigma_z0: float
    window_fits: list[WindowFit]
    chi2_dof: float           # weighted residual sum of squares per degree of freedom
    gamma_evals: int          # gamma_over_c evaluations the fit made
    scan_fallback: bool       # the seeded bracket missed and the full-range scan ran


def _project(gamma, weights, g):
    """Weighted least-squares C of the model C g, and the residual."""
    wg = weights * g
    c = float(wg @ gamma) / float(wg @ g)
    return c, gamma - c * g


def _gauss_newton(z_rel, gamma, weights, R, z0, lo, hi):
    """Variable-projection Gauss-Newton on z0, clamped to [lo, hi].

    C is the weighted projection at every z0; the step uses the projected
    Jacobian -C (g' - <w g g'>/<w g g> g).  C, the cost, g and g' belong to
    the returned z0, the last point evaluated.
    Returns (z0, c, rss, g, dg, evaluations, converged strictly inside).
    """
    z0 = float(z0)
    for k in range(1, _MAX_STEPS + 1):
        g, dg = gamma_over_c(z0 + z_rel, R, slope=True)
        c, r = _project(gamma, weights, g)
        p = dg - float((weights * g) @ dg) / float((weights * g) @ g) * g
        step = float((weights * p) @ r) / (c * float((weights * p) @ p))
        new = float(min(max(z0 + step, lo), hi))
        converged = abs(new - z0) <= _Z0_RTOL * z0
        if converged or k == _MAX_STEPS:
            return z0, c, float(weights @ (r * r)), g, dg, k, converged and lo < z0 < hi
        z0 = new


def fit_calibration(z_rel, gamma, sigma_gamma, R, z0_bounds=(50e-9, 10e-6)) -> CalibrationFit:
    """Fit the exact electrostatic coefficient over (C, z0).

    The model gamma(z0 + z_rel) is linear in C, so the fit separates: for
    each closest-approach candidate the optimal C is a weighted projection,
    and z0 follows from Gauss-Newton steps with the analytic slope of the
    series, started at a proximity-limit seed inside a bracket around it.
    If the steps reach the bracket edge, a full-range scan picks a new start.
    """
    z_rel = np.asarray(z_rel, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if z_rel.size < 100 or not np.all(np.isfinite(gamma)):
        raise ValidityDomainError("calibration fit needs at least 100 separations, finite gamma")
    sigma_gamma = np.asarray(sigma_gamma, dtype=float)
    if np.all(sigma_gamma > 0):
        weights = 1.0 / (sigma_gamma * sigma_gamma)
    else:
        weights = np.ones_like(gamma)

    lo, hi = z0_bounds
    if not (0 < lo < hi <= 10e-6):
        raise ValidityDomainError(f"z0 bounds {z0_bounds} escape (0, 10 um]")

    # Proximity-limit seed: gamma ~ 1/a^2 gives z0 from the ratio of two
    # samples; Gauss-Newton runs in a generous bracket around it.
    k = z_rel.size // 2
    ratio = math.sqrt(max(gamma[0] / gamma[k], 1.0 + 1e-12))
    guess = min(max(z_rel[k] / (ratio - 1.0), lo), hi) if ratio > 1 else hi
    z0, c_cal, rss, g, dg, evals, inside = _gauss_newton(
        z_rel, gamma, weights, R, guess, max(lo, 0.4 * guess), min(hi, 2.5 * guess)
    )
    scan_fallback = not inside
    if scan_fallback:
        scan = np.geomspace(lo, hi, 80)
        costs = [float(weights @ _project(gamma, weights, gamma_over_c(z + z_rel, R))[1] ** 2)
                 for z in scan]
        evals += scan.size
        i_best = int(np.argmin(costs))
        if i_best == 0 or i_best == scan.size - 1:
            raise FitConvergenceError(
                f"calibration cost minimised at the z0 search boundary "
                f"({scan[i_best] * 1e9:.1f} nm); residual {costs[i_best]:.3e}"
            )
        z0, c_cal, rss, g, dg, n, inside = _gauss_newton(
            z_rel, gamma, weights, R, scan[i_best], scan[i_best - 1], scan[i_best + 1]
        )
        evals += n
        if not inside:
            raise FitConvergenceError(f"z0 Gauss-Newton failed near {z0 * 1e9:.1f} nm")

    # Gauss-Newton covariance at the optimum, from the analytic Jacobian.
    jac = np.column_stack([g, c_cal * dg])
    chi2_dof = rss / max(z_rel.size - 2, 1)
    cov = np.linalg.inv(jac.T @ (weights[:, None] * jac)) * chi2_dof

    window_fits = []
    for idx in np.array_split(np.arange(z_rel.size), 4):
        z0w, cw, *_, n, _ = _gauss_newton(
            z_rel[idx], gamma[idx], weights[idx], R, z0, max(lo, z0 - 30e-9), z0 + 30e-9
        )
        evals += n
        window_fits.append(WindowFit(float(z_rel[idx[0]]), float(z_rel[idx[-1]]), cw, z0w))

    return CalibrationFit(
        c_cal, z0, math.sqrt(max(cov[0, 0], 0.0)), math.sqrt(max(cov[1, 1], 0.0)),
        window_fits, chi2_dof, evals, scan_fallback,
    )


def calibrate(grid: MeasurementGrid) -> CalibrationResult:
    """Full calibration chain: parabolas, (C, z0) fit, V0 straight line."""
    par = fit_parabolas(grid)
    fit = fit_calibration(par.z_rel, par.gamma, par.sigma_gamma, grid.geometry.R)
    return CalibrationResult(
        z_rel=par.z_rel,
        v0=par.v0,
        sigma_v0=par.sigma_v0,
        gamma=par.gamma,
        sigma_gamma=par.sigma_gamma,
        line=fit_v0_line(fit.z0 + par.z_rel, par.v0),
        R=grid.geometry.R,
        **fit._asdict(),
    )


@dataclass
class GradientSeries:
    """Mean force gradient with its 67%-confidence error budget."""

    separations: np.ndarray        # m, absolute (calibrated)
    mean: np.ndarray               # N/m, positive = attractive
    random_error: np.ndarray       # N/m at 67% confidence
    systematic_error: np.ndarray   # N/m
    total_error: np.ndarray        # N/m
    n_channels: int


def extract_gradients(grid: MeasurementGrid, calib: CalibrationResult) -> GradientSeries:
    """Invert the shift model per channel and average at 67% confidence.

    F' = [-delta_omega - gamma_hat(a) (V_i - V0_hat(a))^2] / C_hat with the
    calibrated analytic gamma and the straight-line V0; the random error is
    the Student-scaled standard error over the 21 x repetitions channels,
    the systematic error is the quoted frequency-shift error divided by C,
    and the two combine in quadrature.
    """
    a = calib.separations
    gamma_hat = calib.c_cal * gamma_over_c(a, calib.R)
    v0_hat = calib.line.v0(a)
    v = grid.voltages[:, None, None]
    f = (-grid.shifts - gamma_hat[None, None, :] * (v - v0_hat[None, None, :]) ** 2) / calib.c_cal
    flat = f.reshape(-1, a.size)

    if not np.all(np.isfinite(flat)):
        warnings.warn("dropping non-finite channels at some separations", stacklevel=2)
        mean = np.nanmean(flat, axis=0)
        sd = np.nanstd(flat, axis=0, ddof=1)
        n_eff = np.isfinite(flat).sum(axis=0).min()
    else:
        mean = flat.mean(axis=0)
        sd = flat.std(axis=0, ddof=1)
        n_eff = flat.shape[0]

    t67 = float(student_t.ppf(0.5 + 0.67 / 2.0, n_eff - 1))
    random_error = t67 * sd / math.sqrt(n_eff)
    systematic = grid.spec.freq_systematic / calib.c_cal
    systematic_error = np.full_like(mean, systematic)
    total = np.hypot(random_error, systematic_error)
    return GradientSeries(
        separations=a,
        mean=mean,
        random_error=random_error,
        systematic_error=systematic_error,
        total_error=total,
        n_channels=int(n_eff),
    )


def combine_gradient_series(series_list, grid=None) -> GradientSeries:
    """Cross-set mean on a common grid.

    Per-set series are linearly resampled onto the common separations
    (default: integer nanometres covering the intersection); means average,
    and the combined total error is the mean of the per-set totals.  A grid
    point past either end of a series takes that end's value with a
    UserWarning when it lies within the series' largest step, and raises
    GridAlignmentError further out.
    """
    if not series_list:
        raise ValueError("no series to combine")
    if grid is None:
        lo = max(s.separations[0] for s in series_list)
        hi = min(s.separations[-1] for s in series_list)
        lo_nm, hi_nm = math.ceil(lo * 1e9), math.floor(hi * 1e9)
        if hi_nm <= lo_nm:
            raise GridAlignmentError("series do not overlap")
        grid = np.arange(lo_nm, hi_nm + 1) * 1e-9
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

    def resample(s, values):
        return np.interp(grid, s.separations, values)

    means = np.array([resample(s, s.mean) for s in series_list])
    rand = np.array([resample(s, s.random_error) for s in series_list])
    syst = np.array([resample(s, s.systematic_error) for s in series_list])
    tot = np.array([resample(s, s.total_error) for s in series_list])
    return GradientSeries(
        separations=grid,
        mean=means.mean(axis=0),
        random_error=rand.mean(axis=0),
        systematic_error=syst.mean(axis=0),
        total_error=tot.mean(axis=0),
        n_channels=sum(s.n_channels for s in series_list),
    )


@dataclass(frozen=True)
class TheoryErrorConfig:
    """Theory-side error model for the confidence band.

    optical_fraction scales |F'| for the response-data inaccuracy;
    delta_z converts curvature |F''| into a gradient error from the
    absolute-separation uncertainty.
    """

    optical_fraction: float = 0.005
    delta_z: float = 0.5e-9


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


def default_windows(a_lo: float, a_hi: float, width: float = 100e-9):
    """Contiguous windows aligned to multiples of the width, clipped to
    [a_lo, a_hi] so that each label states the range its verdict covers."""
    k0 = math.floor(a_lo / width)
    k1 = math.ceil(a_hi / width - 1e-12)
    return [(max(k * width, a_lo), min((k + 1) * width, a_hi)) for k in range(k0, k1)]


def compare(
    series: GradientSeries,
    theory: dict[str, np.ndarray],
    config: TheoryErrorConfig = TheoryErrorConfig(),
    windows=None,
) -> ComparisonReport:
    """Confidence-band comparison of measured and theoretical gradients.

    The band half-width is the quadrature of the experimental total error
    and the theory error (optical_fraction * |F'| + |F''| * delta_z); an
    interval is excluded when more than 33% of the difference points fall
    outside the band.
    """
    a = series.separations
    diffs: dict[str, np.ndarray] = {}
    bands: dict[str, np.ndarray] = {}
    verdicts: dict[str, list[WindowVerdict]] = {}
    if windows is None:
        windows = default_windows(float(a[0]), float(a[-1]))

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
            if hi >= a[-1]:
                mask = (a >= lo) & (a <= hi)
            else:
                mask = (a >= lo) & (a < hi)
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


def calibration_text(calib: CalibrationResult) -> str:
    """CalibrationResult as '#'-commented text (fit summary + V0/gamma table)."""
    lines = [
        "# electrostatic calibration",
        f"# c_cal_s_per_kg = {calib.c_cal!r}",
        f"# sigma_c_s_per_kg = {calib.sigma_c!r}",
        f"# z0_nm = {calib.z0 * 1e9!r}",
        f"# sigma_z0_nm = {calib.sigma_z0 * 1e9!r}",
        f"# v0_slope_mv_per_nm = {calib.line.law.slope_mv_per_nm!r}",
        f"# v0_intercept_mv = {calib.line.law.intercept_mv!r}",
        f"# v0_mean_mv = {calib.line.mean_v0 * 1e3!r}",
        f"# R_um = {calib.R * 1e6!r}",
    ]
    for w in calib.window_fits:
        lines.append(
            f"# window {w.z_rel_lo * 1e9:.1f}..{w.z_rel_hi * 1e9:.1f} nm: "
            f"C = {w.c_cal:.6e}, z0 = {w.z0 * 1e9:.3f} nm"
        )
    lines.append("# columns: a_nm  V0_mV  sigma_V0_mV  gamma  sigma_gamma")
    a_nm = calib.separations * 1e9
    for i in range(calib.z_rel.size):
        lines.append(
            f"{a_nm[i]:.3f}  {calib.v0[i] * 1e3:.6f}  {calib.sigma_v0[i] * 1e3:.6f}  "
            f"{calib.gamma[i]:.9e}  {calib.sigma_gamma[i]:.3e}"
        )
    return "\n".join(lines) + "\n"


def gradient_series_text(series: GradientSeries) -> str:
    lines = [
        "# extracted force-gradient series",
        f"# n_channels = {series.n_channels}",
        "# columns: a_nm  Fgrad_uN_per_m  random_uN_per_m  systematic_uN_per_m  total_uN_per_m",
    ]
    for i, a in enumerate(series.separations):
        lines.append(
            f"{a * 1e9:.3f}  {float(series.mean[i] * 1e6)!r}  "
            f"{float(series.random_error[i] * 1e6)!r}  "
            f"{float(series.systematic_error[i] * 1e6)!r}  "
            f"{float(series.total_error[i] * 1e6)!r}"
        )
    return "\n".join(lines) + "\n"


def load_gradient_series(path) -> GradientSeries:
    """Read a series written by gradient_series_text (plus any manifest lines)."""
    n_channels = 0
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("n_channels"):
                    n_channels = int(body.split("=")[1])
                continue
            rows.append([float(tok) for tok in line.split()])
    data = np.asarray(rows)
    if data.ndim != 2 or data.shape[1] != 5:
        raise GridAlignmentError(f"{path}: expected 5 columns")
    return GradientSeries(
        separations=data[:, 0] * 1e-9,
        mean=data[:, 1] * 1e-6,
        random_error=data[:, 2] * 1e-6,
        systematic_error=data[:, 3] * 1e-6,
        total_error=data[:, 4] * 1e-6,
        n_channels=n_channels,
    )


def comparison_text(report: ComparisonReport) -> str:
    labels = list(report.differences)
    lines = ["# experiment-theory comparison"]
    for label in labels:
        for w in report.windows[label]:
            lines.append(
                f"# window {label} {w.lo * 1e9:.0f}..{w.hi * 1e9:.0f} nm: "
                f"n = {w.n_points}, outside = {w.fraction_outside:.3f}, {w.verdict}"
            )
    cols = ["a_nm"]
    for label in labels:
        cols += [f"d_{label}_uN_per_m", f"band_{label}_uN_per_m"]
    lines.append("# columns: " + "  ".join(cols))
    a_nm = report.separations * 1e9
    for i in range(a_nm.size):
        row = [f"{a_nm[i]:.3f}"]
        for label in labels:
            row.append(f"{report.differences[label][i] * 1e6:.6e}")
            row.append(f"{report.band[label][i] * 1e6:.6e}")
        lines.append("  ".join(row))
    return "\n".join(lines) + "\n"
