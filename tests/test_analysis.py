import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import stdtrit

from casimirlab import analysis, electrostatics, vexp
from casimirlab.analysis import (
    TheoryErrorConfig,
    _t_quantile,
    calibrate,
    calibration_text,
    combine_gradient_series,
    compare,
    comparison_text,
    default_windows,
    extract_gradients,
    fit_calibration,
    fit_parabolas,
    fit_v0_line,
    gradient_series_text,
    load_gradient_series,
)
from casimirlab.electrostatics import gamma_over_c
from casimirlab.errors import (
    DegenerateFitError,
    FitConvergenceError,
    GridAlignmentError,
    ValidityDomainError,
)
from casimirlab.force_model import BetaTable, pressure_to_gradient_sweep
from casimirlab.vexp import (
    V0Law,
    model_for_tag,
    reference_campaign,
    synthesize_campaign,
    truth_curves,
)


def short_campaign(n=1, max_z_rel=250e-9, **overrides):
    spec, geom = reference_campaign(n, "plasma")
    fields = dict(max_z_rel=max_z_rel)
    fields.update(overrides)
    return dataclasses.replace(spec, **fields), geom


@pytest.fixture(scope="module")
def noiseless_setup():
    spec, geom = short_campaign(freq_systematic=0.0)
    grid = synthesize_campaign(spec, geom, seed=0)
    return spec, geom, grid


@pytest.fixture(scope="module")
def set1_grid():
    spec, geom = short_campaign()
    return spec, geom, synthesize_campaign(spec, geom, seed=3)


def compare_at_defaults(series, theory):
    """compare with the [compare] defaults: 0.5 % optical error, delta_z 0.5 nm,
    100 nm windows over the series."""
    a = series.separations
    return compare(series, theory, TheoryErrorConfig(0.005, 0.5e-9),
                   default_windows(float(a[0]), float(a[-1]), 100e-9))


class TestParabolas:
    def test_noiseless_recovery_to_rounding(self, noiseless_setup):
        spec, geom, grid = noiseless_setup
        par = fit_parabolas(grid)
        a = spec.z0_true + par.z_rel
        z_fine, gamma_fine, _ = truth_curves(spec, geom)
        gamma_grid = np.interp(par.z_rel, z_fine, gamma_fine)
        v0_truth = spec.v0_law.v0(a)
        assert np.allclose(par.v0, v0_truth, rtol=0, atol=1e-9)
        assert np.allclose(par.gamma, gamma_grid, rtol=1e-7, atol=0)
        assert np.all(par.sigma_v0 < 1e-9)

    def test_set1_mean_v0_recovery(self, set1_grid):
        spec, geom, grid = set1_grid
        par = fit_parabolas(grid)
        mean_mv = par.v0.mean() * 1e3
        assert mean_mv == pytest.approx(10.7, abs=0.5)

    def test_degenerate_fit_raises(self, noiseless_setup):
        _, _, grid = noiseless_setup
        bad = type(grid)(
            z_rel=grid.z_rel, shifts=-grid.shifts, spec=grid.spec,
            geometry=grid.geometry, seed=grid.seed,
        )
        with pytest.raises(DegenerateFitError):
            fit_parabolas(bad)

    def test_needs_three_distinct_voltages(self, noiseless_setup):
        spec, geom, grid = noiseless_setup
        flat_spec = dataclasses.replace(
            spec, voltages=(0.01,) * 10 + (0.02,) * 11, freq_systematic=0.0
        )
        flat = synthesize_campaign(flat_spec, geom, seed=0)
        with pytest.raises(DegenerateFitError):
            fit_parabolas(flat)

    def test_voltage_translation_equivariance(self, set1_grid):
        spec, geom, grid = set1_grid
        dv = 0.025
        shifted_spec = dataclasses.replace(
            spec,
            voltages=tuple(v + dv for v in spec.voltages),
            v0_law=V0Law(spec.v0_law.slope, spec.v0_law.intercept + dv),
        )
        shifted = synthesize_campaign(shifted_spec, geom, seed=grid.seed)
        # identical noise streams, identical (V - V0): same raw shifts
        assert np.allclose(shifted.shifts, grid.shifts, rtol=0, atol=1e-12)
        par = fit_parabolas(grid)
        par_shifted = fit_parabolas(shifted)
        assert np.allclose(par_shifted.v0, par.v0 + dv, rtol=0, atol=1e-9)
        assert np.allclose(par_shifted.gamma, par.gamma, rtol=1e-9)

    @pytest.mark.parametrize("preset", [1, 2, 3, 4])
    def test_normal_equations_match_lstsq(self, preset):
        # the fit solves its normal equations with the 3 x 3 inverse; on the
        # preset designs (cond(X) <= 1.6e3) that must agree with an
        # orthogonal-factorisation least-squares solve
        spec, geom = reference_campaign(preset, "plasma")
        grid = synthesize_campaign(spec, geom, seed=11)
        par = fit_parabolas(grid)
        v = np.repeat(grid.voltages, grid.shifts.shape[1])
        x = np.column_stack([v * v, v, np.ones_like(v)])
        (c2, c1, _), *_ = np.linalg.lstsq(x, grid.shifts.reshape(v.size, -1), rcond=None)
        assert np.max(np.abs(par.gamma / -c2 - 1.0)) <= 1e-12
        assert np.max(np.abs(par.v0 / (-c1 / (2.0 * c2)) - 1.0)) <= 1e-12


class TestV0Line:
    def test_constant_series(self):
        a = np.linspace(250e-9, 950e-9, 100)
        fit = fit_v0_line(a, np.full(100, 0.0107))
        assert fit.law.slope == pytest.approx(0.0, abs=1e-9)
        assert fit.law.intercept == pytest.approx(0.0107, rel=1e-12)
        assert fit.mean_v0 == pytest.approx(0.0107, rel=1e-12)

    def test_set1_line_recovery(self, set1_grid):
        spec, geom, grid = set1_grid
        calib = calibrate(grid)
        truth = spec.v0_law
        assert calib.line.law.intercept == pytest.approx(
            truth.intercept, abs=4 * calib.line.sigma_intercept + 1e-5
        )
        assert calib.line.law.slope == pytest.approx(
            truth.slope, abs=4 * calib.line.sigma_slope
        )

    def test_set4_line_recovery(self):
        spec, geom = short_campaign(4, max_z_rel=300e-9)
        grid = synthesize_campaign(spec, geom, seed=5)
        calib = calibrate(grid)
        assert calib.line.law.slope_mv_per_nm == pytest.approx(
            3.23e-4, abs=4 * calib.line.sigma_slope * 1e-6
        )
        assert calib.line.law.intercept_mv == pytest.approx(
            7.50, abs=4 * calib.line.sigma_intercept * 1e3 + 0.05
        )

    def test_too_few_points(self):
        with pytest.raises(DegenerateFitError):
            fit_v0_line([1e-9], [0.1])


class TestCalibrationFit:
    def test_noiseless_exact_recovery(self, noiseless_setup):
        spec, geom, grid = noiseless_setup
        calib = calibrate(grid)
        assert calib.z0 == pytest.approx(spec.z0_true, abs=2e-12)
        assert calib.c_cal == pytest.approx(spec.c_true, rel=1e-7)

    def test_noiseless_c_does_not_follow_the_last_bit_of_the_shifts(self, noiseless_setup):
        # a noiseless sigma_gamma sits on the fit's rounding floor, so the
        # weights are equal and +-1 ulp per shift cannot move C through them
        _, _, grid = noiseless_setup
        c_cal = calibrate(grid).c_cal
        rng = np.random.default_rng(1)
        for _ in range(5):
            towards = rng.choice([-np.inf, np.inf], size=grid.shifts.shape)
            moved = dataclasses.replace(grid, shifts=np.nextafter(grid.shifts, towards))
            assert calibrate(moved).c_cal == pytest.approx(c_cal, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_noiseless_series_recovery(self, n):
        # gamma from the direct series, read back through the fit's table
        spec, geom = reference_campaign(n, "plasma")
        z_rel = vexp._lattice(spec)[1]
        gamma = spec.c_true * gamma_over_c(spec.z0_true + z_rel, geom.R)
        fit = fit_calibration(z_rel, gamma, np.ones_like(gamma), geom.R)
        assert abs(fit.c_cal / spec.c_true - 1.0) <= 1e-9
        assert abs(fit.z0 / spec.z0_true - 1.0) <= 1e-9
        assert not fit.scan_fallback

    def test_set3_round_trip(self):
        spec, geom = reference_campaign(3, "plasma")
        grid = synthesize_campaign(spec, geom, seed=21)
        calib = calibrate(grid)
        assert calib.z0 * 1e9 == pytest.approx(234.4, abs=0.5)
        assert calib.c_cal == pytest.approx(6.529e5, abs=0.008e5)

    def test_radius_sensitivity(self, set1_grid):
        spec, geom, grid = set1_grid
        par = fit_parabolas(grid)
        c0, *_ = fit_calibration(par.z_rel, par.gamma, par.sigma_gamma, geom.R)
        c1, *_ = fit_calibration(par.z_rel, par.gamma, par.sigma_gamma, geom.R * 1.001)
        assert abs(c1 / c0 - 1.0) < 0.002

    def test_window_stability_diagnostic(self, set1_grid):
        _, _, grid = set1_grid
        calib = calibrate(grid)
        assert len(calib.window_fits) == 4
        for w in calib.window_fits:
            assert w.c_cal == pytest.approx(calib.c_cal, rel=0.01)
            assert w.z0 == pytest.approx(calib.z0, abs=2e-9)

    def test_needs_enough_separations(self):
        with pytest.raises(Exception):
            fit_calibration(np.arange(10) * 1e-9, np.ones(10), np.ones(10), 43e-6)

    def test_non_finite_gamma_rejected(self, set1_grid):
        _, geom, grid = set1_grid
        par = fit_parabolas(grid)
        gamma = par.gamma.copy()
        gamma[7] = np.nan
        with pytest.raises(ValidityDomainError):
            fit_calibration(par.z_rel, gamma, par.sigma_gamma, geom.R)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_sigma_not_finite_and_positive_rejected(self, bad):
        # one bad sigma among the 703 separations of set 1 refuses the fit,
        # where unit weights for every point would fit it silently
        spec, geom = reference_campaign(1, "plasma")
        par = fit_parabolas(synthesize_campaign(spec, geom, seed=3))
        sigma = par.sigma_gamma.copy()
        sigma[350] = bad
        with pytest.raises(ValidityDomainError, match=r"sigma_gamma\[350\] = "):
            fit_calibration(par.z_rel, par.gamma, sigma, geom.R)

    def test_seed_outside_basin_falls_back_to_full_scan(self, set1_grid):
        _, geom, grid = set1_grid
        par = fit_parabolas(grid)
        # a first sample barely above the midpoint one puts the proximity
        # seed at the 10 um bound; its huge sigma keeps it out of the fit
        sigma = par.sigma_gamma.copy()
        sigma[0] = 1e6 * par.gamma[0]
        reference = fit_calibration(par.z_rel, par.gamma, sigma, geom.R)
        assert not reference.scan_fallback
        gamma = par.gamma.copy()
        gamma[0] = gamma[gamma.size // 2] * (1.0 + 1e-9)
        fit = fit_calibration(par.z_rel, gamma, sigma, geom.R)
        assert fit.scan_fallback
        assert fit.z0 == pytest.approx(reference.z0, abs=1e-3 * reference.sigma_z0)
        assert fit.c_cal == pytest.approx(reference.c_cal, rel=1e-6)

    def test_minimum_at_z0_bound_raises(self, set1_grid, monkeypatch):
        spec, geom, grid = set1_grid
        par = fit_parabolas(grid)
        monkeypatch.setattr(analysis, "_Z0_BOUNDS", (spec.z0_true + 40e-9, 10e-6))
        with pytest.raises(FitConvergenceError):
            fit_calibration(par.z_rel, par.gamma, par.sigma_gamma, geom.R)

    def test_run_statistics(self):
        spec, geom = reference_campaign(1, "plasma")
        calib = calibrate(synthesize_campaign(spec, geom, seed=42))
        assert 1 <= calib.gamma_evals <= 30
        assert not calib.scan_fallback
        assert calib.chi2_dof == pytest.approx(1.0, abs=0.2)
        text = calibration_text(calib)
        for token in ("chi2", "gamma_evals", "scan_fallback"):
            assert token not in text

    @settings(max_examples=6)
    @given(dv=st.floats(-0.05, 0.05), seed=st.integers(0, 2**16))
    def test_voltage_shift_equivariance(self, dv, seed):
        spec, geom = short_campaign()
        shifted_spec = dataclasses.replace(
            spec,
            voltages=tuple(v + dv for v in spec.voltages),
            v0_law=V0Law(spec.v0_law.slope, spec.v0_law.intercept + dv),
        )
        calib = calibrate(synthesize_campaign(spec, geom, seed=seed))
        shifted = calibrate(synthesize_campaign(shifted_spec, geom, seed=seed))
        assert shifted.c_cal == pytest.approx(calib.c_cal, rel=1e-9)
        assert shifted.z0 == pytest.approx(calib.z0, rel=1e-9)
        assert shifted.line.law.intercept == pytest.approx(
            calib.line.law.intercept + dv, abs=1e-9)


class TestExtraction:
    def test_noiseless_inversion_recovers_truth(self, noiseless_setup):
        spec, geom, grid = noiseless_setup
        calib = calibrate(grid)
        series = extract_gradients(grid, calib)
        z_fine, _, fprime_fine = truth_curves(spec, geom)
        expected = np.interp(grid.z_rel, z_fine, fprime_fine)
        assert np.allclose(series.mean, expected, rtol=1e-6)
        assert series.n_channels == 21

    def test_non_finite_channel_names_its_separation(self, set1_grid):
        # MeasurementGrid refuses a non-finite shift, so this one is written
        # after construction
        _, _, grid = set1_grid
        calib = calibrate(grid)
        holed = dataclasses.replace(grid, shifts=grid.shifts.copy())
        holed.shifts[3, 0, 10] = np.nan
        a10 = calib.separations[10] * 1e9
        with pytest.raises(ValidityDomainError,
                           match=rf"non-finite channel at separation 10 \({a10:.3f} nm\)"):
            extract_gradients(holed, calib)

    def test_error_budget_composition(self, set1_grid):
        spec, _, grid = set1_grid
        calib = calibrate(grid)
        series = extract_gradients(grid, calib)
        assert np.allclose(
            series.total_error,
            np.hypot(series.random_error, series.systematic_error),
            rtol=1e-12,
        )
        assert np.allclose(series.systematic_error, spec.freq_systematic / calib.c_cal,
                           rtol=1e-6)
        # systematic part dominates at these noise levels
        assert np.all(series.systematic_error > series.random_error)

    def test_round_trip_bias_ensemble(self):
        # ensemble over seeds: the synthesize -> calibrate -> extract chain
        # must be unbiased well below the reported total error.  Per-seed
        # deviations carry a coherent calibration component (dC/C scales the
        # whole curve), so the finite-ensemble check allows the estimator's
        # own sampling noise on top of the 0.1 x total bias bound.
        spec, geom = short_campaign()
        z_fine, _, fprime_fine = truth_curves(spec, geom)
        n_seeds = 32
        devs = []
        total = None
        for seed in range(n_seeds):
            grid = synthesize_campaign(spec, geom, seed=seed)
            calib = calibrate(grid)
            series = extract_gradients(grid, calib)
            truth = np.interp(grid.z_rel, z_fine, fprime_fine)
            devs.append(series.mean - truth)
            total = series.total_error if total is None else total + series.total_error
        devs = np.asarray(devs)
        bias = devs.mean(axis=0)
        se = devs.std(axis=0, ddof=1) / math.sqrt(n_seeds)
        mean_total = total / n_seeds
        assert np.all(np.abs(bias) <= 0.1 * mean_total + 3.5 * se)
        assert np.abs(bias).mean() <= 0.1 * mean_total.mean()


def window_refits_alone(grid, calib):
    """Each quarter window's refit run on its own through _gauss_newton: (idx, fit, reads)."""
    par = fit_parabolas(grid)
    assert np.all(par.sigma_gamma > 0)
    weights = 1.0 / (par.sigma_gamma * par.sigma_gamma)
    table = analysis._fit_table(par.z_rel, calib.R)
    z0, half = calib.z0, analysis._WINDOW_HALF_WIDTH
    alone = []
    for idx in np.array_split(np.arange(par.z_rel.size), 4):
        [fit], reads = analysis._gauss_newton(
            [(par.z_rel[idx], par.gamma[idx], weights[idx], z0,
              max(analysis._Z0_BOUNDS[0], z0 - half), z0 + half)], table)
        alone.append((idx, fit, reads))
    return alone


def count_table_reads(monkeypatch):
    """A list that grows by one entry per GammaTable read."""
    reads = []
    table_call = electrostatics.GammaTable.__call__

    def spy(table, a, *args, **kwargs):
        reads.append(np.size(a))
        return table_call(table, a, *args, **kwargs)

    monkeypatch.setattr(electrostatics.GammaTable, "__call__", spy)
    return reads


class TestLockstepWindows:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_each_window_matches_its_refit_alone(self, n, seed):
        spec, geom = reference_campaign(n, "plasma")
        grid = synthesize_campaign(spec, geom, seed=seed)
        calib = calibrate(grid)
        for window, (idx, fit, _) in zip(calib.window_fits, window_refits_alone(grid, calib),
                                         strict=True):
            z0w, cw, *_ = fit
            # the joined read may move a window's last bits, never more
            assert (window.z_rel_lo, window.z_rel_hi) == (calib.z_rel[idx[0]],
                                                          calib.z_rel[idx[-1]])
            assert window.c_cal == pytest.approx(cw, rel=1e-14, abs=0.0)
            assert window.z0 == pytest.approx(z0w, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [1, 4])
    def test_one_read_per_step_serves_every_window(self, n, monkeypatch):
        spec, geom = reference_campaign(n, "plasma")
        grid = synthesize_campaign(spec, geom, seed=5)
        runs = []
        gauss_newton = analysis._gauss_newton

        def spy(windows, table):
            out, reads = gauss_newton(windows, table)
            runs.append((len(windows), reads))
            return out, reads

        monkeypatch.setattr(analysis, "_gauss_newton", spy)
        reads = count_table_reads(monkeypatch)
        calib = calibrate(grid)
        assert [k for k, _ in runs] == [1, 4]
        [(_, main_steps), (_, window_reads)] = runs
        monkeypatch.undo()
        steps = [k for _, _, k in window_refits_alone(grid, calib)]
        assert window_reads == max(steps)
        assert len(reads) == calib.gamma_evals == main_steps + max(steps)
        assert len(reads) < main_steps + sum(steps)
        # each window read joins the windows still running
        sizes = [idx.size for idx in np.array_split(np.arange(calib.z_rel.size), 4)]
        assert reads[main_steps:] == [sum(size for size, k in zip(sizes, steps) if k >= t)
                                      for t in range(1, window_reads + 1)]

    def test_gamma_evals_count_the_scan_fallbacks_reads(self, set1_grid, monkeypatch):
        _, geom, grid = set1_grid
        par = fit_parabolas(grid)
        sigma = par.sigma_gamma.copy()
        sigma[0] = 1e6 * par.gamma[0]
        gamma = par.gamma.copy()
        gamma[0] = gamma[gamma.size // 2] * (1.0 + 1e-9)
        reads = count_table_reads(monkeypatch)
        fit = fit_calibration(par.z_rel, gamma, sigma, geom.R)
        assert fit.scan_fallback
        assert fit.gamma_evals == len(reads)
        # the 80 scan candidates are read together, once
        assert reads.count(80 * par.z_rel.size) == 1


class TestSharedGammaTable:
    def test_series_runs_at_one_tables_nodes_then_not_at_all(self, monkeypatch):
        spec, geom = short_campaign()
        evaluated = []

        def spy(a, *args, **kwargs):
            evaluated.append(np.array(a, dtype=float))
            return gamma_over_c(a, *args, **kwargs)

        analysis._gamma_table.cache_clear()
        monkeypatch.setattr(electrostatics, "gamma_over_c", spy)
        grid = synthesize_campaign(spec, geom, seed=3)
        calib = calibrate(grid)
        extract_gradients(grid, calib)
        nodes = analysis._fit_table(calib.z_rel, calib.R)._curve.separations
        assert np.array_equal(np.sort(np.concatenate(evaluated)), np.sort(nodes))

        # a second seed of the same preset finds its range's table built
        evaluated.clear()
        grid = synthesize_campaign(spec, geom, seed=4)
        extract_gradients(grid, calibrate(grid))
        assert evaluated == []

    def test_extraction_reads_the_calibrations_table(self, set1_grid, monkeypatch):
        _, geom, grid = set1_grid
        calib = calibrate(grid)
        reads = []
        table_call = electrostatics.GammaTable.__call__

        def spy(table, a, slope=False):
            out = table_call(table, a, slope)
            reads.append((table, np.array(a), out))
            return out

        monkeypatch.setattr(electrostatics.GammaTable, "__call__", spy)
        extract_gradients(grid, calib)
        [(table, a, g)] = reads
        assert table is analysis._fit_table(calib.z_rel, geom.R)
        assert np.array_equal(a, calib.separations)
        ref = gamma_over_c(a, geom.R, tol=1e-14)
        assert np.all(np.abs(g - ref) <= 1e-10 * ref)

    def test_z0_outside_the_fit_range_leaves_the_table(self, set1_grid):
        # no fit returns such a z0: a hand-built one reads past the fit's table
        _, geom, grid = set1_grid
        calib = calibrate(grid)
        for z0 in (40e-9, 10.2e-6):
            with pytest.raises(ValidityDomainError, match="leave the interpolant"):
                extract_gradients(grid, dataclasses.replace(calib, z0=z0))


class TestStudentQuantile:
    def test_matches_scipy_for_every_df_to_30000(self):
        df = np.arange(1, 30001)
        ours = np.array([_t_quantile(0.835, int(k)) for k in df])
        assert np.all(np.abs(ours / stdtrit(df, 0.835) - 1.0) <= 1e-13)


class TestCombination:
    def test_cross_set_total_is_mean_of_totals(self, set1_grid):
        spec, geom, grid = set1_grid
        calib = calibrate(grid)
        s1 = extract_gradients(grid, calib)
        spec2 = dataclasses.replace(spec, freq_systematic=spec.freq_systematic * 2)
        grid2 = synthesize_campaign(spec2, geom, seed=8)
        s2 = extract_gradients(grid2, calibrate(grid2))
        common = np.arange(255, 480) * 1e-9
        combined = combine_gradient_series([s1, s2], grid=common)
        expect = 0.5 * (
            np.interp(common, s1.separations, s1.total_error)
            + np.interp(common, s2.separations, s2.total_error)
        )
        assert np.allclose(combined.total_error, expect, rtol=1e-12)
        assert combined.n_channels == 42

    def test_point_within_one_step_past_series_warns(self, set1_grid):
        _, _, grid = set1_grid
        s = extract_gradients(grid, calibrate(grid))
        step = np.max(np.diff(s.separations))
        common = np.append(s.separations[-5:], s.separations[-1] + 0.5 * step)
        with pytest.warns(UserWarning, match=r"series 0 .* past"):
            combined = combine_gradient_series([s], grid=common)
        assert combined.mean[-1] == s.mean[-1]

    def test_point_beyond_one_step_past_series_raises(self, set1_grid):
        _, _, grid = set1_grid
        s = extract_gradients(grid, calibrate(grid))
        step = np.max(np.diff(s.separations))
        for common in (np.append(s.separations[0] - 1.5 * step, s.separations[:5]),
                       np.append(s.separations[-5:], s.separations[-1] + 1.5 * step)):
            with pytest.raises(GridAlignmentError, match="series 0"):
                combine_gradient_series([s, s], grid=common)


@pytest.fixture(scope="module")
def compared(set1_grid):
    spec, geom, grid = set1_grid
    calib = calibrate(grid)
    series = extract_gradients(grid, calib)
    common = np.arange(250, 490) * 1e-9
    combined = combine_gradient_series([series], grid=common)
    theory = {
        tag: pressure_to_gradient_sweep(
            model_for_tag(tag), geom, BetaTable(), common
        ).values
        for tag in ("drude", "plasma")
    }
    return combined, theory


class TestCompare:
    def test_truth_model_is_consistent_everywhere(self, compared):
        combined, theory = compared
        report = compare_at_defaults(combined, theory)
        for w in report.windows["plasma"]:
            assert w.verdict == "consistent"
            assert w.fraction_outside < 0.33

    def test_wrong_model_is_excluded_at_close_range(self, compared):
        combined, theory = compared
        report = compare_at_defaults(combined, theory)
        for w in report.windows["drude"]:
            assert w.verdict == "excluded"

    def test_direct_and_complementary_counting_agree(self, compared):
        combined, theory = compared
        report = compare_at_defaults(combined, theory)
        for label in ("drude", "plasma"):
            d = report.differences[label]
            band = report.band[label]
            for w in report.windows[label]:
                a = report.separations
                mask = (a >= w.lo) & ((a <= w.hi) if w.hi >= a[-1] else (a < w.hi))
                outside = np.abs(d[mask]) > band[mask]
                frac_in = 1.0 - outside.mean()
                assert (w.verdict == "excluded") == (outside.mean() > 0.33)
                assert (w.verdict == "excluded") == (frac_in < 0.67)

    def test_unit_rescaling_invariance(self, set1_grid):
        spec, geom, grid = set1_grid
        scale = 1.7
        scaled = type(grid)(
            z_rel=grid.z_rel,
            shifts=grid.shifts * scale,
            spec=dataclasses.replace(spec, freq_systematic=spec.freq_systematic * scale,
                                     c_true=spec.c_true * scale),
            geometry=geom,
            seed=grid.seed,
        )
        common = np.arange(250, 490) * 1e-9
        theory = {
            "drude": pressure_to_gradient_sweep(
                model_for_tag("drude"), geom, BetaTable(), common
            ).values
        }
        reports = []
        for g in (grid, scaled):
            calib = calibrate(g)
            series = extract_gradients(g, calib)
            combined = combine_gradient_series([series], grid=common)
            reports.append(compare_at_defaults(combined, theory))
        for w0, w1 in zip(reports[0].windows["drude"], reports[1].windows["drude"]):
            assert w0.verdict == w1.verdict
            assert w0.fraction_outside == pytest.approx(w1.fraction_outside, abs=1e-12)

    def test_grid_mismatch_raises(self, compared):
        combined, theory = compared
        with pytest.raises(GridAlignmentError):
            compare_at_defaults(combined, {"drude": theory["drude"][:-5]})

    def test_default_windows_alignment(self):
        wins = default_windows(248e-9, 951e-9, 100e-9)
        assert wins[0] == (248e-9, pytest.approx(300e-9))
        assert wins[-1] == (pytest.approx(900e-9), 951e-9)
        widths = [hi - lo for lo, hi in wins[1:-1]]
        assert np.allclose(widths, 100e-9)


class TestSerializationHelpers:
    def test_calibration_text_fields(self, set1_grid):
        _, _, grid = set1_grid
        calib = calibrate(grid)
        text = calibration_text(calib)
        for token in ("c_cal_s_per_kg", "z0_nm", "v0_mean_mv", "columns: a_nm"):
            assert token in text

    def test_gradient_series_text_round_trip(self, set1_grid, tmp_path):
        _, _, grid = set1_grid
        calib = calibrate(grid)
        series = extract_gradients(grid, calib)
        path = tmp_path / "series.txt"
        path.write_text(gradient_series_text(series))
        back = load_gradient_series(path)
        assert np.allclose(back.mean, series.mean, rtol=1e-12, atol=0)
        assert np.allclose(back.total_error, series.total_error, rtol=1e-12, atol=0)
        assert np.allclose(back.separations, series.separations, rtol=1e-12)
        assert back.n_channels == series.n_channels


class TestComparisonText:
    def test_layout(self, set1_grid):
        spec, geom, grid = set1_grid
        calib = calibrate(grid)
        series = extract_gradients(grid, calib)
        common = np.arange(250, 490) * 1e-9
        combined = combine_gradient_series([series], grid=common)
        theory = {
            "plasma": pressure_to_gradient_sweep(
                model_for_tag("plasma"), geom, BetaTable(), common
            ).values
        }
        report = compare_at_defaults(combined, theory)
        text = comparison_text(report)
        assert "d_plasma_uN_per_m" in text
        assert "band_plasma_uN_per_m" in text
        assert "# window plasma" in text
