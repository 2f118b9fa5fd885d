import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimirlab.analysis import (
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
    spec, geom = reference_campaign(n)
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

    def test_set3_round_trip(self):
        spec, geom = reference_campaign(3)
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

    def test_minimum_at_z0_bound_raises(self, set1_grid):
        spec, geom, grid = set1_grid
        par = fit_parabolas(grid)
        with pytest.raises(FitConvergenceError):
            fit_calibration(par.z_rel, par.gamma, par.sigma_gamma, geom.R,
                            z0_bounds=(spec.z0_true + 40e-9, 10e-6))

    def test_run_statistics(self):
        spec, geom = reference_campaign(1)
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

    def test_z0_bounds_domain_error(self, set1_grid):
        from casimirlab.errors import ValidityDomainError

        _, geom, grid = set1_grid
        par = fit_parabolas(grid)
        with pytest.raises(ValidityDomainError):
            fit_calibration(par.z_rel, par.gamma, par.sigma_gamma, geom.R,
                            z0_bounds=(5e-6, 20e-6))


class TestExtraction:
    def test_noiseless_inversion_recovers_truth(self, noiseless_setup):
        spec, geom, grid = noiseless_setup
        calib = calibrate(grid)
        series = extract_gradients(grid, calib)
        z_fine, _, fprime_fine = truth_curves(spec, geom)
        expected = np.interp(grid.z_rel, z_fine, fprime_fine)
        assert np.allclose(series.mean, expected, rtol=1e-6)
        assert series.n_channels == 21

    def test_missing_channels_dropped_with_warning(self, noiseless_setup):
        spec, geom, grid = noiseless_setup
        calib = calibrate(grid)
        holed = type(grid)(
            z_rel=grid.z_rel, shifts=grid.shifts.copy(), spec=grid.spec,
            geometry=grid.geometry, seed=grid.seed,
        )
        holed.shifts[3, 0, 10] = np.nan
        with pytest.warns(UserWarning):
            series = extract_gradients(holed, calib)
        assert np.all(np.isfinite(series.mean))

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

    def test_non_overlapping_series_rejected(self, set1_grid):
        _, _, grid = set1_grid
        calib = calibrate(grid)
        s = extract_gradients(grid, calib)
        far = dataclasses.replace(s)
        far.separations = s.separations + 1e-6
        with pytest.raises(GridAlignmentError):
            combine_gradient_series([s, far])

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
        report = compare(combined, theory)
        for w in report.windows["plasma"]:
            assert w.verdict == "consistent"
            assert w.fraction_outside < 0.33

    def test_wrong_model_is_excluded_at_close_range(self, compared):
        combined, theory = compared
        report = compare(combined, theory)
        for w in report.windows["drude"]:
            assert w.verdict == "excluded"

    def test_direct_and_complementary_counting_agree(self, compared):
        combined, theory = compared
        report = compare(combined, theory)
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
            reports.append(compare(combined, theory))
        for w0, w1 in zip(reports[0].windows["drude"], reports[1].windows["drude"]):
            assert w0.verdict == w1.verdict
            assert w0.fraction_outside == pytest.approx(w1.fraction_outside, abs=1e-12)

    def test_grid_mismatch_raises(self, compared):
        combined, theory = compared
        with pytest.raises(GridAlignmentError):
            compare(combined, {"drude": theory["drude"][:-5]})

    def test_default_windows_alignment(self):
        wins = default_windows(248e-9, 951e-9)
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
        report = compare(combined, theory)
        text = comparison_text(report)
        assert "d_plasma_uN_per_m" in text
        assert "band_plasma_uN_per_m" in text
        assert "# window plasma" in text
