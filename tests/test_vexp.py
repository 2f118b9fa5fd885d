import dataclasses
import math

import numpy as np
import pytest

from casimirlab.electrostatics import gamma_over_c
from casimirlab.errors import ConfigError, ModelError, ValidityDomainError
from casimirlab.force_model import BetaTable, pressure_to_gradient_sweep
from casimirlab.vexp import (
    V0Law,
    load_grid,
    model_for_tag,
    reference_campaign,
    save_grid,
    synthesize_campaign,
    truth_curves,
)


def short_campaign(**overrides):
    """Set-1 parameters truncated to a short approach for fast tests."""
    spec, geom = reference_campaign(1)
    fields = dict(max_z_rel=50e-9)
    fields.update(overrides)
    return dataclasses.replace(spec, **fields), geom


class TestV0Law:
    def test_unit_round_trip(self):
        law = V0Law.from_mv(-8.48e-5, 10.7)
        assert law.slope_mv_per_nm == pytest.approx(-8.48e-5, rel=1e-12)
        assert law.intercept_mv == pytest.approx(10.7, rel=1e-12)
        # -8.48e-5 mV/nm over 500 nm is a -0.0424 mV drop
        assert law.v0(500e-9) * 1e3 == pytest.approx(10.7 - 0.0424, rel=1e-6)


class TestPresets:
    def test_set1_parameters(self):
        spec, geom = reference_campaign(1)
        assert spec.z0_true == pytest.approx(248.0e-9)
        assert spec.c_true == pytest.approx(6.485e5)
        assert spec.freq_systematic == pytest.approx(5.5e-2)
        assert spec.amplitude == pytest.approx(10e-9)
        assert len(spec.voltages) == 21
        varied = spec.voltages[:10]
        assert varied[0] == pytest.approx(-0.040)
        assert np.allclose(np.diff(varied), 0.010)
        assert set(spec.voltages[10:]) == {0.010}
        assert geom.R == pytest.approx(43.466e-6)

    def test_set4_parameters(self):
        spec, geom = reference_campaign(4)
        assert spec.z0_true == pytest.approx(571.9e-9)
        assert spec.c_true == pytest.approx(6.342e5)
        assert spec.freq_systematic == pytest.approx(4.0e-2)
        assert spec.amplitude == pytest.approx(20e-9)
        varied = spec.voltages[:10]
        assert varied[0] == pytest.approx(-0.092)
        assert np.allclose(np.diff(varied), 0.020)
        assert set(spec.voltages[10:]) == {0.008}
        # spans up to 1300 nm absolute separation
        assert spec.z0_true + spec.max_z_rel == pytest.approx(1300e-9)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            reference_campaign(9)


class TestSpecValidation:
    def test_wrong_voltage_count(self):
        spec, _ = reference_campaign(1)
        with pytest.raises(ModelError):
            dataclasses.replace(spec, voltages=spec.voltages[:20])

    def test_sample_step_bound(self):
        spec, _ = reference_campaign(1)
        with pytest.raises(ModelError):
            dataclasses.replace(spec, sample_step=2e-9)

    def test_range_escaping_validity_errors_before_generation(self):
        spec, geom = short_campaign(z0_true=100e-9)
        with pytest.raises(ValidityDomainError):
            synthesize_campaign(spec, geom, seed=0)


class TestSynthesis:
    def test_seed_determinism(self):
        spec, geom = short_campaign()
        g1 = synthesize_campaign(spec, geom, seed=123)
        g2 = synthesize_campaign(spec, geom, seed=123)
        assert np.array_equal(g1.shifts, g2.shifts)
        g3 = synthesize_campaign(spec, geom, seed=124)
        assert not np.array_equal(g1.shifts, g3.shifts)

    def test_noiseless_apex_grid(self):
        # all channels at the residual potential, no noise: the grid is the
        # pure force channel up to the documented interpolation error
        spec, geom = short_campaign(
            freq_systematic=0.0,
            v0_law=V0Law(0.0, 0.010),
            voltages=(0.010,) * 21,
        )
        grid = synthesize_campaign(spec, geom, seed=0)
        a = grid.separations
        direct = -spec.c_true * pressure_to_gradient_sweep(
            model_for_tag(spec.truth_tag), geom, BetaTable(), a
        ).values
        d2 = np.gradient(np.gradient(direct, a), a)
        bound = np.abs(d2).max() * spec.sample_step**2 / 8.0
        err = np.abs(grid.shifts[0, 0] - direct)
        assert err.max() <= bound * 1.05 + 1e-12
        # all 21 channels identical in this degenerate setup
        assert np.allclose(grid.shifts, grid.shifts[0, 0][None, None, :], rtol=0, atol=0)

    def test_noiseless_grid_matches_shift_model(self):
        spec, geom = short_campaign(freq_systematic=0.0)
        grid = synthesize_campaign(spec, geom, seed=0)
        z_fine, gamma_fine, fprime_fine = truth_curves(spec, geom)
        a_fine = spec.z0_true + z_fine
        v = np.asarray(spec.voltages)
        expect_fine = -gamma_fine[None, :] * (v[:, None] - spec.v0_law.v0(a_fine)[None, :]) ** 2 \
            - spec.c_true * fprime_fine[None, :]
        for vi in (0, 5, 20):
            expected = np.interp(grid.z_rel, z_fine, expect_fine[vi])
            assert np.allclose(grid.shifts[vi, 0], expected, rtol=0, atol=1e-12)

    def test_shifts_negative_under_attraction(self):
        spec, geom = short_campaign(freq_systematic=0.0)
        grid = synthesize_campaign(spec, geom, seed=0)
        assert np.all(grid.shifts < 0.0)

    def test_ensemble_mean_converges_to_noiseless_model(self):
        n_rep = 1000
        spec, geom = short_campaign(max_z_rel=4e-9, repetitions=n_rep)
        noiseless, _ = short_campaign(max_z_rel=4e-9, freq_systematic=0.0)
        grid = synthesize_campaign(spec, geom, seed=42)
        ref = synthesize_campaign(noiseless, geom, seed=0)
        dev = grid.shifts.mean(axis=1) - ref.shifts[:, 0, :]
        scale = spec.freq_systematic / np.sqrt(n_rep)
        z = np.abs(dev) / scale
        # per-point tolerance 3 sigma/sqrt(N); allow the binomial tail over
        # all (voltage, separation) points
        assert (z < 3.0).mean() > 0.98
        assert z.max() < 5.0

    def test_drift_option_shifts_streams(self):
        spec, geom = short_campaign(freq_systematic=0.0)
        drifting = dataclasses.replace(spec, drift_per_stream=0.05e-9)
        g0 = synthesize_campaign(spec, geom, seed=1)
        g1 = synthesize_campaign(drifting, geom, seed=1)
        # stream 0 has no accumulated drift; later streams differ
        assert np.allclose(g0.shifts[0, 0], g1.shifts[0, 0], rtol=0, atol=1e-12)
        assert not np.allclose(g0.shifts[20, 0], g1.shifts[20, 0])

    def test_drift_leaves_noise_draws_unchanged(self):
        spec, geom = short_campaign(repetitions=2)
        assert spec.freq_systematic > 0.0
        drifting = dataclasses.replace(spec, drift_per_stream=0.05e-9)
        plain = synthesize_campaign(spec, geom, seed=5)
        drift = synthesize_campaign(drifting, geom, seed=5)
        assert np.array_equal(plain.shifts[0, 0], drift.shifts[0, 0])
        # every later stream carries the same noise as without drift
        quiet = dataclasses.replace(spec, freq_systematic=0.0)
        noise = plain.shifts - synthesize_campaign(quiet, geom, seed=5).shifts
        drift_noise = drift.shifts - synthesize_campaign(
            dataclasses.replace(drifting, freq_systematic=0.0), geom, seed=5).shifts
        assert np.allclose(drift_noise, noise, rtol=0, atol=1e-12)


def dense_lattice_synthesis(spec, seed, z_fine, gamma_fine, fprime_fine):
    """Synthesis that builds every stream at every sample_step lattice point.

    The reference for synthesize_campaign, which builds the streams and the
    truth curves only where the interpolation onto the grid reads them.
    """
    a_fine = spec.z0_true + z_fine
    v0_fine = spec.v0_law.v0(a_fine)
    n_grid = int(math.floor(spec.max_z_rel / spec.grid_step + 0.5)) + 1
    z_grid = spec.grid_step * np.arange(n_grid)
    shifts = np.empty((21, spec.repetitions, n_grid))
    for vi, v in enumerate(spec.voltages):
        for rep in range(spec.repetitions):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(vi, rep)))
            off = spec.drift_per_stream * (rep * 21 + vi)
            g, f, v0 = gamma_fine, fprime_fine, v0_fine
            if off != 0.0:
                g = np.interp(z_fine + off, z_fine, gamma_fine)
                f = np.interp(z_fine + off, z_fine, fprime_fine)
                v0 = spec.v0_law.v0(a_fine + off)
            stream = -g * (v - v0) ** 2 - spec.c_true * f \
                + rng.normal(0.0, spec.freq_systematic, z_fine.size)
            shifts[vi, rep] = np.interp(z_grid, z_fine, stream)
    return shifts


class TestSparseSampling:
    @pytest.fixture(scope="class")
    def dense_truth(self):
        spec, geom = short_campaign()
        n_fine = math.ceil(spec.max_z_rel / spec.sample_step) + 1
        z_fine = spec.sample_step * np.arange(n_fine + 1)
        a_fine = spec.z0_true + z_fine
        gamma_fine = spec.c_true * gamma_over_c(a_fine, geom.R)
        fprime_fine = pressure_to_gradient_sweep(
            model_for_tag(spec.truth_tag), geom, BetaTable(), a_fine
        ).values
        return z_fine, gamma_fine, fprime_fine

    @pytest.mark.parametrize("drift, repetitions", [
        (0.0, 1), (0.05e-9, 1), (-0.02e-9, 1), (0.3e-9, 2),
    ])
    def test_bit_identical_to_dense_lattice(self, dense_truth, drift, repetitions):
        spec, geom = short_campaign(drift_per_stream=drift, repetitions=repetitions)
        assert spec.freq_systematic > 0.0
        grid = synthesize_campaign(spec, geom, seed=8)
        assert np.array_equal(grid.shifts, dense_lattice_synthesis(spec, 8, *dense_truth))

    def test_truth_read_only_at_grid_brackets(self, dense_truth):
        spec, geom = short_campaign()
        z_rel, gamma, fprime = truth_curves(spec, geom)
        n_grid = int(math.floor(spec.max_z_rel / spec.grid_step + 0.5)) + 1
        assert z_rel.size <= 2 * n_grid + 2
        assert z_rel.size == gamma.size == fprime.size
        z_fine, gamma_fine, fprime_fine = dense_truth
        idx = np.searchsorted(z_fine, z_rel)
        assert np.array_equal(z_fine[idx], z_rel)
        assert np.array_equal(gamma_fine[idx], gamma)
        assert np.array_equal(fprime_fine[idx], fprime)


class TestTruthCurves:
    def test_gamma_curve_matches_direct_evaluation(self):
        spec, geom = short_campaign()
        z_fine, gamma_fine, _ = truth_curves(spec, geom)
        idx = [0, z_fine.size // 2, z_fine.size - 1]
        a = spec.z0_true + z_fine[idx]
        assert gamma_fine[idx] == pytest.approx(spec.c_true * gamma_over_c(a, geom.R), rel=1e-12)


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        spec, geom = short_campaign()
        grid = synthesize_campaign(spec, geom, seed=9)
        path = tmp_path / "grid.txt"
        save_grid(grid, path)
        back = load_grid(path)
        assert np.array_equal(back.shifts, grid.shifts)
        assert np.allclose(back.z_rel, grid.z_rel, rtol=0, atol=1e-18)
        assert back.spec == grid.spec
        assert back.geometry == grid.geometry
        assert back.seed == grid.seed

    def test_file_layout(self, tmp_path):
        spec, geom = short_campaign()
        grid = synthesize_campaign(spec, geom, seed=9)
        path = tmp_path / "grid.txt"
        save_grid(grid, path)
        text = path.read_text()
        assert text.startswith("# casimirlab measurement grid")
        assert "# block voltage_index = 0 repetition = 0" in text
        assert "# columns: a_nm  delta_omega_rad_s" in text
        n_blocks = text.count("# block ")
        assert n_blocks == 21 * spec.repetitions

    def test_separation_column_must_match_grid(self, tmp_path):
        spec, geom = short_campaign()
        path = tmp_path / "grid.txt"
        save_grid(synthesize_campaign(spec, geom, seed=9), path)
        lines = path.read_text().splitlines()
        # shift one separation of the last block by 1 pm; the shift stays put
        i = len(lines) - 3
        a_nm, shift = lines[i].split()
        lines[i] = f"{float(a_nm) + 1e-3:.6f} {shift}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="a_nm"):
            load_grid(path)
        lines[i] = a_nm
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="malformed"):
            load_grid(path)
