import dataclasses
import math
import re

import numpy as np
import pytest

from casimirlab import vexp
from casimirlab.analysis import calibrate, calibration_text
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
    spec, geom = reference_campaign(1, "plasma")
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
        spec, geom = reference_campaign(1, "plasma")
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
        spec, geom = reference_campaign(4, "plasma")
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
            reference_campaign(9, "plasma")

    def test_presets_share_the_physical_geometry(self):
        # pipeline compares every set against one theory curve, built with the
        # last set's geometry; only the validity bounds may differ
        reference = vexp.reference_geometry()
        for n in (1, 2, 3, 4):
            _, geom = reference_campaign(n, "plasma")
            for name in ("R", "delta_s", "delta_p", "temperature"):
                assert getattr(geom, name) == getattr(reference, name), (n, name)


class TestSpecValidation:
    def test_wrong_voltage_count(self):
        spec, _ = reference_campaign(1, "plasma")
        with pytest.raises(ModelError):
            dataclasses.replace(spec, voltages=spec.voltages[:20])

    @staticmethod
    def _rejects(field, values):
        spec, _ = reference_campaign(1, "plasma")
        for value in values:
            with pytest.raises(ModelError, match=field):
                dataclasses.replace(spec, **{field: value})

    def test_freq_systematic_finite_non_negative(self):
        self._rejects("freq_systematic", [-0.055, math.nan, math.inf])

    def test_amplitude_finite_non_negative(self):
        self._rejects("amplitude", [-10e-9, math.nan, math.inf])

    def test_max_z_rel_finite_positive(self):
        self._rejects("max_z_rel", [math.inf, 0.0, math.nan])

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
        bound = np.abs(d2).max() * vexp._SAMPLE_STEP**2 / 8.0
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


def dense_lattice_synthesis(spec, seed, z_fine, gamma_fine, fprime_fine):
    """Synthesis that builds every stream at every lattice point (_SAMPLE_STEP).

    The reference for synthesize_campaign, which builds each stream only
    where the interpolation onto the grid reads it.  The deterministic
    shift covers the whole lattice; draw k of a stream's generator is added
    at its k-th read sample, the samples bracketing a grid point, and the
    stream is interpolated from the dense lattice.
    """
    v0_fine = spec.v0_law.v0(spec.z0_true + z_fine)
    n_grid = int(math.floor(spec.max_z_rel / vexp._GRID_STEP + 0.5)) + 1
    z_grid = vexp._GRID_STEP * np.arange(n_grid)
    j = np.searchsorted(z_fine, z_grid, side="right") - 1
    read = np.unique(np.concatenate([j, j + 1]))
    assert read[-1] < z_fine.size
    shifts = np.empty((21, spec.repetitions, n_grid))
    for vi, v in enumerate(spec.voltages):
        for rep in range(spec.repetitions):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(vi, rep)))
            noise = np.zeros(z_fine.size)
            noise[read] = spec.freq_systematic * rng.standard_normal(read.size)
            stream = -gamma_fine * (v - v0_fine) ** 2 - spec.c_true * fprime_fine + noise
            shifts[vi, rep] = np.interp(z_grid, z_fine, stream)
    return shifts


class TestSparseSampling:
    @pytest.fixture(scope="class")
    def dense_truth(self):
        spec, geom = short_campaign()
        z_fine, gamma_fine, fprime_fine = truth_curves(spec, geom)
        n_fine = math.ceil(spec.max_z_rel / vexp._SAMPLE_STEP) + 1
        assert np.array_equal(z_fine, vexp._SAMPLE_STEP * np.arange(n_fine + 1))
        return z_fine, gamma_fine, fprime_fine

    @pytest.mark.parametrize("repetitions", [1, 2])
    def test_bit_identical_to_dense_lattice(self, dense_truth, repetitions):
        spec, geom = short_campaign(repetitions=repetitions)
        assert spec.freq_systematic > 0.0
        grid = synthesize_campaign(spec, geom, seed=8)
        assert np.array_equal(grid.shifts, dense_lattice_synthesis(spec, 8, *dense_truth))

    def test_stream_rebuilt_from_its_own_spawn_key(self):
        spec, geom = short_campaign(repetitions=3)
        grid = synthesize_campaign(spec, geom, seed=5)
        z_fine, gamma_fine, fprime_fine = truth_curves(spec, geom)
        _, z_grid, stream_idx = vexp._lattice(spec)
        z, gamma, fprime = z_fine[stream_idx], gamma_fine[stream_idx], fprime_fine[stream_idx]
        vi, rep = 13, 2
        rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(vi, rep)))
        noise = spec.freq_systematic * rng.standard_normal(z.size)
        v0_a = spec.v0_law.v0(spec.z0_true + z)
        stream = -gamma * (spec.voltages[vi] - v0_a) ** 2 - spec.c_true * fprime + noise
        assert np.array_equal(grid.shifts[vi, rep], np.interp(z_grid, z, stream))

    def test_noiseless_spec_equals_dense_deterministic_model(self, dense_truth):
        spec, geom = short_campaign(freq_systematic=0.0, repetitions=2)
        z_fine, gamma_fine, fprime_fine = dense_truth
        v0_fine = spec.v0_law.v0(spec.z0_true + z_fine)
        grid = synthesize_campaign(spec, geom, seed=8)
        for vi, v in enumerate(spec.voltages):
            dense = -gamma_fine * (v - v0_fine) ** 2 - spec.c_true * fprime_fine
            expected = np.interp(grid.z_rel, z_fine, dense)
            for rep in range(spec.repetitions):
                assert np.array_equal(grid.shifts[vi, rep], expected)

    def test_rows_interpolate_as_np_interp(self):
        rng = np.random.default_rng(4)
        xp = np.cumsum(rng.uniform(0.1, 1.0, 40))
        fp = rng.normal(size=(5, xp.size)) * np.logspace(-3, 3, 5)[:, None]
        # both ends, every fifth sample and points between samples
        x = np.sort(np.concatenate([xp[::5], xp[[0, -1]], rng.uniform(xp[0], xp[-1], 300)]))
        rows = vexp._interp_rows(x, xp, fp)
        assert np.array_equal(rows, [np.interp(x, xp, f) for f in fp])

    def test_lattice_is_built_once_and_read_only(self):
        spec, geom = short_campaign()
        lattice = vexp._lattice(spec)
        assert vexp._lattice(dataclasses.replace(spec)) is lattice
        for arr in lattice:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        # a grid owns its separations
        first = synthesize_campaign(spec, geom, seed=8)
        first.z_rel[0] = 1.0
        assert synthesize_campaign(spec, geom, seed=8).z_rel[0] == 0.0

    def test_grid_points_never_pass_the_span(self):
        # a whole number of steps keeps its last point however the division
        # rounds: the benchmark's 701-point theory grids, at any start, and
        # the presets' 702-728.1 nm approaches; a part step adds no point
        for start in np.random.default_rng(5).uniform(0.0, 1.0, 500) + [[250.0], [600.0]]:
            assert {vexp._grid_points(stop - a, 1.0) for a, stop in zip(start, start + 700)} \
                == {701}
        sizes = [vexp._lattice(reference_campaign(n, "plasma")[0])[1].size for n in (1, 2, 3, 4)]
        assert sizes == [703, 711, 717, 729]
        assert vexp._grid_points(2.6, 1.0) == 3 and vexp._grid_points(2.5, 1.0) == 3

    def test_grid_ends_within_the_sampled_approach(self):
        # 600.6 nm took 601 grid steps, past the lattice's last sample at 600.74 nm
        spec, geom = short_campaign(z0_true=260e-9, max_z_rel=600.6e-9)
        grid = synthesize_campaign(spec, geom, seed=7)
        assert grid.z_rel.size == 601
        assert grid.z_rel[-1] == pytest.approx(600e-9, abs=1e-18)

    def test_truth_range_is_the_lattice_ends(self):
        # bit for bit, on every preset, without building the lattice
        for n in (1, 2, 3, 4):
            spec, _ = reference_campaign(n, "plasma")
            z_fine = vexp._lattice(spec)[0]
            assert vexp.truth_range(spec) == tuple(spec.z0_true + z_fine[[0, -1]])

    def test_grid_range_is_the_grid_ends(self, monkeypatch):
        # bit for bit, on every preset; a 1 km approach (7e12 samples) returns
        # without the lattice
        for n in (1, 2, 3, 4):
            spec, _ = reference_campaign(n, "plasma")
            assert vexp.grid_range(spec) == tuple(spec.z0_true + vexp._lattice(spec)[1][[0, -1]])

        def unbuilt(spec):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(vexp, "_lattice", unbuilt)
        spec = dataclasses.replace(spec, max_z_rel=1e3)
        assert vexp.grid_range(spec) == (spec.z0_true, pytest.approx(spec.z0_true + 1e3))

    def test_a_truth_range_outside_the_geometry_raises_before_the_lattice(self, monkeypatch):
        # a 1 km approach would need a lattice of 7e12 samples (52 TiB)
        spec, geom = reference_campaign(1, "plasma")
        spec = dataclasses.replace(spec, max_z_rel=1e3)

        def unbuilt(spec):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(vexp, "_lattice", unbuilt)
        with pytest.raises(ValidityDomainError, match="a/R"):
            synthesize_campaign(spec, geom, 0)

    def test_truth_curves_are_read_only(self):
        spec, geom = short_campaign()
        first = synthesize_campaign(spec, geom, seed=3)
        _, gamma, fprime = truth_curves(spec, geom)
        for arr in (gamma, fprime):
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2
        assert np.array_equal(synthesize_campaign(spec, geom, seed=3).shifts, first.shifts)


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

    def _with_drift_line(self, tmp_path, value):
        """A saved grid with the drift_per_stream_m line older files carry."""
        spec, geom = short_campaign()
        grid = synthesize_campaign(spec, geom, seed=9)
        path = tmp_path / "grid.txt"
        save_grid(grid, path)
        text = path.read_text()
        assert "drift" not in text
        anchor = "# voltages_V = "
        path.write_text(text.replace(anchor, f"# drift_per_stream_m = {value}\n{anchor}"))
        return grid, path

    def test_zero_drift_line_still_loads(self, tmp_path):
        grid, path = self._with_drift_line(tmp_path, "0.0")
        back = load_grid(path)
        assert np.array_equal(back.shifts, grid.shifts)
        assert back.spec == grid.spec

    def test_nonzero_drift_line_is_a_config_error(self, tmp_path):
        _, path = self._with_drift_line(tmp_path, "5e-11")
        with pytest.raises(ConfigError, match="drift_per_stream_m"):
            load_grid(path)

    def test_a_max_line_of_older_files_still_loads(self, tmp_path):
        # files written while Geometry had an a_max bound carry its header
        # line, and files written while CampaignSpec held the sampling and
        # grid steps carry theirs; 150 nm is enough approach to calibrate
        spec, geom = short_campaign(max_z_rel=150e-9)
        grid = synthesize_campaign(spec, geom, seed=9)
        path = tmp_path / "grid.txt"
        save_grid(grid, path)
        text = path.read_text()
        assert "a_max" not in text and "step" not in text
        steps = "# sample_step_m = 1.4e-10\n# grid_step_m = 1e-09\n"
        text = text.replace("# max_z_rel_m = ", f"{steps}# max_z_rel_m = ")
        path.write_text(text.replace("# a_min_m = ", "# a_max_m = 2e-06\n# a_min_m = "))
        back = load_grid(path)
        assert np.array_equal(back.shifts, grid.shifts)
        assert (back.spec, back.geometry) == (grid.spec, grid.geometry)
        assert calibration_text(calibrate(back)) == calibration_text(calibrate(grid))

    @pytest.mark.parametrize("column", [0, 1], ids=["a_nm", "shift"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_row_is_a_config_error(self, tmp_path, column, value):
        spec, geom = short_campaign()
        path = tmp_path / "grid.txt"
        save_grid(synthesize_campaign(spec, geom, seed=9), path)
        lines = path.read_text().splitlines()
        # row 3 of the block voltage_index = 2 repetition = 0
        i = lines.index("# block voltage_index = 2 repetition = 0") + 1 + 3
        row = lines[i].split()
        row[column] = value
        lines[i] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: block voltage_index = 2 repetition = 0, row 3 holds a non-finite "
                "number: [")):
            load_grid(path)
