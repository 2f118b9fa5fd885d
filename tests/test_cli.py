import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import casimirlab
from casimirlab import cli
from casimirlab.analysis import GradientSeries, gradient_series_text
from casimirlab.cli import main
from casimirlab.lifshitz import casimir_pressure
from casimirlab.vexp import model_for_tag


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    return [l for l in path.read_text().splitlines() if l and not l.startswith("#")]


@pytest.fixture()
def theory_config(tmp_path):
    cfg = tmp_path / "theory.ini"
    cfg.write_text(
        "[theory]\n"
        "a_start_nm = 250\n"
        "a_stop_nm = 950\n"
        "a_step_nm = 1\n"
        "tol = 1e-7\n"
    )
    return cfg


@pytest.fixture()
def short_pipeline_config(tmp_path):
    # explicit short campaign keeps CLI tests quick
    cfg = tmp_path / "pipe.ini"
    cfg.write_text(
        "[campaign]\n"
        "preset = 1\n"
        "truth = plasma\n"
        "seed = 3\n"
        "[pipeline]\n"
        "sets = 1\n"
        "truth = plasma\n"
        "seed = 5\n"
        "[theory]\n"
        "tol = 1e-7\n"
        "[compare]\n"
        "grid_start_nm = 250\n"
        "grid_stop_nm = 950\n"
        "window_nm = 100\n"
    )
    return cfg


class TestTheory:
    def test_row_count_and_rerun_identical(self, tmp_path, theory_config):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["theory", "--config", theory_config, "--out", out1]) == 0
        assert run(["theory", "--config", theory_config, "--out", out2]) == 0
        rows = read_rows(out1 / "theory_gradients.txt")
        assert len(rows) == 701
        assert (out1 / "theory_gradients.txt").read_bytes() == (
            out2 / "theory_gradients.txt"
        ).read_bytes()
        assert (out1 / "theory_pressures.txt").read_bytes() == (
            out2 / "theory_pressures.txt"
        ).read_bytes()

    def test_manifest_header(self, tmp_path, theory_config):
        out = tmp_path / "r"
        run(["theory", "--config", theory_config, "--out", out, "--model", "drude"])
        text = (out / "theory_gradients.txt").read_text()
        for token in ("# command = theory", "# model = drude", "# tol =", "# r_um ="):
            assert token in text
        rows = read_rows(out / "theory_gradients.txt")
        assert len(rows[0].split()) == 3  # a, gradient, truncation

    def test_both_models_ordered_columns(self, tmp_path, theory_config):
        out = tmp_path / "r"
        run(["theory", "--config", theory_config, "--out", out])
        rows = read_rows(out / "theory_gradients.txt")
        a, fd, fp, *_ = (float(tok) for tok in rows[0].split())
        assert a == 250.0
        assert fp > fd > 0

    def test_pressures_match_per_point_evaluation(self, tmp_path):
        # theory_pressures.txt is written from the gradient sweeps; every
        # row must still equal a per-point pressure at the command's tol
        cfg = tmp_path / "short.ini"
        cfg.write_text("[theory]\na_start_nm = 250\na_stop_nm = 950\na_step_nm = 35\ntol = 1e-8\n")
        out = tmp_path / "r"
        assert run(["theory", "--config", cfg, "--out", out, "--model", "both"]) == 0
        text = (out / "theory_pressures.txt").read_text()
        assert "# columns: a_nm  P_drude_Pa  P_plasma_Pa  trunc_drude_Pa  trunc_plasma_Pa" in text
        rows = read_rows(out / "theory_pressures.txt")
        assert len(rows) == 21
        for row in rows:
            a_nm, *cols = row.split()
            res = [casimir_pressure(model_for_tag(tag), float(a_nm) * 1e-9, 293.15, 1e-8)
                   for tag in ("drude", "plasma")]
            want = [f"{r.pressure:.9e}" for r in res] + [f"{r.truncation_error_estimate:.3e}" for r in res]
            assert cols == want, a_nm


class TestPipeline:
    def test_full_chain_and_composition(self, tmp_path, short_pipeline_config):
        out = tmp_path / "pipe"
        assert run(["pipeline", "--config", short_pipeline_config, "--out", out,
                    "--tol", "1e-7"]) == 0
        for name in ("grid_set1_seed6.txt", "calibration_set1.txt",
                     "gradients_set1.txt", "gradients_combined.txt",
                     "comparison.txt", "manifest.txt"):
            assert (out / name).exists(), name

        # composition: synth with the same per-set seed gives the same grid
        out2 = tmp_path / "manual"
        cfg2 = tmp_path / "synth.ini"
        cfg2.write_text("[campaign]\npreset = 1\ntruth = plasma\n")
        assert run(["synth", "--config", cfg2, "--seed", "6", "--out", out2]) == 0
        manual_grid = out2 / "grid_set1_seed6.txt"
        assert manual_grid.read_bytes() == (out / "grid_set1_seed6.txt").read_bytes()

        # calibrate on the saved grid reproduces the pipeline's numbers
        assert run(["calibrate", "--grid", manual_grid, "--out", out2,
                    "--config", cfg2]) == 0
        manual = (out2 / "calibration_grid_set1_seed6.txt").read_text()
        piped = (out / "calibration_set1.txt").read_text()

        def value(text, key):
            for line in text.splitlines():
                if line.startswith(f"# {key}"):
                    return float(line.split("=")[1])
            raise KeyError(key)

        for key in ("c_cal_s_per_kg", "z0_nm", "v0_mean_mv"):
            assert value(manual, key) == value(piped, key)

        # compare on the saved gradient series reproduces the verdict table
        assert run(["compare", "--gradients", out2 / "gradients_grid_set1_seed6.txt",
                    "--config", short_pipeline_config, "--out", out2,
                    "--tol", "1e-7"]) == 0
        manual_cmp = [l for l in (out2 / "comparison.txt").read_text().splitlines()
                      if l.startswith("# window")]
        piped_cmp = [l for l in (out / "comparison.txt").read_text().splitlines()
                     if l.startswith("# window")]
        assert manual_cmp == piped_cmp

        # single plasma-truth set: the dissipative theory is excluded through
        # the close-range windows, the dissipationless one consistent everywhere
        for line in piped_cmp:
            _, _, label, rng, *_rest = line.split(None, 4)
            verdict = line.rsplit(",", 1)[1].strip()
            hi = float(rng.split("..")[1])
            if label == "plasma":
                assert verdict == "consistent", line
            elif hi <= 800:
                assert verdict == "excluded", line

    def test_rerun_is_byte_identical(self, tmp_path, short_pipeline_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["pipeline", "--config", short_pipeline_config, "--out", out1, "--tol", "1e-7"])
        run(["pipeline", "--config", short_pipeline_config, "--out", out2, "--tol", "1e-7"])
        for name in ("comparison.txt", "manifest.txt", "gradients_combined.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestImport:
    def test_cli_import_leaves_heavy_scipy_modules_out(self):
        # a fresh interpreter, so that no other test's imports count
        src = str(Path(casimirlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, casimirlab.cli; print(' '.join(m for m in ('scipy.stats', "
                "'scipy.interpolate', 'scipy.constants', 'scipy.special') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == ""


class TestErrors:
    def test_pipeline_rejects_sets_with_different_geometry(self, tmp_path, monkeypatch, capsys):
        preset = cli.reference_campaign

        def campaign(n, truth="plasma"):
            spec, geometry = preset(n, truth)
            if n == 2:
                geometry = dataclasses.replace(geometry, R=40e-6)
            return spec, geometry

        monkeypatch.setattr(cli, "reference_campaign", campaign)
        cfg = tmp_path / "two.ini"
        cfg.write_text("[pipeline]\nsets = 1,2\n")
        assert run(["pipeline", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "set 2 has R" in err and "set 1" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path):
        assert run(["theory", "--config", tmp_path / "nope.ini", "--out", tmp_path]) == 2

    def test_calibrate_needs_grid(self, tmp_path):
        assert run(["calibrate", "--out", tmp_path]) == 2

    def test_compare_needs_gradients(self, tmp_path):
        assert run(["compare", "--out", tmp_path]) == 2

    def test_synth_needs_campaign(self, tmp_path):
        cfg = tmp_path / "empty.ini"
        cfg.write_text("[theory]\ntol = 1e-8\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path]) == 2

    def test_malformed_value_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[geometry]\nr_um = not_a_number\n")
        assert run(["theory", "--config", cfg, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "r_um" in err

    @pytest.mark.parametrize("command, ini", [
        ("theory", "[theory]\na_step_nm = 0\n"),
        ("theory", "[theory]\na_start_nm = 500\na_stop_nm = 400\n"),
        ("pipeline", "[pipeline]\nsets = 1,x\n"),
        ("pipeline", "[pipeline]\nseed = x\n"),
        ("synth", "[campaign]\npreset = 1\nseed = x\n"),
    ], ids=["theory-zero-step", "theory-stop-below-start", "pipeline-sets", "pipeline-seed",
            "campaign-seed"])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, command, ini):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_numeric_compare_interval_is_a_config_error(self, tmp_path, capsys):
        a = np.arange(300, 401) * 1e-9
        ones = np.ones_like(a)
        gradients = tmp_path / "gradients.txt"
        gradients.write_text(gradient_series_text(GradientSeries(a, ones, ones, ones, ones, 21)))
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[compare]\nintervals = 300:x\n")
        assert run(["compare", "--gradients", gradients, "--config", cfg,
                    "--out", tmp_path / "out"]) == 2
        assert "intervals" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, tol_flag, ini", [
        ("theory", "1e-2", ""),
        ("theory", None, "[theory]\ntol = 1e-13\n"),
        ("compare", "nan", ""),
        ("compare", None, "[theory]\ntol = 0\n"),
        ("pipeline", "-1", ""),
        ("pipeline", None, "[theory]\ntol = nan\n"),
    ], ids=["theory-flag", "theory-config", "compare-flag", "compare-config",
            "pipeline-flag", "pipeline-config"])
    def test_tol_outside_range_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                 command, tol_flag, ini):
        def no_work(*args, **kwargs):
            raise AssertionError("computation ran before tol was checked")

        for name in ("pressure_to_gradient_sweep", "gradient_curve", "synthesize_campaign",
                     "load_gradient_series"):
            monkeypatch.setattr(cli, name, no_work)
        cfg = tmp_path / "tol.ini"
        cfg.write_text(ini)
        args = [command, "--config", cfg, "--out", tmp_path / "out"]
        if command == "compare":
            args += ["--gradients", tmp_path / "gradients.txt"]
        if tol_flag is not None:
            args += ["--tol", tol_flag]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "tol" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["compare", "pipeline"])
    @pytest.mark.parametrize("ini, key", [
        ("window_nm = 0\n", "window_nm"),
        ("window_nm = -100\n", "window_nm"),
        ("intervals = 300:250\n", "intervals"),
        ("optical_fraction = -1\n", "optical_fraction"),
        ("delta_z_nm = -5\n", "delta_z_nm"),
        ("grid_start_nm = 900\ngrid_stop_nm = 300\n", "grid_stop_nm"),
    ], ids=["zero-window", "negative-window", "reversed-interval", "negative-optical-fraction",
            "negative-delta-z", "reversed-grid"])
    def test_compare_value_without_a_verdict_is_a_config_error(self, tmp_path, capsys,
                                                               monkeypatch, command, ini, key):
        def no_work(*args, **kwargs):
            raise AssertionError("computation ran before [compare] was checked")

        for name in ("synthesize_campaign", "load_gradient_series", "gradient_curve"):
            monkeypatch.setattr(cli, name, no_work)
        cfg = tmp_path / "compare.ini"
        cfg.write_text("[compare]\n" + ini)
        args = [command, "--config", cfg, "--out", tmp_path / "out"]
        if command == "compare":
            args += ["--gradients", tmp_path / "gradients.txt"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        ("theory", "--seed"), ("calibrate", "--seed"), ("compare", "--seed"),
        ("synth", "--model"), ("calibrate", "--model"), ("synth", "--tol"), ("calibrate", "--tol"),
    ])
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, command, flag):
        value = {"--seed": "5", "--model": "drude", "--tol": "1e-8"}[flag]
        with pytest.raises(SystemExit) as exc:
            run([command, flag, value, "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()
