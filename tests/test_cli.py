import dataclasses
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import casimirlab
from casimirlab import analysis, cli, force_model, lifshitz
from casimirlab.analysis import (
    GradientSeries,
    calibration_text,
    comparison_text,
    gradient_series_text,
)
from casimirlab.cli import main
from casimirlab.errors import GridAlignmentError
from casimirlab.force_model import BetaTable, pressure_to_gradient_sweep
from casimirlab.lifshitz import casimir_pressure
from casimirlab.vexp import model_for_tag, reference_campaign, save_grid, synthesize_campaign


def run(args):
    return main([str(a) for a in args])


def explicit_campaign_ini(**fields):
    """A [campaign] of set 1's values over a 150 nm approach, with fields set as given."""
    spec, _ = reference_campaign(1, "plasma")
    values = {
        "voltages_v": " ".join(map(str, spec.voltages)),
        "z0_nm": spec.z0_true * 1e9,
        "c_s_per_kg": spec.c_true,
        "v0_slope_mv_per_nm": spec.v0_law.slope_mv_per_nm,
        "v0_intercept_mv": spec.v0_law.intercept_mv,
        "amplitude_nm": spec.amplitude * 1e9,
        "freq_systematic_rad_s": spec.freq_systematic,
        "max_z_rel_nm": 150,
        **fields,
    }
    return "[campaign]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())


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

    def test_grid_ends_within_a_stop(self, tmp_path):
        # 2.6 steps give 250-252 nm; rounding the count added 253 nm
        cfg = tmp_path / "theory.ini"
        cfg.write_text("[theory]\na_start_nm = 250\na_stop_nm = 252.6\ntol = 1e-7\n")
        assert run(["theory", "--config", cfg, "--out", tmp_path]) == 0
        text = (tmp_path / "theory_gradients.txt").read_text()
        assert [row.split()[0] for row in read_rows(tmp_path / "theory_gradients.txt")] == \
            ["250.000", "251.000", "252.000"]
        assert "# a_stop_nm = 252\n" in text

    def test_both_models_ordered_columns(self, tmp_path, theory_config):
        out = tmp_path / "r"
        run(["theory", "--config", theory_config, "--out", out])
        rows = read_rows(out / "theory_gradients.txt")
        a, fd, fp, *_ = (float(tok) for tok in rows[0].split())
        assert a == 250.0
        assert fp > fd > 0

    def test_both_models_columns_equal_single_model_runs(self, tmp_path):
        # one batch computes both models' sums; each model's columns must
        # equal those of a run for that model alone
        cfg = tmp_path / "short.ini"
        cfg.write_text("[theory]\na_start_nm = 250\na_stop_nm = 950\na_step_nm = 7\n")
        outs = {}
        for model in ("both", "drude", "plasma"):
            outs[model] = tmp_path / model
            assert run(["theory", "--config", cfg, "--out", outs[model], "--model", model]) == 0
        for name in ("theory_gradients.txt", "theory_pressures.txt"):
            both = [row.split() for row in read_rows(outs["both"] / name)]
            assert len(both) == 101
            assert [[a, d, td] for a, d, _, td, _ in both] == \
                [row.split() for row in read_rows(outs["drude"] / name)]
            assert [[a, p, tp] for a, _, p, _, tp in both] == \
                [row.split() for row in read_rows(outs["plasma"] / name)]

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


# (theory config, tol): the bench's two grids, a short grid at tol 1e-12, and
# 10 K down to 50 nm, where one separation's rows span several blocks
ARRAY_PATH_GRIDS = {
    "250-950": ("[theory]\na_start_nm = 250\na_stop_nm = 950\n", 1e-9),
    "600-1300-set4": ("[theory]\na_start_nm = 600\na_stop_nm = 1300\n"
                      "[geometry]\na_min_nm = 560\nmax_aspect = 0.0306\n", 1e-9),
    "short-tol12": ("[theory]\na_start_nm = 250\na_stop_nm = 950\na_step_nm = 35\n", 1e-12),
    "10K-50-60": ("[theory]\na_start_nm = 50\na_stop_nm = 60\na_step_nm = 2.5\n"
                  "[geometry]\ntemperature_k = 10\na_min_nm = 50\n", 1e-9),
}


class TestTheoryArrayPath:
    @pytest.mark.parametrize("grid", list(ARRAY_PATH_GRIDS), ids=list(ARRAY_PATH_GRIDS))
    def test_both_models_equal_per_point_sweeps_bit_for_bit(self, tmp_path, monkeypatch, grid):
        ini, tol = ARRAY_PATH_GRIDS[grid]
        cfg = tmp_path / "theory.ini"
        cfg.write_text(ini.replace("[theory]\n", f"[theory]\ntol = {tol}\n"))
        got = []
        sweeps = cli.gradient_sweeps

        def spy(*args):
            got.extend(sweeps(*args))
            return got

        monkeypatch.setattr(cli, "gradient_sweeps", spy)
        out = tmp_path / "out"
        assert run(["theory", "--config", cfg, "--out", out, "--model", "both"]) == 0
        cp = cli._read_config(cfg)
        geometry, seps = cli._geometry(cp), cli._theory_grid(cp)
        want = [pressure_to_gradient_sweep(model_for_tag(tag), geometry, BetaTable(), seps, tol)
                for tag in ("drude", "plasma")]
        for g, w in zip(got, want, strict=True):
            for field in ("separations", "values", "pressures", "truncation_estimates",
                          "pressure_truncations"):
                assert getattr(g, field).tolist() == getattr(w, field).tolist(), field
        d, p = want
        rows = [f"{a * 1e9:.3f}  {d.values[i] * 1e6:.9e}  {p.values[i] * 1e6:.9e}  "
                f"{d.truncation_estimates[i] * 1e6:.3e}  {p.truncation_estimates[i] * 1e6:.3e}"
                for i, a in enumerate(seps)]
        assert read_rows(out / "theory_gradients.txt") == rows
        if grid == "10K-50-60":
            n_terms = casimir_pressure(model_for_tag("drude"), seps[0], 10.0, tol).n_terms
            assert n_terms + 1 > 3 * (lifshitz._PASS_ELEMENTS // 94)

    def test_one_batch_and_no_per_point_call(self, tmp_path, monkeypatch):
        batches = []
        batch = lifshitz._pressures

        def spy(*args, **kwargs):
            batches.append(args)
            return batch(*args, **kwargs)

        def per_point(*args, **kwargs):
            raise AssertionError("theory made a per-point call")

        monkeypatch.setattr(lifshitz, "_pressures", spy)
        for module, name in ((lifshitz, "casimir_pressure"), (force_model, "casimir_pressure"),
                             (force_model, "force_gradient"), (cli, "pressure_to_gradient_sweep")):
            monkeypatch.setattr(module, name, per_point)
        cfg = tmp_path / "theory.ini"
        cfg.write_text("[theory]\na_start_nm = 250\na_stop_nm = 950\na_step_nm = 7\n")
        assert run(["theory", "--config", cfg, "--out", tmp_path / "out", "--model", "both"]) == 0
        [(models, temperature, seps, tol)] = batches
        assert [m.zero_tag for m in models] == ["drude", "plasma"]
        assert len(seps) == 101

    def test_unresolved_row_exits_1_naming_the_first_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        # a jump in the integrand at a non-dyadic t is missed at every depth,
        # first by the l = 0 row of the grid's first separation
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda r_tm, r_te, shared, scratch:
                            kernel(r_tm, r_te, shared, scratch) * (1.0 + (shared[0] > 0.3)))
        cfg = tmp_path / "theory.ini"
        cfg.write_text("[theory]\na_start_nm = 900\na_stop_nm = 904\n")
        out = tmp_path / "out"
        assert run(["theory", "--config", cfg, "--out", out, "--model", "both"]) == 1
        err = capsys.readouterr().err
        assert f"error: wavevector quadrature failed to converge (l=0, a={900.0 * 1e-9})" in err
        assert not out.exists()


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

    def test_run_pipeline_writes_nothing_and_the_command_only_writes(self, tmp_path,
                                                                     monkeypatch, capsys):
        # from an empty directory, run_pipeline creates no file and prints nothing
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        settings = cli._compare_settings(cli._read_config(None))
        result = analysis.run_pipeline([reference_campaign(1, "plasma")], [6], settings,
                                       cli._models("both"), 1e-7)
        assert list(work.iterdir()) == []
        assert capsys.readouterr() == ("", "")
        # the command runs no stage itself: it checks the config, calls
        # run_pipeline once and writes what that returns
        def no_stage(*args, **kwargs):
            raise AssertionError("pipeline ran a stage outside run_pipeline")

        for name in ("synthesize_campaign", "calibrate", "extract_gradients", "compare_series"):
            monkeypatch.setattr(cli, name, no_stage)
        calls = []
        monkeypatch.setattr(cli, "run_pipeline", lambda *args: calls.append(args) or result)
        cfg = tmp_path / "pipe.ini"
        cfg.write_text("[pipeline]\nsets = 1\nseed = 5\n")
        out = tmp_path / "out"
        assert run(["pipeline", "--config", cfg, "--out", out, "--tol", "1e-7"]) == 0
        [(campaigns, seeds, _, models, tol)] = calls
        assert (campaigns, seeds, list(models), tol) == ([reference_campaign(1, "plasma")], [6],
                                                         ["drude", "plasma"], 1e-7)
        [(_, calib, series)] = result.sets
        assert (out / "calibration_set1.txt").read_text().endswith(calibration_text(calib))
        assert (out / "gradients_set1.txt").read_text().endswith(gradient_series_text(series))
        assert (out / "comparison.txt").read_text().endswith(comparison_text(result.report))
        assert (out / "gradients_combined.txt").read_text().endswith(
            gradient_series_text(result.combined))

    def test_failed_run_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # the compare stage fails once every set is synthesised, calibrated
        # and extracted: the command writes none of their files
        def failing(*args):
            raise GridAlignmentError("compare stage failed")

        monkeypatch.setattr(analysis, "compare_series", failing)
        cfg = tmp_path / "pipe.ini"
        cfg.write_text("[pipeline]\nsets = 4\nseed = 7\n")
        assert run(["pipeline", "--config", cfg, "--out", tmp_path / "out"]) == 1
        captured = capsys.readouterr()
        assert "error: compare stage failed" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_rerun_is_byte_identical(self, tmp_path, short_pipeline_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["pipeline", "--config", short_pipeline_config, "--out", out1, "--tol", "1e-7"])
        run(["pipeline", "--config", short_pipeline_config, "--out", out2, "--tol", "1e-7"])
        for name in ("comparison.txt", "manifest.txt", "gradients_combined.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_verdicts_do_not_hinge_on_the_blas_kernel(self, tmp_path):
        # pipeline sets 1-4 at seed 7, then theory --model both, in one child
        # process per kernel setting: the default, OpenBLAS's AVX2 kernels
        # forced, and numpy's AVX-512 dispatch switched off.  The truth curves
        # read through BLAS products, so the grid, calibration and gradient
        # files may move in their last digits; stdout, the manifest, the
        # comparison and both theory files may not
        cfg = tmp_path / "pipe.ini"
        cfg.write_text("[pipeline]\nsets = 1,2,3,4\nseed = 7\n")
        settings = {"default": {}, "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
                    "numpy-avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}}
        src = str(Path(casimirlab.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        files = ("manifest.txt", "comparison.txt", "theory_gradients.txt", "theory_pressures.txt")
        runs = []
        # each child writes to out/ in its own directory, so stdout names the same path
        commands = [["pipeline", "--config", str(cfg), "--out", "out"],
                    ["theory", "--model", "both", "--out", "out"]]
        script = ("import sys; from casimirlab.cli import main; "
                  f"sys.exit(any(main(argv) for argv in {commands!r}))")
        children = {}
        for name, extra in settings.items():  # the three run side by side
            (tmp_path / name).mkdir()
            children[name] = subprocess.Popen(
                [sys.executable, "-c", script], env={**env, **extra}, cwd=tmp_path / name,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            for name, child in children.items():
                stdout, stderr = child.communicate(timeout=120)
                assert child.returncode == 0, (name, stderr)
                runs.append((stdout, *((tmp_path / name / "out" / f).read_bytes()
                                       for f in files)))
        finally:
            for child in children.values():
                child.kill()
                child.wait()
        assert "plasma [573, 600] nm: consistent" in runs[0][0]
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestImport:
    def test_cli_import_leaves_heavy_scipy_modules_out(self):
        # a fresh interpreter, so that no other test's imports count
        src = str(Path(casimirlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, casimirlab.cli; "
                "print(' '.join(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == ""


class TestErrors:
    def test_pipeline_rejects_a_repeated_set(self, tmp_path, capsys):
        cfg = tmp_path / "repeat.ini"
        cfg.write_text("[pipeline]\nsets = 1,1\nseed = 7\n")
        assert run(["pipeline", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "config error: [pipeline] sets: set 1 is listed more than once" \
            in capsys.readouterr().err
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
        ("theory", "[theory]\na_start_nm = -inf\n"),
        ("theory", "[theory]\na_stop_nm = inf\n"),
        ("theory", "[theory]\na_step_nm = inf\n"),
    ], ids=["theory-zero-step", "theory-stop-below-start", "pipeline-sets", "pipeline-seed",
            "campaign-seed", "theory-infinite-start", "theory-infinite-stop",
            "theory-infinite-step"])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, command, ini):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_theory_grid_over_the_point_limit_is_a_config_error(self, tmp_path, capsys):
        # 7e11 points, refused before any array is built
        cfg = tmp_path / "grid.ini"
        cfg.write_text("[theory]\na_step_nm = 1e-9\n")
        assert run(["theory", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert ("config error: [theory] a_start_nm = 250.0, a_stop_nm = 950.0 and a_step_nm = "
                "1e-09 give 7e+11 points, over the limit of 1000000") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_thermal_sum_over_the_term_cap_fails_fast(self, tmp_path):
        # at 1 mK the 900 nm sum needs millions of terms; the count search
        # stops at the cap before any term is computed.  A child process
        # under a timeout, so that an unbounded sum cannot hang the suite
        cfg = tmp_path / "cold.ini"
        cfg.write_text("[theory]\na_start_nm = 900\na_stop_nm = 901\n"
                       "[geometry]\ntemperature_k = 1e-3\n")
        src = str(Path(casimirlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["theory", "--config", str(cfg), "--out", str(tmp_path / "out")]
        out = subprocess.run([sys.executable, "-m", "casimirlab.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=20)
        assert out.returncode == 1
        assert "error: thermal sum at a=9.000000000000001e-07, T=0.001 K needs more than " \
            "1048576 Matsubara terms" in out.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, bad", [("seed", "eight"), ("repetitions", "1.5"),
                                          ("R_m", "big"), ("voltages_V", "0.1 x"),
                                          # well-formed values the model refuses
                                          ("R_m", "-1.0"), ("repetitions", "0")])
    def test_malformed_grid_metadata_is_a_config_error(self, tmp_path, capsys, key, bad):
        spec, geometry = reference_campaign(1, "plasma")
        grid = synthesize_campaign(dataclasses.replace(spec, max_z_rel=150e-9), geometry, 8)
        path = tmp_path / "grid.txt"
        save_grid(grid, path)
        lines = path.read_text().splitlines()
        [i] = [i for i, line in enumerate(lines) if line.startswith(f"# {key} = ")]
        lines[i] = f"# {key} = {bad}"
        path.write_text("\n".join(lines) + "\n")
        assert run(["calibrate", "--grid", path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and repr(bad) in err
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

        for module, name in ((cli, "gradient_sweeps"), (cli, "pressure_to_gradient_sweep"),
                             (cli, "synthesize_campaign"), (cli, "load_gradient_series"),
                             (analysis, "synthesize_campaign"), (analysis, "gradient_curve")):
            monkeypatch.setattr(module, name, no_work)
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
        ("window_nm = inf\n", "window_nm"),
        ("optical_fraction = inf\n", "optical_fraction"),
        ("delta_z_nm = inf\n", "delta_z_nm"),
        ("grid_start_nm = nan\n", "grid_start_nm"),
        ("grid_stop_nm = inf\n", "grid_stop_nm"),
        ("intervals = 300:inf\n", "intervals"),
    ], ids=["zero-window", "negative-window", "reversed-interval", "negative-optical-fraction",
            "negative-delta-z", "reversed-grid", "infinite-window", "infinite-optical-fraction",
            "infinite-delta-z", "nan-grid-start", "infinite-grid-stop",
            "infinite-interval"])
    def test_compare_value_without_a_verdict_is_a_config_error(self, tmp_path, capsys,
                                                               monkeypatch, command, ini, key):
        def no_work(*args, **kwargs):
            raise AssertionError("computation ran before [compare] was checked")

        for module, name in ((cli, "load_gradient_series"), (analysis, "synthesize_campaign"),
                             (analysis, "gradient_curve")):
            monkeypatch.setattr(module, name, no_work)
        cfg = tmp_path / "compare.ini"
        cfg.write_text("[compare]\n" + ini)
        args = [command, "--config", cfg, "--out", tmp_path / "out"]
        if command == "compare":
            args += ["--gradients", tmp_path / "gradients.txt"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, seed_flag, ini, message", [
        ("synth", "-1", "[campaign]\npreset = 1\n", "seed is -1"),
        ("synth", None, "[campaign]\npreset = 1\nseed = -2\n", "seed is -2"),
        # set 4's seed is 1, set 1's is -2: no set may run before the check
        ("pipeline", "-3", "[pipeline]\nsets = 4,1\n", "set 1's seed is -2"),
    ], ids=["synth-flag", "campaign-config", "pipeline-flag"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command, seed_flag, ini,
                                             message):
        cfg = tmp_path / "seed.ini"
        cfg.write_text(ini)
        args = [command, "--config", cfg, "--out", tmp_path / "out"]
        if seed_flag is not None:
            args += ["--seed", seed_flag]
        assert run(args) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["z0_nm", "c_s_per_kg", "max_z_rel_nm",
                                     "v0_slope_mv_per_nm", "voltages_v"])
    def test_non_finite_explicit_campaign_number_is_a_config_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "campaign.ini"
        cfg.write_text(explicit_campaign_ini(
            **{key: "0.01 " * 20 + "inf" if key == "voltages_v" else "inf"}))
        assert run(["synth", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"config error: [campaign] {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("voltages_v", "0.1 0.2", "campaign needs exactly 21 voltages, got 2"),
        ("max_z_rel_nm", "-5", "max_z_rel must be finite and positive"),
    ])
    def test_invalid_explicit_campaign_value_is_a_config_error(self, tmp_path, capsys, key,
                                                               value, message):
        cfg = tmp_path / "campaign.ini"
        cfg.write_text(explicit_campaign_ini(**{key: value}))
        assert run(["synth", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"config error: [campaign] {key} = {value}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, message", [
        ("r_um", "sphere radius must be positive"),
        ("delta_s_nm", "rms roughness must be >= 0"),
        ("max_aspect", "max_aspect must be positive"),
        ("a_min_nm", "a_min must be positive"),
    ])
    def test_invalid_geometry_value_is_a_config_error(self, tmp_path, capsys, key, message):
        cfg = tmp_path / "geometry.ini"
        cfg.write_text(f"[geometry]\n{key} = -1\n")
        assert run(["theory", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"config error: [geometry] {key} = -1: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, section, ini", [
        ("synth", "campaign", "preset = 1"),
        ("pipeline", "pipeline", "sets = 1"),
    ])
    def test_unknown_truth_tag_is_a_config_error(self, tmp_path, capsys, command, section, ini):
        cfg = tmp_path / "truth.ini"
        cfg.write_text(f"[{section}]\n{ini}\ntruth = foo\n")
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"config error: [{section}] truth = foo: unknown truth tag 'foo'" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [("calibrate", "--grid"), ("compare", "--gradients")])
    @pytest.mark.parametrize("content, message", [
        (None, "No such file or directory"),
        (b"# n_channels = 21\n\xc0\n", "'utf-8' codec can't decode byte 0xc0"),
    ], ids=["missing", "not-utf8"])
    def test_unreadable_input_file_is_a_config_error(self, tmp_path, capsys, command, flag,
                                                     content, message):
        path = tmp_path / "input.txt"
        if content is not None:
            path.write_bytes(content)
        assert run([command, flag, path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: " in err and message in err
        assert not (tmp_path / "out").exists()

    def test_non_numeric_gradient_row_is_a_config_error(self, tmp_path, capsys):
        gradients = series_file(tmp_path / "g.txt", np.arange(300, 401))
        gradients.write_text(gradients.read_text() + "1 2 x 4 5\n")
        assert run(["compare", "--gradients", gradients, "--out", tmp_path / "out"]) == 2
        assert f"config error: {gradients}: malformed number in '1 2 x 4 5'" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [l.replace("# n_channels =", "# n_channels") for l in lines],
         "missing metadata line '# n_channels = ...'"),
        (lambda lines: lines[:-1] + [lines[-1].rsplit(maxsplit=1)[0]],
         "malformed number in '400.000  1000000.0  1000000.0  1000000.0'; a row holds 5 numbers"),
        (lambda lines: [l if l.startswith("#") else l.rsplit(maxsplit=1)[0] for l in lines],
         "malformed number in '300.000  1000000.0  1000000.0  1000000.0'; a row holds 5 numbers"),
        # the compared grid is interpolated from the series
        (lambda lines: [l.replace("304.000  1000000.0", "304.000  nan") for l in lines],
         "data row 5 holds a non-finite number: [304.0, nan, 1000000.0, 1000000.0, 1000000.0]"),
        (lambda lines: [l[:-9] + "inf" if l.startswith("304.000") else l for l in lines],
         "data row 5 holds a non-finite number: [304.0, 1000000.0, 1000000.0, 1000000.0, inf]"),
        (lambda lines: [{"304.000": "305.000", "305.000": "304.000"}.get(l[:7], l[:7]) + l[7:]
                        for l in lines],
         "data row 6 separation 304.0 nm does not exceed row 5's 305.0 nm"),
        (lambda lines: [l.replace("305.000", "304.000") for l in lines],
         "data row 6 separation 304.0 nm does not exceed row 5's 304.0 nm"),
        # a negated error would shrink the combined band
        (lambda lines: [l[:-9] + "-1000000.0" if l.startswith("304.000") else l for l in lines],
         "data row 5 holds a negative error: [304.0, 1000000.0, 1000000.0, 1000000.0, -1000000.0]"),
    ], ids=["n-channels-without-equals", "one-row-of-four", "every-row-of-four", "nan", "inf",
            "swapped-pair", "repeated-separation", "negative-total-error"])
    def test_malformed_gradient_file_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                       edit, message):
        gradients = series_file(tmp_path / "g.txt", np.arange(300, 401))
        gradients.write_text("\n".join(edit(gradients.read_text().splitlines())) + "\n")
        theory = []
        curve = analysis.gradient_curve
        monkeypatch.setattr(analysis, "gradient_curve",
                            lambda *args: theory.append(args) or curve(*args))
        assert run(["compare", "--gradients", gradients, "--out", tmp_path / "out"]) == 2
        assert f"config error: {gradients}: {message}" in capsys.readouterr().err
        assert not theory and not (tmp_path / "out").exists()

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


class TestConfigSchema:
    @pytest.mark.parametrize("command, ini, message", [
        ("theory", "[theory]\na_stpe_nm = 5\n",
         "unknown [theory] a_stpe_nm (did you mean a_stop_nm or a_step_nm?)"),
        ("theory", "[geomtery]\nr_um = 40\n", "unknown [geomtery] (did you mean geometry?)"),
        ("synth", "[campaign]\npreset = 1\nrepetitions = 0\n",
         "[campaign] repetitions = 0: a preset sets every campaign value but truth and seed"),
        ("theory", "[theory]\na_start_nm = 249\n",
         "[theory] a_start_nm = 249: separation 249.0 nm below a_min = 250 nm"),
        ("theory", "[geometry]\nr_um = 1\n", "[theory] a_start_nm = 250.0: a/R = 0.2500 >= "
         "0.022 invalidates the proximity-force approximation"),
        ("theory", "[theory]\na_stop_nm = 1000\n", "[theory] a_stop_nm = 1000: a/R = 0.0230"),
        ("theory", "[DEFAULT]\nr_um = 40\n", "unknown [DEFAULT]"),
        ("pipeline", "[pipeline]\npreset = 1\n", "unknown [pipeline] preset"),
        ("pipeline", "[pipeline]\nsets = 1\n[theory]\na_step_nm = x\n",
         "[theory] a_step_nm: could not convert string to float: 'x'"),
        ("synth", explicit_campaign_ini(z0_nm=220),
         "[campaign] z0_nm = 220: separation 220.0 nm below a_min = 250 nm"),
        ("synth", explicit_campaign_ini(z0_nm=260, max_z_rel_nm=702),
         "[campaign] max_z_rel_nm = 702: a/R = 0.0221 >= 0.022"),
        ("theory", "[geometry]\na_max_nm = 2000\n",
         "unknown [geometry] a_max_nm (did you mean a_min_nm?)"),
    ], ids=["misspelled-key", "misspelled-section", "preset-with-a-field", "start-below-a-min",
            "small-radius", "stop-over-the-aspect-bound", "default-section",
            "key-of-another-section", "malformed-value-of-another-command",
            "approach-below-a-min", "approach-over-the-aspect-bound", "a-max-is-an-unknown-key"])
    def test_config_error_names_the_section_or_key(self, tmp_path, capsys, monkeypatch,
                                                    command, ini, message):
        def no_work(*args, **kwargs):
            raise AssertionError("computation ran before the config was checked")

        for module, name in ((cli, "gradient_sweeps"), (cli, "synthesize_campaign"),
                             (cli, "run_pipeline")):
            monkeypatch.setattr(module, name, no_work)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_section_another_command_reads_is_allowed(self, tmp_path):
        # a preset carries its geometry, so synth reads no [geometry]; the
        # file still serves theory, compare and pipeline
        cfg = tmp_path / "all.ini"
        cfg.write_text("[campaign]\npreset = 1\nseed = 4\n[geometry]\nr_um = 1\n"
                       "[theory]\na_stop_nm = 100\n[compare]\nwindow_nm = 50\n"
                       "[pipeline]\nsets = 9\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path / "out"]) == 0
        assert (tmp_path / "out" / "grid_set1_seed4.txt").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "{path}: Is a directory"),
        (b"[theory]\na_stop_nm = 26\xc00\n", "{path}: 'utf-8' codec can't decode byte 0xc0"),
        (b"[theory]\na_stop_nm = 260%\n",
         "[theory] a_stop_nm: could not convert string to float: '260%'"),
    ], ids=["directory", "not-utf8", "percent"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "config.ini"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert run(["theory", "--config", path, "--out", tmp_path / "out"]) == 2
        assert "config error: " + message.format(path=path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_benchmark_theory_configs_run(self, tmp_path, monkeypatch):
        # the two files the theory_sweep workload writes, a keyless [geometry]
        # and one with a_min_nm and max_aspect, run as it runs them: a key
        # missing from the schema, such as the deleted a_max_nm, would fail
        # every operation of the workload
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        sweep = workloads.TheorySweep(seed=1, work=tmp_path)
        sweep.setup()
        for g in sweep.grids:
            assert "a_max" not in g["cfg"].read_text()
            assert run(["theory", "--config", g["cfg"], "--out", g["out"], "--model", "both"]) == 0


def series_file(path, a_nm):
    a = np.asarray(a_nm) * 1e-9
    ones = np.ones_like(a)
    path.write_text(gradient_series_text(GradientSeries(a, ones, ones, ones, ones, 21)))
    return path


class TestCompareGrid:
    def test_default_grid_is_clipped_to_the_geometry(self, tmp_path, capsys):
        # a series from 248.06 nm, as a set-1 campaign gives, against the
        # default geometry: a_min 250 nm, a/R < 0.022 below 956.25 nm
        gradients = series_file(tmp_path / "g.txt", 248.06 + np.arange(713))
        assert run(["compare", "--gradients", gradients, "--out", tmp_path / "out"]) == 0
        out = capsys.readouterr().out
        assert "compare grid clipped to the geometry's range: [250, 956] nm" in out
        assert "drude [250, 300] nm" in out and "[900, 956] nm" in out

    def test_set_grid_end_outside_the_geometry_still_errors(self, tmp_path, capsys, monkeypatch):
        # a [compare] end the geometry refuses is a config error, before any theory
        def no_theory(*args):
            raise AssertionError("theory ran before the grid ends were checked")

        monkeypatch.setattr(analysis, "gradient_curve", no_theory)
        gradients = series_file(tmp_path / "g.txt", 248.06 + np.arange(713))
        cfg = tmp_path / "c.ini"
        cfg.write_text("[compare]\ngrid_start_nm = 249\ngrid_stop_nm = 900\n")
        assert run(["compare", "--gradients", gradients, "--config", cfg,
                    "--out", tmp_path / "out"]) == 2
        assert "config error: [compare] grid_start_nm = 249: separation 249.0 nm below " \
            "a_min = 250 nm" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ini, message", [
        ("sets = 4\n[compare]\ngrid_start_nm = 100\n",
         "[compare] grid_start_nm = 100: separation 100.0 nm below a_min = 560 nm"),
        ("sets = 1\n[compare]\ngrid_stop_nm = 1200\n",
         "[compare] grid_stop_nm = 1200: a/R = 0.0276 >= 0.022 invalidates"),
    ], ids=["set4-start", "set1-stop"])
    def test_pipeline_refuses_a_set_grid_end_before_any_set(self, tmp_path, capsys,
                                                           monkeypatch, ini, message):
        # the last set's geometry judges the ends: set 4 admits 560 nm up, set 1
        # a/R < 0.022, so below 956.25 nm
        def no_synthesis(*args):
            raise AssertionError("a set was synthesised before the grid ends were checked")

        monkeypatch.setattr(analysis, "synthesize_campaign", no_synthesis)
        cfg = tmp_path / "c.ini"
        cfg.write_text("[pipeline]\nseed = 7\n" + ini)
        assert run(["pipeline", "--config", cfg, "--out", tmp_path / "out"]) == 2
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_series_outside_the_geometry_errors(self, tmp_path, capsys):
        gradients = series_file(tmp_path / "g.txt", np.arange(100, 201) + 0.5)
        assert run(["compare", "--gradients", gradients, "--out", tmp_path / "out"]) == 1
        assert "overlap [100.5, 200.5] nm lies outside the geometry's range" in \
            capsys.readouterr().err

    def test_series_on_whole_nanometres_keeps_its_ends(self, tmp_path, capsys):
        # read back from text, 300 nm is 3e-7 m, and 3e-7 * 1e9 lies above 300
        gradients = series_file(tmp_path / "g.txt", np.arange(300, 401))
        assert run(["compare", "--gradients", gradients, "--out", tmp_path / "out"]) == 0
        out = capsys.readouterr().out
        assert "drude [300, 400] nm" in out and "clipped" not in out

    def test_series_that_do_not_overlap_error(self, tmp_path, capsys):
        files = [series_file(tmp_path / "a.txt", np.arange(300, 401)),
                 series_file(tmp_path / "b.txt", np.arange(500, 601))]
        assert run(["compare", "--gradients", *files, "--out", tmp_path / "out"]) == 1
        assert "error: the compared grid over [500, 400] nm holds 0 whole-nanometre point(s)" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["compare", "pipeline"])
    def test_one_point_grid_errors(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[pipeline]\nsets = 1\nseed = 7\n"
                       "[compare]\ngrid_start_nm = 600\ngrid_stop_nm = 600.5\n")
        args = [command, "--config", cfg, "--out", tmp_path / "out"]
        if command == "compare":
            args += ["--gradients", series_file(tmp_path / "g.txt", np.arange(300, 901))]
        assert run(args) == 1
        assert ("error: the compared grid over [600, 600.5] nm holds 1 whole-nanometre point(s); "
                "the band's F'' needs at least 2") in capsys.readouterr().err
        assert not (tmp_path / "out" / "comparison.txt").exists()

    @pytest.mark.parametrize("compare_ini, code, message", [
        ("grid_start_nm = 300\ngrid_stop_nm = 300.5\n", 1,
         "error: the compared grid over [300, 300.5] nm holds 1 whole-nanometre point(s)"),
        ("grid_start_nm = 300\ngrid_stop_nm = 900\nintervals = 950:1000\n", 2,
         "config error: [compare] intervals: 950:1000 nm holds no point"),
    ], ids=["one-point", "interval"])
    def test_pipeline_checks_a_set_grid_before_any_set(self, tmp_path, capsys, compare_ini,
                                                       code, message):
        # both grid ends set in [compare]: the grid is known before synthesis
        cfg = tmp_path / "c.ini"
        cfg.write_text("[pipeline]\nsets = 1\nseed = 7\n[compare]\n" + compare_ini)
        assert run(["pipeline", "--config", cfg, "--out", tmp_path / "out"]) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["compare", "pipeline"])
    def test_interval_without_grid_points_is_a_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[pipeline]\nsets = 1\n[compare]\nintervals = 300:350, 2000:3000\n")
        args = [command, "--config", cfg, "--out", tmp_path / "out"]
        if command == "compare":
            args += ["--gradients", series_file(tmp_path / "g.txt", np.arange(300, 400) + 0.5)]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "config error: [compare] intervals: 2000:3000 nm holds no point" in err
        # pipeline checks the intervals against the widest grid its geometry
        # allows, a/R < 0.022 below 956.25 nm, before any set is synthesised
        assert ("[301, 399] nm" if command == "compare" else "[230, 956] nm") in err
        assert not (tmp_path / "out").exists()


class TestReadme:
    def test_cli_block_runs(self, tmp_path, monkeypatch):
        # the README's CLI block as written: its config files, then each
        # command in order, every one exiting 0
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        lines = iter(block.splitlines())
        commands = []
        for line in lines:
            if line.startswith("cat > "):
                body = []
                for body_line in lines:
                    if body_line == "EOF":
                        break
                    body.append(body_line)
                Path(line.split()[2]).write_text("\n".join(body) + "\n")
            elif line.startswith("casimirlab "):
                args = shlex.split(line)[1:]
                commands.append(args[0])
                assert main(args) == 0, line
        assert commands == ["theory", "synth", "calibrate", "compare", "pipeline"]
        assert "sets = 1,2,3" in Path("pipe.ini").read_text()

    def test_config_key_table_matches_the_schema(self):
        # every row "| section | `key` | unit | `default` |" of the README's
        # key table, "—" for a key with no default
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = [[cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
                for line in readme.splitlines() if line.startswith("| ")]
        table = {(row[0], row[1]): row[3] for row in rows if row[0] in cli._SCHEMA}
        schema = {(section, key): spec for section, keys in cli._SCHEMA.items()
                  for key, spec in keys.items()}
        assert list(table) == list(schema) and len(table) == 31
        for (section, key), (parse, default, _) in schema.items():
            written = table[section, key]
            got = None if written == "—" else parse(written)
            assert got == (None if default == "" else default), (section, key)
