import dataclasses

import pytest

from casimirlab import cli
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
