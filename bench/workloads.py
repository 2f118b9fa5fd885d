"""The benchmark workloads.

Each is driven by one single-threaded process as a closed loop with one
client: operation i + 1 starts when operation i has finished, and at most
one child process (a set-up sample) runs at a time.  Inputs come from the
workload seed only; the program sees generated config files and seeds.

theory_sweep       one in-process ``casimirlab theory`` command, alternating
                   the 250-950 nm and 600-1300 nm grids (1 nm steps, origin
                   shifted by a seeded sub-nanometre offset).  Nearly all
                   of it is the Lifshitz layer; electrostatics, vexp and
                   analysis do nothing, so a calibration change must leave
                   it unchanged.
campaign_ensemble  one warm in-process measurement set (synthesize,
                   calibrate, extract) cycling through presets 1-4 with
                   plasma truth, one new seed per group of four; each
                   finished group is combined and compared as in acceptance
                   criteria 07 and 08.  Calibration carries each operation;
                   Lifshitz runs only in set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "theory_reference.json"

R_SPHERE = 43.466e-6
ROUGHNESS = dict(delta_s=1.13e-9, delta_p=1.08e-9)
POINTS_PER_GRID = 701

# Per-set recovery tolerances: |C / c_true - 1| and |z0 - z0_true|.  Over
# 30 seeds per preset the errors scatter with standard deviations up to
# 7.3e-4 and 0.17 nm (set 4); the tolerances sit at about six of those.
C_REL_TOL = 5e-3
Z0_TOL = 1.0e-9

# Acceptance criteria 07 (sets 1-3, 250-950 nm) and 08 (set 4, 600-1300 nm):
# key -> (delta_z, windows, drude excluded in, plasma consistent in).
_DRUDE_07 = [(lo * 1e-9, (lo + 100) * 1e-9) for lo in range(250, 850, 100)]
_WINDOWS_07 = _DRUDE_07 + [(850e-9, 950e-9)]
_WINDOWS_08 = [(600e-9, 1100e-9), (1100e-9, 1300e-9), (600e-9, 1300e-9)]
CRITERIA = {
    "07": (0.5e-9, _WINDOWS_07, _DRUDE_07, _WINDOWS_07),
    "08": (1.1e-9, _WINDOWS_08, _WINDOWS_08[:1], _WINDOWS_08[2:]),
}


class OpFailed(Exception):
    """An operation's output failed a correctness check."""


def child_env() -> dict:
    """Environment for every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def stream_seed(seed: int, *key: int) -> int:
    """Deterministic child seed number ``key`` of the workload seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0]) % 1_000_000


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def write_ini(path: Path, sections: dict) -> Path:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _import_cli():
    t0 = time.perf_counter()
    from casimirlab import cli

    return cli, time.perf_counter() - t0


def criterion_agrees(key: str, data, theory) -> bool:
    """True when compare() gives the verdicts acceptance criterion 07 or 08
    asks for: drude excluded and plasma consistent in the listed windows."""
    from casimirlab import analysis

    delta_z, windows, drude_excluded, plasma_consistent = CRITERIA[key]
    report = analysis.compare(data, theory, analysis.TheoryErrorConfig(0.005, delta_z),
                              windows=windows)
    return (all(report.verdict_for("drude", lo, hi) == "excluded" for lo, hi in drude_excluded)
            and all(report.verdict_for("plasma", lo, hi) == "consistent"
                    for lo, hi in plasma_consistent))


def theory_errors() -> dict[str, float]:
    """Largest relative deviation of returned F' values from the stored
    extended-precision reference, at tol 1e-9 and 1e-12, both models."""
    from casimirlab import force_model, vexp

    doc = json.loads(REFERENCE_FILE.read_text())
    seps = np.array([row["a_nm"] for row in doc["rows"]]) * 1e-9
    geometry = force_model.Geometry(R=R_SPHERE, a_min=250e-9, max_aspect=0.0306, **ROUGHNESS)
    out = {}
    for label, tol in (("theory_rel_err_tol9", 1e-9), ("theory_rel_err_tol12", 1e-12)):
        worst = 0.0
        for model in ("drude", "plasma"):
            ref = np.array([float(row[f"fprime_{model}_N_per_m"]) for row in doc["rows"]])
            got = force_model.pressure_to_gradient_sweep(
                vexp.model_for_tag(model), geometry, force_model.BetaTable(), seps, tol).values
            worst = max(worst, float(np.max(np.abs(got / ref - 1.0))))
        out[label] = worst
    return out


class Workload:
    name = ""
    group = 1        # the timed loop stops only on a whole group of operations
    min_ops = 1
    trace_ops = 1    # operations replayed untraced, then traced, in a trace run
    trace_rounds = 1
    # setup_s is the median of all set-ups timed in a run: an in-process
    # workload's own, setup_repeats fresh ones before the timed loop, and
    # for a cheap set-up setup_batch fresh ones before every setup_every
    # operations and after the last, so that its samples span the run and a
    # slow spell of the host does not fall on all of them.
    setup_repeats = 0
    setup_every = 0
    setup_batch = 0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.import_s = 0.0
        self.bytes_written = 0

    def setup_cmd(self, work: Path) -> list[str]:
        """A fresh process that does this workload's set-up, prints READY and exits."""
        return [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", self.name,
                "--seed", str(self.seed), "--seconds", "0", "--mode", "setup",
                "--work", str(work)]

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> None:
        raise NotImplementedError

    def check(self, i: int) -> None:
        """Raise OpFailed when operation i's output is wrong."""

    def finish(self, log, inputs) -> dict[str, float]:
        """Post-loop checks; may fail operations in log; returns extra metrics."""
        return {}


class TheorySweep(Workload):
    name = "theory_sweep"
    group = 2
    # About 25 s of commands, each normalized to the host speed around it.
    min_ops = 20
    trace_ops = 2
    trace_rounds = 2
    setup_every = 4
    setup_batch = 1

    def setup(self):
        self.cli, self.import_s = _import_cli()
        offset = float(np.random.default_rng(self.seed).uniform(0.0, 1.0))
        self.grids = []
        for label, start, geometry in (
            ("small", 250.0, {}),
            ("large", 600.0, {"a_min_nm": 560.0, "max_aspect": 0.0306}),
        ):
            start_nm = start + offset
            out = self.work / f"theory-{label}"
            cfg = write_ini(self.work / f"theory-{label}.ini", {
                "theory": {"a_start_nm": repr(start_nm),
                           "a_stop_nm": repr(start_nm + POINTS_PER_GRID - 1),
                           "a_step_nm": 1.0},
                "geometry": geometry,
            })
            self.grids.append({"label": label, "start_nm": start_nm, "geometry": geometry,
                               "cfg": cfg, "out": out, "first": None})

    def _files(self, g):
        return [g["out"] / "theory_gradients.txt", g["out"] / "theory_pressures.txt"]

    def op(self, i):
        g = self.grids[i % 2]
        rc = self.cli.main(["theory", "--config", str(g["cfg"]), "--out", str(g["out"]),
                            "--model", "both"])
        if rc != 0:
            raise OpFailed(f"theory exited with {rc}")

    def check(self, i):
        g = self.grids[i % 2]
        files = self._files(g)
        self.bytes_written += sum(p.stat().st_size for p in files)
        digest = files_digest(files)
        if g["first"] is None:
            g["first"] = (digest, [p.read_text() for p in files])
        elif digest != g["first"][0]:
            raise OpFailed(f"{g['label']} grid output differs from the first command's")

    def _check_first(self, g):
        """Check the first command's files against an in-process sweep."""
        from casimirlab import force_model, vexp

        grads_text, press_text = g["first"][1]
        grid = (g["start_nm"] + np.arange(POINTS_PER_GRID)) * 1e-9
        kw = dict(ROUGHNESS, R=R_SPHERE)
        if g["geometry"]:
            kw.update(a_min=560e-9, max_aspect=0.0306)
        geometry = force_model.Geometry(**kw)
        sweeps = {tag: force_model.pressure_to_gradient_sweep(
            vexp.model_for_tag(tag), geometry, force_model.BetaTable(), grid, 1e-9)
            for tag in ("drude", "plasma")}
        grad_rows = [ln.split() for ln in grads_text.splitlines() if not ln.startswith("#")]
        press_rows = [ln.split() for ln in press_text.splitlines() if not ln.startswith("#")]
        for rows, what in ((grad_rows, "gradients"), (press_rows, "pressures")):
            if len(rows) != POINTS_PER_GRID or any(len(r) != 5 for r in rows):
                return f"{what}: expected {POINTS_PER_GRID} rows of 5 columns", sweeps
            if not all(math.isfinite(float(x)) for r in rows for x in r):
                return f"{what}: non-finite value", sweeps
        d, p = sweeps["drude"], sweeps["plasma"]
        for i, a in enumerate(grid):
            want = [f"{a * 1e9:.3f}", f"{d.values[i] * 1e6:.9e}", f"{p.values[i] * 1e6:.9e}",
                    f"{d.truncation_estimates[i] * 1e6:.3e}",
                    f"{p.truncation_estimates[i] * 1e6:.3e}"]
            if grad_rows[i] != want:
                return f"gradients row {i} is {grad_rows[i]}, in-process sweep gives {want}", sweeps
            want_p = [want[0], f"{d.pressures[i]:.9e}", f"{p.pressures[i]:.9e}"]
            if press_rows[i][:3] != want_p:
                return f"pressures row {i} disagrees with the in-process sweep", sweeps
        return None, sweeps

    def finish(self, log, inputs):
        from casimirlab import analysis

        agree = []
        for j, g in enumerate(self.grids):
            if g["first"] is None:
                agree.append(False)
                continue
            problem, sweeps = self._check_first(g)
            if problem:
                for op, i in enumerate(inputs):
                    if i % 2 == j:
                        log.fail(op, f"{g['label']} grid: {problem}")
            # The printed plasma curve as error-free data must reproduce the
            # verdicts of criteria 07 / 08 on the printed curves.
            grid = sweeps["plasma"].separations
            zero = np.zeros_like(grid)
            data = analysis.GradientSeries(grid, sweeps["plasma"].values, zero, zero, zero, 1)
            theory = {t: s.values for t, s in sweeps.items()}
            agree.append(criterion_agrees("07" if g["label"] == "small" else "08", data, theory))
        return {"verdict_agree_frac": sum(agree) / len(agree)}


class CampaignEnsemble(Workload):
    name = "campaign_ensemble"
    group = 4
    min_ops = 8
    trace_ops = 4
    verdict_groups = 2   # verdicts count over the first groups only, so they repeat per seed
    setup_repeats = 1    # each set-up builds 20k Lifshitz points, about 13 s per process

    def setup(self):
        _, self.import_s = _import_cli()
        from casimirlab import force_model, vexp

        self.presets = [vexp.reference_campaign(n, "plasma") for n in (1, 2, 3, 4)]
        for spec, geometry in self.presets:
            vexp.truth_curves(spec, geometry)
        self.grid07 = np.arange(250, 951) * 1e-9
        self.grid08 = np.arange(600, 1301) * 1e-9
        geo07 = force_model.Geometry(R=R_SPHERE, a_min=230e-9, **ROUGHNESS)
        geo08 = force_model.Geometry(R=R_SPHERE, a_min=560e-9, max_aspect=0.0306, **ROUGHNESS)
        self.theory = {}
        for key, geometry, grid in (("07", geo07, self.grid07), ("08", geo08, self.grid08)):
            self.theory[key] = {tag: force_model.pressure_to_gradient_sweep(
                vexp.model_for_tag(tag), geometry, force_model.BetaTable(), grid).values
                for tag in ("drude", "plasma")}
        self.results = {}
        self.verdicts = {}

    def op(self, i):
        from casimirlab import analysis, vexp

        g, k = divmod(i, 4)
        spec, geometry = self.presets[k]
        self.results.pop(i, None)
        grid = vexp.synthesize_campaign(spec, geometry, stream_seed(self.seed, g, k + 1))
        calib = analysis.calibrate(grid)
        self.results[i] = (calib, analysis.extract_gradients(grid, calib))
        if k == 3:
            self._compare_group(g)

    def _compare_group(self, g):
        from casimirlab import analysis

        series = [self.results.get(4 * g + k, (None, None))[1] for k in range(4)]
        ok07 = ok08 = False
        if all(s is not None for s in series[:3]):
            combined = analysis.combine_gradient_series(series[:3], grid=self.grid07)
            ok07 = criterion_agrees("07", combined, self.theory["07"])
        if series[3] is not None:
            combined = analysis.combine_gradient_series(series[3:], grid=self.grid08)
            ok08 = criterion_agrees("08", combined, self.theory["08"])
        self.verdicts[g] = (ok07, ok08)

    def check(self, i):
        calib, series = self.results[i]
        spec = self.presets[i % 4][0]
        dc = calib.c_cal / spec.c_true - 1.0
        dz = calib.z0 - spec.z0_true
        if abs(dc) > C_REL_TOL or abs(dz) > Z0_TOL:
            raise OpFailed(f"set {i % 4 + 1}: C off by {dc:.2e}, z0 off by {dz * 1e9:.3f} nm")
        if not np.all(np.isfinite(series.mean)) or not np.all(np.isfinite(series.total_error)):
            raise OpFailed(f"set {i % 4 + 1}: non-finite gradient series")

    def finish(self, log, inputs):
        checks = [ok for g in range(self.verdict_groups) for ok in self.verdicts.get(g, (False,) * 2)]
        return {"verdict_agree_frac": sum(checks) / len(checks)}


WORKLOADS = {w.name: w for w in (TheorySweep, CampaignEnsemble)}
