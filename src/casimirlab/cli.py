"""Command-line front end: theory sweeps, virtual campaigns, calibration,
comparison, and the chained pipeline.

All outputs are '#'-commented column text carrying a manifest header that
records every parameter and seed needed to re-run the producing command;
reruns with identical inputs are byte-identical.  Separations are quoted in
nm and force gradients in uN/m at this boundary.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    TheoryErrorConfig,
    calibrate,
    calibration_text,
    combine_gradient_series,
    compare,
    comparison_text,
    default_windows,
    extract_gradients,
    gradient_series_text,
    load_gradient_series,
)
from .errors import CasimirLabError, ConfigError
from .force_model import BetaTable, Geometry, gradient_curve, pressure_to_gradient_sweep
from .lifshitz import TOL_RANGE, pressure_sweep_text
from .vexp import (
    CampaignSpec,
    V0Law,
    load_grid,
    model_for_tag,
    reference_campaign,
    save_grid,
    synthesize_campaign,
)

_MODEL_CHOICES = ("drude", "plasma", "both")


def _read_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            cp.read(p)
        except configparser.Error as exc:
            raise ConfigError(f"{p}: {exc}") from None
    return cp


def _getfloat(cp, section, key, default):
    try:
        return cp.getfloat(section, key, fallback=default)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _getint(cp, section, key, default):
    try:
        return cp.getint(section, key, fallback=default)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _geometry(cp) -> Geometry:
    sec = "geometry"
    return Geometry(
        R=_getfloat(cp, sec, "r_um", 43.466) * 1e-6,
        delta_s=_getfloat(cp, sec, "delta_s_nm", 1.13) * 1e-9,
        delta_p=_getfloat(cp, sec, "delta_p_nm", 1.08) * 1e-9,
        temperature=_getfloat(cp, sec, "temperature_k", 293.15),
        max_aspect=_getfloat(cp, sec, "max_aspect", 0.022),
        a_min=_getfloat(cp, sec, "a_min_nm", 250.0) * 1e-9,
        a_max=_getfloat(cp, sec, "a_max_nm", 2000.0) * 1e-9,
    )


def _campaign(cp):
    sec = "campaign"
    truth = cp.get(sec, "truth", fallback="plasma")
    if cp.has_option(sec, "preset"):
        n = _getint(cp, sec, "preset", None)
        return reference_campaign(n, truth), n
    if not cp.has_section(sec):
        raise ConfigError("synth needs a [campaign] section (preset or explicit fields)")
    try:
        voltages = tuple(float(v) for v in cp.get(sec, "voltages_v").split())
        spec = CampaignSpec(
            voltages=voltages,
            z0_true=cp.getfloat(sec, "z0_nm") * 1e-9,
            c_true=cp.getfloat(sec, "c_s_per_kg"),
            v0_law=V0Law.from_mv(
                cp.getfloat(sec, "v0_slope_mv_per_nm"),
                cp.getfloat(sec, "v0_intercept_mv"),
            ),
            truth_tag=truth,
            amplitude=cp.getfloat(sec, "amplitude_nm") * 1e-9,
            freq_systematic=cp.getfloat(sec, "freq_systematic_rad_s"),
            max_z_rel=cp.getfloat(sec, "max_z_rel_nm") * 1e-9,
            repetitions=cp.getint(sec, "repetitions", fallback=1),
        )
    except (configparser.NoOptionError, ValueError) as exc:
        raise ConfigError(f"[campaign]: {exc}") from None
    return (spec, _geometry(cp)), 0


def _tol(args, cp):
    """Thermal-sum tolerance from --tol, else [theory] tol, checked before any work."""
    tol = args.tol if args.tol is not None else _getfloat(cp, "theory", "tol", 1e-9)
    lo, hi = TOL_RANGE
    if not lo <= tol <= hi:
        raise ConfigError(f"tol = {tol} lies outside [{lo:g}, {hi:g}]")
    return tol


def _theory_grid(cp):
    sec = "theory"
    start = _getfloat(cp, sec, "a_start_nm", 250.0)
    stop = _getfloat(cp, sec, "a_stop_nm", 950.0)
    step = _getfloat(cp, sec, "a_step_nm", 1.0)
    if not step > 0:
        raise ConfigError(f"[{sec}] a_step_nm must be positive, got {step}")
    if not stop >= start:
        raise ConfigError(f"[{sec}] a_stop_nm = {stop} lies below a_start_nm = {start}")
    n = int(round((stop - start) / step)) + 1
    return (start + step * np.arange(n)) * 1e-9


def _models(selection):
    tags = ("drude", "plasma") if selection == "both" else (selection,)
    return {tag: model_for_tag(tag) for tag in tags}


def _manifest(command: str, params: dict) -> str:
    lines = [f"# casimirlab {__version__}", f"# command = {command}"]
    lines += [f"# {k} = {v}" for k, v in params.items()]
    return "\n".join(lines) + "\n"


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def _cmd_theory(args, cp):
    out = Path(args.out)
    grid = _theory_grid(cp)
    geometry = _geometry(cp)
    tol = _tol(args, cp)
    models = _models(args.model)
    manifest = _manifest("theory", {
        "model": args.model,
        "a_start_nm": f"{grid[0] * 1e9:g}",
        "a_stop_nm": f"{grid[-1] * 1e9:g}",
        "n_points": grid.size,
        "tol": tol,
        "r_um": f"{geometry.R * 1e6:g}",
        "temperature_k": geometry.temperature,
    })

    sweeps = {
        tag: pressure_to_gradient_sweep(model, geometry, BetaTable(), grid, tol)
        for tag, model in models.items()
    }
    lines = [manifest.rstrip("\n")]
    cols = ["a_nm"] + [f"Fgrad_{t}_uN_per_m" for t in sweeps] + [f"trunc_{t}_uN_per_m" for t in sweeps]
    lines.append("# columns: " + "  ".join(cols))
    for i, a in enumerate(grid):
        row = [f"{a * 1e9:.3f}"]
        row += [f"{sweeps[t].values[i] * 1e6:.9e}" for t in sweeps]
        row += [f"{sweeps[t].truncation_estimates[i] * 1e6:.3e}" for t in sweeps]
        lines.append("  ".join(row))
    _write(out, "theory_gradients.txt", "\n".join(lines) + "\n")

    pressures = {tag: (s.pressures, s.pressure_truncations) for tag, s in sweeps.items()}
    _write(out, "theory_pressures.txt", manifest + pressure_sweep_text(grid, pressures))
    print(f"wrote {out / 'theory_gradients.txt'} and {out / 'theory_pressures.txt'}")
    return 0


def _cmd_synth(args, cp):
    out = Path(args.out)
    (spec, geometry), n = _campaign(cp)
    seed = args.seed if args.seed is not None else _getint(cp, "campaign", "seed", 0)
    grid = synthesize_campaign(spec, geometry, seed)
    name = f"grid_set{n}_seed{seed}.txt" if n else f"grid_seed{seed}.txt"
    out.mkdir(parents=True, exist_ok=True)
    save_grid(grid, out / name)
    print(f"wrote {out / name}")
    return 0


def _cmd_calibrate(args, cp):
    out = Path(args.out)
    if not args.grid:
        raise ConfigError("calibrate needs --grid <file>")
    grid = load_grid(args.grid)
    calib = calibrate(grid)
    series = extract_gradients(grid, calib)
    stem = Path(args.grid).stem
    manifest = _manifest("calibrate", {"grid": Path(args.grid).name, "seed": grid.seed})
    _write(out, f"calibration_{stem}.txt", manifest + calibration_text(calib))
    _write(out, f"gradients_{stem}.txt", manifest + gradient_series_text(series))
    print(
        f"C = {calib.c_cal:.6e} +/- {calib.sigma_c:.2e} s/kg, "
        f"z0 = {calib.z0 * 1e9:.3f} +/- {calib.sigma_z0 * 1e9:.3f} nm, "
        f"V0_mean = {calib.line.mean_v0 * 1e3:.3f} mV"
    )
    return 0


def _compare_settings(cp):
    """[compare] intervals, window, error model and grid bounds (nm, or None), checked
    before any work: a value that would give no verdict or a wrong band is a config error."""
    sec = "compare"
    width = _getfloat(cp, sec, "window_nm", 100.0)
    fraction = _getfloat(cp, sec, "optical_fraction", 0.005)
    delta_z = _getfloat(cp, sec, "delta_z_nm", 0.5)
    start, stop = (_getfloat(cp, sec, f"grid_{end}_nm", None) for end in ("start", "stop"))
    for bad, what in ((not width > 0, f"window_nm = {width} must be positive"),
                      (not fraction >= 0, f"optical_fraction = {fraction} must be >= 0"),
                      (not delta_z >= 0, f"delta_z_nm = {delta_z} must be >= 0"),
                      (None not in (start, stop) and not stop > start,
                       f"grid_stop_nm = {stop} must lie above grid_start_nm = {start}")):
        if bad:
            raise ConfigError(f"[{sec}] {what}")
    spec = cp.get(sec, "intervals", fallback="").strip()
    intervals = [] if spec else None
    for part in spec.replace(";", ",").split(",") if spec else ():
        lo, _, hi = part.partition(":")
        try:
            lo, hi = float(lo), float(hi)
        except ValueError:
            raise ConfigError(f"[{sec}] intervals: {part.strip()!r} is not lo:hi in nm") from None
        if not lo < hi:
            raise ConfigError(f"[{sec}] intervals: {part.strip()!r} needs lo < hi")
        intervals.append((lo * 1e-9, hi * 1e-9))
    errors = TheoryErrorConfig(optical_fraction=fraction, delta_z=delta_z * 1e-9)
    return intervals, width * 1e-9, errors, (start, stop)


def _compare_series(args, settings, series_list, geometry, tol):
    intervals, width, errors, (lo, hi) = settings
    lo = max(s.separations[0] for s in series_list) * 1e9 if lo is None else lo
    hi = min(s.separations[-1] for s in series_list) * 1e9 if hi is None else hi
    common = np.arange(int(np.ceil(lo)), int(np.floor(hi)) + 1) * 1e-9
    combined = combine_gradient_series(series_list, grid=common)
    models = _models(args.model)
    theory = {
        tag: gradient_curve(model, geometry, BetaTable(), common, tol).values
        for tag, model in models.items()
    }
    if intervals is None:
        intervals = default_windows(float(common[0]), float(common[-1]), width)
    return compare(combined, theory, errors, windows=intervals), combined


def _print_verdicts(report):
    for label, wins in report.windows.items():
        for w in wins:
            print(f"{label} [{w.lo * 1e9:.0f}, {w.hi * 1e9:.0f}] nm: {w.verdict} "
                  f"({w.fraction_outside:.1%} outside)")


def _cmd_compare(args, cp):
    out = Path(args.out)
    if not args.gradients:
        raise ConfigError("compare needs --gradients <file> [<file> ...]")
    tol = _tol(args, cp)
    settings = _compare_settings(cp)
    series = [load_gradient_series(p) for p in args.gradients]
    report, _ = _compare_series(args, settings, series, _geometry(cp), tol)
    manifest = _manifest("compare", {
        "gradients": " ".join(Path(p).name for p in args.gradients),
        "model": args.model,
    })
    path = _write(out, "comparison.txt", manifest + comparison_text(report))
    _print_verdicts(report)
    print(f"wrote {path}")
    return 0


def _cmd_pipeline(args, cp):
    out = Path(args.out)
    try:
        sets = [int(s) for s in cp.get("pipeline", "sets", fallback="1").split(",")]
    except ValueError as exc:
        raise ConfigError(f"[pipeline] sets: {exc}") from None
    truth = cp.get("pipeline", "truth", fallback="plasma")
    base_seed = args.seed if args.seed is not None else _getint(cp, "pipeline", "seed", 0)
    tol = _tol(args, cp)
    settings = _compare_settings(cp)

    campaigns = [reference_campaign(n, truth) for n in sets]
    # every set is compared against one theory curve, so the sets must share
    # the physical geometry; validity bounds may differ
    first = campaigns[0][1]
    for n, (_, geometry) in zip(sets, campaigns):
        for name in ("R", "delta_s", "delta_p", "temperature"):
            if getattr(geometry, name) != getattr(first, name):
                raise ConfigError(
                    f"set {n} has {name} = {getattr(geometry, name)!r} but set "
                    f"{sets[0]} has {getattr(first, name)!r}; the pipeline compares "
                    "all sets against one theory curve"
                )

    manifest_steps = []
    series_list = []
    for n, (spec, geometry) in zip(sets, campaigns):
        seed = base_seed + n  # per-set seed rule, recorded in the manifest
        grid = synthesize_campaign(spec, geometry, seed)
        gpath = out / f"grid_set{n}_seed{seed}.txt"
        out.mkdir(parents=True, exist_ok=True)
        save_grid(grid, gpath)
        calib = calibrate(grid)
        series = extract_gradients(grid, calib)
        series_list.append(series)
        man = _manifest("pipeline-step", {
            "set": n, "seed": seed, "truth": truth, "tol": tol,
        })
        _write(out, f"calibration_set{n}.txt", man + calibration_text(calib))
        _write(out, f"gradients_set{n}.txt", man + gradient_series_text(series))
        manifest_steps.append(
            f"set {n}: seed = {seed}, C = {calib.c_cal:.6e}, z0_nm = {calib.z0 * 1e9:.4f}"
        )

    report, combined = _compare_series(args, settings, series_list, geometry, tol)
    man = _manifest("pipeline", {
        "sets": ",".join(str(n) for n in sets),
        "truth": truth,
        "base_seed": base_seed,
        "model": args.model,
        "tol": tol,
    })
    _write(out, "comparison.txt", man + comparison_text(report))
    _write(out, "gradients_combined.txt", man + gradient_series_text(combined))
    lines = [man.rstrip("\n")] + [f"# {s}" for s in manifest_steps]
    for label, wins in report.windows.items():
        for w in wins:
            lines.append(
                f"# verdict {label} [{w.lo * 1e9:.0f}, {w.hi * 1e9:.0f}] nm: {w.verdict}"
            )
    _write(out, "manifest.txt", "\n".join(lines) + "\n")
    _print_verdicts(report)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="casimirlab",
        description="Casimir force-gradient theory and virtual-experiment toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads
    for name, flags, help_text in (
        ("theory", "model tol", "emit Drude/plasma force-gradient and pressure sweeps"),
        ("synth", "seed", "synthesise a virtual measurement campaign"),
        ("calibrate", "", "run the electrostatic calibration on a grid file"),
        ("compare", "model tol", "confidence-band comparison of gradients against theory"),
        ("pipeline", "seed model tol", "synth + calibrate + compare, chained with a manifest"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=".", help="output directory")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=None)
        if "model" in flags:
            p.add_argument("--model", choices=_MODEL_CHOICES, default="both")
        if "tol" in flags:
            p.add_argument("--tol", type=float, default=None)
        if name == "calibrate":
            p.add_argument("--grid", default=None, help="measurement-grid file")
        if name == "compare":
            p.add_argument("--gradients", nargs="+", default=None,
                           help="gradient-series files to combine and compare")
    return parser


_HANDLERS = {
    "theory": _cmd_theory,
    "synth": _cmd_synth,
    "calibrate": _cmd_calibrate,
    "compare": _cmd_compare,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cp = _read_config(args.config)
        return _HANDLERS[args.command](args, cp)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CasimirLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
