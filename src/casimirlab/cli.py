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
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, textio
from .analysis import (
    CompareSettings,
    TheoryErrorConfig,
    calibrate,
    calibration_text,
    compare_series,
    comparison_text,
    extract_gradients,
    gradient_series_text,
    load_gradient_series,
    run_pipeline,
)
from .errors import CasimirLabError, ConfigError, ModelError, ValidityDomainError
from .force_model import (  # noqa: F401  (pressure_to_gradient_sweep: see ROADMAP item 7)
    Geometry,
    gradient_sweeps,
    pressure_to_gradient_sweep,
)
from .lifshitz import TOL_RANGE
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
    """[section] key, or default if it is unset; a value that is not a finite number is a
    config error."""
    try:
        value = cp.getfloat(section, key, fallback=default)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {value} must be finite")
    return value


def _getfloats(cp, section, key, default):
    """[section] key as space-separated finite numbers, or default if it is unset."""
    text = cp.get(section, key, fallback=None)
    if text is None:
        return default
    try:
        values = tuple(float(v) for v in text.split())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"[{section}] {key} = {text} must be finite")
    return values


def _getint(cp, section, key, default):
    try:
        return cp.getint(section, key, fallback=default)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


# the config key of each field that Geometry and CampaignSpec check; a_min is
# refused alone or against a_max, so either key may be the one written
_KEYS = {
    "geometry": {"R": "r_um", "delta_s": "delta_s_nm", "delta_p": "delta_p_nm",
                 "temperature": "temperature_k", "a_min": ("a_min_nm", "a_max_nm"),
                 "max_aspect": "max_aspect"},
    "campaign": {"voltages": "voltages_v", "z0_true": "z0_nm", "amplitude": "amplitude_nm",
                 "freq_systematic": "freq_systematic_rad_s", "max_z_rel": "max_z_rel_nm",
                 "repetitions": "repetitions", "truth_tag": "truth"},
    "pipeline": {"truth_tag": "truth"},
}


def _refused(cp, section, exc):
    """The ConfigError for a well-formed [section] value the model refuses.

    It names the key and the value as written, when the refused field has one;
    of a field's several keys, the first that is written.
    """
    keys = _KEYS[section].get(exc.field, ())
    written = [k for k in ((keys,) if isinstance(keys, str) else keys) if cp.has_option(section, k)]
    if not written:
        return ConfigError(f"[{section}] {exc}")
    return ConfigError(f"[{section}] {written[0]} = {cp.get(section, written[0])}: {exc}")


def _geometry(cp) -> Geometry:
    sec = "geometry"
    try:
        return Geometry(
            R=_getfloat(cp, sec, "r_um", 43.466) * 1e-6,
            delta_s=_getfloat(cp, sec, "delta_s_nm", 1.13) * 1e-9,
            delta_p=_getfloat(cp, sec, "delta_p_nm", 1.08) * 1e-9,
            temperature=_getfloat(cp, sec, "temperature_k", 293.15),
            max_aspect=_getfloat(cp, sec, "max_aspect", 0.022),
            a_min=_getfloat(cp, sec, "a_min_nm", 250.0) * 1e-9,
            a_max=_getfloat(cp, sec, "a_max_nm", 2000.0) * 1e-9,
        )
    except ValidityDomainError as exc:  # a well-formed value the geometry cannot take
        raise _refused(cp, sec, exc) from None


def _campaign(cp):
    sec = "campaign"
    truth = cp.get(sec, "truth", fallback="plasma")

    def need(key, get=_getfloat):
        if not cp.has_option(sec, key):
            raise ConfigError(f"[{sec}] {key} is required without a preset")
        return get(cp, sec, key, None)

    try:
        if cp.has_option(sec, "preset"):
            n = _getint(cp, sec, "preset", None)
            return reference_campaign(n, truth), n
        if not cp.has_section(sec):
            raise ConfigError("synth needs a [campaign] section (preset or explicit fields)")
        spec = CampaignSpec(
            voltages=need("voltages_v", _getfloats),
            z0_true=need("z0_nm") * 1e-9,
            c_true=need("c_s_per_kg"),
            v0_law=V0Law.from_mv(need("v0_slope_mv_per_nm"), need("v0_intercept_mv")),
            truth_tag=truth,
            amplitude=need("amplitude_nm") * 1e-9,
            freq_systematic=need("freq_systematic_rad_s"),
            max_z_rel=need("max_z_rel_nm") * 1e-9,
            repetitions=_getint(cp, sec, "repetitions", 1),
        )
    except ModelError as exc:  # a well-formed value the campaign cannot take
        raise _refused(cp, sec, exc) from None
    return (spec, _geometry(cp)), 0


def _tol(args, cp):
    """Thermal-sum tolerance from --tol, else [theory] tol, checked before any work."""
    tol = args.tol if args.tol is not None else _getfloat(cp, "theory", "tol", 1e-9)
    lo, hi = TOL_RANGE
    if not lo <= tol <= hi:
        raise ConfigError(f"tol = {tol} lies outside [{lo:g}, {hi:g}]")
    return tol


# the most points a [theory] grid may hold (8 MB per column)
_MAX_THEORY_POINTS = 1_000_000


def _theory_grid(cp):
    sec = "theory"
    start = _getfloat(cp, sec, "a_start_nm", 250.0)
    stop = _getfloat(cp, sec, "a_stop_nm", 950.0)
    step = _getfloat(cp, sec, "a_step_nm", 1.0)
    if not step > 0:
        raise ConfigError(f"[{sec}] a_step_nm must be positive, got {step}")
    if not stop >= start:
        raise ConfigError(f"[{sec}] a_stop_nm = {stop} lies below a_start_nm = {start}")
    steps = (stop - start) / step  # a float, so an overflow is inf, checked before any array
    if not steps <= _MAX_THEORY_POINTS - 1:
        raise ConfigError(f"[{sec}] a_start_nm = {start}, a_stop_nm = {stop} and "
                          f"a_step_nm = {step} give {steps + 1:.7g} points, over the limit "
                          f"of {_MAX_THEORY_POINTS}")
    return (start + step * np.arange(int(round(steps)) + 1)) * 1e-9


def _models(selection):
    tags = ("drude", "plasma") if selection == "both" else (selection,)
    return {tag: model_for_tag(tag) for tag in tags}


def _manifest(command: str, params: dict, notes=()) -> str:
    return textio.header(f"casimirlab {__version__}", {"command": command, **params}, notes)


def _theory_text(header: str, grid, name: str, unit: str, by_tag: dict) -> str:
    """Both theory files' rows: a in nm (%.3f), each model's values (%.9e), then its
    truncations (%.3e), two spaces apart; by_tag maps a tag to (values, truncations)."""
    cols = ["a_nm"] + [f"{name}_{t}_{unit}" for t in by_tag] + [f"trunc_{t}_{unit}" for t in by_tag]
    row = "  ".join(["%.3f"] + ["%.9e"] * len(by_tag) + ["%.3e"] * len(by_tag))
    columns = [grid * 1e9] + [v for v, _ in by_tag.values()] + [t for _, t in by_tag.values()]
    return header + textio.table(cols, row, columns)


def _seed(seed: int, what: str) -> int:
    if seed < 0:  # numpy's SeedSequence takes no negative seed
        raise ConfigError(f"{what} is {seed}; a seed must be >= 0")
    return seed


def _cmd_theory(args, cp):
    out = Path(args.out)
    grid = _theory_grid(cp)
    geometry = _geometry(cp)
    tol = _tol(args, cp)
    models = _models(args.model)
    params = {
        "model": args.model,
        "a_start_nm": f"{grid[0] * 1e9:g}",
        "a_stop_nm": f"{grid[-1] * 1e9:g}",
        "n_points": grid.size,
        "tol": tol,
        "r_um": f"{geometry.R * 1e6:g}",
        "temperature_k": geometry.temperature,
    }

    # one batch computes every selected model's thermal sums
    sweeps = dict(zip(models, gradient_sweeps(models.values(), geometry, grid, tol)))
    grads = {t: (s.values * 1e6, s.truncation_estimates * 1e6) for t, s in sweeps.items()}
    textio.write(out / "theory_gradients.txt",
                 _theory_text(_manifest("theory", params), grid, "Fgrad", "uN_per_m", grads))
    pressures = {t: (s.pressures, s.pressure_truncations) for t, s in sweeps.items()}
    header = _manifest("theory", params, ["plate-plate Casimir pressure sweep"])
    textio.write(out / "theory_pressures.txt", _theory_text(header, grid, "P", "Pa", pressures))
    print(f"wrote {out / 'theory_gradients.txt'} and {out / 'theory_pressures.txt'}")
    return 0


def _cmd_synth(args, cp):
    out = Path(args.out)
    (spec, geometry), n = _campaign(cp)
    seed = _seed(_getint(cp, "campaign", "seed", 0) if args.seed is None else args.seed, "seed")
    grid = synthesize_campaign(spec, geometry, seed)
    name = f"grid_set{n}_seed{seed}.txt" if n else f"grid_seed{seed}.txt"
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
    textio.write(out / f"calibration_{stem}.txt", manifest + calibration_text(calib))
    textio.write(out / f"gradients_{stem}.txt", manifest + gradient_series_text(series))
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
        if not -math.inf < lo < hi < math.inf:
            raise ConfigError(f"[{sec}] intervals: {part.strip()!r} needs finite lo < hi")
        intervals.append((lo * 1e-9, hi * 1e-9))
    errors = TheoryErrorConfig(optical_fraction=fraction, delta_z=delta_z * 1e-9)
    return CompareSettings(intervals, width * 1e-9, errors, (start, stop))


def _print_verdicts(grid, clipped, report):
    if clipped:
        print(f"compare grid clipped to the geometry's range: "
              f"[{grid[0] * 1e9:.0f}, {grid[-1] * 1e9:.0f}] nm")
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
    grid, clipped, _, report = compare_series(series, settings, _models(args.model),
                                              _geometry(cp), tol)
    manifest = _manifest("compare", {
        "gradients": tuple(Path(p).name for p in args.gradients),
        "model": args.model,
    })
    path = textio.write(out / "comparison.txt", manifest + comparison_text(report))
    _print_verdicts(grid, clipped, report)
    print(f"wrote {path}")
    return 0


def _cmd_pipeline(args, cp):
    out = Path(args.out)
    try:
        sets = [int(s) for s in cp.get("pipeline", "sets", fallback="1").split(",")]
    except ValueError as exc:
        raise ConfigError(f"[pipeline] sets: {exc}") from None
    for n in sets:
        if sets.count(n) > 1:
            raise ConfigError(f"[pipeline] sets: set {n} is listed more than once; "
                              "each set is synthesised once and combined as independent data")
    truth = cp.get("pipeline", "truth", fallback="plasma")
    base_seed = args.seed if args.seed is not None else _getint(cp, "pipeline", "seed", 0)
    seeds = [_seed(base_seed + n, f"set {n}'s seed") for n in sets]  # recorded in the manifest
    tol = _tol(args, cp)
    settings = _compare_settings(cp)

    try:
        campaigns = [reference_campaign(n, truth) for n in sets]
    except ModelError as exc:
        raise _refused(cp, "pipeline", exc) from None
    run = run_pipeline(campaigns, seeds, settings, _models(args.model), tol)

    manifest_steps = []
    for n, seed, (grid, calib, series) in zip(sets, seeds, run.sets):
        save_grid(grid, out / f"grid_set{n}_seed{seed}.txt")
        man = _manifest("pipeline-step", {"set": n, "seed": seed, "truth": truth, "tol": tol})
        textio.write(out / f"calibration_set{n}.txt", man + calibration_text(calib))
        textio.write(out / f"gradients_set{n}.txt", man + gradient_series_text(series))
        manifest_steps.append(f"set {n}: seed = {seed}, C = {calib.c_cal:.6e}, "
                              f"z0_nm = {calib.z0 * 1e9:.4f}")
    params = {
        "sets": ",".join(str(n) for n in sets),
        "truth": truth,
        "base_seed": base_seed,
        "model": args.model,
        "tol": tol,
    }
    man = _manifest("pipeline", params)
    textio.write(out / "comparison.txt", man + comparison_text(run.report))
    textio.write(out / "gradients_combined.txt", man + gradient_series_text(run.combined))
    verdicts = [f"verdict {label} [{w.lo * 1e9:.0f}, {w.hi * 1e9:.0f}] nm: {w.verdict}"
                for label, wins in run.report.windows.items() for w in wins]
    textio.write(out / "manifest.txt", _manifest("pipeline", params, manifest_steps + verdicts))
    _print_verdicts(run.grid, run.clipped, run.report)
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
