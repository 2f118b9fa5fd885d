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
import functools
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
    _grid_points,
    load_grid,
    model_for_tag,
    reference_campaign,
    save_grid,
    synthesize_campaign,
    truth_range,
)

_MODEL_CHOICES = ("drude", "plasma", "both")


# Every config key, declared once: [section] key -> (parser, default, the Geometry
# or CampaignSpec field it feeds).  A number must be finite.  A key that feeds a
# field is scaled to SI by its _nm or _um suffix; the others keep their unit.  A
# default of None leaves the key unset: a campaign field without a preset is
# required, a [compare] grid end falls back to the series.
_SCHEMA = {
    "geometry": {"r_um": (float, 43.466, "R"), "delta_s_nm": (float, 1.13, "delta_s"),
                 "delta_p_nm": (float, 1.08, "delta_p"),
                 "temperature_k": (float, 293.15, "temperature"),
                 "max_aspect": (float, 0.022, "max_aspect"), "a_min_nm": (float, 250.0, "a_min")},
    "campaign": {"preset": (int, None, None), "truth": (str, "plasma", "truth_tag"),
                 "seed": (int, 0, None),
                 "voltages_v": (lambda text: tuple(map(float, text.split())), None, "voltages"),
                 "z0_nm": (float, None, "z0_true"), "c_s_per_kg": (float, None, "c_true"),
                 "v0_slope_mv_per_nm": (float, None, None), "v0_intercept_mv": (float, None, None),
                 "amplitude_nm": (float, None, "amplitude"),
                 "freq_systematic_rad_s": (float, None, "freq_systematic"),
                 "max_z_rel_nm": (float, None, "max_z_rel"),
                 "repetitions": (int, 1, "repetitions")},
    "theory": {"tol": (float, 1e-9, None), "a_start_nm": (float, 250.0, None),
               "a_stop_nm": (float, 950.0, None), "a_step_nm": (float, 1.0, None)},
    "compare": {"window_nm": (float, 100.0, None), "optical_fraction": (float, 0.005, None),
                "delta_z_nm": (float, 0.5, None), "grid_start_nm": (float, None, None),
                "grid_stop_nm": (float, None, None), "intervals": (str, "", None)},
    "pipeline": {"sets": (lambda text: tuple(map(int, text.split(","))), (1,), None),
                 "truth": (str, "plasma", "truth_tag"), "seed": (int, 0, None)},
}
_SCALE = {"_nm": 1e-9, "_um": 1e-6}


def _section(cp, section) -> dict:
    """[section]'s values by key, parsed, and each unset key's default."""
    values = {}
    for key, (parse, default, _) in _SCHEMA[section].items():
        text = cp.get(section, key, fallback=None)
        try:
            value = values[key] = default if text is None else parse(text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
        numbers = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(x) for x in numbers if isinstance(x, float)):
            raise ConfigError(f"[{section}] {key} = {value if parse is float else text} "
                              "must be finite")
    return values


def _fields(section, values) -> dict:
    """The Geometry or CampaignSpec fields that [section]'s values feed, in SI."""
    return {field: values[key] * _SCALE[key[-3:]] if key[-3:] in _SCALE else values[key]
            for key, (_, _, field) in _SCHEMA[section].items() if field}


def _unknown(what, name, known):
    """The ConfigError for an unknown section or key, naming the nearest known names."""
    from difflib import SequenceMatcher  # on this error path only

    score = {k: SequenceMatcher(None, name, k).ratio() for k in known}
    near = " or ".join(k for k in known if score[k] == max(score.values()))
    return ConfigError(f"unknown {what} (did you mean {near}?)")


def _read_config(path) -> configparser.ConfigParser:
    """The config file at path, or none; each of its sections and keys is one that
    _SCHEMA declares, and each value parses.  [DEFAULT] is an unknown section, as
    configparser would copy its keys into every section."""
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            cp.read_string(textio.load(p), source=p)
        except configparser.Error as exc:
            raise ConfigError(f"{p}: {exc}") from None
    for section in cp.sections():
        if section not in _SCHEMA:
            raise _unknown(f"[{section}]", section, _SCHEMA)
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise _unknown(f"[{section}] {key}", key, _SCHEMA[section])
        _section(cp, section)
    return cp


def _refused(cp, section, exc):
    """The ConfigError for a well-formed [section] value the model refuses,
    naming the key and the value as written when the refused field has one."""
    key = next((key for key, (_, _, field) in _SCHEMA[section].items()
                if field and field == exc.field and cp.has_option(section, key)), None)
    return ConfigError(f"[{section}] {exc}" if key is None else
                       f"[{section}] {key} = {cp.get(section, key)}: {exc}")


def _geometry(cp) -> Geometry:
    try:
        return Geometry(**_fields("geometry", _section(cp, "geometry")))
    except ValidityDomainError as exc:  # a well-formed value the geometry cannot take
        raise _refused(cp, "geometry", exc) from None


def _campaign(cp):
    sec = "campaign"
    v = _section(cp, sec)
    n = v["preset"]
    try:
        if n is not None:
            for key in cp.options(sec):
                if key not in ("preset", "truth", "seed"):
                    raise ConfigError(f"[{sec}] {key} = {cp.get(sec, key)}: a preset sets "
                                      "every campaign value but truth and seed")
            return reference_campaign(n, v["truth"]), n
        if not cp.has_section(sec):
            raise ConfigError("synth needs a [campaign] section (preset or explicit fields)")
        for key, value in v.items():
            if value is None and key != "preset":
                raise ConfigError(f"[{sec}] {key} is required without a preset")
        v0_law = V0Law.from_mv(v["v0_slope_mv_per_nm"], v["v0_intercept_mv"])
        spec = CampaignSpec(v0_law=v0_law, **_fields(sec, v))
    except ModelError as exc:  # a well-formed value the campaign cannot take
        raise _refused(cp, sec, exc) from None
    geometry = _geometry(cp)
    near, far = truth_range(spec)
    _check_ends(cp, sec, geometry, (("z0_nm", near), ("max_z_rel_nm", far)))
    return (spec, geometry), 0


def _check_ends(cp, sec, geometry, ends):
    """ConfigError naming the key and value of the first (key, a) of ends that the
    geometry refuses; the ends bound the separations of the work that follows."""
    for key, a in ends:
        try:
            geometry.check_separation(a)
        except ValidityDomainError as exc:
            written = cp.get(sec, key, fallback=_SCHEMA[sec][key][1])
            raise ConfigError(f"[{sec}] {key} = {written}: {exc}") from None


def _tol(args, cp):
    """Thermal-sum tolerance from --tol, else [theory] tol, checked before any work."""
    tol = args.tol if args.tol is not None else _section(cp, "theory")["tol"]
    lo, hi = TOL_RANGE
    if not lo <= tol <= hi:
        raise ConfigError(f"tol = {tol} lies outside [{lo:g}, {hi:g}]")
    return tol


# the most points a [theory] grid may hold (8 MB per column)
_MAX_THEORY_POINTS = 1_000_000


def _theory_grid(cp):
    sec = "theory"
    start, stop, step = map(_section(cp, sec).get, ("a_start_nm", "a_stop_nm", "a_step_nm"))
    if not step > 0:
        raise ConfigError(f"[{sec}] a_step_nm must be positive, got {step}")
    if not stop >= start:
        raise ConfigError(f"[{sec}] a_stop_nm = {stop} lies below a_start_nm = {start}")
    steps = (stop - start) / step  # a float, so an overflow is inf, checked before any array
    if not steps <= _MAX_THEORY_POINTS - 1:
        raise ConfigError(f"[{sec}] a_start_nm = {start}, a_stop_nm = {stop} and "
                          f"a_step_nm = {step} give {steps + 1:.7g} points, over the limit "
                          f"of {_MAX_THEORY_POINTS}")
    return (start + step * np.arange(_grid_points(stop - start, step))) * 1e-9


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
    _check_ends(cp, "theory", geometry, (("a_start_nm", grid[0]), ("a_stop_nm", grid[-1])))
    tol = _tol(args, cp)
    models = _models(args.model)
    params = {"model": args.model, "a_start_nm": f"{grid[0] * 1e9:g}",
              "a_stop_nm": f"{grid[-1] * 1e9:g}", "n_points": grid.size, "tol": tol,
              "r_um": f"{geometry.R * 1e6:g}", "temperature_k": geometry.temperature}

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
    seed = _seed(_section(cp, "campaign")["seed"] if args.seed is None else args.seed, "seed")
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
    before any work: a value that would give no verdict or a wrong band is a config error,
    and so is a window below the compared grid's 1 nm step, which holds at most one point."""
    sec = "compare"
    v = _section(cp, sec)
    width, fraction, delta_z = v["window_nm"], v["optical_fraction"], v["delta_z_nm"]
    start, stop = v["grid_start_nm"], v["grid_stop_nm"]
    for bad, what in ((not width >= 1, f"window_nm = {width} must be at least the compared "
                       "grid's 1 nm step"),
                      (not fraction >= 0, f"optical_fraction = {fraction} must be >= 0"),
                      (not delta_z >= 0, f"delta_z_nm = {delta_z} must be >= 0"),
                      (None not in (start, stop) and not stop > start,
                       f"grid_stop_nm = {stop} must lie above grid_start_nm = {start}")):
        if bad:
            raise ConfigError(f"[{sec}] {what}")
    spec = v["intervals"].strip()
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


def _print_verdicts(report, clipped):
    grid = report.separations
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
    clipped, _, report = compare_series(series, settings, _models(args.model), _geometry(cp),
                                        tol)
    manifest = _manifest("compare", {
        "gradients": tuple(Path(p).name for p in args.gradients),
        "model": args.model,
    })
    path = textio.write(out / "comparison.txt", manifest + comparison_text(report))
    _print_verdicts(report, clipped)
    print(f"wrote {path}")
    return 0


def _cmd_pipeline(args, cp):
    out = Path(args.out)
    v = _section(cp, "pipeline")
    sets, truth = v["sets"], v["truth"]
    for n in sets:
        if sets.count(n) > 1:
            raise ConfigError(f"[pipeline] sets: set {n} is listed more than once; "
                              "each set is synthesised once and combined as independent data")
    base_seed = args.seed if args.seed is not None else v["seed"]
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
    params = {"sets": ",".join(str(n) for n in sets), "truth": truth, "base_seed": base_seed,
              "model": args.model, "tol": tol}
    man = _manifest("pipeline", params)
    textio.write(out / "comparison.txt", man + comparison_text(run.report))
    textio.write(out / "gradients_combined.txt", man + gradient_series_text(run.combined))
    verdicts = [f"verdict {label} [{w.lo * 1e9:.0f}, {w.hi * 1e9:.0f}] nm: {w.verdict}"
                for label, wins in run.report.windows.items() for w in wins]
    textio.write(out / "manifest.txt", _manifest("pipeline", params, manifest_steps + verdicts))
    _print_verdicts(run.report, run.clipped)
    return 0


@functools.cache  # argparse only reads the parser, so every main call shares one
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
