"""Virtual frequency-modulation measurement campaigns.

Synthesises frequency-shift grids the way the real acquisition works: for
each applied voltage and repetition the shift is sampled densely along the
approach (sample_step), carries Gaussian noise at the instrument's quoted
frequency-shift error, and is then linearly interpolated onto the 1 nm
analysis grid.  Only the samples that interpolation reads are computed:
the two bracketing each grid point.  Generation is deterministic for a
fixed seed; per-stream randomness is split by the counter rule
SeedSequence(seed, spawn_key=(voltage_index, repetition)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .electrostatics import gamma_over_c
from .errors import ConfigError, ModelError, ValidityDomainError
from .force_model import BetaTable, Geometry, pressure_to_gradient_sweep
from .optics import AU_DRUDE, Drude, PermittivityModel, Plasma

__all__ = [
    "V0Law",
    "CampaignSpec",
    "MeasurementGrid",
    "model_for_tag",
    "synthesize_campaign",
    "truth_curves",
    "reference_campaign",
    "reference_geometry",
    "save_grid",
    "load_grid",
]


@dataclass(frozen=True)
class V0Law:
    """Linear residual-potential law V0(a) = slope * a + intercept (SI)."""

    slope: float       # V/m
    intercept: float   # V

    @classmethod
    def from_mv(cls, slope_mv_per_nm: float, intercept_mv: float) -> "V0Law":
        # 1 mV/nm = 1e6 V/m
        return cls(slope=slope_mv_per_nm * 1e6, intercept=intercept_mv * 1e-3)

    def v0(self, a):
        return self.slope * np.asarray(a, dtype=float) + self.intercept

    @property
    def slope_mv_per_nm(self) -> float:
        return self.slope * 1e-6

    @property
    def intercept_mv(self) -> float:
        return self.intercept * 1e3


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to synthesise one measurement set.

    The 21 applied voltages follow the acquisition pattern (10 varied + 11
    fixed); z0_true / c_true / v0_law are the hidden truth the calibration
    pipeline must recover; freq_systematic is the instrument's quoted
    frequency-shift error, used both as the synthetic per-sample noise
    scale and as the systematic error in the analysis budget.
    """

    voltages: tuple[float, ...]   # V, exactly 21 entries
    z0_true: float                # m
    c_true: float                 # s/kg
    v0_law: V0Law
    truth_tag: str                # 'drude' or 'plasma'
    amplitude: float              # m
    freq_systematic: float        # rad/s
    max_z_rel: float              # m, span of relative separations
    repetitions: int = 1
    sample_step: float = 0.14e-9  # m
    grid_step: float = 1.0e-9     # m
    drift_per_stream: float = 0.0 # m of separation drift per applied-voltage stream

    def __post_init__(self):
        if len(self.voltages) != 21:
            raise ModelError(f"campaign needs exactly 21 voltages, got {len(self.voltages)}")
        if self.repetitions < 1:
            raise ModelError("repetitions must be >= 1")
        if self.sample_step > self.grid_step:
            raise ModelError("sample_step must not exceed grid_step")
        if self.truth_tag not in ("drude", "plasma"):
            raise ModelError(f"unknown truth tag {self.truth_tag!r}")
        if not self.z0_true > 0 or not self.max_z_rel > 0:
            raise ModelError("z0_true and max_z_rel must be positive")


def model_for_tag(tag: str) -> PermittivityModel:
    """Default gold response for a zero-frequency tag."""
    if tag == "drude":
        return Drude(AU_DRUDE)
    if tag == "plasma":
        return Plasma(AU_DRUDE)
    raise ModelError(f"unknown model tag {tag!r}")


@dataclass
class MeasurementGrid:
    """Synthetic frequency-shift grid, indexed (voltage, repetition, separation)."""

    z_rel: np.ndarray             # m, relative separations on the analysis grid
    shifts: np.ndarray            # rad/s, shape (n_voltages, repetitions, n_sep)
    spec: CampaignSpec
    geometry: Geometry
    seed: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.shifts)):
            raise ModelError("non-finite frequency shifts in grid")
        if np.any(np.diff(self.z_rel) <= 0):
            raise ModelError("separations must be strictly increasing")

    @property
    def separations(self) -> np.ndarray:
        """Truth absolute separations z0_true + z_rel (not visible to calibration)."""
        return self.spec.z0_true + self.z_rel

    @property
    def voltages(self) -> np.ndarray:
        return np.asarray(self.spec.voltages, dtype=float)


def _brackets(z_fine: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sorted lattice indices of the pairs np.interp(x, z_fine, ...) reads.

    A point in [z_fine[j], z_fine[j + 1]) reads samples j and j + 1; a point
    past either end reads the end sample.
    """
    j = np.searchsorted(z_fine, x, side="right") - 1
    return np.unique(np.clip(np.concatenate([j, j + 1]), 0, z_fine.size - 1))


def _lattice(spec: CampaignSpec):
    """The approach lattice, the analysis grid and the lattice samples read.

    Returns (z_fine, z_grid, stream_idx, truth_idx).  Each stream is read
    only at the pairs bracketing a grid point (stream_idx).  The truth
    curves are read there, and with a drift also at the pairs bracketing
    every drifted stream sample plus both lattice ends (truth_idx).
    """
    n_fine = math.ceil(spec.max_z_rel / spec.sample_step) + 1
    z_fine = spec.sample_step * np.arange(n_fine + 1)
    n_grid = int(math.floor(spec.max_z_rel / spec.grid_step + 0.5)) + 1
    z_grid = spec.grid_step * np.arange(n_grid)
    stream_idx = _brackets(z_fine, z_grid)
    truth_idx = stream_idx
    if spec.drift_per_stream != 0.0:
        offsets = spec.drift_per_stream * np.arange(21 * spec.repetitions)
        drifted = (z_fine[stream_idx][None, :] + offsets[:, None]).ravel()
        truth_idx = np.union1d(stream_idx, np.append(_brackets(z_fine, drifted), [0, n_fine]))
    return z_fine, z_grid, stream_idx, truth_idx


@lru_cache(maxsize=32)
def _truth_curves_cached(spec: CampaignSpec, geometry: Geometry):
    z_fine, _, _, truth_idx = _lattice(spec)
    a_fine = spec.z0_true + z_fine
    geometry.check_separation(float(a_fine[0]))
    geometry.check_separation(float(a_fine[-1]))
    # the series term count depends on the whole point set, so gamma is
    # evaluated on the full lattice and then read at the truth samples
    gamma_fine = spec.c_true * gamma_over_c(a_fine, geometry.R)
    sweep = pressure_to_gradient_sweep(
        model_for_tag(spec.truth_tag), geometry, BetaTable(), a_fine[truth_idx]
    )
    return z_fine[truth_idx], gamma_fine[truth_idx], sweep.values


def truth_curves(spec: CampaignSpec, geometry: Geometry):
    """Noiseless gamma(a) and F'(a) at the approach samples the synthesis reads.

    Returns (z_rel, gamma, fprime) on the sample_step lattice, restricted
    to the samples that the linear interpolation onto the grid_step
    analysis grid reads (with a drift, also those the drifted streams
    read); np.interp over them equals np.interp over the full lattice at
    those points.  Cached per campaign so repeated seeds reuse the
    expensive theory evaluation.
    """
    return _truth_curves_cached(spec, geometry)


def synthesize_campaign(spec: CampaignSpec, geometry: Geometry, seed: int) -> MeasurementGrid:
    """Generate one synthetic measurement set.

    For every (voltage, repetition) stream the dense-approach shift is
    delta_omega = -gamma(a) (V - V0(a))^2 - C_true F'(a) + noise with
    V0(a) the linear law and noise ~ N(0, freq_systematic); the stream is
    then interpolated onto the grid_step separations.  With a non-zero
    drift_per_stream, stream k = 21 * repetition + voltage_index reads the
    truth curves k * drift_per_stream further along the approach; the noise
    draw does not depend on it.  Each stream draws noise for the whole
    lattice but is built only at the samples the interpolation reads.
    Bit-identical for identical (spec, geometry, seed).
    """
    z_truth, gamma_truth, fprime_truth = truth_curves(spec, geometry)
    z_fine, z_grid, stream_idx, truth_idx = _lattice(spec)
    if z_grid[-1] > z_fine[-1]:
        raise ValidityDomainError("analysis grid escapes the sampled approach")

    z = z_fine[stream_idx]
    a = spec.z0_true + z
    at_stream = np.searchsorted(truth_idx, stream_idx)
    gamma, fprime, v0_a = gamma_truth[at_stream], fprime_truth[at_stream], spec.v0_law.v0(a)

    shifts = np.empty((21, spec.repetitions, z_grid.size))
    for vi, v in enumerate(spec.voltages):
        for rep in range(spec.repetitions):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(vi, rep)))
            off = spec.drift_per_stream * (rep * 21 + vi)
            g, f, v0 = gamma, fprime, v0_a
            if off != 0.0:
                g = np.interp(z + off, z_truth, gamma_truth)
                f = np.interp(z + off, z_truth, fprime_truth)
                v0 = spec.v0_law.v0(a + off)
            noise = rng.normal(0.0, spec.freq_systematic, z_fine.size)[stream_idx]
            stream = -g * (v - v0) ** 2 - spec.c_true * f + noise
            shifts[vi, rep] = np.interp(z_grid, z, stream)
    return MeasurementGrid(z_rel=z_grid, shifts=shifts, spec=spec, geometry=geometry, seed=seed)


def _varied_plus_fixed(lo: float, hi: float, fixed: float) -> tuple[float, ...]:
    """Ten voltages stepping across [lo, hi) plus eleven at the fixed value."""
    step = (hi - lo) / 10.0
    return tuple(lo + k * step for k in range(10)) + (fixed,) * 11


def reference_geometry(**overrides) -> Geometry:
    """Sphere-plate geometry of the source experiment."""
    kwargs = dict(R=43.466e-6, delta_s=1.13e-9, delta_p=1.08e-9, temperature=293.15)
    kwargs.update(overrides)
    return Geometry(**kwargs)


_CAMPAIGNS = {
    1: dict(
        voltages=_varied_plus_fixed(-0.040, 0.060, 0.010),
        z0_true=248.0e-9, c_true=6.485e5,
        v0_law=V0Law.from_mv(-8.48e-5, 10.7),
        amplitude=10e-9, freq_systematic=5.5e-2, max_z_rel=702e-9,
    ),
    2: dict(
        voltages=_varied_plus_fixed(-0.049, 0.051, 0.001),
        z0_true=240.2e-9, c_true=6.422e5,
        v0_law=V0Law.from_mv(-5.33e-4, 2.32),
        amplitude=10e-9, freq_systematic=5.5e-2, max_z_rel=710e-9,
    ),
    3: dict(
        voltages=_varied_plus_fixed(-0.049, 0.051, 0.001),
        z0_true=234.4e-9, c_true=6.529e5,
        v0_law=V0Law.from_mv(2.16e-4, 2.00),
        amplitude=10e-9, freq_systematic=5.5e-2, max_z_rel=716e-9,
    ),
    4: dict(
        voltages=_varied_plus_fixed(-0.092, 0.108, 0.008),
        z0_true=571.9e-9, c_true=6.342e5,
        v0_law=V0Law.from_mv(3.23e-4, 7.50),
        amplitude=20e-9, freq_systematic=4.0e-2, max_z_rel=728.1e-9,
    ),
}


def reference_campaign(n: int, truth_tag: str = "plasma") -> tuple[CampaignSpec, Geometry]:
    """Campaign spec and geometry replicating measurement set n (1..4).

    Sets 1-3 use the small 10 nm amplitude and run up to 950 nm absolute
    separation; set 4 uses 20 nm amplitude from 572 nm up to 1300 nm.
    The geometry validity bounds are widened just enough to cover each
    set's actual range.
    """
    if n not in _CAMPAIGNS:
        raise ConfigError(f"no such campaign preset: {n}")
    spec = CampaignSpec(truth_tag=truth_tag, **_CAMPAIGNS[n])
    if n == 4:
        geometry = reference_geometry(a_min=560e-9, max_aspect=0.0306)
    else:
        geometry = reference_geometry(a_min=230e-9)
    return spec, geometry


def save_grid(grid: MeasurementGrid, path) -> None:
    """Write a grid as '#'-commented text, one block per (voltage, repetition)."""
    spec, g = grid.spec, grid.geometry
    # metadata stays in SI with full-precision reprs so load_grid
    # reconstructs the exact spec; only the data columns use nm
    lines = [
        "# casimirlab measurement grid v1",
        f"# seed = {grid.seed}",
        f"# z0_true_m = {spec.z0_true!r}",
        f"# c_true = {spec.c_true!r}",
        f"# v0_slope_V_per_m = {spec.v0_law.slope!r}",
        f"# v0_intercept_V = {spec.v0_law.intercept!r}",
        f"# truth_tag = {spec.truth_tag}",
        f"# amplitude_m = {spec.amplitude!r}",
        f"# freq_systematic_rad_s = {spec.freq_systematic!r}",
        f"# repetitions = {spec.repetitions}",
        f"# sample_step_m = {spec.sample_step!r}",
        f"# grid_step_m = {spec.grid_step!r}",
        f"# max_z_rel_m = {spec.max_z_rel!r}",
        f"# drift_per_stream_m = {spec.drift_per_stream!r}",
        "# voltages_V = " + " ".join(repr(v) for v in spec.voltages),
        f"# R_m = {g.R!r}",
        f"# delta_s_m = {g.delta_s!r}",
        f"# delta_p_m = {g.delta_p!r}",
        f"# temperature_K = {g.temperature!r}",
        f"# max_aspect = {g.max_aspect!r}",
        f"# a_min_m = {g.a_min!r}",
        f"# a_max_m = {g.a_max!r}",
        "# columns: a_nm  delta_omega_rad_s",
    ]
    a_nm = grid.separations * 1e9
    for vi in range(grid.shifts.shape[0]):
        for rep in range(grid.shifts.shape[1]):
            lines.append(f"# block voltage_index = {vi} repetition = {rep}")
            for j in range(grid.z_rel.size):
                lines.append(f"{a_nm[j]:.6f} {float(grid.shifts[vi, rep, j])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_grid(path) -> MeasurementGrid:
    """Read a grid written by save_grid.

    Every row's a_nm must equal z0_true_m + grid_step_m * j to within
    1e-6 nm (the column is printed to 1e-6 nm); ConfigError otherwise.
    """
    meta: dict[str, str] = {}
    blocks: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] | None = None
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("block"):
                current = []
                blocks.append(current)
            elif "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if current is None:
            raise ConfigError(f"{path}: data before first block header")
        try:
            a_nm, shift = map(float, line.split())
        except ValueError:
            raise ConfigError(f"{path}: malformed data row {line!r}") from None
        current.append((a_nm, shift))

    try:
        spec = CampaignSpec(
            voltages=tuple(float(v) for v in meta["voltages_V"].split()),
            z0_true=float(meta["z0_true_m"]),
            c_true=float(meta["c_true"]),
            v0_law=V0Law(float(meta["v0_slope_V_per_m"]), float(meta["v0_intercept_V"])),
            truth_tag=meta["truth_tag"],
            amplitude=float(meta["amplitude_m"]),
            freq_systematic=float(meta["freq_systematic_rad_s"]),
            repetitions=int(meta["repetitions"]),
            sample_step=float(meta["sample_step_m"]),
            grid_step=float(meta["grid_step_m"]),
            max_z_rel=float(meta["max_z_rel_m"]),
            drift_per_stream=float(meta["drift_per_stream_m"]),
        )
        geometry = Geometry(
            R=float(meta["R_m"]),
            delta_s=float(meta["delta_s_m"]),
            delta_p=float(meta["delta_p_m"]),
            temperature=float(meta["temperature_K"]),
            max_aspect=float(meta["max_aspect"]),
            a_min=float(meta["a_min_m"]),
            a_max=float(meta["a_max_m"]),
        )
        seed = int(meta["seed"])
    except KeyError as exc:
        raise ConfigError(f"{path}: missing metadata key {exc.args[0]}") from None

    n_v, n_rep = 21, spec.repetitions
    if len(blocks) != n_v * n_rep:
        raise ConfigError(f"{path}: expected {n_v * n_rep} blocks, found {len(blocks)}")
    n_sep = len(blocks[0])
    if any(len(b) != n_sep for b in blocks):
        raise ConfigError(f"{path}: ragged blocks")
    data = np.array(blocks).reshape(n_v, n_rep, n_sep, 2)
    z_rel = spec.grid_step * np.arange(n_sep)
    expected_nm = (spec.z0_true + z_rel) * 1e9
    bad = np.argwhere(np.abs(data[..., 0] - expected_nm) > 1e-6)
    if bad.size:
        vi, rep, j = bad[0]
        raise ConfigError(
            f"{path}: block voltage_index = {vi} repetition = {rep}, row {j}: "
            f"a_nm = {data[vi, rep, j, 0]:.6f}, but z0_true_m + grid_step_m * {j} "
            f"gives {expected_nm[j]:.6f}"
        )
    shifts = data[..., 1].copy()
    return MeasurementGrid(z_rel=z_rel, shifts=shifts, spec=spec, geometry=geometry, seed=seed)
