"""Virtual frequency-modulation measurement campaigns.

Synthesises frequency-shift grids the way the real acquisition works: for
each applied voltage and repetition the shift is sampled densely along the
approach (sample_step), carries Gaussian noise at the instrument's quoted
frequency-shift error, and is then linearly interpolated onto the 1 nm
analysis grid.  The truth curves cover the whole approach lattice (F' is
interpolated from Chebyshev nodes); each stream is built, and draws its
noise, only at the samples that interpolation reads, the two bracketing
each grid point: draw k of a stream is the noise of its k-th read sample
in ascending order.  Generation is deterministic for a fixed seed;
per-stream randomness is split by the counter rule
SeedSequence(seed, spawn_key=(voltage_index, repetition)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import textio
from .electrostatics import gamma_over_c
from .errors import ConfigError, ModelError, ValidityDomainError
# pressure_to_gradient_sweep is not called here; bench/tests/test_bench_tracing.py
# checks that the layer tracer rebinds it in this module too
from .force_model import Geometry, gradient_curve, pressure_to_gradient_sweep  # noqa: F401
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

    def __post_init__(self):
        if len(self.voltages) != 21:
            raise ModelError(f"campaign needs exactly 21 voltages, got {len(self.voltages)}",
                             field="voltages")
        for name in ("sample_step", "grid_step", "max_z_rel"):
            if not 0 < getattr(self, name) < math.inf:
                raise ModelError(f"{name} must be finite and positive, got {getattr(self, name)}",
                                 field=name)
        for name in ("freq_systematic", "amplitude"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ModelError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)}", field=name)
        if self.repetitions < 1:
            raise ModelError("repetitions must be >= 1", field="repetitions")
        if self.sample_step > self.grid_step:
            raise ModelError("sample_step must not exceed grid_step", field="sample_step")
        if self.truth_tag not in ("drude", "plasma"):
            raise ModelError(f"unknown truth tag {self.truth_tag!r}", field="truth_tag")
        if not self.z0_true > 0:
            raise ModelError("z0_true must be positive", field="z0_true")


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


def _grid_points(span: float, step: float) -> int:
    """Points of the grid 0, step, 2 step, ... that ends within span: floor(span /
    step) + 1, the ratio raised by 1e-9 of itself first, so that a span of a whole
    number of steps keeps its last point when the division rounds below it."""
    return math.floor(span / step * (1.0 + 1e-9)) + 1


@lru_cache(maxsize=32)
def _lattice(spec: CampaignSpec):
    """The approach lattice, the analysis grid and the lattice samples read.

    Returns (z_fine, z_grid, stream_idx), read-only and built once per
    spec.  The grid ends within max_z_rel (_grid_points), the lattice one
    or two samples past it.  The linear interpolation onto the grid reads
    each stream only at the pair bracketing a grid point: a point in
    [z_fine[j], z_fine[j + 1]) reads samples j and j + 1 (stream_idx, sorted).
    """
    n_fine = math.ceil(spec.max_z_rel / spec.sample_step) + 1
    z_fine = spec.sample_step * np.arange(n_fine + 1)
    z_grid = spec.grid_step * np.arange(_grid_points(spec.max_z_rel, spec.grid_step))
    j = np.searchsorted(z_fine, z_grid, side="right") - 1
    stream_idx = np.unique(np.clip(np.concatenate([j, j + 1]), 0, n_fine))
    for arr in (z_fine, z_grid, stream_idx):
        arr.flags.writeable = False
    return z_fine, z_grid, stream_idx


@lru_cache(maxsize=32)
def _truth_curves_cached(spec: CampaignSpec, geometry: Geometry):
    z_fine = _lattice(spec)[0]
    a_fine = spec.z0_true + z_fine
    fprime = gradient_curve(model_for_tag(spec.truth_tag), geometry, a_fine)
    gamma = spec.c_true * gamma_over_c(a_fine, geometry.R)
    for arr in (gamma, fprime):
        arr.flags.writeable = False
    return z_fine, gamma, fprime


def truth_curves(spec: CampaignSpec, geometry: Geometry):
    """Noiseless gamma(a) and F'(a) on the approach lattice.

    Returns (z_rel, gamma, fprime) at every sample_step lattice point.
    F' comes from force_model.gradient_curve.  Cached per campaign so
    repeated seeds reuse the theory evaluation; the arrays are read-only.
    """
    return _truth_curves_cached(spec, geometry)


def synthesize_campaign(spec: CampaignSpec, geometry: Geometry, seed: int) -> MeasurementGrid:
    """Generate one synthetic measurement set.

    For every (voltage, repetition) stream the dense-approach shift is
    delta_omega = -gamma(a) (V - V0(a))^2 - C_true F'(a) + noise with
    V0(a) the linear law and noise ~ N(0, freq_systematic); the stream is
    then interpolated onto the grid_step separations.  A stream is built
    only at the lattice samples the interpolation reads, and its noise is
    drawn only there: draw k of the stream's own generator is the noise of
    its k-th read sample.  The streams of a set form one (stream, read
    sample) array, voltage-major, interpolated onto the grid in one pass
    (_interp_rows, bit for bit np.interp of each row).
    Bit-identical for identical (spec, geometry, seed).
    """
    z_fine, gamma_fine, fprime_fine = truth_curves(spec, geometry)
    _, z_grid, stream_idx = _lattice(spec)

    z = z_fine[stream_idx]
    gamma, fprime = gamma_fine[stream_idx], fprime_fine[stream_idx]
    v0_a = spec.v0_law.v0(spec.z0_true + z)

    n_rep = spec.repetitions
    noise = np.empty((21 * n_rep, z.size))
    for row, out in enumerate(noise):
        ss = np.random.SeedSequence(seed, spawn_key=divmod(row, n_rep))
        np.random.default_rng(ss).standard_normal(out=out)
    v = np.repeat(np.asarray(spec.voltages), n_rep)[:, None]
    streams = -gamma * (v - v0_a) ** 2 - spec.c_true * fprime + spec.freq_systematic * noise
    shifts = _interp_rows(z_grid, z, streams)
    return MeasurementGrid(z_rel=z_grid.copy(), shifts=shifts.reshape(21, n_rep, z_grid.size),
                           spec=spec, geometry=geometry, seed=seed)


def _interp_rows(x, xp, fp):
    """np.interp(x, xp, row) for every row of fp in one pass, bit for bit.

    x lies in [xp[0], xp[-1]].  A point in (xp[j], xp[j + 1]) takes
    slope * (x - xp[j]) + fp[j], the slope (fp[j + 1] - fp[j]) /
    (xp[j + 1] - xp[j]); a point on a sample takes its value exactly, as
    np.interp does.
    """
    last = xp.size - 1
    j = np.searchsorted(xp, x, side="right") - 1
    i = np.minimum(j, last - 1)
    left = fp[:, i]
    out = (fp[:, i + 1] - left) / (xp[i + 1] - xp[i]) * (x - xp[i]) + left
    exact = (j == last) | (xp[j] == x)
    out[:, exact] = fp[:, j[exact]]
    return out


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


def reference_campaign(n: int, truth_tag: str) -> tuple[CampaignSpec, Geometry]:
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


# The grid header: each key with the field it holds, of the grid, its spec,
# the spec's v0_law or the geometry, and the field's type, in file order.
# Values stay in SI at full precision, so load_grid rebuilds the exact spec;
# only the data columns use nm.
_GRID_HEADER = {
    "seed": ("grid", "seed", int),
    "z0_true_m": ("spec", "z0_true", float),
    "c_true": ("spec", "c_true", float),
    "v0_slope_V_per_m": ("v0_law", "slope", float),
    "v0_intercept_V": ("v0_law", "intercept", float),
    "truth_tag": ("spec", "truth_tag", str),
    "amplitude_m": ("spec", "amplitude", float),
    "freq_systematic_rad_s": ("spec", "freq_systematic", float),
    "repetitions": ("spec", "repetitions", int),
    "sample_step_m": ("spec", "sample_step", float),
    "grid_step_m": ("spec", "grid_step", float),
    "max_z_rel_m": ("spec", "max_z_rel", float),
    "voltages_V": ("spec", "voltages", lambda v: tuple(map(float, v.split()))),
    "R_m": ("geometry", "R", float),
    "delta_s_m": ("geometry", "delta_s", float),
    "delta_p_m": ("geometry", "delta_p", float),
    "temperature_K": ("geometry", "temperature", float),
    "max_aspect": ("geometry", "max_aspect", float),
    "a_min_m": ("geometry", "a_min", float),
}


def save_grid(grid: MeasurementGrid, path) -> None:
    """Write a grid as textio text, one block per (voltage, repetition)."""
    owners = dict(grid=grid, spec=grid.spec, v0_law=grid.spec.v0_law, geometry=grid.geometry)
    params = {key: getattr(owners[owner], name) for key, (owner, name, _) in _GRID_HEADER.items()}
    a_nm = grid.separations * 1e9
    blocks = {f"voltage_index = {vi} repetition = {rep}": (a_nm, shifts)
              for vi, reps in enumerate(grid.shifts) for rep, shifts in enumerate(reps)}
    textio.write(path, textio.header("casimirlab measurement grid v1", params)
                 + textio.table(("a_nm", "delta_omega_rad_s"), "%.6f %r", blocks=blocks))


def load_grid(path) -> MeasurementGrid:
    """Read a grid written by save_grid; textio.read's errors are ConfigErrors.

    A header value that CampaignSpec or Geometry refuses is a ConfigError
    naming its key.  Every row's a_nm must equal z0_true_m + grid_step_m * j
    to within 1e-6 nm (the column is printed to 1e-6 nm); ConfigError
    otherwise.  A drift_per_stream_m line, which older files carry, must
    read 0.0: a grid synthesised with a separation drift cannot be rebuilt
    as a CampaignSpec, and loading it raises ConfigError.
    """
    text = textio.read(path, 2)
    head, *blocks = text.groups
    if head.size:
        raise ConfigError(f"{path}: data before first block header")
    fields = {"grid": {}, "spec": {}, "v0_law": {}, "geometry": {}}
    for key, (owner, name, convert) in _GRID_HEADER.items():
        fields[owner][name] = text.value(key, convert)
    try:
        spec = CampaignSpec(v0_law=V0Law(**fields["v0_law"]), **fields["spec"])
        geometry = Geometry(**fields["geometry"])
    except (ModelError, ValidityDomainError) as exc:  # a well-formed value the model refuses
        [key] = [k for k, (_, name, _) in _GRID_HEADER.items() if name == exc.field]
        raise ConfigError(f"{path}: {key} = {text.meta[key]!r}: {exc}") from None
    if "drift_per_stream_m" in text.meta and text.value("drift_per_stream_m") != 0.0:
        raise ConfigError(f"{path}: drift_per_stream_m = {text.meta['drift_per_stream_m']} "
                          "is not supported; only a zero drift can be loaded")

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
    return MeasurementGrid(z_rel=z_rel, shifts=shifts, spec=spec, geometry=geometry,
                           **fields["grid"])
