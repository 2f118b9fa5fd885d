import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casimirlab import force_model, lifshitz, vexp
from casimirlab.errors import NumericsError, ValidityDomainError
from casimirlab.force_model import (
    BetaTable,
    Geometry,
    force_gradient,
    gradient_curve,
    gradient_sweeps,
    pressure_to_gradient_sweep,
)
from casimirlab.lifshitz import casimir_pressure
from casimirlab.optics import AU_DRUDE, Drude, Plasma
from casimirlab.vexp import model_for_tag, reference_campaign

DRUDE = Drude(AU_DRUDE)
PLASMA = Plasma(AU_DRUDE)
GEOM = Geometry(R=43.466e-6, delta_s=1.13e-9, delta_p=1.08e-9)
BARE = Geometry(R=43.466e-6)
NO_BETA = BetaTable()
# a/R up to 0.0306 reaches 1300 nm, as in the large-amplitude campaign
WIDE = Geometry(R=43.466e-6, delta_s=1.13e-9, delta_p=1.08e-9, max_aspect=0.0306)
SEPARATION = st.floats(250e-9, 1300e-9)
# a/R passes GEOM's max_aspect (0.022) first at 957 nm, a/R = 0.0220
PAST_ASPECT = (900 + np.arange(101)) * 1e-9


@pytest.fixture()
def batches(monkeypatch):
    """The lifshitz._pressures batches run while the test runs."""
    calls = []
    batch = lifshitz._pressures

    def spy(*args, **kwargs):
        calls.append(args)
        return batch(*args, **kwargs)

    monkeypatch.setattr(lifshitz, "_pressures", spy)
    return calls


class TestRoughness:
    def test_factor_at_closest_approach(self):
        # 1 + 10 (1.13^2 + 1.08^2) / 250^2 in nm
        assert GEOM.roughness_factor(250e-9) == pytest.approx(1.000391, abs=1e-6)

    def test_factor_small_everywhere_in_range(self):
        a = np.linspace(250e-9, 1300e-9, 40)
        factors = np.array([GEOM.roughness_factor(x) for x in a])
        assert np.all(factors <= 1.0005)
        assert np.all(factors > 1.0)


class TestForceGradient:
    def test_pure_proximity_when_corrections_disabled(self):
        a = 500e-9
        fg = force_gradient(DRUDE, BARE, NO_BETA, a, 1e-9)
        p = casimir_pressure(DRUDE, a, BARE.temperature, 1e-9).pressure
        assert fg.value / (-2.0 * math.pi * BARE.R) == pytest.approx(p, rel=1e-12)
        assert fg.value > 0  # attractive gradient, plotted positive
        assert fg.pressure < 0

    def test_aspect_ratio_boundary(self):
        # 950 nm on the measured sphere stays just inside the domain
        force_gradient(DRUDE, GEOM, NO_BETA, 950e-9, 1e-9)
        with pytest.raises(ValidityDomainError):
            force_gradient(DRUDE, GEOM, NO_BETA, 960e-9, 1e-9)

    def test_separation_bounds(self):
        with pytest.raises(ValidityDomainError):
            force_gradient(DRUDE, GEOM, NO_BETA, 240e-9, 1e-9)
        wide = Geometry(R=43.466e-6, a_min=230e-9)
        assert force_gradient(DRUDE, wide, NO_BETA, 240e-9, 1e-9).value > 0


class TestSweep:
    def test_single_point_degenerate_sweep(self):
        a = 400e-9
        sweep = pressure_to_gradient_sweep(DRUDE, GEOM, NO_BETA, [a])
        point = force_gradient(DRUDE, GEOM, NO_BETA, a, 1e-9)
        assert sweep.values[0] == pytest.approx(point.value, rel=1e-14)

    def test_dense_sweep_shape_and_monotonicity(self):
        grid = (250 + np.arange(701)) * 1e-9
        sweep = pressure_to_gradient_sweep(DRUDE, GEOM, NO_BETA, grid, tol=1e-7)
        assert sweep.values.size == 701
        assert np.all(sweep.values > 0)
        assert np.all(np.diff(sweep.values) < 0)

    def test_plasma_exceeds_drude_rowwise(self):
        grid = np.linspace(250e-9, 900e-9, 14)
        sd = pressure_to_gradient_sweep(DRUDE, GEOM, NO_BETA, grid)
        sp = pressure_to_gradient_sweep(PLASMA, GEOM, NO_BETA, grid)
        assert np.all(sp.values > sd.values)

    def test_bad_grids_rejected(self, batches):
        with pytest.raises(ValidityDomainError):
            pressure_to_gradient_sweep(DRUDE, GEOM, NO_BETA, [])
        with pytest.raises(ValidityDomainError):
            pressure_to_gradient_sweep(DRUDE, GEOM, NO_BETA, [500e-9, 400e-9])
        # the whole grid is checked before any thermal sum
        with pytest.raises(ValidityDomainError, match=r"a/R = 0\.0220 "):
            pressure_to_gradient_sweep(DRUDE, GEOM, NO_BETA, PAST_ASPECT)
        assert not batches


def preset_lattice(n):
    """Approach lattice of campaign preset n, as the synthesis samples it."""
    spec, geom = reference_campaign(n, "plasma")
    return spec.z0_true + vexp._lattice(spec)[0], geom


def fake_pressure(shape):
    """lifshitz.pressure_sweep stand-in, which gradient_curve calls on each
    node set, with P a^4 = -shape(ln a) and no truncation; the pressures it
    gives are counted in .calls."""
    def fake(model, a, temperature=293.15, tol=1e-9):
        fake.calls += len(a)
        return np.array([-shape(math.log(x)) / x**4 for x in a]), np.zeros(len(a))

    fake.calls = 0
    return fake


def exact_gradient(shape, geometry, grid):
    """F' = 2 pi R [roughness] shape(ln a) / a^4 of a fake_pressure(shape)."""
    return (2.0 * np.pi * geometry.R * geometry.roughness_factor(grid)
            * np.array([shape(math.log(a)) for a in grid]) / grid**4)


GRID_07 = (250 + np.arange(701)) * 1e-9
GRID_08 = (600 + np.arange(701)) * 1e-9


class TestGradientCurve:
    @pytest.mark.parametrize("tag", ["drude", "plasma"])
    @pytest.mark.parametrize("case", ["preset1", "preset2", "preset3", "preset4",
                                      "250-950nm", "600-1300nm"])
    def test_within_reported_bound_of_per_point_sweep(self, case, tag):
        # the bound is the tol the curve is accepted at, 1e-9 relative
        if case.startswith("preset"):
            grid, geom = preset_lattice(int(case[-1]))
            # every ninth lattice sample keeps the per-point reference cheap
            pick = np.arange(0, grid.size, 9)
        else:
            grid, geom = (GRID_07, GEOM) if case == "250-950nm" else (GRID_08, WIDE)
            pick = np.arange(grid.size)
        model = model_for_tag(tag)
        curve = gradient_curve(model, geom, grid)
        ref = pressure_to_gradient_sweep(model, geom, NO_BETA, grid[pick])
        assert curve.shape == grid.shape
        assert np.all(np.abs(curve[pick] / ref.values - 1.0) <= 1e-9)

    def test_smooth_curve_takes_33_pressure_calls(self, monkeypatch):
        fake = fake_pressure(lambda t: 2.0 + math.tanh(t + 14.5))
        monkeypatch.setattr(force_model, "pressure_sweep", fake)
        curve = gradient_curve(DRUDE, GEOM, GRID_07)
        assert fake.calls == 33
        exact = exact_gradient(lambda t: 2.0 + math.tanh(t + 14.5), GEOM, GRID_07)
        assert np.all(np.abs(curve / exact - 1.0) <= 1e-9)

    def test_refines_a_curve_that_16_nodes_miss(self, monkeypatch):
        # sin(30 ln a) turns about six times over 250-950 nm: the first
        # 17-/33-node check fails and the nodes double, reusing the old ones
        def shape(t):
            return 2.0 + math.sin(30.0 * t)

        fake = fake_pressure(shape)
        monkeypatch.setattr(force_model, "pressure_sweep", fake)
        curve = gradient_curve(DRUDE, GEOM, GRID_07, tol=1e-9)
        assert fake.calls == 129
        assert np.all(np.abs(curve / exact_gradient(shape, GEOM, GRID_07) - 1.0) <= 1e-9)

    def test_kink_raises(self, monkeypatch):
        # |ln a - ln 600 nm| has a kink that no polynomial resolves to 1e-9
        mid = math.log(600e-9)
        fake = fake_pressure(lambda t: 2.0 + abs(t - mid))
        monkeypatch.setattr(force_model, "pressure_sweep", fake)
        with pytest.raises(NumericsError, match="Chebyshev"):
            gradient_curve(DRUDE, GEOM, GRID_07)
        assert fake.calls == 257

    def test_kink_raises_on_a_two_point_grid(self, monkeypatch):
        # both grid points are end nodes, but the curve is judged between the
        # nodes, not at the grid points, so the kink is found as on GRID_07
        mid = math.log(600e-9)
        fake = fake_pressure(lambda t: 2.0 + abs(t - mid))
        monkeypatch.setattr(force_model, "pressure_sweep", fake)
        with pytest.raises(NumericsError, match="Chebyshev"):
            gradient_curve(DRUDE, GEOM, [250e-9, 950e-9])
        assert fake.calls == 257

    def test_one_point_grid(self):
        # no interpolant: the point's gradient_sweeps, bit for bit
        curve = gradient_curve(DRUDE, GEOM, [400e-9])
        (sweep,) = gradient_sweeps([DRUDE], GEOM, [400e-9], 1e-9)
        assert curve.shape == (1,)
        assert curve.tolist() == sweep.values.tolist()

    def test_bad_grids_rejected(self, batches):
        for grid in ([], [500e-9, 400e-9], [240e-9, 500e-9], [500e-9, 960e-9]):
            with pytest.raises(ValidityDomainError):
                gradient_curve(DRUDE, GEOM, grid)
        # the first point outside the domain is named, before any thermal sum
        with pytest.raises(ValidityDomainError, match=r"a/R = 0\.0220 "):
            gradient_curve(DRUDE, GEOM, PAST_ASPECT)
        with pytest.raises(ValidityDomainError, match=r"separation 240\.0 nm below a_min"):
            gradient_curve(DRUDE, GEOM, [240e-9, 245e-9, 500e-9])
        assert not batches


class TestGeometryValidation:
    def test_bad_geometry(self):
        with pytest.raises(ValidityDomainError):
            Geometry(R=0.0)
        with pytest.raises(ValidityDomainError):
            Geometry(R=1e-5, delta_s=-1e-9)
        with pytest.raises(ValidityDomainError):
            Geometry(R=1e-5, temperature=0.0)

    @pytest.mark.parametrize("bounds, field", [
        ({"a_min": 0.0}, "a_min"),
        ({"a_min": -250e-9}, "a_min"),
        ({"a_min": float("nan")}, "a_min"),
        ({"a_min": -math.inf}, "a_min"),
        ({"max_aspect": 0.0}, "max_aspect"),
        ({"max_aspect": -1.0}, "max_aspect"),
    ])
    def test_bad_bounds_name_their_field(self, bounds, field):
        with pytest.raises(ValidityDomainError) as info:
            Geometry(R=1e-5, **bounds)
        assert info.value.field == field

    def test_contains_is_the_rule_check_separation_raises_on(self):
        # a >= a_min and a/R < max_aspect, for floats and arrays alike
        a = np.array([249.9e-9, 250e-9, 600e-9, 956.2e-9, 956.3e-9])
        inside = [False, True, True, True, False]
        assert GEOM.contains(a).tolist() == inside
        assert [GEOM.contains(x) for x in a.tolist()] == inside
        for x in a[1:4].tolist():
            GEOM.check_separation(x)
        with pytest.raises(ValidityDomainError, match=r"^separation 249\.9 nm below a_min = 250 nm$"):
            GEOM.check_separation(a[0])
        with pytest.raises(ValidityDomainError, match=r"^a/R = 0\.0220 >= 0\.022 invalidates"):
            GEOM.check_separation(a[-1])


class TestProperties:
    @given(a=SEPARATION)
    def test_plasma_exceeds_drude(self, a):
        plasma = force_gradient(PLASMA, WIDE, NO_BETA, a, 1e-9).value
        assert plasma > force_gradient(DRUDE, WIDE, NO_BETA, a, 1e-9).value

    @pytest.mark.parametrize("model", [DRUDE, PLASMA], ids=["drude", "plasma"])
    @given(a=st.floats(250e-9, 1299e-9), gap=st.floats(1e-12, 1050e-9))
    def test_strictly_decreasing_in_separation(self, model, a, gap):
        b = min(a + gap, 1300e-9)
        assert force_gradient(model, WIDE, NO_BETA, b, 1e-9).value < \
            force_gradient(model, WIDE, NO_BETA, a, 1e-9).value
