import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casimirlab import force_model
from casimirlab.errors import NumericsError, ValidityDomainError
from casimirlab.force_model import (
    BetaTable,
    Geometry,
    force_gradient,
    gradient_curve,
    pressure_to_gradient_sweep,
)
from casimirlab.lifshitz import PressureResult, casimir_pressure
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
        fg = force_gradient(DRUDE, BARE, NO_BETA, a)
        p = casimir_pressure(DRUDE, a, BARE.temperature, 1e-9).pressure
        assert fg.value / (-2.0 * math.pi * BARE.R) == pytest.approx(p, rel=1e-12)
        assert fg.value > 0  # attractive gradient, plotted positive
        assert fg.pressure < 0

    def test_aspect_ratio_boundary(self):
        # 950 nm on the measured sphere stays just inside the domain
        force_gradient(DRUDE, GEOM, NO_BETA, 950e-9)
        with pytest.raises(ValidityDomainError):
            force_gradient(DRUDE, GEOM, NO_BETA, 960e-9)

    def test_separation_bounds(self):
        with pytest.raises(ValidityDomainError):
            force_gradient(DRUDE, GEOM, NO_BETA, 240e-9)
        wide = Geometry(R=43.466e-6, a_min=230e-9)
        assert force_gradient(DRUDE, wide, NO_BETA, 240e-9).value > 0

    def test_beta_correction_enters_linearly(self):
        a = 500e-9
        base = force_gradient(DRUDE, BARE, NO_BETA, a)
        table = BetaTable(drude=((250e-9, 2.0), (1000e-9, 2.0)))
        corr = force_gradient(DRUDE, BARE, table, a)
        assert corr.value == pytest.approx(base.value * (1.0 + 2.0 * a / BARE.R), rel=1e-12)
        assert not corr.beta_clamped

    def test_beta_clamped_outside_knots(self):
        table = BetaTable(drude=((400e-9, 1.0), (600e-9, 2.0)))
        fg = force_gradient(DRUDE, BARE, table, 300e-9)
        assert fg.beta_clamped
        assert fg.beta_value == 1.0

    def test_beta_tag_dispatch(self):
        table = BetaTable(drude=((250e-9, 1.0), (1000e-9, 1.0)))
        fd = force_gradient(DRUDE, BARE, table, 500e-9)
        fp = force_gradient(PLASMA, BARE, table, 500e-9)
        assert fd.beta_value == 1.0
        assert fp.beta_value == 0.0  # no plasma knots -> beta = 0

    def test_beta_interpolation_continuity(self):
        knots = tuple((a * 1e-9, 1.0 + 0.5 * math.sin(a / 80.0)) for a in (300, 450, 600, 800))
        table = BetaTable(drude=knots)
        a = np.linspace(300e-9, 800e-9, 400)
        vals = np.array([table.beta("drude", x)[0] for x in a])
        assert np.all(np.abs(np.diff(vals)) < 0.02)

    def test_unsorted_beta_knots_rejected(self):
        with pytest.raises(ValidityDomainError):
            BetaTable(drude=((600e-9, 1.0), (400e-9, 2.0)))


class TestSweep:
    def test_single_point_degenerate_sweep(self):
        a = 400e-9
        sweep = pressure_to_gradient_sweep(DRUDE, GEOM, NO_BETA, [a])
        point = force_gradient(DRUDE, GEOM, NO_BETA, a)
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

    def test_bad_grids_rejected(self):
        with pytest.raises(ValidityDomainError):
            pressure_to_gradient_sweep(DRUDE, GEOM, NO_BETA, [])
        with pytest.raises(ValidityDomainError):
            pressure_to_gradient_sweep(DRUDE, GEOM, NO_BETA, [500e-9, 400e-9])


def preset_lattice(n):
    """Approach lattice of campaign preset n, as the synthesis samples it."""
    spec, geom = reference_campaign(n)
    n_fine = math.ceil(spec.max_z_rel / spec.sample_step) + 1
    return spec.z0_true + spec.sample_step * np.arange(n_fine + 1), geom


def fake_pressure(shape):
    """casimir_pressure stand-in with P a^4 = -shape(ln a) and no truncation;
    its calls are counted in .calls."""
    def fake(model, a, temperature=293.15, tol=1e-9, **kwargs):
        fake.calls += 1
        return PressureResult(-shape(math.log(a)) / a**4, 0.0, 1, "tol")

    fake.calls = 0
    return fake


GRID_07 = (250 + np.arange(701)) * 1e-9
GRID_08 = (600 + np.arange(701)) * 1e-9


class TestGradientCurve:
    @pytest.mark.parametrize("tag", ["drude", "plasma"])
    @pytest.mark.parametrize("case", ["preset1", "preset2", "preset3", "preset4",
                                      "250-950nm", "600-1300nm"])
    def test_within_reported_bound_of_per_point_sweep(self, case, tag):
        if case.startswith("preset"):
            grid, geom = preset_lattice(int(case[-1]))
            # every ninth lattice sample keeps the per-point reference cheap
            pick = np.arange(0, grid.size, 9)
        else:
            grid, geom = (GRID_07, GEOM) if case == "250-950nm" else (GRID_08, WIDE)
            pick = np.arange(grid.size)
        model = model_for_tag(tag)
        curve = gradient_curve(model, geom, NO_BETA, grid)
        ref = pressure_to_gradient_sweep(model, geom, NO_BETA, grid[pick])
        assert np.all(np.abs(curve.values[pick] - ref.values) <= curve.truncation_estimates[pick])
        assert np.all(np.abs(curve.pressures[pick] - ref.pressures)
                      <= curve.pressure_truncations[pick])
        assert np.all(curve.truncation_estimates <= 5e-7 * curve.values)
        assert not curve.beta_clamped.any()

    def test_smooth_curve_takes_33_pressure_calls(self, monkeypatch):
        fake = fake_pressure(lambda t: 2.0 + math.tanh(t + 14.5))
        monkeypatch.setattr(force_model, "casimir_pressure", fake)
        curve = gradient_curve(DRUDE, GEOM, NO_BETA, GRID_07)
        assert fake.calls == 33
        exact = np.array([2.0 + math.tanh(math.log(a) + 14.5) for a in GRID_07]) / GRID_07**4
        assert np.all(np.abs(-curve.pressures - exact) <= curve.pressure_truncations)

    def test_refines_a_curve_that_16_nodes_miss(self, monkeypatch):
        # sin(30 ln a) turns about six times over 250-950 nm: the first
        # 17-/33-node check fails and the nodes double, reusing the old ones
        def shape(t):
            return 2.0 + math.sin(30.0 * t)

        fake = fake_pressure(shape)
        monkeypatch.setattr(force_model, "casimir_pressure", fake)
        curve = gradient_curve(DRUDE, GEOM, NO_BETA, GRID_07, tol=1e-9)
        assert fake.calls == 129
        exact = np.array([shape(math.log(a)) for a in GRID_07]) / GRID_07**4
        assert np.all(np.abs(-curve.pressures - exact) <= curve.pressure_truncations)
        assert np.all(curve.pressure_truncations <= 1e-9 * exact)

    def test_kink_raises(self, monkeypatch):
        # |ln a - ln 600 nm| has a kink that no polynomial resolves to 1e-9
        mid = math.log(600e-9)
        fake = fake_pressure(lambda t: 2.0 + abs(t - mid))
        monkeypatch.setattr(force_model, "casimir_pressure", fake)
        with pytest.raises(NumericsError, match="Chebyshev"):
            gradient_curve(DRUDE, GEOM, NO_BETA, GRID_07)
        assert fake.calls == 257

    def test_kink_raises_on_a_two_point_grid(self, monkeypatch):
        # both grid points are end nodes, but the curve is judged between the
        # nodes, not at the grid points, so the kink is found as on GRID_07
        mid = math.log(600e-9)
        fake = fake_pressure(lambda t: 2.0 + abs(t - mid))
        monkeypatch.setattr(force_model, "casimir_pressure", fake)
        with pytest.raises(NumericsError, match="Chebyshev"):
            gradient_curve(DRUDE, GEOM, NO_BETA, [250e-9, 950e-9])
        assert fake.calls == 257

    def test_one_point_grid(self):
        a = 400e-9
        curve = gradient_curve(DRUDE, GEOM, NO_BETA, [a])
        point = force_gradient(DRUDE, GEOM, NO_BETA, a)
        assert curve.values.shape == (1,)
        assert abs(curve.values[0] - point.value) <= curve.truncation_estimates[0]
        assert curve.truncation_estimates[0] == point.truncation_error_estimate

    def test_beta_applied_per_point(self):
        grid = np.linspace(300e-9, 900e-9, 61)
        table = BetaTable(drude=((400e-9, 1.0), (600e-9, 2.0), (800e-9, 1.5)))
        plain = gradient_curve(DRUDE, GEOM, NO_BETA, grid)
        corrected = gradient_curve(DRUDE, GEOM, table, grid)
        per_point = [table.beta("drude", a) for a in grid]
        b = np.array([bc[0] for bc in per_point])
        assert np.allclose(corrected.values, plain.values * (1.0 + b * grid / GEOM.R),
                           rtol=1e-14, atol=0)
        assert np.array_equal(corrected.beta_clamped, [bc[1] for bc in per_point])
        assert np.array_equal(corrected.truncation_estimates, plain.truncation_estimates)

    def test_bad_grids_rejected(self):
        for grid in ([], [500e-9, 400e-9], [240e-9, 500e-9], [500e-9, 960e-9]):
            with pytest.raises(ValidityDomainError):
                gradient_curve(DRUDE, GEOM, NO_BETA, grid)


class TestGeometryValidation:
    def test_bad_geometry(self):
        with pytest.raises(ValidityDomainError):
            Geometry(R=0.0)
        with pytest.raises(ValidityDomainError):
            Geometry(R=1e-5, delta_s=-1e-9)
        with pytest.raises(ValidityDomainError):
            Geometry(R=1e-5, temperature=0.0)


class TestProperties:
    @given(a=SEPARATION)
    def test_plasma_exceeds_drude(self, a):
        plasma = force_gradient(PLASMA, WIDE, NO_BETA, a).value
        assert plasma > force_gradient(DRUDE, WIDE, NO_BETA, a).value

    @pytest.mark.parametrize("model", [DRUDE, PLASMA], ids=["drude", "plasma"])
    @given(a=st.floats(250e-9, 1299e-9), gap=st.floats(1e-12, 1050e-9))
    def test_strictly_decreasing_in_separation(self, model, a, gap):
        b = min(a + gap, 1300e-9)
        assert force_gradient(model, WIDE, NO_BETA, b).value < \
            force_gradient(model, WIDE, NO_BETA, a).value
