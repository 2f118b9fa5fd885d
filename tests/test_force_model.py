import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casimirlab.errors import ValidityDomainError
from casimirlab.force_model import (
    BetaTable,
    Geometry,
    force_gradient,
    pressure_to_gradient_sweep,
)
from casimirlab.lifshitz import casimir_pressure
from casimirlab.optics import AU_DRUDE, Drude, Plasma

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
