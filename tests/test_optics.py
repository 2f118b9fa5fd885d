import math

import numpy as np
import pytest
from scipy.integrate import quad

from casimirlab.constants import ev_to_rad_per_s
from casimirlab.errors import DivergentAtZeroError, ModelError
from casimirlab.optics import (
    AU_CORE_OSCILLATORS,
    AU_DRUDE,
    Drude,
    DrudeParams,
    OpticalTable,
    Oscillator,
    Plasma,
    Tabulated,
)

EV = ev_to_rad_per_s(1.0)


def drude_im_eps(w_ev):
    """Analytic Drude absorption for the table cross-checks, in eV units."""
    wp, g = AU_DRUDE.plasma_energy, AU_DRUDE.relaxation_energy
    return wp * wp * g / (w_ev * (w_ev * w_ev + g * g))


def synthetic_drude_table(n=3000, lo=1e-4, hi=2e3):
    w = np.geomspace(lo, hi, n)
    return OpticalTable(
        photon_energies=tuple(w),
        im_epsilon=tuple(drude_im_eps(w)),
        extrapolation="drude",
        drude=AU_DRUDE,
    )


class TestEvaluation:
    def test_plasma_at_own_plasma_frequency_is_two(self):
        model = Plasma(DrudeParams(9.0, 0.0))
        assert model.epsilon(9.0 * EV) == pytest.approx(2.0, rel=1e-14)

    def test_drude_at_relaxation_energy(self):
        # 1 + 81 / (0.035 * 0.070) from the stated free-electron parameters
        model = Drude(AU_DRUDE)
        expected = 1.0 + 81.0 / (0.035 * 0.070)
        assert model.epsilon(0.035 * EV) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("model", [
        Drude(AU_DRUDE),
        Plasma(AU_DRUDE),
        Drude(AU_DRUDE, AU_CORE_OSCILLATORS),
        Plasma(AU_DRUDE, AU_CORE_OSCILLATORS),
        Tabulated(synthetic_drude_table(800)),
    ])
    def test_high_frequency_transparency(self, model):
        # eps -> 1 bounded by K/xi^2 with K the total spectral weight
        xi = np.array([200.0, 400.0, 800.0]) * EV
        eps = model.epsilon(xi)
        weight = AU_DRUDE.plasma_energy**2 + sum(
            o.strength * o.resonance_energy**2 for o in getattr(model, "oscillators", ())
        )
        bound = 2.0 * weight * (EV / xi) ** 2
        assert np.all(eps - 1.0 > 0)
        assert np.all(eps - 1.0 < bound)

    def test_zero_frequency_raises(self):
        for model in (Drude(AU_DRUDE), Plasma(AU_DRUDE), Tabulated(synthetic_drude_table(50))):
            with pytest.raises(DivergentAtZeroError):
                model.epsilon(0.0)

    def test_negative_frequency_rejected(self):
        for model in (Drude(AU_DRUDE), Plasma(AU_DRUDE), Tabulated(synthetic_drude_table(50))):
            with pytest.raises(DivergentAtZeroError, match="xi > 0"):
                model.epsilon(-1.0)
            with pytest.raises(DivergentAtZeroError, match="xi > 0"):
                model.epsilon(np.array([1.0, -1.0]) * EV)


class TestInvariants:
    @pytest.mark.parametrize("model", [
        Drude(AU_DRUDE),
        Plasma(AU_DRUDE),
        Drude(AU_DRUDE, AU_CORE_OSCILLATORS),
        Plasma(AU_DRUDE, AU_CORE_OSCILLATORS),
        Tabulated(synthetic_drude_table(600)),
    ])
    def test_strictly_decreasing_in_xi(self, model):
        xi = np.geomspace(1e-3, 1e3, 60) * EV
        eps = model.epsilon(xi)
        assert np.all(np.diff(eps) < 0)
        assert np.all(eps >= 1.0)
        assert np.all(np.isfinite(eps))

    def test_plasma_dominates_drude_at_shared_plasma_frequency(self):
        drude = Drude(AU_DRUDE)
        plasma = Plasma(DrudeParams(AU_DRUDE.plasma_energy, 0.0))
        xi = np.geomspace(1e-3, 1e3, 40) * EV
        assert np.all(plasma.epsilon(xi) >= drude.epsilon(xi))
        # equality restored as the relaxation rate vanishes
        nearly = Drude(DrudeParams(9.0, 1e-12))
        assert plasma.epsilon(1.0 * EV) == pytest.approx(nearly.epsilon(1.0 * EV), rel=1e-10)

    def test_plasma_algebraic_identity(self):
        model = Plasma(AU_DRUDE)
        for xi_ev in (0.01, 0.5, 7.0, 300.0):
            xi = xi_ev * EV
            assert xi * xi * (model.epsilon(xi) - 1.0) == pytest.approx(
                model.omega_p**2, rel=1e-12
            )

    def test_table_reproduces_analytic_drude(self):
        # table synthesised from the analytic Drude absorption must give
        # back the analytic eps(i xi); residual limited by the table's
        # piecewise-linear resolution and high-frequency truncation
        model = Tabulated(synthetic_drude_table())
        ref = Drude(AU_DRUDE)
        xi = np.geomspace(1e-3, 100.0, 25) * EV
        assert model.epsilon(xi) == pytest.approx(ref.epsilon(xi), rel=2e-4)


class TestValidation:
    def test_empty_table_rejected(self):
        with pytest.raises(ModelError):
            OpticalTable((), (), "drude", AU_DRUDE)

    def test_non_increasing_energies_rejected(self):
        with pytest.raises(ModelError):
            OpticalTable((1.0, 1.0), (0.1, 0.1), "drude", AU_DRUDE)

    def test_negative_absorption_rejected(self):
        with pytest.raises(ModelError):
            OpticalTable((1.0, 2.0), (0.1, -0.1), "drude", AU_DRUDE)

    def test_bad_drude_params(self):
        with pytest.raises(ModelError):
            DrudeParams(-1.0, 0.0)
        with pytest.raises(ModelError):
            DrudeParams(9.0, -0.1)

    def test_bad_oscillator(self):
        with pytest.raises(ModelError):
            Oscillator(strength=-1.0, resonance_energy=1.0, width_energy=0.1)
        with pytest.raises(ModelError):
            Oscillator(strength=1.0, resonance_energy=0.0, width_energy=0.1)



class TestDrudeExtrapolation:
    @pytest.mark.parametrize("w_min_ev", [1e-4, 1e-2, 0.5])
    def test_closed_form_matches_quadrature(self, w_min_ev):
        # (2/pi) wp^2 g int_0^W dw / ((w^2 + g^2)(w^2 + xi^2)) by adaptive quadrature
        table = synthetic_drude_table(20, lo=w_min_ev)
        model = Tabulated(table)
        wp, g = AU_DRUDE.omega_p, AU_DRUDE.relaxation_rate
        w_min = ev_to_rad_per_s(table.photon_energies[0])

        def reference(xi):
            val, _ = quad(lambda w: 1.0 / ((w * w + g * g) * (w * w + xi * xi)), 0.0, w_min,
                          epsabs=0.0, epsrel=1e-12, limit=200)
            return (2.0 / math.pi) * wp * wp * g * val

        xi = np.concatenate([np.geomspace(1e10, 1e19, 37), [g, g * (1 - 1e-12), g * (1 + 1e-12)]])
        got = model._extrapolation_part(xi)
        ref = np.array([reference(x) for x in xi])
        assert np.all(np.abs(got / ref - 1.0) <= 1e-12)

    def test_vanishing_relaxation_gives_plasma_term(self):
        table = OpticalTable((0.5, 1.0), (0.0, 0.0), "drude", DrudeParams(9.0, 0.0))
        xi = np.geomspace(1e12, 1e17, 11)
        expect = (AU_DRUDE.omega_p / xi) ** 2
        assert Tabulated(table)._extrapolation_part(xi) == pytest.approx(expect, rel=1e-14)
