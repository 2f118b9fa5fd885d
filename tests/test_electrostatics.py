import math

import numpy as np
import pytest

from casimirlab.constants import EPSILON_0
from casimirlab.electrostatics import (
    CantileverSpec,
    FrequencyShiftModel,
    amplitude_limit,
    calibration_constant,
    frequency_shift,
    gamma_coefficient,
    gamma_over_c,
    spring_constant,
)
from casimirlab.errors import ModelError, PrecisionError, ValidityDomainError

R_SPHERE = 43.466e-6
C_CAL = 6.485e5


def capacitance(a, R, n_terms=200000):
    """Image-charge sphere-plate capacitance, the independent oracle."""
    x = a / R
    kappa = math.log1p(x + math.sqrt(x * (x + 2.0)))
    total = 0.0
    n = 1
    while n <= n_terms:
        t = 1.0 / math.sinh(n * kappa)
        total += t
        if t < 1e-18 * total:
            break
        n += 1
    return 4.0 * math.pi * EPSILON_0 * R * math.sinh(kappa) * total


def gamma_over_c_long_sum(a, R, dps=50):
    """gamma/C = 2 pi eps0 f''(y) / R with f(y) = sum_n sinh k / sinh(n k), cosh k = 1 + y.

    The capacitance sum runs to 1e-dps relative in extended precision and
    is differentiated twice by a central difference of relative step 1e-12.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        def f(y):
            kappa = mp.acosh(1 + y)
            sk, total, n = mp.sinh(kappa), mp.mpf(0), 1
            while True:
                term = sk / mp.sinh(n * kappa)
                total += term
                if term < mp.mpf(10) ** -dps * total:
                    return total
                n += 1

        y = mp.mpf(a) / mp.mpf(R)
        h = y * mp.mpf("1e-12")
        f2 = (f(y + h) - 2 * f(y) + f(y - h)) / (h * h)
        return float(2 * mp.pi * mp.mpf(EPSILON_0) * f2 / mp.mpf(R))


def gamma_fd_oracle(a, R, c_cal):
    """gamma = (C/2) d2C_cap/da2 by Richardson-extrapolated differences."""
    def second(h):
        return (capacitance(a + h, R) - 2.0 * capacitance(a, R) + capacitance(a - h, R)) / h**2

    h = 2e-3 * a
    d1, d2 = second(h), second(h / 2.0)
    return 0.5 * c_cal * (16.0 * d2 - 4.0 * d1) / 12.0


class TestCantilever:
    def test_spring_constant_scalings(self):
        k = spring_constant(3e-5, 1e-6, 3e-4, 1.69e11)
        assert spring_constant(3e-5, 2e-6, 3e-4, 1.69e11) == pytest.approx(8 * k, rel=1e-12)
        assert spring_constant(3e-5, 1e-6, 6e-4, 1.69e11) == pytest.approx(k / 8, rel=1e-12)
        s = 1.7
        assert spring_constant(s * 3e-5, s * 1e-6, s * 3e-4, 1.69e11) == pytest.approx(
            s * k, rel=1e-12
        )

    def test_calibration_constant_value(self):
        # the measured soft-cantilever parameters
        c = calibration_constant(0.007353, 0.9444e4)
        assert c == pytest.approx(0.9444e4 / (2 * 0.007353), rel=1e-15)
        assert c == pytest.approx(6.42e5, rel=1e-3)

    def test_calibration_constant_proportionality(self):
        c = calibration_constant(0.01, 1e4)
        assert calibration_constant(0.02, 1e4) == pytest.approx(c / 2, rel=1e-14)
        assert calibration_constant(0.01, 2e4) == pytest.approx(2 * c, rel=1e-14)

    def test_cantilever_spec_consistency_guard(self):
        dims = dict(width=3e-5, thickness=1e-6, length=3e-4, youngs_modulus=1.69e11)
        k = spring_constant(**dims)
        CantileverSpec(k=k * 1.005, omega0=1e4, **dims)
        with pytest.raises(ModelError):
            CantileverSpec(k=k * 1.05, omega0=1e4, **dims)

    def test_amplitude_guard(self):
        assert amplitude_limit(700e-9) == 20e-9
        assert amplitude_limit(300e-9) == 10e-9
        with pytest.raises(ValidityDomainError):
            amplitude_limit(200e-9)
        FrequencyShiftModel(calibration=C_CAL, amplitude=10e-9, linearity_limit=10e-9)
        with pytest.raises(ValidityDomainError):
            FrequencyShiftModel(calibration=C_CAL, amplitude=21e-9, linearity_limit=20e-9)


class TestGammaCoefficient:
    def test_proximity_asymptote(self):
        # gamma a^2 / (C pi eps0 R) -> 1 as a/R -> 0
        for ratio, tol in ((1e-3, 5e-3), (1e-4, 5e-4)):
            a = ratio * R_SPHERE
            g = gamma_coefficient(a, R_SPHERE, C_CAL)
            pfa = C_CAL * math.pi * EPSILON_0 * R_SPHERE / a**2
            assert g / pfa == pytest.approx(1.0, abs=tol)

    @pytest.mark.parametrize("ratio", [0.005, 0.01, 0.02])
    def test_against_capacitance_curvature_oracle(self, ratio):
        a = ratio * R_SPHERE
        series = gamma_coefficient(a, R_SPHERE, C_CAL, tol=1e-12)
        oracle = gamma_fd_oracle(a, R_SPHERE, C_CAL)
        assert series == pytest.approx(oracle, rel=1e-6)

    def test_kappa_at_equal_radius(self):
        # cosh(kappa) = 2 at a = R
        from casimirlab.electrostatics import _kappa

        assert _kappa(1.0, 1.0) == pytest.approx(math.acosh(2.0), rel=1e-14)
        assert _kappa(1.0, 1.0) == pytest.approx(1.3170, abs=1e-4)

    def test_strictly_decreasing(self):
        a = np.linspace(250e-9, 2e-6, 60)
        g = C_CAL * gamma_over_c(a, R_SPHERE)
        assert np.all(np.diff(g) < 0)

    def test_termination_is_converged(self):
        # tightening the stop threshold must not move the value by more
        # than the looser threshold
        a = 0.01 * R_SPHERE
        loose = gamma_coefficient(a, R_SPHERE, C_CAL, tol=1e-8)
        tight = gamma_coefficient(a, R_SPHERE, C_CAL, tol=1e-13)
        assert abs(loose - tight) <= 1e-8 * abs(tight)

    def test_precision_guard(self):
        with pytest.raises(PrecisionError):
            gamma_coefficient(1e-10 * R_SPHERE, R_SPHERE, C_CAL)
        with pytest.raises(PrecisionError):
            gamma_over_c(np.array([0.01, 1e-10, 0.02]) * R_SPHERE, R_SPHERE)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gamma_over_c(-1e-9, R_SPHERE)
        with pytest.raises(ValueError):
            gamma_over_c(np.array([300e-9, 0.0]), R_SPHERE)
        with pytest.raises(ValueError):
            gamma_over_c(300e-9, 0.0)

    @pytest.fixture(scope="class")
    def long_sums(self):
        return {ratio: gamma_over_c_long_sum(ratio * R_SPHERE, R_SPHERE)
                for ratio in (3e-4, 1e-3, 5.7e-3, 0.03)}

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_tol_met_against_long_sum(self, long_sums, tol):
        for ratio, reference in long_sums.items():
            got = gamma_over_c(ratio * R_SPHERE, R_SPHERE, tol=tol)
            assert abs(got / reference - 1.0) <= tol, (ratio, tol)

    def test_slope_matches_central_difference(self):
        a = np.array([3e-4, 1e-3, 5.7e-3, 0.03]) * R_SPHERE
        g, dg = gamma_over_c(a, R_SPHERE, tol=1e-14, slope=True)
        assert np.array_equal(g, gamma_over_c(a, R_SPHERE, tol=1e-14))
        h = 1e-3 * a
        fd = (gamma_over_c(a - 2 * h, R_SPHERE, tol=1e-14)
              - 8.0 * gamma_over_c(a - h, R_SPHERE, tol=1e-14)
              + 8.0 * gamma_over_c(a + h, R_SPHERE, tol=1e-14)
              - gamma_over_c(a + 2 * h, R_SPHERE, tol=1e-14)) / (12.0 * h)
        assert np.all(np.abs(dg / fd - 1.0) <= 1e-7)
        g1, dg1 = gamma_over_c(float(a[1]), R_SPHERE, tol=1e-14, slope=True)
        assert isinstance(g1, float) and isinstance(dg1, float)
        assert (g1, dg1) == pytest.approx((g[1], dg[1]), rel=1e-12)


class TestFrequencyShift:
    def setup_method(self):
        self.gamma_fn = lambda a: gamma_coefficient(a, R_SPHERE, C_CAL)
        self.fprime_fn = lambda a: 3.3e-5 * (250e-9 / a) ** 4  # smooth stand-in

    def test_apex_equals_casimir_channel(self):
        a, v0 = 400e-9, 0.0107
        dw = frequency_shift(a, v0, v0, self.gamma_fn, self.fprime_fn, C_CAL)
        assert dw == pytest.approx(-C_CAL * self.fprime_fn(a), rel=1e-14)

    def test_parabola_symmetry(self):
        a, v0 = 500e-9, 0.002
        for u in (0.01, 0.033):
            up = frequency_shift(a, v0 + u, v0, self.gamma_fn, self.fprime_fn, C_CAL)
            dn = frequency_shift(a, v0 - u, v0, self.gamma_fn, self.fprime_fn, C_CAL)
            assert up == pytest.approx(dn, rel=1e-14)

    def test_equal_shift_pair_midpoint_recovers_v0(self):
        a, v0, u = 600e-9, 0.0079, 0.021
        v1, v2 = v0 - u, v0 + u
        s1 = frequency_shift(a, v1, v0, self.gamma_fn, self.fprime_fn, C_CAL)
        s2 = frequency_shift(a, v2, v0, self.gamma_fn, self.fprime_fn, C_CAL)
        assert s1 == pytest.approx(s2, rel=1e-14)
        assert (v1 + v2) / 2.0 == pytest.approx(v0, rel=1e-14)

    def test_downward_parabola_with_apex_at_v0(self):
        a, v0 = 450e-9, 0.005
        v = np.linspace(-0.05, 0.06, 23)
        dw = np.array([
            frequency_shift(a, vi, v0, self.gamma_fn, self.fprime_fn, C_CAL) for vi in v
        ])
        coef = np.polyfit(v, dw, 2)
        assert coef[0] == pytest.approx(-self.gamma_fn(a), rel=1e-9)
        assert -coef[1] / (2 * coef[0]) == pytest.approx(v0, abs=1e-12)
        apex = np.polyval(coef, -coef[1] / (2 * coef[0]))
        assert apex == pytest.approx(-C_CAL * self.fprime_fn(a), rel=1e-9)
