import bisect
import math

import numpy as np
import pytest

from casimirlab import electrostatics
from casimirlab.constants import EPSILON_0
from casimirlab.electrostatics import calibration_constant, gamma_coefficient, gamma_over_c
from casimirlab.errors import PrecisionError

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
    def test_calibration_constant_value(self):
        # the measured soft-cantilever parameters
        c = calibration_constant(0.007353, 0.9444e4)
        assert c == pytest.approx(0.9444e4 / (2 * 0.007353), rel=1e-15)
        assert c == pytest.approx(6.42e5, rel=1e-3)

    def test_calibration_constant_proportionality(self):
        c = calibration_constant(0.01, 1e4)
        assert calibration_constant(0.02, 1e4) == pytest.approx(c / 2, rel=1e-14)
        assert calibration_constant(0.01, 2e4) == pytest.approx(2 * c, rel=1e-14)


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



def doubling_bisect_term_count(kappas, tol):
    """The image-series term count found by doubling N from 2, then bisecting.

    The same tail bound as electrostatics._term_count, searched without
    its closed-form starting point.
    """
    floor = tol * electrostatics._terms(np.maximum(2.0, np.round(2.0 / kappas)), kappas)[0]

    def enough(n):
        coth_u, csch_u = electrostatics._coth_csch(n * kappas)
        r = ((n + 2.0) / (n + 1.0)) ** 2 * np.exp(-kappas)
        tail = (2.0 * (coth_u**2 + csch_u**2) / -np.expm1(-2.0 * n * kappas)
                * np.exp(2.0 * math.log(n + 1.0) - (n + 1.0) * kappas))
        return bool(np.all((r < 1.0) & (tail <= floor * (1.0 - r))))

    hi = 2
    while not enough(hi):
        hi *= 2
    return hi // 2 + bisect.bisect_left(range(hi // 2, hi + 1), True, key=enough)


class TestTermCount:
    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-14])
    def test_calibration_grids_match_doubling_search(self, tol):
        # the z0 bracket of the fit, [0.4, 2.5] x z0, over the preset grids
        for z0, span in ((248.0e-9, 702e-9), (234.4e-9, 716e-9), (571.9e-9, 728.1e-9)):
            for scale in (0.4, 1.0, 2.5):
                a = scale * z0 + np.arange(0.0, span + 0.5e-9, 1e-9)
                kappas = electrostatics._kappa(a, R_SPHERE)
                assert electrostatics._term_count(kappas, tol) == \
                    doubling_bisect_term_count(kappas, tol), (z0, scale, tol)

    def test_random_kappa_sets_match_doubling_search(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            kappas = np.exp(rng.uniform(math.log(1e-4), math.log(3.0), rng.integers(1, 40)))
            tol = 10.0 ** rng.uniform(-15.0, 1.0)
            assert electrostatics._term_count(kappas, tol) == \
                doubling_bisect_term_count(kappas, tol), (kappas.min(), kappas.max(), tol)
