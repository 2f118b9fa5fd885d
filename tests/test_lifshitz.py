import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import zeta

from casimirlab import lifshitz
from casimirlab.constants import C_LIGHT, HBAR, K_B, ev_to_rad_per_s
from casimirlab.errors import (
    AmbiguousZeroTermError,
    DivergentAtZeroError,
    NumericsError,
    ValidityDomainError,
)
from casimirlab.force_model import BetaTable, Geometry, pressure_to_gradient_sweep
from casimirlab.lifshitz import (
    IDEAL_METAL,
    MatsubaraCache,
    _fresnel,
    _tagged_reflection,
    _tail_bound,
    casimir_pressure,
    matsubara_frequency,
    pressure_sweep,
    pressure_sweep_text,
)
from casimirlab.optics import AU_DRUDE, Drude, Plasma

T_LAB = 293.15
DRUDE = Drude(AU_DRUDE)
PLASMA = Plasma(AU_DRUDE)


class TestMatsubara:
    def test_zeroth_frequency_vanishes(self):
        for temp in (4.2, 77.0, 293.15):
            assert matsubara_frequency(0, temp) == 0.0

    def test_first_frequency_constant_arithmetic(self):
        # 2 pi k_B T / hbar at 293.15 K
        expected = 2.0 * math.pi * K_B * 293.15 / HBAR
        got = matsubara_frequency(1, 293.15)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(2.4116e14, rel=1e-3)
        assert got * HBAR / 1.602176634e-19 == pytest.approx(0.1587, abs=2e-4)

    def test_linearity_in_index(self):
        x1 = matsubara_frequency(1, T_LAB)
        assert matsubara_frequency(10, T_LAB) == pytest.approx(10.0 * x1, rel=1e-15)

    def test_preconditions(self):
        with pytest.raises(ValidityDomainError):
            matsubara_frequency(-1, T_LAB)
        with pytest.raises(ValidityDomainError):
            matsubara_frequency(1, 0.0)


class _HugeEps:
    """Surrogate with enormous permittivity for the ideal-metal limit."""

    zero_tag = "drude"
    omega_p = 1.0

    def epsilon(self, xi):
        return 1e14 * np.ones_like(np.asarray(xi, dtype=float))


class _Untagged:
    def epsilon(self, xi):
        return 2.0


def fresnel_at(eps, xi, k_perp):
    """_fresnel at imaginary frequency xi and in-plane wavevector k_perp."""
    w = xi / C_LIGHT
    return _fresnel(eps, math.hypot(k_perp, w), w)


class TestReflection:
    def test_drude_zero_frequency(self):
        for k in (1e5, 1e6, 1e7):
            assert _tagged_reflection(DRUDE, k) == (1.0, 0.0)

    def test_plasma_zero_frequency(self):
        k = 2e6
        r_tm, r_te = _tagged_reflection(PLASMA, k)
        s = math.hypot(k, PLASMA.omega_p / C_LIGHT)
        assert r_tm == 1.0
        assert r_te == pytest.approx((k - s) / (k + s), rel=1e-14)
        assert -1.0 < r_te < 0.0

    def test_ideal_metal_limit_of_large_eps(self):
        xi = ev_to_rad_per_s(0.2)
        r_tm, r_te = fresnel_at(_HugeEps().epsilon(xi), xi, 1e6)
        assert r_tm == pytest.approx(1.0, abs=1e-6)
        assert r_te == pytest.approx(-1.0, abs=1e-6)
        assert _tagged_reflection(IDEAL_METAL, 1e6) == (1.0, -1.0)

    def test_untagged_zero_term_is_ambiguous(self):
        with pytest.raises(AmbiguousZeroTermError):
            _tagged_reflection(_Untagged(), 1e6)

    def test_magnitudes_bounded(self):
        for model in (DRUDE, PLASMA):
            for xi_ev in (1e-3, 0.16, 3.0, 50.0):
                xi = ev_to_rad_per_s(xi_ev)
                for k in (1e4, 1e6, 1e8):
                    r_tm, r_te = fresnel_at(model.epsilon(xi), xi, k)
                    assert abs(r_tm) <= 1.0
                    assert abs(r_te) <= 1.0

    def test_normal_incidence(self):
        # k_perp = 0: r_TM = -r_TE = (sqrt(eps) - 1) / (sqrt(eps) + 1)
        xi = ev_to_rad_per_s(0.16)
        eps = DRUDE.epsilon(xi)
        r_tm, r_te = fresnel_at(eps, xi, 0.0)
        n = math.sqrt(eps)
        assert r_tm == pytest.approx((n - 1.0) / (n + 1.0), rel=1e-14)
        assert r_te == pytest.approx(-(n - 1.0) / (n + 1.0), rel=1e-14)

    def test_preconditions(self):
        # the kernel takes eps(xi) from a model, and both the Matsubara
        # index and the models reject a negative argument
        with pytest.raises(ValidityDomainError):
            matsubara_frequency(-1, T_LAB)
        for model in (DRUDE, PLASMA):
            with pytest.raises(DivergentAtZeroError):
                model.epsilon(-1e14)


class TestPressureOracles:
    def test_ideal_metal_low_temperature_limit(self):
        # analytic T = 0 ideal-reflector result as the oracle
        for a_nm in (250.0, 500.0, 1000.0, 1300.0):
            a = a_nm * 1e-9
            exact = -math.pi**2 * HBAR * C_LIGHT / (240.0 * a**4)
            res = casimir_pressure(IDEAL_METAL, a, temperature=10.0, tol=1e-9)
            assert res.pressure == pytest.approx(exact, rel=1e-3)

    def test_drude_zero_term_closed_form(self):
        # the l = 0 integral for a drude-tagged metal is TM-only with
        # r = 1: -k_B T zeta(3) / (8 pi a^3)
        for a in (1e-6, 3e-6):
            res = casimir_pressure(DRUDE, a, T_LAB, tol=1e-10, with_breakdown=True)
            exact = -K_B * T_LAB * zeta(3) / (8.0 * math.pi * a**3)
            assert res.term_breakdown[0] == pytest.approx(exact, rel=1e-4)

    def test_attractive_and_monotone(self):
        grid = np.linspace(250e-9, 1300e-9, 22)
        for model in (DRUDE, PLASMA):
            p, _ = pressure_sweep(model, grid, T_LAB, tol=1e-8)
            assert np.all(p < 0)
            assert np.all(np.diff(-p) < 0)

    def test_metal_like_pressure_negative_wide_range(self):
        for a in (100e-9, 1e-6, 10e-6):
            assert casimir_pressure(DRUDE, a, T_LAB, 1e-7).pressure < 0

    def test_table_model_tracks_analytic_drude_pressure(self):
        # a drude-tagged absorption table synthesised from the analytic
        # model must run through the whole thermal sum and land on the
        # analytic pressure within the table-resolution error
        from casimirlab.optics import OpticalTable, Tabulated

        wp, g = AU_DRUDE.plasma_energy, AU_DRUDE.relaxation_energy
        w = np.geomspace(1e-4, 2e3, 2000)
        table = Tabulated(OpticalTable(
            photon_energies=tuple(w),
            im_epsilon=tuple(wp * wp * g / (w * (w * w + g * g))),
            extrapolation="drude",
            drude=AU_DRUDE,
        ))
        for a in (300e-9, 800e-9):
            p_table = casimir_pressure(table, a, T_LAB, 1e-8).pressure
            p_exact = casimir_pressure(DRUDE, a, T_LAB, 1e-8).pressure
            assert p_table == pytest.approx(p_exact, rel=2e-4)


def _kperp_term_oracle(model, l, a, temperature):
    """Direct k-perp integration of one Matsubara term, in Pa (unit weight)."""
    xi = matsubara_frequency(l, temperature)
    eps = model.epsilon(xi)

    def integrand(k):
        q = math.hypot(k, xi / C_LIGHT)
        kl = math.sqrt(k * k + eps * (xi / C_LIGHT) ** 2)
        r_tm = (eps * q - kl) / (eps * q + kl)
        r_te = (q - kl) / (q + kl)
        total = 0.0
        for r in (r_tm, r_te):
            total += 1.0 / (math.exp(2.0 * a * q) / (r * r) - 1.0)
        return q * k * total

    upper = 60.0 / (2.0 * a)
    val, _ = quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-11, limit=400)
    return -K_B * temperature / math.pi * val


class TestPressureProperties:
    def test_primed_sum_convention(self):
        res = casimir_pressure(DRUDE, 500e-9, T_LAB, 1e-10, with_breakdown=True)
        terms = res.term_breakdown
        # full-weight zero term minus half of it reproduces the primed sum
        full = math.fsum([2.0 * terms[0]] + list(terms[1:])) - terms[0]
        assert full == pytest.approx(res.pressure, rel=1e-15)
        assert math.fsum(terms) == pytest.approx(res.pressure, rel=1e-15)

    def test_plasma_exceeds_drude_with_growing_gap(self):
        grid = np.linspace(250e-9, 1300e-9, 22)
        pd, _ = pressure_sweep(DRUDE, grid, T_LAB, 1e-9)
        pp, _ = pressure_sweep(PLASMA, grid, T_LAB, 1e-9)
        assert np.all(np.abs(pp) > np.abs(pd))
        rel_gap = (np.abs(pp) - np.abs(pd)) / np.abs(pd)
        assert np.all(np.diff(rel_gap) > 0)

    @pytest.mark.parametrize("a", [300e-9, 900e-9])
    def test_halving_tolerance(self, a):
        for tol in (1e-6, 1e-8):
            p1 = casimir_pressure(DRUDE, a, T_LAB, tol).pressure
            p2 = casimir_pressure(DRUDE, a, T_LAB, tol / 2.0).pressure
            assert abs(p2 - p1) <= tol * abs(p1)

    def test_substitution_invariance_against_kperp_oracle(self):
        # the y = 2 a q substitution must agree with direct k-perp
        # integration term by term
        a = 400e-9
        res = casimir_pressure(DRUDE, a, T_LAB, 1e-10, with_breakdown=True)
        for l in (1, 3, 10):
            oracle = _kperp_term_oracle(DRUDE, l, a, T_LAB)
            assert res.term_breakdown[l] == pytest.approx(oracle, rel=1e-8)

    def test_sweeps_match_per_point_summation(self):
        # both sweeps share one permittivity cache across separations; each
        # point must still match a fresh evaluation, term count included
        # (the truncation bound is strictly decreasing in the term count)
        seps = [300e-9, 800e-9]
        for model in (DRUDE, PLASMA, IDEAL_METAL):
            swept, swept_trunc = pressure_sweep(model, seps, T_LAB, 1e-9)
            grad = pressure_to_gradient_sweep(model, Geometry(R=43.466e-6), BetaTable(), seps, 1e-9)
            cache = MatsubaraCache(model, T_LAB)
            for i, a in enumerate(seps):
                fresh = casimir_pressure(model, a, T_LAB, 1e-9)
                cached = casimir_pressure(model, a, T_LAB, 1e-9, cache=cache)
                assert cached.n_terms == fresh.n_terms
                for p in (swept[i], grad.pressures[i], cached.pressure):
                    assert p == pytest.approx(fresh.pressure, rel=1e-12, abs=0)
                assert swept_trunc[i] == fresh.truncation_error_estimate
                assert grad.pressure_truncations[i] == fresh.truncation_error_estimate

    def test_truncation_estimate_bounds_tail(self):
        # loosely-converged run must sit within its own truncation bound of
        # a tightly-converged one
        loose = casimir_pressure(DRUDE, 300e-9, T_LAB, 1e-5)
        tight = casimir_pressure(DRUDE, 300e-9, T_LAB, 1e-11)
        assert abs(loose.pressure - tight.pressure) <= loose.truncation_error_estimate \
            + 1e-5 * abs(tight.pressure)

    def test_cache_reuse_matches_fresh_evaluation(self):
        cache = MatsubaraCache(DRUDE, T_LAB)
        for a in (300e-9, 600e-9, 900e-9):
            fresh = casimir_pressure(DRUDE, a, T_LAB, 1e-9)
            cached = casimir_pressure(DRUDE, a, T_LAB, 1e-9, cache=cache)
            assert cached.pressure == fresh.pressure

    def test_domain_checks(self):
        with pytest.raises(ValidityDomainError):
            casimir_pressure(DRUDE, 10e-9, T_LAB)
        with pytest.raises(ValidityDomainError):
            casimir_pressure(DRUDE, 1e-3, T_LAB)
        with pytest.raises(ValidityDomainError):
            casimir_pressure(DRUDE, 1e-6, T_LAB, tol=1e-2)
        with pytest.raises(ValidityDomainError):
            casimir_pressure(DRUDE, 1e-6, -1.0)

    def test_sweep_rejects_a_bad_temperature_like_a_single_pressure(self):
        with pytest.raises(ValidityDomainError, match="temperature"):
            pressure_sweep(DRUDE, np.array([500e-9, 600e-9]), -1.0)

    def test_sweep_text_layout(self):
        grid = np.array([500e-9, 600e-9])
        by_label = {
            "drude": pressure_sweep(DRUDE, grid, T_LAB, 1e-7),
            "plasma": pressure_sweep(PLASMA, grid, T_LAB, 1e-7),
        }
        text = pressure_sweep_text(grid, by_label)
        assert "a_nm" in text and "P_drude_Pa" in text and "P_plasma_Pa" in text
        assert "trunc_drude_Pa" in text
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(rows) == 2


# Long-sum oracle: every term of the primed sum up to y_l >= 70, each on 55
# twenty-point Gauss-Legendre panels out to y_l + 80, with the reflection
# coefficients and the occupancy written out here rather than taken from the
# package's kernel.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_ORACLE_EDGES = np.concatenate([[0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5],
                                np.arange(2.0, 20.0), np.arange(20.0, 82.0, 2.0)])


def _long_sum_pressure(model, a, temperature):
    y1 = 2.0 * a * matsubara_frequency(1, temperature) / C_LIGHT
    y_l = y1 * np.arange(math.ceil(70.0 / y1) + 1)
    lo, hi = _ORACLE_EDGES[:-1], _ORACLE_EDGES[1:]
    t = ((0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _GL_X).ravel()
    w = ((0.5 * (hi - lo))[:, None] * _GL_W).ravel()
    y = y_l[:, None] + t
    if model is IDEAL_METAL:
        r_tm, r_te = np.ones_like(y), -np.ones_like(y)
    else:
        eps = np.ones_like(y_l)
        eps[1:] = model.epsilon(y_l[1:] * C_LIGHT / (2.0 * a))
        eps = eps[:, None]
        k = np.sqrt(y * y + (eps - 1.0) * y_l[:, None] ** 2)
        r_tm = (eps * y - k) / (eps * y + k)
        r_te = (y - k) / (y + k)
        r_tm[0] = 1.0
        if model.zero_tag == "drude":
            r_te[0] = 0.0
        else:
            s = np.hypot(y[0], 2.0 * a * model.omega_p / C_LIGHT)
            r_te[0] = (y[0] - s) / (y[0] + s)
    with np.errstate(divide="ignore"):
        f = y * y * (1.0 / (np.exp(y) / r_tm**2 - 1.0) + 1.0 / (np.exp(y) / r_te**2 - 1.0))
    terms = f @ w
    terms[0] *= 0.5
    return -K_B * temperature / (8.0 * math.pi * a**3) * math.fsum(terms.tolist())


def _ideal_closed_form_pressure(a, temperature):
    """Ideal reflector: int_{y_l}^inf 2 y^2 / (e^y - 1) dy summed as
    2 sum_k e^{-k y_l} (y_l^2 / k + 2 y_l / k^2 + 2 / k^3), to k y_l >= 80."""
    y1 = 2.0 * a * matsubara_frequency(1, temperature) / C_LIGHT
    ls = np.arange(1, math.ceil(80.0 / y1) + 1)
    counts = np.ceil(80.0 / (ls * y1)).astype(int)
    y0 = np.repeat(ls * y1, counts)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts) + 1.0
    parts = 2.0 * np.exp(-k * y0) * (y0 * y0 / k + 2.0 * y0 / k**2 + 2.0 / k**3)
    total = math.fsum([2.0 * zeta(3)] + parts.tolist())
    return -K_B * temperature / (8.0 * math.pi * a**3) * total


def _terms(model, a, temperature, n_terms):
    """Lower limits y_l and permittivities of the rows l = 0 .. n_terms."""
    xi1 = matsubara_frequency(1, temperature)
    ls = np.arange(n_terms + 1)
    eps = np.ones(n_terms + 1)
    if model is not IDEAL_METAL:
        eps[1:] = model.epsilon(xi1 * ls[1:])
    return 2.0 * a * xi1 / C_LIGHT * ls, eps


TOLS = (1e-4, 1e-6, 1e-9, 1e-12)


class TestToleranceMet:
    def test_oracles_agree_for_the_ideal_reflector(self):
        for a in (250e-9, 1e-6):
            quad_sum = _long_sum_pressure(IDEAL_METAL, a, T_LAB)
            assert quad_sum == pytest.approx(_ideal_closed_form_pressure(a, T_LAB), rel=1e-14)

    @pytest.mark.parametrize("model", [DRUDE, PLASMA], ids=["drude", "plasma"])
    def test_metal_within_tol_of_long_sum(self, model):
        for a in np.geomspace(50e-9, 20e-6, 9):
            ref = _long_sum_pressure(model, a, T_LAB)
            for tol in TOLS:
                res = casimir_pressure(model, a, T_LAB, tol)
                assert abs(res.pressure - ref) <= tol * abs(ref), (a, tol)
                assert res.stopped_by == "tol"

    def test_ideal_reflector_at_10_K_within_tol_of_closed_form(self):
        for a in np.linspace(250e-9, 1300e-9, 5):
            ref = _ideal_closed_form_pressure(a, 10.0)
            for tol in TOLS:
                p = casimir_pressure(IDEAL_METAL, a, 10.0, tol).pressure
                assert abs(p - ref) <= tol * abs(ref), (a, tol)

    @pytest.mark.parametrize("model", [DRUDE, PLASMA, IDEAL_METAL],
                             ids=["drude", "plasma", "ideal"])
    @pytest.mark.parametrize("temperature", [T_LAB, 10.0])
    def test_template_rows_within_their_estimates(self, model, temperature):
        # each row of the 94-node template against the same row on the
        # template bisected deeper and deeper, until that reference converges
        for a in (50e-9, 250e-9, 1e-6, 20e-6):
            # the first (up to) 40 rows a tol 1e-12 sum keeps
            n_terms = casimir_pressure(model, a, temperature, 1e-12).n_terms
            y_l, eps = _terms(model, a, temperature, min(n_terms, 40))
            vals, errs = lifshitz._template_integrate(model, a, y_l, eps)
            for i in range(y_l.size):
                rows = slice(i, i + 1)
                for depth in range(1, 9):
                    ref, ref_err = lifshitz._template_integrate(
                        model, a, y_l[rows], eps[rows], depth)
                    if ref_err[0] <= 1e-13 * ref[0]:
                        break
                assert ref_err[0] <= 1e-13 * ref[0], (a, i)
                assert abs(vals[i] - ref[0]) <= errs[i], (a, i)

    def test_fallback_rows_still_meet_tol(self, monkeypatch):
        # at 50 nm and tol 1e-12 the first drude terms miss their share on
        # the 94-node template and are redone on bisected panels
        refined = []
        integrate = lifshitz._template_integrate

        def spy(model, a, y_l, eps, depth=0):
            if depth >= 1:
                refined.append(y_l.size)
            return integrate(model, a, y_l, eps, depth)

        monkeypatch.setattr(lifshitz, "_template_integrate", spy)
        a, tol = 50e-9, 1e-12
        p = casimir_pressure(DRUDE, a, T_LAB, tol).pressure
        assert refined
        ref = _long_sum_pressure(DRUDE, a, T_LAB)
        assert abs(p - ref) <= tol * abs(ref)

    def test_low_temperature_rows_refine_in_batches(self, monkeypatch):
        # at 10 K and 50 nm the first 63 drude rows miss on the 94-node
        # template; they are redone together, one pass per bisection depth
        passes = []
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda *args: passes.append(1) or kernel(*args))
        casimir_pressure(DRUDE, 50e-9, 10.0, 1e-9)
        assert len(passes) <= 9

    def test_unresolved_row_raises(self, monkeypatch):
        # a jump in the integrand at a non-dyadic t is missed at every depth
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda r_tm, r_te, y: kernel(r_tm, r_te, y) * (1.0 + (y > 0.3)))
        try:
            with pytest.raises(NumericsError, match=r"l=0, a=1e-06"):
                casimir_pressure(DRUDE, 1e-6, T_LAB, 1e-9)
        finally:
            # the deepest templates hold some 160 MB
            lifshitz._node_template.cache_clear()

    def test_one_integrand_pass_per_pressure_on_benchmark_grids(self, monkeypatch):
        passes = []
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda *args: passes.append(1) or kernel(*args))
        grid = np.concatenate([np.arange(250, 951), np.arange(600, 1301)]) * 1e-9
        for model in (DRUDE, PLASMA):
            cache = MatsubaraCache(model, T_LAB)
            for a in grid:
                casimir_pressure(model, float(a), T_LAB, 1e-9, cache=cache)
        assert len(passes) == 2 * grid.size

    def test_short_separation_count_comes_from_the_tail_bound(self, monkeypatch):
        # at short range the count is the smallest L whose tail bound is
        # (tol/2) zeta(3), below ceil(20 / y_1), and all L + 1 rows take one
        # 94-node pass
        nodes = []
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda r_tm, r_te, y: nodes.append(y.size) or kernel(r_tm, r_te, y))
        a, tol = 50e-9, 1e-4
        res = casimir_pressure(DRUDE, a, T_LAB, tol)
        y1 = 2.0 * a * matsubara_frequency(1, T_LAB) / C_LIGHT
        target = 0.5 * tol * zeta(3)
        assert _tail_bound(y1, res.n_terms) <= target < _tail_bound(y1, res.n_terms - 1)
        assert res.n_terms < math.ceil(20.0 / y1)
        assert nodes == [94 * (res.n_terms + 1)]
        assert res.truncation_error_estimate <= 0.5 * tol * abs(res.pressure)
