import itertools
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
    q = math.hypot(k_perp, w)
    return _fresnel(eps, q, w, np.empty((3,) + np.shape(eps)), q * q)


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
        # each sweep, and a cache listing the sweep's separations, computes
        # every point in one batch; each point must still equal a fresh
        # evaluation bit for bit, term count included (the truncation bound
        # is strictly decreasing in the term count)
        seps = [300e-9, 800e-9]
        for model in (DRUDE, PLASMA, IDEAL_METAL):
            swept, swept_trunc = pressure_sweep(model, seps, T_LAB, 1e-9)
            grad = pressure_to_gradient_sweep(model, Geometry(R=43.466e-6), BetaTable(), seps, 1e-9)
            cache = MatsubaraCache(model, T_LAB, seps)
            for i, a in enumerate(seps):
                fresh = casimir_pressure(model, a, T_LAB, 1e-9)
                cached = casimir_pressure(model, a, T_LAB, 1e-9, cache=cache)
                assert cached.n_terms == fresh.n_terms
                for p in (swept[i], grad.pressures[i], cached.pressure):
                    assert p == fresh.pressure
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
        seps = (300e-9, 600e-9, 900e-9)
        cache = MatsubaraCache(DRUDE, T_LAB, seps)
        for a in seps:
            fresh = casimir_pressure(DRUDE, a, T_LAB, 1e-9)
            cached = casimir_pressure(DRUDE, a, T_LAB, 1e-9, cache=cache)
            assert cached.pressure == fresh.pressure

    def test_domain_checks(self):
        with pytest.raises(ValidityDomainError):
            casimir_pressure(DRUDE, 10e-9, T_LAB, 1e-9)
        with pytest.raises(ValidityDomainError):
            casimir_pressure(DRUDE, 1e-3, T_LAB, 1e-9)
        with pytest.raises(ValidityDomainError):
            casimir_pressure(DRUDE, 1e-6, T_LAB, tol=1e-2)
        with pytest.raises(ValidityDomainError):
            casimir_pressure(DRUDE, 1e-6, -1.0, 1e-9)
        with pytest.raises(ValidityDomainError, match="temperature must be finite"):
            casimir_pressure(DRUDE, 500e-9, math.inf, 1e-9)

    def test_sweep_rejects_a_bad_temperature_like_a_single_pressure(self):
        with pytest.raises(ValidityDomainError, match="temperature"):
            pressure_sweep(DRUDE, np.array([500e-9, 600e-9]), -1.0, 1e-9)


# Long-sum oracle: every term of the primed sum up to y_l >= 70, each on 55
# twenty-point Gauss-Legendre panels out to y_l + 80, with the reflection
# coefficients and the occupancy written out here rather than taken from the
# package's kernel.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_ORACLE_EDGES = np.concatenate([[0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5],
                                np.arange(2.0, 20.0), np.arange(20.0, 82.0, 2.0)])


def _long_sum_pressure(model, a, temperature, bend=None):
    """The oracle's pressure; bend(y_l, t), when given, multiplies every
    row's integrand, as a stand-in integrand does in the package."""
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
    if bend is not None:
        f *= bend(y_l[:, None], t)
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
        # each row on the template it starts on at tol, against the same row
        # on the steep template bisected deeper and deeper (refinement
        # bisects no rung of the ladder), until that reference converges: the
        # first (up to) 40 rows a sum at tol keeps, and the rows on either
        # side of y_l = 1 and of every start of every rung
        starts = [start for _, rung in lifshitz._LADDER for start, _ in rung]
        for a, tol in itertools.product((50e-9, 250e-9, 1e-6, 20e-6), (1e-9, 1e-12)):
            n_terms = casimir_pressure(model, a, temperature, tol).n_terms
            y1 = 2.0 * a * matsubara_frequency(1, temperature) / C_LIGHT
            cuts = [0, *lifshitz._rung_starts(y1, n_terms, tol).tolist(), n_terms + 1]
            near = [math.ceil(y / y1) + k for y in (1.0, *starts) for k in range(-2, 3)]
            ls = np.unique(np.clip([*range(40), *near], 0, n_terms))
            y_l, eps = (v[ls] for v in _terms(model, a, temperature, n_terms))
            for template, lo, hi in zip(_STARTS, cuts, cuts[1:]):
                rows = (ls >= lo) & (ls < hi)
                if not rows.any():
                    continue
                [(vals, errs)] = lifshitz._template_integrate(
                    [model], a, y_l[rows], [eps[rows]], template, 0, lifshitz._Workspace(0))
                for i in range(vals.size):
                    row = slice(i, i + 1)
                    for depth in range(1, 9):
                        [(ref, ref_err)] = lifshitz._template_integrate(
                            [model], a, y_l[rows][row], [eps[rows][row]], lifshitz._STEEP, depth,
                            lifshitz._Workspace(0))
                        if ref_err[0] <= 1e-13 * ref[0]:
                            break
                    assert ref_err[0] <= 1e-13 * ref[0], (a, tol, ls[rows][i])
                    # the rounding of the node sums, up to about 3.5e-15 of the
                    # value here, is in no estimate
                    assert abs(vals[i] - ref[0]) <= errs[i] + 1e-14 * ref[0], \
                        (a, tol, ls[rows][i])
            # rows start on the rungs from y_l = 0.45, 1.15, 3, 5, 9.25 and
            # 15.4 at tol 1e-9, and from 1.75, 3, 7, 11, 16 and 30.5 at 1e-12
            firsts = ((0.45, 1.15, 3.0, 5.0, 9.25, 15.4) if tol == 1e-9 else
                      (1.75, 3.0, 7.0, 11.0, 16.0, 30.5))
            assert cuts[1:-1] == [min(math.ceil(y / y1), n_terms + 1) for y in firsts]

    @pytest.mark.parametrize("model, temperature, a, l, rung", [
        (PLASMA, 10.0, 106.7e-9, 527, 2),      # y_l = 3.09 on GL20/GL14
        (DRUDE, 1.0, 50e-9, 24_625, 3),        # y_l = 6.76 on GL14/GL10
    ], ids=["plasma-GL20", "drude-GL14"])
    def test_rows_past_their_estimates_stay_within_tol(self, model, temperature, a, l, rung):
        # two rows whose Gauss-Laguerre error passes its GLn - GLm estimate
        # (1.4e-13 against 3.7e-14, and 8.6e-14 against 2.5e-16, of the
        # value), at the tightest tol that still starts them on their rung: the
        # row is not refined, so its true error, against the steep template
        # deepened until its estimate is below 1e-14 of the value, must stay
        # below tol/2.  It does by about 510x and 2,550x; 400x is asserted.
        template, starts = lifshitz._LADDER[rung]
        tol = float(np.nextafter(2.0 * starts[0][1], np.inf))
        n_terms = casimir_pressure(model, a, temperature, tol).n_terms
        y1 = 2.0 * a * matsubara_frequency(1, temperature) / C_LIGHT
        cuts = lifshitz._rung_starts(y1, n_terms, tol)
        assert cuts[rung] <= l < cuts[rung + 1]
        assert l < lifshitz._rung_starts(y1, n_terms, 2.0 * starts[0][1])[rung]
        y_l, eps = (v[l:l + 1] for v in _terms(model, a, temperature, n_terms))
        work = lifshitz._Workspace(0)
        [(vals, errs)] = lifshitz._template_integrate([model], a, y_l, [eps], template, 0, work)
        assert errs[0] <= 0.5 * tol * vals[0]
        for depth in range(1, 9):
            [(ref, ref_err)] = lifshitz._template_integrate([model], a, y_l, [eps],
                                                            lifshitz._STEEP, depth, work)
            if ref_err[0] <= 1e-14 * ref[0]:
                break
        assert ref_err[0] <= 1e-14 * ref[0]
        assert abs(vals[0] - ref[0]) <= 0.5 * tol * ref[0] / 400

    def test_laguerre_envelopes_are_measured(self):
        # the tol gates of the rungs' starts: the largest estimate over value
        # on the rows from each start of each rung, drude, plasma and the
        # ideal metal, across the separation range at 293.15 K, 10 K and 1 K,
        # at the counts of tol 1e-12 (the most rows), each row integrated once
        # per rung that can take it, the three models in one pass of at most
        # _PASS_ELEMENTS rows x nodes.  A rung takes the rows up to the next
        # rung's last start (the last rung all of them): a row past it starts
        # on a later rung at every tol.  Each envelope sits at most 5 % above
        # its worst row, a rung's starts rise as its envelopes fall (so as
        # tol tightens), and its last envelope is below every tol/2
        worst = {(k, start): 0.0 for k, (_, rung) in enumerate(lifshitz._LADDER)
                 for start, _ in rung}
        stops = [rung[-1][0] for _, rung in lifshitz._LADDER[1:]] + [None]
        work = lifshitz._Workspace(0)
        models = (DRUDE, PLASMA, IDEAL_METAL)
        for temperature, points in ((T_LAB, 80), (10.0, 80), (1.0, 20)):
            for a in np.geomspace(50e-9, 20e-6, points):
                y1 = 2.0 * a * matsubara_frequency(1, temperature) / C_LIGHT
                n_terms = lifshitz._term_count(y1, 0.5e-12 * lifshitz._ZETA3, 0)[0]
                y_l = _terms(IDEAL_METAL, a, temperature, n_terms)[0]
                eps = [_terms(model, a, temperature, n_terms)[1] for model in models]
                for k, ((template, rung), stop) in enumerate(zip(lifshitz._LADDER, stops)):
                    firsts = {start: math.ceil(start / y1) for start, _ in rung}
                    stop = n_terms + 1 if stop is None else min(n_terms + 1, math.ceil(stop / y1))
                    block = lifshitz._PASS_ELEMENTS // _nodes(template)
                    for lo in range(min(firsts.values()), stop, block):
                        ls = np.arange(lo, min(lo + block, stop))
                        passed = lifshitz._template_integrate(
                            models, a, y_l[ls], [eps_m[ls] for eps_m in eps], template, 0, work)
                        ratio = np.max([errs / vals for vals, errs in passed], axis=0)
                        for start, first in firsts.items():
                            worst[k, start] = max(worst[k, start],
                                                  ratio[ls >= first].max(initial=0.0))
        for k, (_, rung) in enumerate(lifshitz._LADDER):
            for start, envelope in rung:
                assert worst[k, start] <= envelope <= 1.05 * worst[k, start], (k, start)
            assert all(s0 < s1 and e0 > e1 for (s0, e0), (s1, e1) in zip(rung, rung[1:])), k
            assert rung[-1][1] < 0.5 * lifshitz.TOL_RANGE[0]
        # at every tol, each rung starts above the one before, so a row starts
        # on the cheapest rung whose start it has reached
        gates = [2.0 * envelope for _, rung in lifshitz._LADDER for _, envelope in rung]
        for tol in [*lifshitz.TOL_RANGE, *gates, *np.nextafter(gates, 1.0)]:
            if lifshitz.TOL_RANGE[0] <= tol <= lifshitz.TOL_RANGE[1]:
                starts = lifshitz._rung_starts(1.0, 100, tol)
                assert (np.diff(starts) > 0).all(), (tol, starts)

    def test_fallback_rows_still_meet_tol(self, monkeypatch):
        # at 50 nm and tol 1e-12 the first drude terms miss their share on
        # the steep template and are redone on bisected panels
        refined = []
        integrate = lifshitz._template_integrate

        def spy(models, a, y_l, eps, edges, depth, work):
            if depth >= 1:
                refined.append(y_l.size)
            return integrate(models, a, y_l, eps, edges, depth, work)

        monkeypatch.setattr(lifshitz, "_template_integrate", spy)
        a, tol = 50e-9, 1e-12
        p = casimir_pressure(DRUDE, a, T_LAB, tol).pressure
        assert refined
        ref = _long_sum_pressure(DRUDE, a, T_LAB)
        assert abs(p - ref) <= tol * abs(ref)

    @staticmethod
    def _a_row_that_misses_refines(monkeypatch, k):
        """A stand-in integrand: drude's first row at 400 nm on template k of
        _STARTS, at tol 1e-9, times 1 + max(t - 0.25, 0), a kink that the
        rung's rules (a first panel on [0, 1] or [0, 2], or Gauss-Laguerre
        from t = 0) miss by far more than tol/2 and that depth 1 of the steep
        template has a panel edge at.  The row refines there, alone, right
        after its own block, and the pressure meets tol against the oracle
        with the same kink.  A jump at t = 0.3 in that row misses at every
        depth, and the row is named."""
        a, tol = 400e-9, 1e-9
        y1 = 2.0 * a * matsubara_frequency(1, T_LAB) / C_LIGHT
        on = _template_rows([a], T_LAB, tol)
        assert all(n[0] > 0 for n in on)
        l = int(sum(n[0] for n in on[:k]))  # the rows before template k's
        target = l * y1
        shapes, hits = _jumps(monkeypatch, target, at=0.25, kink=True)
        p = casimir_pressure(DRUDE, a, T_LAB, tol).pressure
        starts = _start_passes(on)
        assert shapes == [*starts[:k + 1], (1, _nodes(lifshitz._STEEP, 1)), *starts[k + 1:]]
        assert hits == [0] * k + [1, 1] + [0] * (len(starts) - k - 1)
        ref = _long_sum_pressure(DRUDE, a, T_LAB, lambda y_l, t: 1.0 + np.where(
            np.abs(y_l - target) <= 1e-12 * target, np.maximum(t - 0.25, 0.0), 0.0))
        assert abs(p - ref) <= tol * abs(ref)
        assert abs(ref - _long_sum_pressure(DRUDE, a, T_LAB)) > 1e3 * tol * abs(ref)
        monkeypatch.undo()
        _jumps(monkeypatch, target, at=0.3)
        with pytest.raises(NumericsError, match=rf"\(l={l}, a=4e-07\)"):
            casimir_pressure(DRUDE, a, T_LAB, tol)
        return l

    def test_a_panel_rung_row_that_misses_refines_on_the_steep_template(self, monkeypatch):
        # the first row of the [0, 1, 3] panel rung: l = 1, y_l = 0.64, kinked at y = 0.89
        assert self._a_row_that_misses_refines(monkeypatch, 1) == 1

    def test_a_laguerre_row_that_misses_refines_on_the_steep_template(self, monkeypatch):
        # the first row of the GL20/GL14 rung: l = 5, y_l = 3.22, kinked at y = 3.47
        assert self._a_row_that_misses_refines(monkeypatch, 3) == 5

    def test_a_gl8_row_that_misses_refines_on_the_steep_template(self, monkeypatch):
        # the first row of the GL8/GL6 rung: l = 24, y_l = 15.44, kinked at y = 15.69
        assert self._a_row_that_misses_refines(monkeypatch, 6) == 24

    def test_low_temperature_rows_refine_in_batches(self, monkeypatch):
        # at 10 K and 50 nm the first 63 drude rows miss on the steep
        # template; they lie in the first block and are redone together, one
        # pass per bisection depth
        passes = []
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda *args: passes.append(1) or kernel(*args))
        casimir_pressure(DRUDE, 50e-9, 10.0, 1e-9)
        assert len(passes) <= _blocks([50e-9], 10.0, 1e-9) + 8

    def test_unresolved_row_raises(self, monkeypatch):
        # a jump in the integrand at a non-dyadic t is missed at every depth
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda r_tm, r_te, shared, scratch:
                            kernel(r_tm, r_te, shared, scratch) * (1.0 + (shared[0] > 0.3)))
        with pytest.raises(NumericsError, match=r"l=0, a=1e-06"):
            casimir_pressure(DRUDE, 1e-6, T_LAB, 1e-9)

    def test_one_integrand_pass_per_pressure_on_benchmark_grids(self, monkeypatch):
        # computed alone, a pressure runs its rows on each start template it
        # has rows on (the steep one and the six rungs; from 715 nm no row
        # lies in the first rung's 0.45 <= y_l < 1.15) in one depth-0 pass
        # each, and no row goes through again
        nodes = []
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda r_tm, r_te, shared, scratch:
                            nodes.append(shared[0].shape[1]) or kernel(r_tm, r_te, shared, scratch))
        grid = np.concatenate([np.arange(250, 951), np.arange(600, 1301)]) * 1e-9
        for model in (DRUDE, PLASMA):
            cache = MatsubaraCache(model, T_LAB)
            for a in grid:
                casimir_pressure(model, float(a), T_LAB, 1e-9, cache=cache)
        on = _template_rows(grid, T_LAB, 1e-9)
        assert (on[1] == 0).any() and all(n[grid < 700e-9].all() for n in on)
        assert nodes == [_nodes(template) for j in range(grid.size)
                         for template, n in zip(_STARTS, on) if n[j]] * 2

    def test_short_separation_count_comes_from_the_tail_bound(self, monkeypatch):
        # at short range the count is the smallest L whose tail bound is
        # (tol/2) zeta(3), below ceil(20 / y_1), and all L + 1 rows take one
        # pass on the template each starts on
        nodes = []
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda r_tm, r_te, shared, scratch:
                            nodes.append(shared[0].size) or kernel(r_tm, r_te, shared, scratch))
        a, tol = 50e-9, 1e-4
        res = casimir_pressure(DRUDE, a, T_LAB, tol)
        y1 = 2.0 * a * matsubara_frequency(1, T_LAB) / C_LIGHT
        target = 0.5 * tol * zeta(3)
        assert _tail_bound(y1, res.n_terms) <= target < _tail_bound(y1, res.n_terms - 1)
        assert res.n_terms < math.ceil(20.0 / y1)
        on = _template_rows([a], T_LAB, tol)
        start = lifshitz._LADDER[0][1][0][0]
        assert y1 * (on[0][0] - 1) < start <= y1 * on[0][0]
        assert nodes == [rows * nodes for rows, nodes in _start_passes(on)]
        assert res.truncation_error_estimate <= 0.5 * tol * abs(res.pressure)


class TestTermCount:
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("temperature", [T_LAB, 10.0])
    def test_counts_started_from_the_last_equal_cold_counts(self, temperature, order):
        # a dense stretch, where neighbours' counts lie a few terms apart,
        # and a sparse one, where they jump by up to thousands
        seps = np.concatenate([np.geomspace(50e-9, 20e-6, 60), np.arange(250, 331) * 1e-9])
        seps = {"ascending": np.sort(seps), "descending": np.sort(seps)[::-1],
                "shuffled": np.random.default_rng(3).permutation(seps)}[order]
        y1s = 2.0 * seps * matsubara_frequency(1, temperature) / C_LIGHT
        for tol in TOLS:
            target = 0.5 * tol * zeta(3)
            n = 0
            for y1 in y1s.tolist():
                cold, bound = lifshitz._term_count(y1, target, 0)
                assert bound == _tail_bound(y1, cold) <= target
                assert cold == 1 or _tail_bound(y1, cold - 1) > target
                n, warm_bound = lifshitz._term_count(y1, target, n)
                assert (n, warm_bound) == (cold, bound)


class TestSmallestCount:
    @staticmethod
    def step(threshold, calls):
        """The step predicate n >= threshold, logging each n it is called with."""
        def enough(n):
            calls.append(n)
            return n >= threshold
        return enough

    def test_equals_a_linear_scan_from_any_start(self):
        rng = np.random.default_rng(29)
        thresholds = [1, 2, 3, *rng.integers(1, 100, 20).tolist(),
                      *rng.integers(1_000, 6_000, 6).tolist()]
        for threshold in thresholds:
            calls = []
            enough = self.step(threshold, calls)
            scan = next(n for n in range(1, threshold + 1) if enough(n))
            # below, at and above the threshold, one term away and thousands away
            for start in {0, 1, threshold - 1, threshold, threshold + 1, threshold + 2,
                          threshold - 2_500, threshold + 4_000,
                          int(rng.integers(0, 12_000))}:
                calls.clear()
                assert lifshitz._smallest_count(enough, start, math.inf) == scan, \
                    (threshold, start)
                assert min(calls) >= 1
                assert scan in calls
                if abs(start - threshold) <= 1 and start >= 1:
                    assert len(calls) <= 3, (threshold, start, calls)

    def test_most_caps_the_gallop(self):
        for threshold in (1, 7, 64, 65, 1_000):
            for most in (1, 6, 7, 64, 100, 1 << 22):
                calls = []
                found = lifshitz._smallest_count(self.step(threshold, calls), 1, most)
                assert found == (threshold if threshold <= most else None), (threshold, most)
                assert max(calls) <= most


BENCH_GRIDS = {"250-950": np.arange(250, 951) * 1e-9, "600-1300": np.arange(600, 1301) * 1e-9}


# the templates a row may start on, in the order a chunk runs them: the steep
# one, then the rungs of the ladder from the [0, 1, 3] panels to GL8/GL6
_STARTS = (lifshitz._STEEP, *(template for template, _ in lifshitz._LADDER))


def _nodes(template, depth=0):
    """Nodes per row of the template at that depth."""
    return lifshitz._node_template(template, depth)[0].size


def _template_rows(seps, temperature, tol):
    """Each separation's rows on each template of _STARTS, as a batch at tol
    splits them: one array per template."""
    y1 = 2.0 * np.asarray(seps, dtype=float) * matsubara_frequency(1, temperature) / C_LIGHT
    counts = np.array([lifshitz._term_count(y, 0.5 * tol * lifshitz._ZETA3, 0)[0]
                       for y in y1.tolist()])
    cuts = [np.zeros_like(counts), *lifshitz._rung_starts(y1, counts, tol), counts + 1]
    return [hi - lo for lo, hi in zip(cuts, cuts[1:])]


def _blocks(seps, temperature, tol):
    """Template blocks of a batch, cut as it cuts them: in each chunk of
    separations (from the next one, as many as hold at most _PASS_ELEMENTS
    rows together, and at least one), the rows of each start template in
    order, _PASS_ELEMENTS elements of its depth-0 nodes to a block."""
    on = _template_rows(seps, temperature, tol)
    rows, blocks, j = sum(on), 0, 0
    while j < rows.size:
        k = j + 1
        while k < rows.size and rows[j:k + 1].sum() <= lifshitz._PASS_ELEMENTS:
            k += 1
        blocks += sum(math.ceil(n[j:k].sum() / (lifshitz._PASS_ELEMENTS // _nodes(template)))
                      for template, n in zip(_STARTS, on))
        j = k
    return blocks


def _start_passes(on):
    """The (rows, nodes) shape of each depth-0 pass of a batch that holds one
    block per template it has rows on, from the rows _template_rows gives."""
    return [(int(n.sum()), _nodes(template)) for template, n in zip(_STARTS, on) if n.any()]


def _jumps(monkeypatch, targets, at=0.3, kink=False):
    """Multiply the integrand of the rows whose y_l is a target (a number, a
    list, or a dict of them by model id), to 1e-12, by 1 + (t > at), or by
    1 + max(t - at, 0) with kink; at a non-dyadic t the rows miss at every
    depth.  Returns the (rows, nodes) shape of every integrand pass and the
    number of such rows in it."""
    shapes, hits, current = [], [], {}
    shared_planes, reflections, kernel = (lifshitz._shared_planes, lifshitz._reflections,
                                          lifshitz._integrand)

    def planes(y_l, nodes, out):
        current["y_l"] = y_l[:, None]
        return shared_planes(y_l, nodes, out)

    def tagged(model, *args):
        current["targets"] = targets[id(model)] if isinstance(targets, dict) else targets
        return reflections(model, *args)

    def jump(r_tm, r_te, shared, scratch):
        shapes.append(shared[0].shape)
        out = kernel(r_tm, r_te, shared, scratch)
        hits.append(0)
        for target in np.atleast_1d(current["targets"]):
            own = np.abs(current["y_l"] - target) <= 1e-12 * target
            hits[-1] += int(own.sum())
            if kink:
                out *= 1.0 + own * np.maximum(shared[0] - current["y_l"] - at, 0.0)
            else:
                out *= 1.0 + (own & (shared[0] > current["y_l"] + at))
        return out

    monkeypatch.setattr(lifshitz, "_shared_planes", planes)
    monkeypatch.setattr(lifshitz, "_reflections", tagged)
    monkeypatch.setattr(lifshitz, "_integrand", jump)
    return shapes, hits


class TestSweepBlocks:
    @pytest.mark.parametrize("tol", [1e-9, 1e-4])
    @pytest.mark.parametrize("model", [DRUDE, PLASMA], ids=["drude", "plasma"])
    @pytest.mark.parametrize("grid", list(BENCH_GRIDS), ids=list(BENCH_GRIDS))
    def test_sweeps_equal_per_point_bit_for_bit(self, grid, model, tol):
        seps = BENCH_GRIDS[grid]
        swept, swept_trunc = pressure_sweep(model, seps, T_LAB, tol)
        geometry = Geometry(R=43.466e-6, a_min=250e-9, max_aspect=0.0306)
        grad = pressure_to_gradient_sweep(model, geometry, BetaTable(), seps, tol)
        alone = [casimir_pressure(model, float(a), T_LAB, tol) for a in seps]
        for p in (swept, grad.pressures):
            assert p.tolist() == [r.pressure for r in alone]
        for t in (swept_trunc, grad.pressure_truncations):
            assert t.tolist() == [r.truncation_error_estimate for r in alone]

    @pytest.mark.parametrize("tol", [1e-9, 1e-4])
    def test_ideal_reflector_at_10_K_sweep_equals_per_point(self, tol):
        # up to 1.3-2 um a 10 K sum alone holds more rows than a block and
        # spans several; from 5 um on, two to nine separations share one
        seps = np.concatenate([np.arange(250, 1301, 75) * 1e-9, np.linspace(5e-6, 20e-6, 31)])
        swept, swept_trunc = pressure_sweep(IDEAL_METAL, seps, 10.0, tol)
        alone = [casimir_pressure(IDEAL_METAL, float(a), 10.0, tol) for a in seps]
        assert swept.tolist() == [r.pressure for r in alone]
        assert swept_trunc.tolist() == [r.truncation_error_estimate for r in alone]
        assert _blocks(seps, 10.0, tol) < sum(_blocks([a], 10.0, tol) for a in seps) - 20

    def test_a_sweep_takes_one_integrand_pass_per_block(self, monkeypatch):
        seps = BENCH_GRIDS["250-950"]
        n_terms = [casimir_pressure(DRUDE, float(a), T_LAB, 1e-9).n_terms for a in seps]
        rows = []
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda r_tm, r_te, shared, scratch:
                            rows.append(shared[0].shape) or kernel(r_tm, r_te, shared, scratch))
        pressure_sweep(DRUDE, seps, T_LAB, 1e-9)
        # the grid's 24,827 rows run in two chunks
        assert len(rows) == _blocks(seps, T_LAB, 1e-9) == 34 < seps.size / 20
        assert sum(r for r, _ in rows) == sum(n_terms) + seps.size
        for template, on in zip(_STARTS, _template_rows(seps, T_LAB, 1e-9)):
            assert sum(r for r, nodes in rows if nodes == _nodes(template)) == on.sum() > 0
        assert max(r * nodes for r, nodes in rows) <= lifshitz._PASS_ELEMENTS

    def test_deep_refinement_peak_memory_is_no_higher_than_per_point(self):
        # at 10 K and tol 1e-9 the low drude rows near 50 nm refine to depth
        # 5-6; the sweep's own bookkeeping (its separations and memo of
        # results) takes a few hundred bytes, while one pass over the
        # refined rows of two separations would take megabytes more
        import tracemalloc

        seps = [50e-9, 50.5e-9, 51e-9]
        casimir_pressure(DRUDE, seps[0], 10.0, 1e-9)  # builds the node templates

        def peak(run):
            tracemalloc.start()
            try:
                out = run()
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()

        def per_point():
            cache = MatsubaraCache(DRUDE, 10.0)
            return [casimir_pressure(DRUDE, a, 10.0, 1e-9, cache=cache).pressure for a in seps]

        per_point_peak, alone = peak(per_point)
        sweep_peak, (swept, _) = peak(lambda: pressure_sweep(DRUDE, seps, 10.0, 1e-9))
        assert swept.tolist() == alone
        assert sweep_peak <= per_point_peak + 65536

    def test_a_separation_split_by_a_block_boundary_equals_per_point(self, monkeypatch):
        # the GL8/GL6 rows of 250-304 nm fill a 1714-row block and run on
        # into the next; a separation across a cut is summed from both, and
        # from its rows on the other templates, which run in their own blocks
        # before them
        seps = BENCH_GRIDS["250-950"][:55]
        alone = {m: [casimir_pressure(m, float(a), T_LAB, 1e-9) for a in seps]
                 for m in (DRUDE, PLASMA)}
        on = _template_rows(seps, T_LAB, 1e-9)
        ends = np.cumsum(on[-1])
        block = lifshitz._PASS_ELEMENTS // _nodes(_STARTS[-1])
        assert any(end - rows < block < end for end, rows in zip(ends, on[-1]))
        shapes = []
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda r_tm, r_te, shared, scratch:
                            shapes.append(shared[0].shape) or kernel(r_tm, r_te, shared, scratch))
        got = _results(lifshitz._pressures([DRUDE, PLASMA], T_LAB, seps, 1e-9))
        assert got == [alone[DRUDE], alone[PLASMA]]
        assert shapes[::2] == [(min(block, rows - r), nodes) for rows, nodes in _start_passes(on)
                               for block in [lifshitz._PASS_ELEMENTS // nodes]
                               for r in range(0, rows, block)]

    def test_unresolved_row_inside_a_block_is_named(self, monkeypatch):
        # only row l = 10 of 902 nm carries a jump at a non-dyadic t; its
        # GL12/GL8 block also holds 900-904 nm, which converge
        seps = [900e-9, 901e-9, 902e-9, 903e-9, 904e-9]
        alone = [casimir_pressure(DRUDE, a, T_LAB, 1e-9) for a in seps]
        y1 = 2.0 * 902e-9 * matsubara_frequency(1, T_LAB) / C_LIGHT
        shapes, _ = _jumps(monkeypatch, 10 * y1)
        cache = MatsubaraCache(DRUDE, T_LAB, seps)
        got = [casimir_pressure(DRUDE, a, T_LAB, 1e-9, cache=cache).pressure for a in seps[:2]]
        with pytest.raises(NumericsError, match=r"\(l=10, a=9\.02e-07\)"):
            casimir_pressure(DRUDE, seps[2], T_LAB, 1e-9, cache=cache)
        with pytest.raises(NumericsError, match=r"\(l=10, a=9\.02e-07\)"):
            pressure_sweep(DRUDE, seps, T_LAB, 1e-9)
        on = _template_rows(seps, T_LAB, 1e-9)
        # the row refines at every depth right after the GL12/GL8 block, the
        # fifth pass (no row of 900-904 nm lies on the first rung)
        passes = _start_passes(on)
        refined = [(1, _nodes(lifshitz._STEEP, depth)) for depth in range(1, 9)]
        assert shapes[:len(passes) + 8] == [*passes[:5], *refined, *passes[5:]]
        assert sum(on[:5])[2] <= 10 < sum(on[:6])[2]  # 902 nm's rows on the GL12/GL8 rung
        assert got == [r.pressure for r in alone[:2]]


class TestRowLocalQuadrature:
    @pytest.mark.parametrize("model", [DRUDE, PLASMA, IDEAL_METAL],
                             ids=["drude", "plasma", "ideal"])
    @pytest.mark.parametrize("depth", range(5))
    def test_a_row_has_the_same_bits_in_every_packing(self, model, depth):
        # the rows l = 0 .. 12 of three separations, each alone, all side by
        # side, reversed, and odd rows before even ones, on every start
        # template (the rungs only at depth 0, as refinement bisects none of them)
        seps = (50e-9, 250e-9, 1e-6)
        parts = [_terms(model, a, T_LAB, 12) for a in seps]
        y_l = np.concatenate([y for y, _ in parts])
        eps = np.concatenate([e for _, e in parts])
        a = np.repeat(seps, 13)
        n = y_l.size
        work = lifshitz._Workspace(0)
        for template in _STARTS[:1 if depth else None]:
            alone = [lifshitz._template_integrate([model], a[i], y_l[i:i + 1], [eps[i:i + 1]],
                                                  template, depth, work)[0]
                     for i in range(n)]
            for order in (np.arange(n), np.arange(n)[::-1], np.r_[1:n:2, 0:n:2]):
                [(vals, errs)] = lifshitz._template_integrate([model], a[order], y_l[order],
                                                              [eps[order]], template, depth, work)
                assert vals.tolist() == [alone[i][0][0] for i in order]
                assert errs.tolist() == [alone[i][1][0] for i in order]

    def test_rows_missed_in_two_separations_refine_in_one_pass(self, monkeypatch):
        # row l = 5 of 900 nm and row l = 6 of 903 nm, both on the GL14/GL10
        # rung (5 <= y_l < 9.25 at tol 1e-9), jump at t = 1, a panel edge of
        # the steep template at depth 1, where both refine; both share the
        # GL14/GL10 block of 900-904 nm, which have no row on the first rung
        seps = [900e-9, 901e-9, 902e-9, 903e-9, 904e-9]
        xi1 = matsubara_frequency(1, T_LAB)
        targets = [5 * (2.0 * 900e-9 * xi1 / C_LIGHT), 6 * (2.0 * 903e-9 * xi1 / C_LIGHT)]
        rungs = [rung[0][0] for _, rung in lifshitz._LADDER]
        assert rungs[3] <= min(targets) and max(targets) < rungs[4]
        shapes, hits = _jumps(monkeypatch, targets, at=1.0)
        alone = [casimir_pressure(DRUDE, a, T_LAB, 1e-9) for a in seps]
        assert len(shapes) == (len(_STARTS) - 1) * len(seps) + 2
        shapes.clear()
        hits.clear()
        swept, swept_trunc = pressure_sweep(DRUDE, seps, T_LAB, 1e-9)
        assert swept.tolist() == [r.pressure for r in alone]
        assert swept_trunc.tolist() == [r.truncation_error_estimate for r in alone]
        starts = _start_passes(_template_rows(seps, T_LAB, 1e-9))
        assert shapes == [*starts[:4], (2, _nodes(lifshitz._STEEP, 1)), *starts[4:]]
        assert hits == [0, 0, 0, 2, 2, 0, 0]

    def test_deepest_template_is_linear_in_its_panels(self):
        # refinement deepens the steep template alone; a rung of the ladder
        # is used at depth 0 only: two panels, one, or none, then its two
        # Gauss-Laguerre rules from the last edge
        for template, depth, panels in ((lifshitz._STEEP, 8, 1024),
                                        *((rung, 0, len(rung[0]) - 1) for rung in _STARTS[1:])):
            nodes, w, d, n_panels = lifshitz._node_template(template, depth)
            assert n_panels == panels
            assert nodes.size == w.size == d.size == 15 * panels + sum(template[1])
            assert nodes.nbytes + w.nbytes + d.nbytes < 1 << 20
        for rung in _STARTS[1:]:
            (*_, last), (n, m) = rung
            assert lifshitz._node_template(rung, 0)[0][-n - m:].tolist() == \
                [*(last + lifshitz._gauss_laguerre(n)[0]), *(last + lifshitz._gauss_laguerre(m)[0])]
        assert [_nodes(template) for template in _STARTS] == [94, 64, 49, 34, 24, 20, 14]


class TestSharedPlanes:
    def test_planes_from_minus_y_bit_for_bit(self):
        # -y feeds both e^-y and expm1(-y), which must be those of
        # -(y_l + t) to the bit on random rows, on the l = 0 rows and on rows
        # with y_l < 1e-3, where t dominates; (-y_l) - t rounds to the same
        # bits, so either form of -y passes
        rng = np.random.default_rng(24)
        y_ls = [rng.uniform(0.0, 60.0, 200_000), np.zeros(255), rng.uniform(0.0, 1e-3, 5_000),
                np.geomspace(1e-300, 1e-3, 1_000)]
        work = lifshitz._Workspace(0)
        for y_l, template in itertools.product(y_ls, _STARTS):
            nodes = lifshitz._node_template(template, 0)[0]
            for rows in np.array_split(y_l, max(1, y_l.size // 5_000)):
                y, y2, em, em1 = lifshitz._shared_planes(rows, nodes,
                                                         work.planes(rows.size, nodes.size)[:4])
                want = -(rows[:, None] + nodes)
                assert np.array_equal(np.subtract(-rows[:, None], nodes), want)
                assert np.array_equal(y, -want) and np.array_equal(y2, want * want)
                assert np.array_equal(em, np.exp(want)) and np.array_equal(em1, np.expm1(want))


class TestSweepMemo:
    def test_later_listed_calls_make_no_pass(self, monkeypatch):
        seps = BENCH_GRIDS["600-1300"][:40]
        alone = [casimir_pressure(PLASMA, float(a), T_LAB, 1e-9) for a in seps]
        passes = []
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda *args: passes.append(1) or kernel(*args))
        cache = MatsubaraCache(PLASMA, T_LAB, seps)
        first = casimir_pressure(PLASMA, float(seps[0]), T_LAB, 1e-9, cache=cache)
        n_first = len(passes)
        assert n_first == _blocks(seps, T_LAB, 1e-9)
        rest = [casimir_pressure(PLASMA, float(a), T_LAB, 1e-9, cache=cache) for a in seps[1:]]
        assert len(passes) == n_first
        assert [first] + rest == alone
        # a repeated call, or one at another tol, is computed alone: one pass
        # on each start template
        casimir_pressure(PLASMA, float(seps[1]), T_LAB, 1e-9, cache=cache)
        casimir_pressure(PLASMA, float(seps[2]), T_LAB, 1e-8, cache=cache)
        assert len(passes) == n_first + 2 * len(_STARTS)

    def test_breakdown_through_a_listed_cache_equals_one_alone(self):
        seps = [300e-9, 301e-9, 302e-9]
        cache = MatsubaraCache(DRUDE, T_LAB, seps)
        for a in (seps[1], seps[0]):
            got = casimir_pressure(DRUDE, a, T_LAB, 1e-9, with_breakdown=True, cache=cache)
            ref = casimir_pressure(DRUDE, a, T_LAB, 1e-9, with_breakdown=True)
            assert got.pressure == ref.pressure
            assert got.truncation_error_estimate == ref.truncation_error_estimate
            assert got.term_breakdown.tolist() == ref.term_breakdown.tolist()
        plain = [casimir_pressure(DRUDE, a, T_LAB, 1e-9, cache=cache) for a in seps]
        assert plain == [casimir_pressure(DRUDE, a, T_LAB, 1e-9) for a in seps]
        assert all(r.term_breakdown is None for r in plain)

    def test_listed_separation_outside_the_range_raises_at_its_own_call(self, monkeypatch):
        seps = [400e-9, 30e-9, 401e-9, 25e-6, 402e-9]
        inside = [a for a in seps if lifshitz._in_domain(a)]
        alone = [casimir_pressure(DRUDE, a, T_LAB, 1e-9) for a in inside]
        shapes = []
        kernel = lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand",
                            lambda r_tm, r_te, shared, scratch:
                            shapes.append(shared[0].shape) or kernel(r_tm, r_te, shared, scratch))
        cache = MatsubaraCache(DRUDE, T_LAB, seps)
        got = []
        for a in seps:
            if lifshitz._in_domain(a):
                got.append(casimir_pressure(DRUDE, a, T_LAB, 1e-9, cache=cache))
            else:
                with pytest.raises(ValidityDomainError):
                    casimir_pressure(DRUDE, a, T_LAB, 1e-9, cache=cache)
        assert got == alone
        assert shapes == _start_passes(_template_rows(inside, T_LAB, 1e-9))


def _results(batch):
    """Each model's PressureResult at each separation of a _pressures batch."""
    return [[batch.result(m, j) for j in range(len(batch.separations))]
            for m in range(len(batch.pressures))]


def _refined_rows(monkeypatch):
    """Spy on the template passes: (model, depth, y_l) of every refinement pass."""
    refined = []
    integrate = lifshitz._template_integrate

    def spy(models, a, y_l, eps, edges, depth, work):
        if depth >= 1:
            refined.extend((m, depth, y_l.tolist()) for m in models)
        return integrate(models, a, y_l, eps, edges, depth, work)

    monkeypatch.setattr(lifshitz, "_template_integrate", spy)
    return refined


class TestModelsShareOneBatch:
    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("grid", list(BENCH_GRIDS), ids=list(BENCH_GRIDS))
    def test_two_model_batch_equals_single_model_batches_at_293_K(self, grid, tol):
        seps = BENCH_GRIDS[grid][::7][:40]
        both = _results(lifshitz._pressures([DRUDE, PLASMA], T_LAB, seps, tol))
        assert both == [_results(lifshitz._pressures([m], T_LAB, seps, tol))[0]
                        for m in (DRUDE, PLASMA)]
        assert all(isinstance(r, lifshitz.PressureResult) for results in both for r in results)

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_batches_whose_templates_cut_apart_equal_alone_at_293_K(self, tol):
        # from 50 nm to 2 um a separation keeps 6 rows to 1 on the steep
        # template and 9 to none on the first rung, so the blocks of the
        # seven start templates cut the grid at other separations
        seps = np.geomspace(50e-9, 2e-6, 360)
        models = (DRUDE, PLASMA, IDEAL_METAL)
        for template, rows in zip(_STARTS, _template_rows(seps, T_LAB, tol)):
            assert rows.sum() > 2 * (lifshitz._PASS_ELEMENTS // _nodes(template))
        alone = [[casimir_pressure(m, float(a), T_LAB, tol) for a in seps] for m in models]
        assert _results(lifshitz._pressures(list(models), T_LAB, seps, tol)) == alone
        for model, results in zip(models, alone):
            assert _results(lifshitz._pressures([model], T_LAB, seps, tol)) == [results]
        for (p, trunc), results in zip(pressure_sweep(list(models), seps, T_LAB, tol), alone):
            assert p.tolist() == [r.pressure for r in results]
            assert trunc.tolist() == [r.truncation_error_estimate for r in results]

    def test_two_model_batch_equals_single_model_batches_at_10_K(self, monkeypatch):
        # near 50 nm at 10 K the low rows of both models refine, drude's and
        # plasma's on different rows; each model's are refined on their own
        seps = [50e-9, 50.5e-9]
        alone = [_results(lifshitz._pressures([m], 10.0, seps, 1e-9))[0] for m in (DRUDE, PLASMA)]
        refined = _refined_rows(monkeypatch)
        assert _results(lifshitz._pressures([DRUDE, PLASMA], 10.0, seps, 1e-9)) == alone
        rows = {m: {(d, tuple(y)) for model, d, y in refined if model is m} for m in (DRUDE, PLASMA)}
        assert rows[DRUDE] and rows[PLASMA] and rows[DRUDE] != rows[PLASMA]

    def test_shared_planes_are_computed_once_per_block(self, monkeypatch):
        seps = BENCH_GRIDS["250-950"][:120]
        alone = {m: [casimir_pressure(m, float(a), T_LAB, 1e-9) for a in seps]
                 for m in (DRUDE, PLASMA)}
        calls = {"shared": 0, "integrand": 0}
        shared, integrand = lifshitz._shared_planes, lifshitz._integrand

        def count(name, kernel):
            return lambda *args: calls.__setitem__(name, calls[name] + 1) or kernel(*args)

        monkeypatch.setattr(lifshitz, "_shared_planes", count("shared", shared))
        monkeypatch.setattr(lifshitz, "_integrand", count("integrand", integrand))
        got = _results(lifshitz._pressures([DRUDE, PLASMA], T_LAB, seps, 1e-9))
        assert got == [alone[DRUDE], alone[PLASMA]]
        blocks = _blocks(seps, T_LAB, 1e-9)
        assert calls == {"shared": blocks, "integrand": 2 * blocks}

    def test_a_batch_names_its_first_failing_separation_in_order(self, monkeypatch):
        # plasma's row l = 3 of 901 nm and drude's row l = 10 of 902 nm jump
        # at a non-dyadic t and miss at every depth: the two-model batch
        # records both, and its sweep names 901 nm, the first in order,
        # although plasma is the second model
        seps = [900e-9, 901e-9, 902e-9, 903e-9, 904e-9]
        xi1 = matsubara_frequency(1, T_LAB)
        _jumps(monkeypatch, {id(PLASMA): 3 * 2.0 * 901e-9 * xi1 / C_LIGHT,
                             id(DRUDE): 10 * 2.0 * 902e-9 * xi1 / C_LIGHT})
        batch = lifshitz._pressures([DRUDE, PLASMA], T_LAB, seps, 1e-9)
        assert batch.failed.tolist() == [[-1, -1, 10, -1, -1], [-1, 3, -1, -1, -1]]
        assert np.isnan(batch.pressures).tolist() == (batch.failed >= 0).tolist()
        with pytest.raises(NumericsError, match=r"\(l=3, a=9\.01e-07\)"):
            pressure_sweep([DRUDE, PLASMA], seps, T_LAB, 1e-9)
        with pytest.raises(NumericsError, match=r"\(l=10, a=9\.02e-07\)"):
            pressure_sweep(DRUDE, seps, T_LAB, 1e-9)
        # a model's own cache reads that model's entries of the same batch,
        # and names its own first miss
        cache = MatsubaraCache(PLASMA, T_LAB, seps)
        assert casimir_pressure(PLASMA, seps[0], T_LAB, 1e-9, cache=cache) == \
            batch.result(1, 0)
        with pytest.raises(NumericsError, match=r"\(l=3, a=9\.01e-07\)"):
            casimir_pressure(PLASMA, seps[1], T_LAB, 1e-9, cache=cache)
        cache = MatsubaraCache(DRUDE, T_LAB, seps)
        assert casimir_pressure(DRUDE, seps[1], T_LAB, 1e-9, cache=cache) == batch.result(0, 1)
        with pytest.raises(NumericsError, match=r"\(l=10, a=9\.02e-07\)"):
            casimir_pressure(DRUDE, seps[2], T_LAB, 1e-9, cache=cache)

    def test_a_separation_missed_on_both_templates_names_its_first_l(self, monkeypatch):
        # at 10 K 50.5 nm runs in a chunk of its own, whose steep blocks run
        # rows l < 163 before the blocks of the rungs run the rest; rows 101
        # (steep) and 1203 (GL20/GL14) of 50.5 nm miss at every depth
        seps = [50e-9, 50.5e-9]
        y1 = 2.0 * seps[1] * matsubara_frequency(1, 10.0) / C_LIGHT
        on = _template_rows(seps, 10.0, 1e-9)
        assert on[0][1] == 163 and sum(on[:3])[1] <= 1203 < sum(on[:4])[1]
        _jumps(monkeypatch, [101 * y1, 1203 * y1])
        batch = lifshitz._pressures([DRUDE], 10.0, seps, 1e-9)
        assert batch.failed.tolist() == [[-1, 101]]
        with pytest.raises(NumericsError, match=r"\(l=101, a=5\.05e-08\)"):
            casimir_pressure(DRUDE, seps[1], 10.0, 1e-9)

    def test_a_model_outside_the_cache_is_rejected(self):
        cache = MatsubaraCache(DRUDE, T_LAB, [300e-9])
        with pytest.raises(ValueError, match="other models"):
            casimir_pressure(PLASMA, 300e-9, T_LAB, 1e-9, cache=cache)
        with pytest.raises(ValueError, match="temperature"):
            casimir_pressure(DRUDE, 300e-9, 10.0, 1e-9, cache=cache)
        # a cache holds one model: models share a batch only through pressure_sweep
        both = MatsubaraCache([DRUDE, PLASMA], T_LAB, [300e-9])
        for model in (DRUDE, PLASMA):
            with pytest.raises(ValueError, match="other models"):
                casimir_pressure(model, 300e-9, T_LAB, 1e-9, cache=both)

    def test_low_temperature_batch_holds_one_block(self):
        # at 10 K and 50 nm both models' 12,775 rows run through 15 blocks
        # (1 steep, then 1, 2, 2, 2, 2 and 5 on the rungs), and the rows'
        # values are held until the sum: well under the 79 MB of one pass
        # over all the rows
        import tracemalloc

        a = 50e-9
        alone = [casimir_pressure(m, a, 10.0, 1e-9) for m in (DRUDE, PLASMA)]
        tracemalloc.start()
        try:
            both = lifshitz._pressures([DRUDE, PLASMA], 10.0, [a], 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [results[0] for results in _results(both)] == alone
        assert peak < 8e6

    def test_two_model_peak_memory_is_one_workspace(self):
        # at 10 K and 50 nm the 12,775 rows run in 15 blocks of up to 24,000
        # rows x nodes in eight planes (1.5 MB); the second model reuses the
        # first model's four planes, and adds only its own row vectors (its
        # permittivities on the terms, and its held integrals, 8 bytes each
        # per row) to the peak
        import tracemalloc

        a, tol = 50e-9, 1e-9
        rows = casimir_pressure(DRUDE, a, 10.0, tol).n_terms + 1  # builds the node templates

        def peak(models):
            tracemalloc.start()
            try:
                out = _results(lifshitz._pressures(models, 10.0, [a], tol))
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()

        (drude_peak, drude), (plasma_peak, plasma) = peak([DRUDE]), peak([PLASMA])
        both_peak, both = peak([DRUDE, PLASMA])
        assert both == drude + plasma
        assert both_peak <= max(drude_peak, plasma_peak) + 65536 + 4 * 8 * rows


def _fields(result):
    """A PressureResult's fields, its term breakdown as a list."""
    return (result.pressure, result.truncation_error_estimate, result.n_terms,
            result.stopped_by, result.term_breakdown.tolist())


class TestChunks:
    @staticmethod
    def _equals_alone(temperature, seps):
        batch = lifshitz._pressures([DRUDE, PLASMA], temperature, seps, 1e-9,
                                    with_breakdown=True)
        for m, model in enumerate((DRUDE, PLASMA)):
            alone = [casimir_pressure(model, float(a), temperature, 1e-9, with_breakdown=True)
                     for a in seps]
            assert [_fields(batch.result(m, j)) for j in range(len(seps))] == \
                [_fields(r) for r in alone]
        return batch

    def test_a_batch_over_several_chunks_equals_each_separation_alone(self):
        # at 10 K, 50-400 nm keep 150,712 rows per model, run in chunks of
        # at most 24,000; breakdowns are read from each chunk's values
        batch = self._equals_alone(10.0, np.linspace(50e-9, 400e-9, 40))
        assert (batch.n_terms + 1).sum() > 6 * lifshitz._PASS_ELEMENTS

    def test_a_separation_longer_than_a_chunk_equals_alone_beside_a_neighbour(self):
        # at 1 K, 250 nm keeps 26,082 rows, more than a chunk holds, and
        # 251 nm runs in the chunk after it
        batch = self._equals_alone(1.0, [250e-9, 251e-9])
        assert batch.n_terms[0] + 1 > lifshitz._PASS_ELEMENTS

    def test_held_memory_does_not_grow_with_the_separations(self):
        # at 10 K, 250-950 nm in 5 nm steps keep 160,466 rows per model, the
        # first 35 points 64,495 of them: both sweeps hold one chunk's
        # values at a time
        import tracemalloc

        seps = np.arange(250, 951, 5) * 1e-9
        casimir_pressure(DRUDE, seps[0], 10.0, 1e-9)  # builds the node templates

        def peak(grid):
            tracemalloc.start()
            try:
                pressure_sweep([DRUDE, PLASMA], grid, 10.0, 1e-9)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(seps) <= peak(seps[:35]) + 65536
