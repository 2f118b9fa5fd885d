"""Finite-temperature Casimir pressure between parallel plates.

The pressure is evaluated as the primed Matsubara sum

    P(a) = -(k_B T / pi) sum_l' int q_l k dk  sum_pol [r^-2 e^{2 a q_l} - 1]^-1,

computed here in the dimensionless variable y = 2 a q_l, so that each term
becomes (1 / 8 a^3) int_{y_l}^inf y^2 sum_pol [r^-2 e^y - 1]^-1 dy with
y_l = 2 a xi_l / c.  Every term is integrated with an adaptive, vectorised
Gauss-Kronrod scheme; the exponential tail beyond the last panel is below
double precision.  The zero-frequency term is dispatched on the model's
declared extrapolation tag, never inferred numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR, K_B
from .errors import AmbiguousZeroTermError, NumericsError, ValidityDomainError
from .optics import PermittivityModel

__all__ = [
    "matsubara_frequency",
    "ReflectionPair",
    "IdealMetal",
    "IDEAL_METAL",
    "reflection_coefficients",
    "PressureResult",
    "MatsubaraCache",
    "casimir_pressure",
    "pressure_sweep",
    "pressure_sweep_text",
]


def matsubara_frequency(l: int, temperature: float) -> float:
    """Matsubara frequency 2 pi k_B T l / hbar in rad/s.

    Parameters
    ----------
    l : int
        Thermal index, l >= 0.
    temperature : float
        Temperature in K, > 0.
    """
    if l < 0:
        raise ValueError(f"Matsubara index must be >= 0, got {l}")
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return 2.0 * math.pi * K_B * temperature * l / HBAR


@dataclass(frozen=True)
class ReflectionPair:
    """Fresnel reflection amplitudes at an imaginary frequency."""

    r_tm: float
    r_te: float


class IdealMetal:
    """Perfect-reflector surrogate: r_TM = 1, r_TE = -1 at every argument."""

    zero_tag = "ideal"


IDEAL_METAL = IdealMetal()


def _fresnel(eps, q, w):
    """r_TM, r_TE at a finite imaginary frequency xi = w c.

    q = (k_perp^2 + w^2)^1/2 is the vacuum normal wavevector and eps the
    permittivity at xi; arrays broadcast.
    """
    k = np.sqrt(q * q + (eps - 1.0) * w * w)
    return (eps * q - k) / (eps * q + k), (q - k) / (q + k)


def _tagged_reflection(model, k_perp):
    """r_TM, r_TE fixed by the model's declared tag rather than by eps.

    'drude' and 'plasma' give the xi = 0 limit: (1, 0), or a TE response
    kept through the plasma frequency.  'ideal' gives (1, -1), which the
    perfect reflector has at every frequency.  Any other model raises
    AmbiguousZeroTermError.
    """
    tag = getattr(model, "zero_tag", "")
    if tag == "ideal":
        return 1.0, -1.0
    if tag == "drude":
        return 1.0, 0.0
    if tag == "plasma":
        s = np.sqrt(k_perp * k_perp + (model.omega_p / C_LIGHT) ** 2)
        return 1.0, (k_perp - s) / (k_perp + s)
    raise AmbiguousZeroTermError(
        f"model {model!r} declares no zero-frequency tag; "
        "choose a drude- or plasma-tagged extrapolation"
    )


def reflection_coefficients(model, xi: float, k_perp: float) -> ReflectionPair:
    """Reflection amplitudes r_TM, r_TE at imaginary frequency xi.

    For xi > 0 these are (eps q - k)/(eps q + k) and (q - k)/(q + k) with
    q = (k_perp^2 + xi^2/c^2)^1/2 and k = (k_perp^2 + eps xi^2/c^2)^1/2.
    At xi = 0 the model's zero-frequency tag decides the limit:
    'drude' gives (1, 0); 'plasma' keeps a TE response through the plasma
    frequency; the ideal surrogate returns (1, -1).  This is a scalar view
    of the kernels the pressure integrands use.

    Parameters
    ----------
    model : PermittivityModel or IdealMetal
    xi : float
        Imaginary frequency in rad/s, >= 0.
    k_perp : float
        In-plane wavevector magnitude in 1/m, > 0.
    """
    if xi < 0:
        raise ValueError("xi must be >= 0")
    if not k_perp > 0:
        raise ValueError("k_perp must be positive")
    if isinstance(model, IdealMetal) or xi == 0.0:
        r_tm, r_te = _tagged_reflection(model, k_perp)
    else:
        w = xi / C_LIGHT
        r_tm, r_te = _fresnel(model.epsilon(xi), math.hypot(k_perp, w), w)
    return ReflectionPair(float(r_tm), float(r_te))


# 15-point Kronrod rule with embedded 7-point Gauss rule (standard nodes).
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

# Relative panel edges for y - y_l; the integrand decays like e^-y so the
# mass beyond the last edge is below double precision relative to the term.
_PANEL_EDGES = np.array([0.0, 0.5, 1.5, 3.0, 5.0, 8.0, 12.0, 17.0, 23.0, 30.0, 40.0, 60.0])


def _mode_occupancy(r2, y, em):
    """r^2 e^-y / (1 - r^2 e^-y), stable for r^2 near 1 and small y; em = e^-y."""
    pos = r2 > 0.0
    if np.all(pos):
        return r2 * em / -np.expm1(np.log(r2) - y)
    out = np.zeros_like(y)
    if np.any(pos):
        logr2 = np.log(np.where(pos, r2, 1.0))
        denom = -np.expm1(logr2 - y)
        np.copyto(out, r2 * em / denom, where=pos)
    return out


def _integrand(r_tm, r_te, y):
    """y^2 summed over polarisations of the mode occupancy at amplitude r."""
    em = np.exp(-y)
    return y * y * (_mode_occupancy(r_tm * r_tm, y, em) + _mode_occupancy(r_te * r_te, y, em))


def _finite_integrand(y, xi, eps, a):
    """Integrand of a term with xi > 0; xi and eps broadcast against y."""
    return _integrand(*_fresnel(eps, y / (2.0 * a), xi / C_LIGHT), y)


def _tagged_integrand(model, y, a):
    """Integrand with the reflection fixed by the model's tag (the l = 0
    term, and every term of the ideal reflector)."""
    return _integrand(*_tagged_reflection(model, y / (2.0 * a)), y)


def _panels_integrate(f, y_start, edges_rel):
    """Gauss-Kronrod panels on [y_start + e_i, y_start + e_i+1] for each term.

    f maps an array of y values (n_terms, n_panels, 15) to integrand values;
    returns per-term integral and error estimate, both shape (n_terms,).
    """
    lo = y_start[:, None] + edges_rel[None, :-1]
    hi = y_start[:, None] + edges_rel[None, 1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    y = mid[:, :, None] + half[:, :, None] * _XGK
    vals = f(y)
    kron = (vals * _WGK).sum(axis=2) * half
    gauss = (vals[:, :, 1::2] * _WG).sum(axis=2) * half
    err = np.abs(kron - gauss).sum(axis=1)
    return kron.sum(axis=1), err


def _refine_edges(edges_rel):
    mids = 0.5 * (edges_rel[:-1] + edges_rel[1:])
    out = np.empty(edges_rel.size + mids.size)
    out[0::2] = edges_rel
    out[1::2] = mids
    return out


def _integrate_terms(f_for, y_start, tol, context=""):
    """Adaptively integrate many exponential-tail terms at once.

    f_for(y) evaluates the integrand on node array y of shape
    (n_terms, n_panels, 15) where row i belongs to term i.  Rows whose
    Kronrod error estimate exceeds the target are re-integrated on
    bisected panels, individually, until convergence.
    """
    vals, errs = _panels_integrate(f_for(np.arange(y_start.size)), y_start, _PANEL_EDGES)
    target = tol / 10.0
    bad = errs > np.maximum(target * np.abs(vals), 1e-300)
    if np.any(bad):
        for i in np.nonzero(bad)[0]:
            edges = _PANEL_EDGES
            for _ in range(8):
                edges = _refine_edges(edges)
                v, e = _panels_integrate(f_for(np.array([i])), y_start[i : i + 1], edges)
                if e[0] <= max(target * abs(v[0]), 1e-300):
                    vals[i] = v[0]
                    break
            else:
                raise NumericsError(f"wavevector quadrature failed to converge {context}")
    return vals


def _zero_term(model, a, tol):
    def f_for(_rows):
        return lambda y: _tagged_integrand(model, y, a)

    return float(_integrate_terms(f_for, np.zeros(1), tol, context=f"(l=0, a={a})")[0])


def _finite_terms(model, a, ls, xi1, tol, cache=None):
    """Integrals I_l for an array of positive Matsubara indices."""
    xi = xi1 * ls
    if isinstance(model, IdealMetal):
        def f_for(rows):
            return lambda y: _tagged_integrand(model, y, a)
    else:
        if cache is not None:
            eps = cache.eps_for(ls)
        else:
            eps = np.atleast_1d(model.epsilon(xi))

        def f_for(rows):
            e = eps[rows][:, None, None]
            x = xi[rows][:, None, None]
            return lambda y: _finite_integrand(y, x, e, a)

    y_start = 2.0 * a * xi / C_LIGHT
    return _integrate_terms(f_for, y_start, tol, context=f"(l={ls[0]}..{ls[-1]}, a={a})")


class MatsubaraCache:
    """Caches eps(i xi_l) for one (model, T) so sweeps reuse evaluations."""

    def __init__(self, model: PermittivityModel, temperature: float):
        self.model = model
        self.temperature = temperature
        self._xi1 = matsubara_frequency(1, temperature)
        self._eps = np.empty(0)

    def eps_for(self, ls: np.ndarray) -> np.ndarray:
        need = int(ls.max())
        have = self._eps.size
        if need > have:
            new_ls = np.arange(have + 1, need + 1, dtype=float)
            new_eps = np.atleast_1d(self.model.epsilon(self._xi1 * new_ls))
            self._eps = np.concatenate([self._eps, new_eps])
        return self._eps[ls - 1]


@dataclass
class PressureResult:
    """Plate-plate Casimir pressure and bookkeeping for one separation.

    pressure is negative for attraction; term_breakdown, when requested,
    holds the primed-sum contributions in Pa (index 0 is the half-weighted
    zero term); truncation_error_estimate bounds the discarded thermal tail.
    """

    pressure: float
    truncation_error_estimate: float
    n_terms: int
    stopped_by: str
    term_breakdown: np.ndarray | None = None


def _tail_bound(y1, last_l):
    """Bound on sum_{l > last_l} I_l using I_l <= K (y_l^2 + 2 y_l + 2) e^-y_l."""
    m = last_l + 1
    x = math.exp(-y1)
    xm = math.exp(-y1 * m)
    if xm == 0.0:
        return 0.0
    one = 1.0 - x
    s0 = xm / one
    s1 = xm * (x / one**2 + m / one)
    s2 = xm * (x * (1.0 + x) / one**3 + 2.0 * m * x / one**2 + m * m / one)
    envelope = 2.0 / (1.0 - min(xm, 0.5))
    return envelope * (y1 * y1 * s2 + 2.0 * y1 * s1 + 2.0 * s0)


def casimir_pressure(
    model,
    a: float,
    temperature: float = 293.15,
    tol: float = 1e-9,
    *,
    with_breakdown: bool = False,
    cache: MatsubaraCache | None = None,
) -> PressureResult:
    """Casimir pressure between parallel plates at separation a.

    Parameters
    ----------
    model : PermittivityModel or IdealMetal
        Dielectric response, or the perfect-reflector surrogate.
    a : float
        Plate separation in m; accepted range 50 nm .. 20 um.
    temperature : float
        Temperature in K.
    tol : float
        Relative accuracy target, within [1e-12, 1e-4].  Terms l = 1 ..
        ceil(20 / y_1) are integrated, where the cap y_l <= 20 follows from
        the exponential decay e^{2 a q_l}; the thermal sum then stops once
        three consecutive terms contribute less than tol/10 relative to the
        running total.  At tol <= ~1e-8 the cap ends the sum first
        (stopped_by = "cap"), so tol is not met there: at tol = 1e-9 the
        sum is 6e-9 to 2.1e-8 relative off a long-sum reference.
    with_breakdown : bool
        Also return per-term contributions in Pa.
    cache : MatsubaraCache, optional
        Shared permittivity cache for separation sweeps.

    Returns
    -------
    PressureResult
    """
    if not (50e-9 <= a <= 20e-6):
        raise ValidityDomainError(f"separation {a} m outside [50 nm, 20 um]")
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError(f"tol must lie in [1e-12, 1e-4], got {tol}")
    if cache is not None and (cache.model is not model or cache.temperature != temperature):
        raise ValueError("cache was built for a different model or temperature")

    xi1 = matsubara_frequency(1, temperature)
    y1 = 2.0 * a * xi1 / C_LIGHT
    l_cap = max(1, math.ceil(20.0 / y1))

    i_zero = _zero_term(model, a, tol)
    terms = _finite_terms(model, a, np.arange(1, l_cap + 1), xi1, tol, cache=cache)
    kept, stopped_by = _scan_stop(i_zero, terms, tol)

    total = math.fsum([0.5 * i_zero] + kept.tolist())
    prefactor = -K_B * temperature / (8.0 * math.pi * a**3)
    tail = abs(prefactor) * _tail_bound(y1, kept.size)

    breakdown = None
    if with_breakdown:
        breakdown = prefactor * np.concatenate([[0.5 * i_zero], kept])

    return PressureResult(
        pressure=prefactor * total,
        truncation_error_estimate=tail,
        n_terms=int(kept.size),
        stopped_by=stopped_by,
        term_breakdown=breakdown,
    )


def _scan_stop(i_zero, terms, tol):
    """Keep terms up to the third consecutive one below tol/10 of the running sum."""
    running = 0.5 * i_zero
    consec = 0
    for j, v in enumerate(terms):
        running += v
        consec = consec + 1 if abs(v) < (tol / 10.0) * abs(running) else 0
        if consec == 3:
            return terms[: j + 1], "tol"
    return terms, "cap"


def pressure_sweep(model, separations, temperature=293.15, tol=1e-9):
    """Pressure over a separation grid with a shared permittivity cache.

    Returns (pressures, truncation_estimates) as arrays aligned with
    separations.
    """
    separations = np.asarray(separations, dtype=float)
    cache = None
    if isinstance(model, PermittivityModel):
        cache = MatsubaraCache(model, temperature)
    p = np.empty_like(separations)
    trunc = np.empty_like(separations)
    for i, a in enumerate(separations):
        res = casimir_pressure(model, float(a), temperature, tol, cache=cache)
        p[i] = res.pressure
        trunc[i] = res.truncation_error_estimate
    return p, trunc


def pressure_sweep_text(separations, by_label: dict) -> str:
    """Two-model sweep as '#'-commented column text.

    by_label maps a model label to (pressures, truncation_estimates).
    """
    labels = list(by_label)
    lines = ["# plate-plate Casimir pressure sweep"]
    cols = ["a_nm"] + [f"P_{lab}_Pa" for lab in labels] + [f"trunc_{lab}_Pa" for lab in labels]
    lines.append("# columns: " + "  ".join(cols))
    for i, a in enumerate(np.asarray(separations, dtype=float)):
        row = [f"{a * 1e9:.3f}"]
        row += [f"{by_label[lab][0][i]:.9e}" for lab in labels]
        row += [f"{by_label[lab][1][i]:.3e}" for lab in labels]
        lines.append("  ".join(row))
    return "\n".join(lines) + "\n"
