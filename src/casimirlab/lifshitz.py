"""Finite-temperature Casimir pressure between parallel plates.

The pressure is evaluated as the primed Matsubara sum

    P(a) = -(k_B T / pi) sum_l' int q_l k dk  sum_pol [r^-2 e^{2 a q_l} - 1]^-1,

computed here in the dimensionless variable y = 2 a q_l, so that each term
becomes (1 / 8 a^3) int_{y_l}^inf y^2 sum_pol [r^-2 e^y - 1]^-1 dy with
y_l = 2 a xi_l / c.  The sum keeps the terms l = 0 .. L, with L the smallest
count whose bound on the discarded tail is tol/2 of a lower bound on the sum;
all of them are integrated in one vectorised pass over a node template in
t = y - y_l (Gauss-Kronrod panels on [0, 7], Gauss-Laguerre beyond), and the
terms whose error estimate misses tol/2 of their value are redone together on
the same template with its panels bisected, once more per pass (Bordag,
Klimchitskaya, Mohideen and Mostepanenko, Advances in the Casimir Effect,
OUP 2009, on the sum).  The zero-frequency term is dispatched on the model's
declared extrapolation tag, never inferred numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR, K_B
from .errors import AmbiguousZeroTermError, NumericsError, ValidityDomainError
from .optics import PermittivityModel

__all__ = [
    "matsubara_frequency",
    "IdealMetal",
    "IDEAL_METAL",
    "PressureResult",
    "MatsubaraCache",
    "TOL_RANGE",
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
        raise ValidityDomainError(f"Matsubara index must be >= 0, got {l}")
    if not temperature > 0:
        raise ValidityDomainError(f"temperature must be positive, got {temperature}")
    return 2.0 * math.pi * K_B * temperature * l / HBAR


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

def _gauss_laguerre(n):
    """Nodes x and weights w e^x of the n-point rule for int_0^inf e^-x f(x) dx.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Laguerre polynomials (diagonal 2k + 1, off-diagonal k), the weights the
    squared first components of its eigenvectors.
    """
    k = np.arange(1.0, n)
    x, v = np.linalg.eigh(np.diag(2.0 * np.arange(n) + 1.0) + np.diag(k, 1) + np.diag(k, -1))
    return x, v[0] ** 2 * np.exp(x)


@functools.cache
def _node_template(depth):
    """Nodes in t = y - y_l shared by every term, and their weight matrix.

    15-point Gauss-Kronrod panels on [0, 0.5, 1.5, 3.5, 7], each bisected
    depth times, resolve the start of a term, where the occupancy pole at
    y = ln r^2 <= 0 lies within y_l; from t = 7 on, where the integrand is
    e^-t times a slowly varying factor, a 20-point Gauss-Laguerre rule takes
    the rest, and a 14-point one checks it.  values @ weights gives, per row,
    the integral in column 0 and in the other columns the Kronrod-minus-Gauss
    difference of each panel and the GL20-minus-GL14 difference, whose
    absolute sum is the error estimate.
    """
    edges = np.array([0.0, 0.5, 1.5, 3.5, 7.0])
    for _ in range(depth):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    n_panel = _XGK.size * half.size
    x20, w20 = _gauss_laguerre(20)
    x14, w14 = _gauss_laguerre(14)
    nodes = np.concatenate([(mid[:, None] + half[:, None] * _XGK).ravel(),
                            edges[-1] + x20, edges[-1] + x14])
    weights = np.zeros((nodes.size, half.size + 2))
    for p in range(half.size):
        rows = slice(p * _XGK.size, (p + 1) * _XGK.size)
        weights[rows, 0] = half[p] * _WGK
        weights[rows, 1 + p] = half[p] * _WGK
        weights[rows, 1 + p][1::2] -= half[p] * _WG
    laguerre = slice(n_panel, n_panel + x20.size)
    weights[laguerre, 0] = w20
    weights[laguerre, -1] = w20
    weights[laguerre.stop:, -1] = -w14
    return nodes, weights


def _integrand(r_tm, r_te, y):
    """y^2 summed over polarisations of the mode occupancy r^2 e^-y / (1 - r^2 e^-y).

    The denominator is formed as (1 - r^2) - r^2 (e^-y - 1), a sum of two
    non-negative parts, so it keeps full precision for r^2 near 1 and small y.
    """
    neg_y = -y
    em = np.exp(neg_y)
    em1 = np.expm1(neg_y)
    total = 0.0
    for r in (r_tm, r_te):
        r2 = r * r
        total = total + r2 * em / ((1.0 - r2) - r2 * em1)
    return y * y * total


def _reflections(model, a, y_l, eps, y):
    """r_TM, r_TE on y, one row per term with lower limit y_l[i].

    A row with y_l = 0 is the l = 0 term and takes the model's tagged
    reflection; the others take the Fresnel coefficients at eps[i], in the
    variables y = 2 a q and y_l = 2 a xi_l / c.
    """
    if isinstance(model, IdealMetal):
        return _tagged_reflection(model, y)
    r_tm, r_te = _fresnel(eps[:, None], y, y_l[:, None])
    if y_l[0] == 0.0:
        r_tm[0], r_te[0] = _tagged_reflection(model, y[0] / (2.0 * a))
    return r_tm, r_te


def _template_integrate(model, a, y_l, eps, depth=0):
    """Every term on the node template of that depth: (integrals, error estimates)."""
    nodes, weights = _node_template(depth)
    y = y_l[:, None] + nodes
    out = _integrand(*_reflections(model, a, y_l, eps, y), y) @ weights
    return out[:, 0], np.abs(out[:, 1:]).sum(axis=1)


def _integrate_terms(model, a, y_l, eps, tol):
    """Integrals I_l of the terms with lower limits y_l, each to tol relative.

    All terms go through the node template in one batch; the terms whose
    error estimate exceeds tol of their value (or 1e-300, for a term that
    underflows) go through it again in one batch, in ascending l so that a
    missed l = 0 row keeps its tagged reflection, with the panels bisected
    once more each time, up to 8 times.
    """
    vals = np.empty_like(y_l)
    rows = np.arange(y_l.size)
    for depth in range(9):
        v, e = _template_integrate(model, a, y_l[rows], eps[rows], depth)
        vals[rows] = v
        rows = rows[e > np.maximum(tol * v, 1e-300)]
        if rows.size == 0:
            return vals
    raise NumericsError(f"wavevector quadrature failed to converge (l={rows[0]}, a={a})")


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
    zero term); truncation_error_estimate bounds the discarded thermal tail;
    n_terms is the last Matsubara index kept and stopped_by the rule that set
    it ("tol": the tail bound).
    """

    pressure: float
    truncation_error_estimate: float
    n_terms: int
    stopped_by: str
    term_breakdown: np.ndarray | None = None


_ZETA3 = 1.2020569031595942

# the relative tolerances casimir_pressure accepts
TOL_RANGE = (1e-12, 1e-4)


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


def _term_count(y1, target):
    """Smallest L >= 1 with _tail_bound(y1, L) <= target.

    With Y = y1 (L + 1) and x = e^-y1 the bound is, exactly,
    env e^-Y P(Y) / (1 - x), P(Y) = Y^2 + 2 (1 + u) Y + c, u = y1 x / (1 - x),
    c = y1^2 x (1 + x) / (1 - x)^2 + 2 u + 2, and env -> 2 from above.  A few
    fixed-point steps Y = ln(2 P(Y) / ((1 - x) target)) put L within a term
    or so of the answer, and the bound itself, which falls with L, settles it.
    """
    x = math.exp(-y1)
    one = 1.0 - x
    u = y1 * x / one
    c = y1 * y1 * x * (1.0 + x) / one**2 + 2.0 * u + 2.0
    scale = 2.0 / (one * target)
    big_y = 0.0
    for _ in range(5):
        big_y = math.log(scale * (big_y * big_y + 2.0 * (1.0 + u) * big_y + c))
    n = max(1, math.ceil(big_y / y1) - 1)
    while _tail_bound(y1, n) > target:
        n += 1
    while n > 1 and _tail_bound(y1, n - 1) <= target:
        n -= 1
    return n


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
        Relative accuracy target, within [1e-12, 1e-4], split evenly between
        the discarded thermal tail and the quadrature.  The sum keeps terms
        l = 1 .. L with L the smallest count whose tail bound is at most
        (tol/2) zeta(3), which is at most tol/2 of the sum because every term
        is non-negative and half the l = 0 term alone is at least zeta(3)
        (r_TM = 1 at xi = 0); stopped_by is then "tol".  Every term is
        integrated to tol/2 of its value in one pass over a shared template
        of 94 nodes in y - y_l (Gauss-Kronrod panels on [0, 7], Gauss-Laguerre
        beyond); the terms whose error estimate misses that are redone
        together on the template with its panels bisected, up to 8 times,
        and NumericsError is raised if any still misses.
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
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise ValidityDomainError(f"tol must lie in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}], got {tol}")
    if cache is not None and (cache.model is not model or cache.temperature != temperature):
        raise ValueError("cache was built for a different model or temperature")

    xi1 = matsubara_frequency(1, temperature)
    y1 = 2.0 * a * xi1 / C_LIGHT
    n_terms = _term_count(y1, 0.5 * tol * _ZETA3)
    ls = np.arange(n_terms + 1)
    # eps[0] stands in for the l = 0 row, whose reflection comes from the tag
    eps = np.ones(n_terms + 1)
    if not isinstance(model, IdealMetal):
        eps[1:] = cache.eps_for(ls[1:]) if cache is not None else model.epsilon(xi1 * ls[1:])
    terms = _integrate_terms(model, a, y1 * ls, eps, 0.5 * tol)
    terms[0] *= 0.5

    prefactor = -K_B * temperature / (8.0 * math.pi * a**3)
    return PressureResult(
        pressure=prefactor * math.fsum(terms.tolist()),
        truncation_error_estimate=abs(prefactor) * _tail_bound(y1, n_terms),
        n_terms=n_terms,
        stopped_by="tol",
        term_breakdown=prefactor * terms if with_breakdown else None,
    )


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
