"""Finite-temperature Casimir pressure between parallel plates.

The pressure is evaluated as the primed Matsubara sum

    P(a) = -(k_B T / pi) sum_l' int q_l k dk  sum_pol [r^-2 e^{2 a q_l} - 1]^-1,

computed here in the dimensionless variable y = 2 a q_l, so that each term
becomes (1 / 8 a^3) int_{y_l}^inf y^2 sum_pol [r^-2 e^y - 1]^-1 dy with
y_l = 2 a xi_l / c.  The sum keeps the terms l = 0 .. L, with L the smallest
count whose bound on the discarded tail is tol/2 of a lower bound on the sum;
all of them are integrated by vectorised passes over node templates in
t = y - y_l: the steep template (Gauss-Kronrod panels on [0, 7],
Gauss-Laguerre beyond) for the rows with small y_l, and for the others the
cheapest rung, whose start the row has reached, of the ladder of start
rules _LADDER, each starting where its measured error is below tol/2.  The
terms whose error estimate misses tol/2 of their value are redone together
on the steep template with its panels bisected, once more per pass,
whichever template they started on (Bordag, Klimchitskaya, Mohideen and
Mostepanenko, Advances in the Casimir Effect, OUP 2009, on the sum).  The
zero-frequency term is dispatched on the model's declared extrapolation
tag, never inferred numerically.

Every pressure comes from one batch function, _pressures: it evaluates each
model's eps once for a list of separations and runs them in chunks of whole
separations, in order, each of at most _PASS_ELEMENTS rows (separation,
term) unless one separation holds more.  A chunk runs its rows through the
template each starts on, in fixed blocks of _PASS_ELEMENTS rows x nodes
that all its models share, then sums each of its separations into
per-model arrays of pressures, tail bounds and term counts (_Batch).
pressure_sweep hands those arrays on for one model or several, with no
per-point object, and is the one way for models to share a batch.  A
PressureResult is built only for a caller that asks for one point:
casimir_pressure, alone or through the MatsubaraCache of one model's sweep,
whose first pressure computes the whole batch and whose next pressures read
their entries.  A block computes the planes that do not depend on the model
(y, y^2, e^-y, expm1(-y)) and finds its l = 0 rows once, then each model's
reflections and integrand in turn, in place, and reduces each row alone; a
model's missed rows are refined on their own.  Every block of a batch
computes in one workspace, so every pressure of a sweep, of any model, is
bit-identical to one computed alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR, K_B
from .errors import AmbiguousZeroTermError, NumericsError, ValidityDomainError

__all__ = [
    "matsubara_frequency",
    "IdealMetal",
    "IDEAL_METAL",
    "PressureResult",
    "MatsubaraCache",
    "TOL_RANGE",
    "casimir_pressure",
    "pressure_sweep",
]


def matsubara_frequency(l: int, temperature: float) -> float:
    """Matsubara frequency 2 pi k_B T l / hbar in rad/s.

    Parameters
    ----------
    l : int
        Thermal index, l >= 0.
    temperature : float
        Temperature in K, finite and > 0.
    """
    if l < 0:
        raise ValidityDomainError(f"Matsubara index must be >= 0, got {l}")
    if not 0 < temperature < math.inf:
        raise ValidityDomainError(f"temperature must be finite and positive, got {temperature}")
    return 2.0 * math.pi * K_B * temperature * l / HBAR


class IdealMetal:
    """Perfect-reflector surrogate: r_TM = 1, r_TE = -1 at every argument."""

    zero_tag = "ideal"


IDEAL_METAL = IdealMetal()


def _fresnel(eps, q, w, out, q2):
    """r_TM, r_TE at a finite imaginary frequency xi = w c.

    q = (k_perp^2 + w^2)^1/2 is the vacuum normal wavevector, q2 its square,
    and eps the permittivity at xi; arrays broadcast.  The coefficients are
    written into out[0] and out[1], with out[2] as scratch; out holds three
    planes of the broadcast shape.
    """
    r_tm, r_te, k = out[0, ...], out[1, ...], out[2, ...]
    np.add(q2, (eps - 1.0) * w * w, out=k)
    np.sqrt(k, out=k)
    eps_q = np.multiply(eps, q, out=r_te)
    np.subtract(eps_q, k, out=r_tm)
    np.divide(r_tm, np.add(eps_q, k, out=r_te), out=r_tm)
    np.subtract(q, k, out=r_te)
    np.divide(r_te, np.add(q, k, out=k), out=r_te)
    return r_tm, r_te


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
# the embedded 7-point Gauss weights on the Kronrod nodes they share, 0 on the others
_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0, 0.381830050505119, 0.0,
    0.417959183673469, 0.0, 0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
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


# A node template is its panel edges in t = y - y_l and the Gauss-Laguerre rule
# pair (n, m) that takes the rest from the last edge, GLn checked by GLm.  The
# steep one resolves rows with small y_l, where the occupancy pole at
# y = ln r^2 <= 0 lies close to the lower limit, and every refinement pass
# bisects its panels.
_STEEP = ((0.0, 0.5, 1.5, 3.5, 7.0), (20, 14))

# The ladder of start templates for the rows past the steep range, cheapest
# last: 15-point Gauss-Kronrod panels on [0, 1, 3] and on [0, 2] with GL20/GL14
# beyond, then panel-free Gauss-Laguerre rules from t = 0, where the integrand
# is e^-t times a slowly varying factor.  Each rung has its template and its
# (y_l from which rows may start on it, the largest error estimate over value
# of the rows it can take from there) list; it can take rows up to the next
# rung's last start, past which a row starts on a later rung at every tol.
# The envelopes are over drude, plasma and the ideal metal, 50 nm - 20 um at
# 293.15 K, 10 K and 1 K, on the rows of tol 1e-12, and tests/test_lifshitz.py
# measures them; each rung's last one is below TOL_RANGE[0] / 2.  The middle
# entries keep the starts rising along the ladder at the tols where one rung
# has moved on to its next start and the others have not.  At depth 0 a
# template has 15 nodes per panel plus n + m: 94 for _STEEP, then 64, 49, 34,
# 24, 20 and 14 along the ladder.
_LADDER = (
    (((0.0, 1.0, 3.0), (20, 14)), ((0.45, 4.5e-10), (1.0, 3.5e-12), (1.75, 4.6e-13))),
    (((0.0, 2.0), (20, 14)), ((1.15, 4.5e-10), (2.0, 7.4e-12), (3.0, 4.6e-13))),
    (((0.0,), (20, 14)), ((3.0, 7.4e-11), (4.5, 2.3e-12), (7.0, 6.0e-14))),
    (((0.0,), (14, 10)), ((5.0, 2.2e-10), (9.0, 2.0e-12), (11.0, 3.6e-13))),
    (((0.0,), (12, 8)), ((9.25, 1.04e-10), (15.0, 9.0e-13), (16.0, 4.6e-13))),
    (((0.0,), (8, 6)), ((15.4, 1.08e-10), (30.5, 4.6e-13))),
)


@functools.cache
def _node_template(template, depth):
    """Nodes in t = y - y_l of a template (edges, (n, m)), its panels each
    bisected depth times, their weights w and d, and the panel count.

    15-point Gauss-Kronrod panels on the edges resolve the start of a term;
    refinement bisects those of _STEEP, never a rung of _LADDER.  From the
    last edge, where the integrand is e^-t times a slowly varying factor,
    the n-point Gauss-Laguerre rule takes the rest and the m-point one
    checks it (the node counts are listed beside _LADDER).  The nodes run
    panel by panel, 15 each, then GLn and GLm.  w gives the integral
    (Kronrod, then GLn, 0 on GLm) and d each panel's Kronrod-minus-Gauss
    difference, then GLn minus GLm; both are linear in the panel count.
    """
    edges, (n, m) = template
    edges = np.array(edges)
    for _ in range(depth):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    xn, wn = _gauss_laguerre(n)
    xm, wm = _gauss_laguerre(m)
    nodes = np.concatenate([(mid + half * _XGK).ravel(), edges[-1] + xn, edges[-1] + xm])
    w = np.concatenate([(half * _WGK).ravel(), wn, np.zeros(m)])
    d = np.concatenate([(half * _WGK - half * _WG).ravel(), wn, -wm])
    return nodes, w, d, half.size


def _shared_planes(y_l, nodes, out):
    """The planes every model's integrand reads, into out[0] .. out[3]: y = y_l
    + t on the template nodes, y^2, e^-y and expm1(-y), one row per term.

    -y is negated from the y plane: (-y_l) - t would round to the same bits
    without reading it, but a broadcast pass over a template's rows
    costs more than a contiguous negation."""
    y, y2, em, em1 = out
    np.add(y_l[:, None], nodes, out=y)
    np.multiply(y, y, out=y2)
    np.negative(y, out=em1)
    np.exp(em1, out=em)
    np.expm1(em1, out=em1)
    return y, y2, em, em1


def _integrand(r_tm, r_te, shared, scratch):
    """y^2 summed over polarisations of the mode occupancy r^2 e^-y / (1 - r^2 e^-y).

    The denominator is formed as (1 - r^2) - r^2 (e^-y - 1), a sum of two
    non-negative parts, so it keeps full precision for r^2 near 1 and small y.
    shared holds the planes (y, y^2, e^-y, expm1(-y)) of _shared_planes and
    is only read.  Works in place: the result is returned in r_tm, r_te is
    overwritten, and scratch is two planes.
    """
    _, y2, em, em1 = shared
    num, den = scratch
    for r2 in (r_tm, r_te):
        np.multiply(r2, r2, out=r2)
        np.multiply(r2, em, out=num)
        np.multiply(r2, em1, out=den)
        np.subtract(np.subtract(1.0, r2, out=r2), den, out=den)
        np.divide(num, den, out=r2)
    np.add(r_tm, r_te, out=r_tm)
    return np.multiply(y2, r_tm, out=r_tm)


def _reflections(model, a, y_l, eps, zero, shared, out):
    """r_TM, r_TE on the shared planes' y into out[0], out[1] (out[2] is
    scratch), one row per term with lower limit y_l[i] at separation a[i].

    The rows listed in zero are the l = 0 terms (y_l = 0) and take the
    model's tagged reflection; the others take the Fresnel coefficients at
    eps[i], in the variables y = 2 a q and y_l = 2 a xi_l / c, with q^2 read
    from the shared y^2.
    """
    y, y2 = shared[0], shared[1]
    r_tm, r_te = out[0], out[1]
    if isinstance(model, IdealMetal):
        r_tm[...], r_te[...] = _tagged_reflection(model, y)
        return r_tm, r_te
    _fresnel(eps[:, None], y, y_l[:, None], out, y2)
    if zero.size:
        r_tm[zero], r_te[zero] = _tagged_reflection(model, y[zero] / (2.0 * a[zero, None]))
    return r_tm, r_te


class _Workspace:
    """The one buffer every template pass of a batch computes in: eight planes
    of rows x nodes, four shared by the models (_shared_planes) and four that
    each model reuses in turn for its reflections and integrand.  It is
    allocated at the size it is given and grown, the old buffer dropped
    first, only when a pass needs more."""

    def __init__(self, elements):
        self._buf = np.empty(8 * elements)

    def planes(self, rows, nodes):
        size = 8 * rows * nodes
        if self._buf.size < size:
            self._buf = None
            self._buf = np.empty(size)
        return self._buf[:size].reshape(8, rows, nodes)


def _template_integrate(models, a, y_l, eps, template, depth, work):
    """Every row on the node template at that depth, for each model: a list
    of (integrals, error estimates), one pair per model.

    Row i has lower limit y_l[i] at separation a, one value for every row or
    one per row, and eps[m][i] is its permittivity for models[m].  The shared
    planes and the l = 0 rows are found once; each model then takes its
    reflections and integrand in the other four planes of work.  The
    estimate sums the absolute differences d gives; both results reduce each
    row alone, whatever rows are beside it.
    """
    nodes, w, d, n_panels = _node_template(template, depth)
    planes = work.planes(y_l.size, nodes.size)
    shared = _shared_planes(y_l, nodes, planes[:4])
    a = np.broadcast_to(a, y_l.shape)
    zero = np.flatnonzero(y_l == 0.0)
    n = n_panels * _XGK.size
    out = []
    for model, eps_m in zip(models, eps):
        r_tm, r_te = _reflections(model, a, y_l, eps_m, zero, shared, planes[4:7])
        f = _integrand(r_tm, r_te, shared, planes[6:])
        panels = np.vecdot(f[:, :n].reshape(y_l.size, n_panels, _XGK.size),
                           d[:n].reshape(n_panels, _XGK.size))
        tail = np.vecdot(f[:, n:], d[n:])
        out.append((np.vecdot(f, w), np.abs(panels).sum(axis=1) + np.abs(tail)))
    return out


def _in_domain(a):
    """Whether casimir_pressure accepts separation a (in m)."""
    return 50e-9 <= a <= 20e-6


class MatsubaraCache:
    """The pressures of one model's sweep at one T, computed in one batch.

    separations lists the separations casimir_pressure will be called with.
    The first call for one of them computes all of them (those in the
    accepted range) at that call's tol in one _pressures batch, whose
    template blocks cut across separations, and each later call for one of
    them reads its entry of the batch's arrays, once.  A call for any other
    separation or tol is computed alone.  Every row is integrated by
    reductions over itself alone, so every pressure is bit-identical to one
    computed alone, whichever blocks its rows fell in.
    """

    def __init__(self, model, temperature: float, separations=()):
        self.model = model
        self.temperature = temperature
        self._listed = [float(a) for a in separations if _in_domain(a)]
        self._entries = {}

    def result(self, a, tol):
        """The PressureResult of separation a: its entry of the sweep's batch, or
        computed alone; NumericsError if a row of it missed tol/2."""
        if a in self._listed:
            batch = _pressures([self.model], self.temperature, self._listed, tol)
            self._entries = {(b, tol): (batch, j) for j, b in enumerate(self._listed)}
            self._listed = []
        if (a, tol) in self._entries:
            batch, j = self._entries.pop((a, tol))
            return batch.result(0, j)
        return _pressures([self.model], self.temperature, [a], tol).result(0, 0)


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
    term_breakdown: np.ndarray | None


@dataclass
class _Batch:
    """The arrays of one _pressures batch, one row per model and one column
    per separation, in order: the pressures in Pa (NaN where a row missed),
    the tail bounds in Pa, the first l whose quadrature missed tol/2 (-1
    where none did), and, shared by the models, each separation's last
    Matsubara index.  breakdowns, when asked for, holds each model's terms
    in Pa per separation."""

    separations: list
    pressures: np.ndarray
    truncations: np.ndarray
    failed: np.ndarray
    n_terms: np.ndarray
    breakdowns: list | None

    def missed(self, m, j):
        """The NumericsError naming model m's first missed row at separation j."""
        return NumericsError("wavevector quadrature failed to converge "
                             f"(l={self.failed[m, j]}, a={self.separations[j]})")

    def result(self, m, j):
        """The PressureResult of model m at separation j; NumericsError if a row missed."""
        if self.failed[m, j] >= 0:
            raise self.missed(m, j)
        return PressureResult(
            pressure=float(self.pressures[m, j]),
            truncation_error_estimate=float(self.truncations[m, j]),
            n_terms=int(self.n_terms[j]),
            stopped_by="tol",
            term_breakdown=None if self.breakdowns is None else self.breakdowns[m][j],
        )


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
    # min(xm, 0.5), without the builtin's call: this runs about twice per count
    envelope = 2.0 / (1.0 - (xm if xm < 0.5 else 0.5))
    return envelope * (y1 * y1 * s2 + 2.0 * y1 * s1 + 2.0 * s0)


def _smallest_count(enough, start, most):
    """Smallest n >= 1 with enough(n), or None when enough(most) is false;
    enough must stay true once it is true.

    From n = max(start, 1) <= most the search gallops by offsets 1, 2, 4, ...
    in the direction enough(n) points, never past most, and bisects the last
    offset: a count equal to start takes two calls of enough, one a term
    either side two or three.  enough has been called at the count it
    returns.
    """
    n = start if start > 1 else 1
    if enough(n):  # offsets from n double: n - 1, n - 2, n - 4, ...
        lo, hi = n - 1, n
        while lo > 0 and enough(lo):
            lo, hi = max(0, 2 * lo - n), lo
    else:  # n + 1, n + 2, n + 4, ...
        lo, hi = n, min(n + 1, most)
        while not enough(hi):
            if hi == most:
                return None
            lo, hi = hi, min(2 * hi - n, most)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


# the most Matsubara terms one separation may keep; the counts in use stay
# below 30,000 (1 K at 250 nm, 10 K at 50 nm)
_MAX_TERMS = 1 << 20


def _term_count(y1, target, start):
    """(L, _tail_bound(y1, L)) for the smallest L >= 1 whose bound is at most
    target, searched from start (a nearby separation's count), or None above
    _MAX_TERMS; the bound falls with L, so the count does not depend on where
    the search starts.  The bound is the one the search evaluated at L."""
    bounds = {}
    n = _smallest_count(lambda n: bounds.setdefault(n, _tail_bound(y1, n)) <= target,
                        start, _MAX_TERMS)
    return None if n is None else (n, bounds[n])


def _rung_starts(y1, last_l, tol):
    """For each separation, with first Matsubara argument y1 and rows l = 0 ..
    last_l (arrays), the first l of each rung of _LADDER, one array per rung:
    ceil(start / y1) for the first (start, envelope) of the rung's list whose
    envelope is below tol/2, the first l with y_l >= start up to the rounding
    of the quotient, and at most last_l + 1 (none of them).  The starts rise
    along the ladder at every tol, so a row on rung k, from its first l to
    the next rung's, is on the cheapest rung whose start it has reached.  It
    depends on y1, l and tol alone, so a row starts on the same template in
    any batch."""
    ys = [next(start for start, envelope in starts if envelope < 0.5 * tol)
          for _, starts in _LADDER]
    return np.minimum(np.ceil(np.divide.outer(ys, y1)).astype(int), last_l + 1)


# rows x nodes of a depth-0 template block, whose _PASS_ELEMENTS // nodes rows
# are 255 on _STEEP, then 375, 489, 705, 1000, 1200 and 1714 along _LADDER, in
# a workspace of about 1.5 MB; also the most rows of a chunk of separations,
# unless one separation alone holds more
_PASS_ELEMENTS = 24_000


def _pressures(models, temperature, separations, tol, with_breakdown=False):
    """Each model's pressure at each separation, in order, as one _Batch.

    Each separation keeps the terms l = 0 .. L of its tail-bound count, each
    count searched from the one before, and a count above _MAX_TERMS raises
    NumericsError before any work; each model's eps is evaluated once, at
    xi_1 .. xi_L of the largest L.  A row (separation, term l) starts on the
    rung of _LADDER that _rung_starts gives it, the cheapest whose start it
    has reached, and on the steep template below rung 0's start.  The
    separations run in chunks, in order: from the next one, as many as hold at
    most _PASS_ELEMENTS rows together, and at least one.  A chunk runs all its
    steep rows, then all its rows on each rung in ladder order, in blocks of
    _PASS_ELEMENTS // nodes rows (listed beside _PASS_ELEMENTS) that every
    model shares, so each separation's rows run in increasing l.  Each
    template's rows of the chunk are listed once, as their separation index
    and l, and a block forms its rows' y_l, place and eps from its slice of
    them.  In a block, a model's rows whose error estimate exceeds tol/2 of
    their value (or 1e-300, for a row that underflows) go through again
    together on the steep template, whichever template they started on, with
    its panels bisected once more each time, up to 8 times; a row that still
    misses is recorded with its separation's first missed l, and its pressure
    is NaN.  Each row's value is written at its place in the chunk's array;
    once the chunk has run, each separation's terms, the l = 0 one at half
    weight, are summed by math.fsum, so a pressure does not depend on how
    blocks cut its rows, and the chunk's values are dropped.  The sums, times
    each separation's prefactor, and the tail bounds of the count searches
    fill the batch's arrays at the end.  Every block computes in one
    workspace.
    """
    seps = [float(a) for a in separations]
    xi1 = matsubara_frequency(1, temperature)
    y1s = [2.0 * a * xi1 / C_LIGHT for a in seps]
    counts, bounds, n = [], [], 0
    for a, y1 in zip(seps, y1s):
        found = _term_count(y1, 0.5 * tol * _ZETA3, n)
        if found is None:  # before any eps or row is computed
            raise NumericsError(f"thermal sum at a={a}, T={temperature} K needs more than "
                                f"{_MAX_TERMS} Matsubara terms")
        n, bound = found
        counts.append(n)
        bounds.append(bound)
    top = np.arange(1, max(counts, default=0) + 1, dtype=float)
    # 1 stands in for the l = 0 rows, whose reflection comes from the tag
    eps = [np.append(1.0, np.ones(top.size) if isinstance(model, IdealMetal) else
                     model.epsilon(xi1 * top)) for model in models]
    a_j, y1_j, counts = np.array(seps), np.array(y1s), np.array(counts, dtype=int)
    ends = np.cumsum(counts + 1)
    starts = ends - counts - 1
    # each start template, its depth-0 nodes per row, and its rows l = lo .. hi - 1
    cuts = [np.zeros_like(counts), *_rung_starts(y1_j, counts, tol), counts + 1]
    templates = [(template, _node_template(template, 0)[0].size, lo, hi) for template, lo, hi
                 in zip([_STEEP, *(template for template, _ in _LADDER)], cuts, cuts[1:])]
    work = _Workspace(max(min(int((hi - lo).sum()), _PASS_ELEMENTS // nodes) * nodes
                          for _, nodes, lo, hi in templates))
    prefactors = np.array([-K_B * temperature / (8.0 * math.pi * a**3) for a in seps])
    failed = np.full((len(models), len(seps)), -1)
    breakdowns = [[None] * len(seps) for _ in models] if with_breakdown else None
    sums = [[] for _ in models]
    j = 0
    while j < len(seps):
        base = starts[j]
        k = max(j + 1, int(np.searchsorted(ends, base + _PASS_ELEMENTS, side="right")))
        values = np.empty((len(models), ends[k - 1] - base))  # by batch row - base
        for template, nodes, lo, hi in templates:
            # the chunk's rows on this template, in order: separation index and l
            on = hi[j:k] - lo[j:k]
            sep = np.repeat(np.arange(j, k), on)
            ls = np.arange(sep.size) + (lo[j:k] - np.cumsum(on) + on)[sep - j]
            block = _PASS_ELEMENTS // nodes
            for r in range(0, sep.size, block):
                sep_b, l_b = sep[r:r + block], ls[r:r + block]
                y_l, a_r = y1_j[sep_b] * l_b, a_j[sep_b]
                eps_r = [eps_m[l_b] for eps_m in eps]
                passed = _template_integrate(models, a_r, y_l, eps_r, template, 0, work)
                for m, (model, eps_m, (vals, e)) in enumerate(zip(models, eps_r, passed)):
                    rows = np.flatnonzero(e > np.maximum(0.5 * tol * vals, 1e-300))
                    for depth in range(1, 9):
                        if not rows.size:
                            break
                        [(v, e)] = _template_integrate([model], a_r[rows], y_l[rows],
                                                       [eps_m[rows]], _STEEP, depth, work)
                        vals[rows] = v
                        rows = rows[e > np.maximum(0.5 * tol * v, 1e-300)]
                    for j_row, l in zip(sep_b[rows].tolist(), l_b[rows].tolist()):
                        if failed[m, j_row] < 0:  # rows run in increasing l
                            failed[m, j_row] = l
                    values[m, starts[sep_b] - base + l_b] = vals
        values[:, starts[j:k] - base] *= 0.5  # the primed sum's l = 0 terms
        runs = list(zip((starts[j:k] - base).tolist(), (ends[j:k] - base).tolist()))
        for m in range(len(models)):
            sums[m].extend(math.fsum(values[m, first:end].tolist()) for first, end in runs)
            if with_breakdown:
                for i, (first, end) in enumerate(runs, j):
                    breakdowns[m][i] = prefactors[i] * values[m, first:end]
        del values  # before the next chunk's are allocated
        j = k
    pressures = prefactors * np.array(sums)
    pressures[failed >= 0] = np.nan
    bounds = np.abs(prefactors) * bounds
    return _Batch(seps, pressures, np.tile(bounds, (len(models), 1)), failed, counts, breakdowns)


def casimir_pressure(
    model,
    a: float,
    temperature: float,
    tol: float,
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
        Temperature in K, with no default: package calls pass their geometry's.
    tol : float
        Relative accuracy target, within [1e-12, 1e-4], split evenly between
        the discarded thermal tail and the quadrature.  The sum keeps terms
        l = 0 .. L with L the smallest count >= 1 whose tail bound is at
        most (tol/2) zeta(3), found by a search on the bound itself
        (_smallest_count) up to 2^20 terms (NumericsError above); that is
        at most tol/2 of the sum because every term is non-negative and half
        the l = 0 term alone is at least zeta(3) (r_TM = 1 at xi = 0);
        stopped_by is then "tol".  Every term is integrated to tol/2 of its
        value on a shared node template in y - y_l: the steep one (_STEEP)
        for small y_l, else the cheapest start rule of the ladder _LADDER
        whose start it has reached; each rule starts from the first y_l
        where its measured error envelope is below tol/2 (the starts, node
        counts and block sizes are listed beside _LADDER and
        _PASS_ELEMENTS).  A sweep's separations share blocks, in chunks of
        at most _PASS_ELEMENTS terms.  The terms of a block whose error
        estimate misses that are redone together on the steep template with
        its panels bisected, up to 8 times, and NumericsError, naming the
        first such l and a, is raised if any still misses.
    with_breakdown : bool
        Also return per-term contributions in Pa.
    cache : MatsubaraCache, optional
        Memo of this model's sweep, built at this temperature; a cache of
        another model or temperature raises ValueError.  Built with the
        sweep's separations, it computes all of them in one batch at the
        first call for one of them and hands each later call its result; the
        result is the same bit for bit.  Without a cache, or with_breakdown,
        the call is the one-separation, one-model case of the batch.

    Returns
    -------
    PressureResult
    """
    _check_inputs((a,), tol)
    if cache is not None and (cache.model is not model or cache.temperature != temperature):
        raise ValueError("cache was built for other models or a different temperature")
    if cache is None or with_breakdown:
        return _pressures([model], temperature, [a], tol, with_breakdown).result(0, 0)
    return cache.result(a, tol)


def _check_inputs(separations, tol):
    """Raise ValidityDomainError for the first separation outside [50 nm, 20 um],
    then for a tol outside TOL_RANGE."""
    for a in separations:
        if not _in_domain(a):
            raise ValidityDomainError(f"separation {a} m outside [50 nm, 20 um]")
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise ValidityDomainError(
            f"tol must lie in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}], got {tol}")


def pressure_sweep(models, separations, temperature, tol):
    """Pressure over a separation grid for one model or several, from one
    _pressures batch, read from its arrays.

    models is one model, or a list or tuple of them, which then share one
    batch.  Returns (pressures, truncation_estimates), arrays aligned with
    separations, for one model, and a list of such pairs, one per model, for
    several; each is bit-identical to casimir_pressure at each separation.
    Every separation and tol is checked before any work; if a row missed
    tol/2, NumericsError names the first such separation in order, and its
    first such l (of the first model that missed there).
    """
    several = isinstance(models, (list, tuple))
    separations = [float(a) for a in np.ravel(separations)]
    _check_inputs(separations, tol)
    batch = _pressures(models if several else [models], temperature, separations, tol)
    missed = batch.failed >= 0
    if missed.any():
        j = int(missed.any(axis=0).argmax())
        raise batch.missed(int(missed[:, j].argmax()), j)
    pairs = list(zip(batch.pressures, batch.truncations))
    return pairs if several else pairs[0]
