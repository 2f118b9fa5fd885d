"""Chebyshev-Lobatto interpolation in ln a, shared by the theory and calibration curves.

P(a) a^4 for the Casimir pressure and a^2 gamma/C for the image series are
analytic in ln a, so their interpolants on Chebyshev-Lobatto nodes in ln a
converge geometrically (L. N. Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013).  Interpolant is the one rule for both:

* nodes: the 2n + 1 Chebyshev-Lobatto nodes in ln a over [lo, hi], n = 16
  first.  Doubling n keeps every node, so a refinement reuses every value
  already computed; past 257 nodes NumericsError is raised.
* convergence: for every row of values, the interpolants on the n + 1 and
  the 2n + 1 nodes agree to tol relative halfway in angle between every
  pair of neighbouring nodes.
* evaluation: barycentric, at separations in [lo, hi] only; a point outside,
  or NaN, raises ValidityDomainError instead of extrapolating.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError, ValidityDomainError

__all__ = ["Interpolant"]

# start from 2n = 32 intervals; double n until converged, up to 2n = 256
_INTERVALS = 32
_MAX_INTERVALS = 256


class Interpolant:
    """The rows of evaluate(a) over [lo, hi], interpolated by the rule above.

    evaluate(a) returns one row per quantity and one column per separation
    a; it runs on the first 33 nodes, then on the new nodes of each
    doubling.  what names the curve in errors.  The columns of values follow
    nodes and separations, from hi down to lo (both exact).
    """

    def __init__(self, lo, hi, evaluate, tol: float, what: str):
        if not 0 < lo < hi < math.inf:
            raise ValueError(f"interpolation range [{lo}, {hi}] must satisfy 0 < lo < hi < inf")
        self.lo, self.hi, self.what = float(lo), float(hi), what
        m = _INTERVALS
        self.nodes = _lobatto_points(m)
        self.separations = self._separations(self.nodes)
        self.separations[[0, -1]] = hi, lo
        self.values = evaluate(self.separations)
        while not self._converged(tol):
            if m >= _MAX_INTERVALS:
                raise NumericsError(f"{what} is not resolved by {m + 1} Chebyshev nodes")
            m *= 2
            new = _lobatto_points(m)[1::2]
            a = self._separations(new)
            self.nodes = _interleave(self.nodes, new)
            self.separations = _interleave(self.separations, a)
            self.values = _interleave(self.values, evaluate(a))

    def __call__(self, a, coarse: bool = False) -> np.ndarray:
        """The rows at the separations a, on every second node with coarse."""
        return self._at(self._unit(a), coarse)

    def basis(self, a) -> np.ndarray:
        """Lagrange basis l_i(a) of the nodes, one row per separation a."""
        return _lagrange_basis(self.nodes, self._unit(a))

    def _at(self, x, coarse=False):
        step = 2 if coarse else 1
        return self.values[:, ::step] @ _lagrange_basis(self.nodes[::step], x).T

    def _converged(self, tol):
        m = self.nodes.size - 1
        mid = np.cos(np.pi * (np.arange(m) + 0.5) / m)
        fine = self._at(mid)
        return bool(np.all(np.abs(self._at(mid, coarse=True) - fine) <= tol * np.abs(fine)))

    def _separations(self, x):
        t_lo, t_hi = np.log(self.lo), np.log(self.hi)
        return np.exp(t_lo + 0.5 * (t_hi - t_lo) * (x + 1.0))

    def _unit(self, a):
        """x = ((ln a - ln lo) - (ln hi - ln a)) / ln(hi/lo): lo and hi map to exactly -1 and +1."""
        a = np.asarray(a, dtype=float)
        if not np.all((a >= self.lo) & (a <= self.hi)):
            raise ValidityDomainError(
                f"separations {np.min(a) * 1e9:.3f}..{np.max(a) * 1e9:.3f} nm leave the "
                f"interpolant of {self.what}")
        t, t_lo, t_hi = np.log(a), np.log(self.lo), np.log(self.hi)
        return ((t - t_lo) - (t_hi - t)) / (t_hi - t_lo)


def _lagrange_basis(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """l_i(x) of the Chebyshev-Lobatto nodes, one row per x (barycentric form)."""
    w = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    d = x[:, None] - nodes[None, :]
    hit = d == 0.0
    c = w / np.where(hit, 1.0, d)
    basis = c / c.sum(axis=1, keepdims=True)
    at_node = hit.any(axis=1)
    basis[at_node] = hit[at_node]
    return basis


def _lobatto_points(m: int) -> np.ndarray:
    """The m + 1 Chebyshev-Lobatto points on [-1, 1], from +1 down to -1."""
    return np.sin(0.5 * np.pi * (m - 2 * np.arange(m + 1)) / m)


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Merge along the last axis: even at 0, 2, 4, ..., odd at 1, 3, ...."""
    out = np.empty(even.shape[:-1] + (even.shape[-1] + odd.shape[-1],))
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out
