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
* evaluation: the second ("true") barycentric formula
  p(x) = sum_j w_j f_j / (x_j - x) / sum_j w_j / (x_j - x) of the 2n + 1
  nodes or of every second node (J.-P. Berrut and L. N. Trefethen, SIAM
  Rev. 46, 501 (2004)): every row and the denominator come from one matrix
  product of [values w; w], built once per node set, with a (nodes, points)
  array of 1 / (x_j - x), and a point on a node reads that node's values
  exactly.  It is the one evaluation formula: the gamma/C table of the
  calibration and force_model.gradient_curve both read through it.
  Only separations in [lo, hi] are read; a point outside, or NaN, raises
  ValidityDomainError instead of extrapolating.
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
        self._ln_lo, self._ln_hi = np.log(self.lo), np.log(self.hi)
        self._ln_span = self._ln_hi - self._ln_lo
        m = _INTERVALS
        self.nodes = _lobatto_points(m)
        self.separations = self._separations(self.nodes)
        self.separations[[0, -1]] = hi, lo
        self.values = evaluate(self.separations)
        self._set_sums()
        while not self._converged(tol):
            if m >= _MAX_INTERVALS:
                raise NumericsError(f"{what} is not resolved by {m + 1} Chebyshev nodes")
            m *= 2
            new = _lobatto_points(m)[1::2]
            a = self._separations(new)
            self.nodes = _interleave(self.nodes, new)
            self.separations = _interleave(self.separations, a)
            self.values = _interleave(self.values, evaluate(a))
            self._set_sums()

    def __call__(self, a) -> np.ndarray:
        """The rows at the separations a (one row per quantity, then a's shape)."""
        return self._at(self._unit(a))

    def _set_sums(self):
        """[values w; w] of the second barycentric formula, for all nodes and every second.

        Built once per node set: _at multiplies it by the (nodes, points) array of 1 / (x_j - x).
        """
        self._sums = {}
        for coarse, step in ((False, 1), (True, 2)):
            w = _weights(self.nodes[::step].size)
            self._sums[coarse] = np.vstack([self.values[:, ::step] * w, w])

    def _at(self, x, coarse=False):
        """The second barycentric formula at the points x (see the module docstring).

        One matrix product serves every point.  BLAS can compute a product's
        last columns with another kernel, so the last bits of a point's rows
        may depend on the other points of the read.
        """
        c = np.subtract.outer(self.nodes[::2 if coarse else 1], x.ravel())
        hit = c == 0.0
        any_hit = bool(hit.any())
        if any_hit:
            c[hit] = 1.0
        np.reciprocal(c, out=c)
        if any_hit:
            # a point on node k reads w_k f_k / w_k = f_k: w_k is +-1 or +-1/2
            at_node = hit.any(axis=0)
            c[:, at_node] = hit[:, at_node]
        sums = self._sums[coarse] @ c
        return (sums[:-1] / sums[-1]).reshape(-1, *x.shape)

    def _converged(self, tol):
        m = self.nodes.size - 1
        mid = np.cos(np.pi * (np.arange(m) + 0.5) / m)
        fine = self._at(mid)
        return bool(np.all(np.abs(self._at(mid, coarse=True) - fine) <= tol * np.abs(fine)))

    def _separations(self, x):
        return np.exp(self._ln_lo + 0.5 * self._ln_span * (x + 1.0))

    def _unit(self, a):
        """x = ((ln a - ln lo) - (ln hi - ln a)) / ln(hi/lo): lo and hi map to exactly -1 and +1."""
        a = np.asarray(a, dtype=float)
        if not np.all((a >= self.lo) & (a <= self.hi)):
            raise ValidityDomainError(
                f"separations {np.min(a) * 1e9:.3f}..{np.max(a) * 1e9:.3f} nm leave the "
                f"interpolant of {self.what}")
        t = np.log(a)
        return ((t - self._ln_lo) - (self._ln_hi - t)) / self._ln_span


def _weights(n: int) -> np.ndarray:
    """Barycentric weights of n Chebyshev-Lobatto points: (-1)^j, halved at both ends."""
    w = np.where(np.arange(n) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    return w


def _lobatto_points(m: int) -> np.ndarray:
    """The m + 1 Chebyshev-Lobatto points on [-1, 1], from +1 down to -1."""
    return np.sin(0.5 * np.pi * (m - 2 * np.arange(m + 1)) / m)


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Merge along the last axis: even at 0, 2, 4, ..., odd at 1, 3, ...."""
    out = np.empty(even.shape[:-1] + (even.shape[-1] + odd.shape[-1],))
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out
