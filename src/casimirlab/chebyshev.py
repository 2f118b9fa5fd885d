"""Chebyshev-Lobatto interpolation in ln a, shared by the theory and calibration curves.

P(a) a^4 for the Casimir pressure and a^2 gamma/C for the image series are
analytic in ln a, so their interpolants on Chebyshev-Lobatto nodes in ln a
converge geometrically (L. N. Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013).  The nodes are nested: doubling the
interval count keeps every node and adds one between each pair, so a
refinement reuses all the values already computed.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError

__all__ = ["lagrange_basis", "nested_nodes", "unit"]

# start from 2n = 32 intervals; double n until converged, up to 2n = 256
_INTERVALS = 32
_MAX_INTERVALS = 256


def unit(a, lo, hi) -> np.ndarray:
    """Separations a as x = ((ln a - ln lo) - (ln hi - ln a)) / ln(hi/lo), on [-1, 1].

    lo and hi map to exactly -1 and +1.
    """
    t = np.log(a)
    t_lo, t_hi = np.log(lo), np.log(hi)
    return ((t - t_lo) - (t_hi - t)) / (t_hi - t_lo)


def nested_nodes(lo, hi, evaluate, converged, what: str):
    """Values of evaluate at nested Chebyshev-Lobatto nodes in ln a over [lo, hi].

    evaluate(a) returns an array whose last axis runs over the separations
    a.  converged(x, values) is asked after every evaluation, with the node
    abscissae x on [-1, 1] from +1 down to -1 (ln a linear in x); it should
    compare the interpolants on the nodes x[::2] and x.  Starting from 33
    nodes, the interval count doubles until converged accepts; past 257
    nodes NumericsError names what.  The end nodes are exactly hi and lo.
    Returns (x, values).
    """
    t_lo, t_hi = np.log(lo), np.log(hi)
    span = t_hi - t_lo

    def separations(nodes):
        return np.exp(t_lo + 0.5 * span * (nodes + 1.0))

    m = _INTERVALS
    x = _lobatto_points(m)
    a = separations(x)
    a[0], a[-1] = hi, lo
    values = evaluate(a)
    while not converged(x, values):
        if m >= _MAX_INTERVALS:
            raise NumericsError(f"{what} is not resolved by {m + 1} Chebyshev nodes")
        m *= 2
        new = _lobatto_points(m)[1::2]
        x, values = _interleave(x, new), _interleave(values, evaluate(separations(new)))
    return x, values


def lagrange_basis(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
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
