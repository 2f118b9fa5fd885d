import warnings

import numpy as np
import pytest

from casimirlab.chebyshev import Interpolant


def barycentric_oracle(nodes, values, x):
    """The second barycentric formula, its weights and sums rebuilt from nodes and values."""
    w = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    c = np.subtract.outer(nodes, x)
    hit = c == 0.0
    c[hit] = 1.0
    np.reciprocal(c, out=c)
    at_node = hit.any(axis=0)
    c[:, at_node] = hit[:, at_node]
    sums = np.vstack([values * w, w]) @ c
    return sums[:-1] / sums[-1]


def lagrange_basis_oracle(nodes, x):
    """The explicit Lagrange basis l_i(x) of the nodes, one row per x: the
    reference that the second barycentric formula is checked against."""
    w = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    d = x[:, None] - nodes[None, :]
    hit = d == 0.0
    c = w / np.where(hit, 1.0, d)
    basis = c / c.sum(axis=1, keepdims=True)
    at_node = hit.any(axis=1)
    basis[at_node] = hit[at_node]
    return basis


LO, HI = 200e-9, 900e-9


def runge_rows(a):
    """A Runge row and a row of another size, in x = the unit ln-a coordinate of [LO, HI]."""
    x = np.log(a / np.sqrt(LO * HI)) / (0.5 * np.log(HI / LO))
    return np.array([1.0 / (1.0 + 4.0 * x * x), 1e-3 * np.exp(x) * (2.0 + np.cos(3.0 * x))])


def read(curve, a, coarse):
    """curve(a), or the same read on every second node with coarse."""
    return curve._at(curve._unit(a), coarse) if coarse else curve(a)


class TestBarycentricEvaluation:
    @pytest.fixture(scope="class")
    def curves(self):
        # the tolerance sets the node count: 2n = 32, 64 and 128
        return {m: Interpolant(LO, HI, runge_rows, tol, "test rows")
                for m, tol in ((32, 1e-2), (64, 1e-5), (128, 1e-8))}

    @pytest.mark.parametrize("coarse", [False, True])
    @pytest.mark.parametrize("m", [32, 64, 128])
    def test_agrees_with_the_explicit_basis(self, curves, m, coarse):
        curve = curves[m]
        assert curve.nodes.size == m + 1
        rng = np.random.default_rng(m)
        step = 2 if coarse else 1
        nodes = curve.separations[::step]
        # both ends, an interior node, and separations between the nodes
        between = np.clip(np.exp(rng.uniform(np.log(LO), np.log(HI), 700)), LO, HI)
        a = np.concatenate([[HI, LO, nodes[nodes.size // 3]], between])
        values = curve.values[:, ::step]
        expect = values @ lagrange_basis_oracle(curve.nodes[::step], curve._unit(a)).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read(curve, a, coarse)
        assert got.shape == expect.shape
        assert np.all(np.abs(got - expect) <= 1e-14 * np.abs(expect))
        assert np.array_equal(got[:, :2], values[:, [0, -1]])

    @pytest.mark.parametrize("coarse", [False, True])
    @pytest.mark.parametrize("m", [32, 64, 128])
    def test_node_hits_return_node_values_exactly(self, curves, m, coarse):
        curve = curves[m]
        step = 2 if coarse else 1
        x = curve.nodes[::step]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = curve._at(x, coarse)
            mixed = curve._at(np.concatenate([x[3:4], [0.123]]), coarse)
        assert np.array_equal(got, curve.values[:, ::step])
        assert np.array_equal(mixed[:, 0], curve.values[:, 3 * step])

    @pytest.mark.parametrize("coarse", [False, True])
    @pytest.mark.parametrize("m", [64, 128])
    def test_sums_built_once_match_the_final_nodes(self, curves, m, coarse):
        # the curve doubled past 33 nodes, so its sums were rebuilt after construction began
        curve = curves[m]
        step = 2 if coarse else 1
        nodes = curve.nodes[::step]
        x = np.concatenate([nodes[[0, -1, nodes.size // 3]],
                            np.random.default_rng(m).uniform(-1.0, 1.0, 500)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = curve._at(x, coarse)
        assert np.array_equal(got, barycentric_oracle(nodes, curve.values[:, ::step], x))

    def test_scalar_separation_reads_as_a_one_point_array(self, curves):
        curve = curves[32]
        a = np.array([HI, LO, 0.5 * (LO + HI)])
        rows = curve(a)
        for k, ak in enumerate(a):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = curve(float(ak))
            assert got.shape == (2,)
            assert np.allclose(got, rows[:, k], rtol=1e-14, atol=0)
        assert np.array_equal(curve(HI), curve.values[:, 0])
        assert np.array_equal(curve(LO), curve.values[:, -1])
