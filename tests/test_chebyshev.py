import numpy as np
import pytest

from casimirlab.chebyshev import _lagrange_basis, _lobatto_points


def lagrange_basis_oracle(nodes, x):
    """The barycentric basis written out with a fresh array per step."""
    w = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    d = x[:, None] - nodes[None, :]
    hit = d == 0.0
    c = w / np.where(hit, 1.0, d)
    basis = c / c.sum(axis=1, keepdims=True)
    at_node = hit.any(axis=1)
    basis[at_node] = hit[at_node]
    return basis


class TestLagrangeBasis:
    @pytest.mark.parametrize("m", [32, 64, 128])
    def test_bit_identical_to_the_oracle(self, m):
        nodes = _lobatto_points(m)
        rng = np.random.default_rng(m)
        # both ends, an interior node, and points between the nodes
        x = np.concatenate([[1.0, -1.0, nodes[m // 3]], rng.uniform(-1.0, 1.0, 700)])
        basis = _lagrange_basis(nodes, x)
        assert np.array_equal(basis, lagrange_basis_oracle(nodes, x))
        for row, k in ((0, 0), (1, m), (2, m // 3)):
            assert np.array_equal(basis[row], np.eye(m + 1)[k])

    def test_no_node_hit(self):
        nodes = _lobatto_points(32)
        x = 0.5 * (nodes[1:] + nodes[:-1])
        basis = _lagrange_basis(nodes, x)
        assert np.array_equal(basis, lagrange_basis_oracle(nodes, x))
        assert np.allclose(basis.sum(axis=1), 1.0, rtol=0, atol=1e-14)
