"""Quadrature rules and tensor Lagrange bases."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.special import roots_jacobi

from cutsem.errors import ConfigError
from cutsem.gll import MAX_ORDER, gll_rule, monomial_exponents, tensor_basis


def exact_power_integral(k):
    """Integral of xi^k over [-1, 1]."""
    return (1.0 - (-1.0) ** (k + 1)) / (k + 1)


def test_quadrature_exactness_up_to_2p_minus_1():
    for p in range(1, 11):
        rule = gll_rule(p)
        for k in range(2 * p):
            got = float(np.dot(rule.weights, rule.nodes**k))
            assert abs(got - exact_power_integral(k)) <= 1e-12, (p, k)


def test_closed_form_rules():
    r1 = gll_rule(1)
    np.testing.assert_allclose(r1.nodes, [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(r1.weights, [1.0, 1.0], atol=1e-15)
    r2 = gll_rule(2)
    np.testing.assert_allclose(r2.nodes, [-1.0, 0.0, 1.0], atol=1e-13)
    np.testing.assert_allclose(r2.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-13)
    r4 = gll_rule(4)
    s = np.sqrt(3.0 / 7.0)
    np.testing.assert_allclose(r4.nodes, [-1.0, -s, 0.0, s, 1.0], atol=1e-13)
    np.testing.assert_allclose(
        r4.weights, [1 / 10, 49 / 90, 32 / 45, 49 / 90, 1 / 10], atol=1e-13
    )


def test_node_symmetry_and_weight_positivity():
    for p in range(1, MAX_ORDER + 1):
        rule = gll_rule(p)
        assert np.all(np.diff(rule.nodes) > 0)
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)
        np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=1e-15)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 2.0) < 1e-13


def test_nodes_match_independent_root_finder():
    # interior nodes are the roots of P'_p, i.e. of the Jacobi polynomial
    # P^(1,1)_{p-1}; scipy's Golub-Welsch eigenvalue rule is the oracle
    for p in range(2, 13):
        rule = gll_rule(p)
        oracle, _ = roots_jacobi(p - 1, 1.0, 1.0)
        np.testing.assert_allclose(rule.nodes[1:-1], np.sort(oracle), atol=1e-13)


def test_order_validation():
    with pytest.raises(ConfigError):
        gll_rule(0)
    with pytest.raises(ConfigError):
        gll_rule(MAX_ORDER + 1)


def lagrange_oracle(nodes, x):
    """Values and derivatives of every N_i at x, from numpy's power series."""
    vals, ders = [], []
    for i in range(len(nodes)):
        others = np.delete(nodes, i)
        n_i = Polynomial.fromroots(others) / np.prod(nodes[i] - others)
        vals.append(n_i(x))
        ders.append(n_i.deriv()(x))
    return np.array(vals).T, np.array(ders).T


def edge_derivatives(p, xs):
    """N_i'(x) (npts, p+1) of the order-p rule, read off the tensor basis.

    On the edge eta = -1 the eta factor of node k = i is 1 and every other
    one is 0, so the xi-gradients of the first p + 1 nodes are N_i'(xi).
    """
    pts = np.column_stack([xs, np.full_like(xs, -1.0)])
    return tensor_basis(p).shape_eval_2d_batch(pts)[1][:, : p + 1, 0]


def test_shape_functions_cardinal_and_midpoint():
    rule = gll_rule(2)
    # quadratic bubble at the midpoint of [0, 1] in reference coordinates
    assert abs(rule.eval_matrix(0.5)[0, 1] - 0.75) < 1e-14
    for p in (3, 5):
        r = gll_rule(p)
        for i in range(p + 1):
            vals = r.eval_matrix(r.nodes[i])[0]
            expect = np.zeros(p + 1)
            expect[i] = 1.0
            np.testing.assert_allclose(vals, expect, atol=1e-12)


def test_batch_evaluators_match_lagrange_oracle():
    rng = np.random.default_rng(7)
    for p in (1, 4, 8, 12):
        rule = gll_rule(p)
        xs = rng.uniform(-1, 1, size=40)
        vals, ders = lagrange_oracle(rule.nodes, xs)
        np.testing.assert_allclose(rule.eval_matrix(xs), vals, atol=1e-13)
        np.testing.assert_allclose(edge_derivatives(p, xs), ders, atol=5e-12)


def test_derivatives_are_exact_on_monomials():
    rng = np.random.default_rng(13)
    xs = rng.uniform(-1, 1, size=50)
    for p in range(1, MAX_ORDER + 1):
        rule = gll_rule(p)
        ders = edge_derivatives(p, xs)
        for k in range(p + 1):
            exact = k * xs ** (k - 1) if k else np.zeros_like(xs)
            np.testing.assert_allclose(ders @ rule.nodes**k, exact, atol=1e-12, err_msg=f"{p} {k}")


def test_tensor_basis_partition_of_unity():
    basis = tensor_basis(4)
    rng = np.random.default_rng(11)
    for _ in range(10):
        xi, eta = rng.uniform(-1, 1, size=2)
        vals, grads = basis.shape_eval_2d_batch([xi, eta])
        assert abs(vals[0].sum() - 1.0) < 1e-12
        np.testing.assert_allclose(grads[0].sum(axis=0), [0.0, 0.0], atol=1e-11)


def test_tensor_basis_cardinal_and_bilinear_center():
    basis = tensor_basis(3)
    coords = basis.node_coords()
    for k in (0, 5, basis.node_count - 1):
        vals, _ = basis.shape_eval_2d_batch(coords[k])
        expect = np.zeros(basis.node_count)
        expect[k] = 1.0
        np.testing.assert_allclose(vals[0], expect, atol=1e-12)
    b1 = tensor_basis(1)
    vals, _ = b1.shape_eval_2d_batch([0.0, 0.0])
    np.testing.assert_allclose(vals[0], [0.25, 0.25, 0.25, 0.25], atol=1e-15)


def test_tensor_interpolation_reproduces_monomials():
    basis = tensor_basis(5)
    coords = basis.node_coords()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(100, 2))
    vals, _ = basis.shape_eval_2d_batch(pts)
    for a in (0, 2, 5):
        for b in (0, 1, 4):
            nodal = coords[:, 0] ** a * coords[:, 1] ** b
            exact = pts[:, 0] ** a * pts[:, 1] ** b
            np.testing.assert_allclose(vals @ nodal, exact, atol=1e-12)


def test_tensor_weights_and_batch_gradients():
    basis = tensor_basis(6)
    assert abs(basis.node_weights().sum() - 4.0) < 1e-12
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(7, 2))
    vals, grads = basis.shape_eval_2d_batch(pts)
    nodes = basis.rule.nodes
    nx, dnx = lagrange_oracle(nodes, pts[:, 0])
    ny, dny = lagrange_oracle(nodes, pts[:, 1])
    for j in range(len(pts)):
        # node k = b*(p+1) + a carries N_a(xi) N_b(eta)
        np.testing.assert_allclose(vals[j], np.outer(ny[j], nx[j]).ravel(), atol=1e-13)
        g = np.column_stack([np.outer(ny[j], dnx[j]).ravel(), np.outer(dny[j], nx[j]).ravel()])
        np.testing.assert_allclose(grads[j], g, atol=5e-12)


@pytest.mark.parametrize("p", range(1, MAX_ORDER + 1))
def test_cached_basis_tables_match_their_oracles_bitwise(p):
    basis = tensor_basis(p)
    assert tensor_basis(p) is basis  # one basis per order
    rule = gll_rule(p)
    xi, eta = np.meshgrid(rule.nodes, rule.nodes)
    nodes = np.column_stack([xi.ravel(), eta.ravel()])
    exps = monomial_exponents(p)
    oracle = np.array([nodes[:, 0] ** a * nodes[:, 1] ** b for a, b in exps])
    assert basis.monomial_matrix.tobytes() == oracle.tobytes()
    assert basis.monomial_matrix.shape == oracle.shape
    assert basis.exponents.tolist() == [list(ab) for ab in exps]
    assert basis.node_coords().tobytes() == nodes.tobytes()
    assert basis.node_weights().tobytes() == np.outer(rule.weights, rule.weights).ravel().tobytes()
    # built once: every call returns the same array
    assert basis.node_coords() is basis.node_coords()
    assert basis.node_weights() is basis.node_weights()


def test_shared_basis_arrays_are_read_only():
    basis = tensor_basis(3)
    rule = basis.rule
    arrays = [
        rule.nodes,
        rule.weights,
        rule.diff_matrix,
        basis.node_coords(),
        basis.node_weights(),
        basis.exponents,
        basis.monomial_matrix,
    ]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0
