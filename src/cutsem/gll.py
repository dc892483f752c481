"""Gauss-Lobatto-Legendre rules and tensor-product Lagrange bases.

1D nodes are the endpoints of [-1, 1] plus the roots of P'_p, the
derivative of the Legendre polynomial of the element order; both the
roots and the weights 2 / (p (p+1) P_p(x_j)^2) come from numpy's
Legendre series. Shape-function derivatives go through the nodal
differentiation matrix D[j, i] = N_i'(x_j), built once per rule from the
barycentric weights (Berrut & Trefethen, SIAM Review 46 (2004) 501):
N_i' has degree p, so N_i'(x) = sum_j N_j(x) D[j, i] exactly. 2D bases are
the tensor product of one rule with itself (square N_{p,p} elements), with
node k mapped to the index pair (i, j) through k = j*(p+1) + i.

Everything that depends only on the order is built once and is read-only:
`tensor_basis(p)` returns one shared basis per order, and each basis
builds its node coordinates, node weights and the graded-lex monomial
matrix at the nodes on first use. Every element of every mesh of that
order reads the same arrays, so none of them can be written in place.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .errors import ConfigError

MAX_ORDER = 12


def _frozen(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GllBasis1d:
    """GLL nodes/weights of one direction plus batch Lagrange evaluators."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    diff_matrix: np.ndarray  # D[j, i] = N_i'(x_j)

    def eval_matrix(self, x):
        """Shape-function values at many points: (npts, p+1)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xs = self.nodes
        n = self.order + 1
        diff = x[:, None] - xs[None, :]
        out = np.empty((x.size, n))
        for i in range(n):
            denom = xs[i] - xs
            denom[i] = 1.0
            ratio = diff / denom
            ratio[:, i] = 1.0
            out[:, i] = np.prod(ratio, axis=1)
        return out


def _diff_matrix(nodes):
    """D[j, i] = N_i'(x_j) from the barycentric weights; each row sums to zero."""
    dx = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dx, 1.0)
    bary = 1.0 / np.prod(dx, axis=1)
    d = bary[None, :] / bary[:, None] / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def gll_rule(p):
    """GLL nodes and weights of order p (p+1 points)."""
    if p < 1:
        raise ConfigError("GLL rule needs order p >= 1 (p = 0 is degenerate)")
    if p > MAX_ORDER:
        raise ConfigError(f"order {p} exceeds the supported maximum {MAX_ORDER}")
    e_p = np.zeros(p + 1)
    e_p[p] = 1.0
    nodes = np.concatenate(([-1.0], legendre.legroots(legendre.legder(e_p)), [1.0]))
    # enforce exact antisymmetry of the nodes and symmetry of the weights
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 2.0 / (p * (p + 1) * legendre.legval(nodes, e_p) ** 2)
    weights = 0.5 * (weights + weights[::-1])
    return GllBasis1d(
        order=p,
        nodes=_frozen(nodes),
        weights=_frozen(weights),
        diff_matrix=_frozen(_diff_matrix(nodes)),
    )


def monomial_exponents(p):
    """Tensor exponent set {xi^a eta^b : a, b <= p}, graded lex, 1 first."""
    exps = [(a, b) for a in range(p + 1) for b in range(p + 1)]
    exps.sort(key=lambda ab: (ab[0] + ab[1], ab[0], ab[1]))
    return exps


@dataclass(frozen=True)
class TensorBasis2d:
    """Tensor product of one GLL rule with itself on [-1,1]^2, xi fastest."""

    rule: GllBasis1d

    @property
    def p(self):
        return self.rule.order

    @property
    def node_count(self):
        return (self.rule.order + 1) ** 2

    @functools.cached_property
    def _node_coords(self):
        XI, ETA = np.meshgrid(self.rule.nodes, self.rule.nodes)  # rows vary eta
        return _frozen(np.column_stack([XI.ravel(), ETA.ravel()]))

    @functools.cached_property
    def _node_weights(self):
        return _frozen(np.outer(self.rule.weights, self.rule.weights).ravel())

    def node_coords(self):
        """(n, 2) array of tensor node reference coordinates, read-only."""
        return self._node_coords

    def node_weights(self):
        """Tensor GLL quadrature weights in node order, read-only."""
        return self._node_weights

    @functools.cached_property
    def exponents(self):
        """(n, 2) exponent pairs (a, b) of `monomial_exponents(p)`, read-only."""
        return _frozen(np.array(monomial_exponents(self.p)))

    @functools.cached_property
    def monomial_matrix(self):
        """(n, n) tensor monomials at the nodes, read-only.

        Row k is xi^a eta^b at every node, with (a, b) = exponents[k].
        """
        xi, eta = self.node_coords().T
        return _frozen(np.array([xi**a * eta**b for a, b in monomial_exponents(self.p)]))

    def shape_eval_2d_batch(self, points):
        """Values (m, n) and reference gradients (m, n, 2) at m points."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        nx = self.rule.eval_matrix(pts[:, 0])
        ny = self.rule.eval_matrix(pts[:, 1])
        dnx = nx @ self.rule.diff_matrix
        dny = ny @ self.rule.diff_matrix
        m = pts.shape[0]
        values = (ny[:, :, None] * nx[:, None, :]).reshape(m, -1)
        gx = (ny[:, :, None] * dnx[:, None, :]).reshape(m, -1)
        gy = (dny[:, :, None] * nx[:, None, :]).reshape(m, -1)
        return values, np.stack([gx, gy], axis=2)


@functools.cache
def tensor_basis(p):
    """The N_{p,p} basis: order p in both directions, one shared basis per order."""
    return TensorBasis2d(rule=gll_rule(p))
