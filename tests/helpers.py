"""Shared test utilities: independent oracles and a work counter.

`brute_force_fitted_weights` finds the optimum of the moment-fit QP by
enumeration and `kkt_report` certifies a solution by its KKT residuals.
`critical_dt_sweep_oracle` computes the critical-time-step sweep one cell
at a time, and `count_shape_evals` counts shape-function evaluations.
`a_apply` and `a_local` apply an LTS solver's A = M^(-1/2) K M^(-1/2) in
full and on nbhd(sel), for the leap-frog references.
"""

import itertools
import math

import numpy as np
from scipy.linalg import null_space

from cutsem.assembly import Material, element_lumped_mass, element_stiffness
from cutsem.geometry import _gauss_square, build_cut_quadrature, half_plane
from cutsem.gll import TensorBasis2d, gll_rule
from cutsem.integrators import element_max_eigenvalue
from cutsem.momentfit import (
    MomentFitConfig,
    build_moment_system,
    lump_element,
    min_weight_bound,
    solve_fitted_weights,
)


def brute_force_fitted_weights(a_mat, b_vec, w_min):
    """Global minimizer of ||A w - b|| s.t. w >= w_min, sum w = b[0].

    Enumerates every active-set pattern of the bound constraints, solves the
    equality-constrained least-squares subproblem on the free variables, and
    keeps the feasible candidate with the smallest residual. Exponential in
    the weight count, so only usable for small bases.
    """
    n = a_mat.shape[1]
    target = float(b_vec[0])
    best_res, best_w = np.inf, None
    # one orthonormal basis of {sum z = 0} per free count
    null_bases = {nf: null_space(np.ones((1, nf))) for nf in range(2, n + 1)}
    for pattern in itertools.product((False, True), repeat=n):
        active = np.array(pattern)
        free = ~active
        nf = int(free.sum())
        if nf == 0:
            continue
        w = np.full(n, w_min)
        if nf == 1:
            w[free] = target - w_min * active.sum()
        else:
            vf = target - w_min * active.sum()
            rhs = b_vec - a_mat[:, active].sum(axis=1) * w_min
            af = a_mat[:, free]
            base = np.full(nf, vf / nf)
            z = null_bases[nf]
            y, *_ = np.linalg.lstsq(af @ z, rhs - af @ base, rcond=None)
            w[free] = base + z @ y
        if np.any(w < w_min - 1e-12):
            continue
        res = float(np.linalg.norm(a_mat @ w - b_vec))
        if res < best_res - 1e-14:
            best_res, best_w = res, w
    return best_w


def kkt_report(sys, lumped, cutq, cfg, basis):
    """Stationarity and complementary-slackness residuals at fitted weights.

    Weights within 1e-12 of the bound w_min count as active. At the optimum
    the gradient g = A^T (A w - b) equals the equality multiplier lam on
    every free weight and lam + mu, with mu >= 0, on every active one.
    """
    w = lumped.weights
    w_min = min_weight_bound(basis, cutq.volume_ratio, cfg)
    active = np.abs(w - w_min) <= 1e-12 * max(1.0, w_min)
    free = ~active
    a_mat, b_vec = sys.monomial_matrix, sys.rhs
    g = a_mat.T @ (a_mat @ w - b_vec)
    # with no free weight the feasible set is one point, and lam = min g
    # makes every bound multiplier non-negative
    lam = g[free].mean() if free.any() else g.min()
    mu = g[active] - lam
    return {
        "projected_gradient": float(np.max(np.abs(g[free] - lam), initial=0.0)),
        "dual_feasibility": float(-np.min(mu)) if mu.size else 0.0,
        "complementary_slackness": float(np.max(np.abs((w[active] - w_min) * mu), initial=0.0)),
        "equality_gap": float(abs(w.sum() - b_vec[0])),
        "bound_violation": float(max(0.0, np.max(w_min - w))),
    }


def critical_dt_sweep_oracle(p, fractions, schemes, epsilons, depth=4):
    """Rows of `critical_dt_sweep`, one cell at a time.

    Each fraction gets its own one-element cut rule, on a basis of its own;
    every cell calls element_stiffness, lump_element, build_moment_system
    and solve_fitted_weights separately, so each evaluates the shape
    functions it needs itself.
    """
    basis = TensorBasis2d(rule=gll_rule(p))
    mat = Material(youngs_modulus=1.0, poisson_ratio=0.0, density=1.0)
    jac = (0.5, 0.5)
    full_pts, full_wts = _gauss_square(2 * p)
    k_full = element_stiffness(basis, mat, full_pts, full_wts, jac)
    m_full = np.repeat(mat.density * basis.node_weights() * 0.25, 2)
    dt0 = 2.0 / math.sqrt(element_max_eigenvalue(k_full, m_full))
    rows = []
    for frac in fractions:
        cutq = build_cut_quadrature(
            half_plane(1.0, 0.0, frac), ((0.0, 1.0), (0.0, 1.0)), depth=depth, gauss_degree=2 * p
        )
        k_cut = element_stiffness(basis, mat, cutq.points, cutq.weights, jac)
        for scheme in schemes:
            for eps in epsilons if scheme == "fitted" else [0.0]:
                if scheme == "fitted":
                    sys = build_moment_system(basis, cutq)
                    lumped = solve_fitted_weights(sys, cutq, MomentFitConfig(epsilon=eps), basis)
                else:
                    lumped = lump_element(basis, cutq, scheme)
                m_e = element_lumped_mass(lumped, mat, jac)
                dt_e = 2.0 / math.sqrt(element_max_eigenvalue(k_cut, m_e))
                rows.append((p, frac, scheme, eps, dt_e / dt0))
    return rows


def count_shape_evals(monkeypatch):
    """A list that gets the point count of every TensorBasis2d.shape_eval_2d_batch call."""
    calls = []
    original = TensorBasis2d.shape_eval_2d_batch

    def counted(self, points):
        calls.append(len(np.asarray(points, dtype=float).reshape(-1, 2)))
        return original(self, points)

    monkeypatch.setattr(TensorBasis2d, "shape_eval_2d_batch", counted)
    return calls


def a_apply(solver, z):
    """A z = M^(-1/2) K M^(-1/2) z, with the solver's M^(-1/2) and the system's K."""
    return solver.m_inv_sqrt * solver.system.k_matvec(solver.m_inv_sqrt * z)


def a_local(solver, q):
    """A[nbhd, sel] q[fine] for q on nbhd(sel), from the solver's restricted operator.

    q is given to the operator scaled but unmasked, followed by its zero slot.
    """
    m_inv_sqrt = solver.m_inv_sqrt[solver.nbhd]
    return m_inv_sqrt * solver.k_local.apply(np.append(m_inv_sqrt * q, 0.0))[:-1]
