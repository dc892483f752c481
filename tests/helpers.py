"""Shared test utilities: independent oracles and a work counter.

`brute_force_fitted_weights` finds the optimum of the moment-fit QP by
enumeration and `kkt_report` certifies a solution by its KKT residuals.
`critical_dt_sweep_oracle` computes the critical-time-step sweep one cell
at a time, and `count_shape_evals` counts shape-function evaluations.
`a_local` applies an LTS solver's two operators, M^-1 K[nbhd, sel], and
`reference_coarse_step` is the LTS coarse step swept on all of nbhd(sel),
the oracle for the solver's own. `coarse_step` runs the solver's own
coarse step, element-local, on a state in DOF layout, and
`dof_layout_coarse_step` and `dof_layout_run` step that state in DOF layout
with a bincount matvec, as the loop did before it kept K's element-local
layout: the loop's bitwise oracle.
"""

import itertools
import math

import numpy as np
from scipy.linalg import null_space

from cutsem.assembly import Material, element_lumped_mass, element_stiffness
from cutsem.geometry import _gauss_square, build_cut_quadrature, half_plane
from cutsem.gll import TensorBasis2d, gll_rule
from cutsem.integrators import _check_divergence, element_max_eigenvalue
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


def a_local(solver, v):
    """M^-1 K[nbhd, sel] v for v on sel, from the solver's sub-step and ring operators.

    The rows are in the order of solver.nbhd: sel, then the ring.
    """
    x = np.append(v, 0.0)  # the operators' zero slot
    kx = np.concatenate([solver.k_sel.apply(x)[:-1], solver.k_ring.apply(x)[:-1]])
    return solver.system.m_inv[solver.nbhd] * kx


def reference_coarse_step(solver, u, du, fwd, bwd):
    """(u_{n+1}, du_{n+1}) of one LTS coarse step, swept in v on all of nbhd(sel).

    The Diaz-Grote recurrence as first built here: the masked matvec g =
    c K (1-P) u_n, c = dt^2 M^-1; on nbhd(sel), the DOFs that K's columns
    of sel reach, p_t sub-steps from v_0 = 2 u_n, each applying the dense
    K[nbhd, sel] to v on sel, with the coarse load in the forcing h2w2;
    then g <- 2 u_n - v_{p_t} there, and du <- du - g, plus c (1-P) f(t_n)
    off nbhd(sel). fwd and bwd are the pulse samples of this coarse step's
    sub-step grid and the previous one's.
    """
    system, cfg = solver.system, solver.cfg
    sel, p_t, dt = cfg.selection, cfg.p_t, cfg.dt
    k = system.k_csr()
    nb = np.union1d(np.flatnonzero(np.diff(k[:, sel].tocsr().indptr)), np.flatnonzero(sel))
    fine = sel[nb]
    k_nb_sel = k[nb][:, sel].toarray()
    c = dt * dt * system.m_inv
    h2_m_inv = (dt / p_t) ** 2 * system.m_inv[nb]
    coarse_load = fwd[0] * np.where(sel, 0.0, c * system.f_shape)
    fine_load = np.where(fine, h2_m_inv * system.f_shape[nb], 0.0)
    g = c * (k @ np.where(sel, 0.0, u))
    h2w2 = -2.0 / p_t**2 * (g[nb] - coarse_load[nb])
    s = [2.0 * fwd[0]] + [fwd[m] + bwd[p_t - m] for m in range(1, p_t)]
    v = 2.0 * u[nb]
    for m in range(p_t):
        a = h2w2 + s[m] * fine_load - h2_m_inv * (k_nb_sel @ v[fine])
        dv = 0.5 * a if m == 0 else dv + a
        v = v + dv
    g[nb] = 2.0 * u[nb] - v
    coarse_load[nb] = 0.0
    du = du - g + coarse_load
    return u + du, du


def coarse_step(solver, u, du, fwd, bwd):
    """(u_{n+1}, du_{n+1}) of the solver's coarse step from u and du in DOF layout.

    The step runs on copies in K's element-local layout; each DOF is read
    back from its first copy.
    """
    stiffness = solver.system.stiffness
    u, du = stiffness.to_local(u), stiffness.to_local(du)
    solver._coarse_step(u, du, fwd, bwd)
    return stiffness.from_local(u), stiffness.from_local(du)


def dof_layout_coarse_step(solver, u, du, fwd, bwd):
    """The coarse step on u and du in DOF layout, in place, with g = c K u_n by bincount.

    g = c K u_n, c = dt^2 M^-1, from `ElementBatches.apply` (a gather, the
    element products and one bincount over every element entry); then the
    solver's map F z on nbhd(sel), or its sweep on sel with the ring in
    closed form; then du <- du - g, plus c f(t_n) off sel, and u <- u + du.
    """
    system, sel, ring, nbhd = solver.system, solver.sel, solver.ring, solver.nbhd
    dt, p_t = solver.cfg.dt, solver.cfg.p_t
    c = dt * dt * system.m_inv
    g = system.stiffness.apply(u)
    g *= c
    if solver.sub_step_map is not None:
        z = np.concatenate([g[nbhd], fwd[:1], np.add(fwd[1:], bwd[:0:-1])])
        g[nbhd] = solver.sub_step_map @ z
    elif len(sel):
        d, acc, h2w2 = np.zeros((3, len(sel) + 1))
        h2w2[:-1] = g[sel]
        h2w2 *= -2.0 / p_t**2
        s = np.concatenate([[2.0 * fwd[0]], np.add(fwd[1:], bwd[:0:-1])])
        loads = (s_m * solver._fine_load[1] if s_m != 0.0 else None for s_m in s)
        solver._sub_steps(d, h2w2, loads, acc, solver.k_sel.apply)
        g[sel] = -d[:-1]
        g[ring] += solver.k_ring.apply(acc)[:-1] * ((dt / p_t) ** 2 * system.m_inv[ring])
    du -= g
    if fwd[0] != 0.0:
        coarse = c * system.f_shape
        coarse[sel] = 0.0
        idx = np.flatnonzero(coarse)
        du[idx] += fwd[0] * coarse[idx]
    u += du


def dof_layout_run(solver, n_steps, u0=None, v0=None):
    """(u, du) after initial_state and n_steps `dof_layout_coarse_step`s, checked and flushed.

    The start is `LtsSolver.initial_state`'s, its one unloaded coarse step
    from a nonzero u0 taken in DOF layout too; after each step the loop's
    `_check_divergence` checks and flushes u and du.
    """
    system, dt = solver.system, solver.cfg.dt
    n = system.dof_count
    u = np.zeros(n) if u0 is None else np.array(u0, dtype=float)
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    du = dt * v - 0.5 * dt * dt * (system.m_inv * system.force(0.0))
    if np.any(u):
        d = np.zeros(n)
        unloaded = np.zeros(solver.cfg.p_t)
        dof_layout_coarse_step(solver, u.copy(), d, unloaded, unloaded)
        du -= 0.5 * d
    scale = max(float(np.max(np.abs(u))), 1.0)
    bwd = solver._pulse_samples(-1)
    for step in range(n_steps):
        fwd = solver._pulse_samples(step)
        dof_layout_coarse_step(solver, u, du, fwd, bwd)
        bwd = fwd
        _check_divergence(step, n_steps - 1, u, du, scale)
    return u, du
