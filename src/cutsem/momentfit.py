"""Moment-fitted mass lumping for cut elements, plus comparator schemes.

The fitted scheme keeps the GLL tensor nodes and picks new weights by
minimizing ||A w - b||_2, where A holds the tensor monomials evaluated at
the nodes and b their integrals over the physical portion of the element,
subject to a lower bound on every weight and exact conservation of the
physical reference area. The bound adapts to the volume ratio: eps*v_e*w_std
above the low-volume threshold, v_e*w_std below it (w_std = smallest tensor
GLL weight). The QP is solved by a primal active-set method on the bounds
with the single equality constraint eliminated through a null-space basis;
subproblems are solved as least squares on A itself to avoid squaring the
monomial Vandermonde's condition number.

Comparators: "scaled" multiplies the GLL weights by v_e; "hrz" rescales the
consistent-mass diagonal computed with the cut rule so the total matches
the physical reference area.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space

from .errors import ConfigError, DegenerateDiagonal, Infeasible, SolverStall, VoidElement

_KKT_TOL = 1e-10


@dataclass(frozen=True)
class MomentFitSystem:
    monomial_matrix: np.ndarray  # (m, n), m = n
    rhs: np.ndarray  # (m,)
    exponents: list  # [(a, b)] in graded lexicographic order


@dataclass(frozen=True)
class MomentFitConfig:
    epsilon: float = 0.01
    low_volume_threshold: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError("epsilon must lie in (0, 1]")


@dataclass(frozen=True)
class LumpedElementMass:
    scheme: str  # nodal_gll | fitted | scaled | hrz
    weights: np.ndarray
    residual_norm: float = 0.0


def monomial_exponents(p, q):
    """Tensor exponent set {xi^a eta^b : a <= p, b <= q}, graded lex, 1 first."""
    exps = [(a, b) for a in range(p + 1) for b in range(q + 1)]
    exps.sort(key=lambda ab: (ab[0] + ab[1], ab[0], ab[1]))
    return exps


def build_moment_system(basis, cutq):
    """Monomials at the GLL tensor nodes vs. their cut-domain integrals."""
    if cutq.is_void:
        raise VoidElement("cannot build a moment system for a void element")
    exps = monomial_exponents(basis.p, basis.q)
    nodes = basis.node_coords()
    a_mat = np.array(
        [nodes[:, 0] ** a * nodes[:, 1] ** b for a, b in exps]
    )
    # every moment int x^a y^b from one product of the two power tables
    vx = cutq.points[:, :1] ** np.arange(basis.p + 1)
    vy = cutq.points[:, 1:] ** np.arange(basis.q + 1)
    moments = (cutq.weights[:, None] * vx).T @ vy
    b_vec = moments[tuple(np.array(exps).T)]
    return MomentFitSystem(monomial_matrix=a_mat, rhs=b_vec, exponents=exps)


def lumping_residual(sys, weights):
    """||A w - b||_2, the objective all schemes are compared on."""
    return float(np.linalg.norm(sys.monomial_matrix @ weights - sys.rhs))


def min_weight_bound(basis, v_e, cfg):
    w_std = float(basis.node_weights().min())
    if v_e >= cfg.low_volume_threshold:
        return cfg.epsilon * v_e * w_std
    return v_e * w_std


def solve_fitted_weights(sys, cutq, cfg, basis):
    """Constrained least-squares weights for the fitted lumping scheme."""
    a_mat = sys.monomial_matrix
    b_vec = sys.rhs
    n = a_mat.shape[1]
    v_e = cutq.volume_ratio
    if v_e <= 0:
        raise VoidElement("fitted weights need a positive volume ratio")
    w_min = min_weight_bound(basis, v_e, cfg)
    target = float(b_vec[0])  # integral of g_1 = 1 over the physical part
    slack = target - n * w_min
    # GLL weights sum to the full reference area >= target, so for eps <= 1
    # the box {w >= w_min, sum w = target} is never empty. With no slack
    # (bilinear elements below the low-volume threshold or at eps = 1) it is
    # the single point target / n, and rounding may leave slack a few ulps
    # either side of zero.
    tol = 8.0 * np.finfo(float).eps * target
    if slack < -tol:
        raise Infeasible("n * w_min exceeds the conservation target")
    if slack <= tol:
        w = np.full(n, target / n)
        return LumpedElementMass(scheme="fitted", weights=w, residual_norm=lumping_residual(sys, w))

    w_gll = basis.node_weights()
    w = w_min + slack * (w_gll / w_gll.sum())  # strictly feasible start
    active = np.zeros(n, dtype=bool)

    max_iter = 50 * n + 50
    for _ in range(max_iter):
        free = ~active
        nf = free.sum()
        w_star = np.full(n, w_min)
        if nf == 1:
            w_star[free] = target - w_min * active.sum()
        else:
            vf = target - w_min * active.sum()
            rhs_eff = b_vec - a_mat[:, active].sum(axis=1) * w_min
            af = a_mat[:, free]
            base = np.full(nf, vf / nf)
            z = null_space(np.ones((1, nf)))
            y, *_ = np.linalg.lstsq(af @ z, rhs_eff - af @ base, rcond=None)
            w_star[free] = base + z @ y

        d = w_star - w
        step_norm = np.max(np.abs(d))
        if step_norm <= 1e-14 * max(1.0, np.max(np.abs(w))):
            lam, mu, stat = _kkt_terms(a_mat, b_vec, w, active, w_min)
            if active.sum() == 0 or np.min(mu) >= -_KKT_TOL:
                return LumpedElementMass(
                    scheme="fitted",
                    weights=w,
                    residual_norm=lumping_residual(sys, w),
                )
            active[_most_negative_multiplier(mu, active)] = False
            continue

        # step toward the subproblem optimum, blocked by inactive bounds
        alpha = 1.0
        block = -1
        for i in np.flatnonzero(free):
            if d[i] < -1e-16:
                a_i = (w_min - w[i]) / d[i]
                if a_i < alpha:
                    alpha, block = a_i, i
        w = w + alpha * d
        if block >= 0:
            w[block] = w_min
            active[block] = True
        # keep the equality exact against rounding drift
        free = ~active
        w[free] += (target - w.sum()) / free.sum()

    lam, mu, stat = _kkt_terms(a_mat, b_vec, w, active, w_min)
    kkt = max(stat, float(-np.min(mu)) if mu.size else 0.0)
    if kkt > _KKT_TOL:
        raise SolverStall(f"active-set QP stalled with KKT residual {kkt:g}")
    return LumpedElementMass(
        scheme="fitted", weights=w, residual_norm=lumping_residual(sys, w)
    )


def _kkt_terms(a_mat, b_vec, w, active, w_min):
    g = a_mat.T @ (a_mat @ w - b_vec)
    free = ~active
    lam = g[free].mean() if free.any() else 0.0
    mu = g[active] - lam
    stat = float(np.max(np.abs(g[free] - lam))) if free.any() else 0.0
    return lam, mu, stat


def _most_negative_multiplier(mu, active):
    idx_active = np.flatnonzero(active)
    return idx_active[int(np.argmin(mu))]


def kkt_report(sys, lumped, cutq, cfg, basis):
    """Stationarity and complementary-slackness residuals at a fitted solution."""
    w = lumped.weights
    w_min = min_weight_bound(basis, cutq.volume_ratio, cfg)
    at_bound = np.abs(w - w_min) <= 1e-12 * max(1.0, w_min)
    lam, mu, stat = _kkt_terms(sys.monomial_matrix, sys.rhs, w, at_bound, w_min)
    comp = float(np.max(np.abs((w - w_min) * _full_multipliers(sys, w, at_bound, lam)))) if len(w) else 0.0
    return {
        "projected_gradient": stat,
        "dual_feasibility": float(-np.min(mu)) if mu.size else 0.0,
        "complementary_slackness": comp,
        "equality_gap": float(abs(w.sum() - sys.rhs[0])),
        "bound_violation": float(max(0.0, np.max(w_min - w))),
    }


def _full_multipliers(sys, w, active, lam):
    g = sys.monomial_matrix.T @ (sys.monomial_matrix @ w - sys.rhs)
    mu = np.zeros_like(w)
    mu[active] = g[active] - lam
    return mu


def nodal_gll_weights(basis):
    return LumpedElementMass(scheme="nodal_gll", weights=basis.node_weights())


def scaled_weights(basis, v_e):
    """Joulaian-style scheme 1: GLL weights shrunk by the volume ratio."""
    if not 0.0 < v_e <= 1.0:
        raise VoidElement("scaled weights need v_e in (0, 1]")
    return LumpedElementMass(scheme="scaled", weights=v_e * basis.node_weights())


def hrz_weights(basis, cutq):
    """Joulaian-style scheme 2: rescaled consistent-mass diagonal (HRZ)."""
    if cutq.is_void or not len(cutq.points):
        raise VoidElement("HRZ weights need a nonempty cut quadrature")
    vals, _ = basis.shape_eval_2d_batch(cutq.points)
    diag = cutq.weights @ vals**2
    total = diag.sum()
    if total <= 0:
        raise DegenerateDiagonal("consistent-mass diagonal is non-positive")
    area = cutq.weights.sum()
    return LumpedElementMass(scheme="hrz", weights=diag * (area / total))


def lump_element(basis, cutq, scheme, cfg=None):
    """Scheme dispatch for one element; full elements always get GLL weights.

    The nodal_gll scheme degenerates to "scaled" on cut elements so that
    every scheme conserves the physical mass.
    """
    cfg = cfg or MomentFitConfig()
    if cutq.is_void:
        raise VoidElement("no lumped mass for a void element")
    if cutq.classification == "full":
        return nodal_gll_weights(basis)
    if scheme == "fitted":
        sys = build_moment_system(basis, cutq)
        return solve_fitted_weights(sys, cutq, cfg, basis)
    if scheme in ("scaled", "nodal_gll"):
        return scaled_weights(basis, cutq.volume_ratio)
    if scheme == "hrz":
        return hrz_weights(basis, cutq)
    raise ConfigError(f"unknown lumping scheme: {scheme}")
