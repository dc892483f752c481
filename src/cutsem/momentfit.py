"""Moment-fitted mass lumping for cut elements, plus comparator schemes.

The fitted scheme keeps the GLL tensor nodes and picks new weights by
minimizing ||A w - b||_2, where A holds the tensor monomials evaluated at
the nodes and b their integrals over the physical portion of the element,
subject to a lower bound on every weight and exact conservation of the
physical reference area. The bound adapts to the volume ratio: eps*v_e*w_std
above the low-volume threshold, v_e*w_std below it (w_std = smallest tensor
GLL weight). The QP is solved by an active-set method on the bounds with
block activation, as in Portugal, Judice and Vicente (1994): every free
weight below the bound becomes active at once, and at a feasible point the
most negative bound multiplier below -tol is released, tol scaled to the
terms of the gradient (`_release_tol`). Should an active set repeat,
Murty's single-index rule (exchange only the largest infeasible index)
takes over. A is square and non-singular, so the KKT point reached is the
unique optimum.
Each subproblem, least squares on the free weights subject to the one
equality, is a single call of LAPACK's dgglse, which uses a generalized RQ
(GRQ) factorization of A and the constraint row. It works on A itself, so
the monomial Vandermonde's condition number is never squared, and a
rank-deficient subproblem raises SolverStall: dgglse reports an exactly
zero pivot, or the smallest pivot of its triangular factor is below n eps
times the largest.

Comparators: "scaled" multiplies the GLL weights by v_e; "hrz" rescales the
consistent-mass diagonal computed with the cut rule so the total matches
the physical reference area.

A depends only on the basis: it is the basis's read-only `monomial_matrix`,
built once per order, so a moment system computes only b. HRZ takes the
shape values at the cut rule from a caller that has already evaluated them
for the element's stiffness.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg.lapack import dgglse

from .errors import ConfigError, DegenerateDiagonal, Infeasible, SolverStall, VoidElement

_KKT_RTOL = 1e-13
LUMPING_SCHEMES = ("fitted", "hrz", "scaled")


@dataclass(frozen=True)
class MomentFitSystem:
    monomial_matrix: np.ndarray  # (m, n), m = n; the basis's read-only table
    rhs: np.ndarray  # (m,), in the order of the basis's exponents


@dataclass(frozen=True)
class MomentFitConfig:
    epsilon: float = 0.01
    low_volume_threshold: ClassVar[float] = 0.1

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError("epsilon must lie in (0, 1]")


@dataclass(frozen=True)
class LumpedElementMass:
    scheme: str  # nodal_gll (full elements) | fitted | scaled | hrz
    weights: np.ndarray
    residual_norm: float = 0.0
    iterations: int = 0  # dgglse subproblems solved by the fitted QP


def build_moment_system(basis, cutq):
    """Monomials at the GLL tensor nodes vs. their cut-domain integrals.

    The monomial matrix is the basis's own read-only table; only the
    moments are computed here, in the order of the basis's exponents.
    """
    if cutq.is_void:
        raise VoidElement("cannot build a moment system for a void element")
    # every moment int x^a y^b from one product of the two power tables
    powers = np.arange(basis.p + 1)
    vx = cutq.points[:, :1] ** powers
    vy = cutq.points[:, 1:] ** powers
    moments = (cutq.weights[:, None] * vx).T @ vy
    exps = basis.exponents
    return MomentFitSystem(
        monomial_matrix=basis.monomial_matrix, rhs=moments[exps[:, 0], exps[:, 1]]
    )


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

    active = np.zeros(n, dtype=bool)
    seen, cycled = set(), False
    rank_tol = n * np.finfo(float).eps
    max_iter = 50 * n + 50
    for iteration in range(1, max_iter + 1):
        # block pivoting can cycle; a repeated set switches to Murty's rule
        cycled = cycled or active.tobytes() in seen
        seen.add(active.tobytes())
        free = ~active
        n_free = int(free.sum())
        # min ||A_f w_f - (b - w_min A_a 1)|| s.t. sum w_f = target - w_min |a|
        t, _, _, w_free, info = dgglse(
            a_mat[:, free],
            np.ones((1, n_free)),
            b_vec - a_mat[:, active].sum(axis=1) * w_min,
            [target - w_min * (n - n_free)],
        )
        if info != 0:
            raise SolverStall(f"moment-fit subproblem is rank deficient (dgglse info {info})")
        # rounding hides most rank deficiency from dgglse's exact-zero pivot
        # test; the diagonal of its triangular factor T11 shows it
        pivots = np.abs(t.diagonal()[: n_free - 1])
        if pivots.size and pivots.min() < rank_tol * pivots.max():
            raise SolverStall(
                f"moment-fit subproblem is rank deficient (pivot ratio "
                f"{pivots.min() / pivots.max():.1e})"
            )
        w = np.full(n, w_min)
        w[free] = w_free
        # activate every violated bound at once; the free weights sum to
        # slack + n_free w_min with slack > 0, so one always stays free
        low = np.flatnonzero(free & (w < w_min))
        if low.size and not cycled:
            active[low] = True
            continue
        mu, _ = _kkt_terms(a_mat, b_vec, w, active)
        # the threshold costs two products with |A|; it matters only below 0
        tol = _release_tol(a_mat, b_vec, w) if np.any(mu < 0.0) else 0.0
        release = np.flatnonzero(active)[mu < -tol]
        if not (low.size or release.size):
            return LumpedElementMass(
                scheme="fitted",
                weights=w,
                residual_norm=lumping_residual(sys, w),
                iterations=iteration,
            )
        if cycled:
            active[max(low.max(initial=-1), release.max(initial=-1))] ^= True
        else:
            active[np.flatnonzero(active)[np.argmin(mu)]] = False

    mu, stat = _kkt_terms(a_mat, b_vec, w, active)
    kkt = max(stat, -float(np.min(mu, initial=0.0)), float(np.max(w_min - w, initial=0.0)))
    raise SolverStall(f"active-set QP stalled with KKT residual {kkt:g}")


def _release_tol(a_mat, b_vec, w):
    """How negative a bound multiplier must be to release its bound.

    The multipliers are differences of entries of g = A^T (A w - b). Their
    rounding error scales with the terms that cancel in g, whose size is
    the largest entry of |A|^T (|A| |w| + |b|), not with g itself, which
    is small near the optimum: _KKT_RTOL times that size.
    """
    abs_a = np.abs(a_mat)
    return _KKT_RTOL * float(np.max(abs_a.T @ (abs_a @ np.abs(w) + np.abs(b_vec))))


def _kkt_terms(a_mat, b_vec, w, active):
    """Bound multipliers of the active weights and the stationarity residual
    of the free ones, under the equality multiplier the free ones fix."""
    g = a_mat.T @ (a_mat @ w - b_vec)
    free = ~active
    # with no free weight the feasible set is one point and any lam <= min g
    # makes every bound multiplier non-negative
    lam = g[free].mean() if free.any() else g.min()
    mu = g[active] - lam
    stat = float(np.max(np.abs(g[free] - lam))) if free.any() else 0.0
    return mu, stat


def scaled_weights(basis, v_e):
    """Joulaian-style scheme 1: GLL weights shrunk by the volume ratio."""
    if not 0.0 < v_e <= 1.0:
        raise VoidElement("scaled weights need v_e in (0, 1]")
    return LumpedElementMass(scheme="scaled", weights=v_e * basis.node_weights())


def hrz_weights(basis, cutq, *, shapes=None):
    """Joulaian-style scheme 2: rescaled consistent-mass diagonal (HRZ).

    shapes, when given, is basis.shape_eval_2d_batch(cutq.points), made by
    a caller that also needs it for the stiffness.
    """
    if cutq.is_void or not len(cutq.points):
        raise VoidElement("HRZ weights need a nonempty cut quadrature")
    vals, _ = basis.shape_eval_2d_batch(cutq.points) if shapes is None else shapes
    diag = cutq.weights @ vals**2
    total = diag.sum()
    if total <= 0:
        raise DegenerateDiagonal("consistent-mass diagonal is non-positive")
    area = cutq.weights.sum()
    return LumpedElementMass(scheme="hrz", weights=diag * (area / total))


def lump_element(basis, cutq, scheme, cfg=None, *, shapes=None):
    """Scheme dispatch for one element; full elements always get GLL weights.

    Those are the basis's read-only array itself. shapes is passed on to
    `hrz_weights`.
    """
    cfg = cfg or MomentFitConfig()
    if cutq.is_void:
        raise VoidElement("no lumped mass for a void element")
    if cutq.classification == "full":
        return LumpedElementMass(scheme="nodal_gll", weights=basis.node_weights())
    if scheme == "fitted":
        sys = build_moment_system(basis, cutq)
        return solve_fitted_weights(sys, cutq, cfg, basis)
    if scheme == "scaled":
        return scaled_weights(basis, cutq.volume_ratio)
    if scheme == "hrz":
        return hrz_weights(basis, cutq, shapes=shapes)
    raise ConfigError(f"unknown lumping scheme: {scheme}")
