"""Shared test utilities: an independent brute-force QP oracle."""

import itertools

import numpy as np
from scipy.linalg import null_space


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
