"""Correctness checks on workload outputs, computed apart from cutsem.

Every check returns a list of failure messages; an empty list is a pass.
Nothing here imports cutsem, so a fault in the program cannot hide a fault
in the check.
"""

import math

import numpy as np
import scipy.linalg

# spatial allowance of the bar error: the p = 5 cut bar with fitted lumping
# converges to a relative L2 error of 0.021 at 40 elements and 0.0027 at
# 250 (cut fraction 0.5); every bar here has at least 40 elements
BAR_SPATIAL_ALLOWANCE = 0.03
# multiple of the leap-frog phase-error estimate allowed on top of it
BAR_TEMPORAL_FACTOR = 1.5
STIFFNESS_SYMMETRY_RTOL = 1e-12
RIGID_TRANSLATION_RTOL = 1e-11
MOMENTUM_RTOL = 1e-10
ENERGY_GROWTH = 0.05
DT_RATIO_MAX = 1.01
EIG_RTOL = 1e-7


def hann_rod_velocity(x, t, amplitude, frequency, cycles, wave_speed, youngs_modulus, lx):
    """Closed-form rod velocity behind a Hann-windowed end traction at x = lx.

    The traction p(tau) = A sin(w tau) sin^2(w tau / (2 n)) on [0, n/f]
    launches u(x, t) = g(t - (lx - x)/c) with E g'/c = p, so the velocity
    is v = (c / E) p(t - (lx - x)/c) until the packet reaches x = 0.
    """
    tau = t - (lx - np.asarray(x, dtype=float)) / wave_speed
    w = 2.0 * math.pi * frequency
    p = amplitude * np.sin(w * tau) * np.sin(w * tau / (2 * cycles)) ** 2
    live = (tau >= 0.0) & (tau <= cycles / frequency)
    return np.where(live, wave_speed / youngs_modulus * p, 0.0)


def bar_error_limit(dt, t_end, frequency):
    """Spatial allowance plus the leap-frog phase error at the carrier frequency.

    Leap-frog advances a mode of angular frequency w with relative phase
    error (w dt)^2 / 24 per radian, so after t_end the packet lags by
    w^3 dt^2 t_end / 24 radians, which is also its relative L2 error to
    first order.
    """
    w = 2.0 * math.pi * frequency
    phase = w**3 * dt**2 * t_end / 24.0
    return BAR_SPATIAL_ALLOWANCE + BAR_TEMPORAL_FACTOR * phase


def nodal_relative_error(mass, velocity, reference):
    """Lumped-mass-weighted relative L2 error of a nodal field."""
    num = float(mass @ (velocity - reference) ** 2)
    den = float(mass @ reference**2)
    if not den > 0.0:
        return math.inf
    return math.sqrt(num / den)


def check_bar(nodal_error, program_error, limit, p_t=None):
    failures = []
    if not nodal_error < limit:
        failures.append(f"nodal velocity error {nodal_error:.4g} vs closed form exceeds {limit:.4g}")
    if not program_error < limit:
        failures.append(f"reported L2 error {program_error:.4g} exceeds {limit:.4g}")
    if p_t is not None and not p_t > 1:
        failures.append(f"LTS refinement ratio p_t = {p_t} does not refine the cut column")
    return failures


def check_plate_mass(lumped_mass, density, area, area_tol):
    """Total lumped mass is rho * 2 * area (two DOFs per node); all positive."""
    failures = []
    expected = density * 2.0 * area
    total = float(np.sum(lumped_mass))
    if not abs(total - expected) <= density * 2.0 * area_tol:
        failures.append(f"total lumped mass {total!r} differs from rho*2*area = {expected!r}")
    if not np.all(lumped_mass > 0.0):
        failures.append(f"{int(np.sum(~(lumped_mass > 0.0)))} free DOFs have non-positive mass")
    return failures


def check_stiffness(k):
    """K (scipy sparse, interleaved ux, uy) is symmetric and kills translations."""
    failures = []
    scale = float(abs(k).max())
    asym = float(abs(k - k.T).max()) if k.nnz else 0.0
    if not asym <= STIFFNESS_SYMMETRY_RTOL * scale:
        failures.append(f"K is not symmetric: max |K - K^T| = {asym:.3g} (max |K| = {scale:.3g})")
    n = k.shape[0]
    row_scale = float(abs(k).sum(axis=1).max())
    for comp, label in ((0, "x"), (1, "y")):
        t = np.zeros(n)
        t[comp::2] = 1.0
        res = float(np.max(np.abs(k @ t)))
        if not res <= RIGID_TRANSLATION_RTOL * row_scale:
            failures.append(f"K does not annihilate the {label} translation: max |K t| = {res:.3g}")
    return failures


def check_momentum(mass, v_start, v_end):
    """Total linear momentum per direction is unchanged on the free plate."""
    failures = []
    for comp, label in ((0, "x"), (1, "y")):
        p0 = float(mass[comp::2] @ v_start[comp::2])
        p1 = float(mass[comp::2] @ v_end[comp::2])
        scale = float(np.abs(mass[comp::2] * v_end[comp::2]).sum()) + 1e-300
        if not abs(p1 - p0) <= MOMENTUM_RTOL * scale:
            failures.append(f"{label}-momentum changed by {p1 - p0:.3g} (scale {scale:.3g})")
    return failures


def centered_energies(k, mass, states, dt):
    """E_n = 1/2 v_n^T M v_n + 1/2 u_n^T K u_n, v_n = (u_{n+1} - u_{n-1}) / (2 dt)."""
    out = []
    for u_prev, u, u_next in zip(states, states[1:], states[2:]):
        v = (u_next - u_prev) / (2.0 * dt)
        out.append(0.5 * float(mass @ v**2) + 0.5 * float(u @ (k @ u)))
    return out


def check_energy(energies, e0):
    """Energy stays positive and within ENERGY_GROWTH of the initial e0."""
    e = np.asarray(energies, dtype=float)
    if not (e.size and np.all(np.isfinite(e)) and np.all(e > 0.0)):
        return ["energy is not finite and positive over the solve"]
    if not e.max() <= (1.0 + ENERGY_GROWTH) * e0:
        return [f"energy grew from {e0:.6g} to {e.max():.6g}"]
    return []


def check_dtcrit_rows(rows, eps_bound_active):
    """rows: (p, fraction, scheme, epsilon, ratio) as the sweep reports them.

    eps_bound_active holds the (p, fraction) cells whose volume ratio is at
    or above the low-volume threshold, where the fitted weights are bounded
    by eps * v_e * w_std. Below it the bound is v_e * w_std whatever eps is,
    so there fitted(0.01) must equal fitted(0.1) instead of undercutting
    the scaled scheme.
    """
    failures = []
    table = {}
    for p, frac, scheme, eps, ratio in rows:
        if not 0.0 < ratio <= DT_RATIO_MAX:
            failures.append(f"ratio {ratio!r} outside (0, {DT_RATIO_MAX}] at p={p} f={frac} {scheme}")
        table[(p, frac, scheme, eps)] = ratio
    cells = sorted({(p, frac) for p, frac, _, _ in table})
    for p, frac in cells:
        ratios = {key: table.get((p, frac) + key) for key in
                  (("fitted", 0.01), ("fitted", 0.1), ("hrz", 0.0), ("scaled", 0.0))}
        missing = [f"{s}({e})" for (s, e), r in ratios.items() if r is None]
        if missing:
            failures.append(f"missing rows {missing} at p={p} f={frac}")
            continue
        fit, loose = ratios[("fitted", 0.01)], ratios[("fitted", 0.1)]
        others = ("hrz", "scaled") if (p, frac) in eps_bound_active else ("hrz",)
        for other in others:
            if not fit <= ratios[(other, 0.0)]:
                failures.append(f"fitted(0.01) {fit!r} > {other} {ratios[(other, 0.0)]!r} at p={p} f={frac}")
        if not loose >= fit:
            failures.append(f"fitted(0.1) {loose!r} < fitted(0.01) {fit!r} at p={p} f={frac}")
        if (p, frac) not in eps_bound_active and loose != fit:
            failures.append(f"eps changed fitted below the low-volume threshold at p={p} f={frac}")
    return failures


def max_generalized_eigenvalue(k, m_diag):
    """Largest omega^2 of K x = omega^2 M x by a dense LAPACK solve."""
    n = k.shape[0]
    return float(
        scipy.linalg.eigh(k, np.diag(m_diag), eigvals_only=True, subset_by_index=[n - 1, n - 1])[0]
    )


def check_dt_ratio(reported, omega2_cut, omega2_full):
    """The ratio dt_cut / dt_full = sqrt(omega2_full / omega2_cut)."""
    expected = math.sqrt(omega2_full / omega2_cut)
    if not abs(reported - expected) <= EIG_RTOL * expected:
        return [f"ratio {reported!r} disagrees with eigh ratio {expected!r}"]
    return []
