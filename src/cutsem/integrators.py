"""Critical time step estimation and explicit time integration.

Each element's critical step is dt_e = 2/omega_max, where omega_max^2 is
the largest generalized eigenvalue of its stiffness and lumped mass, taken
from the per-element operators that assembly builds once per mesh and
found with LAPACK's `eigh`.

Two integrators operate on the assembled system: the central difference
method in displacement variables, and a second-order leap-frog scheme with
local time stepping in mass-transformed variables z = M^(1/2) u. The LTS
scheme advances a selected DOF subset (cut elements) with step dt/p_t while
the rest of the domain keeps dt; with an empty selection or p_t = 1 it
degenerates to the standard leap-frog update. Each coarse step does one
full stiffness matvec. The p_t sub-steps run only on nbhd(sel), the
selected DOFs and the DOFs coupled to them, through A[nbhd, sel] =
M^(-1/2) K[nbhd, sel] M^(-1/2), built once per solver; everywhere else the
sub-step recurrence has the closed form q_m = 2 z_n + m^2 h^2 w.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import element_operators
from .errors import ConfigError, Diverged, SingularMass
from .momentfit import MomentFitConfig, build_moment_system, lump_element, solve_fitted_weights

CFL_SAFETY = 0.95


def element_max_eigenvalue(k_e, m_e_diag):
    """Largest generalized eigenvalue omega^2 of (K_e, M_e), M_e diagonal.

    LAPACK's symmetric eigensolver on the similarity M^(-1/2) K M^(-1/2),
    asked for the top eigenvalue only.
    """
    m_e_diag = np.asarray(m_e_diag, dtype=float)
    if not np.all(m_e_diag > 0):
        raise SingularMass("element mass diagonal must be strictly positive")
    inv_sqrt = 1.0 / np.sqrt(m_e_diag)
    s = inv_sqrt[:, None] * k_e * inv_sqrt[None, :]
    n = s.shape[0]
    top = scipy.linalg.eigh(s, eigvals_only=True, subset_by_index=[n - 1, n - 1])
    return float(top[0])


@dataclass(frozen=True)
class CriticalTimeStep:
    per_element: dict  # (ex, ey) -> dt_e
    dt_c: float
    dt_uncut_min: float  # min over full elements (inf if none)
    dt_cut_min: float  # min over cut elements (inf if none)


def critical_timestep_table(mesh, mat, scheme="fitted", cfg=None, stiffness_rule="cut"):
    """Per-element dt_e = 2/omega_max and the global minimum."""
    ops = element_operators(mesh, mat, scheme, cfg, stiffness_rule)
    dt_of = {}  # one eigen-solve per distinct record; full elements share one
    per_element = {}
    for key, rec in ops.items():
        if id(rec) not in dt_of:
            dt_of[id(rec)] = 2.0 / math.sqrt(element_max_eigenvalue(rec.k_e, rec.m_e))
        per_element[key] = dt_of[id(rec)]
    cut = [dt for key, dt in per_element.items() if mesh.classification[key] == "cut"]
    full = [dt for key, dt in per_element.items() if mesh.classification[key] == "full"]
    return CriticalTimeStep(
        per_element=per_element,
        dt_c=min(per_element.values()),
        dt_uncut_min=min(full, default=math.inf),
        dt_cut_min=min(cut, default=math.inf),
    )


def choose_pt(dt_coarse, cut_dt_min):
    """Smallest refinement ratio with dt_coarse/p_t <= CFL_SAFETY * cut_dt_min."""
    if dt_coarse <= 0 or cut_dt_min <= 0:
        raise ConfigError("time steps must be positive")
    return max(1, math.ceil(dt_coarse / (CFL_SAFETY * cut_dt_min) - 1e-12))


@dataclass
class TimeHistory:
    """Trailing states of a displacement-propagating scheme."""

    u_prev: np.ndarray
    u_curr: np.ndarray
    step: int
    dt: float


def _check_divergence(u, scale):
    if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e12 * scale:
        raise Diverged("solution magnitude exceeded 1e12 x initial scale")


def cdm_startup(system, u0, v0, dt):
    """u_{-1} from a second-order Taylor start."""
    minv = 1.0 / system.lumped_mass
    a0 = minv * (system.force(0.0) - system.k_matvec(u0))
    return u0 - dt * v0 + 0.5 * dt * dt * a0


def run_cdm(system, dt, n_steps, u0=None, v0=None, record=None):
    """Central difference time loop; returns the final TimeHistory.

    record(step, t, u) is invoked after every accepted step when given.
    """
    n = system.dof_count
    u_curr = np.zeros(n) if u0 is None else u0.copy()
    v0 = np.zeros(n) if v0 is None else v0
    u_prev = cdm_startup(system, u_curr, v0, dt)
    start = TimeHistory(u_prev=u_prev, u_curr=u_curr, step=0, dt=dt)
    return _advance_cdm(system, start, n_steps, record)


def _advance_cdm(system, hist, n_steps, record=None):
    """Advance a CDM history by n_steps; the one central-difference loop."""
    dt = hist.dt
    u_prev, u_curr = hist.u_prev, hist.u_curr
    minv = 1.0 / system.lumped_mass
    scale = max(float(np.max(np.abs(u_curr))), 1.0)
    end = hist.step + n_steps
    for step in range(hist.step, end):
        t = step * dt
        accel = minv * (system.force(t) - system.k_matvec(u_curr))
        u_next = 2.0 * u_curr - u_prev + dt * dt * accel
        u_prev, u_curr = u_curr, u_next
        if step % 25 == 0 or step == end - 1:
            _check_divergence(u_curr, scale)
        if record is not None:
            record(step + 1, t + dt, u_curr)
    return TimeHistory(u_prev=u_prev, u_curr=u_curr, step=end, dt=dt)


def _no_pulse(t):
    return 0.0


class LtsConfig:
    """Coarse step, refinement ratio, and the fine-DOF selection mask."""

    def __init__(self, dt, p_t, selection):
        if p_t < 1:
            raise ConfigError("p_t must be >= 1")
        self.dt = float(dt)
        self.p_t = int(p_t)
        self.selection = np.asarray(selection, dtype=bool)


@dataclass
class LtsState:
    """Leap-frog history in transformed variables z = M^(1/2) u."""

    z_prev: np.ndarray
    z_curr: np.ndarray
    step: int
    t: float


class LtsSolver:
    """Leap-frog with local time stepping on the selected DOFs.

    A = M^(-1/2) K M^(-1/2) is never materialized globally: the one full
    application per coarse step brackets the stiffness matvec with diagonal
    scalings. The sub-steps touch only nbhd(sel), the selected DOFs and the
    DOFs their columns of K couple to, through A[nbhd, sel], built once here
    from the column slice K[:, sel]. Outside nbhd(sel) the sub-step
    recurrence has no A P q and no P r term, so it has the closed form
    q_m = 2 z_n + m^2 h^2 w and the coarse update there is
    z_{n+1} = -z_{n-1} + 2 z_n + dt^2 w.
    """

    def __init__(self, system, cfg):
        self.system = system
        self.cfg = cfg
        if cfg.selection.shape != (system.dof_count,):
            raise ConfigError("selection mask must cover all DOFs")
        self.m_sqrt = np.sqrt(system.lumped_mass)
        self.m_inv_sqrt = 1.0 / self.m_sqrt
        sel = np.flatnonzero(cfg.selection)
        # the column slice, not the rows K[sel]: assembled K is not bitwise symmetric
        k_cols = system.k[:, sel].tocsr()
        self.nbhd = np.union1d(np.flatnonzero(np.diff(k_cols.indptr)), sel)
        self.fine = cfg.selection[self.nbhd]  # P restricted to nbhd(sel)
        self.a_nbhd_sel = (
            sp.diags(self.m_inv_sqrt[self.nbhd])
            @ k_cols[self.nbhd]
            @ sp.diags(self.m_inv_sqrt[sel])
        ).tocsr()
        # r(t) = M^(-1/2) f_shape pulse(t): the shape is scaled once, split
        # into its unrefined part and its refined part on nbhd(sel)
        load = system.load
        self._pulse = _no_pulse if load is None else load.pulse
        r_shape = self.m_inv_sqrt * (0.0 if load is None else load.f_shape)
        self._r_coarse = np.where(cfg.selection, 0.0, r_shape)
        self._r_fine = np.where(self.fine, r_shape[self.nbhd], 0.0)

    def a_apply(self, z):
        return self.m_inv_sqrt * self.system.k_matvec(self.m_inv_sqrt * z)

    def r_of(self, t):
        return self.m_inv_sqrt * self.system.force(t)

    def _sub_steps(self, z_n, t_n, pulse):
        """q_{p_t} of the sub-step recurrence from q_0 = 2 z_n, loaded by pulse.

        The next coarse state is z_{n+1} = q_{p_t} - z_{n-1}. One full
        stiffness matvec, for w = (1-P) r_n - A (1-P) z_n; the p_t
        sub-steps run on nbhd(sel)-sized vectors.
        """
        dt, p_t = self.cfg.dt, self.cfg.p_t
        h = dt / p_t
        sel, nb, fine, a = self.cfg.selection, self.nbhd, self.fine, self.a_nbhd_sel
        p_n = pulse(t_n)
        w = p_n * self._r_coarse - self.a_apply(np.where(sel, 0.0, z_n))
        q_end = 2.0 * z_n + dt * dt * w

        w2 = 2.0 * w[nb]
        q_prev = 2.0 * z_n[nb]
        q = q_prev + 0.5 * h * h * (w2 + 2.0 * p_n * self._r_fine - a @ q_prev[fine])
        for m in range(1, p_t):
            src = (pulse(t_n + m * h) + pulse(t_n - m * h)) * self._r_fine
            q_next = 2.0 * q - q_prev + h * h * (w2 + src - a @ q[fine])
            q_prev, q = q, q_next
        q_end[nb] = q
        return q_end

    def initial_state(self, u0=None, v0=None):
        """z_{-1} from z_1 + z_{-1} = q(z_0) and z_1 - z_{-1} = 2 dt zdot_0.

        q(z_0) is the unloaded sub-step result, so the refined DOFs start
        from their own recurrence. The load enters only as the Taylor term
        dt^2 r(0) / 2: a run from rest starts from the same z_{-1} whatever
        the load does at the sub-step times.
        """
        n = self.system.dof_count
        u0 = np.zeros(n) if u0 is None else u0
        v0 = np.zeros(n) if v0 is None else v0
        z0 = self.m_sqrt * u0
        zdot0 = self.m_sqrt * v0
        dt = self.cfg.dt
        q0 = self._sub_steps(z0, 0.0, _no_pulse)
        z_m1 = 0.5 * q0 - dt * zdot0 + 0.5 * dt * dt * self.r_of(0.0)
        return LtsState(z_prev=z_m1, z_curr=z0, step=0, t=0.0)

    def step(self, state):
        """One coarse step of the second-order leap-frog LTS update."""
        q = self._sub_steps(state.z_curr, state.t, self._pulse)
        return LtsState(
            z_prev=state.z_curr,
            z_curr=-state.z_prev + q,
            step=state.step + 1,
            t=state.t + self.cfg.dt,
        )

    def displacement(self, state):
        return self.m_inv_sqrt * state.z_curr

    def run(self, n_steps, u0=None, v0=None, record=None):
        state = self.initial_state(u0, v0)
        scale = max(float(np.max(np.abs(state.z_curr))), 1.0)
        for _ in range(n_steps):
            state = self.step(state)
            if state.step % 25 == 0 or state.step == n_steps:
                _check_divergence(state.z_curr, scale)
            if record is not None:
                record(state.step, state.t, self.displacement(state))
        return state


def critical_dt_sweep(p, cut_fractions, schemes, epsilons, depth=4):
    """Critical time step ratios for a unit square element with a vertical cut.

    Returns rows (p, fraction, scheme, epsilon, dt_ratio); epsilon is only
    meaningful for the fitted scheme and reported as 0 otherwise.
    """
    from . import geometry
    from .assembly import Material, element_lumped_mass, element_stiffness
    from .gll import tensor_basis

    from .geometry import _gauss_square

    basis = tensor_basis(p)
    mat = Material(youngs_modulus=1.0, poisson_ratio=0.0, density=1.0)
    jac = (0.5, 0.5)
    box = ((0.0, 1.0), (0.0, 1.0))
    gll_wts = basis.node_weights()

    # the uncut baseline uses the same exactly-integrated stiffness the cut
    # rule converges to, so the ratio tends to 1 in the uncut limit
    full_pts, full_wts = _gauss_square(2 * p)
    k_full = element_stiffness(basis, mat, full_pts, full_wts, jac)
    m_full = np.repeat(mat.density * gll_wts * 0.25, 2)
    dt0 = 2.0 / math.sqrt(element_max_eigenvalue(k_full, m_full))

    rows = []
    for frac in cut_fractions:
        if not 0.0 < frac < 1.0:
            raise ConfigError("cut fractions must lie in (0, 1)")
        ls = geometry.half_plane(1.0, 0.0, frac)
        cutq = geometry.build_cut_quadrature(
            ls, box, depth=depth, gauss_degree=2 * p
        )
        k_cut = element_stiffness(basis, mat, cutq.points, cutq.weights, jac)
        # one moment system per cut rule; only the QP depends on epsilon
        moments = build_moment_system(basis, cutq) if "fitted" in schemes else None
        for scheme in schemes:
            if scheme == "fitted":
                lumps = [
                    (eps, solve_fitted_weights(moments, cutq, MomentFitConfig(epsilon=eps), basis))
                    for eps in epsilons
                ]
            else:
                lumps = [(0.0, lump_element(basis, cutq, scheme))]
            for eps, lumped in lumps:
                m_e = element_lumped_mass(lumped, mat, jac)
                dt_e = 2.0 / math.sqrt(element_max_eigenvalue(k_cut, m_e))
                rows.append((p, frac, scheme, eps, dt_e / dt0))
    return rows
