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
selected DOFs and the DOFs coupled to them, in the scaled variables
v = M^(-1/2) q: they apply K[nbhd, sel] as the stiffness's own element
batches, restricted once per solver to the elements that touch sel, to v
as it is, and scale the result by h^2 M^-1. Everywhere else the sub-step
recurrence has the closed form q_m = 2 z_n + m^2 h^2 w.

On nbhd(sel) the coarse step is a fixed polynomial of degree p_t in the
local operator (Diaz & Grote, SIAM J. Sci. Comput. 31, 2009): v_{p_t} is
linear in x = [v_0; M^(-1/2) h^2 w2; s], s the p_t load coefficients, so
v_{p_t} = W x for one dense map W of shape (n, 2n + p_t), n =
k_local.size. A sweep multiplies p_t e element-matrix entries, e those of
one k_local apply, and its cost is mostly numpy's per-call overhead on
short vectors; W x multiplies n (2n + p_t) in one call. So when n (2n +
p_t) < p_t e and n <= _MAP_MAX_SIZE, the solver tabulates W once, by
running the same sub-step recurrence on the identity's columns with
k_local dense, and each coarse step does one W x in place of the sweep.
W x evaluates the same polynomial in another order, so it matches the
sweep up to round-off; the cap bounds W's memory and the p_t dense
products of its build.

Each integrator advances its state with one in-place kernel. CDM and the
LTS sub-steps are leap-frog in summed form (Hairer, Lubich & Wanner,
Geometric Numerical Integration, 2006): the increment takes the
acceleration and then the state takes the increment, two passes a step
where the three-term form u_{n+1} = 2 u_n - u_{n-1} + a needs three, with
less round-off. A CDM history carries its increment, so a continued run
is bitwise one longer run. LTS's coarse update overwrites the older of
its two states, and LTS has one loop, `LtsSolver._advance`: `run` runs it
from `initial_state` on two buffers of its own, `step` for one step on
copies of its state. dt^2 (CDM, and LTS's coarse update) or h^2 = (dt/p_t)^2
(LTS's sub-steps) is folded into diagonal scalings made once per run or
solver. A load term is added only when the pulse is nonzero, on the DOFs
its shape loads. LTS samples the pulse once per sub-step grid point and
reuses one coarse step's samples as the next one's backward samples, and
its start-up skips the sub-step sweep from a zero displacement. Both
integrators require the start state to be zero on the Dirichlet DOFs.

Both loops check the state and flush its negligible tail by one rule,
`_check_divergence`, called once per step: after each step from t_n with
n % 25 == 0 it checks and flushes in one fused pass, and after the last
step of a call it only checks. The step count is absolute, so a continued
CDM run is bitwise one longer run, and LTS `run(n)` is `initial_state`
followed by n `step`s. The max of |u| (NaN-propagating) must be finite and
at most 1e12 times the max of the state the call started from (at least
1), and then every entry of both leap-frog fields (CDM's u and du, LTS's
z_n and z_{n-1}) below _NEGLIGIBLE = 2^-600 times that max is set to 0. A
pulse launched into a body at rest drags a numerical precursor ahead of
the wave whose tail decays into the subnormal range, where each flop takes
a microcode assist, and numpy cannot set the CPU's flush-to-zero mode. The
floor is relative, so it does not depend on units, and it lies 547
binades below the round-off of the largest entry, so the flushed entries
change no output. A floor at the subnormal limit itself saves little: the
tail regrows below it within a step, and flushing every step costs more
than the subnormal steps do. Both integrators reject a time step that is
not positive and finite.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import geometry
from .assembly import (
    Material,
    element_lumped_mass,
    element_operators,
    element_stiffness,
)
from .errors import ConfigError, Diverged, SingularMass, VoidElement
from .geometry import _gauss_square
from .gll import tensor_basis
from .momentfit import (
    LUMPING_SCHEMES,
    MomentFitConfig,
    build_moment_system,
    lump_element,
    solve_fitted_weights,
)

CFL_SAFETY = 0.95
# the divergence check and flush of the module docstring: after every
# _CHECK_EVERY-th step, entries below _NEGLIGIBLE times the state's max go to 0
_CHECK_EVERY = 25
_NEGLIGIBLE = 2.0**-600
# the LTS sub-step map of the module docstring: tabulated only for a k_local
# of at most _MAP_MAX_SIZE (nbhd(sel) and the zero slot), which bounds its
# memory and the dense products of its build; built _MAP_BLOCK columns at a time
_MAP_MAX_SIZE = 256
_MAP_BLOCK = 64


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


def critical_timestep_table(mesh, mat, scheme="fitted", cfg=None):
    """Per-element dt_e = 2/omega_max and the global minimum."""
    ops = element_operators(mesh, mat, scheme, cfg)
    if not ops:
        raise VoidElement("no physical element: the mesh has no critical time step")
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
    if not (0 < dt_coarse < math.inf and cut_dt_min > 0):
        raise ConfigError("time steps must be positive, and dt_coarse finite")
    return max(1, math.ceil(dt_coarse / (CFL_SAFETY * cut_dt_min) - 1e-12))


@dataclass
class TimeHistory:
    """Trailing state of the central-difference loop: u_n and the increment u_n - u_{n-1}.

    The loop carries the increment, not u_{n-1}, so a history resumes
    bitwise; `u_prev` is formed from the two on request.
    """

    u_curr: np.ndarray
    du: np.ndarray
    step: int
    dt: float

    @property
    def u_prev(self):
        return self.u_curr - self.du


def _check_divergence(n, last, z, partner, scale):
    """The one check rule of both leap-frog loops, called after the step from t_n.

    When n % _CHECK_EVERY == 0, raise Diverged unless max |z| is finite and
    at most 1e12 x scale, then set every entry of z and of its leap-frog
    partner below _NEGLIGIBLE max |z| to 0, in place. When n == last, the
    step ending the call, only check. The max propagates NaN, so testing
    it alone for finiteness covers every entry.
    """
    flush = n % _CHECK_EVERY == 0
    if not (flush or n == last):
        return
    mag = np.abs(z)
    peak = mag.max()
    if not (math.isfinite(peak) and peak <= 1e12 * scale):
        raise Diverged("solution is not finite or exceeded 1e12 x initial scale")
    if flush:
        floor = _NEGLIGIBLE * peak
        np.copyto(z, 0.0, where=mag < floor)
        np.copyto(partner, 0.0, where=np.abs(partner) < floor)


def _check_start_on_dirichlet(system, u0, v0):
    """Reject a start displacement or velocity that is nonzero on a Dirichlet DOF.

    Both integrators hold those DOFs through a zero inverse mass: from a
    nonzero start there CDM would hold the value and LTS read it as zero,
    and a nonzero start velocity would drift.
    """
    for name, values in (("u0", u0), ("v0", v0)):
        if values is not None and np.any(values[system.dirichlet_dofs]):
            raise ConfigError(f"{name} must be zero on the Dirichlet DOFs")


def _loaded_entries(values):
    """(indices, values) of the nonzero entries of a scaled load shape."""
    idx = np.flatnonzero(values)
    return idx, values[idx]


def run_cdm(system, dt, n_steps, u0=None, v0=None, record=None):
    """Central difference time loop; returns the final TimeHistory.

    The increment u_0 - u_{-1} comes from a second-order Taylor start. u0
    and v0 must be zero on the Dirichlet DOFs. record(step, t, u) is
    invoked after every accepted step when given; u is overwritten by the
    next step, so a record that keeps it copies it.
    """
    if not 0 < dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt!r}")
    _check_start_on_dirichlet(system, u0, v0)
    n = system.dof_count
    u_curr = np.zeros(n) if u0 is None else u0.copy()
    v0 = np.zeros(n) if v0 is None else v0
    a0 = system.m_inv * (system.force(0.0) - system.k_matvec(u_curr))
    du = dt * v0 - 0.5 * dt * dt * a0
    start = TimeHistory(u_curr=u_curr, du=du, step=0, dt=dt)
    return _advance_cdm(system, start, n_steps, record)


def _advance_cdm(system, hist, n_steps, record=None):
    """Advance a CDM history by n_steps; the one central-difference loop.

    Leap-frog in summed form: with c = dt^2 M^-1, made once, each step is
    one stiffness matvec and two in-place passes, du <- du - c K u (plus
    c f_shape pulse(t) on the loaded DOFs when the pulse is nonzero) and
    u <- u + du. The state lives in buffers of its own: hist is copied once
    and left as it is, and record gets a buffer that the next step
    overwrites. c is zero on the Dirichlet DOFs, so they stay at their
    start value, zero.
    """
    dt = hist.dt
    u, du = hist.u_curr.copy(), hist.du.copy()
    c = dt * dt * system.m_inv
    loaded, c_f = _loaded_entries(c * system.f_shape)
    pulse = system.pulse
    scale = max(float(np.max(np.abs(u))), 1.0)
    end = hist.step + n_steps
    for step in range(hist.step, end):
        t = step * dt
        ku = system.k_matvec(u)
        ku *= c
        # du_{n+1/2} = du_{n-1/2} + dt^2 M^-1 (f - K u_n); u_{n+1} = u_n + du_{n+1/2}
        du -= ku
        p = pulse(t)
        if p != 0.0:
            du[loaded] += p * c_f
        u += du
        _check_divergence(step, end - 1, u, du, scale)
        if record is not None:
            record(step + 1, t + dt, u)
    return TimeHistory(u_curr=u, du=du, step=end, dt=dt)


class LtsConfig:
    """Coarse step, refinement ratio, and the fine-DOF selection mask."""

    def __init__(self, dt, p_t, selection):
        if not 0 < dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {dt!r}")
        if not (1 <= p_t < math.inf and p_t == int(p_t)):
            raise ConfigError(f"p_t must be a whole number >= 1, got {p_t!r}")
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

    A = M^(-1/2) K M^(-1/2) is never materialized: the one full application
    per coarse step brackets the stiffness matvec with diagonal scalings.
    M^(-1/2) is the system's, zero on the Dirichlet DOFs, so A and r vanish
    there and `displacement` reads zero on them. The sub-steps touch only
    nbhd(sel), the selected DOFs and the DOFs of the elements that hold a
    selected DOF, and run in the scaled variables v = M^(-1/2) q, zero on
    the Dirichlet DOFs as q is. A sub-step applies `k_local`, the element
    batches of those elements renumbered onto nbhd(sel) once here, which
    gathers every column off sel from a zero slot: it reads v as it is, and
    its result is scaled by h^2 M^-1. Each sub-step is leap-frog in summed
    form, dv <- dv + a and v <- v + dv, and q = M^(1/2) v is formed once
    per coarse step. Outside nbhd(sel) the sub-step recurrence has no A P q
    and no P r term, so it has the closed form q_m = 2 z_n + m^2 h^2 w and
    the coarse update there is z_{n+1} = -z_{n-1} + 2 z_n + dt^2 w.

    The p_t sub-steps are linear in x = [v_0; M^(-1/2) h^2 w2; s], where s
    holds the load coefficients s_0 = 2 pulse(t_n) and s_m = pulse(t_n + m h)
    + pulse(t_n - m h). With n = k_local.size and e the element-matrix
    entries one k_local apply multiplies, a sweep multiplies p_t e entries
    and the map W with v_{p_t} = W x has n (2n + p_t). When n (2n + p_t) <
    p_t e and n <= _MAP_MAX_SIZE, W is tabulated here, by running the
    sub-steps once on the identity's columns with k_local as a dense
    matrix, and each coarse step does one product W x in place of the p_t
    sub-steps. W x is the sweep's polynomial in the local operator, so the
    two agree up to round-off; `sub_step_map` is W, or None when the
    sub-steps are swept.

    `run` and `step` share one loop, `_advance`, and its in-place kernel,
    `_coarse_step`, with h^2 and dt^2 folded into the scalings made here.
    The load is sampled at the sub-step grid points t = n dt + m h, n from
    the state's step count.
    """

    def __init__(self, system, cfg):
        self.system = system
        self.cfg = cfg
        if cfg.selection.shape != (system.dof_count,):
            raise ConfigError("selection mask must cover all DOFs")
        dt, p_t, sel = cfg.dt, cfg.p_t, cfg.selection
        h2 = (dt / p_t) ** 2
        self.m_inv_sqrt = system.m_inv_sqrt
        self.nbhd, self.k_local = system.stiffness.restrict(sel)
        nb, n = self.nbhd, self.k_local.size
        self.fine = sel[nb]  # P restricted to nbhd(sel)
        # the full matvec's input and output scalings, M^(-1/2) (1-P) and
        # dt^2 M^(-1/2)
        self._coarse_in = np.where(sel, 0.0, self.m_inv_sqrt)
        self._coarse_out = dt * dt * self.m_inv_sqrt
        # on nbhd(sel): v_0 = 2 M^(-1/2) z_n, M^(-1/2) h^2 w2 = -2/p_t^2
        # M^(-1/2) g, the sub-step output scaling h^2 M^-1 (zero on the zero
        # slot) and q = M^(1/2) v
        m_inv_sqrt_nb = self.m_inv_sqrt[nb]
        self._v_in = 2.0 * m_inv_sqrt_nb
        self._w2_scale = (-2.0 / p_t**2) * m_inv_sqrt_nb
        self._h2_m_inv = np.append(h2 * system.m_inv[nb], 0.0)
        self._m_sqrt = np.sqrt(system.lumped_mass[nb])
        # x = [v; M^(-1/2) h^2 w2; s]: v and h2w2 on nbhd(sel) and the zero
        # slot, which stays 0, and the p_t load coefficients
        self._x = np.zeros(2 * n + p_t)
        self._v, self._h2w2, self._s = self._x[:n], self._x[n : 2 * n], self._x[2 * n :]
        # each coarse step's temporaries: the full matvec's input, a gather
        # on nbhd(sel) and q
        self._z_in = np.empty(system.dof_count)
        self._gathered = np.empty(len(nb))
        self._q = np.empty(len(nb))
        # r(t) = M^(-1/2) f_shape pulse(t), split into its unrefined part,
        # scaled by dt^2, and its refined part on nbhd(sel), scaled by
        # h^2 M^(-1/2) for v; each kept on its nonzero entries
        r_shape = self.m_inv_sqrt * system.f_shape
        self._coarse_load = _loaded_entries(dt * dt * np.where(sel, 0.0, r_shape))
        self._fine_load = _loaded_entries(
            h2 * np.where(self.fine, m_inv_sqrt_nb * r_shape[nb], 0.0)
        )
        k = self.k_local
        e_local = len(k.batch_dofs) * k.batch_k_e.size + k.stack_k_e.size
        self._map = None
        if n <= _MAP_MAX_SIZE and n * (2 * n + p_t) < p_t * e_local:
            self._map = self._tabulate()
            self._v_map = np.empty(n)

    @property
    def sub_step_map(self):
        """W, read-only, with v_{p_t} = W [v_0; M^(-1/2) h^2 w2; s], or None.

        Its shape is (n, 2n + p_t), n = k_local.size, and both vectors are
        zero on the zero slot. None when the sub-steps run as a sweep.
        """
        return self._map

    def _tabulate(self):
        """W: the sub-steps run on the identity's columns, _MAP_BLOCK at a time.

        The columns are swept as the rows of a stack, with k_local as a dense
        matrix on the selected columns: it reads no other column of v.
        """
        n, p_t = self.k_local.size, self.cfg.p_t
        fine = np.flatnonzero(self.fine)
        k_fine_t = np.ascontiguousarray(self.k_local.to_dense()[:, fine].T)
        fine_vals = self._fine_load[1]
        # row j of W^T is W's column j, the sub-steps from the unit input
        # e_j: its v_0 part starts as row j of [I 0 0]^T, and its h2w2 and s
        # parts are rows of identities shifted by n and 2n. Each block of
        # rows is swept in place
        w_t = np.zeros((2 * n + p_t, n))
        np.fill_diagonal(w_t, 1.0)
        for j in range(0, len(w_t), _MAP_BLOCK):
            v = w_t[j : j + _MAP_BLOCK]
            h2w2 = np.eye(len(v), n, j - n)
            loads = [None] * p_t  # the block holds no row of s
            if j + len(v) > 2 * n:
                loads = (np.multiply.outer(c, fine_vals) for c in np.eye(p_t, len(v), 2 * n - j))
            self._sub_steps(v, h2w2, loads, lambda rows: rows[:, fine] @ k_fine_t)
        w_t.flags.writeable = False
        return w_t.T

    def r_of(self, t):
        return self.m_inv_sqrt * self.system.force(t)

    def _pulse_samples(self, n):
        """pulse(n dt + m h) for m = 0, ..., p_t - 1: coarse step n's sub-step grid."""
        dt, p_t = self.cfg.dt, self.cfg.p_t
        h = dt / p_t
        pulse = self.system.pulse
        return np.array([pulse(n * dt + m * h) for m in range(p_t)])

    def _sub_steps(self, v, h2w2, loads, apply):
        """The p_t sub-steps: v from v_0 to v_{p_t}, in place.

        v and h2w2 = M^(-1/2) h^2 w2 are k_local-sized vectors, zero on the
        zero slot, or stacks of them as rows; apply(v) is k_local applied to
        each. loads yields, per sub-step m, s_m times the refined load's
        nonzero entries, or None when s_m is 0.
        """
        fine_idx = self._fine_load[0]
        for m, load in enumerate(loads):
            a = apply(v)
            a *= self._h2_m_inv
            # a <- M^(-1/2) h^2 (w2 + s_m r_fine - A_local q_m)
            np.subtract(h2w2, a, out=a)
            if load is not None:
                a[..., fine_idx] += load
            # v_{m+1} = v_m + dv_{m+1/2}, dv_{m+1/2} = dv_{m-1/2} + a; the
            # first sub-step is a half step from v_{-1} = v_1
            if m == 0:
                a *= 0.5
                dv = a
            else:
                dv += a
            v += dv

    def _coarse_step(self, z_prev, z, fwd, bwd):
        """Overwrite z_prev = z_{n-1} with z_{n+1}; z = z_n is only read.

        fwd are the load samples of this coarse step's sub-step grid and bwd
        those of the previous one: the point t_n - m h is t_{n-1} + (p_t - m) h.
        One full stiffness matvec gives g = dt^2 (A (1-P) z_n - (1-P) r_n)
        = -dt^2 w; the p_t sub-steps, swept or by the map, run from
        v_0 = M^(-1/2) q_0 = 2 M^(-1/2) z_n on nbhd(sel)-sized vectors, and
        z_{n+1} = M^(1/2) v_{p_t} - z_{n-1} there. Every temporary but the
        matvec's and the sweep's results lives in a buffer made once.
        """
        nb = self.nbhd
        np.multiply(self._coarse_in, z, out=self._z_in)
        g = self.system.k_matvec(self._z_in)
        g *= self._coarse_out
        if fwd[0] != 0.0:
            idx, vals = self._coarse_load
            g[idx] -= fwd[0] * vals
        # nb is in range; mode="clip" lets take write to out unbuffered
        v, h2w2, s, gathered = self._v, self._h2w2, self._s, self._gathered
        z.take(nb, out=gathered, mode="clip")
        np.multiply(gathered, self._v_in, out=v[:-1])
        g.take(nb, out=gathered, mode="clip")
        np.multiply(gathered, self._w2_scale, out=h2w2[:-1])
        s[0] = 2.0 * fwd[0]
        np.add(fwd[1:], bwd[:0:-1], out=s[1:])

        if self._map is None:
            fine_vals = self._fine_load[1]
            loads = (c * fine_vals if c != 0.0 else None for c in s)
            self._sub_steps(v, h2w2, loads, self.k_local.apply)
        else:
            v = np.matmul(self._map, self._x, out=self._v_map)
        q = self._q
        np.multiply(self._m_sqrt, v[:-1], out=q)
        z_prev.take(nb, out=gathered, mode="clip")
        q -= gathered

        # z_{n+1} = 2 z_n - z_{n-1} + dt^2 w off nbhd(sel), q_{p_t} - z_{n-1} on it
        np.subtract(z, z_prev, out=z_prev)
        z_prev += z
        z_prev -= g
        z_prev[nb] = q

    def initial_state(self, u0=None, v0=None):
        """z_{-1} from z_1 + z_{-1} = q(z_0) and z_1 - z_{-1} = 2 dt zdot_0.

        q(z_0) is the unloaded coarse step from z_{-1} = 0, so the refined
        DOFs start from their own recurrence; it is linear in z_0, so from
        z_0 = 0 it is zero and is not run. The load enters only as the
        Taylor term dt^2 r(0) / 2: a run from rest starts from the same
        z_{-1} whatever the load does at the sub-step times. u0 and v0 must
        be zero on the Dirichlet DOFs.
        """
        _check_start_on_dirichlet(self.system, u0, v0)
        n = self.system.dof_count
        m_sqrt = np.sqrt(self.system.lumped_mass)
        z0 = np.zeros(n) if u0 is None else m_sqrt * u0
        zdot0 = np.zeros(n) if v0 is None else m_sqrt * v0
        dt = self.cfg.dt
        z_m1 = -dt * zdot0 + 0.5 * dt * dt * self.r_of(0.0)
        if np.any(z0):
            q0 = np.zeros(n)
            unloaded = np.zeros(self.cfg.p_t)
            self._coarse_step(q0, z0, unloaded, unloaded)
            z_m1 += 0.5 * q0
        return LtsState(z_prev=z_m1, z_curr=z0, step=0, t=0.0)

    def step(self, state):
        """One coarse step of the second-order leap-frog LTS update.

        `_advance` for one step on copies of the state, which is left as it
        is, so the new state is checked against the scale of `state` and
        flushed where `run` would flush it.
        """
        return self._advance(state.z_prev.copy(), state.z_curr.copy(), state.step, 1)

    def displacement(self, state):
        return self.m_inv_sqrt * state.z_curr

    def run(self, n_steps, u0=None, v0=None, record=None):
        """initial_state and n_steps coarse steps, on two buffers updated in place."""
        state = self.initial_state(u0, v0)
        return self._advance(state.z_prev, state.z_curr, 0, n_steps, record)

    def _advance(self, z_prev, z, first, n_steps, record=None):
        """The one LTS loop: coarse steps first, ..., first + n_steps - 1 on z_prev and z.

        Both buffers are updated in place, and each step is checked by
        `_check_divergence` against the scale of the start state z, as CDM's
        loop checks. record(n, t_n, u_n) is invoked after every step when
        given.
        """
        dt = self.cfg.dt
        scale = max(float(np.max(np.abs(z))), 1.0)
        end = first + n_steps
        bwd = self._pulse_samples(first - 1)
        for n in range(first, end):
            fwd = self._pulse_samples(n)
            self._coarse_step(z_prev, z, fwd, bwd)
            z_prev, z, bwd = z, z_prev, fwd
            _check_divergence(n, end - 1, z, z_prev, scale)
            if record is not None:
                record(n + 1, (n + 1) * dt, self.m_inv_sqrt * z)
        return LtsState(z_prev=z_prev, z_curr=z, step=end, t=end * dt)


def _vertical_cut_rules(fractions, depth, gauss_degree):
    """Cut rules of the unit square cut at x = f, for each f, from one geometry pass.

    Each element is the box [-f, 1 - f] x [0, 1] of the one half-plane
    x <= 0. Its width (1 - f) + f rounds to 1, so it maps a reference point
    to -f + s where the unit square maps it to s, and Phi = -(-f + s) there
    is exactly f - s, the value half_plane(1, 0, f) takes on the unit
    square. Each rule is bitwise the one-element rule of that half-plane.
    """
    boxes = [((-f, 1.0 - f), (0.0, 1.0)) for f in fractions]
    return geometry.build_cut_quadratures(
        geometry.half_plane(1.0, 0.0, 0.0), boxes, depth=depth, gauss_degree=gauss_degree
    )


def check_sweep_grid(orders, cut_fractions, schemes, epsilons):
    """Raise ConfigError for a sweep grid that cannot run, before any of it runs.

    Returns the fitted scheme's config for each epsilon (none without it).
    """
    for p in orders:
        tensor_basis(p)  # rejects an unsupported order; the basis is kept
    if not all(0.0 < frac < 1.0 for frac in cut_fractions):
        raise ConfigError("cut fractions must lie in (0, 1)")
    for scheme in schemes:
        if scheme not in LUMPING_SCHEMES:
            raise ConfigError(f"unknown lumping scheme: {scheme}")
    if "fitted" not in schemes:
        return []
    return [MomentFitConfig(epsilon=eps) for eps in epsilons]


def critical_dt_sweep(p, cut_fractions, schemes, epsilons, depth=4):
    """Critical time step ratios for a unit square element with a vertical cut.

    Returns rows (p, fraction, scheme, epsilon, dt_ratio); epsilon is only
    meaningful for the fitted scheme and reported as 0 otherwise. The grid
    is checked first; then each cut rule's shape functions are evaluated
    once, for its stiffness and its HRZ diagonal, and each distinct lumped
    mass of the rule gets one eigen-solve: below the low-volume threshold
    the fitted bound, and so the weights, do not depend on epsilon.
    """
    fit_cfgs = check_sweep_grid([p], cut_fractions, schemes, epsilons)
    basis = tensor_basis(p)
    mat = Material(youngs_modulus=1.0, poisson_ratio=0.0, density=1.0)
    jac = (0.5, 0.5)
    gll_wts = basis.node_weights()

    # the uncut baseline uses the same exactly-integrated stiffness the cut
    # rule converges to, so the ratio tends to 1 in the uncut limit
    full_pts, full_wts = _gauss_square(2 * p)
    k_full = element_stiffness(basis, mat, full_pts, full_wts, jac)
    m_full = np.repeat(mat.density * gll_wts * 0.25, 2)
    dt0 = 2.0 / math.sqrt(element_max_eigenvalue(k_full, m_full))

    rows = []
    for frac, cutq in zip(cut_fractions, _vertical_cut_rules(cut_fractions, depth, 2 * p)):
        shapes = basis.shape_eval_2d_batch(cutq.points)
        k_cut = element_stiffness(basis, mat, cutq.points, cutq.weights, jac, shapes=shapes)
        # one moment system per cut rule; only the QP depends on epsilon
        moments = build_moment_system(basis, cutq) if fit_cfgs else None
        dt_of_mass = {}  # lumpings that give bitwise-equal masses share a solve
        for scheme in schemes:
            if scheme == "fitted":
                lumps = [
                    (cfg.epsilon, solve_fitted_weights(moments, cutq, cfg, basis))
                    for cfg in fit_cfgs
                ]
            else:
                lumps = [(0.0, lump_element(basis, cutq, scheme, shapes=shapes))]
            for eps, lumped in lumps:
                m_e = element_lumped_mass(lumped, mat, jac)
                key = m_e.tobytes()
                if key not in dt_of_mass:
                    dt_of_mass[key] = 2.0 / math.sqrt(element_max_eigenvalue(k_cut, m_e))
                rows.append((p, frac, scheme, eps, dt_of_mass[key] / dt0))
    return rows
