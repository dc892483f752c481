"""Critical time step estimation and explicit time integration.

Each element's critical step is dt_e = 2/omega_max, where omega_max^2 is
the largest generalized eigenvalue of its stiffness and lumped mass, taken
from the per-element operators that assembly builds once per mesh and
found with LAPACK's `eigh`.

One leap-frog loop integrates the assembled system: local time stepping
(LTS, Diaz & Grote, SIAM J. Sci. Comput. 31, 2009), which advances a
selected DOF subset (cut elements) with step dt/p_t while the rest of the
domain keeps dt. With an empty selection it is the central difference
method (CDM), and `run_cdm` is the LTS with nothing selected and p_t = 1.
The loop runs on the displacement u in summed form (Hairer, Lubich &
Wanner, Geometric Numerical Integration, 2006): it carries u_n and the
increment du = u_n - u_{n-1}; the increment takes the acceleration and
then the state takes the increment, two passes a step where the
three-term form u_{n+1} = 2 u_n - u_{n-1} + a needs three, with less
round-off. A continued run is bitwise one longer run.

Each coarse step does one full stiffness matvec, g = dt^2 M^-1 K (1-P) u_n
with P the selection mask; P and M are diagonal, so they commute. Off
nbhd(sel), the selected DOFs and the DOFs coupled to them, the step is
du <- du - g plus the load dt^2 M^-1 (1-P) f(t_n), then u <- u + du: with
nothing selected, CDM's operations in CDM's order. On nbhd(sel) the p_t
sub-steps run from v_0 = 2 u_n, in the variables v = M^(-1/2) q of the
Diaz-Grote recurrence for z = M^(1/2) u, and du <- v_{p_t} - 2 u_n + du
there. A sub-step applies K[nbhd, sel] as the stiffness's own element
batches, restricted once per solver to the elements that touch sel, to v
as it is, and scales the result by h^2 M^-1, h = dt/p_t.

On nbhd(sel) the coarse step is a fixed polynomial of degree p_t in the
local operator: v_{p_t} is linear in x = [v_0; h2w2; s], h2w2 the coarse
part's contribution and s the p_t load coefficients, so v_{p_t} = W x for
one dense map W of shape (n, 2n + p_t), n = k_local.size. A sweep
multiplies p_t e element-matrix entries, e those of one k_local apply, and
its cost is mostly numpy's per-call overhead on short vectors; W x
multiplies n (2n + p_t) in one call. So when n (2n + p_t) < p_t e and
n <= _MAP_MAX_SIZE, the solver tabulates W once, by running the same
sub-step recurrence on the identity's columns with k_local dense, and each
coarse step does one W x in place of the sweep. W x evaluates the same
polynomial in another order, so it matches the sweep up to round-off; the
cap bounds W's memory and the p_t dense products of its build.

dt^2 and h^2 are folded into diagonal scalings made once per solver. A
load term is added only when the pulse is nonzero, on the DOFs its shape
loads. The pulse is sampled once per sub-step grid point, one coarse
step's samples are reused as the next one's backward samples, and the
start-up skips the sub-step sweep from a zero displacement. The start
state must be zero on the Dirichlet DOFs.

The loop checks the state and flushes its negligible tail by one rule,
`_check_divergence`, called once per step: after each step from t_n with
n % 25 == 0 it checks and flushes in one fused pass, and after the last
step of a call it only checks. The step count is absolute, so a continued
run is bitwise one longer run, and `run(n)` is `initial_state` followed by
n `step`s. The max of |u| (NaN-propagating) must be finite and at most
1e12 times the max of the state the call started from (at least 1), and
then every entry of u and du below _NEGLIGIBLE = 2^-600 times that max is
set to 0. A pulse launched into a body at rest drags a numerical precursor
ahead of the wave whose tail decays into the subnormal range, where each
flop takes a microcode assist, and numpy cannot set the CPU's
flush-to-zero mode. The floor is relative, so it does not depend on units,
and it lies 547 binades below the round-off of the largest entry, so the
flushed entries change no output. A floor at the subnormal limit itself
saves little: the tail regrows below it within a step, and flushing every
step costs more than the subnormal steps do. A time step that is not
positive and finite is rejected.
"""

import math
from dataclasses import dataclass, field

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


def _check_divergence(n, last, u, du, scale):
    """The one check rule of the leap-frog loop, called after the step from t_n.

    When n % _CHECK_EVERY == 0, raise Diverged unless max |u| is finite and
    at most 1e12 x scale, then set every entry of u and of the increment du
    below _NEGLIGIBLE max |u| to 0, in place. When n == last, the step
    ending the call, only check. The max propagates NaN, so testing it
    alone for finiteness covers every entry.
    """
    flush = n % _CHECK_EVERY == 0
    if not (flush or n == last):
        return
    mag = np.abs(u)
    peak = mag.max()
    if not (math.isfinite(peak) and peak <= 1e12 * scale):
        raise Diverged("solution is not finite or exceeded 1e12 x initial scale")
    if flush:
        floor = _NEGLIGIBLE * peak
        np.copyto(u, 0.0, where=mag < floor)
        np.copyto(du, 0.0, where=np.abs(du) < floor)


def _check_start_on_dirichlet(system, u0, v0):
    """Reject a start displacement or velocity that is nonzero on a Dirichlet DOF.

    The loop holds those DOFs through a zero inverse mass: it would hold a
    nonzero start displacement there, and a nonzero start velocity would
    drift.
    """
    for name, values in (("u0", u0), ("v0", v0)):
        if values is not None and np.any(values[system.dirichlet_dofs]):
            raise ConfigError(f"{name} must be zero on the Dirichlet DOFs")


def _loaded_entries(values):
    """(indices, values) of the nonzero entries of a scaled load shape."""
    idx = np.flatnonzero(values)
    return idx, values[idx]


def _cdm_solver(system, dt):
    """The central difference method: the LTS with nothing selected and p_t = 1."""
    return LtsSolver(system, LtsConfig(dt, 1, np.zeros(system.dof_count, dtype=bool)))


def run_cdm(system, dt, n_steps, u0=None, v0=None, record=None):
    """Central differences, the leap-frog loop with nothing refined; returns the final LtsState.

    The increment u_0 - u_{-1} comes from a second-order Taylor start. u0
    and v0 must be zero on the Dirichlet DOFs. record(step, t, u) is
    invoked after every step when given, with an array of its own.
    """
    solver = _cdm_solver(system, dt)
    state = solver.initial_state(u0, v0)
    # run's loop, not LtsSolver.run itself: perfbench's tracer wraps that
    # method to count LTS runs
    return solver._advance(state.u_curr, state.du, 0, n_steps, record)


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
    """Leap-frog state after `step` steps of dt: u_n and the increment u_n - u_{n-1}.

    The loop carries the increment, not u_{n-1}, so a state resumes
    bitwise; `u_prev` is formed from the two on request.
    """

    u_curr: np.ndarray
    du: np.ndarray
    step: int
    dt: float
    # the lumped mass, read only by z_prev and z_curr
    mass: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def u_prev(self):
        return self.u_curr - self.du

    @property
    def z_prev(self):
        """M^(1/2) u_prev, for perfbench's BarLts only; goes with ROADMAP item 1."""
        return np.sqrt(self.mass) * self.u_prev

    @property
    def z_curr(self):
        """M^(1/2) u_curr, for perfbench's BarLts only; goes with ROADMAP item 1."""
        return np.sqrt(self.mass) * self.u_curr


class LtsSolver:
    """Leap-frog with local time stepping on the selected DOFs, on u in summed form.

    One full stiffness matvec per coarse step gives g = c K (1-P) u_n,
    c = dt^2 M^-1, zero on the Dirichlet DOFs, so u stays zero there. The
    sub-steps touch only nbhd(sel), the selected DOFs and the DOFs of the
    elements that hold a selected DOF, and run in v, with v_0 = 2 u_n. A
    sub-step applies `k_local`, the element batches of those elements
    renumbered onto nbhd(sel) once here, which gathers every column off sel
    from a zero slot: it reads v as it is, and its result is scaled by
    h^2 M^-1. Each sub-step is leap-frog in summed form, dv <- dv + a and
    v <- v + dv. Outside nbhd(sel) the sub-step recurrence has no K P v and
    no P f term, so there it has a closed form, and the coarse step is
    CDM's: du <- du - g + c (1-P) f(t_n) and u <- u + du. On nbhd(sel),
    du <- v_{p_t} - 2 u_n + du.

    The p_t sub-steps are linear in x = [v_0; h2w2; s], where h2w2 =
    2 h^2 M^-1 ((1-P) f(t_n) - K (1-P) u_n) and s holds the load
    coefficients s_0 = 2 pulse(t_n) and s_m = pulse(t_n + m h) +
    pulse(t_n - m h). With n = k_local.size and e the element-matrix
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
        # the sub-step grid's offsets m h from t_n
        self._offsets = [m * (dt / p_t) for m in range(p_t)]
        self.nbhd, self.k_local = system.stiffness.restrict(sel)
        nb, n = self.nbhd, self.k_local.size
        self.fine = sel[nb]  # P restricted to nbhd(sel)
        # the full matvec's input mask 1-P, none when nothing is selected,
        # and its output scaling c = dt^2 M^-1
        self._unrefined = np.where(sel, 0.0, 1.0) if sel.any() else None
        m_inv = system.m_inv
        self._c = dt * dt * m_inv
        # on nbhd(sel): h2w2 = -2/p_t^2 (g - c (1-P) f), and the sub-step
        # output scaling h^2 M^-1 (zero on the zero slot)
        self._w2_scale = -2.0 / p_t**2
        self._h2_m_inv = np.append(h2 * m_inv[nb], 0.0)
        # x = [v; h2w2; s]: v and h2w2 on nbhd(sel) and the zero slot, which
        # stays 0, and the p_t load coefficients
        self._x = np.zeros(2 * n + p_t)
        self._v, self._h2w2, self._s = self._x[:n], self._x[n : 2 * n], self._x[2 * n :]
        # each coarse step's temporaries: the full matvec's input and a
        # gather on nbhd(sel)
        self._u_in = np.empty(system.dof_count)
        self._gathered = np.empty(len(nb))
        # the load f_shape pulse(t): its unrefined part, scaled by c, is added
        # to du off nbhd(sel) and to h2w2 on it; its refined part, scaled by
        # h^2 M^-1, to the sub-steps. Each is kept on its nonzero entries
        coarse = self._c * system.f_shape
        coarse[sel] = 0.0
        self._nbhd_load = _loaded_entries(-self._w2_scale * coarse[nb])
        coarse[nb] = 0.0
        self._coarse_load = _loaded_entries(coarse)
        self._fine_load = _loaded_entries(
            np.where(self.fine, h2 * m_inv[nb] * system.f_shape[nb], 0.0)
        )
        k = self.k_local
        e_local = len(k.batch_dofs) * k.batch_k_e.size + k.stack_k_e.size
        self._map = None
        if n <= _MAP_MAX_SIZE and n * (2 * n + p_t) < p_t * e_local:
            self._map = self._tabulate()
            self._v_map = np.empty(n)

    @property
    def m_inv_sqrt(self):
        """M^(-1/2), for perfbench's BarLts only; goes with ROADMAP item 1."""
        return self.system.m_inv_sqrt

    @property
    def sub_step_map(self):
        """W, read-only, with v_{p_t} = W [v_0; h2w2; s], or None.

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

    def _pulse_samples(self, n):
        """pulse(n dt + m h) for m = 0, ..., p_t - 1: coarse step n's sub-step grid, as a list."""
        t_n, pulse = n * self.cfg.dt, self.system.pulse
        return [pulse(t_n + mh) for mh in self._offsets]

    def _sub_steps(self, v, h2w2, loads, apply):
        """The p_t sub-steps: v from v_0 to v_{p_t}, in place.

        v and h2w2 are k_local-sized vectors, zero on the zero slot, or
        stacks of them as rows; apply(v) is k_local applied to each. loads
        yields, per sub-step m, s_m times the refined load's nonzero
        entries, or None when s_m is 0.
        """
        fine_idx = self._fine_load[0]
        for m, load in enumerate(loads):
            a = apply(v)
            a *= self._h2_m_inv
            # a <- h2w2 + h^2 M^-1 (s_m P f - K_local v_m)
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

    def _coarse_step(self, u, du, fwd, bwd):
        """Advance u = u_n and du = u_n - u_{n-1} to u_{n+1} and u_{n+1} - u_n, in place.

        fwd are the load samples of this coarse step's sub-step grid and bwd
        those of the previous one: the point t_n - m h is t_{n-1} + (p_t - m) h.
        One full stiffness matvec gives g = c K (1-P) u_n; on nbhd(sel)
        `_local_step` replaces it by 2 u_n - v_{p_t}. Then du <- du - g,
        plus c (1-P) f(t_n) off nbhd(sel), and u <- u + du.
        """
        u_in = u if self._unrefined is None else np.multiply(self._unrefined, u, out=self._u_in)
        g = self.system.k_matvec(u_in)
        g *= self._c
        if len(self.nbhd):
            self._local_step(u, g, fwd, bwd)
        # du_{n+1/2} = du_{n-1/2} + c ((1-P) f(t_n) - K (1-P) u_n) off
        # nbhd(sel), v_{p_t} - 2 u_n + du_{n-1/2} on it; u_{n+1} = u_n + du_{n+1/2}
        du -= g
        if fwd[0] != 0.0:
            idx, vals = self._coarse_load
            du[idx] += fwd[0] * vals
        u += du

    def _local_step(self, u, g, fwd, bwd):
        """The p_t sub-steps, swept or by the map, from v_0 = 2 u_n on nbhd(sel).

        Overwrites g there with 2 u_n - v_{p_t}. Every temporary but the
        sweep's results lives in a buffer made once.
        """
        # nb is in range; mode="clip" lets take write to out unbuffered
        nb, v, h2w2, s, gathered = self.nbhd, self._v, self._h2w2, self._s, self._gathered
        g.take(nb, out=gathered, mode="clip")
        np.multiply(gathered, self._w2_scale, out=h2w2[:-1])
        if fwd[0] != 0.0:
            idx, vals = self._nbhd_load
            h2w2[idx] += fwd[0] * vals
        u.take(nb, out=gathered, mode="clip")
        np.add(gathered, gathered, out=v[:-1])
        s[0] = 2.0 * fwd[0]
        np.add(fwd[1:], bwd[:0:-1], out=s[1:])

        if self._map is None:
            fine_vals = self._fine_load[1]
            loads = (c * fine_vals if c != 0.0 else None for c in s)
            self._sub_steps(v, h2w2, loads, self.k_local.apply)
        else:
            v = np.matmul(self._map, self._x, out=self._v_map)
        gathered += gathered
        gathered -= v[:-1]
        g[nb] = gathered

    def initial_state(self, u0=None, v0=None):
        """u_0 and du_0 = u_0 - u_{-1}, from u_1 + u_{-1} = q(u_0) and u_1 - u_{-1} = 2 dt v_0.

        q(u_0) is the unloaded coarse step's u_1 + u_{-1}, so the refined
        DOFs start from their own recurrence. One unloaded step from u_0 with
        du = 0 gives d = q(u_0) - 2 u_0 as its increment, and du_0 = -d/2 +
        dt v_0; d is linear in u_0, so from u_0 = 0 it is zero and is not
        run. The load enters only as the Taylor term -dt^2 M^-1 f(0) / 2: a
        run from rest starts from the same du_0 whatever the load does at
        the sub-step times. u0 and v0 must be zero on the Dirichlet DOFs.
        """
        _check_start_on_dirichlet(self.system, u0, v0)
        n = self.system.dof_count
        dt = self.cfg.dt
        u = np.zeros(n) if u0 is None else np.array(u0, dtype=float)
        v = np.zeros(n) if v0 is None else v0
        du = dt * v - 0.5 * dt * dt * (self.system.m_inv * self.system.force(0.0))
        if np.any(u):
            d = np.zeros(n)
            unloaded = np.zeros(self.cfg.p_t)
            self._coarse_step(u.copy(), d, unloaded, unloaded)
            du -= 0.5 * d
        return LtsState(u, du, 0, dt, self.system.lumped_mass)

    def step(self, state):
        """One coarse step of the second-order leap-frog LTS update.

        `_advance` for one step on copies of the state, which is left as it
        is, so the new state is checked against the scale of `state` and
        flushed where `run` would flush it.
        """
        return self._advance(state.u_curr.copy(), state.du.copy(), state.step, 1)

    def displacement(self, state):
        return state.u_curr.copy()

    def run(self, n_steps, u0=None, v0=None, record=None):
        """initial_state and n_steps coarse steps, on its two buffers updated in place."""
        state = self.initial_state(u0, v0)
        return self._advance(state.u_curr, state.du, 0, n_steps, record)

    def _advance(self, u, du, first, n_steps, record=None):
        """The one leap-frog loop: coarse steps first, ..., first + n_steps - 1 on u and du.

        Both buffers are updated in place, and each step is checked by
        `_check_divergence` against the scale of the start u.
        record(n, t_n, u_n) is invoked after every step when given, with an
        array of its own.
        """
        dt = self.cfg.dt
        scale = max(float(np.max(np.abs(u))), 1.0)
        end = first + n_steps
        bwd = self._pulse_samples(first - 1)
        for n in range(first, end):
            fwd = self._pulse_samples(n)
            self._coarse_step(u, du, fwd, bwd)
            bwd = fwd
            _check_divergence(n, end - 1, u, du, scale)
            if record is not None:
                record(n + 1, (n + 1) * dt, u.copy())
        return LtsState(u, du, end, dt, self.system.lumped_mass)


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
