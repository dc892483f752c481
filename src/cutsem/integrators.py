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

Each coarse step does one full stiffness matvec of u_n itself,
g = dt^2 M^-1 K u_n. Off nbhd(sel), the selected DOFs and the DOFs coupled
to them, the step is du <- du - g plus the load dt^2 M^-1 (1-P) f(t_n), P
the selection mask, then u <- u + du: with nothing selected, CDM's
operations in CDM's order. The p_t sub-steps of step h = dt/p_t run on sel
alone, in d = v - v_0 from d_0 = 0, where v_0 = 2 u_n and v = M^(-1/2) q
are the variables of the Diaz-Grote recurrence for z = M^(1/2) u. The
recurrence reads g masked, with c K[:, sel] u_n taken out, c = dt^2 M^-1;
that term of its coarse forcing equals the sub-steps' own
h^2 M^-1 K[:, sel] v_0, so in d they read u_n only through the unmasked g,
and du <- d_{p_t} + du on sel. Off nbhd(sel) the unmasked g is bytewise
the masked one, since no element there holds a selected DOF. A sub-step
applies K[sel, sel] as `ElementBatches.split` builds it once per solver:
each cut element whose DOFs are all selected hosts the sel x sel blocks
of the elements around it, so a sub-step multiplies little beyond the cut
elements' own matrices.

The loop keeps u, du and g in K's element-local layout
(`ElementBatches.to_local`), each DOF at every element entry of it, in the
order of K's element products. So `GlobalSystem.k_matvec` multiplies views
of u with no gather and sums only the copies of the shared DOFs (see
assembly). c and the coarse load sit on every copy, and every copy does
its DOF's arithmetic, so the copies stay bitwise equal and the run is
bitwise the one in DOF layout. The work on nbhd(sel) reads g at each DOF's
first copy and writes its result to every copy. `initial_state`, `step`,
`record` and `LtsState` are in DOF layout; `_advance` converts once a call.

On the ring, nbhd(sel) less sel, the sub-step acceleration a_k is linear in
d_k, and leap-frog in summed form gives d_{p_t} = p_t a_0 / 2 +
sum_{k=1}^{p_t-1} (p_t - k) a_k. So the ring takes one closed-form product
a coarse step: g[ring] = dt^2 M^-1 K u~ there, with u~ = u_n off sel and
u_n + S / p_t^2 on it, S = sum_{k=1}^{p_t-1} (p_t - k) d_k accumulated by
the sweep; that is, g[ring] += h^2 M^-1 K[ring, sel] S, one product of
the (ring, sel) block of a square operator on nbhd(sel) with S padded by
zeros over the ring. The load on the ring is the coarse one.

On nbhd(sel) the coarse step is thus a fixed polynomial of degree p_t in
K[sel, sel], linear in z = [g; pulse(t_n); s_1, ..., s_{p_t-1}] on
nbhd(sel), s_m = pulse(t_n + m h) + pulse(t_n - m h). One kernel,
`LtsSolver._local_step`, defines it on z or on a stack of such rows. On a
small nbhd(sel) a sweep's cost is mostly numpy's per-call overhead on
short vectors, which grows with p_t, and the map's product is cheaper at
every p_t. So when 0 < k < _MAP_MAX_SIZE, k = len(nbhd), the solver folds
the coarse step on nbhd(sel) into one dense map F, g[nbhd] <- F z,
tabulated once by the kernel itself on the unit rows of z, with the
operators dense; otherwise it sweeps the kernel on z each coarse step.
Beyond CDM's step, a folded coarse step costs the p_t pulse samples and
one k (k + p_t) product, with a gather and a scatter. F z evaluates the
sweep's polynomial in another order, so the two agree to round-off; the
cap bounds F's memory and the dense products of its build.

dt^2 and h^2 are folded into diagonal scalings made once per solver. A
load term is added only when the pulse is nonzero, on the DOFs its shape
loads. The pulse is sampled once per sub-step grid point, one coarse
step's samples are reused as the next one's backward samples, and the
start-up skips the sub-step sweep from a zero displacement. The start
state must hold one finite number per DOF and be zero on the Dirichlet
DOFs.

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
# the folded LTS map F of the module docstring: tabulated only for fewer than
# _MAP_MAX_SIZE DOFs in nbhd(sel), which bounds its memory and the dense
# products of its build; built _MAP_BLOCK columns at a time
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


def _start_vector(system, name, values):
    """A given start displacement or velocity as a float array, not copied when it is one.

    Raises ConfigError naming it unless it holds one finite number per DOF
    and is zero on the Dirichlet DOFs: the loop holds those DOFs through a
    zero inverse mass, so it would hold a nonzero start displacement there,
    and a nonzero start velocity would drift.
    """
    values = np.asarray(values, dtype=float)
    # min and max propagate NaN, and allocate no mask
    finite = math.isfinite(values.min(initial=0.0)) and math.isfinite(values.max(initial=0.0))
    if values.shape != (system.dof_count,) or not finite:
        raise ConfigError(f"{name} must hold {system.dof_count} finite numbers")
    if np.any(values[system.dirichlet_dofs]):
        raise ConfigError(f"{name} must be zero on the Dirichlet DOFs")
    return values


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

    One full stiffness matvec per coarse step gives g = c K u_n, c =
    dt^2 M^-1, zero on the Dirichlet DOFs, so u stays zero there. Off
    nbhd(sel), the selected DOFs and the DOFs of the elements that hold a
    selected DOF, the coarse step is CDM's: du <- du - g + c (1-P) f(t_n)
    and u <- u + du. On sel the p_t sub-steps run in d = v - 2 u_n from
    d_0 = 0, which reads u_n only through the unmasked g (module
    docstring). A sub-step applies `k_sel`, K[sel, sel] as element batches
    in sel's numbering, with each host's neighbours folded into it (see
    `ElementBatches.split`), scales the result by h^2 M^-1 and is leap-frog
    in summed form, dd <- dd + a and d <- d + dd, from the coarse forcing
    h2w2 = -2/p_t^2 g and the refined load. The sweep accumulates S =
    sum_{k=1}^{p_t-1} (p_t - k) d_k, and on sel g <- -d_{p_t}, so du <-
    d_{p_t} + du there. On the ring, nbhd(sel) less sel, the sub-steps have a
    closed form: g[ring] += h^2 M^-1 K[ring, sel] S, which is g[ring] =
    c K u~ with u~ = u_n off sel and u_n + S/p_t^2 on it; `k_ring` is
    square in nbhd's numbering, and its (ring, sel) block is K[ring, sel].
    The ring then takes the coarse load.

    The coarse step on nbhd(sel) is linear in z = [g; pulse(t_n); s_1,
    ..., s_{p_t-1}] there, s_m = pulse(t_n + m h) + pulse(t_n - m h), and
    one kernel, `_local_step`, evaluates it on z or on a stack of such
    rows. When 0 < k < _MAP_MAX_SIZE, k = len(nbhd), it is folded here into
    one map F of k rows by k + p_t columns, g[nbhd] = F z, tabulated by the
    kernel itself on the unit rows of z that reach sel, the g rows of sel
    and the load coefficients, with k_sel and k_ring's ring block dense; a
    g row of the ring reaches only itself. F z is the sweep's polynomial,
    so the two agree up to round-off. Each coarse step then costs CDM's
    step, the p_t pulse samples, a gather, one k (k + p_t) product and a
    scatter. Otherwise the kernel is swept on z each coarse step, with the
    sparse operators. `sub_step_map` is F, or None when the sub-steps are
    swept. `nbhd` is sel followed by the ring.

    u, du and g are in K's element-local layout inside the loop (module
    docstring): z reads g at the first copy of each nbhd DOF, and the
    result on nbhd(sel) goes to every copy.

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
        self.ring, self.k_sel, self.k_ring = system.stiffness.split(sel)
        self.sel = np.flatnonzero(sel)
        self.nbhd = np.concatenate([self.sel, self.ring])
        k = len(self.nbhd)
        m_inv = system.m_inv
        stiffness = system.stiffness
        # c = dt^2 M^-1 and the coarse load at every copy of their DOFs
        self._c = stiffness.to_local(dt * dt * m_inv)
        # the sub-step output scaling h^2 M^-1 on sel, zero on the slot, and
        # on the ring
        self._h2_m_inv = np.append(h2 * m_inv[self.sel], 0.0)
        self._h2_m_inv_ring = h2 * m_inv[self.ring]
        # the load f_shape pulse(t): scaled by c, it is added to du on every
        # unselected DOF; its selected part, scaled by h^2 M^-1, to the
        # sub-steps. Each is kept on its nonzero entries
        coarse = dt * dt * m_inv * system.f_shape
        coarse[sel] = 0.0
        self._coarse_load = _loaded_entries(stiffness.to_local(coarse))
        self._fine_load = _loaded_entries(self._h2_m_inv[:-1] * system.f_shape[self.sel])
        self._map = self._tabulate() if 0 < k < _MAP_MAX_SIZE else None
        # z = [g; pulse(t_n), s_1, ..., s_{p_t - 1}] on nbhd(sel), g read at
        # each DOF's first copy; the result on nbhd(sel) goes to every copy
        self._z = np.empty(k + p_t)
        self._z_g, self._z_s = self._z[:k], self._z[k:]
        self._gathered = np.empty(k)
        self._nbhd_first = stiffness.first_copy[self.nbhd]
        row = np.full(system.dof_count, -1)
        row[self.nbhd] = np.arange(k)
        row = stiffness.to_local(row)
        self._nbhd_copies = np.flatnonzero(row >= 0)
        self._nbhd_rows = row[self._nbhd_copies]

    @property
    def m_inv_sqrt(self):
        """M^(-1/2), for perfbench's BarLts only; goes with ROADMAP item 1."""
        return self.system.m_inv_sqrt

    @property
    def sub_step_map(self):
        """F, read-only, with g[nbhd] = F z after the matvec of u_n, or None.

        z = [g; pulse(t_n); s_1, ..., s_{p_t - 1}] on nbhd(sel), g =
        dt^2 M^-1 K u_n there, so F's shape is (k, k + p_t), k = len(nbhd).
        None when the sub-steps run as a sweep.
        """
        return self._map

    def _tabulate(self):
        """F: `_local_step` on the unit rows of z that reach sel, _MAP_BLOCK at a time.

        Column j of F is g[nbhd] after the coarse step from z = e_j. The
        unit rows of sel's g and of the load coefficients are swept as the
        rows of a stack, with k_sel and k_ring's (ring, sel) block dense; a
        g row of the ring reaches only itself, F's identity there.
        """
        n, k, p_t = len(self.sel), len(self.nbhd), self.cfg.p_t
        k_sel_t = np.ascontiguousarray(self.k_sel.to_dense().T)
        k_ring = self._h2_m_inv_ring[:, None] * self.k_ring.to_dense()[n:-1, :n]
        f = np.eye(k, k + p_t)
        columns = np.r_[:n, k : k + p_t]
        for j in range(0, len(columns), _MAP_BLOCK):
            cols = columns[j : j + _MAP_BLOCK]
            z = np.zeros((len(cols), k + p_t))
            z[np.arange(len(cols)), cols] = 1.0
            f[:, cols] = self._local_step(
                z, lambda d: d @ k_sel_t, lambda s: (k_ring @ s[:, :n].T).T
            ).T
        f.flags.writeable = False
        return f

    def _pulse_samples(self, n):
        """pulse(n dt + m h) for m = 0, ..., p_t - 1: coarse step n's sub-step grid, as a list."""
        t_n, pulse = n * self.cfg.dt, self.system.pulse
        return [pulse(t_n + mh) for mh in self._offsets]

    def _ring_step(self, acc):
        """h^2 M^-1 K[ring, sel] S: `k_ring` on S, given as acc on sel and the slot, padded.

        The padding puts zeros over the ring, so k_ring's ring rows read
        only its (ring, sel) block.
        """
        n = len(self.sel)
        s = np.zeros(len(self.nbhd) + 1)
        s[:n] = acc[:n]
        ring = self.k_ring.apply(s)[n:-1]
        ring *= self._h2_m_inv_ring
        return ring

    def _local_step(self, z, apply_sel, ring):
        """The coarse step on nbhd(sel) from z: the p_t sub-steps on sel, the ring in closed form.

        z = [g; pulse(t_n); s_1, ..., s_{p_t - 1}] on nbhd(sel), g = c K u_n,
        or a stack of such rows; returns g[nbhd] after the step, a vector or
        stack of k entries. On sel the sub-steps run in d from d_0 = 0 with
        the forcing h2w2 = -2/p_t^2 g and the refined load s_m f, s_0 = 2
        pulse(t_n): apply_sel(d) is k_sel applied to d on sel and the zero
        slot, or to each row of a stack of them, and the result there is
        -d_{p_t}. The sweep accumulates S = sum_{k < p_t} (p_t - k) d_k, on
        sel and the slot like d, and ring(S) is h^2 M^-1 K[ring, sel] S,
        added to g on the ring.
        """
        n, k, p_t = len(self.sel), len(self.nbhd), self.cfg.p_t
        g, s = z[..., :k], z[..., k:]
        lead = z.shape[:-1]
        h2w2, d, acc = np.zeros((3,) + lead + (n + 1,))
        np.multiply(g[..., :n], -2.0 / p_t**2, out=h2w2[..., :n])
        fine_idx, fine_vals = self._fine_load
        # the sub-steps with a load, found once: a test per sub-step costs more
        loaded = np.any(np.reshape(s, (-1, p_t)) != 0.0, axis=0).tolist()
        for m in range(p_t):
            a = apply_sel(d)
            a *= self._h2_m_inv
            # a <- h2w2 + h^2 M^-1 (s_m f - K[sel, sel] d_m)
            np.subtract(h2w2, a, out=a)
            if loaded[m]:
                coef = 2.0 * s[..., 0] if m == 0 else s[..., m]
                a[..., fine_idx] += np.multiply.outer(coef, fine_vals)
            # d_{m+1} = d_m + dd_{m+1/2}, dd_{m+1/2} = dd_{m-1/2} + a; the
            # first sub-step is a half step from d_{-1} = d_1
            if m == 0:
                a *= 0.5
                dd = a
            else:
                dd += a
            d += dd
            acc += (p_t - 1 - m) * d  # weight 0 on d_{p_t}
        out = np.empty(lead + (k,))
        np.negative(d[..., :n], out=out[..., :n])
        np.add(g[..., n:], ring(acc), out=out[..., n:])
        return out

    def _coarse_step(self, u, du, fwd, bwd):
        """Advance u = u_n and du = u_n - u_{n-1} to u_{n+1} and u_{n+1} - u_n, in place.

        u and du are in K's element-local layout (`ElementBatches.to_local`),
        every copy of a DOF doing that DOF's arithmetic. fwd are the load
        samples of this coarse step's sub-step grid and bwd those of the
        previous one: the point t_n - m h is t_{n-1} + (p_t - m) h. One full
        stiffness matvec gives g = c K u_n; on nbhd(sel) F z under the folded
        map, or `_local_step` on z, replaces it by the sub-steps' g, read at
        each DOF's first copy and written to every copy. Then du <- du - g,
        plus c f(t_n) off sel, and u <- u + du.
        """
        g = self.system.k_matvec(u)
        g *= self._c
        if len(self.sel):
            # the positions are in range; mode="clip" lets take write to out unbuffered
            g.take(self._nbhd_first, out=self._z_g, mode="clip")
            self._z_s[0] = fwd[0]
            np.add(fwd[1:], bwd[:0:-1], out=self._z_s[1:])
            if self._map is not None:
                local = np.matmul(self._map, self._z, out=self._gathered)
            else:
                local = self._local_step(self._z, self.k_sel.apply, self._ring_step)
            g[self._nbhd_copies] = local[self._nbhd_rows]
        # du_{n+1/2} = du_{n-1/2} - g + c f(t_n) off sel, d_{p_t} + du_{n-1/2}
        # on it; u_{n+1} = u_n + du_{n+1/2}
        du -= g
        if fwd[0] != 0.0:
            idx, vals = self._coarse_load
            du[idx] += fwd[0] * vals
        u += du

    def initial_state(self, u0=None, v0=None):
        """u_0 and du_0 = u_0 - u_{-1}, from u_1 + u_{-1} = q(u_0) and u_1 - u_{-1} = 2 dt v_0.

        q(u_0) is the unloaded coarse step's u_1 + u_{-1}, so the refined
        DOFs start from their own recurrence. One unloaded step from u_0 with
        du = 0 gives d = q(u_0) - 2 u_0 as its increment, and du_0 = -d/2 +
        dt v_0; d is linear in u_0, so from u_0 = 0 it is zero and is not
        run. The load enters only as the Taylor term -dt^2 M^-1 f(0) / 2: a
        run from rest starts from the same du_0 whatever the load does at
        the sub-step times. u0 and v0, when given, must hold one finite
        number per DOF and be zero on the Dirichlet DOFs.
        """
        n = self.system.dof_count
        dt = self.cfg.dt
        stiffness = self.system.stiffness
        # the state does not alias a given u0
        u = np.zeros(n) if u0 is None else np.array(_start_vector(self.system, "u0", u0))
        v = np.zeros(n) if v0 is None else _start_vector(self.system, "v0", v0)
        du = dt * v - 0.5 * dt * dt * (self.system.m_inv * self.system.force(0.0))
        if np.any(u):
            u_local = stiffness.to_local(u)
            d = np.zeros_like(u_local)
            unloaded = np.zeros(self.cfg.p_t)
            self._coarse_step(u_local, d, unloaded, unloaded)
            du -= 0.5 * stiffness.from_local(d)
        return LtsState(u, du, 0, dt, self.system.lumped_mass)

    def step(self, state):
        """One coarse step of the second-order leap-frog LTS update.

        `_advance` for one step from the state, which is left as it
        is, so the new state is checked against the scale of `state` and
        flushed where `run` would flush it. A state of another dt or DOF
        count raises ConfigError before the step.
        """
        return self._advance(*self._resume(state), state.step, 1)

    def _resume(self, state):
        """The state's u and du; ConfigError unless this solver can continue it."""
        n = self.system.dof_count
        if state.dt != self.cfg.dt:
            raise ConfigError(f"the state was stepped at dt = {state.dt!r}, not at {self.cfg.dt!r}")
        if np.shape(state.u_curr) != (n,) or np.shape(state.du) != (n,):
            raise ConfigError(f"the state must hold one value per DOF, {n}")
        return state.u_curr, state.du

    def displacement(self, state):
        return state.u_curr.copy()

    def run(self, n_steps, u0=None, v0=None, record=None):
        """initial_state and n_steps coarse steps."""
        state = self.initial_state(u0, v0)
        return self._advance(state.u_curr, state.du, 0, n_steps, record)

    def _advance(self, u, du, first, n_steps, record=None):
        """The one leap-frog loop: coarse steps first, ..., first + n_steps - 1 from u and du.

        u and du, in DOF layout, are left as they are: the loop steps them
        in K's element-local layout and returns the state in DOF layout.
        Each step is checked by `_check_divergence` against the scale of the
        start u. record(n, t_n, u_n) is invoked after every step when given,
        with an array of its own.
        """
        dt = self.cfg.dt
        stiffness = self.system.stiffness
        scale = max(float(np.max(np.abs(u))), 1.0)
        u, du = stiffness.to_local(u), stiffness.to_local(du)
        end = first + n_steps
        bwd = self._pulse_samples(first - 1)
        for n in range(first, end):
            fwd = self._pulse_samples(n)
            self._coarse_step(u, du, fwd, bwd)
            bwd = fwd
            _check_divergence(n, end - 1, u, du, scale)
            if record is not None:
                record(n + 1, (n + 1) * dt, stiffness.from_local(u))
        u, du = stiffness.from_local(u), stiffness.from_local(du)
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
    # a cut below the sliver volume ratio leaves a void rule, with no points
    # to evaluate; the factor 2 keeps the volume's round-off clear of it, as
    # for the bar's cut_fraction
    low = 2.0 * geometry.SLIVER_VOLUME_RATIO
    if not all(low <= frac < 1.0 for frac in cut_fractions):
        raise ConfigError(f"cut fractions must lie in [{low!r}, 1)")
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
