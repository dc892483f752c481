"""The 2D cut-bar wave benchmark and its parameter sweeps.

A bar of unit length and 0.1 thickness is meshed with one element across
the thickness and N columns along x; the mesh overshoots to length
lx + h - dlx and is cut by the plane x = lx, so the last column keeps the
physical fraction dlx/h. A Hann-windowed pressure pulse on the cut
interface launches a rod wave whose analytic velocity validates the
simulation (nu = 0 makes the plane-strain solution match the 1D rod).
With cut_fraction = 1 the mesh ends exactly at lx and the conformal-SEM
baseline is run instead (no level set, edge traction).
"""

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import geometry
from .assembly import (
    CartesianMesh,
    Material,
    assemble_edge_traction,
    assemble_global,
    assemble_interface_traction,
)
from .errors import ConfigError, ReflectionRegime, ZeroReference
from .geometry import _gauss_square
from .integrators import (
    CFL_SAFETY,
    LtsConfig,
    LtsSolver,
    _cdm_solver,
    check_sweep_grid,
    choose_pt,
    critical_dt_sweep,
    critical_timestep_table,
    run_cdm,
)
from .momentfit import MomentFitConfig


@dataclass(frozen=True)
class HannPulse:
    """p(t) = amplitude * sin(w t) * sin^2(w t / (2 n)) on [0, n/f], else 0.

    Every study runs the one pulse shape, f = 20 and n = 5; only the
    amplitude is set.
    """

    amplitude: float = 1e6
    frequency: ClassVar[float] = 20.0
    cycles: ClassVar[int] = 5
    duration: ClassVar[float] = cycles / frequency

    def __call__(self, t):
        if t < 0.0 or t >= self.duration:
            return 0.0
        w = 2.0 * math.pi * self.frequency
        return self.amplitude * math.sin(w * t) * math.sin(w * t / (2 * self.cycles)) ** 2


@dataclass
class BarBenchmarkConfig:
    """One cut-bar run. Every study runs the one bar, lx = 1 by ly = 0.1."""

    lx: ClassVar[float] = 1.0
    ly: ClassVar[float] = 0.1
    cut_fraction: float = 0.5  # physical fraction dlx/h of the cut column; 1 = conformal
    order: int = 5
    elements_x: int = 20
    material: Material = field(
        default_factory=lambda: Material(youngs_modulus=1.0, poisson_ratio=0.0, density=1.0)
    )
    pulse: HannPulse = field(default_factory=HannPulse)
    dt: float = 1e-5
    t_end: float = 0.4
    scheme: str = "fitted"
    epsilon: float = 0.01

    def __post_init__(self):
        # a cut column whose volume ratio is below the sliver ratio gets a
        # void rule, and the pulse on its interface would load nothing; the
        # factor 2 keeps the volume's round-off clear of the threshold
        if not 2.0 * geometry.SLIVER_VOLUME_RATIO <= self.cut_fraction <= 1.0:
            raise ConfigError(
                f"cut_fraction must lie in [{2.0 * geometry.SLIVER_VOLUME_RATIO!r}, 1]"
            )
        if self.elements_x < 2:
            raise ConfigError("need at least 2 elements along the bar")
        if not (self.dt > 0 and self.t_end > 0):
            raise ConfigError("dt and t_end must be positive")
        if self.t_end > self.reflection_time:
            raise ConfigError(
                f"t_end must not exceed {self.reflection_time!r}, where the rod solution ends"
            )
        # the error is taken against the analytic solution at t_end, so the
        # run must land on it
        steps = self.t_end / self.dt
        if not math.isfinite(steps) or round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(f"t_end / dt must be a whole number of steps, got {steps!r}")

    @property
    def h(self):
        return self.lx / (self.elements_x - 1 + self.cut_fraction)

    @property
    def conformal(self):
        return self.cut_fraction >= 1.0

    @property
    def wave_speed(self):
        return math.sqrt(self.material.youngs_modulus / self.material.density)

    @property
    def reflection_time(self):
        """lx / c: the wave front reaches the clamped end, and the analytic rod
        solution, and so the error, ends here."""
        return self.lx / self.wave_speed


def analytic_rod_velocity(x, t, cfg):
    """Rod-wave velocity of the Hann pulse, valid up to cfg.reflection_time."""
    c = cfg.wave_speed
    pulse = cfg.pulse
    if t > cfg.reflection_time:
        raise ReflectionRegime("analytic rod solution is invalid once the wave front reflects")
    x = np.asarray(x, dtype=float)
    ell = x + c * t - cfg.lx
    w = 2.0 * math.pi * pulse.frequency
    amp = c * pulse.amplitude / cfg.material.youngs_modulus
    v = amp * np.sin(w * ell / (2 * c * pulse.cycles)) ** 2 * np.sin(w * ell / c)
    window = (ell >= 0.0) & (ell <= c * pulse.duration) & (x <= cfg.lx)
    return np.where(window, v, 0.0)


def build_bar_mesh(cfg):
    h = cfg.h
    level_set = None if cfg.conformal else geometry.half_plane(1.0, 0.0, cfg.lx)
    mesh = CartesianMesh(
        lx=cfg.elements_x * h,
        ly=cfg.ly,
        nx=cfg.elements_x,
        ny=1,
        p=cfg.order,
        level_set=level_set,
    )
    mesh.fix_nodes(lambda x, y: np.abs(x) < 1e-9 * h)
    return mesh


def build_bar_system(cfg):
    mesh = build_bar_mesh(cfg)
    mf_cfg = MomentFitConfig(epsilon=cfg.epsilon)
    system = assemble_global(mesh, cfg.material, scheme=cfg.scheme, cfg=mf_cfg)
    # the analytic solution (positive velocity trailing the pulse) fixes the
    # traction orientation along +x on the cut plane
    direction = (1.0, 0.0)
    traction = assemble_edge_traction if cfg.conformal else assemble_interface_traction
    system.f_shape = traction(mesh, direction)
    system.pulse = cfg.pulse
    return mesh, system


def _centred_velocity(solver, state):
    """(u_{n+1} - u_{n-1}) / (2 dt) at the state's step n: u_prev, then one more step."""
    return (solver.step(state).u_curr - state.u_prev) / (2.0 * state.dt)


def run_bar_cdm(cfg):
    """CDM run to t_end; returns (mesh, system, nodal velocity at t_end)."""
    mesh, system = build_bar_system(cfg)
    n_steps = int(round(cfg.t_end / cfg.dt))
    state = run_cdm(system, cfg.dt, n_steps)
    return mesh, system, _centred_velocity(_cdm_solver(system, cfg.dt), state)


def run_cdm_continue(system, hist, extra_steps):
    """Advance a CDM state by extra_steps, bitwise one longer `run_cdm`.

    Its one caller outside the tests is perfbench's BarCdm (ROADMAP item 1).
    """
    solver = _cdm_solver(system, hist.dt)
    return solver._advance(*solver._resume(hist), hist.step, extra_steps)


def run_bar_lts(cfg):
    """LTS run to t_end with coarse step from the uncut CFL.

    Returns (mesh, system, nodal velocity at t_end, dt_coarse, p_t).
    """
    mesh, system = build_bar_system(cfg)
    table = critical_timestep_table(
        mesh, cfg.material, scheme=cfg.scheme, cfg=MomentFitConfig(epsilon=cfg.epsilon)
    )
    # land exactly on t_end with an integer number of steps
    n_steps = int(math.ceil(cfg.t_end / (CFL_SAFETY * table.dt_uncut_min)))
    dt_coarse = cfg.t_end / n_steps
    p_t = choose_pt(dt_coarse, table.dt_cut_min)
    selection = np.zeros(system.dof_count, dtype=bool)
    selection[system.cut_element_dofs] = True
    solver = LtsSolver(system, LtsConfig(dt_coarse, p_t, selection))
    velocity = _centred_velocity(solver, solver.run(n_steps))
    return mesh, system, velocity, dt_coarse, p_t


def l2_velocity_error(mesh, nodal_velocity, cfg, reference=None):
    """Relative L2 norm of the velocity-field error over the physical domain at t_end.

    One loop over rule groups: the full elements form one group on the
    shared (2p + 2)-point Gauss rule, and each cut element is a group on its
    own rule. A group's shape values are evaluated once, its velocities
    gathered from the DOF table at once, interpolated with one product and
    compared with one reference evaluation on all its points.
    """
    if reference is None:
        def reference(x, y, tt):
            return analytic_rod_velocity(x, tt, cfg), np.zeros_like(np.asarray(x, dtype=float))

    jx, jy = mesh.hx / 2.0, mesh.hy / 2.0
    # element i of mesh.elements() is row i of the DOF table
    full, groups = [], []
    for i, key in enumerate(mesh.elements()):
        if mesh.classification[key] == "full":
            full.append(i)
        elif mesh.classification[key] == "cut":
            cutq = mesh.cut_quadratures[key]
            groups.append(([i], cutq.points, cutq.weights))
    num = den = 0.0
    for elems, pts, wts in [(full, *_gauss_square(2 * mesh.p + 2)), *groups]:
        elems = np.array(elems, dtype=int)
        vals, _ = mesh.basis.shape_eval_2d_batch(pts)
        v = nodal_velocity[mesh.element_dof_table[elems]]
        ey, ex = np.divmod(elems, mesh.nx)
        px = (ex[:, None] * mesh.hx + (pts[:, 0] + 1.0) * jx).ravel()
        py = (ey[:, None] * mesh.hy + (pts[:, 1] + 1.0) * jy).ravel()
        rx, ry = (np.broadcast_to(r, px.shape) for r in reference(px, py, cfg.t_end))
        w = np.tile(wts * (jx * jy), len(elems))
        err_x = (v[:, 0::2] @ vals.T).ravel() - rx
        err_y = (v[:, 1::2] @ vals.T).ravel() - ry
        num += float(w @ (err_x**2 + err_y**2))
        den += float(w @ (rx**2 + ry**2))
    if den < 1e-30:
        raise ZeroReference("reference velocity field is numerically zero")
    return math.sqrt(num / den)


@dataclass(frozen=True)
class ErrorReport:
    h: float
    order: int
    cut_fraction: float
    scheme: str
    epsilon: float
    dof_count: int
    dt: float
    error: float
    wall_time: float


def run_bar_case(cfg):
    start = time.perf_counter()
    mesh, system, velocity = run_bar_cdm(cfg)
    err = l2_velocity_error(mesh, velocity, cfg)
    wall = time.perf_counter() - start
    return ErrorReport(
        h=cfg.h,
        order=cfg.order,
        cut_fraction=cfg.cut_fraction,
        scheme=cfg.scheme if not cfg.conformal else "sem",
        epsilon=cfg.epsilon,
        dof_count=system.dof_count,
        dt=cfg.dt,
        error=err,
        wall_time=wall,
    )


def run_bar_convergence(base_cfg, elements_list, orders, fractions, schemes, epsilons):
    """Grid sweep; rows in grid order: order, elements, fraction, then (scheme, epsilon).

    Only the fitted scheme runs every epsilon, the others the first. A
    conformal mesh, on which the schemes coincide, runs only the first
    (scheme, epsilon) pair. The whole grid is checked before any cell runs.
    """
    # the cut fractions are checked by each cell's config, which allows 1
    check_sweep_grid(orders, [], schemes, epsilons)
    pairs = [(s, e) for s in schemes for e in (epsilons if s == "fitted" else epsilons[:1])]
    cells = [
        replace(base_cfg, order=p, elements_x=n, cut_fraction=frac, scheme=s, epsilon=e)
        for p, n, frac in itertools.product(orders, elements_list, fractions)
        for s, e in (pairs[:1] if frac >= 1.0 else pairs)
    ]
    return [run_bar_case(c) for c in cells]


CONVERGENCE_CSV_HEADER = "h,order,cut_fraction,scheme,epsilon,dofs,dt,error,wall_time"


def convergence_csv_rows(reports):
    rows = [CONVERGENCE_CSV_HEADER]
    for r in reports:
        rows.append(
            f"{r.h!r},{r.order},{r.cut_fraction!r},{r.scheme},{r.epsilon!r},"
            f"{r.dof_count},{r.dt!r},{r.error!r},{r.wall_time!r}"
        )
    return rows


DTCRIT_CSV_HEADER = "order,cut_fraction,scheme,epsilon,dt_ratio"


def run_dtcrit_sweep(orders, fractions, schemes, epsilons, depth=4):
    # the whole grid is checked before any order runs
    check_sweep_grid(orders, fractions, schemes, epsilons)
    rows = []
    for p in orders:
        rows.extend(critical_dt_sweep(p, fractions, schemes, epsilons, depth=depth))
    return rows


def dtcrit_csv_rows(rows):
    out = [DTCRIT_CSV_HEADER]
    for p, frac, scheme, eps, ratio in rows:
        out.append(f"{p},{frac!r},{scheme},{eps!r},{ratio!r}")
    return out
