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

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .assembly import (
    CartesianMesh,
    Material,
    apply_dirichlet_to_load,
    assemble_edge_traction,
    assemble_global,
    assemble_interface_traction,
)
from .errors import ConfigError, ReflectionRegime, ZeroReference
from .geometry import _gauss_square
from .integrators import (
    LtsConfig,
    LtsSolver,
    _advance_cdm,
    choose_pt,
    critical_timestep_table,
    run_cdm,
)
from .momentfit import MomentFitConfig


@dataclass(frozen=True)
class HannPulse:
    """p(t) = amplitude * sin(w t) * sin^2(w t / (2 n)) on [0, n/f], else 0."""

    amplitude: float = 1e6
    frequency: float = 20.0
    cycles: int = 5

    @property
    def duration(self):
        return self.cycles / self.frequency

    def __call__(self, t):
        if t < 0.0 or t >= self.duration:
            return 0.0
        w = 2.0 * math.pi * self.frequency
        return self.amplitude * math.sin(w * t) * math.sin(w * t / (2 * self.cycles)) ** 2


@dataclass
class BarBenchmarkConfig:
    lx: float = 1.0
    ly: float = 0.1
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
    depth: int = geometry.DEFAULT_DEPTH

    def __post_init__(self):
        if not 0.0 < self.cut_fraction <= 1.0:
            raise ConfigError("cut_fraction must lie in (0, 1]")
        if self.elements_x < 2:
            raise ConfigError("need at least 2 elements along the bar")
        if not (self.dt > 0 and self.t_end > 0):
            raise ConfigError("dt and t_end must be positive")

    @property
    def h(self):
        return self.lx / (self.elements_x - 1 + self.cut_fraction)

    @property
    def conformal(self):
        return self.cut_fraction >= 1.0

    @property
    def wave_speed(self):
        return math.sqrt(self.material.youngs_modulus / self.material.density)


def analytic_rod_velocity(x, t, cfg):
    """Rod-wave velocity of the Hann pulse, valid before any reflection."""
    c = cfg.wave_speed
    pulse = cfg.pulse
    if t >= cfg.lx / c + pulse.duration:
        raise ReflectionRegime(
            "analytic rod solution is invalid once the packet reflects"
        )
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
        depth=cfg.depth,
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
    if cfg.conformal:
        load = assemble_edge_traction(mesh, cfg.pulse, direction, edge="right")
    else:
        load = assemble_interface_traction(mesh, cfg.pulse, direction)
    load = apply_dirichlet_to_load(load, system.dirichlet_dofs)
    system.load = load
    return mesh, system


def run_bar_cdm(cfg):
    """CDM run to t_end; returns (mesh, system, nodal velocity at t_end)."""
    mesh, system = build_bar_system(cfg)
    n_steps = int(round(cfg.t_end / cfg.dt))
    hist = run_cdm(system, cfg.dt, n_steps)
    u_nm1 = hist.u_prev
    # one extra step for the centered velocity at t_end
    hist2 = run_cdm_continue(system, hist, 1)
    u_np1 = hist2.u_curr
    velocity = (u_np1 - u_nm1) / (2.0 * cfg.dt)
    return mesh, system, velocity


def run_cdm_continue(system, hist, extra_steps):
    """Advance an existing CDM history by extra_steps."""
    return _advance_cdm(system, hist, extra_steps)


def run_bar_lts(cfg, dt_coarse=None, p_t=None):
    """LTS run to t_end with coarse step from the uncut CFL.

    Returns (mesh, system, nodal velocity at t_end, dt_coarse, p_t).
    """
    mesh, system = build_bar_system(cfg)
    table = critical_timestep_table(
        mesh, cfg.material, scheme=cfg.scheme, cfg=MomentFitConfig(epsilon=cfg.epsilon)
    )
    if dt_coarse is None:
        dt_coarse = 0.95 * table.dt_uncut_min
        # land exactly on t_end with an integer number of steps
        n_steps = int(math.ceil(cfg.t_end / dt_coarse))
        dt_coarse = cfg.t_end / n_steps
    else:
        n_steps = int(round(cfg.t_end / dt_coarse))
    if p_t is None:
        p_t = choose_pt(dt_coarse, table.dt_cut_min) if math.isfinite(table.dt_cut_min) else 1
    selection = np.zeros(system.dof_count, dtype=bool)
    selection[system.cut_element_dofs] = True
    selection[system.dirichlet_dofs] = False
    solver = LtsSolver(system, LtsConfig(dt_coarse, p_t, selection))
    state = solver.run(n_steps)
    z_nm1 = state.z_prev
    state = solver.step(state)
    z_np1 = state.z_curr
    velocity = solver.m_inv_sqrt * (z_np1 - z_nm1) / (2.0 * dt_coarse)
    return mesh, system, velocity, dt_coarse, p_t


def l2_velocity_error(mesh, nodal_velocity, cfg, t=None, reference=None):
    """Relative L2 norm of the velocity-field error over the physical domain."""
    t = cfg.t_end if t is None else t
    if reference is None:
        def reference(x, y, tt):
            return analytic_rod_velocity(x, tt, cfg), np.zeros_like(np.asarray(x, dtype=float))

    basis = mesh.basis
    jx, jy = mesh.hx / 2.0, mesh.hy / 2.0
    detj = jx * jy
    num = 0.0
    den = 0.0
    full_rule = _gauss_square(2 * max(mesh.p, mesh.q) + 2)
    for ex, ey in mesh.elements():
        cutq = mesh.cut_quadratures[(ex, ey)]
        if cutq.is_void:
            continue
        if cutq.classification == "full":
            pts, wts = full_rule
        else:
            pts, wts = cutq.points, cutq.weights
        dofs = mesh.node_dofs(mesh.element_nodes(ex, ey))
        vx = nodal_velocity[dofs[0::2]]
        vy = nodal_velocity[dofs[1::2]]
        (x0, _), (y0, _) = mesh.element_box(ex, ey)
        vals, _ = basis.shape_eval_2d_batch(pts)
        uhx = vals @ vx
        uhy = vals @ vy
        px = x0 + (pts[:, 0] + 1.0) * jx
        py = y0 + (pts[:, 1] + 1.0) * jy
        rx, ry = reference(px, py, t)
        rx = np.broadcast_to(np.asarray(rx, dtype=float), px.shape)
        ry = np.broadcast_to(np.asarray(ry, dtype=float), px.shape)
        w = np.asarray(wts, dtype=float) * detj
        num += float(w @ ((uhx - rx) ** 2 + (uhy - ry) ** 2))
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
    """Grid sweep; rows in deterministic grid order."""
    cells = []
    for p in orders:
        for n in elements_list:
            for frac in fractions:
                for scheme in schemes:
                    eps_list = epsilons if scheme == "fitted" else [epsilons[0]]
                    if frac >= 1.0:
                        eps_list = [epsilons[0]]
                    for eps in eps_list:
                        cells.append(
                            replace(
                                base_cfg,
                                order=p,
                                elements_x=n,
                                cut_fraction=frac,
                                scheme=scheme,
                                epsilon=eps,
                            )
                        )
                    if frac >= 1.0:
                        break  # schemes coincide on a conformal mesh
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
    from .integrators import critical_dt_sweep

    rows = []
    for p in orders:
        rows.extend(critical_dt_sweep(p, fractions, schemes, epsilons, depth=depth))
    return rows


def dtcrit_csv_rows(rows):
    out = [DTCRIT_CSV_HEADER]
    for p, frac, scheme, eps, ratio in rows:
        out.append(f"{p},{frac!r},{scheme},{eps!r},{ratio!r}")
    return out
