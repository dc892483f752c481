"""The four workloads: inputs made from the seed, and the calls into cutsem.

Each workload is run in phases: `setup` (everything before the time loop),
`solve` (the time loop, or the sweep for dtcrit), `post` (what the CLI does
after the solve) and `check` (this benchmark's own correctness checks,
never timed). cutsem is reached through module attributes, so a tracer
that rewraps those attributes sees every call made here.

The seed changes only inputs that leave the amount of work unchanged:
load amplitude and a common scale of E and rho (wave speed and critical
steps stay the same), where the plate's voids sit on the grid (each void
keeps its offset inside its element), the initial field, and the order
in which the dtcrit sweep visits its grid.
"""

import math
import os
import random

import numpy as np

from cutsem import assembly, benchmark, geometry, integrators, momentfit

import checks

SIZES = {
    "bar_cdm": {"elements": 100, "t_end": 0.3},
    "bar_lts": {"elements": 100, "t_end": 0.3},
    "plate_void": {"elements": 24, "blocks": 2, "steps": 16},
    "dtcrit": {"orders": (4, 5, 6, 7), "eig_samples": 6},
}

# reduced sizes for the benchmark's own tests
SMALL_SIZES = {
    "bar_cdm": {"elements": 40, "t_end": 0.3},
    "bar_lts": {"elements": 40, "t_end": 0.3},
    "plate_void": {"elements": 10, "blocks": 1, "steps": 2},
    "dtcrit": {"orders": (4,), "eig_samples": 2},
}

BAR_ORDER = 5
BAR_CUT_FRACTION = 0.5
PLATE_ORDER = 4
PLATE_DEPTH = 3
PLATE_POISSON = 0.3
# per void: radius and centre offset inside its element, in element sizes
PLATE_VOIDS = [(2.9, 0.37, 0.21), (2.4, 0.61, 0.48), (2.8, 0.52, 0.66), (2.6, 0.83, 0.33)]
PLATE_BUMP_WIDTH = 0.08
DTCRIT_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DTCRIT_SCHEMES = ("fitted", "hrz", "scaled")
DTCRIT_EPSILONS = (0.01, 0.1)
DTCRIT_DEPTH = 4


def _material_scale(rng):
    # E and rho scaled together keep c = sqrt(E / rho) and every dt fixed
    return 2.0 ** rng.uniform(-1.0, 1.0)


class _Bar:
    """The cut bar of cutsem.benchmark: p = 5, one element thick."""

    def __init__(self, seed, size):
        rng = random.Random(seed)
        s = _material_scale(rng)
        self.cfg = benchmark.BarBenchmarkConfig(
            cut_fraction=BAR_CUT_FRACTION,
            order=BAR_ORDER,
            elements_x=size["elements"],
            material=assembly.Material(youngs_modulus=s, poisson_ratio=0.0, density=s),
            pulse=benchmark.HannPulse(amplitude=1e6 * 2.0 ** rng.uniform(-1.0, 1.0)),
            t_end=size["t_end"],
        )
        self.p_t = None

    def _build(self):
        cfg = self.cfg
        self.mesh, self.system = benchmark.build_bar_system(cfg)
        return integrators.critical_timestep_table(
            self.mesh, cfg.material, scheme=cfg.scheme,
            cfg=momentfit.MomentFitConfig(epsilon=cfg.epsilon),
        )

    def _steps(self, dt_max):
        # land exactly on t_end with a whole number of steps
        n = int(math.ceil(self.cfg.t_end / dt_max))
        self.n_steps, self.dt = n, self.cfg.t_end / n

    def post(self, out_dir):
        cfg = self.cfg
        self.error = benchmark.l2_velocity_error(self.mesh, self.velocity, cfg)
        report = benchmark.ErrorReport(
            h=cfg.h, order=cfg.order, cut_fraction=cfg.cut_fraction, scheme=cfg.scheme,
            epsilon=cfg.epsilon, dof_count=self.system.dof_count, dt=self.dt,
            error=self.error, wall_time=0.0,
        )
        _write_rows(out_dir, self, benchmark.convergence_csv_rows([report]))

    def check(self):
        cfg = self.cfg
        ids = np.flatnonzero(self.mesh.node_active)
        x = self.mesh.node_coords(ids)[:, 0]
        inside = x <= cfg.lx + 1e-12
        mass = self.system.lumped_mass[0::2][inside]
        vx = self.velocity[0::2][inside]
        vy = self.velocity[1::2][inside]
        ref = checks.hann_rod_velocity(
            x[inside], cfg.t_end, cfg.pulse.amplitude, cfg.pulse.frequency, cfg.pulse.cycles,
            math.sqrt(cfg.material.youngs_modulus / cfg.material.density),
            cfg.material.youngs_modulus, cfg.lx,
        )
        nodal = checks.nodal_relative_error(
            np.concatenate([mass, mass]), np.concatenate([vx, vy]),
            np.concatenate([ref, np.zeros_like(ref)]),
        )
        limit = checks.bar_error_limit(self.dt, cfg.t_end, cfg.pulse.frequency)
        self.summary = {"dofs": self.system.dof_count, "steps": self.n_steps, "dt": self.dt,
                        "p_t": self.p_t, "l2_error": self.error, "nodal_error": nodal,
                        "limit": limit}
        return checks.check_bar(nodal, self.error, limit, self.p_t)


class BarCdm(_Bar):
    """CDM at 0.95 of the global critical step, which the cut column sets."""

    name = "bar_cdm"

    def setup(self):
        table = self._build()
        self._steps(integrators.CFL_SAFETY * table.dt_c)

    def solve(self):
        hist = integrators.run_cdm(self.system, self.dt, self.n_steps)
        last = benchmark.run_cdm_continue(self.system, hist, 1)
        self.velocity = (last.u_curr - hist.u_prev) / (2.0 * self.dt)


class BarLts(_Bar):
    """LTS at the uncut step with the cut-column DOFs refined."""

    name = "bar_lts"

    def setup(self):
        table = self._build()
        self._steps(integrators.CFL_SAFETY * table.dt_uncut_min)
        self.p_t = integrators.choose_pt(self.dt, table.dt_cut_min)
        system = self.system
        selection = np.zeros(system.dof_count, dtype=bool)
        selection[system.cut_element_dofs] = True
        selection[system.dirichlet_dofs] = False
        self.solver = integrators.LtsSolver(
            system, integrators.LtsConfig(self.dt, self.p_t, selection)
        )

    def solve(self):
        state = self.solver.run(self.n_steps)
        z_nm1 = state.z_prev
        state = self.solver.step(state)
        self.velocity = self.solver.m_inv_sqrt * (state.z_curr - z_nm1) / (2.0 * self.dt)


class PlateVoid:
    """A free p = 4 plate with circular voids, released with a velocity bump, run with LTS."""

    name = "plate_void"

    def __init__(self, seed, size):
        rng = random.Random(seed)
        n, blocks = size["elements"], size["blocks"]
        h = 1.0 / n
        width = n // blocks
        self.voids = []
        for k in range(blocks * blocks):
            radius, fx, fy = PLATE_VOIDS[k % len(PLATE_VOIDS)]
            margin = int(math.ceil(radius)) + 1
            bx, by = (k % blocks) * width, (k // blocks) * width
            ix = bx + rng.randint(margin, width - margin - 1)
            iy = by + rng.randint(margin, width - margin - 1)
            self.voids.append(((ix + fx) * h, (iy + fy) * h, radius * h))
        s = _material_scale(rng)
        self.material = assembly.Material(youngs_modulus=s, poisson_ratio=PLATE_POISSON, density=s)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        self.bump = (rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), math.cos(angle), math.sin(angle))
        self.n, self.n_steps = n, size["steps"]

    def setup(self):
        level_set = geometry.union_of_voids([geometry.circle(*v) for v in self.voids])
        self.mesh = assembly.CartesianMesh(
            1.0, 1.0, self.n, self.n, PLATE_ORDER, level_set=level_set, depth=PLATE_DEPTH
        )
        mf_cfg = momentfit.MomentFitConfig()
        self.system = assembly.assemble_global(self.mesh, self.material, scheme="fitted", cfg=mf_cfg)
        table = integrators.critical_timestep_table(
            self.mesh, self.material, scheme="fitted", cfg=mf_cfg
        )
        self.dt = integrators.CFL_SAFETY * table.dt_uncut_min
        self.p_t = integrators.choose_pt(self.dt, table.dt_cut_min)
        selection = np.zeros(self.system.dof_count, dtype=bool)
        selection[self.system.cut_element_dofs] = True
        self.solver = integrators.LtsSolver(
            self.system, integrators.LtsConfig(self.dt, self.p_t, selection)
        )
        # released with a velocity bump, not a displacement: see CHANGES.md
        # on LtsSolver.initial_state
        xy = self.mesh.node_coords(np.flatnonzero(self.mesh.node_active))
        cx, cy, dx, dy = self.bump
        g = np.exp(-((xy[:, 0] - cx) ** 2 + (xy[:, 1] - cy) ** 2) / (2.0 * PLATE_BUMP_WIDTH**2))
        self.v0 = np.zeros(self.system.dof_count)
        self.v0[0::2] = dx * g
        self.v0[1::2] = dy * g

    def solve(self):
        states = [np.zeros(self.system.dof_count)]
        state = self.solver.run(
            self.n_steps, v0=self.v0, record=lambda step, t, u: states.append(u)
        )
        state = self.solver.step(state)
        states.append(self.solver.displacement(state))
        self.states = states
        self.velocity = (states[-1] - states[-3]) / (2.0 * self.dt)

    def post(self, out_dir):
        rows = ["dofs,p_t,steps,dt,max_displacement,max_velocity",
                f"{self.system.dof_count},{self.p_t},{self.n_steps},{self.dt!r},"
                f"{float(np.abs(self.states[-1]).max())!r},{float(np.abs(self.velocity).max())!r}"]
        _write_rows(out_dir, self, rows)

    def check(self):
        system = self.system
        k = system.k_csr()
        mass = system.lumped_mass
        area = 1.0 - sum(math.pi * r * r for _, _, r in self.voids)
        # each interface chord of length s cuts off at most s^3 / (12 r) of a
        # circle, so a void's area is off by at most pi s^2 / 6; s is a leaf
        # diagonal split into 2^levels sub-chords; twice that is allowed
        chord = math.sqrt(2.0) / self.n / 2.0 ** (PLATE_DEPTH + geometry._SEGMENT_REFINE_LEVELS)
        area_tol = 2.0 * len(self.voids) * math.pi * chord**2 / 6.0
        failures = checks.check_plate_mass(mass, self.material.density, area, area_tol)
        failures += checks.check_stiffness(k)
        failures += checks.check_momentum(mass, self.v0, self.velocity)
        energies = checks.centered_energies(k, mass, self.states, self.dt)
        e0 = 0.5 * float(mass @ self.v0**2)
        failures += checks.check_energy(energies, e0)
        self.summary = {
            "dofs": system.dof_count, "k_nnz": len(system.k_data), "p_t": self.p_t,
            "refined_dofs": int(self.solver.cfg.selection.sum()),
            "cut_elements": sum(c == "cut" for c in self.mesh.classification.values()),
            "void_elements": sum(c == "void" for c in self.mesh.classification.values()),
            "mass_error": float(mass.sum()) / (2.0 * self.material.density) - area,
            "area_tol": area_tol, "energy_max": max(energies) / e0,
        }
        return failures


class Dtcrit:
    """The critical-time-step ratio study with the CLI's default grid."""

    name = "dtcrit"

    def __init__(self, seed, size):
        rng = random.Random(seed)
        self.orders = list(size["orders"])
        self.fractions = list(DTCRIT_FRACTIONS)
        self.schemes = list(DTCRIT_SCHEMES)
        rng.shuffle(self.orders)
        rng.shuffle(self.fractions)
        rng.shuffle(self.schemes)
        self.rng = rng
        self.eig_samples = size["eig_samples"]

    def setup(self):
        pass

    def solve(self):
        self.rows = benchmark.run_dtcrit_sweep(
            self.orders, self.fractions, self.schemes, list(DTCRIT_EPSILONS), depth=DTCRIT_DEPTH
        )

    def post(self, out_dir):
        _write_rows(out_dir, self, benchmark.dtcrit_csv_rows(self.rows))

    def check(self):
        failures = checks.check_dtcrit_rows(self.rows, self.eps_bound_active())
        for row in self.rng.sample(self.rows, self.eig_samples):
            failures += checks.check_dt_ratio(row[4], *self.recompute_omega2(row))
        self.summary = {"rows": len(self.rows)}
        return failures

    def eps_bound_active(self):
        """(p, fraction) cells whose volume ratio reaches the low-volume threshold."""
        threshold = momentfit.MomentFitConfig().low_volume_threshold
        return {
            (p, frac)
            for p in self.orders
            for frac in self.fractions
            if _half_cut(p, frac).volume_ratio >= threshold
        }

    @staticmethod
    def recompute_omega2(row):
        """omega^2 of the row's cut element and of the uncut element, by eigh."""
        from cutsem.geometry import _gauss_square
        from cutsem.gll import tensor_basis

        p, frac, scheme, eps, _ = row
        basis = tensor_basis(p)
        mat = assembly.Material(youngs_modulus=1.0, poisson_ratio=0.0, density=1.0)
        jac = (0.5, 0.5)
        full_pts, full_wts = _gauss_square(2 * p)
        k_full = assembly.element_stiffness(basis, mat, full_pts, full_wts, jac)
        m_full = np.repeat(basis.node_weights() * 0.25, 2)
        cutq = _half_cut(p, frac)
        k_cut = assembly.element_stiffness(basis, mat, cutq.points, cutq.weights, jac)
        cfg = momentfit.MomentFitConfig(epsilon=eps) if scheme == "fitted" else None
        lumped = momentfit.lump_element(basis, cutq, scheme, cfg)
        m_cut = assembly.element_lumped_mass(lumped, mat, jac)
        return (checks.max_generalized_eigenvalue(k_cut, m_cut),
                checks.max_generalized_eigenvalue(k_full, m_full))


def _half_cut(p, frac):
    """The sweep's cut rule: unit square, vertical cut at x = frac."""
    return geometry.build_cut_quadrature(
        geometry.half_plane(1.0, 0.0, frac), ((0.0, 1.0), (0.0, 1.0)),
        depth=DTCRIT_DEPTH, gauss_degree=2 * p,
    )


def _write_rows(out_dir, workload, rows):
    with open(os.path.join(out_dir, f"{workload.name}.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")


WORKLOADS = {cls.name: cls for cls in (BarCdm, BarLts, PlateVoid, Dtcrit)}
