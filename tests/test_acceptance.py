"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line.
Tolerances are pinned as module constants next to the criterion they gate.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cutsem.assembly import (
    CartesianMesh,
    Material,
    assemble_global,
    element_stiffness,
)
from cutsem.benchmark import BarBenchmarkConfig, run_bar_case, run_bar_cdm, run_bar_lts
from cutsem.errors import Diverged
from cutsem.geometry import build_cut_quadrature, circle, half_plane
from cutsem.gll import gll_rule, tensor_basis
from cutsem.integrators import (
    LtsConfig,
    LtsSolver,
    critical_dt_sweep,
    critical_timestep_table,
    run_cdm,
)
from cutsem.momentfit import (
    MomentFitConfig,
    build_moment_system,
    hrz_weights,
    lumping_residual,
    min_weight_bound,
    scaled_weights,
    solve_fitted_weights,
)

from helpers import brute_force_fitted_weights

UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))
MAT = Material(youngs_modulus=1.0, poisson_ratio=0.0, density=1.0)

# criterion 1
TOL_GLL_EXACTNESS = 1e-12
TOL_GLL_CLOSED_FORM = 1e-13
# criterion 2
TOL_CUT_MONOMIAL = 1e-10
TOL_CIRCLE_VE = 1e-5
# criterion 3
TOL_MOMENT_EQUALITY = 1e-12
TOL_FULL_WEIGHTS = 1e-10
TOL_ORACLE = 1e-8
# criterion 4
DT_UNCUT_LIMIT = (0.99, 1.01)
DT_SWEEP_FRACTIONS = np.linspace(0.13, 0.91, 20)
# criterion 5
TOL_CONFORMAL_FINEST = 1e-2
# criterion 7
TOL_ENERGY_DRIFT = 0.02
# criterion 8
TOL_LTS_BITMATCH = 1e-12
TOL_LTS_VS_CDM = 0.005
# criterion 9
TOL_CONSERVATION = 1e-8


def report(number, label, passed):
    print(f"criterion {number} ({label}): {'PASS' if passed else 'FAIL'}", flush=True)
    assert passed, f"criterion {number} ({label}) failed"


def test_criterion_1_gll_correctness():
    ok = True
    for p in range(1, 11):
        rule = gll_rule(p)
        for k in range(2 * p):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            ok &= abs(float(rule.weights @ rule.nodes**k) - exact) <= TOL_GLL_EXACTNESS
    r2 = gll_rule(2)
    ok &= np.allclose(r2.nodes, [-1, 0, 1], atol=TOL_GLL_CLOSED_FORM)
    ok &= np.allclose(r2.weights, [1 / 3, 4 / 3, 1 / 3], atol=TOL_GLL_CLOSED_FORM)
    r4 = gll_rule(4)
    s = math.sqrt(3.0 / 7.0)
    ok &= np.allclose(r4.nodes, [-1, -s, 0, s, 1], atol=TOL_GLL_CLOSED_FORM)
    ok &= np.allclose(
        r4.weights, [1 / 10, 49 / 90, 32 / 45, 49 / 90, 1 / 10], atol=TOL_GLL_CLOSED_FORM
    )
    report(1, "GLL quadrature and closed-form rules", ok)


def test_criterion_2_cut_quadrature_exactness():
    ok = True
    degree = 8
    for frac in (0.25, 0.5, 0.76):
        cutq = build_cut_quadrature(
            half_plane(1.0, 0.0, frac), UNIT_BOX, depth=4, gauss_degree=degree
        )
        xc = 2.0 * frac - 1.0
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                got = float(cutq.weights @ (cutq.points[:, 0] ** a * cutq.points[:, 1] ** b))
                exact = ((xc ** (a + 1) - (-1.0) ** (a + 1)) / (a + 1)) * (
                    (1.0 - (-1.0) ** (b + 1)) / (b + 1)
                )
                ok &= abs(got - exact) <= TOL_CUT_MONOMIAL
    exact_ve = 1.0 - math.pi * 0.25 / 4.0
    cutq = build_cut_quadrature(circle(0.0, 0.0, 0.5), UNIT_BOX, depth=5, gauss_degree=degree)
    ok &= abs(cutq.volume_ratio - exact_ve) < TOL_CIRCLE_VE
    report(2, "cut-quadrature exactness", ok)


def test_criterion_3_moment_fitting_optimality():
    ok = True
    # full element: fitted weights coincide with the tensor GLL weights
    basis = tensor_basis(5)
    full = build_cut_quadrature(half_plane(1.0, 0.0, 2.0), UNIT_BOX, depth=0, gauss_degree=10)
    sys_full = build_moment_system(basis, full)
    out = solve_fitted_weights(sys_full, full, MomentFitConfig(), basis)
    ok &= np.max(np.abs(out.weights - basis.node_weights())) <= TOL_FULL_WEIGHTS

    # half-cut element: both constraints satisfied exactly
    cutq = build_cut_quadrature(half_plane(1.0, 0.0, 0.5), UNIT_BOX, depth=4, gauss_degree=10)
    sys_half = build_moment_system(basis, cutq)
    cfg = MomentFitConfig(epsilon=0.01)
    out = solve_fitted_weights(sys_half, cutq, cfg, basis)
    ok &= abs(out.weights.sum() - 2.0) <= TOL_MOMENT_EQUALITY
    w_min = min_weight_bound(basis, cutq.volume_ratio, cfg)
    ok &= bool(np.all(out.weights >= w_min - TOL_MOMENT_EQUALITY))

    # fitted residual never exceeds the comparators over randomized cuts
    rng = np.random.default_rng(42)
    for p in range(3, 9):
        b = tensor_basis(p)
        for _ in range(20):
            frac = rng.uniform(0.08, 0.95)
            ang = rng.uniform(-0.3, 0.3)
            ls = half_plane(math.cos(ang), math.sin(ang), frac)
            cq = build_cut_quadrature(ls, UNIT_BOX, depth=4, gauss_degree=2 * p)
            if cq.classification != "cut":
                continue
            sys_p = build_moment_system(b, cq)
            fitted = solve_fitted_weights(sys_p, cq, cfg, b)
            r_hrz = lumping_residual(sys_p, hrz_weights(b, cq).weights)
            r_scaled = lumping_residual(sys_p, scaled_weights(b, cq.volume_ratio).weights)
            ok &= fitted.residual_norm <= r_hrz + 1e-12
            ok &= fitted.residual_norm <= r_scaled + 1e-12

    # brute-force active-set enumeration oracle at low orders
    for p in (1, 2):
        b = tensor_basis(p)
        cq = build_cut_quadrature(half_plane(1.0, 0.0, 0.5), UNIT_BOX, depth=4, gauss_degree=2 * p)
        sys_p = build_moment_system(b, cq)
        got = solve_fitted_weights(sys_p, cq, cfg, b).weights
        oracle = brute_force_fitted_weights(
            sys_p.monomial_matrix, sys_p.rhs, min_weight_bound(b, cq.volume_ratio, cfg)
        )
        ok &= np.max(np.abs(got - oracle)) <= TOL_ORACLE
    report(3, "moment-fitting optimality", ok)


def test_criterion_4_critical_time_step_study():
    ok = True
    for p in (4, 5, 6, 7):
        rows = critical_dt_sweep(
            p, list(DT_SWEEP_FRACTIONS), ["fitted", "hrz", "scaled"], [0.01, 0.1], depth=4
        )
        table = {(frac, scheme, eps): ratio for _, frac, scheme, eps, ratio in rows}
        for frac in DT_SWEEP_FRACTIONS:
            fit_small = table[(frac, "fitted", 0.01)]
            fit_large = table[(frac, "fitted", 0.1)]
            ok &= fit_small <= table[(frac, "hrz", 0.0)] + 1e-12
            ok &= fit_small <= table[(frac, "scaled", 0.0)] + 1e-12
            ok &= fit_large >= fit_small - 1e-12
        # uncut limit: every scheme's ratio returns to one
        limit = critical_dt_sweep(p, [0.999999], ["fitted", "hrz", "scaled"], [0.01], depth=4)
        for _, _, _, _, ratio in limit:
            ok &= DT_UNCUT_LIMIT[0] <= ratio <= DT_UNCUT_LIMIT[1]
    report(4, "critical-time-step study", ok)


def test_criterion_5_conformal_bar_convergence():
    errors = []
    for n in (10, 20, 40):
        cfg = BarBenchmarkConfig(cut_fraction=1.0, order=5, elements_x=n)
        errors.append(run_bar_case(cfg).error)
    ok = errors[0] > errors[1] > errors[2] and errors[2] < TOL_CONFORMAL_FINEST
    report(5, "conformal bar convergence", ok)


def test_criterion_6_cut_bar_configurations():
    ok = True
    # cut aligned with an interior GLL node of the last element
    node_frac = (1.0 + gll_rule(5).nodes[3]) / 2.0
    errors = []
    for n in (10, 20, 40):
        cfg = BarBenchmarkConfig(cut_fraction=node_frac, order=5, elements_x=n, scheme="fitted")
        errors.append(run_bar_case(cfg).error)
    ok &= errors[0] > errors[1] > errors[2]
    # scheme ordering at the half-cut configuration, fixed mesh, even orders
    for p in (4, 6, 8):
        errs = {}
        for scheme in ("fitted", "hrz", "scaled"):
            cfg = BarBenchmarkConfig(cut_fraction=0.5, order=p, elements_x=40, scheme=scheme)
            errs[scheme] = run_bar_case(cfg).error
        ok &= errs["fitted"] <= errs["hrz"] <= errs["scaled"]
    report(6, "cut bar convergence and scheme ordering", ok)


def _bar_free_vibration_setup():
    cfg = BarBenchmarkConfig(cut_fraction=0.5, order=5, elements_x=8, scheme="fitted")
    from cutsem.benchmark import build_bar_system

    mesh, system = build_bar_system(cfg)
    system.f_shape = np.zeros(system.dof_count)  # free vibration
    table = critical_timestep_table(mesh, MAT, scheme="fitted", cfg=MomentFitConfig(epsilon=0.01))
    ids = np.flatnonzero(mesh.node_active)
    coords = mesh.node_coords(ids)
    dofs = mesh.node_dofs(ids)
    u0 = np.zeros(system.dof_count)
    u0[dofs[0::2]] = 1e-3 * np.sin(np.pi * coords[:, 0] / cfg.lx)
    u0[system.dirichlet_dofs] = 0.0
    return system, table.dt_c, u0


def test_criterion_7_cfl_sharpness_and_stability():
    system, dt_c, u0 = _bar_free_vibration_setup()
    n_steps = 10_000
    diverged = False
    try:
        run_cdm(system, 1.05 * dt_c, n_steps, u0=u0)
    except Diverged:
        diverged = True
    ok = diverged

    dt = 0.95 * dt_c
    us = [u0]
    run_cdm(system, dt, n_steps, u0=u0, record=lambda s, t, u: us.append(u.copy()))
    k = system.k_csr()
    e0 = None
    drift = 0.0
    for n in range(1, len(us) - 1):
        v = (us[n + 1] - us[n - 1]) / (2.0 * dt)
        e = 0.5 * v @ (system.lumped_mass * v) + 0.5 * us[n] @ (k @ us[n])
        if e0 is None:
            e0 = e
        drift = max(drift, abs(e / e0 - 1.0))
    ok &= drift <= TOL_ENERGY_DRIFT
    report(7, "CFL sharpness and energy stability", ok)


def test_criterion_8_lts_correctness():
    ok = True
    # p_t = 1 bit-matches the standard leap-frog recurrence over 100 steps
    system, _, u0 = _bar_free_vibration_setup()
    dt = 1e-4
    solver = LtsSolver(system, LtsConfig(dt, 1, np.ones(system.dof_count, dtype=bool)))
    k = system.k_csr()
    state = solver.initial_state(u0=u0)
    u_prev, u_curr = state.u_prev, state.u_curr.copy()
    for n in range(100):
        state = solver.step(state)
        a = system.m_inv * (system.force(n * dt) - k @ u_curr)
        u_next = 2.0 * u_curr - u_prev + dt * dt * a
        u_prev, u_curr = u_curr, u_next
        scale = max(float(np.max(np.abs(u_curr))), 1e-300)
        ok &= np.max(np.abs(state.u_curr - u_curr)) <= TOL_LTS_BITMATCH * scale

    # cross-solver consistency on the cut bar
    cfg = BarBenchmarkConfig(cut_fraction=0.5, order=5, elements_x=250, scheme="fitted")
    mesh, _, v_lts, dt_coarse, p_t = run_bar_lts(cfg)
    assert p_t > 1  # the cut column must actually be refined
    table = critical_timestep_table(
        mesh, cfg.material, scheme="fitted", cfg=MomentFitConfig(epsilon=0.01)
    )
    dt_cdm = 0.95 * table.dt_c
    n_cdm = int(math.ceil(cfg.t_end / dt_cdm))
    dt_cdm = cfg.t_end / n_cdm
    _, _, v_cdm = run_bar_cdm(replace(cfg, dt=dt_cdm))
    rel = np.linalg.norm(v_lts - v_cdm) / np.linalg.norm(v_cdm)
    ok &= rel < TOL_LTS_VS_CDM
    report(8, "LTS correctness", ok)


def test_criterion_9_mass_conservation():
    ok = True
    cases = [
        (half_plane(1.0, 0.0, 0.7), None),  # straight cut, analytic area 0.7 * ly
        (circle(0.5, 0.25, 0.2), None),  # interior circular void
    ]
    for ls, _ in cases:
        mesh = CartesianMesh(lx=1.0, ly=0.5, nx=8, ny=4, p=4, level_set=ls, depth=4)
        # quadrature-resolved physical area (the lumping pipeline's target)
        area = sum(
            cq.weights.sum() * (mesh.hx * mesh.hy) / 4.0
            for cq in mesh.cut_quadratures.values()
            if not cq.is_void
        )
        for scheme in ("fitted", "hrz", "scaled"):
            system = assemble_global(mesh, MAT, scheme=scheme)
            total = system.lumped_mass.sum()
            expect = 2.0 * MAT.density * area
            ok &= abs(total - expect) <= TOL_CONSERVATION * max(expect, 1.0)
    # the straight cut also matches the analytic area exactly
    mesh = CartesianMesh(
        lx=1.0, ly=0.5, nx=8, ny=4, p=4, level_set=half_plane(1.0, 0.0, 0.7), depth=4
    )
    system = assemble_global(mesh, MAT, scheme="fitted")
    ok &= abs(system.lumped_mass.sum() - 2.0 * 0.7 * 0.5) <= TOL_CONSERVATION
    report(9, "mass conservation across lumping schemes", ok)
