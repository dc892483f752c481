"""Eigenvalue estimation, critical time steps, CDM, and leap-frog LTS."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutsem.assembly import (
    CartesianMesh,
    ElementBatches,
    GlobalSystem,
    Material,
    assemble_global,
    element_operators,
    element_stiffness,
)
from cutsem.benchmark import BarBenchmarkConfig, build_bar_system, run_dtcrit_sweep
from cutsem.errors import ConfigError, Diverged, SingularMass, VoidElement
from cutsem.geometry import _gauss_square, build_cut_quadrature, half_plane
from cutsem.gll import tensor_basis
from cutsem.integrators import (
    CFL_SAFETY,
    LtsConfig,
    LtsSolver,
    LtsState,
    _vertical_cut_rules,
    choose_pt,
    critical_dt_sweep,
    critical_timestep_table,
    element_max_eigenvalue,
    run_cdm,
)
from cutsem.momentfit import MomentFitConfig

from helpers import a_apply, count_shape_evals, critical_dt_sweep_oracle

MAT = Material(youngs_modulus=1.0, poisson_ratio=0.0, density=1.0)


def make_system(nx=6, ny=1, p=3, level_set=None, fix_left=True, **kwargs):
    mesh = CartesianMesh(lx=1.0, ly=0.1, nx=nx, ny=ny, p=p, level_set=level_set, **kwargs)
    if fix_left:
        mesh.fix_nodes(lambda x, y: np.abs(x) < 1e-12)
    return mesh, assemble_global(mesh, MAT)


def test_eigenvalue_diagonal_cases():
    assert element_max_eigenvalue(np.diag([4.0, 1.0]), np.ones(2)) == pytest.approx(4.0)
    assert element_max_eigenvalue(np.eye(2), np.full(2, 4.0)) == pytest.approx(0.25)
    with pytest.raises(SingularMass):
        element_max_eigenvalue(np.eye(2), np.array([1.0, 0.0]))


def dense_oracle(ke, me):
    """Largest eigenvalue of M^(-1/2) K M^(-1/2) from the full dense spectrum."""
    inv_sqrt = 1.0 / np.sqrt(me)
    return np.linalg.eigvalsh(inv_sqrt[:, None] * ke * inv_sqrt[None, :]).max()


def test_eigenvalue_matches_dense_oracle_full_element():
    for p in (5, 12):
        basis = tensor_basis(p)
        pts, wts = _gauss_square(2 * p)
        ke = element_stiffness(basis, MAT, pts, wts, (0.5, 0.5))
        me = np.repeat(basis.node_weights() * 0.25, 2)
        got = element_max_eigenvalue(ke, me)
        oracle = dense_oracle(ke, me)
        assert abs(got - oracle) <= 1e-8 * oracle, p


def test_eigenvalue_matches_dense_oracle_cut_element():
    from cutsem.geometry import build_cut_quadrature
    from cutsem.momentfit import lump_element

    for p, fraction in ((5, 0.5), (5, 0.05), (12, 0.5), (12, 0.05)):
        basis = tensor_basis(p)
        cutq = build_cut_quadrature(
            half_plane(1.0, 0.0, fraction), ((0.0, 1.0), (0.0, 1.0)), depth=4, gauss_degree=2 * p
        )
        ke = element_stiffness(basis, MAT, cutq.points, cutq.weights, (0.5, 0.5))
        me = np.repeat(lump_element(basis, cutq, "fitted").weights * 0.25, 2)
        got = element_max_eigenvalue(ke, me)
        oracle = dense_oracle(ke, me)
        assert abs(got - oracle) <= 1e-8 * oracle, (p, fraction)


def test_eigenvalue_clustered_tops():
    # nearly-degenerate and exactly-degenerate leading eigenvalues
    rng = np.random.default_rng(99)
    for gap in (0.0, 1e-9, 1e-7):
        evals = np.sort(rng.uniform(0.1, 0.9, size=20))
        evals = np.concatenate([evals, [1.0 - gap, 1.0]])
        q, _ = np.linalg.qr(rng.standard_normal((22, 22)))
        s = (q * evals) @ q.T
        s = 0.5 * (s + s.T)
        got = element_max_eigenvalue(s, np.ones(22))
        assert abs(got - 1.0) <= 1e-7, gap


def test_choose_pt():
    assert choose_pt(1.0, 1.0) == 2  # the safety factor forces refinement
    assert choose_pt(4e-8, 2.5e-9) == 17
    assert choose_pt(1.0, 2.0) == 1
    assert choose_pt(0.95, 1.0) == 1  # exact ratio must not round up
    with pytest.raises(ConfigError):
        choose_pt(0.0, 1.0)


def test_critical_timestep_table_uncut_vs_cut():
    mesh, _ = make_system(nx=6, p=4, fix_left=False)
    table = critical_timestep_table(mesh, MAT)
    assert table.dt_c == min(table.per_element.values())
    assert math.isinf(table.dt_cut_min)
    ls = half_plane(1.0, 0.0, 0.95)
    mesh_cut, _ = make_system(nx=6, p=4, level_set=ls, fix_left=False)
    table_cut = critical_timestep_table(mesh_cut, MAT)
    assert table_cut.dt_cut_min < table_cut.dt_uncut_min
    assert table_cut.dt_c == pytest.approx(table_cut.dt_cut_min)


def test_critical_timestep_table_of_all_void_mesh_raises_void_element():
    mesh = CartesianMesh(lx=1.0, ly=1.0, nx=2, ny=2, p=2, level_set=half_plane(1.0, 0.0, -1.0))
    with pytest.raises(VoidElement):
        critical_timestep_table(mesh, MAT)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    fraction=st.floats(min_value=0.05, max_value=0.95),
    angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_fitted_cut_element_conserves_mass_and_matches_oracle_dt(fraction, angle):
    # a half-plane with a random normal, placed at `fraction` of the unit
    # element's extent along that normal: the corner furthest against the
    # normal is always physical and the opposite corner always void
    nx, ny = math.cos(angle), math.sin(angle)
    lo = min(0.0, nx) + min(0.0, ny)
    hi = max(0.0, nx) + max(0.0, ny)
    mesh = CartesianMesh(
        1.0, 1.0, 1, 1, 4, level_set=half_plane(nx, ny, lo + fraction * (hi - lo)), depth=3
    )
    assert mesh.classification[(0, 0)] == "cut"
    cutq = mesh.cut_quadratures[(0, 0)]
    table = critical_timestep_table(mesh, MAT)
    rec = element_operators(mesh, MAT)[(0, 0)]
    # the cut rule's physical mass, carried by each of the two DOFs per node
    mass = MAT.density * cutq.weights.sum() * mesh.hx * mesh.hy / 4.0
    assert abs(rec.m_e.sum() - 2.0 * mass) <= 1e-12 * mass
    oracle_dt = 2.0 / math.sqrt(dense_oracle(rec.k_e, rec.m_e))
    assert abs(table.dt_cut_min - oracle_dt) <= 1e-12 * oracle_dt


def test_cdm_zero_load_stays_zero():
    _, system = make_system()
    hist = run_cdm(system, 1e-4, 50)
    assert np.max(np.abs(hist.u_curr)) == 0.0


def test_cdm_harmonic_oscillator_period_error():
    # single DOF: M = 1, K = omega^2, one element of one DOF
    omega = 2.0 * math.pi
    system = GlobalSystem(
        stiffness=ElementBatches(1, stack_dofs=[[0]], stack_k_e=[[[omega**2]]]),
        lumped_mass=np.ones(1),
        dof_count=1,
        dirichlet_dofs=np.array([], dtype=np.int64),
        cut_element_dofs=np.array([], dtype=np.int64),
    )
    period = 2.0 * math.pi / omega
    err_period = abs(
        run_cdm(system, period / 1000, 1000, u0=np.array([1.0]), v0=np.zeros(1)).u_curr[0] - 1.0
    )
    assert err_period < 1e-4  # < 0.01% of the unit amplitude after one period

    # second-order convergence measured away from a displacement extremum,
    # where the endpoint error is linear in the accumulated phase error
    t_end = 0.35 * period

    def end_error(n_steps):
        dt = t_end / n_steps
        hist = run_cdm(system, dt, n_steps, u0=np.array([1.0]), v0=np.zeros(1))
        return abs(hist.u_curr[0] - math.cos(omega * t_end))

    ratio = end_error(500) / end_error(1000)
    assert 3.6 <= ratio <= 4.4


def test_summed_form_cdm_matches_the_three_term_recurrence():
    # u_{n+1} = 2 u_n - u_{n-1} + dt^2 M^-1 (f(t_n) - K u_n) from the same
    # Taylor start, on the loaded cut bar clamped at x = 0
    cfg = BarBenchmarkConfig(cut_fraction=0.5, order=5, elements_x=20, scheme="fitted")
    mesh, system = build_bar_system(cfg)
    dt = CFL_SAFETY * critical_timestep_table(mesh, cfg.material, scheme="fitted").dt_c
    rng = np.random.default_rng(23)
    u0 = 1e-3 * rng.standard_normal(system.dof_count)
    u0[system.dirichlet_dofs] = 0.0
    us = []
    run_cdm(system, dt, 300, u0=u0, record=lambda s, t, u: us.append(u.copy()))
    m_inv, k = system.m_inv, system.k_csr()
    u_prev = u0 + 0.5 * dt * dt * m_inv * (system.force(0.0) - k @ u0)
    u = u0
    for n, got in enumerate(us):
        u_prev, u = u, 2.0 * u - u_prev + dt * dt * m_inv * (system.force(n * dt) - k @ u)
        assert np.max(np.abs(got - u)) <= 1e-12 * np.max(np.abs(u)), n
    assert np.any(system.force((len(us) - 1) * dt))  # the load is on by the end


def test_lts_pt1_all_selected_matches_reference_leapfrog():
    _, system = make_system(nx=5, p=3)
    selection = np.ones(system.dof_count, dtype=bool)
    dt = 1e-4
    solver = LtsSolver(system, LtsConfig(dt, 1, selection))
    rng = np.random.default_rng(4)
    u0 = 1e-3 * rng.standard_normal(system.dof_count)
    u0[system.dirichlet_dofs] = 0.0
    state = solver.initial_state(u0=u0)
    # reference: standard leap-frog in the transformed variables
    z_prev, z_curr = state.z_prev.copy(), state.z_curr.copy()
    for n in range(100):
        state = solver.step(state)
        t = n * dt
        z_next = 2.0 * z_curr - z_prev + dt * dt * (solver.r_of(t) - a_apply(solver, z_curr))
        z_prev, z_curr = z_curr, z_next
        scale = max(np.max(np.abs(z_curr)), 1e-300)
        assert np.max(np.abs(state.z_curr - z_curr)) <= 1e-12 * scale


def test_lts_empty_selection_matches_pt1():
    _, system = make_system(nx=5, p=3)
    rng = np.random.default_rng(8)
    u0 = 1e-3 * rng.standard_normal(system.dof_count)
    u0[system.dirichlet_dofs] = 0.0
    dt = 1e-4
    empty = np.zeros(system.dof_count, dtype=bool)
    s1 = LtsSolver(system, LtsConfig(dt, 1, empty)).run(100, u0=u0)
    s3 = LtsSolver(system, LtsConfig(dt, 3, empty)).run(100, u0=u0)
    scale = max(np.max(np.abs(s1.z_curr)), 1e-300)
    assert np.max(np.abs(s1.z_curr - s3.z_curr)) <= 1e-12 * scale


def test_lts_matches_cdm_trajectory():
    _, system = make_system(nx=5, p=3)
    rng = np.random.default_rng(15)
    u0 = 1e-3 * rng.standard_normal(system.dof_count)
    u0[system.dirichlet_dofs] = 0.0
    dt = 1e-4
    hist = run_cdm(system, dt, 100, u0=u0)
    solver = LtsSolver(system, LtsConfig(dt, 1, np.ones(system.dof_count, dtype=bool)))
    state = solver.run(100, u0=u0)
    u_lts = solver.displacement(state)
    assert np.max(np.abs(u_lts - hist.u_curr)) <= 1e-9 * max(np.max(np.abs(hist.u_curr)), 1e-300)


def test_cdm_diverges_above_cfl():
    mesh, system = make_system(nx=5, p=4)
    table = critical_timestep_table(mesh, MAT)
    rng = np.random.default_rng(2)
    u0 = 1e-6 * rng.standard_normal(system.dof_count)
    u0[system.dirichlet_dofs] = 0.0
    with pytest.raises(Diverged):
        run_cdm(system, 1.2 * table.dt_c, 5000, u0=u0)
    # just below the limit the run stays bounded
    hist = run_cdm(system, 0.99 * table.dt_c, 5000, u0=u0)
    assert np.all(np.isfinite(hist.u_curr))


def test_lts_energy_bounded_at_half_cfl():
    ls = half_plane(1.0, 0.0, 0.95)
    mesh, system = make_system(nx=5, p=4, level_set=ls)
    table = critical_timestep_table(mesh, MAT)
    dt = 0.5 * table.dt_c
    ids = np.flatnonzero(mesh.node_active)
    coords = mesh.node_coords(ids)
    dofs = mesh.node_dofs(ids)
    u0 = np.zeros(system.dof_count)
    u0[dofs[0::2]] = 1e-3 * np.sin(np.pi * coords[:, 0] / 0.95)
    u0[system.dirichlet_dofs] = 0.0
    selection = np.zeros(system.dof_count, dtype=bool)
    selection[system.cut_element_dofs] = True
    selection[system.dirichlet_dofs] = False
    solver = LtsSolver(system, LtsConfig(dt, 2, selection))
    k = system.k_csr()
    us = []
    solver.run(3000, u0=u0, record=lambda s, t, u: us.append(u.copy()))
    us = [u0] + us
    energies = []
    for n in range(1, len(us) - 1):
        v = (us[n + 1] - us[n - 1]) / (2.0 * dt)
        e = 0.5 * v @ (system.lumped_mass * v) + 0.5 * us[n] @ (k @ us[n])
        energies.append(e)
    energies = np.array(energies)
    assert np.max(np.abs(energies / energies[0] - 1.0)) < 0.02


def full_mask_sub_steps(solver, z_n, t_n, r_of):
    """q_{p_t} of the sub-step recurrence on full-size vectors, as a reference.

    Every sub-step applies the full stiffness; the selection acts as a mask.
    """
    dt, p_t = solver.cfg.dt, solver.cfg.p_t
    sel = solver.cfg.selection
    r_n = r_of(t_n)
    h = dt / p_t
    w = np.where(sel, 0.0, r_n) - a_apply(solver, np.where(sel, 0.0, z_n))
    q_prev = 2.0 * z_n
    q = q_prev + 0.5 * h * h * (
        2.0 * w + 2.0 * np.where(sel, r_n, 0.0) - a_apply(solver, np.where(sel, q_prev, 0.0))
    )
    for m in range(1, p_t):
        src = r_of(t_n + m * h) + r_of(t_n - m * h)
        q_next = 2.0 * q - q_prev + h * h * (
            2.0 * w + np.where(sel, src, 0.0) - a_apply(solver, np.where(sel, q, 0.0))
        )
        q_prev, q = q, q_next
    return q


def full_mask_lts_step(solver, state):
    """One coarse step from the full-mask sub-step reference."""
    q = full_mask_sub_steps(solver, state.z_curr, state.t, solver.r_of)
    t = state.t + solver.cfg.dt
    return LtsState(z_prev=state.z_curr, z_curr=-state.z_prev + q, step=state.step + 1, t=t)


def full_mask_initial_state(solver, u0, v0):
    """z_{-1} = q(z_0) / 2 - dt zdot_0 + dt^2 r(0) / 2, q from the unloaded reference."""
    m_sqrt = np.sqrt(solver.system.lumped_mass)
    z0 = m_sqrt * u0
    q0 = full_mask_sub_steps(solver, z0, 0.0, lambda t: np.zeros(solver.system.dof_count))
    dt = solver.cfg.dt
    z_m1 = 0.5 * q0 - dt * (m_sqrt * v0) + 0.5 * dt * dt * solver.r_of(0.0)
    return LtsState(z_prev=z_m1, z_curr=z0, step=0, t=0.0)


def cut_bar_lts_solvers():
    """LTS solvers on the loaded cut bar: at choose_pt's ratio, and at p_t = 3."""
    cfg = BarBenchmarkConfig(cut_fraction=0.5, order=5, elements_x=20, scheme="fitted")
    mesh, system = build_bar_system(cfg)
    table = critical_timestep_table(mesh, cfg.material, scheme="fitted", cfg=MomentFitConfig())
    selection = np.zeros(system.dof_count, dtype=bool)
    selection[system.cut_element_dofs] = True
    selection[system.dirichlet_dofs] = False
    dt = CFL_SAFETY * table.dt_uncut_min
    p_t = choose_pt(dt, table.dt_cut_min)
    assert p_t > 3
    # a coarse step at which p_t = 3 is the stable ratio
    dt3 = 3.0 * CFL_SAFETY * table.dt_cut_min
    assert choose_pt(dt3, table.dt_cut_min) == 3
    return system, [
        LtsSolver(system, LtsConfig(dt, p_t, selection)),
        LtsSolver(system, LtsConfig(dt3, 3, selection)),
    ]


def test_lts_local_step_matches_full_mask_recurrence():
    system, solvers = cut_bar_lts_solvers()
    for solver in solvers:
        assert solver.nbhd.size < system.dof_count // 4  # the sub-steps stay local
        state = solver.initial_state()
        ref = LtsState(state.z_prev.copy(), state.z_curr.copy(), 0, 0.0)
        for _ in range(50):
            state = solver.step(state)
            ref = full_mask_lts_step(solver, ref)
            scale = np.max(np.abs(ref.z_curr))
            assert scale > 0.0  # the interface load is on from the first step
            assert np.max(np.abs(state.z_curr - ref.z_curr)) <= 1e-12 * scale, solver.cfg.p_t


def count_k_matvecs(monkeypatch):
    """A list that gets one entry per GlobalSystem.k_matvec call."""
    calls = []
    original = GlobalSystem.k_matvec

    def counted(self, x):
        calls.append(1)
        return original(self, x)

    monkeypatch.setattr(GlobalSystem, "k_matvec", counted)
    return calls


def test_lts_one_stiffness_matvec_per_coarse_step(monkeypatch):
    _, solvers = cut_bar_lts_solvers()
    calls = count_k_matvecs(monkeypatch)
    for solver in solvers:
        state = solver.initial_state()
        calls.clear()
        for _ in range(7):
            state = solver.step(state)
        assert len(calls) == 7, solver.cfg.p_t


def test_lts_run_is_initial_state_then_steps_bitwise():
    # run and step share one coarse-step kernel, and the load samples that
    # run carries over from step to step are the ones step evaluates afresh
    _, solvers = cut_bar_lts_solvers()
    for solver in solvers:
        n = 30
        run = solver.run(n)
        state = solver.initial_state()
        for _ in range(n):
            state = solver.step(state)
        assert (run.step, run.t) == (state.step, state.t)
        assert np.max(np.abs(run.z_curr)) > 0.0
        for got, want in ((run.z_prev, state.z_prev), (run.z_curr, state.z_curr)):
            assert got.tobytes() == want.tobytes(), solver.cfg.p_t


def test_lts_step_leaves_its_state_untouched():
    _, solvers = cut_bar_lts_solvers()
    for solver in solvers:
        state = solver.run(20)
        before = state.z_prev.copy(), state.z_curr.copy()
        nxt = solver.step(state)
        assert np.array_equal(state.z_prev, before[0]) and np.array_equal(state.z_curr, before[1])
        assert nxt.z_curr is not state.z_prev and nxt.z_curr is not state.z_curr
        assert (state.step, nxt.step) == (20, 21)


def test_lts_zero_start_skips_the_sub_step_sweep(monkeypatch):
    # the sweep is unloaded and linear in z_0: from z_0 = 0 it is exactly 0
    system, solvers = cut_bar_lts_solvers()
    rng = np.random.default_rng(21)
    v0 = rng.standard_normal(system.dof_count)
    v0[system.dirichlet_dofs] = 0.0
    u0 = np.zeros(system.dof_count)
    calls = count_k_matvecs(monkeypatch)
    for solver in solvers:
        want = full_mask_initial_state(solver, u0, v0)
        calls.clear()
        got = solver.initial_state(v0=v0)
        assert len(calls) == 0, solver.cfg.p_t
        assert np.array_equal(got.z_prev, want.z_prev) and np.array_equal(got.z_curr, want.z_curr)


def test_lts_displaced_start_runs_the_sub_step_sweep(monkeypatch):
    system, solvers = cut_bar_lts_solvers()
    rng = np.random.default_rng(22)
    u0, v0 = 1e-3 * rng.standard_normal((2, system.dof_count))
    u0[system.dirichlet_dofs] = v0[system.dirichlet_dofs] = 0.0
    calls = count_k_matvecs(monkeypatch)
    for solver in solvers:
        want = full_mask_initial_state(solver, u0, v0)
        calls.clear()
        got = solver.initial_state(u0=u0, v0=v0)
        assert len(calls) == 1, solver.cfg.p_t
        assert np.array_equal(got.z_curr, want.z_curr)
        scale = np.max(np.abs(want.z_prev))
        assert np.max(np.abs(got.z_prev - want.z_prev)) <= 1e-12 * scale, solver.cfg.p_t


@pytest.mark.parametrize("field", ["u0", "v0"])
@pytest.mark.parametrize("integrator", ["cdm", "lts"])
def test_start_state_must_be_zero_on_dirichlet_dofs(integrator, field):
    # CDM would hold a nonzero u0 there and LTS read it as 0; a nonzero v0
    # would make both drift
    _, system = make_system(nx=5, p=3)
    start = {field: np.zeros(system.dof_count)}
    start[field][system.dirichlet_dofs[0]] = 1e-3
    if integrator == "cdm":
        run = functools.partial(run_cdm, system, 1e-4, 3)
    else:
        all_dofs = np.ones(system.dof_count, dtype=bool)
        run = LtsSolver(system, LtsConfig(1e-4, 2, all_dofs)).initial_state
    with pytest.raises(ConfigError, match=field):
        run(**start)
    # the same field, zero on the Dirichlet DOFs, is accepted
    start[field][system.dirichlet_dofs[0]] = 0.0
    start[field][np.setdiff1d(np.arange(system.dof_count), system.dirichlet_dofs)[0]] = 1e-3
    run(**start)


def test_lts_rejects_bad_config():
    _, system = make_system(nx=3, p=2)
    with pytest.raises(ConfigError):
        LtsConfig(1e-4, 0, np.zeros(system.dof_count, dtype=bool))
    with pytest.raises(ConfigError):
        LtsSolver(system, LtsConfig(1e-4, 2, np.zeros(system.dof_count + 1, dtype=bool)))


def centred_energy_drift(system, us, dt):
    """max |E_n/E_0 - 1| of E = v^T M v / 2 + u^T K u / 2, v centred, u_0 at rest."""
    k = system.k_csr()
    e0 = 0.5 * us[0] @ (k @ us[0])
    drift = 0.0
    for n in range(1, len(us) - 1):
        v = (us[n + 1] - us[n - 1]) / (2.0 * dt)
        e = 0.5 * v @ (system.lumped_mass * v) + 0.5 * us[n] @ (k @ us[n])
        drift = max(drift, abs(e / e0 - 1.0))
    return drift


def test_lts_released_from_displacement_conserves_energy():
    # the refined DOFs start from the sub-step recurrence, not from a
    # Taylor step over the whole coarse dt, which is unstable for them
    for fraction, expected_pt in ((0.95, 5), (0.92, 11)):
        mesh, system = make_system(nx=5, p=4, level_set=half_plane(1.0, 0.0, fraction))
        table = critical_timestep_table(mesh, MAT)
        dt = CFL_SAFETY * table.dt_uncut_min
        p_t = choose_pt(dt, table.dt_cut_min)
        assert p_t == expected_pt
        ids = np.flatnonzero(mesh.node_active)
        x = mesh.node_coords(ids)[:, 0]
        u0 = np.zeros(system.dof_count)
        u0[mesh.node_dofs(ids)[0::2]] = 1e-3 * np.sin(np.pi * x / fraction)
        u0[system.dirichlet_dofs] = 0.0
        selection = np.zeros(system.dof_count, dtype=bool)
        selection[system.cut_element_dofs] = True
        selection[system.dirichlet_dofs] = False

        lts = [u0]
        LtsSolver(system, LtsConfig(dt, p_t, selection)).run(
            200, u0=u0, record=lambda s, t, u: lts.append(u.copy())
        )
        # reference: leap-frog at the fine step from the same u0, sampled at
        # the coarse times; it wobbles by about 3 % on this mesh itself
        cdm = [u0]
        run_cdm(system, dt / p_t, 200 * p_t, u0=u0, record=lambda s, t, u: cdm.append(u.copy()))
        ref = centred_energy_drift(system, cdm[::p_t], dt)
        assert centred_energy_drift(system, lts, dt) <= 1.2 * ref, fraction


def test_critical_dt_sweep_rows():
    rows = critical_dt_sweep(3, [0.3, 0.7], ["fitted", "scaled"], [0.01], depth=3)
    assert len(rows) == 4
    for p, frac, scheme, eps, ratio in rows:
        assert p == 3
        assert 0.0 < ratio <= 1.5
    with pytest.raises(ConfigError):
        critical_dt_sweep(3, [1.0], ["fitted"], [0.01])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    fractions=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=9),
    p=st.integers(1, 8),
    depth=st.integers(0, 4),
)
def test_sweep_cut_rules_equal_one_element_half_plane_rules_bitwise(fractions, p, depth):
    # the sweep builds all its fractions' rules in one pass, each element in
    # a strip of its own; every rule must be the one-element rule bit for bit
    rules = _vertical_cut_rules(fractions, depth, 2 * p)
    for frac, cutq in zip(fractions, rules, strict=True):
        one = build_cut_quadrature(
            half_plane(1.0, 0.0, frac), ((0.0, 1.0), (0.0, 1.0)), depth=depth, gauss_degree=2 * p
        )
        assert cutq.classification == one.classification
        assert cutq.volume_ratio == one.volume_ratio
        for got, want in ((cutq.points, one.points), (cutq.weights, one.weights)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_cfl_safety_constant():
    assert CFL_SAFETY == 0.95


DTCRIT_FRACTIONS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
DTCRIT_SCHEMES = ["fitted", "hrz", "scaled"]


@pytest.mark.parametrize("p", range(2, 9))
def test_critical_dt_sweep_rows_equal_the_per_cell_oracle_bitwise(p):
    args = (p, DTCRIT_FRACTIONS, DTCRIT_SCHEMES, [0.01, 0.1])
    assert critical_dt_sweep(*args) == critical_dt_sweep_oracle(*args)


def test_critical_dt_sweep_evaluates_shape_functions_once_per_cut_rule(monkeypatch):
    calls = count_shape_evals(monkeypatch)
    critical_dt_sweep(4, DTCRIT_FRACTIONS, DTCRIT_SCHEMES, [0.01, 0.1])
    # the uncut element, then one per cut rule
    assert len(calls) == len(DTCRIT_FRACTIONS) + 1


def count_eigen_solves(monkeypatch):
    """A list that gets one entry per element_max_eigenvalue call of the sweep."""
    import cutsem.integrators as integrators

    calls = []
    solve = integrators.element_max_eigenvalue

    def counted(*a):
        calls.append(1)
        return solve(*a)

    monkeypatch.setattr(integrators, "element_max_eigenvalue", counted)
    return calls


def test_default_sweep_solves_each_distinct_lumped_mass_once(monkeypatch):
    # at fraction 0.1 the volume ratio falls below the low-volume threshold,
    # where the fitted bound, and so the mass, does not depend on epsilon
    calls = count_eigen_solves(monkeypatch)
    orders = [4, 5, 6, 7]
    rows = run_dtcrit_sweep(orders, DTCRIT_FRACTIONS, DTCRIT_SCHEMES, [0.01, 0.1])
    # one solve per order for the uncut element, one per row, less one per order
    assert len(rows) == 144 and len(calls) == 144
    shared = [r for r in rows if r[2] == "fitted" and r[1] == 0.1]
    assert len(shared) == 8 and all(a[4] == b[4] for a, b in zip(shared[::2], shared[1::2]))


@pytest.mark.parametrize(
    "sweep, args",
    [
        (critical_dt_sweep, (4, [0.5, 1.5], ["fitted"], [0.01])),
        (critical_dt_sweep, (4, [0.5], ["hrz", "lumpy"], [0.01])),
        (critical_dt_sweep, (4, [0.5], ["hrz", "fitted"], [0.01, 2.0])),
        (run_dtcrit_sweep, ([4, 5], [0.5], ["hrz", "lumpy"], [0.01])),
        (run_dtcrit_sweep, ([4, 5], [0.5, 0.0], ["hrz"], [0.01])),
        (run_dtcrit_sweep, ([4, 5], [0.5], ["fitted"], [0.0])),
        (run_dtcrit_sweep, ([4, 13], [0.5], ["hrz"], [0.01])),
    ],
    ids=[
        "fraction", "scheme", "epsilon", "grid_scheme", "grid_fraction", "grid_epsilon", "grid_order"
    ],
)
def test_sweep_rejects_a_bad_grid_before_any_eigen_solve(monkeypatch, sweep, args):
    calls = count_eigen_solves(monkeypatch)
    with pytest.raises(ConfigError):
        sweep(*args)
    assert calls == []
