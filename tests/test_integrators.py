"""Eigenvalue estimation, critical time steps, CDM, and leap-frog LTS."""

import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutsem import integrators
from cutsem.assembly import (
    CartesianMesh,
    ElementBatches,
    GlobalSystem,
    Material,
    assemble_global,
    element_operators,
    element_stiffness,
)
from cutsem.benchmark import (
    BarBenchmarkConfig,
    build_bar_system,
    run_cdm_continue,
    run_dtcrit_sweep,
)
from cutsem.errors import ConfigError, Diverged, SingularMass, VoidElement
from cutsem.geometry import _gauss_square, build_cut_quadrature, circle, half_plane, union_of_voids
from cutsem.gll import tensor_basis
from cutsem.integrators import (
    CFL_SAFETY,
    LtsConfig,
    LtsSolver,
    LtsState,
    _MAP_MAX_SIZE,
    _NEGLIGIBLE,
    _cdm_solver,
    _vertical_cut_rules,
    choose_pt,
    critical_dt_sweep,
    critical_timestep_table,
    element_max_eigenvalue,
    run_cdm,
)
from cutsem.momentfit import MomentFitConfig

from helpers import (
    coarse_step,
    count_shape_evals,
    critical_dt_sweep_oracle,
    dof_layout_run,
    reference_coarse_step,
)

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
    assert choose_pt(1.0, math.inf) == 1  # no cut element
    # unchecked, NaN or an infinite coarse step ends as a bare ValueError or
    # OverflowError in math.ceil
    for args in ((0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ConfigError):
            choose_pt(*args)


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


def test_a_dof_in_no_element_cannot_be_stepped():
    # the loop keeps each DOF at its element entries: a DOF with none has
    # no place in that layout, and is rejected before any step
    system = GlobalSystem(
        stiffness=ElementBatches(2, stack_dofs=[[0]], stack_k_e=[[[1.0]]]),
        lumped_mass=np.ones(2),
        dirichlet_dofs=np.array([], dtype=np.int64),
    )
    with pytest.raises(ConfigError, match="every DOF must belong to an element"):
        run_cdm(system, 0.1, 1)


def test_cdm_harmonic_oscillator_period_error():
    # single DOF: M = 1, K = omega^2, one element of one DOF
    omega = 2.0 * math.pi
    system = GlobalSystem(
        stiffness=ElementBatches(1, stack_dofs=[[0]], stack_k_e=[[[omega**2]]]),
        lumped_mass=np.ones(1),
        dirichlet_dofs=np.array([], dtype=np.int64),
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


def full_mask_sub_steps(solver, u_n, t_n, force):
    """v_{p_t} of the sub-step recurrence on full-size vectors, from v_0 = 2 u_n, as a reference.

    Every sub-step applies the full stiffness; the selection acts as a mask.
    At p_t = 1 it is 2 u_n + dt^2 M^-1 (f(t_n) - K u_n), whatever the
    selection: one leap-frog step's u_{n+1} + u_{n-1}.
    """
    system, sel = solver.system, solver.cfg.selection
    dt, p_t = solver.cfg.dt, solver.cfg.p_t
    k = system.k_csr()

    def accel(f, u):
        return system.m_inv * (f - k @ u)

    h = dt / p_t
    f_n = force(t_n)
    w = accel(np.where(sel, 0.0, f_n), np.where(sel, 0.0, u_n))
    v_prev = 2.0 * u_n
    v = v_prev + 0.5 * h * h * (
        2.0 * w + accel(2.0 * np.where(sel, f_n, 0.0), np.where(sel, v_prev, 0.0))
    )
    for m in range(1, p_t):
        src = force(t_n + m * h) + force(t_n - m * h)
        v_next = 2.0 * v - v_prev + h * h * (
            2.0 * w + accel(np.where(sel, src, 0.0), np.where(sel, v, 0.0))
        )
        v_prev, v = v, v_next
    return v


def full_mask_u_prev(solver, u0, v0):
    """u_{-1} = v(u_0) / 2 - dt v_0 + dt^2 a_0 / 2, v from the unloaded reference.

    a_0 = M^-1 f(0).
    """
    system, dt = solver.system, solver.cfg.dt
    v = full_mask_sub_steps(solver, u0, 0.0, lambda t: np.zeros(system.dof_count))
    return 0.5 * v - dt * v0 + 0.5 * dt * dt * (system.m_inv * system.force(0.0))


def full_mask_run(solver, u0, v0, n_steps):
    """u_0, ..., u_{n_steps} of the three-term recurrence u_{n+1} = v_{p_t}(u_n) - u_{n-1}."""
    system, dt = solver.system, solver.cfg.dt
    us = [full_mask_u_prev(solver, u0, v0), u0]
    for n in range(n_steps):
        us.append(full_mask_sub_steps(solver, us[-1], n * dt, system.force) - us[-2])
    return us[1:]


INTEGRATORS = ["cdm", "lts", "lts_map"]


@functools.cache
def cut_bar(elements):
    """The bar benchmarks' loaded cut bar, p = 5, the last column cut in half, and its solvers.

    "cdm" is the solver `run_cdm` runs: nothing selected, p_t = 1, at 0.95
    of the global critical step. "lts_map" refines the cut-column DOFs at
    0.95 of the uncut step and choose_pt's ratio, 10, and tabulates its
    sub-steps; "lts" refines them at p_t = 3, at the coarse step whose
    choose_pt ratio is 3, and sweeps them: the size rule would tabulate
    them, so it is built with the map's cap at 0. The interface load lies
    on the refined DOFs. On 100 elements, unless it is flushed, the wave
    front's tail ahead of the pulse decays into the subnormal range within
    the first 300 CDM steps.
    """
    cfg = BarBenchmarkConfig(cut_fraction=0.5, order=5, elements_x=elements, scheme="fitted")
    mesh, system = build_bar_system(cfg)
    table = critical_timestep_table(mesh, cfg.material, scheme="fitted", cfg=MomentFitConfig())
    selection = np.zeros(system.dof_count, dtype=bool)
    selection[system.cut_element_dofs] = True
    selection[system.dirichlet_dofs] = False
    dt = CFL_SAFETY * table.dt_uncut_min
    dt3 = 3.0 * CFL_SAFETY * table.dt_cut_min
    assert choose_pt(dt3, table.dt_cut_min) == 3
    with mock.patch.object(integrators, "_MAP_MAX_SIZE", 0):
        swept = LtsSolver(system, LtsConfig(dt3, 3, selection))
    solvers = {
        "cdm": _cdm_solver(system, CFL_SAFETY * table.dt_c),
        "lts": swept,
        "lts_map": LtsSolver(system, LtsConfig(dt, choose_pt(dt, table.dt_cut_min), selection)),
    }
    assert solvers["lts"].sub_step_map is None and solvers["lts_map"].sub_step_map is not None
    return system, solvers


def run(integrator, solver, n_steps, **start):
    """`run_cdm` for "cdm", else `solver.run`."""
    if integrator == "cdm":
        return run_cdm(solver.system, solver.cfg.dt, n_steps, **start)
    return solver.run(n_steps, **start)


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_summed_form_matches_the_three_term_recurrence(integrator):
    # u_{n+1} = v_{p_t}(u_n) - u_{n-1} from the reference's own start, on the
    # loaded cut bar clamped at x = 0, from a random displacement, to t =
    # 0.15 (about 300 CDM steps) while the load is on: for CDM that is u_{n+1} =
    # 2 u_n - u_{n-1} + dt^2 M^-1 (f(t_n) - K u_n)
    system, solvers = cut_bar(20)
    solver = solvers[integrator]
    rng = np.random.default_rng(23)
    u0 = 1e-3 * rng.standard_normal(system.dof_count)
    u0[system.dirichlet_dofs] = 0.0
    n_steps = round(0.15 / solver.cfg.dt)
    us = []
    run(integrator, solver, n_steps, u0=u0, record=lambda s, t, u: us.append(u))
    want_us = full_mask_run(solver, u0, np.zeros_like(u0), n_steps)[1:]
    for n, (got, want) in enumerate(zip(us, want_us, strict=True)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n
    assert np.any(system.force((n_steps - 1) * solver.cfg.dt))


def test_lts_pt1_with_its_loaded_dofs_unrefined_matches_cdm():
    # at p_t = 1 the LTS step is the leap-frog step whatever the selection:
    # here the cut column's DOFs but for the loaded ones, which then enter
    # nbhd(sel) with their load on the coarse part
    system, solvers = cut_bar(20)
    cdm = solvers["cdm"]
    selection = np.zeros(system.dof_count, dtype=bool)
    selection[system.cut_element_dofs] = True
    selection[system.dirichlet_dofs] = False
    loaded = np.flatnonzero(system.f_shape)
    selection[loaded] = False
    solver = LtsSolver(system, LtsConfig(cdm.cfg.dt, 1, selection))
    assert np.isin(loaded, solver.nbhd).all() and selection.any()
    rng = np.random.default_rng(13)
    u0 = 1e-3 * rng.standard_normal(system.dof_count)
    u0[system.dirichlet_dofs] = 0.0
    want = run_cdm(system, cdm.cfg.dt, 300, u0=u0)
    got = solver.run(300, u0=u0)
    assert np.any(system.force(299 * cdm.cfg.dt))
    assert np.max(np.abs(got.u_curr - want.u_curr)) <= 1e-12 * np.max(np.abs(want.u_curr))


def test_lts_empty_selection_matches_pt1():
    _, system = make_system(nx=5, p=3)
    rng = np.random.default_rng(8)
    u0 = 1e-3 * rng.standard_normal(system.dof_count)
    u0[system.dirichlet_dofs] = 0.0
    dt = 1e-4
    empty = np.zeros(system.dof_count, dtype=bool)
    s1 = LtsSolver(system, LtsConfig(dt, 1, empty)).run(100, u0=u0)
    s3 = LtsSolver(system, LtsConfig(dt, 3, empty)).run(100, u0=u0)
    scale = max(np.max(np.abs(s1.u_curr)), 1e-300)
    assert np.max(np.abs(s1.u_curr - s3.u_curr)) <= 1e-12 * scale


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


def test_lts_local_step_matches_full_mask_recurrence():
    system, solvers = cut_bar(20)
    for solver in (solvers["lts"], solvers["lts_map"]):
        assert solver.nbhd.size < system.dof_count // 4  # the sub-steps stay local
        state = solver.initial_state()
        zero = np.zeros(system.dof_count)
        for want in full_mask_run(solver, zero, zero, 50)[1:]:
            state = solver.step(state)
            scale = np.max(np.abs(want))
            assert scale > 0.0  # the interface load is on from the first step
            assert np.max(np.abs(state.u_curr - want)) <= 1e-12 * scale, solver.cfg.p_t


def count_k_matvecs(monkeypatch):
    """The arguments of the GlobalSystem.k_matvec calls: the loop's element-local u."""
    calls = []
    original = GlobalSystem.k_matvec

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(GlobalSystem, "k_matvec", counted)
    return calls


def test_lts_one_stiffness_matvec_per_coarse_step(monkeypatch):
    # the sweep and the tabulated step both multiply u_n itself, with no
    # (1-P) pass: the sub-steps in d, or F, correct g on nbhd(sel). The loop
    # keeps u in K's element-local layout, one buffer for the whole run
    system, solvers = cut_bar(20)
    calls = count_k_matvecs(monkeypatch)
    entries = system.stiffness.batch_dofs.size + system.stiffness.stack_dofs.size
    for solver in (solvers["lts"], solvers["lts_map"]):
        state = solver.initial_state()
        calls.clear()
        solver._advance(state.u_curr, state.du, 0, 7)
        assert len(calls) == 7, solver.cfg.p_t
        assert all(x is calls[0] for x in calls) and calls[0].shape == (entries,), solver.cfg.p_t


def test_swept_sub_steps_touch_only_the_selected_dofs(monkeypatch):
    # each sub-step applies K[sel, sel] to a vector of len(sel) + 1 entries,
    # sel and the zero slot; the ring's one product a coarse step reads the
    # same; neither goes through the full matvec
    _, system, table = free_void_plate()
    dt = CFL_SAFETY * table.dt_uncut_min
    selection = np.zeros(system.dof_count, dtype=bool)
    selection[system.cut_element_dofs] = True
    solver = LtsSolver(system, LtsConfig(dt, choose_pt(dt, table.dt_cut_min), selection))
    assert solver.sub_step_map is None and len(solver.ring) > 0
    shapes = {"sel": [], "ring": []}

    def recorded(name, apply):
        return lambda x: shapes[name].append(x.shape) or apply(x)

    for name, op in (("sel", solver.k_sel), ("ring", solver.k_ring)):
        monkeypatch.setattr(op, "apply", recorded(name, op.apply))
    calls = count_k_matvecs(monkeypatch)
    u = np.random.default_rng(27).standard_normal(system.dof_count)
    solver._advance(u, np.zeros(system.dof_count), 0, 4)
    n = (int(selection.sum()) + 1,)
    assert shapes == {"sel": [n] * (4 * solver.cfg.p_t), "ring": [n] * 4} and len(calls) == 4
    assert solver._d.shape == solver._acc.shape == n


def test_unmasked_matvec_off_the_neighbourhood_is_the_masked_one_bitwise():
    # no element outside nbhd(sel) holds a selected DOF, so there the scaled
    # matvec of u_n is bytewise that of (1-P) u_n; on nbhd(sel) they differ
    system, solvers = cut_bar(100)
    solver = solvers["lts_map"]
    sel = solver.cfg.selection
    u = np.random.default_rng(25).standard_normal(system.dof_count)
    u[system.dirichlet_dofs] = 0.0
    c = solver.cfg.dt * solver.cfg.dt * system.m_inv
    unmasked = c * system.stiffness.apply(u)
    masked = c * system.stiffness.apply(np.where(sel, 0.0, u))
    off = np.setdiff1d(np.arange(system.dof_count), solver.nbhd)
    assert unmasked[off].tobytes() == masked[off].tobytes()
    assert np.any(unmasked[solver.nbhd] != masked[solver.nbhd])


def test_run_cdm_runs_the_loop_without_lts_run(monkeypatch):
    # perfbench's tracer counts LtsSolver.run calls as LTS runs and reads
    # matvecs per CDM step: run_cdm must not call that method, and makes one
    # matvec per step, from rest none to start
    system, solvers = cut_bar(20)

    def no_run(self, *args, **kwargs):
        raise AssertionError("run_cdm called LtsSolver.run")

    monkeypatch.setattr(LtsSolver, "run", no_run)
    calls = count_k_matvecs(monkeypatch)
    dt = solvers["cdm"].cfg.dt
    assert run_cdm(system, dt, 40).step == 40
    assert len(calls) <= 41
    u0 = np.random.default_rng(3).standard_normal(system.dof_count)
    u0[system.dirichlet_dofs] = 0.0
    calls.clear()
    run_cdm(system, dt, 40, u0=u0)
    assert len(calls) <= 41


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_record_gets_an_array_of_its_own(integrator):
    # a record that keeps u without copying it, as perfbench's PlateVoid
    # does, holds every stepped state
    system, solvers = cut_bar(20)
    solver = solvers[integrator]
    kept = []
    last = run(integrator, solver, 30, record=lambda s, t, u: kept.append(u))
    state = solver.initial_state()
    assert len({id(u) for u in kept}) == len(kept) == 30
    for u in kept:
        state = solver.step(state)
        assert u is not state.u_curr and u.tobytes() == state.u_curr.tobytes()
    assert kept[-1] is not last.u_curr and np.abs(kept[-1]).max() > 0.0


@pytest.mark.parametrize("split", [24, 25, 26, 49, 50, 51])
@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_continued_run_is_one_longer_run_bitwise(integrator, split):
    # a run of `split` steps continued by the rest, and initial_state
    # followed by single steps, are one 60-step run bit for bit: the load
    # samples a run carries from step to step are the ones a step evaluates
    # afresh, the flush is keyed to the absolute step count, and the check
    # after a last step does not flush. Under CDM the check after step 50
    # zeroes entries on this bar
    system, solvers = cut_bar(100)
    solver = solvers[integrator]

    def continued(state, n_steps):
        if integrator == "cdm":
            return run_cdm_continue(system, state, n_steps)
        for _ in range(n_steps):
            state = solver.step(state)
        return state

    longer = run(integrator, solver, 60)
    assert np.max(np.abs(longer.u_curr)) > 0.0
    split_run = continued(run(integrator, solver, split), 60 - split)
    for state in (split_run, continued(solver.initial_state(), 60)):
        assert state.step == longer.step == 60
        assert state.u_curr.tobytes() == longer.u_curr.tobytes()
        assert state.du.tobytes() == longer.du.tobytes()


def test_lts_step_leaves_its_state_untouched():
    _, solvers = cut_bar(20)
    for solver in (solvers["lts"], solvers["lts_map"]):
        state = solver.run(20)
        before = state.u_curr.copy(), state.du.copy()
        nxt = solver.step(state)
        assert np.array_equal(state.u_curr, before[0]) and np.array_equal(state.du, before[1])
        assert nxt.u_curr is not state.u_curr and nxt.du is not state.du
        assert (state.step, nxt.step) == (20, 21)


def test_lts_zero_start_skips_the_sub_step_sweep(monkeypatch):
    # the sweep is unloaded and linear in u_0: from u_0 = 0 it is exactly 0
    system, solvers = cut_bar(20)
    rng = np.random.default_rng(21)
    v0 = rng.standard_normal(system.dof_count)
    v0[system.dirichlet_dofs] = 0.0
    u0 = np.zeros(system.dof_count)
    calls = count_k_matvecs(monkeypatch)
    for solver in (solvers["lts"], solvers["lts_map"]):
        want = full_mask_u_prev(solver, u0, v0)
        calls.clear()
        got = solver.initial_state(v0=v0)
        assert len(calls) == 0, solver.cfg.p_t
        assert np.array_equal(got.u_prev, want) and np.array_equal(got.u_curr, u0)


def test_lts_displaced_start_runs_the_sub_step_sweep(monkeypatch):
    system, solvers = cut_bar(20)
    rng = np.random.default_rng(22)
    u0, v0 = 1e-3 * rng.standard_normal((2, system.dof_count))
    u0[system.dirichlet_dofs] = v0[system.dirichlet_dofs] = 0.0
    calls = count_k_matvecs(monkeypatch)
    for solver in (solvers["lts"], solvers["lts_map"]):
        want = full_mask_u_prev(solver, u0, v0)
        calls.clear()
        got = solver.initial_state(u0=u0, v0=v0)
        assert len(calls) == 1, solver.cfg.p_t
        assert np.array_equal(got.u_curr, u0)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got.u_prev - want)) <= 1e-12 * scale, solver.cfg.p_t


@pytest.mark.parametrize("field", ["u0", "v0"])
@pytest.mark.parametrize("integrator", ["cdm", "lts"])
def test_start_state_must_be_zero_on_dirichlet_dofs(integrator, field):
    # the loop would hold a nonzero u0 there, and a nonzero v0 would drift
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


@pytest.mark.parametrize("case", ["short_v0", "list_v0", "nan_u0"])
@pytest.mark.parametrize("integrator", ["cdm", "lts_map"])
def test_start_state_must_hold_one_finite_number_per_dof(integrator, case):
    # unchecked, a v0 one entry short ends in a bare broadcast ValueError, a
    # list v0 in a bare TypeError, and a NaN u0 is reported as nonzero on
    # the Dirichlet DOFs; a list of the right length is taken as its array
    system, solvers = cut_bar(20)
    solver = solvers[integrator]
    v0 = 1e-3 * np.random.default_rng(26).standard_normal(system.dof_count)
    v0[system.dirichlet_dofs] = 0.0
    if case == "list_v0":
        got, want = (run(integrator, solver, 3, v0=v) for v in (v0.tolist(), v0))
        assert got.u_curr.tobytes() == want.u_curr.tobytes()
        return
    if case == "short_v0":
        field, start = "v0", v0[:-1]
    else:
        field, start = "u0", np.zeros(system.dof_count)
        start[[system.dirichlet_dofs[0], np.flatnonzero(v0)[0]]] = math.nan
    with pytest.raises(ConfigError, match=f"{field} must hold {system.dof_count} finite"):
        run(integrator, solver, 3, **{field: start})


def test_lts_rejects_bad_config():
    _, system = make_system(nx=3, p=2)
    # unchecked, a fractional p_t is truncated, and NaN ends as a bare
    # ValueError
    for p_t in (0, 2.5, math.nan, math.inf):
        with pytest.raises(ConfigError):
            LtsConfig(1e-4, p_t, np.zeros(system.dof_count, dtype=bool))
    with pytest.raises(ConfigError):
        LtsSolver(system, LtsConfig(1e-4, 2, np.zeros(system.dof_count + 1, dtype=bool)))


@pytest.mark.parametrize("dt", [0.0, -1e-4, math.nan, math.inf])
@pytest.mark.parametrize("integrator", ["cdm", "lts"])
def test_integrators_reject_a_step_that_is_not_positive_and_finite(integrator, dt):
    # unchecked, a negative or zero step runs to a wrong state, and NaN
    # ends as Diverged
    _, system = make_system(nx=3, p=2)
    with pytest.raises(ConfigError, match="dt"):
        if integrator == "cdm":
            run_cdm(system, dt, 10)
        else:
            LtsConfig(dt, 1, np.zeros(system.dof_count, dtype=bool))


@pytest.mark.parametrize("mismatch", ["dt", "size"])
@pytest.mark.parametrize("integrator", ["cdm", "lts"])
def test_step_rejects_a_state_it_cannot_continue(integrator, mismatch):
    # unchecked, a state run at dt = 1e-4 and stepped at 2e-4 comes back as
    # step 11 at dt 2e-4, its time jumped and its increment of the other
    # dt; a state of another mesh ends in a bare IndexError
    _, system = make_system(nx=5, p=3)
    _, other = make_system(nx=4, p=3)
    state = run_cdm(other if mismatch == "size" else system, 1e-4, 10)
    dt = 2e-4 if mismatch == "dt" else 1e-4
    if integrator == "cdm":
        solver = _cdm_solver(system, dt)
    else:
        solver = LtsSolver(system, LtsConfig(dt, 2, np.ones(system.dof_count, dtype=bool)))
    with pytest.raises(ConfigError, match="dt" if mismatch == "dt" else "DOF"):
        solver.step(state)
    if mismatch == "size":
        with pytest.raises(ConfigError, match="DOF"):
            run_cdm_continue(system, state, 1)
    # a state of this system at this dt steps on
    assert solver.step(run_cdm(system, dt, 10)).step == 11


def test_lts_step_checks_its_state_at_every_step():
    # step is run's loop for one step, so it checks the state as run checks
    # its last one, here at step 3, which is no multiple of 25
    _, solvers = cut_bar(20)
    solver = solvers["lts_map"]
    state = solver.run(2)
    state.u_curr[np.flatnonzero(state.u_curr)[0]] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged):
            solver.step(state)


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


def test_cdm_flush_leaves_no_subnormal_state_after_the_first_check():
    system, solvers = cut_bar(100)
    dt = solvers["cdm"].cfg.dt
    tiny = np.finfo(float).tiny
    subnormal = []

    def record(step, t, u):
        a = np.abs(u)
        if step > 25 and np.any((a > 0.0) & (a < tiny)):
            subnormal.append(step)

    run_cdm(system, dt, int(0.1 / dt), record=record)
    assert subnormal == []


def assert_flushed(got, want, floor, flush):
    """got is want with the entries below floor set to 0 when flush, else want bitwise."""
    below = np.abs(want) < floor if flush else np.zeros(want.shape, dtype=bool)
    assert not np.any(got[below])
    assert got[~below].tobytes() == want[~below].tobytes()
    return int(np.count_nonzero(want[below]))


# The run-level bound on what the flush moves, in units of _NEGLIGIBLE max |u|.
# The flushed entries sit in the tail ahead of the wave front. Once they
# differ, the two runs' round-off differs there too, at the size of the
# tail, which grows as the front nears: by up to 8e12 under CDM to t = 0.1
# and 1e6 under LTS here. The bound stays about 450 binades below the
# round-off of the largest entry.
FLUSH_GROWTH = 2.0**100


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_flush_zeroes_only_entries_below_the_floor(integrator):
    # each step is the unflushed coarse step from the same state, except that
    # after every 25th step, counted from 0, the entries of u and du below
    # _NEGLIGIBLE max |u| are 0; a free-running unflushed loop stays within
    # FLUSH_GROWTH of that floor, to t = 0.1. A run is the stepped state
    # bitwise after the first check that zeroes entries
    system, solvers = cut_bar(100)
    solver = solvers[integrator]

    def unflushed_step(u, du, n):
        return coarse_step(solver, u, du, solver._pulse_samples(n), solver._pulse_samples(n - 1))

    state = solver.initial_state()
    free = state.u_curr, state.du
    zeroed, first_zeroed = 0, None
    for n in range(int(0.1 / solver.cfg.dt)):
        u, du = unflushed_step(state.u_curr, state.du, n)
        nxt = run_cdm_continue(system, state, 1) if integrator == "cdm" else solver.step(state)
        floor = _NEGLIGIBLE * np.max(np.abs(u))
        flush = n % 25 == 0
        now = assert_flushed(nxt.u_curr, u, floor, flush) + assert_flushed(nxt.du, du, floor, flush)
        if now and not zeroed:
            first_zeroed = nxt
        zeroed += now
        state = nxt
        free = unflushed_step(*free, n)
        moved = np.max(np.abs(state.u_curr - free[0]))
        assert moved <= FLUSH_GROWTH * _NEGLIGIBLE * np.max(np.abs(free[0])), n
    assert zeroed > 0
    longer = run(integrator, solver, first_zeroed.step)
    assert longer.u_curr.tobytes() == first_zeroed.u_curr.tobytes()
    assert longer.du.tobytes() == first_zeroed.du.tobytes()


def count_zeroed(monkeypatch):
    """A list that gets the number of entries each step's check set to 0."""
    counts = []
    original = integrators._check_divergence

    def counted(n, last, u, du, scale):
        before = np.count_nonzero(u) + np.count_nonzero(du)
        original(n, last, u, du, scale)
        counts.append(before - np.count_nonzero(u) - np.count_nonzero(du))

    monkeypatch.setattr(integrators, "_check_divergence", counted)
    return counts


@functools.cache
def free_void_plate(voids="two"):
    """A free, unloaded 5 x 5 plate, p = 3, nu = 0.3, with circular voids.

    "two" has two voids; "one" has one void inside one
    element, so nbhd(sel) holds the 100 nodes of its 3 x 3 elements.
    """
    circles = {"two": [(0.33, 0.41, 0.13), (0.71, 0.68, 0.11)], "one": [(0.3, 0.3, 0.05)]}[voids]
    level_set = union_of_voids([circle(*c) for c in circles])
    mesh = CartesianMesh(lx=1.0, ly=1.0, nx=5, ny=5, p=3, level_set=level_set)
    mat = Material(youngs_modulus=1.0, poisson_ratio=0.3, density=1.0)
    return mesh, assemble_global(mesh, mat), critical_timestep_table(mesh, mat)


@pytest.mark.parametrize("start", ["random", "localized"])
@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_leapfrog_invariant_is_exact(monkeypatch, integrator, start):
    # u_{n+1} - 2 u_n + u_{n-1} = -dt^2 B u_n with M B symmetric keeps
    # E_{n+1/2} = |u_{n+1} - u_n|_M^2 / (2 dt^2) + u_{n+1}^T M B u_n / 2
    # constant: B = M^-1 K under CDM, the coarse step's operator under LTS,
    # probed as one step from u_{n-1} = u_n. "lts" sweeps its sub-steps
    # (nbhd(sel) is above the cap); "lts_map", on the one-void plate at
    # p_t = 12, tabulates them, and B holds the map's round-off once for
    # every step. The localized start is a narrow bump in a corner, whose
    # tail lies below the flush floor; its first check flushes it
    mesh, system, table = free_void_plate("one" if integrator == "lts_map" else "two")
    u0 = np.zeros(system.dof_count)
    if start == "random":
        u0[:] = np.random.default_rng(9).standard_normal(system.dof_count)
    else:
        ids = np.flatnonzero(mesh.node_active)
        xy = mesh.node_coords(ids)
        u0[mesh.node_dofs(ids)[0::2]] = np.exp(-(xy[:, 0] ** 2 + xy[:, 1] ** 2) / (2.0 * 0.025**2))
    mass = system.lumped_mass
    zeroed = count_zeroed(monkeypatch)
    n_steps = 2000
    if integrator == "cdm":
        dt = 0.9 * table.dt_c
        k = system.k_csr()
        us = [u0]
        run_cdm(system, dt, n_steps, u0=u0, record=lambda s, t, u: us.append(u))

        def b_apply(u):
            return system.m_inv * (k @ u)
    else:
        dt = CFL_SAFETY * table.dt_uncut_min
        selection = np.zeros(system.dof_count, dtype=bool)
        selection[system.cut_element_dofs] = True
        p_t = choose_pt(dt, table.dt_cut_min)
        if integrator == "lts_map":
            p_t = max(p_t, 12)
        solver = LtsSolver(system, LtsConfig(dt, p_t, selection))
        assert (solver.sub_step_map is not None) == (integrator == "lts_map")
        state = solver.initial_state(u0=u0)
        us = [state.u_curr]
        for _ in range(n_steps):
            state = solver.step(state)
            us.append(state.u_curr)

        def b_apply(u):
            return -solver.step(LtsState(u, np.zeros_like(u), step=0, dt=dt)).du / dt**2

    energies = np.array([
        0.5 * (us[n + 1] - us[n]) @ (mass * (us[n + 1] - us[n])) / dt**2
        + 0.5 * us[n + 1] @ (mass * b_apply(us[n]))
        for n in range(n_steps)
    ])
    assert np.max(np.abs(energies / energies[0] - 1.0)) <= 1e-13
    if start == "localized":
        assert zeroed[0] > 0


def coarse_step_operator(solver):
    """Dense B with u_{n+1} - 2 u_n + u_{n-1} = -dt^2 B u_n: one unloaded `step` per column.

    Each column is -du / dt^2 after one step from u_n = e_j and du = 0.
    """
    dt, n = solver.cfg.dt, solver.system.dof_count
    columns = []
    for x in np.eye(n):
        columns.append(-solver.step(LtsState(x, np.zeros(n), step=0, dt=dt)).du / dt**2)
    return np.column_stack(columns)


def test_coarse_step_operator_is_m_symmetric_on_void_plates():
    # ROADMAP item 9's invariant needs M B symmetric. On free plates with one
    # or two small voids, under each lumping scheme: B from CDM at 0.95 dt_c,
    # and from the LTS at 0.95 of the uncut step and choose_pt's ratio, swept
    # or tabulated by the size rule. Under CDM dt^2 lambda_max(B) <= 4; the
    # LTS can come within round-off of 4 (item 9), so it is not bounded here.
    # The example is one void in a corner element, whose nbhd(sel) of 2 x 2
    # elements is below the cap, so both paths occur
    paths = set()

    @settings(max_examples=14, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 4),
        elements=st.integers(3, 16),
        voids=st.lists(
            st.tuples(st.floats(0.15, 0.85), st.floats(0.15, 0.85), st.floats(0.04, 0.12)),
            min_size=1,
            max_size=2,
        ),
        scheme=st.sampled_from(["fitted", "hrz", "scaled"]),
    )
    @example(p=4, elements=3, voids=[(0.17, 0.17, 0.12)], scheme="fitted")
    def check(p, elements, voids, scheme):
        # at most 2 (16 + 1)^2 = 578 DOFs
        elements = min(elements, 16 // p)
        mesh = CartesianMesh(
            lx=1.0, ly=1.0, nx=elements, ny=elements, p=p,
            level_set=union_of_voids([circle(*c) for c in voids]),
        )
        mat = Material(youngs_modulus=1.0, poisson_ratio=0.3, density=1.0)
        system = assemble_global(mesh, mat, scheme)
        table = critical_timestep_table(mesh, mat, scheme)
        dt = CFL_SAFETY * table.dt_uncut_min
        selection = np.zeros(system.dof_count, dtype=bool)
        selection[system.cut_element_dofs] = True
        lts = LtsSolver(system, LtsConfig(dt, choose_pt(dt, table.dt_cut_min), selection))
        tabulated = len(lts.nbhd) < _MAP_MAX_SIZE
        assert (lts.sub_step_map is not None) == tabulated
        paths.add(tabulated)
        sqrt_m = np.sqrt(system.lumped_mass)
        for solver in (_cdm_solver(system, CFL_SAFETY * table.dt_c), lts):
            b = coarse_step_operator(solver)
            mb = system.lumped_mass[:, None] * b
            assert np.abs(mb - mb.T).max() <= 1e-12 * np.abs(mb).max()
            if solver is not lts:
                s = sqrt_m[:, None] * b / sqrt_m[None, :]
                assert solver.cfg.dt**2 * np.linalg.eigvalsh(0.5 * (s + s.T))[-1] <= 4.0

    check()
    assert paths == {False, True}


@pytest.mark.parametrize("inputs", ["state", "load", "all"])
def test_sub_step_map_equals_the_sweep(inputs):
    # F z, z = [g; pulse(t_n); s_1 ...] on nbhd(sel), against `_local_step`'s
    # sweep on sel and closed form on the ring, from the same random g, fwd
    # and bwd. fwd and bwd are zero for "state" and the only nonzero inputs
    # for "load", whose term is far smaller
    system, solvers = cut_bar(100)
    solver = solvers["lts_map"]
    nb, p_t = solver.nbhd, solver.cfg.p_t
    rng = np.random.default_rng(24)
    g = rng.standard_normal(system.dof_count)
    fwd, bwd = rng.standard_normal((2, p_t))
    if inputs == "state":
        fwd[:] = bwd[:] = 0.0
    elif inputs == "load":
        g[:] = 0.0
    assert solver._fine_load[1].size > 0  # the interface load is on the refined DOFs
    swept = solver._local_step(g[nb], fwd, bwd)
    got = solver.sub_step_map @ np.concatenate([g[nb], fwd[:1], fwd[1:] + bwd[:0:-1]])
    assert np.abs(got - swept).max() <= 1e-13 * np.abs(swept).max()


@pytest.mark.parametrize("load", ["loaded", "unloaded"])
@pytest.mark.parametrize("path", ["swept", "tabulated"])
def test_coarse_step_matches_the_reference_sweep_on_the_neighbourhood(path, load):
    # the coarse step, swept on sel with the ring in closed form or folded
    # into F, against the v-form sweep on all of nbhd(sel) from a masked
    # matvec, from the same random u, du, fwd and bwd. "loaded" is the bar
    # benchmark's 100-element bar at its dt and p_t = 10, its interface load
    # on the refined DOFs, swept with the map's cap at 0; "unloaded" the
    # free plates, two voids (swept) and one void at p_t = 12 (tabulated)
    tabulated = path == "tabulated"
    if load == "loaded":
        system, solvers = cut_bar(100)
        cfg = solvers["lts_map"].cfg
    else:
        _, system, table = free_void_plate("one" if tabulated else "two")
        dt = CFL_SAFETY * table.dt_uncut_min
        selection = np.zeros(system.dof_count, dtype=bool)
        selection[system.cut_element_dofs] = True
        p_t = choose_pt(dt, table.dt_cut_min)
        cfg = LtsConfig(dt, max(p_t, 12) if tabulated else p_t, selection)
    with mock.patch.object(integrators, "_MAP_MAX_SIZE", _MAP_MAX_SIZE if tabulated else 0):
        solver = LtsSolver(system, cfg)
    assert (solver.sub_step_map is not None) == tabulated
    assert np.any(system.f_shape[cfg.selection]) == (load == "loaded")
    rng = np.random.default_rng(28)
    u, du = rng.standard_normal((2, system.dof_count))
    u[system.dirichlet_dofs] = du[system.dirichlet_dofs] = 0.0
    fwd, bwd = rng.standard_normal((2, cfg.p_t))
    want_u, want_du = reference_coarse_step(solver, u, du, fwd, bwd)
    for got, want in zip(coarse_step(solver, u, du, list(fwd), list(bwd)), (want_u, want_du)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_element_local_loop_is_the_dof_layout_loop_bitwise(monkeypatch):
    # The loop steps u and du in K's element-local layout, every copy of a
    # DOF doing that DOF's arithmetic, with a copy sum in place of bincount.
    # Against the same loop in DOF layout (helpers.dof_layout_run), on loaded
    # bars clamped at x = 0 (DOFs with 1 or 2 copies) and free void plates
    # (1 to 4), under CDM, swept and tabulated LTS, from a displaced or a
    # velocity start: `run` then `step`, 60 to 70 steps, past two flushes,
    # give u and du bitwise; every DOF's copies are bitwise equal after
    # every step; K's copy sum is bitwise bincount's. An unshared entry keeps
    # the product's signed zero where bincount's 0.0 + v gives +0.0, so the
    # byte comparisons also guard the signs of zeros. With the mesh's
    # numbering a node's copies are summed on a complex view; with each
    # element's entries reversed, (uy, ux), a DOF's are summed alone
    seen = {"copies": set(), "integrators": set(), "starts": set(), "views": set()}
    states = []

    def recorded(n, last, u, du, scale):
        states.append((u.copy(), du.copy()))
        return check_divergence(n, last, u, du, scale)

    check_divergence = integrators._check_divergence
    monkeypatch.setattr(integrators, "_check_divergence", recorded)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        body=st.sampled_from(["bar", "plate"]),
        p=st.integers(2, 4),
        size=st.integers(4, 6),
        fraction=st.floats(0.1, 0.9),
        integrator=st.sampled_from(["cdm", "swept", "tabulated"]),
        start=st.sampled_from(["displaced", "velocity"]),
        n_steps=st.integers(61, 70),
        reversed_entries=st.booleans(),
    )
    # a whole void element at the centre: its corner nodes have 3 copies
    @example(
        body="plate", p=2, size=5, fraction=0.8, integrator="tabulated", start="displaced",
        n_steps=61, reversed_entries=True,
    )
    @example(
        body="bar", p=3, size=4, fraction=0.3, integrator="swept", start="velocity", n_steps=61,
        reversed_entries=False,
    )
    def check(body, p, size, fraction, integrator, start, n_steps, reversed_entries):
        if body == "bar":
            cfg = BarBenchmarkConfig(cut_fraction=fraction, order=p, elements_x=size)
            mesh, system = build_bar_system(cfg)
            mat = cfg.material
        else:
            mesh = CartesianMesh(
                lx=1.0, ly=1.0, nx=size, ny=size, p=p,
                level_set=union_of_voids([circle(0.5, 0.5, fraction / size)]),
            )
            mat = Material(youngs_modulus=1.0, poisson_ratio=0.3, density=1.0)
            system = assemble_global(mesh, mat)
        table = critical_timestep_table(mesh, mat)
        if reversed_entries:
            k = system.stiffness
            batches = ElementBatches(
                k.size,
                k.batch_dofs[:, ::-1],
                k.batch_k_e[::-1, ::-1],
                k.stack_dofs[:, ::-1],
                k.stack_k_e[:, ::-1, ::-1],
            )
            system = GlobalSystem(
                batches, system.lumped_mass, system.dirichlet_dofs, system.f_shape, system.pulse
            )
        stiffness = system.stiffness
        seen["views"].add(stiffness._copies[1].name)

        def copies_equal(v):
            return v.tobytes() == stiffness.to_local(stiffness.from_local(v)).tobytes()

        rng = np.random.default_rng(n_steps)
        x = rng.standard_normal(system.dof_count)
        kx = stiffness.apply_local(stiffness.to_local(x))
        assert copies_equal(kx)
        assert stiffness.from_local(kx).tobytes() == stiffness.apply(x).tobytes()
        if integrator == "cdm":
            dt = CFL_SAFETY * table.dt_c
            solver = _cdm_solver(system, dt)
        else:
            dt = CFL_SAFETY * table.dt_uncut_min
            selection = np.zeros(system.dof_count, dtype=bool)
            selection[system.cut_element_dofs] = True
            selection[system.dirichlet_dofs] = False
            cap = 10**6 if integrator == "tabulated" else 0
            cfg = LtsConfig(dt, choose_pt(dt, table.dt_cut_min), selection)
            with mock.patch.object(integrators, "_MAP_MAX_SIZE", cap):
                solver = LtsSolver(system, cfg)
            assert (solver.sub_step_map is not None) == (integrator == "tabulated")
        v = 1e-3 * rng.standard_normal(system.dof_count)
        v[system.dirichlet_dofs] = 0.0
        start_state = {"u0" if start == "displaced" else "v0": v}
        want_u, want_du = dof_layout_run(solver, n_steps, **start_state)
        states.clear()
        if integrator == "cdm":
            state = run_cdm_continue(system, run_cdm(system, dt, n_steps - 1, **start_state), 1)
        else:
            state = solver.step(solver.run(n_steps - 1, **start_state))
        assert state.step == n_steps and np.max(np.abs(want_u)) > 0.0
        assert state.u_curr.tobytes() == want_u.tobytes()
        assert state.du.tobytes() == want_du.tobytes()
        assert len(states) == n_steps and all(copies_equal(v) for pair in states for v in pair)
        copies = np.bincount(stiffness.to_local(np.arange(system.dof_count)))
        seen["copies"].update(np.unique(copies).tolist())
        seen["integrators"].add(integrator)
        seen["starts"].add(start)

    check()
    assert seen == {
        "copies": {1, 2, 3, 4},
        "integrators": {"cdm", "swept", "tabulated"},
        "starts": {"displaced", "velocity"},
        "views": {"complex128", "float64"},
    }


@pytest.mark.parametrize("case", ["bar_lts", "above_cap", "pt1", "empty"])
def test_sub_steps_are_tabulated_when_the_map_is_cheaper_and_small(case):
    # in process the map's product beats the sweep at every p_t on the
    # neighbourhoods below the cap (CHANGES.md), so it is tabulated when
    # 0 < k < _MAP_MAX_SIZE, k = len(nbhd): on the bar benchmark's
    # 100-element bar at its dt and p_t, and at p_t = 1; not on the two-void
    # plate above the cap, nor with nothing selected
    if case == "above_cap":
        _, system, table = free_void_plate()
        dt = CFL_SAFETY * table.dt_uncut_min
        selection = np.zeros(system.dof_count, dtype=bool)
        selection[system.cut_element_dofs] = True
        cfg = LtsConfig(dt, choose_pt(dt, table.dt_cut_min), selection)
    else:
        system, solvers = cut_bar(100)
        cfg = solvers["lts_map"].cfg
        if case == "pt1":
            cfg = LtsConfig(cfg.dt, 1, cfg.selection)
        elif case == "empty":
            cfg = LtsConfig(cfg.dt, 1, np.zeros_like(cfg.selection))
    solver = LtsSolver(system, cfg)
    k, p_t = len(solver.nbhd), cfg.p_t
    w = solver.sub_step_map
    if case in ("bar_lts", "pt1"):
        assert (k, p_t) == (132, 10 if case == "bar_lts" else 1)
        assert w.shape == (k, k + p_t)
    else:
        assert (k >= _MAP_MAX_SIZE if case == "above_cap" else k == 0) and w is None


def test_sub_step_map_is_read_only():
    _, solvers = cut_bar(100)
    solver = solvers["lts_map"]
    with pytest.raises(AttributeError):
        solver.sub_step_map = None
    with pytest.raises(ValueError):
        solver.sub_step_map[0, 0] = 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("integrator", ["cdm", "lts_run", "lts_step"])
def test_nonfinite_state_raises_diverged_at_the_check(integrator, bad):
    # a load sample that is not finite puts NaN or an infinity of its sign on
    # one DOF of a checked state, before any matvec reads it; the check
    # raises, with no RuntimeWarning on the way. Both integrators check the
    # state after the step from t_n with n % 25 == 0
    _, system = make_system(nx=5, p=3)
    dt = 1e-4
    free_dof = np.setdiff1d(np.arange(system.dof_count), system.dirichlet_dofs)[-1]
    system.f_shape = np.zeros(system.dof_count)
    system.f_shape[free_dof] = 1.0
    t_bad = 25 * dt
    system.pulse = lambda t: bad if abs(t - t_bad) < 0.5 * dt else 0.0
    steps = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged):
            if integrator == "cdm":
                run_cdm(system, dt, 100, record=lambda s, t, u: steps.append(s))
            else:
                solver = LtsSolver(system, LtsConfig(dt, 1, np.zeros(system.dof_count, dtype=bool)))
                if integrator == "lts_run":
                    solver.run(100, record=lambda s, t, u: steps.append(s))
                else:
                    state = solver.initial_state()
                    for _ in range(100):
                        state = solver.step(state)
                        steps.append(state.step)
    assert steps[-1] == 25


@pytest.mark.parametrize("integrator", ["lts_run", "lts_step"])
def test_lts_run_and_step_raise_past_the_bound_of_their_start(integrator):
    # a pulse of 1e30 at t = 0 sends the bar from rest to max |u| = 4.3e25
    # in one step, past 1e12 x the start scale, 1; run and step check by one
    # rule, so both raise
    _, system = make_system(nx=6, p=3)
    system.f_shape = np.zeros(system.dof_count)
    system.f_shape[np.setdiff1d(np.arange(system.dof_count), system.dirichlet_dofs)[-1]] = 1.0
    system.pulse = lambda t: 1e30 if t == 0.0 else 0.0
    solver = LtsSolver(system, LtsConfig(1e-4, 1, np.zeros(system.dof_count, dtype=bool)))
    with pytest.raises(Diverged):
        if integrator == "lts_run":
            solver.run(1)
        else:
            solver.step(solver.initial_state())


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
    # the sweep builds all its fractions' rules in one pass, each element the
    # box of its fraction on the half-plane x <= 0; every rule must be the
    # one-element rule bit for bit
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
