"""Mesh construction, element matrices, and global assembly."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cutsem.assembly import (
    CartesianMesh,
    ElementBatches,
    GlobalSystem,
    Material,
    assemble_edge_traction,
    assemble_global,
    assemble_interface_traction,
    element_lumped_mass,
    element_operators,
    element_stiffness,
    plane_strain_d,
)
from cutsem.benchmark import BarBenchmarkConfig, build_bar_mesh
from cutsem.errors import ConfigError, VoidElement
from cutsem.geometry import LevelSet, _gauss_square, circle, half_plane, union_of_voids
from cutsem.gll import tensor_basis
from cutsem.integrators import LtsConfig, LtsSolver, critical_timestep_table, run_cdm
from cutsem.momentfit import LumpedElementMass, MomentFitConfig

from helpers import a_local, count_shape_evals

MAT = Material(youngs_modulus=1.0, poisson_ratio=0.0, density=1.0)


def test_material_validation():
    with pytest.raises(ConfigError):
        Material(youngs_modulus=0.0, poisson_ratio=0.0, density=1.0)
    with pytest.raises(ConfigError):
        Material(youngs_modulus=1.0, poisson_ratio=0.5, density=1.0)
    with pytest.raises(ConfigError):
        Material(youngs_modulus=1.0, poisson_ratio=0.0, density=-1.0)


def test_plane_strain_matrix():
    d = plane_strain_d(MAT)
    np.testing.assert_allclose(d, np.diag([1.0, 1.0, 0.5]), atol=1e-15)
    d = plane_strain_d(Material(youngs_modulus=2.0, poisson_ratio=0.25, density=1.0))
    c = 2.0 / (1.25 * 0.5)
    np.testing.assert_allclose(
        d, c * np.array([[0.75, 0.25, 0.0], [0.25, 0.75, 0.0], [0.0, 0.0, 0.25]]), atol=1e-14
    )


def test_element_stiffness_rigid_modes():
    basis = tensor_basis(4)
    pts, wts = _gauss_square(8)
    ke = element_stiffness(basis, MAT, pts, wts, (0.5, 0.5))
    n = basis.node_count
    coords = basis.node_coords()
    translation = np.zeros(2 * n)
    translation[0::2] = 1.0
    rotation = np.zeros(2 * n)
    rotation[0::2] = -coords[:, 1]
    rotation[1::2] = coords[:, 0]
    assert np.max(np.abs(ke @ translation)) < 1e-10
    assert np.max(np.abs(ke @ rotation)) < 1e-10
    assert np.max(np.abs(ke - ke.T)) < 1e-12
    # positive semidefinite on random probes
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(2 * n)
        assert x @ (ke @ x) >= -1e-10 * (x @ x)


def test_element_stiffness_bilinear_corner_entry():
    # exact integration of bilinear gradients over the unit square
    basis = tensor_basis(1)
    pts, wts = _gauss_square(2)
    ke = element_stiffness(basis, MAT, pts, wts, (0.5, 0.5))
    assert abs(ke[0, 0] - 0.5) < 1e-14


def test_element_lumped_mass():
    basis = tensor_basis(3)
    lumped = LumpedElementMass(scheme="nodal_gll", weights=basis.node_weights())
    me = element_lumped_mass(lumped, MAT, (0.5, 0.5))
    assert me.shape == (2 * basis.node_count,)
    assert abs(me.sum() - 2.0) < 1e-12  # two DOFs per node, unit area
    np.testing.assert_allclose(me[0::2], me[1::2], atol=1e-15)
    me2 = element_lumped_mass(
        lumped, Material(youngs_modulus=1.0, poisson_ratio=0.0, density=2.0), (0.5, 0.5)
    )
    np.testing.assert_allclose(me2, 2.0 * me, atol=1e-15)


def test_uncut_mesh_dof_count_and_mass():
    mesh = CartesianMesh(lx=1.0, ly=0.1, nx=10, ny=1, p=5)
    assert mesh.dof_count == (10 * 5 + 1) * (5 + 1) * 2
    system = assemble_global(mesh, MAT)
    assert abs(system.lumped_mass.sum() - 2.0 * 1.0 * 1.0 * 0.1) < 1e-12


def test_shared_edge_mass_additivity():
    mesh = CartesianMesh(lx=2.0, ly=1.0, nx=2, ny=1, p=1)
    system = assemble_global(mesh, MAT)
    # six nodes; the two shared-edge nodes carry mass from both elements
    mass_per_node = system.lumped_mass[0::2]
    corner = mass_per_node.min()
    shared = mass_per_node.max()
    assert abs(shared - 2.0 * corner) < 1e-12


@pytest.mark.parametrize("nx, ny", [(0, 1), (1, 0), (-2, 3)])
def test_mesh_rejects_element_counts_below_one(nx, ny):
    with pytest.raises(ConfigError, match="element counts"):
        CartesianMesh(lx=1.0, ly=1.0, nx=nx, ny=ny, p=4)


@pytest.mark.parametrize("lx, ly", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -0.5)])
def test_mesh_rejects_non_positive_lengths(lx, ly):
    with pytest.raises(ConfigError, match="lengths"):
        CartesianMesh(lx=lx, ly=ly, nx=2, ny=2, p=4)


def test_mesh_rejects_negative_depth():
    for level_set in (None, circle(0.5, 0.5, 0.2)):
        with pytest.raises(ConfigError, match="depth"):
            CartesianMesh(lx=1.0, ly=1.0, nx=2, ny=2, p=2, level_set=level_set, depth=-1)


def test_all_void_mesh_has_zero_dofs():
    mesh = CartesianMesh(lx=1.0, ly=1.0, nx=2, ny=2, p=2, level_set=half_plane(1.0, 0.0, -1.0))
    assert mesh.dof_count == 0
    assert not np.any(mesh.node_active)


def test_global_stiffness_symmetry_and_dirichlet():
    mesh = CartesianMesh(lx=1.0, ly=0.5, nx=4, ny=2, p=3)
    mesh.fix_nodes(lambda x, y: np.abs(x) < 1e-12)
    system = assemble_global(mesh, MAT)
    k = system.k_csr()
    assert abs(k - k.T).max() < 1e-12
    # the inverse mass holds the Dirichlet DOFs; the mass itself is untouched
    assert len(system.dirichlet_dofs) == 2 * (2 * 3 + 1)
    free = np.ones(system.dof_count, dtype=bool)
    free[system.dirichlet_dofs] = False
    assert np.all(system.lumped_mass > 0)
    for m_inv in (system.m_inv, system.m_inv_sqrt):
        assert np.all(m_inv[system.dirichlet_dofs] == 0.0)
        assert np.all(m_inv[free] > 0.0)


def test_patch_linear_field_loads_boundary_only():
    mesh = CartesianMesh(lx=1.0, ly=1.0, nx=3, ny=3, p=2)
    system = assemble_global(mesh, MAT)
    ids = np.arange(mesh.n_nodes_x * mesh.n_nodes_y)
    coords = mesh.node_coords(ids)
    u = np.zeros(system.dof_count)
    u[0::2] = 0.7 * coords[:, 0]
    resid = system.k_csr() @ u
    interior = (
        (coords[:, 0] > 1e-12)
        & (coords[:, 0] < 1.0 - 1e-12)
        & (coords[:, 1] > 1e-12)
        & (coords[:, 1] < 1.0 - 1e-12)
    )
    interior_dofs = mesh.node_dofs(ids[interior])
    assert np.max(np.abs(resid[interior_dofs])) < 1e-9


def test_cut_mesh_mass_conservation():
    ls = half_plane(1.0, 0.0, 0.7)
    mesh = CartesianMesh(lx=1.0, ly=0.5, nx=5, ny=2, p=4, level_set=ls, depth=3)
    for scheme in ("fitted", "hrz", "scaled"):
        system = assemble_global(mesh, MAT, scheme=scheme)
        expect = 2.0 * MAT.density * 0.7 * 0.5
        assert abs(system.lumped_mass.sum() - expect) < 1e-8, scheme
    assert len(system.cut_element_dofs) > 0


def assert_matvec_matches_csr(system, seed=4):
    # the batch sums in another order than the CSR product: agreement to
    # rounding, relative to the largest entry of K x
    x = np.random.default_rng(seed).standard_normal(system.dof_count)
    expect = system.k_csr() @ x
    assert np.abs(system.k_matvec(x) - expect).max() <= 1e-14 * np.abs(expect).max()


def batched_elements(mesh, system):
    """Sorted DOF rows of the full elements, and of the batch."""
    expect = [
        tuple(mesh.node_dofs(mesh.element_nodes(*key)))
        for key in mesh.elements()
        if mesh.classification[key] == "full"
    ]
    return sorted(expect), sorted(map(tuple, system.stiffness.batch_dofs))


def assert_lts_sub_step_matches_csr(system, selection):
    """The sub-step operator is M^(-1/2) K[nbhd, sel] M^(-1/2), on the CSR's nbhd.

    M^(-1/2) is zero on the Dirichlet DOFs.
    """
    solver = LtsSolver(system, LtsConfig(1e-3, 2, selection))
    sel = np.flatnonzero(selection)
    # nbhd(sel) as the rows that the CSR's columns of sel store
    k_cols = system.k_csr()[:, sel].tocsr()
    assert np.array_equal(solver.nbhd, np.union1d(np.flatnonzero(np.diff(k_cols.indptr)), sel))
    m_inv_sqrt = 1.0 / np.sqrt(system.lumped_mass)
    m_inv_sqrt[system.dirichlet_dofs] = 0.0
    a = m_inv_sqrt[solver.nbhd, None] * k_cols.toarray()[solver.nbhd] * m_inv_sqrt[sel]
    q = np.random.default_rng(5).standard_normal(len(solver.nbhd))
    expect = a @ q[solver.fine]
    err = np.abs(a_local(solver, q) - expect).max(initial=0.0)
    assert err <= 1e-14 * np.abs(expect).max(initial=0.0)


@pytest.mark.parametrize(
    "level_set, ny, clamp",
    [
        (half_plane(1.0, 0.0, 0.7), 1, True),  # cut bar with a clamped edge
        (circle(0.5, 0.15, 0.1), 3, False),  # free mesh around a circular void
        (None, 3, False),  # uncut
    ],
    ids=["clamped_cut_bar", "free_circular_void", "uncut"],
)
def test_batched_stiffness_matches_assembled_csr(level_set, ny, clamp):
    mesh = CartesianMesh(lx=1.0, ly=0.1 * ny, nx=5, ny=ny, p=4, level_set=level_set, depth=3)
    if clamp:
        mesh.fix_nodes(lambda x, y: np.abs(x) < 1e-12)
    system = assemble_global(mesh, MAT)
    assert_matvec_matches_csr(system)
    # every full element is batched, clamped or not, and every cut one stacked
    expect, batch = batched_elements(mesh, system)
    assert batch == expect and len(batch) > 0
    k = system.stiffness
    cut = [key for key, c in mesh.classification.items() if c == "cut"]
    assert len(k.stack_dofs) == len(cut)
    assert not hasattr(k, "diag_dofs")
    for a in (k.batch_dofs, k.batch_k_e, k.stack_dofs, k.stack_k_e):
        assert not a.flags.writeable
    # built once, on the first call, and k_data is a view of its stored values
    assert system.k_csr() is system.k_csr()
    assert np.shares_memory(system.k_csr().data, system.k_data)


def test_bare_global_system_has_an_empty_batch():
    k = sp.random(7, 7, density=0.5, random_state=3, format="csr").toarray()
    empty = np.array([], dtype=np.int64)
    system = GlobalSystem(
        stiffness=ElementBatches(7, stack_dofs=[np.arange(7)], stack_k_e=[k]),
        lumped_mass=np.ones(7),
        dof_count=7,
        dirichlet_dofs=empty,
        cut_element_dofs=empty,
    )
    assert system.stiffness.batch_dofs.size == 0 and np.array_equal(system.k_csr().toarray(), k)
    assert_matvec_matches_csr(system)


def test_empty_operator_applies_as_float_zeros():
    # np.bincount of an empty index ignores the dtype of its weights
    for op in (ElementBatches(4), ElementBatches(4).restrict(np.ones(4, dtype=bool))[1]):
        kx = op.apply(np.ones(op.size))
        assert kx.dtype == np.float64 and np.array_equal(kx, np.zeros(op.size))
    empty = ElementBatches(0).apply(np.zeros(0))
    assert empty.dtype == np.float64 and empty.shape == (0,)


def test_restriction_to_an_empty_selection_applies_as_float_zeros():
    system = assemble_global(CartesianMesh(lx=1.0, ly=1.0, nx=2, ny=2, p=2), MAT)
    nbhd, op = system.stiffness.restrict(np.zeros(system.dof_count, dtype=bool))
    assert nbhd.size == 0 and op.size == 1
    kx = op.apply(np.zeros(1))
    assert kx.dtype == np.float64 and np.array_equal(kx, np.zeros(1))


def cut_plate_stiffness():
    """K of a free p = 3 mesh around a circular void: full and cut elements."""
    mesh = CartesianMesh(lx=1.0, ly=1.0, nx=4, ny=4, p=3, level_set=circle(0.5, 0.5, 0.3), depth=2)
    return assemble_global(mesh, MAT).stiffness


def test_apply_returns_a_fresh_array():
    # both products go through one values buffer per operator; a result
    # must not be a view of it
    k = cut_plate_stiffness()
    _, local = k.restrict(np.random.default_rng(6).random(k.size) < 0.3)
    rng = np.random.default_rng(7)
    for op in (k, local):
        x, y = rng.standard_normal((2, op.size))
        first = op.apply(x)
        kept = first.copy()
        second = op.apply(y)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()


@pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
def test_restricted_operator_reads_no_entry_outside_cols(density):
    k = cut_plate_stiffness()
    cols = np.random.default_rng(8).random(k.size) < density
    nbhd, op = k.restrict(cols)
    assert op.size == len(nbhd) + 1 and len(op.stack_dofs) > 0 and len(op.batch_dofs) > 0
    on_cols = cols[nbhd]
    x = np.zeros(op.size)
    x[:-1][on_cols] = np.random.default_rng(9).standard_normal(on_cols.sum())
    filled = x.copy()
    filled[:-1][~on_cols] = np.nan
    got = op.apply(filled)
    assert got.tobytes() == op.apply(x).tobytes()
    assert got[-1] == 0.0  # no row adds to the zero slot
    # and op is K[nbhd, cols] on nbhd's numbering
    expect = k.to_csr()[nbhd][:, cols] @ x[:-1][on_cols]
    assert np.abs(got[:-1] - expect).max() <= 1e-14 * np.abs(expect).max()


def test_batch_gemm_applies_k_e_not_its_transpose():
    k = np.arange(16.0).reshape(4, 4)  # not symmetric, unlike every element stiffness
    op = ElementBatches(6, batch_dofs=[[0, 1, 2, 3], [2, 3, 4, 5]], batch_k_e=k)
    x = np.random.default_rng(1).standard_normal(6)
    expect = np.zeros(6)
    for dofs in op.batch_dofs:
        expect[dofs] += k @ x[dofs]
    assert np.abs(op.apply(x) - expect).max() <= 1e-14 * np.abs(expect).max()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    nx=st.integers(1, 4),
    ny=st.integers(1, 4),
    p=st.integers(1, 5),
    angle=st.floats(0.0, 2.0 * math.pi),
    offset=st.floats(-0.2, 1.2),
    clamp=st.booleans(),
    density=st.floats(0.0, 1.0),
)
def test_fuzzed_batched_stiffness_matches_assembled_csr(
    nx, ny, p, angle, offset, clamp, density
):
    ls = half_plane(math.cos(angle), math.sin(angle), offset)
    mesh = CartesianMesh(lx=1.0, ly=1.0, nx=nx, ny=ny, p=p, level_set=ls, depth=2)
    assume(mesh.dof_count > 0)
    if clamp:
        mesh.fix_nodes(lambda x, y: np.abs(x) < 1e-12)
    system = assemble_global(mesh, MAT)
    assert_matvec_matches_csr(system)
    expect, batch = batched_elements(mesh, system)
    assert batch == expect
    # an LTS selection of any DOFs, Dirichlet ones included
    selection = np.random.default_rng(nx + 5 * ny).random(mesh.dof_count) < density
    assert_lts_sub_step_matches_csr(system, selection)


def test_dt_table_reuses_the_assembly_element_pass(monkeypatch):
    import cutsem.assembly as assembly

    calls = {"lump": 0, "stiffness": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(assembly, "lump_element", counted("lump", assembly.lump_element))
    monkeypatch.setattr(
        assembly, "element_stiffness", counted("stiffness", assembly.element_stiffness)
    )
    ls = half_plane(1.0, 0.0, 0.7)
    mesh = CartesianMesh(lx=1.0, ly=0.5, nx=5, ny=2, p=4, level_set=ls, depth=3)
    assemble_global(mesh, MAT, cfg=MomentFitConfig(epsilon=0.05))
    # one record for all full elements, one per cut element
    assert calls == {"lump": 3, "stiffness": 3}
    table = critical_timestep_table(mesh, MAT, cfg=MomentFitConfig(epsilon=0.05))
    assert calls == {"lump": 3, "stiffness": 3}
    assert math.isfinite(table.dt_cut_min)
    # a different config is a different pass
    critical_timestep_table(mesh, MAT, cfg=MomentFitConfig(epsilon=0.1))
    assert calls == {"lump": 6, "stiffness": 6}


def test_element_operator_records_are_read_only():
    ls = half_plane(1.0, 0.0, 0.7)
    mesh = CartesianMesh(lx=1.0, ly=0.1, nx=5, ny=1, p=3, level_set=ls, depth=3)
    ops = element_operators(mesh, MAT)
    assert ops[(0, 0)] is ops[(1, 0)]  # full elements share one record
    for rec in ops.values():
        for a in (rec.k_e, rec.m_e, rec.lumped.weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


def test_interface_traction_total_force():
    ls = half_plane(1.0, 0.0, 1.1)
    mesh = CartesianMesh(lx=1.2, ly=0.1, nx=6, ny=1, p=4, level_set=ls, depth=3)
    f = assemble_interface_traction(mesh, (1.0, 0.0))
    # partition of unity: total force equals traction magnitude times length
    assert abs(f[0::2].sum() - 0.1) < 1e-9
    assert np.max(np.abs(f[1::2])) < 1e-15
    # zero pulse gives a zero vector
    system = assemble_global(mesh, MAT)
    system.f_shape, system.pulse = f, lambda t: 0.0
    assert np.max(np.abs(system.force(0.3))) == 0.0


def test_edge_traction_total_force():
    mesh = CartesianMesh(lx=1.0, ly=0.1, nx=5, ny=1, p=3)
    f = 2.0 * assemble_edge_traction(mesh, (1.0, 0.0))
    assert abs(f[0::2].sum() - 0.2) < 1e-12
    assert np.max(np.abs(f[1::2])) == 0.0


def test_interface_traction_makes_no_level_set_call(monkeypatch):
    # the mesh's own pass built the interface rules with the volume rules
    mesh = build_bar_mesh(BarBenchmarkConfig(cut_fraction=0.5, order=4, elements_x=6))
    calls = []
    monkeypatch.setattr(LevelSet, "__call__", lambda self, x, y: calls.append("phi"))
    monkeypatch.setattr(LevelSet, "gradient", lambda self, x, y, h=0.0: calls.append("grad"))
    f = assemble_interface_traction(mesh, (1.0, 0.0))
    assert calls == []
    assert abs(f[0::2].sum() - 0.1) < 1e-9


@pytest.mark.parametrize(
    "traction, level_set",
    [(assemble_edge_traction, None), (assemble_interface_traction, half_plane(1.0, 0.0, 1.1))],
    ids=["edge", "interface"],
)
def test_loaded_clamped_nodes_stay_at_zero(traction, level_set):
    # the clamped bottom edge holds nodes of the loaded elements
    mesh = CartesianMesh(lx=1.2, ly=0.1, nx=6, ny=1, p=3, level_set=level_set)
    mesh.fix_nodes(lambda x, y: y < 1e-12)
    system = assemble_global(mesh, MAT)
    system.f_shape, system.pulse = traction(mesh, (1.0, 1.0)), lambda t: 1.0
    dirichlet = system.dirichlet_dofs
    assert np.max(np.abs(system.f_shape[dirichlet])) > 0.0
    table = critical_timestep_table(mesh, MAT)
    dt = 0.5 * table.dt_c
    # LTS refines the loaded column, clamped DOFs included
    selection = np.zeros(system.dof_count, dtype=bool)
    selection[mesh.node_dofs(mesh.element_nodes(mesh.nx - 1, 0))] = True
    assert selection[dirichlet].any()
    runs = {
        "cdm": lambda record: run_cdm(system, dt, 40, record=record),
        "lts": lambda record: LtsSolver(system, LtsConfig(dt, 2, selection)).run(40, record=record),
    }
    for name, run in runs.items():
        states = []
        run(lambda step, t, u: states.append(u.copy()))
        states = np.array(states)
        assert np.all(states[:, dirichlet] == 0.0), name
        assert np.abs(states[-1]).max() > 0.0, name


def test_force_defaults_to_zero():
    mesh = CartesianMesh(lx=1.0, ly=0.1, nx=3, ny=1, p=2)
    system = assemble_global(mesh, MAT)
    assert np.max(np.abs(system.force(0.5))) == 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    nx=st.integers(1, 5),
    ny=st.integers(1, 5),
    p=st.integers(1, 4),
    voids=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.05, 0.7)),
        min_size=1,
        max_size=3,
    ),
)
@example(nx=3, ny=3, p=2, voids=[(0.0, 0.0, 0.6)])  # prunes the corner element's nodes
def test_element_dof_table_matches_per_element_numbering(nx, ny, p, voids):
    ls = union_of_voids([circle(*v) for v in voids])
    mesh = CartesianMesh(lx=1.0, ly=1.0, nx=nx, ny=ny, p=p, level_set=ls, depth=1)
    assert mesh.element_dof_table.shape == (nx * ny, 2 * (p + 1) ** 2)
    assert not mesh.element_dof_table.flags.writeable
    for key in mesh.elements():
        if mesh.classification[key] == "void":
            with pytest.raises(VoidElement):
                mesh.element_dofs(*key)
            continue
        expect = mesh.node_dofs(mesh.element_nodes(*key))
        got = mesh.element_dofs(*key)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def test_restriction_to_every_stacked_element_shares_the_stack():
    ls = half_plane(1.0, 0.0, 0.7)
    mesh = CartesianMesh(lx=1.0, ly=0.2, nx=5, ny=2, p=3, level_set=ls, depth=2)
    system = assemble_global(mesh, MAT)
    k = system.stiffness
    selection = np.zeros(system.dof_count, dtype=bool)
    selection[system.cut_element_dofs] = True
    nbhd, op = k.restrict(selection)
    assert len(k.stack_k_e) == 2 and np.shares_memory(op.stack_k_e, k.stack_k_e)
    copied = ElementBatches(
        op.size,
        op.batch_dofs,
        op.batch_k_e,
        op.stack_dofs,
        k.stack_k_e.copy(),
        batch_cols=op.batch_cols,
        stack_cols=op.stack_cols,
    )
    x = np.random.default_rng(2).standard_normal(op.size)
    assert op.apply(x).tobytes() == copied.apply(x).tobytes()
    assert_lts_sub_step_matches_csr(system, selection)
    # one corner DOF of the lower cut element: the upper one drops out
    partial = np.zeros(system.dof_count, dtype=bool)
    partial[k.stack_dofs[0, 0]] = True
    _, op = k.restrict(partial)
    assert len(op.stack_k_e) == 1 and not np.shares_memory(op.stack_k_e, k.stack_k_e)
    assert_lts_sub_step_matches_csr(system, partial)


@pytest.mark.parametrize("scheme", ["hrz", "fitted", "scaled"])
def test_element_operators_evaluate_shape_functions_once_per_element(monkeypatch, scheme):
    mesh = CartesianMesh(lx=1.0, ly=1.0, nx=4, ny=4, p=3, level_set=circle(0.5, 0.5, 0.3), depth=2)
    cut = sum(c == "cut" for c in mesh.classification.values())
    calls = count_shape_evals(monkeypatch)
    element_operators(mesh, MAT, scheme=scheme)
    # one per cut element, at its rule, and one for the record the full ones share
    assert len(calls) == cut + 1
