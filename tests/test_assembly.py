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


@pytest.mark.parametrize("field", ["youngs_modulus", "density"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_material_rejects_a_non_finite_modulus_or_density(field, value):
    # else the element eigen-solve fails later as a bare ValueError
    with pytest.raises(ConfigError):
        Material(**{"youngs_modulus": 1.0, "poisson_ratio": 0.0, "density": 1.0, field: value})


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


def test_mesh_rejects_more_nodes_than_the_bound_before_allocating():
    # 1001 x 1000 grid nodes, one above MAX_NODES = 10^6
    with pytest.raises(ConfigError, match="more than 1000000 nodes"):
        CartesianMesh(lx=1.0, ly=1.0, nx=1000, ny=999, p=1)


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
    assert np.abs(system.stiffness.apply(x) - expect).max() <= 1e-14 * np.abs(expect).max()


def batched_elements(mesh, system):
    """Sorted DOF rows of the full elements, and of the batch."""
    expect = [
        tuple(mesh.node_dofs(mesh.element_nodes(*key)))
        for key in mesh.elements()
        if mesh.classification[key] == "full"
    ]
    return sorted(expect), sorted(map(tuple, system.stiffness.batch_dofs))


def assert_lts_sub_step_matches_csr(system, selection):
    """The solver's sub-step and ring operators are M^-1 K[nbhd, sel], on the CSR's nbhd.

    M^-1 is zero on the Dirichlet DOFs.
    """
    solver = LtsSolver(system, LtsConfig(1e-3, 2, selection))
    sel = np.flatnonzero(selection)
    # nbhd(sel) as the rows that the CSR's columns of sel store
    k_cols = system.k_csr()[:, sel].tocsr()
    nbhd = np.union1d(np.flatnonzero(np.diff(k_cols.indptr)), sel)
    assert np.array_equal(np.sort(solver.nbhd), nbhd)
    m_inv = 1.0 / system.lumped_mass
    m_inv[system.dirichlet_dofs] = 0.0
    a = m_inv[solver.nbhd, None] * k_cols.toarray()[solver.nbhd]
    v = np.random.default_rng(5).standard_normal(len(sel))
    expect = a @ v
    err = np.abs(a_local(solver, v) - expect).max(initial=0.0)
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
    system = GlobalSystem(
        stiffness=ElementBatches(7, stack_dofs=[np.arange(7)], stack_k_e=[k]),
        lumped_mass=np.ones(7),
        dirichlet_dofs=np.array([], dtype=np.int64),
    )
    assert system.stiffness.batch_dofs.size == 0 and np.array_equal(system.k_csr().toarray(), k)
    # the sizes are read from K: its one stacked element holds every DOF
    assert system.dof_count == 7 and np.array_equal(system.cut_element_dofs, np.arange(7))
    assert_matvec_matches_csr(system)


def test_empty_operator_applies_as_float_zeros():
    # np.bincount of an empty index ignores the dtype of its weights
    for op in (ElementBatches(4), *ElementBatches(4).split(np.ones(4, dtype=bool))[1:]):
        kx = op.apply(np.ones(op.size))
        assert kx.dtype == np.float64 and np.array_equal(kx, np.zeros(op.size))
    empty = ElementBatches(0).apply(np.zeros(0))
    assert empty.dtype == np.float64 and empty.shape == (0,)


def cut_plate_stiffness():
    """K of a free p = 3 mesh around a circular void: full and cut elements."""
    mesh = CartesianMesh(lx=1.0, ly=1.0, nx=4, ny=4, p=3, level_set=circle(0.5, 0.5, 0.3), depth=2)
    return assemble_global(mesh, MAT).stiffness


def test_apply_returns_a_fresh_array():
    # both products go through one values buffer per operator; a result
    # must not be a view of it
    k = cut_plate_stiffness()
    _, inner, outer = k.split(np.random.default_rng(6).random(k.size) < 0.3)
    rng = np.random.default_rng(7)
    for op in (k, inner, outer):
        x, y = rng.standard_normal((2, op.size))
        first = op.apply(x)
        kept = first.copy()
        second = op.apply(y)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()


@pytest.mark.parametrize("which", ["full", "restricted", "ring", "asymmetric", "empty"])
def test_dense_matrix_is_the_map_apply_applies(which):
    k = cut_plate_stiffness()
    op = {
        "full": lambda: k,
        "restricted": lambda: k.split(np.random.default_rng(10).random(k.size) < 0.3)[1],
        "ring": lambda: k.split(np.random.default_rng(10).random(k.size) < 0.3)[2],
        "asymmetric": lambda: ElementBatches(
            6, batch_dofs=[[0, 1, 2, 3], [2, 3, 4, 5]], batch_k_e=np.arange(16.0).reshape(4, 4)
        ),
        "empty": lambda: ElementBatches(4),
    }[which]()
    # the sums add the same terms as the CSR's, not always in its order. The
    # last row of split's operators takes the rows it discards, a sum of
    # many terms, and is left out
    rows = slice(-1) if which in ("restricted", "ring") else slice(None)
    dense = op.to_dense()
    assert dense.shape == (op.size, op.size)
    dense = dense[rows]
    scale = np.abs(dense).max(initial=1.0)
    assert np.abs(dense - op.to_csr().toarray()[rows]).max(initial=0.0) <= 1e-15 * scale
    x = np.random.default_rng(11).standard_normal(op.size)
    assert np.abs(dense @ x - op.apply(x)[rows]).max(initial=0.0) <= 1e-14 * scale * np.abs(x).max()


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
    # the cut records' stiffnesses are views of K's one stack, not copies
    stack = assemble_global(mesh, MAT).stiffness.stack_k_e
    cut = [rec.k_e for key, rec in ops.items() if mesh.classification[key] == "cut"]
    assert len(cut) == len(stack) > 0
    for k_e, stacked in zip(cut, stack):
        assert np.shares_memory(k_e, stack) and k_e.tobytes() == stacked.tobytes()


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


@pytest.mark.parametrize("ny", [1, 2])
def test_edge_traction_loads_each_right_edge_node_by_its_gll_weight(ny):
    mesh = CartesianMesh(lx=1.0, ly=0.1 * ny, nx=3, ny=ny, p=3)
    direction = np.array([0.6, -0.8])
    f = assemble_edge_traction(mesh, direction)
    w = mesh.basis.rule.weights * (mesh.hy / 2.0)
    expected = np.zeros(mesh.dof_count)
    for ey in range(ny):
        # the right-edge nodes of element (nx - 1, ey), bottom to top; a node
        # two elements share gets both weights
        edge = mesh.element_nodes(mesh.nx - 1, ey)[mesh.p :: mesh.p + 1]
        for node, wj in zip(edge, w):
            expected[mesh.node_dofs([node])] += wj * direction
    assert np.array_equal(f, expected)


def test_interface_traction_makes_no_level_set_call(monkeypatch):
    # the mesh's own pass built the interface rules with the volume rules
    mesh = build_bar_mesh(BarBenchmarkConfig(cut_fraction=0.5, order=4, elements_x=6))
    calls = []
    monkeypatch.setattr(LevelSet, "__call__", lambda self, x, y: calls.append("phi"))
    monkeypatch.setattr(LevelSet, "gradient", lambda self, x, y: calls.append("grad"))
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


def test_split_operators_are_the_blocks_of_k():
    # K[sel, sel] and K[ring, sel] from split, the latter the (ring, sel)
    # block of a square operator in nbhd's numbering, against the dense K,
    # and applied to x on sel padded with zeros, on free void plates under random selections: the cut elements' DOFs, each kept
    # at a drawn rate, so that some cut elements are partly selected, and
    # random DOFs besides. The examples are the empty and the full
    # selection; a corner void whose cut elements leave a full element with
    # no host; and the cut elements of a bar less its Dirichlet DOFs, as the
    # bar benchmark selects them, clamped on the cut column's left edge, so
    # that no cut element is a host
    mat = Material(youngs_modulus=1.0, poisson_ratio=0.3, density=1.0)
    seen = set()

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 4),
        elements=st.integers(2, 8),
        voids=st.lists(
            st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.floats(0.04, 0.25)),
            min_size=1,
            max_size=3,
        ),
        keep=st.floats(0.0, 1.0),
        extra=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**16),
    )
    @example(p=2, elements=4, voids=[(0.5, 0.5, 0.2)], keep=0.0, extra=0.0, seed=0)
    @example(p=2, elements=4, voids=[(0.5, 0.5, 0.2)], keep=1.0, extra=1.0, seed=0)
    @example(p=3, elements=4, voids=[(0.0, 0.0, 0.4)], keep=1.0, extra=0.0, seed=0)
    def check(p, elements, voids, keep, extra, seed):
        mesh = CartesianMesh(
            lx=1.0, ly=1.0, nx=elements, ny=elements, p=p,
            level_set=union_of_voids([circle(*c) for c in voids]),
        )
        system = assemble_global(mesh, mat)
        check_split(system, keep, extra, np.random.default_rng(seed))

    def check_split(system, keep, extra, rng):
        k = system.stiffness
        cut = np.zeros(k.size, dtype=bool)
        cut[system.cut_element_dofs] = True
        sel = (rng.random(k.size) < extra) | (cut & (rng.random(k.size) < keep))
        sel[system.dirichlet_dofs] = False
        ring, inner, outer = k.split(sel)
        n = int(sel.sum())
        assert inner.size == n + 1 and outer.size == n + len(ring) + 1
        dense = k.to_dense()
        scale = np.abs(dense).max()
        # v on sel, then zeros over the ring and the slot
        x = np.zeros(outer.size)
        x[:n] = rng.standard_normal(n)
        # inner's rows of sel, and outer's of the ring in nbhd's numbering
        for op, rows, at in ((inner, sel, slice(n)), (outer, ring, slice(n, -1))):
            block = op.to_dense()[at, :n]
            assert np.abs(block - dense[rows][:, sel]).max(initial=0.0) <= 1e-13 * scale
            kx = op.apply(x[: op.size])
            assert kx.dtype == np.float64 and kx.shape == (op.size,)
            err = np.abs(kx[at] - block @ x[:n]).max(initial=0.0)
            assert err <= 1e-13 * scale * np.abs(x).max(initial=1.0)
        held = sel[k.stack_dofs]
        hosts = held.all(axis=1).sum()
        if (held.any(axis=1) & ~held.all(axis=1)).any():
            seen.add("partly selected cut element")
        if len(inner.batch_dofs) or len(inner.stack_dofs) > hosts:
            seen.add("no host")
        seen.add({0: "empty", k.size - len(system.dirichlet_dofs): "full"}.get(n, "some"))
        assert_lts_sub_step_matches_csr(system, sel)

    check()
    mesh = CartesianMesh(lx=1.0, ly=0.2, nx=5, ny=2, p=3, level_set=half_plane(1.0, 0.0, 0.7))
    mesh.fix_nodes(lambda x, y: np.abs(x - 0.6) < 1e-12)
    system = assemble_global(mesh, MAT)
    assert np.isin(system.dirichlet_dofs, system.cut_element_dofs).any()
    check_split(system, 1.0, 0.0, np.random.default_rng(1))
    assert seen == {"partly selected cut element", "no host", "empty", "full", "some"}


@pytest.mark.parametrize("scheme", ["hrz", "fitted", "scaled"])
def test_element_operators_evaluate_shape_functions_once_per_element(monkeypatch, scheme):
    mesh = CartesianMesh(lx=1.0, ly=1.0, nx=4, ny=4, p=3, level_set=circle(0.5, 0.5, 0.3), depth=2)
    cut = sum(c == "cut" for c in mesh.classification.values())
    calls = count_shape_evals(monkeypatch)
    element_operators(mesh, MAT, scheme=scheme)
    # one per cut element, at its rule, and one for the record the full ones share
    assert len(calls) == cut + 1
