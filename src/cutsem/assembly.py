"""Cartesian spectral-element mesh and global system assembly.

Elements are axis-aligned rectangles of uniform size, so the element map
is affine with a constant diagonal Jacobian. Stiffness uses tensor GLL
quadrature on full elements and the raw cut rule on cut elements; the
fitted weights serve the mass matrix only. Dirichlet DOFs are eliminated
symmetrically: zeroed rows and columns with a unit diagonal, mass left
untouched.

The time loop applies K as one GEMM over the stiffness that every full
element shares, scattered back by DOF, plus a sparse remainder for the
other elements (the matrix-free element operator of Deville, Fischer &
Mund, 2002). `k_csr()` is the assembled matrix, kept for slicing and checks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import geometry
from .errors import ConfigError, SingularMass, VoidElement
from .gll import tensor_basis
from .momentfit import LumpedElementMass, MomentFitConfig, lump_element


@dataclass(frozen=True)
class Material:
    youngs_modulus: float
    poisson_ratio: float
    density: float

    def __post_init__(self):
        if self.youngs_modulus <= 0 or self.density <= 0:
            raise ConfigError("E and rho must be positive")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ConfigError("nu must lie in [0, 0.5)")


def plane_strain_d(mat):
    e, nu = mat.youngs_modulus, mat.poisson_ratio
    c = e / ((1 + nu) * (1 - 2 * nu))
    return c * np.array(
        [
            [1 - nu, nu, 0.0],
            [nu, 1 - nu, 0.0],
            [0.0, 0.0, (1 - 2 * nu) / 2.0],
        ]
    )


class CartesianMesh:
    """Structured mesh of (nx x ny) rectangular spectral elements.

    Global nodes live on the shared GLL tensor grid: (nx*p + 1) x (ny*q + 1)
    positions, numbered lexicographically (x fastest). Each node carries two
    interleaved DOFs (ux, uy). Nodes touched only by void elements are pruned.
    """

    def __init__(
        self,
        lx,
        ly,
        nx,
        ny,
        p,
        q=None,
        level_set=None,
        depth=geometry.DEFAULT_DEPTH,
        gauss_degree=None,
        origin=(0.0, 0.0),
    ):
        q = p if q is None else q
        self.lx, self.ly = float(lx), float(ly)
        self.nx, self.ny = int(nx), int(ny)
        self.p, self.q = int(p), int(q)
        self.hx = self.lx / self.nx
        self.hy = self.ly / self.ny
        self.origin = origin
        self.basis = tensor_basis(self.p, self.q)
        self.level_set = level_set
        self.depth = depth
        # one height-function leaf is exact to this total degree on a straight
        # cut: that of the stiffness integrands, 2 (p + q) - 2; the mass
        # moments need only p + q
        self.gauss_degree = gauss_degree if gauss_degree is not None else 2 * (p + q) - 2

        self._build_nodes()
        self._classify_elements()
        self._number_dofs()
        self.dirichlet_dofs = set()
        self.operator_cache = {}  # element_operators results, by input values

    # -- construction -------------------------------------------------

    def _build_nodes(self):
        gx = self.basis.basis_xi.nodes
        gy = self.basis.basis_eta.nodes
        x0, y0 = self.origin
        xs = np.concatenate(
            [x0 + (e + (gx[:-1] + 1) / 2) * self.hx for e in range(self.nx)]
            + [[x0 + self.lx]]
        )
        ys = np.concatenate(
            [y0 + (e + (gy[:-1] + 1) / 2) * self.hy for e in range(self.ny)]
            + [[y0 + self.ly]]
        )
        self.node_x = xs
        self.node_y = ys
        self.n_nodes_x = len(xs)
        self.n_nodes_y = len(ys)

    def element_box(self, ex, ey):
        x0, y0 = self.origin
        return (
            (x0 + ex * self.hx, x0 + (ex + 1) * self.hx),
            (y0 + ey * self.hy, y0 + (ey + 1) * self.hy),
        )

    def element_nodes(self, ex, ey):
        """Global node indices of element (ex, ey), lexicographic (xi fastest)."""
        i0 = ex * self.p
        j0 = ey * self.q
        cols = i0 + np.arange(self.p + 1)
        rows = j0 + np.arange(self.q + 1)
        return (rows[:, None] * self.n_nodes_x + cols[None, :]).ravel()

    def _classify_elements(self):
        self.cut_quadratures = {}
        self.classification = {}
        if self.level_set is None:
            ls = geometry.LevelSet(lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
            depth = 0
        else:
            ls, depth = self.level_set, self.depth
        for ey in range(self.ny):
            for ex in range(self.nx):
                cutq = geometry.build_cut_quadrature(
                    ls, self.element_box(ex, ey), depth=depth, gauss_degree=self.gauss_degree
                )
                self.cut_quadratures[(ex, ey)] = cutq
                self.classification[(ex, ey)] = cutq.classification

    def _number_dofs(self):
        active = np.zeros(self.n_nodes_x * self.n_nodes_y, dtype=bool)
        for key, cutq in self.cut_quadratures.items():
            if not cutq.is_void:
                active[self.element_nodes(*key)] = True
        self.node_active = active
        self.node_to_dofnode = -np.ones(active.size, dtype=np.int64)
        self.node_to_dofnode[active] = np.arange(active.sum())
        self.dof_count = int(2 * active.sum())

    def node_dofs(self, node_ids):
        """Interleaved (ux, uy) DOF indices for global node ids."""
        dn = self.node_to_dofnode[node_ids]
        if np.any(dn < 0):
            raise VoidElement("requested DOFs of a pruned (void-only) node")
        return np.column_stack([2 * dn, 2 * dn + 1]).ravel()

    def node_coords(self, node_ids):
        ix = node_ids % self.n_nodes_x
        iy = node_ids // self.n_nodes_x
        return np.column_stack([self.node_x[ix], self.node_y[iy]])

    def elements(self):
        for ey in range(self.ny):
            for ex in range(self.nx):
                yield ex, ey

    def fix_nodes(self, predicate):
        """Add both DOFs of every active node whose coordinates satisfy predicate."""
        ids = np.arange(self.n_nodes_x * self.n_nodes_y)[self.node_active]
        coords = self.node_coords(ids)
        sel = ids[predicate(coords[:, 0], coords[:, 1])]
        for d in self.node_dofs(sel):
            self.dirichlet_dofs.add(int(d))


@dataclass
class GlobalSystem:
    """Assembled explicit-dynamics system with diagonal mass.

    K = batch + k_rest. The batch is the full elements that hold no Dirichlet
    DOF: row e of `batch_dofs` is element e's DOFs, and all of them share the
    stiffness `batch_k_e`. `k_rest` holds the cut elements, the full elements
    that touch a Dirichlet DOF and the unit Dirichlet diagonal. Built without
    a batch, the system has an empty one and k_rest = k.
    """

    k: sp.csr_matrix
    lumped_mass: np.ndarray
    dof_count: int
    dirichlet_dofs: np.ndarray
    cut_element_dofs: np.ndarray
    load: "_PulseLoad" = None  # f_shape * pulse(t), or None for no load
    batch_dofs: np.ndarray = None  # (n_batch, 2n) DOF table
    batch_k_e: np.ndarray = None  # (2n, 2n)
    k_rest: sp.csr_matrix = None

    def __post_init__(self):
        if self.k_rest is None:
            self.batch_dofs = np.empty((0, 0), dtype=np.int64)
            self.batch_k_e = np.empty((0, 0))
            self.k_rest = self.k
        for a in (self.batch_dofs, self.batch_k_e):
            a.flags.writeable = False

    @property
    def k_data(self):
        """Stored values of k_csr(); edits in place reach k_csr(), not k_matvec."""
        return self.k.data

    def k_matvec(self, x):
        """K x as one GEMM over the batch's shared k_e plus the sparse remainder."""
        g = self.batch_dofs
        batch = np.bincount(g.ravel(), weights=(x[g] @ self.batch_k_e).ravel(), minlength=len(x))
        return batch + self.k_rest @ x

    def k_csr(self):
        return self.k

    def force(self, t):
        if self.load is None:
            return np.zeros(self.dof_count)
        return self.load(t)


def element_stiffness(basis, mat, points, weights, jacobian):
    """2n x 2n stiffness from a reference-frame quadrature rule.

    jacobian = (hx/2, hy/2), the constant diagonal of the affine element map.
    """
    jx, jy = jacobian
    detj = jx * jy
    d_mat = plane_strain_d(mat)
    n = basis.node_count
    _, grads = basis.shape_eval_2d_batch(points)
    gx = grads[:, :, 0] / jx
    gy = grads[:, :, 1] / jy
    w = np.asarray(weights, dtype=float) * detj
    gxw = gx * w[:, None]
    gyw = gy * w[:, None]
    gxx = gxw.T @ gx
    gyy = gyw.T @ gy
    gxy = gxw.T @ gy
    ke = np.zeros((2 * n, 2 * n))
    ke[0::2, 0::2] = d_mat[0, 0] * gxx + d_mat[2, 2] * gyy
    ke[1::2, 1::2] = d_mat[1, 1] * gyy + d_mat[2, 2] * gxx
    kxy = d_mat[0, 1] * gxy + d_mat[2, 2] * gxy.T
    ke[0::2, 1::2] = kxy
    ke[1::2, 0::2] = kxy.T
    return 0.5 * (ke + ke.T)


def element_lumped_mass(lumped, mat, jacobian):
    """Interleaved diagonal mass: rho * weight * |det J| per node, both DOFs."""
    jx, jy = jacobian
    m = mat.density * lumped.weights * (jx * jy)
    return np.repeat(m, 2)


@dataclass(frozen=True)
class ElementOperators:
    """Lumped weights, stiffness and interleaved diagonal mass of one element.

    The arrays are read-only: one record is shared by every consumer of the
    mesh, and by every full element.
    """

    lumped: LumpedElementMass
    k_e: np.ndarray
    m_e: np.ndarray


def element_operators(mesh, mat, scheme="fitted", cfg=None):
    """{(ex, ey): ElementOperators} for the non-void elements of the mesh.

    Full elements share one record. Cut elements get the stiffness of their
    cut rule. The result is memoised on the mesh and keyed by value, so
    equal but distinct configs reuse one pass.
    """
    cfg = cfg or MomentFitConfig()
    key = (mat, scheme, cfg)
    if key in mesh.operator_cache:
        return mesh.operator_cache[key]
    basis = mesh.basis
    jac = (mesh.hx / 2.0, mesh.hy / 2.0)

    def build(cutq):
        lumped = lump_element(basis, cutq, scheme, cfg)
        if cutq.classification == "full":
            pts, wts = basis.node_coords(), basis.node_weights()
        else:
            pts, wts = cutq.points, cutq.weights
        rec = ElementOperators(
            lumped=lumped,
            k_e=element_stiffness(basis, mat, pts, wts, jac),
            m_e=element_lumped_mass(lumped, mat, jac),
        )
        for a in (rec.lumped.weights, rec.k_e, rec.m_e):
            a.flags.writeable = False
        return rec

    ops = {}
    full = None
    for ex, ey in mesh.elements():
        cutq = mesh.cut_quadratures[(ex, ey)]
        if cutq.is_void:
            continue
        if cutq.classification == "full":
            full = full or build(cutq)
            ops[(ex, ey)] = full
        else:
            ops[(ex, ey)] = build(cutq)
    mesh.operator_cache[key] = ops
    return ops


def _scatter_csr(pairs, width, constrained, dirichlet):
    """CSR sum of (dofs, k_e) pairs, Dirichlet rows and columns eliminated."""
    ndof = len(constrained)
    table = np.array([dofs for dofs, _ in pairs], dtype=np.int64).reshape(len(pairs), width)
    # element by element, rows run i-major and columns j-minor over k_e[i, j]
    rows = np.repeat(table, width, axis=1).ravel()
    cols = np.tile(table, width).ravel()
    vals = np.array([k_e for _, k_e in pairs], dtype=float).ravel()
    if len(dirichlet):
        keep = ~(constrained[rows] | constrained[cols])
        rows = np.concatenate([rows[keep], dirichlet])
        cols = np.concatenate([cols[keep], dirichlet])
        vals = np.concatenate([vals[keep], np.ones(len(dirichlet))])
    k = sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ndof)).tocsr()
    k.sum_duplicates()
    return k


def assemble_global(mesh, mat, scheme="fitted", cfg=None):
    """Scatter-add the element operators in deterministic element order.

    Besides K, builds the split that k_matvec applies: the batch of full
    elements free of Dirichlet DOFs and the sparse remainder (GlobalSystem).
    """
    ndof = mesh.dof_count
    width = 2 * mesh.basis.node_count
    mass = np.zeros(ndof)
    cut_dofs = set()
    dirichlet = np.array(sorted(mesh.dirichlet_dofs), dtype=np.int64)
    constrained = np.zeros(ndof, dtype=bool)
    constrained[dirichlet] = True
    pairs, rest, batch = [], [], []
    batch_k_e = np.zeros((width, width))

    for (ex, ey), rec in element_operators(mesh, mat, scheme, cfg).items():
        dofs = mesh.node_dofs(mesh.element_nodes(ex, ey))
        mass[dofs] += rec.m_e
        pairs.append((dofs, rec.k_e))
        if mesh.classification[(ex, ey)] == "cut":
            cut_dofs.update(int(d) for d in dofs)
            rest.append(pairs[-1])
        elif constrained[dofs].any():
            rest.append(pairs[-1])
        else:
            batch.append(dofs)
            batch_k_e = rec.k_e  # the one record every full element shares

    if np.any(mass[~constrained] <= 0):
        raise SingularMass("a free DOF received zero lumped mass")

    return GlobalSystem(
        k=_scatter_csr(pairs, width, constrained, dirichlet),
        lumped_mass=mass,
        dof_count=ndof,
        dirichlet_dofs=dirichlet,
        cut_element_dofs=np.array(sorted(cut_dofs), dtype=np.int64),
        batch_dofs=np.array(batch, dtype=np.int64).reshape(len(batch), width),
        batch_k_e=batch_k_e,
        k_rest=_scatter_csr(rest, width, constrained, dirichlet),
    )


def assemble_interface_traction(mesh, pulse, direction):
    """Time-dependent load on the non-conforming interface.

    Returns f(t) = f_shape * pulse(t), where f_shape carries the arc-length
    line integral of the shape functions against the unit `direction`.
    """
    direction = np.asarray(direction, dtype=float)
    jx, jy = mesh.hx / 2.0, mesh.hy / 2.0
    f_shape = np.zeros(mesh.dof_count)
    for ex, ey in mesh.elements():
        if mesh.classification[(ex, ey)] != "cut":
            continue
        iq = geometry.build_interface_quadrature(
            mesh.level_set,
            mesh.element_box(ex, ey),
            depth=mesh.depth,
            gauss_degree=mesh.gauss_degree,
        )
        if not len(iq.points):
            continue
        dofs = mesh.node_dofs(mesh.element_nodes(ex, ey))
        # reference arc length -> physical arc length along the tangent
        scale = np.hypot(jx * iq.tangents[:, 0], jy * iq.tangents[:, 1])
        vals, _ = mesh.basis.shape_eval_2d_batch(iq.points)
        contrib = (iq.weights * scale) @ vals
        f_shape[dofs[0::2]] += contrib * direction[0]
        f_shape[dofs[1::2]] += contrib * direction[1]
    return _PulseLoad(f_shape, pulse)


def assemble_edge_traction(mesh, pulse, direction):
    """Conforming traction on the right mesh edge (the uncut baseline)."""
    direction = np.asarray(direction, dtype=float)
    f_shape = np.zeros(mesh.dof_count)
    jy = mesh.hy / 2.0
    by = mesh.basis.basis_eta
    for ey in range(mesh.ny):
        ex = mesh.nx - 1
        if mesh.cut_quadratures[(ex, ey)].is_void:
            continue
        dofs = mesh.node_dofs(mesh.element_nodes(ex, ey))
        # right edge: xi = 1, nodes i = p within each eta row
        for j in range(mesh.q + 1):
            k = j * (mesh.p + 1) + mesh.p
            w = by.weights[j] * jy
            f_shape[dofs[2 * k]] += w * direction[0]
            f_shape[dofs[2 * k + 1]] += w * direction[1]
    return _PulseLoad(f_shape, pulse)


class _PulseLoad:
    """Static spatial shape scaled by a scalar pulse history."""

    def __init__(self, f_shape, pulse):
        self.f_shape = f_shape
        self.pulse = pulse

    def __call__(self, t):
        return self.f_shape * self.pulse(t)


def apply_dirichlet_to_load(load, dirichlet_dofs):
    load.f_shape = load.f_shape.copy()
    load.f_shape[dirichlet_dofs] = 0.0
    return load
