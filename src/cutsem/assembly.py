"""Cartesian spectral-element mesh and global system assembly.

Elements are axis-aligned rectangles of uniform size, so the element map
is affine with a constant diagonal Jacobian. Stiffness uses tensor GLL
quadrature on full elements and the raw cut rule on cut elements (the
fitted weights serve the mass matrix; a config flag can reroute stiffness
through them). Dirichlet DOFs are eliminated symmetrically: zeroed rows
and columns with a unit diagonal, mass left untouched.
"""

from dataclasses import dataclass, field

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
        for ey in range(self.ny):
            for ex in range(self.nx):
                if self.level_set is None:
                    cutq = geometry.build_cut_quadrature(
                        geometry.LevelSet(lambda x, y: np.ones_like(np.asarray(x, dtype=float))),
                        self.element_box(ex, ey),
                        depth=0,
                        gauss_degree=self.gauss_degree,
                    )
                else:
                    cutq = geometry.build_cut_quadrature(
                        self.level_set,
                        self.element_box(ex, ey),
                        depth=self.depth,
                        gauss_degree=self.gauss_degree,
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
    """Assembled explicit-dynamics system with diagonal mass."""

    k: sp.csr_matrix
    lumped_mass: np.ndarray
    dof_count: int
    dirichlet_dofs: np.ndarray
    cut_element_dofs: np.ndarray
    load: "_PulseLoad" = None  # f_shape * pulse(t), or None for no load

    @property
    def k_data(self):
        """Stored values of K; edits in place reach every product."""
        return self.k.data

    def k_matvec(self, x):
        return self.k @ x

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


def element_operators(mesh, mat, scheme="fitted", cfg=None, stiffness_rule="cut"):
    """{(ex, ey): ElementOperators} for the non-void elements of the mesh.

    Full elements share one record. Cut elements get the stiffness of their
    cut rule, or of the fitted weights at the GLL nodes when stiffness_rule
    is "fitted". The result is memoised on the mesh and keyed by value, so
    equal but distinct configs reuse one pass.
    """
    cfg = cfg or MomentFitConfig()
    key = (mat, scheme, cfg, stiffness_rule)
    if key in mesh.operator_cache:
        return mesh.operator_cache[key]
    basis = mesh.basis
    jac = (mesh.hx / 2.0, mesh.hy / 2.0)

    def build(cutq):
        lumped = lump_element(basis, cutq, scheme, cfg)
        if cutq.classification == "full":
            pts, wts = basis.node_coords(), basis.node_weights()
        elif stiffness_rule == "fitted":
            pts, wts = basis.node_coords(), lumped.weights
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


def assemble_global(mesh, mat, scheme="fitted", cfg=None, stiffness_rule="cut"):
    """Scatter-add the element operators in deterministic element order."""
    ndof = mesh.dof_count
    rows, cols, vals = [], [], []
    mass = np.zeros(ndof)
    cut_dofs = set()

    for (ex, ey), rec in element_operators(mesh, mat, scheme, cfg, stiffness_rule).items():
        dofs = mesh.node_dofs(mesh.element_nodes(ex, ey))
        mass[dofs] += rec.m_e
        dd = np.broadcast_to(dofs, (len(dofs), len(dofs)))
        rows.append(dd.T.ravel())
        cols.append(dd.ravel())
        vals.append(rec.k_e.ravel())
        if mesh.classification[(ex, ey)] == "cut":
            cut_dofs.update(int(d) for d in dofs)

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    dirichlet = np.array(sorted(mesh.dirichlet_dofs), dtype=np.int64)
    if len(dirichlet):
        constrained = np.zeros(ndof, dtype=bool)
        constrained[dirichlet] = True
        keep = ~(constrained[rows] | constrained[cols])
        rows = np.concatenate([rows[keep], dirichlet])
        cols = np.concatenate([cols[keep], dirichlet])
        vals = np.concatenate([vals[keep], np.ones(len(dirichlet))])
        free = np.flatnonzero(~constrained)
    else:
        free = np.arange(ndof)

    k = sp.coo_matrix((vals, (rows, cols)), shape=(ndof, ndof)).tocsr()
    k.sum_duplicates()
    if np.any(mass[free] <= 0):
        raise SingularMass("a free DOF received zero lumped mass")

    return GlobalSystem(
        k=k,
        lumped_mass=mass,
        dof_count=ndof,
        dirichlet_dofs=dirichlet,
        cut_element_dofs=np.array(sorted(cut_dofs), dtype=np.int64),
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


def assemble_edge_traction(mesh, pulse, direction, edge="right"):
    """Conforming traction on a mesh boundary edge (the uncut baseline)."""
    direction = np.asarray(direction, dtype=float)
    f_shape = np.zeros(mesh.dof_count)
    if edge != "right":
        raise NotImplementedError("only the right edge is needed by the benchmarks")
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
