"""Cartesian spectral-element mesh and global system assembly.

Elements are axis-aligned rectangles of uniform size tiling [0, lx] x
[0, ly], each of order p in both directions (N_{p,p}), so the element map
is affine with a constant diagonal Jacobian. Stiffness uses tensor GLL
quadrature on full elements and the raw cut rule, exact to degree 4p - 2
on a straight cut, on cut elements; the fitted weights serve the mass
matrix only. K and the load are assembled as they are, Dirichlet DOFs
included: the system holds those DOFs through an inverse mass that is zero
on them, so no acceleration ever reaches them.

K is never assembled on the run path. It is a set of element batches (the
matrix-free element operator of Deville, Fischer & Mund, 2002): one GEMM
over the stiffness that every full element shares and one stacked product
over the cut elements, each with its own stiffness, both written into one
values buffer and scattered back by one `np.bincount`.
`GlobalSystem.k_csr()` builds the sparse matrix from the same batches on
its first call, for tests and checks.

What depends only on the mesh numbering or on one cut rule is built once:
the mesh numbers its DOFs into one (elements x 2n) table, which assembly,
both traction loads and the error norm read rows from, and each element's
shape functions are evaluated once at its rule, for both its stiffness and
its lumped mass.
"""

from dataclasses import dataclass, field

import numpy as np

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
    """Structured mesh of (nx x ny) rectangular N_{p,p} spectral elements.

    Global nodes live on the shared GLL tensor grid: (nx*p + 1) x (ny*p + 1)
    positions, numbered lexicographically (x fastest). Each node carries two
    interleaved DOFs (ux, uy). Nodes touched only by void elements are pruned.
    `element_dofs(ex, ey)` reads an element's DOFs from one table built with
    the numbering.
    The mesh covers [0, lx] x [0, ly]. `depth` caps the splits of the cut
    quadrature: a straight cut needs none, a curved one converges with it.
    """

    def __init__(self, lx, ly, nx, ny, p, level_set=None, depth=geometry.DEFAULT_DEPTH):
        if int(nx) < 1 or int(ny) < 1:
            raise ConfigError(f"element counts must be >= 1, got nx = {nx}, ny = {ny}")
        if not (float(lx) > 0 and float(ly) > 0):
            raise ConfigError(f"mesh lengths must be positive, got lx = {lx}, ly = {ly}")
        if depth < 0:
            raise ConfigError(f"quadrature depth must be >= 0, got {depth}")
        self.lx, self.ly = float(lx), float(ly)
        self.nx, self.ny = int(nx), int(ny)
        self.p = int(p)
        self.hx = self.lx / self.nx
        self.hy = self.ly / self.ny
        self.basis = tensor_basis(self.p)

        self._build_nodes()
        self._classify_elements(level_set, depth)
        self._number_dofs()
        self.dirichlet_dofs = set()
        self.operator_cache = {}  # element_operators results, by input values

    # -- construction -------------------------------------------------

    def _build_nodes(self):
        g = self.basis.rule.nodes[:-1]
        self.node_x = np.concatenate(
            [(e + (g + 1) / 2) * self.hx for e in range(self.nx)] + [[self.lx]]
        )
        self.node_y = np.concatenate(
            [(e + (g + 1) / 2) * self.hy for e in range(self.ny)] + [[self.ly]]
        )
        self.n_nodes_x = len(self.node_x)
        self.n_nodes_y = len(self.node_y)

    def element_box(self, ex, ey):
        return (
            (ex * self.hx, (ex + 1) * self.hx),
            (ey * self.hy, (ey + 1) * self.hy),
        )

    def element_nodes(self, ex, ey):
        """Global node indices of element (ex, ey), lexicographic (xi fastest)."""
        local = np.arange(self.p + 1)
        cols = ex * self.p + local
        rows = ey * self.p + local
        return (rows[:, None] * self.n_nodes_x + cols[None, :]).ravel()

    def _classify_elements(self, level_set, depth):
        if level_set is None:
            level_set = geometry.LevelSet(lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
            depth = 0
        keys = list(self.elements())
        boxes = [self.element_box(*key) for key in keys]
        # one height-function leaf is exact to this total degree on a straight
        # cut: that of the stiffness integrands, 4p - 2; the mass moments need
        # only 2p
        rules = geometry.build_cut_quadratures(level_set, boxes, depth, gauss_degree=4 * self.p - 2)
        self.cut_quadratures = dict(zip(keys, rules))
        self.classification = {key: cutq.classification for key, cutq in zip(keys, rules)}

    def _number_dofs(self):
        """Node numbering and the (elements x 2n) element-DOF table, in one broadcast.

        Row ey * nx + ex of `element_dof_table` holds the interleaved DOFs of
        element (ex, ey) in `element_nodes` order; a void element's row is -1.
        """
        local = np.arange(self.p + 1)
        ey, ex = np.divmod(np.arange(self.nx * self.ny), self.nx)
        rows = ey[:, None] * self.p + local
        cols = ex[:, None] * self.p + local
        nodes = (rows[:, :, None] * self.n_nodes_x + cols[:, None, :]).reshape(len(ex), -1)
        void = np.array([self.cut_quadratures[key].is_void for key in self.elements()], dtype=bool)
        active = np.zeros(self.n_nodes_x * self.n_nodes_y, dtype=bool)
        active[nodes[~void]] = True
        self.node_active = active
        self.node_to_dofnode = -np.ones(active.size, dtype=np.int64)
        self.node_to_dofnode[active] = np.arange(active.sum())
        self.dof_count = int(2 * active.sum())
        dn = self.node_to_dofnode[nodes]
        table = np.stack([2 * dn, 2 * dn + 1], axis=2).reshape(len(nodes), -1)
        table[void] = -1
        table.flags.writeable = False
        self.element_dof_table = table

    def element_dofs(self, ex, ey):
        """Interleaved (ux, uy) DOFs of element (ex, ey): its row of the DOF table."""
        if self.classification[(ex, ey)] == "void":
            raise VoidElement(f"element {(ex, ey)} is void and has no DOFs")
        return self.element_dof_table[ey * self.nx + ex]

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


class ElementBatches:
    """K x as a sum of element batches, scattered back by one bincount.

    `batch_dofs` (n_b, 2n) are elements that all share the stiffness
    `batch_k_e` (2n, 2n), applied as one GEMM. `stack_dofs` (n_s, 2n) are
    elements with a stiffness each, `stack_k_e` (n_s, 2n, 2n), applied as one
    stacked product. The DOF tables give the rows each element adds to;
    `batch_cols` and `stack_cols`, the same tables unless given, the entries
    of x it reads. The arrays are read-only. The GEMM multiplies by a
    C-contiguous copy of `batch_k_e.T`, made once here, so BLAS takes its
    no-transpose path.

    Both products write into two slices of one values buffer, made once
    here, which the bincount reads: `apply` copies nothing but its gathers,
    and it is not reentrant. It returns a fresh float64 array, also on an
    empty operator.
    """

    def __init__(
        self,
        size,
        batch_dofs=None,
        batch_k_e=None,
        stack_dofs=None,
        stack_k_e=None,
        *,
        batch_cols=None,
        stack_cols=None,
    ):
        def frozen(a, ndim, dtype):
            a = np.empty((0,) * ndim, dtype) if a is None else np.asarray(a, dtype)
            a.flags.writeable = False
            return a

        self.size = int(size)
        self.batch_dofs = frozen(batch_dofs, 2, np.int64)
        self.batch_k_e = frozen(batch_k_e, 2, float)
        self.stack_dofs = frozen(stack_dofs, 2, np.int64)
        self.stack_k_e = frozen(stack_k_e, 3, float)
        self.batch_cols = self.batch_dofs if batch_cols is None else frozen(batch_cols, 2, np.int64)
        self.stack_cols = self.stack_dofs if stack_cols is None else frozen(stack_cols, 2, np.int64)
        self._batch_k_t = np.ascontiguousarray(self.batch_k_e.T)
        self._index = np.concatenate([self.batch_dofs.ravel(), self.stack_dofs.ravel()])
        self._vals = np.empty(len(self._index))
        n_batch = self.batch_dofs.size
        self._batch_out = self._vals[:n_batch].reshape(self.batch_dofs.shape)
        self._stack_out = self._vals[n_batch:].reshape(self.stack_dofs.shape + (1,))

    def apply(self, x):
        """K x."""
        np.matmul(x[self.batch_cols], self._batch_k_t, out=self._batch_out)
        np.matmul(self.stack_k_e, x[self.stack_cols][:, :, None], out=self._stack_out)
        # bincount of an empty index returns int64 whatever the weights are
        return np.bincount(self._index, weights=self._vals, minlength=self.size).astype(
            float, copy=False
        )

    def restrict(self, cols):
        """(nbhd, op): op x = K[nbhd, cols] x[cols], on the DOFs nbhd coupled to cols.

        cols is a boolean mask. nbhd is cols plus every DOF of the elements
        that hold a DOF of cols. op works in the numbering of nbhd followed
        by one zero slot, so op.size is len(nbhd) + 1: every column outside
        cols is gathered from that slot, so op reads x unmasked, and x must
        be zero there. No row adds to the slot, so op x is zero there too.
        When every stacked element is kept, op shares this operator's
        read-only stack of stiffnesses.
        """
        in_batch = cols[self.batch_dofs].any(axis=1)
        in_stack = cols[self.stack_dofs].any(axis=1)
        keep = cols.copy()
        keep[self.batch_dofs[in_batch]] = True
        keep[self.stack_dofs[in_stack]] = True
        nbhd = np.flatnonzero(keep)
        local = np.empty(self.size, dtype=np.int64)
        local[nbhd] = np.arange(len(nbhd))
        gather = np.where(cols, local, len(nbhd))
        batch, stack = self.batch_dofs[in_batch], self.stack_dofs[in_stack]
        op = ElementBatches(
            len(nbhd) + 1,
            local[batch],
            self.batch_k_e,
            local[stack],
            self.stack_k_e if in_stack.all() else self.stack_k_e[in_stack],
            batch_cols=gather[batch],
            stack_cols=gather[stack],
        )
        return nbhd, op

    def to_csr(self):
        """The assembled sparse matrix, summed in batch order: rows from the
        DOF tables, columns from the gather tables, so it is the map that
        `apply` applies."""
        import scipy.sparse as sp

        shared = np.broadcast_to(self.batch_k_e, (len(self.batch_dofs),) + self.batch_k_e.shape)
        parts = [
            (self.batch_dofs, self.batch_cols, shared),
            (self.stack_dofs, self.stack_cols, self.stack_k_e),
        ]
        # element by element, rows run i-major and columns j-minor over k_e[i, j]
        rows = [np.repeat(r, r.shape[1], axis=1).ravel() for r, _, _ in parts]
        cols = [np.tile(c, c.shape[1]).ravel() for _, c, _ in parts]
        vals = [k.ravel() for _, _, k in parts]
        rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
        k = sp.coo_matrix((vals, (rows, cols)), shape=(self.size, self.size)).tocsr()
        k.sum_duplicates()
        return k


def zero_pulse(t):
    """The pulse of an unloaded system."""
    return 0.0


@dataclass
class GlobalSystem:
    """Explicit-dynamics system with diagonal mass and K as element batches.

    `stiffness` is K (ElementBatches): the full elements share one
    stiffness and the cut elements each have their own. k_matvec applies it;
    k_csr() is built from it on first call. The load is f(t) = f_shape *
    pulse(t), zero when the system is unloaded. K and f_shape include the
    Dirichlet DOFs; `m_inv` and `m_inv_sqrt`, M^-1 and M^-1/2, are zero
    there, so an integrator that scales by them never moves those DOFs.
    """

    stiffness: ElementBatches
    lumped_mass: np.ndarray
    dof_count: int
    dirichlet_dofs: np.ndarray
    cut_element_dofs: np.ndarray
    f_shape: np.ndarray = None  # zeros of dof_count when not given
    pulse: object = zero_pulse  # scalar history t -> p(t)
    _k_csr: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.f_shape is None:
            self.f_shape = np.zeros(self.dof_count)
        if np.any(self._zero_on_dirichlet(self.lumped_mass <= 0)):
            raise SingularMass("a free DOF received zero lumped mass")

    def _zero_on_dirichlet(self, values):
        values[self.dirichlet_dofs] = 0
        return values

    @property
    def m_inv(self):
        """M^-1, zero on the Dirichlet DOFs."""
        return self._zero_on_dirichlet(1.0 / self.lumped_mass)

    @property
    def m_inv_sqrt(self):
        """M^-1/2, zero on the Dirichlet DOFs."""
        return self._zero_on_dirichlet(1.0 / np.sqrt(self.lumped_mass))

    @property
    def k_data(self):
        """Stored values of k_csr(); edits in place reach k_csr(), not k_matvec."""
        return self.k_csr().data

    def k_matvec(self, x):
        """K x, from the element batches."""
        return self.stiffness.apply(x)

    def k_csr(self):
        """The assembled scipy.sparse matrix, built once, on the first call."""
        if self._k_csr is None:
            self._k_csr = self.stiffness.to_csr()
        return self._k_csr

    def force(self, t):
        return self.f_shape * self.pulse(t)


def element_stiffness(basis, mat, points, weights, jacobian, *, shapes=None):
    """2n x 2n stiffness from a reference-frame quadrature rule.

    jacobian = (hx/2, hy/2), the constant diagonal of the affine element map.
    shapes, when given, is basis.shape_eval_2d_batch(points), made by a
    caller that also needs it for the lumped mass.
    """
    jx, jy = jacobian
    detj = jx * jy
    d_mat = plane_strain_d(mat)
    n = basis.node_count
    _, grads = basis.shape_eval_2d_batch(points) if shapes is None else shapes
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
        if cutq.classification == "full":
            pts, wts = basis.node_coords(), basis.node_weights()
        else:
            pts, wts = cutq.points, cutq.weights
        # one shape evaluation serves the stiffness and the HRZ diagonal
        shapes = basis.shape_eval_2d_batch(pts)
        lumped = lump_element(basis, cutq, scheme, cfg, shapes=shapes)
        rec = ElementOperators(
            lumped=lumped,
            k_e=element_stiffness(basis, mat, pts, wts, jac, shapes=shapes),
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


def assemble_global(mesh, mat, scheme="fitted", cfg=None):
    """Lumped mass and the element batches of K, in deterministic element order.

    Every full element joins the one GEMM batch and every cut element the
    stack. The Dirichlet DOFs are held by the system's inverse mass.
    """
    ndof = mesh.dof_count
    width = 2 * mesh.basis.node_count
    ops = element_operators(mesh, mat, scheme, cfg)
    recs = list(ops.values())
    dofs = np.array([mesh.element_dofs(*key) for key in ops], dtype=np.int64).reshape(-1, width)
    cut = np.array([mesh.classification[key] == "cut" for key in ops], dtype=bool)
    # bincount adds the element masses in element order, as a scatter element
    # by element would
    m_e = np.array([rec.m_e for rec in recs], dtype=float).ravel()
    mass = np.bincount(dofs.ravel(), weights=m_e, minlength=ndof).astype(float, copy=False)
    stack_k_e = np.array([rec.k_e for rec, c in zip(recs, cut) if c]).reshape(-1, width, width)
    # the one record every full element shares
    batch_k_e = next((rec.k_e for rec, c in zip(recs, cut) if not c), np.zeros((width, width)))
    stack = dofs[cut]
    return GlobalSystem(
        stiffness=ElementBatches(ndof, dofs[~cut], batch_k_e, stack, stack_k_e),
        lumped_mass=mass,
        dof_count=ndof,
        dirichlet_dofs=np.array(sorted(mesh.dirichlet_dofs), dtype=np.int64),
        cut_element_dofs=np.unique(stack),
    )


def assemble_interface_traction(mesh, direction):
    """f_shape of a traction on the non-conforming interface.

    f_shape carries the arc-length line integral of the shape functions
    against the unit `direction`, taken with the interface rules the mesh
    built with its volume rules.
    """
    direction = np.asarray(direction, dtype=float)
    jx, jy = mesh.hx / 2.0, mesh.hy / 2.0
    f_shape = np.zeros(mesh.dof_count)
    for (ex, ey), cutq in mesh.cut_quadratures.items():
        iq = cutq.interface
        # a sliver keeps an interface rule, but its nodes may be pruned
        if cutq.is_void or not len(iq.points):
            continue
        dofs = mesh.element_dofs(ex, ey)
        # reference arc length -> physical arc length along the tangent
        scale = np.hypot(jx * iq.tangents[:, 0], jy * iq.tangents[:, 1])
        vals, _ = mesh.basis.shape_eval_2d_batch(iq.points)
        contrib = (iq.weights * scale) @ vals
        f_shape[dofs[0::2]] += contrib * direction[0]
        f_shape[dofs[1::2]] += contrib * direction[1]
    return f_shape


def assemble_edge_traction(mesh, direction):
    """f_shape of a conforming traction on the right mesh edge.

    This is the load of the uncut baseline.
    """
    direction = np.asarray(direction, dtype=float)
    f_shape = np.zeros(mesh.dof_count)
    jy = mesh.hy / 2.0
    by = mesh.basis.rule
    for ey in range(mesh.ny):
        ex = mesh.nx - 1
        if mesh.cut_quadratures[(ex, ey)].is_void:
            continue
        dofs = mesh.element_dofs(ex, ey)
        # right edge: xi = 1, nodes i = p within each eta row
        for j in range(mesh.p + 1):
            k = j * (mesh.p + 1) + mesh.p
            w = by.weights[j] * jy
            f_shape[dofs[2 * k]] += w * direction[0]
            f_shape[dofs[2 * k + 1]] += w * direction[1]
    return f_shape
