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
values buffer by one element-product routine. The leap-frog loop keeps its
fields in that buffer's element-local layout, each DOF once per element
entry of it, so `GlobalSystem.k_matvec` multiplies views of its input with
no gather. The direct-stiffness sum (the gather-scatter Q Q^T of the same
book) then adds only the shared DOFs' copies, grouped by copy count, in
ascending element-local position as `np.bincount` would, and writes each
sum back to every copy; the DOFs with one copy keep their product. A
node's two DOFs sit side by side in every element entry, so the sums run
a node at a time on a complex view of the values. The sub-step operators
and the callers in DOF layout use `ElementBatches.apply`, which gathers
its input and scatters the products by one `np.bincount`.
`GlobalSystem.k_csr()` builds the sparse matrix from the same batches on
its first call, for tests and checks.

What depends only on the mesh numbering or on one cut rule is built once:
the mesh numbers its DOFs into one (elements x 2n) table, which assembly,
both traction loads and the error norm read rows from, and each element's
shape functions are evaluated once at its rule, for both its stiffness and
its lumped mass.
"""

import functools
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
        if not (0 < self.youngs_modulus < np.inf and 0 < self.density < np.inf):
            raise ConfigError("E and rho must be positive and finite")
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
            # no cut: every element is full, with the same rule
            level_set = geometry.half_plane(1.0, 0.0, 2.0 * self.lx)
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
    of x it reads, and `width`, size unless given, the length of x. The
    arrays are read-only. The GEMM multiplies by a
    C-contiguous copy of `batch_k_e.T`, made once here, so BLAS takes its
    no-transpose path.

    Both products write into two slices of one values buffer, made once
    here, which the bincount reads: `apply` copies nothing but its gathers,
    and it is not reentrant. It returns a fresh float64 array, also on an
    empty operator.

    An operator whose columns are its rows also applies in the
    element-local layout of that buffer, `_index` order (the GEMM rows, then
    the stack rows), where a vector holds each DOF at every element entry of
    it: `to_local` and `from_local` convert, and `apply_local` multiplies.
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
        width=None,
    ):
        def frozen(a, ndim, dtype):
            a = np.empty((0,) * ndim, dtype) if a is None else np.asarray(a, dtype)
            a.flags.writeable = False
            return a

        self.size = int(size)
        self.width = self.size if width is None else int(width)
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

    def _products(self, batch_x, stack_x):
        """The element products K_e x_e, written into the values buffer, which is returned."""
        np.matmul(batch_x, self._batch_k_t, out=self._batch_out)
        np.matmul(self.stack_k_e, stack_x, out=self._stack_out)
        return self._vals

    def apply(self, x):
        """K x."""
        vals = self._products(x[self.batch_cols], x[self.stack_cols][:, :, None])
        # bincount of an empty index returns int64 whatever the weights are
        return np.bincount(self._index, weights=vals, minlength=self.size).astype(
            float, copy=False
        )

    @functools.cached_property
    def _copies(self):
        """(first, dtype, groups): each DOF's first element-local position, and its copies by count.

        When each pair of element entries holds the two DOFs of one node, as
        the mesh's interleaved (ux, uy) numbering gives, a node's copies are
        summed as complex numbers on a complex view of the values: each
        complex add is the two adds of its DOFs, one index for both. dtype
        is that view's, complex or float. groups holds one (c, n_c) table of
        view positions per copy count c >= 2: column j holds the c positions
        of one node or DOF, ascending, the order in which bincount adds
        them. Built on first use, once per operator.
        """
        index = self._index
        if not np.all(np.bincount(index, minlength=self.size)):
            raise ConfigError("every DOF must belong to an element to apply K element-locally")
        even = index[::2]
        width = 2 if np.array_equal(index[1::2], even + 1) and not np.any(even % 2) else 1
        unit = index[::width] // width
        order = np.argsort(unit, kind="stable")
        counts = np.bincount(unit)
        start = np.cumsum(counts) - counts
        groups = [
            order[start[counts == c] + np.arange(c)[:, None]] for c in np.unique(counts) if c > 1
        ]
        first = (width * order[start, None] + np.arange(width)).ravel()[: self.size]
        return first, np.dtype(complex if width == 2 else float), groups

    @property
    def first_copy(self):
        """Each DOF's first position in the element-local layout."""
        return self._copies[0]

    def to_local(self, x):
        """x in the element-local layout: a fresh array of each DOF's value at each copy."""
        return x[self._index]

    def from_local(self, x):
        """A fresh array, in DOF layout, of each DOF's value at its first copy in x."""
        return x.take(self.first_copy)

    def apply_local(self, x):
        """K x in the element-local layout, for x in it, whose copies of a DOF are equal.

        The products read views of x; each shared DOF's copies are summed in
        bincount's order and the sum is written to every copy. The result is
        the values buffer, overwritten by the next product.
        """
        n_batch = self.batch_dofs.size
        batch_x = x[:n_batch].reshape(self._batch_out.shape)
        vals = self._products(batch_x, x[n_batch:].reshape(self._stack_out.shape))
        _, dtype, groups = self._copies
        summed = vals.view(dtype)
        for pos in groups:
            total = summed[pos[0]]
            for other in pos[1:]:
                total += summed[other]
            for copy in pos:
                summed[copy] = total
        return vals

    def split(self, cols):
        """(ring, inner, outer): K[cols, cols] and K[ring, cols] as element batches.

        cols is a boolean mask, and ring the DOFs outside it of the elements
        that hold a DOF of it. Both operators read x in the numbering of
        cols followed by one zero slot, width n + 1 for n DOFs in cols:
        every column outside cols is gathered from the slot, so x must be
        zero there. inner, of size n + 1, applies K[cols, cols] in that
        numbering and outer, of size len(ring) + 1, K[ring, cols] in ring's.
        Rows outside those add to the last entry of the result, which is to
        be discarded. The DOF tables serve as gather tables, as they do in
        the assembled K.

        A host is a stacked element with every DOF in cols. inner adds each
        other element's cols x cols block into a copy of the first host
        that holds all of its DOFs in cols, and keeps an element with no
        such host as it is, in the GEMM batch or the stack. outer holds the
        elements with DOFs both in and outside cols.
        """
        n = int(np.count_nonzero(cols))
        gather = np.where(cols, np.cumsum(cols) - 1, n)
        hosts = np.flatnonzero(cols[self.stack_dofs].all(axis=1))
        tables = []
        for dofs, k_e in ((self.batch_dofs, self.batch_k_e), (self.stack_dofs, self.stack_k_e)):
            held = cols[dofs]
            part = held.any(axis=1) & ~held.all(axis=1)
            # the elements that hold a DOF of cols, but the hosts
            guests = np.flatnonzero(part if k_e.ndim == 3 else held.any(axis=1))
            pairs = _hosted_pairs(held[guests], dofs[guests], self.stack_dofs[hosts])
            tables.append((dofs, k_e, part, guests, pairs))
        (b_dofs, b_k, b_part, b_g, b_pairs), (s_dofs, s_k, s_part, s_g, s_pairs) = tables
        stack = np.concatenate([hosts, s_g[s_pairs[0] < 0]])
        folded = s_k[stack]
        for _, k_e, _, guests, (host, f, a, b, at_a, at_b) in tables:
            vals = k_e[a, b] if k_e.ndim == 2 else k_e[guests[f], a, b]
            np.add.at(folded, (host[f], at_a, at_b), vals)
        b_in, b_out, s_out = b_dofs[b_g[b_pairs[0] < 0]], b_dofs[b_part], s_dofs[s_part]
        ring = np.zeros(self.size, dtype=bool)
        ring[b_out] = ring[s_out] = True
        ring = np.flatnonzero(ring & ~cols)
        rows = np.full(self.size, len(ring))
        rows[ring] = np.arange(len(ring))
        inner = ElementBatches(n + 1, gather[b_in], b_k, gather[s_dofs[stack]], folded)
        outer = ElementBatches(
            len(ring) + 1,
            rows[b_out],
            b_k,
            rows[s_out],
            s_k[s_part],
            batch_cols=gather[b_out],
            stack_cols=gather[s_out],
            width=n + 1,
        )
        return ring, inner, outer

    def to_dense(self):
        """The dense (size, width) matrix of the map `apply` applies, summed in batch order."""
        k = np.zeros((self.size, self.width))
        for dofs, cols, k_e in (
            (self.batch_dofs, self.batch_cols, self.batch_k_e),
            (self.stack_dofs, self.stack_cols, self.stack_k_e),
        ):
            np.add.at(k, (dofs[:, :, None], cols[:, None, :]), k_e)
        return k

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
        k = sp.coo_matrix((vals, (rows, cols)), shape=(self.size, self.width)).tocsr()
        k.sum_duplicates()
        return k


def _ranges(start, count):
    """The ranges start[i], ..., start[i] + count[i] - 1, concatenated."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def _hosted_pairs(held, dofs, host_dofs):
    """Each guest row's first host row that holds all its DOFs in `held`, and where they sit there.

    Returns (host, f, a, b, at_a, at_b): host has one entry per guest, -1
    for a guest with no such host, and guest f's entry (a, b) goes to its
    host's entry (at_a, at_b), for every pair of held DOFs of a hosted
    guest. A host is counted for a guest once per held DOF it holds, found
    among the host entries sorted by DOF.
    """
    n_h, width = host_dofs.shape
    by_dof = np.argsort(host_dofs.ravel(), kind="stable")
    g, a = np.nonzero(held)
    lo, hi = (np.searchsorted(host_dofs.ravel()[by_dof], dofs[g, a], s) for s in ("left", "right"))
    g, a = g.repeat(hi - lo), a.repeat(hi - lo)
    h, at = np.divmod(by_dof[_ranges(lo, hi - lo)], width)
    codes, counts = np.unique(g * n_h + h, return_counts=True)
    whole = codes[counts == np.count_nonzero(held, axis=1)[codes // n_h]]
    first_of, first = np.unique(whole // n_h, return_index=True)
    host = np.full(len(held), -1)
    host[first_of] = whole[first] % n_h
    take = h == host[g]
    g, a, at = g[take], a[take], at[take]
    # g is sorted: the pairs of each guest's entries
    size = np.bincount(g, minlength=len(held))[g]
    i, j = np.arange(len(g)).repeat(size), _ranges(np.searchsorted(g, g), size)
    return host, g[i], a[i], a[j], at[i], at[j]


def zero_pulse(t):
    """The pulse of an unloaded system."""
    return 0.0


@dataclass
class GlobalSystem:
    """Explicit-dynamics system with diagonal mass and K as element batches.

    `stiffness` is K (ElementBatches): the full elements share one
    stiffness and the cut elements each have their own. k_matvec applies it
    in the element-local layout of the leap-frog loop, `stiffness.apply` in
    DOF layout; k_csr() is built from it on first call. The load is
    f(t) = f_shape * pulse(t), zero when the system is unloaded. K and f_shape include the
    Dirichlet DOFs; `m_inv` and `m_inv_sqrt`, M^-1 and M^-1/2, are zero
    there, so an integrator that scales by them never moves those DOFs.
    The DOF count and the cut-element DOFs are read from K.
    """

    stiffness: ElementBatches
    lumped_mass: np.ndarray
    dirichlet_dofs: np.ndarray
    f_shape: np.ndarray = None  # zeros of dof_count when not given
    pulse: object = zero_pulse  # scalar history t -> p(t)
    _k_csr: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.f_shape is None:
            self.f_shape = np.zeros(self.dof_count)
        if np.any(self._zero_on_dirichlet(self.lumped_mass <= 0)):
            raise SingularMass("a free DOF received zero lumped mass")

    @property
    def dof_count(self):
        return self.stiffness.size

    @property
    def cut_element_dofs(self):
        """The DOFs of the elements with a stiffness each: K's stack."""
        return np.unique(self.stiffness.stack_dofs)

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
        """K x in the element-local layout, from the element batches: `stiffness.apply_local`."""
        return self.stiffness.apply_local(x)

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
    cut rule, a read-only view of one stack of them, which assembly takes
    as K's. The result is memoised on the mesh and keyed by value, so
    equal but distinct configs reuse one pass.
    """
    return _element_operators(mesh, mat, scheme, cfg)[0]


def _element_operators(mesh, mat, scheme, cfg):
    """(element_operators, the stack of the cut elements' stiffnesses in element order)."""
    cfg = cfg or MomentFitConfig()
    key = (mat, scheme, cfg)
    if key in mesh.operator_cache:
        return mesh.operator_cache[key]
    basis = mesh.basis
    jac = (mesh.hx / 2.0, mesh.hy / 2.0)
    width = 2 * basis.node_count
    stack = np.empty((sum(c == "cut" for c in mesh.classification.values()), width, width))

    def build(cutq, out=None):
        if cutq.classification == "full":
            pts, wts = basis.node_coords(), basis.node_weights()
        else:
            pts, wts = cutq.points, cutq.weights
        # one shape evaluation serves the stiffness and the HRZ diagonal
        shapes = basis.shape_eval_2d_batch(pts)
        lumped = lump_element(basis, cutq, scheme, cfg, shapes=shapes)
        k_e = element_stiffness(basis, mat, pts, wts, jac, shapes=shapes)
        if out is not None:  # a cut element's view of the stack
            out[...] = k_e
            k_e = out
        rec = ElementOperators(
            lumped=lumped, k_e=k_e, m_e=element_lumped_mass(lumped, mat, jac)
        )
        for a in (rec.lumped.weights, rec.k_e, rec.m_e):
            a.flags.writeable = False
        return rec

    ops = {}
    full = None
    cut_k_e = iter(stack)  # views of the stack, in element order
    for ex, ey in mesh.elements():
        cutq = mesh.cut_quadratures[(ex, ey)]
        if cutq.is_void:
            continue
        if cutq.classification == "full":
            full = full or build(cutq)
            ops[(ex, ey)] = full
        else:
            ops[(ex, ey)] = build(cutq, next(cut_k_e))
    stack.flags.writeable = False
    mesh.operator_cache[key] = ops, stack
    return ops, stack


def assemble_global(mesh, mat, scheme="fitted", cfg=None):
    """Lumped mass and the element batches of K, in deterministic element order.

    Every full element joins the one GEMM batch and every cut element the
    stack. The Dirichlet DOFs are held by the system's inverse mass.
    """
    ndof = mesh.dof_count
    width = 2 * mesh.basis.node_count
    ops, stack_k_e = _element_operators(mesh, mat, scheme, cfg)
    recs = list(ops.values())
    dofs = np.array([mesh.element_dofs(*key) for key in ops], dtype=np.int64).reshape(-1, width)
    cut = np.array([mesh.classification[key] == "cut" for key in ops], dtype=bool)
    # bincount adds the element masses in element order, as a scatter element
    # by element would
    m_e = np.array([rec.m_e for rec in recs], dtype=float).ravel()
    mass = np.bincount(dofs.ravel(), weights=m_e, minlength=ndof).astype(float, copy=False)
    # the one record every full element shares
    batch_k_e = next((rec.k_e for rec, c in zip(recs, cut) if not c), np.zeros((width, width)))
    return GlobalSystem(
        stiffness=ElementBatches(ndof, dofs[~cut], batch_k_e, dofs[cut], stack_k_e),
        lumped_mass=mass,
        dirichlet_dofs=np.array(sorted(mesh.dirichlet_dofs), dtype=np.int64),
    )


def _line_load(mesh, rules, direction):
    """f_shape of the traction `direction` on the line rules {(ex, ey): rule}.

    Each rule is an InterfaceQuadrature in its element's reference frame:
    the arc-length line integral of the shape functions is taken with its
    weights, mapped to physical arc length along its tangents. This is the
    one loop over line-rule points of both traction loads.
    """
    direction = np.asarray(direction, dtype=float)
    jx, jy = mesh.hx / 2.0, mesh.hy / 2.0
    f_shape = np.zeros(mesh.dof_count)
    for (ex, ey), iq in rules.items():
        dofs = mesh.element_dofs(ex, ey)
        # reference arc length -> physical arc length along the tangent
        scale = np.hypot(jx * iq.tangents[:, 0], jy * iq.tangents[:, 1])
        vals, _ = mesh.basis.shape_eval_2d_batch(iq.points)
        contrib = (iq.weights * scale) @ vals
        f_shape[dofs[0::2]] += contrib * direction[0]
        f_shape[dofs[1::2]] += contrib * direction[1]
    return f_shape


def assemble_interface_traction(mesh, direction):
    """f_shape of a traction on the non-conforming interface.

    The line integral is taken with the interface rules the mesh built
    with its volume rules.
    """
    rules = {
        key: cutq.interface
        for key, cutq in mesh.cut_quadratures.items()
        # a sliver keeps an interface rule, but its nodes may be pruned
        if not cutq.is_void and len(cutq.interface.points)
    }
    return _line_load(mesh, rules, direction)


def assemble_edge_traction(mesh, direction):
    """f_shape of a conforming traction on the right mesh edge.

    This is the load of the uncut baseline: the line integral with the GLL
    rule on xi = 1 of every right-column element, whose shape values at
    its points are 0 and 1, so each edge node gets its GLL weight.
    """
    rule = mesh.basis.rule
    m = len(rule.nodes)
    edge = geometry.InterfaceQuadrature(
        points=np.column_stack([np.ones(m), rule.nodes]),
        weights=rule.weights,
        normals=np.tile([1.0, 0.0], (m, 1)),
        tangents=np.tile([0.0, 1.0], (m, 1)),
    )
    ex = mesh.nx - 1
    rules = {
        (ex, ey): edge for ey in range(mesh.ny) if not mesh.cut_quadratures[(ex, ey)].is_void
    }
    return _line_load(mesh, rules, direction)
