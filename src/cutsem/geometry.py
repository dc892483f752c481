"""Implicit geometry and cut-element quadrature.

A LevelSet classifies physical points: Phi > 0 physical, Phi < 0 void,
Phi = 0 interface. Cut elements are integrated with the height-function
rule of R. Saye, "High-order quadrature methods for implicitly defined
surfaces and volumes in hyperrectangles", SIAM J. Sci. Comput. 37 (2015)
A993. On a leaf of the element's reference square, k is a height
direction when d_k Phi keeps one sign and |d_k Phi| >= |grad Phi| / 2 at
every sample, so each line along k meets the interface once at most. The
outer interval is split at the roots of Phi on the two faces normal to k;
each outer Gauss point gets its root along k and Gauss points on the
physical part of its line. A leaf with no height direction is split in
four, at most `depth` times. A straight cut is integrated exactly by one
leaf, a curved one converges spectrally, and the interface rule comes
from the same roots, plus Gauss points on any face of a full leaf where
every sample of Phi is zero. All emitted points/weights live in the parent
element's reference frame, so weights measure reference area (resp. arc
length) and the affine element Jacobian is applied at assembly time.

The rules of a whole mesh come from one pass (`build_cut_quadratures`):
one level-set call classifies every element, each quadtree level evaluates
Phi and grad Phi once for all its pending leaves, and the leaves that split
no further are emitted together, with one root solve for all their face
segments and one for all their line segments. Each element's volume rule
carries its interface rule, made from the same roots with one gradient call
for all of them. Phi is always evaluated through each element's own map, in
reference coordinates, and each element's points are put back in
depth-first leaf order, so an element's rules do not depend on the other
elements of the call: the one-element functions are the same pass on one
box.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NonBracketing
from .gll import MAX_ORDER

DEFAULT_DEPTH = 3
SLIVER_VOLUME_RATIO = 1e-10

# no longer used by the quadrature: perfbench/workloads.py reads it for
# the plate's mass bound, so it stays until that bound moves
_SEGMENT_REFINE_LEVELS = 3

_ROOT_MAXIT = 60
_SAMPLES = 5  # per side of a leaf's sample grid, and along each height line
_MIN_SLOPE = 0.5  # least |d_k Phi| / |grad Phi| of a height direction k


class LevelSet:
    """Signed-distance field wrapper; evaluator takes physical (x, y).

    gradient(x, y) returns (d_x Phi, d_y Phi) at arrays of one shape; the
    built-in level sets give it exactly.
    """

    def __init__(self, evaluator, gradient):
        self._evaluator = evaluator
        self._gradient = gradient

    def __call__(self, x, y):
        return self._evaluator(x, y)

    def gradient(self, x, y):
        """(d_x Phi, d_y Phi) at the points (x, y), broadcast to one shape."""
        return self._gradient(*np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float)))


def half_plane(nx, ny, offset):
    """Physical where nx*x + ny*y <= offset; (nx, ny) points toward the void."""
    norm = float(np.hypot(nx, ny))
    nx, ny, offset = nx / norm, ny / norm, offset / norm
    return LevelSet(
        lambda x, y: offset - (nx * x + ny * y),
        gradient=lambda x, y: (np.full(x.shape, -nx), np.full(y.shape, -ny)),
    )


def circle(cx, cy, r):
    """Circular void: physical outside the disk of radius r around (cx, cy)."""

    def gradient(x, y):
        dist = np.hypot(x - cx, y - cy)
        dist = np.where(dist > 0, dist, 1.0)  # zero at the centre itself
        return (x - cx) / dist, (y - cy) / dist

    return LevelSet(
        lambda x, y: np.hypot(x - cx, y - cy) - r,
        gradient=gradient,
    )


def union_of_voids(level_sets):
    """Void wherever any member is void: pointwise minimum of Phi."""
    fns = list(level_sets)

    def evaluator(x, y):
        vals = fns[0](x, y)
        for ls in fns[1:]:
            vals = np.minimum(vals, ls(x, y))
        return vals

    def gradient(x, y):
        # the gradient of the member that attains the minimum
        nearest = np.argmin([ls(x, y) for ls in fns], axis=0)
        grads = [ls.gradient(x, y) for ls in fns]
        return tuple(np.choose(nearest, [g[i] for g in grads]) for i in (0, 1))

    return LevelSet(evaluator, gradient=gradient)


@dataclass(frozen=True)
class InterfaceQuadrature:
    """Line rule on the zero iso-line inside one element."""

    points: np.ndarray  # (nq, 2) reference coords
    weights: np.ndarray  # (nq,) reference arc-length measures
    normals: np.ndarray  # (nq, 2) physical unit vectors, toward the void
    tangents: np.ndarray  # (nq, 2) reference unit tangents (for arc mapping)


_NO_INTERFACE = InterfaceQuadrature(*(np.empty(shape) for shape in ((0, 2), 0, (0, 2), (0, 2))))


@dataclass(frozen=True)
class CutQuadrature:
    """Volume rule for the physical part of one element, and its interface rule.

    Both live in the element's reference frame.
    """

    points: np.ndarray  # (nq, 2) in [-1,1]^2
    weights: np.ndarray  # (nq,) reference-area measures, all > 0
    volume_ratio: float
    classification: str  # full | cut | void
    interface: InterfaceQuadrature = _NO_INTERFACE  # empty unless the element is cut

    @property
    def is_void(self):
        return self.classification == "void"


_VOID, _CUT, _FULL = 0, 1, 2


def _as_boxes(boxes):
    """Boxes ((x0, x1), (y0, y1)) as a (B, 2, 2) float array."""
    return np.asarray(boxes, dtype=float).reshape(-1, 2, 2)


def _classify(ls, boxes, sample_depth):
    """_VOID / _CUT / _FULL of every box, from one call of ls on their sample grids."""
    n = 2**sample_depth + 1
    xs = np.linspace(boxes[:, :, 0], boxes[:, :, 1], n, axis=-1)
    x, y = np.empty((2, len(boxes), n, n))
    x[:], y[:] = xs[:, 0, None, :], xs[:, 1, :, None]
    vals = np.asarray(ls(x, y)).reshape(len(boxes), -1)
    return np.where((vals > 0).all(axis=1), _FULL, np.where((vals < 0).all(axis=1), _VOID, _CUT))


def _regula_falsi(phi, pa, pb, flo, fhi):
    """Roots on the segments [pa, pb] (m, 2), where Phi is flo and fhi.

    phi(p, rows) is Phi, as a float array, at the points p of the segments rows.
    """
    d = pb - pa
    flo, fhi = flo.copy(), fhi.copy()
    if np.any(flo * fhi > 0):
        raise NonBracketing("Phi has the same sign at both ends of a segment")
    ftol = 1e-14 * np.maximum(np.abs(flo), np.abs(fhi))
    # s parametrises each segment; [lo, hi] brackets its root
    lo, hi = np.zeros(len(pa)), np.ones(len(pa))
    s = np.where(fhi == 0.0, 1.0, 0.0)
    kept = np.zeros(len(pa), dtype=int)  # end kept by the last step: -1 lo, 1 hi
    todo = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    for _ in range(_ROOT_MAXIT):
        if not len(todo):
            break
        l, h, fl, fh = lo[todo], hi[todo], flo[todo], fhi[todo]
        t = (l * fh - h * fl) / (fh - fl)
        t = np.where((l < t) & (t < h), t, 0.5 * (l + h))
        f = phi(pa[todo] + t[:, None] * d[todo], todo)
        s[todo] = t
        # Illinois: halve the value at an end kept twice in a row
        left = np.sign(f) == np.sign(fl)
        lo[todo] = np.where(left, t, l)
        flo[todo] = np.where(left, f, np.where(kept[todo] == -1, 0.5 * fl, fl))
        hi[todo] = np.where(left, h, t)
        fhi[todo] = np.where(left, np.where(kept[todo] == 1, 0.5 * fh, fh), f)
        kept[todo] = np.where(left, 1, -1)
        done = (np.abs(f) <= ftol[todo]) | (hi[todo] - lo[todo] <= 4.0 * np.finfo(float).eps)
        todo = todo[~done]
    return pa + s[:, None] * d


@lru_cache(maxsize=64)
def _gauss_1d(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=64)
def _gauss_square(degree):
    """Tensor Gauss-Legendre rule on [-1,1]^2 exact to the given degree."""
    n = degree // 2 + 1
    x, w = _gauss_1d(n)
    X, Y = np.meshgrid(x, x)
    pts, wts = np.column_stack([X.ravel(), Y.ravel()]), np.outer(w, w).ravel()
    pts.flags.writeable = wts.flags.writeable = False  # shared by every full element
    return pts, wts


def _gauss_on(lo, hi, n):
    """n-point Gauss rules on the intervals [lo, hi]: (m, n) nodes and weights."""
    x, w = _gauss_1d(n)
    half = 0.5 * (hi - lo)[:, None]
    return lo[:, None] + (x + 1.0) * half, w * half


_T = np.linspace(0.0, 1.0, _SAMPLES)
# corners of the quadrants SW, SE, NW, NE, as indices into a leaf's (lo, mid, hi)
# along xi and along eta
_QUADRANT_XI = np.array([[0, 1], [1, 2], [0, 1], [1, 2]])
_QUADRANT_ETA = np.array([[0, 1], [0, 1], [1, 2], [1, 2]])


def _samples(lo, hi):
    """lo + t (hi - lo) at the _SAMPLES uniform t of [0, 1], on a new last axis."""
    return lo[..., None] + _T * (hi - lo)[..., None]


def _points(k, u, t):
    """Reference points (..., 2): t along the height axis k, u along the other."""
    along = k == 0
    xi = np.where(along, t, u)
    p = np.empty(xi.shape + (2,))
    p[..., 0], p[..., 1] = xi, np.where(along, u, t)
    return p


class _ElementMaps:
    """The affine maps x = origin + (xi + 1) * half of a stack of boxes (B, 2, 2).

    Phi is always evaluated through a point's own element map, in reference
    coordinates, so every box gets the values a one-box call would.
    """

    def __init__(self, ls, boxes):
        self.ls = ls
        size = boxes[:, :, 1] - boxes[:, :, 0]
        self.frame = np.stack([boxes[:, :, 0], 0.5 * size], axis=1)  # (origin, half) per box
        self.half = self.frame[:, 1]

    def _map(self, p, box):
        """Physical points of the reference points p (..., 2) of the boxes box (...), and half."""
        frame = self.frame[box]
        half = frame[..., 1, :]
        return frame[..., 0, :] + (p + 1.0) * half, half

    def phi(self, p, box):
        x, _ = self._map(p, box)
        return np.asarray(self.ls(x[..., 0], x[..., 1]), dtype=float)

    def ref_gradient(self, p, box):
        """(d_xi Phi, d_eta Phi) at the reference points p, on a new first axis."""
        x, half = self._map(p, box)
        gx, gy = self.ls.gradient(x[..., 0], x[..., 1])
        return np.array([gx * half[..., 0], gy * half[..., 1]])

    def split_points(self, lines, box):
        """Roots of Phi between the samples of sampled lines where its sign changes.

        lines is (m, s, 2), s samples per line, and box (m,) their boxes.
        Returns the roots in sample order, the (m, s - 1) mask of the sample
        intervals that hold them, and the (m, s) mask of the samples with
        Phi >= 0.
        """
        vals = self.phi(lines, box[:, None])
        inside = vals >= 0.0
        flips = inside[:, 1:] != inside[:, :-1]
        if not flips.any():
            return np.empty((0, 2)), flips, inside
        seg_box = box[np.nonzero(flips)[0]]
        roots = _regula_falsi(
            lambda p, rows: self.phi(p, seg_box[rows]),
            lines[:, :-1][flips],
            lines[:, 1:][flips],
            vals[:, :-1][flips],
            vals[:, 1:][flips],
        )
        return roots, flips, inside


def _height_directions(grad):
    """Per leaf, the axis k with a one-signed d_k Phi >= |grad Phi| / 2 at every sample, or -1.

    grad is (2, leaves, s, s); a tie goes to axis 0.
    """
    norm = np.hypot(grad[0], grad[1])
    one_signed = (grad > 0).all(axis=(2, 3)) | (grad < 0).all(axis=(2, 3))
    # a zero norm only occurs on an axis that is not one-signed
    slope = (np.abs(grad) / np.where(norm == 0.0, 1.0, norm)).min(axis=(2, 3))
    ratios = np.where(one_signed, slope, 0.0)
    k = ratios.argmax(axis=0)
    return np.where(ratios[k, np.arange(len(k))] >= _MIN_SLOPE, k, -1)


class _Leaves(NamedTuple):
    """Quadtree leaves: their box, corners (lo, hi) in its reference frame, depth-first key."""

    box: np.ndarray
    corners: np.ndarray  # (leaves, 2, 2)
    key: np.ndarray

    def take(self, sel):
        return _Leaves(self.box[sel], self.corners[sel], self.key[sel])

    @staticmethod
    def concat(parts):
        return parts[0] if len(parts) == 1 else _Leaves(*map(np.concatenate, zip(*parts)))


def _full_leaf_points(leaves, vals, gauss_degree, n):
    """Tensor Gauss points of full leaves, and Gauss points on their faces where Phi = 0.

    Returns the volume part (points, weights, leaf) and a list of interface
    parts (roots, weights, axes, leaf), one per face side that has any.
    """
    pts, wts = _gauss_square(gauss_degree)
    lo, hi = leaves.corners[:, 0], leaves.corners[:, 1]
    half = 0.5 * (hi - lo)
    volume = (
        (lo[:, None] + (pts + 1.0) * half[:, None]).reshape(-1, 2),
        (wts * (half[:, 0] * half[:, 1])[:, None]).ravel(),
        np.repeat(np.arange(len(half)), len(wts)),
    )
    # a face where Phi vanishes is interface that no other leaf emits (the
    # leaf across it is void)
    faces = []
    for k, side, face in (
        (0, 0, vals[:, :, 0]),
        (0, 1, vals[:, :, -1]),
        (1, 0, vals[:, 0]),
        (1, 1, vals[:, -1]),
    ):
        on = np.flatnonzero((face == 0.0).all(axis=1))
        if len(on):
            u, wu = _gauss_on(lo[on, 1 - k], hi[on, 1 - k], n)
            roots = _points(k, u, leaves.corners[on, side, k, None]).reshape(-1, 2)
            faces.append((roots, wu.ravel(), np.full(wu.size, k), np.repeat(on, n)))
    return volume, faces


def _height_leaf_points(maps, leaves, k, n):
    """Height-function points of leaves with height axes k.

    The outer interval of a leaf is split at the roots of Phi on its two
    faces normal to k; each outer Gauss point gets its root along k and
    Gauss points on the physical part of its line. Returns the volume part
    (points, weights, leaf) and the interface part (roots, weights, axes,
    leaf).
    """
    rows = np.arange(len(k))
    along, across = leaves.corners[rows, :, k], leaves.corners[rows, :, 1 - k]  # (lo, hi) each
    us = _samples(across[:, 0], across[:, 1])
    ts = _samples(along[:, 0], along[:, 1])

    # outer breakpoints: the roots of Phi on the two faces normal to k
    faces = _points(k[:, None, None], us[:, None, :], along[:, :, None])
    face_roots, face_flips, _ = maps.split_points(faces.reshape(-1, _SAMPLES, 2), leaves.box.repeat(2))
    root_leaf = np.nonzero(face_flips)[0] // 2
    count = np.bincount(root_leaf, minlength=len(k))
    cuts = np.full((len(k), 2 + count.max(initial=0)), np.inf)
    cuts[:, :2] = across
    slot = 2 + np.arange(len(root_leaf)) - (np.cumsum(count) - count)[root_leaf]
    cuts[root_leaf, slot] = face_roots[np.arange(len(root_leaf)), 1 - k[root_leaf]]
    # each leaf's sorted distinct breakpoints, as np.unique gives them
    cuts.sort(axis=1)
    distinct = np.isfinite(cuts)
    distinct[:, 1:] &= cuts[:, 1:] != cuts[:, :-1]
    cut_leaf, cut_at = np.nonzero(distinct)[0], cuts[distinct]
    same = cut_leaf[1:] == cut_leaf[:-1]
    u, wu = _gauss_on(cut_at[:-1][same], cut_at[1:][same], n)
    u, wu = u.ravel(), wu.ravel()
    line_leaf = cut_leaf[:-1][same].repeat(n)

    # each line along k: the segment ends are its ends and its roots
    lk, lt = k[line_leaf], ts[line_leaf]
    roots, flips, inside = maps.split_points(_points(lk[:, None], u[:, None], lt), leaves.box[line_leaf])
    root_line = np.nonzero(flips)[0]
    ends = np.empty((len(u), _SAMPLES + 1))
    ends[:, 0], ends[:, -1] = lt[:, 0], lt[:, -1]
    ends[:, 1:-1][flips] = roots[np.arange(len(root_line)), lk[root_line]]
    marks = np.column_stack([inside[:, 0], flips, inside[:, -1]])
    # in each line the marked ends alternate: start of a physical segment, end
    line, col = np.nonzero(marks)
    start, stop = ends[line[0::2], col[0::2]], ends[line[1::2], col[1::2]]
    line = line[0::2]
    tk, wk = _gauss_on(start, stop, n)
    wts = wu[line, None] * wk
    keep = wts > 0
    volume = (
        _points(lk[line, None], u[line, None], tk)[keep],
        wts[keep],
        line_leaf[line[np.nonzero(keep)[0]]],
    )
    return volume, (roots, wu[root_line], lk[root_line], line_leaf[root_line])


@dataclass(frozen=True)
class _HeightRules:
    """Volume and interface points of the physical part of every box, reference frames.

    Both are sorted by box: the volume rows of box b are start[b]:start[b + 1],
    and root_box holds the box of each root.
    """

    points: np.ndarray
    weights: np.ndarray
    start: np.ndarray
    roots: np.ndarray
    root_weights: np.ndarray
    root_axes: np.ndarray
    root_box: np.ndarray


def _starts(box, n_box):
    """Row starts of each of n_box boxes in rows sorted by box, and the end."""
    return np.concatenate([[0], np.bincount(box, minlength=n_box).cumsum()])


def _height_rules(maps, depth, gauss_degree):
    """The height-function rules of every box of maps, one quadtree level at a time.

    Each level evaluates Phi, then grad Phi, once for all its pending leaves.
    A leaf with Phi >= 0 at every sample is full and one with Phi <= 0 is
    void; of the others, those with a height direction, and all of them at
    the depth cap, are kept and the rest split in four. The kept leaves of
    every level are emitted together: one root solve for all their face
    segments and one for all their line segments. Each box's points come
    out in depth-first leaf order (SW, SE, NW, NE).
    """
    n_box = len(maps.frame)
    # exact for straight cuts: the outer integrand has degree gauss_degree + 1
    n = (gauss_degree + 3) // 2
    c = _SAMPLES // 2
    pending = _Leaves(
        np.arange(n_box), np.repeat([[[-1.0, -1.0], [1.0, 1.0]]], n_box, axis=0), np.zeros(n_box, int)
    )
    full, full_vals, height, height_k = [], [], [], []
    for level in range(depth + 1):
        lo, hi = pending.corners[:, 0], pending.corners[:, 1]
        # sample (i, j) of a leaf is at (xi_j, eta_i)
        grid = np.empty((len(lo), _SAMPLES, _SAMPLES, 2))
        grid[..., 0] = _samples(lo[:, 0], hi[:, 0])[:, None, :]
        grid[..., 1] = _samples(lo[:, 1], hi[:, 1])[:, :, None]
        vals = maps.phi(grid, pending.box[:, None, None])
        is_full = (vals >= 0).all(axis=(1, 2))
        is_cut = ~is_full & ~(vals <= 0).all(axis=(1, 2))
        full.append(pending.take(is_full))
        full_vals.append(vals[is_full])
        cut = pending.take(is_cut)
        grad = maps.ref_gradient(grid[is_cut], cut.box[:, None, None])
        k = _height_directions(grad)
        split = k < 0
        if level == depth:
            # at the cap: the steepest axis at the centre, and every sampled
            # sign change along each line becomes a segment end
            k[split] = np.abs(grad[:, split, c, c]).argmax(axis=0)
            split[:] = False
        height.append(cut.take(~split))
        height_k.append(k[~split])
        if not split.any():
            break
        parent = cut.take(split)
        p_lo, p_hi = parent.corners[:, 0], parent.corners[:, 1]
        nodes = np.stack([p_lo, 0.5 * (p_lo + p_hi), p_hi], axis=1)  # (lo, mid, hi) per axis
        corners = np.stack([nodes[:, _QUADRANT_XI, 0], nodes[:, _QUADRANT_ETA, 1]], axis=-1)
        # a key holds two bits per level, the quadrant's at its own level
        pending = _Leaves(
            parent.box.repeat(4),
            corners.reshape(-1, 2, 2),
            (parent.key[:, None] + (np.arange(4) << 2 * (depth - level - 1))).ravel(),
        )

    full, height = _Leaves.concat(full), _Leaves.concat(height)
    leaves = _Leaves.concat([full, height])
    rank = np.empty(len(leaves.box), dtype=int)
    rank[np.lexsort((leaves.key, leaves.box))] = np.arange(len(rank))
    # parts of columns whose last column is the leaf of each row
    volume, interface = [], []
    if len(full.box):
        full_volume, faces = _full_leaf_points(full, np.concatenate(full_vals), gauss_degree, n)
        volume.append(full_volume)
        interface += faces
    if len(height.box):
        parts = _height_leaf_points(maps, height, np.concatenate(height_k), n)
        for part, emitted in zip(parts, (volume, interface)):
            emitted.append(part[:-1] + (len(full.box) + part[-1],))

    def by_box(parts, empty):
        """The parts' columns sorted by (box, leaf key), and the box of each row."""
        *cols, leaf = (np.concatenate(col) for col in zip(*parts)) if parts else empty
        order = np.argsort(rank[leaf], kind="stable")
        return [col[order] for col in cols], leaves.box[leaf[order]]

    no_leaf = np.empty(0, dtype=int)
    (points, weights), box = by_box(volume, (np.empty((0, 2)), np.empty(0), no_leaf))
    (roots, root_weights, root_axes), root_box = by_box(
        interface, (np.empty((0, 2)), np.empty(0), no_leaf, no_leaf)
    )
    return _HeightRules(points, weights, _starts(box, n_box), roots, root_weights, root_axes, root_box)


# 4p - 2, the degree of the stiffness integrands, at the highest order: no
# study asks for more, and a rule of much higher degree exhausts memory
MAX_GAUSS_DEGREE = 4 * MAX_ORDER - 2


def _check_settings(depth, gauss_degree):
    if depth < 0:
        raise ConfigError(f"quadrature depth must be >= 0, got {depth}")
    if gauss_degree < 0:
        raise ConfigError(f"quadrature degree must be >= 0, got {gauss_degree}")
    if gauss_degree > MAX_GAUSS_DEGREE:
        raise ConfigError(f"quadrature degree must be <= {MAX_GAUSS_DEGREE}, got {gauss_degree}")


def _void_rule(interface=_NO_INTERFACE):
    return CutQuadrature(np.empty((0, 2)), np.empty(0), 0.0, "void", interface)


def _interface_rules(maps, hr):
    """Line rules on the interface inside every box of maps, from the roots of hr.

    A root on a line along k with outer weight w_u has arc-length weight
    w_u |grad Phi| / |d_k Phi|; normals and tangents come from the same
    gradient, taken in one call for every box.
    """
    points, box = hr.roots, hr.root_box
    grad = maps.ref_gradient(points, box).T
    slope = np.abs(grad[np.arange(len(points)), hr.root_axes])
    keep = slope > 0
    points, grad, slope, box = points[keep], grad[keep], slope[keep], box[keep]
    norm = np.hypot(grad[:, 0], grad[:, 1])
    phys = grad / maps.half[box]
    weights = hr.root_weights[keep] * norm / slope
    normals = -phys / np.hypot(phys[:, 0], phys[:, 1])[:, None]
    tangents = np.column_stack([-grad[:, 1], grad[:, 0]]) / norm[:, None]
    start = _starts(box, len(maps.frame))
    return [
        InterfaceQuadrature(points[lo:hi], weights[lo:hi], normals[lo:hi], tangents[lo:hi])
        for lo, hi in zip(start[:-1], start[1:])
    ]


def build_cut_quadratures(ls, boxes, depth=DEFAULT_DEPTH, gauss_degree=4):
    """Volume and interface rules of the elements over `boxes`, one CutQuadrature per box.

    One level-set call classifies every box; the cut ones share one
    height-function pass, which gives both rules. A sliver, a cut element
    whose volume ratio is below SLIVER_VOLUME_RATIO, gets a void volume rule
    and keeps its interface rule.
    """
    _check_settings(depth, gauss_degree)
    boxes = _as_boxes(boxes)
    if not len(boxes):
        return []
    classes = _classify(ls, boxes, max(2, min(depth, 5)))
    pts, wts = _gauss_square(gauss_degree)
    rules = [
        CutQuadrature(points=pts, weights=wts, volume_ratio=1.0, classification="full")
        if c == _FULL
        else _void_rule()
        for c in classes
    ]
    cut = np.flatnonzero(classes == _CUT)
    if not len(cut):
        return rules
    maps = _ElementMaps(ls, boxes[cut])
    hr = _height_rules(maps, depth, gauss_degree)
    lines = _interface_rules(maps, hr)
    for b, lo, hi, line in zip(cut, hr.start[:-1], hr.start[1:], lines):
        weights = hr.weights[lo:hi]
        v_e = weights.sum() / 4.0
        if v_e < SLIVER_VOLUME_RATIO:
            rules[b] = _void_rule(line)
            continue
        rules[b] = CutQuadrature(
            points=hr.points[lo:hi],
            weights=weights,
            volume_ratio=float(min(v_e, 1.0)),
            classification="cut",
            interface=line,
        )
    return rules


def build_cut_quadrature(ls, box, depth=DEFAULT_DEPTH, gauss_degree=4):
    """Volume and interface rules of the element over `box`."""
    return build_cut_quadratures(ls, [box], depth, gauss_degree)[0]


def build_interface_quadrature(ls, box, depth=DEFAULT_DEPTH, gauss_degree=4):
    """Line rule on the interface inside the element over `box`."""
    return build_cut_quadrature(ls, box, depth, gauss_degree).interface
