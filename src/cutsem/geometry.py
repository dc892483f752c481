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
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonBracketing

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

    The built-in level sets also know their exact gradient; any other
    evaluator gets central differences.
    """

    def __init__(self, evaluator, description="", gradient=None):
        self._evaluator = evaluator
        self._gradient = gradient
        self.description = description

    def __call__(self, x, y):
        return self._evaluator(x, y)

    def gradient(self, x, y, h=1e-7):
        """(d_x Phi, d_y Phi): exact if known, else central differences of step h."""
        if self._gradient is not None:
            return self._gradient(*np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float)))
        gx = (self(x + h, y) - self(x - h, y)) / (2 * h)
        gy = (self(x, y + h) - self(x, y - h)) / (2 * h)
        return gx, gy


def half_plane(nx, ny, offset):
    """Physical where nx*x + ny*y <= offset; (nx, ny) points toward the void."""
    norm = float(np.hypot(nx, ny))
    nx, ny, offset = nx / norm, ny / norm, offset / norm
    return LevelSet(
        lambda x, y: offset - (nx * x + ny * y),
        description=f"half_plane({nx}, {ny}, {offset})",
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
        description=f"circle({cx}, {cy}, {r})",
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

    return LevelSet(evaluator, description="union_of_voids", gradient=gradient)


@dataclass(frozen=True)
class CutQuadrature:
    """Volume rule for the physical part of one element, reference frame."""

    points: np.ndarray  # (nq, 2) in [-1,1]^2
    weights: np.ndarray  # (nq,) reference-area measures, all > 0
    volume_ratio: float
    classification: str  # full | cut | void

    @property
    def is_void(self):
        return self.classification == "void"


@dataclass(frozen=True)
class InterfaceQuadrature:
    """Line rule on the zero iso-line inside one element."""

    points: np.ndarray  # (nq, 2) reference coords
    weights: np.ndarray  # (nq,) reference arc-length measures
    normals: np.ndarray  # (nq, 2) physical unit vectors, toward the void
    tangents: np.ndarray  # (nq, 2) reference unit tangents (for arc mapping)


def classify_element(ls, box, sample_depth=3):
    """full / cut / void from a (2^d + 1)^2 corner-inclusive sample grid."""
    (x0, x1), (y0, y1) = box
    n = 2**sample_depth + 1
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    X, Y = np.meshgrid(xs, ys)
    vals = ls(X, Y)
    if np.all(vals > 0):
        return "full"
    if np.all(vals < 0):
        return "void"
    return "cut"


def find_interface_root(ls, a, b):
    """Zeros of Phi on the segments [a, b]: Illinois regula falsi, vectorised.

    a and b are points of shape (2,) or stacks of shape (m, 2), and Phi must
    vanish or change sign on every segment. Returns roots shaped like a.
    """
    a = np.asarray(a, dtype=float)
    pa, pb = np.atleast_2d(a), np.atleast_2d(np.asarray(b, dtype=float))
    d = pb - pa
    flo = np.asarray(ls(pa[:, 0], pa[:, 1]), dtype=float)
    fhi = np.asarray(ls(pb[:, 0], pb[:, 1]), dtype=float)
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
        p = pa[todo] + t[:, None] * d[todo]
        f = np.asarray(ls(p[:, 0], p[:, 1]), dtype=float)
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
    roots = pa + s[:, None] * d
    return roots if a.ndim > 1 else roots[0]


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


def _height_direction(grad):
    """Axis k with a one-signed d_k Phi >= |grad Phi| / 2 at every sample, or None."""
    ratios = [
        np.min(np.abs(g) / np.hypot(grad[0], grad[1])) if np.all(g > 0) or np.all(g < 0) else 0.0
        for g in grad
    ]
    k = int(np.argmax(ratios))
    return k if ratios[k] >= _MIN_SLOPE else None


def _split_points(phi, lines):
    """Roots of phi between the samples of sampled lines where its sign changes.

    lines is (..., s, 2), s samples per line. Returns the roots in sample
    order, the (..., s - 1) mask of the sample intervals that hold them, and
    the (..., s) mask of the samples with phi >= 0.
    """
    inside = phi(lines[..., 0], lines[..., 1]) >= 0.0
    flips = inside[..., 1:] != inside[..., :-1]
    roots = find_interface_root(phi, lines[..., :-1, :][flips], lines[..., 1:, :][flips])
    return roots.reshape(-1, 2), flips, inside


class _HeightRule:
    """Volume and interface points of one element's physical part, reference frame."""

    def __init__(self, ls, box, depth, gauss_degree):
        (x0, x1), (y0, y1) = box
        self.ls = ls
        self.origin = np.array([x0, y0])
        self.half = np.array([0.5 * (x1 - x0), 0.5 * (y1 - y0)])
        self.grad_h = 1e-7 * max(x1 - x0, y1 - y0)
        self.degree = gauss_degree
        # exact for straight cuts: the outer integrand has degree gauss_degree + 1
        self.n = (gauss_degree + 3) // 2
        self.vol_points, self.vol_weights = [np.empty((0, 2))], [np.empty(0)]
        self.roots, self.root_weights = [np.empty((0, 2))], [np.empty(0)]
        self.root_axes = [np.empty(0, dtype=int)]
        self._visit(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), depth)

    def to_phys(self, xi, eta):
        return (
            self.origin[0] + (xi + 1.0) * self.half[0],
            self.origin[1] + (eta + 1.0) * self.half[1],
        )

    def phi(self, xi, eta):
        return self.ls(*self.to_phys(xi, eta))

    def ref_gradient(self, xi, eta):
        gx, gy = self.ls.gradient(*self.to_phys(xi, eta), h=self.grad_h)
        return np.array([gx * self.half[0], gy * self.half[1]])

    def _visit(self, lo, hi, depth):
        t = np.linspace(0.0, 1.0, _SAMPLES)
        xi, eta = np.meshgrid(lo[0] + t * (hi[0] - lo[0]), lo[1] + t * (hi[1] - lo[1]))
        vals = self.phi(xi, eta)
        if np.all(vals >= 0):
            pts, wts = _gauss_square(self.degree)
            self.vol_points.append(lo + (pts + 1.0) * (0.5 * (hi - lo)))
            self.vol_weights.append(wts * np.prod(0.5 * (hi - lo)))
            # a face where Phi vanishes is interface that no other leaf emits
            # (the leaf across it is void)
            for k, at, face in (
                (0, lo, vals[:, 0]),
                (0, hi, vals[:, -1]),
                (1, lo, vals[0]),
                (1, hi, vals[-1]),
            ):
                if np.all(face == 0.0):
                    o = 1 - k
                    u, wu = _gauss_on(lo[o:o + 1], hi[o:o + 1], self.n)
                    on_face = np.empty((self.n, 2))
                    on_face[:, k], on_face[:, o] = at[k], u[0]
                    self.roots.append(on_face)
                    self.root_weights.append(wu[0])
                    self.root_axes.append(np.full(self.n, k))
            return
        if np.all(vals <= 0):
            return
        grad = self.ref_gradient(xi, eta)
        k = _height_direction(grad)
        if k is None and depth > 0:
            mid = 0.5 * (lo + hi)
            for qlo, qhi in (
                (lo, mid),
                ((mid[0], lo[1]), (hi[0], mid[1])),
                ((lo[0], mid[1]), (mid[0], hi[1])),
                (mid, hi),
            ):
                self._visit(np.array(qlo), np.array(qhi), depth - 1)
            return
        if k is None:
            # at the cap: the steepest axis at the centre, and every sampled
            # sign change along each line becomes a segment end
            c = _SAMPLES // 2
            k = int(np.argmax(np.abs(grad[:, c, c])))
        self._emit_height(lo, hi, k)

    def _emit_height(self, lo, hi, k):
        o = 1 - k
        t = np.linspace(0.0, 1.0, _SAMPLES)
        us = lo[o] + t * (hi[o] - lo[o])
        ts = lo[k] + t * (hi[k] - lo[k])

        # outer breakpoints: the roots of Phi on the two faces normal to k
        faces = np.empty((2, _SAMPLES, 2))
        faces[..., o] = us
        faces[0, :, k], faces[1, :, k] = lo[k], hi[k]
        face_roots, _, _ = _split_points(self.phi, faces)
        cuts = np.unique(np.concatenate([[lo[o], hi[o]], face_roots[:, o]]))
        u, wu = _gauss_on(cuts[:-1], cuts[1:], self.n)
        u, wu = u.ravel(), wu.ravel()

        # each line along k: the segment ends are its ends and its roots
        lines = np.empty((len(u), _SAMPLES, 2))
        lines[..., o] = u[:, None]
        lines[..., k] = ts
        roots, flips, inside = _split_points(self.phi, lines)
        ends = np.empty((len(u), _SAMPLES + 1))
        ends[:, 0], ends[:, -1] = ts[0], ts[-1]
        ends[:, 1:-1][flips] = roots[:, k]
        marks = np.column_stack([inside[:, 0], flips, inside[:, -1]])
        # in each line the marked ends alternate: start of a physical segment, end
        line, col = np.nonzero(marks)
        start, stop = ends[line[0::2], col[0::2]], ends[line[1::2], col[1::2]]
        line = line[0::2]
        tk, wk = _gauss_on(start, stop, self.n)
        pts = np.empty(tk.shape + (2,))
        pts[..., k] = tk
        pts[..., o] = u[line, None]
        wts = wu[line, None] * wk
        keep = wts > 0
        self.vol_points.append(pts[keep])
        self.vol_weights.append(wts[keep])

        self.roots.append(roots)
        self.root_weights.append(wu[np.nonzero(flips)[0]])
        self.root_axes.append(np.full(len(roots), k))


def _void_rule():
    return CutQuadrature(
        points=np.empty((0, 2)), weights=np.empty(0), volume_ratio=0.0, classification="void"
    )


def build_cut_quadrature(ls, box, depth=DEFAULT_DEPTH, gauss_degree=4):
    """Volume rule for the physical portion of the element over `box`."""
    classification = classify_element(ls, box, sample_depth=max(2, min(depth, 5)))
    if classification == "void":
        return _void_rule()
    if classification == "full":
        pts, wts = _gauss_square(gauss_degree)
        return CutQuadrature(points=pts, weights=wts, volume_ratio=1.0, classification="full")
    rule = _HeightRule(ls, box, depth, gauss_degree)
    points = np.concatenate(rule.vol_points)
    weights = np.concatenate(rule.vol_weights)
    v_e = weights.sum() / 4.0
    if v_e < SLIVER_VOLUME_RATIO:
        return _void_rule()
    return CutQuadrature(
        points=points, weights=weights, volume_ratio=float(min(v_e, 1.0)), classification="cut"
    )


def build_interface_quadrature(ls, box, depth=DEFAULT_DEPTH, gauss_degree=4):
    """Line rule on the interface inside a cut element.

    A root on a line along k with outer weight w_u has arc-length weight
    w_u |grad Phi| / |d_k Phi|; normals and tangents come from the same
    gradient, taken in one call.
    """
    rule = _HeightRule(ls, box, depth, gauss_degree)
    points = np.concatenate(rule.roots)
    grad = rule.ref_gradient(points[:, 0], points[:, 1]).T
    slope = np.abs(grad[np.arange(len(points)), np.concatenate(rule.root_axes)])
    keep = slope > 0
    points, grad, slope = points[keep], grad[keep], slope[keep]
    norm = np.hypot(grad[:, 0], grad[:, 1])
    phys = grad / rule.half
    return InterfaceQuadrature(
        points=points,
        weights=np.concatenate(rule.root_weights)[keep] * norm / slope,
        normals=-phys / np.hypot(phys[:, 0], phys[:, 1])[:, None],
        tangents=np.column_stack([-grad[:, 1], grad[:, 0]]) / norm[:, None],
    )
