"""Implicit geometry and cut-element quadrature.

A LevelSet classifies physical points: Phi > 0 physical, Phi < 0 void,
Phi = 0 interface. Cut elements are resolved by a quadtree over the
element's reference square; fully-physical leaves get tensor
Gauss-Legendre rules, cut leaves are triangulated against the linearly
interpolated interface (marching-squares cases with Newton roots on the
leaf edges). All emitted points/weights live in the parent element's
reference frame, so weights measure reference area (resp. arc length)
and the affine element Jacobian is applied at assembly time.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AmbiguousTopology, NonBracketing

DEFAULT_DEPTH = 3
SLIVER_VOLUME_RATIO = 1e-10

# interface chords inside a cut leaf are bisected against the true zero
# iso-line this many times (2^levels sub-chords per leaf)
_SEGMENT_REFINE_LEVELS = 3

_ROOT_MAXIT = 60


class LevelSet:
    """Signed-distance field wrapper; evaluator takes physical (x, y)."""

    def __init__(self, evaluator, description=""):
        self._evaluator = evaluator
        self.description = description

    def __call__(self, x, y):
        return self._evaluator(x, y)

    def gradient(self, x, y, h=1e-7):
        """Central-difference gradient, used only for interface normals."""
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
    )


def circle(cx, cy, r):
    """Circular void: physical outside the disk of radius r around (cx, cy)."""
    return LevelSet(
        lambda x, y: np.hypot(x - cx, y - cy) - r,
        description=f"circle({cx}, {cy}, {r})",
    )


def union_of_voids(level_sets):
    """Void wherever any member is void: pointwise minimum of Phi."""
    fns = list(level_sets)

    def evaluator(x, y):
        vals = fns[0](x, y)
        for ls in fns[1:]:
            vals = np.minimum(vals, ls(x, y))
        return vals

    return LevelSet(evaluator, description="union_of_voids")


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
    """Zero of Phi on segment [a, b]: safeguarded secant with bisection."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    fa = float(ls(a[0], a[1]))
    fb = float(ls(b[0], b[1]))
    if fa == 0.0:
        return a.copy()
    if fb == 0.0:
        return b.copy()
    if fa * fb > 0:
        raise NonBracketing(f"Phi has the same sign at both endpoints ({fa}, {fb})")
    seg_len = float(np.linalg.norm(b - a))
    ftol = 1e-12 * seg_len + 1e-15
    # parametrize by s in [0,1]
    lo, hi, flo, fhi = 0.0, 1.0, fa, fb
    s, fs = lo, flo
    s_prev, fs_prev = hi, fhi
    for _ in range(_ROOT_MAXIT):
        # secant proposal, bisection safeguard
        denom = fs - fs_prev
        if denom != 0.0:
            s_new = s - fs * (s - s_prev) / denom
        else:
            s_new = 0.5 * (lo + hi)
        if not (lo < s_new < hi):
            s_new = 0.5 * (lo + hi)
        pt = a + s_new * (b - a)
        f_new = float(ls(pt[0], pt[1]))
        if abs(f_new) <= ftol or hi - lo < 1e-16:
            return pt
        if flo * f_new < 0:
            hi, fhi = s_new, f_new
        else:
            lo, flo = s_new, f_new
        s_prev, fs_prev = s, fs
        s, fs = s_new, f_new
    return a + 0.5 * (lo + hi) * (b - a)


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
    W = np.outer(w, w)
    return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()


@lru_cache(maxsize=64)
def _gauss_triangle(degree):
    """Collapsed tensor rule on the unit triangle (0,0)-(1,0)-(0,1).

    Duffy map x=u, y=v(1-u) lifts a degree-d integrand to degree d+1 in u,
    hence n = (d+3)//2 + 1 points per direction keep the rule exact.
    Weights stay positive by construction.
    """
    n = (degree + 3) // 2 + 1
    x, w = _gauss_1d(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U, V = np.meshgrid(u, u)
    WU, WV = np.meshgrid(wu, wu)
    px = U.ravel()
    py = (V * (1.0 - U)).ravel()
    pw = (WU * WV * (1.0 - U)).ravel()
    return np.column_stack([px, py]), pw


def _map_triangle_rule(v0, v1, v2, degree):
    """Gauss rule on the triangle (v0, v1, v2); weights carry the signed area."""
    pts, wts = _gauss_triangle(degree)
    e1 = v1 - v0
    e2 = v2 - v0
    area2 = e1[0] * e2[1] - e1[1] * e2[0]
    mapped = v0 + pts[:, :1] * e1 + pts[:, 1:] * e2
    return mapped, wts * area2


class _CutTraversal:
    """Shared quadtree walk for volume rules and interface polylines."""

    def __init__(self, ls, box, depth, gauss_degree):
        self.ls = ls
        (self.x0, self.x1), (self.y0, self.y1) = box
        self.depth = depth
        self.gauss_degree = gauss_degree
        self.vol_points = []
        self.vol_weights = []
        self.segments = []  # (a, b) reference-coordinate pairs
        self.zero_tol = 1e-12 * ((self.x1 - self.x0) + (self.y1 - self.y0))

    # reference <-> physical maps of the parent element
    def to_phys(self, xi, eta):
        x = self.x0 + (xi + 1.0) * 0.5 * (self.x1 - self.x0)
        y = self.y0 + (eta + 1.0) * 0.5 * (self.y1 - self.y0)
        return x, y

    def to_ref(self, x, y):
        xi = 2.0 * (x - self.x0) / (self.x1 - self.x0) - 1.0
        eta = 2.0 * (y - self.y0) / (self.y1 - self.y0) - 1.0
        return xi, eta

    def phi_ref(self, xi, eta):
        x, y = self.to_phys(xi, eta)
        return self.ls(x, y)

    def run(self):
        self._visit(-1.0, 1.0, -1.0, 1.0, self.depth)

    def _leaf_samples(self, a, b, c, d):
        xs = np.array([a, 0.5 * (a + b), b])
        ys = np.array([c, 0.5 * (c + d), d])
        X, Y = np.meshgrid(xs, ys)
        return self.phi_ref(X, Y)

    def _visit(self, a, b, c, d, depth):
        vals = self._leaf_samples(a, b, c, d)
        if np.all(vals >= 0):
            self._emit_full(a, b, c, d)
            self._emit_zero_edges(a, b, c, d, vals)
            return
        if np.all(vals <= 0):
            return
        if depth > 0:
            mx, my = 0.5 * (a + b), 0.5 * (c + d)
            self._visit(a, mx, c, my, depth - 1)
            self._visit(mx, b, c, my, depth - 1)
            self._visit(a, mx, my, d, depth - 1)
            self._visit(mx, b, my, d, depth - 1)
            return
        self._emit_cut_leaf(a, b, c, d, vals)

    def _emit_full(self, a, b, c, d):
        pts, wts = _gauss_square(self.gauss_degree)
        sx, sy = 0.5 * (b - a), 0.5 * (d - c)
        mapped = np.column_stack(
            [a + (pts[:, 0] + 1.0) * sx, c + (pts[:, 1] + 1.0) * sy]
        )
        self.vol_points.append(mapped)
        self.vol_weights.append(wts * sx * sy)

    def _emit_zero_edges(self, a, b, c, d, vals):
        """Collect interface segments lying exactly on a full leaf's boundary.

        When the zero iso-line coincides with a leaf edge the neighboring
        leaf is classified void and never visited, so the segment would be
        lost. Emitted from the physical side only (probe just outside the
        edge must be void), which keeps each aligned segment unique.
        """
        tol = self.zero_tol
        if np.min(np.abs(vals)) > tol:
            return
        hx, hy = b - a, d - c
        edges = [
            (vals[0, :], (a, c), (b, c), (0.0, -hy)),
            (vals[2, :], (a, d), (b, d), (0.0, hy)),
            (vals[:, 0], (a, c), (a, d), (-hx, 0.0)),
            (vals[:, 2], (b, c), (b, d), (hx, 0.0)),
        ]
        for ev, p0, p1, out in edges:
            if np.max(np.abs(ev)) > tol:
                continue
            px = 0.5 * (p0[0] + p1[0]) + 1e-3 * out[0]
            py = 0.5 * (p0[1] + p1[1]) + 1e-3 * out[1]
            if float(self.phi_ref(px, py)) < 0.0:
                self.segments.append((np.array(p0), np.array(p1)))

    def _refine_segment(self, ra, rb):
        """True-interface midpoint between two chord endpoints.

        Searches for a root of Phi along the chord normal through the chord
        midpoint; falls back to the chord midpoint when the interface is
        locally straight (or no bracket exists within half a chord length).
        The extra vertex upgrades the linear interface model to a quadratic
        one, which is what makes curved-void volumes converge fast in depth.
        """
        mid = 0.5 * (ra + rb)
        d = rb - ra
        length = float(np.hypot(d[0], d[1]))
        if length < 1e-14:
            return mid
        f0 = float(self.phi_ref(mid[0], mid[1]))
        if abs(f0) <= self.zero_tol:
            return mid
        normal = np.array([-d[1], d[0]]) / length
        half = 0.5 * length
        for t in (half, -half):
            probe = mid + t * normal
            fp = float(self.phi_ref(probe[0], probe[1]))
            if f0 * fp <= 0.0:
                pa = np.array(self.to_phys(mid[0], mid[1]))
                pb = np.array(self.to_phys(probe[0], probe[1]))
                root = find_interface_root(self.ls, pa, pb)
                return np.array(self.to_ref(root[0], root[1]))
        return mid

    def _interface_path(self, ra, rb, levels):
        """Vertices from ra to rb tracking the interface, endpoints included."""
        if levels == 0:
            return [ra, rb]
        m = self._refine_segment(ra, rb)
        left = self._interface_path(ra, m, levels - 1)
        right = self._interface_path(m, rb, levels - 1)
        return left[:-1] + right

    def _record_segment(self, ra, rb):
        """Record the refined chord; returns its interior vertices in order."""
        path = self._interface_path(ra, rb, _SEGMENT_REFINE_LEVELS)
        for p, q in zip(path[:-1], path[1:]):
            self.segments.append((p, q))
        return path[1:-1]

    def _edge_root(self, va, vb, fa, fb):
        if fa == 0.0:
            return va
        if fb == 0.0:
            return vb
        pa = np.array(self.to_phys(*va))
        pb = np.array(self.to_phys(*vb))
        root = find_interface_root(self.ls, pa, pb)
        return np.array(self.to_ref(root[0], root[1]))

    def _emit_cut_leaf(self, a, b, c, d, samples):
        corners = [
            np.array([a, c]),
            np.array([b, c]),
            np.array([b, d]),
            np.array([a, d]),
        ]
        fvals = [samples[0, 0], samples[0, 2], samples[2, 2], samples[2, 0]]
        edge_mids = [samples[0, 1], samples[1, 2], samples[2, 1], samples[1, 0]]
        inside = [f >= 0 for f in fvals]

        # an edge crossed twice cannot be represented by one linear segment
        for k in range(4):
            fa, fb, fm = fvals[k], fvals[(k + 1) % 4], edge_mids[k]
            if fa != 0 and fb != 0 and np.sign(fa) == np.sign(fb) != np.sign(fm) and fm != 0:
                raise AmbiguousTopology(
                    "interface crosses a leaf edge twice at maximum quadtree depth"
                )

        n_in = sum(inside)
        if n_in == 0:
            return
        if n_in == 2 and inside[0] == inside[2]:
            self._emit_diagonal_leaf(corners, fvals, inside)
            return

        poly = []
        root_pos = []
        for k in range(4):
            if inside[k]:
                poly.append(corners[k])
            if inside[k] != inside[(k + 1) % 4]:
                r = self._edge_root(
                    corners[k], corners[(k + 1) % 4], fvals[k], fvals[(k + 1) % 4]
                )
                root_pos.append(len(poly))
                poly.append(r)
        if len(root_pos) == 2:
            i, j = root_pos
            if self._boundary_chord_handled(a, b, c, d, poly[i], poly[j]):
                pass
            elif j == i + 1:
                poly[j:j] = self._record_segment(poly[i], poly[j])
            elif i == 0 and j == len(poly) - 1:
                # chord wraps from the last polygon vertex back to the first
                poly.extend(self._record_segment(poly[j], poly[i]))
            else:  # pragma: no cover - walk order makes roots adjacent
                self.segments.append((poly[i], poly[j]))
        self._emit_polygon(poly)

    def _boundary_chord_handled(self, a, b, c, d, p, q):
        """Deduplicate interface chords that lie on a leaf boundary edge.

        When rounding jitter puts the iso-line a few ulps off a leaf edge,
        the physical-side neighbor recovers the segment as a zero edge while
        this leaf finds the same chord through root finding; emitting both
        would double the interface. Ownership follows the zero-edge rule:
        the segment belongs to the leaf whose far side is void. Returns True
        when the chord lies on a boundary edge (recorded here or left to the
        neighbor), False for ordinary interior chords.
        """
        hx, hy = b - a, d - c
        tol = 1e-9 * (hx + hy)
        edges = [
            (abs(p[0] - a) <= tol and abs(q[0] - a) <= tol, (-hx, 0.0)),
            (abs(p[0] - b) <= tol and abs(q[0] - b) <= tol, (hx, 0.0)),
            (abs(p[1] - c) <= tol and abs(q[1] - c) <= tol, (0.0, -hy)),
            (abs(p[1] - d) <= tol and abs(q[1] - d) <= tol, (0.0, hy)),
        ]
        for on_edge, out in edges:
            if not on_edge:
                continue
            mx = 0.5 * (p[0] + q[0]) + 1e-3 * out[0]
            my = 0.5 * (p[1] + q[1]) + 1e-3 * out[1]
            if float(self.phi_ref(mx, my)) < 0.0:
                self.segments.append((p, q))
            return True
        return False

    def _emit_diagonal_leaf(self, corners, fvals, inside):
        ins = 0 if inside[0] else 1  # index of first inside corner
        r = [
            self._edge_root(corners[k], corners[(k + 1) % 4], fvals[k], fvals[(k + 1) % 4])
            for k in range(4)
        ]
        center = np.array(
            [0.5 * (corners[0][0] + corners[2][0]), 0.5 * (corners[0][1] + corners[2][1])]
        )
        f_center = float(self.phi_ref(center[0], center[1]))
        if f_center >= 0:
            # connected band through the center
            if ins == 0:
                m01 = self._record_segment(r[0], r[1])
                m23 = self._record_segment(r[2], r[3])
                poly = [corners[0], r[0], *m01, r[1], corners[2], r[2], *m23, r[3]]
            else:
                m12 = self._record_segment(r[1], r[2])
                m30 = self._record_segment(r[3], r[0])
                poly = [r[0], corners[1], r[1], *m12, r[2], corners[3], r[3], *m30]
            self._emit_polygon(poly)
        else:
            # two disjoint corner triangles
            if ins == 0:
                m03 = self._record_segment(r[0], r[3])
                m12 = self._record_segment(r[1], r[2])
                self._emit_polygon([corners[0], r[0], *m03, r[3]])
                self._emit_polygon([r[1], corners[2], r[2], *m12])
            else:
                m01 = self._record_segment(r[0], r[1])
                m23 = self._record_segment(r[2], r[3])
                self._emit_polygon([r[0], corners[1], r[1], *m01])
                self._emit_polygon([r[2], corners[3], r[3], *m23])

    def _emit_polygon(self, vertices):
        """Fan-triangulate a CCW polygon into positive-weight Gauss rules.

        The fan apex is the vertex centroid when the polygon is star-shaped
        from it; otherwise each vertex is tried (a polygon with a single
        reflex vertex, as produced by the curved-midpoint refinement, is
        star-shaped from that vertex).
        """
        verts = [np.asarray(v, dtype=float) for v in vertices]
        if len(verts) < 3:
            return
        n = len(verts)
        apexes = [np.mean(verts, axis=0)] + verts
        for apex in apexes:
            fan = []
            valid = True
            for k in range(n):
                v1, v2 = verts[k], verts[(k + 1) % n]
                e1 = v1 - apex
                e2 = v2 - apex
                area2 = e1[0] * e2[1] - e1[1] * e2[0]
                if area2 < -1e-14:
                    valid = False
                    break
                if area2 > 0.0:
                    fan.append((v1, v2))
            if not valid:
                continue
            for v1, v2 in fan:
                pts, wts = _map_triangle_rule(apex, v1, v2, self.gauss_degree)
                keep = wts > 0
                self.vol_points.append(pts[keep])
                self.vol_weights.append(wts[keep])
            return
        raise AmbiguousTopology("non-star-shaped cut polygon at leaf")


def build_cut_quadrature(ls, box, depth=DEFAULT_DEPTH, gauss_degree=4):
    """Volume rule for the physical portion of the element over `box`."""
    classification = classify_element(ls, box, sample_depth=max(2, min(depth, 5)))
    if classification == "void":
        return CutQuadrature(
            points=np.empty((0, 2)),
            weights=np.empty(0),
            volume_ratio=0.0,
            classification="void",
        )
    if classification == "full":
        pts, wts = _gauss_square(gauss_degree)
        return CutQuadrature(
            points=pts.copy(), weights=wts.copy(), volume_ratio=1.0, classification="full"
        )
    trav = _CutTraversal(ls, box, depth, gauss_degree)
    trav.run()
    if not trav.vol_points:
        return CutQuadrature(
            points=np.empty((0, 2)),
            weights=np.empty(0),
            volume_ratio=0.0,
            classification="void",
        )
    points = np.vstack(trav.vol_points)
    weights = np.concatenate(trav.vol_weights)
    v_e = weights.sum() / 4.0
    if v_e < SLIVER_VOLUME_RATIO:
        return CutQuadrature(
            points=np.empty((0, 2)),
            weights=np.empty(0),
            volume_ratio=0.0,
            classification="void",
        )
    if v_e > 1.0 - 1e-12:
        classification = "full"
        v_e = min(v_e, 1.0)
    return CutQuadrature(
        points=points, weights=weights, volume_ratio=float(v_e), classification="cut"
    )


def build_interface_quadrature(ls, box, depth=DEFAULT_DEPTH, gauss_degree=4):
    """Line rule on the interface polyline inside a cut element."""
    trav = _CutTraversal(ls, box, depth, gauss_degree)
    trav.run()
    pts_out, wts_out, nrm_out, tan_out = [], [], [], []
    gx, gw = _gauss_1d(max(1, gauss_degree // 2 + 1))
    (x0, x1), (y0, y1) = box
    grad_h = 1e-7 * max(x1 - x0, y1 - y0)
    for a, b in trav.segments:
        d = b - a
        ref_len = float(np.hypot(d[0], d[1]))
        if ref_len < 1e-14:
            continue
        s = 0.5 * (gx + 1.0)
        seg_pts = a + np.outer(s, d)
        seg_wts = 0.5 * gw * ref_len
        tang = d / ref_len
        for (xi, eta), w in zip(seg_pts, seg_wts):
            px, py = trav.to_phys(xi, eta)
            ggx, ggy = ls.gradient(px, py, h=grad_h)
            norm = np.hypot(ggx, ggy)
            if norm < 1e-14:
                # degenerate gradient: fall back to the segment normal
                nx, ny = tang[1], -tang[0]
                mid_off = 1e-6
                if ls(px + nx * mid_off, py + ny * mid_off) > 0:
                    nx, ny = -nx, -ny
            else:
                nx, ny = -ggx / norm, -ggy / norm
            pts_out.append([xi, eta])
            wts_out.append(w)
            nrm_out.append([nx, ny])
            tan_out.append(tang)
    if not pts_out:
        return InterfaceQuadrature(
            points=np.empty((0, 2)),
            weights=np.empty(0),
            normals=np.empty((0, 2)),
            tangents=np.empty((0, 2)),
        )
    return InterfaceQuadrature(
        points=np.array(pts_out),
        weights=np.array(wts_out),
        normals=np.array(nrm_out),
        tangents=np.array(tan_out),
    )
