"""Level sets, cut-element classification, and cut/interface quadratures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutsem import geometry
from cutsem.assembly import CartesianMesh
from cutsem.errors import NonBracketing
from cutsem.geometry import (
    build_cut_quadrature,
    build_interface_quadrature,
    circle,
    classify_element,
    find_interface_root,
    half_plane,
    union_of_voids,
)

UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))


def straight_cut_exact(frac, a, b):
    """Integral of xi^a eta^b over [-1, 2*frac-1] x [-1, 1]."""
    xc = 2.0 * frac - 1.0
    ix = (xc ** (a + 1) - (-1.0) ** (a + 1)) / (a + 1)
    iy = (1.0 - (-1.0) ** (b + 1)) / (b + 1)
    return ix * iy


def test_classify_element_half_plane():
    ls = half_plane(1.0, 0.0, 1.0)  # physical where x <= 1
    assert classify_element(ls, ((2.0, 3.0), (0.0, 1.0))) == "void"
    assert classify_element(ls, ((0.0, 0.5), (0.0, 1.0))) == "full"
    assert classify_element(ls, ((0.5, 1.5), (0.0, 1.0))) == "cut"


def test_find_interface_root_linear_and_circle():
    ls = half_plane(1.0, 0.0, 1.0)
    root = find_interface_root(ls, (0.0, 0.0), (2.0, 0.0))
    np.testing.assert_allclose(root, [1.0, 0.0], atol=1e-12)
    root = find_interface_root(ls, (0.3, 0.2), (1.1, 0.2))
    np.testing.assert_allclose(root, [1.0, 0.2], atol=1e-12)
    disk = circle(0.0, 0.0, 1.0)
    root = find_interface_root(disk, (0.0, 0.0), (2.0, 0.0))
    np.testing.assert_allclose(root, [1.0, 0.0], atol=1e-12)


def test_find_interface_root_requires_bracket():
    ls = half_plane(1.0, 0.0, 1.0)
    with pytest.raises(NonBracketing):
        find_interface_root(ls, (0.0, 0.0), (0.5, 0.0))


def test_full_element_quadrature():
    ls = geometry.LevelSet(lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
    cutq = build_cut_quadrature(ls, UNIT_BOX, depth=2, gauss_degree=4)
    assert cutq.classification == "full"
    assert abs(cutq.weights.sum() - 4.0) < 1e-10
    assert abs(cutq.volume_ratio - 1.0) < 1e-10


def test_void_element_quadrature():
    ls = half_plane(1.0, 0.0, -1.0)  # physical only for x <= -1
    cutq = build_cut_quadrature(ls, UNIT_BOX, depth=2, gauss_degree=4)
    assert cutq.classification == "void"
    assert cutq.is_void
    assert len(cutq.points) == 0
    assert cutq.volume_ratio == 0.0


def test_half_cut_first_moment():
    cutq = build_cut_quadrature(half_plane(1.0, 0.0, 0.5), UNIT_BOX, depth=3, gauss_degree=4)
    assert cutq.classification == "cut"
    assert abs(cutq.weights.sum() - 2.0) < 1e-10
    got = float(np.dot(cutq.weights, cutq.points[:, 0]))
    assert abs(got - (-1.0)) < 1e-10
    assert abs(cutq.volume_ratio - 0.5) < 1e-10


@pytest.mark.parametrize("frac", [0.25, 0.5, 0.76])
def test_straight_cut_monomial_exactness(frac):
    degree = 8
    cutq = build_cut_quadrature(half_plane(1.0, 0.0, frac), UNIT_BOX, depth=4, gauss_degree=degree)
    assert np.all(cutq.weights > 0)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float(np.dot(cutq.weights, cutq.points[:, 0] ** a * cutq.points[:, 1] ** b))
            assert abs(got - straight_cut_exact(frac, a, b)) <= 1e-10, (a, b)


def test_oblique_cut_volume():
    # physical below the diagonal x + y <= 1: half the unit element
    cutq = build_cut_quadrature(half_plane(1.0, 1.0, 1.0), UNIT_BOX, depth=4, gauss_degree=6)
    assert abs(cutq.volume_ratio - 0.5) < 1e-10
    assert np.all(cutq.weights > 0)


def test_quarter_circle_void_volume_ratio():
    ls = circle(0.0, 0.0, 0.5)
    exact = 1.0 - math.pi * 0.25 / 4.0
    cutq = build_cut_quadrature(ls, UNIT_BOX, depth=4, gauss_degree=6)
    assert abs(cutq.volume_ratio - exact) < 1e-4


def test_circle_refinement_convergence():
    # the height-function rule converges spectrally: never worse with depth,
    # never worse than the chord rule it replaced, and at round-off level
    # once every leaf has a height direction
    ls = circle(0.0, 0.0, 0.5)
    exact = 1.0 - math.pi * 0.25 / 4.0
    chord_rule_errs = [1.26e-3, 1.40e-4, 2.92e-5, 8.25e-6, 1.71e-6]
    errs = []
    for depth in range(1, 6):
        cutq = build_cut_quadrature(ls, UNIT_BOX, depth=depth, gauss_degree=6)
        assert np.all(cutq.weights > 0)
        errs.append(abs(cutq.volume_ratio - exact))
    assert all(e1 <= e0 for e0, e1 in zip(errs, errs[1:])), errs
    assert all(e <= bound for e, bound in zip(errs, chord_rule_errs)), errs
    assert max(errs[2:]) <= 1e-8, errs


def test_union_of_voids():
    ls = union_of_voids([circle(0.0, 0.0, 0.3), circle(1.0, 1.0, 0.3)])
    exact = 1.0 - 2.0 * math.pi * 0.09 / 4.0
    cutq = build_cut_quadrature(ls, UNIT_BOX, depth=4, gauss_degree=6)
    assert abs(cutq.volume_ratio - exact) < 1e-4


def test_sliver_reclassified_void():
    # the physical sliver is far below the volume-ratio floor
    ls = half_plane(-1.0, 0.0, -(1.0 - 1e-12))
    cutq = build_cut_quadrature(ls, UNIT_BOX, depth=3, gauss_degree=4)
    assert cutq.is_void


def test_vertical_interface_quadrature():
    iq = build_interface_quadrature(half_plane(1.0, 0.0, 0.5), UNIT_BOX, depth=3, gauss_degree=4)
    assert abs(iq.weights.sum() - 2.0) < 1e-9  # reference height of the cut line
    assert np.all(iq.weights > 0)
    np.testing.assert_allclose(iq.normals, np.broadcast_to([1.0, 0.0], iq.normals.shape), atol=1e-9)
    np.testing.assert_allclose(iq.points[:, 0], 0.0, atol=1e-10)


def test_interface_points_approach_zero_isoline():
    # interface points are roots of Phi, not points on chords
    ls = circle(0.0, 0.0, 0.5)
    for depth in (2, 3, 4):
        iq = build_interface_quadrature(ls, UNIT_BOX, depth=depth, gauss_degree=4)
        px = (iq.points[:, 0] + 1.0) / 2.0
        py = (iq.points[:, 1] + 1.0) / 2.0
        assert len(iq.points)
        assert float(np.max(np.abs(ls(px, py)))) <= 1e-12, depth


def test_circle_arc_length():
    iq = build_interface_quadrature(circle(0.0, 0.0, 0.5), UNIT_BOX, depth=4, gauss_degree=4)
    physical = 0.5 * iq.weights.sum()  # uniform reference-to-physical scaling
    assert abs(physical - math.pi * 0.5 / 2.0) < 1e-3
    # normals point toward the void (the disk center)
    px = (iq.points[:, 0] + 1.0) / 2.0
    py = (iq.points[:, 1] + 1.0) / 2.0
    inward = -np.column_stack([px, py])
    inward /= np.linalg.norm(inward, axis=1, keepdims=True)
    dots = np.sum(iq.normals * inward, axis=1)
    assert np.all(dots > 0.99)


def test_leaf_aligned_cut_keeps_interface():
    # a cut lying exactly on quadtree leaf boundaries must still emit the line rule
    for depth in (1, 2, 3):
        iq = build_interface_quadrature(half_plane(1.0, 0.0, 0.5), UNIT_BOX, depth=depth, gauss_degree=4)
        assert abs(iq.weights.sum() - 2.0) < 1e-9, depth


def test_rectangular_box_scaling():
    # non-square element: weights stay in the reference frame
    box = ((0.0, 2.0), (0.0, 0.5))
    cutq = build_cut_quadrature(half_plane(1.0, 0.0, 1.0), box, depth=3, gauss_degree=4)
    assert abs(cutq.volume_ratio - 0.5) < 1e-10
    assert abs(cutq.weights.sum() - 2.0) < 1e-10


def test_found_circle_builds_at_every_depth():
    # r = 3.1 h around offset (0.15, 0.72) h on a 24 x 24 unit mesh, seen
    # from the element three to its right: the chord rule raised here
    h = 1.0 / 24.0
    i0, j0 = 10, 10
    ls = circle((i0 + 0.15) * h, (j0 + 0.72) * h, 3.1 * h)
    box = (((i0 + 3) * h, (i0 + 4) * h), (j0 * h, (j0 + 1) * h))
    for depth in (2, 3, 4):
        cutq = build_cut_quadrature(ls, box, depth=depth, gauss_degree=8)
        assert cutq.classification == "cut"
        assert np.all(cutq.weights > 0)
        iq = build_interface_quadrature(ls, box, depth=depth, gauss_degree=8)
        assert np.all(iq.weights > 0)


def test_four_void_plate_builds_with_exact_area():
    centres = [
        (0.331949251193648, 0.3465570952075306),
        (0.8120434471993179, 0.3304331900879165),
        (0.2120295138638665, 0.7959663496520257),
        (0.8297676575935986, 0.7867967863830883),
    ]
    ls = union_of_voids([circle(x, y, 0.12) for x, y in centres])
    mesh = CartesianMesh(1.0, 1.0, 16, 16, 4, level_set=ls, depth=3)
    rules = [q for q in mesh.cut_quadratures.values() if not q.is_void]
    assert all(np.all(q.weights > 0) for q in rules)
    area = sum(q.weights.sum() for q in rules) * mesh.hx * mesh.hy / 4.0
    assert abs(area - (1.0 - 4.0 * math.pi * 0.12**2)) <= 1e-7


def _clipped_square(nx, ny, offset):
    """Vertices of {nx xi + ny eta <= offset} inside [-1, 1]^2, in order."""
    square = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    out = []
    for p, q in zip(square, square[1:] + square[:1]):
        fp, fq = offset - nx * p[0] - ny * p[1], offset - nx * q[0] - ny * q[1]
        if fp >= 0:
            out.append(p)
        if fp * fq < 0:
            s = fp / (fp - fq)
            out.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
    return out


def _polygon_monomial(vertices, a, b):
    """Integral of xi^a eta^b over a polygon: Green's theorem, exact Gauss per edge."""
    x, w = np.polynomial.legendre.leggauss((a + b) // 2 + 2)
    s = 0.5 * (x + 1.0)
    total = 0.0
    for p, q in zip(vertices, vertices[1:] + vertices[:1]):
        xi = p[0] + s * (q[0] - p[0])
        eta = p[1] + s * (q[1] - p[1])
        total += 0.5 * float(w @ (xi ** (a + 1) * eta**b)) * (q[1] - p[1]) / (a + 1)
    return total


_unit_point = st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
_angle = st.floats(0.0, 2.0 * math.pi)
_circles = st.builds(
    circle, st.floats(-0.5, 1.5), st.floats(-0.5, 1.5), st.floats(0.05, 1.0)
)
_half_planes = st.builds(
    lambda p, t: half_plane(math.cos(t), math.sin(t), math.cos(t) * p[0] + math.sin(t) * p[1]),
    _unit_point,
    _angle,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ls=st.one_of(
        _half_planes,
        _circles,
        st.lists(st.one_of(_half_planes, _circles), min_size=2, max_size=3).map(union_of_voids),
    ),
    depth=st.integers(0, 4),
    degree=st.integers(2, 10),
)
def test_fuzzed_cut_rules_are_positive_and_bounded(ls, depth, degree):
    cutq = build_cut_quadrature(ls, UNIT_BOX, depth=depth, gauss_degree=degree)
    assert np.all(cutq.weights > 0)
    assert 0.0 <= cutq.volume_ratio <= 1.0
    iq = build_interface_quadrature(ls, UNIT_BOX, depth=depth, gauss_degree=degree)
    assert np.all(iq.weights > 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point=_unit_point, angle=_angle, depth=st.integers(0, 4), degree=st.integers(2, 10))
def test_fuzzed_straight_cuts_integrate_monomials_exactly(point, angle, depth, degree):
    nx, ny = math.cos(angle), math.sin(angle)
    offset = nx * point[0] + ny * point[1]
    cutq = build_cut_quadrature(half_plane(nx, ny, offset), UNIT_BOX, depth=depth, gauss_degree=degree)
    # on the unit box x = (xi + 1) / 2, so the cut in reference coordinates
    # is nx xi + ny eta <= 2 offset - nx - ny
    polygon = _clipped_square(nx, ny, 2.0 * offset - nx - ny)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float(cutq.weights @ (cutq.points[:, 0] ** a * cutq.points[:, 1] ** b))
            assert abs(got - _polygon_monomial(polygon, a, b)) <= 1e-10, (a, b)


def test_builtin_gradients_are_exact():
    xs, ys = np.meshgrid(np.linspace(0.05, 0.95, 7), np.linspace(0.05, 0.95, 7))
    for ls in (
        half_plane(0.6, -0.8, 0.1),
        circle(0.3, 0.4, 0.2),
        union_of_voids([circle(0.3, 0.4, 0.2), half_plane(1.0, 1.0, 1.5)]),
    ):
        gx, gy = ls.gradient(xs, ys)
        fx, fy = geometry.LevelSet(ls).gradient(xs, ys)  # central differences
        np.testing.assert_allclose(gx, fx, atol=1e-7)
        np.testing.assert_allclose(gy, fy, atol=1e-7)


def test_oblique_interface_rule_is_exact_on_a_small_element():
    # reference arc length and normals exact to round-off, as chord lengths were
    box = ((0.99, 1.0), (0.05, 0.06))
    nx, ny = math.cos(0.7), math.sin(0.7)
    offset = nx * 0.994 + ny * 0.0555
    iq = build_interface_quadrature(half_plane(nx, ny, offset), box, depth=3, gauss_degree=8)
    # the same line in reference coordinates: x = 0.99 + 0.005 (xi + 1), ...
    ref_offset = (offset - nx * 0.995 - ny * 0.055) / 0.005
    ends = [v for v in _clipped_square(nx, ny, ref_offset) if abs(nx * v[0] + ny * v[1] - ref_offset) < 1e-12]
    assert len(ends) == 2
    assert abs(iq.weights.sum() - math.dist(*ends)) <= 1e-12
    np.testing.assert_allclose(iq.normals, np.broadcast_to([nx, ny], iq.normals.shape), atol=1e-14)
