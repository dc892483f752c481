"""Hann pulse, analytic rod solution, error metric, and sweep plumbing."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

from cutsem import benchmark
from cutsem.benchmark import (
    BarBenchmarkConfig,
    CONVERGENCE_CSV_HEADER,
    HannPulse,
    analytic_rod_velocity,
    build_bar_mesh,
    build_bar_system,
    convergence_csv_rows,
    l2_velocity_error,
    run_bar_case,
    run_bar_convergence,
    run_bar_lts,
    run_cdm_continue,
)
from cutsem.assembly import CartesianMesh
from cutsem.errors import ConfigError, ReflectionRegime, ZeroReference
from cutsem.geometry import _gauss_square, circle, union_of_voids
from cutsem.integrators import run_cdm


def test_hann_pulse_values():
    pulse = HannPulse()
    assert pulse(0.0) == 0.0
    assert pulse(0.25) == 0.0  # end of the five-cycle window
    assert pulse(0.3) == 0.0
    assert pulse(-0.1) == 0.0
    expect = 1e6 * math.sin(math.pi / 2.0) * math.sin(math.pi / 20.0) ** 2
    assert pulse(1.0 / 80.0) == pytest.approx(expect)
    assert expect == pytest.approx(2.447e4, rel=1e-3)


def test_analytic_rod_velocity():
    cfg = BarBenchmarkConfig()
    # wave has not yet arrived
    assert analytic_rod_velocity(0.2, 0.1, cfg) == 0.0
    # carrier phase zero at ell = 0.05
    assert analytic_rod_velocity(0.95, 0.1, cfg) == pytest.approx(0.0, abs=1e-6)
    # carrier peak: matches the pulse value scaled by c/E = 1
    v = analytic_rod_velocity(1.0 - 0.1 + 0.0125, 0.1, cfg)
    assert v == pytest.approx(2.447e4, rel=1e-3)
    # valid up to the front's arrival at the clamped end, lx / c, and no later
    assert analytic_rod_velocity(0.0, cfg.lx / cfg.wave_speed, cfg) == 0.0
    with pytest.raises(ReflectionRegime):
        analytic_rod_velocity(0.5, np.nextafter(cfg.lx / cfg.wave_speed, 2.0), cfg)


def test_analytic_packet_has_zero_net_displacement():
    cfg = BarBenchmarkConfig()
    # integrate the velocity history at a fixed point across the full packet
    ts = np.linspace(0.0, 0.39, 20001)
    vs = np.array([analytic_rod_velocity(0.9, t, cfg) for t in ts])
    peak = np.max(np.abs(vs))
    net = trapezoid(vs, ts)
    assert abs(net) < 1e-6 * peak * cfg.pulse.duration


def test_config_validation_and_mesh_length():
    with pytest.raises(ConfigError):
        BarBenchmarkConfig(cut_fraction=0.0)
    with pytest.raises(ConfigError):
        BarBenchmarkConfig(elements_x=1)
    # the rod solution the error is taken against ends at lx / c, where the
    # wave front reaches the clamped end
    assert BarBenchmarkConfig().reflection_time == 1.0
    assert BarBenchmarkConfig(t_end=1.0, dt=1e-4).t_end == 1.0
    with pytest.raises(ConfigError, match="t_end"):
        BarBenchmarkConfig(t_end=1.0001, dt=1e-4)
    cfg = BarBenchmarkConfig(cut_fraction=0.5, elements_x=20)
    # the mesh overshoots so the cut column keeps the requested fraction
    assert cfg.h == pytest.approx(1.0 / 19.5)
    mesh = build_bar_mesh(cfg)
    assert mesh.lx == pytest.approx(20 * cfg.h)
    assert mesh.classification[(19, 0)] == "cut"
    conformal = BarBenchmarkConfig(cut_fraction=1.0, elements_x=10)
    assert conformal.conformal
    assert conformal.h == pytest.approx(0.1)


def test_l2_error_metric_identities():
    cfg = BarBenchmarkConfig(cut_fraction=1.0, elements_x=4, order=3)
    mesh, system = build_bar_system(cfg)
    ids = np.flatnonzero(mesh.node_active)
    coords = mesh.node_coords(ids)
    dofs = mesh.node_dofs(ids)
    v = np.zeros(system.dof_count)
    v[dofs[0::2]] = coords[:, 0]  # linear field, exactly representable

    def ref(x, y, t):
        return np.asarray(x, dtype=float), np.zeros_like(np.asarray(x, dtype=float))

    assert l2_velocity_error(mesh, v, cfg, reference=ref) < 1e-12
    assert l2_velocity_error(mesh, 2.0 * v, cfg, reference=ref) == pytest.approx(1.0)
    assert l2_velocity_error(mesh, np.zeros_like(v), cfg, reference=ref) == pytest.approx(1.0)

    def zero_ref(x, y, t):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return z, z

    with pytest.raises(ZeroReference):
        l2_velocity_error(mesh, v, cfg, reference=zero_ref)


def per_element_l2_velocity_error(mesh, nodal_velocity, cfg, reference=None):
    """The relative L2 velocity error one element at a time, as a reference.

    Full elements use the (2p + 2)-point Gauss rule and cut elements their
    own rule; each element's velocities, points and reference are its own.
    The reference defaults to the rod solution.
    """
    if reference is None:
        def reference(x, y, t):
            return analytic_rod_velocity(x, t, cfg), 0.0

    basis = mesh.basis
    jx, jy = mesh.hx / 2.0, mesh.hy / 2.0
    num = den = 0.0
    for ex, ey in mesh.elements():
        cutq = mesh.cut_quadratures[(ex, ey)]
        if cutq.is_void:
            continue
        if cutq.classification == "full":
            pts, wts = _gauss_square(2 * mesh.p + 2)
        else:
            pts, wts = cutq.points, cutq.weights
        vals, _ = basis.shape_eval_2d_batch(pts)
        dofs = mesh.element_dofs(ex, ey)
        (x0, _), (y0, _) = mesh.element_box(ex, ey)
        rx, ry = reference(x0 + (pts[:, 0] + 1.0) * jx, y0 + (pts[:, 1] + 1.0) * jy, cfg.t_end)
        uhx = vals @ nodal_velocity[dofs[0::2]]
        uhy = vals @ nodal_velocity[dofs[1::2]]
        w = wts * jx * jy
        num += w @ ((uhx - rx) ** 2 + (uhy - ry) ** 2)
        den += w @ (rx**2 + ry**2)
    return math.sqrt(num / den)


def plate_reference(x, y, t):
    return np.sin(3.0 * x + t) * np.cos(2.0 * y), x * y


@pytest.mark.parametrize("case", [1.0, 0.5, 0.05, "voids"])
def test_l2_error_equals_the_per_element_loop(case):
    # the full elements are one rule group, which sums in another order;
    # each bar has one cut element, and the plate with two voids has 15 cut
    # elements, each a group of its own, and 4 void ones
    if case == "voids":
        cfg = BarBenchmarkConfig(t_end=0.5)
        level_set = union_of_voids([circle(0.5, 0.5, 0.3), circle(1.0, 0.0, 0.2)])
        mesh = CartesianMesh(lx=1.0, ly=1.0, nx=6, ny=6, p=3, level_set=level_set)
        kinds = list(mesh.classification.values())
        assert (kinds.count("cut"), kinds.count("void")) == (15, 4)
        reference = plate_reference
    else:
        cfg = BarBenchmarkConfig(cut_fraction=case, elements_x=12, order=4, t_end=0.5)
        mesh = build_bar_mesh(cfg)
        reference = None
    ids = np.flatnonzero(mesh.node_active)
    x, y = mesh.node_coords(ids).T
    dofs = mesh.node_dofs(ids)
    v = np.zeros(mesh.dof_count)
    if reference is None:
        v[dofs[0::2]] = analytic_rod_velocity(x, cfg.t_end, cfg) * (1.0 + 0.05 * np.sin(7.0 * x))
        v[dofs[1::2]] = 1e3 * np.cos(5.0 * x)
    else:
        rx, ry = reference(x, y, cfg.t_end)
        v[dofs[0::2]] = rx * (1.0 + 0.05 * np.sin(7.0 * y))
        v[dofs[1::2]] = ry + 0.05 * np.cos(5.0 * x)
    want = per_element_l2_velocity_error(mesh, v, cfg, reference)
    assert 1e-3 < want < 1.0
    assert l2_velocity_error(mesh, v, cfg, reference) == pytest.approx(want, rel=1e-13)


def test_run_bar_case_report_fields():
    cfg = BarBenchmarkConfig(cut_fraction=1.0, elements_x=4, order=3, t_end=0.3, dt=1e-4)
    report = run_bar_case(cfg)
    assert report.scheme == "sem"
    assert report.order == 3
    assert report.dof_count > 0
    assert report.error >= 0.0
    rows = convergence_csv_rows([report])
    assert rows[0] == CONVERGENCE_CSV_HEADER
    assert len(rows) == 2


def test_csv_rows_deterministic_excluding_wall_time():
    cfg = BarBenchmarkConfig(cut_fraction=0.5, elements_x=4, order=3, t_end=0.3, dt=1e-4)
    r1 = run_bar_case(cfg)
    r2 = run_bar_case(replace(cfg))
    row1 = convergence_csv_rows([r1])[1].rsplit(",", 1)[0]
    row2 = convergence_csv_rows([r2])[1].rsplit(",", 1)[0]
    assert row1 == row2


def test_convergence_grid_cells_in_row_order(monkeypatch):
    monkeypatch.setattr(
        benchmark,
        "run_bar_case",
        lambda cfg: (cfg.order, cfg.elements_x, cfg.cut_fraction, cfg.scheme, cfg.epsilon),
    )
    rows = run_bar_convergence(
        BarBenchmarkConfig(), [6, 4], [3, 5], [1.0, 0.5], ["fitted", "hrz"], [0.01, 0.1]
    )
    # order, then elements, then fraction; the conformal mesh runs the first
    # (scheme, epsilon) pair only, and hrz the first epsilon
    per_mesh = [(1.0, "fitted", 0.01), (0.5, "fitted", 0.01), (0.5, "fitted", 0.1), (0.5, "hrz", 0.01)]
    assert rows == [(p, n) + cell for p in (3, 5) for n in (6, 4) for cell in per_mesh]


def test_cdm_continue_matches_one_longer_run():
    # loaded cut bar: the continued step must pick up the load at the right time
    cfg = BarBenchmarkConfig(cut_fraction=0.5, elements_x=4, order=3, dt=1e-4)
    _, system = build_bar_system(cfg)
    n = 120
    longer = run_cdm(system, cfg.dt, n + 1)
    continued = run_cdm_continue(system, run_cdm(system, cfg.dt, n), 1)
    assert np.max(np.abs(longer.u_curr)) > 0.0
    assert continued.step == longer.step == n + 1
    assert np.array_equal(continued.u_curr, longer.u_curr)
    assert np.array_equal(continued.u_prev, longer.u_prev)


LTS_GOLDEN = Path(__file__).parent / "data" / "bar_lts_small.csv"


def lts_golden_rows():
    """`run_bar_lts` to t = 0.3 on the 40-element bar cut at 0.5: p = 4 and 5, fitted and hrz.

    tests/data/bar_lts_small.csv holds these rows; write them there with
    `python -c "import test_benchmark as t; print(*t.lts_golden_rows(), sep=chr(10))"`
    run from tests/.
    """
    rows = ["order,scheme,dt_coarse,p_t,error"]
    for p in (4, 5):
        for scheme in ("fitted", "hrz"):
            cfg = BarBenchmarkConfig(
                cut_fraction=0.5, order=p, elements_x=40, scheme=scheme, t_end=0.3
            )
            mesh, _, velocity, dt_coarse, p_t = run_bar_lts(cfg)
            err = l2_velocity_error(mesh, velocity, cfg)
            rows.append(f"{p},{scheme},{dt_coarse!r},{p_t},{err!r}")
    return rows


def test_lts_bar_matches_its_golden_file():
    # p_t exactly, every other number to 1e-12 relative
    got = [line.split(",") for line in lts_golden_rows()]
    want = [line.split(",") for line in LTS_GOLDEN.read_text().splitlines()]
    assert got[0] == want[0] and len(got) == len(want) == 5
    for got_row, want_row in zip(got[1:], want[1:]):
        assert got_row[:2] == want_row[:2] and int(got_row[3]) == int(want_row[3])
        got_num = [float(got_row[i]) for i in (2, 4)]
        want_num = [float(want_row[i]) for i in (2, 4)]
        assert got_num == pytest.approx(want_num, rel=1e-12, abs=0.0)
