"""Moment-fitted mass lumping and the comparator schemes."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutsem
from cutsem import integrators, momentfit
from cutsem.errors import (
    ConfigError,
    DegenerateDiagonal,
    Infeasible,
    NumericalError,
    SolverStall,
    VoidElement,
)
from cutsem.geometry import CutQuadrature, build_cut_quadrature, circle, half_plane
from cutsem.gll import monomial_exponents, tensor_basis
from cutsem.momentfit import (
    MomentFitConfig,
    MomentFitSystem,
    build_moment_system,
    hrz_weights,
    lump_element,
    lumping_residual,
    min_weight_bound,
    scaled_weights,
    solve_fitted_weights,
)

from helpers import brute_force_fitted_weights, kkt_report

UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))


def full_quadrature(depth=0, degree=4):
    ls = half_plane(1.0, 0.0, 2.0)  # physical on all of the unit box
    return build_cut_quadrature(ls, UNIT_BOX, depth=depth, gauss_degree=degree)


def cut_quadrature(frac, p, depth=4):
    return build_cut_quadrature(half_plane(1.0, 0.0, frac), UNIT_BOX, depth=depth, gauss_degree=2 * p)


def test_monomial_exponents_graded_lex():
    assert monomial_exponents(1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    exps = monomial_exponents(3)
    assert len(exps) == 16
    degrees = [a + b for a, b in exps]
    assert degrees == sorted(degrees)


def test_moment_system_full_bilinear():
    basis = tensor_basis(1)
    sys = build_moment_system(basis, full_quadrature())
    # graded-lex monomials [1, eta, xi, xi*eta]
    np.testing.assert_allclose(sys.rhs, [4.0, 0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(sys.monomial_matrix[0], np.ones(4), atol=1e-15)
    assert np.linalg.svd(sys.monomial_matrix, compute_uv=False)[-1] > 1e-12


def test_moment_system_half_cut_bilinear():
    basis = tensor_basis(1)
    sys = build_moment_system(basis, cut_quadrature(0.5, 1))
    np.testing.assert_allclose(sys.rhs, [2.0, 0.0, -1.0, 0.0], atol=1e-10)


def test_full_element_gll_weights_solve_moment_system():
    for p in (2, 5):
        basis = tensor_basis(p)
        sys = build_moment_system(basis, full_quadrature(degree=2 * p))
        resid = lumping_residual(sys, basis.node_weights())
        assert resid < 1e-10


def test_fitted_full_element_returns_gll_weights():
    basis = tensor_basis(4)
    cutq = full_quadrature(degree=8)
    sys = build_moment_system(basis, cutq)
    out = solve_fitted_weights(sys, cutq, MomentFitConfig(), basis)
    np.testing.assert_allclose(out.weights, basis.node_weights(), atol=1e-10)
    assert out.residual_norm < 1e-10


def test_fitted_half_cut_constraints_and_epsilon_ordering():
    basis = tensor_basis(5)
    cutq = cut_quadrature(0.5, 5)
    sys = build_moment_system(basis, cutq)
    out_small = solve_fitted_weights(sys, cutq, MomentFitConfig(epsilon=0.01), basis)
    out_large = solve_fitted_weights(sys, cutq, MomentFitConfig(epsilon=0.1), basis)
    for out, eps in ((out_small, 0.01), (out_large, 0.1)):
        assert abs(out.weights.sum() - 2.0) <= 1e-12
        w_min = min_weight_bound(basis, cutq.volume_ratio, MomentFitConfig(epsilon=eps))
        assert np.all(out.weights >= w_min - 1e-12)
    assert out_small.residual_norm <= out_large.residual_norm + 1e-12


def test_kkt_conditions_at_fitted_solution():
    basis = tensor_basis(4)
    cutq = cut_quadrature(0.3, 4)
    sys = build_moment_system(basis, cutq)
    cfg = MomentFitConfig(epsilon=0.1)
    out = solve_fitted_weights(sys, cutq, cfg, basis)
    report = kkt_report(sys, out, cutq, cfg, basis)
    assert report["projected_gradient"] < 1e-9
    assert report["complementary_slackness"] < 1e-9
    assert report["dual_feasibility"] <= 1e-9  # violation measure: -min multiplier
    assert report["equality_gap"] < 1e-12
    assert report["bound_violation"] == 0.0


def test_scaled_weights():
    basis = tensor_basis(1)
    out = scaled_weights(basis, 1.0)
    np.testing.assert_allclose(out.weights, basis.node_weights(), atol=1e-15)
    out = scaled_weights(basis, 0.5)
    np.testing.assert_allclose(out.weights, np.full(4, 0.5), atol=1e-15)
    basis = tensor_basis(4)
    for v_e in (0.2, 0.7):
        assert abs(scaled_weights(basis, v_e).weights.sum() - 4 * v_e) < 1e-12
    with pytest.raises(VoidElement):
        scaled_weights(basis, 0.0)


def test_hrz_weights():
    basis = tensor_basis(5)
    full = full_quadrature(degree=10)
    out = hrz_weights(basis, full)
    assert abs(out.weights.sum() - 4.0) < 1e-10
    cutq = cut_quadrature(0.5, 5)
    out = hrz_weights(basis, cutq)
    assert abs(out.weights.sum() - 2.0) < 1e-10
    assert np.all(out.weights >= 0)


def test_fitted_residual_beats_comparators_half_cut():
    basis = tensor_basis(5)
    cutq = cut_quadrature(0.5, 5)
    sys = build_moment_system(basis, cutq)
    fitted = solve_fitted_weights(sys, cutq, MomentFitConfig(epsilon=0.01), basis)
    r_hrz = lumping_residual(sys, hrz_weights(basis, cutq).weights)
    r_scaled = lumping_residual(sys, scaled_weights(basis, cutq.volume_ratio).weights)
    assert fitted.residual_norm <= r_hrz + 1e-12
    assert fitted.residual_norm <= r_scaled + 1e-12


def test_low_volume_bound_matches_scaled_minimum():
    basis = tensor_basis(3)
    cfg = MomentFitConfig()
    v_e = 0.05  # below the threshold: bound equals the scaled scheme's minimum
    w_min = min_weight_bound(basis, v_e, cfg)
    assert math.isclose(w_min, v_e * basis.node_weights().min(), rel_tol=1e-15)
    assert min_weight_bound(basis, 0.5, cfg) == pytest.approx(
        0.01 * 0.5 * basis.node_weights().min()
    )


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("frac", [0.5, 0.31])
def test_fitted_matches_brute_force_oracle(p, frac):
    basis = tensor_basis(p)
    cutq = cut_quadrature(frac, p)
    sys = build_moment_system(basis, cutq)
    cfg = MomentFitConfig(epsilon=0.1)
    out = solve_fitted_weights(sys, cutq, cfg, basis)
    w_min = min_weight_bound(basis, cutq.volume_ratio, cfg)
    oracle = brute_force_fitted_weights(sys.monomial_matrix, sys.rhs, w_min)
    np.testing.assert_allclose(out.weights, oracle, atol=1e-8)


def test_straight_cut_qp_solves_at_most_three_subproblems():
    # block activation fixes every weight below the bound at once
    basis = tensor_basis(7)
    cutq = cut_quadrature(0.5, 7)
    sys = build_moment_system(basis, cutq)
    out = solve_fitted_weights(sys, cutq, MomentFitConfig(epsilon=0.01), basis)
    assert 1 <= out.iterations <= 3


def test_dtcrit_grid_qp_subproblem_count(monkeypatch):
    # the CLI's default critical-time-step sweep: 72 QPs that end with 1,278
    # weights at the bound, which block activation fixes a block at a time
    lumps = []

    def recording(*args):
        lumps.append(solve_fitted_weights(*args))
        return lumps[-1]

    monkeypatch.setattr(integrators, "solve_fitted_weights", recording)
    fractions = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for p in range(4, 8):
        integrators.critical_dt_sweep(p, fractions, ["fitted"], [0.01, 0.1])
    assert len(lumps) == 72
    assert sum(lump.iterations for lump in lumps) <= 250


def test_circle_cut_qp_releases_a_bound_and_matches_brute_force_oracle(monkeypatch):
    # activating every weight below the bound at once fixes one weight too
    # many here: the fourth subproblem is feasible but a multiplier is
    # negative, and the fifth frees that weight again
    free_counts = []
    real = momentfit.dgglse

    def spy(a_free, *args):
        free_counts.append(a_free.shape[1])
        return real(a_free, *args)

    monkeypatch.setattr(momentfit, "dgglse", spy)
    basis = tensor_basis(3)
    cutq = build_cut_quadrature(circle(0.8, 0.6, 0.6), UNIT_BOX, depth=4, gauss_degree=6)
    sys = build_moment_system(basis, cutq)
    cfg = MomentFitConfig(epsilon=0.4)
    out = solve_fitted_weights(sys, cutq, cfg, basis)
    assert out.iterations == len(free_counts)
    assert free_counts[-1] == free_counts[-2] + 1
    w_min = min_weight_bound(basis, cutq.volume_ratio, cfg)
    oracle = brute_force_fitted_weights(sys.monomial_matrix, sys.rhs, w_min)
    np.testing.assert_allclose(out.weights, oracle, atol=1e-8)


def test_qp_that_revisits_an_active_set_still_converges():
    # block activation alone returns to an earlier active set at its 37th
    # subproblem here and would cycle to the iteration cap; Murty's rule
    # takes over from the repeat and ends at the certified optimum
    basis = tensor_basis(7)
    cutq = build_cut_quadrature(circle(0.2392, -0.0327, 0.557), UNIT_BOX, depth=4, gauss_degree=14)
    sys = build_moment_system(basis, cutq)
    cfg = MomentFitConfig(epsilon=1.0)
    out = solve_fitted_weights(sys, cutq, cfg, basis)
    assert out.iterations > 37
    report = kkt_report(sys, out, cutq, cfg, basis)
    assert max(report.values()) <= 1e-9, report


def test_qp_releases_a_small_negative_multiplier_on_an_ill_conditioned_cut():
    # p = 8, eps = 1, a disk clipping one corner: cond(A) is 2.9e5 and the
    # gradient's terms are about 44, so its rounding is about 1e-14. An
    # absolute release threshold of 1e-10 certified an active set with a
    # multiplier of -9.6e-11 here; scaled to those terms the bound is
    # released and the optimum has no negative multiplier
    basis = tensor_basis(8)
    cutq = build_cut_quadrature(circle(0.95, 1.39, 0.42), UNIT_BOX, depth=4, gauss_degree=16)
    assert 0.99 < cutq.volume_ratio < 1.0
    sys = build_moment_system(basis, cutq)
    cfg = MomentFitConfig(epsilon=1.0)
    out = solve_fitted_weights(sys, cutq, cfg, basis)
    report = kkt_report(sys, out, cutq, cfg, basis)
    assert report["dual_feasibility"] <= 0.0, report
    assert max(report.values()) <= 1e-12, report


def test_qp_that_never_certifies_stalls_at_the_iteration_cap(monkeypatch):
    # a multiplier that always reads negative keeps releasing bounds; the
    # loop must stop at its cap and report the last iterate's KKT residual,
    # whose only other term here is that iterate's bound violation
    basis = tensor_basis(7)
    cutq = cut_quadrature(0.5, 7)
    sys = build_moment_system(basis, cutq)
    cfg = MomentFitConfig(epsilon=0.01)
    w_min = min_weight_bound(basis, cutq.volume_ratio, cfg)
    monkeypatch.setattr(
        momentfit, "_kkt_terms", lambda a, b, w, active: (np.full(active.sum(), -2e-10), 0.0)
    )
    solutions = []
    real = momentfit.dgglse

    def spy(*args):
        out = real(*args)
        solutions.append(out[3])
        return out

    monkeypatch.setattr(momentfit, "dgglse", spy)
    with pytest.raises(SolverStall, match="KKT residual") as err:
        solve_fitted_weights(sys, cutq, cfg, basis)
    assert len(solutions) == 50 * basis.node_count + 50
    violation = max(0.0, float(np.max(w_min - solutions[-1])))
    assert violation > 2e-10
    residual = float(str(err.value).rsplit(" ", 1)[1])
    assert residual == pytest.approx(violation, rel=1e-5)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(["half_plane", "circle"]),
    point=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
    size=st.floats(0.0, 1.0),
    p=st.integers(1, 2),
    epsilon=st.floats(0.01, 1.0),
)
def test_fuzzed_fitted_weights_match_brute_force_oracle(shape, point, size, p, epsilon):
    if shape == "half_plane":
        nx, ny = math.cos(2.0 * math.pi * size), math.sin(2.0 * math.pi * size)
        ls = half_plane(nx, ny, nx * point[0] + ny * point[1])
    else:
        ls = circle(point[0], point[1], 0.05 + 0.45 * size)
    cutq = build_cut_quadrature(ls, UNIT_BOX, depth=4, gauss_degree=4)
    basis = tensor_basis(p)
    sys = build_moment_system(basis, cutq)
    cfg = MomentFitConfig(epsilon=epsilon)
    w_min = min_weight_bound(basis, cutq.volume_ratio, cfg)
    out = solve_fitted_weights(sys, cutq, cfg, basis)
    if basis.node_count * w_min >= sys.rhs[0]:
        # bilinear with eps = 1 or below the low-volume threshold: the bound
        # leaves one feasible point, the scaled weights
        expect = scaled_weights(basis, cutq.volume_ratio).weights
        np.testing.assert_allclose(out.weights, expect, rtol=1e-15, atol=0.0)
        return
    assert np.all(out.weights >= w_min)
    assert abs(out.weights.sum() - sys.rhs[0]) <= 1e-12
    oracle = brute_force_fitted_weights(sys.monomial_matrix, sys.rhs, w_min)
    # the acceptance tests' TOL_ORACLE
    assert abs(out.residual_norm - lumping_residual(sys, oracle)) <= 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(["half_plane", "circle"]),
    point=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
    size=st.floats(0.0, 1.0),
    p=st.integers(3, 8),
    epsilon=st.floats(0.01, 1.0),
)
def test_fuzzed_high_order_fitted_weights_satisfy_kkt(shape, point, size, p, epsilon):
    if shape == "half_plane":
        nx, ny = math.cos(2.0 * math.pi * size), math.sin(2.0 * math.pi * size)
        ls = half_plane(nx, ny, nx * point[0] + ny * point[1])
    else:
        # centre inside the element and r <= 0.5: the corners stay physical
        ls = circle(point[0], point[1], 0.05 + 0.45 * size)
    cutq = build_cut_quadrature(ls, UNIT_BOX, depth=4, gauss_degree=2 * p)
    basis = tensor_basis(p)
    sys = build_moment_system(basis, cutq)
    cfg = MomentFitConfig(epsilon=epsilon)
    out = solve_fitted_weights(sys, cutq, cfg, basis)
    assert np.all(out.weights >= min_weight_bound(basis, cutq.volume_ratio, cfg))
    assert abs(out.weights.sum() - sys.rhs[0]) <= 1e-12
    report = kkt_report(sys, out, cutq, cfg, basis)
    assert max(report.values()) <= 1e-9, report


def test_rank_deficient_subproblem_raises_solver_stall():
    # dgglse flags rank deficiency only on an exactly zero pivot, which two
    # equal columns of a rounded moment matrix do not give; equal columns of
    # ones, a moment matrix of the constant monomial alone, do
    basis = tensor_basis(1)
    cutq = cut_quadrature(0.5, 1)
    sys = build_moment_system(basis, cutq)
    a_mat = np.ones_like(sys.monomial_matrix)
    twins = MomentFitSystem(monomial_matrix=a_mat, rhs=sys.rhs)
    with pytest.raises(SolverStall, match="info 2") as err:
        solve_fitted_weights(twins, cutq, MomentFitConfig(), basis)
    assert isinstance(err.value, NumericalError)  # the CLI's exit code 3


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_duplicated_column_subproblem_raises_solver_stall(p):
    # two equal columns of a rounded moment matrix leave dgglse a tiny but
    # non-zero pivot (info 0, weights up to 1e13); the pivot ratio of its
    # triangular factor catches them
    basis = tensor_basis(p)
    cutq = cut_quadrature(0.5, p)
    sys = build_moment_system(basis, cutq)
    a_mat = sys.monomial_matrix.copy()
    a_mat[:, 1] = a_mat[:, 0]
    twins = MomentFitSystem(monomial_matrix=a_mat, rhs=sys.rhs)
    with pytest.raises(SolverStall, match="pivot ratio"):
        solve_fitted_weights(twins, cutq, MomentFitConfig(), basis)


def test_fitted_lumping_does_not_import_scipy_optimize():
    # scipy.optimize costs every run about 19 MB of peak RSS and 0.2 s, and
    # scipy.sparse is left to tests and checks: K x is element batches
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import cutsem",
        "from cutsem.benchmark import BarBenchmarkConfig, build_bar_system",
        "from cutsem.geometry import build_cut_quadrature, half_plane",
        "from cutsem.gll import tensor_basis",
        "from cutsem.integrators import LtsConfig, LtsSolver, run_cdm",
        "from cutsem.momentfit import lump_element",
        "box = ((0.0, 1.0), (0.0, 1.0))",
        "cutq = build_cut_quadrature(half_plane(1.0, 0.0, 0.4), box, depth=2, gauss_degree=8)",
        "lump_element(tensor_basis(4), cutq, 'fitted')",
        "cfg = BarBenchmarkConfig(cut_fraction=0.5, order=3, elements_x=6)",
        "_, system = build_bar_system(cfg)",
        "run_cdm(system, 1e-6, 5)",
        "selection = np.zeros(system.dof_count, dtype=bool)",
        "selection[system.cut_element_dofs] = True",
        "LtsSolver(system, LtsConfig(1e-6, 2, selection)).run(5)",
        "print(sorted({'scipy.optimize', 'scipy.sparse'} & set(sys.modules)))",
    ])
    # the child imports the cutsem under test, whether installed or on a path
    src = os.path.dirname(os.path.dirname(cutsem.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lump_element_dispatch():
    basis = tensor_basis(3)
    cutq = cut_quadrature(0.5, 3)
    full = full_quadrature(degree=6)
    # full elements always get the raw GLL weights regardless of scheme
    for scheme in ("fitted", "hrz", "scaled"):
        out = lump_element(basis, full, scheme)
        np.testing.assert_allclose(out.weights, basis.node_weights(), atol=1e-15)
    # nodal_gll labels the full-element weights; it is no scheme for a cut element
    for scheme in ("nodal_gll", "bogus"):
        with pytest.raises(ConfigError):
            lump_element(basis, cutq, scheme)


def test_config_validation_and_void_errors():
    with pytest.raises(ConfigError):
        MomentFitConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        MomentFitConfig(epsilon=1.5)
    basis = tensor_basis(2)
    void = build_cut_quadrature(half_plane(1.0, 0.0, -1.0), UNIT_BOX, depth=2, gauss_degree=4)
    with pytest.raises(VoidElement):
        build_moment_system(basis, void)
    with pytest.raises(VoidElement):
        lump_element(basis, void, "fitted")
    with pytest.raises(VoidElement):
        hrz_weights(basis, void)


def test_bilinear_fitted_weights_at_epsilon_one_are_the_scaled_weights():
    # p = 1, eps = 1: w_min = v_e and four nodes must sum to 4 v_e, so the
    # bound leaves the single feasible point w = v_e
    basis = tensor_basis(1)
    cfg = MomentFitConfig(epsilon=1.0)
    for frac in (0.37, 0.5):
        cutq = cut_quadrature(frac, 1)
        sys = build_moment_system(basis, cutq)
        out = solve_fitted_weights(sys, cutq, cfg, basis)
        expect = scaled_weights(basis, cutq.volume_ratio).weights
        np.testing.assert_allclose(out.weights, expect, rtol=1e-15, atol=0.0)
        assert out.residual_norm == lumping_residual(sys, out.weights)
        # no weight is free, so the point is optimal and certified as such
        report = kkt_report(sys, out, cutq, cfg, basis)
        assert max(report.values()) <= 1e-9, report


def test_fitted_weights_raise_infeasible_when_bound_exceeds_target():
    # p = 1, eps = 1: w_min = v_e, so four nodes need 4 v_e <= sum of the rule
    basis = tensor_basis(1)
    cutq = CutQuadrature(
        points=np.zeros((1, 2)), weights=np.array([1.0]), volume_ratio=0.5, classification="cut"
    )
    assert cutq.volume_ratio > cutq.weights.sum() / 4
    cfg = MomentFitConfig(epsilon=1.0)
    with pytest.raises(Infeasible):
        solve_fitted_weights(build_moment_system(basis, cutq), cutq, cfg, basis)


def test_hrz_weights_raise_degenerate_diagonal_on_zero_rule():
    basis = tensor_basis(2)
    cutq = CutQuadrature(
        points=np.array([[0.1, -0.3], [0.5, 0.2]]), weights=np.zeros(2),
        volume_ratio=0.5, classification="cut",
    )
    with pytest.raises(DegenerateDiagonal):
        hrz_weights(basis, cutq)


def test_nodal_gll_scheme_label():
    basis = tensor_basis(2)
    out = lump_element(basis, full_quadrature(degree=4), "fitted")
    assert out.scheme == "nodal_gll"
    np.testing.assert_allclose(out.weights, basis.node_weights(), atol=1e-15)


def test_full_element_lumping_returns_the_read_only_gll_weights():
    basis = tensor_basis(3)
    before = basis.node_weights().copy()
    for scheme in ("fitted", "hrz", "scaled"):
        out = lump_element(basis, full_quadrature(), scheme)
        assert out.weights is basis.node_weights()
        with pytest.raises(ValueError):
            out.weights[0] = 1.0
    assert np.array_equal(basis.node_weights(), before)


def test_moment_system_reads_the_basis_monomial_table():
    basis = tensor_basis(4)
    cutq = cut_quadrature(0.4, 4)
    sys = build_moment_system(basis, cutq)
    assert sys.monomial_matrix is basis.monomial_matrix
    assert not sys.monomial_matrix.flags.writeable
    # the moments follow the rows of the table, in the basis's exponent order
    xi, eta = cutq.points.T
    moments = [cutq.weights @ (xi**a * eta**b) for a, b in basis.exponents]
    np.testing.assert_allclose(sys.rhs, moments, rtol=1e-13, atol=1e-15)
