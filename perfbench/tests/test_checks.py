"""Each check passes on a right output and fails on a deliberately wrong one."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

import checks


def test_hann_rod_velocity_matches_travelling_pulse():
    # the packet front leaves x = lx at t = 0 and moves left at c
    x = np.linspace(0.0, 1.0, 2001)
    v = checks.hann_rod_velocity(x, 0.3, 1e6, 20.0, 5, 1.0, 1.0, 1.0)
    live = x[v != 0.0]
    assert live.min() >= 0.7 - 1e-12 and live.max() <= 0.95 + 1e-12
    # amplitude c * A / E at the centre of the envelope, scaled by E
    v2 = checks.hann_rod_velocity(x, 0.3, 1e6, 20.0, 5, 1.0, 2.0, 1.0)
    assert np.allclose(v2, v / 2.0)


def test_bar_limit_grows_with_step():
    assert checks.bar_error_limit(1e-3, 0.3, 20.0) > checks.bar_error_limit(1e-4, 0.3, 20.0)
    assert checks.bar_error_limit(0.0, 0.3, 20.0) == checks.BAR_SPATIAL_ALLOWANCE


def test_check_bar():
    assert checks.check_bar(0.01, 0.01, 0.03) == []
    assert checks.check_bar(0.01, 0.01, 0.03, p_t=10) == []
    assert checks.check_bar(0.05, 0.01, 0.03)
    assert checks.check_bar(0.01, 0.05, 0.03)
    assert checks.check_bar(math.nan, 0.01, 0.03)
    assert checks.check_bar(0.01, 0.01, 0.03, p_t=1)


def test_nodal_relative_error():
    mass = np.array([1.0, 2.0, 1.0])
    ref = np.array([0.0, 1.0, 0.5])
    assert checks.nodal_relative_error(mass, ref, ref) == 0.0
    assert checks.nodal_relative_error(mass, -ref, ref) == pytest.approx(2.0)
    assert checks.nodal_relative_error(mass, ref, 0.0 * ref) == math.inf


def test_check_plate_mass():
    mass = np.full(10, 0.1)  # rho = 0.5, area = 1.0
    assert checks.check_plate_mass(mass, 0.5, 1.0, 1e-9) == []
    wrong = mass.copy()
    wrong[3] += 1e-6
    assert checks.check_plate_mass(wrong, 0.5, 1.0, 1e-9)
    wrong = mass.copy()
    wrong[3], wrong[4] = 0.2, 0.0
    assert checks.check_plate_mass(wrong, 0.5, 1.0, 1e-9)


def _spring_chain(n_nodes):
    """Stiffness of x- and y-springs between neighbours: symmetric, floating."""
    k1 = sp.diags([-np.ones(n_nodes - 1), np.r_[1.0, 2.0 * np.ones(n_nodes - 2), 1.0],
                   -np.ones(n_nodes - 1)], [-1, 0, 1])
    return sp.kron(k1, sp.identity(2)).tocsr()


def test_check_stiffness():
    k = _spring_chain(6)
    assert checks.check_stiffness(k) == []
    asym = k.tolil()
    asym[0, 2] += 1e-6
    assert checks.check_stiffness(asym.tocsr())
    grounded = k + sp.diags(np.r_[1e-3, np.zeros(11)])
    assert any("translation" in m for m in checks.check_stiffness(grounded.tocsr()))


def test_check_momentum():
    mass = np.linspace(1.0, 2.0, 8)
    v0 = np.sin(np.arange(8.0))
    assert checks.check_momentum(mass, v0, v0) == []
    v1 = v0.copy()
    v1[0::2] += 1e-6
    assert checks.check_momentum(mass, v0, v1)


def test_centered_energies_of_a_free_mass():
    k = sp.csr_matrix((2, 2))
    mass = np.array([2.0, 2.0])
    states = [np.array([0.1 * n, 0.0]) for n in range(5)]  # unit-step drift at 0.1
    e = checks.centered_energies(k, mass, states, 1.0)
    assert e == pytest.approx([0.5 * 2.0 * 0.01] * 3)


def test_check_energy():
    assert checks.check_energy([1.0, 1.001, 0.999], 1.0) == []
    assert checks.check_energy([1.0, 1.2], 1.0)
    assert checks.check_energy([1.0, -0.1], 1.0)
    assert checks.check_energy([1.0, math.inf], 1.0)
    assert checks.check_energy([], 1.0)


def _dtcrit_rows(p=4, frac=0.5, fit=0.1, loose=0.3, hrz=0.5, scaled=0.45):
    return [(p, frac, "fitted", 0.01, fit), (p, frac, "fitted", 0.1, loose),
            (p, frac, "hrz", 0.0, hrz), (p, frac, "scaled", 0.0, scaled)]


def test_check_dtcrit_rows():
    active = {(4, 0.5)}
    assert checks.check_dtcrit_rows(_dtcrit_rows(), active) == []
    assert checks.check_dtcrit_rows(_dtcrit_rows(hrz=1.02), active)
    assert checks.check_dtcrit_rows(_dtcrit_rows(fit=0.0), active)
    assert checks.check_dtcrit_rows(_dtcrit_rows(fit=0.6), active)
    assert checks.check_dtcrit_rows(_dtcrit_rows(scaled=0.05), active)
    assert checks.check_dtcrit_rows(_dtcrit_rows(loose=0.05), active)
    assert checks.check_dtcrit_rows(_dtcrit_rows()[:3], active)


def test_check_dtcrit_rows_below_the_low_volume_threshold():
    # there eps is not used: fitted may exceed scaled but must not depend on eps
    rows = _dtcrit_rows(fit=0.4, loose=0.4, scaled=0.35)
    assert checks.check_dtcrit_rows(rows, set()) == []
    assert checks.check_dtcrit_rows(rows, {(4, 0.5)})
    assert checks.check_dtcrit_rows(_dtcrit_rows(fit=0.4, loose=0.41, scaled=0.35), set())


def test_max_generalized_eigenvalue_and_ratio():
    k = np.array([[2.0, -1.0], [-1.0, 2.0]])
    m = np.array([1.0, 1.0])
    assert checks.max_generalized_eigenvalue(k, m) == pytest.approx(3.0)
    assert checks.max_generalized_eigenvalue(k, 2.0 * m) == pytest.approx(1.5)
    assert checks.check_dt_ratio(0.5, 4.0, 1.0) == []
    assert checks.check_dt_ratio(0.5 * (1.0 + 1e-5), 4.0, 1.0)
