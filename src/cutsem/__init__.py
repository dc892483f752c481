"""Explicit elastodynamics on cut spectral-element grids.

Cartesian meshes of Gauss-Lobatto-Legendre spectral elements with
implicitly defined (level-set) geometry, moment-fitted mass lumping for
cut elements, and a leap-frog solver with local time stepping.
"""

__version__ = "0.1.0"

from .assembly import CartesianMesh, ElementBatches, GlobalSystem, Material, assemble_global
from .benchmark import BarBenchmarkConfig, HannPulse, analytic_rod_velocity, l2_velocity_error
from .geometry import (
    CutQuadrature,
    InterfaceQuadrature,
    LevelSet,
    build_cut_quadrature,
    build_cut_quadratures,
    build_interface_quadrature,
    circle,
    classify_element,
    find_interface_root,
    half_plane,
    union_of_voids,
)
from .gll import GllBasis1d, TensorBasis2d, gll_rule, tensor_basis
from .integrators import (
    LtsConfig,
    LtsSolver,
    choose_pt,
    critical_timestep_table,
    element_max_eigenvalue,
    run_cdm,
)
from .momentfit import (
    LumpedElementMass,
    MomentFitConfig,
    MomentFitSystem,
    build_moment_system,
    hrz_weights,
    lump_element,
    scaled_weights,
    solve_fitted_weights,
)
