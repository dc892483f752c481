"""Explicit elastodynamics on cut spectral-element grids.

Cartesian meshes of Gauss-Lobatto-Legendre spectral elements with
implicitly defined (level-set) geometry, moment-fitted mass lumping for
cut elements, and a leap-frog solver with local time stepping.
"""

__version__ = "0.1.0"

from .assembly import CartesianMesh, Material, assemble_global
from .benchmark import BarBenchmarkConfig, HannPulse, l2_velocity_error
from .geometry import LevelSet, circle, half_plane, union_of_voids
from .integrators import LtsConfig, LtsSolver, critical_timestep_table, run_cdm
from .momentfit import MomentFitConfig
