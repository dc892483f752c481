"""Exception hierarchy.

ConfigError maps to CLI exit code 2, NumericalError to exit code 3.
"""


class CutSemError(Exception):
    pass


class ConfigError(CutSemError):
    pass


class NumericalError(CutSemError):
    pass


class NonBracketing(NumericalError):
    """Root search endpoints do not bracket the zero iso-line."""


class VoidElement(NumericalError):
    """Operation requested on an element with no physical volume."""


class Infeasible(NumericalError):
    """QP constraint set is empty (pathological w_min)."""


class SolverStall(NumericalError):
    """QP iteration cap reached with KKT residual above tolerance."""


class SingularMass(NumericalError):
    """A lumped mass entry is not positive (a free DOF or an element node)."""


class DegenerateDiagonal(NumericalError):
    """Consistent-mass diagonal summed to a non-positive value."""


class Diverged(NumericalError):
    """Time integration blew up (CFL violation or bad data)."""


class ZeroReference(NumericalError):
    """Relative error denominator is numerically zero."""


class ReflectionRegime(NumericalError):
    """Analytic rod solution queried beyond its pre-reflection validity."""
