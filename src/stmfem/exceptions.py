"""Exception types shared across the library."""


class InvalidMeshError(Exception):
    """A cell map has a nonpositive Jacobian determinant somewhere.

    `stage` names the check that saw it: "distort" (the distorted mesh),
    "build_pair" (the mesh a space pair is built on) or "quadrature" (the
    points of a rule mapped through the cells).
    """

    def __init__(self, cell, min_det, stage):
        self.cell = cell
        self.min_det = min_det
        self.stage = stage
        super().__init__(
            f"{stage}: cell {cell} is invalid: min det J = {min_det:.6e} <= 0"
        )


class InvalidCoefficientError(Exception):
    """The diffusion tensor failed a symmetry or positivity check."""


class UnsupportedConfigurationError(Exception):
    """A requested problem configuration is outside what the library supports."""


class SolverFailureError(Exception):
    """A solve failed at `interval`, in `stage` initial/rhs/direct/schur.

    "initial" means the projected initial datum and "rhs" the right-hand
    side held a NaN or infinity, so nothing was solved; the other stages
    missed their tolerance after one refinement.
    `residual` is the normwise backward error against the interval's block
    matrix, applied block by block (`IntervalOperator.apply`), not assembled.
    """

    def __init__(self, message, residual=None, interval=None, stage=None):
        self.residual = residual
        self.interval = interval
        self.stage = stage
        if residual is not None:
            message = f"{message} (backward error {residual:.3e})"
        super().__init__(message)
