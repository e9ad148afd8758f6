"""Exception types shared across the library."""


class InvalidMeshError(Exception):
    """A cell map has a nonpositive Jacobian determinant somewhere."""

    def __init__(self, cell, min_det):
        self.cell = cell
        self.min_det = min_det
        super().__init__(
            f"cell {cell} is invalid: min det J = {min_det:.6e} <= 0"
        )


class InvalidCoefficientError(Exception):
    """The diffusion tensor failed a symmetry or positivity check."""


class UnsupportedConfigurationError(Exception):
    """A requested problem configuration is outside what the library supports."""


class SolverFailureError(Exception):
    """A solve failed at `interval`, in `stage` rhs/direct/schur/gmres.

    "rhs" means the right-hand side held a NaN or infinity, so nothing was
    solved; the other stages missed their tolerance.
    """

    def __init__(self, message, residual=None, iterations=None, interval=None,
                 stage=None):
        self.residual = residual
        self.iterations = iterations
        self.interval = interval
        self.stage = stage
        if residual is not None:
            message = f"{message} (relative residual {residual:.3e})"
        super().__init__(message)
