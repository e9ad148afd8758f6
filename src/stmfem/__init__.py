"""Space-time solver: continuous Galerkin-Petrov in time, mixed FEM in space."""

from .assembly import (
    CoefficientField,
    l2_project_flux,
    l2_project_scalar,
    rt_interpolate,
)
from .mesh import QuadMesh, distort, h_max, unit_square_mesh, validity_check
from .mms import ManufacturedSolution, eoc, error_q_V, error_u, mms_standard
from .quadrature import gauss_legendre_unit, tensor
from .spaces import build_pair
from .timebasis import TemporalBasis, TimePartition, build_basis
from .timeloop import ProblemData, SpaceTimeSolution, run

__all__ = [
    "CoefficientField",
    "ManufacturedSolution",
    "ProblemData",
    "QuadMesh",
    "SpaceTimeSolution",
    "TemporalBasis",
    "TimePartition",
    "build_basis",
    "build_pair",
    "distort",
    "eoc",
    "error_q_V",
    "error_u",
    "gauss_legendre_unit",
    "h_max",
    "l2_project_flux",
    "l2_project_scalar",
    "mms_standard",
    "rt_interpolate",
    "run",
    "tensor",
    "unit_square_mesh",
    "validity_check",
]
