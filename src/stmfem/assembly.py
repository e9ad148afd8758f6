"""Sparse assembly of the scheme's bilinear forms and load vectors.

Three time-independent matrices drive the whole run:

* M_W  scalar mass            <w_j, w_i>          (block diagonal, SPD)
* M_D  weighted flux mass     <D^{-1} v_j, v_i>   (SPD)
* B    divergence coupling    <div v_j, w_i>      (shared with its transpose)

All integrals use tensor Gauss rules; on bilinear cell maps the integrands
of M_W and M_D are rational, so the rule order is chosen one notch above
polynomial exactness: (p+3) points per direction.  `evaluation` is the one
place that picks that rule; M_W, M_D, B, the loads, the projections and the
error norms read one set of tables per space and order, built on first use
and kept on the space.  Each matrix is a Galerkin product L^T K R of two
tables and a pointwise weight; in B = E^T diag(w) D the det J of the
weights cancels the 1/det J of the flux divergences D.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import InvalidCoefficientError, InvalidMeshError
from .mesh import bilinear_map
from .quadrature import TensorRule2D, tensor_unit
from .spaces import FluxSpace


class CoefficientField:
    """Symmetric positive definite diffusion tensor D(x)."""

    def __init__(self, matrix, isotropic_value=None):
        self.matrix = matrix          # callable: (n, 2) points -> (n, 2, 2)
        self.isotropic_value = isotropic_value

    @classmethod
    def identity(cls):
        return cls.isotropic(1.0)

    @classmethod
    def isotropic(cls, d):
        if not 0.0 < d < np.inf:  # NaN fails too
            raise InvalidCoefficientError(
                f"isotropic diffusion must satisfy 0 < d < inf, got {d}")

        def matrix(x):
            x = np.atleast_2d(x)
            out = np.zeros((len(x), 2, 2))
            out[:, 0, 0] = d
            out[:, 1, 1] = d
            return out

        return cls(matrix, isotropic_value=float(d))

    def inverse_at(self, points):
        """D(x)^{-1} at points, validating finiteness, symmetry and positivity."""
        D = self.matrix(points)
        if not np.all(np.isfinite(D)):
            raise InvalidCoefficientError("diffusion tensor is not finite")
        if not np.max(np.abs(D - np.transpose(D, (0, 2, 1)))) <= 1e-12:
            raise InvalidCoefficientError("diffusion tensor is not symmetric")
        tr = D[:, 0, 0] + D[:, 1, 1]
        det = D[:, 0, 0] * D[:, 1, 1] - D[:, 0, 1] * D[:, 1, 0]
        if not (np.all(det > 0.0) and np.all(tr > 0.0)):
            raise InvalidCoefficientError(
                "diffusion tensor is not positive definite at a quadrature point"
            )
        inv = np.empty_like(D)
        inv[:, 0, 0] = D[:, 1, 1] / det
        inv[:, 1, 1] = D[:, 0, 0] / det
        inv[:, 0, 1] = -D[:, 0, 1] / det
        inv[:, 1, 0] = -D[:, 1, 0] / det
        return inv


def cell_geometry(mesh, rule):
    """Map a tensor rule through every cell at once.

    Returns (phys, J, det): physical points (nc, nq, 2), Jacobians
    (nc, nq, 2, 2) and determinants (nc, nq).  Raises if any determinant is
    not strictly positive.
    """
    phys, J, det = bilinear_map(mesh.cell_corner_array(), rule.points)
    if np.any(det <= 0.0):
        bad = int(np.argwhere(np.any(det <= 0.0, axis=1))[0][0])
        raise InvalidMeshError(bad, float(det[bad].min()))
    return phys, J, det


def piola_values(space, rule, geometry=None):
    """Signed physical flux basis values per cell, plus divergence and geometry.

    Returns (values, divs, geometry): values (nc, nq, n_local, 2) carry the
    Piola weight and orientation signs; divs (nc, nq, n_local) carry the
    1/det J factor and signs.
    """
    mesh = space.mesh
    if geometry is None:
        geometry = cell_geometry(mesh, rule)
    _, J, det = geometry
    ref_vals = space.ref.tabulate(rule.points)      # (nq, nl, 2)
    ref_divs = space.ref.tabulate_div(rule.points)  # (nq, nl)
    vals = np.einsum("cqab,qlb->cqla", J, ref_vals) / det[:, :, None, None]
    vals *= space.cell_signs[:, None, :, None]
    divs = ref_divs[None, :, :] / det[:, :, None]
    divs = divs * space.cell_signs[:, None, :]
    return vals, divs, geometry


@dataclass(frozen=True)
class Evaluation:
    """Quadrature tables of one space under one tensor rule, over all cells.

    Quadrature points are numbered cell by cell.  `values` maps global
    coefficients to the function's values at the points; for fluxes these
    are signed Piola values with the x and y rows of a point interleaved, and
    `divs` maps them to the divergence (None for scalars).
    """

    rule: TensorRule2D     # the reference rule the tables were built from
    points: np.ndarray     # (nc * nq, 2) physical points
    weights: np.ndarray    # (nc * nq,) rule weight times det J
    values: sp.csr_matrix  # (nc * nq, n_dofs) or (2 * nc * nq, n_dofs)
    divs: sp.csr_matrix = None


def _cell_operator(tables, cell_dofs, n_dofs):
    """CSR operator from per-cell tables (nc, ..., n_local) on global dofs."""
    nc, nl = cell_dofs.shape
    data = tables.reshape(-1, nl)
    indices = np.repeat(cell_dofs, len(data) // nc, axis=0)
    indptr = np.arange(0, data.size + 1, nl)
    return sp.csr_matrix((data.ravel(), indices.ravel(), indptr),
                         shape=(len(data), n_dofs))


def evaluation(space, order=None):
    """The space's tables under the order x order Gauss rule, cached by order.

    The one place that picks the spatial rule: the default order p + 3
    serves the matrices, loads, projections and error norms.
    """
    order = space.p + 3 if order is None else order
    if order in space.evaluations:
        return space.evaluations[order]
    rule = tensor_unit(order)
    geometry = cell_geometry(space.mesh, rule)
    phys, _, det = geometry
    dofs, n = space.cell_dofs, space.n_dofs
    if isinstance(space, FluxSpace):
        vals, divs, _ = piola_values(space, rule, geometry)
        values = _cell_operator(vals.transpose(0, 1, 3, 2), dofs, n)
        divs = _cell_operator(divs, dofs, n)
    else:
        phi = space.ref.tabulate(rule.points)
        values = _cell_operator(np.broadcast_to(phi, det.shape + phi.shape[1:]),
                                dofs, n)
        divs = None
    ev = Evaluation(rule=rule, points=phys.reshape(-1, 2),
                    weights=(rule.weights[None, :] * det).ravel(),
                    values=values, divs=divs)
    space.evaluations[order] = ev
    return ev


def _galerkin(left, weight, right):
    """The matrix L^T K R of two tables L, R and a point weight K."""
    return (left.T @ (weight @ right)).tocsr()


def assemble_mass_scalar(space):
    """Scalar mass matrix <w_j, w_i>; block diagonal over cells."""
    ev = evaluation(space)
    return _galerkin(ev.values, sp.diags(ev.weights), ev.values)


def assemble_weighted_mass_flux(space, coefficient):
    """Weighted flux mass matrix <D^{-1} v_j, v_i>."""
    ev = evaluation(space)
    npts = len(ev.weights)
    blocks = ev.weights[:, None, None] * coefficient.inverse_at(ev.points)
    weight = sp.bsr_matrix((blocks, np.arange(npts), np.arange(npts + 1)),
                           shape=(2 * npts, 2 * npts))
    return _galerkin(ev.values, weight, ev.values)


def assemble_div_coupling(flux_space, scalar_space):
    """Divergence coupling B[i, j] = <div v_j, w_i> (scalar rows, flux columns).

    Reads the scalar values and flux divergences of the two spaces'
    `evaluation` tables, which share points and weights when the spaces
    share a mesh and a degree; anything else raises ValueError.
    """
    if (flux_space.mesh is not scalar_space.mesh
            or flux_space.p != scalar_space.p):
        raise ValueError("flux and scalar spaces must share a mesh and degree")
    scalar = evaluation(scalar_space)
    return _galerkin(scalar.values, sp.diags(scalar.weights),
                     evaluation(flux_space).divs)


def sample_in_time(f, points, times, vector=False):
    """f at n points and a 1-D array of times: (len(times), n) or, for a
    vector field, (len(times), n, 2); any other shape raises ValueError."""
    if np.ndim(times) != 1:
        raise ValueError(f"times must be a 1-D array, got shape {np.shape(times)}")
    values = np.asarray(f(points, times))
    expected = (len(times), len(points)) + (2,) * vector
    if values.shape != expected:
        raise ValueError(f"time-dependent callable gave shape {values.shape}, "
                         f"expected (len(t), n{', 2' * vector}) = {expected}")
    return values


def assemble_load(space, f, times):
    """Load vectors <f(., t), w_i>, one column per time t in `times`."""
    ev = evaluation(space)
    return ev.values.T @ (sample_in_time(f, ev.points, times) * ev.weights).T


def assemble_flux_moments(space, g):
    """Vector of <g, v_i> for a vector-valued g; RHS of an L2 flux projection."""
    ev = evaluation(space)
    return ev.values.T @ (ev.weights[:, None] * g(ev.points)).ravel()


def dump_coo(matrix, path):
    """Write a sparse matrix as `row col value` lines (debug aid)."""
    coo = matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {float(v)!r}\n")
