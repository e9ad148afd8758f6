"""Sparse assembly of the scheme's forms and loads; projections and interpolant.

Three time-independent matrices drive the whole run:

* M_W  scalar mass            <w_j, w_i>          (diagonal, SPD)
* M_D  weighted flux mass     <D^{-1} v_j, v_i>   (SPD)
* B    divergence coupling    <div v_j, w_i>      (shared with its transpose)

M_W is diagonal on every bilinear mesh: the scalar basis is Lagrange at the
(p+1) Gauss nodes per direction, which integrate w_i w_j det J (degree
2p+1 per direction) exactly, so it is assembled as that diagonal.

All integrals use tensor Gauss rules; on bilinear cell maps the integrand
of M_D is rational, so the rule order is chosen one notch above
polynomial exactness: (p+3) points per direction, picked in one place,
`cell_quadrature`.  It maps the rule through the cells once per mesh and
order (physical points, w det J, Jacobians, determinants) into a read-only
`Quadrature` that every consumer shares; the reference elements tabulate
their bases at the rule's points once per order.  Those two are all any
integral reads.

The scalar dofs are numbered cell by cell, so a scalar integral or
evaluation is a reshape of the coefficients or point data to cells times
one reference table.  M_D, B and the flux moments need no per-cell flux
table either: under the contravariant Piola map v = s J v_ref / det J
(s the cell's orientation signs) an entry of M_D on a cell is
s_a s_b sum_q v_ref_a^T K_q v_ref_b with the 2 x 2 point weight
K_q = w_q J^T D^{-1} J / det J, det J cancels in <div v_j, w_i>, so every
cell's block of B is one reference block times the cell's signs, and
<g, v_i> = s_i sum_q w_q (J^T g) . v_ref_i.  Only the flux error norm
builds dense per-cell flux tables (`piola_values`), and drops them when it
returns.

M_D and B are summed from their cells' blocks once, through COO.  An entry
of either is a sum of n = 2 (p+3)^2 point terms, so by Cauchy-Schwarz its
rounding error is at most gamma_n sqrt(d_i d_j), with
gamma_n = n u / (1 - n u) and d the squared norms of the two basis
functions under the rule.  Entries within that bound of zero cannot be told
from zero (most are the residue of integrals that vanish), so they are not
stored.
"""

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import InvalidCoefficientError, InvalidMeshError
from .mesh import bilinear_map
from .quadrature import TensorRule2D, gauss_legendre_unit, tensor_unit
from .spaces import FluxSpace, ScalarSpace

# SuperLU options for the symmetric systems the package factors: the flux
# mass and the condensed edge systems of the interval solvers.  A minimum
# degree ordering of A + A^T with diagonal pivots about halves the fill of
# the default COLAMD ordering with partial pivoting.
SYMMETRIC_SPLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options=dict(SymmetricMode=True))


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
        # symmetric to 8 units of roundoff of the point's largest entry, at
        # any scale: R diag(d) R^T built by products is off by about one
        ulp = np.finfo(float).eps * np.max(np.abs(D), axis=(1, 2))
        if not np.all(np.abs(D[:, 0, 1] - D[:, 1, 0]) <= 8 * ulp):
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
        raise InvalidMeshError(bad, float(det[bad].min()), "quadrature")
    return phys, J, det


@dataclass(frozen=True)
class Quadrature:
    """The order x order Gauss rule mapped through every cell of a mesh.

    Points are numbered cell by cell, nq = order^2 to a cell.  The arrays
    are read-only through their bases, so exact fields may cache their
    values at `points` (`mms._last_read_only`).
    """

    order: int
    rule: TensorRule2D
    points: np.ndarray   # (nc * nq, 2) physical points
    weights: np.ndarray  # (nc * nq,) rule weight times det J
    J: np.ndarray        # (nc, nq, 2, 2)
    det: np.ndarray      # (nc, nq)


# cell_quadrature's records by mesh and order; a mesh's entries go with it
_QUADRATURES = weakref.WeakKeyDictionary()


def cell_quadrature(space, order=None):
    """The space's mesh under the order x order Gauss rule, mapped once per
    mesh and order and shared by every space on the mesh.  The order is
    p + 3 unless given: the one place that picks the default, which serves
    the matrices, loads, projections, interpolant and error norms."""
    order = space.p + 3 if order is None else order
    by_order = _QUADRATURES.setdefault(space.mesh, {})
    if order not in by_order:
        rule = tensor_unit(order)
        phys, J, det = cell_geometry(space.mesh, rule)
        weights = rule.weights * det
        for array in (phys, J, det, weights):
            array.flags.writeable = False
        by_order[order] = Quadrature(order, rule, phys.reshape(-1, 2),
                                     weights.ravel(), J, det)
    return by_order[order]


def piola_values(space, quad):
    """Signed physical flux basis values and divergences at quad's points.

    Returns (values, divs): values (nc, nq, 2, n_local), the x and y rows of
    each point, carry the Piola weight and orientation signs; divs
    (nc, nq, n_local) carry the 1/det J factor and signs.
    """
    # J @ ref_vals at every point of every cell, in one batched product
    vals = np.matmul(quad.J, space.ref.rule_values(quad.order).transpose(0, 2, 1))
    vals /= quad.det[:, :, None, None]
    vals *= space.cell_signs[:, None, None, :]
    divs = space.ref.rule_divs(quad.order)[None, :, :] / quad.det[:, :, None]
    divs *= space.cell_signs[:, None, :]
    return vals, divs


def _summed(local, row_dofs, col_dofs, shape, n_points, norms=None):
    """The matrix summing the cells' blocks local (cells, rows, cols) into
    the global dofs row_dofs (cells, rows) and col_dofs (cells, cols), built
    once from COO.

    An entry sums the point terms of its two cells' integrals under a rule
    of `n_points` points.  `norms` holds the squared norms (d_i, d_j) of the
    row and column basis functions, by default the matrix's own diagonal
    twice; entries within their rounding bound of zero are dropped.
    """
    rows = np.broadcast_to(row_dofs[:, :, None], local.shape)
    cols = np.broadcast_to(col_dofs[:, None, :], local.shape)
    matrix = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                           shape=shape).tocsr()
    n = 2 * n_points
    u = np.finfo(float).eps / 2
    gamma = n * u / (1.0 - n * u)
    d_rows, d_cols = (matrix.diagonal(),) * 2 if norms is None else norms
    entry_rows = np.repeat(np.arange(shape[0]), np.diff(matrix.indptr))
    bound = gamma * np.sqrt(d_rows[entry_rows] * d_cols[matrix.indices])
    matrix.data[np.abs(matrix.data) <= bound] = 0.0
    matrix.eliminate_zeros()
    return matrix


def _mass_scalar_diagonal(space):
    """The diagonal of M_W, sum_q w_q det J w_i(x_q)^2, which is all it stores."""
    quad = cell_quadrature(space)
    return (quad.weights.reshape(quad.det.shape)
            @ space.ref.rule_values(quad.order) ** 2).ravel()


def assemble_mass_scalar(space):
    """Scalar mass matrix <w_j, w_i>; diagonal, stored as CSR."""
    n = space.n_dofs
    return sp.csr_matrix((_mass_scalar_diagonal(space), np.arange(n),
                          np.arange(n + 1)), shape=(n, n))


def assemble_weighted_mass_flux(space, coefficient):
    """Weighted flux mass matrix <D^{-1} v_j, v_i>.

    A cell's block is s_a s_b sum_q v_ref_a^T K_q v_ref_b: the cells' 2 x 2
    point weights K_q = w_q J^T D^{-1} J / det J, contracted with the
    reference products v_ref_a,l v_ref_b,m in one product over (q, l, m).
    """
    quad = cell_quadrature(space)
    J = quad.J
    nc, nq = quad.det.shape
    ref = space.ref.rule_values(quad.order)                   # (nq, nl, 2)
    nl = ref.shape[1]
    inverse = coefficient.inverse_at(quad.points).reshape(J.shape)
    weights = np.matmul(J.transpose(0, 1, 3, 2), np.matmul(inverse, J))
    weights *= (quad.rule.weights / quad.det)[:, :, None, None]
    products = np.einsum("qal,qbm->qlmab", ref, ref).reshape(4 * nq, nl * nl)
    local = (weights.reshape(nc, 4 * nq) @ products).reshape(nc, nl, nl)
    local *= space.cell_signs[:, :, None]
    local *= space.cell_signs[:, None, :]
    return _summed(local, space.cell_dofs, space.cell_dofs,
                   (space.n_dofs, space.n_dofs), nq)


def assemble_div_coupling(flux_space, scalar_space):
    """Divergence coupling B[i, j] = <div v_j, w_i> (scalar rows, flux columns).

    det J cancels, so a cell's block is the reference block
    sum_q w_q w_i div v_ref_j times the cell's flux signs.  The two spaces
    must share a mesh and a degree; anything else raises ValueError.
    """
    if (flux_space.mesh is not scalar_space.mesh
            or flux_space.p != scalar_space.p):
        raise ValueError("flux and scalar spaces must share a mesh and degree")
    quad = cell_quadrature(flux_space)
    weights = quad.rule.weights
    ref_divs = flux_space.ref.rule_divs(quad.order)           # (nq, nl)
    block = (weights[:, None]
             * scalar_space.ref.rule_values(quad.order)).T @ ref_divs
    local = block * flux_space.cell_signs[:, None, :]
    # ||div v_j||^2 = sum over its cells of sum_q w_q div v_ref_j^2 / det J
    div_norms = np.bincount(flux_space.cell_dofs.ravel(),
                            weights=((weights / quad.det) @ ref_divs**2).ravel(),
                            minlength=flux_space.n_dofs)
    return _summed(local, scalar_space.cell_dofs, flux_space.cell_dofs,
                   (scalar_space.n_dofs, flux_space.n_dofs), len(weights),
                   (_mass_scalar_diagonal(scalar_space), div_norms))


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


def scalar_values(space, quad, coeffs):
    """The k scalar functions with coefficient rows coeffs (k, n_dofs) at
    quad's points: (k, nc * nq).  The dofs are numbered cell by cell
    (`cell_dofs` is arange(n_dofs).reshape(nc, n_local)), so this and
    `scalar_moments` are one product of all cells' data with the reference
    table."""
    phi = space.ref.rule_values(quad.order)                   # (nq, nl)
    local = coeffs.reshape(-1, phi.shape[1]) @ phi.T
    return local.reshape(len(coeffs), -1)


def scalar_moments(space, quad, values):
    """<g_k, w_i> for point values (k, nc * nq) of k functions g_k: (k, n_dofs)."""
    phi = space.ref.rule_values(quad.order)                   # (nq, nl)
    local = (values * quad.weights).reshape(-1, len(phi)) @ phi
    return local.reshape(len(values), -1)


def assemble_load(space, f, times):
    """Load vectors <f(., t), w_i>, one column per time t in `times`."""
    quad = cell_quadrature(space)
    return scalar_moments(space, quad, sample_in_time(f, quad.points, times)).T


def assemble_flux_moments(space, g):
    """Vector of <g, v_i> for a vector-valued g; RHS of an L2 flux projection.

    A cell's moment of v_i is s_i sum_q w_q (J^T g) . v_ref_i.
    """
    quad = cell_quadrature(space)
    nc, nq = quad.det.shape
    ref = space.ref.rule_values(quad.order)                   # (nq, nl, 2)
    values = np.asarray(g(quad.points)).reshape(nc, nq, 1, 2)
    pulled = np.matmul(values, quad.J)[:, :, 0, :]            # (J^T g)^T
    pulled *= quad.rule.weights[:, None]
    local = pulled.reshape(nc, -1) @ ref.transpose(0, 2, 1).reshape(2 * nq, -1)
    local *= space.cell_signs
    return np.bincount(space.cell_dofs.ravel(), weights=local.ravel(),
                       minlength=space.n_dofs)


def l2_project_scalar(g, space):
    """L2 projection onto the scalar space, whose mass is diagonal; returns
    coefficients."""
    if not isinstance(space, ScalarSpace):
        raise TypeError("l2_project_scalar needs a scalar space")
    quad = cell_quadrature(space)
    moments = scalar_moments(space, quad, g(quad.points)[None])[0]
    return moments / _mass_scalar_diagonal(space)


def l2_project_flux(g, space):
    """L2 projection onto the flux space by one global mass solve; returns
    coefficients.

    The flux mass is SPD, so it is factored with `SYMMETRIC_SPLU` (minimum
    degree ordering of A + A^T, diagonal pivots).  Where every moment of g
    is zero the projection is zero, and no mass is assembled or factored.
    """
    if not isinstance(space, FluxSpace):
        raise TypeError("l2_project_flux needs a flux space")
    rhs = assemble_flux_moments(space, g)
    if not rhs.any():    # NaN moments are not zero and reach the solve
        return np.zeros(space.n_dofs)
    mass = assemble_weighted_mass_flux(space, CoefficientField.identity())
    return spla.splu(mass.tocsc(), **SYMMETRIC_SPLU).solve(rhs)


def rt_interpolate(g, space, order=None):
    """Canonical Raviart-Thomas interpolant, from edge and interior moments;
    returns coefficients.

    Edge moments integrate g . n against shifted Legendre weights along each
    edge (arclength measure); interior moments are taken on the reference
    cell after the inverse Piola pullback, which is exactly what makes the
    divergence of the interpolation error orthogonal to the scalar space.
    Both use `order` Gauss points per direction (p + 3 by default).
    """
    if not isinstance(space, FluxSpace):
        raise TypeError("rt_interpolate needs a flux space")
    quad = cell_quadrature(space, order)
    rule_1d = gauss_legendre_unit(quad.order)
    edge_w, interior_w = space.ref.dof_weights(rule_1d)
    coef = np.empty(space.n_dofs)
    start, end, normal = space.mesh.edge_frames()
    pts = start[:, None, :] + rule_1d.points[:, None] * (end - start)[:, None, :]
    gn = np.einsum("eqd,ed->eq", g(pts.reshape(-1, 2)).reshape(pts.shape), normal)
    length = np.linalg.norm(end - start, axis=1)
    coef[:space.n_edge_dofs] = (length[:, None] * (gn @ edge_w)).ravel()
    if space.ref.n_interior_dofs:
        J = quad.J
        gv = g(quad.points).reshape(J.shape[:-1])
        # inverse Piola: det J * J^{-1} g
        ghat = np.empty_like(gv)
        ghat[..., 0] = J[..., 1, 1] * gv[..., 0] - J[..., 0, 1] * gv[..., 1]
        ghat[..., 1] = -J[..., 1, 0] * gv[..., 0] + J[..., 0, 0] * gv[..., 1]
        coef[space.n_edge_dofs:] = np.einsum("iqd,cqd->ci", interior_w,
                                             ghat).ravel()
    return coef
