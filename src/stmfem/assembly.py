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
`_order`.  The cell geometry under that rule (physical points, Jacobians,
determinants) is mapped once per mesh and order and shared, read-only, by
every consumer.  M_D, B and the flux moments read only that geometry and
the reference flux basis: under the contravariant Piola map
v = s J v_ref / det J (s the cell's orientation signs) an entry of M_D on a
cell is s_a s_b sum_q v_ref_a^T K_q v_ref_b with the 2 x 2 point weight
K_q = w_q J^T D^{-1} J / det J, det J cancels in <div v_j, w_i>, so every
cell's block of B is one reference block times the cell's signs, and
<g, v_i> = s_i sum_q w_q (J^T g) . v_ref_i.  No per-cell flux table is
built for them.

`evaluation` builds the dense per-cell quadrature tables, (cells, points,
local dofs), that the loads, the scalar projection and the error norms
read, one set per space and order, built on first use and kept on the
space; in a run the flux tables are built by `mms.error_q_V` alone.  Every
consumer applies them with batched products over the cells: forward to
evaluate a function, transposed to integrate against the basis.  The scalar
table is the same on every cell, so it is applied as one product with all
cells' data instead.

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


# cell_geometry under the order x order Gauss rule, by mesh and order; the
# arrays are read-only (exact fields may cache values at the points), and a
# mesh's entries go with it
_GEOMETRY = weakref.WeakKeyDictionary()


def _mesh_geometry(mesh, order):
    """cell_geometry of the mesh under tensor_unit(order), mapped once."""
    by_order = _GEOMETRY.setdefault(mesh, {})
    if order not in by_order:
        geometry = cell_geometry(mesh, tensor_unit(order))
        for array in geometry:
            array.flags.writeable = False
        by_order[order] = geometry
    return by_order[order]


def piola_values(space, rule, geometry=None):
    """Signed physical flux basis values per cell, plus divergence and geometry.

    Returns (values, divs, geometry): values (nc, nq, 2, n_local), the x and
    y rows of each point, carry the Piola weight and orientation signs; divs
    (nc, nq, n_local) carry the 1/det J factor and signs.
    """
    if geometry is None:
        geometry = cell_geometry(space.mesh, rule)
    _, J, det = geometry
    # J @ ref_vals at every point of every cell, in one batched product
    vals = np.matmul(J, space.ref.tabulate(rule.points).transpose(0, 2, 1))
    vals /= det[:, :, None, None]
    vals *= space.cell_signs[:, None, None, :]
    divs = space.ref.tabulate_div(rule.points)[None, :, :] / det[:, :, None]
    divs *= space.cell_signs[:, None, :]
    return vals, divs, geometry


@dataclass(frozen=True)
class Evaluation:
    """Quadrature tables of one space under one tensor rule, over all cells.

    Quadrature points are numbered cell by cell.  The tables are dense per
    cell: `values[c]` maps the coefficients of cell c's local dofs
    (`cell_dofs[c]`) to the function's values at the cell's points; for
    fluxes these are signed Piola values with the x and y rows of a point
    interleaved, and `divs[c]` maps them to the divergence (None for
    scalars).  A scalar table is the same on every cell, so `values` is a
    read-only broadcast of the reference table, and a table with stride 0
    over the cells is applied as one product of its first cell's table with
    all cells' data.
    """

    rule: TensorRule2D     # the reference rule the tables were built from
    points: np.ndarray     # (nc * nq, 2) physical points, read-only
    weights: np.ndarray    # (nc * nq,) rule weight times det J
    cell_dofs: np.ndarray  # (nc, n_local) global dof of each table column
    n_dofs: int
    values: np.ndarray     # (nc, nq, n_local) or (nc, 2 * nq, n_local)
    divs: np.ndarray = None  # (nc, nq, n_local)

    def apply(self, table, coeffs):
        """The table applied to global coefficients (n_dofs, k): (nc, rows, k)."""
        if table.strides[0] == 0:    # one table for all cells: one product
            nc, rows, nl = table.shape
            local = coeffs.T[:, self.cell_dofs].reshape(-1, nl)  # (k nc, nl)
            return (local @ table[0].T).reshape(-1, nc, rows).transpose(1, 2, 0)
        local = np.stack([column[self.cell_dofs] for column in coeffs.T], axis=-1)
        return np.matmul(table, local)

    def apply_transposed(self, table, data):
        """The transposed table applied to point data, summed into the global
        dofs: (n_dofs, k).  data holds k numbers per table row, ordered by
        cell, row and column: (nc * rows, k), or any shape of that size."""
        nc, rows, _ = table.shape
        data = data.reshape(nc * rows, -1)
        if table.strides[0] == 0:    # one table for all cells: one product
            local = data.T.reshape(-1, rows) @ table[0]          # (k nc, nl)
            columns = local.reshape(data.shape[1], -1)
        else:
            local = np.matmul(table.transpose(0, 2, 1), data.reshape(nc, rows, -1))
            columns = local.reshape(self.cell_dofs.size, -1).T
        dofs = self.cell_dofs.ravel()
        return np.column_stack([
            np.bincount(dofs, weights=column, minlength=self.n_dofs)
            for column in columns])


def _order(space, order=None):
    """The Gauss points per direction of the spatial rule: p + 3 unless
    `order` is given.  The one place that picks the default, which serves
    the matrices, loads, projections, interpolant and error norms."""
    return space.p + 3 if order is None else order


def _rule_and_geometry(space, order=None):
    """The order x order tensor rule (default `_order`) and the cell geometry
    of the space's mesh under it."""
    order = _order(space, order)
    return tensor_unit(order), _mesh_geometry(space.mesh, order)


def evaluation(space, order=None):
    """The space's tables under the order x order Gauss rule, cached by order
    (default `_order`)."""
    order = _order(space, order)
    if order in space.evaluations:
        return space.evaluations[order]
    rule, geometry = _rule_and_geometry(space, order)
    phys, _, det = geometry
    if isinstance(space, FluxSpace):
        vals, divs, _ = piola_values(space, rule, geometry)
        values = vals.reshape(len(vals), -1, vals.shape[-1])
    else:
        phi = space.ref.tabulate(rule.points)
        values = np.broadcast_to(phi, det.shape[:1] + phi.shape)
        divs = None
    ev = Evaluation(rule=rule, points=phys.reshape(-1, 2),
                    weights=(rule.weights[None, :] * det).ravel(),
                    cell_dofs=space.cell_dofs, n_dofs=space.n_dofs,
                    values=values, divs=divs)
    space.evaluations[order] = ev
    return ev


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
    ev = evaluation(space)
    diagonal = np.empty(space.n_dofs)
    diagonal[ev.cell_dofs] = (ev.weights.reshape(len(ev.cell_dofs), -1)
                              @ ev.values[0] ** 2)
    return diagonal


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
    rule, (phys, J, det) = _rule_and_geometry(space)
    nc, nq = det.shape
    ref = space.ref.tabulate(rule.points)                     # (nq, nl, 2)
    nl = ref.shape[1]
    inverse = coefficient.inverse_at(phys.reshape(-1, 2)).reshape(J.shape)
    weights = np.matmul(J.transpose(0, 1, 3, 2), np.matmul(inverse, J))
    weights *= (rule.weights / det)[:, :, None, None]
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
    rule, (_, _, det) = _rule_and_geometry(flux_space)
    ref_divs = flux_space.ref.tabulate_div(rule.points)       # (nq, nl)
    block = (rule.weights[:, None]
             * scalar_space.ref.tabulate(rule.points)).T @ ref_divs
    local = block * flux_space.cell_signs[:, None, :]
    # ||div v_j||^2 = sum over its cells of sum_q w_q div v_ref_j^2 / det J
    div_norms = np.bincount(flux_space.cell_dofs.ravel(),
                            weights=((rule.weights / det) @ ref_divs**2).ravel(),
                            minlength=flux_space.n_dofs)
    return _summed(local, scalar_space.cell_dofs, flux_space.cell_dofs,
                   (scalar_space.n_dofs, flux_space.n_dofs), len(rule.weights),
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


def assemble_load(space, f, times):
    """Load vectors <f(., t), w_i>, one column per time t in `times`."""
    ev = evaluation(space)
    data = sample_in_time(f, ev.points, times) * ev.weights
    return ev.apply_transposed(ev.values, data.T)


def assemble_flux_moments(space, g):
    """Vector of <g, v_i> for a vector-valued g; RHS of an L2 flux projection.

    A cell's moment of v_i is s_i sum_q w_q (J^T g) . v_ref_i.
    """
    rule, (phys, J, _) = _rule_and_geometry(space)
    nc, nq = J.shape[:2]
    ref = space.ref.tabulate(rule.points)                     # (nq, nl, 2)
    values = np.asarray(g(phys.reshape(-1, 2))).reshape(nc, nq, 1, 2)
    pulled = np.matmul(values, J)[:, :, 0, :]                 # (J^T g)^T
    pulled *= rule.weights[:, None]
    local = pulled.reshape(nc, -1) @ ref.transpose(0, 2, 1).reshape(2 * nq, -1)
    local *= space.cell_signs
    return np.bincount(space.cell_dofs.ravel(), weights=local.ravel(),
                       minlength=space.n_dofs)


def l2_project_scalar(g, space):
    """L2 projection onto the scalar space, whose mass is diagonal; returns
    coefficients."""
    if not isinstance(space, ScalarSpace):
        raise TypeError("l2_project_scalar needs a scalar space")
    ev = evaluation(space)
    moments = ev.apply_transposed(ev.values, ev.weights * g(ev.points))[:, 0]
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
    mesh = space.mesh
    order = _order(space, order)
    rule_1d = gauss_legendre_unit(order)
    edge_w, interior_w = space.ref.dof_weights(rule_1d)
    coef = np.empty(space.n_dofs)
    start, end, normal = mesh.edge_frames()
    pts = start[:, None, :] + rule_1d.points[:, None] * (end - start)[:, None, :]
    gn = np.einsum("eqd,ed->eq", g(pts.reshape(-1, 2)).reshape(pts.shape), normal)
    length = np.linalg.norm(end - start, axis=1)
    coef[:space.n_edge_dofs] = (length[:, None] * (gn @ edge_w)).ravel()
    if space.ref.n_interior_dofs:
        phys, J, _ = _mesh_geometry(mesh, order)
        gv = g(phys.reshape(-1, 2)).reshape(phys.shape)
        # inverse Piola: det J * J^{-1} g
        ghat = np.empty_like(gv)
        ghat[..., 0] = J[..., 1, 1] * gv[..., 0] - J[..., 0, 1] * gv[..., 1]
        ghat[..., 1] = -J[..., 1, 0] * gv[..., 0] + J[..., 0, 0] * gv[..., 1]
        coef[space.n_edge_dofs:] = np.einsum("iqd,cqd->ci", interior_w,
                                             ghat).ravel()
    return coef
