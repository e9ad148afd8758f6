"""Discrete space pair on quadrilateral meshes: discontinuous tensor-product
scalars and H(div)-conforming Raviart-Thomas fluxes, with their projections.

The scalar space maps by plain composition with the cell map; the flux space
maps by the contravariant Piola transform v = (1/det J) J v_ref, which keeps
normal traces single valued.  Edge degrees of freedom are moments of the
normal component against shifted Legendre polynomials in the global edge
parametrization, so gluing cells only ever needs sign flips:

    local moment = sigma * (-1)^(k * rho) * global moment,

where sigma tracks the normal convention (outward of the lower-index cell)
and rho whether the cell traverses the edge against the global direction.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis1d import (
    LagrangeBasis1D,
    shifted_legendre,
    shifted_legendre_deriv,
)
from .exceptions import InvalidMeshError
from .mesh import validity_check
from .quadrature import gauss_legendre_unit, tensor_unit

MAX_DEGREE = 4

# reference edges: start corner, end corner, outward normal; CCW traversal
_REF_EDGE_START = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_REF_EDGE_END = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
_REF_EDGE_NORMAL = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


class ScalarReference:
    """Tensor-product Lagrange basis of degree p on the reference square.

    Nodes are the (p+1)-point Gauss points per direction; node (i, j) has
    index j * (p + 1) + i (x index fastest).
    """

    def __init__(self, p):
        self.p = p
        self.nodes_1d = gauss_legendre_unit(p + 1).points
        self._basis = LagrangeBasis1D(self.nodes_1d)
        self.n_local = (p + 1) ** 2

    def tabulate(self, points):
        """Basis values at reference points, shape (npts, n_local)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        bx = self._basis.eval(points[:, 0])
        by = self._basis.eval(points[:, 1])
        return np.einsum("ni,nj->nji", bx, by).reshape(len(points), self.n_local)


class RTReference:
    """Raviart-Thomas reference element of degree p on the unit square.

    Shape space Q^{p+1,p} x Q^{p,p+1}; degrees of freedom are p+1 normal
    moments per edge plus 2p(p+1) interior moments.  The nodal basis is the
    dual basis to those functionals, computed once through a generalized
    Vandermonde solve.
    """

    def __init__(self, p):
        self.p = p
        self.n_edge_dofs = p + 1
        self.n_interior_dofs = 2 * p * (p + 1)
        self.n_local = 4 * self.n_edge_dofs + self.n_interior_dofs
        # spanning set indices: (component, degree_x, degree_y)
        span = []
        for a in range(p + 2):
            for b in range(p + 1):
                span.append((0, a, b))
        for a in range(p + 1):
            for b in range(p + 2):
                span.append((1, a, b))
        self._span = span
        assert len(span) == self.n_local
        vandermonde = self._vandermonde()
        cond = np.linalg.cond(vandermonde)
        if cond > 1e12:
            raise RuntimeError(f"reference element ill conditioned: {cond:.2e}")
        self._coeffs = np.linalg.inv(vandermonde)

    def _span_values(self, points):
        """Spanning-set values at points, shape (npts, n_local, 2)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lx = shifted_legendre(self.p + 1, points[:, 0])
        ly = shifted_legendre(self.p + 1, points[:, 1])
        out = np.zeros((len(points), self.n_local, 2))
        for m, (c, a, b) in enumerate(self._span):
            out[:, m, c] = lx[:, a] * ly[:, b]
        return out

    def _span_divs(self, points):
        """Spanning-set divergences at points, shape (npts, n_local)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lx = shifted_legendre(self.p + 1, points[:, 0])
        ly = shifted_legendre(self.p + 1, points[:, 1])
        dlx = shifted_legendre_deriv(self.p + 1, points[:, 0])
        dly = shifted_legendre_deriv(self.p + 1, points[:, 1])
        out = np.empty((len(points), self.n_local))
        for m, (c, a, b) in enumerate(self._span):
            if c == 0:
                out[:, m] = dlx[:, a] * ly[:, b]
            else:
                out[:, m] = lx[:, a] * dly[:, b]
        return out

    def edge_points(self, edge, s):
        """Reference coordinates of parameter values s on edge `edge`."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        a = _REF_EDGE_START[edge]
        b = _REF_EDGE_END[edge]
        return a[None, :] + s[:, None] * (b - a)[None, :]

    def _vandermonde(self):
        p = self.p
        V = np.empty((self.n_local, self.n_local))
        erule = gauss_legendre_unit(p + 2)
        leg = shifted_legendre(p, erule.points)
        row = 0
        for edge in range(4):
            pts = self.edge_points(edge, erule.points)
            vals = self._span_values(pts) @ _REF_EDGE_NORMAL[edge]
            for k in range(p + 1):
                V[row] = np.einsum("q,qm->m", erule.weights * leg[:, k], vals)
                row += 1
        if self.n_interior_dofs:
            irule = tensor_unit(p + 2)
            vals = self._span_values(irule.points)
            lx = shifted_legendre(p, irule.points[:, 0])
            ly = shifted_legendre(p, irule.points[:, 1])
            for a in range(p):
                for b in range(p + 1):
                    w = irule.weights * lx[:, a] * ly[:, b]
                    V[row] = np.einsum("q,qm->m", w, vals[:, :, 0])
                    row += 1
            for a in range(p + 1):
                for b in range(p):
                    w = irule.weights * lx[:, a] * ly[:, b]
                    V[row] = np.einsum("q,qm->m", w, vals[:, :, 1])
                    row += 1
        assert row == self.n_local
        return V

    def tabulate(self, points):
        """Nodal basis values at reference points, shape (npts, n_local, 2)."""
        return np.einsum("nmd,mi->nid", self._span_values(points), self._coeffs)

    def tabulate_div(self, points):
        """Nodal basis reference divergences, shape (npts, n_local)."""
        return self._span_divs(points) @ self._coeffs


@dataclass(frozen=True)
class ScalarSpace:
    """Discontinuous Q^{p,p} space; all DoFs are cell local."""

    mesh: object
    p: int
    ref: ScalarReference
    n_dofs: int
    cell_dofs: np.ndarray  # (nc, (p+1)^2)
    # assembly.evaluation's tables, one entry per quadrature rule
    evaluations: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)


@dataclass(frozen=True)
class FluxSpace:
    """H(div)-conforming Raviart-Thomas space of degree p."""

    mesh: object
    p: int
    ref: RTReference
    n_dofs: int
    n_edge_dofs: int       # global count of edge-moment DoFs
    cell_dofs: np.ndarray  # (nc, n_local)
    cell_signs: np.ndarray  # (nc, n_local), +-1
    # assembly.evaluation's tables, one entry per quadrature rule
    evaluations: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)


@dataclass
class FeFunction:
    """A finite element function: a space plus its global coefficient vector."""

    space: object
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.n_dofs,):
            raise ValueError(
                f"coefficient vector has length {len(self.coefficients)}, "
                f"space has {self.space.n_dofs} DoFs"
            )


def build_pair(mesh, p):
    """Build the (scalar, flux) space pair of degree p on a mesh."""
    if not isinstance(p, (int, np.integer)) or p < 0 or p > MAX_DEGREE:
        raise ValueError(f"degree must be in 0..{MAX_DEGREE}, got {p!r}")
    report = validity_check(mesh)
    if not report.ok:
        raise InvalidMeshError(report.bad_cells[0], report.min_det)

    sref = ScalarReference(p)
    nc = mesh.n_cells
    cell_dofs_s = np.arange(nc * sref.n_local, dtype=np.int64).reshape(nc, sref.n_local)
    scalar = ScalarSpace(mesh=mesh, p=p, ref=sref,
                         n_dofs=nc * sref.n_local, cell_dofs=cell_dofs_s)

    fref = RTReference(p)
    ne = mesh.n_edges
    ned = fref.n_edge_dofs
    nint = fref.n_interior_dofs
    n_dofs = ne * ned + nc * nint
    # local edge l of a cell carries its global edge's moments, flipped by
    # sigma where the cell is the higher-index neighbour, and by (-1)^k for
    # moment k where the cell runs the edge from its high vertex to its low one
    edges = mesh.cell_edges
    sigma = np.where(mesh.edge_cells[edges, 0] == np.arange(nc)[:, None], 1.0, -1.0)
    against = mesh.cells > np.roll(mesh.cells, -1, axis=1)
    parity = np.where(against[:, :, None], (-1.0) ** np.arange(ned), 1.0)
    cell_dofs = np.hstack([
        (edges[:, :, None] * ned + np.arange(ned)).reshape(nc, 4 * ned),
        ne * ned + np.arange(nc * nint, dtype=np.int64).reshape(nc, nint)])
    cell_signs = np.hstack([(sigma[:, :, None] * parity).reshape(nc, 4 * ned),
                            np.ones((nc, nint))])
    flux = FluxSpace(mesh=mesh, p=p, ref=fref, n_dofs=n_dofs,
                     n_edge_dofs=ne * ned, cell_dofs=cell_dofs,
                     cell_signs=cell_signs)
    return scalar, flux


def eval_scalar(f, cell, xhat):
    """Evaluate a scalar FE function at reference points of one cell."""
    if not isinstance(f.space, ScalarSpace):
        raise TypeError("eval_scalar needs a function in a scalar space")
    vals = f.space.ref.tabulate(xhat)
    return vals @ f.coefficients[f.space.cell_dofs[cell]]


def eval_flux(f, cell, xhat):
    """Evaluate a flux FE function (Piola mapped) at reference points."""
    if not isinstance(f.space, FluxSpace):
        raise TypeError("eval_flux needs a function in a flux space")
    space = f.space
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    ref_vals = space.ref.tabulate(xhat)
    local = space.cell_signs[cell] * f.coefficients[space.cell_dofs[cell]]
    vhat = np.einsum("nid,i->nd", ref_vals, local)
    J, det = space.mesh.cell_map(cell).jacobian(xhat)
    return np.einsum("nab,nb->na", J, vhat) / det[:, None]


def eval_div_flux(f, cell, xhat):
    """Divergence of a flux FE function: (1/det J) * reference divergence."""
    if not isinstance(f.space, FluxSpace):
        raise TypeError("eval_div_flux needs a function in a flux space")
    space = f.space
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    ref_divs = space.ref.tabulate_div(xhat)
    local = space.cell_signs[cell] * f.coefficients[space.cell_dofs[cell]]
    _, det = space.mesh.cell_map(cell).jacobian(xhat)
    return (ref_divs @ local) / det


def l2_project_scalar(g, space, rule=None):
    """L2 projection onto the scalar space; cell-by-cell Gram solves."""
    if not isinstance(space, ScalarSpace):
        raise TypeError("l2_project_scalar needs a scalar space")
    from . import assembly  # local import to stay cycle free

    if rule is None:
        rule = tensor_unit(space.p + 3)
    ev = assembly.evaluation(space, rule)
    phi = space.ref.tabulate(rule.points)
    wdet = ev.weights.reshape(space.mesh.n_cells, -1)
    gram = np.einsum("cq,qi,qj->cij", wdet, phi, phi)
    rhs = ev.values.T @ (ev.weights * g(ev.points))
    local = np.linalg.solve(gram, rhs[space.cell_dofs][:, :, None])[:, :, 0]
    coef = np.empty(space.n_dofs)
    coef[space.cell_dofs] = local
    return FeFunction(space=space, coefficients=coef)


def l2_project_flux(g, space, rule=None):
    """L2 projection onto the flux space; one global mass solve."""
    if not isinstance(space, FluxSpace):
        raise TypeError("l2_project_flux needs a flux space")
    from . import assembly
    from scipy.sparse.linalg import spsolve

    mass = assembly.assemble_weighted_mass_flux(
        space, assembly.CoefficientField.identity(), rule)
    rhs = assembly.assemble_flux_moments(space, g, rule)
    coef = spsolve(mass.tocsc(), rhs)
    return FeFunction(space=space, coefficients=coef)


def rt_interpolate(g, space, rule_1d=None, rule_2d=None):
    """Canonical Raviart-Thomas interpolant from edge and interior moments.

    Edge moments integrate g . n against shifted Legendre weights along each
    edge (arclength measure); interior moments are taken on the reference
    cell after the inverse Piola pullback, which is exactly what makes the
    divergence of the interpolation error orthogonal to the scalar space.
    """
    if not isinstance(space, FluxSpace):
        raise TypeError("rt_interpolate needs a flux space")
    mesh = space.mesh
    p = space.p
    if rule_1d is None:
        rule_1d = gauss_legendre_unit(p + 3)
    if rule_2d is None:
        rule_2d = tensor_unit(p + 3)
    coef = np.empty(space.n_dofs)
    start, end, normal = mesh.edge_frames()
    pts = start[:, None, :] + rule_1d.points[:, None] * (end - start)[:, None, :]
    gn = np.einsum("eqd,ed->eq", g(pts.reshape(-1, 2)).reshape(pts.shape), normal)
    length = np.linalg.norm(end - start, axis=1)
    leg = shifted_legendre(p, rule_1d.points)
    moments = length[:, None] * (gn @ (rule_1d.weights[:, None] * leg))
    coef[:space.n_edge_dofs] = moments.ravel()
    nint = space.ref.n_interior_dofs
    if nint:
        from .assembly import cell_geometry

        phys, J, det = cell_geometry(mesh, rule_2d)
        gv = g(phys.reshape(-1, 2)).reshape(phys.shape)
        # inverse Piola: det J * J^{-1} g
        ghat = np.empty_like(gv)
        ghat[..., 0] = J[..., 1, 1] * gv[..., 0] - J[..., 0, 1] * gv[..., 1]
        ghat[..., 1] = -J[..., 1, 0] * gv[..., 0] + J[..., 0, 0] * gv[..., 1]
        lx = shifted_legendre(p, rule_2d.points[:, 0])
        ly = shifted_legendre(p, rule_2d.points[:, 1])
        # moment weights in the same order the reference element numbers
        # its interior DoFs: x-component block first, then y-component
        wx = np.array([rule_2d.weights * lx[:, a] * ly[:, b]
                       for a in range(p) for b in range(p + 1)])
        wy = np.array([rule_2d.weights * lx[:, a] * ly[:, b]
                       for a in range(p + 1) for b in range(p)])
        mom_x = np.einsum("mq,cq->cm", wx, ghat[..., 0])
        mom_y = np.einsum("mq,cq->cm", wy, ghat[..., 1])
        coef[space.n_edge_dofs:] = np.concatenate([mom_x, mom_y], axis=1).ravel()
    return FeFunction(space=space, coefficients=coef)
