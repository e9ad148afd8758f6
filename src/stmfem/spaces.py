"""Discrete space pair on quadrilateral meshes: discontinuous tensor-product
scalars and H(div)-conforming Raviart-Thomas fluxes.  What integrates over
them (matrices, loads, projections, the interpolant) is in `assembly`.

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
from .quadrature import gauss_legendre_unit, tensor

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

    def dof_weights(self, rule_1d):
        """The degrees of freedom as weights under a 1-D Gauss rule on [0, 1].

        Returns (edge, interior).  Column k of edge (nq, p+1) weighs the
        normal component at the rule's points along an edge parametrized
        over [0, 1] to give moment k.  Row i of interior (2p(p+1), nq^2, 2)
        weighs the field at the points of tensor(rule_1d, rule_1d) to give
        interior DoF i: x-component moments first, then y-component.
        """
        p = self.p
        edge = rule_1d.weights[:, None] * shifted_legendre(p, rule_1d.points)
        rule_2d = tensor(rule_1d, rule_1d)
        lx = shifted_legendre(p, rule_2d.points[:, 0])
        ly = shifted_legendre(p, rule_2d.points[:, 1])
        w = rule_2d.weights[:, None, None] * lx[:, :, None] * ly[:, None, :]
        interior = np.zeros((self.n_interior_dofs, len(w), 2))
        interior[:p * (p + 1), :, 0] = w[:, :p, :].reshape(len(w), -1).T
        interior[p * (p + 1):, :, 1] = w[:, :, :p].reshape(len(w), -1).T
        return edge, interior

    def _vandermonde(self):
        """The degrees of freedom applied to the spanning set."""
        rule = gauss_legendre_unit(self.p + 2)
        edge, interior = self.dof_weights(rule)
        rows = [np.einsum("qk,qm->km", edge,
                          self._span_values(self.edge_points(e, rule.points))
                          @ _REF_EDGE_NORMAL[e]) for e in range(4)]
        span = self._span_values(tensor(rule, rule).points)
        rows.append(np.einsum("iqd,qmd->im", interior, span))
        return np.vstack(rows)

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
    # assembly.evaluation's tables, keyed by rule order
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
    # assembly.evaluation's tables, keyed by rule order
    evaluations: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)


def build_pair(mesh, p):
    """Build the (scalar, flux) space pair of degree p on a mesh."""
    if not isinstance(p, (int, np.integer)) or p < 0 or p > MAX_DEGREE:
        raise ValueError(f"degree must be in 0..{MAX_DEGREE}, got {p!r}")
    report = validity_check(mesh)
    if not report.ok:
        raise InvalidMeshError(report.bad_cells[0], report.min_det,
                               "build_pair")

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
