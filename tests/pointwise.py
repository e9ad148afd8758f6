"""Pointwise evaluation of discrete functions, one cell or one time at a time.

The batched values of `stmfem.assembly` (`scalar_values`, `piola_values`)
are checked against these per-cell evaluators, so they live with the tests
as an independent oracle: the bilinear map of one cell with its Newton
inverse, scalar, flux and flux divergence values at reference points of one
cell, a space-time solution's coefficients at any time, and a reader for
the harness's CSV table.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from stmfem.mesh import bilinear_map
from stmfem.spaces import FluxSpace, ScalarSpace


@dataclass(frozen=True)
class CellMap:
    """Bilinear map from the reference square [0, 1]^2 onto one cell."""

    cell: int
    corners: np.ndarray  # (4, 2), counterclockwise

    def map(self, xhat):
        """Physical coordinates of reference points xhat, shape (npts, 2)."""
        return bilinear_map(self.corners[None], xhat)[0][0]

    def jacobian(self, xhat):
        """Jacobian matrices and determinants at reference points.

        Returns (J, det) with J of shape (npts, 2, 2) and det of shape (npts,).
        """
        _, J, det = bilinear_map(self.corners[None], xhat)
        return J[0], det[0]

    def inverse(self, x, tol=1e-13):
        """Reference coordinates of physical points x by Newton iteration."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        xhat = np.full_like(x, 0.5)
        for _ in range(50):
            r = self.map(xhat) - x
            if np.max(np.abs(r)) < tol:
                break
            J, det = self.jacobian(xhat)
            dx = np.empty_like(r)
            dx[:, 0] = (J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1]) / det
            dx[:, 1] = (-J[:, 1, 0] * r[:, 0] + J[:, 0, 0] * r[:, 1]) / det
            xhat -= dx
        return xhat


def cell_map(mesh, k):
    """The bilinear map of cell k of a mesh."""
    if not 0 <= k < mesh.n_cells:
        raise ValueError(f"cell index {k} out of range")
    return CellMap(cell=k, corners=mesh.vertices[mesh.cells[k]])


def eval_scalar(space, coefficients, cell, xhat):
    """Evaluate a scalar FE function at reference points of one cell."""
    if not isinstance(space, ScalarSpace):
        raise TypeError("eval_scalar needs a function in a scalar space")
    vals = space.ref.tabulate(xhat)
    return vals @ coefficients[space.cell_dofs[cell]]


def eval_flux(space, coefficients, cell, xhat):
    """Evaluate a flux FE function (Piola mapped) at reference points."""
    if not isinstance(space, FluxSpace):
        raise TypeError("eval_flux needs a function in a flux space")
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    ref_vals = space.ref.tabulate(xhat)
    local = space.cell_signs[cell] * coefficients[space.cell_dofs[cell]]
    vhat = np.einsum("nid,i->nd", ref_vals, local)
    J, det = cell_map(space.mesh, cell).jacobian(xhat)
    return np.einsum("nab,nb->na", J, vhat) / det[:, None]


def eval_div_flux(space, coefficients, cell, xhat):
    """Divergence of a flux FE function: (1/det J) * reference divergence."""
    if not isinstance(space, FluxSpace):
        raise TypeError("eval_div_flux needs a function in a flux space")
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    ref_divs = space.ref.tabulate_div(xhat)
    local = space.cell_signs[cell] * coefficients[space.cell_dofs[cell]]
    _, det = cell_map(space.mesh, cell).jacobian(xhat)
    return (ref_divs @ local) / det


def locate(partition, t):
    """Index n of the interval (t_n, t_{n+1}] containing t; t = 0 maps to 0."""
    nodes = partition.nodes
    if t < nodes[0] - 1e-12 or t > nodes[-1] + 1e-12:
        raise ValueError(f"time {t} outside [0, {nodes[-1]}]")
    if t <= nodes[0]:
        return 0
    n = int(np.searchsorted(nodes, t, side="left")) - 1
    return min(max(n, 0), partition.n_intervals - 1)


def coefficients_at(solution, t):
    """Global coefficient vectors (scalar, flux) of a solution at time t.

    Rebuilds the stacks of every interval up to t's, so one call costs
    O(n) intervals; the tests call it at a few times per solution.
    """
    n = locate(solution.partition, t)
    t0 = solution.partition.nodes[n]
    tau = solution.partition.step_size(n)
    that = np.clip((t - t0) / tau, 0.0, 1.0)
    w = solution.basis.eval_trial_all(np.array([that]))[0]
    stacks = zip(solution.scalar_stacks(), solution.flux_stacks())
    u_stack, q_stack = next(islice(stacks, n, None))
    return (np.einsum("j,jn->n", w, u_stack), np.einsum("j,jn->n", w, q_stack))


def parse_csv(text):
    """Parse a harness.to_csv table back into a dict of column lists."""
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    out = {h: [] for h in header}
    for line in lines[1:]:
        for h, tok in zip(header, line.split(",")):
            if h in ("level", "N", "cells", "ndof"):
                out[h].append(int(tok))
            elif h.startswith("eoc"):
                out[h].append(None if tok == "" else float(tok))
            else:
                out[h].append(float(tok))
    return out
