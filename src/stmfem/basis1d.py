"""One-dimensional polynomial bases: barycentric Lagrange and shifted Legendre."""

import numpy as np
from numpy.polynomial.legendre import legder, legvander


class LagrangeBasis1D:
    """Lagrange cardinal basis on a set of distinct nodes, in barycentric form.

    The barycentric representation stays well conditioned for clustered
    (Gauss-type) node sets, and its differentiation matrix is exact up to
    rounding, which is what the time-stepping coefficient tables require.
    """

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 1:
            raise ValueError("nodes must be a nonempty 1D array")
        diffs = nodes[:, None] - nodes[None, :]
        np.fill_diagonal(diffs, 1.0)
        if np.any(np.abs(diffs) < 1e-14):
            raise ValueError("nodes must be distinct")
        self.nodes = nodes
        self.n = len(nodes)
        # barycentric weights w_j = 1 / prod_{k != j} (x_j - x_k)
        self.bary = 1.0 / np.prod(diffs, axis=1)

    def eval(self, x):
        """Values of all cardinal functions at points x, shape (npts, n)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = x[:, None] - self.nodes[None, :]
        out = np.empty((len(x), self.n))
        on_node = np.abs(d) < 1e-14
        hit = on_node.any(axis=1)
        reg = ~hit
        if reg.any():
            a = self.bary[None, :] / d[reg]
            out[reg] = a / a.sum(axis=1, keepdims=True)
        if hit.any():
            out[hit] = on_node[hit].astype(float)
        return out

    def diff_matrix(self):
        """Differentiation matrix D[i, j] = phi_j'(x_i), exact to rounding."""
        x = self.nodes
        w = self.bary
        D = np.zeros((self.n, self.n))
        for i in range(self.n):
            for j in range(self.n):
                if i != j:
                    D[i, j] = (w[j] / w[i]) / (x[i] - x[j])
            D[i, i] = -np.sum(D[i, :])
        return D


def shifted_legendre(max_degree, x):
    """Shifted Legendre polynomials P~_0..P~_k on [0, 1] at points x.

    Returns shape (npts, max_degree + 1).  P~_k(1 - x) = (-1)^k P~_k(x),
    which is what makes edge-moment reversal a pure sign flip.
    """
    return legvander(2.0 * np.atleast_1d(np.asarray(x, dtype=float)) - 1.0,
                     max_degree)


def shifted_legendre_deriv(max_degree, x):
    """Derivatives of the shifted Legendre polynomials on [0, 1] at x.

    The degree-(k - 1) table times the Legendre coefficients of each
    derivative, with the chain-rule factor 2 from the shift.
    """
    return (shifted_legendre(max(max_degree - 1, 0), x)
            @ legder(np.eye(max_degree + 1), scl=2.0))
