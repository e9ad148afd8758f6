"""Temporal trial/test bases and the coefficient tables of the time-marching scheme.

The trial basis on the reference interval [0, 1] is the Lagrange basis of
degree r on the node set {0} followed by the r Gauss-Legendre points; the
test basis is the degree r-1 Lagrange basis on the Gauss points alone.
Collapsing the variational time integrals with the r-point Gauss rule reduces
each interval to algebra driven by two small tables:

    alpha[i, j] = w_i * d/dt phi_j(t_i),   beta[i] = w_i,

for i = 1..r (Gauss points) and j = 0..r (trial nodes).
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .basis1d import LagrangeBasis1D
from .quadrature import gauss_legendre_unit

MAX_DEGREE = 5


@dataclass(frozen=True)
class TimePartition:
    """Strictly increasing finite time nodes 0 = t_0 < t_1 < ... < t_N = T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("need at least two time nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("time nodes must be finite")
        if abs(nodes[0]) > 0.0:
            raise ValueError("partition must start at t = 0")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("time nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, final_time, n_intervals):
        if not isinstance(n_intervals, numbers.Integral) or n_intervals < 1:
            raise ValueError(f"the interval count must be an integer >= 1, "
                             f"got {n_intervals!r}")
        if not 0.0 < final_time < np.inf:
            raise ValueError("final time must be positive and finite")
        return cls(np.linspace(0.0, final_time, n_intervals + 1))

    @property
    def n_intervals(self):
        return len(self.nodes) - 1

    @property
    def final_time(self):
        return float(self.nodes[-1])

    def step_size(self, n):
        """Length of interval n (0-based)."""
        return float(self.nodes[n + 1] - self.nodes[n])


@dataclass(frozen=True)
class TemporalBasis:
    """Trial/test bases on [0, 1] plus the alpha and beta coefficient tables."""

    r: int
    trial_nodes: np.ndarray      # (r + 1,), node 0 is the left endpoint
    test_nodes: np.ndarray       # (r,), the Gauss points
    alpha: np.ndarray            # (r, r + 1)
    beta: np.ndarray             # (r,), the mapped Gauss weights
    endpoint_weights: np.ndarray  # phi_j(1), used by the continuity update
    _trial: LagrangeBasis1D = field(repr=False)

    def eval_trial_all(self, that):
        """All trial values at reference times, shape (npts, r + 1)."""
        return self._trial.eval(that)


def build_basis(r):
    """Build the degree-r temporal basis and its coefficient tables."""
    if not isinstance(r, (int, np.integer)) or r < 1 or r > MAX_DEGREE:
        raise ValueError(f"temporal degree must be in 1..{MAX_DEGREE}, got {r!r}")
    rule = gauss_legendre_unit(r)
    trial_nodes = np.concatenate([[0.0], rule.points])
    trial = LagrangeBasis1D(trial_nodes)
    # alpha from the exact barycentric differentiation matrix: rows are the
    # Gauss nodes (trial node indices 1..r), columns all trial functions
    D = trial.diff_matrix()
    alpha = rule.weights[:, None] * D[1:, :]
    endpoint = trial.eval(np.array([1.0]))[0]
    return TemporalBasis(
        r=r,
        trial_nodes=trial_nodes,
        test_nodes=rule.points.copy(),
        alpha=alpha,
        beta=rule.weights.copy(),
        endpoint_weights=endpoint,
        _trial=trial,
    )
