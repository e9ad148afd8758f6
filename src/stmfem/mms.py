"""Manufactured solutions, space-time error norms, and convergence orders.

The error norms accumulate squared integrals interval by interval with an
(r+3)-point Gauss rule in time and a (p+3)^2 tensor rule per cell in space,
unless time_order and space_order ask for others.  Nothing checks at run
time that these default rules have converged; the test suite compares them
with 10-point rules on level 2 only, to 1e-3.  On level 0 of the standard
study (p = r = 2, omega = 10 pi, ten intervals, one cell) they put error_u
0.36% above its converged value: 0.12% from the time rule and 0.24% from
the space rule.  From level 1 on they are within 5e-6 relative of it.  Pass
time_order = space_order = 8, which converges that study, where the value
itself matters and not only its order.

The exact fields and the source take points (n, 2) and a 1-D array t of
times, and return (len(t), n), or (len(t), n, 2) for the flux.
"""

import math
from dataclasses import dataclass

import numpy as np

# cell_geometry and piola_values are not called here; perfbench/tracer.py
# wraps these bindings to count geometry and Piola builds
from .assembly import cell_geometry, piola_values  # noqa: F401
from .assembly import evaluation, sample_in_time
from .exceptions import UnsupportedConfigurationError
from .quadrature import gauss_legendre_unit, tensor_unit

DEFAULT_OMEGA = 10.0 * math.pi


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact solution bundle: scalar, flux, source, and flux divergence."""

    omega: float
    scalar: object      # u(x, t):      (n, 2), (nt,) -> (nt, n)
    flux: object        # q(x, t):      (n, 2), (nt,) -> (nt, n, 2)
    source: object      # f(x, t):      (n, 2), (nt,) -> (nt, n)
    div_flux: object    # div q(x, t):  (n, 2), (nt,) -> (nt, n)

    def initial_scalar(self):
        return lambda x: self.scalar(x, np.zeros(1))[0]

    def initial_flux(self):
        return lambda x: self.flux(x, np.zeros(1))[0]


def mms_standard(coefficient, omega=DEFAULT_OMEGA):
    """The separable sin-product solution on the unit square.

    u(x, t) = sin(omega t) sin(pi x1) sin(pi x2) with flux -D grad u; only
    constant isotropic D = d*I is supported, for which the source is
    (omega cos(omega t) + 2 pi^2 d sin(omega t)) sin(pi x1) sin(pi x2).
    """
    d = coefficient.isotropic_value
    if d is None:
        raise UnsupportedConfigurationError(
            "the manufactured solution needs a constant isotropic diffusion"
        )
    pi = math.pi

    def spatial(x):
        x = np.atleast_2d(x)
        return np.sin(pi * x[:, 0]) * np.sin(pi * x[:, 1])

    def scalar(x, t):
        return np.outer(np.sin(omega * t), spatial(x))

    def flux(x, t):
        x = np.atleast_2d(x)
        return (-d * pi * np.sin(omega * t))[:, None, None] * np.column_stack([
            np.cos(pi * x[:, 0]) * np.sin(pi * x[:, 1]),
            np.sin(pi * x[:, 0]) * np.cos(pi * x[:, 1]),
        ])

    def source(x, t):
        return np.outer(omega * np.cos(omega * t)
                        + 2.0 * pi**2 * d * np.sin(omega * t), spatial(x))

    def div_flux(x, t):
        return np.outer(2.0 * pi**2 * d * np.sin(omega * t), spatial(x))

    return ManufacturedSolution(omega=omega, scalar=scalar, flux=flux,
                                source=source, div_flux=div_flux)


def _space_time_error(solution, space, stacks, exact_fields, time_order,
                      space_order):
    """(sum over exact_fields of ||exact - discrete||^2 in L2(I; L2))^(1/2).

    exact_fields pair, in order, with the space's value and divergence
    operators from assembly.evaluation; each is evaluated once per interval.
    """
    ev = evaluation(space, tensor_unit(space_order or (space.p + 3)))
    trule = gauss_legendre_unit(time_order or (solution.basis.r + 3))
    basis_vals = solution.basis.eval_trial_all(trule.points)  # (nt, r+1)
    part = solution.partition
    nt, npts = len(trule.points), len(ev.weights)
    total = 0.0
    for n, stack in enumerate(stacks):
        tau = part.step_size(n)
        times = part.nodes[n] + tau * trule.points
        coefs = basis_vals @ stack  # (nt, n_dofs)
        sq = np.zeros((nt, npts))
        for op, exact in zip((ev.values, ev.divs), exact_fields):
            diff = sample_in_time(exact, ev.points, times,
                                  vector=op.shape[0] > npts)
            diff = diff - (op @ coefs.T).T.reshape(diff.shape)
            sq += (diff**2).reshape(nt, npts, -1).sum(axis=2)
        total += tau * float(trule.weights @ (sq @ ev.weights))
    return math.sqrt(total)


def error_u(solution, exact, time_order=None, space_order=None):
    """|| u_exact - u_h || in L2(I; L2(Omega))."""
    return _space_time_error(solution, solution.scalar_space,
                             solution.scalar_coeffs, (exact.scalar,),
                             time_order, space_order)


def error_q_V(solution, exact, time_order=None, space_order=None):
    """|| q_exact - q_h || in L2(I; V), V-norm = (L2^2 + ||div||^2)^(1/2)."""
    return _space_time_error(solution, solution.flux_space,
                             solution.flux_coeffs,
                             (exact.flux, exact.div_flux),
                             time_order, space_order)


def eoc(errors):
    """Experimental orders log2(e_{l-1} / e_l); None where undefined."""
    errors = list(errors)
    if len(errors) < 2:
        raise ValueError("need at least two levels for an EOC")
    out = []
    for prev, cur in zip(errors, errors[1:]):
        if prev <= 0.0 or cur <= 0.0:
            out.append(None)
        else:
            out.append(math.log2(prev / cur))
    return out


@dataclass
class ErrorReport:
    """One refinement sweep: per-level sizes, error norms, and orders."""

    levels: list
    n_steps: list
    tau: list
    n_cells: list
    h: list
    n_dofs: list
    err_u: list
    err_q: list
    eoc_u: list  # aligned with levels; first entry None
    eoc_q: list

    @classmethod
    def from_errors(cls, levels, n_steps, tau, n_cells, h, n_dofs, err_u, err_q):
        eu = [None] + (eoc(err_u) if len(err_u) > 1 else [])
        eq = [None] + (eoc(err_q) if len(err_q) > 1 else [])
        return cls(levels=list(levels), n_steps=list(n_steps), tau=list(tau),
                   n_cells=list(n_cells), h=list(h), n_dofs=list(n_dofs),
                   err_u=list(err_u), err_q=list(err_q), eoc_u=eu, eoc_q=eq)
