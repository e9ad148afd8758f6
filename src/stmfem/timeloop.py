"""Time-marching driver for the fully discrete scheme.

Each interval couples the r Gauss-point unknowns (U^1..U^r, Q^1..Q^r) of the
scalar and flux expansions through the block system

    sum_j alpha[i,j] M_W U^j + tau * beta[i] B Q^i = tau * beta[i] F(t_i)
                                                     - alpha[i,0] M_W U^0,
    M_D Q^i - B^T U^i = 0,            for i = 1..r,

where U^0 carries the continuity-in-time constraint from the previous
interval (projection of the initial data on the first one).  The left
endpoint flux coefficient Q^0 never enters the equations.  Both start
values are the previous interval's endpoint values, so `SpaceTimeSolution`
stores them once, for the first interval, and rebuilds each interval's
(r+1)-row stack from the r Gauss-point rows it keeps.  The matrix is
A = [[alpha[:, 1:] (x) M_W, diag(tau beta) (x) B], [I_r (x) -B^T, I_r (x) M_D]];
no step assembles it, `IntervalOperator.apply` multiplies by it block by block.

Both solvers solve it under one policy: solve, check the normwise backward
error with `apply`, and refine once where that misses.  Both solve by
`IntervalOperator.solve`.  With diag(beta)^-1 alpha[:, 1:] = V diag(lam) V^-1,
the unknowns V^-1 (U, Q) split into the shifted systems [lam_k M_W, tau B;
-B^T, M_D], one real system per real lam_k and one complex system per
conjugate pair, each statically condensed onto its edge flux moments;
`schur` then takes one unpreconditioned GMRES(1) step from that solution,
with `apply` as its operator.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .exceptions import SolverFailureError
from .assembly import l2_project_flux, l2_project_scalar
from .spaces import build_pair
from .timebasis import TimePartition, build_basis

DEFAULT_TOL = 1e-12
SOLVERS = ("direct", "schur")


@dataclass(frozen=True)
class ProblemData:
    """Diffusion tensor, initial data, source and final time.

    initial_flux evaluates -D grad u0.  The source takes a 1-D array of
    times and is called once per interval with all of its Gauss times.
    """

    diffusion: assembly.CoefficientField
    initial_scalar: object          # callable (n, 2) -> (n,)
    source: object                  # callable ((n, 2), (nt,)) -> (nt, n)
    final_time: float
    initial_flux: object            # callable (n, 2) -> (n, 2)


class SystemMatrices:
    """The three time-independent matrices plus the current interval operator.

    They are integrated under the spatial rule the loads and initial
    projections use; a coefficient that is not finite and SPD at its points
    raises.
    """

    def __init__(self, scalar_space, flux_space, coefficient):
        self.scalar_space, self.flux_space = scalar_space, flux_space
        self.mass_scalar = assembly.assemble_mass_scalar(scalar_space)
        self.mass_flux = assembly.assemble_weighted_mass_flux(
            flux_space, coefficient)
        self.div = assembly.assemble_div_coupling(flux_space, scalar_space)
        self._operator = None

    def operator(self, basis, tau):
        """The interval operator for (r, tau), rebuilt only when the step changes.

        Steps within 1e-12 relative of the cached one share it, so the
        last-ulp spread of a linspace partition costs one factorization.
        """
        op = self._operator
        if op is None or op.basis.r != basis.r or abs(tau - op.tau) > 1e-12 * op.tau:
            op = self._operator = IntervalOperator(self, basis, tau)
        return op


class IntervalOperator:
    """One interval's block matrix as its product `apply` and its norm, and
    its exact inverse `solve`, whose factors are built on first use.

    It holds the spaces and matrices it reads, not the `SystemMatrices` that
    caches it: that would be a cycle keeping the factors alive after run().
    """

    def __init__(self, matrices, basis, tau):
        self.scalar_space, self.flux_space = matrices.scalar_space, matrices.flux_space
        self.mass_scalar, self.mass_flux = matrices.mass_scalar, matrices.mass_flux
        self.div = matrices.div
        self.div_t = self.div.T.tocsr()
        self.mass_diagonal = self.mass_scalar.diagonal()  # M_W is diagonal
        self.basis, self.tau = basis, tau
        # ||A||_F^2 summed over the four Kronecker blocks
        r, tb = basis.r, tau * basis.beta
        self.norm = np.sqrt(
            np.sum(basis.alpha[:, 1:]**2) * spla.norm(self.mass_scalar)**2
            + (tb @ tb + r) * spla.norm(self.div)**2
            + r * spla.norm(self.mass_flux)**2)

    @cached_property
    def matrix(self):
        """The assembled block matrix A, built on first use; no step reads it."""
        basis = self.basis
        eye = sp.identity(basis.r)
        return sp.bmat(
            [[sp.kron(basis.alpha[:, 1:], self.mass_scalar),
              sp.kron(sp.diags(self.tau * basis.beta), self.div)],
             [sp.kron(eye, -self.div_t), sp.kron(eye, self.mass_flux)]],
            format="csr")

    def apply(self, x):
        """`matrix` @ x from M_W, B, B^T and M_D, one Gauss row at a time."""
        r, nw = self.basis.r, self.scalar_space.n_dofs
        U, Q = x[: r * nw].reshape(r, nw), x[r * nw:].reshape(r, -1)
        y = np.empty_like(x)
        y_u, y_q = y[: r * nw].reshape(r, nw), y[r * nw:].reshape(r, -1)
        np.matmul(self.basis.alpha[:, 1:], U * self.mass_diagonal, out=y_u)
        for i, tb in enumerate(self.tau * self.basis.beta):
            y_u[i] += tb * (self.div @ Q[i])
            np.subtract(self.mass_flux @ Q[i], self.div_t @ U[i], out=y_q[i])
        return y

    @cached_property
    def _shifts(self):
        """Per kept lam (each real one, and Im lam > 0 of each pair): its
        CondensedLU, whether it is a pair, its row of V^-1 (also divided by
        beta, for the scalar loads) and its column of V, doubled for a pair."""
        basis = self.basis
        lam, vecs = np.linalg.eig(basis.alpha[:, 1:] / basis.beta[:, None])
        kept = np.flatnonzero(lam.imag >= 0)
        pair = lam[kept].imag > 0
        factors = [CondensedLU(s if c else s.real, self.tau, self)
                   for s, c in zip(lam[kept], pair)]
        project = np.linalg.inv(vecs)[kept]
        return (factors, pair, project / basis.beta, project,
                vecs[:, kept] * np.where(pair, 2.0, 1.0))

    def solve(self, b):
        """The x with `matrix` x = b: a pair's solutions are conjugate, so x is
        the real part of V's kept columns applied to the kept solutions."""
        factors, pair, project_scalar, project, combine = self._shifts
        r, nw = self.basis.r, self.scalar_space.n_dofs
        loads = np.hstack([project_scalar @ b[: r * nw].reshape(r, nw),
                           project @ b[r * nw:].reshape(r, -1)])
        shifted = np.empty_like(loads)
        for k, lu in enumerate(factors):
            shifted[k] = lu.solve(loads[k] if pair[k] else loads[k].real)
        mixed = combine @ shifted
        x = np.empty_like(b)
        x[: r * nw].reshape(r, nw)[:] = mixed[:, :nw].real
        x[r * nw:].reshape(r, -1)[:] = mixed[:, nw:].real
        return x


class CondensedLU:
    """Exact solver for one shifted block [s M_W, tau B; -B^T, M_D] by static
    condensation.

    A cell's scalar unknowns and interior flux moments (set I) couple only
    within the cell, so A_II is block diagonal and is inverted cell by cell;
    only the Schur complement on the edge flux moments (set G),
    A_GG - A_GI A_II^-1 A_IG, is factored.  The shift enters A_II alone, and
    the blocks are read from M_W, B and M_D, not from an assembled block
    matrix.

    That complement is structurally symmetric, and SPD for every real shift,
    so it is factored with `assembly.SYMMETRIC_SPLU`: a minimum degree
    ordering of S + S^T and diagonal pivots, with about half the fill of
    COLAMD and partial pivoting.  Without numerical pivoting nothing guards
    the complex-shifted systems but the backward-error check of `_solve`.
    """

    def __init__(self, shift, tau, op):
        scalar, flux = op.scalar_space, op.flux_space
        nw, ne = scalar.n_dofs, flux.n_edge_dofs
        interior = np.hstack([scalar.cell_dofs,
                              nw + flux.cell_dofs[:, 4 * flux.ref.n_edge_dofs:]])
        nc, m = interior.shape
        self.interior = interior.ravel()
        self.edge = slice(nw, nw + ne)
        # place of each interior unknown in I; its cell's block is place // m
        place = np.zeros(nw + flux.n_dofs, dtype=int)
        place[self.interior] = np.arange(nc * m)
        mw, bf, mdf = (a.tocoo() for a in (op.mass_scalar, op.div[:, ne:],
                                           op.mass_flux[ne:, ne:]))
        f = nw + ne                            # the first interior flux moment
        rows = place[np.concatenate([mw.row, bf.row, f + bf.col, f + mdf.row])]
        cols = place[np.concatenate([mw.col, f + bf.col, bf.row, f + mdf.col])]
        if np.any(rows // m != cols // m):
            raise RuntimeError("interior unknowns of different cells couple")
        blocks = np.zeros((nc, m, m), dtype=np.result_type(shift, float))
        blocks[rows // m, rows % m, cols % m] = np.concatenate(
            [shift * mw.data, tau * bf.data, -bf.data, mdf.data])
        self.a_ii_inv = np.linalg.inv(blocks)      # applied cell by cell
        # the edge rows and columns of the block, over all its unknowns
        div_edge = op.div[:, :ne]
        self.a_gi = sp.hstack([-div_edge.T, op.mass_flux[:ne]], format="csr",
                              dtype=blocks.dtype)[:, self.interior]
        self.elim = sp.bsr_matrix(                     # A_II^{-1} A_IG
            (self.a_ii_inv, np.arange(nc), np.arange(nc + 1)),
            shape=(nc * m, nc * m)).tocsr() @ sp.vstack(
            [tau * div_edge, op.mass_flux[:, :ne]], format="csr")[self.interior]
        self.edge_lu = spla.splu(
            (op.mass_flux[:ne, :ne] - self.a_gi @ self.elim).tocsc(),
            **assembly.SYMMETRIC_SPLU)

    def solve(self, rhs):
        """The block's solution for rhs = [scalar load, flux load]."""
        nc, m, _ = self.a_ii_inv.shape
        y = np.matmul(self.a_ii_inv, rhs[self.interior].reshape(nc, m, 1)).ravel()
        x = np.empty_like(rhs)
        x[self.edge] = self.edge_lu.solve(rhs[self.edge] - self.a_gi @ y)
        x[self.interior] = y - self.elim @ x[self.edge]
        return x


@dataclass
class StepSystem:
    """The block system of one interval: its operator and right-hand side."""

    interval: int
    rhs: np.ndarray
    operator: IntervalOperator


def initial_coefficients(data, scalar_space, flux_space):
    """(P_h u0, vec P_h(-D grad u0)), raising at stage "initial" if not finite."""
    u0 = l2_project_scalar(data.initial_scalar, scalar_space)
    q0 = l2_project_flux(data.initial_flux, flux_space)
    if not (np.isfinite(u0).all() and np.isfinite(q0).all()):
        raise SolverFailureError("non-finite initial datum", interval=0, stage="initial")
    return u0, q0


def build_step_system(interval, basis, matrices, data, u_start, partition):
    """Assemble the right-hand side of interval `interval` (0-based)."""
    tau = partition.step_size(interval)
    gauss_times = partition.nodes[interval] + tau * basis.test_nodes
    loads = assembly.assemble_load(matrices.scalar_space, data.source,
                                   gauss_times)  # (nw, r)
    mwu = matrices.mass_scalar @ u_start
    rhs_u = (tau * basis.beta * loads).T - basis.alpha[:, :1] * mwu
    rhs = np.concatenate([rhs_u.ravel(),
                          np.zeros(basis.r * matrices.flux_space.n_dofs)])
    return StepSystem(interval=interval, rhs=rhs,
                      operator=matrices.operator(basis, tau))


def _check_residual(system, x, stage):
    """Check that x's normwise backward error is <= DEFAULT_TOL.

    The error is ||Ax - b|| / (||A|| ||x|| + ||b||) against the interval's
    block matrix A, applied by `IntervalOperator.apply`.  DEFAULT_TOL is
    read at call time, so a test may patch it.
    """
    op, b = system.operator, system.rhs
    res = np.linalg.norm(op.apply(x) - b)
    scale = op.norm * np.linalg.norm(x) + np.linalg.norm(b)
    rel = res / scale if scale > 0.0 else res
    if not rel <= DEFAULT_TOL:  # NaN fails too
        raise SolverFailureError(
            f"{stage} solve on interval {system.interval} "
            f"missed tolerance {DEFAULT_TOL}",
            residual=rel, interval=system.interval, stage=stage)


def _solve(system, inverse, stage):
    """Solve by `inverse` and check; refine once where that misses.

    A second miss raises, so a step costs at most two calls of `inverse`.
    """
    x = inverse(system.rhs)
    try:
        _check_residual(system, x, stage)
    except SolverFailureError:
        x += inverse(system.rhs - system.operator.apply(x))
        _check_residual(system, x, stage)
    return x


def _check_solver(strategy):
    if strategy not in SOLVERS:
        raise ValueError(f"unknown solver strategy {strategy!r}")


def solve_step(system, strategy="direct"):
    """Solve one interval's block system.

    Returns (U, Q) with U of shape (r, n_scalar) and Q of shape (r, n_flux),
    the Gauss-point coefficients i = 1..r.  A non-finite right-hand side is
    rejected before anything is factored or iterated.
    """
    _check_solver(strategy)
    if not np.all(np.isfinite(system.rhs)):
        raise SolverFailureError(
            f"non-finite right-hand side on interval {system.interval}",
            interval=system.interval, stage="rhs")
    op = system.operator
    if strategy == "direct":
        inverse = op.solve
    else:
        def inverse(b):
            # one GMRES iteration from the exact solve, info unread
            # (_check_residual is the gate); atol = tiny returns a start with
            # zero residual as it is, where atol = 0 divides by that norm
            coupled = spla.LinearOperator((len(b), len(b)), matvec=op.apply,
                                          dtype=float)
            return spla.gmres(coupled, b, x0=op.solve(b),
                              rtol=0.0, atol=np.finfo(float).tiny, restart=1,
                              maxiter=1)[0]
    x = _solve(system, inverse, strategy)
    r, nw = op.basis.r, op.scalar_space.n_dofs
    return x[: r * nw].reshape(r, nw), x[r * nw:].reshape(r, -1)


def endpoint_value(basis, coeffs):
    """Evaluate a coefficient stack (r+1, n) at the interval's right endpoint."""
    return np.einsum("j,jn->n", basis.endpoint_weights, coeffs)


def _stack_and_next_start(basis, start, rows):
    """An interval's (r+1, n) stack from its start row and r Gauss-point rows,
    and the next interval's start row: this stack's endpoint value."""
    stack = np.vstack([start[None, :], rows])
    return stack, endpoint_value(basis, stack)


class SpaceTimeSolution:
    """The scalar and flux expansions, stored as the start values (U^0, Q^0)
    of the first interval and the r Gauss-point rows of every interval.

    The solution is continuous in time, so every later interval starts at
    its predecessor's endpoint value.  `scalar_stacks` and `flux_stacks`
    yield the (r+1, n) coefficient stacks in interval order, each start row
    the `endpoint_value` of the stack before it.  Reaching interval n
    therefore rebuilds the n stacks before it; to read many intervals,
    iterate the generators once.
    """

    def __init__(self, partition, basis, scalar_space, flux_space, u0, q0):
        self.partition, self.basis = partition, basis
        self.scalar_space, self.flux_space = scalar_space, flux_space
        self.start = (u0, q0)
        self.gauss_rows = []  # one (U, Q) pair per interval, (r, n) each

    def append_interval(self, U, Q):
        self.gauss_rows.append((U, Q))

    def _stacks(self, field):
        start = self.start[field]
        for rows in self.gauss_rows:
            stack, start = _stack_and_next_start(self.basis, start, rows[field])
            yield stack

    def scalar_stacks(self):
        """The (r+1, n_scalar) stack of each interval, in order."""
        return self._stacks(0)

    def flux_stacks(self):
        """The (r+1, n_flux) stack of each interval, in order."""
        return self._stacks(1)


def run(data, mesh, p, r, n_steps, solver="direct"):
    """March the scheme over a uniform partition of (0, T] with N intervals.

    The solution keeps the (U, Q) views `solve_step` returns, one array of
    r (n_scalar + n_flux) floats per interval.  Its spaces hold no
    mesh-sized table: the matrices, loads and projections read the mesh's
    cached `assembly.Quadrature` and the reference tables.
    """
    _check_solver(solver)
    partition = TimePartition.uniform(data.final_time, n_steps)
    basis = build_basis(r)
    scalar_space, flux_space = build_pair(mesh, p)
    matrices = SystemMatrices(scalar_space, flux_space, data.diffusion)
    u0, q0 = initial_coefficients(data, scalar_space, flux_space)
    solution = SpaceTimeSolution(partition, basis, scalar_space, flux_space,
                                 u0, q0)
    for n in range(n_steps):
        system = build_step_system(n, basis, matrices, data, u0, partition)
        U, Q = solve_step(system, strategy=solver)
        solution.append_interval(U, Q)
        _, u0 = _stack_and_next_start(basis, u0, U)
    return solution


def local_mass_balance(solution, data, matrices):
    """Max relative elementwise balance defect at the Gauss times.

    Testing the scalar equation with the indicator of each cell gives, for
    every interval and Gauss index, a per-cell balance the solver should
    satisfy to its residual tolerance.
    """
    basis, part = solution.basis, solution.partition
    cell_dofs = matrices.scalar_space.cell_dofs
    worst = 0.0
    for n, (u_stack, (_, Q)) in enumerate(zip(solution.scalar_stacks(),
                                             solution.gauss_rows)):
        tau = part.step_size(n)
        load = assembly.assemble_load(matrices.scalar_space, data.source,
                                      part.nodes[n] + tau * basis.test_nodes)
        # per-cell sums, one column per Gauss index i
        mwu = (matrices.mass_scalar @ u_stack.T)[cell_dofs]
        acc = mwu.sum(axis=1) @ basis.alpha.T
        bq = (matrices.div @ Q.T)[cell_dofs].sum(axis=1)
        tb = tau * basis.beta
        rhs = tb * load[cell_dofs].sum(axis=1)
        scale = np.maximum.reduce([np.abs(acc), tb * np.abs(bq), np.abs(rhs)])
        scale = np.maximum(scale, 1e-30)
        worst = max(worst, float(np.max(np.abs(acc + tb * bq - rhs) / scale)))
    return worst
