"""Time-marching driver for the fully discrete scheme.

Each interval couples the r Gauss-point unknowns (U^1..U^r, Q^1..Q^r) of the
scalar and flux expansions through the block system

    sum_j alpha[i,j] M_W U^j + tau * beta[i] B Q^i = tau * beta[i] F(t_i)
                                                     - alpha[i,0] M_W U^0,
    M_D Q^i - B^T U^i = 0,            for i = 1..r,

where U^0 carries the continuity-in-time constraint from the previous
interval (projection of the initial data on the first one).  The left
endpoint flux coefficient Q^0 never enters the equations; it is carried
along purely so the flux can be reconstructed anywhere in time.
"""

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .exceptions import SolverFailureError
from .quadrature import tensor_unit
from .spaces import build_pair, l2_project_flux, l2_project_scalar
from .timebasis import TimePartition, build_basis

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class ProblemData:
    """Diffusion tensor, initial datum, source and final time.

    initial_flux should evaluate -D grad u0; when omitted it is derived from
    initial_scalar by central finite differences (adequate for diagnostics,
    exact whenever u0 = 0).  The source takes a 1-D array of times and is
    called once per interval with all of its Gauss times.
    """

    diffusion: assembly.CoefficientField
    initial_scalar: object          # callable (n, 2) -> (n,)
    source: object                  # callable ((n, 2), (nt,)) -> (nt, n)
    final_time: float
    initial_flux: object = None     # callable (n, 2) -> (n, 2) or None

    def flux_at_t0(self):
        if self.initial_flux is not None:
            return self.initial_flux
        u0 = self.initial_scalar
        h = 1e-6

        def q0(x):
            x = np.atleast_2d(x)
            grad = np.column_stack([(u0(x + e) - u0(x - e)) / (2 * h)
                                    for e in np.eye(2) * h])
            return -np.einsum("nab,nb->na", self.diffusion.matrix(x), grad)

        return q0


class SystemMatrices:
    """The three time-independent matrices plus the current interval operator."""

    def __init__(self, scalar_space, flux_space, coefficient, rule=None):
        if rule is None:
            rule = tensor_unit(max(scalar_space.p, flux_space.p) + 3)
        self.scalar_space = scalar_space
        self.flux_space = flux_space
        self.coefficient = coefficient
        self.rule = rule
        self.mass_scalar = assembly.assemble_mass_scalar(scalar_space, rule)
        self.mass_flux = assembly.assemble_weighted_mass_flux(
            flux_space, coefficient, rule)
        self.div = assembly.assemble_div_coupling(flux_space, scalar_space, rule)
        self._operator = None

    @property
    def n_scalar(self):
        return self.scalar_space.n_dofs

    @property
    def n_flux(self):
        return self.flux_space.n_dofs

    @cached_property
    def flux_mass_lu(self):
        return spla.splu(self.mass_flux.tocsc())

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
    """One interval's block matrix and its norm; factors are built on first use."""

    def __init__(self, matrices, basis, tau):
        # `matrices` holds this operator; a strong reference back would make a
        # cycle that keeps the factors alive after run() until gc collects it
        self.matrices = weakref.proxy(matrices)
        self.basis, self.tau = basis, tau
        r, alpha, beta = basis.r, basis.alpha, basis.beta
        blocks = [[None] * (2 * r) for _ in range(2 * r)]
        for i in range(r):
            for j in range(r):
                a = alpha[i, j + 1]
                if a != 0.0:
                    blocks[i][j] = a * matrices.mass_scalar
            blocks[i][r + i] = (tau * beta[i]) * matrices.div
            blocks[r + i][i] = -matrices.div.T
            blocks[r + i][r + i] = matrices.mass_flux
        self.matrix = sp.bmat(blocks, format="csc")
        self.norm = spla.norm(self.matrix)

    @cached_property
    def lu(self):
        return CondensedLU(self.matrix, self.matrices, self.basis.r)

    @cached_property
    def schur_preconditioner(self):
        """Block-diagonal preconditioner for the reduced scalar system.

        Uses the diagonal of M_D as a sparse stand-in for its inverse.
        """
        m, basis = self.matrices, self.basis
        approx = m.div @ sp.diags(1.0 / m.mass_flux.diagonal()) @ m.div.T
        return [spla.splu((basis.alpha[i, i + 1] * m.mass_scalar
                           + self.tau * basis.beta[i] * approx).tocsc())
                for i in range(basis.r)]


class CondensedLU:
    """Exact solver for an interval's block matrix by static condensation.

    A cell's scalar unknowns and interior flux moments (set I, all r blocks)
    couple only within the cell, so A_II is block diagonal and is inverted
    cell by cell; only the Schur complement on the edge moments (set G),
    A_GG - A_GI A_II^-1 A_IG, is factored.
    """

    def __init__(self, matrix, matrices, r):
        nw, nv, flux = matrices.n_scalar, matrices.n_flux, matrices.flux_space
        n_cell_edge = 4 * flux.ref.n_edge_dofs
        interior = np.hstack(
            [i * nw + matrices.scalar_space.cell_dofs for i in range(r)]
            + [r * nw + i * nv + flux.cell_dofs[:, n_cell_edge:]
               for i in range(r)])
        nc, m = interior.shape
        self.interior = interior.ravel()
        self.edge = (r * nw + nv * np.arange(r)[:, None]
                     + np.arange(flux.n_edge_dofs)).ravel()
        rows = matrix.tocsr()
        a_i, a_g = rows[self.interior], rows[self.edge]
        a_ii = a_i[:, self.interior].tocoo()
        cell, row = np.divmod(a_ii.row, m)
        if np.any(a_ii.col // m != cell):
            raise RuntimeError("interior unknowns of different cells couple")
        blocks = np.zeros((nc, m, m))
        blocks[cell, row, a_ii.col % m] = a_ii.data
        self.a_ii_inv = sp.bsr_matrix(
            (np.linalg.inv(blocks), np.arange(nc), np.arange(nc + 1)),
            shape=(nc * m, nc * m)).tocsr()
        self.a_gi = a_g[:, self.interior]
        self.elim = self.a_ii_inv @ a_i[:, self.edge]    # A_II^{-1} A_IG
        self.edge_lu = spla.splu(
            (a_g[:, self.edge] - self.a_gi @ self.elim).tocsc())

    def solve(self, rhs):
        y = self.a_ii_inv @ rhs[self.interior]
        x = np.empty_like(rhs)
        x[self.edge] = self.edge_lu.solve(rhs[self.edge] - self.a_gi @ y)
        x[self.interior] = y - self.elim @ x[self.edge]
        return x


@dataclass
class StepSystem:
    """The block system of one interval: operator context plus right-hand side."""

    interval: int
    basis: object
    matrices: SystemMatrices
    rhs: np.ndarray
    operator: IntervalOperator

    def full_matrix(self):
        return self.operator.matrix


def initial_coefficients(data, scalar_space, flux_space, rule=None):
    """Project the initial datum: (P_h u0, vec P_h(-D grad u0))."""
    u = l2_project_scalar(data.initial_scalar, scalar_space, rule)
    q = l2_project_flux(data.flux_at_t0(), flux_space, rule)
    return u.coefficients, q.coefficients


def build_step_system(interval, basis, matrices, data, u_start, partition):
    """Assemble the right-hand side of interval `interval` (0-based)."""
    tau = partition.step_size(interval)
    gauss_times = partition.nodes[interval] + tau * basis.test_nodes
    loads = assembly.assemble_load(matrices.scalar_space, data.source,
                                   gauss_times, matrices.rule)  # (nw, r)
    mwu = matrices.mass_scalar @ u_start
    rhs_u = (tau * basis.beta * loads).T - basis.alpha[:, :1] * mwu
    rhs = np.concatenate([rhs_u.ravel(), np.zeros(basis.r * matrices.n_flux)])
    return StepSystem(interval=interval, basis=basis, matrices=matrices,
                      rhs=rhs, operator=matrices.operator(basis, tau))


def _check_residual(system, x, tol, stage):
    """Check ||Ax - b|| / (||A|| ||x|| + ||b||) <= tol for the A that was solved."""
    op = system.operator
    res = op.matrix @ x - system.rhs
    scale = op.norm * np.linalg.norm(x) + np.linalg.norm(system.rhs)
    rel = np.linalg.norm(res) / scale if scale > 0.0 else np.linalg.norm(res)
    if not rel <= tol:  # NaN fails too
        raise SolverFailureError(
            f"{stage} solve on interval {system.interval} missed tolerance {tol}",
            residual=rel, interval=system.interval, stage=stage,
        )
    return rel


def _solve_direct(system, tol):
    op = system.operator
    x = op.lu.solve(system.rhs)
    try:
        _check_residual(system, x, tol, "direct")
    except SolverFailureError:
        # refine once where one solve misses; a second miss raises
        x += op.lu.solve(system.rhs - op.matrix @ x)
        _check_residual(system, x, tol, "direct")
    return x


def _solve_schur(system, tol, maxiter=5000):
    """Eliminate the fluxes, solve the coupled scalar system by GMRES."""
    m = system.matrices
    basis = system.basis
    r = basis.r
    nw, nv = m.n_scalar, m.n_flux
    tau = system.operator.tau   # the step _check_residual measures against
    flux_lu = m.flux_mass_lu
    B = m.div
    MW = m.mass_scalar
    applications = 0

    def reduced_matvec(u):
        nonlocal applications
        applications += 1
        u = np.asarray(u, dtype=float).reshape(r, nw)
        out = np.zeros((r, nw))
        for i in range(r):
            qi = flux_lu.solve(B.T @ u[i])
            out[i] += tau * basis.beta[i] * (B @ qi)
            for j in range(r):
                a = basis.alpha[i, j + 1]
                if a != 0.0:
                    out[i] += a * (MW @ u[j])
        return out.ravel()

    pre = system.operator.schur_preconditioner

    def apply_pre(v):
        v = np.asarray(v, dtype=float).reshape(r, nw)
        return np.concatenate([pre[i].solve(v[i]) for i in range(r)])

    # with a dtype LinearOperator skips its probe matvec: `applications`
    # counts GMRES's calls only
    op, M = (spla.LinearOperator((r * nw, r * nw), matvec=f, dtype=float)
             for f in (reduced_matvec, apply_pre))
    rhs_u = system.rhs[: r * nw]
    if np.linalg.norm(rhs_u) == 0.0:
        u = np.zeros(r * nw)
    else:
        u, info = spla.gmres(op, rhs_u, rtol=1e-13, atol=0.0,
                             restart=200, maxiter=maxiter, M=M)
        if info != 0:
            iterations = applications
            res = np.linalg.norm(reduced_matvec(u) - rhs_u) / np.linalg.norm(rhs_u)
            raise SolverFailureError(
                f"GMRES did not converge on interval {system.interval} "
                f"(info={info})", residual=res, iterations=iterations,
                interval=system.interval, stage="gmres")
    x = np.zeros(r * (nw + nv))
    x[: r * nw] = u
    u = u.reshape(r, nw)
    for i in range(r):
        x[r * nw + i * nv: r * nw + (i + 1) * nv] = flux_lu.solve(B.T @ u[i])
    _check_residual(system, x, tol, "schur")
    return x


def solve_step(system, tol=DEFAULT_TOL, strategy="direct"):
    """Solve one interval's block system.

    Returns (U, Q) with U of shape (r, n_scalar) and Q of shape (r, n_flux),
    the Gauss-point coefficients i = 1..r.  A non-finite right-hand side is
    rejected before anything is factored or iterated.
    """
    if not np.all(np.isfinite(system.rhs)):
        raise SolverFailureError(
            f"non-finite right-hand side on interval {system.interval}",
            interval=system.interval, stage="rhs")
    if strategy == "direct":
        x = _solve_direct(system, tol)
    elif strategy == "schur":
        x = _solve_schur(system, tol)
    else:
        raise ValueError(f"unknown solver strategy {strategy!r}")
    r = system.basis.r
    nw, nv = system.matrices.n_scalar, system.matrices.n_flux
    U = x[: r * nw].reshape(r, nw)
    Q = x[r * nw:].reshape(r, nv)
    return U, Q


def endpoint_value(basis, coeffs):
    """Evaluate a coefficient stack (r+1, n) at the interval's right endpoint."""
    return np.einsum("j,jn->n", basis.endpoint_weights, coeffs)


class SpaceTimeSolution:
    """Per-interval coefficient stacks of the scalar and flux expansions."""

    def __init__(self, partition, basis, scalar_space, flux_space):
        self.partition = partition
        self.basis = basis
        self.scalar_space = scalar_space
        self.flux_space = flux_space
        self.scalar_coeffs = []  # one (r+1, n_scalar) array per interval
        self.flux_coeffs = []    # one (r+1, n_flux) array per interval

    @property
    def n_intervals(self):
        return len(self.scalar_coeffs)

    def append_interval(self, u_stack, q_stack):
        self.scalar_coeffs.append(u_stack)
        self.flux_coeffs.append(q_stack)

    def coefficients_at(self, t):
        """Global coefficient vectors (scalar, flux) of the solution at time t."""
        n = self.partition.locate(t)
        t0 = self.partition.nodes[n]
        tau = self.partition.step_size(n)
        that = np.clip((t - t0) / tau, 0.0, 1.0)
        w = self.basis.eval_trial_all(np.array([that]))[0]
        u = np.einsum("j,jn->n", w, self.scalar_coeffs[n])
        q = np.einsum("j,jn->n", w, self.flux_coeffs[n])
        return u, q

    def dump_checkpoint(self, path):
        """Text checkpoint: one `interval j value...` record per line."""
        with open(path, "w") as fh:
            fh.write(f"# intervals {self.n_intervals} r {self.basis.r} "
                     f"nw {self.scalar_space.n_dofs} nv {self.flux_space.n_dofs}\n")
            for n in range(self.n_intervals):
                for j in range(self.basis.r + 1):
                    row = " ".join(repr(float(v)) for v in self.scalar_coeffs[n][j])
                    fh.write(f"u {n} {j} {row}\n")
                for j in range(self.basis.r + 1):
                    row = " ".join(repr(float(v)) for v in self.flux_coeffs[n][j])
                    fh.write(f"q {n} {j} {row}\n")


def load_checkpoint(path):
    """Read back a dump_checkpoint file as (scalar_stacks, flux_stacks)."""
    scalars, fluxes = {}, {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            kind, n, j, *vals = line.split()
            target = scalars if kind == "u" else fluxes
            target.setdefault(int(n), {})[int(j)] = np.array(
                [float(v) for v in vals])
    def stack(d):
        return [np.array([d[n][j] for j in sorted(d[n])]) for n in sorted(d)]
    return stack(scalars), stack(fluxes)


def run(data, mesh, p, r, n_steps, solver="direct", tol=DEFAULT_TOL,
        rule=None):
    """March the scheme over a uniform partition of (0, T] with N intervals."""
    partition = TimePartition.uniform(data.final_time, n_steps)
    basis = build_basis(r)
    scalar_space, flux_space = build_pair(mesh, p)
    matrices = SystemMatrices(scalar_space, flux_space, data.diffusion, rule)
    solution = SpaceTimeSolution(partition, basis, scalar_space, flux_space)
    u0, q0 = initial_coefficients(data, scalar_space, flux_space, matrices.rule)
    for n in range(n_steps):
        system = build_step_system(n, basis, matrices, data, u0, partition)
        U, Q = solve_step(system, tol=tol, strategy=solver)
        u_stack = np.vstack([u0[None, :], U])
        q_stack = np.vstack([q0[None, :], Q])
        solution.append_interval(u_stack, q_stack)
        u0 = endpoint_value(basis, u_stack)
        q0 = endpoint_value(basis, q_stack)
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
    for n in range(solution.n_intervals):
        tau = part.step_size(n)
        load = assembly.assemble_load(matrices.scalar_space, data.source,
                                      part.nodes[n] + tau * basis.test_nodes,
                                      matrices.rule)
        # per-cell sums, one column per Gauss index i
        mwu = (matrices.mass_scalar @ solution.scalar_coeffs[n].T)[cell_dofs]
        acc = mwu.sum(axis=1) @ basis.alpha.T
        bq = (matrices.div @ solution.flux_coeffs[n][1:].T)[cell_dofs].sum(axis=1)
        tb = tau * basis.beta
        rhs = tb * load[cell_dofs].sum(axis=1)
        scale = np.maximum.reduce([np.abs(acc), tb * np.abs(bq), np.abs(rhs)])
        scale = np.maximum(scale, 1e-30)
        worst = max(worst, float(np.max(np.abs(acc + tb * bq - rhs) / scale)))
    return worst
