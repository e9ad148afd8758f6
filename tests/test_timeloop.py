import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import assume, given, settings, strategies as hst
from numpy.testing import assert_allclose

import stmfem as st
from stmfem import timeloop
from stmfem.assembly import CoefficientField, assemble_load, l2_project_flux
from stmfem.exceptions import InvalidMeshError, SolverFailureError
from stmfem.mesh import distort, unit_square_mesh
from stmfem.spaces import build_pair
from stmfem.timebasis import TimePartition, build_basis
from stmfem.timeloop import (
    ProblemData,
    SystemMatrices,
    build_step_system,
    endpoint_value,
    initial_coefficients,
    local_mass_balance,
    run,
    solve_step,
)

from pointwise import cell_map, coefficients_at, eval_scalar


def zero_scalar(x):
    return np.zeros(len(np.atleast_2d(x)))


def zero_flux(x):
    return np.zeros((len(np.atleast_2d(x)), 2))


def zero_source(x, t):
    return np.zeros((len(t), len(np.atleast_2d(x))))


@pytest.fixture(scope="module")
def zero_data():
    return ProblemData(diffusion=CoefficientField.identity(),
                       initial_scalar=zero_scalar, source=zero_source,
                       final_time=1.0, initial_flux=zero_flux)


@pytest.fixture(scope="module")
def poly_problem():
    """u = t^2 x1(1-x1) x2(1-x2), exactly representable for r=2, p=2."""

    def u(x, t):
        x = np.atleast_2d(x)
        return np.outer(t**2, x[:, 0] * (1 - x[:, 0]) * x[:, 1] * (1 - x[:, 1]))

    def q(x, t):
        x = np.atleast_2d(x)
        return (-t**2)[:, None, None] * np.column_stack([
            (1 - 2 * x[:, 0]) * x[:, 1] * (1 - x[:, 1]),
            x[:, 0] * (1 - x[:, 0]) * (1 - 2 * x[:, 1])])

    def div_q(x, t):
        x = np.atleast_2d(x)
        return np.outer(2 * t**2,
                        x[:, 0] * (1 - x[:, 0]) + x[:, 1] * (1 - x[:, 1]))

    def f(x, t):
        x = np.atleast_2d(x)
        return (np.outer(2 * t, x[:, 0] * (1 - x[:, 0]) * x[:, 1] * (1 - x[:, 1]))
                + div_q(x, t))

    exact = st.ManufacturedSolution(scalar=u, flux=q, source=f, div_flux=div_q)
    data = ProblemData(diffusion=CoefficientField.identity(),
                       initial_scalar=lambda x: u(x, np.zeros(1))[0], source=f,
                       final_time=1.0,
                       initial_flux=lambda x: q(x, np.zeros(1))[0])
    return exact, data


class TestInitialCoefficients:
    def test_zero_datum(self, zero_data):
        scalar, flux = build_pair(unit_square_mesh(1), 2)
        u0, q0 = initial_coefficients(zero_data, scalar, flux)
        assert np.max(np.abs(u0)) < 1e-14
        assert np.max(np.abs(q0)) < 1e-12

    def test_datum_in_space_reproduced(self, rng):
        mesh = unit_square_mesh(1)
        scalar, flux = build_pair(mesh, 1)
        coef = rng.standard_normal(scalar.n_dofs)

        def u0(x):
            x = np.atleast_2d(x)
            out = np.empty(len(x))
            for k in range(mesh.n_cells):
                xhat = cell_map(mesh, k).inverse(x)
                inside = np.all((xhat > -1e-9) & (xhat < 1 + 1e-9), axis=1)
                out[inside] = eval_scalar(scalar, coef, k, xhat[inside])
            return out

        # only U^0 is checked, so the flux datum need not match u0
        data = ProblemData(diffusion=CoefficientField.identity(),
                           initial_scalar=u0, source=zero_source,
                           final_time=1.0, initial_flux=zero_flux)
        got, _ = initial_coefficients(data, scalar, flux)
        assert np.max(np.abs(got - coef)) < 1e-12

    def test_flux_init_against_projection_oracle(self):
        # u0 = sin(pi x) sin(pi y), D = I: initial flux is -grad u0
        mesh = unit_square_mesh(2)
        scalar, flux = build_pair(mesh, 2)
        pi = np.pi
        u0 = lambda x: np.sin(pi * np.atleast_2d(x)[:, 0]) * \
            np.sin(pi * np.atleast_2d(x)[:, 1])

        def minus_grad(x):
            x = np.atleast_2d(x)
            return -pi * np.column_stack([
                np.cos(pi * x[:, 0]) * np.sin(pi * x[:, 1]),
                np.sin(pi * x[:, 0]) * np.cos(pi * x[:, 1])])

        data = ProblemData(diffusion=CoefficientField.identity(),
                           initial_scalar=u0, source=zero_source,
                           final_time=1.0, initial_flux=minus_grad)
        _, q0 = initial_coefficients(data, scalar, flux)
        oracle = l2_project_flux(minus_grad, flux)
        assert np.max(np.abs(q0 - oracle)) < 1e-11

    @pytest.mark.parametrize("which", ["initial_scalar", "initial_flux"])
    def test_non_finite_datum_fails_before_the_first_step(self, zero_data,
                                                          monkeypatch, which):
        # the flux datum never enters the equations, so without this check a
        # NaN in it would pass every step and surface only as a NaN error
        def nan_datum(x):
            shape = (len(x),) if which == "initial_scalar" else (len(x), 2)
            return np.full(shape, np.nan)

        steps = []
        monkeypatch.setattr(timeloop, "build_step_system",
                            lambda *args: steps.append(1))
        data = dataclasses.replace(zero_data, **{which: nan_datum})
        with pytest.raises(SolverFailureError) as err:
            run(data, unit_square_mesh(1), p=1, r=2, n_steps=2)
        assert (err.value.interval, err.value.stage) == (0, "initial")
        assert steps == []


class TestStepSystem:
    def setup_method(self):
        self.mesh = unit_square_mesh(1)
        self.scalar, self.flux = build_pair(self.mesh, 2)
        self.basis = build_basis(2)
        self.matrices = SystemMatrices(self.scalar, self.flux,
                                       CoefficientField.identity())
        self.partition = TimePartition.uniform(1.0, 20)

    def test_zero_rhs(self, zero_data):
        u0 = np.zeros(self.scalar.n_dofs)
        system = build_step_system(0, self.basis, self.matrices, zero_data,
                                   u0, self.partition)
        assert np.max(np.abs(system.rhs)) == 0.0

    def test_zero_rhs_gives_zero_solution(self, zero_data):
        u0 = np.zeros(self.scalar.n_dofs)
        system = build_step_system(0, self.basis, self.matrices, zero_data,
                                   u0, self.partition)
        for strategy in ("direct", "schur"):
            U, Q = solve_step(system, strategy=strategy)
            assert np.max(np.abs(U)) == 0.0 and np.max(np.abs(Q)) == 0.0

    def test_r1_block_structure(self, zero_data):
        basis = build_basis(1)
        system = build_step_system(3, basis, self.matrices, zero_data,
                                   np.zeros(self.scalar.n_dofs), self.partition)
        mat = system.operator.matrix
        nw, nv = self.scalar.n_dofs, self.flux.n_dofs
        assert mat.shape == (nw + nv, nw + nv)
        # alpha = [-2, 2], beta = 1: scalar block is 2 M_W
        block = mat[:nw, :nw].toarray()
        assert_allclose(block, 2.0 * self.matrices.mass_scalar.toarray(),
                        atol=1e-14)

    def test_plugin_residual(self, rng, mms_problem):
        # a manufactured discrete solution satisfies the system it generates
        _, data = mms_problem
        u0 = rng.standard_normal(self.scalar.n_dofs)
        system = build_step_system(2, self.basis, self.matrices, data, u0,
                                   self.partition)
        x = rng.standard_normal(len(system.rhs))
        system.rhs = system.operator.matrix @ x
        U, Q = solve_step(system, strategy="direct")
        got = np.concatenate([U.ravel(), Q.ravel()])
        assert np.max(np.abs(got - x)) < 1e-10

    def test_strategies_agree(self, mms_problem):
        _, data = mms_problem
        u0, _ = initial_coefficients(data, self.scalar, self.flux)
        system = build_step_system(0, self.basis, self.matrices, data, u0,
                                   self.partition)
        Ud, Qd = solve_step(system, strategy="direct")
        Us, Qs = solve_step(system, strategy="schur")
        assert np.max(np.abs(Ud - Us)) < 1e-9
        assert np.max(np.abs(Qd - Qs)) < 1e-9

    def test_dense_lu_oracle(self, mms_problem):
        _, data = mms_problem
        u0, _ = initial_coefficients(data, self.scalar, self.flux)
        system = build_step_system(0, self.basis, self.matrices, data, u0,
                                   self.partition)
        U, Q = solve_step(system, strategy="direct")
        dense = np.linalg.solve(system.operator.matrix.toarray(), system.rhs)
        got = np.concatenate([U.ravel(), Q.ravel()])
        assert np.max(np.abs(got - dense)) < 1e-10

    def test_unknown_strategy(self, zero_data):
        system = build_step_system(0, self.basis, self.matrices, zero_data,
                                   np.zeros(self.scalar.n_dofs), self.partition)
        with pytest.raises(ValueError):
            solve_step(system, strategy="magic")

    def test_impossible_tolerance_raises(self, mms_problem, monkeypatch):
        _, data = mms_problem
        u0, _ = initial_coefficients(data, self.scalar, self.flux)
        system = build_step_system(3, self.basis, self.matrices, data, u0,
                                   self.partition)
        monkeypatch.setattr(timeloop, "DEFAULT_TOL", 1e-30)
        with pytest.raises(SolverFailureError) as err:
            solve_step(system, strategy="direct")
        assert err.value.residual is not None
        assert (err.value.interval, err.value.stage) == (3, "direct")

    def test_schur_residual_miss_names_interval_and_stage(self, mms_problem,
                                                          monkeypatch):
        _, data = mms_problem
        u0, _ = initial_coefficients(data, self.scalar, self.flux)
        system = build_step_system(3, self.basis, self.matrices, data, u0,
                                   self.partition)
        monkeypatch.setattr(timeloop, "DEFAULT_TOL", 1e-30)
        with pytest.raises(SolverFailureError) as err:
            solve_step(system, strategy="schur")
        assert (err.value.interval, err.value.stage) == (3, "schur")

    @pytest.mark.parametrize("misses, solves", [(0, 1), (1, 2)])
    @pytest.mark.parametrize("strategy", ["direct", "schur"])
    def test_refines_only_when_one_solve_misses(self, mms_problem, strategy,
                                                misses, solves):
        _, data = mms_problem
        u0, _ = initial_coefficients(data, self.scalar, self.flux)
        system = build_step_system(2, self.basis, self.matrices, data, u0,
                                   self.partition)
        calls = _perturb_solves(system, eps=1e-4, misses=misses)
        U, Q = solve_step(system, strategy=strategy)
        assert len(calls) == solves
        dense = np.linalg.solve(system.operator.matrix.toarray(), system.rhs)
        got = np.concatenate([U.ravel(), Q.ravel()])
        assert np.max(np.abs(got - dense)) < 1e-10

    @pytest.mark.parametrize("strategy", ["direct", "schur"])
    def test_refinement_miss_raises(self, mms_problem, strategy):
        _, data = mms_problem
        u0, _ = initial_coefficients(data, self.scalar, self.flux)
        system = build_step_system(2, self.basis, self.matrices, data, u0,
                                   self.partition)
        calls = _perturb_solves(system, eps=1e-3, misses=2)
        with pytest.raises(SolverFailureError) as err:
            solve_step(system, strategy=strategy)
        assert len(calls) == 2
        assert (err.value.interval, err.value.stage) == (2, strategy)


def _perturb_solves(system, eps, misses):
    """Make the first `misses` solves of either strategy miss by eps relative.

    A perturbed solution is multiplied entrywise by 1 +- eps with fixed
    signs, an error that one GMRES step along the residual does not remove.
    Both strategies solve by `op.solve`; in `schur` each solve starts one
    GMRES step.  Returns one entry per solve.
    """
    op = system.operator
    signs = np.random.default_rng(0).choice([-1.0, 1.0], len(system.rhs))
    calls = []

    def counted(solve):
        def apply(b):
            calls.append(1)
            x = solve(b)
            return x * (1.0 + eps * signs) if len(calls) <= misses else x
        return apply

    op.solve = counted(op.solve)
    return calls


def _count_gmres(monkeypatch):
    """Record the iteration count of every GMRES call timeloop makes."""
    calls = []
    gmres = timeloop.spla.gmres

    def count(_residual):
        calls[-1] += 1

    def counted_gmres(*args, **kwargs):
        calls.append(0)
        return gmres(*args, callback=count, callback_type="pr_norm", **kwargs)

    monkeypatch.setattr(timeloop.spla, "gmres", counted_gmres)
    return calls


def _count_splu(monkeypatch):
    """Record the shape of every matrix scipy's splu factors: timeloop's
    edge systems and the initial flux projection's mass."""
    calls = []
    splu = timeloop.spla.splu

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(timeloop.spla, "splu", counted)
    return calls


def _dense_block(matrices, basis, tau):
    """The interval's block matrix, built densely from the three matrices."""
    r, MW = basis.r, matrices.mass_scalar.toarray()
    B, MD = matrices.div.toarray(), matrices.mass_flux.toarray()
    rows = []
    for i in range(r):
        rows.append([basis.alpha[i, j + 1] * MW for j in range(r)]
                    + [tau * basis.beta[i] * B if j == i else np.zeros_like(B)
                       for j in range(r)])
    for i in range(r):
        rows.append([-B.T if j == i else np.zeros_like(B.T) for j in range(r)]
                    + [MD if j == i else np.zeros_like(MD) for j in range(r)])
    return np.block(rows)


class TestFactorizations:
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("solver", ["direct", "schur"])
    def test_uniform_run_factors_once(self, mms_problem, monkeypatch, r,
                                      solver):
        # linspace(0, 1, 11) gives four step sizes that differ in the last ulp
        _, data = mms_problem
        mesh = unit_square_mesh(1)
        calls = _count_splu(monkeypatch)
        run(data, mesh, p=1, r=r, n_steps=10, solver=solver)
        n_edge = build_pair(mesh, 1)[1].n_edge_dofs
        # the initial flux is zero, so its projection factors nothing; both
        # solvers factor one edge system per real eigenvalue or conjugate pair
        assert calls == [(n_edge, n_edge)] * ((r + 1) // 2)

    def test_distinct_steps_get_their_own_factor(self, mms_problem,
                                                 monkeypatch):
        _, data = mms_problem
        scalar, flux = build_pair(unit_square_mesh(1), 1)
        basis = build_basis(2)
        matrices = SystemMatrices(scalar, flux, data.diffusion)
        partition = TimePartition(np.array([0.0, 0.1, 0.3]))
        calls = _count_splu(monkeypatch)
        u0, _ = initial_coefficients(data, scalar, flux)
        for n, tau in enumerate([0.1, 0.2]):
            system = build_step_system(n, basis, matrices, data, u0, partition)
            U, Q = solve_step(system, strategy="direct")
            dense = np.linalg.solve(_dense_block(matrices, basis, tau),
                                    system.rhs)
            got = np.concatenate([U.ravel(), Q.ravel()])
            assert np.max(np.abs(got - dense)) < 1e-10
            u0 = endpoint_value(basis, np.vstack([u0[None, :], U]))
        # one edge system per step size (r = 2 has one conjugate pair of
        # shifts); the zero initial flux factors nothing
        n_edge = flux.n_edge_dofs
        assert calls == [(n_edge, n_edge)] * 2

    def test_edge_factor_fill(self):
        # the symmetric ordering against scipy's default COLAMD with partial
        # pivoting, on the same condensed matrix of the one conjugate pair of
        # shifts (the ratio is 0.54 here, about 0.73 on L3, where the edge
        # system is smaller)
        scalar, flux = build_pair(unit_square_mesh(4), 2)
        matrices = SystemMatrices(scalar, flux, CoefficientField.identity())
        op = matrices.operator(build_basis(2), 0.1)
        lam = np.linalg.eigvals(op.basis.alpha[:, 1:] / op.basis.beta[:, None])
        lu = timeloop.CondensedLU(lam[lam.imag > 0][0], op.tau, op)
        ne = flux.n_edge_dofs
        default = scipy.sparse.linalg.splu(
            (op.mass_flux[:ne, :ne] - lu.a_gi @ lu.elim).tocsc())
        fill = lu.edge_lu.L.nnz + lu.edge_lu.U.nnz
        assert fill <= 0.6 * (default.L.nnz + default.U.nnz)

    def test_direct_factor_fill(self, monkeypatch):
        # the work guard of the decoupled solve: the coupled r-block edge
        # system had nnz(L+U) = 412,944 here, the one shifted block 104,052
        fills = []
        splu = timeloop.spla.splu

        def recorded(*args, **kwargs):
            lu = splu(*args, **kwargs)
            fills.append(lu.L.nnz + lu.U.nnz)
            return lu

        scalar, flux = build_pair(unit_square_mesh(4), 2)
        op = SystemMatrices(scalar, flux, CoefficientField.identity()).operator(
            build_basis(2), 1.0 / 160)
        monkeypatch.setattr(timeloop.spla, "splu", recorded)
        system = timeloop.StepSystem(interval=0, rhs=np.ones(op.matrix.shape[0]),
                                     operator=op)
        solve_step(system, strategy="direct")
        assert len(fills) == 1 and fills[0] <= 110_000


def _random_step(zero_data, p, r, distortion, seed):
    """An interval system on a distorted L1 mesh, its right-hand side random."""
    mesh = distort(unit_square_mesh(1), distortion, seed)
    scalar, flux = build_pair(mesh, p)
    basis = build_basis(r)
    matrices = SystemMatrices(scalar, flux, CoefficientField.identity())
    system = build_step_system(0, basis, matrices, zero_data,
                               np.zeros(scalar.n_dofs),
                               TimePartition.uniform(1.0, 10))
    system.rhs = np.random.default_rng(seed).standard_normal(len(system.rhs))
    return system


def _backward_error(A, x, b):
    """||Ax - b|| / (||A|| ||x|| + ||b||) with dense A, Frobenius norm."""
    return np.linalg.norm(A @ x - b) / (
        np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))


_step_cases = given(p=hst.integers(0, 4), r=hst.integers(1, 5),
                    distortion=hst.floats(0.0, 0.45, exclude_max=True),
                    seed=hst.integers(0, 2**32 - 1))


def _rotated_diffusion(angle, ratio):
    """The constant tensor R diag(1, ratio) R^T, R the rotation by angle."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    D = rot @ np.diag([1.0, ratio]) @ rot.T
    return CoefficientField(
        lambda x: np.repeat(D[None], len(np.atleast_2d(x)), axis=0))


class TestCondensedSolve:
    """Both solvers, and the exact solve they share, against dense solves."""

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @_step_cases
    def test_matches_dense_solve(self, zero_data, p, r, distortion, seed):
        # a random right-hand side reaches the flux rows too
        system = _random_step(zero_data, p, r, distortion, seed)
        b = system.rhs
        U, Q = solve_step(system, strategy="direct")
        got = np.concatenate([U.ravel(), Q.ravel()])
        A = _dense_block(system.operator, system.operator.basis,
                         system.operator.tau)
        np.testing.assert_array_equal(system.operator.matrix.toarray(), A)
        dense = np.linalg.solve(A, b)
        assert np.max(np.abs(got - dense)) <= 1e-10 * np.max(np.abs(dense))
        # one exact solve, without the refinement solve_step may add, and
        # real however many of its shifts are complex
        one = system.operator.solve(b)
        assert one.dtype == np.float64
        for x in (got, one):
            assert _backward_error(A, x, b) <= 1e-14
        U, Q = solve_step(system, strategy="schur")
        got = np.concatenate([U.ravel(), Q.ravel()])
        assert np.max(np.abs(got - dense)) <= 1e-10 * np.max(np.abs(dense))

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(p=hst.integers(0, 3), r=hst.integers(1, 5),
           distortion=hst.floats(0.0, 0.45, exclude_max=True),
           seed=hst.integers(0, 2**32 - 1), log_tau=hst.floats(-6.0, 0.0),
           angle=hst.floats(0.0, np.pi), log_ratio=hst.floats(0.0, 4.0))
    def test_one_symmetric_mode_solve_meets_tolerance(
            self, p, r, distortion, seed, log_tau, angle, log_ratio):
        # the edge systems are factored with diagonal pivots only; one exact
        # solve must still meet the tolerance without refinement, for tiny
        # steps and strongly anisotropic diffusion
        try:
            mesh = distort(unit_square_mesh(2), distortion, seed)
        except InvalidMeshError:
            assume(False)
        scalar, flux = build_pair(mesh, p)
        matrices = SystemMatrices(scalar, flux,
                                  _rotated_diffusion(angle, 10.0**log_ratio))
        op = matrices.operator(build_basis(r), 10.0**log_tau)
        b = np.random.default_rng(seed).standard_normal(op.matrix.shape[0])
        x = op.solve(b)
        error = np.linalg.norm(op.matrix @ x - b) / (
            op.norm * np.linalg.norm(x) + np.linalg.norm(b))
        assert error <= 1e-12

    @pytest.mark.parametrize("p, r", [(2, 2), (1, 5)])
    def test_schur_step_takes_one_gmres_iteration(self, mms_problem,
                                                  monkeypatch, p, r):
        # the exact decoupled start leaves nothing to refine: the step applies
        # it once and takes one GMRES iteration, with no refinement
        _, data = mms_problem
        iterations = _count_gmres(monkeypatch)
        scalar, flux = build_pair(distort(unit_square_mesh(4), 0.25, 1), p)
        u0, _ = initial_coefficients(data, scalar, flux)
        system = build_step_system(
            1, build_basis(r), SystemMatrices(scalar, flux, data.diffusion),
            data, u0, TimePartition.uniform(1.0, 160))
        solves = _perturb_solves(system, eps=0.0, misses=0)
        solve_step(system, strategy="schur")
        assert len(solves) == 1
        assert iterations == [1]

    def test_stalled_schur_step_fails_after_two_gmres_steps(self, mms_problem,
                                                             monkeypatch):
        # decoupled solves off by 1e-3 everywhere: one step and its
        # refinement both miss, and each GMRES call stops after one iteration
        _, data = mms_problem
        scalar, flux = build_pair(distort(unit_square_mesh(2), 0.25, 1), 2)
        u0, _ = initial_coefficients(data, scalar, flux)
        system = build_step_system(
            1, build_basis(2), SystemMatrices(scalar, flux, data.diffusion),
            data, u0, TimePartition.uniform(1.0, 20))
        iterations = _count_gmres(monkeypatch)
        solves = _perturb_solves(system, eps=1e-3, misses=np.inf)
        with pytest.raises(SolverFailureError) as err:
            solve_step(system, strategy="schur")
        assert (err.value.interval, err.value.stage) == (1, "schur")
        assert len(solves) == 2
        assert iterations == [1, 1]

    def test_exact_schur_start_is_returned_unchanged(self, monkeypatch):
        # b = A x and a decoupled solve that returns x: GMRES starts from a
        # zero residual and must return x as it is, without dividing by
        # that residual's norm (any warning fails under the suite's filter)
        scalar, flux = build_pair(distort(unit_square_mesh(1), 0.25, 1), 1)
        matrices = SystemMatrices(scalar, flux, CoefficientField.identity())
        op = matrices.operator(build_basis(2), 0.1)
        x = np.random.default_rng(0).standard_normal(op.matrix.shape[0])
        # b from the product GMRES multiplies by, so its residual is zero
        system = timeloop.StepSystem(interval=0, rhs=op.apply(x), operator=op)
        monkeypatch.setattr(op, "solve", lambda b: x.copy())
        U, Q = solve_step(system, strategy="schur")
        np.testing.assert_array_equal(np.concatenate([U.ravel(), Q.ravel()]),
                                      x)


def _operator(p, r, distortion, tau=0.05):
    mesh = distort(unit_square_mesh(2), distortion, 1)
    scalar, flux = build_pair(mesh, p)
    matrices = SystemMatrices(scalar, flux, CoefficientField.identity())
    return matrices.operator(build_basis(r), tau)


_operator_cases = pytest.mark.parametrize(
    "p, r, distortion", [(p, r, d) for p in range(4) for r in range(1, 6)
                         for d in (0.0, 0.3)])


class TestIntervalOperator:
    @_operator_cases
    def test_apply_is_the_matrix_product(self, p, r, distortion):
        op = _operator(p, r, distortion)
        x = np.random.default_rng(p + 10 * r).standard_normal(op.matrix.shape[1])
        want = op.matrix @ x
        assert np.linalg.norm(op.apply(x) - want) <= 1e-14 * np.linalg.norm(want)

    @_operator_cases
    def test_norm_is_the_matrix_norm(self, p, r, distortion):
        op = _operator(p, r, distortion)
        assert "matrix" not in vars(op)  # the norm is read from the blocks
        want = scipy.sparse.linalg.norm(op.matrix)
        assert abs(op.norm - want) <= 1e-13 * want

    @pytest.mark.parametrize("solver", timeloop.SOLVERS)
    def test_run_never_assembles_the_matrix(self, mms_problem, monkeypatch,
                                            solver):
        def unreachable(op):
            raise AssertionError("the step path assembled the block matrix")

        monkeypatch.setattr(timeloop.IntervalOperator, "matrix",
                            property(unreachable))
        _, data = mms_problem
        mesh = distort(unit_square_mesh(2), 0.25, 1)
        sol = run(data, mesh, p=1, r=2, n_steps=3, solver=solver)
        assert len(sol.gauss_rows) == 3
        # nor does a step whose first solve misses and is refined
        scalar, flux = build_pair(mesh, 1)
        u0, _ = initial_coefficients(data, scalar, flux)
        system = build_step_system(
            0, build_basis(2), SystemMatrices(scalar, flux, data.diffusion),
            data, u0, TimePartition.uniform(1.0, 3))
        calls = _perturb_solves(system, eps=1e-4, misses=1)
        solve_step(system, strategy=solver)
        assert len(calls) == 2

    def test_usable_after_its_matrices_are_dropped(self):
        # the operator holds the spaces and matrices it reads, so it still
        # factors and solves once the SystemMatrices that built it is gone
        scalar, flux = build_pair(unit_square_mesh(1), 1)
        op = SystemMatrices(scalar, flux, CoefficientField.identity()).operator(
            build_basis(2), 0.1)
        b = np.random.default_rng(0).standard_normal(op.matrix.shape[0])
        x = op.solve(b)
        error = np.linalg.norm(op.matrix @ x - b) / (
            op.norm * np.linalg.norm(x) + np.linalg.norm(b))
        assert error <= 1e-12

    def test_no_cycle_keeps_the_operator_alive(self):
        # reference counting alone frees the operator with its factors:
        # nothing it holds refers back to it or to the SystemMatrices
        scalar, flux = build_pair(unit_square_mesh(1), 1)
        matrices = SystemMatrices(scalar, flux, CoefficientField.identity())
        op = matrices.operator(build_basis(2), 0.1)
        b = np.ones(op.matrix.shape[0])
        op.solve(b)
        ref = weakref.ref(op)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del matrices, op
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestAdvance:
    def test_constant_interval(self):
        basis = build_basis(2)
        stack = np.tile(np.array([[1.5, -2.0]]), (3, 1))
        assert_allclose(endpoint_value(basis, stack), [1.5, -2.0], rtol=1e-14)

    def test_r1_formula(self):
        basis = build_basis(1)
        u0 = np.array([2.0])
        u1 = np.array([5.0])
        out = endpoint_value(basis, np.vstack([u0, u1]))
        assert_allclose(out, [-2.0 + 2 * 5.0], rtol=1e-14)

    def test_r2_endpoint_weights(self):
        basis = build_basis(2)
        assert_allclose(basis.endpoint_weights,
                        [1.0, -np.sqrt(3.0), np.sqrt(3.0)], rtol=1e-14)


def _hand_march(data, mesh, p, r, n_steps, solver):
    """The (r+1)-row scalar and flux stacks of a march written out with
    build_step_system, solve_step and endpoint_value."""
    partition = TimePartition.uniform(data.final_time, n_steps)
    basis = build_basis(r)
    scalar, flux = build_pair(mesh, p)
    matrices = SystemMatrices(scalar, flux, data.diffusion)
    u0, q0 = initial_coefficients(data, scalar, flux)
    u_stacks, q_stacks = [], []
    for n in range(n_steps):
        system = build_step_system(n, basis, matrices, data, u0, partition)
        U, Q = solve_step(system, strategy=solver)
        u_stacks.append(np.vstack([u0[None, :], U]))
        q_stacks.append(np.vstack([q0[None, :], Q]))
        u0 = endpoint_value(basis, u_stacks[-1])
        q0 = endpoint_value(basis, q_stacks[-1])
    return u_stacks, q_stacks


class TestRun:
    def test_zero_data_zero_solution(self, zero_data):
        sol = run(zero_data, unit_square_mesh(1), p=1, r=2, n_steps=3)
        for stack in [*sol.scalar_stacks(), *sol.flux_stacks()]:
            assert np.max(np.abs(stack)) < 1e-13

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("solver", ["direct", "schur"])
    def test_stacks_match_hand_march(self, mms_problem, r, solver):
        _, data = mms_problem
        mesh = unit_square_mesh(1)
        sol = run(data, mesh, p=1, r=r, n_steps=4, solver=solver)
        hand_u, hand_q = _hand_march(data, mesh, 1, r, 4, solver)
        got_u, got_q = list(sol.scalar_stacks()), list(sol.flux_stacks())
        assert len(got_u) == len(got_q) == len(sol.gauss_rows) == 4
        for got, hand in zip(got_u + got_q, hand_u + hand_q):
            assert np.array_equal(got, hand)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_each_interval_stores_r_rows(self, mms_problem, r):
        # the traced bytes deleting the solution of an N- and a 2N-step run
        # frees: the spaces and their cached tables are alike in both and
        # cancel, and what the run leaves elsewhere is not counted
        _, data = mms_problem
        mesh = unit_square_mesh(2)
        n_steps = 32
        held = []
        tracemalloc.start()
        try:
            for steps in (n_steps, 2 * n_steps):
                sol = run(data, mesh, p=2, r=r, n_steps=steps)
                n = sol.scalar_space.n_dofs + sol.flux_space.n_dofs
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                del sol
                gc.collect()
                held.append(before - tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        rows = r * n * 8
        per_interval = (held[1] - held[0]) / n_steps
        # the r rows of one array, plus its array objects, views and list
        # slot (about 470 bytes), not r + 1 rows of each field
        assert rows <= per_interval < rows + 1024

    @pytest.mark.parametrize("n_steps", [2, 5])
    def test_polynomial_exactness(self, poly_problem, n_steps):
        exact, data = poly_problem
        sol = run(data, unit_square_mesh(1), p=2, r=2, n_steps=n_steps)
        assert st.error_u(sol, exact) < 1e-9
        assert st.error_q_V(sol, exact) < 1e-9

    def test_continuity_across_intervals(self, mms_problem, rng):
        exact, data = mms_problem
        mesh = unit_square_mesh(1)
        sol = run(data, mesh, p=2, r=2, n_steps=5)
        hand_u, hand_q = _hand_march(data, mesh, 2, 2, 5, "direct")
        xhat = rng.uniform(0.05, 0.95, (10, 2))
        stacks = zip(sol.scalar_stacks(), sol.flux_stacks())
        for n, (u_stack, q_stack) in enumerate(stacks):
            if n == 0:
                continue
            # each start row is the hand march's previous endpoint value
            right_u, right_q = u_stack[0], q_stack[0]
            assert np.array_equal(right_u, endpoint_value(sol.basis, hand_u[n - 1]))
            assert np.array_equal(right_q, endpoint_value(sol.basis, hand_q[n - 1]))
            # reconstruction through coefficients_at is continuous too
            u_at, q_at = coefficients_at(sol, sol.partition.nodes[n])
            for k in (0, 3):
                vals = eval_scalar(sol.scalar_space, u_at, k, xhat)
                ref = eval_scalar(sol.scalar_space, right_u, k, xhat)
                assert np.max(np.abs(vals - ref)) < 1e-13

    @pytest.mark.parametrize("solver", ["direct", "schur"])
    def test_only_the_flux_error_norm_maps_flux_tables(self, mms_problem,
                                                       monkeypatch, solver):
        # M_D, B and the moments of a nonzero initial flux come from the
        # reference basis and the cell geometry: run() makes no Piola table,
        # and the two error norms make one per level, for its flux space
        import stmfem.assembly as asm

        piola_values = asm.piola_values
        mapped = []

        def counting(space, *args, **kwargs):
            mapped.append(space)
            return piola_values(space, *args, **kwargs)

        monkeypatch.setattr(asm, "piola_values", counting)
        exact, data = mms_problem
        data = dataclasses.replace(data, initial_flux=lambda x: np.column_stack(
            [1.0 + x[:, 1], x[:, 0] ** 2]))
        for level in (1, 2):
            sol = run(data, distort(unit_square_mesh(level), 0.2, 3), p=2, r=2,
                      n_steps=3, solver=solver)
            assert len(mapped) == level - 1
            assert sol.flux_space.evaluations == {}
            st.error_u(sol, exact)
            st.error_q_V(sol, exact)
            assert len(mapped) == level and mapped[-1] is sol.flux_space

    def test_unknown_solver_fails_before_set_up(self, zero_data, monkeypatch):
        # a nonzero initial flux is projected with one splu; a solver run()
        # cannot apply fails before that, or any space or matrix, is built
        data = dataclasses.replace(
            zero_data, initial_flux=lambda x: np.ones((len(np.atleast_2d(x)), 2)))
        calls = _count_splu(monkeypatch)
        with pytest.raises(ValueError, match="'gmres'"):
            run(data, unit_square_mesh(1), p=1, r=2, n_steps=2, solver="gmres")
        assert calls == []
        run(data, unit_square_mesh(1), p=1, r=2, n_steps=1)
        assert len(calls) == 2  # the flux projection and the one shift

    @pytest.mark.parametrize("solver", ["direct", "schur"])
    def test_non_finite_source_fails_at_its_interval(self, mms_problem,
                                                     monkeypatch, solver):
        _, data = mms_problem

        def source(x, t):
            f = data.source(x, t)
            f[t > 0.5, 0] = np.nan
            return f

        gmres_calls = []
        gmres = timeloop.spla.gmres

        def counted_gmres(*args, **kwargs):
            gmres_calls.append(1)
            return gmres(*args, **kwargs)

        monkeypatch.setattr(timeloop.spla, "gmres", counted_gmres)
        with pytest.raises(SolverFailureError) as err:
            run(dataclasses.replace(data, source=source), unit_square_mesh(1),
                p=1, r=2, n_steps=4, solver=solver)
        assert (err.value.interval, err.value.stage) == (2, "rhs")
        # intervals 0 and 1 only: the bad interval never reaches GMRES
        assert len(gmres_calls) == (2 if solver == "schur" else 0)

    @settings(max_examples=15, derandomize=True, database=None, deadline=None)
    @given(p=hst.integers(0, 3), r=hst.integers(1, 5),
           distortion=hst.floats(0.0, 0.45, exclude_max=True),
           seed=hst.integers(0, 2**32 - 1))
    def test_determinism(self, mms_problem, p, r, distortion, seed):
        # everything downstream of a seeded distortion, the mesh included
        _, data = mms_problem
        a, b = (run(data, distort(unit_square_mesh(1), distortion, seed),
                    p=p, r=r, n_steps=4, solver="direct") for _ in range(2))
        for sa, sb in zip([*a.scalar_stacks(), *a.flux_stacks()],
                          [*b.scalar_stacks(), *b.flux_stacks()]):
            assert np.array_equal(sa, sb)

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(p=hst.integers(0, 3), r=hst.integers(1, 5),
           distortion=hst.floats(0.0, 0.45, exclude_max=True),
           seed=hst.integers(0, 2**32 - 1))
    def test_energy_identity(self, mms_problem, p, r, distortion, seed):
        # testing the scalar equations with U^i and using M_D Q^i = B^T U^i:
        # 1/2 |U(t_n+1)|^2_MW - 1/2 |U^0|^2_MW + tau sum_i beta_i |Q^i|^2_MD
        #   = tau sum_i beta_i (U^i)^T F(t_i) on every interval
        _, data = mms_problem
        sol = run(data, distort(unit_square_mesh(2), distortion, seed),
                  p=p, r=r, n_steps=10)
        m = SystemMatrices(sol.scalar_space, sol.flux_space, data.diffusion)
        basis, nodes = sol.basis, sol.partition.nodes
        taus = np.diff(nodes)
        times = (nodes[:-1, None] + taus[:, None] * basis.test_nodes).ravel()
        loads = assemble_load(sol.scalar_space, data.source,
                              times).T.reshape(len(taus), r, -1)
        for tau, U, Q, F in zip(taus, sol.scalar_stacks(), sol.flux_stacks(),
                                loads):
            end = endpoint_value(basis, U)
            energy = [0.5 * end @ (m.mass_scalar @ end),
                      -0.5 * U[0] @ (m.mass_scalar @ U[0]),
                      tau * basis.beta @ np.sum(Q[1:].T * (m.mass_flux @ Q[1:].T),
                                                axis=0)]
            work = tau * basis.beta @ np.sum(U[1:] * F, axis=1)
            scale = sum(abs(e) for e in energy) + abs(work)
            assert abs(sum(energy) - work) <= 1e-12 * scale

    def test_local_mass_balance(self, mms_problem):
        exact, data = mms_problem
        mesh = unit_square_mesh(1)
        scalar, flux = build_pair(mesh, 2)
        matrices = SystemMatrices(scalar, flux, data.diffusion)
        sol = run(data, mesh, p=2, r=2, n_steps=5)
        assert local_mass_balance(sol, data, matrices) < 1e-10

    def test_flux_constitutive_residual(self, mms_problem):
        # <D^{-1} Q^i, v> - <U^i, div v> = 0 for every basis function
        _, data = mms_problem
        mesh = unit_square_mesh(1)
        scalar, flux = build_pair(mesh, 2)
        matrices = SystemMatrices(scalar, flux, data.diffusion)
        sol = run(data, mesh, p=2, r=2, n_steps=4)
        for n in (0, 3):
            U, Q = sol.gauss_rows[n]
            for i in range(2):
                res = matrices.mass_flux @ Q[i] - matrices.div.T @ U[i]
                assert np.max(np.abs(res)) < 1e-11
