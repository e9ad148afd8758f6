import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from numpy.testing import assert_allclose

import stmfem as st
from stmfem import timeloop
from stmfem.assembly import CoefficientField, assemble_load
from stmfem.exceptions import SolverFailureError
from stmfem.mesh import distort, unit_square_mesh
from stmfem.spaces import build_pair, eval_scalar, l2_project_flux, FeFunction
from stmfem.timebasis import TimePartition, build_basis
from stmfem.timeloop import (
    ProblemData,
    SystemMatrices,
    build_step_system,
    endpoint_value,
    initial_coefficients,
    load_checkpoint,
    local_mass_balance,
    run,
    solve_step,
)


def zero_scalar(x):
    return np.zeros(len(np.atleast_2d(x)))


def zero_source(x, t):
    return np.zeros((len(t), len(np.atleast_2d(x))))


@pytest.fixture(scope="module")
def zero_data():
    return ProblemData(diffusion=CoefficientField.identity(),
                       initial_scalar=zero_scalar, source=zero_source,
                       final_time=1.0)


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

    exact = st.ManufacturedSolution(omega=0.0, scalar=u, flux=q,
                                    source=f, div_flux=div_q)
    data = ProblemData(diffusion=CoefficientField.identity(),
                       initial_scalar=lambda x: u(x, np.zeros(1))[0], source=f,
                       final_time=1.0)
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
        g = FeFunction(space=scalar, coefficients=coef)

        def u0(x):
            x = np.atleast_2d(x)
            out = np.empty(len(x))
            for k in range(mesh.n_cells):
                xhat = mesh.cell_map(k).inverse(x)
                inside = np.all((xhat > -1e-9) & (xhat < 1 + 1e-9), axis=1)
                out[inside] = eval_scalar(g, k, xhat[inside])
            return out

        data = ProblemData(diffusion=CoefficientField.identity(),
                           initial_scalar=u0, source=zero_source,
                           final_time=1.0)
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
        assert np.max(np.abs(q0 - oracle.coefficients)) < 1e-11

    def test_finite_difference_fallback(self):
        # no initial_flux given: fallback differentiates u0 numerically
        mesh = unit_square_mesh(1)
        scalar, flux = build_pair(mesh, 1)
        u0 = lambda x: np.atleast_2d(x)[:, 0] ** 2

        def minus_grad(x):
            x = np.atleast_2d(x)
            return np.column_stack([-2 * x[:, 0], np.zeros(len(x))])

        data = ProblemData(diffusion=CoefficientField.identity(),
                           initial_scalar=u0, source=zero_source,
                           final_time=1.0)
        _, q0 = initial_coefficients(data, scalar, flux)
        oracle = l2_project_flux(minus_grad, flux)
        assert np.max(np.abs(q0 - oracle.coefficients)) < 1e-8


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
        mat = system.full_matrix()
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
        system.rhs = system.full_matrix() @ x
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
        dense = np.linalg.solve(system.full_matrix().toarray(), system.rhs)
        got = np.concatenate([U.ravel(), Q.ravel()])
        assert np.max(np.abs(got - dense)) < 1e-10

    def test_unknown_strategy(self, zero_data):
        system = build_step_system(0, self.basis, self.matrices, zero_data,
                                   np.zeros(self.scalar.n_dofs), self.partition)
        with pytest.raises(ValueError):
            solve_step(system, strategy="magic")

    def test_impossible_tolerance_raises(self, mms_problem):
        _, data = mms_problem
        u0, _ = initial_coefficients(data, self.scalar, self.flux)
        system = build_step_system(3, self.basis, self.matrices, data, u0,
                                   self.partition)
        with pytest.raises(SolverFailureError) as err:
            solve_step(system, tol=1e-30, strategy="direct")
        assert err.value.residual is not None
        assert (err.value.interval, err.value.stage) == (3, "direct")

    def test_schur_residual_miss_names_interval_and_stage(self, mms_problem):
        _, data = mms_problem
        u0, _ = initial_coefficients(data, self.scalar, self.flux)
        system = build_step_system(3, self.basis, self.matrices, data, u0,
                                   self.partition)
        with pytest.raises(SolverFailureError) as err:
            solve_step(system, tol=1e-30, strategy="schur")
        assert (err.value.interval, err.value.stage) == (3, "schur")

    def test_gmres_failure_names_interval_and_stage(self, mms_problem,
                                                     monkeypatch):
        _, data = mms_problem
        u0, _ = initial_coefficients(data, self.scalar, self.flux)
        system = build_step_system(4, self.basis, self.matrices, data, u0,
                                   self.partition)
        applications = 3

        def failing_gmres(op, b, **kw):
            for _ in range(applications):
                op.matvec(b)
            return np.zeros_like(b), 7

        monkeypatch.setattr(timeloop.spla, "gmres", failing_gmres)
        with pytest.raises(SolverFailureError) as err:
            solve_step(system, strategy="schur")
        assert (err.value.interval, err.value.stage) == (4, "gmres")
        assert err.value.iterations == applications

    @pytest.mark.parametrize("misses, solves", [(0, 1), (1, 2)])
    def test_refines_only_when_one_solve_misses(self, mms_problem, misses,
                                                solves):
        _, data = mms_problem
        u0, _ = initial_coefficients(data, self.scalar, self.flux)
        system = build_step_system(2, self.basis, self.matrices, data, u0,
                                   self.partition)
        lu = _PerturbedLU(system.operator.lu, eps=1e-4, misses=misses)
        system.operator.lu = lu
        U, Q = solve_step(system, strategy="direct")
        assert lu.calls == solves
        dense = np.linalg.solve(system.full_matrix().toarray(), system.rhs)
        got = np.concatenate([U.ravel(), Q.ravel()])
        assert np.max(np.abs(got - dense)) < 1e-10

    def test_refinement_miss_raises(self, mms_problem):
        _, data = mms_problem
        u0, _ = initial_coefficients(data, self.scalar, self.flux)
        system = build_step_system(2, self.basis, self.matrices, data, u0,
                                   self.partition)
        lu = _PerturbedLU(system.operator.lu, eps=1e-3, misses=2)
        system.operator.lu = lu
        with pytest.raises(SolverFailureError) as err:
            solve_step(system, strategy="direct")
        assert lu.calls == 2
        assert (err.value.interval, err.value.stage) == (2, "direct")


class _PerturbedLU:
    """Exact LU solves, scaled by 1 + eps on the first `misses` calls."""

    def __init__(self, lu, eps, misses):
        self.lu, self.eps, self.misses = lu, eps, misses
        self.calls = 0

    def solve(self, rhs):
        self.calls += 1
        x = self.lu.solve(rhs)
        return x * (1.0 + self.eps) if self.calls <= self.misses else x


def _count_splu(monkeypatch):
    """Record the shape of every matrix timeloop factors."""
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
        if solver == "direct":
            # only the system in the edge flux moments is factored
            n_edge = r * build_pair(mesh, 1)[1].n_edge_dofs
            assert calls == [(n_edge, n_edge)]
        else:
            assert len(calls) == 1 + r

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
        assert len(calls) == 2


class TestCondensedSolve:
    """The condensed direct solve against a dense solve of the full matrix."""

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(p=hst.integers(0, 4), r=hst.integers(1, 5),
           distortion=hst.floats(0.0, 0.45, exclude_max=True),
           seed=hst.integers(0, 2**32 - 1))
    def test_matches_dense_solve(self, zero_data, p, r, distortion, seed):
        mesh = distort(unit_square_mesh(1), distortion, seed)
        scalar, flux = build_pair(mesh, p)
        basis = build_basis(r)
        matrices = SystemMatrices(scalar, flux, CoefficientField.identity())
        system = build_step_system(0, basis, matrices, zero_data,
                                   np.zeros(scalar.n_dofs),
                                   TimePartition.uniform(1.0, 10))
        # a random right-hand side reaches the flux rows too
        b = np.random.default_rng(seed).standard_normal(len(system.rhs))
        system.rhs = b
        U, Q = solve_step(system, strategy="direct")
        got = np.concatenate([U.ravel(), Q.ravel()])
        A = _dense_block(matrices, basis, system.operator.tau)
        dense = np.linalg.solve(A, b)
        assert np.max(np.abs(got - dense)) <= 1e-10 * np.max(np.abs(dense))
        # one condensed solve, without the refinement solve_step may add
        for x in (got, system.operator.lu.solve(b)):
            backward = np.linalg.norm(A @ x - b) / (
                np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))
            assert backward <= 1e-14


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


class TestRun:
    def test_zero_data_zero_solution(self, zero_data):
        sol = run(zero_data, unit_square_mesh(1), p=1, r=2, n_steps=3)
        for stack in sol.scalar_coeffs + sol.flux_coeffs:
            assert np.max(np.abs(stack)) < 1e-13

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
        xhat = rng.uniform(0.05, 0.95, (10, 2))
        for n in range(1, sol.n_intervals):
            t = sol.partition.nodes[n]
            left_u = endpoint_value(sol.basis, sol.scalar_coeffs[n - 1])
            right_u = sol.scalar_coeffs[n][0]
            assert np.max(np.abs(left_u - right_u)) < 1e-13
            left_q = endpoint_value(sol.basis, sol.flux_coeffs[n - 1])
            right_q = sol.flux_coeffs[n][0]
            assert np.max(np.abs(left_q - right_q)) < 1e-13
            # reconstruction through coefficients_at is continuous too
            u_at, q_at = sol.coefficients_at(t)
            fu = FeFunction(space=sol.scalar_space, coefficients=u_at)
            for k in (0, 3):
                vals = eval_scalar(fu, k, xhat)
                ref = FeFunction(space=sol.scalar_space, coefficients=right_u)
                assert np.max(np.abs(vals - eval_scalar(ref, k, xhat))) < 1e-13

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
        for sa, sb in zip(a.scalar_coeffs + a.flux_coeffs,
                          b.scalar_coeffs + b.flux_coeffs):
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
        loads = assemble_load(sol.scalar_space, data.source, times,
                              m.rule).T.reshape(len(taus), r, -1)
        for tau, U, Q, F in zip(taus, sol.scalar_coeffs, sol.flux_coeffs, loads):
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
            for i in range(1, 3):
                res = (matrices.mass_flux @ sol.flux_coeffs[n][i]
                       - matrices.div.T @ sol.scalar_coeffs[n][i])
                assert np.max(np.abs(res)) < 1e-11

    def test_checkpoint_roundtrip(self, tmp_path, mms_problem):
        _, data = mms_problem
        sol = run(data, unit_square_mesh(1), p=1, r=2, n_steps=3)
        path = tmp_path / "ckpt.txt"
        sol.dump_checkpoint(path)
        scalars, fluxes = load_checkpoint(path)
        assert len(scalars) == 3
        for n in range(3):
            assert np.array_equal(scalars[n], sol.scalar_coeffs[n])
            assert np.array_equal(fluxes[n], sol.flux_coeffs[n])
