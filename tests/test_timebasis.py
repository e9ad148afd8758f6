import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

from stmfem import timeloop
from stmfem.assembly import CoefficientField
from stmfem.mesh import unit_square_mesh
from stmfem.timebasis import TimePartition, build_basis
from stmfem.timeloop import SpaceTimeSolution

from pointwise import coefficients_at, locate


def symbolic_tables(r):
    """Independent oracle: exact alpha table and endpoint weights via sympy."""
    x, t = sp.symbols("x t")
    P = sp.legendre_poly(r, x)
    roots = sorted(sp.Poly(P, x).all_roots())
    dP = sp.diff(P, x)
    weights = [sp.nsimplify(1 / ((1 - xi**2) * dP.subs(x, xi) ** 2)) for xi in roots]
    nodes = [sp.Integer(0)] + [(xi + 1) / 2 for xi in roots]
    phis = []
    for j in range(r + 1):
        phi = sp.Integer(1)
        for k in range(r + 1):
            if k != j:
                phi *= (t - nodes[k]) / (nodes[j] - nodes[k])
        phis.append(sp.expand(phi))
    alpha = np.array(
        [[float(weights[i] * sp.diff(phis[j], t).subs(t, nodes[i + 1]))
          for j in range(r + 1)] for i in range(r)])
    endpoint = np.array([float(phi.subs(t, 1)) for phi in phis])
    return alpha, endpoint


def test_r1_tables():
    # Lagrange basis through {0, 1/2} has slopes -2, +2 at the Gauss point,
    # and the mapped one-point weight is 1
    basis = build_basis(1)
    assert_allclose(basis.trial_nodes, [0.0, 0.5], atol=1e-15)
    assert_allclose(basis.alpha, [[-2.0, 2.0]], rtol=1e-14)
    assert_allclose(basis.beta, [1.0], rtol=1e-15)


def test_r2_beta_is_half():
    basis = build_basis(2)
    assert_allclose(basis.beta, [0.5, 0.5], rtol=1e-15)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_alpha_against_symbolic_oracle(r):
    basis = build_basis(r)
    alpha, endpoint = symbolic_tables(r)
    assert_allclose(basis.alpha, alpha, rtol=1e-13, atol=1e-13)
    assert_allclose(basis.endpoint_weights, endpoint, rtol=1e-13)


def test_alpha_r2_against_finite_differences():
    basis = build_basis(2)
    h = 1e-6
    for i in range(2):
        ti = basis.test_nodes[i]
        for j in range(3):
            plus = basis.eval_trial_all(np.array([ti + h]))[0, j]
            minus = basis.eval_trial_all(np.array([ti - h]))[0, j]
            fd = basis.beta[i] * (plus - minus) / (2 * h)
            assert abs(fd - basis.alpha[i, j]) < 1e-8


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_alpha_row_sums_vanish(r):
    basis = build_basis(r)
    assert np.max(np.abs(basis.alpha.sum(axis=1))) < 1e-14


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_beta_bounds(r):
    basis = build_basis(r)
    lower = 2.0 / (r * (r + 1)) ** 2
    assert np.all(basis.beta >= lower - 1e-15)
    assert np.all(basis.beta <= 1.0 + 1e-15)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_telescoping_identity(r):
    # sum_ij alpha_ij f_j f_i = f(1)^2/2 - f(0)^2/2 for any trial expansion
    basis = build_basis(r)
    rng = np.random.default_rng(1234 + r)
    for _ in range(100):
        f = rng.standard_normal(r + 1)
        lhs = sum(basis.alpha[i, j] * f[j] * f[i + 1]
                  for i in range(r) for j in range(r + 1))
        f1 = float(np.dot(basis.endpoint_weights, f))
        rhs = 0.5 * f1**2 - 0.5 * f[0] ** 2
        assert abs(lhs - rhs) < 1e-12


def test_r1_reduces_to_crank_nicolson():
    # scalar ODE u' = lam * u: eliminating the Gauss unknown gives the
    # midpoint update (1 - tau*lam/2) u_n = (1 + tau*lam/2) u_{n-1}
    basis = build_basis(1)
    lam, tau, u0 = -0.7, 0.13, 1.0
    u1 = basis.alpha[0, 0] * u0 / (tau * basis.beta[0] * lam - basis.alpha[0, 1])
    un = basis.endpoint_weights[0] * u0 + basis.endpoint_weights[1] * u1
    expected = (1 + tau * lam / 2) / (1 - tau * lam / 2) * u0
    assert abs(un - expected) < 1e-14


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_trial_cardinal_property(r):
    basis = build_basis(r)
    vals = basis.eval_trial_all(basis.trial_nodes)
    assert_allclose(vals, np.eye(r + 1), atol=1e-13)


def test_trial_partition_of_unity():
    basis = build_basis(3)
    pts = np.array([0.0, 0.37, 0.5, 0.99, 1.0])
    sums = basis.eval_trial_all(pts).sum(axis=1)
    assert_allclose(sums, np.ones(len(pts)), rtol=1e-13)


@pytest.mark.parametrize("r, min_real, cond", [
    (1, 2.0, 1.0), (2, 3.0, 3.7321), (3, 3.6778, 12.838), (4, 4.2076, 45.585),
    (5, 4.6493, 165.00)])
def test_decoupled_shifts(r, min_real, cond):
    # the schur solver diagonalizes diag(beta)^-1 alpha[:, 1:] = V diag(lam)
    # V^-1 with V as np.linalg.eig returns it.  Every Re(lam) > 0, so each
    # shifted system [lam M_W, tau B; -B^T, M_D] is uniquely solvable for
    # tau > 0 on any mesh; cond(V) bounds the rounding the decoupling adds.
    basis = build_basis(r)
    lam, vecs = np.linalg.eig(basis.alpha[:, 1:] / basis.beta[:, None])
    assert lam.real.min() == pytest.approx(min_real, abs=1e-4)
    assert np.linalg.cond(vecs) == pytest.approx(cond, rel=1e-4)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_invalid_degree_rejected(r):
    for bad in (0, 6, -1):
        with pytest.raises(ValueError):
            build_basis(bad)
    build_basis(r)


class TestCoefficientsAt:
    @staticmethod
    def solution(start, *gauss_rows):
        """A one-unknown r = 2 solution whose intervals have these rows."""
        sol = SpaceTimeSolution(TimePartition.uniform(1.0, 4), build_basis(2),
                                None, None, np.array([start]),
                                np.array([start]))
        for values in gauss_rows:
            rows = np.array(values, dtype=float)[:, None]
            sol.append_interval(rows, rows.copy())
        return sol

    def test_constant_coefficients(self):
        sol = self.solution(3.5, [3.5, 3.5], [3.5, 3.5])
        for t in (0.251, 0.3, 0.5):
            for coef in coefficients_at(sol, t):
                assert_allclose(coef, [3.5], rtol=1e-13)

    def test_right_endpoint_r2(self):
        # phi_1(1) = -sqrt(3), phi_2(1) = +sqrt(3) on nodes {0, gauss}
        a, b = 0.7, -0.2
        sol = self.solution(0.0, [a, b])
        expected = -np.sqrt(3) * a + np.sqrt(3) * b
        for coef in coefficients_at(sol, 0.25):
            assert_allclose(coef, [expected], rtol=1e-13)


class TestTimePartition:
    def test_uniform(self):
        p = TimePartition.uniform(2.0, 4)
        assert p.n_intervals == 4
        assert abs(p.step_size(2) - 0.5) < 1e-15

    def test_locate(self):
        p = TimePartition.uniform(1.0, 10)
        assert locate(p, 0.0) == 0
        assert locate(p, 0.1) == 0  # right-closed intervals
        assert locate(p, 0.1000001) == 1
        assert locate(p, 1.0) == 9

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimePartition(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError):
            TimePartition(np.array([0.1, 0.5]))
        with pytest.raises(ValueError):
            TimePartition.uniform(-1.0, 3)

    @pytest.mark.parametrize("nodes", [[0.0, np.nan], [0.0, np.inf],
                                       [0.0, 1.0, np.inf], [np.nan, 1.0]])
    def test_non_finite_nodes_rejected(self, nodes):
        with pytest.raises(ValueError, match="finite"):
            TimePartition(np.array(nodes))

    @pytest.mark.parametrize("n_intervals", [2.5, 2.0, 0, -1, "4"])
    def test_uniform_rejects_a_non_integer_or_non_positive_count(self,
                                                                 n_intervals):
        with pytest.raises(ValueError, match="interval count"):
            TimePartition.uniform(1.0, n_intervals)

    def test_run_rejects_a_fractional_step_count(self, mms_problem):
        _, data = mms_problem
        with pytest.raises(ValueError, match="2.5"):
            timeloop.run(data, unit_square_mesh(1), p=1, r=1, n_steps=2.5)

    @pytest.mark.parametrize("final_time", [np.inf, np.nan])
    def test_uniform_rejects_non_finite_final_time(self, final_time):
        # checked before linspace, which warns on an infinite stop
        with pytest.raises(ValueError, match="finite"):
            TimePartition.uniform(final_time, 4)

    def test_run_rejects_infinite_final_time_before_assembly(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("spaces built for an infinite final time")

        monkeypatch.setattr(timeloop, "build_pair", unreachable)
        data = timeloop.ProblemData(
            diffusion=CoefficientField.identity(),
            initial_scalar=lambda x: np.zeros(len(x)),
            source=lambda x, t: np.zeros((len(t), len(x))),
            final_time=np.inf, initial_flux=lambda x: np.zeros((len(x), 2)))
        with pytest.raises(ValueError, match="finite"):
            timeloop.run(data, unit_square_mesh(1), p=1, r=1, n_steps=4)
