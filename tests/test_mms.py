import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import stmfem as st
from stmfem.assembly import CoefficientField, evaluation
from stmfem.exceptions import UnsupportedConfigurationError
from stmfem.mesh import distort, level_seed
from stmfem.mms import eoc, error_q_V, error_u, mms_standard
from stmfem.timeloop import ProblemData, run

from pointwise import cell_map, coefficients_at, eval_div_flux, eval_flux


@pytest.fixture(scope="module")
def standard():
    return mms_standard(CoefficientField.identity())


class TestManufacturedSolution:
    def test_initial_value_vanishes(self, standard):
        x = np.random.default_rng(0).uniform(0, 1, (20, 2))
        assert np.max(np.abs(standard.scalar(x, np.zeros(1)))) == 0.0

    def test_flux_vanishes_at_center(self, standard):
        q = standard.flux(np.array([[0.5, 0.5]]), np.array([0.37]))
        assert np.max(np.abs(q)) < 1e-12

    def test_source_value(self, standard):
        # f = (omega cos(omega t) + 2 pi^2 sin(omega t)) sin(pi x1) sin(pi x2)
        omega = 10 * math.pi
        t, x = 0.1, np.array([[0.25, 0.25]])
        expected = (omega * math.cos(omega * t)
                    + 2 * math.pi**2 * math.sin(omega * t)) * math.sin(math.pi / 4) ** 2
        assert_allclose(standard.source(x, np.array([t])), [[expected]],
                        rtol=1e-13)

    def test_consistency_by_finite_differences(self, standard):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.2, 0.8, (5, 2))
        t = np.array([0.217])
        h = 1e-6
        dudt = (standard.scalar(pts, t + h) - standard.scalar(pts, t - h)) / (2 * h)
        fd_f = dudt + standard.div_flux(pts, t)
        assert np.max(np.abs(fd_f - standard.source(pts, t))) < 1e-6
        # flux consistency: q = -grad u
        ex = np.array([h, 0.0])
        ey = np.array([0.0, h])
        gx = (standard.scalar(pts + ex, t) - standard.scalar(pts - ex, t)) / (2 * h)
        gy = (standard.scalar(pts + ey, t) - standard.scalar(pts - ey, t)) / (2 * h)
        q = standard.flux(pts, t)
        assert np.max(np.abs(q + np.stack([gx, gy], axis=-1))) < 1e-6
        # div q by finite differences of q
        qxp = standard.flux(pts + ex, t)[..., 0]
        qxm = standard.flux(pts - ex, t)[..., 0]
        qyp = standard.flux(pts + ey, t)[..., 1]
        qym = standard.flux(pts - ey, t)[..., 1]
        fd_div = (qxp - qxm) / (2 * h) + (qyp - qym) / (2 * h)
        assert np.max(np.abs(fd_div - standard.div_flux(pts, t))) < 1e-5

    def test_nonconstant_diffusion_rejected(self):
        def varying(x):
            x = np.atleast_2d(x)
            out = np.zeros((len(x), 2, 2))
            out[:, 0, 0] = 1.0 + x[:, 0]
            out[:, 1, 1] = 1.0
            return out

        field = CoefficientField(varying)
        with pytest.raises(UnsupportedConfigurationError):
            mms_standard(field)

    def test_scaled_diffusion(self):
        exact = mms_standard(CoefficientField.isotropic(3.0))
        x = np.array([[0.3, 0.7]])
        base = mms_standard(CoefficientField.identity())
        t = np.array([0.21])
        assert_allclose(exact.flux(x, t), 3.0 * base.flux(x, t), rtol=1e-13)


    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_points_changed_in_place_are_evaluated_afresh(self,
                                                         read_only_view):
        # the fields cache their spatial factors only for point arrays that
        # no array can write; a read-only view of a writeable array is not one
        exact = mms_standard(CoefficientField.identity())
        fields = (exact.scalar, exact.flux, exact.source, exact.div_flux)
        t = np.array([0.3, 0.8])
        base = np.random.default_rng(3).uniform(0, 1, (6, 2))
        x = base.view()
        x.flags.writeable = not read_only_view
        for f in fields:
            f(x, t)
        base[:] = base[::-1]
        for f in fields:
            assert np.array_equal(f(x, t), f(base.copy(), t))

    def test_cached_points_give_the_same_values(self):
        # Evaluation.points is read-only, so it is cached; the arithmetic is
        # that of a fresh evaluation, bit for bit
        exact = mms_standard(CoefficientField.identity())
        flux_space = st.build_pair(distort(st.unit_square_mesh(2), 0.2, 3), 1)[1]
        points = evaluation(flux_space).points
        assert not points.flags.writeable
        for f in (exact.scalar, exact.flux, exact.source, exact.div_flux):
            for t in (np.array([0.1]), np.array([0.2, 0.7])):
                assert np.array_equal(f(points, t), f(points.copy(), t))


class TestErrorNorms:
    def test_zero_solution_zero_exact(self):
        data = ProblemData(diffusion=CoefficientField.identity(),
                           initial_scalar=lambda x: np.zeros(len(np.atleast_2d(x))),
                           source=lambda x, t: np.zeros((len(t), len(np.atleast_2d(x)))),
                           final_time=1.0,
                           initial_flux=lambda x: np.zeros((len(np.atleast_2d(x)), 2)))
        sol = run(data, st.unit_square_mesh(1), p=1, r=1, n_steps=2)
        zero = st.ManufacturedSolution(
            scalar=lambda x, t: np.zeros((len(t), len(np.atleast_2d(x)))),
            flux=lambda x, t: np.zeros((len(t), len(np.atleast_2d(x)), 2)),
            source=lambda x, t: np.zeros((len(t), len(np.atleast_2d(x)))),
            div_flux=lambda x, t: np.zeros((len(t), len(np.atleast_2d(x)))))
        assert error_u(sol, zero) == 0.0
        assert error_q_V(sol, zero) == 0.0

    def test_norm_of_constant_one(self):
        # hand-built solution identically 1 against exact 0: unit norm
        from stmfem.spaces import build_pair
        from stmfem.timebasis import TimePartition, build_basis
        from stmfem.timeloop import SpaceTimeSolution
        mesh = st.unit_square_mesh(1)
        scalar, flux = build_pair(mesh, 1)
        basis = build_basis(1)
        sol = SpaceTimeSolution(TimePartition.uniform(1.0, 2), basis,
                                scalar, flux, np.ones(scalar.n_dofs),
                                np.zeros(flux.n_dofs))
        for _ in range(2):
            sol.append_interval(np.ones((1, scalar.n_dofs)),
                                np.zeros((1, flux.n_dofs)))
        zero = st.ManufacturedSolution(
            scalar=lambda x, t: np.zeros((len(t), len(np.atleast_2d(x)))),
            flux=lambda x, t: np.zeros((len(t), len(np.atleast_2d(x)), 2)),
            source=lambda x, t: np.zeros((len(t), len(np.atleast_2d(x)))),
            div_flux=lambda x, t: np.zeros((len(t), len(np.atleast_2d(x)))))
        assert abs(error_u(sol, zero) - 1.0) < 1e-13
        assert error_q_V(sol, zero) < 1e-13

    def test_flux_of_one_time_rejected(self, standard):
        # an (n, 2) flux, the shape of one time, has as many numbers as
        # (2, n, 1); reshaped to (nt, n, -1) it would give a wrong norm
        data = ProblemData(diffusion=CoefficientField.identity(),
                           initial_scalar=standard.initial_scalar(),
                           source=standard.source, final_time=1.0,
                           initial_flux=standard.initial_flux())
        sol = run(data, st.unit_square_mesh(1), p=1, r=1, n_steps=2)
        old_style = dataclasses.replace(
            standard, flux=lambda x, t: np.zeros((len(np.atleast_2d(x)), 2)))
        with pytest.raises(ValueError, match=r"\(len\(t\), n, 2\)"):
            error_q_V(sol, old_style, time_order=2)

    def test_against_scipy_quadrature_oracle(self, standard):
        # independent nested-quadrature oracle on a coarse solution
        from scipy.integrate import quad
        data = ProblemData(diffusion=CoefficientField.identity(),
                           initial_scalar=standard.initial_scalar(),
                           source=standard.source, final_time=1.0,
                           initial_flux=standard.initial_flux())
        mesh = st.unit_square_mesh(0)
        sol = run(data, mesh, p=2, r=2, n_steps=10)
        from stmfem.quadrature import tensor_unit
        from stmfem.assembly import cell_geometry
        srule = tensor_unit(7)
        phys, _, det = cell_geometry(mesh, srule)
        phi = sol.scalar_space.ref.tabulate(srule.points)
        wdet = srule.weights[None, :] * det

        def spatial_sq_error(t):
            u_coef, _ = coefficients_at(sol, t)
            vals = np.einsum("qi,ci->cq", phi, u_coef[sol.scalar_space.cell_dofs])
            ue = standard.scalar(phys.reshape(-1, 2), np.array([t]))[0]
            ue = ue.reshape(vals.shape)
            return float(np.sum(wdet * (ue - vals) ** 2))

        oracle_sq = 0.0
        for n in range(10):
            a, b = sol.partition.nodes[n], sol.partition.nodes[n + 1]
            val, _ = quad(spatial_sq_error, a, b, limit=200, epsabs=1e-13,
                          epsrel=1e-11)
            oracle_sq += val
        # compare at a converged time order (the adaptive oracle is exact in
        # time, the default (r+3)-point rule is not at this coarse level)
        mine = error_u(sol, standard, time_order=10, space_order=7)
        assert abs(mine - math.sqrt(oracle_sq)) < 1e-8 * mine + 1e-13

    def test_flux_error_against_scipy_quadrature_oracle(self, standard):
        # ||q - q_h||^2 + ||div(q - q_h)||^2 cell by cell through eval_flux
        # and eval_div_flux on a distorted mesh, adaptive in time
        from scipy.integrate import quad
        from stmfem.quadrature import tensor_unit
        data = ProblemData(diffusion=CoefficientField.identity(),
                           initial_scalar=standard.initial_scalar(),
                           source=standard.source, final_time=1.0,
                           initial_flux=standard.initial_flux())
        mesh = distort(st.unit_square_mesh(1), 0.2, level_seed(23, 1))
        sol = run(data, mesh, p=2, r=2, n_steps=10)
        srule = tensor_unit(7)
        maps = [cell_map(mesh, k) for k in range(mesh.n_cells)]
        phys = [cm.map(srule.points) for cm in maps]
        wdet = [srule.weights * cm.jacobian(srule.points)[1] for cm in maps]

        def spatial_sq_error(t):
            _, q_coef = coefficients_at(sol, t)
            total = 0.0
            for k in range(mesh.n_cells):
                tt = np.array([t])
                dq = (standard.flux(phys[k], tt)[0]
                      - eval_flux(sol.flux_space, q_coef, k, srule.points))
                ddiv = (standard.div_flux(phys[k], tt)[0]
                        - eval_div_flux(sol.flux_space, q_coef, k, srule.points))
                total += float(wdet[k] @ (np.sum(dq**2, axis=1) + ddiv**2))
            return total

        oracle_sq = 0.0
        for n in range(10):
            a, b = sol.partition.nodes[n], sol.partition.nodes[n + 1]
            val, _ = quad(spatial_sq_error, a, b, limit=200, epsabs=1e-13,
                          epsrel=1e-11)
            oracle_sq += val
        mine = error_q_V(sol, standard, time_order=10, space_order=7)
        assert abs(mine - math.sqrt(oracle_sq)) < 1e-8 * mine

    def test_quadrature_refinement_stability(self, standard):
        data = ProblemData(diffusion=CoefficientField.identity(),
                           initial_scalar=standard.initial_scalar(),
                           source=standard.source, final_time=1.0,
                           initial_flux=standard.initial_flux())
        sol = run(data, st.unit_square_mesh(2), p=2, r=2, n_steps=40)
        eu = error_u(sol, standard)
        eq = error_q_V(sol, standard)
        eu2 = error_u(sol, standard, time_order=10, space_order=10)
        eq2 = error_q_V(sol, standard, time_order=10, space_order=10)
        assert abs(eu - eu2) / eu < 1e-3
        assert abs(eq - eq2) / eq < 1e-3

    @pytest.mark.parametrize("norm", [error_u, error_q_V])
    def test_empty_rules_rejected(self, standard, norm):
        # an order of 0 is no rule, not a request for the default one
        data = ProblemData(diffusion=CoefficientField.identity(),
                           initial_scalar=standard.initial_scalar(),
                           source=standard.source, final_time=1.0,
                           initial_flux=standard.initial_flux())
        sol = run(data, st.unit_square_mesh(0), p=1, r=1, n_steps=2)
        for orders in ({"time_order": 0}, {"space_order": 0}):
            with pytest.raises(ValueError, match="rule size"):
                norm(sol, standard, **orders)


class TestEoc:
    def test_exact_factor_eight(self):
        assert_allclose(eoc([1.0, 0.125]), [3.0], rtol=1e-14)

    def test_published_level1_ratio(self):
        # 4.0298e-02 -> 1.1316e-02 gives 1.83
        out = eoc([4.0298e-02, 1.1316e-02])
        assert abs(out[0] - 1.83) < 5e-3

    def test_published_flux_ratio(self):
        out = eoc([2.8876e-02, 3.6208e-03])
        assert abs(out[0] - 3.00) < 5e-3

    def test_zero_error_marker(self):
        out = eoc([1.0, 0.0, 0.5])
        assert out[0] is None and out[1] is None

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            eoc([1.0])
