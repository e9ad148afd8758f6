import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as hst
from numpy.testing import assert_allclose

import stmfem.assembly as assembly
from stmfem.exceptions import InvalidMeshError
from stmfem.mesh import distort, level_seed, unit_square_mesh
from stmfem.quadrature import tensor_unit
from stmfem.spaces import (
    FeFunction,
    build_pair,
    eval_div_flux,
    eval_flux,
    eval_scalar,
    l2_project_flux,
    l2_project_scalar,
    rt_interpolate,
)

REF_EDGE_START = np.array([[0., 0.], [1., 0.], [1., 1.], [0., 1.]])
REF_EDGE_END = np.array([[1., 0.], [1., 1.], [0., 1.], [0., 0.]])


@pytest.fixture(scope="module")
def distorted_mesh():
    return distort(unit_square_mesh(2), 0.25, level_seed(42, 2))


def linear_flux_field(x):
    """Globally linear vector field; lies in every RT space with p >= 1."""
    x = np.atleast_2d(x)
    return np.column_stack([1.0 + 2.0 * x[:, 0] - x[:, 1],
                            0.5 - x[:, 0] + 3.0 * x[:, 1]])


def constant_flux_field(x):
    x = np.atleast_2d(x)
    out = np.zeros((len(x), 2))
    out[:, 0] = 1.0
    return out


@pytest.mark.parametrize("level,dim_w,dim_v", [
    (0, 9, 24), (2, 144, 312)])
def test_pair_dimensions_p2(level, dim_w, dim_v):
    scalar, flux = build_pair(unit_square_mesh(level), 2)
    assert scalar.n_dofs == dim_w
    assert flux.n_dofs == dim_v


def test_pair_dimensions_level5_total():
    scalar, flux = build_pair(unit_square_mesh(5), 2)
    assert scalar.n_dofs + flux.n_dofs == 27840


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_dimension_formulas(p):
    m = unit_square_mesh(2)
    scalar, flux = build_pair(m, p)
    assert scalar.n_dofs == m.n_cells * (p + 1) ** 2
    assert flux.n_dofs == m.n_edges * (p + 1) + m.n_cells * 2 * p * (p + 1)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(level=hst.integers(0, 5), p=hst.integers(0, 4),
       distortion=hst.floats(0.0, 0.45, exclude_max=True),
       seed=hst.integers(0, 2**32 - 1))
def test_edge_numbering_and_dof_signs(level, p, distortion, seed):
    try:
        m = distort(unit_square_mesh(level), distortion, seed)
    except InvalidMeshError:
        reject()
    cells, ce, ec = m.cells, m.cell_edges, m.edge_cells
    # local edge l runs from corner l to corner (l + 1) % 4
    ends = np.sort(np.stack([cells, cells[:, [1, 2, 3, 0]]], axis=2), axis=2)
    assert np.array_equal(m.edge_vertices[ce], ends)
    # edges are numbered in order of first appearance
    numbers, first = np.unique(ce.ravel(), return_index=True)
    assert np.array_equal(numbers, np.arange(m.n_edges))
    assert np.all(np.diff(first) > 0)
    # every listed cell contains the edge; interior rows are ascending
    e = np.arange(m.n_edges)
    inner = ec[:, 1] >= 0
    assert np.array_equal(~inner, m.boundary_edge)
    assert np.all(ec[inner, 0] < ec[inner, 1])
    local = [np.argmax(ce[ec[inner, side]] == e[inner, None], axis=1)
             for side in (0, 1)]
    for side in (0, 1):
        assert np.all(ce[ec[inner, side], local[side]] == e[inner])
    assert np.all((ce[ec[~inner, 0]] == e[~inner, None]).any(axis=1))

    _, flux = build_pair(m, p)
    ned = p + 1
    cols = np.arange(ned)
    signs = [flux.cell_signs[ec[inner, side][:, None],
                             local[side][:, None] * ned + cols]
             for side in (0, 1)]
    # the normals are opposite and so are the traversal directions
    assert np.array_equal(signs[0] * signs[1],
                          np.broadcast_to(-(-1.0) ** cols, signs[0].shape))
    counts = np.bincount(flux.cell_dofs.ravel(), minlength=flux.n_dofs)
    assert len(counts) == flux.n_dofs
    assert np.all(counts[flux.n_edge_dofs:] == 1)
    assert np.array_equal(counts[:flux.n_edge_dofs].reshape(-1, ned),
                          np.broadcast_to(np.where(inner, 2, 1)[:, None],
                                          (m.n_edges, ned)))


def test_degree_cap():
    with pytest.raises(ValueError):
        build_pair(unit_square_mesh(1), 5)


class TestScalarEvaluation:
    def test_constant_one(self):
        m = unit_square_mesh(1)
        scalar, _ = build_pair(m, 2)
        f = FeFunction(space=scalar, coefficients=np.ones(scalar.n_dofs))
        pts = np.array([[0.1, 0.9], [0.5, 0.5]])
        for k in range(m.n_cells):
            assert_allclose(eval_scalar(f, k, pts), np.ones(2), rtol=1e-13)

    def test_linear_reproduction_p1(self):
        m = unit_square_mesh(1)
        scalar, _ = build_pair(m, 1)
        g = lambda x: 2.0 * np.atleast_2d(x)[:, 0] - np.atleast_2d(x)[:, 1]
        f = l2_project_scalar(g, scalar)
        pts = np.array([[0.2, 0.3], [0.8, 0.6]])
        for k in range(m.n_cells):
            phys = m.cell_map(k).map(pts)
            assert_allclose(eval_scalar(f, k, pts), g(phys), rtol=1e-12)

    def test_matches_brute_force_sum(self, rng):
        m = unit_square_mesh(1)
        scalar, _ = build_pair(m, 2)
        coef = rng.standard_normal(scalar.n_dofs)
        f = FeFunction(space=scalar, coefficients=coef)
        lattice = np.array([[i / 4, j / 4] for i in range(5) for j in range(5)])
        table = scalar.ref.tabulate(lattice)
        for k in (0, 3):
            direct = np.zeros(len(lattice))
            for i, dof in enumerate(scalar.cell_dofs[k]):
                direct += coef[dof] * table[:, i]
            assert_allclose(eval_scalar(f, k, lattice), direct, rtol=1e-13)

    def test_wrong_space_kind(self):
        m = unit_square_mesh(0)
        scalar, flux = build_pair(m, 1)
        f = FeFunction(space=flux, coefficients=np.zeros(flux.n_dofs))
        with pytest.raises(TypeError):
            eval_scalar(f, 0, np.array([[0.5, 0.5]]))
        g = FeFunction(space=scalar, coefficients=np.zeros(scalar.n_dofs))
        with pytest.raises(TypeError):
            eval_flux(g, 0, np.array([[0.5, 0.5]]))


class TestFluxEvaluation:
    def test_constant_flux_identity_cell(self):
        m = unit_square_mesh(0)
        _, flux = build_pair(m, 1)
        f = rt_interpolate(constant_flux_field, flux)
        pts = np.array([[0.3, 0.3], [0.9, 0.2]])
        assert_allclose(eval_flux(f, 0, pts),
                        np.array([[1.0, 0.0], [1.0, 0.0]]), atol=1e-13)
        assert_allclose(eval_div_flux(f, 0, pts), np.zeros(2), atol=1e-13)

    def test_divergence_free_pullback(self):
        # v = (x,-y)-type fields stay divergence free on axis-aligned cells
        m = unit_square_mesh(1)
        _, flux = build_pair(m, 1)
        g = lambda x: np.column_stack([np.atleast_2d(x)[:, 0],
                                       -np.atleast_2d(x)[:, 1]])
        f = rt_interpolate(g, flux)
        pts = np.array([[0.25, 0.75], [0.6, 0.1]])
        for k in range(m.n_cells):
            assert_allclose(eval_div_flux(f, k, pts), np.zeros(2), atol=1e-12)

    def test_divergence_matches_finite_differences(self, rng, distorted_mesh):
        m = distorted_mesh
        _, flux = build_pair(m, 2)
        f = FeFunction(space=flux, coefficients=rng.standard_normal(flux.n_dofs))
        k = 5
        cm = m.cell_map(k)
        x0 = cm.map(np.array([[0.4, 0.6]]))[0]
        h = 1e-6
        dx = (eval_flux(f, k, cm.inverse(np.array([x0 + [h, 0.0]])))[0, 0]
              - eval_flux(f, k, cm.inverse(np.array([x0 - [h, 0.0]])))[0, 0])
        dy = (eval_flux(f, k, cm.inverse(np.array([x0 + [0.0, h]])))[0, 1]
              - eval_flux(f, k, cm.inverse(np.array([x0 - [0.0, h]])))[0, 1])
        fd = (dx + dy) / (2 * h)
        div = eval_div_flux(f, k, cm.inverse(np.array([x0])))[0]
        assert abs(fd - div) < 1e-6


@pytest.mark.parametrize("p", [0, 1, 2])
def test_normal_trace_continuity(p, rng, distorted_mesh):
    m = distorted_mesh
    _, flux = build_pair(m, p)
    f = FeFunction(space=flux, coefficients=rng.standard_normal(flux.n_dofs))
    params = rng.uniform(0.02, 0.98, 5)
    worst = 0.0
    normals = m.edge_frames()[2]
    for e in range(m.n_edges):
        k0, k1 = m.edge_cells[e]
        if k1 < 0:
            continue
        normal = normals[e]
        traces = []
        for k in (int(k0), int(k1)):
            loc = int(np.where(m.cell_edges[k] == e)[0][0])
            start, end = m.cells[k][loc], m.cells[k][(loc + 1) % 4]
            s_local = params if start < end else 1.0 - params
            xhat = (REF_EDGE_START[loc][None, :]
                    + s_local[:, None] * (REF_EDGE_END[loc] - REF_EDGE_START[loc])[None, :])
            traces.append(eval_flux(f, k, xhat) @ normal)
        worst = max(worst, float(np.max(np.abs(traces[0] - traces[1]))))
    assert worst < 1e-11


@pytest.mark.parametrize("p", [0, 1, 2])
def test_divergence_theorem(p, rng, distorted_mesh):
    m = distorted_mesh
    _, flux = build_pair(m, p)
    coef = rng.standard_normal(flux.n_dofs)
    f = FeFunction(space=flux, coefficients=coef)
    rule = tensor_unit(p + 3)
    vals, divs, (_, _, det) = assembly.piola_values(flux, rule)
    wdet = rule.weights[None, :] * det
    # piola_values tables carry the orientation signs; gather raw coefficients
    total_div = float(np.einsum("cq,cql,cl->", wdet, divs,
                                coef[flux.cell_dofs]))
    ned = p + 1
    boundary_flux = sum(coef[e * ned] for e in range(m.n_edges)
                        if m.edge_cells[e, 1] < 0)
    assert abs(total_div - boundary_flux) < 1e-11


class TestScalarProjection:
    def test_idempotent(self, rng):
        m = unit_square_mesh(1)
        scalar, _ = build_pair(m, 2)
        coef = rng.standard_normal(scalar.n_dofs)
        f = FeFunction(space=scalar, coefficients=coef)

        def g(x):
            x = np.atleast_2d(x)
            out = np.empty(len(x))
            for k in range(m.n_cells):
                xhat = m.cell_map(k).inverse(x)
                inside = np.all((xhat > -1e-9) & (xhat < 1 + 1e-9), axis=1)
                out[inside] = eval_scalar(f, k, xhat[inside])
            return out

        proj = l2_project_scalar(g, scalar)
        assert np.max(np.abs(proj.coefficients - coef)) < 1e-13

    def test_zero_function(self):
        scalar, _ = build_pair(unit_square_mesh(1), 2)
        proj = l2_project_scalar(lambda x: np.zeros(len(np.atleast_2d(x))), scalar)
        assert np.max(np.abs(proj.coefficients)) == 0.0

    def test_orthogonality_residual(self):
        m = unit_square_mesh(2)
        scalar, _ = build_pair(m, 2)
        g = lambda x: np.sin(np.pi * np.atleast_2d(x)[:, 0]) * \
            np.sin(np.pi * np.atleast_2d(x)[:, 1])
        proj = l2_project_scalar(g, scalar)
        rule = tensor_unit(5)
        mass = assembly.assemble_mass_scalar(scalar, rule)
        moments = _scalar_moments(scalar, g, rule)
        residual = mass @ proj.coefficients - moments
        assert np.max(np.abs(residual)) < 1e-12

    def test_self_orthogonality(self):
        # <g - Pg, Pg> = 0
        m = unit_square_mesh(2)
        scalar, _ = build_pair(m, 1)
        g = lambda x: np.exp(np.atleast_2d(x)[:, 0]) * np.atleast_2d(x)[:, 1]
        proj = l2_project_scalar(g, scalar)
        rule = tensor_unit(6)
        moments = _scalar_moments(scalar, g, rule)
        mass = assembly.assemble_mass_scalar(scalar, rule)
        gdotp = float(np.dot(moments, proj.coefficients))
        pdotp = float(proj.coefficients @ (mass @ proj.coefficients))
        assert abs(gdotp - pdotp) < 1e-11


def _scalar_moments(space, g, rule):
    phi = space.ref.tabulate(rule.points)
    phys, _, det = assembly.cell_geometry(space.mesh, rule)
    wdet = rule.weights[None, :] * det
    gv = g(phys.reshape(-1, 2)).reshape(det.shape)
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.cell_dofs, np.einsum("cq,qi->ci", wdet * gv, phi))
    return out


class TestFluxProjection:
    def test_member_reproduced(self, distorted_mesh):
        _, flux = build_pair(distorted_mesh, 1)
        proj = l2_project_flux(linear_flux_field, flux)
        interp = rt_interpolate(linear_flux_field, flux)
        # the linear field lies in the space, so both must return it
        assert np.max(np.abs(proj.coefficients - interp.coefficients)) < 1e-10

    def test_zero_field(self):
        _, flux = build_pair(unit_square_mesh(1), 2)
        z = lambda x: np.zeros((len(np.atleast_2d(x)), 2))
        proj = l2_project_flux(z, flux)
        assert np.max(np.abs(proj.coefficients)) < 1e-14

    def test_orthogonality_residual(self, distorted_mesh):
        # orthogonality holds against the same quadrature the solve used
        _, flux = build_pair(distorted_mesh, 1)
        g = lambda x: np.column_stack([
            np.sin(np.pi * np.atleast_2d(x)[:, 0]),
            np.cos(np.pi * np.atleast_2d(x)[:, 1])])
        rule = tensor_unit(6)
        proj = l2_project_flux(g, flux, rule)
        mass = assembly.assemble_weighted_mass_flux(
            flux, assembly.CoefficientField.identity(), rule)
        rhs = assembly.assemble_flux_moments(flux, g, rule)
        residual = mass @ proj.coefficients - rhs
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(residual)) / scale < 1e-10


class TestRTInterpolation:
    def test_member_reproduced_constant(self, distorted_mesh):
        _, flux = build_pair(distorted_mesh, 0)
        f = rt_interpolate(constant_flux_field, flux)
        again = rt_interpolate(constant_flux_field, flux)
        pts = np.array([[0.2, 0.4], [0.7, 0.9]])
        for k in (0, 6, 15):
            assert_allclose(eval_flux(f, k, pts),
                            np.array([[1.0, 0.0]] * 2), atol=1e-13)
        assert np.array_equal(f.coefficients, again.coefficients)

    def test_piecewise_constant_divergence(self):
        # g = (x1, x2) has divergence 2 everywhere
        m = unit_square_mesh(2)
        _, flux = build_pair(m, 1)
        g = lambda x: np.atleast_2d(x).copy()
        f = rt_interpolate(g, flux)
        pts = tensor_unit(3).points
        for k in range(m.n_cells):
            assert_allclose(eval_div_flux(f, k, pts), 2.0 * np.ones(len(pts)),
                            rtol=1e-12)

    def test_commuting_property(self, distorted_mesh):
        # <div(Pi g - g), w_h> = 0 for all scalar test functions
        m = distorted_mesh
        pi = np.pi

        def g(x):
            x = np.atleast_2d(x)
            return np.column_stack([
                np.sin(pi * x[:, 0]) * np.cos(pi * x[:, 1]) + x[:, 1] ** 2,
                np.cos(pi * x[:, 0]) * np.sin(pi * x[:, 1]) + x[:, 0] * x[:, 1]])

        def div_g(x):
            x = np.atleast_2d(x)
            return 2 * pi * np.cos(pi * x[:, 0]) * np.cos(pi * x[:, 1]) + x[:, 0]

        from stmfem.quadrature import gauss_legendre_unit
        for p in (1, 2):
            scalar, flux = build_pair(m, p)
            interp = rt_interpolate(g, flux,
                                    rule_1d=gauss_legendre_unit(p + 6),
                                    rule_2d=tensor_unit(p + 6))
            B = assembly.assemble_div_coupling(flux, scalar)
            lhs = B @ interp.coefficients
            rule = tensor_unit(p + 5)
            phi = scalar.ref.tabulate(rule.points)
            phys, _, det = assembly.cell_geometry(m, rule)
            wdet = rule.weights[None, :] * det
            dg = div_g(phys.reshape(-1, 2)).reshape(det.shape)
            rhs = np.zeros(scalar.n_dofs)
            np.add.at(rhs, scalar.cell_dofs,
                      np.einsum("cq,qi->ci", wdet * dg, phi))
            assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("p", [0, 1, 2])
def test_projection_rates(p):
    # all three operators converge at h^{p+1} for smooth targets
    from stmfem.mms import eoc
    pi = np.pi
    gs = lambda x: np.sin(pi * np.atleast_2d(x)[:, 0]) * \
        np.sin(pi * np.atleast_2d(x)[:, 1])

    def gv(x):
        x = np.atleast_2d(x)
        return np.column_stack([
            np.sin(pi * x[:, 0]) * np.cos(pi * x[:, 1]) + x[:, 1] ** 2,
            np.cos(pi * x[:, 0]) * np.sin(pi * x[:, 1]) + x[:, 0] * x[:, 1]])

    rule = tensor_unit(p + 4)
    errs_s, errs_v, errs_i = [], [], []
    for level in (1, 2, 3):
        m = unit_square_mesh(level)
        scalar, flux = build_pair(m, p)
        errs_s.append(_l2_error_scalar(l2_project_scalar(gs, scalar), gs, rule))
        errs_v.append(_l2_error_flux(l2_project_flux(gv, flux), gv, rule))
        errs_i.append(_l2_error_flux(rt_interpolate(gv, flux), gv, rule))
    for errs in (errs_s, errs_v, errs_i):
        rates = eoc(errs)
        assert all(rate > p + 0.85 for rate in rates)


def _l2_error_scalar(f, g, rule):
    phys, _, det = assembly.cell_geometry(f.space.mesh, rule)
    wdet = rule.weights[None, :] * det
    phi = f.space.ref.tabulate(rule.points)
    vals = np.einsum("qi,ci->cq", phi, f.coefficients[f.space.cell_dofs])
    ge = g(phys.reshape(-1, 2)).reshape(vals.shape)
    return float(np.sqrt(np.sum(wdet * (vals - ge) ** 2)))


def _l2_error_flux(f, g, rule):
    vals, _, (phys, _, det) = assembly.piola_values(f.space, rule)
    wdet = rule.weights[None, :] * det
    vh = np.einsum("cqla,cl->cqa", vals, f.coefficients[f.space.cell_dofs])
    ge = g(phys.reshape(-1, 2)).reshape(vh.shape)
    return float(np.sqrt(np.sum(wdet * np.sum((vh - ge) ** 2, axis=2))))
