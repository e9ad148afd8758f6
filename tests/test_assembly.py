import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings, strategies as hst
from numpy.testing import assert_allclose

from stmfem.assembly import (
    CoefficientField,
    assemble_div_coupling,
    assemble_flux_moments,
    assemble_load,
    assemble_mass_scalar,
    assemble_weighted_mass_flux,
    cell_geometry,
    cell_quadrature,
    l2_project_flux,
    piola_values,
    rt_interpolate,
    scalar_moments,
    scalar_values,
)
from stmfem.exceptions import InvalidCoefficientError, InvalidMeshError
from stmfem.mesh import QuadMesh, distort, level_seed, unit_square_mesh
from stmfem.quadrature import tensor_unit
from stmfem.spaces import build_pair

from pointwise import cell_map, eval_div_flux, eval_flux, eval_scalar


@pytest.fixture(scope="module")
def level1_pair():
    m = distort(unit_square_mesh(1), 0.2, level_seed(11, 1))
    return m, build_pair(m, 2)


def entry_oracle_scalar(space, mesh, i, j, rule):
    """Independent per-entry quadrature of <w_j, w_i>."""
    total = 0.0
    phi = space.ref.tabulate(rule.points)
    for k in range(mesh.n_cells):
        dofs = list(space.cell_dofs[k])
        if i in dofs and j in dofs:
            li, lj = dofs.index(i), dofs.index(j)
            _, det = cell_map(mesh, k).jacobian(rule.points)
            total += float(np.sum(rule.weights * det * phi[:, li] * phi[:, lj]))
    return total


def test_mass_scalar_p0_is_cell_areas():
    m = unit_square_mesh(2)
    scalar, _ = build_pair(m, 0)
    mass = assemble_mass_scalar(scalar)
    dense = mass.toarray()
    assert_allclose(dense, np.eye(16) / 16.0, atol=1e-15)


def test_mass_scalar_integrates_one():
    m = unit_square_mesh(2)
    scalar, _ = build_pair(m, 2)
    mass = assemble_mass_scalar(scalar)
    ones = np.ones(scalar.n_dofs)
    assert abs(float(ones @ (mass @ ones)) - 1.0) < 1e-13


def test_mass_scalar_entries_against_oracle(level1_pair, rng):
    m, (scalar, _) = level1_pair
    rule = tensor_unit(5)
    mass = assemble_mass_scalar(scalar).tocoo()
    idx = rng.choice(mass.nnz, size=10, replace=False)
    for t in idx:
        i, j, v = int(mass.row[t]), int(mass.col[t]), mass.data[t]
        oracle = entry_oracle_scalar(scalar, m, i, j, rule)
        assert abs(v - oracle) < 1e-12 * max(1.0, abs(oracle))


def test_weighted_mass_flux_identity_symmetric(level1_pair):
    _, (_, flux) = level1_pair
    mass = assemble_weighted_mass_flux(flux, CoefficientField.identity())
    diff = (mass - mass.T).tocoo()
    assert np.max(np.abs(diff.data)) < 1e-14 if diff.nnz else True


def test_weighted_mass_flux_scaling(level1_pair):
    _, (_, flux) = level1_pair
    m1 = assemble_weighted_mass_flux(flux, CoefficientField.identity())
    m2 = assemble_weighted_mass_flux(flux, CoefficientField.isotropic(2.0))
    diff = (m2 - 0.5 * m1).tocoo()
    assert np.max(np.abs(diff.data)) < 1e-14 if diff.nnz else True


def test_weighted_mass_flux_entry_oracle(level1_pair, rng):
    m, (_, flux) = level1_pair
    quad = cell_quadrature(flux, 5)
    mass = assemble_weighted_mass_flux(flux, CoefficientField.identity())
    vals, _ = piola_values(flux, quad)
    wdet = quad.rule.weights[None, :] * quad.det
    coo = mass.tocoo()
    idx = rng.choice(coo.nnz, size=10, replace=False)
    for t in idx:
        i, j = int(coo.row[t]), int(coo.col[t])
        oracle = 0.0
        for k in range(m.n_cells):
            dofs = list(flux.cell_dofs[k])
            if i in dofs and j in dofs:
                li, lj = dofs.index(i), dofs.index(j)
                oracle += float(np.sum(
                    wdet[k] * np.sum(vals[k, :, :, lj] * vals[k, :, :, li], axis=1)))
        assert abs(coo.data[t] - oracle) < 1e-12 * max(1.0, abs(oracle))



@pytest.mark.parametrize("distortion", [0.0, 0.25])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_piola_values_match_per_point_oracle(p, distortion):
    # J v_ref / det J times the cell's signs, point by point and bitwise; a
    # point's x and y rows come before the local dofs
    m = unit_square_mesh(2)
    if distortion:
        m = distort(m, distortion, level_seed(5, 2))
    _, flux = build_pair(m, p)
    quad = cell_quadrature(flux)
    rule, J, det = quad.rule, quad.J, quad.det
    vals, divs = piola_values(flux, quad)
    ref_vals = flux.ref.tabulate(rule.points)
    ref_divs = flux.ref.tabulate_div(rule.points)
    nc, nq = det.shape
    assert vals.shape == (nc, nq, 2, flux.ref.n_local)
    for c in range(nc):
        signs = flux.cell_signs[c]
        for q in range(nq):
            for a in range(2):
                oracle = (J[c, q, a, 0] * ref_vals[q, :, 0]
                          + J[c, q, a, 1] * ref_vals[q, :, 1]) / det[c, q] * signs
                assert np.array_equal(vals[c, q, a], oracle)
            assert np.array_equal(divs[c, q], ref_divs[q] / det[c, q] * signs)

@pytest.mark.parametrize("builder", ["scalar", "flux"])
def test_spd_randomized(level1_pair, rng, builder):
    _, (scalar, flux) = level1_pair
    if builder == "scalar":
        mat = assemble_mass_scalar(scalar)
    else:
        mat = assemble_weighted_mass_flux(flux, CoefficientField.isotropic(3.0))
    n = mat.shape[0]
    for _ in range(100):
        x = rng.standard_normal(n)
        assert float(x @ (mat @ x)) > 0.0


def test_div_coupling_shape_and_transpose_use(level1_pair):
    _, (scalar, flux) = level1_pair
    B = assemble_div_coupling(flux, scalar)
    assert B.shape == (scalar.n_dofs, flux.n_dofs)


def test_div_coupling_on_divergence_free_member():
    # a field with zero divergence contracts to a zero column combination
    m = unit_square_mesh(1)
    scalar, flux = build_pair(m, 1)
    g = lambda x: np.column_stack([np.atleast_2d(x)[:, 1] ** 2,
                                   np.zeros(len(np.atleast_2d(x)))])
    f = rt_interpolate(g, flux)
    B = assemble_div_coupling(flux, scalar)
    assert np.max(np.abs(B @ f)) < 1e-13


def test_div_coupling_total_flux(level1_pair):
    # contracting with the interpolant of 1 gives the boundary flux
    m, (scalar, flux) = level1_pair
    B = assemble_div_coupling(flux, scalar)
    rng = np.random.default_rng(3)
    coef = rng.standard_normal(flux.n_dofs)
    total = float(np.ones(scalar.n_dofs) @ (B @ coef))
    ned = flux.ref.n_edge_dofs
    boundary = sum(coef[e * ned] for e in range(m.n_edges)
                   if m.edge_cells[e, 1] < 0)
    assert abs(total - boundary) < 1e-12


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_div_coupling_entry_oracle(p):
    # det J cancels in <div v_j, w_i>: each cell's block is the reference
    # integral sum_q w_q phi_i(q) div v_j(q) times the cell's DoF signs
    m = distort(unit_square_mesh(1), 0.2, level_seed(11, 1))
    scalar, flux = build_pair(m, p)
    B = assemble_div_coupling(flux, scalar).toarray()
    rule = tensor_unit(p + 3)
    base = np.einsum("q,qi,qj->ij", rule.weights,
                     scalar.ref.tabulate(rule.points),
                     flux.ref.tabulate_div(rule.points))
    oracle = np.zeros_like(B)
    for k in range(m.n_cells):
        oracle[np.ix_(scalar.cell_dofs[k], flux.cell_dofs[k])] += (
            base * flux.cell_signs[k])
    assert np.max(np.abs(B - oracle)) <= 1e-13 * np.max(np.abs(B))


def _variable_diffusion(x):
    """R(x) diag(1 + x1^2, 2 + sin 3 x2) R(x)^T, R the rotation by x1 + 2 x2,
    built by products and so symmetric only to rounding."""
    angle = x[:, 0] + 2.0 * x[:, 1]
    c, s = np.cos(angle), np.sin(angle)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    scale = np.zeros_like(rot)
    scale[:, 0, 0] = 1.0 + x[:, 0] ** 2
    scale[:, 1, 1] = 2.0 + np.sin(3.0 * x[:, 1])
    return rot @ scale @ rot.transpose(0, 2, 1)


_ROTATION = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
_ANISOTROPIC = _ROTATION @ np.diag([1.0, 30.0]) @ _ROTATION.T
DIFFUSIONS = {
    "identity": CoefficientField.identity(),
    "anisotropic": CoefficientField(
        lambda x: np.repeat(_ANISOTROPIC[None], len(x), axis=0)),
    "variable": CoefficientField(_variable_diffusion),
}


def _table_galerkin(left, left_dofs, right, right_dofs, shape, nq, norms=None):
    """The per-cell table Galerkin product, dense: the sum over cells of
    left_c^T right_c, tables (cells, rows, local dofs), at the cells' dofs,
    without the entries within gamma_n sqrt(d_i d_j) of zero, for n = 2 nq
    point terms and d the product's diagonal unless `norms` gives them."""
    local = np.matmul(left.transpose(0, 2, 1), right)
    rows = np.broadcast_to(left_dofs[:, :, None], local.shape)
    cols = np.broadcast_to(right_dofs[:, None, :], local.shape)
    matrix = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                           shape=shape).toarray()
    n, u = 2 * nq, 0.5 * np.finfo(float).eps
    d_rows, d_cols = (np.diag(matrix),) * 2 if norms is None else norms
    bound = n * u / (1.0 - n * u) * np.sqrt(np.outer(d_rows, d_cols))
    matrix[np.abs(matrix) <= bound] = 0.0
    return matrix


def _oracle_mesh(distortion):
    m = unit_square_mesh(2)
    return distort(m, distortion, level_seed(31, 2)) if distortion else m


@pytest.mark.parametrize("diffusion", list(DIFFUSIONS))
@pytest.mark.parametrize("distortion", [0.0, 0.25, 0.45])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_matrices_match_the_table_galerkin_products(p, distortion, diffusion):
    # M_D and B from the reference basis and the cell geometry against the
    # sums over cells of L_c^T K_c R_c of the per-cell Piola tables: the same
    # entries stored, each within 1e-13 of its row's largest entry
    m = _oracle_mesh(distortion)
    scalar, flux = build_pair(m, p)
    coefficient = DIFFUSIONS[diffusion]
    quad = cell_quadrature(flux)
    rule = quad.rule
    vals, divs = piola_values(flux, quad)
    nc, nq, _, nl = vals.shape
    w = rule.weights * quad.det                               # (nc, nq)
    inverse = coefficient.inverse_at(quad.points).reshape(nc, nq, 2, 2)
    weighted = w[:, :, None, None] * np.matmul(inverse, vals)
    mass_d = _table_galerkin(vals.reshape(nc, -1, nl), flux.cell_dofs,
                             weighted.reshape(nc, -1, nl), flux.cell_dofs,
                             (flux.n_dofs, flux.n_dofs), nq)
    phi = np.broadcast_to(scalar.ref.tabulate(rule.points), (nc, nq, (p + 1) ** 2))
    mass_w = np.bincount(scalar.cell_dofs.ravel(),
                         weights=np.einsum("cq,cqi->ci", w, phi ** 2).ravel())
    div_norms = np.bincount(flux.cell_dofs.ravel(), minlength=flux.n_dofs,
                            weights=np.einsum("cq,cqi->ci", w, divs ** 2).ravel())
    div = _table_galerkin(phi, scalar.cell_dofs, w[:, :, None] * divs,
                          flux.cell_dofs, (scalar.n_dofs, flux.n_dofs), nq,
                          (mass_w, div_norms))
    for matrix, oracle in ((assemble_weighted_mass_flux(flux, coefficient), mass_d),
                           (assemble_div_coupling(flux, scalar), div)):
        dense = matrix.toarray()
        assert matrix.nnz == np.count_nonzero(oracle)
        assert np.array_equal(dense != 0.0, oracle != 0.0)
        row_max = np.max(np.abs(oracle), axis=1, keepdims=True)
        assert np.all(np.abs(dense - oracle) <= 1e-13 * row_max)


@pytest.mark.parametrize("distortion", [0.0, 0.25, 0.45])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_flux_moments_and_projection_match_the_table_oracle(p, distortion):
    # <g, v_i> from J^T g and the reference basis against the moments of the
    # per-cell Piola tables; l2_project_flux's coefficients reproduce those
    # moments under the table-built mass
    m = _oracle_mesh(distortion)
    _, flux = build_pair(m, p)

    def g(x):
        return np.column_stack([np.sin(3.0 * x[:, 0]) + x[:, 1],
                                np.cos(2.0 * x[:, 1]) * x[:, 0] - 0.5])

    quad = cell_quadrature(flux)
    vals, _ = piola_values(flux, quad)
    nc, nq, _, nl = vals.shape
    w = quad.rule.weights * quad.det
    local = np.einsum("cq,cqd,cqdl->cl", w, g(quad.points).reshape(nc, nq, 2),
                      vals)
    moments = np.bincount(flux.cell_dofs.ravel(), weights=local.ravel(),
                          minlength=flux.n_dofs)
    scale = np.max(np.abs(moments))
    assert np.max(np.abs(assemble_flux_moments(flux, g) - moments)) <= 1e-13 * scale
    mass = _table_galerkin(vals.reshape(nc, -1, nl), flux.cell_dofs,
                           (w[:, :, None, None] * vals).reshape(nc, -1, nl),
                           flux.cell_dofs, (flux.n_dofs, flux.n_dofs), nq)
    projected = l2_project_flux(g, flux)
    assert np.max(np.abs(mass @ projected - moments)) <= 1e-13 * scale


def test_mesh_mismatch_rejected():
    s0, _ = build_pair(unit_square_mesh(1), 1)
    _, f1 = build_pair(unit_square_mesh(2), 1)
    with pytest.raises(ValueError):
        assemble_div_coupling(f1, s0)


def test_degree_mismatch_rejected():
    m = unit_square_mesh(1)
    s1, _ = build_pair(m, 1)
    _, f2 = build_pair(m, 2)
    with pytest.raises(ValueError):
        assemble_div_coupling(f2, s1)


class TestLoad:
    def test_zero_source(self):
        scalar, _ = build_pair(unit_square_mesh(1), 2)
        vec = assemble_load(scalar, lambda x, t: np.zeros((len(t), len(x))),
                            np.array([0.3]))
        assert np.max(np.abs(vec)) == 0.0

    def test_constant_source_p0(self):
        scalar, _ = build_pair(unit_square_mesh(2), 0)
        vec = assemble_load(scalar, lambda x, t: np.ones((len(t), len(x))),
                            np.zeros(1))
        assert_allclose(vec, np.full((16, 1), 1 / 16), rtol=1e-14)

    def test_mms_source_against_oracle(self, level1_pair):
        import stmfem as st
        m, (scalar, _) = level1_pair
        exact = st.mms_standard(CoefficientField.identity())
        rule = tensor_unit(5)
        t = 0.05
        vec = assemble_load(scalar, exact.source, np.array([t]))[:, 0]
        phi = scalar.ref.tabulate(rule.points)
        for k in (0, 2):
            cm = cell_map(m, k)
            _, det = cm.jacobian(rule.points)
            fv = exact.source(cm.map(rule.points), np.array([t]))[0]
            for li, dof in enumerate(scalar.cell_dofs[k]):
                oracle = float(np.sum(rule.weights * det * fv * phi[:, li]))
                assert abs(vec[dof] - oracle) < 1e-12 * max(1.0, abs(oracle))

    def test_one_column_per_time(self, level1_pair):
        import stmfem as st
        _, (scalar, _) = level1_pair
        source = st.mms_standard(CoefficientField.identity()).source
        times = np.array([0.0, 0.013, 0.05, 0.31, 0.9])
        loads = assemble_load(scalar, source, times)
        assert loads.shape == (scalar.n_dofs, len(times))
        for k in range(len(times)):
            single = assemble_load(scalar, source, times[k:k + 1])[:, 0]
            assert (np.max(np.abs(loads[:, k] - single))
                    <= 1e-15 * np.max(np.abs(single)))

    def test_source_of_one_time_rejected(self):
        # an (n,) source, the shape of a single time, does not fit (len(t), n)
        scalar, _ = build_pair(unit_square_mesh(1), 1)
        with pytest.raises(ValueError, match=r"\(len\(t\), n\)"):
            assemble_load(scalar, lambda x, t: np.ones(len(x)), np.zeros(1))
        with pytest.raises(ValueError, match="1-D array"):
            assemble_load(scalar, lambda x, t: np.ones((1, len(x))), 0.3)


def test_assembly_deterministic(level1_pair):
    _, (scalar, flux) = level1_pair
    a = assemble_weighted_mass_flux(flux, CoefficientField.identity())
    b = assemble_weighted_mass_flux(flux, CoefficientField.identity())
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


class TestCoefficientField:
    def test_identity(self):
        D = CoefficientField.identity()
        pts = np.array([[0.5, 0.5], [0.1, 0.9]])
        assert_allclose(D.inverse_at(pts), np.array([np.eye(2)] * 2))
        assert D.isotropic_value == 1.0

    def test_not_spd_rejected(self):
        def bad(x):
            x = np.atleast_2d(x)
            out = np.zeros((len(x), 2, 2))
            out[:, 0, 0] = -1.0
            out[:, 1, 1] = 1.0
            return out

        D = CoefficientField(bad)
        with pytest.raises(InvalidCoefficientError):
            D.inverse_at(np.array([[0.2, 0.2]]))

    def test_asymmetric_rejected(self):
        def bad(x):
            x = np.atleast_2d(x)
            out = np.tile(np.array([[1.0, 0.5], [0.0, 1.0]]), (len(x), 1, 1))
            return out

        D = CoefficientField(bad)
        with pytest.raises(InvalidCoefficientError):
            D.inverse_at(np.array([[0.2, 0.2]]))

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e5])
    def test_symmetry_is_judged_at_the_tensor_scale(self, scale):
        # s R diag(1, 3) R^T built by products is symmetric to about one ulp
        # of s, so it passes at any s; an off-diagonal mismatch of 1e-12 s
        # still raises
        angle = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 1000)
        c, s = np.cos(angle), np.sin(angle)
        rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        D = scale * rot @ np.diag([1.0, 3.0]) @ rot.transpose(0, 2, 1)
        points = np.zeros((len(D), 2))
        inverse = CoefficientField(lambda x: D).inverse_at(points)
        assert_allclose(inverse @ D, np.broadcast_to(np.eye(2), D.shape),
                        atol=1e-14)
        skew = D.copy()
        skew[500, 0, 1] += 1e-12 * scale
        with pytest.raises(InvalidCoefficientError, match="not symmetric"):
            CoefficientField(lambda x: skew).inverse_at(points)

    def test_bad_bounds_rejected(self):
        with pytest.raises(InvalidCoefficientError):
            CoefficientField.isotropic(-2.0)

    @pytest.mark.parametrize("d", [np.nan, np.inf])
    def test_non_finite_isotropic_rejected(self, d):
        with pytest.raises(InvalidCoefficientError):
            CoefficientField.isotropic(d)

    def test_nan_at_one_point_rejected_while_building_matrices(self):
        from stmfem.timeloop import SystemMatrices

        def nan_at_one_point(x):
            out = np.tile(np.eye(2), (len(x), 1, 1))
            out[7] = np.nan
            return out

        D = CoefficientField(nan_at_one_point)
        scalar, flux = build_pair(unit_square_mesh(1), 1)
        with pytest.raises(InvalidCoefficientError):
            SystemMatrices(scalar, flux, D)


def test_cell_geometry_matches_cell_map():
    m = distort(unit_square_mesh(1), 0.2, level_seed(5, 1))
    rule = tensor_unit(3)
    phys, J, det = cell_geometry(m, rule)
    for k in range(m.n_cells):
        cm = cell_map(m, k)
        assert_allclose(phys[k], cm.map(rule.points), atol=1e-14)
        Jk, detk = cm.jacobian(rule.points)
        assert_allclose(J[k], Jk, atol=1e-14)
        assert_allclose(det[k], detk, atol=1e-14)


def test_folded_mesh_fails_quadrature_with_its_stage():
    # cell_geometry checks det J at the rule's points itself, for meshes
    # that never passed build_pair's check
    m = unit_square_mesh(1)
    vertices = m.vertices.copy()
    vertices[m.cells[0][2]] = [-0.5, -0.5]  # fold cell 0 over itself
    with pytest.raises(InvalidMeshError) as err:
        cell_geometry(QuadMesh(vertices, m.cells.copy(), level=1), tensor_unit(3))
    assert (err.value.stage, err.value.cell) == ("quadrature", 0)
    assert str(err.value).startswith("quadrature: cell 0 ")


@pytest.mark.parametrize("p", [0, 1, 2])
def test_evaluation_matches_per_cell_evaluation(p, rng):
    # the quadrature and the batched scalar values and Piola tables against
    # the per-cell maps and evaluators; the Piola tables carry the signs, so
    # they act on raw global coefficients
    m = distort(unit_square_mesh(2), 0.2, level_seed(13, 2))
    scalar, flux = build_pair(m, p)
    quad = cell_quadrature(scalar, p + 3)
    assert cell_quadrature(flux) is quad
    rule = quad.rule
    nq = len(rule.weights)
    shape = (m.n_cells, nq)
    u = rng.standard_normal(scalar.n_dofs)
    q = rng.standard_normal(flux.n_dofs)
    u_vals = scalar_values(scalar, quad, u[None]).reshape(shape)
    vals, divs = piola_values(flux, quad)
    assert vals.shape == shape + (2, flux.ref.n_local)
    assert divs.shape == shape + (flux.ref.n_local,)
    assert quad.points.shape == (m.n_cells * nq, 2)
    points = quad.points.reshape(shape + (2,))
    weights = quad.weights.reshape(shape)
    for k in range(m.n_cells):
        cm = cell_map(m, k)
        J, det = cm.jacobian(rule.points)
        q_local = q[flux.cell_dofs[k]]
        assert_allclose(points[k], cm.map(rule.points), atol=1e-15)
        assert_allclose(quad.J[k], J, atol=1e-15)
        assert_allclose(quad.det[k], det, rtol=1e-14)
        assert_allclose(weights[k], rule.weights * det, rtol=1e-14)
        assert_allclose(u_vals[k], eval_scalar(scalar, u, k, rule.points),
                        rtol=1e-12, atol=1e-13)
        assert_allclose(vals[k] @ q_local, eval_flux(flux, q, k, rule.points),
                        rtol=1e-12, atol=1e-12)
        assert_allclose(divs[k] @ q_local, eval_div_flux(flux, q, k, rule.points),
                        rtol=1e-12, atol=1e-11)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_scalar_dofs_are_numbered_cell_by_cell(p):
    # scalar_values and scalar_moments reshape coefficients to cells on it
    m = distort(unit_square_mesh(2), 0.3, level_seed(37, 2))
    scalar, _ = build_pair(m, p)
    assert np.array_equal(scalar.cell_dofs, np.arange(scalar.n_dofs).reshape(
        m.n_cells, scalar.ref.n_local))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(p=hst.integers(0, 4), distortion=hst.floats(0.0, 0.45, exclude_max=True),
       seed=hst.integers(0, 2**32 - 1), k=hst.integers(1, 3))
def test_forward_and_transposed_applications_are_adjoint(p, distortion, seed, k):
    # sum_points w (V c) g = c . M g for random c, g: scalar_moments is the
    # transpose of scalar_values under the quadrature weights
    try:
        m = distort(unit_square_mesh(1), distortion, seed)
    except InvalidMeshError:
        reject()
    scalar, _ = build_pair(m, p)
    quad = cell_quadrature(scalar)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((k, scalar.n_dofs))
    g = rng.standard_normal((k, len(quad.weights)))
    forward = scalar_values(scalar, quad, c)
    transposed = scalar_moments(scalar, quad, g)
    assert forward.shape == g.shape and transposed.shape == c.shape
    lhs = np.sum(quad.weights * forward * g, axis=1)
    rhs = np.sum(c * transposed, axis=1)
    scale = np.sum(np.abs(quad.weights * forward * g), axis=1)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


@pytest.mark.parametrize("distortion", [0.0, 0.25])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_matrices_store_no_zeros(p, distortion):
    m = distort(unit_square_mesh(2), distortion, level_seed(19, 2))
    scalar, flux = build_pair(m, p)
    for matrix in (assemble_mass_scalar(scalar),
                   assemble_weighted_mass_flux(flux, CoefficientField.identity()),
                   assemble_div_coupling(flux, scalar)):
        assert not np.any(matrix.data == 0.0)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(p=hst.integers(0, 3), distortion=hst.floats(0.0, 0.45, exclude_max=True),
       level=hst.integers(1, 2), seed=hst.integers(0, 2**32 - 1))
def test_matrices_store_no_rounding_residue(p, distortion, level, seed):
    # M_W is diagonal.  An entry of M_D or B sums n = 2 (p+3)^2 point terms,
    # so Cauchy-Schwarz bounds its rounding error by gamma_n sqrt(d_i d_j),
    # d the squared norms of the two basis functions under the rule; every
    # stored entry must exceed that bound
    try:
        m = distort(unit_square_mesh(level), distortion, seed)
    except InvalidMeshError:
        reject()
    scalar, flux = build_pair(m, p)
    mass_w = assemble_mass_scalar(scalar)
    assert mass_w.nnz == scalar.n_dofs
    n, u = 2 * (p + 3) ** 2, np.finfo(float).eps / 2
    gamma = n * u / (1.0 - n * u)
    quad = cell_quadrature(flux)
    _, divs = piola_values(flux, quad)
    div_norms = np.bincount(
        flux.cell_dofs.ravel(), minlength=flux.n_dofs,
        weights=np.einsum("cq,cqi->ci", quad.weights.reshape(m.n_cells, -1),
                          divs ** 2).ravel())
    mass_d = assemble_weighted_mass_flux(flux, CoefficientField.identity())
    for matrix, d_rows, d_cols in (
            (mass_d, mass_d.diagonal(), mass_d.diagonal()),
            (assemble_div_coupling(flux, scalar), mass_w.diagonal(), div_norms)):
        entries = matrix.tocoo()
        bound = gamma * np.sqrt(d_rows[entries.row] * d_cols[entries.col])
        assert np.all(np.abs(entries.data) > bound)


def test_run_and_error_norms_map_one_quadrature_per_mesh_and_order(
        monkeypatch, mms_problem):
    import stmfem.assembly as asm
    from stmfem.mms import error_q_V, error_u
    from stmfem.timeloop import run

    calls = []
    original = asm.cell_geometry

    def counting(mesh, rule):
        calls.append(len(rule.weights))
        return original(mesh, rule)

    monkeypatch.setattr(asm, "cell_geometry", counting)
    exact, data = mms_problem
    mesh = distort(unit_square_mesh(2), 0.2, level_seed(17, 2))
    solution = run(data, mesh, p=1, r=2, n_steps=4)
    error_u(solution, exact)
    error_q_V(solution, exact)
    assert calls == [16]
    error_u(solution, exact, space_order=8)
    error_q_V(solution, exact, space_order=8)
    assert calls == [16, 64]


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(p=hst.integers(0, 3), distortion=hst.floats(0.0, 0.45, exclude_max=True),
       seed=hst.integers(0, 2**32 - 1), k=hst.integers(1, 3))
def test_scalar_table_is_applied_as_one_product(p, distortion, seed, k):
    # scalar_values and scalar_moments apply the reference table to all
    # cells' data in one product; cell by cell, products with the cell's
    # gathered coefficients or weighted point values sum the same n_local or
    # nq terms, so both agree to the rounding of that sum, bounded by the
    # sum of the terms' magnitudes
    try:
        m = distort(unit_square_mesh(2), distortion, seed)
    except InvalidMeshError:
        reject()
    scalar, _ = build_pair(m, p)
    quad = cell_quadrature(scalar)
    phi = scalar.ref.tabulate(quad.rule.points)
    nq = len(phi)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((k, scalar.n_dofs))
    g = rng.standard_normal((k, len(quad.weights)))
    wg = g * quad.weights
    values = scalar_values(scalar, quad, c)
    moments = scalar_moments(scalar, quad, g)
    for cell, dofs in enumerate(scalar.cell_dofs):
        points = slice(cell * nq, (cell + 1) * nq)
        for one, per_cell, scale in (
                (values[:, points], c[:, dofs] @ phi.T,
                 np.abs(c[:, dofs]) @ np.abs(phi.T)),
                (moments[:, dofs], wg[:, points] @ phi,
                 np.abs(wg[:, points]) @ np.abs(phi))):
            assert np.all(np.abs(one - per_cell) <= 1e-14 * scale)


def test_cell_geometry_is_mapped_once_per_mesh_and_order(monkeypatch):
    import stmfem.assembly as asm
    from stmfem.mms import _read_only

    calls = []
    original = asm.cell_geometry

    def counting(mesh, rule):
        calls.append(len(rule.weights))
        return original(mesh, rule)

    monkeypatch.setattr(asm, "cell_geometry", counting)
    m = distort(unit_square_mesh(2), 0.2, level_seed(29, 2))
    scalar, flux = build_pair(m, 2)
    quad = cell_quadrature(scalar)
    assert cell_quadrature(flux) is quad
    rt_interpolate(lambda x: np.ones_like(np.atleast_2d(x)), flux)
    assert calls == [25]
    for array in (quad.points, quad.weights, quad.J, quad.det):
        assert _read_only(array)
    # another space pair on the same mesh shares it too; another order maps
    # anew, and cell_geometry itself is not cached
    assert cell_quadrature(build_pair(m, 2)[0]) is quad
    rt_interpolate(lambda x: np.ones_like(np.atleast_2d(x)), flux, order=4)
    phys, _, _ = asm.cell_geometry(m, tensor_unit(5))
    assert calls == [25, 16, 25] and phys.flags.writeable
