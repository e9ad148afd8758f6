import numpy as np
import pytest
from numpy.testing import assert_allclose

from stmfem.assembly import (
    CoefficientField,
    assemble_div_coupling,
    assemble_load,
    assemble_mass_scalar,
    assemble_weighted_mass_flux,
    cell_geometry,
    evaluation,
    piola_values,
)
from stmfem.exceptions import InvalidCoefficientError
from stmfem.mesh import distort, level_seed, unit_square_mesh
from stmfem.quadrature import tensor_unit
from stmfem.spaces import (
    FeFunction,
    build_pair,
    eval_div_flux,
    eval_flux,
    eval_scalar,
    rt_interpolate,
)


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
            _, det = mesh.cell_map(k).jacobian(rule.points)
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
    mass = assemble_mass_scalar(scalar, rule).tocoo()
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
    rule = tensor_unit(5)
    mass = assemble_weighted_mass_flux(flux, CoefficientField.identity(), rule)
    vals, _, (_, _, det) = piola_values(flux, rule)
    wdet = rule.weights[None, :] * det
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
                    wdet[k] * np.sum(vals[k, :, lj] * vals[k, :, li], axis=1)))
        assert abs(coo.data[t] - oracle) < 1e-12 * max(1.0, abs(oracle))


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
    assert np.max(np.abs(B @ f.coefficients)) < 1e-13


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


def test_div_coupling_entry_oracle(level1_pair, rng):
    m, (scalar, flux) = level1_pair
    rule = tensor_unit(5)
    B = assemble_div_coupling(flux, scalar, rule).tocoo()
    _, divs, (_, _, det) = piola_values(flux, rule)
    phi = scalar.ref.tabulate(rule.points)
    wdet = rule.weights[None, :] * det
    idx = rng.choice(B.nnz, size=10, replace=False)
    for t in idx:
        i, j = int(B.row[t]), int(B.col[t])
        oracle = 0.0
        for k in range(m.n_cells):
            sdofs = list(scalar.cell_dofs[k])
            fdofs = list(flux.cell_dofs[k])
            if i in sdofs and j in fdofs:
                li, lj = sdofs.index(i), fdofs.index(j)
                oracle += float(np.sum(wdet[k] * divs[k, :, lj] * phi[:, li]))
        assert abs(B.data[t] - oracle) < 1e-12 * max(1.0, abs(oracle))


def test_mesh_mismatch_rejected():
    s0, _ = build_pair(unit_square_mesh(1), 1)
    _, f1 = build_pair(unit_square_mesh(2), 1)
    with pytest.raises(ValueError):
        assemble_div_coupling(f1, s0)


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
        vec = assemble_load(scalar, exact.source, np.array([t]), rule)[:, 0]
        phi = scalar.ref.tabulate(rule.points)
        for k in (0, 2):
            cm = m.cell_map(k)
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

        D = CoefficientField(bad, d_min=0.5, d_max=2.0)
        with pytest.raises(InvalidCoefficientError):
            D.inverse_at(np.array([[0.2, 0.2]]))

    def test_asymmetric_rejected(self):
        def bad(x):
            x = np.atleast_2d(x)
            out = np.tile(np.array([[1.0, 0.5], [0.0, 1.0]]), (len(x), 1, 1))
            return out

        D = CoefficientField(bad, d_min=0.5, d_max=2.0)
        with pytest.raises(InvalidCoefficientError):
            D.inverse_at(np.array([[0.2, 0.2]]))

    def test_bad_bounds_rejected(self):
        with pytest.raises(InvalidCoefficientError):
            CoefficientField.isotropic(-2.0)


def test_cell_geometry_matches_cell_map():
    m = distort(unit_square_mesh(1), 0.2, level_seed(5, 1))
    rule = tensor_unit(3)
    phys, J, det = cell_geometry(m, rule)
    for k in range(m.n_cells):
        cm = m.cell_map(k)
        assert_allclose(phys[k], cm.map(rule.points), atol=1e-14)
        Jk, detk = cm.jacobian(rule.points)
        assert_allclose(J[k], Jk, atol=1e-14)
        assert_allclose(det[k], detk, atol=1e-14)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_evaluation_matches_per_cell_evaluation(p, rng):
    # eval_* sign the coefficients per cell; the operators carry signed tables
    m = distort(unit_square_mesh(2), 0.2, level_seed(13, 2))
    scalar, flux = build_pair(m, p)
    rule = tensor_unit(p + 3)
    shape = (m.n_cells, len(rule.weights))
    u = FeFunction(scalar, rng.standard_normal(scalar.n_dofs))
    q = FeFunction(flux, rng.standard_normal(flux.n_dofs))
    ev_u, ev_q = evaluation(scalar, rule), evaluation(flux, rule)
    assert ev_u.divs is None
    assert_allclose(ev_q.points, ev_u.points, rtol=0, atol=0)
    assert_allclose(ev_q.weights, ev_u.weights, rtol=0, atol=0)
    points = ev_u.points.reshape(shape + (2,))
    weights = ev_u.weights.reshape(shape)
    u_vals = (ev_u.values @ u.coefficients).reshape(shape)
    q_vals = (ev_q.values @ q.coefficients).reshape(shape + (2,))
    q_divs = (ev_q.divs @ q.coefficients).reshape(shape)
    for k in range(m.n_cells):
        cm = m.cell_map(k)
        _, det = cm.jacobian(rule.points)
        assert_allclose(points[k], cm.map(rule.points), atol=1e-15)
        assert_allclose(weights[k], rule.weights * det, rtol=1e-14)
        assert_allclose(u_vals[k], eval_scalar(u, k, rule.points),
                        rtol=1e-12, atol=1e-13)
        assert_allclose(q_vals[k], eval_flux(q, k, rule.points),
                        rtol=1e-12, atol=1e-12)
        assert_allclose(q_divs[k], eval_div_flux(q, k, rule.points),
                        rtol=1e-12, atol=1e-11)


def test_run_and_error_norms_build_geometry_at_most_three_times(
        monkeypatch, mms_problem):
    import stmfem.assembly as asm
    from stmfem.mms import error_q_V, error_u
    from stmfem.timeloop import run

    calls = []
    original = asm.cell_geometry

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(asm, "cell_geometry", counting)
    exact, data = mms_problem
    mesh = distort(unit_square_mesh(2), 0.2, level_seed(17, 2))
    solution = run(data, mesh, p=1, r=2, n_steps=4)
    error_u(solution, exact)
    error_q_V(solution, exact)
    assert len(calls) <= 3


def test_dump_coo_roundtrip(tmp_path):
    from stmfem.assembly import dump_coo
    scalar, _ = build_pair(unit_square_mesh(1), 0)
    mass = assemble_mass_scalar(scalar)
    path = tmp_path / "mass.txt"
    dump_coo(mass, path)
    rows = [l.split() for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == mass.nnz
    assert all(abs(float(v) - 0.25) < 1e-15 for _, _, v in rows)
