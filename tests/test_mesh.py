import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from numpy.testing import assert_allclose

from stmfem.exceptions import InvalidMeshError
from stmfem.mesh import (
    QuadMesh,
    bilinear_map,
    distort,
    export_text,
    h_max,
    level_seed,
    unit_square_mesh,
    validity_check,
)

from pointwise import cell_map


@pytest.mark.parametrize("level,cells,hmax", [
    (0, 1, 1.4142), (2, 16, 0.35355), (5, 1024, 0.044194)])
def test_uniform_mesh_table_rows(level, cells, hmax):
    m = unit_square_mesh(level)
    assert m.n_cells == cells
    assert m.n_vertices == (2**level + 1) ** 2
    assert abs(h_max(m) - hmax) < 5e-5 * hmax


@pytest.mark.parametrize("level", [3, 4])
def test_h_max_levels_3_4(level):
    # 0.1768 and 0.0884 in the distorted-mesh table's 0% column
    expected = {3: 0.1768, 4: 0.0884}[level]
    assert abs(h_max(unit_square_mesh(level)) - expected) < 5e-4


def test_refinement_halves_h_exactly():
    h_prev = h_max(unit_square_mesh(1))
    for level in (2, 3, 4):
        h_cur = h_max(unit_square_mesh(level))
        assert abs(h_prev / h_cur - 2.0) < 1e-12
        h_prev = h_cur


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_euler_characteristic(level):
    m = unit_square_mesh(level)
    assert m.n_vertices - m.n_edges + m.n_cells == 1


def test_edge_adjacency():
    m = unit_square_mesh(2)
    interior = ~m.boundary_edge
    assert np.all(m.edge_cells[interior, 1] >= 0)
    assert np.all(m.edge_cells[m.boundary_edge, 1] < 0)
    # adjacent cell indices stored ascending (normal convention anchor)
    both = m.edge_cells[interior]
    assert np.all(both[:, 0] < both[:, 1])


def test_boundary_vertices_on_unit_square():
    m = unit_square_mesh(3)
    v = m.vertices[m.boundary_vertex]
    on = (np.abs(v) < 1e-14) | (np.abs(v - 1.0) < 1e-14)
    assert np.all(on.any(axis=1))


def test_level_bounds():
    with pytest.raises(ValueError):
        unit_square_mesh(9)
    with pytest.raises(ValueError):
        unit_square_mesh(-1)


class TestDistort:
    def test_factor_zero_is_identity(self):
        m = unit_square_mesh(2)
        d = distort(m, 0.0, 7)
        assert np.array_equal(d.vertices, m.vertices)
        assert np.array_equal(d.cells, m.cells)

    def test_deterministic(self):
        m = unit_square_mesh(3)
        a = distort(m, 0.2, 123)
        b = distort(m, 0.2, 123)
        assert np.array_equal(a.vertices, b.vertices)

    def test_seed_changes_result(self):
        m = unit_square_mesh(3)
        a = distort(m, 0.2, 123)
        b = distort(m, 0.2, 124)
        assert not np.array_equal(a.vertices, b.vertices)

    def test_boundary_and_topology_preserved(self):
        m = unit_square_mesh(3)
        d = distort(m, 0.25, 99)
        assert np.array_equal(d.cells, m.cells)
        assert np.array_equal(d.edge_vertices, m.edge_vertices)
        assert np.array_equal(m.vertices[m.boundary_vertex],
                              d.vertices[d.boundary_vertex])
        moved = np.any(d.vertices != m.vertices, axis=1)
        assert np.all(moved == ~m.boundary_vertex)

    def test_h_max_bound_level1(self):
        # one interior vertex; diameter grows at most by the movement radius
        m = unit_square_mesh(1)
        for seed in range(20):
            d = distort(m, 0.25, seed)
            h = h_max(d)
            assert 0.7071 - 1e-12 <= h <= 0.7071 * 1.5 + 1e-12

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_validity_sweep_quarter_factor(self, level):
        m = unit_square_mesh(level)
        for seed in range(100):
            d = distort(m, 0.25, seed)  # raises if invalid
            assert validity_check(d).ok

    @pytest.mark.parametrize("level", [2, 4])
    @pytest.mark.parametrize("seed", [3, 2024])
    def test_matches_documented_per_vertex_draws(self, level, seed):
        # interior vertices in ascending order, each drawing its angle and
        # then its magnitude with `uniform`
        m = unit_square_mesh(level)
        factor = 0.25
        ev = m.edge_vertices
        lengths = np.linalg.norm(m.vertices[ev[:, 0]] - m.vertices[ev[:, 1]],
                                 axis=1)
        rng = np.random.Generator(np.random.PCG64(seed))
        expected = m.vertices.copy()
        for v in range(m.n_vertices):
            if m.boundary_vertex[v]:
                continue
            emin = lengths[(ev == v).any(axis=1)].min()
            angle = rng.uniform(0.0, 2.0 * np.pi)
            radius = rng.uniform(0.0, factor * emin)
            expected[v, 0] += radius * np.cos(angle)
            expected[v, 1] += radius * np.sin(angle)
        got = distort(m, factor, seed).vertices
        assert got.tobytes() == expected.tobytes()

    def test_invalid_factor_rejected(self):
        m = unit_square_mesh(2)
        with pytest.raises(ValueError):
            distort(m, 0.5, 1)
        with pytest.raises(ValueError):
            distort(m, -0.1, 1)


def test_level_seed_deterministic_and_distinct():
    assert level_seed(42, 3) == level_seed(42, 3)
    seeds = {level_seed(42, l) for l in range(6)}
    assert len(seeds) == 6


class TestCellMap:
    def test_identity_map_unit_cell(self):
        m = unit_square_mesh(0)
        cm = cell_map(m, 0)
        pts = np.array([[0.3, 0.7], [0.0, 0.0], [1.0, 1.0]])
        assert_allclose(cm.map(pts), pts, atol=1e-15)
        _, det = cm.jacobian(pts)
        assert_allclose(det, np.ones(3), rtol=1e-15)

    def test_axis_aligned_cell_determinant(self):
        m = unit_square_mesh(2)  # side 1/4
        _, det = cell_map(m, 5).jacobian(np.array([[0.2, 0.9]]))
        assert_allclose(det, [1 / 16], rtol=1e-14)

    def test_corner_determinants_are_edge_cross_products(self):
        m = distort(unit_square_mesh(2), 0.25, 5)
        corners_ref = np.array([[0., 0.], [1., 0.], [1., 1.], [0., 1.]])
        for k in (0, 7, 12):
            c = m.vertices[m.cells[k]]
            _, det = cell_map(m, k).jacobian(corners_ref)
            for loc in range(4):
                e1 = c[(loc + 1) % 4] - c[loc]
                e2 = c[(loc + 3) % 4] - c[loc]
                cross = e1[0] * e2[1] - e1[1] * e2[0]
                assert abs(det[loc] - cross) < 1e-13

    def test_inverse_roundtrip(self):
        m = distort(unit_square_mesh(2), 0.2, 3)
        cm = cell_map(m, 9)
        xhat = np.array([[0.25, 0.5], [0.9, 0.1]])
        back = cm.inverse(cm.map(xhat))
        assert_allclose(back, xhat, atol=1e-12)

    def test_invalid_cell_index(self):
        with pytest.raises(ValueError):
            cell_map(unit_square_mesh(1), 4)


def test_validity_check_uniform_passes():
    report = validity_check(unit_square_mesh(3))
    assert report.ok
    assert report.min_det > 0


def test_validity_failure_reports_cell():
    m = unit_square_mesh(1)
    bad = m.vertices.copy()
    bad[m.cells[0][2]] = [-0.5, -0.5]  # fold cell 0 over itself
    from stmfem.mesh import QuadMesh
    folded = QuadMesh(bad, m.cells.copy(), level=1)
    report = validity_check(folded)
    assert not report.ok and 0 in report.bad_cells
    with pytest.raises(InvalidMeshError) as err:
        from stmfem.spaces import build_pair
        build_pair(folded, 1)
    assert "cell" in str(err.value)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(amplitude=hst.floats(0.0, 1.0),
       shifts=hst.lists(hst.floats(-1.0, 1.0), min_size=18, max_size=18))
def test_corner_check_agrees_with_dense_sampling(amplitude, shifts):
    # moving all nine vertices of the 2 x 2 mesh by up to h gives
    # valid, distorted and folded quads
    m = unit_square_mesh(1)
    vertices = m.vertices + 0.5 * amplitude * np.reshape(shifts, (9, 2))
    mesh = QuadMesh(vertices, m.cells, level=1)
    report = validity_check(mesh)
    s = np.linspace(0.0, 1.0, 31)
    dense = np.column_stack([np.tile(s, 31), np.repeat(s, 31)])
    _, _, det = bilinear_map(mesh.cell_corner_array(), dense)
    cell_min = det.min(axis=1)
    assert report.ok == bool(np.all(cell_min > 0.0))
    assert report.bad_cells == tuple(np.flatnonzero(cell_min <= 0.0))
    assert report.min_det == pytest.approx(cell_min.min(), rel=1e-12, abs=1e-16)


def test_inverting_distortion_names_its_stage():
    # a factor close to 1/2 can fold a cell; seed 10 folds cell 9 of L2
    with pytest.raises(InvalidMeshError) as err:
        distort(unit_square_mesh(2), 0.49, 10)
    assert (err.value.stage, err.value.cell) == ("distort", 9)
    assert err.value.min_det < 0.0
    assert str(err.value).startswith("distort: cell 9 ")


def test_export_text_lists_all_records():
    m = unit_square_mesh(1)
    text = export_text(m)
    lines = text.strip().splitlines()
    n_vertex = sum(1 for l in lines if l.startswith("vertex "))
    n_cell = sum(1 for l in lines if l.startswith("cell "))
    assert n_vertex == m.n_vertices and n_cell == m.n_cells
    # coordinates round-trip through repr
    first = next(l for l in lines if l.startswith("vertex 4 "))
    _, _, x, y = first.split()
    assert float(x) == m.vertices[4, 0] and float(y) == m.vertices[4, 1]
