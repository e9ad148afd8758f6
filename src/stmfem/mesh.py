"""Quadrilateral meshes of the unit square with refinement and random distortion.

Conventions fixed here and relied on by the flux space:

* cell corners are stored counterclockwise; local edge l runs from corner l
  to corner (l + 1) % 4;
* every edge stores its vertices as (lo, hi) with lo < hi, and its global
  parametrization runs from lo to hi;
* the global edge normal is the outward normal of the adjacent cell with the
  lower index (for boundary edges: outward from the domain).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidMeshError
from .quadrature import tensor_unit

MAX_LEVEL = 8

# reference square corners, counterclockwise
_REF_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def bilinear_map(corners, xhat):
    """Bilinear maps of many cells at the same reference points.

    corners (nc, 4, 2) are counterclockwise cell corners, xhat (nq, 2)
    reference points.  Returns (phys, J, det): physical points (nc, nq, 2),
    Jacobians (nc, nq, 2, 2) and determinants (nc, nq).
    """
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    x, y = xhat[:, 0], xhat[:, 1]
    c = corners
    shp = np.column_stack([(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y])
    phys = np.einsum("qk,nkd->nqd", shp, c)
    a = c[:, 1] - c[:, 0]
    b = c[:, 3] - c[:, 0]
    d = c[:, 0] - c[:, 1] + c[:, 2] - c[:, 3]
    J = np.empty((len(c), len(xhat), 2, 2))
    J[:, :, :, 0] = a[:, None, :] + y[None, :, None] * d[:, None, :]
    J[:, :, :, 1] = b[:, None, :] + x[None, :, None] * d[:, None, :]
    det = J[:, :, 0, 0] * J[:, :, 1, 1] - J[:, :, 0, 1] * J[:, :, 1, 0]
    return phys, J, det


@dataclass(frozen=True)
class CellMap:
    """Bilinear map from the reference square [0, 1]^2 onto one cell."""

    cell: int
    corners: np.ndarray  # (4, 2), counterclockwise

    def map(self, xhat):
        """Physical coordinates of reference points xhat, shape (npts, 2)."""
        return bilinear_map(self.corners[None], xhat)[0][0]

    def jacobian(self, xhat):
        """Jacobian matrices and determinants at reference points.

        Returns (J, det) with J of shape (npts, 2, 2) and det of shape (npts,).
        """
        _, J, det = bilinear_map(self.corners[None], xhat)
        return J[0], det[0]

    def inverse(self, x, tol=1e-13):
        """Reference coordinates of physical points x by Newton iteration."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        xhat = np.full_like(x, 0.5)
        for _ in range(50):
            r = self.map(xhat) - x
            if np.max(np.abs(r)) < tol:
                break
            J, det = self.jacobian(xhat)
            dx = np.empty_like(r)
            dx[:, 0] = (J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1]) / det
            dx[:, 1] = (-J[:, 1, 0] * r[:, 0] + J[:, 0, 0] * r[:, 1]) / det
            xhat -= dx
        return xhat


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    min_det: float
    bad_cells: tuple

    def __bool__(self):
        return self.ok


class QuadMesh:
    """A quadrilateral decomposition of the unit square.

    Attributes
    ----------
    vertices : (nv, 2) float array
    cells : (nc, 4) int array, counterclockwise corner indices
    level : refinement level the mesh was generated at
    edge_vertices : (ne, 2) int array, each row sorted (lo, hi)
    edge_cells : (ne, 2) int array, adjacent cells ascending, -1 if boundary
    cell_edges : (nc, 4) int array, edge index of each local edge
    boundary_vertex, boundary_edge : boolean masks
    """

    def __init__(self, vertices, cells, level=0, distortion=0.0):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.level = int(level)
        self.distortion = float(distortion)
        self._build_edges()

    def _build_edges(self):
        # local edge l of cell k is slot 4k + l; edges are numbered in order of
        # first appearance, so an edge's first slot lies in its lower-index cell
        ends = np.stack([self.cells, np.roll(self.cells, -1, axis=1)], axis=2)
        keys, first, inverse = np.unique(np.sort(ends.reshape(-1, 2), axis=1),
                                         axis=0, return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        slot_edge = np.argsort(order)[inverse.ravel()]
        later = np.ones(len(slot_edge), dtype=bool)
        later[first] = False
        self.edge_vertices = keys[order]
        self.edge_cells = np.column_stack([first[order] // 4,
                                           np.full(len(order), -1)])
        self.edge_cells[slot_edge[later], 1] = np.flatnonzero(later) // 4
        self.cell_edges = slot_edge.reshape(-1, 4)
        self.boundary_edge = self.edge_cells[:, 1] < 0
        v = self.vertices
        self.boundary_vertex = np.any(
            (np.abs(v) < 1e-12) | (np.abs(v - 1.0) < 1e-12), axis=1)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return len(self.edge_vertices)

    def cell_map(self, k):
        if not 0 <= k < self.n_cells:
            raise ValueError(f"cell index {k} out of range")
        return CellMap(cell=k, corners=self.vertices[self.cells[k]])

    def cell_corner_array(self):
        """Corner coordinates of all cells, shape (nc, 4, 2)."""
        return self.vertices[self.cells]

    def edge_frames(self):
        """(start, end, normal) of every edge in the global convention.

        Each is an (ne, 2) array: the parametrization runs from the lower to
        the higher vertex index, and the unit normal is the outward normal of
        the lower-index adjacent cell.
        """
        # edges are numbered by first appearance, so the first slot naming an
        # edge is a local edge of its lower-index cell
        slot = np.unique(self.cell_edges, return_index=True)[1]
        t = (self.vertices[np.roll(self.cells, -1, axis=1).ravel()[slot]]
             - self.vertices[self.cells.ravel()[slot]])
        normal = np.column_stack([t[:, 1], -t[:, 0]])  # outward of a CCW cell
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        ev = self.edge_vertices
        return self.vertices[ev[:, 0]], self.vertices[ev[:, 1]], normal


def unit_square_mesh(level):
    """Uniform (2^level)^2 quadrilateral mesh of [0, 1]^2."""
    if not isinstance(level, (int, np.integer)) or level < 0:
        raise ValueError(f"level must be a nonnegative integer, got {level!r}")
    if level > MAX_LEVEL:
        raise ValueError(f"level {level} exceeds the supported maximum {MAX_LEVEL}")
    n = 2**level
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs)
    vertices = np.column_stack([X.ravel(), Y.ravel()])  # index j*(n+1)+i
    # cell k = j*n + i has lower-left corner v = j*(n+1) + i
    v = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    cells = np.column_stack([v, v + 1, v + n + 2, v + n + 1])
    return QuadMesh(vertices, cells, level=level)


def _incident_min_edge_length(mesh):
    """Shortest incident edge length per vertex."""
    v = mesh.vertices
    ev = mesh.edge_vertices
    lengths = np.linalg.norm(v[ev[:, 0]] - v[ev[:, 1]], axis=1)
    emin = np.full(len(v), np.inf)
    np.minimum.at(emin, ev[:, 0], lengths)
    np.minimum.at(emin, ev[:, 1], lengths)
    return emin


def distort(mesh, factor, seed):
    """Randomly move interior vertices by up to factor * (shortest incident edge).

    Each interior vertex is shifted by a vector with direction uniform in
    [0, 2*pi) and magnitude uniform in [0, factor * e_min(v)].  The draws
    come from one `random((n_interior, 2))` call on a PCG64 generator seeded
    with `seed`: row i belongs to the i-th interior vertex in ascending index
    order, column 0 gives the angle and column 1 the magnitude.  That is the
    same stream, bit for bit, as drawing angle then magnitude with
    `uniform` vertex by vertex, so the result is reproducible bit for bit.
    Boundary vertices and mesh topology are untouched.
    """
    if not 0.0 <= factor < 0.5:
        raise ValueError(f"distortion factor must be in [0, 0.5), got {factor}")
    if factor == 0.0:
        return QuadMesh(mesh.vertices.copy(), mesh.cells.copy(),
                        level=mesh.level, distortion=0.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    interior = np.flatnonzero(~mesh.boundary_vertex)
    angle, magnitude = rng.random((len(interior), 2)).T
    angle = 2.0 * np.pi * angle
    radius = factor * _incident_min_edge_length(mesh)[interior] * magnitude
    vertices = mesh.vertices.copy()
    vertices[interior, 0] += radius * np.cos(angle)
    vertices[interior, 1] += radius * np.sin(angle)
    out = QuadMesh(vertices, mesh.cells.copy(), level=mesh.level, distortion=factor)
    report = validity_check(out)
    if not report.ok:
        raise InvalidMeshError(report.bad_cells[0], report.min_det)
    return out


def level_seed(base_seed, level):
    """Per-level distortion seed derived from a base seed.

    Levels are distorted independently, so each gets its own stream.
    """
    ss = np.random.SeedSequence(entropy=[int(base_seed), int(level)])
    return int(ss.generate_state(1, np.uint64)[0])


def h_max(mesh):
    """Largest cell diameter (max corner-to-corner distance over all cells)."""
    corners = mesh.cell_corner_array()
    best = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            d = np.linalg.norm(corners[:, a] - corners[:, b], axis=1)
            best = max(best, float(d.max()))
    return best


def validity_check(mesh, rule=None):
    """Check det J > 0 at cell corners and at the points of a tensor rule."""
    if rule is None:
        rule = tensor_unit(3)
    pts = np.vstack([_REF_CORNERS, rule.points])
    _, _, det = bilinear_map(mesh.cell_corner_array(), pts)
    cell_min = det.min(axis=1)
    bad = tuple(int(k) for k in np.flatnonzero(cell_min <= 0.0))
    min_det = float(np.min(cell_min, initial=np.inf))
    return ValidityReport(ok=not bad, min_det=min_det, bad_cells=bad)


def export_text(mesh):
    """Plain-text mesh listing: one `vertex i x y` / `cell k v0 v1 v2 v3` per line."""
    lines = [f"# quadmesh level={mesh.level} distortion={mesh.distortion}"]
    lines.append(f"# vertices {mesh.n_vertices} cells {mesh.n_cells}")
    for i, (x, y) in enumerate(mesh.vertices):
        lines.append(f"vertex {i} {float(x)!r} {float(y)!r}")
    for k, c in enumerate(mesh.cells):
        lines.append(f"cell {k} {c[0]} {c[1]} {c[2]} {c[3]}")
    return "\n".join(lines) + "\n"


def write_text(mesh, path):
    with open(path, "w") as fh:
        fh.write(export_text(mesh))
