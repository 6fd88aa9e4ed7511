import numpy as np
import pytest

from test_assembly import jittered

from dgdyn.mesh import (
    DIRICHLET_LATERAL,
    PERIODIC,
    Mesh,
    MeshError,
    build_structured_mesh,
    classify_edges,
)


def enumerate_edges(mesh):
    """Independent edge census: every sorted vertex pair of every triangle,
    bucketed by position on the boundary of the domain."""
    n = mesh.n_cells_per_side
    counts = {}
    for tri in mesh.triangles:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((tri[a], tri[b])))
            counts[key] = counts.get(key, 0) + 1
    buckets = {"interior": 0, "gamma1": 0, "left": 0, "right": 0}
    for (va, vb), c in counts.items():
        ia, ja = va % (n + 1), va // (n + 1)
        ib, jb = vb % (n + 1), vb // (n + 1)
        if c == 2:
            buckets["interior"] += 1
        elif ja == jb == 0 or ja == jb == n:
            buckets["gamma1"] += 1
        elif ia == ib == 0:
            buckets["left"] += 1
        elif ia == ib == n:
            buckets["right"] += 1
    return buckets


@pytest.mark.parametrize(
    "level,n_tris,n_verts,h",
    [
        (0, 2, 4, np.sqrt(2)),
        (1, 8, 9, np.sqrt(2) / 2),
        (2, 32, 25, np.sqrt(2) / 4),
    ],
)
def test_structured_mesh_counts(level, n_tris, n_verts, h):
    mesh = build_structured_mesh(level)
    assert mesh.n_triangles == n_tris
    assert mesh.n_vertices == n_verts
    assert mesh.h == pytest.approx(h, rel=1e-15)


def test_positive_areas_and_total_area():
    for level in (2, 3):
        areas = 0.5 * build_structured_mesh(level).det_jacobians
        assert (areas > 0).all()
        assert np.isclose(areas.sum(), 1.0, rtol=1e-12)


def test_refinement_halves_h():
    h_prev = build_structured_mesh(1).h
    for level in range(2, 6):
        h = build_structured_mesh(level).h
        assert h == h_prev / 2
        h_prev = h


def periodic_pairs(edges):
    """The rows of ``two_sided`` that cross the periodic seam."""
    return np.flatnonzero(np.any(edges.two_sided.shift != 0.0, axis=1))


def test_classify_level2_periodic_counts():
    mesh = build_structured_mesh(2)
    oracle = enumerate_edges(mesh)
    edges = classify_edges(mesh, PERIODIC)
    pairs = periodic_pairs(edges)
    assert len(edges.two_sided) - len(pairs) == oracle["interior"] == 40
    assert len(edges.gamma1) == oracle["gamma1"] == 8
    assert len(pairs) == oracle["left"] == oracle["right"] == 4
    # the interior edges first, then the pairs
    assert np.array_equal(pairs, np.arange(40, 44))
    # one ridge per gamma1 vertex, corners fused: 4 per component
    assert len(edges.ridges) == 8
    assert edges.corners is None


def test_classify_level0_periodic_counts():
    mesh = build_structured_mesh(0)
    edges = classify_edges(mesh, PERIODIC)
    assert len(edges.two_sided) == 2
    assert len(edges.gamma1) == 2
    assert len(periodic_pairs(edges)) == 1
    assert len(edges.ridges) == 2


def test_classify_level2_dirichlet_counts():
    mesh = build_structured_mesh(2)
    edges = classify_edges(mesh, DIRICHLET_LATERAL)
    assert len(edges.two_sided) == 40
    assert len(edges.gamma1) == 8
    assert len(periodic_pairs(edges)) == 0
    assert len(edges.dirichlet) == 8
    # 5 gamma1 vertices per component, corners not fused: 3 two-sided ridges
    # and 2 one-sided corners per component
    assert len(edges.ridges) == 6
    assert len(edges.corners) == 4


def test_gamma1_total_length():
    edges = classify_edges(build_structured_mesh(3))
    assert np.isclose(edges.gamma1.length.sum(), 2.0, rtol=1e-12)


def test_interior_normals_unit_and_oriented():
    mesh = build_structured_mesh(2)
    edges = classify_edges(mesh)
    inner = np.setdiff1d(np.arange(len(edges.two_sided)), periodic_pairs(edges))
    nrm = edges.two_sided.normal[inner]
    first, second = edges.two_sided.elem[inner].T
    assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0, rtol=1e-14)
    mid = 0.5 * (edges.two_sided.p0 + edges.two_sided.p1)[inner]
    toward_second = mesh.centroids[second] - mesh.centroids[first]
    assert (np.einsum("ei,ei->e", nrm, toward_second) > 0).all()
    # the first side has the smaller index
    assert (first < second).all()
    # normal points outward of the first side across the edge midpoint
    assert (np.einsum("ei,ei->e", nrm, mid - mesh.centroids[first]) > 0).all()


def test_periodic_pair_geometry():
    mesh = build_structured_mesh(2)
    edges = classify_edges(mesh)
    pairs = periodic_pairs(edges)
    faces = edges.two_sided
    assert np.allclose(faces.normal[pairs], [1.0, 0.0])
    assert np.allclose(faces.p0[pairs, 0], 1.0)  # first side's realization on the right
    assert np.allclose(faces.shift[pairs], [-1.0, 0.0])
    # paired edges share the y-interval
    shifted = faces.p0[pairs] + faces.shift[pairs]
    assert np.allclose(shifted[:, 0], 0.0)
    assert (faces.length[pairs] > 0).all()


def test_ridge_tangent_signs_opposite():
    # a ridge's normal is the outward tangent +x of its plus edge, so the
    # minus edge's outward tangent -x is its opposite; corners point outward
    for bc in (PERIODIC, DIRICHLET_LATERAL):
        edges = classify_edges(build_structured_mesh(3), bc)
        r = edges.ridges
        assert np.array_equal(r.normal, np.tile([1.0, 0.0], (len(r), 1)))
        assert np.array_equal(r.p0, r.p1) and np.all(r.length == 1.0)
        # each boundary component forms a closed cycle in periodic mode
        if bc == PERIODIC:
            assert len(r) == len(edges.gamma1)
        else:
            c = edges.corners
            assert np.array_equal(c.normal[:, 0], np.sign(c.p0[:, 0] - 0.5)) and np.all(c.normal[:, 1] == 0.0)
            assert np.array_equal(c.p0, c.p1) and np.all(c.length == 1.0)


# Level 1 by hand: gamma1 edges [0, 1/2] and [1/2, 1] on y = 0 belong to the
# lower triangles 0 and 2, those on y = 1 to the upper triangles 5 and 7.
# Rows: first side's element, point and sign, second side's element, point
# and sign; a second element -1 marks a one-sided corner.  A two-sided row
# is a ridge with normal sign_first * (1, 0); a one-sided row is a corner.
LEVEL1_RIDGES = {
    PERIODIC: [
        (2, (1.0, 0.0), 1.0, 0, (0.0, 0.0), -1.0),  # fused corner: last edge + first
        (0, (0.5, 0.0), 1.0, 2, (0.5, 0.0), -1.0),
        (7, (1.0, 1.0), 1.0, 5, (0.0, 1.0), -1.0),
        (5, (0.5, 1.0), 1.0, 7, (0.5, 1.0), -1.0),
    ],
    DIRICHLET_LATERAL: [
        (0, (0.0, 0.0), -1.0, -1, (0.0, 0.0), 0.0),  # one-sided corner
        (0, (0.5, 0.0), 1.0, 2, (0.5, 0.0), -1.0),
        (2, (1.0, 0.0), 1.0, -1, (1.0, 0.0), 0.0),
        (5, (0.0, 1.0), -1.0, -1, (0.0, 1.0), 0.0),
        (5, (0.5, 1.0), 1.0, 7, (0.5, 1.0), -1.0),
        (7, (1.0, 1.0), 1.0, -1, (1.0, 1.0), 0.0),
    ],
}


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
def test_ridges_level1_by_hand(bc):
    edges = classify_edges(build_structured_mesh(1), bc)
    rows = LEVEL1_RIDGES[bc]
    two = [row for row in rows if row[3] >= 0]
    one = [row for row in rows if row[3] < 0]

    def column(rows, k):
        return np.array([row[k] for row in rows])

    r = edges.ridges
    assert r.elem.shape == (len(two), 2) and r.elem.dtype.kind == "i"
    assert np.array_equal(r.elem[:, 0], column(two, 0))
    assert np.array_equal(r.p0, column(two, 1)) and np.array_equal(r.p1, r.p0)
    assert np.array_equal(r.normal, column(two, 2)[:, None] * [1.0, 0.0])
    assert np.array_equal(r.elem[:, 1], column(two, 3))
    assert np.array_equal(r.p0 + r.shift, column(two, 4))
    assert np.array_equal(column(two, 5), -column(two, 2))
    assert np.all(r.length == 1.0)
    if not one:
        assert edges.corners is None
        return
    c = edges.corners
    assert np.array_equal(c.elem, column(one, 0)[:, None]) and c.elem.dtype.kind == "i"
    assert c.shift is None
    assert np.array_equal(c.p0, column(one, 1)) and np.array_equal(c.p1, c.p0)
    assert np.array_equal(c.normal, column(one, 2)[:, None] * [1.0, 0.0])
    assert np.array_equal(column(one, 4), column(one, 1)) and np.all(column(one, 5) == 0.0)
    assert np.all(c.length == 1.0)


# The exact normals of the unit square's edge sets, computed by the one
# orientation rule: gamma1 bottom then top, the walls left then right, and
# the periodic pairs, the rows of ``two_sided`` with a nonzero shift.
SIDE_NORMALS = {
    "gamma1": ([0.0, -1.0], [0.0, 1.0]),
    "dirichlet": ([-1.0, 0.0], [1.0, 0.0]),
    "two_sided": ([1.0, 0.0],),
}


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET_LATERAL])
@pytest.mark.parametrize("name", ["two_sided", "gamma1", "dirichlet", "ridges", "corners"])
def test_every_face_set_has_sides(name, bc, level):
    mesh = build_structured_mesh(level)
    edges = classify_edges(mesh, bc)
    faces = getattr(edges, name)
    if faces is None:
        assert bc == PERIODIC and name in ("dirichlet", "corners")
        return
    n, sides = faces.elem.shape
    assert faces.elem.dtype.kind == "i" and sides in (1, 2)
    assert faces.p0.shape == faces.p1.shape == faces.normal.shape == (n, 2) and faces.length.shape == (n,)
    corners = mesh.vertices[mesh.triangles[faces.elem]]  # (n, sides, 3, 2)

    def on_element(points, side):
        return np.all(np.isclose(corners[:, side], points[:, None, :], rtol=0.0, atol=1e-14).all(-1).any(-1))

    # unit normals out of the first side, whose element has the face's points
    assert np.allclose(np.linalg.norm(faces.normal, axis=1), 1.0, rtol=0.0, atol=1e-15)
    away = 0.5 * (faces.p0 + faces.p1) - mesh.centroids[faces.elem[:, 0]]
    assert (np.einsum("ei,ei->e", faces.normal, away) > 0).all()
    assert on_element(faces.p0, 0) and on_element(faces.p1, 0)
    # the shift moves the first side's points onto the second element's edge
    assert (faces.shift is None) == (sides == 1)
    if sides == 2:
        assert faces.shift.shape == (n, 2)
        assert on_element(faces.p0 + faces.shift, 1) and on_element(faces.p1 + faces.shift, 1)
    if name in ("ridges", "corners"):
        assert np.array_equal(faces.p0, faces.p1) and np.all(faces.length == 1.0)
    else:
        assert np.all(faces.length > 0) and np.allclose(faces.length, np.linalg.norm(faces.p1 - faces.p0, axis=1))
    if name in SIDE_NORMALS:
        rows = periodic_pairs(edges) if name == "two_sided" else np.arange(n)
        normals = SIDE_NORMALS[name]
        assert len(rows) % len(normals) == 0 and (len(rows) > 0) == (bc == PERIODIC or name != "two_sided")
        assert np.array_equal(faces.normal[rows], np.repeat(normals, len(rows) // len(normals), axis=0))


def test_malformed_mesh_rejected():
    base = build_structured_mesh(0)
    tris = np.vstack([base.triangles, base.triangles[:1]])
    bad = Mesh(level=0, vertices=base.vertices, triangles=tris, h=base.h)
    with pytest.raises(MeshError):
        classify_edges(bad)


def test_inverse_jacobians_are_lapacks():
    # the closed-form inverse is bitwise LAPACK's on the structured meshes
    # (signed zeros included) and within rounding on distorted ones
    for level in range(9):
        mesh = build_structured_mesh(level)
        assert mesh.inv_jacobians.tobytes() == np.linalg.inv(mesh.jacobians).tobytes()
    for level in (2, 3):
        mesh = jittered(level, PERIODIC, 1)[0]
        expected = np.linalg.inv(mesh.jacobians)
        assert np.abs(mesh.inv_jacobians - expected).max() <= 1e-13 * np.abs(expected).max()
