import numpy as np
import pytest

from dgdyn.mesh import (
    DIRICHLET_LATERAL,
    PERIODIC,
    Mesh,
    MeshError,
    Rectangle,
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


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rectangle(0.0, 1.0, 2.0, 2.0)


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
    for level, dom in [(2, Rectangle()), (3, Rectangle(-1.0, 2.0, 0.5, 1.5))]:
        mesh = build_structured_mesh(level, dom)
        assert (mesh.areas > 0).all()
        assert np.isclose(mesh.areas.sum(), dom.area, rtol=1e-12)


def test_refinement_halves_h():
    h_prev = build_structured_mesh(1).h
    for level in range(2, 6):
        h = build_structured_mesh(level).h
        assert h == h_prev / 2
        h_prev = h


def test_classify_level2_periodic_counts():
    mesh = build_structured_mesh(2)
    oracle = enumerate_edges(mesh)
    edges = classify_edges(mesh, PERIODIC)
    assert len(edges.interior) == oracle["interior"] == 40
    assert len(edges.gamma1) == oracle["gamma1"] == 8
    assert len(edges.gamma2_pairs) == oracle["left"] == oracle["right"] == 4
    # one ridge per gamma1 vertex, corners fused: 4 per component
    assert len(edges.ridges) == 8
    assert edges.corners is None


def test_classify_level0_periodic_counts():
    mesh = build_structured_mesh(0)
    edges = classify_edges(mesh, PERIODIC)
    assert len(edges.interior) == 1
    assert len(edges.gamma1) == 2
    assert len(edges.gamma2_pairs) == 1
    assert len(edges.ridges) == 2


def test_classify_level2_dirichlet_counts():
    mesh = build_structured_mesh(2)
    edges = classify_edges(mesh, DIRICHLET_LATERAL)
    assert len(edges.interior) == 40
    assert len(edges.gamma1) == 8
    assert edges.gamma2_pairs is None
    assert len(edges.dirichlet) == 8
    # 5 gamma1 vertices per component, corners not fused: 3 two-sided ridges
    # and 2 one-sided corners per component
    assert len(edges.ridges) == 6
    assert len(edges.corners) == 4


def test_gamma1_total_length():
    for dom in [Rectangle(), Rectangle(-1.0, 3.0, 0.0, 2.0)]:
        mesh = build_structured_mesh(3, dom)
        edges = classify_edges(mesh)
        assert np.isclose(edges.gamma1.length.sum(), 2 * dom.width, rtol=1e-12)


def test_interior_normals_unit_and_oriented():
    mesh = build_structured_mesh(2)
    edges = classify_edges(mesh)
    nrm = edges.interior.normal
    assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0, rtol=1e-14)
    mid = 0.5 * (edges.interior.p0 + edges.interior.p1)
    toward_minus = mesh.centroids[edges.interior.elem_minus] - mesh.centroids[edges.interior.elem_plus]
    assert (np.einsum("ei,ei->e", nrm, toward_minus) > 0).all()
    # plus element has the smaller index
    assert (edges.interior.elem_plus < edges.interior.elem_minus).all()
    # normal points outward of the plus element across the edge midpoint
    assert (np.einsum("ei,ei->e", nrm, mid - mesh.centroids[edges.interior.elem_plus]) > 0).all()


def test_periodic_pair_geometry():
    mesh = build_structured_mesh(2)
    edges = classify_edges(mesh)
    pairs = edges.gamma2_pairs
    assert np.allclose(pairs.normal, [1.0, 0.0])
    assert np.allclose(pairs.p0[:, 0], 1.0)  # plus realization on the right
    assert np.allclose(pairs.minus_shift, [-1.0, 0.0])
    # paired edges share the y-interval
    shifted = pairs.p0 + pairs.minus_shift
    assert np.allclose(shifted[:, 0], 0.0)
    assert (pairs.length > 0).all()


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
# Rows: elem_plus, point_plus, sign_plus, elem_minus, point_minus, sign_minus;
# elem_minus -1 marks a one-sided corner.  A two-sided row is a ridge with
# normal sign_plus * (1, 0); a one-sided row is a corner.
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
    assert np.array_equal(r.elem_plus, column(two, 0)) and r.elem_plus.dtype.kind == "i"
    assert np.array_equal(r.p0, column(two, 1)) and np.array_equal(r.p1, r.p0)
    assert np.array_equal(r.normal, column(two, 2)[:, None] * [1.0, 0.0])
    assert np.array_equal(r.elem_minus, column(two, 3)) and r.elem_minus.dtype.kind == "i"
    assert np.array_equal(r.p0 + r.minus_shift, column(two, 4))
    assert np.array_equal(column(two, 5), -column(two, 2))
    assert np.all(r.length == 1.0)
    if not one:
        assert edges.corners is None
        return
    c = edges.corners
    assert np.array_equal(c.elem, column(one, 0)) and c.elem.dtype.kind == "i"
    assert np.array_equal(c.p0, column(one, 1)) and np.array_equal(c.p1, c.p0)
    assert np.array_equal(c.normal, column(one, 2)[:, None] * [1.0, 0.0])
    assert np.array_equal(column(one, 4), column(one, 1)) and np.all(column(one, 5) == 0.0)
    assert np.all(c.length == 1.0)


def test_malformed_mesh_rejected():
    base = build_structured_mesh(0)
    tris = np.vstack([base.triangles, base.triangles[:1]])
    bad = Mesh(domain=base.domain, level=0, vertices=base.vertices, triangles=tris, h=base.h)
    with pytest.raises(MeshError):
        classify_edges(bad)
