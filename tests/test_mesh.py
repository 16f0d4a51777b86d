"""Mesh generation, interface fitting, classification, location, file I/O."""

import numpy as np
import pytest

from augeig.errors import GeometryError, MeshFormatError
from augeig.mesh import (
    Circle,
    Mesh,
    Rect,
    classify_regions,
    fit_interfaces,
    generate_structured_mesh,
    locate_many,
    locate_point,
    meshes_equal,
    read_mesh,
    write_mesh,
)

from conftest import fitted_mesh


# -- structured generation -------------------------------------------------

def test_structured_counts_square():
    mesh = generate_structured_mesh(Rect(0, 0, 2, 2), 1.0)
    assert mesh.n_nodes == 9
    assert mesh.n_triangles == 8


def test_structured_counts_rectangle():
    mesh = generate_structured_mesh(Rect(0, 0, 1, 2), 0.5)
    assert mesh.n_nodes == 15
    assert mesh.n_triangles == 16


def test_structured_areas():
    mesh = generate_structured_mesh(Rect(0, 0, 2, 2), 1.0)
    areas = mesh.signed_areas()
    assert np.allclose(areas, 0.5, atol=1e-14)
    assert abs(areas.sum() - 4.0) < 1e-12


def test_structured_boundary_flags():
    mesh = generate_structured_mesh(Rect(0, 0, 2, 2), 0.5)
    on_edge = (
        np.isclose(mesh.nodes[:, 0], 0) | np.isclose(mesh.nodes[:, 0], 2)
        | np.isclose(mesh.nodes[:, 1], 0) | np.isclose(mesh.nodes[:, 1], 2)
    )
    assert np.array_equal(mesh.boundary_node, on_edge)


def test_structured_rejects_bad_h():
    with pytest.raises(GeometryError):
        generate_structured_mesh(Rect(0, 0, 2, 2), 0.0)
    with pytest.raises(GeometryError):
        generate_structured_mesh(Rect(0, 0, 1, 2), 1.5)


def test_degenerate_domain_rejected():
    with pytest.raises(GeometryError):
        Rect(0, 0, 0, 1)


def test_circle_validation():
    with pytest.raises(GeometryError):
        Circle((0, 0), 0.0)
    c = Circle((1, 1), 0.5)
    assert c.strictly_inside(Rect(0, 0, 2, 2))
    assert not c.strictly_inside(Rect(0, 0, 1, 2))


# -- interface fitting -----------------------------------------------------

def test_fit_snaps_onto_circles(ex1):
    mesh = generate_structured_mesh(ex1.domain, 2 / 17)
    fitted = fit_interfaces(mesh, ex1.circles)
    idx = np.flatnonzero(fitted.interface_node)
    assert len(idx) > 0
    d = np.stack([np.abs(c.signed_distance(fitted.nodes[idx])) for c in ex1.circles])
    assert d.min(axis=0).max() < 1e-12


def test_fit_no_inversions(ex1):
    for h in (2 / 9, 2 / 17, 2 / 35):
        fitted = fit_interfaces(generate_structured_mesh(ex1.domain, h), ex1.circles)
        assert fitted.signed_areas().min() > 0


def test_fit_keeps_boundary_nodes(ex1):
    mesh = generate_structured_mesh(ex1.domain, 2 / 17)
    fitted = fit_interfaces(mesh, ex1.circles)
    assert np.array_equal(mesh.nodes[mesh.boundary_node],
                          fitted.nodes[fitted.boundary_node])


def test_fit_does_not_mutate_input(ex1):
    mesh = generate_structured_mesh(ex1.domain, 2 / 17)
    before = mesh.nodes.copy()
    fit_interfaces(mesh, ex1.circles)
    assert np.array_equal(mesh.nodes, before)


def test_fit_rejects_coarse_mesh(ex1):
    mesh = generate_structured_mesh(ex1.domain, 0.5)  # h_max > radius 1/3
    with pytest.raises(GeometryError):
        fit_interfaces(mesh, ex1.circles)


def test_overlapping_circles_rejected():
    mesh = generate_structured_mesh(Rect(0, 0, 2, 2), 0.1)
    bad = [Circle((0.8, 1.0), 0.5), Circle((1.2, 1.0), 0.5)]
    with pytest.raises(GeometryError):
        fit_interfaces(mesh, bad)


def test_tangent_circles_allowed(ex1):
    # The two inclusions touch at (1, 1); tangency must pass validation.
    mesh = generate_structured_mesh(ex1.domain, 2 / 17)
    fit_interfaces(mesh, ex1.circles)


def test_fit_never_flattens_a_triangle(ex1):
    # No triangle may have all three vertices on one circle.
    for h in (2 / 35, 2 / 70):
        fitted = fit_interfaces(generate_structured_mesh(ex1.domain, h), ex1.circles)
        for c in ex1.circles:
            on = np.abs(c.signed_distance(fitted.nodes)) < 1e-12
            assert not on[fitted.triangles].all(axis=1).any()


def test_nonnested_levels(ex1):
    coarse = fitted_mesh(ex1, 2 / 17)
    fine = fitted_mesh(ex1, 2 / 34)
    snapped = fine.nodes[fine.interface_node]
    d = np.hypot(
        snapped[:, None, 0] - coarse.nodes[None, :, 0],
        snapped[:, None, 1] - coarse.nodes[None, :, 1],
    ).min(axis=1)
    # Some fine interface nodes are not coarse nodes: the meshes are nonnested.
    assert (d > 1e-8).any()


# -- region classification -------------------------------------------------

def test_classify_tags(ex1):
    mesh = fitted_mesh(ex1, 2 / 17)
    res = locate_point(mesh, (2 / 3, 1.0))
    assert mesh.region_tag[res.triangle_index] == 1
    res = locate_point(mesh, (0.1, 0.1))
    assert mesh.region_tag[res.triangle_index] == 0
    res = locate_point(mesh, (4 / 3, 1.0))
    assert mesh.region_tag[res.triangle_index] == 2


def test_tagged_area(ex1):
    mesh = fitted_mesh(ex1, 2 / 35)
    areas = mesh.signed_areas()
    a1 = areas[mesh.region_tag == 1].sum()
    assert abs(a1 - np.pi / 9) < 2 * mesh.h_max


def test_tagged_area_superlinear_decay(ex1):
    # Combined inclusion area (individual tags can swap in the tangency
    # cusp); an 8x refinement must beat the first-order factor 8 clearly.
    errs = []
    for h in (2 / 35, 2 / 280):
        mesh = fitted_mesh(ex1, h)
        a = mesh.signed_areas()[mesh.region_tag > 0].sum()
        errs.append(abs(a - 2 * np.pi / 9))
    assert errs[1] < errs[0] / 20


# -- point location --------------------------------------------------------

def test_locate_vertex_and_centroid():
    mesh = generate_structured_mesh(Rect(0, 0, 2, 2), 0.5)
    tri = mesh.triangles[5]
    res = locate_point(mesh, mesh.nodes[tri[0]])
    assert res.status == "inside"
    assert abs(res.barycentric.sum() - 1.0) < 1e-14
    cen = mesh.nodes[tri].mean(axis=0)
    res = locate_point(mesh, cen)
    assert res.status == "inside"
    assert np.allclose(res.barycentric, 1 / 3, atol=1e-12)
    assert res.triangle_index == 5


def test_locate_outside_clamps():
    mesh = generate_structured_mesh(Rect(0, 0, 2, 2), 0.5)
    res = locate_point(mesh, (-1.0, -1.0))
    assert res.status == "snapped-to-nearest"
    lam = res.barycentric
    assert lam.min() >= 0 and abs(lam.sum() - 1.0) < 1e-12


def test_locate_reconstruction_small():
    mesh = generate_structured_mesh(Rect(0, 0, 2, 2), 0.25)
    _check_reconstruction(mesh)


def test_locate_reconstruction_grid_path(ex1):
    # >= 1000 triangles exercises the background-grid bucketing.
    mesh = fitted_mesh(ex1, 2 / 40)
    assert mesh.n_triangles >= 1000
    _check_reconstruction(mesh)


def _check_reconstruction(mesh):
    rng = np.random.default_rng(7)
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    pts = lo + rng.random((1000, 2)) * (hi - lo)
    for p in pts:
        res = locate_point(mesh, p)
        verts = mesh.nodes[mesh.triangles[res.triangle_index]]
        rec = res.barycentric @ verts
        assert np.linalg.norm(rec - p) < 1e-12


def test_locate_empty_mesh():
    empty = Mesh(
        nodes=np.zeros((0, 2)), triangles=np.zeros((0, 3), dtype=np.int64),
        region_tag=np.zeros(0, dtype=np.int64),
        boundary_node=np.zeros(0, dtype=bool),
        interface_node=np.zeros(0, dtype=bool), h_max=0.0,
    )
    with pytest.raises(GeometryError):
        locate_point(empty, (0.0, 0.0))
    with pytest.raises(GeometryError):
        locate_many(empty, np.zeros((3, 2)))


def _location_probes(mesh, finer, rng):
    """Points that stress location: vertices and fine nodes (many ties on
    shared edges and corners), fine edge midpoints nudged toward their
    triangle's centroid, random points and points outside the domain."""
    a, b, c = finer.triangle_corners()
    mids = np.concatenate([(a + b) / 2, (b + c) / 2, (c + a) / 2])
    anchors = np.tile(finer.centroids(), (3, 1))
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    outside = lo - 0.5 + rng.random((200, 2)) * (hi - lo + 1.0)
    outside = outside[(outside < lo).any(axis=1) | (outside > hi).any(axis=1)]
    return np.concatenate([
        mesh.nodes, finer.nodes, mids + 1e-6 * (anchors - mids),
        lo + rng.random((500, 2)) * (hi - lo), outside,
    ])


@pytest.mark.parametrize("h, finer_h, fitted", [
    (2 / 17, 2 / 19, True),    # 578 triangles: locate_point scans
    (2 / 40, 2 / 45, True),    # 3200 triangles: locate_point uses the grid
    (2 / 25, 2 / 30, False),   # 1250 triangles, unfitted structured grid
])
def test_locate_many_matches_locate_point(ex1, h, finer_h, fitted):
    def make(size):
        if fitted:
            return fitted_mesh(ex1, size)
        return generate_structured_mesh(ex1.domain, size)

    mesh, finer = make(h), make(finer_h)
    pts = _location_probes(mesh, finer, np.random.default_rng(11))
    tri, bary, inside = locate_many(mesh, pts)
    assert (~inside).sum() >= 100  # the outside points were clamped
    for p, t, lam, ins in zip(pts, tri, bary, inside):
        res = locate_point(mesh, p)
        assert res.triangle_index == t
        assert np.array_equal(res.barycentric, lam)
        assert (res.status == "inside") == ins


# -- file format -----------------------------------------------------------

def test_mesh_roundtrip(tmp_path, ex1):
    mesh = fitted_mesh(ex1, 2 / 17)
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert meshes_equal(mesh, back)


def test_read_bad_header(tmp_path):
    p = tmp_path / "bad.mesh"
    p.write_text("meshfmt 2\n")
    with pytest.raises(MeshFormatError) as e:
        read_mesh(p)
    assert e.value.line == 1


def test_read_empty_file(tmp_path):
    p = tmp_path / "empty.mesh"
    p.write_text("")
    with pytest.raises(MeshFormatError) as e:
        read_mesh(p)
    assert "end of file" in str(e.value)


def test_read_truncated_nodes(tmp_path):
    p = tmp_path / "trunc.mesh"
    p.write_text("meshfmt 1\nnodes 3\n0 0 1\n")
    with pytest.raises(MeshFormatError) as e:
        read_mesh(p)
    assert e.value.line == 4


def test_read_bad_node_line(tmp_path):
    p = tmp_path / "badnode.mesh"
    p.write_text("meshfmt 1\nnodes 1\n0 zero 1\n")
    with pytest.raises(MeshFormatError) as e:
        read_mesh(p)
    assert e.value.line == 3


def test_read_triangle_index_out_of_range(tmp_path):
    p = tmp_path / "badtri.mesh"
    p.write_text(
        "meshfmt 1\nnodes 3\n0 0 1\n1 0 1\n0 1 1\ntriangles 1\n0 1 5 0\n"
    )
    with pytest.raises(MeshFormatError) as e:
        read_mesh(p)
    assert e.value.line == 7
    assert "out of range" in str(e.value)
