"""Mesh generation, interface fitting, classification and location."""

import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from augeig.errors import GeometryError
from augeig.harness import example1, example2
from augeig.mesh import (
    Circle,
    Locator,
    Mesh,
    Rect,
    _half_edges,
    _unique_edges,
    classify_regions,
    fit_interfaces,
    generate_structured_mesh,
    locate_many,
    locate_point,
)

from conftest import fit_interfaces_oracle, fitted_mesh, full_scan_locate


# -- structured generation -------------------------------------------------

def test_mesh_is_frozen():
    mesh = generate_structured_mesh(Rect(0, 0, 2, 2), 1.0)
    with pytest.raises(FrozenInstanceError):
        mesh.h_max = 0.5
    with pytest.raises(FrozenInstanceError):
        mesh.region_tag = np.ones(mesh.n_triangles, dtype=np.int64)


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

def _on_circles(circles, points):
    """Mask of the points within 1e-12 of some circle."""
    d = np.stack([np.abs(c.signed_distance(points)) for c in circles])
    return d.min(axis=0) < 1e-12


def test_fit_snaps_onto_circles(ex1):
    mesh = generate_structured_mesh(ex1.domain, 2 / 17)
    fitted = fit_interfaces(mesh, ex1.circles)
    moved = (fitted.nodes != mesh.nodes).any(axis=1)
    assert moved.any()
    assert _on_circles(ex1.circles, fitted.nodes[moved]).all()
    assert (_on_circles(ex1.circles, fitted.nodes).sum()
            > _on_circles(ex1.circles, mesh.nodes).sum())


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


_SQUARE = Rect(0.0, 0.0, 2.0, 2.0)
_THREE = [Circle((1.4365, 1.2618), 0.4363), Circle((1.8138, 1.7726), 0.1621),
          Circle((0.2654, 0.601), 0.2469)]
_FIT_CASES = {
    f"{ex.name}-2/{k}": (ex.domain, ex.circles, 2 / k, 2)
    for ex in (example1(), example2()) for k in (17, 38, 76)
} | {
    "one-circle-2/9": (_SQUARE, [Circle((1.0, 1.0), 0.5)], 2 / 9, 1),
    "one-circle-2/15": (_SQUARE, [Circle((1.0, 1.0), 0.5)], 2 / 15, 2),
    "three-circles-2/34": (_SQUARE, _THREE, 2 / 34, 3),
}


@pytest.mark.parametrize("domain, circles, h, passes", _FIT_CASES.values(), ids=_FIT_CASES)
def test_fit_matches_oracle(domain, circles, h, passes):
    """The fitted nodes and h_max equal the loop-per-triangle oracle's bit
    for bit, on fits that take one, two and three passes."""
    mesh = generate_structured_mesh(domain, h)
    want, taken = fit_interfaces_oracle(mesh, circles)
    assert taken == passes
    got = fit_interfaces(mesh, circles)
    assert np.array_equal(got.nodes, want.nodes)
    assert got.h_max == want.h_max


def test_unique_edges_matches_row_unique(ex1):
    mesh = generate_structured_mesh(ex1.domain, 2 / 35)
    edges = np.sort(np.concatenate([mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]],
                                    mesh.triangles[:, [2, 0]]]), axis=1)
    assert np.array_equal(_half_edges(mesh.triangles), edges)
    # Every edge, and the subset fit_interfaces passes: the half-edges that
    # cross a circle, each interior one listed twice.
    d = ex1.circles[0].signed_distance(mesh.nodes)
    crossing = edges[d[edges[:, 0]] * d[edges[:, 1]] < 0]
    assert len(np.unique(crossing, axis=0)) < len(crossing)
    for subset in (edges, crossing):
        want = np.unique(subset, axis=0)
        got = _unique_edges(subset, mesh.n_nodes)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_nonnested_levels(ex1):
    coarse = fitted_mesh(ex1, 2 / 17)
    fine = fitted_mesh(ex1, 2 / 34)
    # Nodes that fitting moved onto a circle; grid nodes that already lie
    # on one (such as the tangency point) do not count.
    moved = (fine.nodes != generate_structured_mesh(ex1.domain, 2 / 34).nodes).any(axis=1)
    snapped = fine.nodes[moved & _on_circles(ex1.circles, fine.nodes)]
    d = np.hypot(
        snapped[:, None, 0] - coarse.nodes[None, :, 0],
        snapped[:, None, 1] - coarse.nodes[None, :, 1],
    ).min(axis=1)
    # Some fine interface nodes are not coarse nodes: the meshes are nonnested.
    assert (d > 1e-8).any()


# -- region classification -------------------------------------------------

def test_classify_tags(ex1):
    mesh = fitted_mesh(ex1, 2 / 17)
    locator = Locator(mesh)
    for p, tag in (((2 / 3, 1.0), 1), ((0.1, 0.1), 0), ((4 / 3, 1.0), 2)):
        tri, _ = locate_point(locator, p)
        assert mesh.region_tag[tri] == tag


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
    locator = Locator(mesh)
    t, lam = locate_point(locator, mesh.nodes[tri[0]])
    # The vertex lies in the triangle found: its coordinates pass the
    # inside test, and one of them is the vertex's.
    assert tri[0] in mesh.triangles[t]
    assert lam.min() >= -1e-12 and np.isclose(lam.max(), 1.0, rtol=0, atol=1e-14)
    assert abs(lam.sum() - 1.0) < 1e-14
    cen = mesh.nodes[tri].mean(axis=0)
    t, lam = locate_point(locator, cen)
    assert np.allclose(lam, 1 / 3, atol=1e-12)
    assert t == 5


def test_locate_outside_raises():
    # A point that no triangle holds is an error that names the point,
    # whether it lies beyond the grid or in a cell next to the mesh.
    locator = Locator(generate_structured_mesh(Rect(0, 0, 2, 2), 0.5))
    for p in ((-1.0, -1.0), (2.0 + 1e-9, 1.0)):
        named = re.escape(f"point ({p[0]:.17g}, {p[1]:.17g})")
        with pytest.raises(GeometryError, match=named):
            locate_point(locator, p)
        with pytest.raises(GeometryError, match=named):  # the first outside point
            locate_many(locator, [(1.0, 1.0), p, (-5.0, 0.0)])
    t, _ = locate_point(locator, (2.0, 1.0))  # on the boundary: inside
    assert t >= 0


def test_locate_reconstruction_small():
    mesh = generate_structured_mesh(Rect(0, 0, 2, 2), 0.25)
    _check_reconstruction(mesh)


def test_locate_reconstruction_grid_path(ex1):
    # A fitted mesh of 3200 triangles, located through a 41 x 41 cell grid.
    mesh = fitted_mesh(ex1, 2 / 40)
    _check_reconstruction(mesh)


def _check_reconstruction(mesh):
    rng = np.random.default_rng(7)
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    pts = lo + rng.random((1000, 2)) * (hi - lo)
    locator = Locator(mesh)
    for p in pts:
        tri, lam = locate_point(locator, p)
        rec = lam @ mesh.nodes[mesh.triangles[tri]]
        assert np.linalg.norm(rec - p) < 1e-12


def test_locate_empty_mesh():
    empty = Mesh(
        nodes=np.zeros((0, 2)), triangles=np.zeros((0, 3), dtype=np.int64),
        region_tag=np.zeros(0, dtype=np.int64),
        boundary_node=np.zeros(0, dtype=bool), h_max=0.0,
    )
    with pytest.raises(GeometryError, match="empty mesh"):
        Locator(empty)


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


_LOCATION_MESHES = [
    (2 / 17, 2 / 19, True),    # 578 triangles
    (2 / 40, 2 / 45, True),    # 3200 triangles
    (2 / 25, 2 / 30, False),   # 1250 triangles, unfitted structured grid
]


def _location_pair(ex1, h, finer_h, fitted):
    def make(size):
        if fitted:
            return fitted_mesh(ex1, size)
        return generate_structured_mesh(ex1.domain, size)

    return make(h), make(finer_h)


@pytest.mark.parametrize("h, finer_h, fitted", _LOCATION_MESHES)
def test_locate_matches_full_scan_oracle(ex1, h, finer_h, fitted):
    mesh, finer = _location_pair(ex1, h, finer_h, fitted)
    pts = _location_probes(mesh, finer, np.random.default_rng(11))
    want_tri, want_bary, want_inside = full_scan_locate(mesh, pts)
    assert (~want_inside).sum() >= 100  # the outside points raise
    locator = Locator(mesh)
    tri, bary = locate_many(locator, pts[want_inside])
    assert np.array_equal(tri, want_tri[want_inside])
    assert np.array_equal(bary, want_bary[want_inside])
    for p in pts[~want_inside]:
        with pytest.raises(GeometryError, match="lies in no triangle"):
            locate_many(locator, p[None])


@pytest.mark.parametrize("h, finer_h, fitted", _LOCATION_MESHES)
def test_locate_many_matches_locate_point(ex1, h, finer_h, fitted):
    mesh, finer = _location_pair(ex1, h, finer_h, fitted)
    pts = _location_probes(mesh, finer, np.random.default_rng(11))
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    outside = ((pts < lo) | (pts > hi)).any(axis=1)
    assert outside.sum() >= 100
    locator = Locator(mesh)
    tri, bary = locate_many(locator, pts[~outside])
    for p, t, lam in zip(pts[~outside], tri, bary):
        got_t, got_lam = locate_point(locator, p)
        assert got_t == t
        assert np.array_equal(got_lam, lam)
    for p in pts[outside]:
        with pytest.raises(GeometryError, match="lies in no triangle"):
            locate_point(locator, p)
    with pytest.raises(GeometryError, match="lies in no triangle"):
        locate_many(locator, pts)

