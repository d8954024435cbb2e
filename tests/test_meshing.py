"""Unit tests for the screened-strip mesh generator."""

import io
import math

import numpy as np
import pytest

from screenguide import WaveguideGeometry2D, build_mesh, dump_mesh, validate_mesh
from screenguide.meshing import (
    TAG_GAMMA_MINUS,
    TAG_GAMMA_PLUS,
    TAG_SCREEN,
    TAG_WALL,
)

EPS = 0.02


def geometry_centered(L=0.6, Z=1.6, eps=EPS):
    hole = ((0.5 - eps / 2.0, 0.5 + eps / 2.0),)
    return WaveguideGeometry2D(L, Z, hole, hole)


def euler_characteristic(mesh):
    edges = set()
    for a, b, c in mesh.triangles:
        for p, q in ((a, b), (b, c), (c, a)):
            edges.add((p, q) if p < q else (q, p))
    return mesh.n_vertices - len(edges) + len(mesh.triangles)


def test_empty_strip_coarse_grid():
    geom = WaveguideGeometry2D(0.5, 1.0, None, None)
    mesh = build_mesh(geom, h=0.5)
    assert len(mesh.triangles) == 16
    assert len(mesh.seam_table) == 0
    assert mesh.seam_segments == 0
    report = validate_mesh(mesh)
    assert report["orientation_ok"] and report["conformity_ok"]
    assert report["boundary_closed"]
    assert report["min_angle"] == pytest.approx(45.0, abs=1e-9)


def test_closed_screens_duplicate_whole_line():
    geom = WaveguideGeometry2D(0.5, 1.0, (), ())
    mesh = build_mesh(geom, h=0.25)
    assert mesh.seam_segments == 2
    # every node strictly inside the line is duplicated; wall endpoints too
    for z in (-0.5, 0.5):
        line_nodes = np.nonzero(mesh.node_xy[:mesh.n_vertices, 0] == z)[0]
        paired = set(mesh.seam_table.flatten())
        assert all(n in paired for n in line_nodes)
    # two closed chords split the strip into three sheets
    assert euler_characteristic(mesh) == 3


def test_centered_holes_leave_aperture_connected():
    mesh = build_mesh(geometry_centered(), h=0.04)
    seam_y = mesh.node_xy[mesh.seam_table[:, 0], 1]
    assert np.all(np.abs(seam_y - 0.5) >= EPS / 2.0 - 1e-12)
    assert mesh.seam_segments == 4
    assert euler_characteristic(mesh) == 1


def test_interior_slit_changes_topology():
    geom = WaveguideGeometry2D(
        0.5, 1.0, ((0.02, 0.1), (0.9, 0.98)), None)
    mesh = build_mesh(geom, h=0.1)
    # segments [0, .02], [.1, .9], [.98, 1]: one of them is interior
    assert mesh.seam_segments == 3
    assert euler_characteristic(mesh) == 0
    report = validate_mesh(mesh)
    assert report["orientation_ok"] and report["conformity_ok"]


def test_validate_passes_on_fine_centered_mesh():
    mesh = build_mesh(geometry_centered(), h=0.04)
    report = validate_mesh(mesh)
    assert report["orientation_ok"]
    assert report["conformity_ok"]
    assert report["boundary_closed"]
    assert report["min_angle"] >= 15.0
    assert report["seam_count"] == 4


def test_min_angle_survives_paper_scale_aperture():
    mesh = build_mesh(geometry_centered(eps=1e-4), h=0.04)
    report = validate_mesh(mesh)
    assert report["orientation_ok"] and report["conformity_ok"]
    assert report["min_angle"] >= 15.0
    # the aperture endpoints are exact mesh vertices
    ys = mesh.node_xy[:mesh.n_vertices]
    for z in (-0.6, 0.6):
        for y in (0.5 - 5e-5, 0.5 + 5e-5):
            assert np.any((ys[:, 0] == z) & (ys[:, 1] == y))


def test_refinement_grows_by_factor_four():
    coarse = build_mesh(geometry_centered(), h=0.04)
    fine = build_mesh(geometry_centered(), h=0.02)
    ratio = len(fine.triangles) / len(coarse.triangles)
    assert 3.5 <= ratio <= 4.5


def test_mesh_is_mirror_symmetric():
    mesh = build_mesh(geometry_centered(), h=0.04)
    verts = mesh.node_xy[:mesh.n_vertices]
    # symmetric up to the last-ulp rounding of mirrored coordinates
    rounded = {(round(z, 9), round(y, 9)) for z, y in verts}
    for z, y in rounded:
        assert (round(-z, 9), y) in rounded
        assert (z, round(1.0 - y, 9)) in rounded


def test_build_is_deterministic():
    a = build_mesh(geometry_centered(), h=0.04)
    b = build_mesh(geometry_centered(), h=0.04)
    assert np.array_equal(a.node_xy, b.node_xy)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.seam_table, b.seam_table)


def test_boundary_tags_cover_all_sides():
    mesh = build_mesh(geometry_centered(), h=0.04)
    tags = set(mesh.boundary_tags)
    assert tags == {TAG_GAMMA_MINUS, TAG_GAMMA_PLUS, TAG_WALL, TAG_SCREEN}
    for (a, b, m), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        za, zb = mesh.node_xy[a, 0], mesh.node_xy[b, 0]
        if tag == TAG_GAMMA_MINUS:
            assert za == zb == -1.6
        elif tag == TAG_GAMMA_PLUS:
            assert za == zb == 1.6
        elif tag == TAG_SCREEN:
            assert za == zb and abs(za) == 0.6


def test_geometry_rejects_bad_holes():
    with pytest.raises(ValueError):
        WaveguideGeometry2D(0.6, 1.6, ((0.4, 0.6), (0.5, 0.7)), None)
    with pytest.raises(ValueError):
        WaveguideGeometry2D(0.6, 1.6, ((0.0, 0.1),), None)
    with pytest.raises(ValueError):
        WaveguideGeometry2D(0.6, 1.6, ((0.9, 1.0),), None)
    with pytest.raises(ValueError):
        WaveguideGeometry2D(0.6, 1.6, ((0.5, 0.5),), None)
    with pytest.raises(ValueError):
        WaveguideGeometry2D(1.6, 0.6, None, None)


def test_huge_h_snaps_to_screen_lines():
    mesh = build_mesh(geometry_centered(), h=0.9)
    zs = set(mesh.node_xy[:mesh.n_vertices, 0])
    assert -0.6 in zs and 0.6 in zs
    report = validate_mesh(mesh)
    assert report["orientation_ok"] and report["conformity_ok"]


def test_validate_flags_inverted_triangle():
    mesh = build_mesh(WaveguideGeometry2D(0.5, 1.0, None, None), h=0.5)
    tris = mesh.triangles.copy()
    tris[0, [0, 1]] = tris[0, [1, 0]]
    from dataclasses import replace
    bad = replace(mesh, triangles=tris)
    assert not validate_mesh(bad)["orientation_ok"]


def test_validate_flags_bowtie_boundary():
    from dataclasses import replace
    mesh = build_mesh(WaveguideGeometry2D(0.5, 1.0, None, None), h=0.5)
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                   [-1.0, 0.0], [-1.0, -1.0]])
    tris = np.array([[0, 1, 2], [0, 3, 4]])
    bad = replace(mesh, node_xy=xy, n_vertices=5, triangles=tris,
                  tri_midnodes=np.zeros_like(tris),
                  seam_table=np.zeros((0, 2), dtype=np.int64),
                  seam_segments=0)
    report = validate_mesh(bad)
    assert not report["boundary_closed"]


def test_validate_flags_overused_edge():
    from dataclasses import replace
    mesh = build_mesh(WaveguideGeometry2D(0.5, 1.0, None, None), h=0.5)
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                   [1.0, 1.0], [-1.0, 0.5]])
    tris = np.array([[0, 1, 2], [1, 3, 2], [0, 2, 4]])
    tris3 = np.vstack([tris, [[0, 1, 2]]])  # duplicate face reuses edges
    bad = replace(mesh, node_xy=xy, n_vertices=5, triangles=tris3,
                  tri_midnodes=np.zeros_like(tris3),
                  seam_table=np.zeros((0, 2), dtype=np.int64),
                  seam_segments=0)
    assert not validate_mesh(bad)["conformity_ok"]


def test_validate_flags_undeclared_coincident_nodes():
    from dataclasses import replace
    mesh = build_mesh(WaveguideGeometry2D(0.5, 1.0, (), ()), h=0.25)
    assert validate_mesh(mesh)["conformity_ok"]
    bad = replace(mesh, seam_table=np.zeros((0, 2), dtype=np.int64))
    assert not validate_mesh(bad)["conformity_ok"]


def test_dump_round_trip_tokens():
    mesh = build_mesh(geometry_centered(), h=0.2)
    buf = io.StringIO()
    dump_mesh(mesh, buf)
    lines = buf.getvalue().splitlines()
    counts = {"v": 0, "t": 0, "s": 0, "b": 0}
    for line in lines:
        counts[line[0]] += 1
    assert counts["v"] == len(mesh.node_xy)
    assert counts["t"] == len(mesh.triangles)
    assert counts["s"] == len(mesh.seam_table)
    assert counts["b"] == len(mesh.boundary_edges)
    # vertex records parse back to the exact coordinates
    first = lines[0].split()
    assert first[0] == "v"
    assert float(first[1]) == mesh.node_xy[0, 0]
    assert float(first[2]) == mesh.node_xy[0, 1]


def test_p2_midpoints_bisect_edges():
    mesh = build_mesh(geometry_centered(), h=0.1)
    for t in range(len(mesh.triangles)):
        a, b, c = mesh.triangles[t]
        for k, (p, q) in enumerate(((a, b), (b, c), (c, a))):
            m = mesh.tri_midnodes[t, k]
            np.testing.assert_allclose(
                mesh.node_xy[m],
                0.5 * (mesh.node_xy[p] + mesh.node_xy[q]), atol=1e-15)


def test_seam_pairs_are_coincident_but_distinct():
    mesh = build_mesh(geometry_centered(), h=0.04)
    assert len(mesh.seam_table) > 0
    for a, b in mesh.seam_table:
        assert a != b
        assert tuple(mesh.node_xy[a]) == tuple(mesh.node_xy[b])


def test_edges_match_triangle_midnodes():
    mesh = build_mesh(geometry_centered(), h=0.1)
    tris, mids = mesh.triangles, mesh.tri_midnodes
    assert len(mesh.edges) == mesh.n_nodes - mesh.n_vertices
    # local edges (v0v1, v1v2, v2v0) of every triangle
    local = np.stack([tris, np.roll(tris, -1, axis=1)], axis=-1)
    rows = mesh.edges[mids - mesh.n_vertices]
    assert np.array_equal(rows[..., :2], np.sort(local, axis=-1))
    assert np.array_equal(rows[..., 2], mids)
    # midpoints are numbered in order of first use
    _, first = np.unique(mids.ravel(), return_index=True)
    assert np.all(np.diff(first) > 0)
