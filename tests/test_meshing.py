"""Unit tests for the screened-strip mesh generator."""

import hashlib
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from screenguide import (ScreenSection, WaveguideGeometry2D, build_mesh, solve_scattering,
                         validate_mesh)
from screenguide.errors import NumericalError
from screenguide.meshing import (
    SECTION_HALF_WIDTH,
    TAG_GAMMA_MINUS,
    TAG_APERTURE,
    TAG_GAMMA_PLUS,
    TAG_GAP_PLUS,
    TAG_SCREEN,
    TAG_WALL,
    _edge_table,
    _finish,
    _half_section,
    _scan_pairs,
    _split_pairs,
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


def coincident_pairs(mesh):
    """Rows (left-face copy, right-face copy) of the coincident nodes.

    A copy's face is the side of the triangles that use it.
    """
    order = np.lexsort(mesh.node_xy.T[::-1])
    same = np.all(np.diff(mesh.node_xy[order], axis=0) == 0.0, axis=1)
    a, b = order[:-1][same], order[1:][same]
    nodes = np.hstack([mesh.triangles, mesh.tri_midnodes])
    centroid_z = mesh.node_xy[mesh.triangles, 0].mean(axis=1)
    on_left = np.zeros(mesh.n_nodes, dtype=bool)
    on_left[nodes[centroid_z[:, None] < mesh.node_xy[nodes, 0]]] = True
    return np.column_stack([np.where(on_left[b], b, a), np.where(on_left[b], a, b)])


def test_empty_strip_coarse_grid():
    # a section without a screen between its ports at -+0.55: four 0.275-wide
    # columns of two 0.5-high cells
    mesh = build_mesh(ScreenSection(0.55, None), h=0.5)
    assert len(mesh.triangles) == 16
    assert len(coincident_pairs(mesh)) == 0
    report = validate_mesh(mesh)
    assert report["orientation_ok"] and report["conformity_ok"]
    assert report["boundary_closed"]
    assert report["min_angle"] == pytest.approx(math.degrees(math.atan(0.275 / 0.5)),
                                                abs=1e-9)


def test_closed_screens_duplicate_whole_line():
    mesh = build_mesh(ScreenSection(0.3, ()), h=0.25)
    # every node strictly inside the line is duplicated; wall endpoints too
    line_nodes = np.nonzero(mesh.node_xy[:mesh.n_vertices, 0] == 0.0)[0]
    paired = set(coincident_pairs(mesh).flatten())
    assert len(line_nodes) > 0 and all(n in paired for n in line_nodes)
    # the closed chord splits the section into two sheets
    assert euler_characteristic(mesh) == 2


def test_centered_holes_leave_aperture_connected():
    mesh = build_mesh(ScreenSection(SECTION_HALF_WIDTH, ((0.49, 0.51),)), h=0.04)
    seam_y = mesh.node_xy[coincident_pairs(mesh)[:, 0], 1]
    assert len(seam_y) > 0
    assert np.all(np.abs(seam_y - 0.5) >= EPS / 2.0 - 1e-12)
    # one connected sheet
    assert euler_characteristic(mesh) == 1


def test_interior_slit_changes_topology():
    # segments [0, .02], [.1, .9], [.98, 1]: one of them is interior, so the
    # whole section is an annulus (0); a strip's half-section, of sections
    # that touch (L 0.25) or not (L 0.5), ends on the screen line and stays a
    # disk (1)
    holes = ((0.02, 0.1), (0.9, 0.98))
    for geom, chi in ((ScreenSection(SECTION_HALF_WIDTH, holes), 0),
                      (WaveguideGeometry2D(0.25, 1.0, holes, None), 1),
                      (WaveguideGeometry2D(0.5, 1.0, holes, None), 1)):
        mesh = build_mesh(geom, h=0.1)
        assert euler_characteristic(mesh) == chi
        report = validate_mesh(mesh)
        assert report["orientation_ok"] and report["conformity_ok"]


def test_validate_passes_on_fine_centered_mesh():
    mesh = build_mesh(geometry_centered(), h=0.04)
    report = validate_mesh(mesh)
    assert report["orientation_ok"]
    assert report["conformity_ok"]
    assert report["boundary_closed"]
    assert report["min_angle"] >= 15.0


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
    # equal screens get one half-section, shifted to each: the two halves
    # match under z -> z + 2L, and each is symmetric under y -> 1 - y, up to
    # the last-ulp rounding of shifted and mirrored coordinates; the right
    # half-section starts at z = L - min(L, 0.3) >= 0
    for L in (0.6, 0.25):
        verts = build_mesh(geometry_centered(L=L), h=0.04).vertices
        left = verts[verts[:, 0] < 0.0]
        assert 2 * len(left) == len(verts)
        rounded = {(round(z, 9), round(y, 9)) for z, y in verts}
        for z, y in rounded:
            assert (round(z - 2 * L if z >= 0.0 else z + 2 * L, 9), y) in rounded
            assert (z, round(1.0 - y, 9)) in rounded


def test_build_is_deterministic():
    a = build_mesh(geometry_centered(), h=0.04)
    b = build_mesh(geometry_centered(), h=0.04)
    assert np.array_equal(a.node_xy, b.node_xy)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(coincident_pairs(a), coincident_pairs(b))


def test_boundary_tags_cover_all_sides():
    # the half-sections' outer faces are the left port at -(L + delta),
    # delta = min(L, 0.3) (-0.8999999999999999 at L 0.6), not -Z = -(L + 1),
    # and the right inner face at L - delta, 0 where the sections touch;
    # their right sides lie on the screens, open in the apertures
    for L in (0.6, 0.25):
        delta = min(L, SECTION_HALF_WIDTH)
        mesh = build_mesh(geometry_centered(L=L, Z=L + 1.0), h=0.04)
        tags = set(mesh.boundary_tags)
        assert tags == {TAG_GAMMA_MINUS, TAG_WALL, TAG_SCREEN, TAG_APERTURE, TAG_GAP_PLUS}
        for (a, b, m), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
            (za, ya), (zb, yb), ym = mesh.node_xy[a], mesh.node_xy[b], mesh.node_xy[m, 1]
            if tag == TAG_GAMMA_MINUS:
                assert za == zb == -(L + delta)
            elif tag == TAG_GAP_PLUS:
                assert za == zb == L - delta
            elif tag == TAG_WALL:
                assert ya == yb and ya in (0.0, 1.0)
            else:
                assert za == zb and abs(za) == L
                assert (abs(ym - 0.5) < EPS / 2.0) == (tag == TAG_APERTURE)
    # the whole section has both ports and seams
    mesh = build_mesh(ScreenSection(SECTION_HALF_WIDTH, ((0.49, 0.51),)), h=0.04)
    assert set(mesh.boundary_tags) == {TAG_GAMMA_MINUS, TAG_GAMMA_PLUS, TAG_WALL, TAG_SCREEN}


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
    mesh = build_mesh(ScreenSection(0.55, None), h=0.5)
    tris = mesh.triangles.copy()
    tris[0, [0, 1]] = tris[0, [1, 0]]
    bad = replace(mesh, triangles=tris)
    assert not validate_mesh(bad)["orientation_ok"]


def test_validate_flags_bowtie_boundary():
    mesh = build_mesh(ScreenSection(0.55, None), h=0.5)
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                   [-1.0, 0.0], [-1.0, -1.0]])
    tris = np.array([[0, 1, 2], [0, 3, 4]])
    bad = replace(mesh, node_xy=xy, n_vertices=5, triangles=tris,
                  tri_midnodes=np.zeros_like(tris))
    report = validate_mesh(bad)
    assert not report["boundary_closed"]


def test_validate_flags_overused_edge():
    mesh = build_mesh(ScreenSection(0.55, None), h=0.5)
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                   [1.0, 1.0], [-1.0, 0.5]])
    tris = np.array([[0, 1, 2], [1, 3, 2], [0, 2, 4]])
    tris3 = np.vstack([tris, [[0, 1, 2]]])  # duplicate face reuses edges
    bad = replace(mesh, node_xy=xy, n_vertices=5, triangles=tris3,
                  tri_midnodes=np.zeros_like(tris3))
    assert not validate_mesh(bad)["conformity_ok"]


def test_validate_flags_undeclared_coincident_nodes():
    # the closed screen's face copies are the only coincident pairs allowed
    mesh = build_mesh(ScreenSection(0.3, ()), h=0.25)
    assert validate_mesh(mesh)["conformity_ok"]
    # split a bulk vertex on z = -0.15, between the port and the screen,
    # into two coincident nodes
    xy, nv = mesh.node_xy, mesh.n_vertices
    v = np.nonzero(np.isclose(xy[:nv, 0], -0.15) & (xy[:nv, 1] == 0.5))[0][0]
    tris = mesh.triangles.copy()
    t = np.nonzero(np.any(tris == v, axis=1))[0][0]
    tris[t][tris[t] == v] = nv
    bad = replace(mesh, node_xy=np.insert(xy, nv, xy[v], axis=0), n_vertices=nv + 1,
                  triangles=tris, tri_midnodes=mesh.tri_midnodes + 1)
    report = validate_mesh(bad)
    assert report["orientation_ok"] and not report["conformity_ok"]


def test_validate_accepts_the_mesh_with_no_nodes():
    # two closed screens with their sections apart mesh nothing: an empty
    # boundary is closed, and no triangle has a smallest angle
    mesh = build_mesh(WaveguideGeometry2D(0.6, 1.6, (), ()), 0.04)
    assert mesh.n_nodes == 0
    assert validate_mesh(mesh) == {"orientation_ok": True, "conformity_ok": True,
                                   "min_angle": math.inf, "boundary_closed": True}


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
    # each face copy is used by the triangles of one side of the screen only
    mesh = build_mesh(ScreenSection(SECTION_HALF_WIDTH, ((0.49, 0.51),)), h=0.04)
    pairs = coincident_pairs(mesh)
    assert len(pairs) > 0
    assert np.all(mesh.node_xy[pairs, 0] == 0.0)
    nodes = np.hstack([mesh.triangles, mesh.tri_midnodes])
    centroid_z = np.repeat(mesh.node_xy[mesh.triangles, 0].mean(axis=1), 6)
    side = np.sign(centroid_z - mesh.node_xy[nodes.ravel(), 0])
    for copy, sign in ((pairs[:, 0], -1.0), (pairs[:, 1], 1.0)):
        assert np.all(side[np.isin(nodes.ravel(), copy)] == sign)


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


def slit_holes(slits):
    """Holes from (width, frac) draws: slit k of n sits inside the bin
    (k/n, (k+1)/n), 0.01 off its ends, at fraction frac of the room left."""
    n = len(slits)
    holes = []
    for k, (width, frac) in enumerate(slits):
        lo = k / n + 0.01 + frac * (1.0 / n - 0.02 - width)
        holes.append((lo, lo + width))
    return holes


def test_section_seams_on_random_slits():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=25, deadline=None)
    @hyp.given(st.lists(st.tuples(st.floats(1e-4, 0.2), st.floats(0.0, 1.0)),
                        min_size=1, max_size=3))
    @hyp.example([(0.125, 1.0), (0.125, 0.0)])  # windows of holes 0.02 apart overlapped
    # a hole of width 2W whose tip windows met 1 ulp apart: (0.0487918..., 0.1138573...)
    @hyp.example([(0.06506545165470652, 0.042398504442140175)])
    @hyp.example([(0.020000000000000004, 0.08333333333333334)])  # the slit (0.09, 0.11)
    def check(slits):
        mesh = build_mesh(ScreenSection(0.3, slit_holes(slits)), 0.3)
        report = validate_mesh(mesh)
        assert report["orientation_ok"] and report["conformity_ok"]
        assert report["boundary_closed"]
        pairs = coincident_pairs(mesh)
        pairs = pairs[np.all(pairs < mesh.n_vertices, axis=1)]  # vertex pairs
        z, y = mesh.node_xy[pairs[:, 0]].T
        closed = mesh.geometry.closed_segments(0.0)
        tips = [t for hole in mesh.geometry.holes for t in hole]
        assert np.all(z == 0.0)
        assert np.all(np.any([(a <= y) & (y <= b) for a, b in closed], axis=0))
        assert not np.any(np.isin(y, tips))
        # the vertices on the screen that only left triangles use: the left copies
        nodes = np.hstack([mesh.triangles, mesh.tri_midnodes])
        is_left = mesh.node_xy[mesh.triangles, 0].mean(axis=1) < 0.0
        left = np.setdiff1d(nodes[is_left], nodes[~is_left])
        left = left[(left < mesh.n_vertices) & (mesh.node_xy[left, 0] == 0.0)]
        assert np.array_equal(left, np.sort(pairs[:, 0]))

    check()


def test_abutting_tip_windows_share_one_row():
    # a 0.02 slit at h 0.01 gets two tip windows meeting at its centre, where
    # 0.09 + 0.01 and 0.11 - 0.01 differ by 1 ulp: they once left a sliver
    # rectangle whose 0-degree triangles made the strip LU singular
    holes = ((0.09, 0.11),)
    assert validate_mesh(build_mesh(ScreenSection(0.3, holes), 0.01))["min_angle"] > 10.0
    geom = WaveguideGeometry2D(0.65, 1.65, holes, holes)
    assert validate_mesh(build_mesh(geom, 0.01))["min_angle"] > 10.0
    res = solve_scattering(geom, 0.8 * math.pi, h=0.01)
    assert abs(abs(res.R) ** 2 + abs(res.T) ** 2 - 1.0) < 1e-6


def test_slits_of_two_cells_mesh_cleanly_across_binades():
    # 2h-wide slits at h 0.01, some with a binade boundary between their tips
    for c in (0.0625, 0.065, 0.1, 0.125, 0.13, 0.25, 0.3, 0.5, 0.7, 0.9):
        for lo in (c - 0.01, math.nextafter(c - 0.01, 0.0)):
            mesh = build_mesh(ScreenSection(0.3, ((lo, lo + 0.02),)), 0.01)
            assert validate_mesh(mesh)["min_angle"] > 10.0, (lo, lo + 0.02)


def test_segment_limited_slab_is_refused_before_it_is_built():
    # a hole 1e-5 from the wall shrinks the slab to W 7e-6: about 4.6e6 nodes
    # per half-section, which once exhausted memory
    holes = ((1e-5, 1.1e-4),)
    tracemalloc.start()
    t0 = time.perf_counter()
    with pytest.raises(NumericalError,
                       match=r"hole \(1e-05, 0\.00011\) and the closed segment \(0, 1e-05\)"):
        build_mesh(WaveguideGeometry2D(0.66, 1.66, holes, holes), 0.04)
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1e6


def test_segment_limited_slab_below_the_bound_still_meshes():
    holes = ((1e-3, 1.1e-2),)       # 1e-3 from the wall: W 7e-4
    assert build_mesh(WaveguideGeometry2D(0.66, 1.66, holes, holes), 0.04).n_nodes == 109_358


def mesh_digest(mesh):
    """First 16 hex digits of a SHA-256 over every array (dtype, shape, bytes)."""
    h = hashlib.sha256()
    for a in (mesh.node_xy, mesh.triangles, mesh.tri_midnodes, mesh.boundary_edges,
              mesh.boundary_tags, mesh.edges):
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    h.update(str(mesh.n_vertices).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("holes, h, digest", [
    (((0.49, 0.51),), 0.04, "ac2069283bc7eb76"),
    (((0.49, 0.51),), 0.02, "ec69cb211d78187e"),
    (((0.49995, 0.50005),), 0.02, "e4333820a5415609"),
    (((0.2, 0.25), (0.6, 0.9)), 0.04, "eb22bd15aa892f31"),
    (((0.05, 0.5),), 0.04, "e4e0b948ddbc0b12"),
])
def test_half_section_mesh_is_unchanged(holes, h, digest):
    # emitted left of the screen only, the half-section is byte for byte the
    # left half of the whole section mesh these digests were taken of
    assert mesh_digest(_half_section(holes, h, SECTION_HALF_WIDTH)) == digest


def test_gap_strip_mesh_is_unchanged():
    geom = WaveguideGeometry2D(0.65, 1.65, ((0.09, 0.11),), ((0.69, 0.71),))
    assert mesh_digest(build_mesh(geom, 0.02)) == "3cd82191872681e7"


def bench_slit(center, width):
    """One aperture as the benchmark's layouts write it (bit for bit)."""
    return ((center - 0.5 * width, center + 0.5 * width),)


@pytest.mark.parametrize("left, right, h, digest", [
    (bench_slit(0.5, 0.02), bench_slit(0.5, 0.02), 0.04, "499cbecaa16ab435"),
    (bench_slit(0.5, 0.02), bench_slit(0.5, 0.02), 0.02, "7864bf220989e2d2"),
    (bench_slit(0.5, 1e-4), bench_slit(0.5, 1e-4), 0.04, "6a5135e1be6156bb"),
    (bench_slit(0.5, 1e-4), bench_slit(0.5, 1e-4), 0.02, "443a864d512c5543"),
    (bench_slit(0.1, 0.02), bench_slit(0.7, 0.02), 0.04, "5b4a4dbccec8181f"),
    (bench_slit(0.1, 0.02), bench_slit(0.7, 0.02), 0.02, "f465e598e342298a"),
    (bench_slit(0.5, 0.06), bench_slit(0.5, 0.02), 0.04, "7f8a528403b5e3a1"),
    (bench_slit(0.5, 0.06), bench_slit(0.5, 0.02), 0.02, "3125d82b4a5b27c2"),
], ids=[f"{name}-{h}" for name in ("centred", "paper-scale", "off-centre", "unequal")
        for h in (0.04, 0.02)])
def test_layout_strip_mesh_is_unchanged(left, right, h, digest):
    # the benchmark's four layouts at L 0.64: equal screens reuse one
    # half-section, unequal ones build two
    geom = WaveguideGeometry2D(0.64, 1.64, left, right)
    assert mesh_digest(build_mesh(geom, h)) == digest


def left_of_whole_section(holes, h):
    """The half-section as the left triangles of the whole section mesh."""
    geom = ScreenSection(SECTION_HALF_WIDTH, holes)
    whole = build_mesh(geom, h)
    xy, tris = whole.vertices, whole.triangles
    left = xy[tris, 0].mean(axis=1) < 0.0
    used, tris = np.unique(tris[left], return_inverse=True)
    return _finish(geom, xy[used], tris.reshape(-1, 3))


def test_half_section_is_the_left_of_the_whole_section():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=30, deadline=None)
    @hyp.given(st.lists(st.tuples(st.floats(1e-4, 0.2), st.floats(0.0, 1.0)),
                        min_size=1, max_size=3),
               st.sampled_from([0.3, 0.04, 0.02]))
    def check(slits, h):
        holes = tuple(slit_holes(slits))
        try:
            want = left_of_whole_section(holes, h)
        except NumericalError:
            hyp.reject()
        got = _half_section(holes, h, SECTION_HALF_WIDTH)
        assert got.n_vertices == want.n_vertices
        for name in ("node_xy", "triangles", "tri_midnodes", "boundary_edges",
                     "boundary_tags", "edges"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    check()


def brute_edge_table(tris):
    """Edges numbered in order of first use, by a dict over the vertex pairs."""
    number, pairs, count, edge_of = {}, [], [], []
    for a, b, c in tris.tolist():
        row = []
        for p, q in ((a, b), (b, c), (c, a)):
            key = (min(p, q), max(p, q))
            if key not in number:
                number[key] = len(pairs)
                pairs.append(key)
                count.append(0)
            count[number[key]] += 1
            row.append(number[key])
        edge_of.append(row)
    return (np.array(pairs, dtype=np.int64).reshape(-1, 2),
            np.array(edge_of, dtype=np.int64).reshape(-1, 3), np.array(count))


@pytest.mark.parametrize("n_ids, n_tris, sparse", [
    (4, 6, False), (30, 200, False), (400, 300, False), (50, 120, True), (0, 0, False)])
def test_edge_table_matches_brute_force_numbering(n_ids, n_tris, sparse):
    rng = np.random.default_rng(n_ids + n_tris)
    # sparse: vertex ids far apart and far from 0, as no mesh numbers them
    ids = rng.choice(10 ** 6, n_ids, replace=False) if sparse else np.arange(n_ids)
    tris = np.array([rng.choice(ids, 3, replace=False) for _ in range(n_tris)],
                    dtype=np.int64).reshape(-1, 3)
    pairs, edge_of, count = _edge_table(tris)
    want_pairs, want_edge_of, want_count = brute_edge_table(tris)
    assert np.array_equal(pairs, want_pairs)
    assert np.array_equal(edge_of, want_edge_of)
    assert np.array_equal(count, want_count)


@pytest.mark.parametrize("L", [0.05, 0.3, 0.3 + 1e-9, 0.6, 0.925])
@pytest.mark.parametrize("holes", [((0.49, 0.51),), (), None], ids=["centred", "closed", "empty"])
def test_gap_strip_meshes_only_the_screen_sections(L, holes):
    # each screen with apertures gets the left half (s - delta, s) of its
    # section, delta = min(L, d), without seams: at delta = d the mesh that
    # screen_smatrix factors; a screen without apertures gets nothing.  The
    # sections touch at z = 0 when L <= d, and the gap has length 0
    geom = WaveguideGeometry2D(L, L + 1.0, holes, holes)
    mesh = build_mesh(geom, h=0.04)
    delta, a = geom.section_half_width, geom.gap_half_length
    assert delta == min(L, SECTION_HALF_WIDTH) and a == L - delta
    assert geom.port_half_length == L + delta and (a == 0.0) == (L <= SECTION_HALF_WIDTH)
    if not holes:
        assert mesh.n_nodes == 0 and len(mesh.triangles) == 0
        return
    z = mesh.node_xy[:, 0]
    assert np.all((-L - delta <= z) & (z <= -L) | (a <= z) & (z <= L))
    assert len(coincident_pairs(mesh)) == 0
    half = _half_section(holes, 0.04, delta)
    assert mesh.n_vertices == 2 * half.n_vertices
    for k, s in enumerate((-L, L)):
        shifted = mesh.vertices[k * half.n_vertices:(k + 1) * half.n_vertices]
        assert np.array_equal(shifted, half.vertices + (s, 0.0))
    # every face edge is at most min(h, delta/6) long
    (y0, y1) = mesh.node_xy[mesh.boundary_edges[:, :2], 1].T
    assert np.abs(y1 - y0).max() <= min(0.04, delta / 6.0) * (1.0 + 1e-9)
    # the outer faces are whole boundary lines x (0, 1), tagged per screen
    for tag, face in ((TAG_GAMMA_MINUS, -L - delta), (TAG_GAP_PLUS, a)):
        edges = mesh.boundary_edges[mesh.boundary_tags == tag]
        assert np.all(mesh.node_xy[edges, 0] == face)
        y = mesh.node_xy[edges[:, :2], 1]
        assert np.ptp(y, axis=1).sum() == pytest.approx(1.0, abs=1e-14)
    report = validate_mesh(mesh)
    assert report["orientation_ok"] and report["conformity_ok"] and report["boundary_closed"]


def _full_scan(ts_a, ts_b, i0, i1, j0, j1, eps):
    mid = 0.25 * (ts_a[i0] + ts_a[i1] + ts_b[j0] + ts_b[j1])
    return _scan_pairs(ts_a, ts_b, range(i0, i1 + 1), range(j0, j1 + 1),
                       ((i0, j0), (i1, j1)), mid, eps)


def test_zipper_split_search_matches_full_scan():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=25, unique=True),
               st.lists(st.floats(0.0, 1.0), min_size=2, max_size=25, unique=True),
               st.booleans(), st.data())
    def check(a, b, mirrored, data):
        ts_a = sorted(a)
        # mirror-image rows tie in the first key, as in symmetric meshes
        ts_b = sorted(1.0 - t for t in ts_a) if mirrored else sorted(b)
        i0, i1 = sorted(data.draw(st.lists(st.integers(0, len(ts_a) - 1), min_size=2,
                                           max_size=2, unique=True)))
        j0, j1 = sorted(data.draw(st.lists(st.integers(0, len(ts_b) - 1), min_size=2,
                                           max_size=2, unique=True)))
        hyp.assume((i1 - i0, j1 - j0) != (1, 1))
        eps = 1e-12 * (max(ts_a[-1], ts_b[-1]) - min(ts_a[0], ts_b[0]))
        assert (_split_pairs(ts_a, ts_b, i0, i1, j0, j1, eps)
                == _full_scan(ts_a, ts_b, i0, i1, j0, j1, eps))

    check()


def test_zipper_split_search_on_nodes_closer_than_eps(monkeypatch):
    # pairs whose first keys sit within eps of the threshold f2 + g2 take part
    # in the ties: without them the split below ends at (1, 2), not (1, 1)
    ts_a = [0.0, 0.4, 0.5999999999994999, 0.6, 1.0]
    ts_b = [0.0, 0.39999999999970004, 0.4, 0.6, 1.0]
    want = [(1, 1), (1, 2), (2, 3), (3, 3)]
    assert _full_scan(ts_a, ts_b, 0, 4, 0, 4, 1e-12) == want
    assert _split_pairs(ts_a, ts_b, 0, 4, 0, 4, 1e-12) == want
    # nodes 0.6 eps apart around mid chain first keys past the search box;
    # the full scan then decides
    ts_a = [0.0] + [0.5 + k * 0.6e-12 for k in range(-10, 11)] + [1.0]
    ts_b = [0.0, 0.5, 1.0]
    full = []
    monkeypatch.setattr("screenguide.meshing._scan_pairs",
                        lambda *args, **kw: full.append(len(args[2])) or _scan_pairs(*args, **kw))
    got = _split_pairs(ts_a, ts_b, 0, len(ts_a) - 1, 0, 2, 1e-12)
    assert full == [len(ts_a)]
    assert got == _full_scan(ts_a, ts_b, 0, len(ts_a) - 1, 0, 2, 1e-12)
