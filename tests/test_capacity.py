"""Unit tests for the crack capacity boundary element solver.

Frozen numbers below were produced by this solver and cross-checked against
the analytic disk capacitance 2/pi and Richardson extrapolation over panel
refinement levels.
"""

import logging
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from screenguide import (
    CrackShape,
    NumericalError,
    capacity,
    eval_far_field,
    panelize,
    refine,
    solve_capacity,
)
from screenguide.capacity import (
    _GL16,
    _ROW_BLOCK,
    NEAR_FIELD_FACTOR,
    CrackPanels,
    _minres,
    _self_integrals_rect,
    _self_integrals_tri,
    _subdivide_for_quadrature,
    assemble_system,
)

DISK_EXACT = 2.0 / math.pi


def test_panelize_unit_square_coarsest():
    p = panelize(CrackShape.rectangle(1.0, 1.0), 4)
    assert p.n_panels == 4
    assert np.isclose(p.areas.sum(), 1.0, rtol=1e-12)


def test_panelize_disk_area_converges():
    shape = CrackShape.disk(1.0)
    p = panelize(shape, 256)
    assert abs(p.areas.sum() - math.pi) / math.pi < 0.01


def test_refine_nests_panels_four_to_one():
    p = panelize(CrackShape.disk(1.0), 256)
    q = refine(p)
    assert q.n_panels == 4 * p.n_panels
    assert np.isclose(q.areas.sum(), p.areas.sum(), rtol=1e-12)


def test_panelize_rejects_degenerate():
    with pytest.raises(ValueError):
        CrackShape.rectangle(0.0, 1.0)
    with pytest.raises(ValueError):
        CrackShape.disk(-1.0)
    with pytest.raises(ValueError):
        panelize(CrackShape.disk(1.0), 2)


def test_disk_capacity_one_percent_at_1024():
    p = panelize(CrackShape.disk(1.0), 1024)
    r = solve_capacity(p)
    assert p.n_panels >= 1024
    assert abs(r.capacity - DISK_EXACT) / DISK_EXACT < 0.01
    # frozen regression value for this panelization
    assert r.capacity == pytest.approx(0.6345611062050365, rel=1e-9)


def test_disk_capacity_converges_toward_exact():
    shape = CrackShape.disk(1.0)
    errors = []
    for n in (64, 256, 1024):
        r = solve_capacity(panelize(shape, n))
        errors.append(abs(r.capacity - DISK_EXACT))
    assert errors[2] < errors[1] < errors[0]


def regular_polygon(m, b=1.0):
    """m vertices on the ellipse x^2 + (y/b)^2 = 1, equally spaced in angle"""
    theta = 2.0 * np.pi * np.arange(m) / m
    return CrackShape.polygon(np.column_stack([np.cos(theta), b * np.sin(theta)]))


def agm(a, b):
    """arithmetic-geometric mean; 10 quadratically converging steps reach
    rounding for b / a >= 0.01"""
    for _ in range(10):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


@pytest.mark.slow
@pytest.mark.parametrize("b", [1.0, 0.5, 0.2])
def test_elliptic_disk_capacity_converges_to_the_agm(b):
    # the elliptic disk of semi-axes 1 and b has capacity (2/pi) AGM(1, b);
    # its inscribed 128-gon is smaller, so the error is negative.  Measured:
    # -6.5e-3 .. -5.6e-3 at 1152 panels and -2.6e-3 .. -2.2e-3 at 2176, a
    # rate of about 2.5 for 1.9 times the panels (order 1.4 in the panel count)
    shape = regular_polygon(128, b)
    exact = 2.0 / math.pi * agm(1.0, b)
    errors = []
    for n, n_panels, bound in ((1024, 1152, 7e-3), (2048, 2176, 3e-3)):
        p = panelize(shape, n)
        assert p.n_panels == n_panels
        err = (solve_capacity(p).capacity - exact) / exact
        assert -bound < err < 0.0
        errors.append(err)
    assert abs(errors[1]) <= 0.5 * abs(errors[0])


def test_regular_polygon_panelizes_and_solves_as_the_disk():
    # a disk is panelized as a regular 64-gon at this target: the polygon
    # path builds the same 1088 panels and gets the same capacity
    p = panelize(regular_polygon(64), 1024)
    q = panelize(CrackShape.disk(1.0), 1024)
    assert p.n_panels == q.n_panels == 1088
    cp, cq = solve_capacity(p).capacity, solve_capacity(q).capacity
    assert abs(cp - cq) <= 1e-13 * cq


def test_capacity_scaling_is_exact():
    r1 = solve_capacity(panelize(CrackShape.disk(1.0), 256))
    r2 = solve_capacity(panelize(CrackShape.disk(2.0), 256))
    assert r2.capacity / r1.capacity == pytest.approx(2.0, rel=1e-13)


def test_rectangle_capacity_frozen():
    r = solve_capacity(panelize(CrackShape.rectangle(1.0, 1.0), 1024))
    assert r.capacity == pytest.approx(0.3665352565713567, rel=1e-9)


def test_capacity_monotone_under_inclusion():
    small = solve_capacity(panelize(CrackShape.disk(0.8), 256))
    big = solve_capacity(panelize(CrackShape.disk(1.0), 256))
    assert small.capacity <= big.capacity + 0.02 * big.capacity


def test_density_nonnegative_in_the_interior():
    p = panelize(CrackShape.disk(1.0), 256)
    r = solve_capacity(p)
    assert np.all(r.density > 0.0)


def test_centered_dipole_vanishes():
    r = solve_capacity(panelize(CrackShape.disk(1.0), 256))
    assert np.hypot(*r.dipole) < 1e-3 * r.capacity


def test_offcenter_dipole_tracks_centroid():
    # shifting the shape by c shifts the density moment by 4*pi*capacity*c
    center = (0.4, -0.2)
    r = solve_capacity(panelize(CrackShape.disk(1.0, center=center), 256))
    expected = 4.0 * math.pi * r.capacity * np.asarray(center)
    np.testing.assert_allclose(r.dipole, expected, rtol=1e-12, atol=1e-12)


def test_far_field_axis_value():
    p = panelize(CrackShape.disk(1.0), 1024)
    r = solve_capacity(p)
    v = eval_far_field(r, p, (0.0, 0.0, 100.0))
    # monopole term plus the physical O(|xi|^-3) correction (~1.7e-5 here)
    assert abs(v - r.capacity / 100.0) / (r.capacity / 100.0) < 5e-5
    assert v == pytest.approx(0.006345401301606379, rel=1e-9)


def test_far_field_even_in_xi3():
    p = panelize(CrackShape.disk(1.0), 256)
    r = solve_capacity(p)
    up = eval_far_field(r, p, (3.0, -2.0, 5.0))
    dn = eval_far_field(r, p, (3.0, -2.0, -5.0))
    assert up == dn


def test_far_field_remainder_decays_cubically():
    p = panelize(CrackShape.disk(1.0), 1024)
    r = solve_capacity(p)
    radii = np.logspace(1.0, 3.0, 9)
    rem = []
    for rho in radii:
        pt = (0.6 * rho, 0.48 * rho, 0.64 * rho)
        val = eval_far_field(r, p, pt)
        rem.append(abs(val - r.capacity / rho))
    slope = np.polyfit(np.log(radii), np.log(rem), 1)[0]
    assert slope <= -3.0 + 0.2


def test_far_field_rejects_near_points():
    p = panelize(CrackShape.disk(1.0), 64)
    r = solve_capacity(p)
    with pytest.raises(ValueError):
        eval_far_field(r, p, (0.0, 0.0, 0.5))


def test_polygon_shape_solves():
    tri = CrackShape.polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    r = solve_capacity(panelize(tri, 256))
    assert r.capacity > 0.0
    # a triangle inside the unit square must have smaller capacity
    square = solve_capacity(panelize(CrackShape.rectangle(1.0, 1.0), 256))
    assert r.capacity < square.capacity


@pytest.mark.parametrize("shape", [CrackShape.polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
                                   CrackShape.polygon(((0.0, 0.0), (2.0, 0.3), (0.4, 1.5))),
                                   CrackShape.polygon([(0.0, 0.0), (3.0, 0.1), (3.2, 1.0),
                                                       (1.1, 2.4), (-0.5, 1.2)])])
def test_polygon_diameter_is_the_largest_vertex_distance(shape):
    verts = shape.params[0]
    brute = max(math.dist(p, q) for p in verts for q in verts)
    assert shape.diameter == pytest.approx(brute, rel=1e-15)


def self_integral_rect_loop(corners):
    """One rectangle at a time: the closed form at its centre."""
    a = 0.5 * np.linalg.norm(corners[1] - corners[0])
    b = 0.5 * np.linalg.norm(corners[3] - corners[0])
    return 4.0 * (a * math.asinh(b / a) + b * math.asinh(a / b))


def self_integral_tri_loop(corners, centroid):
    """One panel at a time: the centroid split with 16-point Duffy rules."""
    t, w = _GL16
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    total = 0.0
    for k in range(3):
        a = corners[k] - centroid
        b = corners[(k + 1) % 3] - centroid
        two_area = abs(a[0] * b[1] - a[1] * b[0])
        seg = a[None, :] + t[:, None] * (b - a)[None, :]
        total += two_area * float(np.sum(w / np.hypot(seg[:, 0], seg[:, 1])))
    return total


def unblocked_system(panels):
    """The collocation matrix built whole, with n x n temporaries."""
    cent, area, n = panels.centroids, panels.areas, panels.n_panels
    diff = cent[:, None, :] - cent[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    B = (area[:, None] * area[None, :]) / (4.0 * np.pi * (r + np.eye(n)))
    rad = np.linalg.norm(panels.corners - cent[:, None, :], axis=2).max(axis=1)
    near = r < NEAR_FIELD_FACTOR * (rad[:, None] + rad[None, :])
    np.fill_diagonal(near, False)
    ii, jj = np.nonzero(near)
    sub_c, sub_a = _subdivide_for_quadrature(panels)
    d = cent[ii, None, :] - sub_c[jj]
    rr = np.sqrt(np.sum(d * d, axis=2))
    B[ii, jj] = area[ii] * np.sum(sub_a[jj] / rr, axis=1) / (4.0 * np.pi)
    B = 0.5 * (B + B.T)
    if panels.kind == "rect":
        diag = _self_integrals_rect(panels.corners)
    else:
        diag = np.array([self_integral_tri_loop(c, m)
                         for c, m in zip(panels.corners, cent)])
    B[np.diag_indices(n)] = area * diag / (4.0 * np.pi)
    return B


def sectorless(panels):
    """The same panels, in the same order, claiming no rotation symmetry."""
    return CrackPanels(panels.shape, panels.corners)


STAR = CrackShape.polygon([(math.cos(a) * r, math.sin(a) * r) for a, r in zip(
    np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False), [1.0, 0.45] * 5)])


@pytest.mark.parametrize("shape, n", [(CrackShape.disk(1.0), 1024),
                                      (CrackShape.rectangle(2.5, 1.0), 600),
                                      (STAR, 700),
                                      (CrackShape.disk(1.0), 100)])
def test_blocked_assembly_matches_whole_matrix(shape, n):
    # the same panels as one sector: assemble_system builds the whole matrix
    p = sectorless(panelize(shape, n))
    # a partial last row block, after full ones unless the target is one block
    assert p.n_panels % _ROW_BLOCK
    assert (p.n_panels > _ROW_BLOCK) == (n > _ROW_BLOCK)
    B, rhs = assemble_system(p)
    assert np.array_equal(B, B.T)
    assert np.array_equal(B, unblocked_system(p))
    assert np.array_equal(rhs, p.areas)


def test_vectorized_self_terms_match_panel_loop():
    p = panelize(CrackShape.polygon(((0.0, 0.0), (2.0, 0.3), (0.4, 1.5))), 300)
    fast = _self_integrals_tri(p.corners, p.centroids)
    loop = np.array([self_integral_tri_loop(c, m) for c, m in zip(p.corners, p.centroids)])
    assert np.max(np.abs(fast - loop) / loop) <= 1e-15
    p = panelize(CrackShape.rectangle(2.3, 1.0), 2048)
    fast = _self_integrals_rect(p.corners)
    loop = np.array([self_integral_rect_loop(c) for c in p.corners])
    assert np.max(np.abs(fast - loop) / loop) <= 1e-15


def test_duplicate_centroids_are_rejected():
    p = panelize(CrackShape.disk(1.0), 300)
    corners = np.concatenate([p.corners, p.corners[-1:]])
    with pytest.raises(NumericalError, match="duplicate panel centroids"):
        solve_capacity(CrackPanels(p.shape, corners))


def test_duplicate_centroids_in_distant_row_blocks_are_rejected():
    # panel 0 and its copy at the end meet only in the first row block
    p = panelize(CrackShape.disk(1.0), 700)
    assert p.n_panels > 2 * _ROW_BLOCK
    corners = np.concatenate([p.corners, p.corners[:1]])
    with pytest.raises(NumericalError, match="duplicate panel centroids"):
        solve_capacity(CrackPanels(p.shape, corners))


@pytest.mark.parametrize("shape, n", [(CrackShape.disk(1.0), 1024),
                                      (CrackShape.rectangle(2.5, 1.0), 2048),
                                      (CrackShape.disk(1.0, center=(0.4, -0.2)), 256),
                                      (STAR, 700)])
def test_minres_matches_dense_symmetric_solve(shape, n):
    # the reduced solve of the symmetric panels against a dense solve of the
    # whole matrix of the same panels
    p = panelize(shape, n)
    B, rhs = assemble_system(sectorless(p))
    dense = scipy.linalg.solve(B, rhs, assume_a="sym")
    r = solve_capacity(p)
    dense_capacity = float(np.sum(dense * p.areas)) / (4.0 * np.pi)
    assert abs(r.capacity - dense_capacity) <= 1e-12 * dense_capacity
    assert np.max(np.abs(r.density - dense)) <= 1e-9 * np.max(np.abs(dense))


@pytest.mark.parametrize("shape, n", [(CrackShape.disk(1.0), 1024),
                                      (CrackShape.rectangle(2.5, 1.0), 600),
                                      (CrackShape.disk(1.0, center=(0.4, -0.2)), 256)])
def test_reduced_matrix_folds_the_whole_matrix(shape, n):
    p = panelize(shape, n)
    m = p.n_sector_panels
    assert p.sectors > 1 and m * p.sectors == p.n_panels
    B, _ = assemble_system(sectorless(p))
    folded = B[:m].reshape(m, p.sectors, m).sum(axis=1)
    A, rhs = assemble_system(p)
    assert np.array_equal(A, A.T)
    assert np.max(np.abs(A - folded)) <= 1e-13 * np.max(np.abs(folded))
    assert np.array_equal(rhs, p.areas[:m])


def test_panelize_records_its_sectors():
    disk = panelize(CrackShape.disk(1.0), 1024)
    assert (disk.sectors, disk.n_sector_panels) == (64, 17)
    even = panelize(CrackShape.rectangle(2.5, 1.0), 600)
    assert even.sectors == 2
    # 3 x 3 cells: the half turn fixes the centre cell
    odd = panelize(CrackShape.rectangle(1.0, 1.0), 9)
    assert odd.n_panels == 9 and odd.sectors == 1
    tri = CrackShape.polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    assert panelize(tri, 64).sectors == 1
    assert refine(disk).sectors == 1


def test_wrong_sectors_are_rejected():
    p = panelize(CrackShape.disk(1.0), 256)
    with pytest.raises(ValueError, match="rotated sectors"):
        CrackPanels(p.shape, p.corners, sectors=p.n_sector_panels)
    with pytest.raises(ValueError, match="rotated sectors"):
        CrackPanels(p.shape, p.corners[::-1], sectors=p.sectors)
    with pytest.raises(ValueError, match="positive divisor"):
        CrackPanels(p.shape, p.corners, sectors=p.n_panels + 1)
    rect = panelize(CrackShape.rectangle(2.5, 1.0), 600)
    with pytest.raises(ValueError, match="rotated sectors"):
        CrackPanels(rect.shape, rect.corners, sectors=4)


def test_panel_kind_follows_the_corners():
    rect = panelize(CrackShape.rectangle(2.5, 1.0), 600)
    disk = panelize(CrackShape.disk(1.0), 256)
    assert (rect.kind, disk.kind) == ("rect", "tri")
    assert (refine(rect).kind, refine(disk).kind) == ("rect", "tri")
    for corners in (rect.corners[:, :, 0], np.zeros((4, 5, 2)), np.zeros((4, 3, 3))):
        with pytest.raises(ValueError, match="corners must be"):
            CrackPanels(rect.shape, corners)


def test_density_scales_exactly_with_the_crack():
    # B scales by 8 and the areas by 4 when the radius doubles: both powers
    # of two, which the normalization divides out exactly
    small = solve_capacity(panelize(CrackShape.disk(1.0), 256))
    big = solve_capacity(panelize(CrackShape.disk(2.0), 256))
    assert np.array_equal(big.density, 0.5 * small.density)


def test_minres_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(capacity, "_MINRES_MAXITER", 1)
    with pytest.raises(NumericalError, match="MINRES stopped after 1 iterations"):
        solve_capacity(panelize(CrackShape.disk(1.0), 64))


def test_minres_iteration_cap_keeps_a_solution_within_the_residual_limit(monkeypatch):
    # MINRES reaches a cap of 5 iterations on the 64-panel disk at a true
    # residual of about 1e-13, below the limit: the solution is kept
    panels = panelize(CrackShape.disk(1.0), 64)
    uncapped = solve_capacity(panels).capacity
    monkeypatch.setattr(capacity, "_MINRES_MAXITER", 5)
    assert solve_capacity(panels).capacity == pytest.approx(uncapped, rel=1e-12)


def test_solve_logs_iterations_and_residual(caplog):
    p = panelize(CrackShape.disk(1.0), 256)
    with caplog.at_level(logging.INFO, logger="screenguide.capacity"):
        solve_capacity(p)
    (record,) = [r for r in caplog.records if r.name == "screenguide.capacity"]
    assert record.levelno == logging.INFO
    msg = record.getMessage()
    assert msg.startswith(f"solved {p.n_panels} panels, ")
    iterations = int(msg.split(", ")[1].split()[0])
    resid = float(msg.split("residual ")[1])
    assert 1 <= iterations <= p.n_panels
    assert resid <= 1e-10


def indefinite_system():
    """A symmetric 60 x 60 matrix with eigenvalues -2, -0.5 and 1..10 in a
    random orthonormal basis, a positive diagonal, and a random right-hand
    side."""
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    lam = np.concatenate([[-2.0, -0.5], np.linspace(1.0, 10.0, 58)])
    A = (q * lam) @ q.T
    A = 0.5 * (A + A.T)
    assert np.sum(np.linalg.eigvalsh(A) < 0.0) == 2 and np.diagonal(A).min() > 0.0
    return A, rng.standard_normal(60)


def disk_4224_block():
    """The reduced system of the 4224-panel disk: 33 representatives."""
    p = panelize(CrackShape.disk(1.0), 4096)
    assert (p.n_panels, p.n_sector_panels) == (4224, 33)
    return assemble_system(p)


@pytest.mark.parametrize("system", [indefinite_system, disk_4224_block])
def test_minres_matches_scipy_minres(system):
    B, b = system()
    jacobi = 1.0 / np.diagonal(B)
    scipy_iterations = 0

    def count(_):
        nonlocal scipy_iterations
        scipy_iterations += 1

    M = scipy.sparse.linalg.LinearOperator(B.shape, matvec=lambda r: jacobi * r, dtype=float)
    expected, info = scipy.sparse.linalg.minres(B, b, rtol=capacity._MINRES_RTOL,
                                                maxiter=capacity._MINRES_MAXITER,
                                                M=M, callback=count)
    x, iterations = _minres(B, b, jacobi)
    assert info == 0 and iterations < capacity._MINRES_MAXITER
    assert abs(iterations - scipy_iterations) <= 2
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)
