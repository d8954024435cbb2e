"""Unit tests for the quadratic finite element assembly and direct solver."""

import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from screenguide import (
    NumericalError,
    ScreenSection,
    WaveguideGeometry2D,
    assemble,
    assemble_stiffness_mass,
    build_mesh,
    solve_linear,
)
from screenguide.fem import (
    _K_REF,
    _QP_BARY,
    _QP_W,
    SparseComplexSystem,
    _element_geometry,
    _element_matrices,
    _shape_grads_bary,
    _to_csr,
    shape_values,
)
from screenguide.meshing import _half_section

# element matrices of the unit right triangle, local order
# [v1, v2, v3, m12, m23, m31]; exact rational values
REF_MASS_360 = np.array([
    [6, -1, -1, 0, -4, 0],
    [-1, 6, -1, 0, 0, -4],
    [-1, -1, 6, -4, 0, 0],
    [0, 0, -4, 32, 16, 16],
    [-4, 0, 0, 16, 32, 16],
    [0, -4, 0, 16, 16, 32],
], dtype=float)
REF_STIFF_6 = np.array([
    [6, 1, 1, -4, 0, -4],
    [1, 3, 0, -4, 0, 0],
    [1, 0, 3, 0, 0, -4],
    [-4, -4, 0, 16, -8, 0],
    [0, 0, 0, -8, 16, -8],
    [-4, 0, -4, 0, -8, 16],
], dtype=float)


def reference_triangle_mesh():
    """Single unit right triangle packaged as a Mesh-compatible object."""
    mesh = build_mesh(WaveguideGeometry2D(0.5, 1.0, None, None), h=0.5)
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                   [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    return replace(
        mesh,
        node_xy=xy,
        n_vertices=3,
        triangles=np.array([[0, 1, 2]]),
        tri_midnodes=np.array([[3, 4, 5]]),
    )


def test_shape_values_partition_of_unity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        lam = rng.dirichlet((1.0, 1.0, 1.0))
        vals = shape_values(lam)
        assert vals.sum() == pytest.approx(1.0, abs=1e-14)


def test_shape_values_nodal_basis():
    nodes = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
             (0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)]
    vals = np.array([shape_values(np.array(lam)) for lam in nodes])
    np.testing.assert_allclose(vals, np.eye(6), atol=1e-14)


def test_reference_element_matrices():
    mesh = reference_triangle_mesh()
    S, M = assemble_stiffness_mass(mesh)
    np.testing.assert_allclose(M.toarray() * 360.0, REF_MASS_360, atol=4e-13)
    np.testing.assert_allclose(S.toarray() * 6.0, REF_STIFF_6, atol=4e-13)


def test_stiffness_annihilates_constants():
    mesh = build_mesh(ScreenSection(0.6, None), h=0.17)
    S, M = assemble_stiffness_mass(mesh)
    ones = np.ones(S.shape[0])
    assert np.abs(S @ ones).max() < 1e-12


def test_mass_integrates_area():
    # a section without a screen is meshed whole, between its ports at -+0.6
    mesh = build_mesh(ScreenSection(0.6, None), h=0.17)
    S, M = assemble_stiffness_mass(mesh)
    ones = np.ones(M.shape[0])
    assert ones @ (M @ ones) == pytest.approx(2.0 * 0.6 * 1.0, rel=1e-13)


def test_mass_integrates_quadratics_exactly():
    # P2 interpolation of z*y is exact, and so is its integral
    mesh = build_mesh(ScreenSection(0.6, None), h=0.23)
    S, M = assemble_stiffness_mass(mesh)
    z, y = mesh.node_xy[:, 0], mesh.node_xy[:, 1]
    # integral of z^2 over |z| <= 0.6 = 2*0.6^3/3
    assert z @ (M @ z) == pytest.approx(2.0 * 0.6 ** 3 / 3.0, rel=1e-12)
    # integral of z*y = 0 by symmetry
    assert z @ (M @ y) == pytest.approx(0.0, abs=1e-13)


def test_assemble_combines_linearly_in_kappa_squared():
    mesh = build_mesh(ScreenSection(0.55, None), h=0.25)
    S, M = assemble_stiffness_mass(mesh)
    for kappa in (0.5, 1.0, 2.0):
        A = assemble(mesh, kappa).matrix
        diff = (A - (S - kappa ** 2 * M)).toarray()
        assert np.abs(diff).max() < 1e-14


@pytest.mark.parametrize("geom", [
    ScreenSection(0.3, ((0.1, 0.13), (0.49, 0.51))),
    ScreenSection(0.3, ((0.49, 0.51),)),
])
def test_one_pass_assembly_equals_stiffness_minus_mass(geom):
    mesh = build_mesh(geom, h=0.08)
    S, M = assemble_stiffness_mass(mesh)
    kappa = 0.8 * math.pi
    A = assemble(mesh, kappa).matrix
    ref = (S - kappa ** 2 * M).toarray()
    assert len(np.unique(mesh.node_xy, axis=0)) < mesh.n_nodes  # seams present
    assert np.abs(A.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()


def element_matrices_loop(mesh):
    """Stiffness and mass of one triangle at a time, from the six-point rule:
    grad lambda from the inverse Jacobian, no reference tensors."""
    N = shape_values(_QP_BARY)                   # (q, 6)
    G = _shape_grads_bary(_QP_BARY)              # (q, 6, 3)
    stiff, mass = [], []
    for tri in mesh.triangles:
        p1, p2, p3 = mesh.node_xy[tri]
        jac = np.column_stack([p2 - p1, p3 - p1])
        area = 0.5 * abs(np.linalg.det(jac))
        g23 = np.linalg.inv(jac)                 # rows: grad lambda_2, grad lambda_3
        glam = np.vstack([-g23.sum(axis=0), g23])
        S, M = np.zeros((6, 6)), np.zeros((6, 6))
        for q, w in enumerate(_QP_W):
            grad = G[q] @ glam                   # (6, 2) shape gradients
            S += w * area * grad @ grad.T
            M += w * area * np.outer(N[q], N[q])
        stiff.append(S.ravel())
        mass.append(M.ravel())
    return np.array(stiff), np.array(mass)


def test_element_contraction_matches_per_triangle_quadrature():
    # a graded half-section: tip webs shrink to 1/16 of the slit's half-width
    mesh = _half_section(((0.2, 0.25), (0.6, 0.62)), 0.04, 0.3)
    tri_dofs, Se, Me = _element_matrices(mesh)
    S_loop, M_loop = element_matrices_loop(mesh)
    assert np.array_equal(tri_dofs[:, :3], mesh.triangles)
    for got, want in ((Se, S_loop), (Me, M_loop)):
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.max(np.abs(got - want) / scale) <= 1e-13


def test_assembly_matches_the_blas_product_form():
    # the element stiffness was once metric @ _K_REF
    mesh = _half_section(((0.2, 0.25), (0.6, 0.62)), 0.04, 0.3)
    kappa = 0.8 * math.pi
    tri_dofs, _, Me = _element_matrices(mesh)
    area, glam = _element_geometry(mesh)
    metric = np.einsum("tad,tbd->tab", glam, glam).reshape(-1, 9) * area[:, None]
    ref = _to_csr(tri_dofs, mesh.n_nodes, metric @ _K_REF - kappa ** 2 * Me)
    A = assemble(mesh, kappa).matrix
    assert abs(A - ref).max() <= 1e-13 * abs(ref).max()


def test_assembled_matrix_is_complex_symmetric():
    geom = WaveguideGeometry2D(
        0.6, 1.2, ((0.49, 0.51),), ((0.49, 0.51),))
    mesh = build_mesh(geom, h=0.08)
    A = assemble(mesh, 2.0).matrix
    assert np.abs((A - A.T).toarray()).max() < 1e-13


def test_closed_screen_decouples_sheets():
    mesh = build_mesh(ScreenSection(0.3, ()), h=0.25)
    A = assemble(mesh, 1.0).matrix
    # the coincident face copies of the closed screen
    order = np.lexsort(mesh.node_xy.T[::-1])
    same = np.all(np.diff(mesh.node_xy[order], axis=0) == 0.0, axis=1)
    pairs = np.column_stack([order[:-1][same], order[1:][same]])
    assert len(pairs) > 0
    for a, b in pairs:
        assert A[a, b] == 0.0
        assert A[b, a] == 0.0


def test_solve_manufactured_solution():
    mesh = build_mesh(ScreenSection(0.55, None), h=0.2)
    S, M = assemble_stiffness_mass(mesh)
    matrix = (S + M).astype(np.complex128).tocsr()  # positive definite
    rng = np.random.default_rng(11)
    x = rng.standard_normal(matrix.shape[0]) + 1j * rng.standard_normal(matrix.shape[0])
    system = SparseComplexSystem(matrix=matrix, rhs=matrix @ x)
    sol = solve_linear(system)
    assert np.abs(sol - x).max() < 1e-9


def test_solve_logs_sizes_fill_and_residual(caplog):
    mesh = build_mesh(ScreenSection(0.55, None), h=0.25)
    system = assemble(mesh, 1.0)
    system.rhs[0] = 1.0
    with caplog.at_level(logging.INFO, logger="screenguide.fem"):
        solve_linear(system)
    assert re.search(r"solved \d+ dofs, nnz\(A\) \d+, LU fill \d+, residual \S+",
                      caplog.text)


def test_solve_zero_rhs_returns_zero():
    mesh = build_mesh(ScreenSection(0.55, None), h=0.25)
    system = assemble(mesh, 1.0)
    sol = solve_linear(system)
    assert np.all(sol == 0.0)


def test_solve_reports_singular_system():
    n = 4
    matrix = sp.csr_matrix(np.diag([1.0, 1.0, 1.0, 0.0]).astype(np.complex128))
    system = SparseComplexSystem(matrix=matrix, rhs=np.ones(n, dtype=np.complex128))
    with pytest.raises(NumericalError):
        solve_linear(system)


def test_dof_map_spans_all_nodes():
    geom = WaveguideGeometry2D(0.6, 1.2, ((0.49, 0.51),), ((0.49, 0.51),))
    mesh = build_mesh(geom, h=0.1)
    tri_dofs = np.hstack([mesh.triangles, mesh.tri_midnodes])
    assert mesh.n_nodes == len(mesh.node_xy)
    assert tri_dofs.shape == (len(mesh.triangles), 6)
    assert set(tri_dofs.flatten()) == set(range(mesh.n_nodes))
