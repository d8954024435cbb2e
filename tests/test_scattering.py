"""Unit tests for the modal transparent boundaries and coefficient extraction."""

import dataclasses
import io
import logging
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from screenguide import (
    ModalBasis,
    NumericalError,
    ScatteringResult,
    ScreenSection,
    UnsupportedRegimeError,
    WaveguideGeometry2D,
    assemble,
    build_mesh,
    export_field,
    modal_rates,
    solve_linear,
    solve_scattering,
    write_field_table,
)
from screenguide.scattering import (
    _boundary_edges,
    _bordered,
    _couple_faces,
    _even_modes,
    _modal_extension,
    _sample_grid,
    _section_field,
    _strip_faces,
    _trace_loads,
    _transverse_modes,
    attach_dtn_and_rhs,
)
from screenguide.meshing import (SECTION_HALF_WIDTH, TAG_APERTURE, TAG_GAMMA_MINUS, TAG_GAMMA_PLUS,
                                 TAG_GAP_PLUS, _half_section)

KAPPA = 0.8 * math.pi
EPS = 0.02


def centered(L, Z=1.6, eps=EPS):
    hole = ((0.5 - eps / 2.0, 0.5 + eps / 2.0),)
    return WaveguideGeometry2D(L, Z, hole, hole)


# ---------------------------------------------------------------------------
# modal rates and basis
# ---------------------------------------------------------------------------

def test_modal_rates_values():
    basis = modal_rates(KAPPA, 3)
    assert basis.gammas[0] == pytest.approx(-1j * KAPPA, abs=1e-15)
    assert basis.gammas[1] == pytest.approx(0.6 * math.pi, abs=1e-13)
    assert basis.gammas[2] == pytest.approx(
        math.sqrt(4.0 * math.pi ** 2 - KAPPA ** 2), rel=1e-15)


def test_energy_residual_follows_R_and_T():
    # |0.6|^2 + |0.8i|^2 = 1 up to rounding; the residual is read from R and
    # T, not set beside them
    r = ScatteringResult(R=0.6 + 0.0j, T=0.8j, amplitude_mid=0j,
                         basis=modal_rates(KAPPA, 1), L=0.6)
    assert r.energy_residual <= 4 * np.finfo(float).eps
    r.T = 0.5j
    assert r.energy_residual == pytest.approx(0.39, rel=1e-14)


def test_modal_rates_rejects_multimode_band():
    for kappa in (math.pi, 3.5, 0.0, -1.0):
        with pytest.raises(UnsupportedRegimeError):
            modal_rates(kappa, 5)
    with pytest.raises(ValueError):
        modal_rates(1.0, 0)


def test_basis_functions_are_neumann_cosines():
    y = np.linspace(0.0, 1.0, 7)
    phi = _transverse_modes(modal_rates(KAPPA, 4), y)
    assert phi.shape == (4, 7)
    np.testing.assert_allclose(phi[0], np.ones_like(y), atol=1e-15)
    for n in (1, 2, 3):
        np.testing.assert_allclose(
            phi[n], math.sqrt(2.0) * np.cos(n * math.pi * y), atol=1e-14)


def test_basis_orthonormal_under_edge_quadrature():
    # composite Gauss rule over edge-sized segments reproduces the
    # continuous orthonormality of the cosine basis on (0, height): the
    # whole guide's 15 modes, and its 8 even ones on the lower half
    gx, gw = np.polynomial.legendre.leggauss(10)
    for basis in (modal_rates(KAPPA, 15), _even_modes(modal_rates(KAPPA, 15))):
        N = basis.n_modes
        edges = np.linspace(0.0, basis.height, 27)
        G = np.zeros((N, N))
        for a, b in zip(edges[:-1], edges[1:]):
            y = 0.5 * (a + b) + 0.5 * (b - a) * gx
            w = 0.5 * (b - a) * gw
            phi = _transverse_modes(basis, y)
            for m in range(N):
                for n in range(m, N):
                    v = np.sum(w * phi[m] * phi[n])
                    G[m, n] += v
                    if n != m:
                        G[n, m] += v
        np.testing.assert_allclose(G, np.eye(N), atol=1e-10)


# ---------------------------------------------------------------------------
# bordered modal faces and load vector
# ---------------------------------------------------------------------------

def _port_trace(L):
    """E = e^{-i kappa (Zp - L)}, the incident trace at the left port."""
    return np.exp(-1j * KAPPA * (centered(L).port_half_length - L))


@pytest.mark.parametrize("L", [0.6, None], ids=["gap", "no-gap"])
def test_eliminating_port_amplitudes_gives_dtn_block_and_load(L):
    # on a whole section (L None: ScreenSection(0.3), incident wave E
    # referenced at its screen, both ports bordered), the Schur complement of
    # the port unknowns c-, c+ (their matching rows) is the dense
    # Dirichlet-to-Neumann form: sum_n gamma_n B_n^T B_n on each port and the
    # load -2 i kappa E B_0 on the left one.  On a strip with no right screen,
    # the odd part of the left section meets outgoing waves through both of
    # its faces: eliminating every amplitude leaves the same form on its
    # meshed face and half the piston's load, on the nodes off the apertures
    hole = ((0.5 - EPS / 2.0, 0.5 + EPS / 2.0),)
    gap = L is not None
    geom = WaveguideGeometry2D(L, 1.6, hole, None) if gap else ScreenSection(0.3, hole)
    mesh = build_mesh(geom, h=0.08)
    basis = modal_rates(KAPPA, 15)
    system = assemble(mesh, KAPPA)
    expected = system.matrix.copy()
    n, N = mesh.n_nodes, basis.n_modes
    if gap:
        attach_dtn_and_rhs(system, mesh, basis, L)
    else:
        one = np.ones(N)
        ports = [(TAG_GAMMA_MINUS, -1.0, [(None, -1.0, one), (0, 1.0, one)]),
                 (TAG_GAMMA_PLUS, 1.0, [(1, -1.0, one)])]
        system = _bordered(system, mesh, basis, ports, [], np.exp(-0.3j * KAPPA) * np.eye(N, 1))
        system.rhs = system.rhs[:, 0]
    A, f = system.matrix.tocsr(), system.rhs
    assert len(f) == n + (4 if gap else 2) * N
    m = np.setdiff1d(np.arange(n), _boundary_edges(mesh, TAG_APERTURE))
    c = np.arange(n, len(f))
    inv = np.linalg.inv(A[c][:, c].toarray())
    schur = A[m][:, m] - A[m][:, c] @ sp.csr_matrix(inv) @ A[c][:, m]
    load = f[m] - A[m][:, c] @ (inv @ f[c])

    expected_load = np.zeros(n, dtype=np.complex128)
    for tag in (TAG_GAMMA_MINUS,) if gap else (TAG_GAMMA_MINUS, TAG_GAMMA_PLUS):
        sup, B = _trace_loads(mesh, _boundary_edges(mesh, tag), basis)
        block = (B.T * basis.gammas) @ B
        expected = expected + sp.coo_matrix(
            (block.ravel(), (np.repeat(sup, len(sup)), np.tile(sup, len(sup)))), shape=(n, n))
        if tag == TAG_GAMMA_MINUS:
            E = _port_trace(L) if gap else np.exp(-0.3j * KAPPA)
            expected_load[sup] = -2j * KAPPA * (0.5 if gap else 1.0) * E * B[0]
    assert len(m) < n if gap else len(m) == n
    assert abs(schur - expected.tocsr()[m][:, m]).max() <= 1e-12
    assert np.abs(load - expected_load[m]).max() <= 1e-12


def test_piston_load_vector_weights():
    # row 0 of the mode load matrix carries the P2 trace weights l/6, 4l/6
    geom = centered(0.6)
    mesh = build_mesh(geom, h=0.08)
    basis = modal_rates(KAPPA, 15)
    sup, B = _trace_loads(mesh, _boundary_edges(mesh, TAG_GAMMA_MINUS), basis)
    weights = dict(zip(sup, B[0]))
    acc = {}
    for (a, b, m), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag != TAG_GAMMA_MINUS:
            continue
        ell = abs(mesh.node_xy[b, 1] - mesh.node_xy[a, 1])
        acc[a] = acc.get(a, 0.0) + ell / 6.0
        acc[b] = acc.get(b, 0.0) + ell / 6.0
        acc[m] = acc.get(m, 0.0) + 4.0 * ell / 6.0
    assert set(acc) == set(sup.tolist())
    for node, w in acc.items():
        assert weights[node] == pytest.approx(w, rel=1e-12)
    # piston weights integrate the constant: total = guide height
    assert B[0].sum() == pytest.approx(1.0, rel=1e-12)
    # higher modes integrate the constant to zero
    np.testing.assert_allclose(B[1:] @ np.ones(len(sup)), 0.0, atol=1e-12)


def test_attach_rejects_an_L_other_than_the_mesh_screens():
    # the incident phase is taken from L: another L would load a wrong one
    mesh = build_mesh(centered(0.6), h=0.08)
    basis = modal_rates(KAPPA, 15)
    with pytest.raises(ValueError, match="screen half-distance"):
        attach_dtn_and_rhs(assemble(mesh, KAPPA), mesh, basis, 0.61)


def test_rhs_lives_on_the_incidence_boundary_only():
    # the incident piston, E on the left port, splits evenly into the left
    # section's mirror parts: the odd part loads the meshed face's rows with
    # half its flux and its matching row of mode 0, the first unknown past
    # the mesh nodes, with E/2; the even part loads its exact row of mode 0,
    # after both faces' rows, with e^{-2 gamma_0 d} E/2
    geom = centered(0.6)
    mesh = build_mesh(geom, h=0.08)
    basis = modal_rates(KAPPA, 15)
    system = assemble(mesh, KAPPA)
    attach_dtn_and_rhs(system, mesh, basis, L=0.6)
    sup, _ = _trace_loads(mesh, _boundary_edges(mesh, TAG_GAMMA_MINUS), basis)
    n, N = mesh.n_nodes, basis.n_modes
    assert len(system.rhs) == n + 4 * N
    nz = np.nonzero(system.rhs)[0]
    assert set(nz.tolist()) <= set(sup.tolist()) | {n, n + 2 * N}
    assert len(nz) > 2
    assert system.rhs[n] == 0.5 * _port_trace(0.6)
    assert system.rhs[n + 2 * N] == pytest.approx(
        np.exp(2j * KAPPA * SECTION_HALF_WIDTH) * 0.5 * _port_trace(0.6), abs=1e-15)


def _brute_force_projection(mesh, u, tag, n_modes):
    """Mode amplitudes (u, phi_k) of the trace of u on the faces ``tag``,
    integrated edge by edge with a 20-point Gauss rule on the P2 trace
    written as a Lagrange quadratic."""
    gx, gw = np.polynomial.legendre.leggauss(20)
    c = np.zeros(n_modes, dtype=np.complex128)
    for a, b, m in _boundary_edges(mesh, tag):
        ya, yb = mesh.node_xy[a, 1], mesh.node_xy[b, 1]
        ym = 0.5 * (ya + yb)
        y = ym + 0.5 * (yb - ya) * gx
        trace = (u[a] * (y - ym) * (y - yb) / ((ya - ym) * (ya - yb))
                 + u[m] * (y - ya) * (y - yb) / ((ym - ya) * (ym - yb))
                 + u[b] * (y - ya) * (y - ym) / ((yb - ya) * (yb - ym)))
        for k in range(n_modes):
            phi = np.ones_like(y) if k == 0 else math.sqrt(2.0) * np.cos(k * math.pi * y)
            c[k] += 0.5 * abs(yb - ya) * np.sum(gw * trace * phi)
    return c


@pytest.mark.parametrize("h", [0.3, 0.04])
def test_trace_loads_match_brute_force_projection(h):
    # random P2 traces on the faces of the half-sections, with the modes a
    # solve uses there: 15 on sections of half-width 0.3 (L 0.6), 45 on those
    # of half-width 0.1 (L 0.1).  A face edge is at most min(h, delta/6)
    # long, where one 10-point rule per edge is exact to rounding
    for L, n_modes in ((0.6, 15), (0.1, 45)):
        mesh = build_mesh(centered(L), h)
        assert solve_scattering(centered(L), KAPPA, h=0.3).basis.n_modes == n_modes
        u = np.array([1.0, 1j]) @ np.random.default_rng(7).standard_normal((2, mesh.n_nodes))
        for tag in (TAG_GAMMA_MINUS, TAG_GAP_PLUS):
            edges = _boundary_edges(mesh, tag)
            longest = np.abs(np.diff(mesh.node_xy[edges[:, :2], 1], axis=1)).max()
            assert longest <= min(h, min(L, SECTION_HALF_WIDTH) / 6.0) * (1.0 + 1e-9)
            sup, B = _trace_loads(mesh, edges, modal_rates(KAPPA, n_modes))
            want = _brute_force_projection(mesh, u, tag, n_modes)
            assert np.abs(B @ u[sup] - want).max() <= 1e-12


def test_face_loads_match_the_blas_product_form():
    # _couple_faces loads the meshed faces by an einsum, which numpy runs
    # without BLAS threads; on a close strip (L 0.05: 90 modes) it equals the
    # product form sum over incident waves of -(flux^T @ incident), for the
    # strip's one incident column and for 90 unit modes
    L, N = 0.05, 90
    geom = centered(L)
    mesh = build_mesh(geom, h=0.3)
    assert solve_scattering(geom, KAPPA, h=0.3).basis.n_modes == N
    basis = modal_rates(KAPPA, N)
    faces, exact = _strip_faces(geom, basis)
    for incident in (_port_trace(L) * np.eye(N, 1), np.eye(N)):
        _, loads = _couple_faces(mesh, basis, faces, exact, incident)
        want = np.zeros((mesh.n_nodes, incident.shape[1]), dtype=np.complex128)
        for tag, normal, waves in faces:
            sup, B = _trace_loads(mesh, _boundary_edges(mesh, tag), basis)
            for j, q, f in waves:
                if j is None:
                    want[sup] -= ((-normal * q * basis.gammas * f)[:, None] * B).T @ incident
        assert np.abs(want).max() > 0.0
        assert np.abs(loads[:mesh.n_nodes] - want).max() <= 1e-13 * np.abs(want).max()


def stepwise_bordered_matrix(system, mesh, basis, faces, exact, incident):
    """The bordered matrix of :func:`_bordered` built step by step: the
    system resized, the coupling added in CSR, the aperture rows and columns
    zeroed and a unit diagonal added there."""
    coupling, _ = _couple_faces(mesh, basis, faces, exact, incident)
    matrix = system.matrix.copy()
    matrix.resize(coupling.shape)
    matrix = (matrix + coupling.tocsr()).tocsr()
    fixed = np.zeros(matrix.shape[0], dtype=bool)
    fixed[_boundary_edges(mesh, TAG_APERTURE).ravel()] = True
    matrix.data[np.repeat(fixed, np.diff(matrix.indptr)) | fixed[matrix.indices]] = 0.0
    matrix.eliminate_zeros()
    return (matrix + sp.diags(fixed.astype(float))).tocsr()


@pytest.mark.parametrize("L", [0.64, 0.2, None], ids=["gap-strip", "touching-strip",
                                                       "half-section"])
def test_bordered_matrix_matches_the_stepwise_construction(L):
    # _bordered builds its CSC matrix in one pass from the triplets; on two
    # strips with apertures and on the half-section screen_smatrix factors
    # it has the pattern and, to the order of duplicate sums, the values of
    # the stepwise construction
    holes = ((0.09, 0.11),)
    if L is None:
        mesh = _half_section(holes + ((0.47, 0.53),), 0.04, SECTION_HALF_WIDTH)
        basis, incident = modal_rates(KAPPA, 15), np.eye(15)
        one = np.ones(15)
        faces, exact = [(TAG_GAMMA_MINUS, -1.0, [(None, -1.0, one), (0, 1.0, one)])], []
    else:
        geom = WaveguideGeometry2D(L, L + 1.0, holes, ((0.47, 0.53),))
        mesh = build_mesh(geom, 0.04)
        basis = modal_rates(KAPPA, math.ceil(15 * SECTION_HALF_WIDTH / geom.section_half_width))
        incident = np.eye(basis.n_modes, 1)
        faces, exact = _strip_faces(geom, basis)
    assert len(_boundary_edges(mesh, TAG_APERTURE)) > 0
    got = _bordered(assemble(mesh, KAPPA), mesh, basis, faces, exact, incident).matrix
    want = stepwise_bordered_matrix(assemble(mesh, KAPPA), mesh, basis, faces, exact, incident)
    assert got.format == "csc"
    got = got.tocsr()
    got.sort_indices()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.all(np.abs(got.data - want.data) <= 1e-15 * np.abs(want.data))


def bench_slit(center, width):
    return ((center - 0.5 * width, center + 0.5 * width),)


@pytest.mark.parametrize("L, left, right", [
    (0.64, bench_slit(0.5, 0.02), bench_slit(0.5, 0.02)),
    (0.64, bench_slit(0.5, 1e-4), bench_slit(0.5, 1e-4)),
    (0.64, bench_slit(0.1, 0.02), bench_slit(0.7, 0.02)),
    (0.64, bench_slit(0.5, 0.06), bench_slit(0.5, 0.02)),
    (0.1, ((0.35, 0.65),), ((0.35, 0.65),)),
    (0.66, ((0.001, 0.011),), None),
], ids=["centred", "paper-scale", "off-centre", "unequal", "wide-close", "near-wall"])
def test_symmetric_mode_solve_matches_partial_pivoting(L, left, right):
    # solve_linear factors in SuperLU's symmetric mode at pivot threshold
    # 1.0; on the benchmark's strips, a wide aperture on close screens and a
    # hole 1e-3 from the wall (one screen, to keep it short) it gives the
    # solution of the plain partial-pivoting LU
    geom = WaveguideGeometry2D(L, L + 1.0, left, right)
    basis = modal_rates(KAPPA, math.ceil(15 * SECTION_HALF_WIDTH / geom.section_half_width))
    mesh = build_mesh(geom, 0.04)
    system = attach_dtn_and_rhs(assemble(mesh, KAPPA), mesh, basis, L)
    A = system.matrix.tocsc()
    want = spla.splu(A, permc_spec="MMD_AT_PLUS_A").solve(system.rhs)
    got = solve_linear(system)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_closed_screen_cavity_at_resonance_is_singular():
    # two closed screens 2L = 1.25 apart at kappa 0.8 pi: sin(2 kappa L) = 0,
    # the cavity between them resonates and its modal system is singular
    with pytest.raises(NumericalError, match="exactly singular"):
        solve_scattering(WaveguideGeometry2D(0.625, 1.625, (), ()), KAPPA)


# ---------------------------------------------------------------------------
# end-to-end oracles
# ---------------------------------------------------------------------------

def test_empty_guide_is_pure_phase():
    geom = WaveguideGeometry2D(0.6, 1.6, None, None)
    r = solve_scattering(geom, KAPPA)
    assert abs(r.T) == pytest.approx(1.0, abs=1e-6)
    assert abs(r.R) < 1e-6
    # T = exp(2 i kappa L) in the shifted convention
    assert r.T == pytest.approx(np.exp(2j * KAPPA * 0.6), abs=1e-5)
    assert abs(r.amplitude_mid) == pytest.approx(1.0, abs=1e-6)
    # the trace at z = 0 is the incident wave e^{i kappa L}
    assert r.amplitude_mid == pytest.approx(np.exp(1j * KAPPA * 0.6), abs=1e-6)
    assert r.energy_residual < 1e-12


def test_closed_screens_reflect_everything():
    geom = WaveguideGeometry2D(0.6, 1.6, (), ())
    r = solve_scattering(geom, KAPPA)
    assert abs(r.R) == pytest.approx(1.0, abs=1e-6)
    assert abs(r.T) <= 1e-10
    assert r.energy_residual < 1e-12


@pytest.mark.parametrize("L", [0.45, 0.66])
def test_screens_without_apertures_are_exact_in_the_strip(L, monkeypatch):
    # with the sections apart, a closed screen or none is exact in both of
    # its mirror parts and meshes nothing: the strip of two such screens has
    # no mesh nodes at all, and its R, T and field are the analytic ones
    import screenguide.meshing as meshing

    built = []
    half_section = meshing._half_section_vertices
    monkeypatch.setattr(meshing, "_half_section_vertices",
                        lambda holes, h, delta: built.append(holes) or half_section(holes, h, delta))
    closed = solve_scattering(WaveguideGeometry2D(L, L + 1.0, (), ()), KAPPA, want_field=True)
    empty = solve_scattering(WaveguideGeometry2D(L, L + 1.0, None, None), KAPPA,
                             want_field=True)
    assert built == [] and closed.mesh.n_nodes == 0 and empty.mesh.n_nodes == 0
    assert abs(closed.T) <= 1e-14 and abs(abs(closed.R) - 1.0) <= 1e-14
    assert abs(empty.T - np.exp(2j * KAPPA * L)) <= 1e-14 and abs(empty.R) <= 1e-14
    # the field: the incident wave through the empty guide; nothing right of
    # the first closed screen, and the standing wave |1 + R e^{-2 i kappa (z+L)}|
    # left of it
    grid = (41, 11)
    table = export_field(empty, grid, "scattered_real")
    assert np.abs(table[:, 2]).max() <= 1e-13
    table = export_field(empty, grid, "imag")
    assert np.abs(table[:, 2] - np.sin(KAPPA * (table[:, 0] + L))).max() <= 1e-13
    re, im = (export_field(closed, grid, part) for part in ("real", "imag"))
    zs, u = re[:, 0], re[:, 2] + 1j * im[:, 2]
    right, left = zs > -L + 1e-9, zs < -L - 1e-9
    assert np.abs(u[right]).max() <= 1e-13
    standing = np.exp(1j * KAPPA * (zs + L)) + closed.R * np.exp(-1j * KAPPA * (zs + L))
    assert np.abs(u[left] - standing[left]).max() <= 1e-13
    # one half-section per distinct perforated screen
    hole = ((0.49, 0.51),)
    for left_holes, right_holes, count in ((hole, (), 1), (None, hole, 1), (hole, hole, 1),
                                           (hole, ((0.45, 0.55),), 2)):
        built.clear()
        solve_scattering(WaveguideGeometry2D(L, L + 1.0, left_holes, right_holes), KAPPA,
                         h=0.08)
        assert len(built) == count


def test_transmission_reciprocity():
    # T of a layout equals T of its mirror image z -> -z (holes swapped),
    # which is the layout seen by a wave coming in from the right
    eps = EPS
    a = ((0.1 - eps / 2.0, 0.1 + eps / 2.0),)
    b = ((0.7 - eps / 2.0, 0.7 + eps / 2.0),)
    forward = solve_scattering(WaveguideGeometry2D(0.6, 1.6, a, b), KAPPA)
    mirror = solve_scattering(WaveguideGeometry2D(0.6, 1.6, b, a), KAPPA)
    assert abs(forward.T - mirror.T) < 1e-12
    assert forward.energy_residual < 1e-12
    assert mirror.energy_residual < 1e-12


def test_energy_identity_is_structural():
    # the DtN blocks make |R|^2+|T|^2=1 an algebraic identity of the
    # discrete system, independent of mesh resolution
    for h in (0.16, 0.08):
        r = solve_scattering(centered(0.64), KAPPA, h=h)
        assert r.energy_residual < 1e-12


def test_more_modes_change_nothing():
    a = solve_scattering(centered(0.6), KAPPA, n_modes=15)
    b = solve_scattering(centered(0.6), KAPPA, n_modes=30)
    assert abs(a.T - b.T) < 1e-6
    assert abs(a.R - b.R) < 1e-6


def test_truncation_shift_invariance():
    # the ports are the sections' faces at L + min(L, 0.3) whatever Z, also
    # when Z lies inside them: Z only sets the window of the exported field
    for L in (0.25, 0.6):
        a = solve_scattering(centered(L, Z=L + 0.1), KAPPA)
        b = solve_scattering(centered(L, Z=L + 1.0), KAPPA)
        assert (a.R, a.T, a.amplitude_mid) == (b.R, b.T, b.amplitude_mid)


def test_truncation_past_the_ports_changes_nothing():
    # the ports sit at L + min(L, 0.3) whatever Z, so every Z gives the same solve
    L = 0.6
    runs = [solve_scattering(centered(L, Z=L + dz), KAPPA) for dz in (0.3, 1.0, 2.0)]
    for r in runs[1:]:
        assert (r.R, r.T, r.amplitude_mid) == (runs[0].R, runs[0].T, runs[0].amplitude_mid)


def test_solver_rejects_multimode_kappa():
    with pytest.raises(UnsupportedRegimeError):
        solve_scattering(centered(0.6), math.pi)


def test_amplitude_grows_at_resonance():
    # the center of the resonator is an antinode of the q=2 standing wave
    # (for q=1 it is a node, so the midline amplitude stays small there)
    off = solve_scattering(centered(0.60), KAPPA)
    on_q1 = solve_scattering(centered(0.6922), KAPPA)
    on_q2 = solve_scattering(centered(1.317213, Z=2.4), KAPPA)
    assert abs(on_q1.T) > 0.9
    assert abs(on_q2.T) > 0.9
    assert abs(on_q2.amplitude_mid) > 5.0 * abs(off.amplitude_mid)
    assert abs(on_q1.amplitude_mid) < 2.0 * abs(off.amplitude_mid)


# ---------------------------------------------------------------------------
# field export
# ---------------------------------------------------------------------------

def test_export_field_samples_incident_wave():
    # the ports are at +-0.9; the six columns past them are modal sums
    geom = WaveguideGeometry2D(0.6, 1.6, None, None)
    r = solve_scattering(geom, KAPPA, want_field=True)
    table = export_field(r, (13, 5), "real")
    assert table.shape == (13 * 5, 3)
    zs, ys, vals = table[:, 0], table[:, 1], table[:, 2]
    expected = np.cos(KAPPA * (zs + 0.6))
    np.testing.assert_allclose(vals, expected, atol=5e-3)
    # the scattered part is tiny for the empty guide
    scat = export_field(r, (13, 5), "scattered_real")
    assert np.abs(scat[:, 2]).max() < 5e-3


def test_export_field_marks_closed_screens():
    geom = WaveguideGeometry2D(0.5, 1.0, (), ())
    r = solve_scattering(geom, KAPPA, want_field=True)
    table = export_field(r, (9, 5), "imag")
    zs, vals = table[:, 0], table[:, 2]
    on_screen = np.isclose(np.abs(zs), 0.5)
    assert np.all(np.isnan(vals[on_screen]))
    assert not np.any(np.isnan(vals[~on_screen]))


def test_modal_sum_continues_the_mesh_field_at_the_ports():
    # the rebuilt section field and the 15-mode sum beyond the ports are the
    # same field up to the modal tail of the odd part's P2 trace: measured
    # 1.43e-5 here at h 0.04 (2.0e-6 at h 0.02); the bound is twice the
    # h 0.04 value
    r = solve_scattering(centered(0.6), KAPPA, want_field=True)
    Zp = r.mesh.geometry.port_half_length
    zs, ys = np.array([-Zp, Zp]), np.linspace(0.0, 1.0, 101)
    gap = np.abs(_section_field(r, zs, ys) - _modal_extension(r, zs, ys)).max()
    print(f"\nport-line gap {gap:.2e}")
    assert gap <= 3e-5


def test_mirror_half_meets_the_gap_modal_sum():
    # on the inner faces z = -a (the left section's mirror face) and z = +a
    # (the right one's meshed face) the rebuilt field and the gap's modal sum
    # have the same mode amplitudes, integrated by a 10-point Gauss rule on
    # each face edge, exact for P2 traces; pointwise they differ by the modal
    # tail of the odd part's P2 trace, 1.43e-5 at h 0.04, bound twice that
    r = solve_scattering(centered(0.6), KAPPA, want_field=True)
    mesh, N = r.mesh, r.basis.n_modes
    a = mesh.geometry.gap_half_length
    gx, gw = np.polynomial.legendre.leggauss(10)
    for z, tag in ((-a, TAG_GAMMA_MINUS), (a, TAG_GAP_PLUS)):
        edges = _boundary_edges(mesh, tag)             # the y-partition of both faces
        y0, y1 = mesh.node_xy[edges[:, 0], 1], mesh.node_xy[edges[:, 1], 1]
        yq = (0.5 * (y0 + y1)[:, None] + 0.5 * (y1 - y0)[:, None] * gx).ravel()
        wq = (0.5 * np.abs(y1 - y0)[:, None] * gw).ravel()
        field = np.array([_section_field(r, np.array([z]), np.array([y]))[0, 0] for y in yq])
        got = _transverse_modes(r.basis, yq) @ (wq * field)
        ea, eb = np.array([_gap_axial(r, k, np.array([z])) for k in range(N)])[:, :, 0].T
        want = r.field[-2 * N:-N] * ea + r.field[-N:] * eb
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        ys = np.linspace(0.0, 1.0, 101)
        gap = np.abs(_section_field(r, np.array([z]), ys) - _modal_extension(r, np.array([z]), ys))
        assert gap.max() <= 3e-5


def test_field_is_continuous_across_the_apertures():
    # the odd part vanishes on an aperture, so the rebuilt field on either
    # side of it differs by 2 |u_odd(s - dz)| = O(dz): 2.0e-7 at dz 1e-9
    hole = ((0.45, 0.55),)
    r = solve_scattering(WaveguideGeometry2D(0.6, 1.6, hole, ((0.49, 0.51),)), KAPPA,
                         want_field=True)
    assert not np.any(r.field[np.unique(_boundary_edges(r.mesh, TAG_APERTURE))])
    for s in r.mesh.geometry.screen_positions:
        (lo, hi), = r.mesh.geometry.holes_of(s)
        ys = np.linspace(lo, hi, 21)
        for dz in (1e-6, 1e-9):
            left, right = _section_field(r, np.array([s - dz, s + dz]), ys)
            assert np.abs(left - right).max() <= 1e3 * dz * np.abs(left).max()


def test_solve_logs_mesh_size_gap_and_modes(caplog):
    # sections of half-width 0.25 < 0.3 take ceil(15 * 0.3 / 0.25) = 18 modes
    for L, gap, N in ((0.6, 0.6, 15), (0.25, 0.0, 18)):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="screenguide.scattering"):
            r = solve_scattering(centered(L), KAPPA, h=0.08, want_field=True)
        (record,) = [x for x in caplog.records if x.name == "screenguide.scattering"]
        assert record.levelno == logging.INFO
        # the modal tail: the larger |c_{N-1}| of the two ports' outgoing waves
        n = r.mesh.n_nodes
        tail = max(abs(r.field[n + N - 1]), abs(r.field[n + 2 * N - 1]))
        assert r.basis.n_modes == N and 0.0 < tail < 1e-6
        assert record.getMessage() == (f"strip solve: {r.mesh.n_nodes} meshed nodes, "
                                       f"gap length {gap:.6g}, {N} modes, modal tail {tail:.2e}")


@pytest.mark.parametrize("L", [0.6, 0.25], ids=["gap", "no-gap"])
def test_amplitude_unknowns_are_the_trace_projections(L):
    # each face's matching rows hold on a real solve: the projections on each
    # section's meshed face F are the odd part (u_F - u_F')/2 of the waves at
    # F and its mirror face F', and the even part's waves leaving F are
    # e^{-2 gamma delta} those entering it, delta = min(L, 0.3); at L 0.25
    # the gap has length 0 and F' of the left section is F of the right one
    r = solve_scattering(centered(L), KAPPA, want_field=True)
    mesh, u, n, N = r.mesh, r.field, r.mesh.n_nodes, r.basis.n_modes

    def projection(tag):
        sup, B = _trace_loads(mesh, _boundary_edges(mesh, tag), r.basis)
        return B @ u[sup]

    incident = _port_trace(L) * np.eye(N)[0]
    c_minus, c_plus = u[n:n + N], u[n + N:n + 2 * N]
    a, delta = mesh.geometry.gap_half_length, mesh.geometry.section_half_width
    assert len(u) == n + 4 * N and (a == 0.0) == (L < SECTION_HALF_WIDTH)
    alpha, beta = u[n + 2 * N:n + 3 * N], u[n + 3 * N:]
    (ea_l, ea_r), (eb_l, eb_r) = (np.array([_gap_axial(r, k, np.array([-a, a]))[i]
                                            for k in range(N)]).T for i in (0, 1))
    wall = np.exp(-2.0 * delta * modal_rates(KAPPA, N).gammas)
    pairs = [(projection(TAG_GAMMA_MINUS), 0.5 * (incident + c_minus - alpha * ea_l - beta * eb_l)),
             (projection(TAG_GAP_PLUS), 0.5 * (alpha * ea_r + beta * eb_r - c_plus)),
             (c_minus + alpha * ea_l, wall * (incident + beta * eb_l)),
             (beta * eb_r + c_plus, wall * alpha * ea_r)]
    for want, got in pairs:
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


# ---------------------------------------------------------------------------
# screens closer than 2 * 0.3: sections of half-width L that touch at z = 0
# ---------------------------------------------------------------------------

def slit(center, width):
    return ((center - 0.5 * width, center + 0.5 * width),)


# R, T and amplitude_mid (h 0.04, Z = L + 1, 15 modes) of the strip meshed
# whole between ports at L + 0.3, with crack seams on both screens: the
# solve of close screens that half-sections of half-width L replaced
CRACK_SEAM_STRIP = {
    "centred": (slit(0.5, 0.02), slit(0.5, 0.02), 0.25,
                0.9269594722101536 - 0.369390174296697j,
                -0.02426637674366661 - 0.06089481893119829j,
                -0.36602216576498575 + 0.08277417177405251j),
    "off-centre": (slit(0.1, 0.02), slit(0.7, 0.02), 0.1,
                   0.9235663640161766 - 0.27928376029264795j,
                   -0.10689282194597662 - 0.23999932731398183j,
                   -1.0440374025680805 + 0.3685844648842545j),
    "unequal": (slit(0.5, 0.06), slit(0.5, 0.02), 0.05,
                -0.05531651338624774 + 0.4550563203223253j,
                -0.6430781759184625 + 0.6134446090225899j,
                4.262640075824604 + 6.77551611693602j),
}


@pytest.mark.parametrize("layout", sorted(CRACK_SEAM_STRIP))
def test_close_screens_match_the_crack_seam_strip(layout):
    # the half-sections keep the discrete problem's exact even parts and a
    # modal tail e^{-gamma_N L} no larger than at 0.3 with 15 modes; the
    # crack-seam strip meshed the even parts too: 1.7e-6 apart at most here
    left, right, L, R, T, amp = CRACK_SEAM_STRIP[layout]
    r = solve_scattering(WaveguideGeometry2D(L, L + 1.0, left, right), KAPPA, h=0.04)
    assert r.basis.n_modes == math.ceil(15 * SECTION_HALF_WIDTH / L)
    assert abs(r.R - R) <= 5e-6 and abs(r.T - T) <= 5e-6
    assert abs(r.amplitude_mid - amp) <= 1e-5 * abs(amp)


def test_close_screens_converge_in_the_mode_count():
    # at L 0.05 the sections take 90 modes; doubling them moves R and T by
    # 5.3e-13 (5e-13 at most on the other two layouts)
    left, right, L, *_ = CRACK_SEAM_STRIP["unequal"]
    geom = WaveguideGeometry2D(L, L + 1.0, left, right)
    a = solve_scattering(geom, KAPPA)
    b = solve_scattering(geom, KAPPA, n_modes=30)
    assert (a.basis.n_modes, b.basis.n_modes) == (90, 180)
    assert abs(a.R - b.R) <= 1e-6 and abs(a.T - b.T) <= 1e-6


@pytest.mark.parametrize("L", [0.1, 0.3])
def test_field_is_continuous_where_the_sections_touch(L):
    # with a = 0 the column z = 0 is the gap's modal sum alpha + beta, and
    # the columns beside it are the two sections rebuilt from their mirror
    # parts: the second difference across it is O(dz^2) plus the modal tail,
    # 2.4e-5 at dz 1.1e-3, against |u| = 2.0 there
    left, right, *_ = CRACK_SEAM_STRIP["off-centre"]
    r = solve_scattering(WaveguideGeometry2D(L, L + 1.0, left, right), KAPPA, want_field=True)
    assert r.mesh.geometry.gap_half_length == 0.0
    nx, ny = 2001, 21
    re, im = (export_field(r, (nx, ny), part) for part in ("real", "imag"))
    u = (re[:, 2] + 1j * im[:, 2]).reshape(nx, ny)
    m = nx // 2
    assert re[m * ny, 0] == 0.0
    assert np.array_equal(u[m], _modal_extension(r, np.array([0.0]), np.linspace(0.0, 1.0, ny))[0])
    assert np.abs(u[m - 1] - 2.0 * u[m] + u[m + 1]).max() <= 1e-4 * np.abs(u[m]).max()


def test_sample_grid_rejects_uneven_grids():
    # two runs of columns with a gap between them: with the step taken from
    # the ends, (-0.7, 0) was reported as not in the mesh, though it is
    result = _random_field_result(centered(0.6), 0.3, seed=5)
    mesh, u, ys = result.mesh, result.field, np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="zs is not increasing and evenly spaced"):
        _sample_grid(mesh, u, np.array([-0.8, -0.7, -0.6, 0.5, 0.6]), ys)
    with pytest.raises(ValueError, match="ys is not increasing and evenly spaced"):
        _sample_grid(mesh, u, np.array([-0.8]), np.array([0.0, 0.5, 0.6]))
    with pytest.raises(ValueError, match="zs is not increasing"):
        _sample_grid(mesh, u, np.array([0.6, 0.5]), ys)
    for run in (np.array([-0.8, -0.7, -0.6]), np.array([0.5, 0.6])):
        assert _sample_grid(mesh, u, run, ys).shape == (3 * len(run),)


def test_export_field_requires_stored_field():
    r = solve_scattering(centered(0.6), KAPPA)
    with pytest.raises(ValueError):
        export_field(r, (5, 5), "real")


def test_export_field_validates_arguments():
    geom = WaveguideGeometry2D(0.6, 1.6, None, None)
    r = solve_scattering(geom, KAPPA, want_field=True)
    with pytest.raises(ValueError):
        export_field(r, (1, 5), "real")
    with pytest.raises(ValueError):
        export_field(r, (5, 5), "modulus")


def _oracle_field(mesh, u, zs, ys):
    """P2 field at the points (zs[k], ys[k]), brute force.

    For each distinct z, every triangle whose z-range holds it is tested at
    every point of that column; a point takes the first triangle holding it
    (the rule of ``_sample_grid``: where two triangles hold a point, their
    barycentric rounding differs) and is evaluated with the P2 shape
    functions written out here.
    """
    xy, tris, mids = mesh.node_xy, mesh.triangles, mesh.tri_midnodes
    a, b, c = xy[tris[:, 0]], xy[tris[:, 1]], xy[tris[:, 2]]
    zlo = np.minimum(np.minimum(a[:, 0], b[:, 0]), c[:, 0]) - 1e-9
    zhi = np.maximum(np.maximum(a[:, 0], b[:, 0]), c[:, 0]) + 1e-9
    vals = np.full(len(zs), np.nan, dtype=np.complex128)
    for z in np.unique(zs):
        col = np.nonzero(zs == z)[0]
        tc = np.nonzero((zlo <= z) & (z <= zhi))[0]
        A, B, C = a[tc], b[tc], c[tc]
        y = ys[col][:, None]
        det = (B[:, 0] - A[:, 0]) * (C[:, 1] - A[:, 1]) - (C[:, 0] - A[:, 0]) * (B[:, 1] - A[:, 1])
        l2 = ((z - A[:, 0]) * (C[:, 1] - A[:, 1]) - (C[:, 0] - A[:, 0]) * (y - A[:, 1])) / det
        l3 = ((B[:, 0] - A[:, 0]) * (y - A[:, 1]) - (z - A[:, 0]) * (B[:, 1] - A[:, 1])) / det
        l1 = 1.0 - l2 - l3
        inside = (l1 >= -1e-10) & (l2 >= -1e-10) & (l3 >= -1e-10)
        held = inside.any(axis=1)
        first = np.argmax(inside, axis=1)
        rows = np.arange(len(col))
        p1, p2, p3 = (np.clip(l[rows, first], 0.0, 1.0) for l in (l1, l2, l3))
        t = tc[first]
        v0, v1, v2 = u[tris[t]].T
        m01, m12, m20 = u[mids[t]].T
        v = (v0 * p1 * (2 * p1 - 1) + v1 * p2 * (2 * p2 - 1) + v2 * p3 * (2 * p3 - 1)
             + 4 * (m01 * p1 * p2 + m12 * p2 * p3 + m20 * p3 * p1))
        vals[col[held]] = v[held]
    return vals


def _modal_oracle(result, zs, ys):
    """The field at the points (zs[k], ys[k]) with |zs[k]| >= Zp, brute force.

    Right of the ports the field is sum_n c+_n phi_n(y) e^{-gamma_n (z - Zp)},
    left of them the incident wave plus sum_n c-_n phi_n(y) e^{gamma_n (z + Zp)},
    with c-, c+ the 2N values past the mesh nodes.
    """
    mesh, u, kappa, L = result.mesh, result.field, result.basis.kappa, result.L
    Zp, n, N = mesh.geometry.port_half_length, mesh.n_nodes, result.basis.n_modes
    gamma = np.sqrt((np.arange(N) * math.pi) ** 2 - kappa ** 2 + 0j)
    gamma[0] = -1j * kappa
    vals = np.full(len(zs), np.nan, dtype=np.complex128)
    for side, c in ((-1.0, u[n:n + N]), (1.0, u[n + N:n + 2 * N])):
        p = np.nonzero(side * zs >= Zp)[0]
        z, y = zs[p], ys[p]
        v = np.exp(1j * kappa * (z + L)) if side < 0.0 else np.zeros(len(p), complex)
        for k in range(N):
            phi = np.ones_like(y) if k == 0 else math.sqrt(2.0) * np.cos(k * math.pi * y)
            v += c[k] * phi * np.exp(-gamma[k] * (side * z - Zp))
        vals[p] = v
    return vals


def _gap_axial(result, k, zs):
    """The axial factors of gap mode k at zs: e^{-gamma_k (z + a)} and
    e^{gamma_k (z - a)} for k >= 1, e^{i kappa z} and e^{-i kappa z} for k = 0."""
    kappa, a = result.basis.kappa, result.mesh.geometry.gap_half_length
    if k == 0:
        return np.exp(1j * kappa * zs), np.exp(-1j * kappa * zs)
    gamma = math.sqrt((k * math.pi) ** 2 - kappa ** 2)
    return np.exp(-gamma * (zs + a)), np.exp(gamma * (zs - a))


def _gap_oracle(result, zs, ys):
    """The field at the points (zs[k], ys[k]) with |zs[k]| <= a, brute force.

    Mode k of the gap field is alpha_k ea_k(z) + beta_k eb_k(z)
    (``_gap_axial``), with alpha, beta the 2N values after the 2N port
    amplitudes.
    """
    u, n, N = result.field, result.mesh.n_nodes, result.basis.n_modes
    vals = np.zeros(len(zs), dtype=np.complex128)
    for k in range(N):
        ea, eb = _gap_axial(result, k, zs)
        phi = np.ones_like(ys) if k == 0 else math.sqrt(2.0) * np.cos(k * math.pi * ys)
        vals += (u[n + 2 * N + k] * ea + u[n + 3 * N + k] * eb) * phi
    return vals


def _section_oracle(result, zs, ys):
    """The field at the points (zs[k], ys[k]) with a <= |zs[k]| <= Zp and
    zs[k] != 0, brute force, from the mirror parts of the section of
    half-width d = min(L, 0.3) around the screen at s.

    The waves entering the left section through its face F at s - d are the
    incident piston (E e_0 with E = e^{-i kappa d}), and, mirrored from F' at
    s + d, the gap's beta; the right section has only alpha entering, through
    F.  A wave at F' counts with +1/2 in the even part and -1/2 in the odd
    part, one at F with 1/2.  At z = s - t the even part is
    sum_k phi_k in_k (e^{-gamma_k (d - t)} + e^{-gamma_k (d + t)}), and so is
    the odd part of a closed screen, with a minus sign when there is no
    screen; the odd part of a screen with apertures is the P2 field at z.
    Right of the screen (z = s + t) the odd part changes sign.
    """
    mesh, u, kappa, L = result.mesh, result.field, result.basis.kappa, result.L
    geom, n, N = mesh.geometry, mesh.n_nodes, result.basis.n_modes
    a, d = geom.gap_half_length, geom.section_half_width
    gamma = np.sqrt((np.arange(N) * math.pi) ** 2 - kappa ** 2 + 0j)
    gamma[0] = -1j * kappa
    alpha, beta = u[n + 2 * N:n + 3 * N], u[n + 3 * N:]
    ea = np.array([_gap_axial(result, k, np.array([a]))[0][0] for k in range(N)])
    eb = np.array([_gap_axial(result, k, np.array([-a]))[1][0] for k in range(N)])
    E = np.exp(-1j * kappa * d)
    entering = {-L: (E * np.eye(N)[0], beta * eb), L: (alpha * ea, np.zeros(N))}
    vals = np.zeros(len(zs), dtype=np.complex128)
    for s in (-L, L):
        on = (zs < 0.0) == (s < 0.0)
        z, y, holes = zs[on], ys[on], geom.holes_of(s)
        t = np.abs(z - s)
        at_f, at_f_mirror = entering[s]
        for p in (1.0, -1.0):
            sign = np.where(z > s, p, 1.0)
            if p < 0.0 and holes:
                vals[on] += sign * _oracle_field(mesh, u, s - t, y)
                continue
            r = 1.0 if p > 0.0 or holes == () else -1.0
            into = 0.5 * (at_f + p * at_f_mirror)
            for k in range(N):
                phi = np.ones_like(y) if k == 0 else math.sqrt(2.0) * np.cos(k * math.pi * y)
                vals[on] += sign * into[k] * phi * (np.exp(-gamma[k] * (d - t))
                                                    + r * np.exp(-gamma[k] * (d + t)))
    return vals


def _random_field_result(geom, h, seed):
    """A random field on the mesh of ``geom``, with random port and gap
    amplitudes."""
    mesh, n_modes = build_mesh(geom, h), 15
    rng = np.random.default_rng(seed)
    size = mesh.n_nodes + 4 * n_modes
    u = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return ScatteringResult(R=0j, T=0j, amplitude_mid=0j, basis=modal_rates(KAPPA, n_modes),
                            L=geom.screen_half_distance, field=u, mesh=mesh)


def _check_against_oracle(result, grid):
    """Points past the ports against ``_modal_oracle``, points in the gap
    (and on z = 0, the gap's face where the sections touch) against
    ``_gap_oracle``, and the points between, a <= |z| <= Zp, against
    ``_section_oracle``; returns the crack mask of the points between."""
    geom = result.mesh.geometry
    real = export_field(result, grid, "real")
    imag = export_field(result, grid, "imag")
    zs, ys = real[:, 0], real[:, 1]
    beyond = np.abs(zs) > geom.port_half_length
    gap = (np.abs(zs) < geom.gap_half_length) | (zs == 0.0)
    for cols, oracle in ((beyond, _modal_oracle), (gap, _gap_oracle)):
        if not np.any(cols):
            continue
        modal = oracle(result, zs[cols], ys[cols])
        assert np.abs(real[cols, 2] - modal.real).max(initial=0.0) <= 1e-12
        assert np.abs(imag[cols, 2] - modal.imag).max(initial=0.0) <= 1e-12
    between = ~beyond & ~gap
    real, imag, zs, ys = real[between], imag[between], zs[between], ys[between]
    # crack points: on a screen line and not strictly inside an aperture
    crack = np.zeros(len(zs), dtype=bool)
    for s in geom.screen_positions:
        holes = geom.holes_of(s)
        if holes is None:
            continue
        open_ = np.zeros(len(zs), dtype=bool)
        for lo, hi in holes:
            open_ |= (ys > lo + 1e-9) & (ys < hi - 1e-9)
        crack |= (np.abs(zs - s) <= 1e-9) & ~open_
    assert np.all(np.isnan(real[crack, 2])) and np.all(np.isnan(imag[crack, 2]))
    expected = _section_oracle(result, zs[~crack], ys[~crack])
    assert not np.any(np.isnan(expected))
    assert np.abs(real[~crack, 2] - expected.real).max(initial=0.0) <= 1e-12
    assert np.abs(imag[~crack, 2] - expected.imag).max(initial=0.0) <= 1e-12
    return crack


@pytest.mark.parametrize("h", [0.3, 0.04])
@pytest.mark.parametrize("holes", [((0.49, 0.51),), (), ((0.2, 0.6),), None],
                         ids=["centred", "closed", "wide", "empty"])
def test_export_field_matches_brute_force_oracle(holes, h):
    # 321 x 101 over Z 1.6 has a 0.01 spacing, so sample points fall on mesh
    # vertices, on edges, on both screen lines, on the ports, on the inner
    # faces (at +-0.3 for L 0.6, at 0 for L 0.25) and on the mirror points of
    # the half-sections; the columns past the ports and inside the gap are
    # modal sums
    for L in (0.6, 0.25):
        result = _random_field_result(WaveguideGeometry2D(L, 1.6, holes, holes), h, seed=5)
        crack = _check_against_oracle(result, (321, 101))
        assert np.any(crack) == (holes is not None)


def test_export_field_reports_point_outside_mesh():
    result = _random_field_result(centered(0.6), 0.3, seed=5)
    mesh = result.mesh
    xy = mesh.node_xy[mesh.triangles]
    area = np.abs((xy[:, 1, 0] - xy[:, 0, 0]) * (xy[:, 2, 1] - xy[:, 0, 1])
                  - (xy[:, 2, 0] - xy[:, 0, 0]) * (xy[:, 1, 1] - xy[:, 0, 1]))
    gone = int(np.argmax(area))   # big enough to hold grid points inside
    holed = dataclasses.replace(mesh, triangles=np.delete(mesh.triangles, gone, axis=0),
                                tri_midnodes=np.delete(mesh.tri_midnodes, gone, axis=0))
    with pytest.raises(NumericalError):
        export_field(dataclasses.replace(result, mesh=holed), (321, 101), "real")


def test_export_field_matches_oracle_on_random_grids_and_slits():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=20, deadline=None)
    @hyp.given(nx=st.integers(2, 80), ny=st.integers(2, 80),
               centre=st.floats(0.15, 0.85), width=st.floats(0.005, 0.2))
    # a grid point at z = -0.6 inside the aperture that two tip-web triangles
    # hold: taking different ones of the two gave a 1.45e-12 gap
    @hyp.example(nx=17, ny=49, centre=0.294921875, width=0.0078125)
    def check(nx, ny, centre, width):
        hole = ((centre - width / 2.0, centre + width / 2.0),)
        result = _random_field_result(WaveguideGeometry2D(0.6, 1.6, hole, hole), 0.3, seed=nx)
        _check_against_oracle(result, (nx, ny))

    check()


def test_write_field_table_format():
    geom = WaveguideGeometry2D(0.5, 1.0, (), ())
    r = solve_scattering(geom, KAPPA, want_field=True)
    table = export_field(r, (9, 3), "real")
    buf = io.StringIO()
    write_field_table(table, buf)
    blocks = buf.getvalue().strip("\n").split("\n\n")
    assert len(blocks) == 9  # one block per z-line
    assert "nan" in buf.getvalue()
    first = blocks[0].splitlines()[0].split()
    assert len(first) == 3
    float(first[0]), float(first[1]), float(first[2])
