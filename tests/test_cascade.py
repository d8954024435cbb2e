"""Screen S-matrices and their cascade, checked against the strip solve."""

import math

import numpy as np
import pytest

from screenguide import (
    NumericalError,
    ScreenSection,
    ScreenSMatrix,
    SparseComplexSystem,
    WaveguideGeometry2D,
    assemble,
    build_mesh,
    cascade,
    modal_rates,
    parse_config,
    run_sweep,
    screen_smatrix,
    solve_linear,
    solve_scattering,
    validate_mesh,
)
from screenguide.meshing import TAG_GAMMA_MINUS, TAG_GAMMA_PLUS, _half_section
from screenguide.scattering import (SECTION_HALF_WIDTH, ModalBasis, _bordered, _couple_faces,
                                   _even_modes, _guide_basis)

KAPPA = 0.8 * math.pi


def slit(center, width):
    return ((center - 0.5 * width, center + 0.5 * width),)


LAYOUTS = {
    "centred": (slit(0.5, 0.02), slit(0.5, 0.02)),
    "off-centre": (slit(0.1, 0.02), slit(0.7, 0.02)),
    "unequal": (slit(0.5, 0.06), slit(0.5, 0.02)),
    "paper-scale": (slit(0.5, 1e-4), slit(0.5, 1e-4)),
    "closed": ((), ()),
    "empty": (None, None),
}


def strip_basis(holes, n_modes=15):
    """The basis of the strip of two ``holes`` screens, as a sweep passes it
    to :func:`screen_smatrix`: the lower half of the guide when ``holes``
    is mirror-symmetric about y = 1/2 (:func:`_guide_basis`)."""
    return _guide_basis(WaveguideGeometry2D(1.0, 2.0, holes, holes), modal_rates(KAPPA, n_modes))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_cascade_matches_full_strip(layout):
    # for L > d the strip meshes the odd half-sections that screen_smatrix
    # factors and keeps the even parts exact: it solves the cascade's discrete
    # problem, so the two agree to rounding (to 1e-6 when the strip meshed
    # whole sections)
    left, right = LAYOUTS[layout]
    a = screen_smatrix(left, modal_rates(KAPPA, 15), h=0.04)
    b = a if right == left else screen_smatrix(right, modal_rates(KAPPA, 15), h=0.04)
    for L in (0.45, 0.66):
        fast = cascade(a, b, L)
        full = solve_scattering(WaveguideGeometry2D(L, L + 1.0, left, right), KAPPA, h=0.04)
        for x, y in ((fast.R, full.R), (fast.T, full.T),
                     (fast.amplitude_mid, full.amplitude_mid)):
            assert abs(x - y) <= 1e-10
        assert fast.energy_residual <= 1e-12


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_strip_is_the_cascade_where_the_sections_touch(layout):
    # at L = d the sections touch at z = 0 and the gap has length 0: the
    # strip still solves the discrete problem of the cascade on its guide
    # height, 1.5e-13 apart, so sweep rows are continuous across L = d
    left, right = LAYOUTS[layout]
    L = SECTION_HALF_WIDTH
    geom = WaveguideGeometry2D(L, L + 1.0, left, right)
    basis = _guide_basis(geom, modal_rates(KAPPA, 15))
    a = screen_smatrix(left, basis, h=0.04)
    b = a if right == left else screen_smatrix(right, basis, h=0.04)
    fast = cascade(a, b, L)
    strip = solve_scattering(geom, KAPPA, h=0.04)
    assert (strip.basis.height, strip.basis.n_modes) == (basis.height, basis.n_modes)
    for x, y in ((fast.R, strip.R), (fast.T, strip.T),
                 (fast.amplitude_mid, strip.amplitude_mid)):
        assert abs(x - y) <= 1e-12


@pytest.mark.slow
@pytest.mark.parametrize("layout", ["centred", "off-centre", "unequal"])
def test_cascade_gap_is_discretization_error(layout):
    # the strip solves the cascade of the half-section S-matrices exactly, so
    # it is measured against the cascade of whole-section S-matrices, whose
    # mirror-even half is meshed: 5.9e-8 -> 5.3e-9 (centred), 1.1e-7 -> 9.8e-9
    # (off-centre), 7.8e-8 -> 5.3e-9 (unequal)
    def gap(h):
        left, right = LAYOUTS[layout]
        a = whole_section_smatrix(left, h)
        b = a if right == left else whole_section_smatrix(right, h)
        fast = cascade(a, b, 0.66)
        full = solve_scattering(WaveguideGeometry2D(0.66, 1.66, left, right), KAPPA, h=h)
        return max(abs(fast.R - full.R), abs(fast.T - full.T))

    coarse, fine = gap(0.04), gap(0.02)
    print(f"\n[{layout}] gap h=0.04 {coarse:.2e}, h=0.02 {fine:.2e}")
    assert fine < 0.5 * coarse


@pytest.mark.parametrize("holes", [slit(0.5, 0.02), slit(0.1, 0.02), slit(0.5, 1e-4),
                                   slit(0.3, 0.2) + slit(0.8, 0.05), ()])
def test_screen_smatrix_is_mirror_symmetric_and_lossless(holes):
    s = screen_smatrix(holes, modal_rates(KAPPA, 15), h=0.04)
    # one propagating mode: its block conserves flux
    assert abs(abs(s.r[0, 0]) ** 2 + abs(s.t[0, 0]) ** 2 - 1.0) <= 1e-12


def section_ports(n_modes):
    """The two ports of a whole section for :func:`_couple_faces`: the left
    one meets the incident and the outgoing waves c-, the right one the
    outgoing waves c+."""
    one = np.ones(n_modes)
    return [(TAG_GAMMA_MINUS, -1.0, [(None, -1.0, one), (0, 1.0, one)]),
            (TAG_GAMMA_PLUS, 1.0, [(1, -1.0, one)])]


def two_port_section(holes, h=0.04, n_modes=15):
    """r and t for incidence from the left, from the whole section (-d, d).

    Both ports carry their outgoing mode amplitudes as bordered unknowns, c-
    then c+, and one solve takes the N incident unit modes on the left port:
    the solve the mirror split of :func:`screen_smatrix` replaces.
    """
    basis = modal_rates(KAPPA, n_modes)
    mesh = build_mesh(ScreenSection(SECTION_HALF_WIDTH, holes), h)
    coupling, loads = _couple_faces(mesh, basis, section_ports(n_modes), [], np.eye(n_modes))
    matrix = assemble(mesh, KAPPA).matrix
    matrix.resize(coupling.shape)
    u = solve_linear(SparseComplexSystem(matrix + coupling, loads))
    return u[mesh.n_nodes:].reshape(2, n_modes, n_modes)


def whole_section_smatrix(holes, h):
    """The :class:`ScreenSMatrix` of :func:`two_port_section`."""
    r, t = two_port_section(holes, h)
    return ScreenSMatrix(r=r, t=t, d=SECTION_HALF_WIDTH, basis=modal_rates(KAPPA, 15))


@pytest.mark.parametrize("holes", [slit(0.5, 0.02), slit(0.1, 0.02), slit(0.5, 1e-4),
                                   slit(0.3, 0.2) + slit(0.8, 0.05)])
def test_screen_smatrix_is_exact_even_part_plus_half_section_odd_part(holes):
    s = screen_smatrix(holes, modal_rates(KAPPA, 15), h=0.04)
    assert s.d == SECTION_HALF_WIDTH
    # mirror-even: du/dz = 0 on the screen plane, reflection exactly e^{-2 gamma d}
    even = np.diag(np.exp(-2.0 * s.d * s.basis.gammas))
    assert np.abs(s.r + s.t - even).max() <= 1e-15
    # mirror-odd: the half-section solve is the whole section's odd part
    r, t = two_port_section(holes)
    assert np.abs((s.r - s.t) - (r - t)).max() <= 1e-12


@pytest.mark.parametrize("holes", [slit(0.5, 0.02), slit(0.3, 0.2) + slit(0.8, 0.05)])
def test_screen_smatrix_borders_one_port(holes, monkeypatch):
    # the half-section has only its left port, so its LU has n + N unknowns;
    # bordered with the whole section's two ports instead, its right port has
    # no edges and its N rows only say c+ = 0: the same r and t
    systems = []

    def capture(system):
        systems.append(system)
        return solve_linear(system)

    monkeypatch.setattr("screenguide.scattering.solve_linear", capture)
    s = screen_smatrix(holes, modal_rates(KAPPA, 15), h=0.04)
    mesh = _half_section(holes, 0.04, SECTION_HALF_WIDTH, s.basis.height)
    (system,) = systems
    size = mesh.n_nodes + 15
    assert system.matrix.shape == (size, size) and system.rhs.shape == (size, 15)

    both = _bordered(assemble(mesh, KAPPA), mesh, s.basis, section_ports(15), [], np.eye(15))
    odd = solve_linear(both)[mesh.n_nodes:size]
    even = np.diag(np.exp(-2.0 * s.d * s.basis.gammas))
    assert np.abs(s.r - 0.5 * (even + odd)).max() <= 1e-14
    assert np.abs(s.t - 0.5 * (even - odd)).max() <= 1e-14


def test_empty_section_is_the_uniform_guide():
    s = screen_smatrix(None, modal_rates(KAPPA, 4))
    assert s.d == 0.0 and not np.any(s.r)
    assert np.array_equal(s.t, np.diag(np.exp(-2.0 * s.d * s.basis.gammas)))
    # the port offset is 0, so the cascade holds down to any L > 0
    for L in (0.01, 0.1, 0.61, 2.0):
        r = cascade(s, s, L)
        assert r.R == 0.0
        assert r.T == pytest.approx(np.exp(2j * KAPPA * L), abs=1e-14)
        assert r.amplitude_mid == pytest.approx(np.exp(1j * KAPPA * L), abs=1e-14)


def test_closed_screen_smatrix_is_exact_without_a_mesh(monkeypatch):
    def no_mesh(*args):
        raise AssertionError("a closed screen needs no mesh")

    monkeypatch.setattr("screenguide.scattering._half_section", no_mesh)
    s = screen_smatrix((), modal_rates(KAPPA, 15), h=0.04)
    assert s.d == 0.0
    assert np.array_equal(s.r, np.eye(15)) and not np.any(s.t)


@pytest.mark.parametrize("right", [(), None], ids=["closed", "empty"])
def test_cascade_of_screens_with_different_port_offsets(right):
    # at h 0.04 the strip's half-section of half-width 0.2 shrinks its cells
    # to 0.033 while the S-matrix's section keeps 0.04, a 1.3e-4
    # discretization gap; at h 0.02 both use the same cells: 3e-8 apart
    a = screen_smatrix(slit(0.5, 0.02), modal_rates(KAPPA, 15), h=0.02)
    b = screen_smatrix(right, modal_rates(KAPPA, 15))
    assert (a.d, b.d) == (SECTION_HALF_WIDTH, 0.0)
    fast = cascade(a, b, 0.2)
    full = solve_scattering(WaveguideGeometry2D(0.2, 0.5, slit(0.5, 0.02), right), KAPPA,
                            h=0.02)
    assert abs(fast.R - full.R) <= 1e-6 and abs(fast.T - full.T) <= 1e-6
    assert abs(fast.amplitude_mid - full.amplitude_mid) <= 1e-6 * abs(full.amplitude_mid)
    cascade(a, b, 0.5 * (a.d + b.d))  # touching sections are fine
    with pytest.raises(ValueError):
        cascade(a, b, 0.49 * (a.d + b.d))


def test_gap_piston_resonance_is_regular():
    # at L = d + pi/(2 kappa) the gap l = 2(L - d) holds half a wavelength:
    # its piston mode solves the gap with zero traces on both inner faces,
    # and a gap block eliminated through coth/csch(kappa l) would divide by 0
    left, right = LAYOUTS["centred"]
    L_res = SECTION_HALF_WIDTH + math.pi / (2.0 * KAPPA)

    def strip(L, h):
        return solve_scattering(WaveguideGeometry2D(L, L + 1.0, left, right), KAPPA, h=h)

    gap = abs(strip(L_res, 0.04).T - strip(L_res, 0.02).T)   # refinement gap, 7.5e-5
    s = screen_smatrix(left, modal_rates(KAPPA, 15), h=0.04)
    for L in (L_res - 1e-9, L_res, L_res + 1e-9):
        r = strip(L, 0.04)
        assert np.isfinite([r.R, r.T, r.amplitude_mid]).all()
        assert r.energy_residual <= 1e-10
        fast = cascade(s, s, L)
        assert abs(r.R - fast.R) <= gap and abs(r.T - fast.T) <= gap
        assert abs(r.amplitude_mid - fast.amplitude_mid) <= gap * abs(fast.amplitude_mid)


def test_cascade_amplitude_mid_matches_full_strip():
    left, right = LAYOUTS["centred"]
    fast = cascade(screen_smatrix(left, modal_rates(KAPPA, 15)),
                   screen_smatrix(right, modal_rates(KAPPA, 15)), 0.6922)
    full = solve_scattering(WaveguideGeometry2D(0.6922, 1.6922, left, right), KAPPA)
    assert abs(fast.amplitude_mid - full.amplitude_mid) <= 1e-4 * abs(full.amplitude_mid)


def test_singular_cascade_loop_is_a_numerical_error(monkeypatch):
    s = screen_smatrix(slit(0.5, 0.02), modal_rates(KAPPA, 5), h=0.08)

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericalError, match="cascade"):
        cascade(s, s, 0.6)


def test_cascade_rejects_short_separation_and_mismatched_screens():
    s = screen_smatrix(slit(0.5, 0.02), modal_rates(KAPPA, 5), h=0.08)
    cascade(s, s, SECTION_HALF_WIDTH)  # touching sections are fine
    with pytest.raises(ValueError):
        cascade(s, s, 0.99 * SECTION_HALF_WIDTH)
    other = screen_smatrix(slit(0.5, 0.02), modal_rates(KAPPA, 6), h=0.08)
    with pytest.raises(ValueError):
        cascade(s, other, 0.6)


def test_cascade_rejects_screens_of_different_guides():
    # a one-mode basis has gamma_0 = -i kappa at either height: only the
    # height tells the whole guide from its lower half
    holes = slit(0.5, 0.02)
    whole = screen_smatrix(holes, modal_rates(KAPPA, 1), h=0.08)
    half = screen_smatrix(holes, strip_basis(holes, 1), h=0.08)
    assert np.array_equal(whole.basis.gammas, half.basis.gammas)
    # eight modes: the first eight of the whole guide, or its even ones
    eight = screen_smatrix(holes, modal_rates(KAPPA, 8), h=0.08)
    halved = screen_smatrix(holes, strip_basis(holes, 15), h=0.08)
    assert eight.basis.n_modes == halved.basis.n_modes == 8
    for a, b in ((whole, half), (eight, halved)):
        cascade(b, b, 0.6)
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="guide"):
                cascade(*pair, 0.6)


@pytest.mark.parametrize("h", [0.04, 0.02])
def test_lower_half_smatrix_is_the_even_block_of_the_whole_height(h):
    # a mirror-symmetric layout couples no mode odd about y = 1/2 to an even
    # one, and the even block of the whole-height S-matrix is the lower
    # half's, whose mesh is the whole one cut along y = 1/2 (measured 3.6e-13
    # at most).  Besides centred slits: a wide slit and a slit pair, whose
    # slab rectangles across y = 1/2 are filled from there
    layouts = [slit(0.5, eps) for eps in np.random.default_rng(31).uniform(0.015, 0.025, 3)]
    for holes in layouts + [slit(0.5, 0.1), slit(0.25, 0.02) + slit(0.75, 0.02)]:
        whole = screen_smatrix(holes, modal_rates(KAPPA, 15), h=h)
        half = screen_smatrix(holes, strip_basis(holes), h=h)
        assert (half.basis.height, half.d) == (0.5, whole.d)
        assert np.array_equal(half.basis.gammas, whole.basis.gammas[::2])
        assert np.abs(whole.r[1::2, ::2]).max() <= 1e-12
        for a, b in ((half.r, whole.r), (half.t, whole.t)):
            assert np.abs(a - b[::2, ::2]).max() <= 1e-12


@pytest.mark.parametrize("holes", [(), None], ids=["closed", "empty"])
def test_lower_half_of_a_screen_without_apertures_is_exact(holes):
    whole = screen_smatrix(holes, modal_rates(KAPPA, 15))
    half = screen_smatrix(holes, strip_basis(holes))
    assert half.basis.height == 0.5 and half.d == whole.d == 0.0
    assert np.array_equal(half.r, whole.r[::2, ::2]) and np.array_equal(half.t, whole.t[::2, ::2])


def test_lower_half_needs_a_mirror_symmetric_layout():
    # the whole height fits every layout, the lower half only one
    # mirror-symmetric about y = 1/2, and no other height any layout
    whole = modal_rates(KAPPA, 15)
    half, other = _even_modes(whole), ModalBasis(KAPPA, whole.gammas[::2], 0.8)
    for holes in (slit(0.1, 0.02), slit(0.5, 0.02) + slit(0.8, 0.02)):
        assert screen_smatrix(holes, whole, h=0.08).basis is whole
        with pytest.raises(ValueError, match="mirror-symmetric"):
            screen_smatrix(holes, half, h=0.08)
    for holes in (slit(0.5, 0.02), slit(0.1, 0.02), (), None):
        with pytest.raises(ValueError, match="guide height 0.8"):
            screen_smatrix(holes, other, h=0.08)


def parity_reflections(s, L):
    """Gamma+- = E^2 [r00 +- t0. Q (I -+ r Q)^{-1} t.0] of one screen backed
    by a wall at distance L: the part of an equal-screen resonator even
    (du/dz = 0, +) or odd (u = 0, -) about z = 0; Q = e^{-2 gamma (L - d)}
    and E = e^{-i kappa d}."""
    Q = np.exp(-2.0 * s.basis.gammas * (L - s.d))
    E = np.exp(-1j * KAPPA * s.d)
    eye = np.eye(s.basis.n_modes)
    return [E * E * (s.r[0, 0] + p * s.t[0] @ (Q * np.linalg.solve(eye - p * s.r * Q, s.t[:, 0])))
            for p in (1.0, -1.0)]


@pytest.mark.parametrize("lower_half", [False, True], ids=["whole", "lower-half"])
def test_equal_screens_split_into_z_parts(lower_half):
    # R = (Gamma+ + Gamma-)/2 and T = (Gamma+ - Gamma-)/2, and each part is
    # a lossless one-port, |Gamma+-| = 1, also at the q = 1 and q = 2 peaks
    holes = slit(0.5, 0.02)
    s = screen_smatrix(holes, strip_basis(holes) if lower_half else modal_rates(KAPPA, 15),
                       h=0.04)
    assert s.basis.height == (0.5 if lower_half else 1.0)
    for L in np.concatenate([np.linspace(0.3, 1.4, 23), [0.6922, 1.3172]]):
        plus, minus = parity_reflections(s, L)
        r = cascade(s, s, L)
        assert abs(r.R - 0.5 * (plus + minus)) <= 1e-14
        assert abs(r.T - 0.5 * (plus - minus)) <= 1e-14
        assert abs(abs(plus) - 1.0) <= 1e-14 and abs(abs(minus) - 1.0) <= 1e-14


def test_sweep_below_section_half_width_uses_the_full_strip():
    cfg = parse_config(f"""
[problem]
kappa = {KAPPA!r}
epsilon = 0.02
[sweep]
L_min = 0.2
L_max = 0.4
n_steps = 5
""")
    rows = run_sweep(cfg)
    assert [r.L for r in rows] == pytest.approx([0.2, 0.25, 0.3, 0.35, 0.4])
    for r in rows:
        assert not r.error
        L = r.L
        full = solve_scattering(cfg.geometry(L, L + SECTION_HALF_WIDTH), KAPPA)
        if L < SECTION_HALF_WIDTH:
            # the strip solve on sections of half-width L, bit for bit
            assert (r.R, r.T, r.amplitude_mid) == (full.R, full.T, full.amplitude_mid)
        else:
            # the cascade solves the strip's discrete problem: they differ by
            # rounding (R 9.7e-14, T 3.8e-14, amplitude_mid 3.2e-13 relative)
            assert abs(r.R - full.R) <= 1e-12 and abs(r.T - full.T) <= 1e-12
            assert abs(r.amplitude_mid - full.amplitude_mid) <= 1e-12 * abs(full.amplitude_mid)
            assert r.energy_residual <= 1e-12


@pytest.mark.parametrize("left", ["none", "closed"])
def test_sweep_beside_a_screen_without_apertures_is_continuous_at_d(left):
    # beside a closed screen or none, as beside a perforated one, the sweep
    # solves the strip below d, bit for bit, and cascades from d on, where
    # the S-matrices solve the strip's discrete problem: 1.2e-13 apart in R
    # and T at L 0.3 and 0.45, so the rows do not jump where one path hands
    # over to the other
    cfg = parse_config(f"""
[problem]
kappa = {KAPPA!r}
epsilon = 0.02
[geometry]
holes_left = {left}
[sweep]
L_min = 0.15
L_max = 0.45
n_steps = 7
""")
    rows = run_sweep(cfg)
    assert [r.L < SECTION_HALF_WIDTH for r in rows] == [True] * 3 + [False] * 4
    for r in rows:
        assert not r.error
        full = solve_scattering(cfg.geometry(r.L, r.L + SECTION_HALF_WIDTH), KAPPA)
        if r.L < SECTION_HALF_WIDTH:
            assert (r.R, r.T, r.amplitude_mid) == (full.R, full.T, full.amplitude_mid)
        else:
            assert abs(r.R - full.R) <= 1e-12 and abs(r.T - full.T) <= 1e-12
            # a closed left screen lets nothing between the screens
            assert abs(r.amplitude_mid - full.amplitude_mid) <= 1e-12 * max(
                abs(full.amplitude_mid), 1.0)


def test_screen_section_mesh():
    for holes in (slit(0.5, 0.02), ()):
        mesh = build_mesh(ScreenSection(SECTION_HALF_WIDTH, holes), 0.04)
        report = validate_mesh(mesh)
        assert report["orientation_ok"] and report["conformity_ok"]
        assert report["boundary_closed"]
        # exactly mirror-symmetric about the screen plane
        nodes = {(z, y) for z, y in mesh.vertices.tolist()}
        assert all((0.0 - z, y) in nodes for z, y in nodes)
    with pytest.raises(ValueError):
        ScreenSection(0.0, ())
