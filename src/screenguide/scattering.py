"""Piston-mode scattering through perforated screens in a 2D waveguide.

With the transverse basis phi_0 = 1, phi_n = sqrt(2) cos(n pi y) on (0,1),
the axial rates of the guide modes are

    gamma_0 = -i kappa,        gamma_n = sqrt(n^2 pi^2 - kappa^2)  (n >= 1),

so below the first cutoff (kappa < pi) only the piston mode propagates.  The
solve is for the total field.  The guide is uniform away from the screens,
and there its field is a sum of modes: nothing but the short section
(s - delta, s + delta) around a perforated screen at s needs a mesh.  At
delta = d = ``SECTION_HALF_WIDTH`` the modes a screen excites have decayed
below the retained truncation; screens closer than 2d get sections of
half-width delta = L (``WaveguideGeometry2D.section_half_width``), which
touch at z = 0, and proportionally more modes.  The strip's ports sit at
z = -Zp and z = +Zp, Zp = L + delta (``WaveguideGeometry2D.port_half_length``).
Beyond them the field is the modal sum of the waves leaving (plus the
incident wave e^{i kappa (z+L)} on the left), with their 2N amplitudes
c-, c+ bordered onto the solve as unknowns (:func:`_couple_faces`): the
exact modal condition of Keller & Givoli, J. Comput. Phys. 82, 1989,
unreduced.  R and T follow the shifted convention in which the no-screen
guide has R = 0, T = e^{2 i kappa L}: they are c-_0 and c+_0 carried from
the ports to the screens at -+L.

The uniform gap between z = -a and z = +a, a = L - delta
(``WaveguideGeometry2D.gap_half_length``, 0 when the sections touch),
carries the modal sum sum_n phi_n(y) (alpha_n ea_n(z) + beta_n eb_n(z))
(:func:`_gap_waves`), and each section splits, mirrored about its screen,
into an even and an odd part (:func:`_screen_parts`).  The even part has
du/dz = 0 on the screen plane, and is exact: it returns the wave entering
its half-section as e^{-2 gamma delta} times it.  The odd part is u = 0 on
the apertures; only it is meshed, on the half-section (s - delta, s), the
mesh :func:`screen_smatrix` factors at delta = d, and it meets the waves of
both faces of the section through the one face of the half.  A screen
without apertures is exact in both parts and meshes nothing.  A strip
solution is thus [odd half-section nodes | c- | c+ | alpha | beta]
(:func:`_amplitudes`), and at delta = d it solves the same discrete problem
as the :func:`cascade` of the two screens' S-matrices.

Sweeps and resonance searches use the cascade; :func:`solve_scattering`
also yields the field.  When both screens are mirror-symmetric about
y = 1/2 (``WaveguideGeometry2D.guide_height``), the piston wave excites no
mode odd about y = 1/2: the strip is solved on the lower half of the guide,
in the modes of the guide (0, 1/2) (:func:`_guide_basis`,
:func:`_even_modes`), and so are the S-matrices the sweep cascades, which
are meshed on the guide of their basis (:func:`screen_smatrix`).  Other
layouts keep the whole height.

scipy's sparse matrices are imported at first use, in :func:`_couple_faces`
and :func:`_bordered`, as in :mod:`screenguide.fem`: the package imports
this module, and its layers without a mesh need no scipy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError, UnsupportedRegimeError
from .fem import SparseComplexSystem, assemble, shape_values, solve_linear
from .meshing import (H, SECTION_HALF_WIDTH, Mesh, TAG_APERTURE, TAG_GAMMA_MINUS,
                      TAG_GAP_PLUS, WaveguideGeometry2D, _guide_height, _half_section,
                      build_mesh)

log = logging.getLogger(__name__)

# 10-point Gauss-Legendre rule on [0, 1], applied once per trace edge.  A
# meshed face edge is at most delta/6 long, and a solve on sections of
# half-width delta uses N ~ 15 d / delta modes, so phi_{N-1} turns by at most
# about 15 pi d / 6 = 2.4 rad on an edge, where the rule integrates a P2
# trace against it to rounding (on a 0.25-long edge, phi_14 is off by 2.4e-9).
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_GL_T = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


@dataclass(frozen=True)
class ModalBasis:
    """Axial decay/oscillation rates of the transverse cosine basis of a
    guide (0, height) at frequency kappa; :func:`_transverse_modes`
    evaluates the basis itself."""

    kappa: float
    gammas: np.ndarray  # (n_modes,) complex, gammas[0] = -i kappa
    height: float

    @property
    def n_modes(self) -> int:
        return len(self.gammas)


def _transverse_modes(basis: ModalBasis, y) -> np.ndarray:
    """The modes of ``basis`` at the points y, shape (n_modes,) + y.shape:
    phi_n = sqrt(2/b) cos(n pi y/b) and phi_0 = sqrt(1/b), orthonormal on
    (0, b), b = ``basis.height``."""
    b = basis.height
    phi = np.sqrt(2.0 / b) * np.cos(np.multiply.outer(np.arange(basis.n_modes) * (np.pi / b), y))
    phi[0] = np.sqrt(1.0 / b)
    return phi


def modal_rates(kappa: float, n_modes: int) -> ModalBasis:
    """Axial rates of the first ``n_modes`` guide modes at frequency kappa.

    Only the single-propagating-mode regime kappa < pi is supported; above
    the first cutoff the piston-mode scattering coefficients stop describing
    the full far field.
    """
    if not 0.0 < kappa < np.pi:
        raise UnsupportedRegimeError(
            f"kappa={kappa:.6g} outside the single-mode band (0, pi)")
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    n = np.arange(n_modes)
    gammas = np.empty(n_modes, dtype=np.complex128)
    gammas[0] = -1j * kappa
    if n_modes > 1:
        gammas[1:] = np.sqrt(n[1:] ** 2 * np.pi ** 2 - kappa ** 2)
    return ModalBasis(kappa=float(kappa), gammas=gammas, height=H)


def _even_modes(basis: ModalBasis) -> ModalBasis:
    """The modes of ``basis`` even about y = height/2: those of the guide
    (0, height/2), with gamma_k = gamma_{2k}.  On the lower half they are
    sqrt(2) times the whole guide's, the same factor for every k, so mode
    amplitudes, and an S-matrix between them, are unchanged."""
    return ModalBasis(kappa=basis.kappa, gammas=basis.gammas[::2], height=0.5 * basis.height)


def _check_guide(basis: ModalBasis, *layouts) -> None:
    """``ValueError`` unless ``basis`` fits screens with the apertures
    ``layouts``: its guide is the whole height H, or the lower half H/2 of
    apertures all mirror-symmetric about y = 1/2 (``meshing._guide_height``)."""
    if basis.height not in (H, _guide_height(*layouts)):
        raise ValueError(f"a basis of guide height {basis.height:g} does not fit the apertures "
                         f"{layouts}: H, or H/2 for apertures mirror-symmetric about y = 1/2")


def _guide_basis(geom: WaveguideGeometry2D, basis: ModalBasis) -> ModalBasis:
    """``basis`` on the guide a strip is solved on: its modes even about
    y = 1/2 (:func:`_even_modes`) when ``geom.guide_height`` is below the
    basis's height, the lower half of the guide, and ``basis`` otherwise.
    ``basis`` must fit the screens (:func:`_check_guide`)."""
    _check_guide(basis, geom.holes_left, geom.holes_right)
    return _even_modes(basis) if geom.guide_height < basis.height else basis


def _incident(kappa: float, L: float, z):
    """The incident piston e^{i kappa (z+L)} at z, in the screen-shifted
    convention of :func:`solve_scattering`; at z = -Zp it is the trace E of
    the left port."""
    return np.exp(1j * kappa * (z + L))


class _EnergyBalance:
    """The energy residual |1 - |R|^2 - |T|^2| of a result's ``R`` and ``T``:
    the screens are lossless, so it is 0 up to the discretization error."""

    @property
    def energy_residual(self) -> float:
        return float(abs(1.0 - abs(self.R) ** 2 - abs(self.T) ** 2))


@dataclass
class ScatteringResult(_EnergyBalance):
    """Output of one scattering solve.

    ``amplitude_mid`` is the piston content of the trace at z = 0, i.e.
    int_0^1 u(0, y) dy; at a resonance of the inter-screen cavity it blows up
    like the resonant-mode amplitude while R, T stay bounded.  ``basis`` is
    the modal basis of the solve, whose mode count the modal parts of the
    field are summed with, and ``L`` its screen half-distance.  ``field`` is
    the solution [mesh nodes | c- | c+ | alpha | beta] (:func:`_amplitudes`):
    the mesh nodes carry the mirror-odd part of each perforated screen's
    section on its left half, and the rest of the field is rebuilt from the
    amplitudes (:func:`export_field`).  On the lower half of the guide
    (``basis.height`` 1/2) the solution is sqrt(2) times the field.
    """

    R: complex
    T: complex
    amplitude_mid: complex
    basis: ModalBasis
    L: float
    field: Optional[np.ndarray] = None
    mesh: Optional[Mesh] = None


def _boundary_edges(mesh: Mesh, tag: str):
    return mesh.boundary_edges[mesh.boundary_tags == tag]


def _trace_loads(mesh: Mesh, edges: np.ndarray, basis: ModalBasis):
    """Trace integrals B[n, j] = int N_sup[j](y) phi_n(y) dy over the modes
    phi_n of ``basis``.

    ``edges`` holds P2 edge rows (vertex a, vertex b, midpoint) on one line
    z = const.  Returns (support_dofs, B) with B of shape
    (basis.n_modes, len(support_dofs)), so ``B @ u[support_dofs]`` gives the mode
    amplitudes of the trace of u.  The quadrature is 10-point Gauss-Legendre
    on each edge, exact to rounding for P2 traces against every mode a solve
    uses on the faces of its mesh (see the note at ``_GL_X``).
    """
    xy = mesh.node_xy
    y0, y1 = xy[edges[:, 0], 1], xy[edges[:, 1], 1]
    t = np.tile(_GL_T, (len(edges), 1))                     # (E, 10) edge parameter
    yq = y0[:, None] + (y1 - y0)[:, None] * t
    w = np.abs(y1 - y0)[:, None] * _GL_W
    shapes = np.stack([(1.0 - t) * (1.0 - 2.0 * t), t * (2.0 * t - 1.0),
                       4.0 * t * (1.0 - t)], axis=-1)       # (E, 10, 3): a, b, mid
    phi = _transverse_modes(basis, yq)                      # (N, E, 10)
    sup, cols = np.unique(edges.ravel(), return_inverse=True)
    B = np.zeros((basis.n_modes, len(sup)))
    np.add.at(B, (slice(None), cols),
              np.einsum("eq,neq,eqk->nek", w, phi, shapes).reshape(basis.n_modes, -1))
    return sup, B


def _couple_faces(mesh: Mesh, basis: ModalBasis, faces, exact, incident: np.ndarray):
    """Border the mesh system with the mode amplitudes of the uniform guide
    beyond its modal faces.

    ``faces`` lists (tag, n_z, waves): a boundary tag, the z component of the
    mesh's outward normal there, and the waves that meet it.  A wave (j, s, f)
    is sum_n x_n phi_n(y) e^{s gamma_n (z - z_ref)} with factors f_n on the
    face and amplitudes x at the unknowns n_nodes + j N + n or, for j None,
    the known ``incident`` (N, k): k right-hand sides.  Face k owns the rows
    n_nodes + k N + n, which match its trace mode by mode,
    (u, phi_n) - sum_waves f_n x_n = 0; its waves enter the weak form's
    -(du/dn, v) as the flux columns -n_z s gamma_n f_n (v, phi_n).  ``exact``
    lists, after them, the faces that bound no mesh: (Gamma, waves) owns N
    rows out - Gamma in = 0, out and in summing f_n x_n over the waves with
    s = +1 and s = -1.  Known waves go to the loads.  Nothing is eliminated,
    so no step divides by sin(kappa l) where a gap of length l resonates.
    Returns the square COO coupling of size n_nodes + N (len(faces) +
    len(exact)), its duplicates unsummed, and the (size, k) loads.
    """
    import scipy.sparse as sp

    n, N, g = mesh.n_nodes, basis.n_modes, basis.gammas
    size = n + N * (len(faces) + len(exact))
    loads = np.zeros((size, incident.shape[1]), dtype=np.complex128)
    entries = []
    for k, (tag, normal, waves) in enumerate(faces):
        sup, B = _trace_loads(mesh, _boundary_edges(mesh, tag), basis)
        match = n + k * N + np.arange(N)
        entries.append((match[:, None], sup[None, :], B))
        for j, s, f in waves:
            flux = (-normal * s * g * f)[:, None] * B
            if j is None:
                # einsum, not flux.T @ incident: OpenBLAS threads that product
                # on close screens (1201 x 450 at L 0.01), and numpy's pool
                # then spins through the LU (``screenguide.fem``)
                loads[sup] -= np.einsum("ns,nk->sk", flux, incident)
                loads[match] += f[:, None] * incident
            else:
                x = n + j * N + np.arange(N)
                entries += [(sup[None, :], x[:, None], flux), (match, x, -f)]
    for k, (gamma, waves) in enumerate(exact, len(faces)):
        rows = n + k * N + np.arange(N)
        for j, s, f in waves:
            c = f if s > 0.0 else -gamma * f
            if j is None:
                loads[rows] -= c[:, None] * incident
            else:
                entries.append((rows, n + j * N + np.arange(N), c))
    rows, cols, vals = (np.concatenate([a.ravel() for a in part]) for part in
                        zip(*(np.broadcast_arrays(*e) for e in entries)))
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)), loads


def _odd_reflection(holes):
    """r of a screen's mirror-odd part at its plane: 1 closed (``holes`` (),
    du/dz = 0), -1 for no screen (None, u = 0), None with apertures (meshed)"""
    if holes is None:
        return -1.0
    return None if len(holes) else 1.0


def _screen_parts(geom: WaveguideGeometry2D, basis: ModalBasis):
    """The mirror parts of the two screen sections (s - delta, s + delta),
    delta = ``geom.section_half_width``, of a strip.

    Mirrored about its screen at s, a section's field is an even part,
    u_e(s + t) = u_e(s - t), plus an odd part, u_o(s + t) = -u_o(s - t).  On
    the face F at s - delta, a part's trace is (u_F +- u_F')/2 and its flux
    (du_F -+ du_F')/2, with F' at s + delta and + for the even part: each wave
    (j, s, f) meeting F (:func:`_couple_faces`) turns into (j, s, f/2), and
    each wave meeting F' into (j, -s, +-f/2), as its mirror image meets F.
    A part returns the wave entering through F as r e^{-2 gamma delta}: the
    even part, du/dz = 0 on the screen plane, with r = 1 and the odd part
    with :func:`_odd_reflection`'s r; the mesh solves an odd part of r None.
    Returns, for the left then the right screen, (s, [(p, r, waves)]) with
    p = 1 for the even and p = -1 for the odd part.
    """
    L, a = geom.screen_half_distance, geom.gap_half_length
    one = np.ones(basis.n_modes)
    ea, eb = _gap_waves(basis, a, np.array([-a, a]))
    sides = ((-L, [(None, -1.0, one), (0, 1.0, one)], [(2, -1.0, ea[:, 0]), (3, 1.0, eb[:, 0])]),
             (L, [(2, -1.0, ea[:, 1]), (3, 1.0, eb[:, 1])], [(1, -1.0, one)]))
    screens = []
    for s, near, far in sides:
        odd = _odd_reflection(geom.holes_of(s))
        screens.append((s, [(p, r, [(j, q, 0.5 * f) for j, q, f in near]
                             + [(j, -q, 0.5 * p * f) for j, q, f in far])
                            for p, r in ((1.0, 1.0), (-1.0, odd))]))
    return screens


def _strip_faces(geom: WaveguideGeometry2D, basis: ModalBasis):
    """The faces and the exact faces of a strip for :func:`_couple_faces`,
    with the incident waves (j None) on the left port: the face F of each
    screen's half-section borders its odd part, and every other part of
    :func:`_screen_parts` is exact, with the unknowns c-, c+, alpha, beta
    (:func:`_amplitudes`)."""
    faces, exact = [], []
    wall = np.exp(-2.0 * geom.section_half_width * basis.gammas)
    for (_, parts), tag in zip(_screen_parts(geom, basis), (TAG_GAMMA_MINUS, TAG_GAP_PLUS)):
        for _, r, waves in parts:
            if r is None:
                faces.append((tag, -1.0, waves))
            else:
                exact.append((r * wall, waves))
    return faces, exact


def _amplitudes(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """The rows c-, c+, alpha, beta of a strip solution
    u = [mesh nodes | c- | c+ | alpha | beta]: the waves leaving the left and
    the right port, referenced on it (c- without the incident wave), and the
    gap waves of :func:`_gap_waves`."""
    return u[mesh.n_nodes:].reshape(4, -1)


def _bordered(system: SparseComplexSystem, mesh: Mesh, basis: ModalBasis, faces, exact,
              incident: np.ndarray) -> SparseComplexSystem:
    """``system`` bordered with ``faces`` and ``exact`` through
    :func:`_couple_faces`, its right-hand sides the loads of ``incident``
    (N, k), and u = 0 on the apertures of a half-section mesh, where the
    mirror-odd field vanishes (their rows and columns become the identity).
    The matrix is built in one CSC construction, the form :func:`solve_linear`
    factors, from the triplets of both parts without the aperture rows and
    columns, and a unit diagonal there."""
    import scipy.sparse as sp

    coupling, loads = _couple_faces(mesh, basis, faces, exact, incident)
    fixed = np.zeros(len(loads), dtype=bool)
    fixed[_boundary_edges(mesh, TAG_APERTURE).ravel()] = True
    # the system's triplets run by row and the coupling's, all below or right of the
    # mesh block, by column: each CSC column comes out sorted, and nothing gets sorted
    triplets = []
    for part in (system.matrix.tocoo(), coupling.tocsc().tocoo()):
        keep = ~(fixed[part.row] | fixed[part.col])
        triplets.append((part.row[keep], part.col[keep], part.data[keep]))
    diag = np.flatnonzero(fixed).astype(triplets[0][0].dtype)
    rows, cols, vals = (np.concatenate(a) for a in zip(*triplets, (diag, diag, np.ones(len(diag)))))
    return SparseComplexSystem(sp.csc_matrix((vals, (rows, cols)), shape=coupling.shape), loads)


def attach_dtn_and_rhs(system: SparseComplexSystem, mesh: Mesh,
                       basis: ModalBasis, L: float) -> SparseComplexSystem:
    """Border a strip's system with the modes of :func:`_strip_faces`,
    unknowns [mesh nodes | c- | c+ | alpha | beta], and load the incident
    piston of trace E = e^{-i kappa (Zp - L)} on the left port; the mesh
    nodes carry the odd parts of the screen sections.  The modes are those
    of ``basis`` on the mesh's guide (:func:`_guide_basis`): its even modes
    when the mesh is the lower half.  ``basis`` must have the whole height
    or the mesh's, and ``L`` must be the mesh's ``screen_half_distance``,
    else ``ValueError``."""
    if L != mesh.geometry.screen_half_distance:
        raise ValueError(f"L={L} is not the mesh's screen half-distance")
    basis = _guide_basis(mesh.geometry, basis)
    E = _incident(basis.kappa, L, -mesh.geometry.port_half_length)
    bordered = _bordered(system, mesh, basis, *_strip_faces(mesh.geometry, basis),
                         E * np.eye(basis.n_modes, 1))
    system.matrix, system.rhs = bordered.matrix, bordered.rhs[:, 0]
    return system


def _gap_waves(basis: ModalBasis, a: float, zs: np.ndarray):
    """Axial factors (ea, eb), each (n_modes, len(zs)), of the gap modes at zs.

    Mode n of the field in the uniform gap -a <= z <= a is
    alpha_n ea[n] + beta_n eb[n].  An evanescent pair is referenced at the
    face it decays from, ea = e^{-gamma_n (z + a)} and eb = e^{gamma_n (z - a)};
    the piston pair at z = 0, e^{i kappa z} and e^{-i kappa z}.  No factor
    exceeds 1 in modulus, and the piston content at z = 0 is alpha_0 + beta_0.
    """
    ref = np.full(basis.n_modes, a)
    ref[0] = 0.0
    g = basis.gammas[:, None]
    return (np.exp(-g * (zs[None, :] + ref[:, None])),
            np.exp(g * (zs[None, :] - ref[:, None])))


def amplitude_at_center(mesh: Mesh, u: np.ndarray) -> complex:
    """Piston content int_0^1 u(0, y) dy of the field on the mid-line z = 0.

    The mid-line lies in the gap, or is its zero-length face when the
    sections touch, so the content is alpha_0 + beta_0 (:func:`_gap_waves`).
    """
    _, _, alpha, beta = _amplitudes(mesh, u)
    return complex(alpha[0] + beta[0])


def solve_scattering(geom: WaveguideGeometry2D, kappa: float, h: float = 0.04,
                     n_modes: int = 15, want_field: bool = False) -> ScatteringResult:
    """Mesh, assemble, attach transparent boundaries, solve, extract R and T.

    The mesh is the odd half-section of each perforated screen
    (:func:`build_mesh`), joined to the exact even parts, the ports and the
    gap through their modes.  Sections narrower than d (delta = L < d) keep
    the modal tail e^{-gamma_N delta} of n_modes modes at d with
    ceil(n_modes d / delta) modes.  When both screens are mirror-symmetric
    about y = 1/2 (``geom.guide_height`` 1/2), the piston wave excites only
    the modes even about it: the half-sections are cut to their part below
    y = 1/2 and bordered with the even modes (:func:`_guide_basis`), and
    ``basis.height`` is 1/2.  One INFO line reports the meshed nodes, the
    gap length 2a (0 when the sections touch), the mode count, the guide
    height and the modal tail: the larger of the two ports' outgoing
    |c_{N-1}|.

    The wave comes in from the left.  The reported coefficients follow the
    screen-shifted convention: the incident wave is e^{i kappa (z+L)}, the
    reflected wave R e^{-i kappa (z+L)} and the transmitted wave
    T e^{i kappa (z-L)}, so an empty guide gives T = e^{2 i kappa L}.
    """
    L, delta = geom.screen_half_distance, geom.section_half_width
    if delta < SECTION_HALF_WIDTH:
        n_modes = math.ceil(n_modes * SECTION_HALF_WIDTH / delta)
    basis = _guide_basis(geom, modal_rates(kappa, n_modes))
    mesh = build_mesh(geom, h)
    system = assemble(mesh, kappa)
    attach_dtn_and_rhs(system, mesh, basis, L)
    u = solve_linear(system)

    E = _incident(kappa, L, -geom.port_half_length)
    c_minus, c_plus = _amplitudes(mesh, u)[:2]
    result = ScatteringResult(R=complex(E * c_minus[0]), T=complex(E * c_plus[0]),
                              amplitude_mid=amplitude_at_center(mesh, u), basis=basis,
                              L=float(L), field=u if want_field else None,
                              mesh=mesh if want_field else None)
    log.info("strip solve: %d meshed nodes, gap length %.6g, %d modes, guide height %g, "
             "modal tail %.2e", mesh.n_nodes, 2.0 * geom.gap_half_length, basis.n_modes,
             basis.height, max(abs(c_minus[-1]), abs(c_plus[-1])))
    log.debug("L=%.6f: |R|=%.6f |T|=%.6f energy residual %.2e",
              L, abs(result.R), abs(result.T), result.energy_residual)
    return result


# ----------------------------------------------------------------------------
# screen scattering matrices and their cascade
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ScreenSMatrix:
    """Multimodal scattering matrix of one screen on the section (-d, d), in
    the modes of the guide of ``basis``.

    Column m of ``r``/``t`` holds the mode amplitudes leaving through the
    left/right port when mode m, of unit amplitude at z = -d, comes in from
    the left.  The screens are mirror-symmetric, so a mode coming in from
    the right sees the same r and t.  Amplitudes are referenced at the
    ports: outgoing modes are e^{gamma_n (z+d)} on the left and
    e^{-gamma_n (z-d)} on the right.
    """

    r: np.ndarray
    t: np.ndarray
    d: float
    basis: ModalBasis


def screen_smatrix(holes, basis: ModalBasis, h: float = 0.04) -> ScreenSMatrix:
    """S-matrix of one screen (``holes`` as in :class:`ScreenSection`).

    The screen is mirror-symmetric.  The mirror-even field has du/dz = 0 on
    the plane z = 0, so its port reflection is exactly
    Gamma_e = diag(e^{-2 gamma_n d}).  The mirror-odd field is u = 0 on the
    apertures; it is solved on the half-section (-d, 0) (``_half_section``,
    d = ``SECTION_HALF_WIDTH``, the mesh :func:`solve_scattering` shifts to
    each screen when L >= d), with Neumann screen faces and the outgoing
    mode amplitudes bordered on its one port (:func:`_couple_faces`), by one
    LU for the N incident unit modes; Gamma_o is those amplitudes.  Then
    r = (Gamma_e + Gamma_o)/2 and t = (Gamma_e - Gamma_o)/2.  A screen
    without apertures builds no mesh: at d = 0, Gamma_e = I and Gamma_o is
    :func:`_odd_reflection` times I, so no screen has r = 0, t = I.

    The odd part is solved in the modes of ``basis`` on its guide
    (0, ``basis.height``), and the S-matrix carries ``basis``: the whole
    height H, or for apertures mirror-symmetric about y = 1/2 (else
    ``ValueError``, :func:`_check_guide`) the lower half, whose modes are
    those even about y = 1/2 (:func:`_even_modes`), the half-section cut
    there with walls on the cut.  A sweep passes the basis of its strip
    (:func:`_guide_basis`).  One INFO line reports the meshed nodes, the
    mode count and the guide height.
    """
    _check_guide(basis, holes)
    odd, nodes = _odd_reflection(holes), 0
    if odd is None:
        d = SECTION_HALF_WIDTH
        mesh = _half_section(holes, h, d, basis.height)
        N, nodes = basis.n_modes, mesh.n_nodes
        one = np.ones(N)
        port = [(TAG_GAMMA_MINUS, -1.0, [(None, -1.0, one), (0, 1.0, one)])]
        system = _bordered(assemble(mesh, basis.kappa), mesh, basis, port, [], np.eye(N))
        odd = solve_linear(system)[nodes:]
    else:
        d, odd = 0.0, odd * np.eye(basis.n_modes)
    log.info("screen S-matrix: %d meshed nodes, %d modes, guide height %g",
             nodes, basis.n_modes, basis.height)
    even = np.diag(np.exp(-2.0 * d * basis.gammas))
    return ScreenSMatrix(r=0.5 * (even + odd), t=0.5 * (even - odd), d=d, basis=basis)


def cascade(left: ScreenSMatrix, right: ScreenSMatrix, L: float) -> ScatteringResult:
    """Two screens at z = -L and z = +L from their S-matrices.

    The guide between the sections is uniform, so mode n crosses it with the
    factor P_n = e^{-gamma_n (2L - d_A - d_B)}, d_A = ``left.d`` and
    d_B = ``right.d``; needs 2L >= d_A + d_B.  Solving for the right-going
    amplitudes a at the left screen's right port,

        a = (I - r_A P r_B P)^{-1} t_A e_0,

    gives R, T and amplitude_mid in the screen-shifted convention of
    :func:`solve_scattering` (e^{-i kappa d_A} is the incident wave at the
    left port).  It computes with the basis's ``kappa`` and ``gammas`` only,
    mode 0 the propagating piston mode, and the result carries
    ``left.basis``.  The two bases must be the same modes of the same guide,
    equal in ``height`` and ``gammas``, else ``ValueError``.
    """
    basis = left.basis
    if not (right.basis.height == basis.height
            and np.array_equal(right.basis.gammas, basis.gammas)):
        raise ValueError("cascaded S-matrices differ in their guide, kappa or modes")
    if not 2.0 * L >= left.d + right.d:
        raise ValueError(f"cascade needs 2L >= d_A + d_B = {left.d + right.d}, got L={L}")
    kappa = basis.kappa
    P = np.exp(-basis.gammas * (2.0 * L - (left.d + right.d)))
    loop = np.eye(basis.n_modes) - (left.r * P) @ (right.r * P)
    try:
        a = np.linalg.solve(loop, left.t[:, 0])
    except np.linalg.LinAlgError as exc:  # a ValueError, which reads as bad input
        raise NumericalError(f"cascade loop solve failed at L={L}: {exc}") from exc
    b = right.r @ (P * a)                               # left-going, at B's port
    E_A, E_B = np.exp(-1j * kappa * left.d), np.exp(-1j * kappa * right.d)
    R = E_A * E_A * (left.r[0, 0] + left.t[0] @ (P * b))
    T = E_A * E_B * (right.t[0] @ (P * a))
    # a[0] crosses L - d_A to z = 0 and b[0] crosses L - d_B; factored so that
    # equal offsets multiply b[0] by exactly 1
    amp = E_A * np.exp(1j * kappa * (L - left.d)) * (
        a[0] + b[0] * np.exp(1j * kappa * (left.d - right.d)))
    return ScatteringResult(R=complex(R), T=complex(T), amplitude_mid=complex(amp),
                            basis=basis, L=float(L))


# ----------------------------------------------------------------------------
# field sampling
# ----------------------------------------------------------------------------

FIELD_PARTS = ("real", "imag", "scattered_real", "scattered_imag")


def export_field(result: ScatteringResult, grid, part: str) -> np.ndarray:
    """Sample the field on a uniform grid over (-Z, Z) x (0, 1).

    Returns an (nx*ny, 3) array of rows (z, y, value); points that fall on a
    closed screen segment (crack faces) carry NaN.  Between the ports,
    a <= |z| <= Zp with a the gap half-length and Zp the port position, the
    screen sections are rebuilt from their mirror parts
    (:func:`_section_field`); beyond the ports and inside the gap, its
    zero-length face z = 0 included when the sections touch, the field is a
    modal sum (:func:`_modal_extension`).  Both give the field in the
    modes of the solve's basis, where the incident piston has amplitude 1.
    A solve on the lower half of the guide (``basis.height`` 1/2) is sampled
    there at min(y, 1 - y), and its piston mode is sqrt(2): its mesh values
    and modal sums alike are sqrt(2) times the field, and are scaled back
    here, once.  ``scattered_*`` parts subtract the incident wave
    e^{i kappa (z+L)} everywhere, with the L of the solve.
    """
    if result.field is None:
        raise ValueError("result carries no field; re-run solve with want_field=True")
    if part not in FIELD_PARTS:
        raise ValueError(f"part must be one of {FIELD_PARTS}, got {part!r}")
    nx, ny = int(grid[0]), int(grid[1])
    if nx < 2 or ny < 2:
        raise ValueError("grid must be at least 2x2")
    geom = result.mesh.geometry
    Z = geom.trunc_half_length
    zs = np.linspace(-Z, Z, nx)
    ys = np.linspace(0.0, H, ny)
    pts = np.column_stack([np.repeat(zs, ny), np.tile(ys, nx)])
    inside = ((np.abs(zs) <= geom.port_half_length) & (np.abs(zs) >= geom.gap_half_length)
              & (zs != 0.0))
    vals = np.empty((nx, ny), dtype=np.complex128)
    vals[inside] = _section_field(result, zs[inside], ys)
    vals[~inside] = _modal_extension(result, zs[~inside], ys)
    vals = vals.ravel() * math.sqrt(result.basis.height / H)

    if part.startswith("scattered"):
        vals = vals - _incident(result.basis.kappa, result.L, pts[:, 0])
    out = vals.real if part.endswith("real") else vals.imag

    # blank out crack points: screen line minus apertures
    for s in geom.screen_positions:
        on = np.abs(pts[:, 0] - s) <= 1e-9
        if not np.any(on):
            continue
        for lo, hi in geom.closed_segments(s):
            hit = on & (pts[:, 1] >= lo - 1e-9) & (pts[:, 1] <= hi + 1e-9)
            out = np.where(hit, np.nan, out)
    return np.column_stack([pts, out])


def _modal_extension(result: ScatteringResult, zs: np.ndarray, ys: np.ndarray):
    """The field at the points (zs[i], ys[j]) off the sections: on or beyond
    the ports, |zs| >= Zp, or in the gap, |zs| <= a.

    The guide there is uniform, so the field is a modal sum of the solve's
    amplitudes (:func:`_amplitudes`): sum_n c+_n phi_n(y) e^{-gamma_n (z - Zp)}
    right of z = Zp, the incident piston phi_0 e^{i kappa (z+L)} plus
    sum_n c-_n phi_n(y) e^{gamma_n (z + Zp)} left of z = -Zp, and
    :func:`_gap_waves` in the gap.  Returns shape (len(zs), len(ys)).
    """
    mesh = result.mesh
    Zp, a = mesh.geometry.port_half_length, mesh.geometry.gap_half_length
    basis = result.basis
    c_minus, c_plus, *gap_amplitudes = _amplitudes(mesh, result.field)
    phi = _transverse_modes(basis, ys)
    out = np.empty((len(zs), len(ys)), dtype=np.complex128)
    gap = np.abs(zs) <= a
    if np.any(gap):
        (alpha, beta), (ea, eb) = gap_amplitudes, _gap_waves(basis, a, zs[gap])
        out[gap] = (alpha[:, None] * ea + beta[:, None] * eb).T @ phi
    for side, c in ((-1.0, c_minus), (1.0, c_plus)):
        beyond = side * zs >= Zp
        decay = np.exp(-np.multiply.outer(side * zs[beyond] - Zp, basis.gammas))
        out[beyond] = (decay * c) @ phi
    left = zs <= -Zp
    out[left] += np.multiply.outer(_incident(basis.kappa, result.L, zs[left]), phi[0])
    return out


def _section_field(result: ScatteringResult, zs: np.ndarray, ys: np.ndarray):
    """The field at the points (zs[i], ys[j]) of the screen sections,
    a <= |zs| <= Zp and zs != 0; zs increasing and evenly spaced.

    A section is the sum of its parts (:func:`_screen_parts`), each rebuilt
    on the half s - delta <= z <= s and mirrored, p u_p(2s - z), on the
    other half.  The odd part of a screen with apertures is the P2 field of
    the half-section (:func:`_sample_guide`).  Every other part is exact:
    sum_n phi_n(y) in_n (e^{-gamma_n (delta - t)} + r e^{-gamma_n (delta + t)})
    at z = s - t, with in the amplitudes of the wave entering through the
    face F at s - delta, and no factor exceeds 1 in modulus.
    Returns shape (len(zs), len(ys)).
    """
    mesh, basis, d = result.mesh, result.basis, result.mesh.geometry.section_half_width
    E = _incident(basis.kappa, result.L, -mesh.geometry.port_half_length)
    known = np.vstack([_amplitudes(mesh, result.field), E * np.eye(1, basis.n_modes)])
    phi = _transverse_modes(basis, ys)
    out = np.zeros((len(zs), len(ys)), dtype=np.complex128)
    for s, parts in _screen_parts(mesh.geometry, basis):
        on = np.nonzero(np.sign(zs) == np.sign(s))[0]
        t, mirrored = np.abs(zs[on] - s), zs[on] > s
        for p, r, waves in parts:
            if r is None:
                part = np.empty((len(on), len(ys)), dtype=np.complex128)
                for side in (~mirrored, mirrored):
                    if np.any(side):   # s - t increases along ~mirrored, decreases along mirrored
                        order = np.argsort(-t[side])
                        part[np.nonzero(side)[0][order]] = _sample_guide(
                            mesh, result.field, s - t[side][order], ys, basis.height)
            else:
                into = sum(f * known[-1 if j is None else j] for j, q, f in waves if q < 0.0)
                axial = (np.exp(-np.multiply.outer(d - t, basis.gammas))
                         + r * np.exp(-np.multiply.outer(d + t, basis.gammas)))
                part = (axial * into) @ phi
            out[on] += np.where(mirrored, p, 1.0)[:, None] * part
    return out


def _sample_guide(mesh: Mesh, u: np.ndarray, zs: np.ndarray, ys: np.ndarray, b: float):
    """:func:`_sample_grid` at the points (zs[i], ys[j]) of the whole guide,
    shape (len(zs), len(ys)), from a mesh of the guide (0, b).  The field of
    a mesh of the lower half, b = H/2, is mirror-symmetric about y = b: it
    is sampled at min(y, 2b - y), in two passes with ``ys`` increasing in
    each."""
    out = np.empty((len(zs), len(ys)), dtype=np.complex128)
    low, high = np.nonzero(ys <= b)[0], np.nonzero(ys > b)[0][::-1]
    for cols, y in ((low, ys[low]), (high, 2.0 * b - ys[high])):
        if len(cols):
            out[:, cols] = _sample_grid(mesh, u, zs, y).reshape(len(zs), -1)
    return out


def _sample_grid(mesh: Mesh, u: np.ndarray, zs: np.ndarray, ys: np.ndarray):
    """The P2 field u at the points (zs[i], ys[j]) of a uniform grid.

    ``zs`` and ``ys`` must each be increasing and evenly spaced, else
    ``ValueError``.  Returns values in row i * len(ys) + j.  Every triangle
    tests the grid points of its bounding box by their barycentric
    coordinates, and a point takes the first triangle that holds it.
    """
    tris = mesh.triangles
    corners = mesh.node_xy[tris]                        # (T, 3, 2)
    p1, p2, p3 = corners[:, 0], corners[:, 1], corners[:, 2]
    det = ((p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1])
           - (p3[:, 0] - p1[:, 0]) * (p2[:, 1] - p1[:, 1]))

    def index_span(axis, grid):
        # first grid index inside each triangle's extent along one axis, and
        # the count; the 1e-6 cell slack keeps points that linspace rounding
        # puts just outside, for the barycentric test to decide; a one-point
        # grid takes any positive step
        step = (grid[-1] - grid[0]) / (len(grid) - 1) if len(grid) > 1 else 1.0
        if not np.all(np.abs(grid - grid[0] - step * np.arange(len(grid))) < 1e-6 * step):
            raise ValueError(f"sample grid {'zs' if axis == 0 else 'ys'} is not "
                             "increasing and evenly spaced")
        lo = np.ceil((corners[:, :, axis].min(axis=1) - grid[0]) / step - 1e-6)
        hi = np.floor((corners[:, :, axis].max(axis=1) - grid[0]) / step + 1e-6)
        lo = np.maximum(lo, 0.0)
        return (lo.astype(np.int64),
                np.maximum(np.minimum(hi, len(grid) - 1) - lo + 1, 0).astype(np.int64))

    # one (triangle, grid point) pair per point of each triangle's box
    i0, ni = index_span(0, zs)
    j0, nj = index_span(1, ys)
    count = ni * nj
    t = np.repeat(np.arange(len(tris)), count)
    k = np.arange(len(t)) - np.repeat(np.cumsum(count) - count, count)
    i, j = i0[t] + k // nj[t], j0[t] + k % nj[t]
    pz, py = zs[i], ys[j]

    l2 = ((pz - p1[t, 0]) * (p3[t, 1] - p1[t, 1])
          - (p3[t, 0] - p1[t, 0]) * (py - p1[t, 1])) / det[t]
    l3 = ((p2[t, 0] - p1[t, 0]) * (py - p1[t, 1])
          - (pz - p1[t, 0]) * (p2[t, 1] - p1[t, 1])) / det[t]
    lam = np.stack([1.0 - l2 - l3, l2, l3], axis=-1)
    hit = np.nonzero(np.all(lam >= -1e-10, axis=1))[0]
    # pairs run in triangle order, so the first hit of a point is its first triangle
    found, first = np.unique(i[hit] * len(ys) + j[hit], return_index=True)
    if len(found) < len(zs) * len(ys):
        miss = np.setdiff1d(np.arange(len(zs) * len(ys)), found)[0]
        raise NumericalError(f"field sample point ({zs[miss // len(ys)]:.9g}, "
                             f"{ys[miss % len(ys)]:.9g}) not in mesh")
    hit = hit[first]
    dofs = np.hstack([tris, mesh.tri_midnodes])[t[hit]]
    return np.einsum("pk,pk->p", shape_values(np.clip(lam[hit], 0.0, 1.0)), u[dofs])


def write_field_table(table: np.ndarray, stream) -> None:
    """Write (z, y, value) rows as plain text, blank line between z-groups."""
    prev = None
    for z, y, v in table:
        if prev is not None and z != prev:
            stream.write("\n")
        prev = z
        stream.write(f"{z:.9g} {y:.9g} {v:.9g}\n" if np.isfinite(v)
                     else f"{z:.9g} {y:.9g} nan\n")
