"""Harmonic capacity of a flat crack by a first-kind boundary element method.

A flat screen hole theta x {0} in R^3 carries a capacity potential P: the
harmonic function equal to 1 on the crack, decaying at infinity.  Writing P as
a single-layer potential with density sigma,

    P(x) = (1/4pi) * integral_theta sigma(y') / |x - y'| dy',

the Dirichlet condition P = 1 on theta is a first-kind integral equation for
sigma.  The capacity and the dipole vector are moments of the density:

    Capa(theta) = (1/4pi) * integral sigma,      q = integral y sigma(y) dy,

and the far field expands as P(xi) = Capa/|xi| + q . grad Phi(xi) + O(|xi|^-3)
with Phi(xi) = -1/(4pi |xi|).

Discretization: piecewise-constant densities with collocation at panel
centroids.  Panels are edge-graded (geometric ratio 0.5 over 3 layers) because
sigma blows up like the inverse square root of the distance to the crack edge.
The collocation matrix is dense.  It is filled once per panel pair -- the
upper block triangle, mirrored -- and is exactly symmetric but not always
definite, so it is solved by MINRES with a Jacobi (diagonal) preconditioner.
The MINRES is the module's own (:func:`_minres`, scipy's loop with its
stopping tests), so the layer needs numpy only and starts without scipy.

``panelize`` records the rotation symmetry it builds (``CrackPanels.sectors``):
a disk is an onion of an m-gon, so its panels come in m rotated copies, and a
rectangle's graded grid is symmetric under a half turn.  The right-hand side
(the panel areas) is invariant under these rotations, so the density is too:
only one sector's rows are assembled, with the columns of each orbit summed,
and the density found there is repeated over the sectors.  At 4224 disk
panels (128 sectors of 33) that is a 33 x 33 system: panelize and solve take
about 0.03 s against 0.6-0.7 s for the whole 142 MB matrix; a 2070-panel
rectangle (2 sectors) takes 0.10 s against 0.12-0.15 s (best of 3, 2-core
Xeon, OpenBLAS).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

log = logging.getLogger(__name__)

__all__ = [
    "CrackShape",
    "CrackPanels",
    "CapacityResult",
    "panelize",
    "refine",
    "solve_capacity",
    "eval_far_field",
]

# geometric edge grading toward the crack boundary: ratio 0.5 over 3 layers
EDGE_GRADING_RATIO = 0.5
EDGE_GRADING_LAYERS = 3
# panel pairs closer than this multiple of their joint radius get a
# subdivided (16-point) source quadrature instead of the centroid rule
NEAR_FIELD_FACTOR = 2.5
_GL16 = np.polynomial.legendre.leggauss(16)
# rows of the collocation matrix filled at a time by assemble_system
_ROW_BLOCK = 256
# MINRES stopping tolerance and iteration cap; the true relative residual of
# the solution, at a stop or at the cap, must then be at most _RESIDUAL_LIMIT
_MINRES_RTOL = 1e-14
_MINRES_MAXITER = 1000
_RESIDUAL_LIMIT = 1e-10


# ----------------------------------------------------------------------------
# shapes and panelizations
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CrackShape:
    """A flat crack outline: ``disk``, ``rectangle`` or simple ``polygon``."""

    tag: str
    params: tuple

    @staticmethod
    def disk(radius, center=(0.0, 0.0)):
        radius = float(radius)
        if not math.isfinite(radius) or radius <= 0.0:
            raise ValueError("disk radius must be finite and > 0")
        return CrackShape("disk", (radius, float(center[0]), float(center[1])))

    @staticmethod
    def rectangle(width, height, center=(0.0, 0.0)):
        width, height = float(width), float(height)
        if min(width, height) <= 0.0 or not (math.isfinite(width) and math.isfinite(height)):
            raise ValueError("rectangle sides must be finite and > 0")
        return CrackShape("rectangle", (width, height, float(center[0]), float(center[1])))

    @staticmethod
    def polygon(vertices):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices of shape (n, 2)")
        if _polygon_area(verts) <= 0.0:
            verts = verts[::-1].copy()
        area = _polygon_area(verts)
        if area <= 1e-14 * float(np.max(np.abs(verts)) ** 2 + 1.0):
            raise ValueError("polygon is degenerate (zero enclosed area)")
        if _polygon_self_intersects(verts):
            raise ValueError("polygon boundary must be simple (non-self-intersecting)")
        return CrackShape("polygon", (tuple(map(tuple, verts)),))

    @property
    def diameter(self):
        if self.tag == "disk":
            return 2.0 * self.params[0]
        if self.tag == "rectangle":
            return math.hypot(self.params[0], self.params[1])
        # the largest distance between two vertices
        verts = np.asarray(self.params[0])
        d = verts[:, None, :] - verts[None, :, :]
        return float(np.sqrt((d * d).sum(axis=-1).max()))


@dataclass(frozen=True)
class CrackPanels:
    """Panelization of a crack: ``corners`` is (N, 3, 2) for triangle panels
    or (N, 4, 2) for rectangle panels; centroids/areas are per panel.

    The panels come in ``sectors`` rotated copies, stored sector-major: with
    m = N / sectors, panel s*m + p is panel p turned by 2 pi s / sectors
    about the centroid of all panel centroids.  Construction checks that
    claim in O(N) on the centroids (to 1e-12 of the panel set's diameter) and
    raises ``ValueError`` when it fails, so a wrong ``sectors`` cannot change
    a capacity.  ``panelize`` sets it; other constructions, :func:`refine`'s
    included, have one sector.
    """

    shape: CrackShape
    corners: np.ndarray
    sectors: int = 1

    def __post_init__(self):
        if self.corners.shape[1:] not in ((3, 2), (4, 2)):
            raise ValueError(f"corners must be (N, 3, 2) or (N, 4, 2), not {self.corners.shape}")
        n, k = self.n_panels, self.sectors
        if not (isinstance(k, int) and k >= 1 and n % k == 0):
            raise ValueError(f"sectors must be a positive divisor of the {n} panels, got {k}")
        if k == 1:
            return
        cent = self.centroids
        rel = cent - cent.mean(axis=0)
        theta = 2.0 * np.pi * np.arange(k) / k
        cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
        rep = rel[:self.n_sector_panels]
        turned = np.stack([cos * rep[:, 0] - sin * rep[:, 1],
                           sin * rep[:, 0] + cos * rep[:, 1]], axis=-1)
        miss = float(np.abs(turned.reshape(n, 2) - rel).max())
        diameter = 2.0 * float(np.hypot(rel[:, 0], rel[:, 1]).max())
        if miss > 1e-12 * diameter:
            raise ValueError(f"panels are not {k} rotated sectors: centroids miss "
                             f"their turned sector 0 by {miss:.3e}")

    @property
    def kind(self):
        """"tri" for triangle corners (N, 3, 2), "rect" for rectangles (N, 4, 2)"""
        return "tri" if self.corners.shape[1] == 3 else "rect"

    @property
    def n_sector_panels(self):
        """m = N / sectors: the panels of one sector (the representatives)."""
        return self.n_panels // self.sectors

    @property
    def n_panels(self):
        return len(self.corners)

    @property
    def centroids(self):
        return self.corners.mean(axis=1)

    @property
    def areas(self):
        c = self.corners
        if self.kind == "tri":
            d1 = c[:, 1] - c[:, 0]
            d2 = c[:, 2] - c[:, 0]
            return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        w = np.linalg.norm(c[:, 1] - c[:, 0], axis=1)
        h = np.linalg.norm(c[:, 3] - c[:, 0], axis=1)
        return w * h


@dataclass(frozen=True)
class CapacityResult:
    """Solved crack: capacity, in-plane dipole vector and panel densities."""

    capacity: float
    dipole: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        if not (self.capacity > 0.0):
            raise ValueError("capacity must be > 0")


def _polygon_area(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _polygon_self_intersects(verts):
    n = len(verts)
    segs = [(verts[i], verts[(i + 1) % n]) for i in range(n)]

    def crosses(a, b, c, d):
        def orient(p, q, r):
            return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (orient(a, b, c) * orient(a, b, d) < 0 and
                orient(c, d, a) * orient(c, d, b) < 0)

    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # adjacent around the loop
            if crosses(*segs[i], *segs[j]):
                return True
    return False


def _graded_breaks(length, n, both_ends):
    """Breakpoints of n cells on [0, length], graded geometrically toward
    ``length`` and, when ``both_ends``, toward 0 as well.

    Cell sizes run 1, 2, 4 | 8 ... 8 | 4, 2, 1 (ratio 0.5 over 3 layers);
    with fewer than two bulk cells left the spacing is uniform.
    """
    n_edge = EDGE_GRADING_LAYERS * (2 if both_ends else 1)
    if n - n_edge < 2:
        return np.linspace(0.0, length, n + 1)
    edge = (1.0 / EDGE_GRADING_RATIO) ** np.arange(EDGE_GRADING_LAYERS)
    bulk = np.full(n - n_edge, edge[-1] / EDGE_GRADING_RATIO)
    sizes = np.concatenate(([edge] if both_ends else []) + [bulk, edge[::-1]])
    return np.concatenate([[0.0], np.cumsum(sizes * (length / sizes.sum()))])


def _onion_triangles(center, boundary, n_rings):
    """Triangulate a star-shaped region by concentric scaled boundary rings.

    Sector-major: the triangles of boundary edge i (its fan triangle, then
    two per ring, outward) are contiguous, so a boundary that is a regular
    polygon about ``center`` gives ``len(boundary)`` rotated sectors.
    """
    frac = _graded_breaks(1.0, n_rings, both_ends=False)
    m = len(boundary)
    rings = center + frac[1:, None, None] * (boundary - center)    # (rings, m, 2)
    nxt = np.roll(np.arange(m), -1)
    fan = np.stack([np.broadcast_to(center, (m, 2)), rings[0], rings[0, nxt]], axis=1)
    inner, outer = rings[:-1], rings[1:]
    pairs = np.stack([np.stack([inner, outer, outer[:, nxt]], axis=2),
                      np.stack([inner, outer[:, nxt], inner[:, nxt]], axis=2)], axis=2)
    pairs = pairs.transpose(1, 0, 2, 3, 4).reshape(m, -1, 3, 2)
    return np.concatenate([fan[:, None], pairs], axis=1).reshape(-1, 3, 2)


def panelize(shape, n):
    """Cover a crack shape with ~n edge-graded panels.

    Parameters
    ----------
    shape : CrackShape
    n : int
        Target panel count, >= 4.  Disk and polygon coverings are built from
        concentric boundary rings (triangles); rectangles from a graded
        tensor grid.

    The symmetry built in is recorded in ``sectors``: a disk's m boundary
    points give m rotated sectors; a rectangle's grid is symmetric under a
    half turn (2 sectors: its cells in grid order, the second half
    reversed) unless both cell counts are odd, when the half turn fixes the
    centre cell; polygons have 1.
    """
    n = int(n)
    if n < 4:
        raise ValueError("panel target n must be >= 4")
    if shape.tag == "rectangle":
        width, height, cx, cy = shape.params
        nx = max(2, int(round(math.sqrt(n * width / height))))
        ny = max(2, int(math.ceil(n / nx)))
        xb = _graded_breaks(width, nx, both_ends=True) - 0.5 * width + cx
        yb = _graded_breaks(height, ny, both_ends=True) - 0.5 * height + cy
        corners = []
        for i in range(nx):
            for j in range(ny):
                x0, x1 = xb[i], xb[i + 1]
                y0, y1 = yb[j], yb[j + 1]
                corners.append(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
        if nx % 2 and ny % 2:
            return CrackPanels(shape, np.array(corners))
        # the half turn maps cell k to cell nx*ny - 1 - k
        half = nx * ny // 2
        corners = corners[:half] + corners[:half - 1:-1]
        return CrackPanels(shape, np.array(corners), sectors=2)

    if shape.tag == "disk":
        radius, cx, cy = shape.params
        m = int(np.clip(2 ** round(math.log2(max(8.0, math.sqrt(2.5 * n)))), 8, 512))
        n_rings = max(2, int(math.ceil((n / m + 1) / 2)))
        angles = 2.0 * np.pi * np.arange(m) / m
        boundary = np.column_stack([cx + radius * np.cos(angles),
                                    cy + radius * np.sin(angles)])
        tris = _onion_triangles(np.array([cx, cy]), boundary, n_rings)
        return CrackPanels(shape, tris, sectors=m)

    # polygon: resample the boundary, then the same onion construction
    verts = np.asarray(shape.params[0], dtype=float)
    center = verts.mean(axis=0)
    rel = verts - center
    cross = rel[:, 0] * np.roll(rel[:, 1], -1) - rel[:, 1] * np.roll(rel[:, 0], -1)
    if np.any(cross <= 0):
        raise ValueError("polygon must be star-shaped about its vertex centroid")
    edge_len = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
    m_target = max(len(verts), int(round(math.sqrt(2.5 * n))))
    per_edge = np.maximum(1, np.round(m_target * edge_len / edge_len.sum()).astype(int))
    boundary = []
    for i, k in enumerate(per_edge):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        for t in np.arange(k) / k:
            boundary.append(a + t * (b - a))
    boundary = np.array(boundary)
    n_rings = max(2, int(math.ceil((n / len(boundary) + 1) / 2)))
    tris = _onion_triangles(center, boundary, n_rings)
    return CrackPanels(shape, tris)


def refine(panels):
    """Split every panel in four congruent children (children tile the parent)."""
    c = panels.corners
    if panels.kind == "tri":
        m01 = 0.5 * (c[:, 0] + c[:, 1])
        m12 = 0.5 * (c[:, 1] + c[:, 2])
        m20 = 0.5 * (c[:, 2] + c[:, 0])
        children = np.concatenate([
            np.stack([c[:, 0], m01, m20], axis=1),
            np.stack([m01, c[:, 1], m12], axis=1),
            np.stack([m20, m12, c[:, 2]], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ])
    else:
        p0, p1, p2, p3 = c[:, 0], c[:, 1], c[:, 2], c[:, 3]
        e01, e12, e23, e30 = (0.5 * (p0 + p1), 0.5 * (p1 + p2),
                              0.5 * (p2 + p3), 0.5 * (p3 + p0))
        mid = 0.25 * (p0 + p1 + p2 + p3)
        children = np.concatenate([
            np.stack([p0, e01, mid, e30], axis=1),
            np.stack([e01, p1, e12, mid], axis=1),
            np.stack([mid, e12, p2, e23], axis=1),
            np.stack([e30, mid, e23, p3], axis=1),
        ])
    return CrackPanels(panels.shape, children)


# ----------------------------------------------------------------------------
# integral operator assembly
# ----------------------------------------------------------------------------

def _self_integrals_rect(corners):
    """exact integrals of 1/|c - y| over rectangles (n, 4, 2), each
    collocated at its centre"""
    a = 0.5 * np.hypot(*(corners[:, 1] - corners[:, 0]).T)
    b = 0.5 * np.hypot(*(corners[:, 3] - corners[:, 0]).T)
    return 4.0 * (a * np.arcsinh(b / a) + b * np.arcsinh(a / b))


def _self_integrals_tri(corners, cent):
    """integrals of 1/|c - y| over triangles, each collocated at its centroid

    Split at the centroid into three vertex-singular triangles; the Duffy
    substitution makes each a smooth 1D integral, done with 16-point Gauss.
    """
    t, w = _GL16
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    total = 0.0
    for k in range(3):
        a = corners[:, k] - cent
        b = corners[:, (k + 1) % 3] - cent
        two_area = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
        seg = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
        total = total + two_area * np.sum(w / np.hypot(seg[..., 0], seg[..., 1]), axis=1)
    return total


def _subdivide_for_quadrature(panels):
    """16 sub-centroids and sub-areas per panel for near-field quadrature."""
    fine = refine(refine(panels))
    n = panels.n_panels
    sub_c = fine.centroids.reshape(4, 4, n, 2).transpose(2, 0, 1, 3).reshape(n, 16, 2)
    sub_a = fine.areas.reshape(4, 4, n).transpose(2, 0, 1).reshape(n, 16)
    return sub_c, sub_a


def _hypot_inplace(dx, dy):
    """sqrt(dx*dx + dy*dy), overwriting dx and dy"""
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def assemble_system(panels):
    """Dense symmetric collocation system (matrix B, right-hand side) on the
    m = N / sectors representative panels of one sector.

    Row i of the raw collocation equations is scaled by area_i, which makes
    the centroid-rule matrix exactly symmetric:
    B_ij = area_i * area_j / (4 pi r_ij), with analytic/adapted self-terms and
    subdivided quadrature for close panel pairs.  A close pair gets the mean
    of its two collocations, B_ij = B_ji = (f_ij + f_ji) / 2, where f_ij
    collocates at centroid i over the 16 sub-panels of panel j.

    The right-hand side, the areas, is invariant under the panels' rotations
    (``CrackPanels.sectors``), and so is the density.  Only one sector's rows
    are needed, with the columns of each orbit summed: the returned B is
    B_ij = sum_s B_full[i, s*m + j] for i, j < m, and the right-hand side is
    the representatives' areas.  With one sector it is B_full itself.

    Each pair is computed once.  B is filled in blocks of _ROW_BLOCK rows:
    block i0:i1 computes the columns s*m + j for every sector s and every
    j >= i0, evaluates both near-field directions of each close pair there in
    one pass, gets its self terms, and is summed over s; the block's upper
    triangle is then mirrored into the lower one and into B[i1:, i0:i1].
    Temporaries are O(_ROW_BLOCK * N).
    """
    cent = panels.centroids
    area = panels.areas
    n_sectors, m = panels.sectors, panels.n_sector_panels
    # panel "radius" = max centroid-to-corner distance
    rad = np.linalg.norm(panels.corners - cent[:, None, :], axis=2).max(axis=1)
    cx, cy = cent[:, 0].copy(), cent[:, 1].copy()
    sub_c, sub_a = _subdivide_for_quadrature(panels)
    sub_x, sub_y = sub_c[..., 0].copy(), sub_c[..., 1].copy()
    corners = panels.corners[:m]
    if panels.kind == "rect":
        self_terms = _self_integrals_rect(corners)
    else:
        self_terms = _self_integrals_tri(corners, cent[:m])
    self_terms = area[:m] * self_terms / (4.0 * np.pi)

    def collocate(i, j):
        """f_ij: collocation at centroid i over the sub-panels of panel j"""
        q = _hypot_inplace(cx[i, None] - sub_x[j], cy[i, None] - sub_y[j])
        np.divide(sub_a[j], q, out=q)
        return area[i] * np.sum(q, axis=1) / (4.0 * np.pi)

    B = np.empty((m, m))
    for i0 in range(0, m, _ROW_BLOCK):
        i1 = min(i0 + _ROW_BLOCK, m)
        width = m - i0
        # column k of the block is panel s*m + j, s = k // width, j = i0 + k % width
        cols = (np.arange(n_sectors)[:, None] * m + np.arange(i0, m)).ravel()
        r = _hypot_inplace(cx[i0:i1, None] - cx[None, cols],
                           cy[i0:i1, None] - cy[None, cols])
        np.fill_diagonal(r, 1.0)        # r[k, k] is panel i0 + k to itself
        if r.min() <= 0.0:
            raise NumericalError("duplicate panel centroids: collocation system is singular")
        near = r < NEAR_FIELD_FACTOR * (rad[i0:i1, None] + rad[None, cols])
        blk = np.multiply(area[i0:i1, None], area[None, cols])
        r *= 4.0 * np.pi
        blk /= r
        # close pairs of the upper triangle: j > i, or j == i in another sector
        kk, ll = np.nonzero(near)
        jj = ll % width
        upper = (jj > kk) | ((jj == kk) & (ll >= width))
        kk, ll = kk[upper], ll[upper]
        ii, pp = kk + i0, cols[ll]
        f = collocate(ii, pp)
        f += collocate(pp, ii)
        f *= 0.5
        blk[kk, ll] = f
        k = np.arange(i1 - i0)
        blk[k, k] = self_terms[i0:i1]
        B[i0:i1, i0:] = blk.reshape(i1 - i0, n_sectors, width).sum(axis=1)
        # the block square's lower triangle mirrors its upper one; with one
        # sector the far-field entries already agree bit for bit (r_ij == r_ji)
        square = B[i0:i1, i0:i1]
        lower = np.tril_indices(i1 - i0, -1)
        square[lower] = square.T[lower]
        B[i1:, i0:i1] = B[i0:i1, i1:].T
    return B, area[:m].copy()


def _power_of_two_below(x):
    """2**floor(log2(x)) for x > 0; dividing by it is exact"""
    return math.ldexp(1.0, math.frexp(x)[1] - 1)


def _minres(B, b, jacobi):
    """Solve the symmetric system B x = b != 0 from x = 0 by MINRES,
    preconditioned with the positive diagonal ``jacobi`` (applied as
    jacobi * r).

    The loop of Paige & Saunders (SIAM J. Numer. Anal. 12, 1975) as SOL's
    MATLAB minres and ``scipy.sparse.linalg.minres`` run it, with their
    stopping tests: besides the cap ``_MINRES_MAXITER``, it stops when
    test1 = |r| / (|B| |x|) or test2 = |B r| / (|B| |r|) falls to
    ``_MINRES_RTOL``, when the estimate of cond(B) reaches 0.1/eps, or when
    eps |B| |x| reaches the preconditioned norm of b.  (Their rounding-level
    tests, 1 + test == 1, are implied for a tolerance >= eps.)  A stop on
    |r| / |b| alone can miss at rounding level and run to the cap.
    Returns (x, iterations), iterations == ``_MINRES_MAXITER`` at the cap.
    """
    eps = np.finfo(float).eps
    x = np.zeros(len(b))
    r1 = b.copy()
    y = jacobi * r1
    beta1 = math.sqrt(float(r1 @ y))
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin = 0.0, 0.0, np.finfo(float).max
    cs, sn = -1.0, 0.0
    w = w2 = np.zeros(len(b))
    r2 = r1
    itn = 0
    while True:
        itn += 1
        # Lanczos step
        v = (1.0 / beta) * y
        y = B @ v
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = jacobi * r2
        oldb, beta = beta, math.sqrt(float(r2 @ y))
        tnorm2 += alfa * alfa + oldb * oldb + beta * beta
        # b is an eigenvector: x is exact after this step
        eigenvector = itn == 1 and beta / beta1 <= 10.0 * eps
        # the previous plane rotation, then the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm = math.sqrt(tnorm2)
        xnorm = math.sqrt(float(x @ x))
        test1 = phibar / (anorm * xnorm) if anorm * xnorm > 0.0 else math.inf
        test2 = root / anorm if anorm > 0.0 else math.inf
        if (eigenvector or min(test1, test2) <= _MINRES_RTOL or gmax / gmin >= 0.1 / eps
                or anorm * xnorm * eps >= beta1 or itn >= _MINRES_MAXITER):
            return x, itn


def solve_capacity(panels):
    """Solve the single-layer equation and return capacity, dipole, density.

    B sigma = area is solved by Jacobi-preconditioned MINRES on the system
    of :func:`assemble_system`: one sector's representatives, whose density
    every rotated copy shares.  B is symmetric but need not be definite.  B
    and the right-hand side are first divided by the powers of two at or
    below their largest entries: that division is exact, so a crack scaled
    by a power of two solves the bitwise-same normalized system.  Raises
    :class:`NumericalError` when the true relative residual
    |B sigma - area| / |area| exceeds 1e-10; a solution within that limit
    is kept, also when MINRES stopped at its iteration cap.  The density
    is then repeated over the sectors: ``density`` has one value per panel.
    """
    B, rhs = assemble_system(panels)
    s = _power_of_two_below(float(np.diagonal(B).max()))
    t = _power_of_two_below(float(rhs.max()))
    B /= s
    rhs /= t
    y, iterations = _minres(B, rhs, 1.0 / np.diagonal(B))
    # the check multiplies by B independently of the MINRES products, and
    # in this thread: ending on a threaded BLAS product slowed the caller's
    # next step (the next 4224-panel assembly by about 10 %)
    By = np.einsum("ij,j->i", B, y)
    resid = float(np.linalg.norm(By - rhs) / np.linalg.norm(rhs))
    if not resid <= _RESIDUAL_LIMIT:
        raise NumericalError(
            f"capacity MINRES stopped after {iterations} iterations (cap {_MINRES_MAXITER}) "
            f"with relative residual {resid:.3e} (limit {_RESIDUAL_LIMIT:.0e})")
    log.info("solved %d panels, %d MINRES iterations on %d representatives of "
             "%d sectors, residual %.3e", panels.n_panels, iterations,
             panels.n_sector_panels, panels.sectors, resid)
    sigma = np.tile(y * (t / s), panels.sectors)
    area = panels.areas
    weights = sigma * area
    capacity = float(np.sum(weights)) / (4.0 * np.pi)
    dipole = weights @ panels.centroids
    return CapacityResult(capacity=capacity, dipole=dipole, density=sigma)


def eval_far_field(result, panels, point):
    """Single-layer potential at a 3D point well separated from the crack.

    The crack lies in the plane x3 = 0; ``point`` is (x1, x2, x3) with
    |point| > 3 * shape diameter (closer evaluations would need the adapted
    near-field quadrature that this helper intentionally omits).
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (3,):
        raise ValueError("point must be a 3-vector")
    diam = panels.shape.diameter
    if np.linalg.norm(point) <= 3.0 * diam:
        raise ValueError("point too close to the crack (need |point| > 3*diameter)")
    cent = panels.centroids
    dx = point[0] - cent[:, 0]
    dy = point[1] - cent[:, 1]
    dist = np.sqrt(dx * dx + dy * dy + point[2] * point[2])
    return float(np.sum(result.density * panels.areas / dist) / (4.0 * np.pi))
