"""Conforming P2 triangle meshes of the screen sections of a strip.

A screen at z = s with apertures scatters the guide modes within its
section (s - delta, s + delta) x (0, 1); outside the sections the guide is
uniform, and its modal basis solves it, so it is not meshed.  The strip with
screens at z = -L and z = +L (:class:`WaveguideGeometry2D`) takes
delta = min(L, d), d = ``SECTION_HALF_WIDTH``, so its two sections touch at
z = 0 when L <= d and never overlap.  Its scattering solve needs only the
mirror-odd part of each section: the mesh is, for each perforated screen at
s, the left half (s - delta, s) of its section (:func:`_half_section`),
without seams.  The mesher builds nothing else; a half-section whose
apertures are mirror-symmetric about y = H/2 is also cut along its node row
there (:func:`_lower_half`), for a screen S-matrix on the lower half of the
guide.

The whole section (-delta, delta) x (0, 1) around a single screen at z = 0
(:class:`ScreenSection`) is the half-section and its exact mirror image
z -> -z (:func:`_mirrored`).  The screen has zero thickness: mesh nodes on
the closed parts of the screen line are duplicated into a left-face and a
right-face copy (a "seam"), while nodes inside an aperture stay single.  No
table pairs the copies: a face copy is identified by the triangles that use
it, which all lie on its side of the screen.  Aperture endpoints (crack
tips) are kept as exact mesh vertices and stay single: both faces meet
there.  No solve meshes a whole section; it is the reference the
half-section solves are checked against.

Half-section structure, outside-in:

* a structured tensor grid of size ~h over most of the half-section, with
  grid lines snapped to z in {-delta, 0};
* a thin vertical "slab" [-W, 0] along a perforated screen, tiled with
  square cells of size ~W/2 (W <= h);
* inside the slab, the left half of a square "window" of half-size W
  around each aperture (or around each crack tip for apertures wider than
  the window), filled with concentric square half-rings that shrink
  geometrically from W down to the aperture scale and then, in four layers
  of ratio 0.5, down to the crack-tip scale delta_tip = min(eps/2, h) / 16;
* mismatched node rows are joined by a monotone-merge "zipper" strip, which
  keeps all transitions 2:1-ish and all angles bounded away from zero.

Everything is deterministic: a whole section is node-for-node symmetric
under z -> -z, a half-section is symmetric under y -> 1-y when its
apertures are, and equal screens get the same half-section.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

__all__ = [
    "WaveguideGeometry2D",
    "ScreenSection",
    "Mesh",
    "build_mesh",
    "validate_mesh",
]

TAG_WALL = "wall"
TAG_SCREEN = "screen_face"
TAG_GAMMA_MINUS = "gamma_minus"
TAG_GAMMA_PLUS = "gamma_plus"
TAG_GAP_PLUS = "gap_plus"
TAG_APERTURE = "aperture"

_F2 = (-1.0, 0.0, 1.0)
_F4 = (-1.0, -0.5, 0.0, 0.5, 1.0)

H = 1.0             # guide height: the strip's modal basis lives on (0, 1)
_TIP_GRADING = 0.5  # ring ratio of a crack-tip web
_TIP_LAYERS = 4     # rings of a tip web below min(aperture width/2, h)
# Estimated nodes of one half-section's slab above which the mesh is refused.
# A strip solve takes 2.1-2.4 kB per node (266 MB at 109,358 nodes), so a
# strip of two such half-sections stays near 1 GB.
_MAX_SLAB_NODES = 250_000

# Distance d from a screen to the nearest port: the evanescent modes a screen
# excites have decayed below the retained truncation there (cascades with
# N = 15 and N = 25 modes agree to 2e-11).  It is the half-width of the
# section a screen S-matrix is computed on, and of the strip's sections
# when the screens are at least 2d apart.
SECTION_HALF_WIDTH = 0.3


# Apertures whose ends are mirror images about y = H/2 to this much are
# mirror-symmetric, and mesh nodes this close to y = H/2 lie on it: ends
# computed as c -+ w/2 and 1 - c -+ w/2 round up to 0.5 ulp(H) apart.
_MIRROR_TOL = 4.0 * math.ulp(H)


# ----------------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------------

def _mirror_symmetric(holes):
    """Whether a screen's apertures (None, () or (lo, hi) pairs) are their
    own mirror image about y = H/2, to ``_MIRROR_TOL``; no screen and a
    closed one are."""
    if not holes:
        return True
    ends = np.sort(np.ravel(holes))
    return bool(np.all(np.abs(ends + ends[::-1] - H) <= _MIRROR_TOL))


def _check_holes(holes, name):
    if holes is None:
        return None
    out = []
    for iv in holes:
        lo, hi = float(iv[0]), float(iv[1])
        if not (0.0 < lo < hi < 1.0):
            raise ValueError(f"{name}: hole ({lo}, {hi}) must lie strictly inside (0, 1)")
        out.append((lo, hi))
    out.sort()
    for (a, b), (c, d) in zip(out, out[1:]):
        if c <= b:
            raise ValueError(f"{name}: holes ({a}, {b}) and ({c}, {d}) overlap or touch")
    return tuple(out)


@dataclass(frozen=True)
class WaveguideGeometry2D:
    """Strip (-Z, Z) x (0, 1) with screens at z = -L and z = +L.

    Each screen has a section of half-width ``section_half_width``
    delta = min(L, d), d = ``SECTION_HALF_WIDTH``; the strip carries its
    modal ports on the sections' outer faces, at ``port_half_length``
    Zp = L + delta, and the uniform guide between the sections is
    -a < z < a, a = ``gap_half_length`` = L - delta, of length 0 when the
    sections touch (L <= d).  The guide beyond the sections is uniform and
    its modal basis solves it; of each section only the half-section of its
    mirror-odd part is meshed (:func:`build_mesh`).  Z only sets the window
    of the exported field.

    ``holes_left`` / ``holes_right`` are the apertures of each screen, given
    as open subintervals of (0, 1):
      * list of (lo, hi) pairs -- perforated screen,
      * empty list           -- fully closed screen,
      * None                 -- no screen at all on that line.
    """

    screen_half_distance: float
    trunc_half_length: float
    holes_left: tuple | None = ()
    holes_right: tuple | None = ()

    def __post_init__(self):
        L, Z = self.screen_half_distance, self.trunc_half_length
        if not (0.0 < L < Z):
            raise ValueError("need 0 < L < Z (screen inside the truncated strip)")
        object.__setattr__(self, "holes_left", _check_holes(self.holes_left, "holes_left"))
        object.__setattr__(self, "holes_right", _check_holes(self.holes_right, "holes_right"))

    @property
    def section_half_width(self):
        return min(self.screen_half_distance, SECTION_HALF_WIDTH)

    @property
    def port_half_length(self):
        return self.screen_half_distance + self.section_half_width

    @property
    def gap_half_length(self):
        return self.screen_half_distance - self.section_half_width

    @property
    def screen_positions(self):
        return (-self.screen_half_distance, self.screen_half_distance)

    def holes_of(self, s):
        return self.holes_left if s < 0 else self.holes_right

    def closed_segments(self, s):
        """Complement of the apertures in [0, 1] for the screen at z=s."""
        return _closed_segments(self.holes_of(s))


@dataclass(frozen=True)
class ScreenSection:
    """Strip (-half_width, half_width) x (0, 1) with one screen at z = 0.

    The short section a single screen's scattering matrix is computed on;
    ``holes`` follows the convention of :class:`WaveguideGeometry2D`.
    """

    half_width: float
    holes: tuple | None = ()

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise ValueError("half_width must be > 0")
        object.__setattr__(self, "holes", _check_holes(self.holes, "holes"))

    @property
    def port_half_length(self):
        return self.half_width

    @property
    def gap_half_length(self):
        return 0.0

    @property
    def screen_positions(self):
        return (0.0,)

    def holes_of(self, s):
        return self.holes

    def closed_segments(self, s):
        return _closed_segments(self.holes)


def _closed_segments(holes):
    if holes is None:
        return ()
    segs, prev = [], 0.0
    for lo, hi in holes:
        segs.append((prev, lo))
        prev = hi
    segs.append((prev, H))
    return tuple(segs)


@dataclass(eq=False)
class Mesh:
    """P2 triangle mesh, with duplicated crack-face nodes where it spans a screen.

    node_xy holds all nodes (vertices first, then edge midpoints); triangles
    and tri_midnodes give per-triangle vertex ids and midpoint ids for the
    local edges (v0v1, v1v2, v2v0).  A whole section's vertices and
    triangles are those of its left half, then those of the half's mirror
    image.  Coincident nodes are the two face copies of a closed screen
    point; each copy is identified by the triangles that use it, which lie
    on its side of the screen.  A mesh of half-sections has none, and may
    have no nodes at all.  edges lists
    every edge once as (vertex a < vertex b, midpoint), in midpoint order:
    row k holds the edge whose midpoint is node n_vertices + k.
    """

    node_xy: np.ndarray
    n_vertices: int
    triangles: np.ndarray
    tri_midnodes: np.ndarray
    boundary_edges: np.ndarray      # (k, 3): vertex a, vertex b, midpoint
    boundary_tags: np.ndarray       # (k,) strings
    edges: np.ndarray = field(repr=False)
    geometry: WaveguideGeometry2D | ScreenSection | None = None

    @property
    def n_nodes(self):
        return len(self.node_xy)

    @property
    def vertices(self):
        return self.node_xy[: self.n_vertices]


# ----------------------------------------------------------------------------
# incremental builder: node registry + oriented triangle emission
# ----------------------------------------------------------------------------

class _Builder:
    """Node registry and oriented triangle emission."""

    def __init__(self):
        self._ids = {}
        self.xy = []
        self.tris = []

    def node(self, z, y):
        ids, key = self._ids, (z, y)
        idx = ids.setdefault(key, len(ids))
        if idx == len(self.xy):
            self.xy.append(key)
        return idx

    def tri(self, a, b, c):
        (za, ya), (zb, yb), (zc, yc) = self.xy[a], self.xy[b], self.xy[c]
        area2 = (zb - za) * (yc - ya) - (yb - ya) * (zc - za)
        if area2 == 0.0:
            raise NumericalError(f"degenerate triangle at ({za:.6g}, {ya:.6g})")
        if area2 < 0.0:
            b, c = c, b
        self.tris.append((a, b, c))

    def row(self, coords):
        """Register a row of nodes; returns (ids, params) with param = position
        along the row (the coordinate that varies)."""
        ids = [self.node(z, y) for z, y in coords]
        zs = [c[0] for c in coords]
        ts = zs if (max(zs) - min(zs)) > 0 else [c[1] for c in coords]
        return ids, ts

    def _quad4(self, corners):
        """Split a quad into 4 triangles through its centroid node."""
        pts = [self.xy[k] for k in corners]
        cz = sum(p[0] for p in pts) / 4.0
        cy = sum(p[1] for p in pts) / 4.0
        cen = self.node(cz, cy)
        for k in range(4):
            self.tri(corners[k], corners[(k + 1) % 4], cen)

    def zip_rows(self, row_a, row_b):
        """Triangulate the strip between two parallel node rows.

        The strip is split recursively along the most central, straightest
        diagonal; an exactly symmetric candidate pair triggers a 3-way split.
        Both rules are invariant under parameter reversal and under swapping
        the rows, so mirrored geometries mesh mirror-symmetrically (the plain
        left-to-right merge would not).
        """
        ids_a, ts_a = row_a
        ids_b, ts_b = row_b
        span = max(ts_a[-1], ts_b[-1]) - min(ts_a[0], ts_b[0])
        eps = 1e-12 * max(span, 1e-300)

        def cell(i0, i1, j0, j1):
            p, q = i1 - i0, j1 - j0
            if p == 0 and q == 0:
                return
            if p == 0:
                for j in range(j0, j1):
                    self.tri(ids_b[j], ids_b[j + 1], ids_a[i0])
                return
            if q == 0:
                for i in range(i0, i1):
                    self.tri(ids_a[i], ids_a[i + 1], ids_b[j0])
                return
            if p == 1 and q == 1:
                self._quad4((ids_a[i0], ids_a[i1], ids_b[j1], ids_b[j0]))
                return
            best = _split_pairs(ts_a, ts_b, i0, i1, j0, j1, eps)
            (ia, ja), (ib, jb) = best[0], best[-1]
            if len(best) > 1 and ib >= ia and jb >= ja:
                cell(i0, ia, j0, ja)
                cell(ia, ib, ja, jb)
                cell(ib, i1, jb, j1)
            else:
                cell(i0, ia, j0, ja)
                cell(ia, i1, ja, j1)

        cell(0, len(ids_a) - 1, 0, len(ids_b) - 1)

    def quad(self, z0, z1, y0, y1):
        """Two triangles on an axis-aligned cell left of the screen; the
        diagonal flips at y = H/2 so mirrored geometries mesh
        mirror-symmetrically."""
        ll = self.node(z0, y0)
        lr = self.node(z1, y0)
        ur = self.node(z1, y1)
        ul = self.node(z0, y1)
        if 0.5 * (y0 + y1) >= 0.5 * H:
            self.tri(ll, lr, ul)
            self.tri(lr, ur, ul)
        else:
            self.tri(ll, lr, ur)
            self.tri(ll, ur, ul)


def _scan_pairs(ts_a, ts_b, irange, jrange, corners, mid, eps, cap=math.inf):
    """The most central, straightest split pairs (i, j) of a zipper cell.

    Pairs are visited in (i, j) order; the key is (|t_a - mid| + |t_b - mid|,
    |t_a - t_b|), compared to ``eps`` one pair after the other, and a pair
    whose first key exceeds ``cap`` is passed over.
    """
    best, best_key = [], None
    for i in irange:
        for j in jrange:
            if (i, j) in corners:
                continue
            key = (abs(ts_a[i] - mid) + abs(ts_b[j] - mid), abs(ts_a[i] - ts_b[j]))
            if key[0] > cap:
                continue
            if best_key is None:
                best, best_key = [(i, j)], key
                continue
            if abs(key[0] - best_key[0]) <= eps:
                if abs(key[1] - best_key[1]) <= eps:
                    best.append((i, j))
                elif key[1] < best_key[1]:
                    best, best_key = [(i, j)], key
            elif key[0] < best_key[0]:
                best, best_key = [(i, j)], key
    return best


def _nearest_two(ts, lo, hi, mid):
    """The two smallest |t - mid| over the sorted ts[lo:hi + 1] (two or more)."""
    k = bisect_left(ts, mid, lo, hi + 1)
    return sorted(abs(ts[i] - mid) for i in range(max(lo, k - 2), min(hi, k + 1) + 1))[:2]


def _split_pairs(ts_a, ts_b, i0, i1, j0, j1, eps):
    """``_scan_pairs`` over the cell rows [i0, i1] x [j0, j1], minus its corners.

    The first key is a sum of one term per row, each smallest at the nodes
    nearest mid.  A pair whose first key is more than eps above that of the
    best pair seen so far changes nothing, and the first pair of the minimum
    class resets whatever a larger one left.  So the scan gives the same pairs
    when it skips every pair above a threshold T >= the minimum that has no
    pair in (T, T + eps]; those pairs sit in a box of rows found by bisection.
    T starts at f2 + g2, the sum of the rows' second-smallest terms: three
    pairs that cannot all be corners reach at most that.
    """
    mid = 0.25 * (ts_a[i0] + ts_a[i1] + ts_b[j0] + ts_b[j1])
    corners = ((i0, j0), (i1, j1))
    (f1, f2), (g1, g2) = _nearest_two(ts_a, i0, i1, mid), _nearest_two(ts_b, j0, j1, mid)
    t0 = f2 + g2
    # eps plus room for the rounding of |t - mid| against the bisection bounds
    margin = 4.0 * eps + 1e-13 * (abs(mid) + ts_a[i1] - ts_a[i0] + ts_b[j1] - ts_b[j0])
    ri, rj = t0 - g1 + margin, t0 - f1 + margin
    irange = range(bisect_left(ts_a, mid - ri, i0, i1 + 1),
                   bisect_right(ts_a, mid + ri, i0, i1 + 1))
    jrange = range(bisect_left(ts_b, mid - rj, j0, j1 + 1),
                   bisect_right(ts_b, mid + rj, j0, j1 + 1))
    keys = [abs(ts_a[i] - mid) + abs(ts_b[j] - mid) for i in irange for j in jrange]
    cap = t0
    while True:
        band = [k for k in keys if cap < k <= cap + eps]
        if not band:
            break
        cap = max(band)
    if cap + eps > t0 + 0.5 * margin:     # a chain of near-ties leaves the box
        return _scan_pairs(ts_a, ts_b, range(i0, i1 + 1), range(j0, j1 + 1), corners,
                           mid, eps)
    return _scan_pairs(ts_a, ts_b, irange, jrange, corners, mid, eps, cap)


def _fill(a, b, cap):
    """Uniform partition points of [a, b] (inclusive) with spacing <= cap.

    The endpoints are returned bit-exactly (`a + (b-a)` may differ from `b`
    in the last ulp, which would silently split mesh nodes).
    """
    n = max(1, int(math.ceil((b - a) / cap - 1e-9)))
    return [a] + [a + (b - a) * k / n for k in range(1, n)] + [b]


def _filled_axis(anchors, cap):
    vals = [anchors[0]]
    for a, b in zip(anchors, anchors[1:]):
        vals.extend(_fill(a, b, cap)[1:])
    return vals


# ----------------------------------------------------------------------------
# square-ring machinery for aperture windows
# ----------------------------------------------------------------------------

def _ring_rows(bld, cy, a, fracs=None, zs=None, ys=None):
    """Node rows (bottom, top, left) of the left half of a square ring of
    half-size a centred at (0, cy) on the screen line; the bottom and top
    rows run from z = -a to 0.

    Explicit coordinate lists zs/ys override the fraction construction so a
    ring can reuse node positions owned by a neighboring structure bit-exactly.
    """
    if zs is None:
        zs = [a * f for f in fracs if f <= 0.0]
    if ys is None:
        ys = [cy + a * f for f in fracs]
    return (bld.row([(z, ys[0]) for z in zs]),
            bld.row([(z, ys[-1]) for z in zs]),
            bld.row([(zs[0], y) for y in ys]))


def _zip_rings(bld, inner, outer):
    for row_in, row_out in zip(inner, outer):
        bld.zip_rows(row_in, row_out)


def _fan(bld, cy, ring):
    """Triangulate the inside of a half-ring by fanning from its centre node
    (0, cy): over the bottom row, then over the top row from the screen
    back to the left column and down that to the bottom corner."""
    center = bld.node(0.0, cy)
    (b_ids, _), (t_ids, _), (l_ids, _) = ring
    for line in (b_ids, t_ids[::-1] + l_ids[-2::-1]):
        for p, q in zip(line, line[1:]):
            bld.tri(center, p, q)


def _grade_radii(a0, delta_req):
    """Radii from a0 down to ~delta_req in steps of ratio _TIP_GRADING."""
    if delta_req >= a0 * 0.999:
        return [a0]
    g = _TIP_GRADING
    n = max(1, int(math.ceil(math.log(delta_req / a0) / math.log(g) - 1e-9)))
    return [a0 * g ** k for k in range(n + 1)]


def _tip_delta(w, h_eff):
    return min(0.5 * w, h_eff) * _TIP_GRADING ** _TIP_LAYERS


def _emit_tip_web(bld, t, a0, rows0, delta_req):
    """Concentric square half-rings around a crack tip, ending in a fan."""
    radii = _grade_radii(a0, delta_req)
    rings = [rows0] + [_ring_rows(bld, t, a, _F2) for a in radii[1:]]
    for outer, inner in zip(rings, rings[1:]):
        _zip_rings(bld, inner, outer)
    _fan(bld, t, rings[-1])


def _ladder_radii(r_in, r_out):
    """Ascending radii from r_in to r_out with ratios in [1.4, 2]."""
    radii = [r_in]
    while radii[-1] * 2.0 < r_out * (1.0 - 1e-12):
        radii.append(radii[-1] * 2.0)
    if r_out / radii[-1] < 1.4 and len(radii) >= 2:
        radii[-1] = math.sqrt(radii[-2] * r_out)
    radii.append(r_out)
    return radii


def _emit_hole_window(bld, lo, hi, W, zs5, ys5, h_eff):
    """Left half of a square window of half-size W around a whole (narrow)
    aperture, with boundary rows ``ys5``.

    Outer F4 half-rings shrink from W to the aperture scale w = hi - lo;
    inside sits a fixed block: a quad column, plus a half-box around each
    tip whose interior is a geometrically graded tip web.
    """
    c = 0.5 * (lo + hi)
    w = hi - lo
    etas = [c - w, lo, c, hi, c + w]
    zsw = [-w, -0.5 * w, 0.0]

    # ring ladder from the window boundary down to the block boundary
    radii = _ladder_radii(w, W)
    rings = [_ring_rows(bld, c, w, zs=zsw, ys=etas)]
    for a in radii[1:-1]:
        rings.append(_ring_rows(bld, c, a, _F4))
    rings.append(_ring_rows(bld, c, W, zs=zs5, ys=ys5))
    for inner, outer in zip(rings, rings[1:]):
        _zip_rings(bld, inner, outer)

    # block column: 4 square cells
    for y0, y1 in zip(etas, etas[1:]):
        bld.quad(zsw[0], zsw[1], y0, y1)

    # tip half-boxes (built from the shared arrays) + graded webs
    for tip, ysub in ((lo, etas[0:3]), (hi, etas[2:5])):
        rows = _ring_rows(bld, tip, 0.5 * w, zs=zsw[1:], ys=ysub)
        _emit_tip_web(bld, tip, 0.5 * w, rows, _tip_delta(w, h_eff))


def _emit_tip_window(bld, t, w, W, zs5, ys5, h_eff):
    """Left half of a square window of half-size W around a single tip of a
    wide aperture, with boundary rows ``ys5``."""
    outer = _ring_rows(bld, t, W, zs=zs5, ys=ys5)
    first = _ring_rows(bld, t, 0.5 * W, _F2)
    _zip_rings(bld, first, outer)
    _emit_tip_web(bld, t, 0.5 * W, first, _tip_delta(w, h_eff))


# ----------------------------------------------------------------------------
# the slab around the screen: windows + plain square-cell rectangles
# ----------------------------------------------------------------------------

def _slab_window_size(holes, h_eff):
    """Window half-size W for a screen with apertures ``holes``, and the
    per-hole mode.

    Narrow holes (w <= W/1.4) get one window around the whole aperture; wide
    holes (w >= 2W) get one window per tip.  W shrinks until no hole is left
    between those regimes, so ring ladders never need ratios below 1.4.
    Raises :class:`NumericalError` when the slab would need more than
    _MAX_SLAB_NODES nodes, before anything is built.
    """
    # a window reaches up to W past a tip into the closed segment beside it;
    # a segment between two holes has a window at each end, so each gets
    # 0.35 of it, and 0.3 stays plain as on a segment at a wall
    limits = [((b - a) * (0.7 if a == 0.0 or b == H else 0.35), (a, b))
              for a, b in _closed_segments(holes)]
    W = min([h_eff] + [w for w, _ in limits])
    for _ in range(2 * len(holes) + 2):
        shrunk = False
        for lo, hi in holes:
            w = hi - lo
            if W / 1.4 < w < 2.0 * W:
                W = 0.5 * w
                shrunk = True
        if not shrunk:
            break
    # the slab has 3 columns of 2H/W vertices and its pyramid
    # about 2H/W more, and a P2 mesh has about 4 nodes per vertex: 32 H/W
    # (segment-limited half-sections have 37-40 H/W nodes)
    nodes = 32.0 * H / W
    if nodes > _MAX_SLAB_NODES:
        _, (a, b) = min(limits)
        hole = next(iv for iv in holes if a in iv or b in iv)
        raise NumericalError(
            f"hole ({hole[0]:.6g}, {hole[1]:.6g}) and the closed segment ({a:.6g}, "
            f"{b:.6g}) beside it shrink the slab to W {W:.3g}: about {nodes:.3g} "
            f"mesh nodes, above the bound {_MAX_SLAB_NODES}")
    modes = ["narrow" if (hi - lo) <= W / 1.4 else "wide" for lo, hi in holes]
    return W, modes


def _emit_slab(bld, holes, W, modes, h_eff):
    """Mesh the strip [-W, 0] x [0, H] left of the screen at z = 0; returns
    the boundary y-row values."""
    zs5 = [-W, -0.5 * W, 0.0]
    features = []          # (window boundary ys5, emit(ys5))
    for (lo, hi), mode in zip(holes, modes):
        if mode == "narrow":
            c = 0.5 * (lo + hi)
            ys5 = [c - W, c - 0.5 * W, c, c + 0.5 * W, c + W]
            features.append((ys5, lambda ys5, lo=lo, hi=hi: _emit_hole_window(
                bld, lo, hi, W, zs5, ys5, h_eff)))
        else:
            w = hi - lo
            for t in (lo, hi):
                ys5 = [t - W, t - 0.5 * W, t, t + 0.5 * W, t + W]
                features.append((ys5, lambda ys5, t=t, w=w: _emit_tip_window(
                    bld, t, w, W, zs5, ys5, h_eff)))

    boundary_y = []
    cursor = 0.0
    for ys5, emit in features + [([H], None)]:
        # the tip windows of a hole of width 2W meet at its centre, where
        # lo + W and hi - W can differ in the last bits: a 1-ulp crack or
        # sliver rectangle between them.  Make the two rows one.
        if abs(ys5[0] - cursor) <= 4.0 * math.ulp(cursor):
            ys5[0] = cursor
        y_lo = ys5[0]
        if y_lo > cursor:      # plain rectangle of square cells, crack at z = 0
            ys = _fill(cursor, y_lo, 0.5 * W)
            boundary_y.extend(ys if not boundary_y else ys[1:])
            for z0, z1 in zip(zs5, zs5[1:]):
                for y0, y1 in zip(ys, ys[1:]):
                    bld.quad(z0, z1, y0, y1)
        if emit is None:
            break
        emit(ys5)
        boundary_y.extend(ys5 if not boundary_y else ys5[1:])
        cursor = ys5[-1]
    return boundary_y


def _pyramid_rows(W, h_eff, y_global):
    """Row spacings/arrays bridging slab-scale W/2 up to the global spacing."""
    rows = []
    offset = W
    spacing = W
    while spacing < h_eff * (1.0 - 1e-12):
        offset += spacing
        rows.append((offset, _filled_axis((0.0, 0.5 * H, H), spacing)))
        spacing = min(2.0 * spacing, h_eff)
    offset += spacing
    rows.append((offset, y_global))
    return rows


# ----------------------------------------------------------------------------
# main construction
# ----------------------------------------------------------------------------

def build_mesh(geom, h):
    """Build the conforming P2 mesh of a strip's half-sections or of a section.

    For a :class:`WaveguideGeometry2D` the mesh is, for each screen with
    apertures, only the left half (s - delta, s) of its section,
    delta = ``geom.section_half_width``: the half-section's vertices and
    triangles (:func:`_half_section_vertices`) shifted to the screen at s,
    built once when both screens are equal and finished (midpoints, tags)
    once for the whole strip.  The mirror-odd part of the section field
    lives there (``screenguide.scattering``), and a screen without apertures
    meshes nothing.  Its outer face is tagged ``TAG_GAMMA_MINUS`` on the left screen
    and ``TAG_GAP_PLUS`` on the right one, at z = ``geom.gap_half_length``
    (0 when the sections touch), and its edges on the screen line
    ``TAG_APERTURE`` or ``TAG_SCREEN``.  For a :class:`ScreenSection` it is
    the whole section: the half-section and its mirror image, with crack
    seams on the screen (:func:`_mirrored`), and its two ports tagged
    ``TAG_GAMMA_MINUS`` and ``TAG_GAMMA_PLUS``.  A section is meshed at
    h_eff = min(h, delta/6) when it has a screen, and the local size at an
    aperture tip is min(aperture_width/2, h_eff) / 16: _TIP_LAYERS rings of
    ratio _TIP_GRADING below the tip box.
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    if isinstance(geom, ScreenSection):
        holes = geom.holes
        return _finish(geom, *_mirrored(holes, *_half_section_vertices(
            holes, h, geom.half_width)))
    delta = geom.section_half_width
    halves, xy, tris = {}, [np.zeros((0, 2))], [np.zeros((0, 3), dtype=np.int64)]
    for s in geom.screen_positions:
        holes = geom.holes_of(s)
        if holes:
            if holes not in halves:
                halves[holes] = _half_section_vertices(holes, h, delta)
            vertices, triangles = halves[holes]
            tris.append(triangles + sum(len(part) for part in xy))
            xy.append(vertices + (s, 0.0))
    return _finish(geom, np.vstack(xy), np.vstack(tris))


def _half_section(holes, h, delta, lower_half=False):
    """The left half (-delta, 0) of the section mesh of a screen with
    apertures (:func:`_half_section_vertices`), as a :class:`Mesh` of its
    own.  It has no seams; its edges on z = 0 are tagged ``TAG_APERTURE`` in
    the apertures and ``TAG_SCREEN`` on the screen's left face.

    With ``lower_half`` (apertures mirror-symmetric about y = H/2) the mesh
    is the part of it below its node row at y = H/2 (:func:`_lower_half`),
    whose edges there are walls, or the whole height when a triangle
    crosses that row.
    """
    xy, tris = _half_section_vertices(holes, h, delta)
    cut = _lower_half(xy, tris) if lower_half else None
    return _finish(ScreenSection(delta, holes), *((xy, tris) if cut is None else cut))


def _lower_half(xy, tris):
    """The vertices and triangles of the mesh ``xy``, ``tris`` that lie below
    its node row at y = H/2: vertices within ``_MIRROR_TOL`` of that line
    are on it and move onto it exactly, the others keep their order.  None
    when a triangle has vertices on both sides of the row."""
    y = xy[:, 1]
    side = np.where(np.abs(y - 0.5 * H) <= _MIRROR_TOL, 0.0, y - 0.5 * H)[tris]
    above = np.any(side > 0.0, axis=1)
    if np.any(above & np.any(side < 0.0, axis=1)):
        return None
    kept = tris[~above]
    used = np.zeros(len(xy), dtype=bool)
    used[kept] = True
    below = xy[used]
    below[np.abs(below[:, 1] - 0.5 * H) <= _MIRROR_TOL, 1] = 0.5 * H
    return below, (np.cumsum(used) - 1)[kept]


def _half_section_vertices(holes, h, delta):
    """Vertices and triangles of the left half (-delta, 0) of the section
    of a screen at z = 0 with apertures ``holes`` (None: no screen)."""
    # at least six cells between the lines z in {-delta, 0} beside a screen
    h_eff = h if holes is None else min(h, delta / 6.0)
    y_global = _filled_axis((0.0, 0.5 * H, H), h_eff)

    bld = _Builder()
    rows = [(-delta, y_global)]
    if holes:
        W, modes = _slab_window_size(holes, h_eff)
        boundary_y = _emit_slab(bld, holes, W, modes, h_eff)
        rows.append((-W, boundary_y))      # the slab meshes [-W, 0]
        rows += [(-off, arr) for off, arr in _pyramid_rows(W, h_eff, y_global)]
    else:
        rows.append((0.0, y_global))

    rows.sort(key=lambda r: r[0])
    # fill long gaps between global-array rows with more global-array rows
    full = []
    for (z0, a0), (z1, a1) in zip(rows, rows[1:]):
        full.append((z0, a0))
        if z1 - z0 > h_eff * (1.0 + 1e-9):
            for z in _fill(z0, z1, h_eff)[1:-1]:
                full.append((z, y_global))
    full.append(rows[-1])

    for (z0, a0), (z1, a1) in zip(full, full[1:]):
        if a0 is a1:
            for y0, y1 in zip(a0, a0[1:]):
                bld.quad(z0, z1, y0, y1)
        else:
            bld.zip_rows(bld.row([(z0, y) for y in a0]),
                         bld.row([(z1, y) for y in a1]))

    return np.array(bld.xy), np.array(bld.tris, dtype=np.int64)


def _mirrored(holes, xy, tris):
    """The section whose left half is ``xy``, ``tris``: the half and its
    mirror image z -> -z, appended.  The mirror copies every node left of
    the screen and every closed-screen node other than an aperture tip (the
    right face of a seam); the nodes of an aperture, its tips, and the line
    z = 0 of a section without a screen stay single."""
    z, y = xy.T
    copied = z < 0.0
    if holes is not None:
        closed = np.any([(a <= y) & (y <= b) for a, b in _closed_segments(holes)], axis=0)
        copied |= closed & ~np.isin(y, [t for iv in holes for t in iv])
    image = np.arange(len(xy))
    image[copied] = len(xy) + np.arange(np.count_nonzero(copied))
    right = np.column_stack([0.0 - z[copied], y[copied]])
    return np.vstack([xy, right]), np.vstack([tris, image[tris][:, [0, 2, 1]]])


def _finish(geom, xy, tris):
    """The P2 :class:`Mesh` on the vertices ``xy`` and triangles ``tris``:
    edge midpoints, and boundary edges tagged by where they lie, walls on
    the lowest and the highest line y = 0 and y = H (H/2 for a lower half)."""
    n_vertices = len(xy)
    pairs, edge_of, count = _edge_table(tris)
    tri_mids = n_vertices + edge_of
    edges = np.column_stack([pairs, n_vertices + np.arange(len(pairs))])
    node_xy = np.vstack([xy, (xy[pairs[:, 0]] + xy[pairs[:, 1]]) / 2.0])

    Z, a = geom.port_half_length, geom.gap_half_length
    top = xy[:, 1].max(initial=0.0)     # H, or H/2 for a lower half
    screens = [s for s in geom.screen_positions if geom.holes_of(s) is not None]
    b_edges = edges[count == 1]
    (zp, yp), (zq, yq) = node_xy[b_edges[:, 0]].T, node_xy[b_edges[:, 1]].T
    on_screen = (zp == zq) & np.isin(zp, screens)
    in_hole = np.zeros(len(b_edges), dtype=bool)   # edges in an aperture: half-sections
    ym = node_xy[b_edges[:, 2], 1]
    for s in screens:
        for lo, hi in geom.holes_of(s):
            in_hole |= on_screen & (zp == s) & (lo < ym) & (ym < hi)
    # a section's screen line is z = 0 = a: its edges there are screen faces
    tags = [TAG_GAMMA_MINUS, TAG_GAMMA_PLUS, TAG_WALL, TAG_APERTURE, TAG_SCREEN, TAG_GAP_PLUS]
    hit = np.stack([(zp == -Z) & (zq == -Z),
                    (zp == Z) & (zq == Z),
                    ((yp == 0.0) & (yq == 0.0)) | ((yp == top) & (yq == top)),
                    in_hole,
                    on_screen,
                    (zp == a) & (zq == a)])
    if not hit.any(axis=0).all():
        k = int(np.argmin(hit.any(axis=0)))
        raise NumericalError(f"untaggable boundary edge ({zp[k]:.6g},{yp[k]:.6g})"
                             f"-({zq[k]:.6g},{yq[k]:.6g})")
    b_tags = np.array(tags)[hit.argmax(axis=0)]

    return Mesh(
        node_xy=node_xy,
        n_vertices=n_vertices,
        triangles=tris,
        tri_midnodes=tri_mids,
        boundary_edges=b_edges,
        boundary_tags=b_tags,
        edges=edges,
        geometry=geom,
    )


def _edge_table(tris):
    """Unique edges of a triangle list, numbered in order of first use.

    Returns (pairs, edge_of, count): the sorted vertex pair of each edge,
    the edge id of each local edge (v0v1, v1v2, v2v0) of each triangle, and
    the number of triangles sharing each edge.
    """
    local = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    # a < b < n, so the key a*n + b sorts as the pair (a, b) does
    n = int(tris.max()) + 1 if len(tris) else 1
    _, first, inv, count = np.unique(local[:, 0] * n + local[:, 1], return_index=True,
                                     return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return local[first[order]], rank[inv].reshape(-1, 3), count[order]


# ----------------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------------

def _triangle_angles(xy, tris):
    p = xy[tris]
    angles = np.empty((len(tris), 3))
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        cosang = np.sum(u * v, axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles[:, k] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return angles


def validate_mesh(mesh):
    """Diagnostic report: orientation, conformity, min angle, boundary.

    Conformity means every edge is shared by at most two triangles and
    coincident vertices come in pairs that lie on a screen line (the two
    face copies of a seam); boundary_closed means the boundary edges form
    closed loops (every boundary vertex has exactly two boundary edges).
    """
    xy = mesh.node_xy
    tris = mesh.triangles
    p = xy[tris]
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    orientation_ok = bool(np.all(area2 > 0.0))

    pairs, _, count = _edge_table(tris)
    conformity_ok = bool(np.all(count <= 2))

    # coincident vertices must come in pairs on a screen line
    points, size = np.unique(xy[:mesh.n_vertices], axis=0, return_counts=True)
    geom = mesh.geometry
    screens = [] if geom is None else [s for s in geom.screen_positions
                                       if geom.holes_of(s) is not None]
    if np.any(size > 2) or not np.all(np.isin(points[size == 2, 0], screens)):
        conformity_ok = False

    # a mesh with no nodes has an empty boundary, which is closed
    degree = np.bincount(pairs[count == 1].ravel())
    boundary_closed = bool(np.all(degree[degree > 0] == 2))

    return {
        "orientation_ok": orientation_ok,
        "conformity_ok": conformity_ok,
        "min_angle": float(_triangle_angles(xy, tris).min()) if len(tris) else math.inf,
        "boundary_closed": boundary_closed,
    }

