"""Quadratic finite elements for the Helmholtz operator on triangulated sections.

Assembles the complex symmetric system (S - kappa^2 M) u = f over the P2
Lagrange space attached to a :class:`~screenguide.meshing.Mesh`.  All boundary
conditions here are natural (homogeneous Neumann); radiation conditions and
the zero field on the apertures of a half-section are the business of
:mod:`screenguide.scattering`, which borders the assembled system with mode
amplitudes before the solve.

A solve's half-sections end on their screen, whose faces are plain
boundary.  A whole section's mesh duplicates the nodes on the two faces of
its screen (seams), so the element loop needs no special casing there
either and the screen faces decouple automatically.

Nothing from :func:`assemble` to the LU calls numpy's BLAS with threads.  The
process loads two OpenBLAS runtimes, numpy's and scipy's, each with its own
thread pool; a threaded numpy product leaves numpy's workers spinning on the
cores (about 0.12 s on a 2-core Xeon) while SuperLU's BLAS calls run on
scipy's pool, and the LU of an h 0.02 strip took twice as long (134 against
63 ms).

scipy is imported at first use, in :func:`_to_csr` and :func:`solve_linear`,
not with the module: ``import screenguide`` loads this module, and the
limit model and the capacity BEM, which need no scipy, would otherwise pay
for its sparse stack at every start (module docstring of
:mod:`screenguide`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError
from .meshing import Mesh

if TYPE_CHECKING:
    import scipy.sparse as sp

log = logging.getLogger(__name__)

# Six-point Dunavant rule, exact for degree-4 polynomials on a triangle.
# Barycentric points and weights (weights sum to 1, i.e. are relative to the
# triangle area).  P2 x P2 products are quartic, so mass and stiffness
# integrals are exact up to roundoff on affine elements.
_DUN6_A = 0.108103018168070
_DUN6_B = 0.445948490915965
_DUN6_C = 0.816847572980459
_DUN6_D = 0.091576213509771
_QP_BARY = np.array([
    [_DUN6_A, _DUN6_B, _DUN6_B],
    [_DUN6_B, _DUN6_A, _DUN6_B],
    [_DUN6_B, _DUN6_B, _DUN6_A],
    [_DUN6_C, _DUN6_D, _DUN6_D],
    [_DUN6_D, _DUN6_C, _DUN6_D],
    [_DUN6_D, _DUN6_D, _DUN6_C],
])
_QP_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


def shape_values(lam):
    """P2 shape functions at barycentric coordinates lam (..., 3).

    Local ordering: three vertex functions, then the midpoints of edges
    (1,2), (2,3), (3,1) -- the same ordering as the mesh connectivity.
    """
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    return np.stack([
        l1 * (2.0 * l1 - 1.0),
        l2 * (2.0 * l2 - 1.0),
        l3 * (2.0 * l3 - 1.0),
        4.0 * l1 * l2,
        4.0 * l2 * l3,
        4.0 * l3 * l1,
    ], axis=-1)


def _shape_grads_bary(lam):
    """Gradients of the six shapes w.r.t. (lambda_1, lambda_2, lambda_3)."""
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    z = np.zeros_like(l1)
    g = np.empty(lam.shape[:-1] + (6, 3))
    g[..., 0, :] = np.stack([4.0 * l1 - 1.0, z, z], axis=-1)
    g[..., 1, :] = np.stack([z, 4.0 * l2 - 1.0, z], axis=-1)
    g[..., 2, :] = np.stack([z, z, 4.0 * l3 - 1.0], axis=-1)
    g[..., 3, :] = np.stack([4.0 * l2, 4.0 * l1, z], axis=-1)
    g[..., 4, :] = np.stack([z, 4.0 * l3, 4.0 * l2], axis=-1)
    g[..., 5, :] = np.stack([4.0 * l3, z, 4.0 * l1], axis=-1)
    return g


# Reference-element tensors of the rule above, for unit area: the mass
# M_ref[i, j] = sum_q w_q N_i N_j, and the stiffness
# K_ref[(a, b), (i, j)] = sum_q w_q dN_i/dlambda_a dN_j/dlambda_b, which an
# element turns into its matrix through area * grad lambda_a . grad lambda_b.
def _reference_tensors():
    N = shape_values(_QP_BARY)         # (q, 6)
    G = _shape_grads_bary(_QP_BARY)    # (q, 6, 3)
    return (np.einsum("q,qi,qj->ij", _QP_W, N, N).ravel(),
            np.einsum("q,qia,qjb->abij", _QP_W, G, G).reshape(9, 36))


_M_REF, _K_REF = _reference_tensors()


@dataclass
class SparseComplexSystem:
    """A sparse complex system (no conjugation anywhere).

    :func:`assemble` gives a symmetric one with one dof per mesh node; the
    scattering module borders it with mode amplitudes past the mesh nodes,
    which keeps it structurally, not numerically, symmetric.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray


def _element_geometry(mesh: Mesh):
    """Per-triangle corner coordinates, Jacobian data and areas."""
    xy = np.asarray(mesh.node_xy)
    tris = np.asarray(mesh.triangles)
    p1, p2, p3 = xy[tris[:, 0]], xy[tris[:, 1]], xy[tris[:, 2]]
    # gradients of barycentric coordinates: grad lambda_i = rot90(opposite
    # edge) / (2 area)
    det = ((p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1])
           - (p3[:, 0] - p1[:, 0]) * (p2[:, 1] - p1[:, 1]))
    area = 0.5 * det
    if np.any(area <= 0.0):
        bad = int(np.argmin(area))
        raise NumericalError(f"triangle {bad} has non-positive area {area[bad]:.3e}")
    glam = np.empty((len(tris), 3, 2))
    glam[:, 0, 0] = p2[:, 1] - p3[:, 1]
    glam[:, 0, 1] = p3[:, 0] - p2[:, 0]
    glam[:, 1, 0] = p3[:, 1] - p1[:, 1]
    glam[:, 1, 1] = p1[:, 0] - p3[:, 0]
    glam[:, 2, 0] = p1[:, 1] - p2[:, 1]
    glam[:, 2, 1] = p2[:, 0] - p1[:, 0]
    glam /= det[:, None, None]
    return area, glam


def _element_matrices(mesh: Mesh):
    """Per-triangle dofs (t, 6) and flattened P2 stiffness and mass, each (t, 36).

    Both matrices are reference tensors scaled per element: the mass by the
    area, the stiffness by the metric area * grad lambda_a . grad lambda_b.
    """
    tri_dofs = np.hstack([mesh.triangles, mesh.tri_midnodes])
    area, glam = _element_geometry(mesh)
    metric = np.einsum("tad,tbd->tab", glam, glam).reshape(-1, 9) * area[:, None]
    # einsum, not metric @ _K_REF: OpenBLAS threads that (t, 9) x (9, 36)
    # product from about 3,100 triangles, and numpy's pool then spins through
    # the LU that follows (module docstring)
    return tri_dofs, np.einsum("ta,ai->ti", metric, _K_REF), area[:, None] * _M_REF


def _to_csr(tri_dofs, n, values) -> sp.csr_matrix:
    """Sum flattened (t, 36) element matrices into one n x n CSR matrix."""
    import scipy.sparse as sp

    rows = np.repeat(tri_dofs, 6, axis=1).ravel()
    cols = np.tile(tri_dofs, (1, 6)).ravel()
    return sp.coo_matrix((values.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble_stiffness_mass(mesh: Mesh):
    """P2 stiffness and mass matrices (real CSR) over all triangles."""
    tri_dofs, Se, Me = _element_matrices(mesh)
    return _to_csr(tri_dofs, mesh.n_nodes, Se), _to_csr(tri_dofs, mesh.n_nodes, Me)


def assemble(mesh: Mesh, kappa: float) -> SparseComplexSystem:
    """Helmholtz system S - kappa^2 M with natural boundary conditions.

    The right-hand side starts at zero; transparent-boundary blocks and the
    incident-wave load are added by the scattering module.
    """
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    tri_dofs, Se, Me = _element_matrices(mesh)
    A = _to_csr(tri_dofs, mesh.n_nodes, Se - (kappa * kappa) * Me)
    A.eliminate_zeros()
    log.debug("assembled %d dofs, %d triangles, nnz %d",
              mesh.n_nodes, len(tri_dofs), A.nnz)
    return SparseComplexSystem(matrix=A.astype(np.complex128),
                               rhs=np.zeros(mesh.n_nodes, dtype=np.complex128))


def solve_linear(system: SparseComplexSystem) -> np.ndarray:
    """Direct sparse solve with residual verification.

    Uses an LU factorization with a minimum-degree ordering of A^T + A,
    which suits the structurally symmetric bordered FEM pattern; a 2-D
    right-hand side (n_dofs, k) is solved for all k columns with the one
    factorization.  Raises :class:`NumericalError` when the factorization
    reports singularity or the relative residual of any column exceeds
    1e-10, quoting a diagonal-ratio condition diagnostic in the message.
    """
    import scipy.sparse.linalg as spla

    A = system.matrix.tocsc()
    b = system.rhs
    nb = np.linalg.norm(b, axis=0)
    if not np.any(nb):
        return np.zeros_like(b)
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise NumericalError(f"sparse factorization failed: {exc}") from exc
    x = lu.solve(b)
    resid = np.max(np.linalg.norm(A @ x - b, axis=0) / np.where(nb > 0.0, nb, 1.0))
    if not resid <= 1e-10:
        d = np.abs(lu.U.diagonal())
        cond = float(d.max() / d.min()) if d.min() > 0.0 else np.inf
        raise NumericalError(
            f"linear solve residual {resid:.3e} exceeds 1e-10 "
            f"(diagonal condition estimate {cond:.3e})")
    if log.isEnabledFor(logging.INFO):
        # lu.L and lu.U copy the factors out, so count the fill only when logged
        log.info("solved %d dofs, nnz(A) %d, LU fill %d, residual %.3e",
                 A.shape[0], A.nnz, lu.L.nnz + lu.U.nnz, resid)
    return x
