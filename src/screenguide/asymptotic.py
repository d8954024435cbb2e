"""Closed-form limit model for piston-mode scattering by a two-screen resonator.

A long acoustic waveguide is partitioned by two transverse screens placed at
z = -L and z = +L; each screen is pierced by small holes of diameter O(eps).
Below the first cut-off only the piston mode propagates, so the far field is
described by a single reflection coefficient R and transmission coefficient T.
As eps -> 0 with the resonator length tuned as

    L = L0 + eps*L' + eps^2*L'',      L0 = pi*q/(2*kappa),

the scattering coefficients converge to explicit rational functions of a real
detuning parameter beta (an affine function of L'' whose coefficients are not
needed here).  With the side coupling constants

    K_side = pi * sum_j Capa(theta_j) / sqrt(|omega_side|),

where Capa is the harmonic capacity of a hole and |omega_side| the duct
cross-section area, the limits read

    R0 = (K+^2 - K-^2 - i*kappa*beta) / (K+^2 + K-^2 - i*kappa*beta)
    T0 = 2*(-1)^(q+1) K+ K- / (K+^2 + K-^2 - i*kappa*beta)
    a0 = 2*i*kappa*K- / (K+^2 + K-^2 - i*kappa*beta)

with a0 the amplitude of the interior resonant mode (the physical field is of
order a0/eps inside the resonator).  Complete transmission (|T0| = 1 at some
tuning) is possible iff K- = K+; otherwise |R0| never drops below
|K+^2 - K-^2|/(K+^2 + K-^2).

Everything in this module is exact arithmetic on a handful of reals; it is the
reference model against which the finite element solver is compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ScreenSide3D",
    "ResonatorSpec",
    "LimitScattering",
    "DetuningParam",
    "critical_length",
    "side_coupling_K",
    "first_order_shift",
    "limit_scattering",
    "is_complete_transmission_possible",
    "reflection_floor",
]

# tolerance of the |R0|^2 + |T0|^2 = 1 check on LimitScattering
_ENERGY_TOL = 1e-12
_BALANCE_RTOL = 1e-9       # of K- = K+ in is_complete_transmission_possible


# ----------------------------------------------------------------------------
# value types
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ScreenSide3D:
    """One perforated screen: hole capacities and the duct cross-section.

    Attributes
    ----------
    hole_capacities : tuple of float
        Harmonic capacities Capa(theta_j) of the holes in this screen,
        all strictly positive (dimensionless under a unit length scale).
    cross_section_area : float
        Area |omega| of the duct cross-section behind this screen, > 0.
    """

    hole_capacities: tuple
    cross_section_area: float

    def __post_init__(self):
        caps = tuple(float(c) for c in self.hole_capacities)
        object.__setattr__(self, "hole_capacities", caps)
        if len(caps) == 0:
            raise ValueError("hole_capacities must be nonempty")
        if any(not math.isfinite(c) or c <= 0.0 for c in caps):
            raise ValueError("every hole capacity must be finite and > 0")
        area = float(self.cross_section_area)
        object.__setattr__(self, "cross_section_area", area)
        if not math.isfinite(area) or area <= 0.0:
            raise ValueError("cross_section_area must be finite and > 0")


@dataclass(frozen=True)
class ResonatorSpec:
    """Geometric/spectral data of the two-screen resonator.

    Attributes
    ----------
    kappa : float
        Wave number, > 0.
    q : int
        Resonance index (q-th critical length), >= 1.
    resonator_area : float
        Cross-section area |omega_0| of the resonator chamber; the ducts fit
        inside it, so it bounds both side areas from above.
    left, right : ScreenSide3D
        The screen the incident wave hits first (left, minus side) and the
        far screen (right, plus side).
    """

    kappa: float
    q: int
    resonator_area: float
    left: ScreenSide3D
    right: ScreenSide3D

    def __post_init__(self):
        critical_length(self.kappa, self.q)     # checks kappa and q
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "q", int(self.q))
        area = float(self.resonator_area)
        object.__setattr__(self, "resonator_area", area)
        if not math.isfinite(area) or area <= 0.0:
            raise ValueError("resonator_area must be finite and > 0")
        if area < max(self.left.cross_section_area,
                      self.right.cross_section_area):
            raise ValueError(
                "resonator_area must be >= both side cross-section areas")


@dataclass(frozen=True)
class DetuningParam:
    """Real detuning coordinate beta of the second-order length correction."""

    beta: float = 0.0

    def __post_init__(self):
        beta = float(self.beta)
        object.__setattr__(self, "beta", beta)
        if not math.isfinite(beta):
            raise ValueError("beta must be finite")


@dataclass(frozen=True)
class LimitScattering:
    """Limit scattering coefficients and interior amplitude.

    R0, T0 are the eps -> 0 limits of the reflection/transmission
    coefficients; a0 is the limit amplitude of the resonant interior mode
    (the field inside the resonator scales like a0/eps).  Energy conservation
    |R0|^2 + |T0|^2 = 1 holds identically and is enforced on construction.
    """

    R0: complex
    T0: complex
    a0: complex

    def __post_init__(self):
        energy = abs(self.R0) ** 2 + abs(self.T0) ** 2
        if abs(energy - 1.0) > _ENERGY_TOL:
            raise ValueError(
                f"|R0|^2+|T0|^2 = {energy!r} violates energy conservation")


# ----------------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------------

def critical_length(kappa, q):
    """Return the q-th critical half-length L0 = pi*q/(2*kappa).

    At L = L0 the closed resonator of length 2*L0 has an interior Neumann
    eigenvalue exactly at kappa^2, which is what makes a tuned, perforated
    resonator transparent.
    """
    kappa = float(kappa)
    if not math.isfinite(kappa) or kappa <= 0.0:
        raise ValueError("kappa must be finite and > 0")
    if int(q) != q or q < 1:
        raise ValueError("q must be an integer >= 1")
    return math.pi * int(q) / (2.0 * kappa)


def side_coupling_K(side):
    """Coupling constant K = pi * (total capacity) / sqrt(area) of one screen."""
    total = math.fsum(side.hole_capacities)
    return math.pi * total / math.sqrt(side.cross_section_area)


def first_order_shift(spec):
    """First-order resonant length correction L'.

    L' = pi/(2*kappa^2*|omega_0|) * (total capacity over both screens);
    strictly positive, linear in the capacities and ~ kappa^-2.
    """
    total = math.fsum(spec.left.hole_capacities) + \
        math.fsum(spec.right.hole_capacities)
    return math.pi * total / (2.0 * spec.kappa ** 2 * spec.resonator_area)


def limit_scattering(spec, detuning=DetuningParam(0.0)):
    """Evaluate the limit coefficients (R0, T0, a0) at a given detuning.

    Parameters
    ----------
    spec : ResonatorSpec
    detuning : DetuningParam
        Real detuning beta; beta = 0 is the sweet spot where |R0| attains
        its minimum over tunings.

    Returns
    -------
    LimitScattering
    """
    k_minus = side_coupling_K(spec.left)
    k_plus = side_coupling_K(spec.right)
    denom = k_plus ** 2 + k_minus ** 2 - 1j * spec.kappa * detuning.beta
    sign = -1.0 if spec.q % 2 == 0 else 1.0   # (-1)^(q+1)
    r0 = (k_plus ** 2 - k_minus ** 2 - 1j * spec.kappa * detuning.beta) / denom
    t0 = 2.0 * sign * k_plus * k_minus / denom
    a0 = 2.0j * spec.kappa * k_minus / denom
    return LimitScattering(R0=r0, T0=t0, a0=a0)


def is_complete_transmission_possible(spec):
    """True iff the two coupling constants balance: K- = K+ to a relative 1e-9.

    Only the balance matters -- the two screens may have different numbers of
    holes, shapes, and duct areas.  The comparison is relative because the
    capacities usually come from a boundary element solve.
    """
    k_minus = side_coupling_K(spec.left)
    k_plus = side_coupling_K(spec.right)
    return abs(k_minus - k_plus) <= _BALANCE_RTOL * max(k_minus, k_plus)


def reflection_floor(K_plus, K_minus):
    """Minimum of |R0(beta)| over all real detunings beta.

    Equals |K+^2 - K-^2| / (K+^2 + K-^2), attained at beta = 0; |R0| is even
    in beta and increases monotonically to 1 as |beta| -> infinity.
    """
    K_plus = float(K_plus)
    K_minus = float(K_minus)
    if K_plus <= 0.0 or K_minus <= 0.0:
        raise ValueError("coupling constants must be > 0")
    return abs(K_plus ** 2 - K_minus ** 2) / (K_plus ** 2 + K_minus ** 2)
