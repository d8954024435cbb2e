"""Unit tests for the closed-form thin-hole scattering model."""

import cmath
import math

import numpy as np
import pytest

from screenguide import (
    DetuningParam,
    ResonatorSpec,
    ScreenSide3D,
    critical_length,
    first_order_shift,
    is_complete_transmission_possible,
    limit_scattering,
    reflection_floor,
    side_coupling_K,
)


def make_spec(capas_left, capas_right, kappa=1.0, q=1,
              area_left=1.0, area_right=1.0, resonator_area=None):
    left = ScreenSide3D(hole_capacities=tuple(capas_left),
                        cross_section_area=area_left)
    right = ScreenSide3D(hole_capacities=tuple(capas_right),
                         cross_section_area=area_right)
    if resonator_area is None:
        resonator_area = max(area_left, area_right)
    return ResonatorSpec(kappa=kappa, q=q, resonator_area=resonator_area,
                         left=left, right=right)


# ---------------------------------------------------------------------------
# critical_length
# ---------------------------------------------------------------------------

def test_critical_length_first():
    assert critical_length(0.8 * math.pi, 1) == pytest.approx(0.625, abs=1e-15)


def test_critical_length_second():
    assert critical_length(0.8 * math.pi, 2) == pytest.approx(1.25, abs=1e-15)


def test_critical_length_unit():
    assert critical_length(math.pi / 2.0, 1) == pytest.approx(1.0, abs=1e-15)


def test_critical_length_rejects_bad_args():
    with pytest.raises(ValueError):
        critical_length(-1.0, 1)
    with pytest.raises(ValueError):
        critical_length(1.0, 0)


# ---------------------------------------------------------------------------
# side_coupling_K
# ---------------------------------------------------------------------------

def test_side_coupling_unit():
    side = ScreenSide3D(hole_capacities=(1.0 / math.pi,), cross_section_area=1.0)
    assert side_coupling_K(side) == pytest.approx(1.0, rel=1e-15)


def test_side_coupling_triples_with_capacity():
    c = 0.123
    a = ScreenSide3D(hole_capacities=(c,), cross_section_area=1.0)
    b = ScreenSide3D(hole_capacities=(3.0 * c,), cross_section_area=1.0)
    assert side_coupling_K(b) / side_coupling_K(a) == pytest.approx(3.0, rel=1e-15)


def test_side_coupling_sums_and_scales_by_root_area():
    side = ScreenSide3D(hole_capacities=(0.2, 0.3), cross_section_area=4.0)
    assert side_coupling_K(side) == pytest.approx(math.pi * 0.5 / 2.0, rel=1e-15)


def test_screen_side_rejects_empty_or_nonpositive():
    with pytest.raises(ValueError):
        ScreenSide3D(hole_capacities=(), cross_section_area=1.0)
    with pytest.raises(ValueError):
        ScreenSide3D(hole_capacities=(0.0,), cross_section_area=1.0)
    with pytest.raises(ValueError):
        ScreenSide3D(hole_capacities=(1.0,), cross_section_area=0.0)


# ---------------------------------------------------------------------------
# first_order_shift
# ---------------------------------------------------------------------------

def test_first_order_shift_value():
    spec = make_spec([0.5], [0.5], kappa=1.0, resonator_area=1.0)
    assert first_order_shift(spec) == pytest.approx(math.pi / 2.0, rel=1e-15)


def test_first_order_shift_linear_in_capacity():
    spec1 = make_spec([0.2, 0.1], [0.3], kappa=1.3, resonator_area=2.0)
    spec2 = make_spec([0.4, 0.2], [0.6], kappa=1.3, resonator_area=2.0)
    assert first_order_shift(spec2) == pytest.approx(
        2.0 * first_order_shift(spec1), rel=1e-14)


def test_first_order_shift_inverse_square_kappa():
    spec1 = make_spec([0.2], [0.3], kappa=1.0)
    spec2 = make_spec([0.2], [0.3], kappa=2.0)
    assert first_order_shift(spec2) == pytest.approx(
        first_order_shift(spec1) / 4.0, rel=1e-14)


# ---------------------------------------------------------------------------
# limit_scattering
# ---------------------------------------------------------------------------

def test_balanced_beta_zero_q_odd_is_complete_transmission():
    spec = make_spec([0.4], [0.4], kappa=1.7, q=1)
    lim = limit_scattering(spec, DetuningParam(0.0))
    K = side_coupling_K(spec.left)
    assert abs(lim.R0) == pytest.approx(0.0, abs=1e-14)
    assert lim.T0 == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert lim.a0 == pytest.approx(1j * spec.kappa / K, rel=1e-14)


def test_balanced_beta_zero_q_even_flips_t_sign():
    spec = make_spec([0.4], [0.4], kappa=1.7, q=2)
    lim = limit_scattering(spec, DetuningParam(0.0))
    assert lim.T0 == pytest.approx(-1.0 + 0.0j, abs=1e-14)


def test_large_detuning_reflects_everything():
    spec = make_spec([0.4], [0.7], kappa=1.0)
    for beta in (1e9, -1e9):
        lim = limit_scattering(spec, DetuningParam(beta))
        assert abs(lim.R0 - 1.0) < 1e-6
        assert abs(lim.T0) < 1e-6


def test_unbalanced_three_to_one():
    # K- = 3 K+ pins |R0| at 4/5 and |T0| at 3/5 when beta = 0
    spec = make_spec([0.3], [0.1], kappa=1.0)
    lim = limit_scattering(spec, DetuningParam(0.0))
    assert lim.R0 == pytest.approx(-0.8 + 0.0j, abs=1e-14)
    assert abs(lim.T0) == pytest.approx(0.6, abs=1e-14)


def test_resonator_amplitude_purely_imaginary_at_resonance():
    spec = make_spec([0.25], [0.25], kappa=2.2)
    lim = limit_scattering(spec, DetuningParam(0.0))
    assert abs(lim.a0.real) < 1e-14 * abs(lim.a0)


# ---------------------------------------------------------------------------
# criterion / floor
# ---------------------------------------------------------------------------

def test_complete_transmission_criterion_symmetric():
    spec = make_spec([0.4], [0.4])
    assert is_complete_transmission_possible(spec)


def test_complete_transmission_hole_count_does_not_matter():
    spec = make_spec([0.4], [0.2, 0.2])
    assert is_complete_transmission_possible(spec)


def test_complete_transmission_rejects_three_to_one():
    spec = make_spec([0.3], [0.1])
    assert not is_complete_transmission_possible(spec)


def test_reflection_floor_three_to_one():
    assert reflection_floor(1.0, 3.0) == pytest.approx(0.8, abs=0.0)


def test_reflection_floor_balanced_is_zero():
    assert reflection_floor(0.7, 0.7) == 0.0


def test_reflection_floor_is_brute_force_minimum():
    spec = make_spec([0.3], [0.1], kappa=1.9)
    K_minus = side_coupling_K(spec.left)
    K_plus = side_coupling_K(spec.right)
    floor = reflection_floor(K_plus, K_minus)
    betas = np.concatenate([[0.0],
                            np.logspace(-6, 6, 4001),
                            -np.logspace(-6, 6, 4001)])
    sampled = min(abs(limit_scattering(spec, DetuningParam(b)).R0)
                  for b in betas)
    assert sampled >= floor - 1e-10
    assert sampled == pytest.approx(floor, abs=1e-10)


# ---------------------------------------------------------------------------
# invariants over random draws
# ---------------------------------------------------------------------------

def test_energy_and_circle_invariants_random():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        K_scale = rng.uniform(0.05, 5.0, size=2)
        kappa = rng.uniform(0.1, 3.0)
        q = int(rng.integers(1, 5))
        beta = float(rng.standard_cauchy() * 3.0)
        spec = make_spec([K_scale[0] / math.pi], [K_scale[1] / math.pi],
                         kappa=kappa, q=q)
        lim = limit_scattering(spec, DetuningParam(beta))
        assert abs(abs(lim.R0) ** 2 + abs(lim.T0) ** 2 - 1.0) < 1e-12


def test_sum_rule_and_circle_for_balanced_screens():
    rng = np.random.default_rng(7)
    for _ in range(200):
        c = rng.uniform(0.05, 2.0)
        kappa = rng.uniform(0.1, 3.0)
        q = int(rng.integers(1, 4))
        beta = float(rng.uniform(-50.0, 50.0))
        spec = make_spec([c], [c], kappa=kappa, q=q)
        lim = limit_scattering(spec, DetuningParam(beta))
        sign = (-1.0) ** (q + 1)
        assert abs(lim.R0 + sign * lim.T0 - 1.0) < 1e-12
        assert abs(abs(lim.R0 - 0.5) - 0.5) < 1e-12
        assert abs(abs(lim.T0 - sign * 0.5) - 0.5) < 1e-12


def test_mobius_circle_general_unbalanced():
    # four R0 points at distinct detunings are concyclic: real cross-ratio
    spec = make_spec([0.5], [0.2], kappa=1.4)
    z = [limit_scattering(spec, DetuningParam(b)).R0
         for b in (-3.0, -0.5, 1.0, 7.0)]
    cross = ((z[0] - z[2]) * (z[1] - z[3])) / ((z[0] - z[3]) * (z[1] - z[2]))
    assert abs(cross.imag) < 1e-9


def test_reflection_even_and_monotone_in_detuning():
    spec = make_spec([0.5], [0.2], kappa=1.4)
    betas = np.linspace(0.0, 30.0, 200)
    mags = [abs(limit_scattering(spec, DetuningParam(b)).R0) for b in betas]
    mags_neg = [abs(limit_scattering(spec, DetuningParam(-b)).R0) for b in betas]
    np.testing.assert_allclose(mags, mags_neg, atol=1e-13)
    assert np.all(np.diff(mags) >= -1e-13)
    floor = reflection_floor(side_coupling_K(spec.right),
                             side_coupling_K(spec.left))
    assert mags[0] == pytest.approx(floor, abs=1e-13)


def test_resonator_spec_validates():
    left = ScreenSide3D(hole_capacities=(0.5,), cross_section_area=2.0)
    right = ScreenSide3D(hole_capacities=(0.5,), cross_section_area=1.0)
    with pytest.raises(ValueError):
        ResonatorSpec(kappa=1.0, q=1, resonator_area=1.5, left=left, right=right)
    with pytest.raises(ValueError, match="kappa must be finite and > 0"):
        ResonatorSpec(kappa=0.0, q=1, resonator_area=2.0, left=left, right=right)
    with pytest.raises(ValueError, match="q must be an integer >= 1"):
        ResonatorSpec(kappa=1.0, q=1.5, resonator_area=2.0, left=left, right=right)
