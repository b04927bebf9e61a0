"""Asymptotic-state extraction, the numerical scattering map, and exponents."""
import math

import numpy as np
import pytest

from nlslab import (GridError, extract_asymptotic, free_conjugate, free_flow,
                    gaussian_state, l2_distance, make_grid, mass, scattering_map,
                    sigma_norm, strauss_exponent)


# ------------------------------------------------------------- exponents

def test_strauss_closed_forms():
    # [PAPER] sigma_0(1) = (1 + sqrt(17))/4, sigma_0(2) = sqrt(2)/2,
    # sigma_0(3) = 1/2
    assert strauss_exponent(1) == pytest.approx((1.0 + math.sqrt(17.0)) / 4.0, abs=1e-14)
    assert strauss_exponent(2) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-14)
    assert strauss_exponent(3) == pytest.approx(0.5, abs=1e-14)


def test_strauss_bracket():
    # [PAPER] 1/d < sigma_0(d) < 2/d in every dimension
    for d in range(1, 11):
        assert 1.0 / d < strauss_exponent(d) < 2.0 / d


def test_strauss_rejects_bad_dimension():
    with pytest.raises(GridError):
        strauss_exponent(0)
    with pytest.raises(GridError):
        strauss_exponent(-2)


# ------------------------------------------------------------- conjugation

def test_free_conjugate_identity_at_t0(grid1d):
    phi = gaussian_state(grid1d, 1.0, sigma=1.5)
    p = free_conjugate(phi)
    assert np.abs(p.values - phi.values).max() <= 1e-14
    assert p.time == 0.0


def test_free_conjugate_unitary(grid1d):
    phi = gaussian_state(grid1d, 1.0, sigma=1.5)
    u = free_flow(phi, 3.7)
    assert mass(free_conjugate(u)) == pytest.approx(mass(phi), abs=1e-13)


def test_free_solution_has_constant_profile(grid1d):
    # the interaction picture freezes free solutions exactly
    phi = gaussian_state(grid1d, 1.0, sigma=1.5)
    for t in (0.5, 2.0, 8.0):
        p = free_conjugate(free_flow(phi, t)).with_tags(time=0.0)
        assert l2_distance(p, phi) <= 1e-13


def test_sigma_norm_gaussian(grid1d):
    # [DERIVED] width-1 normalized Gaussian: mass 1, ||grad||^2 = 1/2,
    # ||x phi||^2 = 1/2, so the weighted norm is sqrt(2)
    phi = gaussian_state(grid1d, 1.0, sigma=1.5)
    assert sigma_norm(phi) == pytest.approx(math.sqrt(2.0), abs=1e-10)


# ------------------------------------------------------------- extraction

def test_extract_needs_four_cadences(grid1d):
    phi = gaussian_state(grid1d, 1.0, sigma=1.5)
    with pytest.raises(GridError):
        extract_asymptotic([phi, phi, phi])


def _perturbed_trajectory(phi, deltas, rng):
    noise = rng.standard_normal(phi.grid.shape) + 1j * rng.standard_normal(phi.grid.shape)
    out = []
    for t, d in zip((1.0, 2.0, 4.0, 8.0, 16.0), deltas):
        out.append(free_flow(phi.with_values(phi.values + d * noise), t))
    return out

def test_extract_accepts_decaying_residuals(grid1d, rng):
    # synthetic trajectory whose profile converges geometrically
    phi = gaussian_state(grid1d, 1.0, sigma=1.5)
    st = extract_asymptotic(
        _perturbed_trajectory(phi, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4), rng))
    assert st.converged
    assert st.extraction_time == 16.0
    assert len(st.residual_history) == 4
    assert st.residual < st.residual_history[0]


def test_extract_flags_stalled_residuals(grid1d, rng):
    # growing profile defects must not be reported as convergence
    phi = gaussian_state(grid1d, 1.0, sigma=1.5)
    st = extract_asymptotic(
        _perturbed_trajectory(phi, (1e-4, 3e-4, 1e-3, 3e-3, 1e-2), rng))
    assert not st.converged


def test_extract_free_trajectory_residuals_vanish(grid1d):
    # exactly free data: every profile is identical to roundoff (the
    # converged flag compares noise with noise, so only sizes are checked)
    phi = gaussian_state(grid1d, 1.0, sigma=1.5)
    st = extract_asymptotic([free_flow(phi, t) for t in (1.0, 2.0, 4.0, 8.0)])
    assert st.residual <= 1e-10
    assert max(st.residual_history) <= 1e-10
    assert l2_distance(st.state, phi) <= 1e-10


# ------------------------------------------------------------- scattering map

def test_scattering_zero_datum_trivial(grid1d):
    zero = gaussian_state(grid1d, 1.0, sigma=1.5).with_values(
        np.zeros(grid1d.shape))
    state, diag = scattering_map(zero, 1.5, 1e-2, 4.0)
    assert diag["trivial"] and state.converged and state.residual == 0.0


def test_scattering_small_data_near_identity():
    # [DERIVED] amplitude eps data above the short-range threshold: the
    # scattering operator is the identity to O(eps^3) (cubic-in-size
    # nonlinear correction at sigma = 1.5), here 1e-9 relative at eps = 1e-3
    g = make_grid(1, 1024, 160.0)
    eps = 1e-3
    u_minus = gaussian_state(g, 1.0, sigma=1.5, amplitude=eps)
    u_plus, diag = scattering_map(u_minus, 1.5, 1e-2, 4.0)
    assert u_plus.converged
    assert diag["defects"][-1] <= 1e-10
    rel = l2_distance(u_plus.state, u_minus.with_tags(time=0.0)) / eps
    assert rel <= 1e-6

