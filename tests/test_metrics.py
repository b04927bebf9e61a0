"""Wasserstein and Sobolev metric tests against closed-form oracles."""
import math

import numpy as np
import pytest

from nlslab import (Density, GridError, NormalizationError, gaussian_gamma,
                    make_grid, sobolev_norm, w1_1d, w2_1d)
from nlslab.metrics import QuantileRep, _compact, _wp_pair


def _gaussian_density(grid, mean=0.0, std=1.0):
    return Density.normalize(grid, np.exp(-(grid.x - mean) ** 2 / (2.0 * std**2)))


def _mixture(grid, rng):
    vals = np.zeros(grid.shape)
    for _ in range(rng.integers(1, 4)):
        m = rng.uniform(-4.0, 4.0)
        s = rng.uniform(0.5, 2.0)
        vals += rng.uniform(0.2, 1.0) * np.exp(-(grid.x - m) ** 2 / (2.0 * s**2))
    return Density.normalize(grid, vals)


def _cdf_integral_w1(f, g):
    """Independent oracle: W1 = integral |F - G| via fine sampling of the
    piecewise-linear CDFs."""
    h = f.grid.spacing
    edges = f.grid.x[0] - 0.5 * h + h * np.arange(f.grid.n + 1)
    F = np.concatenate(([0.0], np.cumsum(h * f.values)))
    G = np.concatenate(([0.0], np.cumsum(h * g.values)))
    F /= F[-1]
    G /= G[-1]
    fine = np.linspace(edges[0], edges[-1], 200 * f.grid.n + 1)
    diff = np.abs(np.interp(fine, edges, F) - np.interp(fine, edges, G))
    return float(np.trapezoid(diff, fine))


# ------------------------------------------------------------- exact 1D W1

def test_w1_identical_is_zero(grid1d):
    f = _gaussian_density(grid1d)
    assert w1_1d(f, f) == 0.0


def test_w1_lattice_translation_exact(grid1d):
    # uniform bump translated by a lattice vector: W1 = shift exactly
    h = grid1d.spacing
    vals = np.where(np.abs(grid1d.x) <= 2.0, 1.0, 0.0)
    f = Density.normalize(grid1d, vals)
    g = Density.normalize(grid1d, np.roll(vals, 8))
    assert w1_1d(f, g) == pytest.approx(8 * h, abs=1e-12)


def test_w1_against_cdf_integral_oracle(grid1d, rng):
    # [DERIVED] independent CDF-integral evaluation of the same metric
    for _ in range(10):
        f, g = _mixture(grid1d, rng), _mixture(grid1d, rng)
        assert w1_1d(f, g) == pytest.approx(_cdf_integral_w1(f, g), abs=1e-6)


def test_w1_two_point_transport_oracle():
    # [DERIVED] two-point masses: optimal transport moves the excess mass
    # p - q from x1 to x2, plus the common mass stays put
    edges = np.array([0.0, 1e-9, 2.0, 2.0 + 1e-9])
    qf = QuantileRep(*_compact(np.array([0.0, 0.7, 0.7, 1.0]), edges))
    qg = QuantileRep(*_compact(np.array([0.0, 0.4, 0.4, 1.0]), edges))
    w1, _ = _wp_pair(qf, qg)
    assert w1 == pytest.approx(0.3 * 2.0, abs=1e-8)


def test_w1_rejects_unnormalized(grid1d):
    f = _gaussian_density(grid1d)
    bad = Density(grid1d, 2.0 * f.values, raw_integral=1.0)
    with pytest.raises(NormalizationError):
        w1_1d(f, bad)


def test_w1_rejects_2d():
    g2 = make_grid(2, 32, 8.0)
    d = Density.normalize(g2, np.exp(-g2.radius_sq))
    with pytest.raises(GridError):
        w1_1d(d, d)


# ------------------------------------------------------------- exact 1D W2

def test_w2_gaussian_closed_form():
    # [DERIVED] W2(N(m1, s1^2), N(m2, s2^2)) = sqrt((m1-m2)^2 + (s1-s2)^2)
    grid = make_grid(1, 2**17, 12.0)
    f = _gaussian_density(grid, 0.3, 1.0)
    g = _gaussian_density(grid, -0.5, 0.7)
    exact = math.sqrt(0.8**2 + 0.3**2)
    assert abs(w2_1d(f, g) - exact) <= 1e-8


def test_w2_translation(grid1d):
    f = _gaussian_density(grid1d, 0.0, 1.0)
    g = _gaussian_density(grid1d, 1.2, 1.0)
    assert w2_1d(f, g) == pytest.approx(1.2, abs=1e-6)


def test_w1_le_w2_random_pairs(grid1d, rng):
    # [PAPER] the inequality chain W1 <= W2
    for _ in range(100):
        f, g = _mixture(grid1d, rng), _mixture(grid1d, rng)
        assert w1_1d(f, g) <= w2_1d(f, g) + 1e-12


# ------------------------------------------------------------- axioms

def test_metric_axioms_random_triples(grid1d, rng):
    for _ in range(20):
        f, g, h = (_mixture(grid1d, rng) for _ in range(3))
        for metric in (w1_1d, w2_1d):
            assert metric(f, g) == pytest.approx(metric(g, f), abs=1e-10)
            assert metric(f, f) <= 1e-12
            assert metric(f, h) <= metric(f, g) + metric(g, h) + 1e-10


def test_translation_equivariance_off_lattice(grid1d):
    a = 0.37  # not a lattice multiple
    f = _gaussian_density(grid1d, 0.0)
    g = _gaussian_density(grid1d, a)
    assert abs(w1_1d(f, g) - a) <= grid1d.spacing


def test_scaling_covariance(grid1d):
    lam = 2.0
    f = _gaussian_density(grid1d, 0.0, 1.0)
    g = _gaussian_density(grid1d, 3.0, 1.0)
    fs = _gaussian_density(grid1d, 0.0, 1.0 / lam)
    gs = _gaussian_density(grid1d, 3.0 / lam, 1.0 / lam)
    assert w1_1d(fs, gs) == pytest.approx(w1_1d(f, g) / lam, abs=2 * grid1d.spacing)


def test_w1_dilated_matches_manual(grid1d):
    # dilating the wide Gaussian by c = 2 shrinks its std to 1, matching g
    # up to the half-resolution of the dilated quantile table
    f = _gaussian_density(grid1d, 0.0, 2.0)
    g = _gaussian_density(grid1d, 0.0, 1.0)
    undilated = w1_1d(f, g)
    dilated = w1_1d(f, g, dilation=2.0)
    assert dilated <= grid1d.spacing / 8.0
    assert dilated <= 0.01 * undilated
    with pytest.raises(GridError):
        w1_1d(f, g, dilation=0.0)


# ------------------------------------------------------------- Sobolev

def test_sobolev_zero_order_is_l2(grid1d):
    from nlslab import gaussian_state, mass
    phi = gaussian_state(grid1d, 1.0)
    assert sobolev_norm(phi, 0.0) == pytest.approx(math.sqrt(mass(phi)), abs=1e-12)


def test_sobolev_first_order_gaussian(grid1d):
    from nlslab import gaussian_state
    a = 1.4
    phi = gaussian_state(grid1d, a)
    assert sobolev_norm(phi, 1.0) == pytest.approx(1.0 / (a * math.sqrt(2.0)), abs=1e-10)


def test_sobolev_negative_order_needs_mean_zero(grid1d):
    f = _gaussian_density(grid1d)
    with pytest.raises(NormalizationError):
        sobolev_norm(f.values, -1.0, grid=grid1d)


def test_sobolev_order_window(grid1d):
    from nlslab import gaussian_state
    phi = gaussian_state(grid1d, 1.0)
    with pytest.raises(GridError):
        sobolev_norm(phi, 3.0)


def test_hauray_mischler_bound(grid1d, rng):
    # [PAPER] ||f - g||_{H^{-s}} <= C W1(f, g)^{1/2} for s = (d+1)/2 + 0.1;
    # [DERIVED] frozen constant C = 1 (measured sup ratio ~0.8)
    worst = 0.0
    for _ in range(100):
        f, g = _mixture(grid1d, rng), _mixture(grid1d, rng)
        w1 = w1_1d(f, g)
        if w1 <= 1e-14:
            continue
        hneg = sobolev_norm(f.values - g.values, -1.1, grid=grid1d)
        worst = max(worst, hneg / math.sqrt(w1))
    assert worst <= 1.0


# ------------------------------------------------------------- Gamma

def test_gamma_normalized(grid1d):
    gamma = gaussian_gamma(grid1d)
    assert abs(gamma.integral() - 1.0) <= 1e-12


def test_gamma_center_value(grid1d):
    gamma = gaussian_gamma(grid1d)
    # x = 0 is on the lattice for even N
    i0 = grid1d.n // 2
    assert grid1d.x[i0] == 0.0
    assert gamma.values[i0] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-10)


def test_gamma_second_moment(grid1d):
    gamma = gaussian_gamma(grid1d)
    m2 = float(grid1d.integrate(grid1d.radius_sq * gamma.values))
    assert abs(m2 - 0.5) <= 1e-8


def test_gamma_box_guard():
    with pytest.raises(GridError):
        gaussian_gamma(make_grid(1, 64, 3.0))


def test_quantile_rep_monotone(grid1d, rng):
    q = QuantileRep.from_density(_mixture(grid1d, rng))
    assert np.all(np.diff(q.probabilities) >= 0)
    assert np.all(np.diff(q.values) > 0)
