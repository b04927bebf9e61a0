"""Lens-variable densities, Madelung fields, pseudo-energy, and pointwise inequalities.

The Madelung fields and the dispersive bound are oracles for the flow that
`evolve` computes, so they live here rather than in the package.
"""
import math
from dataclasses import dataclass

import numpy as np
import pytest

from nlslab import (Density, EnvelopeState, Grid, Model, PROFILE_DILATION,
                    WaveField, cazenave_haraux_gap, density_from_field,
                    direct_gradient_norm_sq, evolve, gaussian_state,
                    gradient_norm_sq, integrate_tau, make_grid, mass, power_ratio,
                    pseudo_energy, w1_1d)
from nlslab.errors import NormalizationError


def _lens_field(grid, sigma=0.1, **kw):
    return gaussian_state(grid, 1.0, sigma=sigma, model=Model.RESCALED_LENS, **kw)


def _env(tau, tau_dot, sigma=0.1, t=0.0):
    return EnvelopeState(t=t, tau=tau, tau_dot=tau_dot, sigma=sigma, dim=1)


# ------------------------------------------------------------- densities

def test_profile_dilation_value():
    assert PROFILE_DILATION == 2.0


def test_density_rejects_zero_field(grid1d):
    zero = WaveField(grid1d, np.zeros(grid1d.shape), 0.0, 0.1, Model.RESCALED_LENS)
    with pytest.raises(NormalizationError):
        density_from_field(zero)


def test_free_flow_density_approaches_fourier_profile():
    # [DERIVED] closed-form free Gaussian in self-similar variables: the
    # y-density tends to the Gaussian with variance 1/(2 a^2) (the
    # modulus-squared Fourier profile); W1 gap ~ a^2/t
    a = 2.0
    gy = make_grid(1, 512, 6.0)
    limit = Density.normalize(gy, np.exp(-(a * gy.x) ** 2))
    gaps = []
    for t in (10.0, 30.0):
        s2 = (a**4 + t * t) / (a * a * t * t)
        gaps.append(w1_1d(Density.normalize(gy, np.exp(-gy.x**2 / s2)), limit))
    assert gaps[1] < gaps[0]
    assert gaps[1] <= 0.02


# ------------------------------------------------------------- pseudo-energy

def test_pseudo_energy_unimodular_has_no_nonlinear_part(grid1d):
    # |v| = 1: ((rho + eps)^sigma - 1)/sigma is the eps term alone,
    # expm1(sigma log1p(eps))/sigma = eps (1 + O(eps)) with eps = 1e-12 the
    # regularisation, so at tau = 1 the nonlinear part is mass eps / (sigma + 1).
    # |e^{ikx}|^2 - 1 rounds to +-2.2e-16 on a cell, which moves it by < 3e-4 relative
    k0 = grid1d.k[3]
    v = WaveField(grid1d, np.exp(1j * k0 * grid1d.x), 0.0, 0.3, Model.RESCALED_LENS)
    e = pseudo_energy(v, _env(1.0, 0.0, sigma=0.3))
    eps_term = mass(v) * math.expm1(0.3 * math.log1p(1e-12)) / 0.3 / 1.3
    assert e.nonlinear_plus == pytest.approx(eps_term, rel=1e-3)
    assert e.nonlinear_minus <= 1e-12
    assert e.kinetic == pytest.approx(0.5 * k0**2 * mass(v), rel=1e-12)


def test_pseudo_energy_components_nonnegative(grid1d, rng):
    phi = _lens_field(grid1d, sigma=0.05)
    noisy = phi.with_values(phi.values * np.exp(0.3j * rng.standard_normal(grid1d.shape)))
    for sig, f in ((0.05, noisy), (0.0, noisy.with_tags(sigma=0.0))):
        e = pseudo_energy(f, _env(1.3, 0.2, sigma=sig))
        for part in (e.kinetic, e.confinement, e.nonlinear_plus, e.nonlinear_minus):
            assert part >= 0.0
        assert e.kinetic + e.confinement + e.nonlinear_plus + e.nonlinear_minus >= abs(e.total)


def test_pseudo_energy_matches_manual_quadrature(grid1d):
    # [TRIVIAL] recompute the sigma = 0 functional directly
    phi = _lens_field(grid1d, sigma=0.0)
    env = _env(1.5, 0.1, sigma=0.0)
    e = pseudo_energy(phi, env)
    g = grid1d
    rho = np.abs(phi.values) ** 2
    kin = 0.5 * float(g.integrate(np.abs(g.gradient(phi.values)[0]) ** 2).real) / env.tau**2
    conf = 0.25 * float(g.integrate(g.radius_sq * rho).real)
    nl = float(g.integrate(rho * np.log(rho + 1e-12)).real)
    assert e.kinetic == pytest.approx(kin, rel=1e-12)
    assert e.confinement == pytest.approx(conf, rel=1e-12)
    assert e.nonlinear_plus - e.nonlinear_minus == pytest.approx(nl, abs=1e-12)


# ------------------------------------------------------------- Madelung

@dataclass(frozen=True)
class HydroFields:
    """Madelung variables: normalized density and mass-normalized current."""

    rho: Density
    current: tuple
    grid: Grid
    time: float


def hydro(v: WaveField) -> HydroFields:
    """Madelung variables rho = |v|^2/||v||^2 and J = Im(conj(v) grad v)/||v||^2."""
    g = v.grid
    m = mass(v)
    rho = Density.normalize(g, np.abs(v.values) ** 2)
    grads = g.gradient(v.values)
    current = tuple(np.imag(np.conj(v.values) * dv) / m for dv in grads)
    return HydroFields(rho=rho, current=current, grid=g, time=v.time)


def continuity_residual(before: HydroFields, after: HydroFields, tau_mid: float) -> float:
    """L2 residual of d_t rho + tau^{-2} div J = 0.

    d_t rho by the centered difference of the two snapshots, div J from
    the spectral divergence of the midpoint current (average of the two).
    """
    g = before.grid
    dt = after.time - before.time
    drho = (after.rho.values * after.rho.raw_integral
            - before.rho.values * before.rho.raw_integral) / dt
    scale = 0.5 * (after.rho.raw_integral + before.rho.raw_integral)
    div = np.zeros(g.shape)
    for axis in range(g.dim):
        jmid = 0.5 * scale * (before.current[axis] + after.current[axis])
        k = g.k if g.dim == 1 else np.meshgrid(g.k, g.k, indexing="ij", sparse=True)[axis]
        div = div + np.real(g.ifft(1j * k * g.fft(jmid)))
    res = drho + div / tau_mid**2
    return float(np.sqrt(g.integrate(res**2).real))


def test_hydro_real_field_has_zero_current(grid1d):
    phi = _lens_field(grid1d)
    h = hydro(phi)
    assert np.abs(h.current[0]).max() <= 1e-13
    assert abs(h.rho.integral() - 1.0) <= 1e-12


def test_hydro_plane_phase_current(grid1d):
    # v = phi e^{i p x} with real phi: J = p |phi|^2 / ||phi||^2
    p = grid1d.k[5]
    phi = _lens_field(grid1d, phase_slope=p)
    h = hydro(phi)
    assert np.abs(h.current[0] - p * np.abs(phi.values) ** 2 / mass(phi)).max() <= 1e-12


def test_continuity_residual_second_order(grid1d, one_step):
    # [DERIVED] d_t rho + tau^{-2} div J = 0 holds to O(dt^2) across one
    # split step (away from the time-symmetric t = 0 state)
    phi = _lens_field(grid1d)
    [v0] = evolve(phi, 1e-3, [0.5])
    res = []
    for dt in (2e-3, 1e-3, 5e-4):
        v1 = one_step(v0, dt)
        tau_mid = integrate_tau(0.1, 1, [0.5 + dt / 2.0])[0].tau
        res.append(continuity_residual(hydro(v0), hydro(v1), tau_mid))
    for a, b in zip(res, res[1:]):
        assert 3.0 <= a / b <= 5.0


# ------------------------------------------------------------- inequalities

def test_cazenave_haraux_gap_nonpositive(rng):
    # [PAPER] |Im((z2 ln|z2|^2 - z1 ln|z1|^2)(conj(z2 - z1)))| <= 2|z2 - z1|^2
    n = 10000
    def sample():
        return (10.0 ** rng.uniform(-8.0, 4.0, n)
                * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)))
    z1, z2 = sample(), sample()
    slack = 1e-14 * (np.abs(z1) + np.abs(z2)) ** 2
    assert (cazenave_haraux_gap(z1, z2) - slack).max() <= 0.0


def test_cazenave_haraux_gap_vacuum():
    z = np.array([1.3 + 0.2j])
    zero = np.array([0.0 + 0.0j])
    assert cazenave_haraux_gap(zero, z)[0] <= 0.0
    assert cazenave_haraux_gap(zero, zero)[0] == 0.0


def test_log_limit_source_linear_in_sigma():
    # [DERIVED] |(rho^sigma - 1)/sigma - ln rho| ~ sigma (ln rho)^2 / 2;
    # against the |z|^{1 -/+ 0.1} envelope the measured sup ratio stays
    # below 90 for sigma <= 0.05 over twelve decades of modulus
    z = np.exp(np.linspace(math.log(1e-6), math.log(1e3), 4001)) * np.exp(0.7j)
    ratios = []
    for sigma in (0.05, 0.02, 0.005):
        # the rescaled-vs-log defect (|z|^{2 sigma} - 1) z / sigma - z ln|z|^2
        rho = np.abs(z) ** 2
        src = np.abs((power_ratio(rho, sigma) - power_ratio(rho, 0.0)) * z)
        envl = sigma * (np.abs(z) ** 0.9 + np.abs(z) ** 1.1)
        ratios.append(float((src / envl).max()))
    assert max(ratios) <= 100.0


# ------------------------------------------------------------- diagnostics

def test_direct_gradient_norm_identity(grid1d):
    phi = _lens_field(grid1d)
    assert direct_gradient_norm_sq(phi, _env(1.0, 0.0)) == pytest.approx(
        gradient_norm_sq(phi), rel=1e-12)


def test_direct_gradient_norm_cross_check(grid1d):
    # at tau = 1 the lens map is the pure quadratic phase
    # u = v e^{i tau' |y|^2 / 2}, so the identity can be checked against a
    # literal gradient of u
    env = _env(1.0, 0.3)
    phi = _lens_field(grid1d)
    u = phi.with_values(phi.values * np.exp(0.5j * env.tau_dot * grid1d.radius_sq))
    assert direct_gradient_norm_sq(phi, env) == pytest.approx(
        gradient_norm_sq(u), rel=1e-10)


def test_dispersive_bound_short_run():
    # short-range sigma: the weighted gradient sup saturates inside the
    # first half of the range and the current partial sums converge
    g = make_grid(1, 512, 30.0)
    u = gaussian_state(g, 1.0, sigma=0.8, model=Model.DIRECT_LENS)
    times = [0.5, 1.0, 2.0, 4.0, 8.0]
    fields = evolve(u, 2e-3, times)
    # ||grad v(t)|| / <t>^{1 - d sigma / 2} and the terms <t>^{-2} ||J||_{L1}
    # of the current's dyadic partial sums
    weighted, current_terms = [], []
    for t, v in zip(times, fields):
        grads = g.gradient(v.values)
        gnorm = math.sqrt(sum(float(g.integrate(np.abs(c) ** 2).real) for c in grads))
        jl1 = float(g.integrate(np.sqrt(sum(
            np.imag(np.conj(v.values) * dv) ** 2 for dv in grads))).real)
        w = math.sqrt(1.0 + t * t)
        weighted.append(gnorm / w ** (1.0 - 0.8 / 2.0))
        current_terms.append(jl1 / w**2)
    assert max(weighted) <= 1.05 * max(weighted[: len(weighted) // 2])
    assert all(b < a for a, b in zip(current_terms, current_terms[1:]))
