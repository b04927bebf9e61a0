"""Grid, field, and conserved-quantity unit tests."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlslab import (BlowUpError, Density, GridError, Model, NormalizationError,
                    ResolutionError, WaveField, energy,
                    gaussian_state, gradient_norm_sq, l2_distance, make_grid,
                    mass, position_norm_sq)
from nlslab.grid import _potential_density, nonlinear_phase, rotation


# ------------------------------------------------------------- construction

def test_grid_small_box_lattice():
    g = make_grid(1, 8, 4.0)
    assert g.spacing == 1.0
    # k = (pi/4) * m over FFT-ordered m in {-4..3}
    assert np.allclose(np.sort(g.k), (math.pi / 4.0) * np.arange(-4, 4))


def test_grid_spacing():
    assert make_grid(1, 256, 20.0).spacing == 0.15625


def test_grid_rejects_bad_parameters():
    with pytest.raises(GridError):
        make_grid(3, 16, 1.0)          # unsupported dimension
    with pytest.raises(GridError):
        make_grid(1, 100, 1.0)         # not a power of two
    with pytest.raises(GridError):
        make_grid(1, 4, 1.0)           # too few points
    with pytest.raises(GridError):
        make_grid(1, 64, -1.0)
    with pytest.raises(GridError):
        make_grid(1, 128.9, 1.0)       # would truncate to 128


def test_grid_axes_are_readonly(grid1d):
    with pytest.raises(ValueError):
        grid1d.x[0] = 99.0


# ------------------------------------------------------------- gaussian data

def test_gaussian_normalized(grid1d):
    phi = gaussian_state(grid1d, 1.0)
    assert abs(mass(phi) - 1.0) <= 1e-12


def test_gaussian_mean_momentum(grid1d):
    # [DERIVED] spectral first moment of |u_hat|^2 recovers the phase slope
    phi = gaussian_state(grid1d, 1.0, phase_slope=1.0)
    g = phi.grid
    uhat = g.fft(phi.values)
    p_mean = float((g.k * np.abs(uhat) ** 2).sum() / (np.abs(uhat) ** 2).sum())
    assert abs(p_mean - 1.0) <= 1e-10


def test_gaussian_underresolved_rejected():
    g = make_grid(1, 64, 20.0)
    with pytest.raises(ResolutionError):
        gaussian_state(g, 1e-3)
    # too wide for the box: its center must be at least 5.3 widths from the edge
    gaussian_state(g, 20.0 / 5.3)
    for width, center in ((20.0 / 5.29, 0.0), (1.0, 14.8)):
        with pytest.raises(ResolutionError):
            gaussian_state(g, width, center=center)


def test_gaussian_center_outside_box(grid1d):
    with pytest.raises(GridError):
        gaussian_state(grid1d, 1.0, center=25.0)


# ------------------------------------------------------------- functionals

def test_mass_zero_field(grid1d):
    zero = WaveField(grid1d, np.zeros(grid1d.shape), 0.0, 1.0, Model.DIRECT)
    assert mass(zero) == 0.0


def test_mass_quadratic_homogeneity(grid1d):
    phi = gaussian_state(grid1d, 1.0)
    doubled = phi.with_values(2.0 * phi.values)
    assert abs(mass(doubled) - 4.0 * mass(phi)) <= 1e-12


def test_energy_zero_field(grid1d):
    zero = WaveField(grid1d, np.zeros(grid1d.shape), 0.0, 1.0, Model.DIRECT)
    assert energy(zero) == 0.0


def test_energy_gaussian_closed_form(grid1d):
    # [DERIVED] analytic Gaussian integrals: for the L2-normalized width-a
    # Gaussian, kinetic = 1/(4 a^2) and the sigma = 1 potential is
    # 1/(2 a sqrt(2 pi)).
    a = 1.3
    phi = gaussian_state(grid1d, a, sigma=1.0, model=Model.DIRECT)
    expected = 0.25 / a**2 + 0.5 / (a * math.sqrt(2.0 * math.pi))
    assert abs(energy(phi) - expected) <= 1e-10
    assert abs(gradient_norm_sq(phi) - 0.5 / a**2) <= 1e-10


@settings(derandomize=True, deadline=None)
@given(log10_sigma=st.floats(-12.0, -3.0), width=st.floats(0.5, 3.0),
       amplitude=st.floats(0.2, 3.0))
def test_energy_continuous_across_log_seam(grid1d, log10_sigma, width, amplitude):
    # [DERIVED] G_s - G_0 = s rho (ln^2 rho / 2 - ln rho + 1) + O(s^2), so the
    # rescaled energy reaches the log energy linearly in s, with no 1/s roundoff
    sigma = 10.0**log10_sigma
    phi = gaussian_state(grid1d, width, sigma=sigma, model=Model.RESCALED,
                         amplitude=amplitude)
    gap = energy(phi) - energy(phi.with_tags(sigma=0.0))
    rho = np.abs(phi.values) ** 2
    ln_rho = np.log(rho, where=rho > 0, out=np.zeros_like(rho))
    bound = sigma * float(grid1d.integrate(rho * (1.0 + np.abs(ln_rho) + ln_rho**2)))
    assert abs(gap) <= bound


# the log flow is the rescaled model's sigma = 0 row
_PHASE_SIGMAS = {"direct": (Model.DIRECT, 0.05, 2.0), "rescaled": (Model.RESCALED, 0.05, 1.0),
                 "log": (Model.RESCALED, 0.0, 0.0),
                 "rescaled-lens": (Model.RESCALED_LENS, 0.0, 1.0),
                 "direct-lens": (Model.DIRECT_LENS, 0.05, 2.0)}


@settings(derandomize=True, deadline=None)
@given(label=st.sampled_from(list(_PHASE_SIGMAS)), fraction=st.floats(0.0, 1.0),
       log10_rho=st.floats(-6.0, 1.0))
def test_energy_density_derivative_is_the_phase(label, fraction, log10_rho):
    # G' = V for every model, the regularised rescaled family included: a central
    # difference of the energy density matches the step's phase to its own error,
    # (h^2/6) |V''| + roundoff, under 4e-11 (1 + |V|) on these ranges
    model, lo, hi = _PHASE_SIGMAS[label]
    sigma, rho = lo + fraction * (hi - lo), 10.0**log10_rho
    h = 1e-5 * rho
    g_minus, g_plus = _potential_density(np.array([rho - h, rho + h]), sigma, model)
    v = float(nonlinear_phase(model, sigma)(np.array([rho]))[0])
    assert abs((g_plus - g_minus) / (2.0 * h) - v) <= 1e-9 * (1.0 + abs(v))


def test_position_norm_gaussian(grid1d):
    a = 0.8
    phi = gaussian_state(grid1d, a)
    assert abs(position_norm_sq(phi) - 0.5 * a**2) <= 1e-10


def test_lp_and_l2_distance(grid1d):
    phi = gaussian_state(grid1d, 1.0)
    assert abs(mass(phi) ** 0.5 - 1.0) <= 1e-12
    shifted = gaussian_state(grid1d, 1.0, center=0.5)
    assert l2_distance(phi, phi) == 0.0
    assert l2_distance(phi, shifted) > 0.1


# ------------------------------------------------------------- field checks

def test_field_rejects_shape_mismatch(grid1d):
    with pytest.raises(GridError):
        WaveField(grid1d, np.zeros(17), 0.0, 1.0, Model.DIRECT)


def test_field_rejects_negative_sigma(grid1d):
    with pytest.raises(GridError):
        WaveField(grid1d, np.zeros(grid1d.shape), 0.0, -0.5, Model.DIRECT)


def test_field_rejects_nan(grid1d):
    vals = np.zeros(grid1d.shape, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(BlowUpError):
        WaveField(grid1d, vals, 0.0, 1.0, Model.DIRECT)


# ------------------------------------------------------------- densities

def test_density_normalize(grid1d):
    rho = np.exp(-grid1d.x**2)
    d = Density.normalize(grid1d, rho)
    assert abs(d.integral() - 1.0) <= 1e-12
    assert d.raw_integral == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_density_rejects_negative(grid1d):
    with pytest.raises(NormalizationError):
        Density.normalize(grid1d, -np.ones(grid1d.shape))


def test_density_rejects_zero(grid1d):
    with pytest.raises(NormalizationError):
        Density.normalize(grid1d, np.zeros(grid1d.shape))


def test_grid_2d_integrate():
    g = make_grid(2, 32, 8.0)
    vals = np.exp(-g.radius_sq)
    assert float(g.integrate(vals)) == pytest.approx(math.pi, rel=1e-10)


# ------------------------------------------------------------- stacked march pins

# the log flow is the rescaled model's sigma = 0 row
_STACK_SIGMAS = {"direct": (Model.DIRECT, (0.5, 1.0, 2.0, 0.7)),
                 "direct-runs": (Model.DIRECT, (0.5, 0.5, 2.0, 2.0, 0.7)),
                 "rescaled": (Model.RESCALED, (0.5, 1e-9, 1.0, 0.05)),
                 "log": (Model.RESCALED, (0.0, 0.0)),
                 "rescaled-lens": (Model.RESCALED_LENS, (0.1, 0.0, 0.05, 0.0, 0.01)),
                 "direct-lens": (Model.DIRECT_LENS, (2.0, 0.5, 1.0))}


def _written_out_phase(model, sigma, rho):
    """V(rho) as its formula reads, one expression per branch."""
    if model is Model.DIRECT or model is Model.DIRECT_LENS:
        return rho**sigma
    if sigma == 0.0:
        return np.log(rho + 1e-12)
    return np.expm1(sigma * np.log(rho + 1e-12)) / sigma


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("model,sigmas", _STACK_SIGMAS.values(), ids=list(_STACK_SIGMAS))
def test_stacked_phase_equals_per_row_phase(model, sigmas, dim):
    # one call over a column of sigmas is each row's own scalar-sigma call and the
    # written formula, bit for bit: the sigma = 0 rows of a rescaled stack (not
    # adjacent in the lens stack) take the log branch, and the direct rows keep
    # ** at sigma = 0.5 and 2 (numpy's sqrt and square), also in one pass over
    # a run of rows of equal sigma.  phase(rho, out) writes
    # the same V into out, a separate buffer or rho itself, with sigma as a column
    # or at full shape (as the march passes it); each row opens with the vacuum
    rng = np.random.default_rng(9)
    rho = rng.random((len(sigmas),) + (16,) * dim) * 3.0
    rho.reshape(len(sigmas), -1)[:, :3] = (0.0, 1e-310, 1e-20)
    before = rho.copy()
    column = np.reshape(sigmas, (-1,) + (1,) * dim)
    for sigma in (column, np.broadcast_to(column, rho.shape).copy()):
        phase = nonlinear_phase(model, sigma)
        stacked = phase(rho)
        assert stacked.shape == rho.shape
        out = np.full_like(rho, np.nan)
        assert phase(rho, out) is out and np.array_equal(out, stacked)
        assert np.array_equal(rho, before)
        same = rho.copy()
        assert phase(same, same) is same and np.array_equal(same, stacked)
        for row, s, r in zip(stacked, sigmas, rho):
            one, into = nonlinear_phase(model, s), np.full_like(r, np.nan)
            assert np.array_equal(row, _written_out_phase(model, s, r))
            assert np.array_equal(row, one(r))
            assert one(r, into) is into and np.array_equal(row, into)


@pytest.mark.parametrize("grid", [make_grid(1, 64, 7.0), make_grid(2, 32, 5.0)],
                         ids=["1d", "2d"])
def test_kinetic_multiplier_equals_full_exponential(grid):
    # the kernel on the N/2 + 1 values per axis of |k|^2, taken back to the grid,
    # is bitwise the kernel on the full |k|^2 grid; the kernel is the full exp to
    # rotation's bounds (1e-15 absolute, unit modulus to 2e-15) for angles to 1e6
    weights = (1e-3, 0.37, 2.5, 0.37, 2e6 / grid.k_sq.max())
    table = grid.kinetic_multiplier(weights)
    assert table.shape == (len(weights),) + grid.shape
    for row, w in zip(table, weights):
        assert np.array_equal(row, rotation(grid.k_sq * w * 0.5, np.empty(grid.shape, complex)))
        assert np.abs(row - np.exp(-0.5j * w * grid.k_sq)).max() <= 1e-15
    assert grid._k_sq_folded[0].size == (grid.n // 2 + 1) ** grid.dim
    theta = np.linspace(-1e6, 1e6, 400_001)
    e = rotation(theta.copy(), np.empty(theta.shape, dtype=complex))
    assert np.abs(e - np.exp(-1j * theta)).max() <= 1e-15
    assert np.abs(np.abs(e) ** 2 - 1.0).max() <= 2e-15


@pytest.mark.parametrize("grid", [make_grid(1, 64, 7.0), make_grid(2, 32, 5.0)],
                         ids=["1d", "2d"])
def test_fft_in_place_equals_out_of_place(grid):
    # the march transforms its one buffer in place (out= the input); a stack
    # of rows and a single field both give numpy's out-of-place fft/ifft
    # (fft2/ifft2 at d = 2) bitwise
    rng = np.random.default_rng(12)
    numpy_pair = ((np.fft.fft, np.fft.ifft) if grid.dim == 1
                  else (np.fft.fft2, np.fft.ifft2))
    for shape in (grid.shape, (3,) + grid.shape):
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for transform, reference in zip((grid.fft, grid.ifft), numpy_pair):
            buffer = values.copy()
            assert transform(buffer, out=buffer) is buffer
            assert np.array_equal(buffer, reference(values))
            assert np.array_equal(transform(values), reference(values))
