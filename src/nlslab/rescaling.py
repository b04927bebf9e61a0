"""Lens changes of unknowns, normalized densities, Madelung fields, pseudo-energy.

The lens transform

    u(t, x) = tau^{-d/2} v(t, x/tau) exp(i (tau'/tau) |x|^2 / 2)

turns dispersion on the whole space into a confined, bounded-support
problem, which is what makes the long-time experiments possible on a
periodic box.  Resampling between the x- and y-lattices is done by
trigonometric interpolation so the pipeline stays spectrally accurate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import EnvelopeState
from .errors import NormalizationError, ResolutionError
from .grid import Density, Grid, WaveField, edge_density, mass, power_ratio

EDGE_SUPPORT_TOL = 1e-8

# The universal-profile statement Gamma = exp(-|y|^2)/pi^{d/2} is normalized
# for the envelope satisfying tau tau'' = 2.  The envelope family used here
# has tau tau'' = 1/2 at sigma = 0, whose trajectory is asymptotically half
# that one, so the profile appears in these variables dilated by exactly 2:
# compare 2^d rho(2y) against Gamma.
PROFILE_DILATION = 2.0


@dataclass(frozen=True)
class PseudoEnergy:
    """The three-term lens functional split into its signed parts.

    total = kinetic + confinement + nonlinear_plus - nonlinear_minus;
    all four components are nonnegative by construction.
    """

    kinetic: float
    confinement: float
    nonlinear_plus: float
    nonlinear_minus: float

    @property
    def total(self) -> float:
        return self.kinetic + self.confinement + self.nonlinear_plus - self.nonlinear_minus

    @property
    def absolute_sum(self) -> float:
        return self.kinetic + self.confinement + self.nonlinear_plus + self.nonlinear_minus


@dataclass(frozen=True)
class HydroFields:
    """Madelung variables: normalized density and mass-normalized current."""

    rho: Density
    current: tuple
    grid: Grid
    time: float


def _resample_matrix(grid: Grid, scale: float) -> np.ndarray:
    """Trigonometric evaluation of a grid function at the scaled lattice x*scale.

    The Fourier series is 2L-periodic, so targets outside the box wrap
    around; callers must check that the field is negligible at the edge.
    """
    targets = grid.x * scale
    return np.exp(1j * np.outer(targets + grid.half_length, grid.k)) / grid.n


def spectral_rescale(grid: Grid, values: np.ndarray, scale: float) -> np.ndarray:
    """Evaluate values at the lattice scaled by `scale` (separable in d = 2)."""
    mat = _resample_matrix(grid, scale)
    vhat = grid.fft(values)
    if grid.dim == 1:
        return mat @ vhat
    return mat @ vhat @ mat.T


def _check_support(u: WaveField, tau: float) -> None:
    if tau > 1.0:
        rho_edge = edge_density(u)
        peak = float(np.abs(u.values).max()) ** 2
        if peak > 0 and rho_edge > EDGE_SUPPORT_TOL * peak:
            raise ResolutionError(
                f"field support reaches the box edge (relative density "
                f"{rho_edge / peak:.2e}); lens scaling tau = {tau} would wrap it")


def lens_forward(u: WaveField, env: EnvelopeState) -> WaveField:
    """u -> v: v(t, y) = tau^{d/2} u(t, y tau) exp(-i tau' tau |y|^2 / 2)."""
    tau, taud = env.tau, env.tau_dot
    _check_support(u, tau)
    d = u.grid.dim
    vals = spectral_rescale(u.grid, u.values, tau)
    vals = tau ** (d / 2.0) * vals * np.exp(-0.5j * taud * tau * u.grid.radius_sq)
    return WaveField(u.grid, vals, u.time, u.sigma, u.model)


def lens_backward(v: WaveField, env: EnvelopeState) -> WaveField:
    """v -> u, the inverse change of unknowns."""
    tau, taud = env.tau, env.tau_dot
    d = v.grid.dim
    phased = v.values  # undo the quadratic phase after resampling at x/tau
    vals = spectral_rescale(v.grid, phased, 1.0 / tau)
    vals = tau ** (-d / 2.0) * vals * np.exp(0.5j * (taud / tau) * v.grid.radius_sq)
    return WaveField(v.grid, vals, v.time, v.sigma, v.model)


def normalized_density(u: WaveField, tau: float) -> Density:
    """Probability density tau^d |u(t, y tau)|^2 / ||u||^2 on the y-lattice."""
    if mass(u) <= 0:
        raise NormalizationError("cannot normalize the density of a zero field")
    _check_support(u, tau)
    vals = spectral_rescale(u.grid, u.values, tau)
    rho = tau**u.grid.dim * np.abs(vals) ** 2
    return Density.normalize(u.grid, rho)


def density_from_field(v: WaveField) -> Density:
    """Normalized |v|^2; for lens-variable trajectories this is the rescaled density."""
    if mass(v) <= 0:
        raise NormalizationError("cannot normalize the density of a zero field")
    return Density.normalize(v.grid, np.abs(v.values) ** 2)


def pseudo_energy(v: WaveField, env: EnvelopeState) -> PseudoEnergy:
    """The lens Lyapunov functional, with the |v| >= 1 / |v| < 1 sign split.

    sigma = 0 uses the logarithmic integrand (the limit of the stable
    (rho^sigma - 1)/sigma evaluation, so one code path covers both).
    """
    g = v.grid
    sigma = v.sigma
    tau = env.tau
    a = g.dim * sigma
    rho = np.abs(v.values) ** 2
    gsq = sum(float(g.integrate(np.abs(c) ** 2).real) for c in g.gradient(v.values))
    kinetic = 0.5 * gsq / tau**2
    confinement = 0.25 * tau ** (-a) * float(g.integrate(g.radius_sq * rho).real)
    integrand = power_ratio(rho, sigma) * rho  # -> rho ln rho as sigma -> 0
    coeff = tau ** (-a) / (sigma + 1.0)
    plus = coeff * float(g.integrate(np.where(rho >= 1.0, integrand, 0.0)).real)
    minus = -coeff * float(g.integrate(np.where(rho < 1.0, integrand, 0.0)).real)
    return PseudoEnergy(kinetic=kinetic, confinement=confinement,
                        nonlinear_plus=max(plus, 0.0), nonlinear_minus=max(minus, 0.0))


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


def cazenave_haraux_gap(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """lhs - rhs of |Im((z2 ln|z2|^2 - z1 ln|z1|^2) conj(z2 - z1))| <= 2 |z2 - z1|^2.

    z ln|z|^2 extends continuously by 0 at z = 0, which the masked
    logarithm reproduces.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)

    def zlog(z):
        a = np.abs(z)
        return np.where(a > 0, z * np.log(np.where(a > 0, a, 1.0) ** 2), 0.0)

    lhs = np.abs(np.imag((zlog(z2) - zlog(z1)) * np.conj(z2 - z1)))
    return lhs - 2.0 * np.abs(z2 - z1) ** 2


def direct_gradient_norm_sq(v: WaveField, env: EnvelopeState) -> float:
    """|| grad u ||^2 of the direct-variable field, evaluated in lens variables.

    With u = tau^{-d/2} v(x/tau) e^{i tau' |x|^2 / (2 tau)},

        ||grad u||^2 = ||grad v||^2 / tau^2 + (tau')^2 ||y v||^2
                       + 2 (tau'/tau) Int y . Im(conj(v) grad v),

    which avoids resampling u onto the (far too small) x-box.
    """
    g = v.grid
    tau, taud = env.tau, env.tau_dot
    grads = g.gradient(v.values)
    gsq = sum(float(g.integrate(np.abs(c) ** 2).real) for c in grads)
    ysq = float(g.integrate(g.radius_sq * np.abs(v.values) ** 2).real)
    cross = sum(float(g.integrate(mesh * np.imag(np.conj(v.values) * dv)).real)
                for mesh, dv in zip(g.coords, grads))
    return gsq / tau**2 + taud**2 * ysq + 2.0 * (taud / tau) * cross


def log_limit_source(z: np.ndarray, sigma: float) -> np.ndarray:
    """(|z|^{2 sigma} - 1) z / sigma - z ln|z|^2, the rescaled-vs-log defect."""
    rho = np.abs(z) ** 2
    return (power_ratio(rho, sigma) - power_ratio(rho, 0.0)) * z


def dispersive_bound_check(times, fields, sigma: float) -> dict:
    """Check ||grad v(t)|| <~ <t>^{max(0, 1 - d sigma / 2)} on a stored trajectory.

    Reports the weighted sup over the whole range and over its first
    half (stability under t-range doubling), plus the dyadic partial
    sums of <t>^{-2} ||J||_{L1} whose convergence reflects the
    time-integrability of the current.
    """
    rows = []
    for t, v in zip(times, fields):
        g = v.grid
        expo = max(0.0, 1.0 - g.dim * sigma / 2.0)
        grads = g.gradient(v.values)
        gnorm = math.sqrt(sum(float(g.integrate(np.abs(c) ** 2).real) for c in grads))
        jl1 = float(g.integrate(np.sqrt(sum(
            np.imag(np.conj(v.values) * dv) ** 2 for dv in grads))).real)
        w = math.sqrt(1.0 + t * t)
        rows.append({"t": t, "grad_norm": gnorm, "weighted": gnorm / w**expo,
                     "current_term": jl1 / w**2})
    weighted = [r["weighted"] for r in rows]
    half = weighted[: max(1, len(weighted) // 2)]
    partial = np.cumsum([r["current_term"] for r in rows])
    return {
        "sigma": sigma,
        "exponent": max(0.0, 1.0 - fields[0].grid.dim * sigma / 2.0),
        "sup_weighted": max(weighted),
        "sup_weighted_first_half": max(half),
        "current_partial_sums": partial.tolist(),
        "rows": rows,
    }
