"""Lens-variable densities, pseudo-energy and diagnostics.

The lens transform

    u(t, x) = tau^{-d/2} v(t, x/tau) exp(i (tau'/tau) |x|^2 / 2)

turns dispersion on the whole space into a confined, bounded-support
problem, which is what makes the long-time experiments possible on a
periodic box.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import EnvelopeState
from .errors import NormalizationError
from .grid import Density, WaveField, gradient_norm_sq, mass, position_norm_sq, power_ratio

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


def density_from_field(v: WaveField) -> Density:
    """Normalized |v|^2; for lens-variable trajectories this is the rescaled density."""
    if mass(v) <= 0:
        raise NormalizationError("cannot normalize the density of a zero field")
    return Density.normalize(v.grid, np.abs(v.values) ** 2)


def pseudo_energy(v: WaveField, env: EnvelopeState) -> PseudoEnergy:
    """The lens Lyapunov functional, its nonlinear part split by the sign of rho V_eps(rho),
    with V_eps = power_ratio the step's own phase (negative below rho = 1 - eps)."""
    g, sigma, tau = v.grid, v.sigma, env.tau
    a = g.dim * sigma
    rho = np.abs(v.values) ** 2
    kinetic = 0.5 * gradient_norm_sq(v) / tau**2
    confinement = 0.25 * tau ** (-a) * position_norm_sq(v)
    integrand = power_ratio(rho, sigma) * rho  # rho ln(rho + eps) at sigma = 0
    coeff = tau ** (-a) / (sigma + 1.0)
    plus = coeff * float(g.integrate(np.maximum(integrand, 0.0)).real)
    minus = -coeff * float(g.integrate(np.minimum(integrand, 0.0)).real)
    return PseudoEnergy(kinetic=kinetic, confinement=confinement,
                        nonlinear_plus=plus, nonlinear_minus=minus)


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
    ysq = position_norm_sq(v)
    cross = sum(float(g.integrate(mesh * np.imag(np.conj(v.values) * dv)).real)
                for mesh, dv in zip(g.coords, grads))
    return gsq / tau**2 + taud**2 * ysq + 2.0 * (taud / tau) * cross
