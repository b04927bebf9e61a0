"""Asymptotic-state machinery: free-propagator conjugation, numerical
wave/scattering operators, and the Strauss exponent.

The interaction-picture profile e^{-i(t/2) Lap} u(t) converges to an
asymptotic state exactly when the power is short-range; extraction
monitors the profile at dyadic times and accepts only when successive
differences decay.  Below the long-range threshold the residuals stall,
which is detected and reported, never silently "converged".
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GridError
from .grid import Model, WaveField, gradient_norm_sq, l2_distance, mass, position_norm_sq
from .propagators import evolve, free_flow

# scattering_map's backward refinement: at most this many sweeps, stopping once
# the L2 defect of the conjugated profile at -T/2 falls below the tolerance
REFINE_SWEEPS = 5
REFINE_TOL = 1e-10


def strauss_exponent(dim: int) -> float:
    """sigma_0(d) = (2 - d + sqrt(d^2 + 12 d + 4)) / (4 d)."""
    if dim <= 0:
        raise GridError(f"dimension must be positive, got {dim}")
    value = (2.0 - dim + math.sqrt(dim * dim + 12.0 * dim + 4.0)) / (4.0 * dim)
    assert 1.0 / dim < value < 2.0 / dim
    return value


def sigma_norm(f: WaveField) -> float:
    """Weighted-space proxy: (||f||^2 + ||grad f||^2 + ||x f||^2)^{1/2}."""
    return math.sqrt(mass(f) + gradient_norm_sq(f) + position_norm_sq(f))


def free_conjugate(u: WaveField) -> WaveField:
    """Interaction-picture profile e^{-i(t/2) Lap} u(t); unitary, t-stamped."""
    return free_flow(u, -u.time).with_tags(time=u.time)


@dataclass(frozen=True)
class AsymptoticState:
    """Candidate asymptotic state with its extraction diagnostics."""

    state: WaveField
    extraction_time: float
    residual: float
    residual_history: tuple = ()
    converged: bool = False


def extract_asymptotic(fields) -> AsymptoticState:
    """Extract u+/u- from a trajectory sampled at dyadic |t| cadences.

    `fields` are solution snapshots ordered by increasing |t|; the
    profile residuals must decrease over the last three cadences for the
    extraction to be accepted.
    """
    fields = list(fields)
    if len(fields) < 4:
        raise GridError("need at least four dyadic cadences to judge convergence")
    profiles = [free_conjugate(f) for f in fields]
    residuals = [l2_distance(a, b) for a, b in zip(profiles, profiles[1:])]
    tail = residuals[-3:]
    converged = all(b < a for a, b in zip(tail, tail[1:]))
    return AsymptoticState(state=profiles[-1].with_tags(time=0.0),
                           extraction_time=fields[-1].time,
                           residual=residuals[-1],
                           residual_history=tuple(residuals),
                           converged=converged)


def scattering_map(u_minus: WaveField, sigma: float, dt: float,
                   t_infinity: float, n_cadences: int = 4):
    """u- -> u+: backward wave-operator construction then forward extraction.

    Returns (AsymptoticState for u+, diagnostics dict).  The backward
    datum at -T is iteratively corrected: evolve to -T/2, compare the
    conjugated profile with u-, and push the defect back through the
    free flow (at most REFINE_SWEEPS sweeps).  A forward extraction whose
    residuals do not decay is returned with converged=False, for the
    caller to judge.
    """
    if mass(u_minus) == 0:
        zero = u_minus.with_tags(sigma=sigma, model=Model.DIRECT, time=0.0)
        return (AsymptoticState(state=zero, extraction_time=t_infinity, residual=0.0,
                                residual_history=(), converged=True),
                {"defects": [], "trivial": True})
    T = float(t_infinity)
    base = u_minus.with_tags(sigma=sigma, model=Model.DIRECT, time=0.0)
    datum = free_flow(base, -T)  # free approximation of u(-T)
    defects = []
    for _ in range(REFINE_SWEEPS):
        [half] = evolve(datum.with_tags(time=-T), dt, [-T / 2.0])
        profile = free_conjugate(half)
        defects.append(l2_distance(profile, base))
        if defects[-1] < REFINE_TOL:
            break
        correction = free_flow(base.with_values(profile.values - base.values), -T)
        datum = datum.with_values(datum.values - correction.values, time=-T)
    trajectory = evolve(datum.with_tags(time=-T), dt,
                        [T * 2**j for j in range(n_cadences)])
    return extract_asymptotic(trajectory), {"defects": defects, "trivial": False}
