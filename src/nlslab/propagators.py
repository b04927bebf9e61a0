"""Strang split-step propagators for the four model equations.

Each step alternates the exact linear flow (a Fourier multiplier) with
the exact nonlinear flow (a pointwise phase rotation, since the local
modulus is invariant), so mass is conserved to roundoff per substep.
Non-autonomous coefficients of the lens models are frozen at the
interval midpoint, which preserves second order.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .envelope import EnvelopeState, TauEnvelope, chevron_state
from .errors import BlowUpError, EnvelopeError, GridError
from .grid import Model, WaveField, edge_density, energy, gradient_norm_sq, lp_norm, mass

MASS_DRIFT_TRIP = 1e-8
LENS_DT_CAP = 0.25


@dataclass(frozen=True)
class StepPlan:
    """Time-step parameters shared by all steppers."""

    dt: float
    scheme: str = "strang"
    log_floor: float = 1e-12
    potential_midpoint: bool = True

    def __post_init__(self):
        if self.dt == 0 or not math.isfinite(self.dt):
            raise GridError(f"dt must be a nonzero finite real, got {self.dt}")
        if self.scheme not in ("strang", "lie"):
            raise GridError(f"unknown scheme {self.scheme!r}")
        if not (0.0 <= self.log_floor <= 1e-6):
            raise GridError(f"log_floor must lie in [0, 1e-6], got {self.log_floor}")


def power_ratio(rho: np.ndarray, sigma: float) -> np.ndarray:
    """(rho^sigma - 1) / sigma, stably, with the ln(rho) limit at sigma = 0.

    Uses expm1(sigma ln rho)/sigma: the naive form loses all digits by
    cancellation exactly in the small-sigma regime of interest.
    """
    logr = np.log(np.maximum(rho, 1e-300))
    if sigma < 1e-8:
        return logr
    return np.expm1(sigma * logr) / sigma


def _phase(model: Model, sigma: float, log_floor: float):
    """The model's pointwise potential rho = |u|^2 -> V(rho), one per Model."""
    if model is Model.DIRECT or model is Model.DIRECT_LENS:
        return lambda rho: rho**sigma
    if model is Model.LOG or sigma == 0.0:  # rescaled family degenerates to the log branch
        return lambda rho: np.log(rho + log_floor)
    return lambda rho: power_ratio(rho, sigma)


def _coefficients(model: Model, sigma: float, grid, plan: StepPlan, frozen_tau=None):
    """(t, dt) -> (kinetic weight, potential rho -> V) for one step of `model`.
    Lens models freeze both at the envelope's tau at the step midpoint (the step
    start when plan.potential_midpoint is off), or at frozen_tau if given."""
    if model in (Model.DIRECT, Model.RESCALED) and not sigma > 0:
        raise GridError(f"{model.value} model needs sigma > 0 (sigma = 0 is the log "
                        f"model), got {sigma}")
    phase = _phase(model, sigma, plan.log_floor)
    tau_at, _ = _envelope(model, sigma, grid.dim)
    if tau_at is None:
        return lambda t, dt: (1.0, phase)
    if frozen_tau is not None:
        tau_at = lambda t: frozen_tau
    r2, a = grid.radius_sq, grid.dim * sigma
    midpoint = 0.5 if plan.potential_midpoint else 0.0

    def lens(t, dt):
        tau = tau_at(t + midpoint * dt)
        if tau <= 0:
            raise EnvelopeError(f"envelope tau must be positive, got {tau}")
        nl = tau ** (-a)
        # direct-lens: i v_t + Lap v/(2<t>^2) = |y|^2 v/(2<t>^2) + <t>^{-d sigma} |v|^{2s} v
        harm = 0.25 * nl if model is Model.RESCALED_LENS else 0.5 / tau**2
        return 1.0 / tau**2, lambda rho: harm * r2 + nl * phase(rho)
    return lens


def _envelope(model: Model, sigma: float, dim: int):
    """(t -> tau, t -> EnvelopeState) of a lens model; (None, None) for the
    autonomous models."""
    if model is Model.DIRECT_LENS:
        return (lambda t: chevron_state(t, sigma, dim).tau,
                lambda t: chevron_state(t, sigma, dim))
    if model is Model.RESCALED_LENS:
        env = TauEnvelope(sigma, dim)
        return env.tau, env.state
    return None, None


def _lens_schedule_dt(t: float, dt0: float) -> float:
    """Growing step for lens runs: the stepped coefficients decay in tau,
    so the local splitting error shrinks and dt may grow ~ t."""
    return min(max(dt0, dt0 * 0.5 * t), LENS_DT_CAP)


def _step_sizes(t: float, t_end: float, dt_of, tol: float):
    """Steps dt_of(t) from t to t_end, the last trimmed."""
    while t < t_end - tol:
        dt = min(dt_of(t), t_end - t)
        if not dt > 0:
            raise GridError(f"time steps must be positive, got {dt}")
        yield dt
        t += dt


def _march(values: np.ndarray, grid, t: float, steps, coefficients, scheme: str):
    """Split-step `values` from time t through `steps`; returns (values, t) at the end.

    coefficients(t, dt) gives a step's kinetic weight kappa and potential.
    Lie kicks by kappa dt, then applies the phase.  Strang's adjacent half
    kicks commute, so each pair is applied as one multiplier: two FFTs per
    step, with the full state formed only at the segment end.
    """
    # fixed dt repeats a few weights; lens weights never repeat, so keep few
    multiplier = functools.lru_cache(maxsize=4)(lambda w: np.exp(-0.5j * w * grid.k_sq))

    def kick(v, w):
        vhat = grid.fft(v)
        vhat *= multiplier(w)
        return grid.ifft(vhat)

    strang = scheme == "strang"
    pending = 0.0   # Strang half kick owed by the previous step
    for dt in steps:
        kappa, potential = coefficients(t, dt)
        if strang:
            half = 0.5 * kappa * dt
            values = kick(values, pending + half)
            pending = half
        else:
            values = kick(values, kappa * dt)
        theta = dt * potential(np.abs(values) ** 2)
        # e^{-i theta}: cos and sin cost less than exp of an imaginary array
        values = values * (np.cos(theta) - 1j * np.sin(theta))
        t += dt
        if not np.isfinite(values.sum()):
            raise BlowUpError("NaN/Inf after step", time=t)
    if pending:
        values = kick(values, pending)
    return values, t


def _one_step(field: WaveField, plan: StepPlan, sigma: float, frozen_tau=None) -> WaveField:
    coefficients = _coefficients(field.model, sigma, field.grid, plan, frozen_tau)
    values, t = _march(field.values, field.grid, field.time, (plan.dt,), coefficients,
                       plan.scheme)
    return field.with_values(values, time=t)


def step_direct(field: WaveField, plan: StepPlan, sigma: float | None = None) -> WaveField:
    """One step of i u_t + (1/2) Lap u = |u|^{2 sigma} u."""
    if field.model is not Model.DIRECT:
        raise GridError(f"step_direct needs a Direct-model field, got {field.model}")
    return _one_step(field, plan, field.sigma if sigma is None else sigma)


def step_rescaled(field: WaveField, plan: StepPlan, sigma: float | None = None) -> WaveField:
    """One step with nonlinear phase (|u|^{2 sigma} - 1)/sigma; sigma = 0 is rejected."""
    if field.model is not Model.RESCALED:
        raise GridError(f"step_rescaled needs a Rescaled-model field, got {field.model}")
    return _one_step(field, plan, field.sigma if sigma is None else sigma)


def step_log(field: WaveField, plan: StepPlan) -> WaveField:
    """One step of the logarithmic model, phase ln(|u|^2 + eps_reg)."""
    if field.model is not Model.LOG:
        raise GridError(f"step_log needs a Log-model field, got {field.model}")
    return _one_step(field, plan, field.sigma)


def step_lens(field: WaveField, plan: StepPlan, env: EnvelopeState) -> WaveField:
    """One lens-model step from env, the field's envelope (time, sigma, d) at the
    step start; coefficients are frozen at the model's own envelope at the step
    midpoint, or at env.tau when potential_midpoint is off."""
    if field.model not in (Model.RESCALED_LENS, Model.DIRECT_LENS):
        raise GridError(f"step_lens needs a lens-model field, got {field.model}")
    if abs(env.sigma - field.sigma) > 1e-12 or env.dim != field.grid.dim:
        raise EnvelopeError(f"envelope (sigma {env.sigma}, d = {env.dim}) does not "
                            f"match the field (sigma {field.sigma}, d = {field.grid.dim})")
    if env.tau <= 0:
        raise EnvelopeError(f"envelope tau must be positive, got {env.tau}")
    if abs(env.t - field.time) > 1e-9 * max(1.0, abs(field.time)):
        raise EnvelopeError(f"envelope time {env.t} inconsistent with field time "
                            f"{field.time}")
    return _one_step(field, plan, field.sigma,
                     None if plan.potential_midpoint else env.tau)


def free_flow(field: WaveField, dt: float) -> WaveField:
    """Exact free Schrodinger flow e^{i (dt/2) Lap} over dt (linear substep alone)."""
    g = field.grid
    out = g.ifft(g.fft(field.values) * np.exp(-0.5j * dt * g.k_sq))
    return field.with_values(out, time=field.time + dt)


def conservation_row(field: WaveField, envelope: EnvelopeState | None = None) -> dict:
    """Observer row: the standard conserved/monitored quantities."""
    row = {
        "t": field.time,
        "mass": mass(field),
        "energy": energy(field),
        "grad_norm": math.sqrt(gradient_norm_sq(field)),
        "lp_norm": lp_norm(field, 2.0 * field.sigma + 2.0),
        "edge_density": edge_density(field),
    }
    if envelope is not None:
        row["tau"] = envelope.tau
    return row


def evolve(field: WaveField, plan: StepPlan, t_end: float, observers=(), checkpoints=()):
    """March to t_end, landing exactly on each checkpoint (trimmed last steps).

    checkpoints is a sorted sequence of times in (field.time, t_end].
    Returns (final field, list of conservation rows).  Each observation,
    at the start, at each checkpoint and once at t_end, logs a row, fires
    the observers (callables taking the field) and trips BlowUpError if
    the mass has drifted by more than MASS_DRIFT_TRIP of its starting
    value.  Lens models step on _lens_schedule_dt from plan.dt and read
    their envelope at each step's midpoint; the other models step at
    plan.dt.
    """
    times = [field.time, *map(float, checkpoints)]
    if times[-1] > t_end or any(b <= a for a, b in zip(times, times[1:])):
        raise GridError(f"need field time {field.time} < sorted checkpoints <= "
                        f"t_end {t_end}")
    log: list[dict] = []
    if t_end == field.time:
        return field, log
    targets = times[1:] if times[-1] == t_end else times[1:] + [t_end]
    _, env_at = _envelope(field.model, field.sigma, field.grid.dim)
    mass0 = mass(field)

    def observe(f):
        row = conservation_row(f, env_at(f.time) if env_at else None)
        log.append(row)
        for obs in observers:
            obs(f)
        if abs(row["mass"] - mass0) > MASS_DRIFT_TRIP * mass0:
            raise BlowUpError(f"mass drift tripwire at t = {f.time:.6g}", time=f.time)

    coefficients = _coefficients(field.model, field.sigma, field.grid, plan)
    dt_of = (lambda t: _lens_schedule_dt(t, plan.dt)) if env_at else (lambda t: plan.dt)
    observe(field)
    values, t = field.values, field.time
    for target in targets:
        steps = _step_sizes(t, target, dt_of, 1e-12 * max(1.0, abs(target)))
        values, t = _march(values, field.grid, t, steps, coefficients, plan.scheme)
        current = field.with_values(values, time=t)
        observe(current)
    return current, log
