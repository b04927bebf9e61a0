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
from .grid import (Model, WaveField, edge_density, energy_from_gradient, gradient_norm_sq,
                   lp_norm, mass, nonlinear_phase)

MASS_DRIFT_TRIP = 1e-8
LENS_DT_CAP = 0.25
# Most grid points evolve marches as one stacked array.  A stacked march beats
# one row at a time for rows of up to 4096 points, but a stacked FFT of rows
# of 8192 points loses to per-row calls, so rows that large march one at a time.
BATCH_POINTS = 8192


@dataclass(frozen=True)
class StepPlan:
    """Time-step parameters shared by all steppers."""

    dt: float
    scheme: str = "strang"
    potential_midpoint: bool = True

    def __post_init__(self):
        if self.dt == 0 or not math.isfinite(self.dt):
            raise GridError(f"dt must be a nonzero finite real, got {self.dt}")
        if self.scheme not in ("strang", "lie"):
            raise GridError(f"unknown scheme {self.scheme!r}")


def _coefficients(model: Model, sigma: float, grid, plan: StepPlan, frozen_tau=None):
    """(t, dt) -> (kinetic weight, potential rho -> V) for one step of `model`.
    Lens models freeze both at the envelope's tau at the step midpoint (the step
    start when plan.potential_midpoint is off), or at frozen_tau if given."""
    if model in (Model.DIRECT, Model.RESCALED) and not sigma > 0:
        raise GridError(f"{model.value} model needs sigma > 0 (sigma = 0 is the log "
                        f"model), got {sigma}")
    phase = nonlinear_phase(model, sigma)
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
    """Split-step the stacked rows `values` (rows, *grid.shape) from time t through
    `steps`; returns (values, t) at the end.

    coefficients[i](t, dt) gives row i's kinetic weight kappa and potential.
    Lie kicks by kappa dt, then applies the phase.  Strang's adjacent half
    kicks commute, so each pair is applied as one multiplier: two FFTs per
    step for the whole stack, with the full state formed only at the segment end.
    """
    # fixed dt repeats a few weights; lens weights never repeat, so keep few
    multiplier = functools.lru_cache(maxsize=4)(
        lambda ws: np.exp(np.multiply.outer([-0.5j * w for w in ws], grid.k_sq)))

    def kick(v, ws):
        vhat = grid.fft(v)
        vhat *= multiplier(ws)
        return grid.ifft(vhat)

    strang = scheme == "strang"
    pending = None   # Strang half kicks owed by the previous step, one per row
    for dt in steps:
        coeffs = [c(t, dt) for c in coefficients]
        if strang:
            half = [0.5 * kappa * dt for kappa, _ in coeffs]
            weights = half if pending is None else [p + h for p, h in zip(pending, half)]
            pending = half
        else:
            weights = [kappa * dt for kappa, _ in coeffs]
        values = kick(values, tuple(weights))
        rho = np.abs(values) ** 2
        theta = np.array([dt * potential(r) for (_, potential), r in zip(coeffs, rho)])
        # e^{-i theta}: cos and sin cost less than exp of an imaginary array
        values = values * (np.cos(theta) - 1j * np.sin(theta))
        t += dt
        if not np.isfinite(values.sum()):
            raise BlowUpError("NaN/Inf after step", time=t)
    if pending is not None:
        values = kick(values, tuple(pending))
    return values, t


def _one_step(field: WaveField, plan: StepPlan, sigma: float, frozen_tau=None) -> WaveField:
    coefficients = _coefficients(field.model, sigma, field.grid, plan, frozen_tau)
    values, t = _march(field.values[None], field.grid, field.time, (plan.dt,),
                       (coefficients,), plan.scheme)
    return field.with_values(values[0], time=t)


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
    """One step of the logarithmic model, phase ln(|u|^2 + LOG_REGULARISATION)."""
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
    grad_sq = gradient_norm_sq(field)
    row = {
        "t": field.time,
        "mass": mass(field),
        "energy": energy_from_gradient(field, grad_sq),
        "grad_norm": math.sqrt(grad_sq),
        "lp_norm": lp_norm(field, 2.0 * field.sigma + 2.0),
        "edge_density": edge_density(field),
    }
    if envelope is not None:
        row["tau"] = envelope.tau
    return row


def evolve(fields, plan: StepPlan, t_end: float, observers=(), checkpoints=()):
    """March one field, or a batch of them, to t_end, landing exactly on each
    checkpoint (trimmed last steps).

    fields is a WaveField or a sequence of WaveFields sharing grid, model and
    start time (their sigma may differ); all of them take the same steps.
    checkpoints is a sorted sequence of times in (start time, t_end].
    Returns (final field, list of conservation rows), or for a sequence a
    tuple of final fields and a tuple of row lists.  Each observation, at
    the start, at each checkpoint and once at t_end, logs one row per field,
    fires the observers (callables taking the field, or the tuple of fields)
    and trips BlowUpError if any field's mass has drifted by more than
    MASS_DRIFT_TRIP of its own starting value.  Lens models step on
    _lens_schedule_dt from plan.dt and read their envelope at each step's
    midpoint; the other models step at plan.dt.  The fields march as stacked
    rows, at most BATCH_POINTS grid points (and at least one row) per stack.
    """
    single = isinstance(fields, WaveField)
    fields = (fields,) if single else tuple(fields)
    if not fields:
        raise GridError("evolve needs at least one field")
    first = fields[0]
    if any(f.grid != first.grid or f.model is not first.model or f.time != first.time
           for f in fields[1:]):
        raise GridError("batched fields must share grid, model and start time")
    grid = first.grid
    times = [first.time, *map(float, checkpoints)]
    if times[-1] > t_end or any(b <= a for a, b in zip(times, times[1:])):
        raise GridError(f"need field time {first.time} < sorted checkpoints <= "
                        f"t_end {t_end}")
    logs = tuple([] for _ in fields)
    unbatch = (lambda batch: batch[0]) if single else (lambda batch: batch)
    if t_end == first.time:
        return unbatch(fields), unbatch(logs)
    targets = times[1:] if times[-1] == t_end else times[1:] + [t_end]
    env_ats = [_envelope(f.model, f.sigma, grid.dim)[1] for f in fields]
    mass0 = [mass(f) for f in fields]

    def observe(current):
        rows = [conservation_row(f, env_at(f.time) if env_at else None)
                for f, env_at in zip(current, env_ats)]
        for log, row in zip(logs, rows):
            log.append(row)
        for obs in observers:
            obs(unbatch(current))
        for f, row, m0 in zip(current, rows, mass0):
            if abs(row["mass"] - m0) > MASS_DRIFT_TRIP * m0:
                raise BlowUpError(f"mass drift tripwire at t = {f.time:.6g}", time=f.time)

    coefficients = [_coefficients(f.model, f.sigma, grid, plan) for f in fields]
    dt_of = (lambda t: _lens_schedule_dt(t, plan.dt)) if env_ats[0] else (lambda t: plan.dt)
    per_stack = max(1, BATCH_POINTS // math.prod(grid.shape))
    chunks = range(0, len(fields), per_stack)
    observe(fields)
    values, t = np.stack([f.values for f in fields]), first.time
    for target in targets:
        marched = []
        for lo in chunks:
            steps = _step_sizes(t, target, dt_of, 1e-12 * max(1.0, abs(target)))
            rows, t_next = _march(values[lo:lo + per_stack], grid, t, steps,
                                  coefficients[lo:lo + per_stack], plan.scheme)
            marched.append(rows)
        # a fresh stack per segment: the fields observed so far view the old one
        values, t = np.concatenate(marched), t_next
        current = tuple(f.with_values(v, time=t) for f, v in zip(fields, values))
        observe(current)
    return unbatch(current), unbatch(logs)
