"""Split-step propagator tests against closed-form and ODE oracles."""
import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nlslab import (BlowUpError, GridError, Model, NlsLabError, evolve, free_flow,
                    gaussian_state, l2_distance, make_grid, mass,
                    power_ratio)
from nlslab import grid as grid_module
from nlslab.grid import nonlinear_phase
from nlslab import propagators
from nlslab.propagators import _lens_schedule_dt


def _free_gaussian(grid, a, t):
    """Exact free-flow Gaussian: i u_t + (1/2) u_xx = 0 with width-a datum."""
    c = a * a + 1j * t
    pref = (math.pi * a * a) ** -0.25 / np.sqrt(c / (a * a))
    return pref * np.exp(-grid.x**2 / (2.0 * c))


# ------------------------------------------------------------- power_ratio

def test_power_ratio_log_limit():
    rho = np.array([0.3, 1.0, 2.5])
    assert np.allclose(power_ratio(rho, 1e-12), np.log(rho), atol=1e-10)


def test_power_ratio_matches_naive_at_moderate_sigma():
    rho = np.array([0.5, 1.0, 3.0])
    s = 0.7
    assert np.allclose(power_ratio(rho, s), (rho**s - 1.0) / s, rtol=1e-13)


def test_power_ratio_stable_at_small_sigma():
    # the naive form loses ~8 digits here; expm1 keeps full precision.
    # ln(e + eps) = 1 + log1p(eps / e), with eps = 1e-12 the regularisation
    rho = np.array([math.e])
    s = 1e-6
    exact = math.expm1(s * (1.0 + math.log1p(1e-12 / math.e))) / s
    assert abs(power_ratio(rho, s)[0] - exact) <= 1e-14


def test_power_ratio_reaches_the_log_phase_linearly_in_sigma():
    # [DERIVED] with L = ln(rho + eps), expm1(sigma L)/sigma - L = sigma L^2/2 (1 + O(sigma L)),
    # and |sigma L| <= 3e-3 here, so C = 0.51 bounds the gap at every rho, the vacuum
    # included: the sigma > 0 phase and the sigma = 0 row share the one eps = 1e-12
    rho = np.array([0.0, 1e-300, 1e-20, 1e-12, 1.0, 1e3])
    log_row = np.log(rho + 1e-12)
    assert np.array_equal(power_ratio(rho, 0.0), log_row)
    assert np.array_equal(power_ratio(rho, 0.0), nonlinear_phase(Model.RESCALED, 0.0)(rho))
    for s in (1e-12, 1e-8, 1e-4):
        gap = np.abs(power_ratio(rho, s) - log_row)
        assert (gap <= 0.51 * s * (1.0 + log_row**2)).all(), (s, gap)


# ------------------------------------------------------------- free flow

def test_free_flow_matches_closed_form(grid1d):
    # [DERIVED] closed-form free Gaussian oracle
    a, t = 1.0, 2.0
    phi = gaussian_state(grid1d, a, sigma=1.0)
    out = free_flow(phi, t)
    exact = _free_gaussian(grid1d, a, t)
    err = math.sqrt(float(grid1d.integrate(np.abs(out.values - exact) ** 2).real))
    assert err <= 1e-12


def test_free_flow_invertible(grid1d):
    phi = gaussian_state(grid1d, 1.0, phase_slope=0.5)
    back = free_flow(free_flow(phi, 1.7), -1.7)
    assert l2_distance(back, phi) <= 1e-12
    assert back.time == pytest.approx(0.0, abs=1e-15)


def test_zero_field_fixed_point(grid1d):
    from nlslab import WaveField
    zero = WaveField(grid1d, np.zeros(grid1d.shape), 0.0, 1.0, Model.DIRECT)
    [out] = evolve(zero, 1e-3, [1e-3])
    assert mass(out) == 0.0


# ------------------------------------------------------------- direct model

def test_constant_modulus_phase_rotation(grid1d):
    # |u| = 1 plane wave: nonlinear multiplier is identically 1, so one
    # step is the free flow times the global phase e^{-i dt}
    k0 = grid1d.k[3]
    vals = np.exp(1j * k0 * grid1d.x)
    from nlslab import WaveField
    u = WaveField(grid1d, vals, 0.0, 0.7, Model.DIRECT)
    dt = 1e-2
    [out] = evolve(u, dt, [dt])
    expected = free_flow(u, dt).values * np.exp(-1j * dt)
    assert np.abs(out.values - expected).max() <= 1e-13


def test_strang_time_reversible(grid1d, one_step):
    # a backward step undoes a forward one in every model: the lens
    # coefficients of both are frozen at the same midpoint t = 0.505
    for model, sigma in _MODELS.values():
        phi = gaussian_state(grid1d, 1.0, sigma=sigma, model=model).with_tags(time=0.5)
        back = one_step(one_step(phi, 1e-2), -1e-2)
        assert l2_distance(back, phi) <= 1e-13, model


def test_step_model_tag_enforcement(grid1d):
    # the direct model has no sigma = 0 member; the rescaled one's is the log flow
    phi = gaussian_state(grid1d, 1.0, sigma=1.0)
    with pytest.raises(GridError):
        evolve(phi.with_tags(model=Model.DIRECT, sigma=0.0), 1e-3, [1e-3])


def test_log_flow_is_the_rescaled_sigma_zero_row(grid1d):
    # a sigma = 0 rescaled field evolves, alone and in a stack with sigma > 0
    # rows, and each row of the stack is bitwise its own march
    phi = gaussian_state(grid1d, 1.0, sigma=0.0, model=Model.RESCALED)
    fields = [phi, phi.with_tags(sigma=0.3), phi, phi.with_tags(sigma=0.05)]
    _assert_batch_equals_single_runs(fields, 1e-3, (2e-3, 5e-3))


# ------------------------------------------------------------- convergence

def _richardson_ratio(phi, dts, t_end, stepper=None):
    [ref] = evolve(phi, dts[-1] / 8.0, [t_end])
    errs = [l2_distance(evolve(phi, dt, [t_end])[-1], ref) for dt in dts]
    return [a / b for a, b in zip(errs, errs[1:])]


def test_strang_second_order_direct(grid1d):
    phi = gaussian_state(grid1d, 1.0, sigma=1.0, model=Model.DIRECT)
    ratios = _richardson_ratio(phi, [2e-3, 1e-3], 0.5)
    assert all(3.5 <= r <= 4.5 for r in ratios)


# ------------------------------------------------------------- gauge bridge

def test_gauge_equivalence_direct_rescaled(grid1d):
    # sigma^{1/(2 sigma)} u_direct(t) e^{i t / sigma} reproduces the
    # rescaled-model evolution of the scaled datum, substep for substep
    s, t_end = 0.8, 0.2
    phi = gaussian_state(grid1d, 1.0, sigma=s, model=Model.DIRECT)
    [u] = evolve(phi, 1e-3, [t_end])
    scale = s ** (1.0 / (2.0 * s))
    psi0 = phi.with_values(scale * phi.values).with_tags(model=Model.RESCALED)
    [w] = evolve(psi0, 1e-3, [t_end])
    bridged = scale * u.values * np.exp(1j * t_end / s)
    err = math.sqrt(float(grid1d.integrate(np.abs(w.values - bridged) ** 2).real))
    assert err <= 1e-12


def test_rescaled_approaches_log_linearly_in_sigma(grid1d):
    phi = gaussian_state(grid1d, 1.0, sigma=0.0, model=Model.RESCALED)
    dt = 1e-3
    [ref] = evolve(phi, dt, [dt])
    diffs = []
    for s in (1e-3, 1e-4):
        [out] = evolve(phi.with_tags(sigma=s), dt, [dt])
        diffs.append(l2_distance(out, ref))
    assert 8.0 <= diffs[0] / diffs[1] <= 12.0


# ------------------------------------------------------------- log flow

def test_log_model_matches_gaussian_ode_oracle(grid1d):
    # [DERIVED] exact Gaussian reduction of the logarithmic flow:
    # u = exp(P(t) - Q(t) x^2/2) stays Gaussian with
    # P' = -i (2 Re P + Q/2),  Q' = -i (Q^2 + 2 Re Q).
    def rhs(t, y):
        P = y[0] + 1j * y[1]
        Q = y[2] + 1j * y[3]
        dP = -1j * (2.0 * P.real + 0.5 * Q)
        dQ = -1j * (Q * Q + 2.0 * Q.real)
        return [dP.real, dP.imag, dQ.real, dQ.imag]

    P0, Q0 = -0.25 * math.log(math.pi), 1.0
    t_end = 1.0
    sol = solve_ivp(rhs, (0.0, t_end), [P0, 0.0, Q0, 0.0],
                    rtol=1e-12, atol=1e-12)
    P = sol.y[0][-1] + 1j * sol.y[1][-1]
    Q = sol.y[2][-1] + 1j * sol.y[3][-1]
    exact = np.exp(P - 0.5 * Q * grid1d.x**2)

    phi = gaussian_state(grid1d, 1.0, sigma=0.0, model=Model.RESCALED)
    [out] = evolve(phi, 5e-4, [t_end])
    err = math.sqrt(float(grid1d.integrate(np.abs(out.values - exact) ** 2).real))
    assert err <= 1e-6


def test_log_floor_insensitivity(grid1d, monkeypatch):
    # [DERIVED] halving eps_reg perturbs the t = 1 state only through cells
    # with rho at the floor scale (amplitude ~ sqrt(eps)); the measured
    # sensitivity ~7e-8 sits well below the dt = 1e-3 splitting error
    phi = gaussian_state(grid1d, 1.0, sigma=0.0, model=Model.RESCALED)
    monkeypatch.setattr(grid_module, "LOG_REGULARISATION", 1e-12)
    [a] = evolve(phi, 1e-3, [1.0])
    monkeypatch.setattr(grid_module, "LOG_REGULARISATION", 5e-13)
    [b] = evolve(phi, 1e-3, [1.0])
    assert l2_distance(a, b) <= 2e-7


# ------------------------------------------------------------- lens model

def test_lens_frozen_envelope_equals_reference_split(grid1d, frozen_lens_step):
    # tau = 1 frozen: the step must equal a hand-rolled Strang step of the
    # autonomous equation with potential |y|^2/4 + nonlinearity
    s, dt = 0.3, 1e-3
    phi = gaussian_state(grid1d, 1.0, sigma=s, model=Model.RESCALED_LENS)
    out = frozen_lens_step(phi, dt)

    g = grid1d
    def kin(v, w):
        return g.ifft(g.fft(v) * np.exp(-0.5j * w * g.k_sq))
    v = kin(phi.values, 0.5 * dt)
    v = v * np.exp(-1j * dt * (0.25 * g.x**2 + power_ratio(np.abs(v) ** 2, s)))
    v = kin(v, 0.5 * dt)
    assert np.abs(out.values - v).max() <= 1e-14


def test_lens_position_norm_stays_bounded(grid1d):
    # confinement at work: ||y v|| stays O(1) over a long lens run
    from nlslab import position_norm_sq
    phi = gaussian_state(grid1d, 1.0, sigma=0.1, model=Model.RESCALED_LENS)
    y0 = position_norm_sq(phi)
    [final] = evolve(phi, 5e-3, [50.0])
    assert position_norm_sq(final) <= 20.0 * max(y0, 1.0)


# ------------------------------------------------------------- evolve

def test_evolve_rejects_backward_target(grid1d):
    phi = gaussian_state(grid1d, 1.0, sigma=1.0)
    with pytest.raises(GridError):
        evolve(phi, 1e-3, [-1.0])


@pytest.mark.parametrize("checkpoints", [(0.0, 0.5), (0.5, 0.2), (0.5, 0.5), (),
                                         (0.5, math.nan), (0.5, math.inf)],
                         ids=["at-start", "unsorted", "repeated", "empty", "nan", "inf"])
def test_evolve_rejects_bad_checkpoints(grid1d, checkpoints):
    phi = gaussian_state(grid1d, 1.0, sigma=1.0)
    with pytest.raises(GridError):
        evolve(phi, 1e-3, checkpoints)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_evolve_rejects_bad_dt(grid1d, dt):
    # evolve marches forward on finite steps, on fixed and on lens schedules
    phi = gaussian_state(grid1d, 1.0, sigma=1.0)
    with pytest.raises(GridError):
        evolve(phi, dt, [0.01])
    lens = gaussian_state(grid1d, 1.0, sigma=0.3, model=Model.RESCALED_LENS)
    with pytest.raises(GridError):
        evolve(lens, dt, [0.01])


def test_evolve_bounds_its_steps(grid1d, monkeypatch):
    # the steps of one call count over all its segments: MAX_STEPS of them march, and
    # one more is a GridError before the first step, on fixed and on lens schedules
    monkeypatch.setattr(propagators, "MAX_STEPS", 10)
    for phi in (gaussian_state(grid1d, 1.0, sigma=1.0),
                gaussian_state(grid1d, 1.0, sigma=0.3, model=Model.RESCALED_LENS)):
        assert evolve(phi, 1e-3, [0.004, 0.01])[-1].time == pytest.approx(0.01, abs=1e-12)
        with pytest.raises(GridError, match=r"^more than 10 steps of dt = 0\.001 to t = 0\.011;"):
            evolve(phi, 1e-3, [0.004, 0.011])


def test_evolve_trims_final_step(grid1d):
    phi = gaussian_state(grid1d, 1.0, sigma=1.0)
    [out] = evolve(phi, 1e-3, [0.0105])
    assert out.time == pytest.approx(0.0105, abs=1e-12)
    assert abs(mass(out) - mass(phi)) <= 1e-11


def test_evolve_row_cadence(grid1d):
    phi = gaussian_state(grid1d, 1.0, sigma=1.0)
    times = (5e-3, 1e-2, 1.5e-2, 2e-2)
    states = evolve(phi, 1e-3, times)
    assert [f.time for f in states] == pytest.approx(times, abs=1e-15)


# ------------------------------------------------------------- fused core

# the log flow is the rescaled model's sigma = 0 row
_MODELS = {"direct": (Model.DIRECT, 1.0), "rescaled": (Model.RESCALED, 0.5),
           "log": (Model.RESCALED, 0.0), "rescaled-lens": (Model.RESCALED_LENS, 0.3),
           "direct-lens": (Model.DIRECT_LENS, 0.8)}
_LENS = (Model.RESCALED_LENS, Model.DIRECT_LENS)
# every march is Strang; the ids keep the scheme's name
_STRANG_IDS = [f"{label}-strang" for label in _MODELS]


def _chained_steps(one_step, phi, dt_of, targets, tol):
    """Reference: one single-step march per step through the targets.

    Returns the state at each target and every state keyed by its time.
    """
    cur, at_targets, states = phi, [], {}
    for target in targets:
        while cur.time < target - tol:
            cur = one_step(cur, min(dt_of(cur.time), target - cur.time))
            states[cur.time] = cur
        at_targets.append(cur)
    return at_targets, states


def _rel_l2(a, b):
    return float(np.linalg.norm(a.values - b.values) / np.linalg.norm(b.values))


@pytest.mark.parametrize("checkpoints", [(), (3e-3, 6e-3, 9e-3)], ids=["trimmed", "observed"])
@pytest.mark.parametrize("model,sigma", _MODELS.values(), ids=_STRANG_IDS)
def test_evolve_matches_chained_steps(grid1d, one_step, model, sigma, checkpoints):
    # merged Strang half kicks are exact: the fused march equals one
    # single-step march per step up to roundoff, at a trimmed final step and at
    # every checkpoint
    t_end = 0.0105
    phi = gaussian_state(grid1d, 1.0, sigma=sigma, model=model)
    seen = evolve(phi, 1e-3, [*checkpoints, t_end])
    (*_, ref), states = _chained_steps(one_step, phi, lambda t: 1e-3, [*checkpoints, t_end],
                                       1e-12 * max(1.0, t_end))
    out = seen[-1]
    assert out.time == ref.time and _rel_l2(out, ref) <= 1e-12
    for f in seen:
        assert _rel_l2(f, states[f.time]) <= 1e-12


@pytest.mark.parametrize("model,sigma", [m for m in _MODELS.values() if m[0] in _LENS],
                         ids=[m.value for m in _LENS])
def test_lens_trajectory_matches_chained_steps(grid1d, one_step, model, sigma):
    # growing, trimmed steps: the schedule doubles dt0 by t = 4
    dt0, targets = 0.05, (0.3, 2.55, 4.0)
    phi = gaussian_state(grid1d, 1.0, sigma=sigma, model=model)
    snaps = evolve(phi, dt0, targets)
    refs, _ = _chained_steps(one_step, phi, lambda t: _lens_schedule_dt(t, dt0), targets, 1e-12)
    for f, ref, target in zip(snaps, refs, targets):
        assert f.time == ref.time and f.time == pytest.approx(target)
        assert _rel_l2(f, ref) <= 1e-12


@pytest.mark.parametrize("model", [Model.RESCALED, Model.RESCALED_LENS],
                         ids=["evolve", "lens-trajectory"])
def test_non_finite_mid_segment_raises_at_step_time(grid1d, monkeypatch, model):
    real, calls = propagators.nonlinear_phase, []

    def poisoned(m, sigma):  # the fifth step's phase turns non-finite
        phase = real(m, sigma)

        def stepped(rho, out=None):
            calls.append(sigma)
            return phase(rho, out) * (np.nan if len(calls) == 5 else 1.0)
        return stepped

    monkeypatch.setattr(propagators, "nonlinear_phase", poisoned)
    phi = gaussian_state(grid1d, 1.0, sigma=0.3, model=model)
    with pytest.raises(BlowUpError) as err:
        evolve(phi, 1e-3, [0.02])
    assert err.value.time == pytest.approx(5e-3, abs=1e-15)


@pytest.mark.parametrize("model,sigma,dt0,targets", [
    (Model.DIRECT, 1.0, 1e-3, (3e-3, 6.5e-3, 0.0105)),
    (Model.RESCALED_LENS, 0.3, 0.05, (0.3, 2.55, 4.0)),
], ids=["direct", "rescaled-lens"])
def test_checkpoints_equal_chained_evolve(grid1d, model, sigma, dt0, targets):
    # one march through the checkpoints is the chain of single-target
    # evolve calls, bit for bit, on fixed and on growing lens steps
    phi = gaussian_state(grid1d, 1.0, sigma=sigma, model=model)
    snaps = evolve(phi, dt0, targets)
    cur = phi
    for f, target in zip(snaps, targets):
        [cur] = evolve(cur, dt0, [target])
        assert f.time == cur.time and np.array_equal(f.values, cur.values)
    assert len(snaps) == len(targets)


@pytest.mark.parametrize("model", [Model.RESCALED, Model.RESCALED_LENS],
                         ids=["rescaled", "rescaled-lens"])
def test_mass_tripwire_one_rule(grid1d, monkeypatch, model):
    # a slow, finite gain (each step's rotation scaled by 1 + 1e-6, a mass gain
    # of e^{2e-6} per step) trips the same 1e-8 rule on either path, at the first
    # observation past it
    real = propagators.rotation
    monkeypatch.setattr(propagators, "rotation",
                        lambda theta, out, scratch: real(theta, out, scratch) * (1.0 + 1e-6))
    real_mass, seen = propagators.mass, []
    monkeypatch.setattr(propagators, "mass",
                        lambda f: seen.append(f.time) or real_mass(f))
    phi = gaussian_state(grid1d, 1.0, sigma=0.3, model=model)
    with pytest.raises(BlowUpError) as err:
        evolve(phi, 1e-3, (5e-3, 1e-2, 0.02))
    assert err.value.time == pytest.approx(5e-3, abs=1e-15)
    assert seen == [0.0, err.value.time]


# ------------------------------------------------------------- phase rotation

def _cos_sin(theta):
    return np.cos(theta) - 1j * np.sin(theta)


def test_rotation_matches_cos_sin():
    # the one-tan rotation is pinned to cos - i sin: 1e-15 absolute, unit
    # modulus to 2e-15, at the half-angle poles (theta = pi, 3 pi), signed
    # zeros, an angle whose square underflows, a dense sweep to 1e3 and a 2-D stack
    special = np.array([0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 3 * np.pi, 1e-300])
    sweep = np.linspace(-1e3, 1e3, 400_001)
    stack = np.random.default_rng(5).uniform(-60.0, 60.0, (4, 512))
    for theta in (special, sweep, stack):
        e = propagators.rotation(theta.copy(), np.empty(theta.shape, dtype=complex))
        assert e.shape == theta.shape
        assert np.abs(e - _cos_sin(theta)).max() <= 1e-15
        assert np.abs(np.abs(e) ** 2 - 1.0).max() <= 2e-15


def test_rotation_non_finite():
    # NaN and +-inf stay non-finite, so the march's blow-up check sees them
    bad = np.array([np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):
        e = propagators.rotation(bad.copy(), np.empty(bad.shape, dtype=complex))
    assert not np.isfinite(e).any()


@pytest.mark.parametrize("model,sigma", _MODELS.values(), ids=list(_MODELS))
def test_march_never_writes_its_input(grid1d, model, sigma):
    # the march transforms one buffer in place; it must be its own copy, so a
    # writable input stack and a field passed to evolve are left bitwise as they were
    phi = gaussian_state(grid1d, 1.0, sigma=sigma, model=model, phase_slope=0.4)
    stack = np.stack([phi.values, 0.5 * phi.values])
    before = stack.copy()
    coefficients = propagators._coefficients(model, (sigma, sigma), grid1d)
    marched, _ = propagators._march(stack, grid1d, 0.0, [1e-2] * 3, coefficients)
    assert not np.shares_memory(marched, stack)
    assert np.array_equal(stack, before)
    values = phi.values.copy()
    [out] = evolve(phi, 1e-2, [1e-2])
    assert np.array_equal(phi.values, values)
    assert not np.array_equal(out.values, values)


class _AllocationProbe:
    """A march's grid that reads tracemalloc at each transform and resets its
    peak, so each entry of marks closes one stretch of the step loop."""

    def __init__(self, grid):
        self.grid, self.marks = grid, []

    def __getattr__(self, name):
        return getattr(self.grid, name)

    def _mark(self):
        self.marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    def fft(self, values, out=None):
        self._mark()
        return self.grid.fft(values, out=out)

    def ifft(self, values, out=None):
        self._mark()
        return self.grid.ifft(values, out=out)


@pytest.mark.parametrize("grid", [make_grid(1, 512, 30.0), make_grid(2, 32, 8.0)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("model,sigmas", [
    (Model.RESCALED_LENS, (0.1, 0.0, 0.05, 0.0, 0.01)),
    (Model.DIRECT, (0.5, 1.0, 2.0, 0.7)),
], ids=["rescaled-lens", "direct"])
def test_step_allocates_only_the_multiplier_table(grid, model, sigmas):
    # beyond the march's own buffers, which hold its kinetic tables too, a step
    # allocates only O(rows) bytes of scalars and transform bookkeeping, on every
    # model; its nonlinear substep, from an inverse transform to the next forward
    # one, allocates at most half that.  A real array of the stack is 20 or 40 KiB
    # here, and a kinetic table twice that, far above this allowance.
    scalars = 4096 + 256 * len(sigmas)
    stack = np.stack([gaussian_state(grid, 1.0).values] * len(sigmas))
    coefficients = propagators._coefficients(model, sigmas, grid)
    probe = _AllocationProbe(grid)
    tracemalloc.start()
    try:
        propagators._march(stack, probe, 1.0, [1e-3] * 4, coefficients)
    finally:
        tracemalloc.stop()
    # marks: fft, ifft per kick, five kicks; growth over the stretch from mark i
    growth = [peak - start for (start, _), (_, peak) in zip(probe.marks, probe.marks[1:])]
    assert len(growth) == 9 and stack.real.nbytes > scalars
    substeps = growth[1::2]             # ifft -> fft: the nonlinear substeps
    steps = [a + b for a, b in zip(substeps[1:], growth[2::2][1:])]  # after the first
    assert max(substeps) <= scalars, substeps
    assert max(steps) <= 2 * scalars, steps


@pytest.mark.parametrize("grid", [make_grid(1, 256, 20.0), make_grid(2, 32, 8.0)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("model,sigmas", [
    (Model.RESCALED_LENS, (0.0, 0.1, 0.05)),
    (Model.DIRECT, (1.0, 0.8, 1.2)),
], ids=["rescaled-lens", "direct"])
def test_kinetic_windows_never_change_a_state(monkeypatch, grid, model, sigmas):
    # the march builds its kinetic tables a window of runs of equal kicks at a
    # time; a window of one table must give every state bitwise.  Both segments
    # end in a trimmed step, which adds runs, and a lens march has a run per
    # kick, so the windows of 10 (1-D) and 2 (2-D) tables close several times
    monkeypatch.setattr(propagators, "_blocks", lambda rows: 1)
    fields = [gaussian_state(grid, 1.0, sigma=s, model=model) for s in sigmas]
    dt, times = (1e-2, (0.305, 0.6)) if model is Model.RESCALED_LENS else (1e-3, (0.0305, 0.06))
    wide = evolve(fields, dt, times)
    monkeypatch.setattr(propagators, "_WINDOW_BYTES", 1)
    narrow = evolve(fields, dt, times)
    for run, ref in zip(narrow, wide):
        assert [f.time for f in run] == [f.time for f in ref]
        for f, g in zip(run, ref):
            assert np.array_equal(f.values, g.values)


# ------------------------------------------------------------- batched march

_BATCH_SIGMAS = {"direct": (Model.DIRECT, (1.0, 0.8, 1.2)),
                 "rescaled": (Model.RESCALED, (0.5, 0.3, 0.7)),
                 "log": (Model.RESCALED, (0.0, 0.0, 0.0)),
                 "rescaled-lens": (Model.RESCALED_LENS, (0.3, 0.0, 0.1)),
                 "direct-lens": (Model.DIRECT_LENS, (0.8, 0.6, 1.0))}


def _batch(grid, model, sigmas):
    return [gaussian_state(grid, 1.0, sigma=s, model=model) for s in sigmas]


def _assert_batch_equals_single_runs(fields, dt, times):
    runs = evolve(fields, dt, times)
    assert isinstance(runs, tuple) and len(runs) == len(fields)
    for phi, run in zip(fields, runs):
        single = evolve(phi, dt, times)
        assert len(run) == len(single) == len(times)
        for batch_snap, f in zip(run, single):
            assert batch_snap.time == f.time
            assert batch_snap.sigma == f.sigma
            assert np.array_equal(batch_snap.values, f.values)


@pytest.mark.parametrize("model,sigmas", _BATCH_SIGMAS.values(),
                         ids=[f"{label}-strang" for label in _BATCH_SIGMAS])
def test_batched_evolve_equals_per_field_evolve(grid1d, model, sigmas):
    # one stacked march over three sigmas is the three single marches, bit for bit
    fields = _batch(grid1d, model, sigmas)
    _assert_batch_equals_single_runs(fields, 1e-3, (3e-3, 6e-3, 9e-3, 0.0105))


def test_batched_evolve_one_stack_at_8192_points():
    # criterion 7's shape: four direct rows of 8192 points march as one stack,
    # still bitwise the single marches
    grid = make_grid(1, 8192, 960.0)
    fields = _batch(grid, Model.DIRECT, (1.5, 1.52, 1.54, 1.58))
    _assert_batch_equals_single_runs(fields, 1e-2, (2e-2, 5e-2))


def test_batched_evolve_rejects_mismatched_fields(grid1d):
    phi = gaussian_state(grid1d, 1.0, sigma=1.0)
    other_grid = gaussian_state(make_grid(1, 128, 20.0), 1.0, sigma=1.0)
    for bad in ([phi, other_grid], [phi, phi.with_tags(model=Model.RESCALED)],
                [phi, phi.with_tags(time=0.5)], []):
        with pytest.raises(GridError):
            evolve(bad, 1e-3, [1.0])


def test_batched_mass_tripwire_per_row(grid1d, monkeypatch):
    # only the sigma = 0.4 row gains mass; its own tripwire stops the batch
    # at the first checkpoint.  The gain is a column of the whole stack, so the
    # rows march as one block (the split is pinned to one march elsewhere)
    monkeypatch.setattr(propagators, "_blocks", lambda rows: 1)
    real, gain = propagators.rotation, np.array([[1.0], [1.0 + 1e-6], [1.0]])
    monkeypatch.setattr(propagators, "rotation",
                        lambda theta, out, scratch: real(theta, out, scratch) * gain)
    fields = _batch(grid1d, Model.RESCALED, (0.3, 0.4, 0.5))
    with pytest.raises(BlowUpError) as err:
        evolve(fields, 1e-3, (5e-3, 1e-2, 0.02))
    assert err.value.time == pytest.approx(5e-3, abs=1e-15)


def test_batched_snapshots_stay_frozen(grid1d):
    # returned fields view the stack of their segment; later segments must
    # never write into it, so each equals a march that stops at its time
    fields = _batch(grid1d, *_BATCH_SIGMAS["rescaled-lens"])
    times = (2e-3, 5e-3, 0.01)
    runs = evolve(fields, 1e-3, times)
    for k in range(len(times) - 1):
        stopped = evolve(fields, 1e-3, times[:k + 1])
        for run, ref in zip(runs, stopped):
            assert np.array_equal(run[k].values, ref[k].values)


# ------------------------------------------------------------- split across processes

def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _evolve_in_blocks(monkeypatch, blocks, fields, dt, times):
    monkeypatch.setattr(propagators, "_blocks", lambda rows: blocks)
    try:
        return evolve(fields, dt, times)
    finally:
        _assert_no_child_left()


# 5 rows in 2 blocks are rows 0-1 and 2-4, so each sigma = 0 row marches in a
# block of its own kind from its sigma > 0 rows on the rescaled and rescaled-lens
# models; the log rows are all sigma = 0
_SPLIT_SIGMAS = {"direct": (Model.DIRECT, (1.0, 0.8, 1.2, 1.5, 0.9)),
                 "rescaled": (Model.RESCALED, (0.0, 0.0, 0.5, 0.3, 0.7)),
                 "log": (Model.RESCALED, (0.0, 0.0, 0.0, 0.0, 0.0)),
                 "rescaled-lens": (Model.RESCALED_LENS, (0.0, 0.0, 0.3, 0.1, 0.01)),
                 "direct-lens": (Model.DIRECT_LENS, (0.8, 0.6, 1.0, 1.2, 0.7))}


@pytest.mark.parametrize("rows", [3, 5])
@pytest.mark.parametrize("grid", [make_grid(1, 256, 20.0), make_grid(2, 32, 8.0)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("model,sigmas", _SPLIT_SIGMAS.values(), ids=list(_SPLIT_SIGMAS))
def test_split_is_bitwise_the_single_march(monkeypatch, model, sigmas, grid, rows):
    # rows never meet in a march, so 2 or 3 forked blocks give every state of
    # every row bitwise as one block does, at the same times
    fields = _batch(grid, model, sigmas[:rows])
    times = (3e-3, 6.5e-3, 0.0105) if model not in _LENS else (0.05, 0.3, 0.55)
    one = _evolve_in_blocks(monkeypatch, 1, fields, 1e-3, times)
    for blocks in (2, 3):
        split = _evolve_in_blocks(monkeypatch, blocks, fields, 1e-3, times)
        assert len(split) == rows
        for run, ref in zip(split, one):
            assert [f.time for f in run] == [f.time for f in ref]
            for f, g in zip(run, ref):
                assert np.array_equal(f.values, g.values) and f.sigma == g.sigma


def _poisoned_phase(monkeypatch, sigma, call, fault):
    """At the `call`-th step of each block that holds the row of `sigma`, the
    phase calls fault(theta, row), row the mask of that row in the block."""
    real = propagators.nonlinear_phase

    def poisoned(m, sigmas):
        phase, calls, row = real(m, sigmas), [], sigmas[:, 0] == sigma

        def stepped(rho, out=None):
            theta = phase(rho, out)
            calls.append(1)
            if len(calls) == call and row.any():
                fault(theta, row)
            return theta
        return stepped

    monkeypatch.setattr(propagators, "nonlinear_phase", poisoned)


def test_split_raises_a_childs_blow_up_as_one_march(grid1d, monkeypatch):
    # the sigma = 0.5 row turns non-finite at the fifth step; in 2 or 3 blocks it
    # marches in a child, whose BlowUpError reaches the caller with the time and
    # message of the one-block run
    def nan(theta, row):
        theta[row] = np.nan
    _poisoned_phase(monkeypatch, 0.5, 5, nan)
    fields = _batch(grid1d, Model.RESCALED, (0.3, 0.4, 0.5))
    raised = []
    for blocks in (1, 2, 3):
        with pytest.raises(BlowUpError) as err:
            _evolve_in_blocks(monkeypatch, blocks, fields, 1e-3, (2e-3, 0.01, 0.02))
        raised.append((err.value.time, str(err.value)))
    assert raised[0][0] == pytest.approx(5e-3, abs=1e-15)
    assert raised[1:] == raised[:1] * 2


def test_split_raises_a_childs_other_error_with_its_type(grid1d, monkeypatch):
    parent = os.getpid()

    def fail(theta, row):
        raise ZeroDivisionError(f"raised in process {os.getpid()}")
    _poisoned_phase(monkeypatch, 0.5, 3, fail)
    fields = _batch(grid1d, Model.DIRECT, (1.0, 0.8, 0.5))
    with pytest.raises(ZeroDivisionError) as err:
        _evolve_in_blocks(monkeypatch, 2, fields, 1e-3, (2e-3, 0.01))
    assert str(err.value) != f"raised in process {parent}"


def test_split_raises_one_line_for_a_child_that_dies(grid1d, monkeypatch):
    # a child that ends before it reports (here os._exit, as from a kill or an
    # out-of-memory end) is an NlsLabError of one line naming its block and wait
    # status, not an EOFError, and it is reaped
    parent, real = os.getpid(), propagators._march_block

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)
    monkeypatch.setattr(propagators, "_march_block", dies_in_a_child)
    fields = _batch(grid1d, Model.DIRECT, (1.0, 0.8, 0.5))
    with pytest.raises(NlsLabError) as err:
        _evolve_in_blocks(monkeypatch, 3, fields, 1e-3, (2e-3, 0.01))
    assert str(err.value) == "evolve's block 2 of 3 ended before it reported (wait status 768)"


def test_split_marches_a_block_here_when_its_fork_fails(grid1d, monkeypatch):
    # with no process to spare, os.fork raises; that block marches in this
    # process, so the states are bitwise the one-block run's, and the pipe opened
    # for the child is closed (the open descriptors are the same after the call)
    fields = _batch(grid1d, Model.RESCALED, (0.0, 0.3, 0.5))
    times = (2e-3, 0.01)
    one = _evolve_in_blocks(monkeypatch, 1, fields, 1e-3, times)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    for _ in range(3):
        split = _evolve_in_blocks(monkeypatch, 2, fields, 1e-3, times)
        for run, ref in zip(split, one):
            assert [f.time for f in run] == [f.time for f in ref]
            assert all(np.array_equal(f.values, g.values) for f, g in zip(run, ref))
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds


class _Interrupt(BaseException):
    """Stands in for KeyboardInterrupt, which no march catches."""


def test_split_kills_its_children_when_interrupted(grid1d, monkeypatch):
    # this process's block is interrupted while the child's block stalls: evolve
    # unwinds at once, and the child is killed and reaped, not waited for
    def interrupt(theta, row):
        raise _Interrupt

    def stall(theta, row):
        time.sleep(60)
    _poisoned_phase(monkeypatch, 1.0, 2, interrupt)
    _poisoned_phase(monkeypatch, 0.5, 2, stall)
    fields = _batch(grid1d, Model.DIRECT, (1.0, 0.8, 0.5))
    start = time.monotonic()
    with pytest.raises(_Interrupt):
        _evolve_in_blocks(monkeypatch, 2, fields, 1e-3, (2e-3, 0.01))
    assert time.monotonic() - start < 30


def test_blocks_one_per_cpu_and_row(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert [propagators._blocks(rows) for rows in (1, 2, 4)] == [1, 2, 3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert propagators._blocks(4) == 1


def test_blocks_one_without_fork_or_with_a_second_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert propagators._blocks(4) == 2
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert propagators._blocks(4) == 1
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    monkeypatch.delattr(os, "fork")
    assert propagators._blocks(4) == 1
