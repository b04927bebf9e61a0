"""Acceptance criteria: one test per criterion, one verdict line each.

Each test records a PASS/FAIL line (printed in the terminal summary)
before asserting, so the ledger is complete even when a criterion fails.
Tolerances and windows follow the build contract; where an asymptotic
statement is unreachable at desk scale the test asserts the agreed
surrogate (monotone approach / saturation) and reports the raw numbers.
"""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nlslab import (Density, Model, PROFILE_DILATION,
                    TauEnvelope, cazenave_haraux_gap, density_from_field,
                    direct_gradient_norm_sq, energy, evolve, extract_asymptotic,
                    first_integral_residual, gaussian_gamma, gaussian_state,
                    free_conjugate, integrate_r, integrate_tau, l2_distance,
                    make_grid, mass, pseudo_energy, scattering_map, sigma_norm,
                    sobolev_norm, tau_difference_bound, w1_1d, w2_1d)
from nlslab.propagators import _coefficients, _lens_schedule_dt, _march


def _record(log, number, name, ok, detail):
    log.append(f"{'PASS' if ok else 'FAIL'}  criterion {number:2d} ({name}): {detail}")
    return ok


def _l2_drifts(vals):
    scale = max(abs(vals[0]), 1e-30)
    return max(abs(v - vals[0]) for v in vals) / scale


# ---------------------------------------------------------------- 1

def test_criterion_1_conservation(acceptance_log, frozen_lens_step):
    grid = make_grid(1, 256, 20.0)
    dt = 1e-3
    drifts = {}
    for tag, sigma, model in (("direct", 1.0, Model.DIRECT),
                              ("rescaled", 0.5, Model.RESCALED),
                              ("log", 0.0, Model.RESCALED)):
        phi = gaussian_state(grid, 1.0, sigma=sigma, model=model)
        states = [phi, *evolve(phi, dt, [0.5 * k for k in range(1, 21)])]
        drifts[tag] = (_l2_drifts([mass(f) for f in states]),
                       _l2_drifts([energy(f) for f in states]))
    # lens conservation is checked on the frozen-envelope (autonomous)
    # equation, whose energy is exactly conserved by the continuum flow
    phi = gaussian_state(grid, 1.0, sigma=0.3, model=Model.RESCALED_LENS)
    cur, m0, e0 = phi, mass(phi), energy(phi)
    worst_m = worst_e = 0.0
    for i in range(10000):
        cur = frozen_lens_step(cur, 1e-3)
        if (i + 1) % 500 == 0:
            worst_m = max(worst_m, abs(mass(cur) - m0) / m0)
            worst_e = max(worst_e, abs(energy(cur) - e0) / abs(e0))
    drifts["lens"] = (worst_m, worst_e)
    ok = all(m <= 1e-10 and e <= 1e-6 for m, e in drifts.values())
    detail = ", ".join(f"{k}: mass {m:.1e} energy {e:.1e}"
                       for k, (m, e) in drifts.items())
    assert _record(acceptance_log, 1, "conservation", ok, detail)


# ---------------------------------------------------------------- 2

def test_criterion_2_splitting_order(acceptance_log):
    grid = make_grid(1, 256, 20.0)
    # the log flow is the rescaled model's sigma = 0 row
    specs = (("direct", Model.DIRECT, 1.0), ("rescaled", Model.RESCALED, 0.5),
             ("log", Model.RESCALED, 0.0), ("rescaled-lens", Model.RESCALED_LENS, 0.3),
             ("direct-lens", Model.DIRECT_LENS, 0.8))
    ratios = {}
    for tag, model, sigma in specs:
        phi = gaussian_state(grid, 1.0, sigma=sigma, model=model)
        [ref] = evolve(phi, 1.25e-4, [1.0])
        errs = [l2_distance(evolve(phi, dt, [1.0])[-1], ref)
                for dt in (4e-3, 2e-3, 1e-3)]
        ratios[tag] = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(3.5 <= r <= 4.5 for rs in ratios.values() for r in rs)
    detail = ", ".join(f"{k}: {['%.2f' % r for r in v]}" for k, v in ratios.items())
    assert _record(acceptance_log, 2, "splitting order", ok, detail)


# ---------------------------------------------------------------- 3

def test_criterion_3_pointwise_inequality(acceptance_log, rng):
    n = 10**6
    def sample():
        return (10.0 ** rng.uniform(-8.0, 4.0, n)
                * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)))
    z1, z2 = sample(), sample()
    gap = cazenave_haraux_gap(z1, z2) - 1e-14 * (np.abs(z1) + np.abs(z2)) ** 2
    violations = int((gap > 0).sum())
    ok = violations == 0
    assert _record(acceptance_log, 3, "log-nonlinearity inequality", ok,
                   f"{violations} violations in 1e6 pairs "
                   f"(max slack-adjusted gap {gap.max():.2e})")


# ---------------------------------------------------------------- 4

def test_criterion_4_ode_first_integrals(acceptance_log):
    probes = [1.0, 1e2, 1e3, 1e4, 1e5, 1e6]
    worst_res = 0.0
    monotone = True
    for sigma in (0.1, 0.01):
        states = integrate_tau(sigma, 1, probes)
        worst_res = max(worst_res, max(abs(first_integral_residual(s)) for s in states))
        gaps = [abs(s.tau * math.sqrt(sigma) / s.t - 1.0) for s in states[-3:]]
        monotone &= all(b < a for a, b in zip(gaps, gaps[1:]))
    # the residual checks only that the interpolant is consistent with
    # the first integral it was built from, so tau and tau' are also
    # checked against an independent DOP853 run of the second-order ODE
    oracle_times = [1.0, 10.0, 100.0, 1000.0]
    worst_ode = 0.0
    for sigma in (0.1, 0.01, 0.0):
        ref = solve_ivp(lambda t, y: (y[1], 0.5 * y[0] ** -(sigma + 1.0)),
                        (0.0, oracle_times[-1]), (1.0, 0.0), method="DOP853",
                        rtol=1e-13, atol=1e-13, t_eval=oracle_times)
        for s, tau, tau_dot in zip(integrate_tau(sigma, 1, oracle_times), *ref.y):
            worst_ode = max(worst_ode, abs(s.tau / tau - 1.0), abs(s.tau_dot / tau_dot - 1.0))
    r_states = integrate_r(2.0, probes)
    worst_r = max(abs(s.r - math.sqrt(1.0 + s.t**2)) / s.r for s in r_states)
    tau0 = integrate_tau(0.0, 1, [1e6])[0].tau
    log_ratio = tau0 / (1e6 * math.sqrt(math.log(1e6)))
    ok = (worst_res <= 1e-10 and worst_ode <= 1e-10 and worst_r <= 1e-10 and monotone
          and 0.9 <= log_ratio <= 1.1)
    assert _record(acceptance_log, 4, "envelope first integrals", ok,
                   f"residual {worst_res:.1e}, ODE oracle gap {worst_ode:.1e}, "
                   f"chevron gap {worst_r:.1e}, "
                   f"tau_sigma sqrt(sigma)/t monotone -> 1: {monotone}, "
                   f"tau_0/(t sqrt(ln t)) = {log_ratio:.4f}")


# ---------------------------------------------------------------- 5

def test_criterion_5_tau_difference_bound(acceptance_log):
    drifts = {}
    for sigma in (0.1, 0.01, 0.001):
        half = tau_difference_bound(sigma, 1, 5e3)
        full = tau_difference_bound(sigma, 1, 1e4)
        drifts[sigma] = abs(full / half - 1.0)
    ok = max(drifts.values()) <= 0.2
    assert _record(acceptance_log, 5, "tau-difference bound", ok,
                   "sup-ratio drift under t-doubling " +
                   ", ".join(f"sigma={s:g}: {d:.2%}" for s, d in drifts.items()))


# ---------------------------------------------------------------- 6

def _sup_l2_trace(grid, base, nus, dt, times):
    phi = gaussian_state(grid, 1.0, sigma=base, model=Model.DIRECT)
    ref, *runs = evolve([phi, *(phi.with_tags(sigma=nu) for nu in nus)], dt, times)
    sups = [max(l2_distance(a, b) for a, b in zip(run, ref)) for run in runs]
    gaps = [abs(nu - base) for nu in nus]
    theta = float(np.polyfit(np.log(gaps), np.log(sups), 1)[0])
    return sups, theta


def test_criterion_6_local_continuity(acceptance_log):
    grid = make_grid(1, 256, 20.0)
    dt = 2e-3
    times = (0.5, 1.0, 2.0)
    results = {}
    for base in (0.8, 0.3):
        nus = [base + off for off in (0.01, 0.02, 0.04)]
        sups, theta = _sup_l2_trace(grid, base, nus, dt, times)
        mono = all(a < b for a, b in zip(sups, sups[1:]))
        results[base] = (theta, mono)
    ok = (0.9 <= results[0.8][0] <= 1.1 and results[0.8][1]
          and 0.0 < results[0.3][0] <= 1.1 and results[0.3][1])
    assert _record(acceptance_log, 6, "local sigma-continuity", ok,
                   ", ".join(f"sigma={b:g}: theta_hat={t:.3f} monotone={m}"
                             for b, (t, m) in results.items()))


# ---------------------------------------------------------------- 7

def test_criterion_7_global_interaction_picture(acceptance_log):
    sigma = 1.5
    # sup-in-t saturation needs a wrap-free box out to t = 256
    grid = make_grid(1, 8192, 960.0)
    phi = gaussian_state(grid, 1.0, sigma=sigma, amplitude=0.5)
    nus = [sigma + off for off in (0.02, 0.04, 0.08)]
    times = [2.0 * 2**j for j in range(8)]
    # sup over t of the Sigma and L2 norms of the interaction-picture differences
    ref, *runs = ([free_conjugate(f) for f in run]
                  for run in evolve([phi.with_tags(sigma=s) for s in (sigma, *nus)], 1e-2, times))
    sups, sat = [], 0.0
    for run in runs:
        sups.append(max(sigma_norm(p.with_values(p.values - q.values)) for p, q in zip(run, ref)))
        l2s = [l2_distance(p, q) for p, q in zip(run, ref)]
        sup_prev, sup_full = max(l2s[:-1]), max(l2s)
        sat = max(sat, abs(sup_full - sup_prev) / sup_full)
    gaps = [abs(nu - sigma) for nu in nus]
    theta = float(np.polyfit(np.log(gaps), np.log(np.maximum(sups, 1e-300)), 1)[0])

    # scattering extraction at sigma = 1.5 and the long-range negative control
    g2 = make_grid(1, 2048, 160.0)
    u_minus = gaussian_state(g2, 1.0, sigma=sigma, amplitude=0.7)
    state, _ = scattering_map(u_minus, sigma, 5e-3, 4.0)
    hist = state.residual_history
    decays = sum(b < a for a, b in zip(hist, hist[1:]))

    control = gaussian_state(g2, 1.0, sigma=0.8, amplitude=0.7)
    traj = evolve(control, 5e-3, (4.0, 8.0, 16.0, 32.0))
    stalled = not extract_asymptotic(traj).converged

    ok = (0.8 <= theta <= 1.2 and sat <= 0.05
          and state.converged and decays >= 2 and stalled)
    assert _record(acceptance_log, 7, "global interaction picture", ok,
                   f"theta_hat={theta:.3f}, sup saturation {sat:.2%}, "
                   f"short-range residuals {['%.2e' % h for h in hist]}, "
                   f"long-range stall detected: {stalled}")


# ---------------------------------------------------------------- 8

def test_criterion_8_uniform_w1(acceptance_log):
    base = 0.8
    grid = make_grid(1, 512, 30.0)
    times = [2.0**j for j in range(11)]   # dyadic t <= 1024

    nus = (0.76, 0.78, 0.82, 0.84)
    phis = [gaussian_state(grid, 1.0, sigma=s, model=Model.DIRECT_LENS) for s in (base, *nus)]
    ref, *runs = ([density_from_field(f) for f in run] for run in evolve(phis, 1e-3, times))
    by_gap = {}
    creep = 0.0
    for nu, run in zip(nus, runs):
        ws = [w1_1d(a, b) for a, b in zip(run, ref)]
        by_gap.setdefault(round(abs(nu - base), 12), []).append(max(ws))
        creep = max(creep, (max(ws) - max(ws[:-1])) / max(ws))
    gaps = sorted(by_gap)
    means = [float(np.mean(by_gap[g])) for g in gaps]
    mono = all(a < b for a, b in zip(means, means[1:]))
    ok = mono and creep <= 0.05
    assert _record(acceptance_log, 8, "uniform-in-time W1", ok,
                   "mean sup_t W1 by gap " +
                   ", ".join(f"{g:g}: {m:.2e}" for g, m in zip(gaps, means)) +
                   f"; sup creep over final octave {creep:.2%}")


# ---------------------------------------------------------------- 9

def test_criterion_9_weighted_pseudo_energy(acceptance_log):
    # the three sigma march as one stack, one step per _march call with the
    # coefficients built once; each row is bitwise the step of its own field
    grid = make_grid(1, 512, 30.0)
    sigmas = (0.02, 0.05, 0.1)
    phis = [gaussian_state(grid, 1.0, sigma=s, model=Model.RESCALED_LENS) for s in sigmas]
    envs = [TauEnvelope(s, 1) for s in sigmas]
    coefficients = _coefficients(Model.RESCALED_LENS, sigmas, grid)

    def weighted_energies(values, t):
        """(tau^sigma, pseudo-energy) of each row at time t."""
        for phi, env_src, v in zip(phis, envs, values):
            env = env_src.state(t)
            yield env.tau ** phi.sigma, pseudo_energy(phi.with_values(v, time=t), env)

    values, t = np.stack([phi.values for phi in phis]), 0.0
    weighted_prev = [w * pe.total for w, pe in weighted_energies(values, t)]
    comp_max = [0.0] * len(sigmas)
    worst_step = -math.inf
    while t < 1e3 - 1e-9:
        dt = min(_lens_schedule_dt(t, 1e-3), 1e3 - t)
        values, t = _march(values, grid, t, [dt], coefficients)
        for i, (w, pe) in enumerate(weighted_energies(values, t)):
            weighted = w * pe.total
            worst_step = max(worst_step, weighted - weighted_prev[i])
            weighted_prev[i] = weighted
            components = pe.kinetic + pe.confinement + pe.nonlinear_plus + pe.nonlinear_minus
            comp_max[i] = max(comp_max[i], w * components)
    bound_ok = all(c <= 100.0 for c in comp_max)   # one uniform constant per run
    details = [f"sigma={s:g}: max weighted components {c:.3g}" for s, c in zip(sigmas, comp_max)]
    ok = worst_step <= 1e-8 and bound_ok
    assert _record(acceptance_log, 9, "weighted pseudo-energy", ok,
                   f"worst per-step increase {worst_step:.2e} (tol 1e-8); "
                   + "; ".join(details))


# ---------------------------------------------------------------- 10

def test_criterion_10_log_limit_local(acceptance_log):
    grid = make_grid(1, 256, 20.0)
    dt = 1e-3
    times = (1.0, 2.0, 4.0)
    # the log flow is the sigma = 0 row of the rescaled stack
    phi0 = gaussian_state(grid, 1.0, sigma=0.0, model=Model.RESCALED)
    sigmas = (0.05, 0.02, 0.01)
    ref, *runs = evolve([phi0, *(phi0.with_tags(sigma=s) for s in sigmas)], dt, times)
    c0s, rate = [], []
    for sigma, run in zip(sigmas, runs):
        sups, cur_sup = [], 0.0
        for a, b in zip(run, ref):
            cur_sup = max(cur_sup, l2_distance(a, b))
            sups.append(cur_sup)
        c0s.append(float(np.polyfit(times, np.log(sups), 1)[0]))
        rate.append(sups[-1] / sigma)
    mid = float(np.median(c0s))
    ok = (all(abs(c - mid) <= 0.2 * abs(mid) for c in c0s)
          and max(rate) <= 3.0 * min(rate))
    assert _record(acceptance_log, 10, "logarithmic limit rate", ok,
                   f"fitted C0 {['%.3f' % c for c in c0s]} (spread about the "
                   f"median {max(abs(c - mid) for c in c0s) / abs(mid):.1%}), "
                   f"sup/sigma in [{min(rate):.2f}, {max(rate):.2f}]")


# ---------------------------------------------------------------- 11

def test_criterion_11_gaussian_profile(acceptance_log):
    grid = make_grid(1, 512, 30.0)
    phi = gaussian_state(grid, 3.0, sigma=0.0, model=Model.RESCALED_LENS)
    targets = [10.0, 1e2, 1e3, 2e3, 4e3, 1e4]
    fields = evolve(phi, 1e-3, targets)
    envelope = TauEnvelope(0.0, 1)
    snap = [(f, envelope.state(f.time)) for f in fields]
    gamma = gaussian_gamma(grid)
    decades = {10.0, 1e2, 1e3, 1e4}
    ws = [(t, w1_1d(density_from_field(f), gamma, dilation=PROFILE_DILATION))
          for (f, env), t in zip(snap, targets) if t in decades]
    decreasing = all(b < a for (_, a), (_, b) in zip(ws, ws[1:]))
    a_fit = float(np.mean([w * math.sqrt(math.log(t)) for t, w in ws]))
    resid = max(abs(w - a_fit / math.sqrt(math.log(t))) / w for t, w in ws)
    tail = [direct_gradient_norm_sq(f, env) / math.log(t)
            for (f, env), t in zip(snap, targets) if t >= 1e3]
    mid = float(np.median(tail))
    stable = all(abs(r - mid) <= 0.25 * abs(mid) for r in tail)
    ok = decreasing and resid <= 0.25 and stable
    assert _record(acceptance_log, 11, "universal Gaussian profile", ok,
                   f"W1 to profile {['%.3e' % w for _, w in ws]} decreasing={decreasing}, "
                   f"1/sqrt(ln t) fit residual {resid:.2f}, "
                   f"H1^2/ln t last decade {['%.3f' % r for r in tail]}")


# ---------------------------------------------------------------- 12

def test_criterion_12_log_limit_global(acceptance_log):
    grid = make_grid(1, 512, 30.0)
    times = [2.0**j for j in range(8)]

    sigmas = (0.1, 0.05, 0.02, 0.01)
    phis = [gaussian_state(grid, 1.0, sigma=s, model=Model.RESCALED_LENS) for s in (0.0, *sigmas)]
    ref, *runs = ([density_from_field(f) for f in run] for run in evolve(phis, 1e-3, times))
    sups = [(sigma, max(w1_1d(a, b) for a, b in zip(run, ref)))
            for sigma, run in zip(sigmas, runs)]
    mono = all(b < a for (_, a), (_, b) in zip(sups, sups[1:]))
    # the 1/sqrt(ln ln(1/sigma)) rate is reported, never asserted: it is
    # out of quantitative reach at desk scale
    rates = [w * math.sqrt(math.log(math.log(1.0 / s))) if math.log(1.0 / s) > 1
             else float("nan") for s, w in sups]
    assert _record(acceptance_log, 12, "global logarithmic limit", mono,
                   "sup_t W1 by sigma " +
                   ", ".join(f"{s:g}: {w:.3e}" for s, w in sups) +
                   f" (reported sup*sqrt(ln ln(1/sigma)): {['%.3g' % r for r in rates]})")


# ---------------------------------------------------------------- 13

def test_criterion_13_metrics(acceptance_log, rng):
    fine = make_grid(1, 2**17, 12.0)
    f = Density.normalize(fine, np.exp(-(fine.x - 0.3) ** 2 / 2.0))
    g = Density.normalize(fine, np.exp(-(fine.x + 0.5) ** 2 / (2.0 * 0.49)))
    closed_err = abs(w2_1d(f, g) - math.sqrt(0.8**2 + 0.3**2))

    grid = make_grid(1, 256, 20.0)
    def mixture():
        vals = np.zeros(grid.shape)
        for _ in range(rng.integers(1, 4)):
            m, s = rng.uniform(-4.0, 4.0), rng.uniform(0.5, 2.0)
            vals += rng.uniform(0.2, 1.0) * np.exp(-(grid.x - m) ** 2 / (2.0 * s * s))
        return Density.normalize(grid, vals)

    axioms = True
    for _ in range(20):
        a, b, c = mixture(), mixture(), mixture()
        for metric in (w1_1d, w2_1d):
            axioms &= abs(metric(a, b) - metric(b, a)) <= 1e-10
            axioms &= metric(a, a) <= 1e-12
            axioms &= metric(a, c) <= metric(a, b) + metric(b, c) + 1e-10

    shift = 0.37
    equivariant = abs(
        w1_1d(Density.normalize(grid, np.exp(-grid.x**2 / 2.0)),
              Density.normalize(grid, np.exp(-(grid.x - shift) ** 2 / 2.0)))
        - shift) <= grid.spacing

    worst = 0.0
    for _ in range(100):
        a, b = mixture(), mixture()
        w1 = w1_1d(a, b)
        if w1 > 1e-14:
            hneg = sobolev_norm(a.values - b.values, -1.1, grid=grid)
            worst = max(worst, hneg / math.sqrt(w1))
    ok = closed_err <= 1e-8 and axioms and equivariant and worst <= 1.0
    assert _record(acceptance_log, 13, "transport metrics", ok,
                   f"Gaussian W2 closed-form error {closed_err:.1e}, axioms={axioms}, "
                   f"translation equivariant={equivariant}, "
                   f"negative-Sobolev/sqrt(W1) sup ratio {worst:.3f} (C = 1)")
