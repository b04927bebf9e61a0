"""Envelope ODE tests: first integrals, closed forms, reparametrization."""
import math

import numpy as np
import pytest

from nlslab import envelope
from nlslab import (EnvelopeState, TauEnvelope, first_integral_residual,
                    integrate_r, integrate_tau, tau_difference_bound, time_change_s)
from nlslab.errors import EnvelopeError


def test_initial_data():
    st = integrate_tau(0.1, 1, [0.0])[0]
    assert (st.tau, st.tau_dot) == (1.0, 0.0)
    rt = integrate_r(2.0, [0.0])[0]
    assert (rt.r, rt.r_dot) == (1.0, 0.0)


def test_r2_is_chevron():
    # [PAPER] r_2(t) = <t> = sqrt(1 + t^2)
    for st in integrate_r(2.0, [0.5, 1.0, 2.0, 10.0]):
        assert abs(st.r - math.sqrt(1.0 + st.t**2)) <= 1e-10
    assert integrate_r(2.0, [1.0])[0].r == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_first_integral_preserved():
    for st in integrate_tau(0.1, 1, [1.0, 5.0, 10.0]):
        assert abs(first_integral_residual(st)) <= 1e-11
    for st in integrate_r(0.7, [1.0, 10.0]):
        assert abs(first_integral_residual(st)) <= 1e-11


def test_r_alpha_linear_growth():
    # [PAPER] r_alpha(t) ~ t for every alpha > 0
    for alpha in (0.5, 1.0, 2.0):
        st = integrate_r(alpha, [1000.0])[0]
        assert abs(st.r / st.t - 1.0) <= 0.1


def test_r2_correction_term():
    # [PAPER] w_alpha(t) = t^{1-alpha} / (2 (alpha - 1)) for alpha = 2 at t = 100
    st = integrate_r(2.0, [100.0])[0]
    predicted = 100.0 ** (-1.0) / 2.0
    assert abs((st.r - st.t) - predicted) <= 0.1 * predicted


def test_chevron_state_closed_form():
    # the direct-lens envelope <t> is r_2, the radial family's alpha = 2 member
    times = np.array([0.0, 0.5, 3.0, 10.0])
    taus = envelope.chevron_taus(times)
    assert taus[2] == pytest.approx(math.sqrt(10.0), abs=1e-14)
    assert np.abs(taus - [st.r for st in integrate_r(2.0, times)]).max() <= 1e-10


# ------------------------------------------------------------- time change

def test_time_change_approaches_limit():
    # the limit is reached only as tau^{-a} -> 0, which is logarithmically
    # slow; assert monotone approach from below instead of a tight window
    # [PAPER] s_sigma(infinity) = ln(1/(d sigma)) / (4 (1 - d sigma))
    states = integrate_tau(0.1, 1, [1e1, 1e3, 1e5])
    limit = math.log(1.0 / 0.1) / (4.0 * (1.0 - 0.1))
    gaps = [limit - time_change_s(st) for st in states]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_time_change_chain_rule():
    # [DERIVED] Richardson-extrapolated central difference of s(t) against
    # the analytic ds/dt = tau' a tau^{-a-1} / (4 (1-a) (1 - tau^{-a}))
    sigma, t = 0.1, 2.0
    a = sigma

    def s_of(tq):
        return time_change_s(integrate_tau(sigma, 1, [tq])[0])

    st = integrate_tau(sigma, 1, [t])[0]
    exact = (st.tau_dot * a * st.tau ** (-a - 1.0)
             / (4.0 * (1.0 - a) * (1.0 - st.tau ** (-a))))
    h = 1e-2
    d_h = (s_of(t + h) - s_of(t - h)) / (2.0 * h)
    d_h2 = (s_of(t + h / 2.0) - s_of(t - h / 2.0)) / h
    richardson = (4.0 * d_h2 - d_h) / 3.0
    assert abs(richardson - exact) <= 1e-8


def test_time_change_domain_errors():
    with pytest.raises(EnvelopeError):
        time_change_s(EnvelopeState(t=0.0, tau=1.0, tau_dot=0.0, sigma=0.1, dim=1))
    with pytest.raises(EnvelopeError):
        time_change_s(EnvelopeState(t=1.0, tau=2.0, tau_dot=0.5, sigma=0.0, dim=1))
    with pytest.raises(EnvelopeError):   # d sigma = 1: the closed form divides by 1 - d sigma
        time_change_s(EnvelopeState(t=1.0, tau=2.0, tau_dot=0.5, sigma=0.5, dim=2))


# ------------------------------------------------------------- diff bound

def test_difference_bound_transition_scale():
    # [PAPER] at sigma ~ 1/ln t the two envelopes and the bound are the
    # same order of magnitude
    t = 1000.0
    sigma = 1.0 / math.log(t)
    tau_s = integrate_tau(sigma, 1, [t])[0].tau
    tau_0 = integrate_tau(0.0, 1, [t])[0].tau
    assert 0.1 <= tau_s / tau_0 <= 10.0
    bound = sigma * t * math.log(t + 2.0) ** 1.5
    assert 0.1 <= abs(tau_s - tau_0) / bound <= 10.0 or abs(tau_s - tau_0) <= bound


def test_difference_vanishes_with_sigma():
    # [DERIVED] sup_t |tau_sigma - tau_0| monotone in sigma over a dyadic sweep
    grid = [1.0, 5.0, 20.0, 100.0]
    tau0 = [st.tau for st in integrate_tau(0.0, 1, grid)]
    sups = []
    for sigma in (0.4, 0.2, 0.1, 0.05):
        taus = [st.tau for st in integrate_tau(sigma, 1, grid)]
        sups.append(max(abs(a - b) for a, b in zip(taus, tau0)))
    assert all(b < a for a, b in zip(sups, sups[1:]))


def test_difference_bound_window_validation():
    with pytest.raises(EnvelopeError):
        tau_difference_bound(1.5, 1, 100.0)
    with pytest.raises(EnvelopeError):
        tau_difference_bound(0.0, 1, 100.0)


# ------------------------------------------------------------- evaluator

def test_envelope_queries_in_any_order():
    # the evaluator holds no state: a backward query equals a fresh one,
    # and growing the shared table never changes a value already given
    env = TauEnvelope(0.1, 1)
    late, early = env.state(2.0), env.state(1.0)
    envelope._table.cache_clear()
    fresh = TauEnvelope(0.1, 1)
    assert fresh.state(1.0) == early
    fresh.state(1e6)
    assert fresh.state(2.0) == late
    assert early.tau < late.tau


def test_integrate_grids_validated():
    with pytest.raises(EnvelopeError):
        integrate_tau(0.1, 1, [2.0, 1.0])
    with pytest.raises(EnvelopeError):
        integrate_tau(0.1, 1, [-1.0])
    with pytest.raises(EnvelopeError):
        integrate_r(0.0, [1.0])
    with pytest.raises(EnvelopeError):
        TauEnvelope(-0.1, 1)
    for t in (-1e-3, math.nan, math.inf):
        with pytest.raises(EnvelopeError):
            TauEnvelope(0.1, 1).state(t)


def test_vectorised_reads_equal_scalar_reads():
    # an array read that grows the table (a fresh exponent, sorted times past
    # its reach) equals one-time reads taken afterwards, bit for bit: growing
    # in one read and reading a table already grown give the same values
    times = np.sort(np.random.default_rng(4).uniform(0.0, 300.0, 3000))
    for sigma, dim in ((0.0371, 1), (0.0371, 2), (1.2917, 1), (0.0, 1)):
        env = TauEnvelope(sigma, dim)
        for chunk in np.array_split(times, 6):
            reach = env._table.edges[-1]
            taus = env.taus(chunk)
            if sigma:   # an exponent no other test reads: every chunk grows it
                assert reach <= chunk[-1] < env._table.edges[-1]
            assert np.array_equal(taus, [env.state(t).tau for t in chunk])
    assert np.array_equal(envelope.chevron_taus(times),
                          [math.sqrt(1.0 + t * t) for t in times])
    for bad in (-1e-3, math.nan, math.inf):
        with pytest.raises(EnvelopeError):
            TauEnvelope(0.1, 1).taus(np.array([1.0, bad]))


def test_time_beyond_the_table_raises_envelope_error():
    # past t ~ 1e104 a panel's length cubed overflows: both reads raise the
    # package's error, naming the first time past the table's reach (it grows
    # in query order), and the panels added on the way stay those of a table
    # grown in one go
    a = 0.1
    env = TauEnvelope(a, 1)
    with pytest.raises(EnvelopeError, match="1e[+]200"):
        env.state(1e200)
    with pytest.raises(EnvelopeError, match="1e[+]200"):
        env.taus(np.array([1.0, 1e200]))
    with pytest.raises(EnvelopeError, match="1e[+]200"):
        env.taus(np.array([2.0, 1e200, 4e200]))
    u, _ = envelope._Table(a).at_times(np.array([1e90, 2.0]))
    assert [env.state(t).tau for t in (1e90, 2.0)] == (1.0 + u).tolist()
