"""Dispersive envelope ODEs, evaluated through their first integrals.

    tau'' = 1 / (2 tau^{a+1}),   tau(0) = 1, tau'(0) = 0,   a = d * sigma,
    (tau')^2 = (1 - tau^{-a}) / a = g(tau),   g(s) = -expm1(-a ln s) / a

(g(s) = ln s at a = 0).  The radial family r'' = alpha / (2 r^{alpha+1}),
(r')^2 = 1 - r^{-alpha}, is r_alpha(t) = tau_{a=alpha}(sqrt(alpha) t), so
one evaluator serves both.  With tau = 1 + w^2,

    t(tau) = int_0^{sqrt(tau - 1)} 2 w / sqrt(g(1 + w^2)) dw,

whose integrand is smooth and equals 2 at w = 0.  t(tau) is tabulated once
per exponent by Gauss-Legendre on panels graded in w, only as far as the
queries reach; a query inverts it by quintic Hermite interpolation of
tau - 1 in t, with the exact tau' = sqrt(g(tau)) and tau'' = 1/(2 tau^{a+1})
at the panel edges.  tau' between edges is the quintic's derivative, so
the first-integral residual measures the interpolation (about 1e-13)
rather than vanishing by construction.  Queries hold no state and may
come in any order; every read, of one time or many, is one vectorised
lookup that gives tau and tau' together.
"""
from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

from .errors import EnvelopeError

# panel edges w_k = _PANEL_SCALE sinh(k _PANEL_STEP): uniform near w = 0, geometric
# beyond; for a <= _MAX_EXPONENT, tau and tau' are within 2e-13 relative of the ODE and
# the first-integral residual within 2e-12 of its scale min(1, 1/a) (it grows as step^5)
_PANEL_SCALE = 0.05
_PANEL_STEP = 0.0075
# tau' turns within w ~ a^{-1/2}, which the first panels stop resolving as a grows: at 8
# exponents and 16 times a decade (t = 1e-3..1e6), the scaled residual first passes 2e-12
# at a = 750 and is O(1) by a = 3e8; 50 is 11 times below the last exponent passed (560)
_MAX_EXPONENT = 50.0
# 3-point Gauss-Legendre (exact to degree 5): the integrand's singularities
# lie within |w| <= sqrt(2), far from every panel relative to its width, so
# this matches an 8-point rule to 2e-16
_GAUSS = ((-math.sqrt(0.6), 5.0 / 9.0), (0.0, 8.0 / 9.0), (math.sqrt(0.6), 5.0 / 9.0))


@dataclass(frozen=True)
class EnvelopeState:
    """One (t, tau, tau', sigma, d) sample of the tau family."""

    t: float
    tau: float
    tau_dot: float
    sigma: float
    dim: int

    @property
    def alpha(self) -> float:
        return self.dim * self.sigma


@dataclass(frozen=True)
class RadialState:
    """One (t, r, r') sample of the r_alpha family."""

    t: float
    r: float
    r_dot: float
    alpha: float


def first_integral_residual(state) -> float:
    """Residual of the conserved first integral (tau')^2 - g(tau)."""
    if isinstance(state, RadialState):  # (r')^2 = alpha g(r) with a = alpha
        return state.r_dot**2 - state.alpha * _speed_sq(state.alpha, state.r - 1.0)
    return state.tau_dot**2 - _speed_sq(state.alpha, state.tau - 1.0)


def _speed_sq(a: float, u: float) -> float:
    """(tau')^2 = (1 - tau^{-a}) / a at tau = 1 + u, stably; ln(tau) at a = 0."""
    log_tau = math.log1p(u)
    return log_tau if a == 0.0 else -math.expm1(-a * log_tau) / a


class _Table:
    """tau_a - 1 as a piecewise quintic in t, one piece per w-panel.

    The panel edges do not depend on how far the table reaches, so
    growing it never changes a value it has already given.
    """

    def __init__(self, a: float):
        self.a = a
        self.edges = array("d", [0.0])   # t at each panel edge
        self.coef = array("d")           # per panel: tau - 1 in powers of t - edge
        self._last = (0.0, 0.0, 0.5)     # (tau - 1, tau', tau'') at the last edge

    def _grow(self, t: float) -> None:
        """Append panels until the last edge passes t.  Past t ~ 1e104 a panel's
        length cubed overflows, and the table stops growing (EnvelopeError)."""
        a, k = self.a, len(self.edges) - 1
        w0 = _PANEL_SCALE * math.sinh(k * _PANEL_STEP)
        while self.edges[-1] <= t:
            u0, v0, s0 = self._last
            k += 1
            w1 = _PANEL_SCALE * math.sinh(k * _PANEL_STEP)
            mid, half = 0.5 * (w1 + w0), 0.5 * (w1 - w0)
            h = 0.0   # the panel's share of t: int 2 w / tau'(1 + w^2) dw
            for x, wt in _GAUSS:
                w = mid + half * x
                h += wt * half * 2.0 * w / math.sqrt(_speed_sq(a, w * w))
            u1 = w1 * w1
            v1, s1 = math.sqrt(_speed_sq(a, u1)), 0.5 * (1.0 + u1) ** -(a + 1.0)
            # quintic through (u, u', u'') at both ends, in powers of t - edge
            c2 = 0.5 * s0
            try:
                p = (u1 - (u0 + h * (v0 + h * c2))) / h**3
            except OverflowError:
                raise EnvelopeError(f"envelope time {t:g} is beyond its table's reach") from None
            q = (v1 - (v0 + 2.0 * h * c2)) / h**2
            r = (s1 - s0) / h
            self.coef.extend((u0, v0, c2, 10.0 * p - 4.0 * q + 0.5 * r,
                              (-15.0 * p + 7.0 * q - r) / h,
                              (6.0 * p - 3.0 * q + 0.5 * r) / h**2))
            self.edges.append(self.edges[-1] + h)
            w0, self._last = w1, (u1, v1, s1)

    def at_times(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(tau - 1, tau') at each of the times, tau' as the quintic's derivative."""
        # numpy is imported on use: this is the package's first module, and loading
        # numpy here, before experiments.py is compiled, raises peak RSS by about 1 MB
        import numpy as np
        times = np.asarray(times, dtype=float)
        valid = (times >= 0.0) & (times < math.inf)
        if not valid.all():
            raise EnvelopeError(f"envelope time must be finite and >= 0, got "
                                f"{times[~valid][0]}")
        # grown in query order, so that an unreachable read names the first such time
        for t in times[times >= self.edges[-1]].tolist():
            if t >= self.edges[-1]:
                self._grow(t)
        # buffer views, released on return so that the table can grow again
        edges = np.frombuffer(self.edges)
        i = np.searchsorted(edges, times, side="right") - 1
        x = times - edges[i]
        c0, c1, c2, c3, c4, c5 = np.frombuffer(self.coef).reshape(-1, 6)[i].T
        return (c0 + x * (c1 + x * (c2 + x * (c3 + x * (c4 + x * c5)))),
                c1 + x * (2.0 * c2 + x * (3.0 * c3 + x * (4.0 * c4 + x * 5.0 * c5))))


@functools.lru_cache(maxsize=32)
def _table(a: float) -> _Table:
    """The shared table of exponent a (47 kB to t = 10^2, 82 kB to t = 10^6)."""
    return _Table(a)


class TauEnvelope:
    """Evaluator for tau_sigma at any t >= 0, in any order."""

    def __init__(self, sigma: float, dim: int):
        if sigma < 0:
            raise EnvelopeError(f"sigma must be >= 0, got {sigma}")
        self.sigma = float(sigma)
        self.dim = int(dim)
        if self.dim * self.sigma > _MAX_EXPONENT:
            raise EnvelopeError(f"d sigma = {self.dim * self.sigma:g} is beyond the envelope "
                                f"table's reach, d sigma <= {_MAX_EXPONENT:g}")
        self._table = _table(self.dim * self.sigma)

    def state(self, t: float) -> EnvelopeState:
        return self._states([t])[0]

    def _states(self, times) -> list[EnvelopeState]:
        u, slope = self._table.at_times(times)
        return [EnvelopeState(t=t, tau=1.0 + a, tau_dot=b, sigma=self.sigma, dim=self.dim)
                for t, a, b in zip(times, u.tolist(), slope.tolist())]

    def taus(self, times: np.ndarray) -> np.ndarray:
        """tau_sigma at each of the times: the read lens steps make."""
        return 1.0 + self._table.at_times(times)[0]


def chevron_taus(times: np.ndarray) -> np.ndarray:
    """<t> = sqrt(1 + t^2) at each of the times: the closed-form envelope of the
    direct-lens model."""
    import numpy as np  # on use, as in _Table.at_times
    return np.sqrt(1.0 + times * times)


def _sorted_grid(t_grid) -> list[float]:
    t_grid = [float(t) for t in t_grid]
    if any(t < 0 for t in t_grid) or any(b < a for a, b in zip(t_grid, t_grid[1:])):
        raise EnvelopeError("t_grid must be sorted and nonnegative")
    return t_grid


def integrate_tau(sigma: float, dim: int, t_grid) -> list[EnvelopeState]:
    """Sample the tau_sigma trajectory on a sorted nonnegative time grid."""
    return TauEnvelope(sigma, dim)._states(_sorted_grid(t_grid))


def integrate_r(alpha: float, t_grid) -> list[RadialState]:
    """Sample the r_alpha trajectory, r_alpha(t) = tau_{a=alpha}(sqrt(alpha) t)."""
    if not alpha > 0:
        raise EnvelopeError(f"alpha must be positive, got {alpha}")
    grid, root = _sorted_grid(t_grid), math.sqrt(alpha)
    states = TauEnvelope(alpha, 1)._states([root * t for t in grid])
    return [RadialState(t=t, r=st.tau, r_dot=root * st.tau_dot, alpha=alpha)
            for t, st in zip(grid, states)]


def time_change_s(state: EnvelopeState) -> float:
    """Compactified time s_sigma(t) = ln g(tau) / (4 (1 - a)), g the table's stable _speed_sq."""
    a = state.alpha
    if not state.sigma > 0:
        raise EnvelopeError("time change defined for sigma > 0")
    if a == 1.0:
        raise EnvelopeError("s_sigma(t) divides by 1 - d sigma: undefined at d sigma = 1")
    if state.t <= 0 or state.tau <= 1.0:
        raise EnvelopeError("s_sigma(t) is defined for t > 0 only")
    return math.log(_speed_sq(a, state.tau - 1.0)) / (4.0 * (1.0 - a))


def tau_difference_bound(sigma: float, dim: int, t_max: float) -> float:
    """sup_t |tau_sigma - tau_0| / (sigma t ln(t+2)^{3/2}) up to t_max, scanned
    at 40 log-spaced times per decade from t = 1e-2."""
    if not (0 < sigma < 1.0 / dim):
        raise EnvelopeError(f"sigma must lie in (0, 1/d), got {sigma}")
    n = max(2, int(40 * math.log10(max(t_max / 1e-2, 10.0))))
    grid = [1e-2 * (t_max / 1e-2) ** (i / (n - 1)) for i in range(n)]
    tau_s = integrate_tau(sigma, dim, grid)
    tau_0 = integrate_tau(0.0, dim, grid)
    return max(abs(s.tau - z.tau) / (sigma * s.t * math.log(s.t + 2.0) ** 1.5)
               for s, z in zip(tau_s, tau_0))
