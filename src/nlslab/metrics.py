"""Distances and norms: 1D-exact Wasserstein, homogeneous Sobolev norms,
and the Gaussian reference profile.

W_p in one dimension is computed exactly for piecewise-linear CDFs by
integrating the quantile difference over the merged breakpoint set:
|Q_f - Q_g| is piecewise linear there, so each segment integrates in
closed form (O(N log N) total).
"""
from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass

from .errors import GridError, NormalizationError
from .grid import Density, Grid, WaveField

NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True)
class QuantileRep:
    """Piecewise-linear inverse CDF: CDF values at cell edges + edge coordinates."""

    probabilities: np.ndarray
    values: np.ndarray

    @classmethod
    def from_density(cls, f: Density) -> "QuantileRep":
        if f.grid.dim != 1:
            raise GridError("quantile representation is one-dimensional")
        h = f.grid.spacing
        masses = h * f.values
        probs = np.concatenate(([0.0], np.cumsum(masses)))
        probs /= probs[-1]
        edges = f.grid.x[0] - 0.5 * h + h * np.arange(f.grid.n + 1)
        return cls(*_compact(probs, edges))


def _compact(probs: np.ndarray, values: np.ndarray):
    """Drop breakpoints interior to (near-)flat CDF runs, steps <= 1e-14.

    Underflowing tail cells produce cumulative steps down to ~1e-300,
    which poison the later interpolation with near-zero divisions.  Both
    endpoints of each flat run are kept (they carry the quantile jump);
    residual sub-1e-14 gaps between kept points are snapped to exact
    duplicates.  The mass moved is far below every quoted tolerance.
    """
    d = np.diff(probs)
    big = d > 1e-14
    keep = np.empty(probs.shape, dtype=bool)
    keep[0] = keep[-1] = True
    keep[1:-1] = big[:-1] | big[1:]
    p, v = probs[keep].copy(), values[keep]
    small = np.nonzero(np.diff(p) <= 1e-14)[0]
    for i in small:
        p[i] = p[i + 1]
    return p, v


def _wp_pair(qf: QuantileRep, qg: QuantileRep):
    """Exact (W1, W2) between two piecewise-linear quantile functions.

    Segment endpoints are reconstructed from two interior quarter-points:
    evaluating at breakpoints is ambiguous where a CDF is flat (the
    quantile jumps), while the interior of each merged segment is always
    a single linear piece.
    """
    p = np.union1d(qf.probabilities, qg.probabilities)
    dp_all = np.diff(p)
    live = dp_all > 1e-13   # skip segments carrying negligible mass
    lo, dp = p[:-1][live], dp_all[live]

    def diff_at(frac):
        q = lo + frac * dp
        return (np.interp(q, qf.probabilities, qf.values)
                - np.interp(q, qg.probabilities, qg.values))

    d_lo, d_hi = diff_at(0.25), diff_at(0.75)
    da = 0.5 * (3.0 * d_lo - d_hi)
    db = 0.5 * (3.0 * d_hi - d_lo)
    w2_sq = float(np.sum(dp * (da * da + da * db + db * db) / 3.0))
    same_sign = da * db >= 0.0
    seg = np.where(same_sign,
                   0.5 * (np.abs(da) + np.abs(db)),
                   (da * da + db * db) / np.maximum(2.0 * (np.abs(da) + np.abs(db)), 1e-300))
    w1 = float(np.sum(dp * seg))
    return w1, math.sqrt(max(w2_sq, 0.0))


def _quantiles(f: Density, g: Density) -> tuple[QuantileRep, QuantileRep]:
    """Quantile functions of two normalized one-dimensional densities."""
    for d in (f, g):
        if d.grid.dim != 1:
            raise GridError("Wasserstein distances need one-dimensional densities")
        if abs(d.integral() - 1.0) > NORMALIZATION_TOL:
            raise NormalizationError(f"input integrates to {d.integral()}, not 1")
    return QuantileRep.from_density(f), QuantileRep.from_density(g)


def w1_1d(f: Density, g: Density, dilation: float = 1.0) -> float:
    """Exact 1D Kantorovich-Rubinstein distance via quantile functions, between
    the mass-preserving dilation c^d f(c y) of f (c = dilation) and g.

    The dilated measure's quantile function is Q_f / c, so no resampling
    (and no wrap-around) is involved; at c = 1 the division is exact.
    """
    if not dilation > 0:
        raise GridError(f"dilation must be positive, got {dilation}")
    qf, qg = _quantiles(f, g)
    w1, _ = _wp_pair(QuantileRep(qf.probabilities, qf.values / dilation), qg)
    return w1


def w2_1d(f: Density, g: Density) -> float:
    """Exact 1D quadratic Wasserstein distance; checks W1 <= W2 on every call."""
    w1, w2 = _wp_pair(*_quantiles(f, g))
    if w1 > w2 + 1e-12:
        raise AssertionError(f"W1 = {w1} exceeds W2 = {w2}")
    return w2


def sobolev_norm(field, s: float, grid: Grid | None = None) -> float:
    """Homogeneous Sobolev norm (h^d sum |k|^{2s} |u_hat|^2)^{1/2}.

    Negative s is only defined for mean-zero inputs (differences of
    equal-mass densities): the k = 0 term is infinite in the continuum,
    so it is dropped and inputs whose mean exceeds 1e-8 of their L2 norm
    (or 1e-8 outright, below unit norm) are rejected.
    """
    if isinstance(field, WaveField):
        grid, values = field.grid, field.values
    else:
        if grid is None:
            raise GridError("raw-array input needs an explicit grid")
        values = np.asarray(field)
    if not -2.0 <= s <= 2.0:
        raise GridError(f"s must lie in [-2, 2], got {s}")
    vhat = grid.fft(values)
    w = grid.cell_volume / grid.n**grid.dim
    k_sq = grid.k_sq
    if s < 0:
        mean = abs(grid.integrate(values))
        scale = math.sqrt(float(w * (np.abs(vhat) ** 2).sum())) + 1e-300
        if mean > 1e-8 * max(scale, 1.0):
            raise NormalizationError(
                f"negative-order norm needs a mean-zero input (mean {mean:.3e})")
        weight = np.where(k_sq > 0, k_sq, 1.0) ** s
        weight = np.where(k_sq > 0, weight, 0.0)
    else:
        weight = k_sq**s if s > 0 else np.ones_like(k_sq)
    return math.sqrt(float(w * (weight * np.abs(vhat) ** 2).sum()))


def gaussian_gamma(grid: Grid) -> Density:
    """The universal profile e^{-|y|^2} / pi^{d/2} as a normalized grid density."""
    if grid.half_length < 6.0 / math.sqrt(2.0):
        raise GridError(
            f"box half-length {grid.half_length} holds fewer than six "
            "standard deviations of the reference Gaussian")
    vals = np.exp(-grid.radius_sq) / math.pi ** (grid.dim / 2.0)
    return Density.normalize(grid, vals)
