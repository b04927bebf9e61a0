"""Periodic spectral grids, wave fields, densities, and conserved quantities.

The computational box is [-L, L)^d with N points per axis and spacing
h = 2L/N.  All integrals use the rectangle rule, which is spectrally
accurate for smooth periodic integrands on this lattice.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import BlowUpError, GridError, NormalizationError, ResolutionError


class Model(Enum):
    """Which evolution equation a field belongs to."""

    DIRECT = "direct"                  # i u_t + (1/2) Lap u = |u|^{2 sigma} u
    RESCALED = "rescaled"              # ((|u|^2 + eps)^sigma - 1) u / sigma; log flow at 0
    RESCALED_LENS = "rescaled-lens"    # rescaled family in lens variables (tau_sigma envelope)
    DIRECT_LENS = "direct-lens"        # direct equation in lens variables (sqrt(1+t^2) envelope)

    @property
    def direct(self) -> bool:
        """The power nonlinearity |u|^{2 sigma} u, not the rescaled family."""
        return self in (Model.DIRECT, Model.DIRECT_LENS)

    @property
    def lens(self) -> bool:
        """Posed in lens variables under an envelope."""
        return self in (Model.RESCALED_LENS, Model.DIRECT_LENS)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice with matched physical and frequency axes."""

    dim: int
    n: int
    half_length: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        n = self.n
        if n < 8 or (n & (n - 1)) != 0:
            raise GridError(f"N must be a power of two >= 8, got {n}")
        if not (self.half_length > 0):
            raise GridError(f"half-length must be positive, got {self.half_length}")
        # the largest |k|^2, d (pi N / (2 L))^2, formed as k_sq forms it
        k_max = np.pi / self.half_length * (n // 2)
        if not np.isfinite(self.dim * k_max * k_max):
            raise GridError(f"half-length {self.half_length!r} too small for N = {n}: "
                            f"the largest |k|^2 overflows")
        if not np.isfinite(self.dim * self.half_length * self.half_length):
            raise GridError(f"half-length {self.half_length!r} too large: the largest "
                            f"|x|^2 overflows")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def shape(self):
        return (self.n,) * self.dim

    @cached_property
    def x(self) -> np.ndarray:
        """Physical axis, x_j = -L + j h."""
        return _frozen(-self.half_length + self.spacing * np.arange(self.n))

    @cached_property
    def k(self) -> np.ndarray:
        """Frequency axis (pi/L) * m for m in {-N/2..N/2-1}, FFT ordering."""
        m = np.fft.fftfreq(self.n, d=1.0 / self.n)
        return _frozen((np.pi / self.half_length) * m)

    @cached_property
    def coords(self):
        """Per-axis coordinate meshes (broadcastable)."""
        if self.dim == 1:
            return (self.x,)
        return tuple(np.meshgrid(self.x, self.x, indexing="ij", sparse=True))

    @cached_property
    def radius_sq(self) -> np.ndarray:
        r2 = sum(c**2 for c in self.coords)
        return _frozen(np.broadcast_to(r2, self.shape).copy())

    @cached_property
    def k_sq(self) -> np.ndarray:
        if self.dim == 1:
            return _frozen(self.k**2)
        kx, ky = np.meshgrid(self.k, self.k, indexing="ij", sparse=True)
        return _frozen(np.broadcast_to(kx**2 + ky**2, self.shape).copy())

    @cached_property
    def _k_sq_folded(self):
        """(k_sq on the first N/2 + 1 indices of each axis, flattened; the index of
        each grid point's value in it).  k_sq is even in each wavenumber, bitwise,
        so those indices hold every value it takes.  The index stays writeable:
        np.take copies a read-only index on every call."""
        half, j = self.n // 2 + 1, np.arange(self.n)
        fold = np.minimum(j, self.n - j)
        values = self.k_sq[(slice(0, half),) * self.dim].ravel()
        index = fold if self.dim == 1 else fold[:, None] * half + fold
        return _frozen(values), index

    def kinetic_multiplier(self, weights, out=None, folded=None) -> np.ndarray:
        """exp(-i w |k|^2 / 2) for each weight w, stacked as (len(weights), *shape),
        into out (a C-contiguous complex array of that shape) when it is given.

        rotation, the one e^{-i theta} kernel, forms it into folded on the
        F = (N/2 + 1)^dim values that |k|^2 takes, and np.take carries them back to
        the grid.  So each table is bitwise rotation on the full |k|^2 grid, and
        within 1e-15 of the complex exp for angles w |k|^2 / 2 up to 1e6.  folded is
        a complex (m, F) array for some m >= len(weights) (new without it).  The
        three real temporaries of the folded values fit in out (3 F <= 2 N^dim for
        N >= 8), which the take writes last, so with out and folded the call
        allocates no array."""
        values, index = self._k_sq_folded
        m, size = len(weights), values.size
        if out is None:
            out = np.empty((m,) + self.shape, dtype=np.complex128)
        folded = np.empty((m, size), dtype=np.complex128) if folded is None else folded[:m]
        theta, w, scratch = out.reshape(-1).view(np.float64)[:3 * m * size].reshape(3, m, size)
        # full rows before they multiply: numpy buffers a broadcast operand
        np.copyto(w, np.reshape(weights, (m, 1)))
        np.copyto(theta, values)
        theta *= w
        theta *= 0.5
        rotation(theta, folded, (w, scratch))
        # mode="wrap" writes into out directly, where "raise" buffers it
        return np.take(folded, index, axis=1, out=out, mode="wrap")

    def integrate(self, values: np.ndarray) -> float | complex:
        return self.cell_volume * values.sum()

    # fftn's per-axis bookkeeping costs a tenth of a 1-D transform at N = 2048.
    # out may be values itself: the transform then runs in place, bitwise the same.
    def fft(self, values: np.ndarray, out=None) -> np.ndarray:
        return np.fft.fft(values, out=out) if self.dim == 1 else np.fft.fft2(values, out=out)

    def ifft(self, values: np.ndarray, out=None) -> np.ndarray:
        if self.dim == 1:
            return np.fft.ifft(values, out=out)
        # numpy 2.4's ifft2 drops out; ifftn over the same two axes is the same transform
        return np.fft.ifftn(values, axes=(-2, -1), out=out)

    def gradient(self, values: np.ndarray):
        """Spectral gradient, one array per axis."""
        vhat = self.fft(values)
        if self.dim == 1:
            return (self.ifft(1j * self.k * vhat),)
        kx, ky = np.meshgrid(self.k, self.k, indexing="ij", sparse=True)
        return (self.ifft(1j * kx * vhat), self.ifft(1j * ky * vhat))


def make_grid(dim: int, n: int, half_length: float) -> Grid:
    """Build a periodic grid; rejects non-integral or non-power-of-two N and
    unsupported dim."""
    if not float(n).is_integer():
        raise GridError(f"N must be an integer, got {n}")
    return Grid(dim=dim, n=int(n), half_length=float(half_length))


@dataclass(frozen=True)
class WaveField:
    """Complex state on a grid, stamped with time and model parameters."""

    grid: Grid
    values: np.ndarray
    time: float
    sigma: float
    model: Model

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise GridError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(v.real.sum()) or not np.isfinite(v.imag.sum()):
            raise BlowUpError("non-finite field values", time=self.time)
        if self.sigma < 0:
            raise GridError(f"sigma must be >= 0, got {self.sigma}")
        object.__setattr__(self, "values", _frozen(v))

    def with_values(self, values, time=None) -> "WaveField":
        return WaveField(self.grid, values, self.time if time is None else time,
                         self.sigma, self.model)

    def with_tags(self, sigma=None, model=None, time=None) -> "WaveField":
        return WaveField(self.grid, self.values,
                         self.time if time is None else time,
                         self.sigma if sigma is None else sigma,
                         self.model if model is None else model)


def gaussian_state(grid: Grid, width: float, center=0.0, phase_slope=0.0,
                   sigma: float = 1.0, model: Model = Model.DIRECT,
                   amplitude: float = 1.0) -> WaveField:
    """L2-normalized Gaussian exp(-|x-c|^2/(2 a^2) + i p.x), optionally rescaled.

    `amplitude` multiplies the normalized profile (mass = amplitude^2).
    """
    if not width > 0:
        raise GridError(f"width must be positive, got {width}")
    if width < 2.0 * grid.spacing:
        raise ResolutionError(
            f"width {width} under-resolved on spacing {grid.spacing}: "
            "fewer than 8 points sample the bump")
    center = np.broadcast_to(np.atleast_1d(np.asarray(center, dtype=float)), (grid.dim,))
    slope = np.broadcast_to(np.atleast_1d(np.asarray(phase_slope, dtype=float)), (grid.dim,))
    if np.any(np.abs(center) >= grid.half_length):
        raise GridError("center outside box")
    margin = grid.half_length - np.abs(center).max()
    if margin < 5.3 * width:  # exp(-5.3^2 / 2) < 1e-6: the edge amplitude against the peak's
        raise ResolutionError(f"width {width:g} too wide for the box: its center is {margin:g} "
                              f"from the edge, under 5.3 widths (1e-6 of its peak there)")
    arg = np.zeros(grid.shape, dtype=np.complex128)
    for c, p, mesh in zip(center, slope, grid.coords):
        arg = arg - (mesh - c) ** 2 / (2.0 * width**2) + 1j * p * mesh
    values = np.exp(arg)
    norm = np.sqrt(grid.integrate(np.abs(values) ** 2).real)
    values *= amplitude / norm
    return WaveField(grid, values, time=0.0, sigma=sigma, model=model)


def mass(field: WaveField) -> float:
    """h^d sum |u|^2, conserved by every model's flow."""
    return float(field.grid.integrate(np.abs(field.values) ** 2).real)


def gradient_norm_sq(field: WaveField) -> float:
    """Spectral ||grad u||_{L2}^2 via Parseval."""
    g = field.grid
    uhat = g.fft(field.values)
    w = g.cell_volume / g.n**g.dim
    return float(w * (g.k_sq * np.abs(uhat) ** 2).sum())

def position_norm_sq(field: WaveField) -> float:
    """|| x u ||_{L2}^2 with grid-weighted coordinates."""
    g = field.grid
    return float(g.integrate(g.radius_sq * np.abs(field.values) ** 2).real)


def l2_distance(a: WaveField, b: WaveField) -> float:
    return float(np.sqrt(a.grid.integrate(np.abs(a.values - b.values) ** 2).real))


# eps of the rescaled family at every sigma, ln(rho + eps) at 0 (Bao, Carles, Su & Tang,
# SIAM J. Numer. Anal. 57 (2019)), so each row tends to the sigma = 0 row as sigma -> 0
LOG_REGULARISATION = 1e-12


def power_ratio(rho: np.ndarray, sigma, out=None) -> np.ndarray:
    """V_eps(rho) = ((rho + eps)^sigma - 1)/sigma as expm1(sigma ln(rho + eps))/sigma, which
    keeps the digits the naive form cancels at small sigma; ln(rho + eps) at the float
    sigma = 0.  sigma may also be an array of positive sigmas that broadcasts against rho.
    Each pass writes into out when it is given (it may be rho itself), bitwise the same."""
    logr = np.log(np.add(rho, LOG_REGULARISATION, out=out), out=out)
    if np.ndim(sigma) == 0 and sigma == 0.0:
        return logr
    return np.divide(np.expm1(np.multiply(sigma, logr, out=out), out=out), sigma, out=out)


def rotation(theta: np.ndarray, out: np.ndarray, scratch=(None, None)) -> np.ndarray:
    """e^{-i theta} for a real theta into the complex array out, from t = tan(theta/2)
    alone: cos theta = 1 - 2 t^2/(1 + t^2) and sin theta = 2 t/(1 + t^2).  theta is
    overwritten, and so is scratch, two real arrays of theta's shape that take
    t^2 and 1 + t^2 (without them, these are new arrays).  It forms both the
    nonlinear substep's phase factor and the kinetic multiplier.

    numpy 2.4 takes a vectorised path for float64 tan and the scalar libm for cos
    and sin (about 10 against 30-50 us for 2,560 values on a Xeon).  Written
    as 1 minus a small term, the real part keeps the rounding of cos at the small
    angles of a step.  The parts are written into the real and imaginary parts of
    out, since a real-to-complex cast would allocate a complex buffer of up to
    128 KiB per call."""
    t = np.tan(np.multiply(theta, 0.5, out=theta), out=theta)
    sq = np.multiply(t, t, out=scratch[0])
    w = np.add(sq, 1.0, out=scratch[1])
    np.divide(-2.0, w, out=w)   # -2/(1 + t^2)
    t *= w                      # -sin theta
    sq *= w
    sq += 1.0                   # cos theta
    np.copyto(out.real, sq)
    np.copyto(out.imag, t)
    return out


def nonlinear_phase(model: Model, sigma):
    """The model's pointwise potential rho = |u|^2 -> V(rho), one per Model, called
    as phase(rho, out=None): V goes into out (which may be rho itself) or, without
    one, into a new array, and is returned.

    sigma is a float, or one sigma per row of a stacked rho (rows, *shape) as an
    array that broadcasts against it, (rows, 1, ...) or (rows, *shape), constant
    along each row; each row's V is then bitwise the V of its own float sigma.  At
    full shape, sigma spares numpy the buffer it takes for a broadcast operand of
    a stack of fewer than 8,192 points."""
    column = np.asarray(sigma, dtype=float)
    per_row = column.reshape(len(column), -1)[:, 0].tolist() if column.ndim else [float(column)]
    # one call per run of adjacent rows, each a view of rho and of out: the direct
    # family's runs share a sigma, whose float exponent keeps numpy's square and
    # sqrt paths; the rescaled family's runs share a branch of power_ratio
    direct = model.direct
    key = per_row if direct else [s == 0.0 for s in per_row]
    edges = [0, *(r for r in range(1, len(key)) if key[r] != key[r - 1]), len(key)]
    runs = [(slice(a, b) if column.ndim else ..., per_row[a]) for a, b in zip(edges, edges[1:])]
    if not direct:  # a sigma > 0 run passes its column, a sigma = 0 run the float 0.0
        runs = [(rows, column[rows] if s else 0.0) for rows, s in runs]
    apply = np.power if direct else power_ratio

    def phase(rho, out=None):
        out = np.empty_like(rho) if out is None else out
        for rows, s in runs:
            apply(rho[rows], s, out=out[rows])
        return out
    return phase


def _potential_density(rho: np.ndarray, sigma: float, model: Model) -> np.ndarray:
    """Potential-energy integrand G(rho), G(0) = 0, with G' the phase V exactly; for the
    rescaled family ((rho + eps) V(rho) - eps V(0) - rho) / (s + 1), no 1/s cancellation."""
    if model.direct:
        return rho ** (sigma + 1.0) / (sigma + 1.0)
    e = LOG_REGULARISATION
    return ((rho + e) * power_ratio(rho, sigma) - e * power_ratio(0.0, sigma) - rho) / (sigma + 1)


def energy(field: WaveField) -> float:
    """Conserved energy of the field's model (lens models: frozen tau = 1).

    Kinetic part is spectral; the potential part is quadrature of the
    antiderivative of the nonlinear multiplier, fixed so the vacuum has
    zero energy.
    """
    g = field.grid
    rho = np.abs(field.values) ** 2
    kin = 0.5 * gradient_norm_sq(field)
    pot = float(g.integrate(_potential_density(rho, field.sigma, field.model)).real)
    if field.model.lens:
        return kin + (0.5 if field.model.direct else 0.25) * position_norm_sq(field) + pot
    return kin + pot


@dataclass(frozen=True)
class Density:
    """Nonnegative grid function integrating to one."""

    grid: Grid
    values: np.ndarray
    raw_integral: float  # measured integral before renormalization

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(np.asarray(self.values, dtype=float)))

    @classmethod
    def normalize(cls, grid: Grid, values: np.ndarray) -> "Density":
        values = np.asarray(values, dtype=float)
        if values.min() < -1e-12:
            raise NormalizationError(f"negative density values (min {values.min():.3e})")
        values = np.clip(values, 0.0, None)
        total = float(grid.integrate(values))
        if total <= 0:
            raise NormalizationError("cannot normalize a zero density")
        return cls(grid, values / total, raw_integral=total)

    def integral(self) -> float:
        return float(self.grid.integrate(self.values))
