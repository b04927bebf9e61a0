"""Strang split-step propagators for the four model equations.

Each step alternates the exact linear flow (a Fourier multiplier) with
the exact nonlinear flow (a pointwise phase rotation, since the local
modulus is invariant), so mass is conserved to roundoff per substep.
Non-autonomous coefficients of the lens models are frozen at the
interval midpoint, which preserves second order.
"""
from __future__ import annotations

import functools
import itertools
import math
import mmap
import os
import pickle
import threading

import numpy as np

from .envelope import TauEnvelope, chevron_taus
from .errors import BlowUpError, EnvelopeError, GridError, NlsLabError
from .grid import Model, WaveField, mass, nonlinear_phase, rotation

MASS_DRIFT_TRIP = 1e-8
# the steps one evolve call may take: 19x the longest default march (52,008 steps, in
# gaussian-profile and sobolev-growth); a list of that many step sizes holds at most 32 MB
MAX_STEPS = 10**6
LENS_DT_CAP = 0.25
# the kinetic tables a march holds at once: two of a 2 x 2048 stack
_WINDOW_BYTES = 128 * 1024


def _coefficients(model: Model, sigmas, grid):
    """(phase, schedule) of a stack of `model` rows, one sigma per row.

    phase(rho, out) maps the stacked rho = |u|^2 to the stacked potential V; it
    holds sigma at full shape, which keeps numpy's broadcast buffers out of it.
    schedule(times, dts) gives, for the steps of length dts starting at times,
    (kappa, nl, harm): each row's kinetic weight as a (steps, rows) array and,
    for lens models, the weights of V and of |y|^2 in the potential
    nl V + harm |y|^2 as (steps, rows, 1, ...) arrays (None otherwise).  Lens
    models freeze them at the envelope's tau at each step midpoint; the
    envelope is read once per row for all the steps.
    """
    for s in sigmas if model is Model.DIRECT else ():
        if not s > 0:
            raise GridError(f"direct model needs sigma > 0 (the log flow is the rescaled "
                            f"model at sigma = 0), got {s}")
    column = (len(sigmas),) + (1,) * grid.dim
    sigma_rows = np.reshape(np.array(sigmas, dtype=float), column)
    phase = nonlinear_phase(model, np.broadcast_to(sigma_rows, column[:1] + grid.shape).copy())
    if not model.lens:
        return phase, lambda times, dts: (np.ones((len(dts), len(sigmas))), None, None)
    readers = [chevron_taus if model.direct else TauEnvelope(s, grid.dim).taus for s in sigmas]

    def schedule(times, dts):
        mids = np.array(times) + 0.5 * np.array(dts)
        kappa, nl, harm = [], [], []
        for read, s in zip(readers, sigmas):
            taus = read(mids).tolist()
            if any(tau <= 0 for tau in taus):
                raise EnvelopeError(f"envelope tau must be positive, got {min(taus)}")
            a = grid.dim * s
            # scalar powers: numpy's vectorised power rounds some of these
            # differently, which moves the CSV bytes of the lens experiments
            row_nl = np.array([tau ** (-a) for tau in taus])
            row_sq = np.array([tau**2 for tau in taus])
            kappa.append(1.0 / row_sq)
            nl.append(row_nl)
            # direct-lens: i v_t + Lap v/(2<t>^2) = |y|^2 v/(2<t>^2) + <t>^{-d sigma} |v|^{2s} v
            harm.append(0.5 / row_sq if model.direct else 0.25 * row_nl)
        shape = (len(dts),) + column
        return (np.array(kappa).T, np.array(nl).T.reshape(shape),
                np.array(harm).T.reshape(shape))
    return phase, schedule


def _lens_schedule_dt(t: float, dt0: float) -> float:
    """Growing step for lens runs: the stepped coefficients decay in tau,
    so the local splitting error shrinks and dt may grow ~ t."""
    return min(max(dt0, dt0 * 0.5 * t), LENS_DT_CAP)


def _step_sizes(t: float, t_end: float, dt_of, tol: float):
    """Steps dt_of(t) > 0 (evolve checks dt) from t to t_end, the last trimmed."""
    while t < t_end - tol:
        dt = min(dt_of(t), t_end - t)
        yield dt
        t += dt


def _march(values: np.ndarray, grid, t: float, dts, coefficients, out=None):
    """Strang-split the stacked rows `values` (rows, *grid.shape) from time t
    through the steps dts; returns (values, t) at the end.

    coefficients is the stack's (phase, schedule) from _coefficients.  Adjacent
    half kicks commute, so each pair is applied as one multiplier: two FFTs per
    step for the whole stack, with the full state formed only at the segment
    end.  Each pointwise operation is one pass over the stack.  The march copies
    values once, into out (a complex array of values' shape) when it is given,
    and transforms that copy in place, so the caller's array is never written.
    """
    if out is None:
        out = np.empty(np.shape(values), dtype=np.complex128)
    np.copyto(out, values)
    values = out
    if not dts:
        return values, t
    phase, schedule = coefficients
    times = [t]
    for dt in dts:
        times.append(times[-1] + dt)
    kappa, nl, harm = schedule(times[:-1], dts)
    half = 0.5 * kappa * np.array(dts)[:, None]
    kicks = np.concatenate([half[:1], half[1:] + half[:-1], half[-1:]])
    # one table per run of equal consecutive kicks (a fixed dt has three: half,
    # full and closing half step; a lens march one per kick).  The first kick of
    # every per_window-th run builds the tables of a window of runs, into buffers
    # held for the whole march
    starts = np.ones(len(kicks), dtype=bool)
    starts[1:] = (kicks[1:] != kicks[:-1]).any(axis=1)
    runs, run_of = kicks[starts], (np.cumsum(starts) - 1).tolist()
    per_window = max(1, _WINDOW_BYTES // values.nbytes)
    builds = set(np.flatnonzero(starts)[::per_window].tolist())
    tables = np.empty((min(per_window, len(runs)),) + values.shape, dtype=np.complex128)
    folded = np.empty((len(tables) * len(values), grid._k_sq_folded[0].size),
                      dtype=np.complex128)

    # buffers reused by every step: rho, V and the lens confinement, which with rho
    # is also rotation's scratch.  The lens coefficients are copied to full rows
    # before they multiply, since numpy buffers a broadcast operand of a stack of
    # fewer than 8,192 points.  A step allocates no array
    rho, potential, confinement = np.empty((3,) + values.shape)
    spin = np.empty_like(values)
    radius_sq = None if nl is None else np.broadcast_to(grid.radius_sq, values.shape).copy()

    def kick(k):
        grid.fft(values, out=values)
        run = run_of[k]
        if k in builds:
            window = runs[run:run + per_window]
            grid.kinetic_multiplier(window.ravel(), tables[:len(window)].reshape(
                (-1,) + values.shape[1:]), folded)
        np.multiply(values, tables[run % per_window], out=values)
        grid.ifft(values, out=values)

    # the finiteness check after each step is the one detector of an overflow, so
    # numpy's floating-point warnings (an overflow in the phase, an invalid tan)
    # are silenced here and nowhere else
    with np.errstate(all="ignore"):
        for k, dt in enumerate(dts):
            kick(k)
            np.abs(values, out=rho)
            rho **= 2
            theta = phase(rho, potential)
            if nl is not None:
                np.copyto(rho, nl[k])
                theta *= rho
                np.copyto(confinement, harm[k])
                confinement *= radius_sq
                theta += confinement
            theta *= dt
            values *= rotation(theta, spin, (rho, confinement))
            if not np.isfinite(values.sum()):
                raise BlowUpError(f"NaN/Inf after the step to t = {times[k + 1]:.6g}",
                                  time=times[k + 1])
        kick(len(dts))
    return values, times[-1]


def free_flow(field: WaveField, dt: float) -> WaveField:
    """Exact free Schrodinger flow e^{i (dt/2) Lap} over dt (linear substep alone)."""
    g = field.grid
    out = g.ifft(g.fft(field.values) * g.kinetic_multiplier((dt,))[0])
    return field.with_values(out, time=field.time + dt)


def _blocks(rows: int) -> int:
    """How many blocks evolve cuts a stack of rows into: one per usable CPU and
    at most one per row.  1 (one march, no fork) without os.fork or while a
    second Python thread lives, since a forked child would copy the locks that
    thread may hold but not the thread."""
    if rows < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(rows, cpus)


def _march_block(values, grid, model, sigmas, segments, outs):
    """March the stacked rows `values` through the segments, each a (start time,
    dts) pair, into outs, one array per segment: (the number of segments
    marched, the exception that stopped the march or None)."""
    done = 0
    try:
        coefficients = _coefficients(model, sigmas, grid)
        for (t, dts), out in zip(segments, outs):
            values, _ = _march(values, grid, t, dts, coefficients, out)
            done += 1
    except Exception as exc:
        return done, exc
    return done, None


def _forked(march):
    """Start march() in a forked child: (its pid, a pipe that carries its pickled
    result), or None, with the pipe closed, if the fork fails.  The child leaves
    through os._exit, whatever happens."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare (EAGAIN, ENOMEM)
        os.close(read)
        os.close(write)
        return None
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    try:
        os.close(read)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(march(), pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def _march_blocks(marches):
    """Run the marches, the first in this process and every other one in a forked
    child of its own, and return each one's result; a march whose fork fails runs
    in this process too, and a child that ends before it reports has the result
    (0, NlsLabError).  No child outlives the call; if it raises, every child is
    killed before it is reaped."""
    children = [None]  # None: the march runs in this process
    try:
        for march in marches[1:]:
            children.append(_forked(march))
        results = [march() if child is None else None for march, child in zip(marches, children)]
        reports = [child and child[1].read() for child in children]
    except BaseException:
        import signal
        for pid, _ in filter(None, children):
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pipe in filter(None, children):
            pipe.close()
        statuses = [child and os.waitpid(child[0], 0)[1] for child in children]
    return [result if child is None else pickle.loads(report) if report else (0, NlsLabError(
        f"evolve's block {b} of {len(marches)} ended before it reported (wait status {status})"))
        for b, (result, child, report, status) in enumerate(
            zip(results, children, reports, statuses), 1)]


def evolve(fields, dt: float, times):
    """March one field, or a batch of them, through the times, landing exactly
    on each (trimmed last steps) and ending at times[-1].

    fields is a WaveField or a sequence of WaveFields sharing grid, model and
    start time (their sigma may differ); all of them take the same steps.
    dt is a finite real > 0.  times is a non-empty, strictly increasing
    sequence of finite times after the start time.
    Returns the field at each of the times; for a sequence, a tuple of such
    state lists.  GridError, before the first step, if the times take more
    than MAX_STEPS steps.  At each of the times, BlowUpError trips if a field's
    mass has drifted by more than MASS_DRIFT_TRIP of its own starting value.  Lens
    models step on _lens_schedule_dt from dt and read their envelope at
    each step's midpoint; the other models step at dt.

    The rows march into shared stacks in _blocks contiguous blocks, the first in
    this process and each other one in a forked child; rows never meet in a
    march, so every state is bitwise the same for any number of blocks.  A
    block's error is raised at the first of the times at or after it, the
    earliest first and before that time's tripwire, as one stack would raise it.
    """
    if not 0 < dt < math.inf:
        raise GridError(f"dt must be a finite real > 0, got {dt}")
    single = isinstance(fields, WaveField)
    fields = (fields,) if single else tuple(fields)
    if not fields:
        raise GridError("evolve needs at least one field")
    first = fields[0]
    if any(f.grid != first.grid or f.model is not first.model or f.time != first.time
           for f in fields[1:]):
        raise GridError("batched fields must share grid, model and start time")
    grid = first.grid
    targets = [float(t) for t in times]
    if not targets or not all(a < b < math.inf for a, b in zip([first.time, *targets], targets)):
        raise GridError(f"need finite times sorted and after the field time {first.time}, "
                        f"got {targets}")
    mass0 = [mass(f) for f in fields]
    dt_of = (lambda t: _lens_schedule_dt(t, dt)) if first.model.lens else (lambda t: dt)
    # the steps depend on the times alone; each segment ends where _march's sums end.
    # They are counted as they are listed, so no list grows past MAX_STEPS + 1
    segments, ends, t, steps = [], [], first.time, 0
    for target in targets:
        dts = list(itertools.islice(_step_sizes(t, target, dt_of, 1e-12 * max(1.0, abs(target))),
                                    MAX_STEPS + 1 - steps))
        steps += len(dts)
        if steps > MAX_STEPS:
            raise GridError(f"more than {MAX_STEPS} steps of dt = {dt!r} to t = {target:.6g}; "
                            f"one evolve call takes at most {MAX_STEPS}")
        segments.append((t, dts))
        for step in dts:
            t += step
        ends.append(t)
    values, sigmas = np.stack([f.values for f in fields]), [f.sigma for f in fields]
    # one stack per segment, in a mapping the forked blocks share; each fills its rows
    shared = mmap.mmap(-1, len(targets) * values.nbytes)
    stacks = np.frombuffer(shared, np.complex128).reshape((len(targets),) + values.shape)
    n = _blocks(len(fields))
    cuts = [len(fields) * b // n for b in range(n + 1)]
    marches = [functools.partial(_march_block, values[a:b], grid, first.model, sigmas[a:b],
                                 segments, stacks[:, a:b]) for a, b in zip(cuts, cuts[1:])]
    # the earliest error: by segment, then step time, any error but a blow-up first
    failed = min(((done, exc.time if isinstance(exc, BlowUpError) else -math.inf, b, exc)
                  for b, (done, exc) in enumerate(_march_blocks(marches)) if exc is not None),
                 default=None)
    states = tuple([] for _ in fields)
    for k, t in enumerate(ends):
        if failed is not None and failed[0] == k:
            raise failed[-1]
        for state, f, v, m0 in zip(states, fields, stacks[k], mass0):
            state.append(f.with_values(v, time=t))
            if abs(mass(state[-1]) - m0) > MASS_DRIFT_TRIP * m0:
                raise BlowUpError(f"mass drift tripwire at t = {t:.6g}", time=t)
    return states[0] if single else states
