"""In-memory spans around calls into nlslab's modules, and their arithmetic.

Spans are recorded by wrappers that the traced worker installs from
outside the package: each wrapper replaces a name where it is looked up
(a module global imported by name, or a class attribute), so nothing
under ``src/`` changes.  A span is (name, parent, start, end, value);
``value`` carries one number measured at the call (a step's dt, a CSV's
size, an envelope query's time advance).
"""
from __future__ import annotations

import functools
import math
import os
import time
import weakref
from contextlib import contextmanager

# Span name -> layer is the part before the first dot.
LAYERS = ("grid", "propagators", "envelope", "rescaling", "metrics",
          "scattering", "experiments")

ROOT_SPAN = "experiments.run"
STEP_SPAN = "propagators.step"


class Tracer:
    """Span store; spans open and close in strict nesting (one thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.values.append(math.nan)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int, value: float = math.nan) -> None:
        self.ends[i] = self.clock()
        self.values[i] = value
        if self._stack.pop() != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    def wrap(self, name: str, fn, measure=None):
        """fn wrapped in a span; measure(args, kwargs, result) gives the value."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            value = math.nan
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, kwargs, result)
                return result
            finally:
                self.close(i, value)
        return traced

    def write(self, path: str) -> None:
        """Spans as CSV rows: id, parent, name, start, end, value."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end,value\n")
            for i, row in enumerate(zip(self.parents, self.names, self.starts,
                                        self.ends, self.values)):
                fh.write("%d,%d,%s,%.9f,%.9f,%r\n" % ((i,) + row))


# ---------------------------------------------------------------- install

def _step_dt(args, kwargs, result):
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    return plan.dt


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(result))


def _patch_table(nl):
    """(owner, attribute, span name, measure) for every traced call site.

    ``nl`` maps module names to nlslab's modules.  Each name is patched
    where it is looked up: experiments, scattering and propagators
    import functions by name, so their module globals are replaced.
    """
    ex, pr, en, sc, gr = (nl["experiments"], nl["propagators"], nl["envelope"],
                          nl["scattering"], nl["grid"])
    last_t = weakref.WeakKeyDictionary()   # TauEnvelope -> time last queried

    def state_advance(args, kwargs, result):
        env = args[0]
        advance = result.t - last_t.get(env, 0.0)
        last_t[env] = result.t
        return advance

    return [
        (gr.Grid, "fft", "grid.fft", None),
        (gr.Grid, "ifft", "grid.fft", None),
        (gr.WaveField, "__post_init__", "grid.wavefield", None),
        (pr, "step_direct", STEP_SPAN, _step_dt),
        (pr, "step_rescaled", STEP_SPAN, _step_dt),
        (pr, "step_log", STEP_SPAN, _step_dt),
        (pr, "step_lens", STEP_SPAN, _step_dt),
        (ex, "step_lens", STEP_SPAN, _step_dt),
        (pr, "evolve", "propagators.evolve", None),
        (ex, "evolve", "propagators.evolve", None),
        (sc, "evolve", "propagators.evolve", None),
        (pr, "conservation_row", "propagators.observe", None),
        (pr, "_advance_env", "envelope.midpoint", None),
        (en.TauEnvelope, "state", "envelope.state", state_advance),
        (pr, "chevron_state", "envelope.chevron", None),
        (ex, "chevron_state", "envelope.chevron", None),
        (en, "integrate_tau", "envelope.integrate", None),
        (ex, "integrate_tau", "envelope.integrate", None),
        (ex, "integrate_r", "envelope.integrate", None),
        (ex, "tau_difference_bound", "envelope.integrate", None),
        (ex, "density_from_field", "rescaling.density", None),
        (ex, "pseudo_energy", "rescaling.pseudo_energy", None),
        (ex, "w1_1d", "metrics.w1", None),
        (ex, "w1_1d_dilated", "metrics.w1", None),
        (ex, "interaction_picture_continuity", "scattering.continuity", None),
        (sc, "free_conjugate", "scattering.free_conjugate", None),
        (ex, "write_csv", "experiments.csv_write", _file_bytes),
    ]


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Patch every call site in the table; yields the names that are absent.

    A name a later version of the program removed is skipped and
    reported, so its span simply disappears from the trace.
    """
    wrappers = {}   # one wrapper per original, shared by all its call sites
    undo, absent = [], []
    for owner, attr, name, measure in _patch_table(modules):
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            continue
        key = id(original)
        if key not in wrappers:
            wrappers[key] = tracer.wrap(name, original, measure)
        setattr(owner, attr, wrappers[key])
        undo.append((owner, attr, original))
    try:
        yield absent
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------- arithmetic

def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    A span is opened after its parent and after its earlier siblings, so
    each child list is in start order.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(parents)):
        lo, hi = starts[i], ends[i]
        covered, reach = 0.0, lo
        for c in children.get(i, ()):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def _nested_in_same(i, names, parents) -> bool:
    p = parents[i]
    while p >= 0:
        if names[p] == names[i]:
            return True
        p = parents[p]
    return False


def summarize(tracer: Tracer) -> dict:
    """Per-name and per-layer totals of the spans under the root span(s).

    For a span name X: ``X.calls`` counts its spans; ``X.s`` is the time
    inside X, counting only spans not nested in another X (so nested
    calls are not counted twice); ``X.self_s`` sums self times; ``X.value``
    sums the measured values and ``X.value_min``/``X.value_max`` bound them.
    """
    names, parents = tracer.names, tracer.parents
    starts, ends, values = tracer.starts, tracer.ends, tracer.values
    own = self_times(parents, starts, ends)
    # a parent is opened before its children, so one forward pass suffices
    in_root = [False] * len(names)
    in_step = [False] * len(names)
    for i, (name, p) in enumerate(zip(names, parents)):
        in_root[i] = name == ROOT_SPAN or (p >= 0 and in_root[p])
        in_step[i] = name == STEP_SPAN or (p >= 0 and in_step[p])
    by_name: dict[str, dict] = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    fft_in_steps = 0
    for i, name in enumerate(names):
        if not in_root[i]:
            continue
        d = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "value": 0.0, "value_min": math.inf,
                                      "value_max": -math.inf})
        d["calls"] += 1
        d["self_s"] += own[i]
        if not _nested_in_same(i, names, parents):
            d["s"] += ends[i] - starts[i]
        v = values[i]
        if not math.isnan(v):
            d["value"] += v
            d["value_min"] = min(d["value_min"], v)
            d["value_max"] = max(d["value_max"], v)
        layers[name.split(".", 1)[0]] += own[i]
        if name == "grid.fft" and in_step[i]:
            fft_in_steps += 1
    roots = [i for i, n in enumerate(names) if n == ROOT_SPAN and parents[i] < 0]
    return {"spans": by_name, "layers": layers, "fft_in_steps": fft_in_steps,
            "root_s": sum(ends[i] - starts[i] for i in roots),
            "self_sum_s": sum(layers.values())}
