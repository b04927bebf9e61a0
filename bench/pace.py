"""Host speed during a run, sampled in the run's own process.

On a shared virtual machine the same code can run at full speed or
markedly slower for stretches of seconds to minutes.  A ``Pacer`` times a
fixed reference kernel (split steps at N = 2048, numpy work like
nlslab's) on a wall-clock timer while a run goes on: the timer raises
SIGALRM, and the handler runs in the run's main thread between two
bytecodes, so the sample is taken on the same CPU at that moment.

Each sample also reads which CPU the run is on and that CPU's steal time
(``/proc``, read-only): time the hypervisor gave the CPU to another guest,
during which the run could not go on.  ``paced`` turns the run into
seconds at reference speed: the run's time outside the handler is cut
into segments at the samples; each segment, less the steal of its CPU,
is scaled by ``REFERENCE_S`` over the kernel time measured at its ends.
"""
from __future__ import annotations

import os
import signal
import statistics
import time
from typing import NamedTuple

import numpy as np

INTERVAL_S = 0.05      # one sample every 50 ms of wall time
SMOOTH = 5             # a sample's kernel time is the median of 5 neighbours
# A typical kernel time on the reference host (2-vCPU Intel Xeon VM, numpy
# 2.4); any fixed number would do, it only sets the scale.
REFERENCE_S = 1.2e-3

_N = 2048
_X = np.exp(1j * np.linspace(0.0, 6.0, _N)) * np.exp(-np.linspace(-3.0, 3.0, _N) ** 2)
_PHASE = np.exp(-1j * 1e-3 * np.fft.fftfreq(_N, 1.0 / _N) ** 2)


def kernel() -> complex:
    """The reference work: six split steps of a cubic Schroedinger equation."""
    y = _X
    for _ in range(6):
        y = np.fft.ifft(np.fft.fft(y) * _PHASE)
        y = y * np.exp(-1j * 1e-3 * (y.real ** 2 + y.imag ** 2))
    return y[0]


class Sample(NamedTuple):
    start: float                 # perf_counter when the sample began
    end: float                   # and when it ended
    kernel_s: float              # kernel time (a median at the block's edges)
    cpu: int                     # CPU the thread was on
    steal: tuple[float, ...]     # steal seconds of each CPU since boot


_TICK = os.sysconf("SC_CLK_TCK")


def cpu_and_steal() -> tuple[int, tuple[float, ...]]:
    """The CPU this thread last ran on, and each CPU's steal seconds.

    Without ``/proc`` this is (0, ()), and no steal is taken off.
    """
    try:
        with open("/proc/thread-self/stat") as fh:
            stat = fh.read()
        cpu = int(stat[stat.rindex(")") + 2:].split()[36])
        steal = []
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith("cpu") and line[3].isdigit():
                    steal.append(int(line.split()[8]) / _TICK)
        return cpu, tuple(steal)
    except (OSError, IndexError, ValueError):
        return 0, ()


def time_kernel(clock=time.perf_counter) -> float:
    a = clock()
    kernel()
    return clock() - a


def median_kernel(samples: int = SMOOTH) -> float:
    """Median kernel time of a few samples, after a warm-up."""
    for _ in range(3):                        # first calls allocate
        kernel()
    return statistics.median(time_kernel() for _ in range(samples))


class Pacer:
    """Context manager: samples host speed every INTERVAL_S while active.

    ``samples`` holds one Sample taken on entry (its kernel time a median
    of a few), one per timer tick, and one on exit.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[Sample] = []
        self._previous = None

    def _edge(self):
        kernel_s = median_kernel()
        t = time.perf_counter()
        self.samples.append(Sample(t, t, kernel_s, *cpu_and_steal()))

    def _on_alarm(self, signum, frame):
        a = time.perf_counter()
        kernel_s = time_kernel()
        cpu, steal = cpu_and_steal()
        self.samples.append(Sample(a, time.perf_counter(), kernel_s, cpu, steal))

    def __enter__(self):
        self._edge()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._edge()
        return False


def speed(samples: list[Sample]) -> float:
    """Median host speed over the samples, as reference over kernel time."""
    return REFERENCE_S / statistics.median(s.kernel_s for s in samples)


def _smoothed(values: list[float], width: int = SMOOTH) -> list[float]:
    half = width // 2
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


def _stolen(a: Sample, b: Sample) -> float:
    """Steal between two samples on the CPU of the later one."""
    if b.cpu >= min(len(a.steal), len(b.steal)):
        return 0.0
    return b.steal[b.cpu] - a.steal[b.cpu]


def paced(start: float, end: float, samples: list[Sample],
          reference: float = REFERENCE_S) -> tuple[float, float, float]:
    """(raw, stolen, paced) seconds of [start, end] without handler time.

    ``samples`` begins with one taken before ``start`` and ends with one
    taken after ``end``; timer samples outside [start, end] are skipped.
    Segment k runs from the end of one sample to the start of the next
    (or from ``start``, or to ``end``).  Its stolen time is the steal of
    the next sample's CPU between the two, at most the segment; its speed
    is the mean smoothed kernel time of the two samples.
    """
    inside = [s for s in samples[1:-1] if start <= s.start and s.end <= end]
    edges = [samples[0]] + inside + [samples[-1]]
    kernels = _smoothed([s.kernel_s for s in edges])
    cuts = [start] + [x for s in inside for x in (s.start, s.end)] + [end]
    raw = stolen = scaled = 0.0
    for k in range(len(edges) - 1):
        seg = cuts[2 * k + 1] - cuts[2 * k]
        lost = min(max(_stolen(edges[k], edges[k + 1]), 0.0), seg)
        raw += seg
        stolen += lost
        scaled += (seg - lost) * reference / (0.5 * (kernels[k] + kernels[k + 1]))
    return raw, stolen, scaled
