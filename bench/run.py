"""nlslab benchmark: `nlslab.experiments.run` at default config, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  Every run and every set-up probe is a fresh process
(``worker.py``), so each pays interpreter start and ``import nlslab``.

--trace 0  set-up probes and untraced runs, interleaved in an order drawn
           from the seed, for about ``--seconds`` (at least one
           run); prints the end-to-end metrics.  Runs sample host speed
           as they go (``pace.py``), and times are reported at
           reference host speed.
--trace 1  one untraced and one traced run, in an order drawn from the
           seed; prints the per-layer metrics from the traced run's spans.

The experiments' inputs are deterministic Gaussians, so the seed sets
only that order.  Human-readable lines come first; the last line of
standard output is the JSON result.  Outputs go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import outcome
import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")

WORKLOADS = ("ode-suite", "global-interaction-picture", "log-limit-global")
SETUP_SAMPLES = 11       # set-up samples per invocation; setup_s is their median
DEADLINE_S = 170.0       # every child is killed by then, leaving time to report
# |sum of span self times - traced run_s| allowed: the wrapper of the root
# span itself runs outside the root span.
SELF_SUM_TOL_S = 1e-3
# Assessment of a worker that died before it could assess its own run.
CRASHED = {"failed": True, "verdicts": 0, "verdicts_failed": 0}


# ---------------------------------------------------------------- machine

def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0],
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy")}


def steal_seconds() -> float:
    """Host steal time summed over CPUs since boot (read-only /proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


# ---------------------------------------------------------------- children

class Children:
    """Starts worker processes; each is waited for or killed before the deadline."""

    def __init__(self, workload: str, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def start(self, out_dir: str | None = None, trace: bool = False,
              pace: bool = False) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            return {"error": "no time left before the deadline"}
        cmd = [sys.executable, WORKER, "--workload", self.workload]
        if out_dir is not None:
            cmd += ["--out", out_dir]
        if trace:
            cmd.append("--trace")
        if pace:
            cmd.append("--pace")
        steal0 = steal_seconds()
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:   # run() has killed and reaped it
            return {"error": f"killed after {remaining:.0f} s"}
        steal = steal_seconds() - steal0
        if proc.returncode != 0:
            return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["steal_s"] = steal
        return result


# ---------------------------------------------------------------- checks

def check_runs(runs: list[dict], reference: dict, lines: list[str]) -> tuple[bool, int]:
    """Correctness of every run's outputs; returns (all correct, failed runs)."""
    correct, failed = True, 0
    for i, r in enumerate(runs):
        if "error" in r:
            failed += 1
            correct = False
            lines.append(f"run {i}: worker failed: {r['error']}")
            continue
        a = r["assessment"]
        if a["failed"]:
            failed += 1
            correct = False
            lines.append(f"run {i}: FAILED: " + " | ".join(a["reasons"]))
        if not r["nlslab_file"].startswith(SRC + os.sep):
            correct = False
            lines.append(f"run {i}: nlslab imported from {r['nlslab_file']}, not {SRC}")
        rows = outcome.compare(r["headline"], reference)
        held = all(row["ok"] for row in rows)
        correct &= held
        worst = max((row["drift"] for row in rows if row["drift"] is not None),
                    default=0.0)
        lines.append(f"run {i}: headline numbers {'within' if held else 'OUTSIDE'} "
                     f"tolerance (rel {outcome.REL_TOL:g}); max relative drift {worst:.3e}")
        for row in rows:
            if not row["ok"] or row["drift"]:
                lines.append(f"  drift {row['key']}: value {row['value']!r} "
                             f"ref {row['ref']!r} rel {row['drift']!r}"
                             f"{'' if row['ok'] else '  OUTSIDE TOLERANCE'}")
    return correct, failed


def describe(i: int, r: dict) -> str:
    if "error" in r:
        return f"run {i}: error"
    a = r["assessment"]
    paced = (f"paced {r['paced_s']:.4f} s, stolen {r['stolen_s']:.2f} s, "
             f"speed {r['speed']:.3f}, " if "paced_s" in r else "")
    return (f"run {i}: run_s {r['run_s']:.4f} s, {paced}cpu {r['cpu_s']:.4f} s, "
            f"setup_s {r['setup_s']:.4f} s, peak_rss {r['peak_rss_mb']:.1f} MB, "
            f"steal {r['steal_s']:.2f} s, "
            f"verdicts failed {a['verdicts_failed']}/{a['verdicts']} {a['failed_checks']}")


def metric_line(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    return (f"{name:<20} median {med:<12.6g} {unit:<6} n={len(values)} "
            f"min {min(values):.6g} max {max(values):.6g}")


# ---------------------------------------------------------------- modes

def end_to_end(kids: Children, rng: random.Random, seconds: float, out: str,
               reference: dict, lines: list[str]) -> dict:
    kids.start()                      # warm-up probe: fills the bytecode cache
    runs, probes = [], []
    end = time.monotonic() + seconds
    # Pairs of one set-up probe and one run, until half of one more pair as
    # long as the last would end after `seconds`: a call overshoots
    # `seconds` by at most about half a run, or is one pair when a run is
    # longer than `seconds`.
    while True:
        start = time.monotonic()
        probe_first = rng.random() < 0.5
        if probe_first:
            probes.append(kids.start())
        runs.append(kids.start(os.path.join(out, f"run-{len(runs)}"), pace=True))
        if not probe_first:
            probes.append(kids.start())
        now = time.monotonic()
        if now + 0.5 * (now - start) > end:
            break
    while len(runs) + len(probes) < SETUP_SAMPLES and time.monotonic() < kids.deadline - 1.0:
        probes.append(kids.start())
    lines.extend(describe(i, r) for i, r in enumerate(runs))

    correct, failed = check_runs(runs, reference, lines)
    bad_probes = [p["error"] for p in probes if "error" in p]
    if bad_probes:
        correct = False
        lines.append(f"set-up probes failed: {bad_probes}")
    done = [r for r in runs if "error" not in r]
    setups = [r["setup_s"] for r in done + probes if "error" not in r]
    if not done or not setups:
        raise SystemExit("no run finished; see the lines above")
    assessments = [r.get("assessment", CRASHED) for r in runs]
    fail_ratio, verdict_fail_ratio = outcome.ratios(assessments)
    checks = sum(a["verdicts"] for a in assessments)
    # Host speed over the call: the median over its runs of their speeds.
    speed = statistics.median(r["speed"] for r in done)
    values = {
        "run_s": ([r["paced_s"] for r in done], "s"),
        "setup_s": ([v * speed for v in setups], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in done], "MB"),
        "wall run_s": ([r["run_s"] for r in done], "s"),
        "wall setup_s": (setups, "s"),
        "host speed": ([r["speed"] for r in done], ""),
    }
    for name, (vals, unit) in values.items():
        lines.append(metric_line(name, vals, unit))
    lines.append(f"{'fail_ratio':<20} {fail_ratio:<19.6g} ratio  n={len(runs)} runs")
    lines.append(f"{'verdict_fail_ratio':<20} {verdict_fail_ratio:<19.6g} ratio  "
                 f"n={checks} verdict checks")
    metrics = {name: {"value": statistics.median(values[name][0]), "unit": values[name][1]}
               for name in ("run_s", "setup_s", "peak_rss_mb")}
    metrics["ok_ratio"] = {"value": 1.0 - fail_ratio, "unit": "ratio"}
    metrics["verdict_pass_ratio"] = {"value": 1.0 - verdict_fail_ratio, "unit": "ratio"}
    return {"correct": correct, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def per_layer(kids: Children, rng: random.Random, out: str, reference: dict,
              lines: list[str]) -> dict:
    order = ["plain", "traced"]
    rng.shuffle(order)
    runs = {kind: kids.start(os.path.join(out, kind), trace=kind == "traced")
            for kind in order}
    lines.extend(describe(i, runs[k]) + f" ({k})" for i, k in enumerate(order))
    correct, failed = check_runs([runs[k] for k in order], reference, lines)
    plain, traced = runs["plain"], runs["traced"]
    if "error" in plain or "error" in traced:
        raise SystemExit("a run did not finish; see the lines above")
    t = traced["trace"]
    if traced.get("absent"):
        lines.append(f"not traced (absent from the program): {traced['absent']}")
    gap = abs(t["self_sum_s"] - traced["run_s"])
    sums_ok = gap <= SELF_SUM_TOL_S and t["root_s"] > 0
    correct &= sums_ok
    lines.append(f"span self times sum to {t['self_sum_s']:.6f} s; traced run_s "
                 f"{traced['run_s']:.6f} s; gap {gap:.2e} s "
                 f"({'ok' if sums_ok else 'MISMATCH'})")
    metrics = layer_metrics(t, traced["run_s"], plain["run_s"], traced.get("verify_s", 0.0))
    for name, m in metrics.items():
        lines.append(f"{name:<32} {m['value']:<14.6g} {m['unit']}")
    return {"correct": correct, "attempted": len(order), "failed": failed,
            "metrics": metrics}


def layer_metrics(t: dict, traced_run_s: float, plain_run_s: float,
                  verify_s: float) -> dict:
    spans = t["spans"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0.0,
             "value_min": 0.0, "value_max": 0.0}

    def span(name):
        return spans.get(name, empty)

    steps = span("propagators.step")["calls"]
    state = span("envelope.state")
    out = {
        "grid.fft.calls": (span("grid.fft")["calls"], "count"),
        "grid.fft.s": (span("grid.fft")["s"], "s"),
        "grid.fft.per_step": (t["fft_in_steps"] / steps if steps else 0.0, "count"),
        "grid.wavefield.calls": (span("grid.wavefield")["calls"], "count"),
        "grid.wavefield.s": (span("grid.wavefield")["s"], "s"),
        "propagators.steps": (steps, "count"),
        "propagators.step.self_s": (span("propagators.step")["self_s"], "s"),
        "propagators.step.us": (1e6 * span("propagators.step")["s"] / steps
                                if steps else 0.0, "us"),
        "propagators.dt_min": (span("propagators.step")["value_min"] if steps else 0.0,
                               "model_time"),
        "propagators.dt_max": (span("propagators.step")["value_max"] if steps else 0.0,
                               "model_time"),
        "propagators.evolve.self_s": (span("propagators.evolve")["self_s"], "s"),
        "propagators.observe.calls": (span("propagators.observe")["calls"], "count"),
        "propagators.observe.s": (span("propagators.observe")["s"], "s"),
        "envelope.integrate.calls": (span("envelope.integrate")["calls"], "count"),
        "envelope.integrate.s": (span("envelope.integrate")["s"], "s"),
        "envelope.state.calls": (state["calls"], "count"),
        "envelope.state.s": (state["s"], "s"),
        "envelope.state.mean_advance": (state["value"] / state["calls"]
                                        if state["calls"] else 0.0, "model_time"),
        "envelope.midpoint.calls": (span("envelope.midpoint")["calls"], "count"),
        "envelope.midpoint.s": (span("envelope.midpoint")["s"], "s"),
        "envelope.chevron.calls": (span("envelope.chevron")["calls"], "count"),
        "rescaling.density.calls": (span("rescaling.density")["calls"], "count"),
        "rescaling.density.s": (span("rescaling.density")["s"], "s"),
        "rescaling.pseudo_energy.calls": (span("rescaling.pseudo_energy")["calls"], "count"),
        "rescaling.pseudo_energy.s": (span("rescaling.pseudo_energy")["s"], "s"),
        "metrics.w1.calls": (span("metrics.w1")["calls"], "count"),
        "metrics.w1.s": (span("metrics.w1")["s"], "s"),
        "scattering.free_conjugate.calls": (span("scattering.free_conjugate")["calls"],
                                            "count"),
        "scattering.free_conjugate.s": (span("scattering.free_conjugate")["s"], "s"),
        "experiments.csv_write.calls": (span("experiments.csv_write")["calls"], "count"),
        "experiments.csv_write.s": (span("experiments.csv_write")["s"], "s"),
        "experiments.csv_write.bytes": (span("experiments.csv_write")["value"], "bytes"),
        "experiments.verify.s": (verify_s, "s"),
        "trace.run_s": (traced_run_s, "s"),
        "trace.overhead_s": (traced_run_s - plain_run_s, "s"),
    }
    for layer, self_s in t["layers"].items():
        out[f"layer.{layer}.self_s"] = (self_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "nlslab", "__init__.py")):
        print(f"no nlslab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)[args.workload]

    out = os.path.join(BENCH, "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    info = machine_info()
    lines = [f"nlslab bench: workload {args.workload}, seed {args.seed}, "
             f"seconds {args.seconds:g}, trace {args.trace}",
             "machine: " + ", ".join(f"{k} {v}" for k, v in info.items())]
    rng = random.Random(args.seed)
    kids = Children(args.workload, deadline)
    try:
        if args.trace:
            result = per_layer(kids, rng, out, reference, lines)
        else:
            result = end_to_end(kids, rng, args.seconds, out, reference, lines)
    finally:
        print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
