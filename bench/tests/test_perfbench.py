"""Tests of the benchmark's own code: span arithmetic and run accounting.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""
import csv
import math
import os
import time

import pytest

import outcome
import pace
import tracing
from nlslab import envelope, experiments, grid, propagators, scattering
from nlslab.experiments import ExperimentConfig, run, verify


def _synthetic_tracer():
    """root [0,10] > (a [1,4] > fft [2,3]), (step [5,9] > fft [5.5,6], fft [7,8]),
    (integrate [9.25,9.75] > integrate [9.5,9.6])."""
    times = iter([0, 1, 2, 3, 4, 5, 5.5, 6, 7, 8, 9, 9.25, 9.5, 9.6, 9.75, 10])
    t = tracing.Tracer(clock=lambda: next(times))
    root = t.open(tracing.ROOT_SPAN)
    a = t.open("rescaling.density")
    t.close(t.open("grid.fft"))
    t.close(a)
    step = t.open(tracing.STEP_SPAN)
    t.close(t.open("grid.fft"))
    t.close(t.open("grid.fft"))
    t.close(step, value=0.25)
    outer = t.open("envelope.integrate")
    t.close(t.open("envelope.integrate"))
    t.close(outer)
    t.close(root)
    return t


def test_self_times_of_a_synthetic_span_tree():
    t = _synthetic_tracer()
    own = tracing.self_times(t.parents, t.starts, t.ends)
    expected = [10 - 3 - 4 - 0.5, 3 - 1, 1, 4 - 0.5 - 1, 0.5, 1, 0.5 - 0.1, 0.1]
    assert own == pytest.approx(expected)

    s = tracing.summarize(t)
    assert s["root_s"] == 10
    assert s["self_sum_s"] == pytest.approx(s["root_s"])
    assert s["layers"]["grid"] == pytest.approx(2.5)
    assert s["layers"]["propagators"] == pytest.approx(2.5)
    assert s["fft_in_steps"] == 2
    assert s["spans"]["grid.fft"]["calls"] == 3
    # a span nested in one of the same name is counted once in "s"
    assert s["spans"]["envelope.integrate"]["s"] == pytest.approx(0.5)
    assert s["spans"]["envelope.integrate"]["self_s"] == pytest.approx(0.5)
    step = s["spans"][tracing.STEP_SPAN]
    assert (step["value_min"], step["value_max"]) == (0.25, 0.25)


def test_self_time_of_overlapping_children_counts_the_overlap_once():
    own = tracing.self_times([-1, 0, 0], [0.0, 1.0, 2.0], [10.0, 4.0, 3.0])
    assert own[0] == pytest.approx(7.0)


def test_spans_outside_the_root_are_not_summed():
    times = iter([0.0, 1.0, 2.0, 5.0])
    t = tracing.Tracer(clock=lambda: next(times))
    t.close(t.open(tracing.ROOT_SPAN))
    t.close(t.open("experiments.verify"))
    s = tracing.summarize(t)
    assert s["self_sum_s"] == s["root_s"] == 1.0
    assert "experiments.verify" not in s["spans"]


def test_install_patches_every_lookup_site_and_restores_it():
    modules = {"experiments": experiments, "propagators": propagators,
               "envelope": envelope, "scattering": scattering, "grid": grid}
    original = propagators.evolve
    t = tracing.Tracer()
    with tracing.installed(t, modules):
        assert experiments.evolve is propagators.evolve is scattering.evolve
        assert propagators.evolve is not original
        g = grid.make_grid(1, 16, 4.0)
        g.ifft(g.fft(g.x.astype(complex)))
    assert propagators.evolve is original and experiments.evolve is original
    assert t.names == ["grid.fft", "grid.fft"]


def _tiny_run(path):
    # t up to 4 instead of 1e6: three of the five verdicts fail there
    cfg = ExperimentConfig(name="ode-suite", sigmas=(0.1,), t0=1.0, n_times=3)
    return run(cfg, str(path))


def test_tampered_csv_counts_in_fail_ratio(tmp_path):
    good = outcome.assess(_tiny_run(tmp_path / "good"), verify(str(tmp_path / "good")))
    record = _tiny_run(tmp_path / "bad")
    path = tmp_path / "bad" / "envelope.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[-1][-1] = "0"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    bad = outcome.assess(record, verify(str(tmp_path / "bad")))
    assert not good["failed"]
    assert bad["failed"] and "tampered" in bad["reasons"][0]
    assert outcome.ratios([good, bad])[0] == 0.5


def test_failed_run_counts_in_fail_ratio(tmp_path):
    record = _tiny_run(tmp_path)
    record.status, record.error = "failed", "EnvelopeError"
    a = outcome.assess(record, {"verdicts": [], "tampered": [], "mismatches": []})
    assert a["failed"]
    assert outcome.ratios([a])[0] == 1.0


def test_failed_verdict_counts_in_verdict_fail_ratio(tmp_path):
    a = outcome.assess(_tiny_run(tmp_path), verify(str(tmp_path)))
    assert not a["failed"]
    assert (a["verdicts_failed"], a["verdicts"]) == (3, 5)
    assert "ode/log-asymptote" in a["failed_checks"]
    fail_ratio, verdict_fail_ratio = outcome.ratios([a, a])
    assert fail_ratio == 0.0
    assert verdict_fail_ratio == pytest.approx(0.6)


def test_headline_drift_within_and_outside_tolerance():
    ref = {"theta_hat": 0.91, "residual.max_abs": 4e-13}
    close = outcome.compare({"theta_hat": 0.91 * (1 + 1e-9),
                             "residual.max_abs": 3e-11}, ref)
    assert all(r["ok"] for r in close)
    far = outcome.compare({"theta_hat": 0.92, "residual.max_abs": 2e-10}, ref)
    assert not any(r["ok"] for r in far)
    missing = outcome.compare({}, ref)
    assert not any(r["ok"] for r in missing)


def test_reference_covers_every_workload():
    import json
    with open(os.path.join(os.path.dirname(outcome.__file__), "reference.json")) as fh:
        ref = json.load(fh)
    assert set(ref) == set(outcome.HEADLINES)
    assert all(math.isfinite(v) for values in ref.values() for v in values.values())


def test_paced_time_leaves_out_samples_and_steal_and_scales_by_host_speed():
    ref = pace.REFERENCE_S

    def samples(kernel_s, steal_at_5=(0.0, 0.0)):
        S = pace.Sample
        return [S(-1.0, -1.0, kernel_s, 0, (0.0, 0.0)),
                S(-0.5, -0.4, 9 * ref, 0, (0.0, 0.0)),    # before start: skipped
                S(2.0, 2.1, kernel_s, 1, (0.0, 0.0)),
                S(5.0, 5.2, kernel_s, 1, steal_at_5),
                S(10.5, 10.6, 9 * ref, 1, steal_at_5),    # after end: skipped
                S(11.0, 11.0, kernel_s, 1, steal_at_5)]

    raw, stolen, paced = pace.paced(0.0, 10.0, samples(ref))
    assert (raw, stolen) == pytest.approx((10.0 - 0.1 - 0.2, 0.0))
    assert paced == pytest.approx(raw)
    # twice the kernel time everywhere: the host ran at half speed
    assert pace.paced(0.0, 10.0, samples(2 * ref)) == pytest.approx((raw, 0.0, raw / 2))
    # steal counts only on the CPU the run was on (CPU 1)
    raw, stolen, paced = pace.paced(0.0, 10.0, samples(ref, steal_at_5=(3.0, 0.5)))
    assert (stolen, paced) == pytest.approx((0.5, raw - 0.5))


def test_pacer_samples_during_its_block():
    with pace.Pacer(interval=0.01) as p:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(p.samples) >= 5                     # entry, three ticks, exit
    assert all(s.kernel_s > 0 for s in p.samples)
    assert all(a.end <= b.start for a, b in zip(p.samples, p.samples[1:]))
