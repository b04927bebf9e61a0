"""Experiment harness: configs, artifacts, determinism, verification, CLI."""
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nlslab
from nlslab import (ExperimentConfig, EXPERIMENT_NAMES, GridError, Model, RunRecord,
                    VerificationError, default_config, evolve, free_conjugate,
                    gaussian_state, l2_distance, make_grid, run, sigma_norm,
                    strauss_exponent, sweep, verify)
from nlslab.cli import main as cli_main
from nlslab.experiments import _EXPERIMENTS, format_value, read_csv, write_csv


def _tiny_ode_config():
    # t0 large enough that the difference-bound sup has converged (its
    # drift under range-doubling is only small at t >> 1e2)
    return ExperimentConfig(name="ode-suite", sigmas=(0.1,), t0=256.0, n_times=5)


@pytest.fixture(scope="module")
def ode_runs(tmp_path_factory):
    """One ode-suite config executed twice, shared across artifact tests."""
    base = tmp_path_factory.mktemp("ode")
    cfg = _tiny_ode_config()
    rec_a = run(cfg, str(base / "a"))
    rec_b = run(cfg, str(base / "b"))
    return base, rec_a, rec_b


# ------------------------------------------------------------- config

def test_config_json_round_trip():
    cfg = default_config("local-continuity")
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.to_json() == cfg.to_json()
    assert again.digest == cfg.digest


def test_config_digest_tracks_content():
    a = _tiny_ode_config()
    b = ExperimentConfig(name="ode-suite", sigmas=(0.1,), t0=1.0, n_times=7)
    assert a.digest != b.digest


def test_config_dyadic_times():
    cfg = ExperimentConfig(name="ode-suite", sigmas=(0.1,), t0=0.5, n_times=4)
    assert cfg.times() == [0.5, 1.0, 2.0, 4.0]


def test_config_rejects_unknown_name():
    with pytest.raises(GridError):
        ExperimentConfig(name="does-not-exist", sigmas=(0.1,))


def test_config_integer_fields():
    # integral values are stored as int; non-numbers are rejected (the
    # non-integral ones are inputs of test_cli_bad_config_exits_2)
    cfg = ExperimentConfig(name="ode-suite", sigmas=(0.1,), dim=1.0, n=256.0, n_times=3.0)
    assert (cfg.dim, cfg.n, cfg.n_times) == (1, 256, 3)
    assert all(type(v) is int for v in (cfg.dim, cfg.n, cfg.n_times))
    for bad in (dict(dim=True), dict(n="256")):
        with pytest.raises(GridError, match="^invalid config"):
            ExperimentConfig(name="ode-suite", sigmas=(0.1,), **bad)


def test_config_rejects_empty_sigmas():
    with pytest.raises(GridError):
        ExperimentConfig(name="ode-suite", sigmas=())


def test_config_sigma_windows():
    # short-range experiment needs sigma above the scattering threshold
    with pytest.raises(GridError):
        ExperimentConfig(name="global-interaction-picture", sigmas=(1.5, 1.2))
    # W1 experiments live strictly inside (0, 1/d)
    with pytest.raises(GridError):
        ExperimentConfig(name="uniform-w1", sigmas=(0.8, 1.1))
    with pytest.raises(GridError):
        ExperimentConfig(name="log-limit-local", sigmas=(0.0,))
    # sigma = 0 flows only
    with pytest.raises(GridError):
        ExperimentConfig(name="gaussian-profile", sigmas=(0.1,))


def test_default_configs_cover_all_experiments():
    assert len(EXPERIMENT_NAMES) == 9
    for name in EXPERIMENT_NAMES:
        cfg = default_config(name)
        assert cfg.name == name
    with pytest.raises(GridError):
        default_config("nope")


# ------------------------------------------------------------- artifacts

def test_format_value():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(3) == "3"
    assert format_value("tag") == "tag"


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "table.csv")
    rows = [(0.5, True, "label"), (1.0, False, "other")]
    write_csv(path, ("t", "flag", "name"), rows)
    header, back = read_csv(path)
    assert header == ["t", "flag", "name"]
    assert back == [[0.5, 1.0, "label"], [1.0, 0.0, "other"]]


def test_read_csv_missing_and_empty(tmp_path):
    with pytest.raises(VerificationError):
        read_csv(str(tmp_path / "absent.csv"))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(VerificationError):
        read_csv(str(empty))


# ------------------------------------------------------------- run / verify

def test_ode_suite_run_deterministic(ode_runs):
    base, rec_a, rec_b = ode_runs
    assert rec_a.status == rec_b.status == "complete"
    assert rec_a.passed and rec_b.passed
    assert rec_a.csv_paths.keys() == rec_b.csv_paths.keys()
    for name in rec_a.csv_paths:
        bytes_a = (base / "a" / name).read_bytes()
        bytes_b = (base / "b" / name).read_bytes()
        assert bytes_a == bytes_b          # identical artifact bytes
    assert rec_a.csv_hashes == rec_b.csv_hashes


def test_verify_accepts_then_flags_tampering(ode_runs, tmp_path):
    import shutil
    base, rec_a, _ = ode_runs
    out = str(tmp_path / "run")
    shutil.copytree(base / "a", out)
    summary = verify(out)
    assert summary["ok"] and not summary["tampered"] and not summary["mismatches"]
    # flip one digit in an artifact: the hash check must flag it
    target = os.path.join(out, "envelope.csv")
    text = open(target).read()
    open(target, "w").write(text.replace("1", "2", 1))
    summary = verify(out)
    assert not summary["ok"]
    assert "envelope.csv" in summary["tampered"]


def test_verify_accepts_legacy_seed_key(ode_runs, tmp_path):
    # records written before the unused seed option was removed carry "seed"
    import shutil
    base, _, _ = ode_runs
    out = tmp_path / "run"
    shutil.copytree(base / "a", out)
    record = json.loads((out / "record.json").read_text())
    record["config"]["seed"] = 0
    (out / "record.json").write_text(json.dumps(record))
    assert verify(str(out))["ok"]


def test_cli_verify_edited_config_exits_2(ode_runs, tmp_path, capsys):
    # the ode-suite verdicts do not read sigmas, so only config_hash shows the edit
    import shutil
    base, _, _ = ode_runs
    out = tmp_path / "run"
    shutil.copytree(base / "a", out)
    record = json.loads((out / "record.json").read_text())
    record["config"]["sigmas"] = [0.2]
    (out / "record.json").write_text(json.dumps(record))
    assert cli_main(["verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config_hash" in err and "Traceback" not in err


def test_verify_reports_failed_run(tmp_path):
    out = str(tmp_path / "failing")
    cfg = ExperimentConfig(name="gaussian-profile", sigmas=(0.0,), n=128,
                           half_length=3.0, width=1.0, t0=10.0, n_times=2)
    record = run(cfg, out)     # box too small for the reference profile
    assert record.status == "failed"
    assert record.stage == "GridError"
    summary = verify(out)
    assert not summary["ok"] and summary["status"] == "failed"


def test_unexpected_error_replaces_stale_record(tmp_path, monkeypatch):
    from nlslab import experiments
    cfg = _tiny_ode_config()
    out = str(tmp_path)
    monkeypatch.setitem(experiments._EXPERIMENTS, cfg.name,
                        experiments._EXPERIMENTS[cfg.name]._replace(
                            runner=lambda c: {"x.csv": (("a",), [(1.0,)])},
                            analyzer=lambda c, d: [{"check": "stub", "passed": True,
                                                    "detail": ""}]))
    assert run(cfg, out).passed and verify(out)["ok"]

    def broken(c):
        raise ValueError("not a package error")
    monkeypatch.setitem(experiments._EXPERIMENTS, cfg.name,
                        experiments._EXPERIMENTS[cfg.name]._replace(runner=broken))
    record = run(cfg, out)
    assert record.status == "failed" and record.stage == "ValueError"
    stored = RunRecord.load(os.path.join(out, "record.json"))
    assert stored.status == "failed" and "not a package error" in stored.error
    assert not verify(out)["ok"]


def test_sweep_isolates_failures(tmp_path):
    base = ExperimentConfig(name="gaussian-profile", sigmas=(0.0,), n=128,
                            half_length=30.0, width=3.0, t0=10.0, n_times=2)
    records = sweep(base, "L", [30.0, 3.0], str(tmp_path))
    assert records[0].status == "complete"
    assert records[1].status == "failed"   # profile guard trips, run isolated
    assert (tmp_path / "L-000" / "record.json").exists()
    assert (tmp_path / "L-001" / "record.json").exists()


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(GridError):
        sweep(_tiny_ode_config(), "width", [1.0], str(tmp_path))


def test_global_interaction_tables_structure(tmp_path):
    # sigma above the Strauss exponent (1.28 at d = 1); each row's Sigma-norm trace
    # is recomputed here from its own march of the same datum
    cfg = ExperimentConfig(name="global-interaction-picture", sigmas=(1.5, 1.52, 1.54),
                           n=128, half_length=15.0, dt=4e-3, t0=0.5, n_times=2)
    assert run(cfg, str(tmp_path)).status == "complete"
    rows, sat, fit = (read_csv(str(tmp_path / name))[1]
                      for name in ("sup_difference.csv", "saturation.csv", "fit.csv"))
    phi = gaussian_state(make_grid(1, 128, 15.0), 1.0, model=Model.DIRECT)
    stack = evolve([phi.with_tags(sigma=s) for s in cfg.sigmas], 4e-3, cfg.times())
    ref, *marched = ([free_conjugate(f) for f in states] for states in stack)
    assert [r[0] for r in rows] == [r[0] for r in sat] == [1.52, 1.54]
    for row, sat_row, profiles in zip(rows, sat, marched):
        (_, _, sup, t_at_sup), (_, sup_half, sup_full, _) = row, sat_row
        trace = [sigma_norm(p.with_values(p.values - q.values)) for p, q in zip(profiles, ref)]
        assert all(0.0 < l2_distance(p, q) <= d for p, q, d in zip(profiles, ref, trace))
        assert sup == max(trace) == sup_full and sup_half == max(trace[:-1])
        assert t_at_sup in cfg.times() and t_at_sup == cfg.times()[trace.index(sup)]
    # the closer exponent gives the smaller sup; the fitted slope is positive
    assert 0.0 < rows[0][2] < rows[1][2]
    assert fit[0][1] > 0.0


# ------------------------------------------------------------- CLI

def _small_local_config():
    return ExperimentConfig(name="local-continuity", sigmas=(0.8, 0.81, 0.82),
                            n=128, half_length=15.0, dt=4e-3, width=1.0,
                            t0=0.25, n_times=2)


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENT_NAMES:
        assert name in out
    # shortest reprs, not format_value's 17 digits (dt=0.0050000000000000001)
    assert "dt=0.005, " in out


def test_cli_run_and_verify(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_small_local_config().to_json())
    out = str(tmp_path / "run")
    assert cli_main(["run", "--config", str(cfg_path), "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "FAIL" not in stdout
    assert cli_main(["verify", "--out", out]) == 0
    # damage an artifact: verify must now fail
    target = os.path.join(out, "fit.csv")
    open(target, "a").write("tampered\n")
    assert cli_main(["verify", "--out", out]) == 1
    assert "TAMPERED" in capsys.readouterr().out


def test_cli_verify_flags_a_stored_verdict_it_does_not_rederive(tmp_path, capsys):
    # a failing verdict added to record.json makes the run fail; verify must say
    # so, though no CSV re-derives that check
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_small_local_config().to_json())
    out = tmp_path / "run"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    record = json.loads((out / "record.json").read_text())
    record["verdicts"].append({"check": "local/made-up", "passed": False})
    (out / "record.json").write_text(json.dumps(record))
    assert not RunRecord.load(str(out / "record.json")).passed
    capsys.readouterr()
    assert cli_main(["verify", "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("MISMATCH")] == [
        "MISMATCH  local/made-up: stored verdict differs from recomputation"]


def test_cli_verify_misshapen_record_exits_2(tmp_path, capsys):
    # a record whose verdicts or CSV maps have the wrong shape is malformed:
    # exit 2 with one line and no traceback, as for any malformed record
    out = tmp_path / "run"
    assert run(_small_local_config(), str(out)).passed
    good = json.loads((out / "record.json").read_text())
    edits = {"verdict-without-check": {"verdicts": good["verdicts"] + [{"passed": False}]},
             "verdicts-a-string": {"verdicts": "x"},
             "csv-paths-a-number": {"csv_paths": 5},
             "csv-path-a-directory": {"csv_paths": {**good["csv_paths"],
                                                    next(iter(good["csv_paths"])): "."}}}
    for label, edit in edits.items():
        (out / "record.json").write_text(json.dumps({**good, **edit}))
        capsys.readouterr()
        assert cli_main(["verify", "--out", str(out)]) == 2, label
        err = capsys.readouterr().err
        assert err.startswith("ERROR: malformed record") and err.count("\n") == 1, label
        assert "Traceback" not in err, label


def test_cli_config_name_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_small_local_config().to_json())
    code = cli_main(["run", "ode-suite", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x")])
    assert code == 2


def test_cli_verify_missing_record(tmp_path, capsys):
    # no record, or a directory where the record should be: exit 2, one line
    (tmp_path / "dir" / "record.json").mkdir(parents=True)
    for out in ("nothing", "dir"):
        capsys.readouterr()
        assert cli_main(["verify", "--out", str(tmp_path / out)]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith("ERROR: missing record") and err.count("\n") == 1, out


def _config_text(change):
    data = json.loads(_small_local_config().to_json())
    change(data)
    return json.dumps(data)


@pytest.mark.parametrize("text", [
    _config_text(lambda d: d.update(bogus=1)),
    _config_text(lambda d: d.pop("sigmas")),
    _config_text(lambda d: d.pop("name")),
    '{"name": "local-continuity", "sigmas": [0.8,',
    _config_text(lambda d: d.update(n=128.9)),
    _config_text(lambda d: d.update(n_times=0)),
    _config_text(lambda d: d.update(n_times=2.5)),
    _config_text(lambda d: d.update(dt="abc")),
    _config_text(lambda d: d.update(half_length="abc")),
    _config_text(lambda d: d.update(t0="abc")),
    _config_text(lambda d: d.update(width=None)),
    _config_text(lambda d: d.update(name="ode-suite", sigmas=[math.inf])),
    _config_text(lambda d: d.update(sigmas=[0.8, math.inf])),
    _config_text(lambda d: d.update(sigmas=[0.8, "0.81"])),
    _config_text(lambda d: d.update(sigmas=[0.8, True, 0.9])),
    _config_text(lambda d: d.update(sigmas=[0.8])),
    _config_text(lambda d: d.update(name="global-interaction-picture", sigmas=[1.5])),
    _config_text(lambda d: d.update(sigmas=[0.8, 0.81])),
    _config_text(lambda d: d.update(name="uniform-w1", sigmas=[0.8])),
    _config_text(lambda d: d.update(name="ode-suite", sigmas=[0.1], t0=0.25, n_times=3)),
    _config_text(lambda d: d.update(name="gaussian-profile", sigmas=[0.0], t0=0.5)),
    _config_text(lambda d: d.update(name="uniform-w1", n_times=1)),
    _config_text(lambda d: d.update(name="sobolev-growth", sigmas=[0.0], t0=10.0)),
    _config_text(lambda d: d.update(name="scattering-continuity", sigmas=[1.5, 0.8])),
    _config_text(lambda d: d.update(dt=0.0)),
    _config_text(lambda d: d.update(dt=-4e-3)),
    _config_text(lambda d: d.update(width=0.0)),
    _config_text(lambda d: d.update(t0=-0.25)),
    _config_text(lambda d: d.update(half_length=0.0)),
    _config_text(lambda d: d.update(dim=3)),
    _config_text(lambda d: d.update(n=100)),
    json.dumps({"name": "gaussian-profile", "dim": 2, "n": 64, "half_length": 30.0,
                "sigmas": [0.0], "width": 3.0, "t0": 10.0, "n_times": 6, "dt": 0.005}),
    *(json.dumps({"name": name, "dim": 2, "n": 64, "half_length": 10.0, "sigmas": sigmas,
                  "t0": 1.0, "n_times": 4})
      for name, sigmas in (("uniform-w1", [0.3, 0.31, 0.32]), ("log-limit-global", [0.1, 0.05]))),
    _config_text(lambda d: d.update(name="global-interaction-picture", sigmas=[1.5, 1.54, 1.6],
                                    n_times=1)),
    _config_text(lambda d: d.update(name="log-limit-local", sigmas=[0.05, 0.02], n_times=1)),
    _config_text(lambda d: d.update(name="log-limit-global", sigmas=[0.1, 0.05], n_times=1)),
    _config_text(lambda d: d.update(name="gaussian-profile", sigmas=[0.0], t0=10.0, n_times=1)),
    _config_text(lambda d: d.update(name="ode-suite", sigmas=[0.1], t0=4.0, n_times=2)),
    _config_text(lambda d: d.update(name="global-interaction-picture", sigmas=[1.2, 1.25, 1.3])),
    _config_text(lambda d: d.update(name="uniform-w1", sigmas=[0.9, 1.0, 1.1])),
    _config_text(lambda d: d.update(name="log-limit-local", sigmas=[0.0, 0.05])),
    _config_text(lambda d: d.update(name="log-limit-global", sigmas=[1.0, 0.05])),
    _config_text(lambda d: d.update(name="gaussian-profile", sigmas=[0.1], t0=10.0)),
    _config_text(lambda d: d.update(name="sobolev-growth", sigmas=[0.1], t0=10.0, n_times=3)),
    _config_text(lambda d: d.update(name="sobolev-growth", sigmas=[0.0], t0=1.0, n_times=3)),
    _config_text(lambda d: d.update(name="ode-suite", sigmas=[-0.1], t0=4.0, n_times=3)),
    _config_text(lambda d: d.update(name="ode-suite", sigmas=[5e-324], t0=1.0, n_times=3)),
    _config_text(lambda d: d.update(half_length=1e-300)),
    _config_text(lambda d: d.update(half_length=1e200, width=1e199)),
], ids=["unknown-key", "missing-sigmas", "missing-name", "invalid-json", "non-integer-n",
        "zero-n-times", "non-integer-n-times", "text-dt", "text-half-length", "text-t0",
        "null-width", "infinite-sigma-ode", "infinite-sigma", "text-sigma", "bool-sigma",
        "one-sigma-local", "one-sigma-global", "one-gap-local", "one-sigma-uniform-w1",
        "ode-last-time-1", "gaussian-t0-below-1", "one-time-uniform-w1",
        "two-times-sobolev", "two-times-scattering", "zero-dt", "negative-dt", "zero-width",
        "negative-t0", "zero-half-length", "dim-3", "n-not-power-of-two",
        "dim-2-gaussian-profile", "dim-2-uniform-w1", "dim-2-log-limit-global",
        "one-time-global", "one-time-log-limit-local", "one-time-log-limit-global",
        "one-time-gaussian-profile", "two-times-ode", "below-strauss-global",
        "sigma-1-uniform-w1", "sigma-0-log-limit-local", "sigma-1-log-limit-global",
        "nonzero-sigma-gaussian-profile", "nonzero-sigma-sobolev", "t0-1-sobolev",
        "negative-sigma-ode", "subnormal-sigma-ode", "tiny-box", "huge-box"])
def test_cli_bad_config_exits_2(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: invalid config") and "Traceback" not in err
    assert err.count("\n") == 1 and not caught, [str(w.message) for w in caught]


_OVERFLOW = json.dumps({"name": "local-continuity", "sigmas": [500.0, 500.01, 500.02, 500.04],
                        "n": 256, "half_length": 5.0, "width": 0.1, "t0": 0.01, "n_times": 1})


@pytest.mark.parametrize("text,codes,err", [
    # the sigma > 0 phase is regularised as the sigma = 0 row is, so a sigma = 1e-8 row
    # measures a rate in sigma, not the gap between two regularisations: both verdicts pass
    ('{"name": "log-limit-local", "sigmas": [1e-8, 0.02, 0.01]}', (0,), ""),
    # 1 - tau^{-d sigma} rounds to 0 at d sigma = 1e-20: s_sigma(t) reads the stable
    # first integral, and a zero difference-bound sup is a drift, not a ZeroDivisionError
    ('{"name": "ode-suite", "sigmas": [1e-20], "t0": 1.0, "n_times": 3}', (0, 1), ""),
    # a width-1e9 Gaussian on a box of half-length 20 is a constant on the torus
    (_config_text(lambda d: d.update(half_length=20.0, width=1e9)), (2,),
     "ERROR (ResolutionError): width 1e+09 too wide for the box"),
    # rho^500 overflows in the first step: the march's finiteness check reports it,
    # with the step's time, and numpy prints no overflow or invalid-value warning
    (_OVERFLOW, (2,), "ERROR (BlowUpError): NaN/Inf after the step to t = 0.001"),
    # the envelope table resolves d sigma <= 50 only; at 1e70 it read tau = 1 + t^2/4 and
    # ode/linear-asymptote passed with |ratio - 1| = 1e37
    ('{"name": "ode-suite", "sigmas": [1e70], "t0": 0.5, "n_times": 3}', (2,),
     "ERROR (EnvelopeError): d sigma = 1e+70 is beyond the envelope table's reach"),
], ids=["log-limit-local-sigma-1e-8", "ode-suite-sigma-1e-20", "datum-too-wide",
        "phase-overflow", "ode-suite-sigma-1e70"])
def test_cli_edge_config_ends_without_traceback(tmp_path, capsys, text, codes, err):
    # verdicts and exit 0 or 1 with an empty stderr, or exit 2 with one ERROR line;
    # never a traceback or a warning
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code in codes, captured.out + captured.err
    assert captured.err.startswith(err) and captured.err.count("\n") == (1 if err else 0)
    assert not caught, [str(w.message) for w in caught]


def test_cli_short_range_sigma_that_does_not_scatter_fails(tmp_path, capsys):
    # on this box the sigma = 1.5 profile residuals rise from the first cadence to the
    # second: the extraction has not converged, a failed verdict (exit 1) with its CSVs
    # written, and verify re-derives it from them
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"name": "scattering-continuity", "sigmas": [1.5],
                                    "n": 128, "half_length": 20.0, "n_times": 4, "t0": 0.5}))
    out = str(tmp_path / "run")
    assert cli_main(["run", "--config", str(cfg_path), "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("FAIL  scattering/short-range-sigma=1.5: residuals ")
    header, rows = read_csv(os.path.join(out, "residuals.csv"))
    assert [row[header.index("t")] for row in rows] == [0.5, 1.0, 2.0]
    assert all(row[header.index("converged")] == 0 for row in rows)
    assert cli_main(["verify", "--out", out]) == 1
    stdout = capsys.readouterr().out
    assert "FAIL  scattering/short-range-sigma=1.5" in stdout and "MISMATCH" not in stdout


# the range each experiment's config accepts its sigmas from at d = 1, drawn with its
# ends: an end the config rejects is an invalid config, which the strategy skips
_SIGMA_RANGES = {"local-continuity": (0.0, 1e300),
                 "global-interaction-picture": (strauss_exponent(1), 1e300),
                 "scattering-continuity": (0.0, 1e300), "uniform-w1": (0.0, 1.0),
                 "log-limit-local": (0.0, 1.0), "log-limit-global": (0.0, 1.0),
                 "ode-suite": (0.0, 1e300), "gaussian-profile": (0.0, 0.0),
                 "sobolev-growth": (0.0, 0.0)}


@st.composite
def _small_configs(draw):
    """A valid config of any experiment at N <= 64 with at most four checkpoints, the
    last at most 400 dt, and sigma and width anywhere the config accepts them.  The box
    holds 5.3 to 16 widths, so that N = 32 resolves the datum up to 8 and N = 64 up
    to 16 (gaussian_state's bounds)"""
    name = draw(st.sampled_from(EXPERIMENT_NAMES))
    width = draw(st.one_of(st.floats(0.5, 4.0), st.floats(1e-300, 1e300)))
    data = {"name": name, "dim": draw(st.sampled_from([1, 1, 2])),
            "n": draw(st.sampled_from([32, 64])), "width": width,
            "half_length": width * draw(st.floats(5.3, 16.0)), "dt": draw(st.floats(0.01, 0.1)),
            "t0": draw(st.floats(0.01, 4.0)), "n_times": draw(st.integers(1, 4)),
            "sigmas": draw(st.lists(st.floats(*_SIGMA_RANGES[name]), min_size=3, max_size=4))}
    assume(data["t0"] * 2 ** (data["n_times"] - 1) <= 400 * data["dt"])
    try:
        ExperimentConfig(**data)
    except GridError:  # invalid configs have test_cli_bad_config_exits_2
        assume(False)
    return json.dumps(data)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(text=_small_configs())
@example(text=_OVERFLOW)
def test_cli_small_configs_end_without_traceback(tmp_path_factory, text):
    # a run ends with its verdicts (exit 0 or 1) and an empty stderr, or with one ERROR
    # line (exit 2); never a traceback.  Warnings are errors here, in evolve's forked
    # blocks too, so a warning in any process ends the run with a traceback
    cfg_path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg_path.write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli_main(["run", "--config", str(cfg_path),
                         "--out", str(cfg_path.parent / "run")])
    err = stderr.getvalue()
    assert code in (0, 1, 2) and err.count("\n") == (code == 2), text + "\n" + err
    assert "Traceback" not in err and "Warning" not in err, text + "\n" + err


def test_cli_unreadable_config_exits_2(tmp_path, capsys):
    assert cli_main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: cannot read config") and "Traceback" not in err


_INCONSISTENT_RECORD = json.dumps({
    "config": {}, "config_hash": "", "code_version": "0.1.0", "started": "",
    "finished": "", "status": "complete", "stage": None, "error": None,
    "csv_paths": {"fit.csv": "fit.csv"}, "csv_hashes": {}, "verdicts": []})


@pytest.mark.parametrize("text", ['{"status": "complete",', "[]",
                                  '{"status": "complete"}', _INCONSISTENT_RECORD],
                         ids=["invalid-json", "not-an-object", "missing-fields",
                              "csv-keys-differ"])
def test_cli_verify_malformed_record_exits_2(tmp_path, capsys, text):
    (tmp_path / "record.json").write_text(text)
    assert cli_main(["verify", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: malformed record") and "Traceback" not in err


def test_cli_run_out_is_a_file_exits_2(tmp_path, capsys):
    # a file where run makes its directory, or a directory where it writes its
    # record or a CSV: exit 2 with one line naming the path, no traceback
    (tmp_path / "taken").write_text("")
    (tmp_path / "record" / "record.json").mkdir(parents=True)
    (tmp_path / "csv" / "envelope.csv").mkdir(parents=True)
    cases = {"taken": "ERROR: cannot create output directory",
             "record": f"ERROR: cannot write {tmp_path / 'record' / 'record.json'}: ",
             "csv": f"ERROR (NlsLabError): cannot write {tmp_path / 'csv' / 'envelope.csv'}: "}
    for out, start in cases.items():
        capsys.readouterr()
        assert cli_main(["run", "ode-suite", "--out", str(tmp_path / out)]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith(start), out
        assert err.count("\n") == 1 and "Traceback" not in err, out


@pytest.mark.parametrize("edit", [
    lambda cells: cells[:2],                    # a short row
    lambda cells: [cells[0], cells[1], "abc"],  # a text cell
], ids=["short-row", "text-cell"])
def test_cli_verify_malformed_csv_exits_2(tmp_path, capsys, edit):
    out = str(tmp_path / "run")
    assert run(_small_local_config(), out).passed
    target = os.path.join(out, "sup_difference.csv")
    lines = open(target).read().splitlines()
    lines[1] = ",".join(edit(lines[1].split(",")))
    open(target, "w").write("\n".join(lines) + "\n")
    assert cli_main(["verify", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: malformed artifact") and "sup_difference.csv" in err
    assert "Traceback" not in err


# edits of a stored ode-suite run: a record.json key set to a value of the wrong type or
# dropped, an extra key, a config field changed or dropped, a csv_paths entry that is a
# path; or one CSV emptied, cut to its header, given an extra column, a row dropped or
# doubled, or one cell replaced, with or without its hash updated to match
_ODD_VALUES = st.sampled_from([None, True, 0, -1.5, math.nan, math.inf, "", "x", [], ["x"],
                               {}, {"x": 1}])
_RECORD_KEYS = ("config", "config_hash", "code_version", "started", "finished", "status",
                "stage", "error", "csv_paths", "csv_hashes", "verdicts", "extra")
_CONFIG_KEYS = ("name", "sigmas", "dim", "n", "half_length", "dt", "width", "t0", "n_times",
                "extra")
_ODE_CSVS = ("envelope.csv", "radial.csv", "asymptotics.csv", "log_asymptote.csv",
             "difference_bound.csv")
_PATH_ENTRIES = ("", ".", "..", "/", "../record.json", "record.json", "absent.csv",
                 "run/envelope.csv", "radial.csv")
_CELLS = (b"nan", b"1e999", b"-1e999", b"", b"abc", b"\xff\xfe", b"\x00")
_DROP = "<drop>"


def _edit_row(lines, r, change):
    """lines with data row r (modulo the rows) replaced by the lines change(its cells)."""
    if len(lines) < 2:
        return lines
    k = 1 + r % (len(lines) - 1)
    return lines[:k] + change(lines[k].split(b",")) + lines[k + 1:]


_CSV_EDITS = {
    "empty": lambda lines, r, c, cell: [],
    "header-only": lambda lines, r, c, cell: lines[:1],
    "extra-column": lambda lines, r, c, cell: [line + b",1" for line in lines],
    "drop-row": lambda lines, r, c, cell: _edit_row(lines, r, lambda cells: []),
    "double-row": lambda lines, r, c, cell: _edit_row(lines, r,
                                                      lambda cells: [b",".join(cells)] * 2),
    "cell": lambda lines, r, c, cell: _edit_row(lines, r, lambda cells: [b",".join(
        cell if i == c % len(cells) else x for i, x in enumerate(cells))]),
}

_STORED_RUN_EDITS = st.one_of(
    st.tuples(st.just("record"), st.sampled_from(_RECORD_KEYS),
              st.one_of(st.just(_DROP), _ODD_VALUES)),
    st.tuples(st.just("config"), st.sampled_from(_CONFIG_KEYS),
              st.one_of(st.just(_DROP), _ODD_VALUES)),
    st.tuples(st.just("csv_path"), st.sampled_from(_ODE_CSVS), st.sampled_from(_PATH_ENTRIES)),
    st.tuples(st.just("csv"), st.sampled_from(_ODE_CSVS), st.sampled_from(sorted(_CSV_EDITS)),
              st.integers(0, 63), st.integers(0, 7), st.sampled_from(_CELLS), st.booleans()))


def _edit_stored_run(out, edit):
    """Apply one _STORED_RUN_EDITS edit to the stored run in out; a record edit whose
    dict an earlier edit replaced does nothing."""
    record = json.loads((out / "record.json").read_text())
    kind, key, *rest = edit
    if kind == "csv":
        change, r, c, cell, rehash = rest
        data = b"\n".join(_CSV_EDITS[change]((out / key).read_bytes().splitlines(), r, c, cell))
        (out / key).write_bytes(data)
        target = record.get("csv_hashes") if rehash else None
        value = hashlib.sha256(data).hexdigest()
    else:
        target = {"record": record, "config": record.get("config"),
                  "csv_path": record.get("csv_paths")}[kind]
        value = rest[0]
    if isinstance(target, dict):
        if value == _DROP:
            target.pop(key, None)
        else:
            target[key] = value
    (out / "record.json").write_text(json.dumps(record))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(edits=st.lists(_STORED_RUN_EDITS, min_size=1, max_size=2))
def test_cli_verify_of_an_edited_stored_run_ends_without_traceback(ode_runs, tmp_path_factory,
                                                                   edits):
    # verify reports a stored run it can read (exit 0 or 1, nothing on stderr) or one
    # ERROR line (exit 2); never a traceback or a warning
    out = tmp_path_factory.mktemp("stored") / "run"
    shutil.copytree(ode_runs[0] / "a", out)
    for edit in edits:
        _edit_stored_run(out, edit)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli_main(["verify", "--out", str(out)])
    err = stderr.getvalue()
    assert code in (0, 1, 2) and err.count("\n") == (code == 2), f"{edits}\n{err}"
    assert "Traceback" not in err and "Warning" not in err, f"{edits}\n{err}"


def test_cli_sweep_runs_on_past_a_run_that_cannot_write(tmp_path, capsys):
    # a directory where the first run writes its record: that run alone fails, with
    # one line, and the next run still runs and verifies; the sweep exits 2
    (tmp_path / "sigma-000" / "record.json").mkdir(parents=True)
    code = cli_main(["sweep", "ode-suite", "--axis", "sigma", "--values", "0.1", "0.01",
                     "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.out + captured.err
    assert captured.out.startswith("sigma=0.1: ERROR (NlsLabError) cannot write "
                                   f"{tmp_path / 'sigma-000' / 'record.json'}: ")
    assert captured.out.splitlines()[1:] == ["sigma=0.01: PASS"]
    assert verify(str(tmp_path / "sigma-001"))["ok"]


def test_cli_sweep_non_numeric_values_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "ode-suite", "--axis", "dt", "--values", "abc",
                  "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "invalid float value: 'abc'" in err
    assert not os.listdir(tmp_path)


def test_cli_sweep_sigma_keeps_the_gaps(tmp_path):
    # a gap-fitting experiment's sigma sweep moves sigmas[0] and keeps every gap
    code = cli_main(["sweep", "local-continuity", "--axis", "sigma", "--values", "0.3",
                     "--out", str(tmp_path)])
    record = RunRecord.load(str(tmp_path / "sigma-000" / "record.json"))
    assert record.status == "complete" and code == (0 if record.passed else 1)
    assert [round(s, 12) for s in record.config["sigmas"]] == [0.3, 0.31, 0.32, 0.34]
    assert verify(str(tmp_path / "sigma-000"))["mismatches"] == []


def test_cli_sweep_labels_each_value_by_its_repr(tmp_path, capsys):
    # the label is the value's shortest round-trip repr, not the CSV's 17 digits
    code = cli_main(["sweep", "local-continuity", "--axis", "dt", "--values", "4e-3", "2e-3",
                     "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["dt=0.004: PASS", "dt=0.002: PASS"]


def test_cli_sweep_sigma_below_strauss_exits_2(tmp_path, capsys):
    # the kept gaps put global-interaction-picture's sigmas under the Strauss exponent
    code = cli_main(["sweep", "global-interaction-picture", "--axis", "sigma",
                     "--values", "1.0", "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ERROR: invalid config: global-interaction-picture needs "
                                   "every sigma >")
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1
    assert "PASS" not in captured.out and not os.listdir(tmp_path)


def test_cli_sweep_bad_n_runs_nothing(tmp_path, capsys):
    # every config is checked, its grid included, before the first run starts
    code = cli_main(["sweep", "log-limit-local", "--axis", "N", "--values", "256", "100",
                     "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ERROR: invalid config: N must be a power of two")
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1
    assert not os.listdir(tmp_path)


def test_cli_envelope_beyond_its_table_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"name": "ode-suite", "sigmas": [0.1], "t0": 1e200,
                                    "n_times": 3}))
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR (EnvelopeError): envelope time 1e+200")
    assert "Traceback" not in err and err.count("\n") == 1


def test_cli_ode_suite_at_unit_d_sigma_writes_nan(tmp_path, capsys):
    # s_sigma(t) is undefined at d sigma = 1: the run records nan there, as at
    # sigma = 0, and no traceback escapes (three checkpoints from t = 1 cannot
    # reach the log asymptote, so a failed verdict, exit 1, is expected)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"name": "ode-suite", "sigmas": [1.0], "t0": 1.0,
                                    "n_times": 3}))
    out = str(tmp_path / "x")
    assert cli_main(["run", "--config", str(cfg_path), "--out", out]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    header, rows = read_csv(os.path.join(out, "envelope.csv"))
    column = header.index("s_sigma")
    assert rows and all(math.isnan(row[column]) for row in rows)

def test_runs_do_not_import_scipy(tmp_path):
    # scipy is a test extra: running and verifying experiments must not load it
    script = """
import os, sys
from nlslab import ExperimentConfig, run, verify
for name, sigmas in (("local-continuity", (0.8, 0.81, 0.82)),
                     ("log-limit-local", (0.05, 0.02, 0.01))):
    cfg = ExperimentConfig(name=name, sigmas=sigmas, n=128, half_length=15.0, dt=4e-3,
                           t0=0.25, n_times=2)
    out = os.path.join(sys.argv[1], name)
    assert run(cfg, out).status == "complete"
    summary = verify(out)
    assert not summary["tampered"] and not summary["mismatches"], summary
assert "scipy" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nlslab.__file__)))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_cli_sweep_non_integer_n_exits_2(tmp_path, capsys):
    # N = 128.9 must not run under the truncated name N = 128
    code = cli_main(["sweep", "gaussian-profile", "--axis", "N", "--values", "128.9",
                     "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "ERROR: invalid config: n must be an integer, got 128.9\n"
    assert "PASS" not in captured.out and not os.listdir(tmp_path)


# ------------------------------------------------------------- defaults

def test_log_limit_global_default_dt_spends_its_error_in_space():
    # a default's time error is at most a tenth of its space error (ROADMAP item 3): on
    # every headline number H, each sigma's sup_w1 and last weighted pseudo-energy,
    # |H(dt) - H(dt/2)| <= |H(N) - H(2N)| / 10.  tau is read off the envelope, which no
    # march moves.  At dt = 2e-3 the worst ratio is 3.3e-3; at 1.6e-2 it is 0.21
    base = default_config("log-limit-global")

    def headlines(cfg):
        tables = _EXPERIMENTS[cfg.name].runner(cfg)
        out = {("sup_w1", s): w for s, w in tables["sup_w1.csv"][1]}
        # the rows run in time within each sigma, so the last one per sigma stays
        out.update({("weighted", row[0]): row[8] for row in tables["pseudo_energy.csv"][1]})
        return out

    h, half_dt, double_n = (headlines(cfg) for cfg in (
        base, replace(base, dt=base.dt / 2), replace(base, n=2 * base.n)))
    assert len(h) == 2 * len(base.sigmas)
    ratios = {key: abs(h[key] - half_dt[key]) / abs(h[key] - double_n[key]) for key in h}
    assert max(ratios.values()) <= 0.1, ratios


def test_cli_step_bound_exits_2_within_a_second(tmp_path, capsys):
    # dt = 1e-12 to t = 0.25 is 2.5e11 steps, a list evolve would build before its first
    # step; it stops counting past MAX_STEPS, and the run ends with one line
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_config_text(lambda d: d.update(dt=1e-12)))
    start = time.perf_counter()
    code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    elapsed = time.perf_counter() - start
    assert code == 2 and capsys.readouterr().err == (
        "ERROR (GridError): more than 1000000 steps of dt = 1e-12 to t = 0.25; "
        "one evolve call takes at most 1000000\n")
    assert elapsed < 1.0, elapsed
