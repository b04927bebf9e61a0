"""Named experiments wiring the solver modules into reproducible runs.

Each experiment writes plain CSV artifacts (deterministic bytes for a
given config) plus a record.json; every verdict is recomputed
from the CSVs alone, so `verify` can re-check an archived run without
touching the solvers.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
import os
import tempfile
import time as _time
import traceback
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .envelope import (TauEnvelope, first_integral_residual, integrate_r, integrate_tau,
                       tau_difference_bound, time_change_s)
from .errors import GridError, NlsLabError, VerificationError
from .grid import Model, gaussian_state, l2_distance, make_grid
from .metrics import gaussian_gamma, w1_1d
from .propagators import evolve
from .rescaling import (PROFILE_DILATION, density_from_field,
                        direct_gradient_norm_sq, pseudo_energy)
from .scattering import (extract_asymptotic, interaction_picture_continuity, scattering_map,
                         strauss_exponent)

# ---------------------------------------------------------------- config

@dataclass(frozen=True)
class ExperimentConfig:
    """Fully materialized run parameters (no hidden defaults)."""

    name: str
    dim: int = 1
    n: int = 256
    half_length: float = 30.0       # box half-width, dimensionless lens units
    dt: float = 1e-3                # base step, model time units
    sigmas: tuple = ()              # first entry is the reference exponent
    width: float = 1.0              # Gaussian datum width
    t0: float = 1.0                 # first checkpoint time
    n_times: int = 4                # number of checkpoints

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise GridError(f"unknown experiment {self.name!r}")
        for key in ("dim", "n", "n_times"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not float(value).is_integer():
                raise GridError(f"invalid config: {key} must be an integer, got {value!r}")
            object.__setattr__(self, key, int(value))
        if not self.sigmas:
            raise GridError("invalid config: sigmas must be a nonempty list")
        reals = [(key, getattr(self, key)) for key in ("half_length", "dt", "width", "t0")]
        for key, value in reals + [("sigma", s) for s in self.sigmas]:
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not math.isfinite(value) or (key != "sigma" and not value > 0):
                raise GridError(f"invalid config: {key} must be a finite real"
                                f"{'' if key == 'sigma' else ' > 0'}, got {value!r}")
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        try:
            make_grid(self.dim, self.n, self.half_length)
        except GridError as exc:
            raise GridError(f"invalid config: {exc}") from None
        _validate_experiment(self)

    def times(self) -> list[float]:
        """Dyadic checkpoint schedule t0 * 2^j."""
        return [self.t0 * 2**j for j in range(self.n_times)]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
            data["sigmas"] = tuple(data["sigmas"])
            data.pop("seed", None)  # legacy key of older records; no run read it
            return cls(**data)
        except NlsLabError:
            raise
        except (ValueError, TypeError, KeyError) as exc:  # bad JSON, key or value
            raise GridError(f"invalid config: {type(exc).__name__}: {exc}") from exc

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


# verdicts that compare checkpoints need two values: sobolev-growth reads the checkpoints
# from the middle one on, ode-suite doubles t from times[n_times // 2], and
# scattering-continuity judges convergence over four dyadic cadences
_MIN_TIMES = {"global-interaction-picture": 2, "scattering-continuity": 4, "uniform-w1": 2,
              "log-limit-local": 2, "log-limit-global": 2, "gaussian-profile": 2,
              "sobolev-growth": 3, "ode-suite": 3}
# these fit or group their runs by the gap |nu - sigmas[0]|, as uniform-w1 groups them
_GAP_FITS = ("local-continuity", "global-interaction-picture", "uniform-w1")


def _validate_experiment(cfg: ExperimentConfig) -> None:
    """What each experiment's runner and verdicts need of the sigmas and times."""
    name, sigmas, dim = cfg.name, cfg.sigmas, cfg.dim
    least = _MIN_TIMES.get(name, 1)
    if cfg.n_times < least:
        raise GridError(f"invalid config: {name} needs n_times >= {least}, got {cfg.n_times}")
    gaps = {round(abs(nu - sigmas[0]), 12) for nu in sigmas[1:]}
    if name in _GAP_FITS and (len(gaps) < 2 or 0.0 in gaps):
        raise GridError(f"invalid config: {name} needs at least two distinct gaps "
                        f"|nu - sigmas[0]|, all nonzero, got {sorted(gaps)}")
    if dim != 1 and name in ("uniform-w1", "log-limit-global", "gaussian-profile"):
        raise GridError(f"invalid config: {name} needs dim = 1 (W1 of 1-D densities)")
    if name == "global-interaction-picture":
        s0 = strauss_exponent(dim)
        if min(sigmas) <= s0:
            raise GridError(f"invalid config: {name} needs every sigma > {s0:.4f}")
    elif name in ("uniform-w1", "log-limit-local", "log-limit-global"):
        if not all(0.0 < s < 1.0 / dim for s in sigmas):
            raise GridError(f"invalid config: {name} needs sigma in (0, 1/d)")
    elif name in ("gaussian-profile", "sobolev-growth"):
        if any(s != 0.0 for s in sigmas):
            raise GridError(f"invalid config: {name} studies the sigma = 0 flow only")
        if not cfg.t0 > 1.0:
            raise GridError(f"invalid config: {name} divides by ln t, so it needs t0 > 1")
    elif name == "ode-suite":
        if not all(0.0 <= s for s in sigmas):
            raise GridError("invalid config: ode-suite needs sigma >= 0")
        if not cfg.times()[-1] > 1.0:
            raise GridError("invalid config: ode-suite divides by sqrt(ln t) at its last "
                            "checkpoint, so it needs t0 * 2^(n_times - 1) > 1")
    # scattering-continuity deliberately mixes short- and long-range sigmas


def default_config(name: str) -> ExperimentConfig:
    if name not in _EXPERIMENTS:
        raise GridError(f"unknown experiment {name!r}")
    return ExperimentConfig(name=name, **_EXPERIMENTS[name][2])


# ---------------------------------------------------------------- artifacts

def format_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _atomic_write(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    _atomic_write(path, buf.getvalue().encode())
    return path


def read_csv(path: str):
    """Returns (header, rows) with numeric cells parsed to float."""
    if not os.path.exists(path):
        raise VerificationError(f"missing artifact {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise VerificationError(f"empty artifact {path}") from None
        rows = []
        for raw in reader:
            row = []
            for cell in raw:
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
            rows.append(row)
    return header, rows


def _rows(out_dir: str, name: str) -> list:
    """The rows of out_dir/name as read_csv parses them, without the header."""
    return read_csv(os.path.join(out_dir, name))[1]


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunRecord:
    config: dict
    config_hash: str
    code_version: str
    started: str
    finished: str
    status: str                     # "complete" | "failed"
    stage: str | None
    error: str | None
    csv_paths: dict
    csv_hashes: dict
    verdicts: list                  # [{"check": id, "passed": bool, "detail": str}]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def load(cls, path: str) -> "RunRecord":
        if not os.path.exists(path):
            raise VerificationError(f"missing record {path}")
        try:
            with open(path) as fh:
                record = cls(**json.load(fh))
        except (ValueError, TypeError) as exc:  # bad JSON or fields
            raise VerificationError(f"malformed record {path}: {exc}") from exc
        if not (isinstance(record.verdicts, list)
                and all(isinstance(v, dict) and isinstance(v.get("check"), str)
                        and isinstance(v.get("passed"), bool) for v in record.verdicts)
                and all(isinstance(d, dict) and all(isinstance(x, str) for x in (*d, *d.values()))
                        for d in (record.csv_paths, record.csv_hashes))
                # run writes bare file names, so a path, "." or ".." is malformed
                and all(os.path.basename(p) == p not in ("", ".", "..")
                        for p in record.csv_paths.values())):
            raise VerificationError(f"malformed record {path}: verdicts must be a list of "
                                    f"{{check: str, passed: bool}} dicts and csv_paths and "
                                    f"csv_hashes dicts of str, csv_paths of file names")
        if set(record.csv_paths) != set(record.csv_hashes):
            raise VerificationError(f"malformed record {path}: csv_paths and csv_hashes "
                                    f"name different files")
        return record

    @property
    def passed(self) -> bool:
        return self.status == "complete" and all(v["passed"] for v in self.verdicts)


# ---------------------------------------------------------------- helpers

def _loglog_slope(xs, ys) -> float:
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.maximum(np.asarray(ys, dtype=float), 1e-300))
    return float(np.polyfit(xs, ys, 1)[0])


def _verdict(check: str, passed: bool, detail: str) -> dict:
    return {"check": check, "passed": bool(passed), "detail": detail}


# ---------------------------------------------------------------- runners
# Each runner returns {csv basename: (header, rows)}; each analyzer maps
# the written CSVs back to verdicts, touching no solver state.

def _run_ode_suite(cfg: ExperimentConfig):
    times = cfg.times()
    env_rows = []
    for s in cfg.sigmas:
        for st in integrate_tau(s, cfg.dim, times):
            s_of_t = time_change_s(st) if (0 < st.alpha != 1 and st.tau > 1) else float("nan")
            env_rows.append((s, st.t, st.tau, st.tau_dot, s_of_t,
                            first_integral_residual(st)))
    r_rows = [(st.t, st.r, st.r_dot, first_integral_residual(st),
               math.sqrt(1.0 + st.t**2))
              for st in integrate_r(2.0, times)]
    asym_rows = []
    t_ref = times[-1]
    t_probe = [t_ref / 256.0, t_ref / 16.0, t_ref]
    for s in cfg.sigmas:
        if s <= 0:
            continue
        # tau_sigma(t) sqrt(d sigma) / t -> 1 only logarithmically; record
        # the approach at three dyadically spaced probes
        for st in integrate_tau(s, cfg.dim, t_probe):
            asym_rows.append((s, st.t, st.tau,
                              st.tau / st.t * math.sqrt(cfg.dim * s)))
    st0 = integrate_tau(0.0, cfg.dim, [t_ref])[0]
    log_ratio = st0.tau / (t_ref * math.sqrt(math.log(t_ref)))
    diff_rows = []
    t_half = times[len(times) // 2]
    for s in cfg.sigmas:
        if not (0.0 < s < 1.0 / cfg.dim):
            continue
        full = tau_difference_bound(s, cfg.dim, t_ref)
        half = tau_difference_bound(s, cfg.dim, t_half)
        diff_rows.append((s, t_half, half, t_ref, full))
    return {
        "envelope.csv": (("sigma", "t", "tau", "tau_dot", "s_sigma", "residual"), env_rows),
        "radial.csv": (("t", "r", "r_dot", "residual", "chevron"), r_rows),
        "asymptotics.csv": (("sigma", "t", "tau", "scaled_ratio"), asym_rows),
        "log_asymptote.csv": (("t", "tau0", "ratio"), [(t_ref, st0.tau, log_ratio)]),
        "difference_bound.csv": (("sigma", "t_half", "sup_half", "t_full", "sup_full"),
                                 diff_rows),
    }


def _analyze_ode_suite(cfg: ExperimentConfig, out_dir: str):
    env_rows = _rows(out_dir, "envelope.csv")
    r_rows = _rows(out_dir, "radial.csv")
    asym_rows = _rows(out_dir, "asymptotics.csv")
    log_rows = _rows(out_dir, "log_asymptote.csv")
    diff_rows = _rows(out_dir, "difference_bound.csv")
    res = max(abs(r[5]) for r in env_rows)
    res_r = max(abs(r[3]) for r in r_rows)
    verdicts = [
        _verdict("ode/first-integral", max(res, res_r) <= 1e-10,
                 f"max residual {max(res, res_r):.3e} (tol 1e-10)"),
        _verdict("ode/chevron", max(abs(r[1] - r[4]) / r[4] for r in r_rows) <= 1e-8,
                 "r_2(t) matches sqrt(1 + t^2)"),
    ]
    if asym_rows:
        approach_ok = True
        detail = []
        for s in sorted({r[0] for r in asym_rows}):
            gaps = [abs(r[3] - 1.0) for r in sorted(
                (r for r in asym_rows if r[0] == s), key=lambda r: r[1])]
            approach_ok &= all(b < a for a, b in zip(gaps, gaps[1:]))
            detail.append(f"sigma={s:g}: |ratio-1| {['%.3g' % g for g in gaps]}")
        verdicts.append(_verdict("ode/linear-asymptote", approach_ok,
                                 "; ".join(detail)))
    ratio = log_rows[0][2]
    verdicts.append(_verdict("ode/log-asymptote", 0.9 <= ratio <= 1.1,
                             f"tau_0/(t sqrt(ln t)) = {ratio:.4f}"))
    if diff_rows:
        worst = max(abs(r[4] / r[2] - 1.0) for r in diff_rows)
        verdicts.append(_verdict("ode/difference-bound", worst <= 0.2,
                                 f"sup-ratio drift under t-doubling {worst:.3f}"))
    return verdicts


def _run_local_continuity(cfg: ExperimentConfig):
    base, nus = cfg.sigmas[0], cfg.sigmas[1:]
    grid = make_grid(cfg.dim, cfg.n, cfg.half_length)
    phi = gaussian_state(grid, cfg.width, sigma=base, model=Model.DIRECT)
    ref, *runs = evolve([phi, *(phi.with_tags(sigma=nu) for nu in nus)],
                        cfg.dt, cfg.times())
    rows = []
    for nu, run in zip(nus, runs):
        sup = max(l2_distance(a, b) for a, b in zip(run, ref))
        rows.append((nu, abs(nu - base), sup))
    theta = _loglog_slope([r[1] for r in rows], [r[2] for r in rows])
    return {
        "sup_difference.csv": (("nu", "gap", "sup_l2"), rows),
        "fit.csv": (("sigma", "theta_hat"), [(base, theta)]),
    }


def _analyze_local_continuity(cfg: ExperimentConfig, out_dir: str):
    rows = _rows(out_dir, "sup_difference.csv")
    fit = _rows(out_dir, "fit.csv")
    theta = fit[0][1]
    ordered = sorted(rows, key=lambda r: r[1])
    monotone = all(a[2] <= b[2] + 1e-12 for a, b in zip(ordered, ordered[1:]))
    return [
        _verdict("local/continuity-order", 0.0 < theta <= 1.1,
                 f"theta_hat = {theta:.3f}"),
        _verdict("local/monotone-in-gap", monotone,
                 "sup-difference nondecreasing in |nu - sigma|"),
    ]


def _run_global_interaction(cfg: ExperimentConfig):
    base, nus = cfg.sigmas[0], cfg.sigmas[1:]
    grid = make_grid(cfg.dim, cfg.n, cfg.half_length)
    phi = gaussian_state(grid, cfg.width, sigma=base, model=Model.DIRECT)
    report = interaction_picture_continuity(phi, base, nus, cfg.dt, cfg.times())
    rows = [(r["nu"], abs(r["nu"] - base), r["sup"], r["t_at_sup"])
            for r in report["rows"]]
    sat_rows = []
    for r in report["rows"]:
        sups = [d["sigma_norm"] for d in r["diffs"]]
        # saturation: doubling the dyadic time range barely moves the sup
        sup_half, sup_full = max(sups[:-1]), max(sups)
        sat_rows.append((r["nu"], sup_half, sup_full,
                         abs(sup_full - sup_half) / max(sup_full, 1e-300)))
    return {
        "sup_difference.csv": (("nu", "gap", "sup_sigma_norm", "t_at_sup"), rows),
        "saturation.csv": (("nu", "sup_half_range", "sup_full_range",
                            "relative_change"), sat_rows),
        "fit.csv": (("sigma", "theta_hat"), [(base, report["theta_hat"])]),
    }


def _analyze_global_interaction(cfg: ExperimentConfig, out_dir: str):
    rows = _rows(out_dir, "sup_difference.csv")
    sat = _rows(out_dir, "saturation.csv")
    fit = _rows(out_dir, "fit.csv")
    theta = fit[0][1]
    ordered = sorted(rows, key=lambda r: r[1])
    monotone = all(a[2] <= b[2] + 1e-12 for a, b in zip(ordered, ordered[1:]))
    saturated = max(r[3] for r in sat)
    return [
        _verdict("global/continuity-order", 0.9 <= theta <= 1.1,
                 f"theta_hat = {theta:.3f}"),
        _verdict("global/monotone-in-gap", monotone,
                 "sup nondecreasing in |nu - sigma|"),
        _verdict("global/sup-saturated", saturated <= 0.05,
                 f"relative sup/final gap {saturated:.3e}"),
    ]


def _run_scattering(cfg: ExperimentConfig):
    grid = make_grid(cfg.dim, cfg.n, cfg.half_length)
    threshold = strauss_exponent(cfg.dim)
    rows = []
    defect_rows = []
    for s in cfg.sigmas:
        phi = gaussian_state(grid, cfg.width, sigma=s, model=Model.DIRECT)
        if s > threshold:
            state, diag = scattering_map(phi, s, cfg.dt, cfg.t0,
                                         n_cadences=cfg.n_times)
            hist = state.residual_history
            converged = state.converged
            for i, d in enumerate(diag["defects"]):
                defect_rows.append((s, i, d))
        else:
            # long-range control: forward run only, extraction must stall
            run = evolve(phi, cfg.dt, cfg.times())
            out = extract_asymptotic(run)
            hist, converged = out.residual_history, out.converged
        for i, r in enumerate(hist):
            rows.append((s, i, cfg.t0 * 2**i, r, converged))
    return {
        "residuals.csv": (("sigma", "cadence", "t", "residual", "converged"), rows),
        "refinement.csv": (("sigma", "sweep", "defect"), defect_rows),
    }


def _analyze_scattering(cfg: ExperimentConfig, out_dir: str):
    rows = _rows(out_dir, "residuals.csv")
    threshold = strauss_exponent(cfg.dim)
    verdicts = []
    for s in sorted({r[0] for r in rows}):
        hist = [r[3] for r in rows if r[0] == s]
        conv = bool(rows[[r[0] for r in rows].index(s)][4])
        decays = sum(b < a for a, b in zip(hist, hist[1:]))
        if s > threshold:
            verdicts.append(_verdict(
                f"scattering/short-range-sigma={s:g}",
                conv and decays >= min(3, len(hist) - 1),
                f"residuals {['%.2e' % h for h in hist]}"))
        else:
            verdicts.append(_verdict(
                f"scattering/long-range-stall-sigma={s:g}", not conv,
                f"residuals {['%.2e' % h for h in hist]} (stall expected)"))
    return verdicts


def _run_uniform_w1(cfg: ExperimentConfig):
    base, nus = cfg.sigmas[0], cfg.sigmas[1:]
    grid = make_grid(cfg.dim, cfg.n, cfg.half_length)
    times = cfg.times()
    starts = [gaussian_state(grid, cfg.width, sigma=s, model=Model.DIRECT_LENS)
              for s in cfg.sigmas]
    ref, *runs = ([density_from_field(f) for f in run]
                  for run in evolve(starts, cfg.dt, times))
    w_rows, sup_rows = [], []
    for nu, run in zip(nus, runs):
        ws = [w1_1d(a, b) for a, b in zip(run, ref)]
        for t, w in zip(times, ws):
            w_rows.append((nu, t, w))
        i_sup = max(range(len(ws)), key=ws.__getitem__)
        sup_rows.append((nu, abs(nu - base), ws[i_sup], times[i_sup]))
    return {
        "w1_trace.csv": (("nu", "t", "w1"), w_rows),
        "sup_w1.csv": (("nu", "gap", "sup_w1", "t_at_sup"), sup_rows),
    }


def _analyze_uniform_w1(cfg: ExperimentConfig, out_dir: str):
    sup_rows = _rows(out_dir, "sup_w1.csv")
    by_gap = {}
    for nu, gap, sup, t_at in sup_rows:
        by_gap.setdefault(round(gap, 12), []).append(sup)
    gaps = sorted(by_gap)
    means = [float(np.mean(by_gap[g])) for g in gaps]
    monotone = all(a <= b + 1e-15 for a, b in zip(means, means[1:]))
    # "bounded sup time" at desk scale: the W1 traces saturate, i.e. the
    # running sup moves by < 5% over the final dyadic octave
    trace = _rows(out_dir, "w1_trace.csv")
    creep = 0.0
    for nu in sorted({r[0] for r in trace}):
        ws = [r[2] for r in trace if r[0] == nu]
        sup_prev, sup_full = max(ws[:-1]), max(ws)
        creep = max(creep, (sup_full - sup_prev) / max(sup_full, 1e-300))
    return [
        _verdict("uniform-w1/vanishing-with-gap", monotone,
                 f"mean sup_t W1 by gap {dict(zip(gaps, means))}"),
        _verdict("uniform-w1/sup-saturates", creep <= 0.05,
                 f"running sup moved {creep:.2%} over the final octave"),
    ]


def _run_log_limit_local(cfg: ExperimentConfig):
    grid = make_grid(cfg.dim, cfg.n, cfg.half_length)
    phi0 = gaussian_state(grid, cfg.width, sigma=0.0, model=Model.RESCALED)
    times = cfg.times()
    # the log flow is the sigma = 0 row of the rescaled stack
    ref, *runs = evolve([phi0, *(phi0.with_tags(sigma=s) for s in cfg.sigmas)], cfg.dt, times)
    rows = []
    for s, run in zip(cfg.sigmas, runs):
        sup = 0.0
        for t, a, b in zip(times, run, ref):
            sup = max(sup, l2_distance(a, b))
            rows.append((s, t, l2_distance(a, b), sup))
    # fit log(sup(T)) = log(C1 sigma) + C0 T per sigma; C0 from the T-slope
    fits = []
    for s in cfg.sigmas:
        ts = [r[1] for r in rows if r[0] == s]
        sups = [max(r[3], 1e-300) for r in rows if r[0] == s]
        c0, logc1s = np.polyfit(ts, np.log(sups), 1)
        fits.append((s, float(c0), float(math.exp(logc1s) / s)))
    return {
        "difference.csv": (("sigma", "t", "l2_diff", "running_sup"), rows),
        "fit.csv": (("sigma", "c0", "c1"), fits),
    }


def _analyze_log_limit_local(cfg: ExperimentConfig, out_dir: str):
    rows = _rows(out_dir, "difference.csv")
    fits = _rows(out_dir, "fit.csv")
    c0s = [f[1] for f in fits]
    c0_mid = float(np.median(c0s))
    stable = all(abs(c - c0_mid) <= 0.2 * max(abs(c0_mid), 1e-12) + 1e-12 for c in c0s)
    t_final = max(r[1] for r in rows)
    finals = sorted((r[0], r[3]) for r in rows if r[1] == t_final)
    ratios = [f / s for s, f in finals]
    linear = max(ratios) <= 3.0 * min(ratios) if ratios else False
    return [
        _verdict("log-limit/rate-linear-in-sigma", linear,
                 f"sup/sigma at T spans {min(ratios):.3g}..{max(ratios):.3g}"),
        _verdict("log-limit/exponential-envelope-stable", stable,
                 f"fitted C0 per sigma {c0s} (median {c0_mid:.3f})"),
    ]


def _run_log_limit_global(cfg: ExperimentConfig):
    grid = make_grid(cfg.dim, cfg.n, cfg.half_length)
    times = cfg.times()
    starts = [gaussian_state(grid, cfg.width, sigma=s, model=Model.RESCALED_LENS)
              for s in (0.0, *cfg.sigmas)]
    log_run, *runs = evolve(starts, cfg.dt, times)
    ref = [density_from_field(f) for f in log_run]
    w_rows, sup_rows, pe_rows = [], [], []
    for s, run in zip(cfg.sigmas, runs):
        envelope = TauEnvelope(s, cfg.dim)
        ws = []
        for f, rho0, t in zip(run, ref, times):
            env = envelope.state(f.time)
            w = w1_1d(density_from_field(f), rho0)
            ws.append(w)
            w_rows.append((s, t, w))
            pe = pseudo_energy(f, env)
            pe_rows.append((s, t, env.tau, pe.kinetic, pe.confinement,
                            pe.nonlinear_plus, pe.nonlinear_minus, pe.total,
                            env.tau ** (cfg.dim * s) * pe.total))
        sup_rows.append((s, max(ws)))
    return {
        "w1_trace.csv": (("sigma", "t", "w1_to_log"), w_rows),
        "sup_w1.csv": (("sigma", "sup_w1"), sup_rows),
        "pseudo_energy.csv": (("sigma", "t", "tau", "kinetic", "confinement",
                               "nl_plus", "nl_minus", "total", "weighted"), pe_rows),
    }


def _analyze_log_limit_global(cfg: ExperimentConfig, out_dir: str):
    sup_rows = _rows(out_dir, "sup_w1.csv")
    pe_rows = _rows(out_dir, "pseudo_energy.csv")
    ordered = sorted(sup_rows)
    monotone = all(a[1] <= b[1] + 1e-15 for a, b in zip(ordered, ordered[1:]))
    verdicts = [_verdict("log-limit-global/sup-w1-monotone", monotone,
                         f"sup_t W1 by sigma {ordered}")]
    for s in sorted({r[0] for r in pe_rows}):
        weighted = [r[8] for r in pe_rows if r[0] == s]
        mono = all(b <= a + 1e-8 * max(abs(a), 1.0)
                   for a, b in zip(weighted, weighted[1:]))
        bounded = max(abs(r[7]) for r in pe_rows if r[0] == s) < 1e6
        verdicts.append(_verdict(
            f"log-limit-global/lyapunov-sigma={s:g}", mono and bounded,
            f"tau^a E at checkpoints {['%.5g' % w for w in weighted]}"))
    return verdicts


def _run_gaussian_profile(cfg: ExperimentConfig):
    grid = make_grid(cfg.dim, cfg.n, cfg.half_length)
    phi = gaussian_state(grid, cfg.width, sigma=0.0, model=Model.RESCALED_LENS)
    gamma = gaussian_gamma(grid)
    times = cfg.times()
    envelope = TauEnvelope(0.0, cfg.dim)
    rows = []
    run = evolve(phi, cfg.dt, times)
    for f, t in zip(run, times):
        w = w1_1d(density_from_field(f), gamma, dilation=PROFILE_DILATION)
        rows.append((t, envelope.state(f.time).tau, w,
                     w * math.sqrt(math.log(t))))
    return {"w1_gamma.csv": (("t", "tau", "w1", "w1_sqrt_log_t"), rows)}


def _analyze_gaussian_profile(cfg: ExperimentConfig, out_dir: str):
    rows = _rows(out_dir, "w1_gamma.csv")
    ws = [r[2] for r in rows]
    decreasing = all(b < a for a, b in zip(ws, ws[1:]))
    ts = [r[0] for r in rows]
    a_fit = float(np.mean([w * math.sqrt(math.log(t)) for t, w in zip(ts, ws)]))
    resid = max(abs(w - a_fit / math.sqrt(math.log(t))) / max(w, 1e-300)
                for t, w in zip(ts, ws))
    return [
        _verdict("gaussian-profile/w1-decreasing", decreasing,
                 f"W1(rho_0, Gamma) trace {['%.3e' % w for w in ws]}"),
        _verdict("gaussian-profile/inverse-sqrt-log-fit", resid <= 0.25,
                 f"fit a = {a_fit:.4g}, max relative residual {resid:.3f}"),
    ]


def _run_sobolev_growth(cfg: ExperimentConfig):
    grid = make_grid(cfg.dim, cfg.n, cfg.half_length)
    phi = gaussian_state(grid, cfg.width, sigma=0.0, model=Model.RESCALED_LENS)
    times = cfg.times()
    envelope = TauEnvelope(0.0, cfg.dim)
    rows = []
    run = evolve(phi, cfg.dt, times)
    for f, t in zip(run, times):
        env = envelope.state(f.time)
        # direct-variable gradient norm, evaluated without leaving lens variables
        h1_sq = direct_gradient_norm_sq(f, env)
        rows.append((t, env.tau, h1_sq, h1_sq / math.log(t)))
    return {"h1_growth.csv": (("t", "tau", "h1_sq", "h1_sq_over_log_t"), rows)}


def _analyze_sobolev_growth(cfg: ExperimentConfig, out_dir: str):
    rows = _rows(out_dir, "h1_growth.csv")
    tail = [r[3] for r in rows if r[0] >= rows[len(rows) // 2][0]]
    mid = float(np.median(tail))
    stable = all(abs(r - mid) <= 0.25 * abs(mid) for r in tail)
    return [_verdict("sobolev-growth/log-rate", stable,
                     f"h1^2/ln t over the last decades {['%.4g' % r for r in tail]}")]


# name -> (runner, analyzer, default config fields), in the order `nlslab list` shows
_EXPERIMENTS = {
    "local-continuity": (
        _run_local_continuity, _analyze_local_continuity,
        dict(sigmas=(0.8, 0.81, 0.82, 0.84), n=256, half_length=20.0, dt=2e-3, width=1.0,
             t0=0.5, n_times=3)),
    "global-interaction-picture": (
        _run_global_interaction, _analyze_global_interaction,
        dict(sigmas=(1.5, 1.54, 1.6, 1.7), n=2048, half_length=160.0, dt=5e-3, t0=2.0,
             n_times=4)),
    "scattering-continuity": (
        _run_scattering, _analyze_scattering,
        dict(sigmas=(1.5, 0.8), n=2048, half_length=160.0, dt=5e-3, t0=4.0, n_times=4)),
    "uniform-w1": (
        _run_uniform_w1, _analyze_uniform_w1,
        dict(sigmas=(0.8, 0.76, 0.78, 0.82, 0.84), n=512, half_length=30.0, dt=1e-3, t0=1.0,
             n_times=11)),
    "log-limit-local": (
        _run_log_limit_local, _analyze_log_limit_local,
        dict(sigmas=(0.05, 0.02, 0.01), n=256, half_length=20.0, dt=1e-3, t0=1.0, n_times=3)),
    "log-limit-global": (
        _run_log_limit_global, _analyze_log_limit_global,
        dict(sigmas=(0.1, 0.05, 0.02, 0.01), n=512, half_length=30.0, dt=1e-3, t0=1.0,
             n_times=8)),
    "ode-suite": (
        _run_ode_suite, _analyze_ode_suite,
        dict(sigmas=(0.1, 0.01, 0.001), t0=1.0, n_times=21)),
    "gaussian-profile": (
        _run_gaussian_profile, _analyze_gaussian_profile,
        dict(sigmas=(0.0,), n=512, half_length=30.0, dt=1e-3, width=3.0, t0=10.0, n_times=11)),
    "sobolev-growth": (
        _run_sobolev_growth, _analyze_sobolev_growth,
        dict(sigmas=(0.0,), n=512, half_length=30.0, dt=1e-3, width=3.0, t0=10.0, n_times=11)),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


# ---------------------------------------------------------------- orchestration

def _now() -> str:
    return _time.strftime("%Y-%m-%dT%H:%M:%S", _time.gmtime())


def run(config: ExperimentConfig, out_dir: str) -> RunRecord:
    """Execute one experiment; artifacts land in out_dir, record last."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise NlsLabError(f"cannot create output directory: {exc}") from None
    started = _now()
    record_path = os.path.join(out_dir, "record.json")
    try:
        runner, analyzer, _ = _EXPERIMENTS[config.name]
        tables = runner(config)
        csv_paths = {}
        for name, (header, rows) in sorted(tables.items()):
            csv_paths[name] = write_csv(os.path.join(out_dir, name), header, rows)
        verdicts = analyzer(config, out_dir)
        record = RunRecord(
            config=json.loads(config.to_json()), config_hash=config.digest,
            code_version=__version__, started=started, finished=_now(),
            status="complete", stage=None, error=None,
            csv_paths={k: os.path.basename(v) for k, v in csv_paths.items()},
            csv_hashes={k: _file_sha256(v) for k, v in csv_paths.items()},
            verdicts=verdicts)
    except Exception as exc:  # any failure replaces an earlier run's record
        error = str(exc) if isinstance(exc, NlsLabError) else traceback.format_exc()
        record = RunRecord(
            config=json.loads(config.to_json()), config_hash=config.digest,
            code_version=__version__, started=started, finished=_now(),
            status="failed", stage=type(exc).__name__, error=error,
            csv_paths={}, csv_hashes={}, verdicts=[])
    _atomic_write(record_path, record.to_json().encode())
    return record


def sweep(base: ExperimentConfig, axis: str, values, out_dir: str) -> list:
    """Independent runs varying one parameter; per-run failures are isolated."""
    field_map = {"sigma": "sigmas", "dt": "dt", "N": "n", "L": "half_length"}
    if axis not in field_map:
        raise GridError(f"sweep axis must be one of {sorted(field_map)}, got {axis!r}")

    def config(v):
        if axis == "sigma":   # v replaces sigmas[0]; a gap-fitting experiment keeps its gaps
            gaps = [nu - base.sigmas[0] for nu in base.sigmas] if base.name in _GAP_FITS else [0]
            return replace(base, sigmas=tuple(v + gap for gap in gaps))
        return replace(base, **{field_map[axis]: v})

    # every config is built, and so validated, before the first run starts
    configs = [config(v) for v in values]
    return [run(cfg, os.path.join(out_dir, f"{axis}-{i:03d}")) for i, cfg in enumerate(configs)]


def verify(out_dir: str) -> dict:
    """Re-evaluate a stored run from its CSVs alone; flags any tampering."""
    record = RunRecord.load(os.path.join(out_dir, "record.json"))
    if record.status != "complete":
        return {"ok": False, "status": record.status, "error": record.error,
                "verdicts": [], "tampered": [], "mismatches": []}
    cfg = ExperimentConfig.from_json(json.dumps(record.config))
    # the stored dict's own digest also covers older records with since-dropped keys
    stored_digest = hashlib.sha256(json.dumps(record.config, sort_keys=True,
                                              separators=(",", ":")).encode()).hexdigest()
    if record.config_hash not in (stored_digest, cfg.digest):
        raise VerificationError(f"config in {out_dir} does not match its config_hash")
    tampered = []
    for name in record.csv_paths:
        path = os.path.join(out_dir, record.csv_paths[name])
        if not os.path.isfile(path):
            raise VerificationError(f"missing artifact {path}")
        if _file_sha256(path) != record.csv_hashes[name]:
            tampered.append(name)
    try:
        verdicts = _EXPERIMENTS[cfg.name][1](cfg, out_dir)
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        # only a changed artifact (its hash says which) should fail to parse
        raise VerificationError(f"malformed artifact {', '.join(tampered) or '(none changed)'} "
                                f"in {out_dir}: {type(exc).__name__}: {exc}") from None
    # a check on one side only is a mismatch too: a stored verdict nothing re-derives
    stored = {v["check"]: v["passed"] for v in record.verdicts}
    fresh = {v["check"]: v["passed"] for v in verdicts}
    mismatches = [c for c in {**fresh, **stored} if stored.get(c) != fresh.get(c)]
    ok = not tampered and not mismatches and all(v["passed"] for v in verdicts)
    return {"ok": ok, "status": record.status, "verdicts": verdicts,
            "tampered": tampered, "mismatches": mismatches}
