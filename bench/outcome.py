"""Whether a run's outputs are right: run status, verify, headline numbers.

A run fails if it raises, if its record says ``status: failed``, or if
``verify`` finds a tampered artifact, a verdict it re-derives
differently, or a different number of verdicts than the record stores.
A failed verdict is not a failed run: it is counted on its own, so a
known scientific defect shows without hiding the runs that worked.

Headline numbers are read from the CSVs and compared with reference
values taken at the seed commit (``reference.json``).  Their drift is
printed with its size and is not a metric.
"""
from __future__ import annotations

import csv
import os

# |value - ref| <= REL_TOL * |ref| + ABS_TOL.  Loose enough for a change
# that only reorders floating-point arithmetic, tight enough to catch a
# change in what is computed.
REL_TOL = 1e-6
ABS_TOL = 1e-12
# First-integral residuals sit at roundoff; they are held to the
# verdict's own tolerance instead of to their seed values.
RESIDUAL_ABS_TOL = 1e-10


def _rows(out_dir: str, name: str) -> list[list[float]]:
    with open(os.path.join(out_dir, name), newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [[float(c) for c in row] for row in reader]


def _last_per_key(rows, col):
    """{row[0]: row[col]} for the last row of each key (the latest time)."""
    return {r[0]: r[col] for r in rows}


def _ode_suite(out_dir):
    env = _rows(out_dir, "envelope.csv")
    radial = _rows(out_dir, "radial.csv")
    out = {f"tau@t_max[sigma={s:g}]": v for s, v in _last_per_key(env, 2).items()}
    out.update({f"scaled_ratio@t_max[sigma={s:g}]": v for s, v in
                _last_per_key(_rows(out_dir, "asymptotics.csv"), 3).items()})
    for s, _, half, _, full in _rows(out_dir, "difference_bound.csv"):
        out[f"sup_half[sigma={s:g}]"] = half
        out[f"sup_full[sigma={s:g}]"] = full
    out["r@t_max"] = radial[-1][1]
    out["log_ratio"] = _rows(out_dir, "log_asymptote.csv")[0][2]
    out["residual.max_abs"] = max(max(abs(r[5]) for r in env),
                                  max(abs(r[3]) for r in radial))
    return out


def _global_interaction(out_dir):
    out = {"theta_hat": _rows(out_dir, "fit.csv")[0][1]}
    for nu, _, sup, _ in _rows(out_dir, "sup_difference.csv"):
        out[f"sup_sigma_norm[nu={nu:g}]"] = sup
    for nu, _, _, change in _rows(out_dir, "saturation.csv"):
        out[f"relative_change[nu={nu:g}]"] = change
    return out


def _log_limit_global(out_dir):
    out = {f"sup_w1[sigma={s:g}]": w for s, w in _rows(out_dir, "sup_w1.csv")}
    pe = _rows(out_dir, "pseudo_energy.csv")
    out.update({f"weighted_pe@t_max[sigma={s:g}]": v
                for s, v in _last_per_key(pe, 8).items()})
    out.update({f"tau@t_max[sigma={s:g}]": v for s, v in _last_per_key(pe, 2).items()})
    return out


HEADLINES = {
    "ode-suite": _ode_suite,
    "global-interaction-picture": _global_interaction,
    "log-limit-global": _log_limit_global,
}


def headline(workload: str, out_dir: str) -> dict:
    return HEADLINES[workload](out_dir)


def compare(values: dict, reference: dict) -> list[dict]:
    """One row per reference key: value, reference, drift and whether it holds."""
    rows = []
    for key, ref in sorted(reference.items()):
        value = values.get(key)
        if value is None:
            rows.append({"key": key, "value": None, "ref": ref, "drift": None, "ok": False})
            continue
        diff = abs(value - ref)
        if key.startswith("residual."):
            ok = abs(value) <= RESIDUAL_ABS_TOL
        else:
            ok = diff <= REL_TOL * abs(ref) + ABS_TOL
        rows.append({"key": key, "value": value, "ref": ref,
                     "drift": diff / abs(ref) if ref else diff, "ok": ok})
    extra = sorted(set(values) - set(reference))
    rows.extend({"key": k, "value": values[k], "ref": None, "drift": None, "ok": False}
                for k in extra)
    return rows


def assess(record, report) -> dict:
    """Classify one run from its RunRecord and the dict ``verify`` returned."""
    reasons = []
    if record.status != "complete":
        reasons.append(f"status {record.status}: {record.error}")
    if report.get("tampered"):
        reasons.append(f"tampered {report['tampered']}")
    if report.get("mismatches"):
        reasons.append(f"verdicts re-derived differently {report['mismatches']}")
    derived = report.get("verdicts", [])
    if record.status == "complete" and len(derived) != len(record.verdicts):
        reasons.append(f"{len(derived)} verdicts re-derived, {len(record.verdicts)} stored")
    return {"failed": bool(reasons), "reasons": reasons,
            "verdicts": len(record.verdicts),
            "verdicts_failed": sum(not v["passed"] for v in record.verdicts),
            "failed_checks": [v["check"] for v in record.verdicts if not v["passed"]]}


def ratios(assessments: list[dict]) -> tuple[float, float]:
    """(failed runs / runs, failed verdict checks / verdict checks)."""
    runs = len(assessments)
    fail_ratio = sum(a["failed"] for a in assessments) / runs if runs else 1.0
    checks = sum(a["verdicts"] for a in assessments)
    verdict_fail_ratio = (sum(a["verdicts_failed"] for a in assessments) / checks
                          if checks else 1.0)
    return fail_ratio, verdict_fail_ratio
