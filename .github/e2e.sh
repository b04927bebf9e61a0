#!/usr/bin/env bash
# End-to-end cases of the nlslab command line: each exits 0 (every verdict passes), 1 (a
# verdict fails) or 2 (an execution error), never with a traceback.  To run it locally,
# with `nlslab` on PATH (pip install -e .), from the repository root:
#     RUNNER_TEMP=$(mktemp -d) bash .github/e2e.sh      # outputs: $RUNNER_TEMP/CASE.{out,err}
set -euo pipefail
T=${RUNNER_TEMP:?set RUNNER_TEMP to an empty scratch directory}
# check CODE CASE MUST MUST_NOT -- COMMAND...: fail, naming CASE, unless COMMAND exits CODE,
# neither stream holds Traceback or Warning, stderr has at most one line, some line matches
# the regex MUST and none MUST_NOT (empty: none).  Only nlslab's stderr lines begin with
# ERROR, so a MUST anchored at ^ERROR asks for exactly one stderr line
check() {
  local code=$1 case=$2 must=$3 must_not=$4 got=0 why=""
  [ "$5" = -- ] || { echo "check $case: no -- before the command"; exit 1; }
  shift 5
  "$@" > "$T/$case.out" 2> "$T/$case.err" || got=$?
  cat "$T/$case.out" "$T/$case.err"
  if [ "$got" -ne "$code" ]; then why="exit $got, expected $code"
  elif grep -qE "Traceback|Warning" "$T/$case.out" "$T/$case.err"; then why="a traceback or warning"
  elif [ "$(wc -l < "$T/$case.err")" -gt 1 ]; then why="more than one line on stderr"
  elif ! grep -qE -- "$must" "$T/$case.out" "$T/$case.err"; then why="no line matches $must"
  elif [ -n "$must_not" ] && grep -qE -- "$must_not" "$T/$case.out" "$T/$case.err"; then why="a line matches $must_not"
  fi
  [ -z "$why" ] || { echo "FAILED $case: $why"; exit 1; }
}
# config CASE JSON: the config file $T/CASE.json
config() { echo "$2" > "$T/$1.json"; }
# record CASE EDIT: a copy of the default local-continuity run whose record.json is
# changed by the Python statement EDIT on its parsed dict r
record() {
  cp -r "$T/local-continuity" "$T/$1"
  python3 -c "import json, sys; p = sys.argv[1]; r = json.load(open(p)); $2; json.dump(r, open(p, 'w'))" "$T/$1/record.json"
}
# the default verdicts global/sup-saturated and gaussian-profile/w1-decreasing fail as
# documented (ROADMAP), so those two runs exit 1 and every other one 0
expect() { case "$1" in global-interaction-picture|gaussian-profile) echo 1 ;; *) echo 0 ;; esac; }
ok='^(PASS|FAIL)  '; bad='^(TAMPERED|MISMATCH)'

names=$(nlslab list | cut -d: -f1); [ -n "$names" ]
for name in $names; do
  check "$(expect "$name")" "run-$name" '^record: ' '' -- nlslab run "$name" --out "$T/$name"
  check "$(expect "$name")" "verify-$name" "$ok" "$bad" -- nlslab verify --out "$T/$name"
done
# on one CPU evolve marches in one process the rows it splits across CPUs above, and every
# CSV is byte-identical.  The five cover the direct, rescaled (log-limit-local: sigma = 0
# and three sigma as one stack), rescaled-lens and direct-lens models
for name in global-interaction-picture log-limit-global log-limit-local local-continuity uniform-w1; do
  check "$(expect "$name")" "one-cpu-$name" '^record: ' '' -- \
    taskset -c 0 nlslab run "$name" --out "$T/one-cpu/$name"
  csvs=$(cd "$T/$name" && ls *.csv); [ -n "$csvs" ]
  for csv in $csvs; do cmp "$T/$name/$csv" "$T/one-cpu/$name/$csv"; done
done
# a stored verdict that no CSV re-derives is a mismatch; run writes bare CSV file names,
# so an entry that names a directory is a malformed record
record made-up 'r["verdicts"].append({"check": "local/made-up", "passed": False})'
check 1 made-up '^MISMATCH  local/made-up' '' -- nlslab verify --out "$T/made-up"
record dir-entry 'r["csv_paths"][next(iter(r["csv_paths"]))] = "."'
check 2 dir-entry '^ERROR: malformed record' '' -- nlslab verify --out "$T/dir-entry"
# a directory where run writes its record.json: run cannot write it, verify finds no
# record, and in a sweep only that run fails
mkdir -p "$T/record-dir/record.json" "$T/sw/sigma-000/record.json"
check 2 record-dir-run '^ERROR' '' -- nlslab run ode-suite --out "$T/record-dir"
check 2 record-dir-verify '^ERROR' '' -- nlslab verify --out "$T/record-dir"
check 2 sw '^sigma=0\.1: ERROR' '^sigma=0\.01: ERROR' -- \
  nlslab sweep ode-suite --axis sigma --values 0.1 0.01 --out "$T/sw"
check 0 sw-verify "$ok" "$bad" -- nlslab verify --out "$T/sw/sigma-001"
# N, sigma (local-continuity keeps its gaps: 0.3, 0.31, 0.32, 0.34) and dt (a plain
# float in evolve) sweeps run and verify
check 0 n-sweep-ok '^N=512\.0: PASS' ': (FAIL|ERROR)' -- \
  nlslab sweep local-continuity --axis N --values 256 512 --out "$T/sweep"
check 0 sigma-sweep '^sigma=0\.3: PASS' '' -- \
  nlslab sweep local-continuity --axis sigma --values 0.3 --out "$T/sigma-sweep"
check 0 dt-sweep '^dt=0\.002: PASS' ': (FAIL|ERROR)' -- \
  nlslab sweep local-continuity --axis dt --values 4e-3 2e-3 --out "$T/dt-sweep"
for out in sweep/N-000 sweep/N-001 sigma-sweep/sigma-000 dt-sweep/dt-000 dt-sweep/dt-001; do
  check 0 "verify-${out/\//-}" "$ok" "$bad" -- nlslab verify --out "$T/$out"
done
# a sweep validates every config before its first run, so none starts: a negative dt
# (argparse reads -1e-3 as an option), sigma = 1.0 below the Strauss exponent, N = 100
check 2 dt-bad '^ERROR: invalid config' '' -- \
  nlslab sweep local-continuity --axis dt --values 2e-3 -0.001 --out "$T/dt-bad"
check 2 gip-sweep '^ERROR: invalid config' '' -- \
  nlslab sweep global-interaction-picture --axis sigma --values 1.0 --out "$T/gip-sweep"
check 2 n-sweep '^ERROR: invalid config' '' -- \
  nlslab sweep log-limit-local --axis N --values 256 100 --out "$T/n-sweep"
for out in dt-bad gip-sweep n-sweep; do [ ! -e "$T/$out" ] || { echo "FAILED $out: a run directory"; exit 1; }; done
# ode-t1: a last checkpoint at t = 1 divides by sqrt(ln 1).  ode-unit: s_sigma(t) is nan
# at d sigma = 1, and three checkpoints from t = 1 miss the log asymptote.  lll-tiny: a
# sigma = 1e-8 row is regularised as the sigma = 0 row is.  ode-tiny: 1 - tau^{-d sigma}
# rounds to 0.  ode-huge: d sigma is past the envelope table's reach.  sc-stall: residuals
# that do not decay are a failed verdict, which verify re-derives.  overflow: rho^500
# overflows in the first step.  sc-two: four cadences judge convergence.  dt-tiny: 5e11
# steps to the first checkpoint, past the bound on one evolve call
config ode-t1 '{"name": "ode-suite", "sigmas": [0.1], "t0": 0.25, "n_times": 3}'
config ode-unit '{"name": "ode-suite", "sigmas": [1.0], "t0": 1.0, "n_times": 3}'
config lll-tiny '{"name": "log-limit-local", "sigmas": [1e-8, 0.02, 0.01]}'
config ode-tiny '{"name": "ode-suite", "sigmas": [1e-20], "t0": 1.0, "n_times": 3}'
config ode-huge '{"name": "ode-suite", "sigmas": [1e70], "t0": 0.5, "n_times": 3}'
config sc-stall '{"name": "scattering-continuity", "sigmas": [1.5], "n": 128, "half_length": 20.0, "n_times": 4, "t0": 0.5}'
config overflow '{"name": "local-continuity", "sigmas": [500.0, 500.01, 500.02, 500.04], "n": 256, "half_length": 5.0, "width": 0.1, "t0": 0.01, "n_times": 1}'
config sc-two '{"name": "scattering-continuity", "sigmas": [1.5, 0.8], "n": 256, "n_times": 2}'
config dt-tiny '{"name": "local-continuity", "sigmas": [0.8, 0.81, 0.82, 0.84], "dt": 1e-12, "t0": 0.5}'
run_config() { nlslab run --config "$T/$1.json" --out "$T/$1"; }
check 2 ode-t1 '^ERROR: invalid config' '' -- run_config ode-t1
check 1 ode-unit '^FAIL  ' '' -- run_config ode-unit
check 0 lll-tiny '^record: ' "$bad|^FAIL" -- run_config lll-tiny
check 1 ode-tiny '^FAIL  ' '' -- run_config ode-tiny
check 2 ode-huge '^ERROR \(EnvelopeError\)' '' -- run_config ode-huge
check 1 sc-stall '^FAIL  scattering/short-range-sigma=1\.5' '' -- run_config sc-stall
check 1 sc-stall-verify "$ok" "$bad" -- nlslab verify --out "$T/sc-stall"
check 2 overflow-split '^ERROR \(BlowUpError\)' '' -- run_config overflow
check 2 overflow-one '^ERROR \(BlowUpError\)' '' -- taskset -c 0 nlslab run --config "$T/overflow.json" --out "$T/overflow-one"
check 2 sc-two '^ERROR: invalid config' '' -- run_config sc-two
check 2 dt-tiny '^ERROR \(GridError\): more than 1000000 steps' '' -- run_config dt-tiny
echo "all end-to-end cases pass"
