"""One workload run (or one set-up probe) in a fresh process.

    python3 bench/worker.py --workload NAME --spawned T [--out DIR] [--trace] [--pace]

``--spawned`` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so ``setup_s`` covers interpreter start, ``import
nlslab`` and building the default config.  Without ``--out`` the process
stops there (a set-up probe).  With it, the process runs the experiment
through ``nlslab.experiments.run``, re-checks it with ``verify`` and reads
its headline numbers.  With ``--trace`` it records spans around the calls
into each module and writes them to ``DIR/spans.csv``.  With ``--pace``
it samples host speed during the run (``pace.py``).

The last line of standard output is one JSON object with what was measured.
"""
import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

import outcome
import pace
import tracing


def measure(workload: str, out_dir: str, run, verify, cfg, pacer=None) -> dict:
    """Time run(cfg, out_dir) and verify(out_dir); assess what they wrote.

    With a ``pacer`` the run is timed under it: ``run_s`` is the time
    outside its samples, ``stolen_s`` the steal in it, and ``paced_s`` the
    rest at reference speed.
    """
    result, raised = {}, None
    with pacer or contextlib.nullcontext():
        start, cpu = time.perf_counter(), time.process_time()
        try:
            record = run(cfg, out_dir)
        except Exception:  # the run is counted failed, with its traceback
            raised = traceback.format_exc()
        end = time.perf_counter()
        result["cpu_s"] = time.process_time() - cpu
    if pacer is None:
        result["run_s"] = end - start
    else:
        result["run_s"], result["stolen_s"], result["paced_s"] = pace.paced(
            start, end, pacer.samples)
        result["speed"] = pace.speed(pacer.samples)
    try:
        if raised is not None:
            raise RuntimeError(raised)
        start = time.perf_counter()
        report = verify(out_dir)
        result["verify_s"] = time.perf_counter() - start
        result["assessment"] = outcome.assess(record, report)
        result["headline"] = (outcome.headline(workload, out_dir)
                              if record.status == "complete" else {})
    except Exception:
        result["assessment"] = {"failed": True,
                                "reasons": [raised or traceback.format_exc()],
                                "verdicts": 0, "verdicts_failed": 0, "failed_checks": []}
        result["headline"] = {}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--pace", action="store_true")
    args = parser.parse_args(argv)

    import nlslab
    from nlslab.experiments import default_config, run, verify
    cfg = default_config(args.workload)
    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned,
              "nlslab_file": os.path.abspath(nlslab.__file__)}
    if args.out is None:
        print(json.dumps(result))
        return 0

    if not args.trace:
        result.update(measure(args.workload, args.out, run, verify, cfg,
                              pace.Pacer() if args.pace else None))
    else:
        from nlslab import envelope, experiments, grid, propagators, scattering
        modules = {"experiments": experiments, "propagators": propagators,
                   "envelope": envelope, "scattering": scattering, "grid": grid}
        tracer = tracing.Tracer()
        with tracing.installed(tracer, modules) as absent:
            result.update(measure(args.workload, args.out,
                                  tracer.wrap(tracing.ROOT_SPAN, run),
                                  tracer.wrap("experiments.verify", verify), cfg))
        result["absent"] = absent
        result["trace"] = tracing.summarize(tracer)
        tracer.write(os.path.join(args.out, "spans.csv"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
