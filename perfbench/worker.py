"""Child process of the benchmark: set-up probe, timed sweeps, reference recording.

run.py starts it with PYTHONPATH set to the checkout's src/ and BLAS/OpenMP
pinned to one thread.  Modes:

  setup  --workload W --seed S   import stmfem, build the config and the
                                 manufactured solution, print "ready", exit
  sweep  --workload W --seed S --seconds N --trace 0|1 [--spans FILE]
                                 run_convergence repeatedly within N seconds
                                 (at least once); with --trace 1 each untraced
                                 sweep is followed by a traced one
  record                         write reference.json at the reference seed

The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
import scipy.sparse.linalg  # noqa: F401  (part of the import cost users pay)

import stmfem
from stmfem.assembly import CoefficientField
from stmfem.harness import ExperimentConfig, run_convergence
from stmfem.mms import mms_standard

import tracer as tracing
import workloads

REFERENCE_SEED = 1
SRC = Path(__file__).resolve().parent.parent / "src"


def build(name, seed):
    """What a user builds before sweeping: config and manufactured solution."""
    config = ExperimentConfig(seed=seed, **workloads.WORKLOADS[name])
    exact = mms_standard(CoefficientField.identity(), config.omega)
    return config, exact


def environment():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
    }


def timed_sweep(config, tracer=None):
    """One run_convergence call; returns (record or None, seconds, error)."""
    undo = tracing.install(tracer) if tracer is not None else None
    start = time.perf_counter()
    try:
        return run_convergence(config), time.perf_counter() - start, None
    except Exception:  # a failing sweep is counted, not fatal
        return None, time.perf_counter() - start, traceback.format_exc()
    finally:
        if undo is not None:
            undo()


def sweep_mode(args):
    reference = workloads.load_reference()
    config, _ = build(args.workload, args.seed)
    solver = config.solver
    untraced, traced, layers, problems = [], [], [], []
    attempted = failed = 0
    steps = tail = None
    spans = []

    def account(record, error):
        nonlocal attempted, failed
        attempted += 1
        found = [error] if error else workloads.check(
            args.workload, args.seed, record.report, reference)
        if found:
            failed += 1
            problems.extend(found)

    # run whole iterations while the next one is expected to end within
    # --seconds; the first always runs
    start = time.perf_counter()
    iterations = 0
    while True:
        iterations += 1
        record, seconds, error = timed_sweep(config)
        untraced.append(seconds)
        account(record, error)
        if args.trace:
            tr = tracing.Tracer()
            record, seconds, error = timed_sweep(config, tr)
            traced.append(seconds)
            account(record, error)
            if error is None:
                metrics, steps, tail = tracing.layer_metrics(tr, seconds)
                layers.append(metrics)
                silent = tracing.silent_layers(metrics, solver)
                if silent:
                    problems.append(f"traced layers recorded nothing: {silent}")
            spans.append(tr.spans)
        elapsed = time.perf_counter() - start
        if elapsed * (iterations + 1) / iterations > args.seconds:
            break

    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "sweep_s": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "check": ("reference" if workloads.uses_reference(
            args.workload, args.seed, reference) else "criterion-3 windows"),
        "environment": environment(),
    }
    if args.trace:
        out["traced_sweep_s"] = traced
        out["layers"] = {key: statistics.median(m[key] for m in layers)
                         for key in (layers[0] if layers else {})}
        out["finest_level_steps"] = steps
        out["tail_percentile"] = tail
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            Path(args.spans).write_text(json.dumps(spans))
    return out


def record_mode():
    reference = {"seed": REFERENCE_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        config, _ = build(name, REFERENCE_SEED)
        record = run_convergence(config)
        reference["workloads"][name] = workloads.report_values(record.report)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return {"recorded": str(workloads.REFERENCE_FILE)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "sweep", "record"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if Path(stmfem.__file__).resolve().parent != SRC / "stmfem":
        sys.exit(f"stmfem imported from {stmfem.__file__}, not from {SRC}")
    if args.mode == "setup":
        build(args.workload, args.seed)
        out = {"ready": True}
    elif args.mode == "sweep":
        out = sweep_mode(args)
    else:
        out = record_mode()
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
