"""stmfem benchmark: convergence-sweep time, set-up time and memory, per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (stmfem is imported from ./src).
Each measurement runs in a child process (worker.py) with BLAS/OpenMP
pinned to one thread.  --trace 0 prints the end-to-end metrics of untraced
sweeps; --trace 1 prints the per-layer metrics of traced sweeps, each paired
with an untraced one for the tracing overhead.  The last line of stdout is
the result JSON; the line before it records the environment.  See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_WARMUP = 1       # discarded: fills the bytecode and disk caches
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170     # the whole run, set-up probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (stdlib only)


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def worker_cmd(mode, args):
    return [sys.executable, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed)]


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S} s exceeded")
    return left


def setup_seconds(args, deadline):
    """Process start to ready-to-sweep, as seen from outside the process."""
    samples = []
    for _ in range(SETUP_WARMUP + SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(worker_cmd("setup", args), env=child_env(),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            try:
                proc.wait(timeout=remaining(deadline))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not line.startswith('{"ready": true}'):
            raise BenchError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(ready)
    return samples[SETUP_WARMUP:]


def run_sweeps(args, deadline):
    cmd = worker_cmd("sweep", args) + [
        "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(ROOT / ".perfbench" /
                               f"spans_{args.workload}_seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining(deadline))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError("sweep worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"sweep worker failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stmfem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "stmfem" / "__init__.py").is_file():
        sys.exit(f"no stmfem sources under {ROOT / 'src'}; run from a checkout")

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setup = setup_seconds(args, deadline) if not args.trace else []
        result = run_sweeps(args, deadline)
    except BenchError as exc:
        sys.exit(f"benchmark failed: {exc}")

    sweeps = result["sweep_s"]
    info = {
        "workload": args.workload, "seed": args.seed,
        "spec": workloads.WORKLOADS[args.workload],
        "check": result["check"],
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "sweep_samples": len(sweeps), "sweep_s_all": sweeps,
        **result["environment"],
    }
    if args.trace:
        traced = result["traced_sweep_s"]
        values = dict(result["layers"])
        values["trace.sweep_s"] = statistics.median(traced)
        values["trace.overhead_ratio"] = (values["trace.sweep_s"]
                                          / statistics.median(sweeps))
        info.update(traced_sweep_s_all=traced,
                    finest_level_steps=result["finest_level_steps"],
                    step_s_tail_percentile=result["tail_percentile"])
    else:
        values = {"sweep_s": statistics.median(sweeps),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        info.update(setup_samples=len(setup), setup_s_all=setup)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in declared}
    problems = result["problems"] + [
        f"metric {name} not measured"
        for name, metric in metrics.items() if metric["value"] is None]
    info["problems"] = problems[:20]
    print(json.dumps({"info": info}))
    correct = result["failed"] == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
