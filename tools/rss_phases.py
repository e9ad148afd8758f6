"""Memory of one benchmark sweep, level by level and phase by phase.

    python3 tools/rss_phases.py --workload fine-mesh --seed 1 [--checkout DIR]

Runs one sweep of a `perfbench/workloads.py` workload in a child process
with BLAS/OpenMP at one thread, importing stmfem from DIR/src (default: this
checkout).  The child repeats `harness.run_convergence`'s level loop from
public calls and wraps nothing.  Per level it prints one line after `run()`
and one after the two error norms, with:

- `maxrss`: the process's peak RSS so far (`ru_maxrss`, MB of 2^20 bytes,
  as `perfbench` reports it);
- `traced`/`peak`: tracemalloc's current traced bytes and their peak
  within the phase (MiB);
- `rows`: the bytes of the coefficient arrays the solution holds (MiB),
  read from its list and tuple attributes, so checkouts that store the
  coefficients differently are measured alike.

After the sweep, tracemalloc stops and the sweep runs REPEATS more times
without the level lines, as the benchmark's worker repeats sweeps in one
process.  After every sweep k, the first included, one line
`sweep k maxrss X MB` gives the peak RSS so far: heap fragmentation can put
a later sweep's peak several MB above the first's.

tracemalloc's own bookkeeping counts in the RSS, so compare the RSS of two
checkouts with this tool only against each other.
"""

import argparse
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIB = 2.0**20
REPEATS = 2


def coefficient_bytes(solution):
    """Bytes of the arrays in a solution's list and tuple attributes: its
    coefficient rows and start values, in either storage layout (views
    count the bytes they show)."""
    def nbytes(value):
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, (list, tuple)):
            return sum(nbytes(item) for item in value)
        return 0
    return sum(nbytes(value) for value in vars(solution).values()
               if isinstance(value, (list, tuple)))


def maxrss_mb():
    """The process's peak RSS so far, MB of 2^20 bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def phase_line(level, phase, solution):
    """One printed line: peak RSS, traced memory and coefficient bytes."""
    current, peak = tracemalloc.get_traced_memory()
    return (f"L{level} {phase:<5} maxrss {maxrss_mb():7.1f} MB  traced "
            f"{current / MIB:7.1f} MiB  peak {peak / MIB:7.1f} MiB  rows "
            f"{coefficient_bytes(solution) / MIB:7.2f} MiB")


def sweep(workload, seed):
    """One sweep printing two lines per level, then REPEATS more, each
    sweep followed by the peak RSS so far (run in the child)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    from stmfem.assembly import CoefficientField
    from stmfem.harness import ExperimentConfig, build_level_mesh
    from stmfem.mms import error_q_V, error_u, mms_standard
    from stmfem.timeloop import ProblemData, run

    config = ExperimentConfig(seed=seed, **WORKLOADS[workload])
    exact = mms_standard(CoefficientField.identity(), config.omega)
    data = ProblemData(diffusion=CoefficientField.identity(),
                       initial_scalar=exact.initial_scalar(),
                       source=exact.source, final_time=config.final_time,
                       initial_flux=exact.initial_flux())

    def level_loop(printed):
        for level in config.levels():
            mesh = build_level_mesh(config, level)
            tracemalloc.reset_peak()
            solution = run(data, mesh, p=config.p, r=config.r,
                           n_steps=config.n_steps(level), solver=config.solver)
            if printed:
                print(phase_line(level, "run", solution), flush=True)
            tracemalloc.reset_peak()
            error_u(solution, exact)
            error_q_V(solution, exact)
            if printed:
                print(phase_line(level, "norms", solution), flush=True)
            del solution

    tracemalloc.start()
    level_loop(printed=True)
    tracemalloc.stop()
    for k in range(1, 2 + REPEATS):
        if k > 1:
            level_loop(printed=False)
        print(f"sweep {k} maxrss {maxrss_mb():7.1f} MB", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--checkout", default=str(ROOT),
                        help="source checkout whose src/ is measured")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sweep(args.workload, args.seed)
        return 0
    env = dict(os.environ, PYTHONPATH=str(Path(args.checkout) / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    command = [sys.executable, __file__, "--child", "--workload",
               args.workload, "--seed", str(args.seed)]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
