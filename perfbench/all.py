"""Run every workload untraced and traced, and print all metrics with units.

    python3 perfbench/all.py [--seed N] [--seconds S]

Each of the six runs is one `run.py` invocation; the exit code is 0 only
when every run completed and every sweep was correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=200)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{name} trace={trace}: no result (exit {proc.returncode})")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= proc.returncode == 0 and result["correct"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:30s} {m['value']!r:>24} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
