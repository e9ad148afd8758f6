"""Alternating benchmark pairs of the HEAD commit and the working tree.

    python3 tools/bench_pairs.py --workload fine-mesh --pairs 10 --seed 1 \\
        --seconds 30 [--trace 0|1]
    python3 tools/bench_pairs.py --summary BENCH_<commit>.json

Exports HEAD, the parent of the change, into a temporary directory with
`git archive` (removed afterwards) and runs `perfbench/run.py` in it and in
this checkout, working tree as it stands, in alternating pairs: pair i runs
the parent first when i is even and the change first when i is odd.  Every
run is appended to `BENCH_<short parent commit>.json` at the repo root as
soon as it ends, with its workload, seed, trace flag, pair, position in the
pair, the line count of the side's `src/stmfem/*.py` and the last two
stdout lines of run.py verbatim (the `{"info": ...}` line and the result
line), so repeated calls, for other seeds or workloads, add to one file.
A run that exceeds the time limit is kept as a failed run with exit code
null and no lines.  The summary (medians, the parent's
interquartile range, and in how many pairs the change is lower) is
computed from that file alone, with each side's source line count next to
the medians.  Each end-to-end metric of `BENCHMARK.json` (read, never
written) is labelled against its bound: "beyond bound" where the change's
median is worse than the parent's by more than the bound, relative;
"unresolved" where the parent's interquartile range exceeds the bound times
its median and not every change run beats every parent run; "within bound"
otherwise.
"""

import argparse
import datetime
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(repo, commit, dest):
    """The files of `commit` in `dest`, without git metadata."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def source_lines(checkout):
    """Lines of the benchmarked source, `src/stmfem/*.py`, in a checkout."""
    return sum(len(path.read_text().splitlines())
               for path in Path(checkout).glob("src/stmfem/*.py"))


def pair_order(pair):
    """The sides of one pair in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(command, checkout, workload, seed, seconds, trace):
    """One benchmark run in a checkout: (exit code, last two stdout lines);
    (None, []) if it exceeds RUN_TIMEOUT_S."""
    try:
        proc = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)],
            cwd=checkout, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, []
    return proc.returncode, proc.stdout.strip().splitlines()[-2:]


def run_pairs(checkouts, command, workloads, pairs, seed, seconds, trace):
    """Run every workload in `pairs` alternating pairs; yields the run
    records as they end."""
    for pair in range(pairs):
        for workload in workloads:
            for position, side in enumerate(pair_order(pair)):
                code, lines = run_once(command, checkouts[side], workload,
                                       seed, seconds, trace)
                print(f"pair {pair} {workload} {side}: exit {code}",
                      file=sys.stderr, flush=True)
                yield dict(workload=workload, seed=seed, trace=trace,
                           pair=pair, position=position, side=side,
                           source_lines=source_lines(checkouts[side]),
                           exit_code=code, lines=lines)


def bench(repo, command, workloads, pairs, seed, seconds, trace,
          tmp_root=None):
    """Measure HEAD against the working tree; returns the file's path."""
    repo = Path(repo)
    head = git(repo, "rev-parse", "HEAD")
    path = repo / f"BENCH_{head[:7]}.json"
    record = (json.loads(path.read_text()) if path.exists()
              else {"parent": head, "sessions": []})
    session = dict(
        started=datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        change_head=head,
        change_dirty=bool(git(repo, "status", "--porcelain", "--", "src")),
        command=command, runs=[])
    record["sessions"].append(session)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        export(repo, head, tmp)
        for run in run_pairs({"parent": Path(tmp), "change": repo},
                             command, workloads, pairs, seed, seconds, trace):
            session["runs"].append(run)
            path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def result_line(run):
    """One run's parsed result line ({} if it failed)."""
    try:
        return json.loads(run["lines"][-1])
    except (IndexError, ValueError):
        return {}


def metric_values(run):
    """metric name -> value of one run's result line (empty if it failed)."""
    return {name: m["value"]
            for name, m in result_line(run).get("metrics", {}).items()}


def source_digest(run):
    """The digest of the benchmarked source in a run's info line."""
    try:
        return json.loads(run["lines"][0])["info"]["source_sha256"]
    except (IndexError, KeyError, TypeError, ValueError):
        return "unknown"


def end_to_end_bounds(path):
    """metric name -> (bound, "lower" or "higher") of the `end_to_end`
    metrics of a BENCHMARK.json."""
    return {m["name"]: (m["bound"], m["better"])
            for m in json.loads(Path(path).read_text())["end_to_end"]}


def iqr(values):
    """The interquartile range of a metric's runs (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def bound_label(parent, change, bound, better):
    """The change against one metric's bound, from each side's runs."""
    sign = 1.0 if better == "lower" else -1.0
    mp = statistics.median(parent)
    if sign * (statistics.median(change) - mp) > bound * abs(mp):
        return "beyond bound"
    beats = all(sign * (c - p) < 0 for c in change for p in parent)
    if iqr(parent) > bound * abs(mp) and not beats:
        return "unresolved"
    return "within bound"


def summarize(record, bounds=None):
    """One line per (workload, seed, trace, change source, metric): medians
    of both sides, the parent's interquartile range, the pairs the change
    wins, and for a metric in `bounds` (see `end_to_end_bounds`) its label.
    Pairs whose change runs measured different sources (a change revised
    between sessions) are never pooled."""
    pairs = {}
    for session in record["sessions"]:
        for run in session["runs"]:
            pair = (id(session), run["workload"], run["pair"])
            pairs.setdefault(pair, {})[run["side"]] = run
    groups = {}
    for pair in pairs.values():
        if len(pair) == 2:
            run = pair["change"]
            key = (run["workload"], run["seed"], run["trace"],
                   source_digest(run))
            groups.setdefault(key, []).append(pair)
    lines = []
    for (workload, seed, trace, source), complete in sorted(groups.items()):
        values = [{side: metric_values(p[side]) for side in SIDES}
                  for p in complete]
        correct = sum(result_line(p[side]).get("correct") is True
                      for p in complete for side in SIDES)
        lines.append(f"{workload} seed {seed} trace {trace} source {source}: "
                     f"{len(complete)} pairs, {correct} of {2 * len(complete)}"
                     " runs correct")
        sizes = [", ".join(sorted({str(p[side].get("source_lines", "unknown"))
                                   for p in complete})) for side in SIDES]
        lines.append(f"  src/stmfem lines: {sizes[0]} -> {sizes[1]}")
        names = sorted(set().union(*(v["parent"] for v in values))) if values else []
        for name in names:
            par = [v["parent"].get(name) for v in values]
            chg = [v["change"].get(name) for v in values]
            if None in par or None in chg:
                continue
            mp, mc = statistics.median(par), statistics.median(chg)
            wins = sum(c < p for p, c in zip(par, chg))
            change = f"{mc / mp - 1:+.1%}" if mp else "n/a"
            line = (f"  {name}: {mp:.6g} -> {mc:.6g} ({change}), parent "
                    f"IQR {iqr(par):.3g}, change lower in {wins}/{len(par)}")
            if name in (bounds or {}):
                bound, better = bounds[name]
                line += f", {bound_label(par, chg, bound, better)} {bound:g}"
            lines.append(line)
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload name; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", metavar="FILE",
                        help="print the summary of a BENCH_*.json and exit")
    args = parser.parse_args(argv)
    bounds = end_to_end_bounds(ROOT / "BENCHMARK.json")
    if args.summary:
        print(summarize(json.loads(Path(args.summary).read_text()), bounds))
        return 0
    if not args.workload:
        parser.error("give at least one --workload")
    path = bench(ROOT, [sys.executable, "perfbench/run.py"],
                 args.workload, args.pairs, args.seed, args.seconds, args.trace)
    print(summarize(json.loads(path.read_text()), bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
