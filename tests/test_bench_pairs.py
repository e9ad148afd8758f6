"""tools/bench_pairs.py against a stub benchmark in a throwaway git repo."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

STUB = '''\
import json, os, sys
from pathlib import Path
side = Path("src/side.txt").read_text().strip()
with open(os.environ["BENCH_STUB_LOG"], "a") as log:
    log.write(side + "\\n")
print("warming up")
print(json.dumps({"info": {"side": side, "argv": sys.argv[1:],
                           "source_sha256": side[:3]}}))
value = {"parent": 2.0, "change": 1.0}[side]
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"sweep_s": {"value": value, "unit": "s"}}}))
'''


@pytest.fixture
def repo(tmp_path):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src" / "stmfem").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "src" / "side.txt").write_text("parent\n")
    (repo / "src" / "stmfem" / "a.py").write_text("x = 1\n")
    (repo / "src" / "stmfem" / "b.py").write_text("y = 2\nz = 3\n")
    git = ["git", "-C", str(repo), "-c", "user.name=bench",
           "-c", "user.email=bench@example.org"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "parent"], check=True)
    (repo / "src" / "side.txt").write_text("change\n")
    (repo / "src" / "stmfem" / "b.py").write_text("y = 2\n")
    return repo


def test_pairs_alternate_and_the_file_keeps_every_run(repo, tmp_path,
                                                      monkeypatch):
    log = tmp_path / "order.log"
    monkeypatch.setenv("BENCH_STUB_LOG", str(log))
    work = tmp_path / "work"
    work.mkdir()
    command = [sys.executable, "perfbench/run.py"]
    path = bench_pairs.bench(repo, command, ["a", "b"], 3, 1, 30, 0,
                             tmp_root=work)
    sha = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    assert path == repo / f"BENCH_{sha[:7]}.json"
    record = json.loads(path.read_text())
    assert record["parent"] == sha
    (session,) = record["sessions"]
    assert session["change_head"] == sha and session["change_dirty"]
    first, second = ("parent", "change"), ("change", "parent")
    expected = [(pair, workload, side)
                for pair, order in enumerate((first, second, first))
                for workload in ("a", "b") for side in order]
    runs = session["runs"]
    assert [(r["pair"], r["workload"], r["side"]) for r in runs] == expected
    assert [r["position"] for r in runs] == [0, 1] * 6
    assert log.read_text().split() == [side for *_, side in expected]
    for run in runs:
        info, result = (json.loads(line) for line in run["lines"])
        assert info["info"]["side"] == run["side"]
        assert info["info"]["argv"] == ["--workload", run["workload"], "--seed",
                                        "1", "--seconds", "30", "--trace", "0"]
        assert result["correct"] and run["exit_code"] == 0
        assert (run["seed"], run["trace"]) == (1, 0)
        assert run["source_lines"] == {"parent": 3, "change": 2}[run["side"]]
    # the parent's copy is gone, and a second call adds a session to the file
    worktrees = subprocess.run(["git", "-C", str(repo), "worktree", "list"],
                               capture_output=True, text=True).stdout
    assert len(worktrees.splitlines()) == 1 and not any(work.iterdir())
    bench_pairs.bench(repo, command, ["a"], 1, 2, 30, 0, tmp_root=work)
    record = json.loads(path.read_text())
    assert [len(s["runs"]) for s in record["sessions"]] == [12, 2]
    summary = bench_pairs.summarize(record)
    assert "a seed 1 trace 0 source cha: 3 pairs, 6 of 6 runs correct" in summary
    assert "  src/stmfem lines: 3 -> 2\n" in summary
    assert "sweep_s: 2 -> 1 (-50.0%), parent IQR 0, change lower in 3/3" in summary
    assert "a seed 2 trace 0 source cha: 1 pairs" in summary


def test_a_run_past_the_time_limit_is_kept_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "RUN_TIMEOUT_S", 0.2)
    sleeper = [sys.executable, "-c", "import time; time.sleep(10)"]
    assert bench_pairs.run_once(sleeper, tmp_path, "a", 1, 30, 0) == (None, [])


def test_summary_counts_failed_runs_and_keeps_sources_apart():
    info = json.dumps({"info": {"source_sha256": "s1"}})
    ok = json.dumps({"correct": True,
                     "metrics": {"sweep_s": {"value": 1.0, "unit": "s"}}})
    runs = [dict(workload="a", seed=1, trace=0, pair=pair, side=side,
                 lines=lines)
            for pair, lines in ((0, [info, ok]), (1, ["Traceback (most"]),
                                (2, []), (3, [info, ok]))
            for side in bench_pairs.SIDES]
    revised = [dict(run, lines=[run["lines"][0].replace("s1", "s2"), ok])
               for run in runs[-2:]]
    summary = bench_pairs.summarize({"sessions": [{"runs": runs},
                                                  {"runs": revised}]})
    assert "a seed 1 trace 0 source s1: 2 pairs, 4 of 4 runs correct" in summary
    assert "a seed 1 trace 0 source s2: 1 pairs, 2 of 2 runs correct" in summary
    assert ("a seed 1 trace 0 source unknown: 2 pairs, 0 of 4 runs correct"
            in summary)
    # runs recorded before line counts were kept
    assert "  src/stmfem lines: unknown -> unknown\n" in summary


def test_summary_labels_each_end_to_end_metric_against_its_bound(tmp_path):
    # four pairs; the parent of "noisy" and "beaten" spreads with IQR 1 about
    # a median of 1.5, wider than the bound 0.25 allows
    parent = {"slow": [1.0] * 4, "steady": [1.0] * 4,
              "noisy": [1.0, 2.0, 1.0, 2.0], "beaten": [1.0, 2.0, 1.0, 2.0],
              "rate": [10.0] * 4}
    change = {"slow": [1.5] * 4, "steady": [1.1] * 4, "noisy": [1.4] * 4,
              "beaten": [0.5] * 4, "rate": [7.0] * 4}
    info = json.dumps({"info": {"source_sha256": "s1"}})

    def lines(values, pair):
        metrics = {name: {"value": v[pair]} for name, v in values.items()}
        return [info, json.dumps({"correct": True, "metrics": metrics})]

    runs = [dict(workload="a", seed=1, trace=0, pair=pair, side=side,
                 lines=lines(values, pair))
            for pair in range(4)
            for side, values in (("parent", parent), ("change", change))]
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": [
        {"name": name, "unit": "s", "better": better, "bound": bound}
        for name, better, bound in (("slow", "lower", 0.25),
                                    ("steady", "lower", 0.25),
                                    ("noisy", "lower", 0.25),
                                    ("beaten", "lower", 0.25),
                                    ("rate", "higher", 0.2))]}))
    bounds = bench_pairs.end_to_end_bounds(benchmark)
    assert bounds["rate"] == (0.2, "higher")
    summary = bench_pairs.summarize({"sessions": [{"runs": runs}]}, bounds)
    labels = {line.split(":")[0].strip(): line.rsplit(", ", 1)[-1]
              for line in summary.splitlines()[2:]}
    assert labels == {"slow": "beyond bound 0.25",
                      "steady": "within bound 0.25",
                      "noisy": "unresolved 0.25",
                      "beaten": "within bound 0.25",
                      "rate": "beyond bound 0.2"}
    # without bounds the lines carry no label
    assert "bound" not in bench_pairs.summarize({"sessions": [{"runs": runs}]})


def test_the_repo_benchmark_bounds_are_read():
    bounds = bench_pairs.end_to_end_bounds(TOOL.parents[1] / "BENCHMARK.json")
    assert "sweep_s" in bounds
    for bound, better in bounds.values():
        assert bound > 0 and better in ("lower", "higher")
