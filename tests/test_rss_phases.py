"""tools/rss_phases.py on the `uniform-direct` sweep."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from stmfem.mesh import unit_square_mesh
from stmfem.timeloop import run

TOOL = Path(__file__).resolve().parents[1] / "tools" / "rss_phases.py"
spec = importlib.util.spec_from_file_location("rss_phases", TOOL)
rss_phases = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rss_phases)


def test_coefficient_bytes_are_the_start_and_gauss_rows(mms_problem):
    _, data = mms_problem
    sol = run(data, unit_square_mesh(1), p=1, r=2, n_steps=5)
    n = sol.scalar_space.n_dofs + sol.flux_space.n_dofs
    assert rss_phases.coefficient_bytes(sol) == (1 + 2 * 5) * n * 8


def test_two_lines_per_level():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "uniform-direct",
         "--seed", "1"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    lines = out.splitlines()
    # one line after each sweep: the peak RSS so far, a high-water mark, so
    # never below the reading before it
    sweeps = [lines.pop().split() for _ in range(1 + rss_phases.REPEATS)][::-1]
    peaks = [float(lines[-1].split()[3])]
    for k, words in enumerate(sweeps, start=1):
        assert words[:3] + words[4:] == ["sweep", str(k), "maxrss", "MB"]
        peaks.append(float(words[3]))
    assert peaks == sorted(peaks) and peaks[0] > 0.0
    assert [line.split()[:2] for line in lines] == [
        [f"L{level}", phase] for level in range(5) for phase in ("run", "norms")]
    for line in lines:
        words = line.split()
        assert words[2::3] == ["maxrss", "traced", "peak", "rows"]
        assert all(float(words[i]) >= 0.0 for i in (3, 6, 9, 12))
    # the solution's rows are the same after the norms as after run()
    for after_run, after_norms in zip(lines[::2], lines[1::2]):
        assert after_run.split()[12] == after_norms.split()[12] != "0.00"
