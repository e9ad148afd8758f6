"""The repository's pytest settings report a failing property as a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTY_FILE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_example_is_a_test_failure(tmp_path):
    # reporting a failing example imports modules that warn on import; under
    # filterwarnings = error that warning must not end the session
    path = tmp_path / "test_property.py"
    path.write_text(PROPERTY_FILE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
