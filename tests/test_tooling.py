"""The repository's pytest settings, run on a probe file in a child pytest."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_does_not_stop_the_run(tmp_path):
    # reporting a failing example imports libcst, which warns on import; under
    # filterwarnings = ["error"] alone, that ended the run with INTERNALERROR
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = ["-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", "test_probe.py"]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
