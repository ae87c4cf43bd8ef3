"""Each script in demos/ runs to completion against the public API."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each deterministic demo's stdout; 06 prints the port the OS gave its server
STDOUT_SHA256 = {
    "01_alignment_stability": "a2b2e82356043cab2253c26480dd55aba9b7423c78d94b93435bf958209a66b2",
    "02_waitk_and_lagging": "b1725b9f107ea4d98a6325b7d0545f0b57a12c5c2d5e0badf1437826e4fde3ea",
    "03_variational_change_sampling": "d24732d73f5d6ae1551676fa1b1def96a50effae4f96fc0978d13d0e952aabde",
    "04_streaming_session": "69200a0eb5fbb88465ec5277e9dfcb6a0ad899d97d69b28c163bd930646a7fe2",
    "05_tradeoff_sweep": "5c0543caaff9ab506612b2e568818ea06cdcad3a2ae98af2126edb70cd4b622d",
    "07_offline_distillation": "55595813178a944b4db6167893095cb981e6b103121718d5b4d2749fa95bf1b4",
}


def test_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if demo.stem in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]
