import numpy as np
import pytest

from simulstream.corpus import SyntheticTaskSpec, generate_corpus

ACCEPTANCE_LINES = []


def record_criterion(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LINES.append((number, f"criterion {number:2d} [{status}] {description}{suffix}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture
def small_corpus():
    return generate_corpus(SyntheticTaskSpec(60, (5, 9), "identity"), 6, seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
