import numpy as np
import pytest

from simulstream.corpus import SyntheticTaskSpec, generate_corpus
from simulstream.wire import MESSAGES

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


MISSING = object()  # a body key left out


def bad_fields(msg_type: str):
    """(case id, key, value, reason) for each body field that wire.MESSAGES
    checks in msg_type: left out (value MISSING), or set to a string, a
    fractional float or true where its rule refuses that."""
    for key, (ok, want) in MESSAGES[msg_type].items():
        yield f"{key}-missing", key, MISSING, f"bad {msg_type}: missing field {key!r}"
        for value in ("1", 1.5, True):
            if not ok(value):
                case = f"{key}-{type(value).__name__}"
                yield case, key, value, f"bad {msg_type}: {key} {value!r} is not {want}"


def with_field(body: dict, key: str, value) -> dict:
    """body with key set to value, in its place; left out if value is MISSING."""
    return {k: value if k == key else v for k, v in body.items() if k != key or value is not MISSING}
