import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulstream.actions import (
    Action,
    InvalidTraceError,
    ReadWritePath,
    consumed_before_write,
    encode_trace,
    trace_from_consumption,
    validate_trace,
    wait_k_mask,
    wait_k_trace,
)

R, W = Action.READ, Action.WRITE


def test_wait_1_alternates():
    trace = wait_k_trace(1, 3, 3)
    assert trace == [R, W, R, W, R, W]
    assert consumed_before_write(trace) == [1, 2, 3]


def test_wait_2_hand_unroll():
    trace = wait_k_trace(2, 4, 4)
    assert encode_trace(trace) == "RRWRWRWW"
    assert consumed_before_write(trace) == [2, 3, 4, 4]


def test_wait_k_beyond_source_is_offline():
    trace = wait_k_trace(10, 4, 3)
    assert encode_trace(trace) == "RRRRWWW"
    assert consumed_before_write(trace) == [4, 4, 4]


def test_wait_k_counts_always_complete(rng):
    for _ in range(200):
        k = int(rng.integers(1, 12))
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 12))
        trace = wait_k_trace(k, m, n)
        validate_trace(trace, m, n)
        g = consumed_before_write(trace)
        assert g == [min(k + i - 1, m) for i in range(1, n + 1)]


def test_mask_matches_schedule(rng):
    for _ in range(100):
        k = int(rng.integers(1, 10))
        m = int(rng.integers(1, 10))
        n = int(rng.integers(1, 10))
        mask = wait_k_mask(k, n, m)
        widths = mask.sum(axis=1)
        g = consumed_before_write(wait_k_trace(k, m, n))
        assert list(widths) == g
        # prefix structure: every row is a contiguous prefix of columns
        for row in mask:
            on = np.flatnonzero(row)
            assert len(on) == 0 or (on[0] == 0 and on[-1] == len(on) - 1)


def test_mask_all_true_when_k_reaches_source():
    assert wait_k_mask(5, 4, 5).all()


def test_validate_trace_errors():
    for trace, m, n, reason in [
        ([], 1, 1, "empty trace"),
        ([W, R], 1, 1, "trace must begin with READ"),
        ([R, R], 1, 1, "read past source end at step 1"),
        ([R, W, W], 1, 1, "write past target end at step 2"),
        ([R, W], 2, 2, "incomplete trace: 1/2 reads, 1/2 writes"),
    ]:
        with pytest.raises(InvalidTraceError, match=f"^{reason}$"):
            validate_trace(trace, m, n)
    assert validate_trace([R, W, W], 1, 2) is None


def _reference_fault(actions, M, N):
    """The fault validate_trace named when it was one loop over the whole
    trace, or None for a legal one."""
    reads = writes = 0
    if not actions:
        return "empty trace"
    if actions[0] is not R:
        return "trace must begin with READ"
    for t, a in enumerate(actions):
        if a is R:
            reads += 1
            if reads > M:
                return f"read past source end at step {t}"
        else:
            writes += 1
            if writes > N:
                return f"write past target end at step {t}"
    if reads != M or writes != N:
        return f"incomplete trace: {reads}/{M} reads, {writes}/{N} writes"
    return None


def _fault(check):
    try:
        check()
    except InvalidTraceError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from([R, W]), max_size=9), st.integers(0, 4), st.integers(0, 4))
def test_path_steps_fault_as_the_whole_trace_check_did(actions, m, n):
    # the wire server takes one step per message, run_session a whole plan at once
    def one_step_at_a_time():
        path = ReadWritePath(m, n)
        for a in actions:
            path.take((a,))
        path.end()

    want = _reference_fault(actions, m, n)
    assert _fault(lambda: validate_trace(actions, m, n)) == want
    assert _fault(one_step_at_a_time) == want


def test_trace_from_consumption_round_trip(rng):
    for _ in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        g = sorted(int(x) for x in rng.integers(1, m + 1, size=n))
        trace = trace_from_consumption(g, m)
        validate_trace(trace, m, n)
        assert consumed_before_write(trace) == g


def test_trace_from_consumption_rejects_bad_input():
    with pytest.raises(ValueError):
        trace_from_consumption([2, 1], 3)
    with pytest.raises(ValueError):
        trace_from_consumption([4], 3)
    with pytest.raises(ValueError):
        trace_from_consumption([0], 3)


def test_encode_decode_round_trip():
    trace = wait_k_trace(2, 5, 4)
    text = encode_trace(trace)
    assert text == "RRWRWRWRW"
    assert [{"R": R, "W": W}[ch] for ch in text] == trace
