import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simulstream.alignment import (
    ShapeError,
    SizeLimitError,
    enumerate_alignment_oracle,
    expected_alignment_div,
    expected_alignment_stable,
    milk_soft_attention,
    spiky_low_probability_matrix,
    validate_stepwise,
    with_closed_last_column,
)
from conftest import random_stepwise


def _oracle_by_stop_tuples(p):
    """Independent expectation: iterate every non-decreasing tuple of
    stop positions and accumulate its probability directly. Written
    against the process definition, not the recurrence."""
    n, m = p.shape
    acc = np.zeros((n, m))
    for stops in itertools.combinations_with_replacement(range(m), n):
        prob = 1.0
        prev = 0
        for i, j in enumerate(stops):
            for skip in range(prev, j):
                prob *= 1.0 - p[i, skip]
            prob *= p[i, j]
            prev = j
        for i, j in enumerate(stops):
            acc[i, j] += prob
    return acc


def test_two_by_two_hand_enumeration():
    # three paths: stop(1,1)=0.5*0.5, stop(1,2)=0.5*0.5, stop(2,2)=0.5
    p = np.array([[0.5, 1.0], [0.5, 1.0]])
    want = np.array([[0.5, 0.5], [0.25, 0.75]])
    for fn in (expected_alignment_stable, expected_alignment_div, enumerate_alignment_oracle):
        assert np.allclose(fn(p), want, atol=1e-12), fn.__name__


def test_head_never_advances_when_p_is_one():
    p = np.ones((4, 5))
    for fn in (expected_alignment_stable, enumerate_alignment_oracle):
        a = fn(p)
        assert np.allclose(a[:, 0], 1.0)
        assert np.allclose(a[:, 1:], 0.0)
    # the guarded division form leaks a little mass here: survival is exactly
    # zero past column one, so the clip floor is what gets divided through
    d = expected_alignment_div(p)
    assert np.allclose(d[:, 0], 1.0, atol=1e-4)
    assert np.abs(d[:, 1:]).max() < 1e-4


def test_single_cell():
    assert enumerate_alignment_oracle(np.array([[1.0]]))[0, 0] == 1.0


def test_stable_matches_independent_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        p = random_stepwise(rng, n, m)
        got = expected_alignment_stable(p)
        assert np.abs(got - _oracle_by_stop_tuples(p)).max() < 1e-12


def test_package_enumerator_matches_stable(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        p = random_stepwise(rng, n, m)
        assert np.abs(expected_alignment_stable(p) - enumerate_alignment_oracle(p)).max() < 1e-9


def test_stable_row_stochastic_large(rng):
    p = random_stepwise(rng, 200, 200, low=1e-4)
    a = expected_alignment_stable(p)
    assert np.all(a >= 0) and np.all(a <= 1)
    assert np.abs(a.sum(axis=1) - 1).max() < 1e-9


def test_stable_row_stochastic_at_512(rng):
    p = random_stepwise(rng, 512, 512, low=1e-3)
    a = expected_alignment_stable(p)
    assert np.abs(a.sum(axis=1) - 1).max() < 1e-9


def test_constant_low_probability_matrix_stays_stochastic():
    p = np.full((200, 200), 0.01)
    p[:, -1] = 1.0
    a = expected_alignment_stable(p)
    assert np.all(a >= 0) and np.all(a <= 1)
    assert np.abs(a.sum(axis=1) - 1).max() < 1e-9


def test_division_form_diverges_on_documented_witness():
    p = spiky_low_probability_matrix(seed=32)
    assert float(np.median(p[:, :-1])) < 0.05  # honestly low-probability
    div = expected_alignment_div(p)
    bad = ~np.isfinite(div)
    assert bad.any() or np.abs(div[~bad]).max() > 10.0
    stable = expected_alignment_stable(p)
    assert np.all(stable >= 0.0) and np.all(stable <= 1.0)
    assert np.abs(stable.sum(axis=1) - 1.0).max() < 1e-9


def test_division_and_stable_agree_while_finite(rng):
    # with selection kept away from 1, survival stays above the clip floor
    # and the two evaluations are the same recurrence
    for _ in range(50):
        p = rng.uniform(0.2, 0.8, size=(8, 8))
        p[:, -1] = 1.0
        d = expected_alignment_div(p)
        s = expected_alignment_stable(p)
        assert np.abs(d - s).max() < 1e-9


def test_expected_delay_monotone(rng):
    for _ in range(50):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(2, 10))
        p = random_stepwise(rng, n, m)
        a = expected_alignment_stable(p)
        positions = np.arange(1, m + 1)
        delays = a @ positions
        assert np.all(np.diff(delays) >= -1e-9)


def test_validate_stepwise_errors():
    with pytest.raises(ShapeError):
        validate_stepwise(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        validate_stepwise(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        validate_stepwise(np.array([[0.5, 0.9]]))
    closed = with_closed_last_column(np.array([[0.5, 0.9]]))
    assert validate_stepwise(closed) is not None
    with pytest.raises(SizeLimitError):
        enumerate_alignment_oracle(with_closed_last_column(np.full((9, 9), 0.5)))


def _milk_reference(a, u):
    n, m = a.shape
    beta = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for k in range(j, m):
                denom = np.exp(u[i, : k + 1]).sum()
                s += a[i, k] * np.exp(u[i, j]) / denom
            beta[i, j] = s
    return beta


def test_milk_matches_reference_double_loop(rng):
    for _ in range(100):
        p = random_stepwise(rng, 5, 5)
        a = expected_alignment_stable(p)
        u = rng.normal(0, 2, size=(5, 5))
        beta = milk_soft_attention(a, u)
        assert np.abs(beta - _milk_reference(a, u)).max() < 1e-12
        assert np.abs(beta.sum(axis=1) - 1).max() < 1e-9


def test_milk_trivial_cases():
    a = np.zeros((3, 4))
    a[:, 0] = 1.0  # all alignment mass on the first position
    beta = milk_soft_attention(a, np.random.default_rng(0).normal(size=(3, 4)))
    assert np.allclose(beta[:, 0], 1.0) and np.allclose(beta[:, 1:], 0.0)

    b = np.zeros((3, 4))
    b[:, -1] = 1.0  # full lookback with flat energies: uniform weights
    beta = milk_soft_attention(b, np.zeros((3, 4)))
    assert np.allclose(beta, 0.25)


def test_milk_energy_shift_invariance(rng):
    p = random_stepwise(rng, 4, 6)
    a = expected_alignment_stable(p)
    u = rng.normal(0, 3, size=(4, 6))
    base = milk_soft_attention(a, u)
    shifted = milk_soft_attention(a, u + rng.normal(0, 50, size=(4, 1)))
    assert np.abs(base - shifted).max() < 1e-9


def test_milk_shape_error():
    with pytest.raises(ShapeError):
        milk_soft_attention(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        milk_soft_attention(np.full((1, 2), 0.5), np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize(
    "bad",
    [np.full((2, 3), np.nan), [[0.5, np.nan, 0.5]], [[np.inf, 0.0, 0.0]], [[0.0, 1.0, -np.inf]]],
    ids=["all-nan", "one-nan", "inf", "minus-inf"],
)
def test_milk_rejects_non_finite_alignment(bad):
    bad = np.asarray(bad, dtype=np.float64)
    with pytest.raises(ValueError, match="alignment must be finite"):
        milk_soft_attention(bad, np.zeros(bad.shape))


def test_milk_leaves_its_inputs_alone(rng):
    a = expected_alignment_stable(random_stepwise(rng, 6, 9))
    u = rng.normal(0, 2, size=(6, 9))
    a_before, u_before = a.copy(), u.copy()
    beta = milk_soft_attention(a, u)
    assert np.array_equal(a, a_before) and np.array_equal(u, u_before)
    assert not np.shares_memory(beta, a) and not np.shares_memory(beta, u)


@pytest.mark.parametrize(
    "n, digest",
    [
        (200, "ae40c30942025c9d6db1f33c659e94ed4afcb30aea67fd049573faddee892d3a"),
        (800, "2fe2c05f80cc7e0fe59467d85ebaea2cd6a408900a474945ac7e42cbeaa09e34"),
    ],
)
def test_milk_bytes_pinned_on_spiky_witness(n, digest):
    # digests of the five-temporary evaluation (exp, cumsum, divide,
    # reversed cumsum, multiply, each into a fresh array)
    a = expected_alignment_stable(spiky_low_probability_matrix(n, n, seed=32))
    u = np.random.default_rng(32).normal(0.0, 1.0, size=(n, n))
    assert hashlib.sha256(milk_soft_attention(a, u).tobytes()).hexdigest() == digest


def _row_loop_reference(p):
    """The scalar row-by-row evaluation the anti-diagonal sweep replaced."""
    N, M = p.shape
    alpha = np.zeros((N, M))
    prev = np.zeros(M)
    prev[0] = 1.0
    for i in range(N):
        row_p = p[i]
        row_a = alpha[i]
        q = prev[0]
        row_a[0] = row_p[0] * q
        for j in range(1, M):
            q = (1.0 - row_p[j - 1]) * q + prev[j]
            row_a[j] = row_p[j] * q
        prev = row_a
    return alpha


@st.composite
def _stepwise_matrices(draw):
    shape = draw(st.sampled_from(["square-ish", "one-row", "one-column"]))
    n = 1 if shape == "one-row" else draw(st.integers(1, 40))
    m = 1 if shape == "one-column" else draw(st.integers(1, 40))
    # log-uniform over [10**floor, 1]: floors down to 1e-300 give tiny p
    floor = draw(st.sampled_from([-300.0, -30.0, -8.0, -2.0, -0.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p = 10.0 ** rng.uniform(floor, 0.0, size=(n, m))
    ones = draw(st.lists(st.integers(0, m - 1), max_size=3))
    p[:, ones] = 1.0  # interior columns where the head always stops
    p[:, -1] = 1.0
    return p


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_stepwise_matrices())
@example(np.ones((1, 1)))
@example(with_closed_last_column(np.full((1, 40), 1e-300)))
@example(with_closed_last_column(np.full((40, 1), 0.5)))
@example(with_closed_last_column(np.full((40, 40), 1e-300)))
def test_stable_sweep_is_bit_identical_to_row_loop(p):
    assert np.array_equal(expected_alignment_stable(p), _row_loop_reference(p))


@pytest.mark.parametrize(
    "n, digest",
    [
        (200, "39fabc46868e4ee17d43b13f61eb67729dd6e46ac4d68c2598d8e1b4a18f0caf"),
        (800, "030293c505c4cb5eea86b00670e1ba37323d742124682c77895375ba02307584"),
    ],
)
def test_stable_bytes_pinned_on_spiky_witness(n, digest):
    # digests of the scalar row loop's output on the same inputs
    a = expected_alignment_stable(spiky_low_probability_matrix(n, n, seed=32))
    assert hashlib.sha256(a.tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "bad",
    [[[np.nan, 1.0], [0.5, 1.0]], [[0.5, 1.0], [0.5, np.nan]], [[np.inf, 1.0]], [[-np.inf, 1.0]]],
    ids=["interior-nan", "last-column-nan", "inf", "minus-inf"],
)
def test_validate_stepwise_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        validate_stepwise(np.array(bad))
    with pytest.raises(ValueError, match="finite"):
        expected_alignment_stable(np.array(bad))
