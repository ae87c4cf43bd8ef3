import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simulstream.actions import Action, consumed_before_write, validate_trace
from simulstream.vmma import (
    ChangeTrace,
    ConstantScorer,
    InvalidTraceError,
    OracleScorer,
    actions_to_alignment,
    actions_to_changes,
    alignment_to_actions,
    change_probability,
    change_to_actions,
    clamp_warning_count,
    diagonal_prior,
    enumerate_traces,
    estimate_elbo,
    exact_elbo,
    PROB_CLAMP,
    path_log_ratio,
    reset_clamp_warnings,
    sample_change_trace,
    sample_trace_from_table,
)

R, W = Action.READ, Action.WRITE


def test_change_probability_values():
    assert change_probability(0.5, 0, 1.0) == 0.0
    assert change_probability(0.5, 2, 1.0) == pytest.approx(1 - math.exp(-2), abs=1e-12)
    assert change_probability(0.5, 2, 1.0) == pytest.approx(0.864665, abs=1e-6)
    assert change_probability(0.01, 2, 0.5) == pytest.approx((1 - math.exp(-0.04)) * 0.5, abs=1e-15)
    with pytest.raises(ValueError):
        change_probability(0.0, 1, 0.5)


def test_change_trace_counts_and_roundtrip(rng):
    for _ in range(300):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        trace = sample_change_trace(ConstantScorer(0.5), 0.4, m, n, int(rng.integers(2**31)))
        assert len(trace.changes) == m + n
        actions = change_to_actions(trace)
        validate_trace(actions, m, n)
        back = actions_to_changes(actions)
        assert back.changes == trace.changes
        assert back.src_len == m and back.tgt_len == n


def test_sampling_is_deterministic():
    a = sample_change_trace(ConstantScorer(0.3), 0.2, 9, 7, 42)
    b = sample_change_trace(ConstantScorer(0.3), 0.2, 9, 7, 42)
    c = sample_change_trace(ConstantScorer(0.3), 0.2, 9, 7, 43)
    assert a == b
    assert a != c


def _scalar_sample_change_trace(scorer, lam, src_len, tgt_len, rng_seed):
    """sample_change_trace as first written: one rng.random() call per
    free step, the current action an Action."""
    rng = np.random.default_rng(rng_seed)
    M, N = src_len, tgt_len
    w = r = 0
    cur = Action.READ
    k_last = 1
    changes, forced = [], []
    for k in range(1, M + N + 1):
        if r == M and w < N:
            z, is_forced = int(cur is Action.READ), True
        elif w == N:
            z, is_forced = int(cur is Action.WRITE), True
        elif r == 0:
            z, is_forced = 0, True
        else:
            f = scorer.score(w, r)
            toward_write = f if cur is Action.READ else 1.0 - f
            p_star = change_probability(lam, k - k_last, toward_write)
            z, is_forced = int(rng.random() < p_star), False
        if z:
            cur = Action.WRITE if cur is Action.READ else Action.READ
            k_last = k
        changes.append(z)
        forced.append(is_forced)
        if cur is Action.READ:
            r += 1
        else:
            w += 1
    return ChangeTrace(tuple(changes), M, N), tuple(forced)


@st.composite
def _sampler_cases(draw):
    m, n = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    if draw(st.booleans()):
        scorer = ConstantScorer(draw(st.floats(0.01, 0.99)))
    else:
        alignment = sorted(draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))
        scorer = OracleScorer(tuple(alignment))
    lam = draw(st.floats(0.05, 5.0))
    return scorer, lam, m, n, draw(st.integers(0, 2**63 - 1))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_sampler_cases())
def test_change_trace_equals_scalar_draw_sampler(case):
    # the bulk-fetched uniforms are the scalar draws, one per free step in step order
    trace = sample_change_trace(*case)
    want, forced = _scalar_sample_change_trace(*case)
    assert trace == want
    assert trace.forced == forced
    assert {*map(type, trace.changes)} <= {int}


def test_near_zero_scorer_changes_only_at_boundary():
    trace = sample_change_trace(ConstantScorer(1e-9), 0.5, 5, 4, 0)
    actions = change_to_actions(trace)
    # reads everything, then the forced flip, then writes everything
    assert actions == [R] * 5 + [W] * 4
    assert sum(c for c, f in zip(trace.changes, trace.forced) if not f) == 0
    assert trace.n_changes == 1  # the boundary-forced flip to WRITE


def test_first_action_is_always_read(rng):
    for s in range(100):
        trace = sample_change_trace(ConstantScorer(0.9), 5.0, 4, 4, s)
        assert change_to_actions(trace)[0] is R
        assert trace.changes[0] == 0
        assert trace.forced[0]


def test_forced_steps_flagged(rng):
    for s in range(50):
        m, n = 3, 6
        trace = sample_change_trace(ConstantScorer(0.5), 0.5, m, n, s)
        actions = change_to_actions(trace)
        w = r = 0
        for step, a in enumerate(actions):
            expect_forced = r == 0 or r == m or w == n
            assert trace.forced[step] == expect_forced
            if a is R:
                r += 1
            else:
                w += 1


def test_oracle_scorer_tracks_alignment():
    scorer = OracleScorer((2, 3, 3))
    assert scorer.score(0, 1) == 0.02  # token 1 needs 2 segments
    assert scorer.score(0, 2) == 0.98
    assert scorer.score(2, 2) == 0.02  # token 3 needs 3 segments
    assert scorer.score(2, 3) == 0.98


def test_change_frequency_increases_with_lambda():
    means = []
    for lam in (0.01, 0.1, 0.5):
        counts = [
            sample_change_trace(ConstantScorer(0.5), lam, 10, 10, s).n_changes
            for s in range(4000)
        ]
        means.append((np.mean(counts), np.std(counts) / len(counts) ** 0.5))
    for (m1, s1), (m2, s2) in zip(means, means[1:]):
        assert m2 - m1 > 3 * (s1**2 + s2**2) ** 0.5


def test_change_to_actions_rejects_flip_at_start():
    with pytest.raises(InvalidTraceError, match="^trace must begin with READ$"):
        change_to_actions(ChangeTrace((1, 0, 0, 0), 2, 2))
    with pytest.raises(InvalidTraceError, match="^trace must begin with READ$"):
        actions_to_changes([W, R])


def test_change_trace_validates_lengths():
    with pytest.raises(InvalidTraceError):
        ChangeTrace((0, 0), 2, 2)


def test_actions_to_alignment_hand_cases():
    assert np.array_equal(
        actions_to_alignment([R, W, R, W], 2, 2), np.array([[1.0, 0.0], [0.0, 1.0]])
    )
    assert np.array_equal(
        actions_to_alignment([R, R, W, W], 2, 2), np.array([[0.0, 1.0], [0.0, 1.0]])
    )


def test_trace_alignment_map_injective_3x3():
    seen = {}
    traces = enumerate_traces(3, 3)
    assert len(traces) == 10  # lattice paths that start with a read
    for t in traces:
        key = actions_to_alignment(t, 3, 3).tobytes()
        assert key not in seen
        seen[key] = t
        assert alignment_to_actions(actions_to_alignment(t, 3, 3)) == t


def test_alignment_to_actions_rejects_soft_rows():
    with pytest.raises(InvalidTraceError):
        alignment_to_actions(np.array([[0.5, 0.5]]))


def _step_product_log_prob(actions, table, m, n):
    """Independent oracle: literal product over the decision walk, as the
    table scorer was first written. Returns (log-probability, clamped
    lookups)."""
    w = r = 0
    logp = 0.0
    clamps = 0
    for a in actions:
        if not (r == 0 or r == m or w == n):
            p = float(table[w, r - 1])
            clamps += not PROB_CLAMP <= p <= 1.0 - PROB_CLAMP
            p = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
            logp += math.log(p) if a is W else math.log(1.0 - p)
        if a is R:
            r += 1
        else:
            w += 1
    return logp, clamps


def test_path_log_ratio_hand_case():
    # R W R W on 2x2: step 1 forced, write at (0,1) free, read at (1,1)
    # free, final write forced by source exhaustion
    phi = np.full((2, 2), 0.5)
    omega = np.full((2, 2), 0.25)
    got = path_log_ratio([R, W, R, W], phi, omega, 2, 2)
    want = math.log(0.5 / 0.25) + math.log(0.5 / 0.75)
    assert got == pytest.approx(want, abs=1e-12)


def test_path_log_prob_matches_step_product(rng):
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        table = rng.uniform(0.05, 0.95, size=(n, m))
        actions = sample_trace_from_table(table, m, n, int(rng.integers(2**31)))
        # each free step scores log 0.5 under the uniform table, whichever way it goes
        free = sum(not f for f in actions_to_changes(actions).forced)
        got = path_log_ratio(actions, table, np.full((n, m), 0.5), m, n) + free * math.log(0.5)
        assert got == pytest.approx(_step_product_log_prob(actions, table, m, n)[0], abs=1e-12)


def test_trace_probabilities_normalize(rng):
    for _ in range(20):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        table = rng.uniform(0.05, 0.95, size=(n, m))
        # under a constant likelihood the log marginal is log sum_t p(t)
        assert exact_elbo(lambda a: 0.0, table, table, m, n)[1] == pytest.approx(0.0, abs=1e-9)


def test_path_log_ratio_self_is_zero(rng):
    phi = rng.uniform(0.1, 0.9, size=(4, 4))
    for s in range(100):
        actions = sample_trace_from_table(phi, 4, 4, s)
        assert path_log_ratio(actions, phi, phi, 4, 4) == 0.0


def test_clamp_warning_counter(rng):
    reset_clamp_warnings()
    table = np.zeros((2, 3))  # degenerate: zero write probability
    actions = [R, R, W, R, W]
    before = clamp_warning_count()
    path_log_ratio(actions, table, np.full((2, 3), 0.5), 3, 2)
    assert clamp_warning_count() > before
    reset_clamp_warnings()
    assert clamp_warning_count() == 0


def test_kl_estimate_nonnegative_statistically(rng):
    phi = rng.uniform(0.2, 0.8, size=(3, 3))
    omega = rng.uniform(0.2, 0.8, size=(3, 3))
    total = 0.0
    n = 20000
    for s in range(n):
        actions = sample_trace_from_table(phi, 3, 3, s)
        total += path_log_ratio(actions, phi, omega, 3, 3)
    assert total / n >= -0.01


def _tabular_likelihood(weights):
    def loglik(hard_alignment):
        return float((hard_alignment * weights).sum())

    return loglik


def test_estimate_elbo_decomposition(rng):
    phi = rng.uniform(0.2, 0.8, size=(3, 3))
    omega = rng.uniform(0.2, 0.8, size=(3, 3))
    loglik = _tabular_likelihood(rng.normal(0, 1, size=(3, 3)))
    elbo, kl, ll = estimate_elbo(loglik, phi, omega, 3, 3, 500, rng_seed=7)
    assert elbo == pytest.approx(ll - kl, abs=1e-12)
    again = estimate_elbo(loglik, phi, omega, 3, 3, 500, rng_seed=7)
    assert again == (elbo, kl, ll)


def test_estimate_elbo_constant_likelihood(rng):
    phi = rng.uniform(0.2, 0.8, size=(2, 3))
    elbo, kl, ll = estimate_elbo(lambda a: -1.5, phi, phi, 3, 2, 200, rng_seed=1)
    assert ll == pytest.approx(-1.5, abs=1e-12)
    assert kl == 0.0
    assert elbo == pytest.approx(-1.5, abs=1e-12)


def test_estimate_elbo_rejects_nonfinite():
    phi = np.full((2, 2), 0.5)
    with pytest.raises(RuntimeError, match="sample 0"):
        estimate_elbo(lambda a: float("nan"), phi, phi, 2, 2, 3, rng_seed=0)


def test_monte_carlo_elbo_matches_exact_enumeration(rng):
    phi = rng.uniform(0.2, 0.8, size=(3, 3))
    omega = rng.uniform(0.2, 0.8, size=(3, 3))
    loglik = _tabular_likelihood(rng.normal(0, 0.5, size=(3, 3)))
    exact, _ = exact_elbo(loglik, phi, omega, 3, 3)
    n = 20000
    samples = []
    rng2 = np.random.default_rng(99)
    # estimate in independent batches for a spread estimate
    for _ in range(10):
        e, _, _ = estimate_elbo(loglik, phi, omega, 3, 3, n // 10, int(rng2.integers(2**31)))
        samples.append(e)
    mean = np.mean(samples)
    sem = np.std(samples, ddof=1) / len(samples) ** 0.5
    assert abs(mean - exact) < 3 * sem + 1e-6


def test_exact_elbo_bounded_by_log_marginal(rng):
    for _ in range(50):
        phi = rng.uniform(0.05, 0.95, size=(3, 3))
        omega = rng.uniform(0.05, 0.95, size=(3, 3))
        loglik = _tabular_likelihood(rng.normal(0, 1, size=(3, 3)))
        elbo, log_marginal = exact_elbo(loglik, phi, omega, 3, 3)
        assert elbo <= log_marginal + 1e-9


def test_exact_elbo_tight_when_posterior_matches_prior_uniform_likelihood(rng):
    phi = rng.uniform(0.2, 0.8, size=(2, 2))
    elbo, log_marginal = exact_elbo(lambda a: 0.0, phi, phi, 2, 2)
    assert elbo == pytest.approx(0.0, abs=1e-12)
    assert log_marginal == pytest.approx(0.0, abs=1e-12)


def test_diagonal_prior_shape_and_midpoint():
    omega = diagonal_prior(5, 5, sharpness=2.0)
    assert omega.shape == (5, 5)
    for i in range(5):
        assert omega[i, i] == pytest.approx(0.5, abs=1e-12)
    assert omega[4, 0] < 0.01
    assert omega[0, 4] > 0.99
    with pytest.raises(ValueError):
        diagonal_prior(3, 3, sharpness=0.0)


def test_sharp_diagonal_prior_concentrates_delays(rng):
    omega = np.clip(diagonal_prior(6, 6, sharpness=50.0), 1e-7, 1 - 1e-7)
    delays = np.zeros(6)
    n = 2000
    for s in range(n):
        actions = sample_trace_from_table(omega, 6, 6, s)
        delays += np.array(consumed_before_write(actions), dtype=float)
    delays /= n
    for i in range(6):
        assert abs(delays[i] - (i + 1)) <= 1.0


def _reference_walk(table, m, n, rng):
    """Scalar table walk: one rng.random() per free state, clamped lookup."""
    w = r = 0
    out = []
    while w < n or r < m:
        if r == 0 or w == n:
            a = R
        elif r == m:
            a = W
        else:
            p = min(max(float(table[w, r - 1]), PROB_CLAMP), 1.0 - PROB_CLAMP)
            a = W if rng.random() < p else R
        out.append(a)
        if a is R:
            r += 1
        else:
            w += 1
    return out


def _three_pass_elbo(likelihood, phi, omega, m, n, n_samples, seed):
    """The estimate built from the per-trace API: sample, align, score twice."""
    rng = np.random.default_rng(seed)
    loglik_sum = 0.0
    ratio_sum = 0.0
    for _ in range(n_samples):
        actions = _reference_walk(phi, m, n, rng)
        loglik_sum += float(likelihood(actions_to_alignment(actions, m, n)))
        ratio_sum += path_log_ratio(actions, phi, omega, m, n)
    loglik = loglik_sum / n_samples
    kl = ratio_sum / n_samples
    return loglik - kl, kl, loglik


# table entries on, inside and outside [0, 1]; outside values are clamped
_ENTRY = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, -0.5, 1.5, PROB_CLAMP / 2, 1.0 - PROB_CLAMP / 2]),
)


@st.composite
def _elbo_inputs(draw, max_side=12):
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))

    def table(elements):
        return np.array(draw(st.lists(elements, min_size=m * n, max_size=m * n))).reshape(n, m)

    phi, omega = table(_ENTRY), table(_ENTRY)
    weights = table(st.floats(-2.0, 2.0))
    return m, n, phi, omega, weights, draw(st.integers(1, 300)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_elbo_inputs())
@example((7, 1, np.full((1, 7), 0.5), np.zeros((1, 7)), np.ones((1, 7)), 40, 3))
@example((1, 7, np.full((7, 1), 0.5), np.ones((7, 1)), np.ones((7, 1)), 40, 3))
def test_estimate_elbo_equals_three_pass_reference(case):
    m, n, phi, omega, weights, n_samples, seed = case
    loglik = _tabular_likelihood(weights)
    before = clamp_warning_count()
    got = estimate_elbo(loglik, phi, omega, m, n, n_samples, seed)
    between = clamp_warning_count()
    assert got == _three_pass_elbo(loglik, phi, omega, m, n, n_samples, seed)
    # both count one per clamped lookup in each table at each free step
    assert between - before == clamp_warning_count() - between
    want = _reference_walk(phi, m, n, np.random.default_rng(seed))
    assert sample_trace_from_table(phi, m, n, seed) == want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_elbo_inputs(max_side=4))
def test_exact_elbo_equals_per_trace_sum(case):
    m, n, phi, omega, weights, _, _ = case
    loglik = _tabular_likelihood(weights)
    want_elbo = 0.0
    terms = []
    clamps = 0
    for actions in enumerate_traces(m, n):
        lp_phi, phi_clamps = _step_product_log_prob(actions, phi, m, n)
        lp_omega, omega_clamps = _step_product_log_prob(actions, omega, m, n)
        clamps += phi_clamps + omega_clamps
        ll = loglik(actions_to_alignment(actions, m, n))
        want_elbo += math.exp(lp_phi) * (ll - (lp_phi - lp_omega))
        terms.append(lp_omega + ll)
    before = clamp_warning_count()
    elbo, log_marginal = exact_elbo(loglik, phi, omega, m, n)
    assert elbo == want_elbo
    assert clamp_warning_count() - before == clamps
    assert log_marginal == pytest.approx(math.log(sum(math.exp(t) for t in terms)), abs=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_elbo_inputs(max_side=8))
@example((3, 2, np.zeros((2, 3)), np.ones((2, 3)), np.zeros((2, 3)), 1, 0))
def test_path_log_ratio_equals_two_scorer_difference(case):
    # path_log_ratio as one walk is the difference of two scalar scorers,
    # bit for bit, and counts the clamped lookups of both tables
    m, n, phi, omega, _, _, seed = case
    actions = _reference_walk(phi, m, n, np.random.default_rng(seed))
    lq, q_clamps = _step_product_log_prob(actions, phi, m, n)
    lp, p_clamps = _step_product_log_prob(actions, omega, m, n)
    before = clamp_warning_count()
    assert path_log_ratio(actions, phi, omega, m, n) == lq - lp
    assert clamp_warning_count() - before == q_clamps + p_clamps


def test_estimate_elbo_pinned_bench_input():
    # the benchmark's policy-math ELBO call: 30x30, 200 samples, seed 32
    phi = diagonal_prior(30, 30, sharpness=2.0)
    omega = diagonal_prior(30, 30, sharpness=0.5)
    weights = np.random.default_rng(32).normal(0.0, 0.1, size=(30, 30))
    got = estimate_elbo(_tabular_likelihood(weights), phi, omega, 30, 30, 200, rng_seed=32)
    assert got == (-6.067197225825012, 5.741515688544682, -0.3256815372803301)


def test_estimate_elbo_counts_each_clamped_lookup():
    # phi = 0 reads at both free states (0,1) and (0,2) of every sample;
    # omega = 1 is clamped there too: two counts per free state
    reset_clamp_warnings()
    estimate_elbo(lambda a: 0.0, np.zeros((2, 3)), np.ones((2, 3)), 3, 2, 5, rng_seed=0)
    assert clamp_warning_count() == 5 * 2 * 2
    reset_clamp_warnings()


def test_sample_trace_counts_each_clamped_lookup():
    # zero write-probability reads at the four free states (0,1)..(0,4);
    # the sampler walks the one table as both of the walk's tables
    reset_clamp_warnings()
    assert sample_trace_from_table(np.zeros((4, 5)), 5, 4, 0) == [R] * 5 + [W] * 4
    assert clamp_warning_count() == 4 * 2
    reset_clamp_warnings()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_tables_are_rejected(bad):
    ok = np.full((2, 3), 0.5)
    broken = ok.copy()
    broken[1, 1] = bad
    trace = [R, W, R, W, R]
    calls = {
        "policy": [lambda: sample_trace_from_table(broken, 3, 2, 0)],
        "phi": [
            lambda: path_log_ratio(trace, broken, ok, 3, 2),
            lambda: estimate_elbo(lambda a: 0.0, broken, ok, 3, 2, 5, rng_seed=0),
            lambda: exact_elbo(lambda a: 0.0, broken, ok, 3, 2),
        ],
        "omega": [
            lambda: path_log_ratio(trace, ok, broken, 3, 2),
            lambda: estimate_elbo(lambda a: 0.0, ok, broken, 3, 2, 5, rng_seed=0),
            lambda: exact_elbo(lambda a: 0.0, ok, broken, 3, 2),
        ],
    }
    for name, fns in calls.items():
        for fn in fns:
            with pytest.raises(ValueError, match=f"{name} table must be finite"):
                fn()


@pytest.mark.parametrize("ll", [-1e6, 1e6])
def test_exact_log_marginal_survives_extreme_likelihoods(ll):
    omega = np.full((3, 3), 0.5)
    elbo, log_marginal = exact_elbo(lambda a: ll, omega, omega, 3, 3)
    assert log_marginal == pytest.approx(ll, abs=1e-9)
    assert elbo <= log_marginal + 1e-9


def test_exact_elbo_rejects_nonfinite_likelihood():
    phi = np.full((2, 2), 0.5)
    with pytest.raises(RuntimeError, match="trace 0"):
        exact_elbo(lambda a: float("nan"), phi, phi, 2, 2)


@pytest.mark.parametrize("m, n", [(0, 2), (0, 1), (2, 0), (1, 0), (0, 0), (-1, 3)])
def test_enumerate_traces_rejects_an_empty_side(m, n):
    with pytest.raises(ValueError, match="M, N >= 1"):
        enumerate_traces(m, n)
