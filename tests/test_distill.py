
import numpy as np
import pytest

from simulstream.corpus import SyntheticTaskSpec, generate_corpus
from simulstream.distill import (
    OfflinePolicyTable,
    SyntheticRankOracle,
    aux_attention_loss,
    extract_offline_policy,
    offline_label_prior,
)
from simulstream.actions import consumed_before_write
from simulstream.vmma import sample_trace_from_table


class _ConstantRank:
    def __init__(self, value):
        self.value = value

    def rank(self, prefix_len, target_index):
        return self.value


class _FullSourceOnly:
    def __init__(self, m):
        self.m = m

    def rank(self, prefix_len, target_index):
        return 1 if prefix_len >= self.m else 10


def test_rank_one_everywhere_gives_first_probe():
    table = extract_offline_policy(_ConstantRank(1), [2, 4, 6], r=1, tgt_len=4)
    assert table.prefix_lengths == (2, 2, 2, 2)


def test_unhelpful_oracle_falls_back_to_full_source():
    table = extract_offline_policy(_FullSourceOnly(6), [2, 4, 6], r=3, tgt_len=3)
    assert table.prefix_lengths == (6, 6, 6)
    # no probe qualifies, not even the last: each token takes the last probe
    table = extract_offline_policy(_ConstantRank(10), [2, 4, 6], r=3, tgt_len=3)
    assert table.prefix_lengths == (6, 6, 6)


def test_synthetic_oracle_rank_monotone_in_prefix():
    oracle = SyntheticRankOracle((3, 5, 5))
    for j in (1, 2, 3):
        ranks = [oracle.rank(L, j) for L in range(1, 7)]
        assert all(b <= a for a, b in zip(ranks, ranks[1:]))
    assert oracle.rank(3, 1) == 1
    assert oracle.rank(2, 1) == 2
    with pytest.raises(IndexError):
        oracle.rank(1, 4)


def test_extraction_recovers_smallest_probe_covering_alignment(rng):
    spec = SyntheticTaskSpec(50, (4, 12), "random-monotone", noise_rate=0.6)
    corpus = generate_corpus(spec, 100, seed=17)
    for utt in corpus:
        m = utt.source_len
        # random probe grid that always ends at the full source
        k = int(rng.integers(1, m + 1))
        probes = sorted(set(int(x) for x in rng.integers(1, m + 1, size=k)) | {m})
        oracle = SyntheticRankOracle(utt.oracle_alignment)
        table = extract_offline_policy(oracle, probes, r=1, tgt_len=utt.target_len)
        for j, L in enumerate(table.prefix_lengths, start=1):
            needed = utt.oracle_alignment[j - 1]
            assert L == min(p for p in probes if p >= needed)


def test_extraction_monotone_in_threshold(rng):
    oracle = SyntheticRankOracle((2, 4, 6, 6))
    probes = [1, 2, 3, 4, 5, 6]
    prev = None
    for r in (1, 2, 3, 4):
        table = extract_offline_policy(oracle, probes, r=r, tgt_len=4)
        if prev is not None:
            assert all(b <= a for a, b in zip(prev, table.prefix_lengths))
        prev = table.prefix_lengths


def test_probe_refinement_never_increases_labels():
    oracle = SyntheticRankOracle((2, 3, 5))
    coarse = extract_offline_policy(oracle, [3, 5], r=1, tgt_len=3)
    fine = extract_offline_policy(oracle, [1, 2, 3, 4, 5], r=1, tgt_len=3)
    assert all(f <= c for f, c in zip(fine.prefix_lengths, coarse.prefix_lengths))


def test_extract_validates_probe_grid():
    oracle = SyntheticRankOracle((1, 1))
    with pytest.raises(ValueError):
        extract_offline_policy(oracle, [], r=1, tgt_len=2)
    with pytest.raises(ValueError):
        extract_offline_policy(oracle, [3, 2], r=1, tgt_len=2)
    with pytest.raises(ValueError):
        extract_offline_policy(oracle, [1, 2], r=0, tgt_len=2)


def test_aux_loss_hand_values():
    row = [0.1, 0.2, 0.3, 0.4]
    assert aux_attention_loss(row, (2, 4)) == pytest.approx(-0.7, abs=1e-12)
    assert aux_attention_loss([0.0, 0.0, 1.0], (2, 3)) == pytest.approx(-1.0)
    assert aux_attention_loss([1.0, 0.0, 0.0], (1, 3)) == pytest.approx(0.0)


def test_aux_loss_degenerate_segment_warns():
    with pytest.warns(UserWarning):
        assert aux_attention_loss([0.5, 0.5], (1, 1)) == 0.0


def test_aux_loss_bounds_property(rng):
    for _ in range(300):
        m = int(rng.integers(1, 10))
        row = rng.uniform(0, 1, size=m)
        total = row.sum()
        if total > 0:
            row = row / total * float(rng.uniform(0, 1))  # sub-stochastic too
        lo = int(rng.integers(0, m + 1))
        hi = int(rng.integers(lo, m + 1))
        if lo == hi:
            continue
        loss = aux_attention_loss(row, (lo, hi))
        assert -1.0 - 1e-12 <= loss <= 0.0


def test_aux_loss_input_validation():
    with pytest.raises(ValueError):
        aux_attention_loss([0.8, 0.8], (1, 2))  # mass beyond 1
    with pytest.raises(ValueError):
        aux_attention_loss([0.5], (0, 2))
    with pytest.raises(ValueError):
        aux_attention_loss([-0.1, 0.5], (1, 2))


def test_offline_label_prior_diagonal_is_step_function():
    table = OfflinePolicyTable(1, (1, 2, 3, 4))
    omega = offline_label_prior(table, 4, 4)
    assert omega.shape == (4, 4)
    for i in range(4):
        for j in range(4):
            if j >= i:
                assert omega[i, j] > 0.99
            else:
                assert omega[i, j] < 0.01


def test_offline_label_prior_full_source_waits():
    table = OfflinePolicyTable(1, (4, 4, 4))
    omega = offline_label_prior(table, 4, 3)
    assert np.all(omega[:, :-1] < 0.01)
    assert np.all(omega[:, -1] > 0.99)


def test_offline_label_prior_validation():
    with pytest.raises(ValueError):
        offline_label_prior(OfflinePolicyTable(1, (1, 2)), 4, 3)
    with pytest.raises(ValueError):
        offline_label_prior(OfflinePolicyTable(1, (0, 2)), 4, 2)


def test_sampled_delays_follow_offline_labels(rng):
    labels = (2, 3, 3, 4, 5, 6)
    omega = offline_label_prior(OfflinePolicyTable(1, labels), 6, 6)
    mean = np.zeros(6)
    n = 4000
    for s in range(n):
        actions = sample_trace_from_table(omega, 6, 6, s)
        mean += np.array(consumed_before_write(actions), dtype=float)
    mean /= n
    for i, L in enumerate(labels):
        assert abs(mean[i] - L) <= 1.0
