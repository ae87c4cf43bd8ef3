"""End-to-end gate: every numbered requirement the package commits to.

Each test asserts its condition and records a PASS/FAIL line that the
terminal summary prints, so a full run ends with one line per criterion.
"""

import time

import numpy as np
import pytest

from simulstream.actions import consumed_before_write, wait_k_trace
from simulstream.alignment import (
    enumerate_alignment_oracle,
    expected_alignment_div,
    expected_alignment_stable,
    milk_soft_attention,
    spiky_low_probability_matrix,
)
from simulstream.corpus import SyntheticTaskSpec, generate_corpus
from simulstream.distill import SyntheticRankOracle, aux_attention_loss, extract_offline_policy
from simulstream.latency import DelayProfile, average_lagging
from simulstream.session import (
    ComputeModel,
    PolicySpec,
    SessionConfig,
    WaitKPolicy,
    run_corpus,
    run_session,
)
from simulstream.vmma import (
    ConstantScorer,
    enumerate_traces,
    estimate_elbo,
    exact_elbo,
    path_log_ratio,
    sample_change_trace,
    sample_trace_from_table,
)
from simulstream.wire import connect, serve

from conftest import record_criterion, random_stepwise

WITNESS_SEED = 32
SWEEP_SEED = 2024


def test_criterion_1_alignment_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        p = random_stepwise(rng, n, m)
        err = np.abs(expected_alignment_stable(p) - enumerate_alignment_oracle(p)).max()
        worst = max(worst, float(err))
    dt = time.monotonic() - t0
    ok = worst < 1e-9 and dt < 60.0
    record_criterion(
        1,
        "stable expected alignment matches exact enumeration on 1000 small matrices",
        ok,
        f"max err {worst:.2e}, {dt:.1f}s",
    )
    assert ok


def test_criterion_2_instability_witness():
    p = spiky_low_probability_matrix(200, 200, seed=WITNESS_SEED)
    div = expected_alignment_div(p)
    stable = expected_alignment_stable(p)
    div_peak = float(np.abs(div).max())
    diverged = (not np.all(np.isfinite(div))) or div_peak > 10.0
    in_range = bool(np.all(stable >= 0.0) and np.all(stable <= 1.0))
    row_err = float(np.abs(stable.sum(axis=1) - 1.0).max())
    ok = diverged and in_range and row_err < 1e-9
    record_criterion(
        2,
        "division-form alignment diverges on the witness while the stable form stays stochastic",
        ok,
        f"seed {WITNESS_SEED}: div peak {div_peak:.3g}, stable row err {row_err:.1e}",
    )
    assert ok


def test_criterion_3_milk_matches_naive():
    rng = np.random.default_rng(303)
    worst = 0.0
    worst_row = 0.0
    for _ in range(100):
        alpha = expected_alignment_stable(random_stepwise(rng, 5, 5))
        u = rng.normal(0.0, 2.0, size=(5, 5))
        beta = milk_soft_attention(alpha, u)
        e = np.exp(u)
        ref = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                acc = 0.0
                for k in range(j, 5):
                    acc += alpha[i, k] * e[i, j] / e[i, : k + 1].sum()
                ref[i, j] = acc
        worst = max(worst, float(np.abs(beta - ref).max()))
        worst_row = max(worst_row, float(np.abs(beta.sum(axis=1) - 1.0).max()))
    ok = worst < 1e-12 and worst_row < 1e-9
    record_criterion(
        3,
        "soft attention matches the naive double loop on 100 random instances",
        ok,
        f"max err {worst:.2e}, row err {worst_row:.2e}",
    )
    assert ok


def test_criterion_4_average_lagging_exact():
    offline = average_lagging(DelayProfile((3000.0, 3000.0, 3000.0), 3000.0), 3)
    wait1 = average_lagging(DelayProfile((1000.0, 2000.0, 3000.0), 3000.0), 3)
    wait2 = average_lagging(DelayProfile((2000.0, 3000.0, 4000.0, 4000.0), 4000.0), 4)
    ok = offline == 3000.0 and wait1 == 1000.0 and wait2 == 2000.0
    seg = 700.0
    m = 6
    for k in range(1, m + 1):
        g = consumed_before_write(wait_k_trace(k, m, m))
        al = average_lagging(DelayProfile(tuple(x * seg for x in g), m * seg), m)
        ok = ok and abs(al - k * seg) < 1e-9
    record_criterion(
        4,
        "average lagging reproduces hand-worked values and the wait-k identity",
        ok,
        f"offline {offline:.0f}, wait-1 {wait1:.0f}, wait-2 {wait2:.0f}, k identity to 1e-9",
    )
    assert ok


def test_criterion_5_computation_aware_dominates():
    corpus = generate_corpus(
        SyntheticTaskSpec(120, (6, 14), "random-monotone", noise_rate=0.4), 100, seed=77
    )
    config = SessionConfig(
        policy=PolicySpec("vmma", lam=0.2, seed=5),
        emission_rate_l=2,
        compute=ComputeModel(per_decision_ms=3.0, per_unit_ms=0.8),
    )
    worst = float("inf")
    for result in run_corpus(corpus, config):
        rep = result.report()
        worst = min(worst, rep.ca_al_ms - rep.al_ms)
    ok = worst >= -1e-9
    record_criterion(
        5,
        "computation-aware lagging is never below ideal lagging across 100 sessions",
        ok,
        f"min(CA-AL - AL) = {worst:.3f} ms",
    )
    assert ok


def test_criterion_6_variational_policy_statistics():
    t0 = time.monotonic()
    m, n = 10, 8

    def change_counts(lam, n_samples, base):
        return np.array(
            [
                sample_change_trace(ConstantScorer(0.5), lam, m, n, base + s).n_changes
                for s in range(n_samples)
            ],
            dtype=np.float64,
        )

    slow = change_counts(0.01, 10_000, 1_000_000)
    fast = change_counts(0.5, 10_000, 2_000_000)
    margin = fast.mean() - slow.mean()
    sigma = float(np.sqrt(fast.var(ddof=1) / fast.size + slow.var(ddof=1) / slow.size))
    freq_ok = margin > 3 * sigma

    rng = np.random.default_rng(606)
    phi = rng.uniform(0.2, 0.8, size=(3, 3))
    ratio_worst = 0.0
    for s in range(200):
        actions = sample_trace_from_table(phi, 3, 3, s)
        ratio_worst = max(ratio_worst, abs(path_log_ratio(actions, phi, phi, 3, 3)))
    ratio_ok = ratio_worst == 0.0

    omega = rng.uniform(0.2, 0.8, size=(3, 3))
    _, kl, _ = estimate_elbo(lambda a: 0.0, phi, omega, 3, 3, 100_000, rng_seed=9)
    kl_ok = kl >= -0.01

    bound_ok = True
    gap_min = float("inf")
    for case in range(50):
        phi_c = rng.uniform(0.1, 0.9, size=(3, 3))
        omega_c = rng.uniform(0.1, 0.9, size=(3, 3))
        weights = rng.normal(0.0, 1.0, size=(3, 3))
        elbo, log_marginal = exact_elbo(
            lambda a: float((a * weights).sum()), phi_c, omega_c, 3, 3
        )
        gap = log_marginal - elbo
        gap_min = min(gap_min, gap)
        bound_ok = bound_ok and gap >= -1e-9
    n_traces = len(enumerate_traces(3, 3))
    dt = time.monotonic() - t0
    ok = freq_ok and ratio_ok and kl_ok and bound_ok and n_traces == 10 and dt < 300.0
    record_criterion(
        6,
        "change-rate ordering, zero self-ratio, non-negative KL, and the evidence bound hold",
        ok,
        f"freq margin {margin:.2f} vs 3sigma {3 * sigma:.2f}; self-ratio {ratio_worst}; "
        f"KL {kl:.4f}; min bound gap {gap_min:.2e}; {dt:.1f}s",
    )
    assert ok


def test_criterion_7_offline_policy_extraction():
    rng = np.random.default_rng(707)
    spec = SyntheticTaskSpec(80, (4, 12), "random-monotone", noise_rate=0.5)
    corpus = generate_corpus(spec, 100, seed=41)
    extract_ok = True
    for utt in corpus:
        m = utt.source_len
        probes = sorted(set(int(x) for x in rng.integers(1, m + 1, size=4)) | {m})
        table = extract_offline_policy(
            SyntheticRankOracle(utt.oracle_alignment), probes, r=1, tgt_len=utt.target_len
        )
        for j, L in enumerate(table.prefix_lengths, start=1):
            want = min(p for p in probes if p >= utt.oracle_alignment[j - 1])
            extract_ok = extract_ok and L == want

    bounds_ok = True
    for _ in range(500):
        size = int(rng.integers(1, 9))
        row = rng.uniform(0, 1, size=size)
        total = row.sum()
        if total > 1.0:
            row = row / total
        lo = int(rng.integers(0, size))
        hi = int(rng.integers(lo + 1, size + 1))
        loss = aux_attention_loss(row, (lo, hi))
        bounds_ok = bounds_ok and -1.0 - 1e-12 <= loss <= 0.0
    ok = extract_ok and bounds_ok
    record_criterion(
        7,
        "offline table extraction picks the smallest sufficient probe; loss stays in [-1, 0]",
        ok,
        "100 utterances, 500 random rows",
    )
    assert ok


def test_criterion_8_quality_latency_tradeoff():
    t0 = time.monotonic()
    spec = SyntheticTaskSpec(200, (10, 18), "random-monotone", noise_rate=0.45)
    corpus = generate_corpus(spec, 40, seed=SWEEP_SEED)
    ks = (1, 3, 5, 10, 15)
    quality = []
    lagging = []
    for k in ks:
        config = SessionConfig(policy=PolicySpec("waitk", k=k))
        results = run_corpus(corpus, config, WaitKPolicy(k))
        quality.append(sum(r.quality for r in results) / len(results))
        lagging.append(sum(r.report().al_ms for r in results) / len(results))
    inversions = sum(1 for a, b in zip(quality, quality[1:]) if b < a - 1e-9)
    al_increasing = all(b > a for a, b in zip(lagging, lagging[1:]))
    dt = time.monotonic() - t0
    ok = inversions <= 1 and al_increasing and dt < 120.0
    record_criterion(
        8,
        "wait-k sweep on the pinned task trades latency for quality in the expected shape",
        ok,
        f"seed {SWEEP_SEED}: quality {[round(q, 1) for q in quality]}, "
        f"AL {[round(a) for a in lagging]}, {inversions} inversions, {dt:.1f}s",
    )
    assert ok


def test_criterion_9_wire_equals_in_process():
    corpus = generate_corpus(
        SyntheticTaskSpec(90, (5, 11), "random-monotone", noise_rate=0.3), 10, seed=55
    )
    config = SessionConfig(
        policy=PolicySpec("waitk", k=3),
        emission_rate_l=3,
        compute=ComputeModel(per_decision_ms=2.0, per_unit_ms=0.5),
    )
    server = serve("127.0.0.1", 0, corpus, config, fast_forward=True)
    try:
        host, port = server.address
        exchanges = connect(host, port)
    finally:
        server.shutdown()
    gaps = [ex.max_field_gap() for ex in exchanges]
    ok = len(exchanges) == 10 and not server.failures and max(gaps) < 1.0
    record_criterion(
        9,
        "loopback serve/connect reproduces in-process metrics for 10 sessions",
        ok,
        f"max per-field gap {max(gaps) if gaps else float('nan'):.6f} ms",
    )
    assert ok


def test_criterion_10_emission_rate_properties():
    corpus = generate_corpus(SyntheticTaskSpec(70, (6, 10), "identity"), 5, seed=23)
    unit_us = 20_000
    conserved = True
    ordered = True
    for utt in corpus:
        n_units = utt.target_len * 5
        delays = {}
        for l in (1, 5, n_units):
            config = SessionConfig(
                policy=PolicySpec("waitk", k=2),
                emission_rate_l=l,
                units_per_token=5,
                compute=ComputeModel(per_decision_ms=1.0, per_unit_ms=0.1),
            )
            result = run_session(utt, config, WaitKPolicy(2))
            # vocoder_call rows: (t_us, wall_us, kind, n_units, start_us, end_us)
            total = sum(e[5] - e[4] for e in result.events if e[2] == "vocoder_call")
            conserved = conserved and total == n_units * unit_us
            delays[l] = result.ideal_delays_us
        ordered = ordered and all(a <= b for a, b in zip(delays[1], delays[n_units]))
    ok = conserved and ordered
    record_criterion(
        10,
        "audio duration is conserved across emission rates and eager emission is never later",
        ok,
        "l in {1, 5, N} over 5 utterances",
    )
    assert ok
