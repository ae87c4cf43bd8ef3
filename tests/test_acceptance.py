"""End-to-end gate: every numbered requirement the package commits to.

Each test asserts its condition and records a PASS/FAIL line that the
terminal summary prints, so a full run ends with one line per criterion.
"""

import time

import numpy as np

from simulstream.corpus import SyntheticTaskSpec, generate_corpus
from simulstream.distill import SyntheticRankOracle, aux_attention_loss, extract_offline_policy
from simulstream.session import (
    ComputeModel,
    PolicySpec,
    SessionConfig,
    policy_from_spec,
    run_session,
)
from simulstream.verification import (
    check_alignment_enumeration,
    check_average_lagging_examples,
    check_conservation,
    check_instability_witness,
    check_milk,
    check_waitk_al_property,
    emission_rate_sessions,
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

from conftest import record_criterion

SWEEP_SEED = 2024


def test_criterion_1_alignment_oracle_equivalence():
    t0 = time.monotonic()
    result = check_alignment_enumeration(1000, seed=101)
    dt = time.monotonic() - t0
    ok = result.ok and dt < 60.0
    record_criterion(
        1,
        "stable expected alignment matches exact enumeration on 1000 small matrices",
        ok,
        f"{result.detail}, {dt:.1f}s",
    )
    assert ok


def test_criterion_2_instability_witness():
    result = check_instability_witness()
    record_criterion(
        2,
        "division-form alignment diverges on the witness while the stable form stays stochastic",
        result.ok,
        result.detail,
    )
    assert result.ok


def test_criterion_3_milk_matches_naive():
    result = check_milk(100, seed=303)
    record_criterion(
        3,
        "soft attention matches the naive double loop on 100 random instances",
        result.ok,
        result.detail,
    )
    assert result.ok


def test_criterion_4_average_lagging_exact():
    examples = check_average_lagging_examples()
    identity = check_waitk_al_property(6, 700.0)
    ok = examples.ok and identity.ok
    record_criterion(
        4,
        "average lagging reproduces hand-worked values and the wait-k identity",
        ok,
        f"{examples.detail}; {identity.detail} to 1e-9",
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
    policy = policy_from_spec(config.policy)
    for utt in corpus:
        rep = run_session(utt, config, policy).report()
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
        policy = policy_from_spec(config.policy)
        results = [run_session(utt, config, policy) for utt in corpus]
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
    conservation = check_conservation()
    # eager emission (l = 1) never delivers a token later than one call per utterance (l = N)
    ordered = all(
        all(a <= b for a, b in zip(eager.ideal_delays_us, lazy.ideal_delays_us))
        for _, _, (eager, _, lazy) in emission_rate_sessions()
    )
    ok = conservation.ok and ordered
    record_criterion(
        10,
        "audio duration is conserved across emission rates and eager emission is never later",
        ok,
        "l in {1, 5, N} over 5 utterances",
    )
    assert ok
