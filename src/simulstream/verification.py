"""Self-contained correctness suites behind the verify command.

Each check recomputes its expectation from scratch (hand-derived
constants, brute-force enumerations, naive reference formulas) and
compares the production code against it. The test suite runs the same
ground another way; this module exists so a deployed install can be
probed without pytest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import alignment, latency, vmma
from .actions import Action, consumed_before_write, wait_k_trace
from .corpus import SyntheticTaskSpec, generate_corpus, quality_score
from .session import ComputeModel, PolicySpec, SessionConfig, WaitKPolicy, run_session

WITNESS_SEED = 32


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def random_stepwise(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    p = rng.uniform(0.05, 1.0, size=(n, m))
    p[:, -1] = 1.0
    return p


def check_alignment_enumeration(n_matrices: int = 300, seed: int = 7) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_matrices):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        p = random_stepwise(rng, n, m)
        a = alignment.expected_alignment_stable(p)
        b = alignment.enumerate_alignment_oracle(p)
        worst = max(worst, float(np.abs(a - b).max()))
    return CheckResult(
        "alignment matches exhaustive path enumeration",
        worst < 1e-9,
        f"max abs err {worst:.2e} over {n_matrices} matrices",
    )


def check_instability_witness() -> CheckResult:
    p = alignment.spiky_low_probability_matrix(seed=WITNESS_SEED)
    div = alignment.expected_alignment_div(p)
    stable = alignment.expected_alignment_stable(p)
    div_max = float(np.nanmax(np.abs(div)))
    diverged = (not np.all(np.isfinite(div))) or div_max > 10.0
    row_sums = stable.sum(axis=1)
    stable_ok = (
        bool(np.all(stable >= 0.0))
        and bool(np.all(stable <= 1.0))
        and float(np.abs(row_sums - 1.0).max()) < 1e-9
    )
    return CheckResult(
        "division form diverges where the stable form stays stochastic",
        diverged and stable_ok,
        f"division max {div_max:.3e}; stable row-sum err {float(np.abs(row_sums - 1.0).max()):.1e}",
    )


def _milk_naive(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    n, m = a.shape
    beta = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            total = 0.0
            for k in range(j, m):
                total += a[i, k] * math.exp(u[i, j]) / sum(math.exp(u[i, e]) for e in range(k + 1))
            beta[i, j] = total
    return beta


def check_milk(n_cases: int = 100, seed: int = 11) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_row = 0.0
    for _ in range(n_cases):
        p = random_stepwise(rng, 5, 5)
        a = alignment.expected_alignment_stable(p)
        u = rng.normal(0.0, 2.0, size=(5, 5))
        fast = alignment.milk_soft_attention(a, u)
        worst = max(worst, float(np.abs(fast - _milk_naive(a, u)).max()))
        worst_row = max(worst_row, float(np.abs(fast.sum(axis=1) - 1.0).max()))
    return CheckResult(
        "soft attention matches the naive double loop",
        worst < 1e-12 and worst_row < 1e-9,
        f"max abs err {worst:.2e}; row-sum err {worst_row:.2e}",
    )


def check_average_lagging_examples() -> CheckResult:
    offline = latency.DelayProfile((3000.0, 3000.0, 3000.0), 3000.0)
    wait1 = latency.DelayProfile((1000.0, 2000.0, 3000.0), 3000.0)
    wait2 = latency.DelayProfile((2000.0, 3000.0, 4000.0, 4000.0), 4000.0)
    cases = [
        (latency.average_lagging(offline, 3), 3000.0),
        (latency.average_lagging(wait1, 3), 1000.0),
        (latency.average_lagging(wait2, 4), 2000.0),
    ]
    ok = all(abs(got - want) < 1e-9 for got, want in cases)
    return CheckResult(
        "average lagging reproduces hand-worked schedules",
        ok,
        "; ".join(f"{got:.1f} vs {want:.1f}" for got, want in cases),
    )


def check_waitk_al_property(m: int = 8, seg_ms: float = 500.0) -> CheckResult:
    for k in range(1, m + 1):
        g = consumed_before_write(wait_k_trace(k, m, m))
        profile = latency.DelayProfile(
            tuple(x * seg_ms for x in g), m * seg_ms
        )
        al = latency.average_lagging(profile, m)
        if abs(al - k * seg_ms) > 1e-9:
            return CheckResult(
                "wait-k lagging equals k segment durations",
                False,
                f"k={k}: AL {al} != {k * seg_ms}",
            )
    return CheckResult("wait-k lagging equals k segment durations", True, f"k=1..{m}")


def check_latency_loss_examples() -> CheckResult:
    diag = np.eye(4)
    wait_all = np.zeros((4, 4))
    wait_all[:, -1] = 1.0
    l1 = latency.latency_loss(latency.expected_delays(diag, 1.0))
    l2 = latency.latency_loss(latency.expected_delays(wait_all, 1.0))
    two = alignment.expected_alignment_stable(np.array([[0.5, 1.0], [0.5, 1.0]]))
    delays = latency.expected_delays(two, 1.0).delays_ms
    ok = (
        abs(l1 - 1.0) < 1e-12
        and abs(l2 - 2.5) < 1e-12
        and abs(delays[0] - 1.5) < 1e-12
        and abs(delays[1] - 1.75) < 1e-12
    )
    return CheckResult(
        "latency loss and expected delays match hand values",
        ok,
        f"diag {l1}, wait-all {l2}, delays {delays}",
    )


def check_round_trips(n_cases: int = 500, seed: int = 13) -> CheckResult:
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        trace = vmma.sample_change_trace(
            vmma.ConstantScorer(0.5), 0.3, m, n, int(rng.integers(0, 2**31))
        )
        actions = vmma.change_to_actions(trace)
        back = vmma.actions_to_changes(actions)
        if back.changes != trace.changes:
            return CheckResult("trace round-trips are exact", False, f"changes differ at {m}x{n}")
        align = vmma.actions_to_alignment(actions, m, n)
        if vmma.alignment_to_actions(align) != actions:
            return CheckResult("trace round-trips are exact", False, f"alignment differs {m}x{n}")
    return CheckResult("trace round-trips are exact", True, f"{n_cases} sampled traces")


def check_kl_self_consistency(seed: int = 17) -> CheckResult:
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.1, 0.9, size=(4, 5))
    worst = 0.0
    for s in range(50):
        actions = vmma.sample_trace_from_table(phi, 5, 4, s)
        worst = max(worst, abs(vmma.path_log_ratio(actions, phi, phi, 5, 4)))
    return CheckResult("path log-ratio of a table against itself is zero", worst == 0.0, f"max {worst}")


def check_quality_frozen_value() -> CheckResult:
    got = quality_score([1, 2, 3, 4], [1, 2, 3, 5])
    want = 65.80370064762462
    return CheckResult(
        "sentence quality score matches the frozen reference value",
        abs(got - want) < 1e-9,
        f"{got} vs {want}",
    )


def check_conservation(seed: int = 23) -> CheckResult:
    corpus = generate_corpus(SyntheticTaskSpec(50, (6, 10), "identity"), 5, seed)
    for utt in corpus:
        totals = []
        n_units = utt.target_len * 5
        for l in (1, 5, n_units):
            config = SessionConfig(
                policy=PolicySpec("waitk", k=2),
                emission_rate_l=l,
                units_per_token=5,
                compute=ComputeModel(per_decision_ms=1.0, per_unit_ms=0.1),
            )
            result = run_session(utt, config, WaitKPolicy(2))
            spans = [e.payload for e in result.events if e.kind == "vocoder_call"]
            totals.append(sum(s["end_us"] - s["start_us"] for s in spans))
        want = n_units * 20000
        if any(t != want for t in totals):
            return CheckResult(
                "audio duration is conserved across emission rates",
                False,
                f"{utt.id}: {totals} vs {want}",
            )
    return CheckResult("audio duration is conserved across emission rates", True, "l in {1,5,N}")


def run_all(thorough: bool = False) -> list[CheckResult]:
    n_align = 1000 if thorough else 300
    return [
        check_alignment_enumeration(n_align),
        check_instability_witness(),
        check_milk(),
        check_average_lagging_examples(),
        check_waitk_al_property(),
        check_latency_loss_examples(),
        check_round_trips(),
        check_kl_self_consistency(),
        check_quality_frozen_value(),
        check_conservation(),
    ]
