import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simulstream.alignment import expected_alignment_stable
from simulstream.latency import (
    DelayProfile,
    REPORT_CSV_COLUMNS,
    LatencyReport,
    MetricError,
    average_lagging,
    build_report,
    corpus_mean,
    expected_delays,
    latency_loss,
    metrics_to_dict,
    report_csv_header,
    report_csv_row,
)


def _al_reference(delays, t_x, n):
    # literal transcription of the definition, cutoff by first full-source delay
    tau = next((i for i, d in enumerate(delays, 1) if d >= t_x - 1e-9), len(delays))
    return sum(delays[i - 1] - (t_x / n) * (i - 1) for i in range(1, tau + 1)) / tau


def test_matches_reference_on_random_profiles(rng):
    for _ in range(300):
        n = int(rng.integers(1, 12))
        t_x = float(rng.uniform(100.0, 5000.0))
        delays = np.sort(rng.uniform(0.0, 1.5 * t_x, size=n))
        profile = DelayProfile(tuple(delays), t_x)
        assert average_lagging(profile, n) == pytest.approx(_al_reference(delays, t_x, n))


def test_explicit_cutoff_overrides_threshold_scan():
    # delays never reach the source duration; an explicit index still cuts
    profile = DelayProfile((100.0, 200.0, 300.0), 5000.0, full_source_index=2)
    assert average_lagging(profile, 3) == pytest.approx((100.0 + 200.0 - 5000.0 / 3) / 2)
    bare = DelayProfile((100.0, 200.0, 300.0), 5000.0)
    # without the index the scan falls back to the full profile
    assert average_lagging(bare, 3) == pytest.approx(
        (100.0 + (200.0 - 5000.0 / 3) + (300.0 - 2 * 5000.0 / 3)) / 3
    )


def test_latency_loss_frozen_values():
    diag = expected_delays(np.eye(4), 1.0)
    assert latency_loss(diag) == pytest.approx(1.0)
    wait_all = np.zeros((4, 4))
    wait_all[:, -1] = 1.0
    assert latency_loss(expected_delays(wait_all, 1.0)) == pytest.approx(2.5)


def test_latency_loss_sums_past_cutoff():
    profile = DelayProfile((3000.0, 3000.0, 3000.0), 3000.0)
    # AL stops at tau=1; the loss keeps the trailing terms
    assert average_lagging(profile, 3) == pytest.approx(3000.0)
    assert latency_loss(profile, 3) == pytest.approx(3000.0 - 1000.0)


def test_expected_delays_two_by_two():
    a = expected_alignment_stable(np.array([[0.5, 1.0], [0.5, 1.0]]))
    d = expected_delays(a, 1.0).delays_ms
    assert d[0] == pytest.approx(1.5)
    assert d[1] == pytest.approx(1.75)


def test_expected_delays_scaling(rng):
    a = np.array([[1.0, 0.0, 0.0], [0.2, 0.5, 0.3]])
    p1 = expected_delays(a, 10.0)
    p2 = expected_delays(a, 20.0)
    assert tuple(2 * x for x in p1.delays_ms) == pytest.approx(p2.delays_ms)
    assert p2.source_duration_ms == pytest.approx(2 * p1.source_duration_ms)


def test_profile_validation():
    with pytest.raises(MetricError):
        DelayProfile((), 100.0)
    with pytest.raises(MetricError):
        DelayProfile((1.0,), 0.0)
    with pytest.raises(MetricError):
        DelayProfile((2.0, 1.0), 100.0)
    with pytest.raises(MetricError):
        DelayProfile((1.0, 2.0), 100.0, full_source_index=3)
    with pytest.raises(MetricError):
        average_lagging(DelayProfile((1.0,), 100.0), 0)
    with pytest.raises(MetricError):
        expected_delays(np.zeros((0, 0)), 1.0)
    with pytest.raises(MetricError):
        expected_delays(np.eye(2), -1.0)


@pytest.mark.parametrize(
    "delays, duration",
    [
        ((100.0, math.nan, 300.0), 500.0),
        ((math.nan,), 500.0),
        ((100.0, math.inf), 300.0),
        ((-math.inf, 100.0), 300.0),
        ((100.0, 200.0), math.nan),
        ((100.0, 200.0), math.inf),
        ((100.0, 200.0), -math.inf),
    ],
    ids=["nan-delay", "only-nan", "inf-delay", "minus-inf-delay", "nan-t", "inf-t", "minus-inf-t"],
)
def test_profile_rejects_non_finite_numbers(delays, duration):
    with pytest.raises(MetricError, match="finite"):
        DelayProfile(delays, duration)


def test_profile_keeps_its_messages_for_finite_numbers():
    with pytest.raises(MetricError, match="non-decreasing"):
        DelayProfile((2.0, 1.0), 100.0)
    with pytest.raises(MetricError, match="positive"):
        DelayProfile((1.0,), -5.0)
    # the smallest float is a valid first delay
    assert DelayProfile((-1.7976931348623157e308, 0.0), 100.0).delays_ms[0] < 0


def test_expected_delays_rejects_non_finite_inputs():
    with pytest.raises(MetricError, match="finite"):
        expected_delays(np.full((2, 3), np.nan), 100.0)
    with pytest.raises(MetricError, match="finite"):
        expected_delays(np.eye(2), math.nan)
    with pytest.raises(MetricError, match="finite"):
        expected_delays(np.eye(2), math.inf)


def test_computation_aware_never_below_ideal(rng):
    # same cutoff, per-token compute only adds delay
    for _ in range(100):
        n = int(rng.integers(1, 10))
        t_x = float(rng.uniform(500.0, 3000.0))
        base = np.sort(rng.uniform(0.0, t_x, size=n))
        extra = np.cumsum(rng.uniform(0.0, 50.0, size=n))
        tau = int(rng.integers(1, n + 1))
        ideal = DelayProfile(tuple(base), t_x, full_source_index=tau)
        ca = DelayProfile(tuple(base + extra), t_x, full_source_index=tau)
        assert average_lagging(ca, n) >= average_lagging(ideal, n) - 1e-9


def test_report_round_trip_and_csv():
    ideal = DelayProfile((1000.0, 2000.0, 3000.0), 3000.0)
    ca = DelayProfile((1100.0, 2200.0, 3300.0), 3000.0)
    report = build_report(ideal, ca, 42.5, 3)
    assert report.al_ms == pytest.approx(1000.0)
    assert report.mean_delay_ms == pytest.approx(2000.0)
    assert report.n_tokens == 3
    row = report_csv_row("utt-1", report, 55.5)
    header = report_csv_header()
    assert header.split(",")[0] == "id"
    assert len(row.split(",")) == len(header.split(","))
    assert row.startswith("utt-1,1000.000,")
    assert row.endswith(",3,55.500")


def test_report_length_mismatch():
    a = DelayProfile((1.0,), 10.0)
    b = DelayProfile((1.0, 2.0), 10.0)
    with pytest.raises(MetricError):
        build_report(a, b, 0.0, 2)


def _old_row(utt_id, al, ca, mean, discont, n_tokens, quality):
    # the formatter every CSV writer used to spell out for itself
    return (
        f"{utt_id},{al:.3f},{ca:.3f},{mean:.3f},{discont:.3f},{n_tokens},{quality:.3f}"
    )


_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_reports = st.builds(LatencyReport, _floats, _floats, _floats, _floats, st.integers(0, 10**6))


@given(st.lists(st.tuples(_reports, _floats), min_size=1, max_size=12))
def test_rows_and_corpus_mean_match_the_old_formatting(rows):
    for report, quality in rows:
        assert report_csv_row("u", report, quality) == _old_row("u", *report, quality)
    reports = [r for r, _ in rows]
    n = len(rows)
    old_mean = [sum([getattr(r, name) for r in reports]) / n for name in LatencyReport._fields[:4]]
    old_quality = sum([q for _, q in rows]) / n
    old = _old_row("aggregate", *old_mean, sum(r.n_tokens for r in reports), old_quality)
    assert report_csv_row("aggregate", *corpus_mean(reports, [q for _, q in rows])) == old


def test_report_csv_columns_are_the_metrics_keys():
    assert REPORT_CSV_COLUMNS == (
        "id", "al_ms", "ca_al_ms", "mean_delay_ms", "discont_ms", "n_tokens", "quality"
    )
    report = LatencyReport(1.0, 2.0, 3.0, 0.0, 4)
    assert list(metrics_to_dict("u", report, 5.0)) == list(REPORT_CSV_COLUMNS)
    assert report_csv_header() == ",".join(REPORT_CSV_COLUMNS)
