"""Latency metrics for streaming translation sessions.

Average lagging compares each output's delay d(y_i) against an ideal
policy that spreads the source duration T_X evenly over the |Y|
outputs:

    AL = (1/tau) * sum_{i<=tau} [ d(y_i) - (T_X / |Y|) * (i - 1) ]

tau cuts the sum at the first output that had the whole source
available, because later outputs lag only by construction of the
metric, not by policy choice. Two variants share the formula and AL's
tau, `full_source_index`: ideal delays count only input waiting; CA-AL
adds the session's compute time, so it can fall as k rises (620 ms at
wait-1, 480 at wait-2 for a 2x2 utterance at 400 ms vocoder per unit).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class DelayProfile:
    delays_ms: tuple[float, ...]
    source_duration_ms: float
    # 1-based index of the first output emitted with the full source
    # consumed, when the producing session recorded it
    full_source_index: Optional[int] = None

    def __post_init__(self):
        if not self.delays_ms:
            raise MetricError("empty delay profile")
        if not 0.0 < self.source_duration_ms < math.inf:  # NaN fails both
            if math.isfinite(self.source_duration_ms):
                raise MetricError("source duration must be positive")
            raise MetricError(f"source duration must be finite, got {self.source_duration_ms}")
        # one chained test per delay rejects NaN, +-inf and a step back; the
        # finite start makes a leading -inf fail it too
        prev = -sys.float_info.max
        for d in self.delays_ms:
            if not prev - 1e-9 <= d < math.inf:
                if math.isfinite(d):
                    raise MetricError("delays must be non-decreasing")
                raise MetricError(f"delays must be finite, got {d}")
            prev = d
        if self.full_source_index is not None and not 1 <= self.full_source_index <= len(
            self.delays_ms
        ):
            raise MetricError("full_source_index out of range")


def _first_full_source(profile: DelayProfile) -> int:
    if profile.full_source_index is not None:
        return profile.full_source_index
    for i, d in enumerate(profile.delays_ms, start=1):
        if d >= profile.source_duration_ms - 1e-9:
            return i
    return len(profile.delays_ms)


def average_lagging(profile: DelayProfile, tgt_len: Optional[int] = None) -> float:
    """AL in ms; tgt_len defaults to the profile length."""
    n = tgt_len if tgt_len is not None else len(profile.delays_ms)
    if n < 1:
        raise MetricError("target length must be >= 1")
    tau = min(_first_full_source(profile), len(profile.delays_ms))
    step = profile.source_duration_ms / n
    total = 0.0
    for i in range(1, tau + 1):
        total += profile.delays_ms[i - 1] - step * (i - 1)
    return total / tau


def latency_loss(profile: DelayProfile, tgt_len: Optional[int] = None) -> float:
    """Differentiable stand-in for AL: same sum with the cutoff pinned
    to the full output, so no data-dependent branch remains."""
    n = tgt_len if tgt_len is not None else len(profile.delays_ms)
    step = profile.source_duration_ms / n
    total = 0.0
    for i, d in enumerate(profile.delays_ms, start=1):
        total += d - step * (i - 1)
    return total / len(profile.delays_ms)


def expected_delays(alpha: np.ndarray, per_source_ms: float) -> DelayProfile:
    """Mean consumed source position per output, scaled to time."""
    import numpy as np  # here, so that the per-session metrics need no numpy

    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 2 or alpha.size == 0:
        raise MetricError("alignment must be a non-empty matrix")
    if per_source_ms <= 0:
        raise MetricError("per_source_ms must be positive")
    positions = np.arange(1, alpha.shape[1] + 1)
    delays = alpha @ positions * per_source_ms
    return DelayProfile(
        delays_ms=tuple(float(d) for d in delays),
        source_duration_ms=alpha.shape[1] * per_source_ms,
    )


class LatencyReport(NamedTuple):
    """A session's latency metrics: with its id and quality, its CSV row
    (REPORT_CSV_COLUMNS) and, by those names, its wire METRICS body."""

    al_ms: float
    ca_al_ms: float
    mean_delay_ms: float
    discont_ms: float
    n_tokens: int


REPORT_CSV_COLUMNS = ("id", *LatencyReport._fields, "quality")
_CSV_ROW = ",".join(
    ["%s", *("%d" if name == "n_tokens" else "%.3f" for name in LatencyReport._fields), "%.3f"]
)


def build_report(
    ideal: DelayProfile, ca: DelayProfile, discont_ms: float, tgt_len: int
) -> LatencyReport:
    if len(ideal.delays_ms) != len(ca.delays_ms):
        raise MetricError("profile lengths differ")
    mean_delay = sum(ideal.delays_ms) / len(ideal.delays_ms)
    return LatencyReport(
        al_ms=average_lagging(ideal, tgt_len),
        ca_al_ms=average_lagging(ca, tgt_len),
        mean_delay_ms=mean_delay,
        discont_ms=discont_ms,
        n_tokens=len(ideal.delays_ms),
    )


def report_csv_header() -> str:
    return ",".join(REPORT_CSV_COLUMNS)


def report_csv_row(utt_id: str, report: LatencyReport, quality: float) -> str:
    """A REPORT_CSV_COLUMNS row: n_tokens an integer, the rest to three decimals."""
    return _CSV_ROW % (utt_id, *report, quality)


def corpus_mean(
    reports: Sequence[LatencyReport], qualities: Sequence[float]
) -> tuple[LatencyReport, float]:
    """Each field's mean over a corpus, n_tokens summed; and the mean quality."""
    n = len(reports)
    mean = LatencyReport(*(sum(column) / n for column in zip(*reports)))
    return mean._replace(n_tokens=sum(r.n_tokens for r in reports)), sum(qualities) / n


def metrics_to_dict(utt_id: str, report: LatencyReport, quality: float) -> dict:
    """The metrics by REPORT_CSV_COLUMNS name, in that order."""
    return dict(zip(REPORT_CSV_COLUMNS, (utt_id, *report, quality)))


def checked_fields(d, rules: dict, what: str) -> list:
    """d's value for each key of rules, in that order, each checked by its
    (ok, want) rule, which refuses None; a rule of None lets the key be
    absent (value None) for the caller to check. A d that is not a dict, a
    key missing or refused, or a key rules does not name raises ValueError."""
    if type(d) is not dict:
        raise ValueError(f"{what} is not an object")
    values = []
    for key, rule in rules.items():
        value = d.get(key)
        if rule is not None and not rule[0](value):
            if key not in d:
                raise ValueError(f"missing field {key!r}")
            raise ValueError(f"{key} {value!r} is not {rule[1]}")
        values.append(value)
    if not d.keys() <= rules.keys():
        raise ValueError(f"unknown field {next(key for key in d if key not in rules)!r}")
    return values


# (ok, want) rules for checked_fields, none of which takes None
STR = (lambda v: type(v) is str, "a string")
BOOL = (lambda v: type(v) is bool, "true or false")
INT = (lambda v: type(v) is int, "an integer")  # a bool is not
# an int or a float within float range: never a bool, NaN or inf
NUMBER = (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number")
# a time in ms that the engine can count in whole us (round(ms * 1000)):
# at least 1 us, and a count that a float holds
TIME_MS = (
    lambda v: NUMBER[0](v) and 0.5 < v * 1e3 < math.inf,
    f"a finite number of ms over 0.0005 and at most {sys.float_info.max / 1e3!r}",
)
# a stored token list: a JSON list of integers, none a bool
INTS = (lambda v: type(v) is list and {*map(type, v)} <= {int}, "a list of integers")
# each REPORT_CSV_COLUMNS key's rule, in that order
COLUMN_RULES = {key: {"id": STR, "n_tokens": INT}.get(key, NUMBER) for key in REPORT_CSV_COLUMNS}

