"""Streaming session simulation with dual clocks.

A Session takes a read/write schedule a step at a time, from a policy's
plan (run_session) or a wire client's messages, against an utterance
whose source segments arrive at fixed intervals. Two clocks advance over
the same event sequence:

* the ideal clock moves only by waiting for segment arrivals;
* the computation-aware clock additionally charges a fixed compute cost
  for every decision and every synthesized unit (ComputeModel).

Target tokens expand into a fixed number of discrete units; a synthesis
stub is called once every emission_rate_l buffered units (plus a final
flush) and emits an audio span on the playback timeline. A token's
delay is the clock reading of the call that produced its last unit.

The event log is the record a session's per-token fields are derived
from (see fold_events). Each event is a row, a tuple (t_us, wall_us,
kind, *fields): t_us is the ideal clock, wall_us the computation-aware
clock, and the fields are those EVENT_FIELDS names for the kind:

* read          (index): the policy consumed source segment index (1-based)
* write         (token, n_units, src_consumed): the policy wrote token
  (1-based) as n_units units after reading src_consumed segments
* vocoder_call  (n_units, start_us, end_us): the synthesis stub consumed
  n_units buffered units, oldest first, and plays them back over
  [start_us, end_us)

A results line stores the log (each event an object with sorted keys),
the hypothesis and a header: id, lengths, duration and quality. from_json
folds the per-token fields from the log and checks the header against it.

Segment arrivals and the end of the session are not logged: segment i
arrives at i * source_duration_us / src_len, and the result stores both.

All internal times are integer microseconds so long sessions cannot
drift; reports are in milliseconds.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import zlib
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from itertools import chain
from operator import itemgetter
from typing import Literal, Optional, Protocol, Sequence, Union, get_args, get_origin, get_type_hints

from .actions import Action, InvalidTraceError, ReadWritePath, wait_k_trace
from .corpus import Utterance, quality_score
from .latency import DelayProfile, LatencyReport, build_report
from .latency import INT, INTS, NUMBER, STR, checked_field

GUESS_BASE = 1 << 20  # synthetic wrong guesses live far outside any vocab
GUESS_SPACE = 1009
OFFLINE_K = sys.maxsize  # a wait-k head start past every source: read it all, then write


class SessionError(RuntimeError):
    pass


PolicyKind = Literal["waitk", "offline", "vmma"]
ScorerKind = Literal["oracle", "constant"]


def _flag(default, flag: str, help: Optional[str] = None):
    """A setting: its default and the command-line flag that sets it."""
    return field(default=default, metadata={"flag": flag, "help": help})


@functools.cache
def _rules(cls) -> dict[str, tuple[object, tuple, bool]]:
    """Per field of cls: (type, Literal values or (), nullable), where
    Optional[X], the only union a setting has, gives X and nullable."""
    rules = {}
    for name, tp in get_type_hints(cls).items():
        nullable = get_origin(tp) is Union
        base = get_args(tp)[0] if nullable else tp
        rules[name] = (base, get_args(base) if get_origin(base) is Literal else (), nullable)
    return rules


def _checked(rule, value, where: str):
    """value, if it obeys its field's rule; a ValueError naming where if not.

    An int setting takes an int, a float setting a finite int or float
    (never a bool), a Literal one of its values, an Optional also None;
    a nested dataclass is built from a dict by _from_dict."""
    tp, choices, nullable = rule
    if is_dataclass(tp):
        return _from_dict(tp, value, where)
    if value is None and nullable:
        return value
    if choices:
        ok, want = value in choices, f"one of {list(choices)}"
    else:  # int or float, the only other types a setting has
        test, want = INT if tp is int else NUMBER
        ok = test(value)
    if not ok:
        raise ValueError(f"{value!r} is not {want} at {where}")
    return value


def _check_fields(obj) -> None:
    for name, rule in _rules(type(obj)).items():
        if not is_dataclass(rule[0]):
            value = _checked(rule, getattr(obj, name), f"{type(obj).__name__}.{name}")
            # the engine counts whole us (see _us): a nonzero time must not silently
            # become 0, nor be too large for a float to hold as a count of us
            if name.endswith("_ms") and value and 0 < value * 1000 <= 0.5:  # rounds to 0 us
                raise ValueError(f"{name} {value!r} rounds to 0 us")
            if name.endswith("_ms") and value and not math.isfinite(value * 1000):
                raise ValueError(f"{name} {value!r} is too large to count in us")


@dataclass(frozen=True)
class ComputeModel:
    per_decision_ms: float = _flag(0.0, "--per-decision-ms")
    per_unit_ms: float = _flag(0.0, "--per-unit-ms")

    def __post_init__(self):
        _check_fields(self)
        if self.per_decision_ms < 0 or self.per_unit_ms < 0:
            raise ValueError("compute costs must be non-negative")


@dataclass(frozen=True)
class PolicySpec:
    kind: PolicyKind = _flag("waitk", "--policy")
    k: int = _flag(1, "--k", "wait-k head start")
    lam: float = _flag(0.5, "--lam", "change-rate parameter")
    scorer: ScorerKind = _flag("oracle", "--scorer")
    scorer_value: float = _flag(0.5, "--scorer-value")
    seed: int = _flag(0, "--policy-seed")

    def __post_init__(self):
        _check_fields(self)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if not 0 < self.scorer_value < 1:
            raise ValueError("scorer_value must be strictly inside (0, 1)")

    def label(self) -> str:
        if self.kind == "waitk":
            return f"waitk-{self.k}"
        if self.kind == "offline":
            return "offline"
        return f"vmma-{self.lam}"


@dataclass(frozen=True)
class SessionConfig:
    """A run's settings. These fields and those of PolicySpec and
    ComputeModel state each setting's type, default, allowed values and
    flag; config_from_dict, config_fields and the CLI read them here."""

    policy: PolicySpec = field(default_factory=PolicySpec)
    pre_decision_ms: Optional[float] = _flag(None, "--pre-decision-ms")  # None: the utterance's own
    emission_rate_l: int = _flag(1, "--emission-rate")
    unit_ms: float = _flag(20.0, "--unit-ms")
    units_per_token: int = _flag(5, "--units-per-token")
    compute: ComputeModel = field(default_factory=ComputeModel)

    def __post_init__(self):
        _check_fields(self)
        if self.emission_rate_l < 1:
            raise ValueError("emission_rate_l must be >= 1")
        if self.units_per_token < 1:
            raise ValueError("units_per_token must be >= 1")
        if self.unit_ms <= 0:
            raise ValueError("unit_ms must be positive")
        if self.pre_decision_ms is not None and self.pre_decision_ms <= 0:
            raise ValueError("pre_decision_ms must be positive")


def config_fields(cls=SessionConfig, prefix: str = ""):
    """Yield (dotted path, field, type, Literal values or ()) for every
    leaf setting of cls, in declaration order; nested dataclasses are
    flattened and Optional[X] gives X."""
    for f in fields(cls):
        tp, choices, _ = _rules(cls)[f.name]
        if is_dataclass(tp):
            yield from config_fields(tp, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f, tp, choices


def config_to_dict(config: SessionConfig) -> dict:
    return asdict(config)


def config_from_dict(d: dict) -> SessionConfig:
    """Build a SessionConfig from plain data, such as a parsed JSON file.

    A missing key takes the field's default. An unknown key or a value of
    the wrong type (see _checked) raises ValueError naming its location,
    as in $['policy']['kind']; a value out of range, its object's."""
    return _from_dict(SessionConfig, d, "$")


def _from_dict(cls, d, where: str):
    if not isinstance(d, dict):
        raise ValueError(f"{d!r} is not an object at {where}")
    rules = _rules(cls)  # one per field
    for key in d:
        if key not in rules:
            raise ValueError(f"unknown key {key!r} at {where}")
    kwargs = {key: _checked(rules[key], value, f"{where}[{key!r}]") for key, value in d.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{exc} at {where}") from None


class Policy(Protocol):
    def plan(self, utterance: Utterance) -> list[Action]: ...


@dataclass(frozen=True)
class WaitKPolicy:
    k: int

    def plan(self, utterance: Utterance) -> list[Action]:
        return wait_k_trace(self.k, utterance.source_len, utterance.target_len)


def stable_utterance_seed(base_seed: int, utt_id: str) -> int:
    """Per-utterance RNG seed that survives process restarts."""
    return (base_seed * 2654435761 + zlib.crc32(utt_id.encode())) % (1 << 63)


@dataclass(frozen=True)
class VmmaPolicy:
    lam: float
    scorer: str = "oracle"
    scorer_value: float = 0.5
    seed: int = 0

    def plan(self, utterance: Utterance) -> list[Action]:
        # here, so that a process that never plans with vmma never loads numpy; the
        # module alone, as importing one name per plan costs less than four
        from . import vmma

        if self.scorer == "oracle":
            scorer = vmma.OracleScorer(utterance.oracle_alignment)
        else:
            scorer = vmma.ConstantScorer(self.scorer_value)
        trace = vmma.sample_change_trace(
            scorer,
            self.lam,
            utterance.source_len,
            utterance.target_len,
            stable_utterance_seed(self.seed, utterance.id),
        )
        return vmma.change_to_actions(trace)


@dataclass(frozen=True)
class ScriptedPolicy:
    """Replays a fixed schedule."""

    actions: tuple[Action, ...]

    def plan(self, utterance: Utterance) -> list[Action]:
        return list(self.actions)


def policy_from_spec(spec: PolicySpec) -> Policy:
    if spec.kind == "waitk":
        return WaitKPolicy(spec.k)
    if spec.kind == "offline":
        return WaitKPolicy(OFFLINE_K)
    return VmmaPolicy(spec.lam, spec.scorer, spec.scorer_value, spec.seed)


EVENT_FIELDS = {
    "read": ("index",),
    "write": ("token", "n_units", "src_consumed"),
    "vocoder_call": ("n_units", "start_us", "end_us"),
}
# an event's keys in row order, and the getter that reads a stored event into a row
_ROW_KEYS = {kind: ("t_us", "wall_us", "kind", *names) for kind, names in EVENT_FIELDS.items()}
_READERS = {kind: itemgetter(*keys) for kind, keys in _ROW_KEYS.items()}


def _encoder(kind: str):
    """(format, getter): format % getter(row) is json.dumps(sort_keys=True)
    of a kind row's event object, whose values are ints."""
    keys = _ROW_KEYS[kind]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    parts = [f'"{keys[i]}": ' + (json.dumps(kind) if keys[i] == "kind" else "%d") for i in order]
    return "{" + ", ".join(parts) + "}", itemgetter(*(i for i in order if keys[i] != "kind"))


_ENCODERS = {kind: _encoder(kind) for kind in EVENT_FIELDS}


def _events_to_json(events: Sequence[tuple]) -> str:
    parts = []
    for e in events:
        fmt, get = _ENCODERS[e[2]]
        parts.append(fmt % get(e))
    return "[" + ", ".join(parts) + "]"


def _events_from_json(stored: list) -> tuple[tuple, ...]:
    """Rows for a stored event list. An event must be an object of one
    EVENT_FIELDS kind with exactly that kind's keys and integer values;
    a missing key raises KeyError, anything else SessionError."""
    for n, d in enumerate(stored, 1):  # every kind is known before any field is read
        if type(d) is not dict:
            raise SessionError(f"event {n} is not an object: {d!r}")
        kind = d["kind"]
        if type(kind) is not str or kind not in _READERS:
            raise SessionError(f"unknown event kind {kind!r}")
    rows = []
    for n, d in enumerate(stored, 1):
        kind = d["kind"]
        row = _READERS[kind](d)
        if len(row) != len(d):
            extra = sorted(set(d) - set(_ROW_KEYS[kind]))
            raise SessionError(f"event {n} ({kind}) has unknown field {extra[0]!r}")
        rows.append(row)
    types = list(map(type, chain.from_iterable(rows)))
    if types.count(int) != len(types) - len(rows):  # every value but each row's kind
        n, kind, key, value = next(
            (n, row[2], key, value)
            for n, row in enumerate(rows, 1)
            for key, value in zip(_ROW_KEYS[row[2]], row)
            if key != "kind" and type(value) is not int
        )
        raise SessionError(f"event {n} ({kind}): {key} {value!r} is not an integer")
    return tuple(rows)


def synthetic_hypothesis_token(utterance: Utterance, index: int, consumed: int) -> int:
    """Stub translation model: correct once enough source is in, else a
    deterministic out-of-vocabulary guess. index is 1-based."""
    if consumed >= utterance.oracle_alignment[index - 1]:
        return utterance.target_tokens[index - 1]
    h = zlib.crc32(f"{utterance.id}|{index}|{consumed}".encode())
    return GUESS_BASE + h % GUESS_SPACE


def _us(ms: float) -> int:
    return round(ms * 1000)


@dataclass(frozen=True)
class SessionResult:
    utterance_id: str
    source_len: int
    target_len: int
    source_duration_us: int
    events: tuple[tuple, ...]  # rows (t_us, wall_us, kind, *EVENT_FIELDS[kind])
    hypothesis: tuple[int, ...]
    consumption: tuple[int, ...]  # g(i): segments read before token i
    ideal_delays_us: tuple[int, ...]
    ca_delays_us: tuple[int, ...]
    full_source_index: Optional[int]
    quality: float

    def _profile(self, delays_us: tuple[int, ...]) -> DelayProfile:
        return DelayProfile(
            delays_ms=tuple([d / 1000 for d in delays_us]),
            source_duration_ms=self.source_duration_us / 1000,
            full_source_index=self.full_source_index,
        )

    def report(self) -> LatencyReport:
        total_gap, _, _ = discontinuity_report(self.events)
        ideal, ca = self._profile(self.ideal_delays_us), self._profile(self.ca_delays_us)
        return build_report(ideal, ca, total_gap, self.target_len)

    def to_json(self) -> str:
        """One JSON object with sorted keys: the header, the hypothesis and
        the event log, from which from_json derives the per-token fields."""
        rest = {
            "hypothesis": list(self.hypothesis),
            "id": self.utterance_id,
            "quality": self.quality,
            "source_duration_us": self.source_duration_us,
            "src_len": self.source_len,
            "tgt_len": self.target_len,
        }
        events = _events_to_json(self.events)
        return '{"events": ' + events + ", " + json.dumps(rest, sort_keys=True)[1:]

    @classmethod
    def from_json(cls, text: str) -> "SessionResult":
        """A to_json line read back, its per-token fields folded from its
        events. A missing or mistyped field raises ValueError naming it
        (for the events, see _events_from_json); an unknown field, or a
        header that disagrees with the log, SessionError."""
        d = json.loads(text)
        if type(d) is not dict:
            raise SessionError("a results line must be a JSON object")
        unknown = sorted(set(d) - _STORED_KEYS)
        if unknown:
            raise SessionError(f"unknown field {unknown[0]!r}")
        events = _events_from_json(checked_field(d, "events", lambda v: type(v) is list, "a list"))
        result = cls(
            utterance_id=checked_field(d, "id", *STR),
            source_len=checked_field(d, "src_len", *INT),
            target_len=checked_field(d, "tgt_len", *INT),
            source_duration_us=checked_field(d, "source_duration_us", *INT),
            events=events,
            hypothesis=tuple(checked_field(d, "hypothesis", *INTS)),
            quality=checked_field(d, "quality", *NUMBER),
            **fold_events(events),
        )
        reads = [e[0] for e in events if e[2] == "read"]  # read r's t_us is r segments
        writes = len(result.consumption)
        for name, stored, logged in (
            ("src_len", result.source_len, len(reads)),
            ("source_duration_us", result.source_duration_us, reads[-1] if reads else 0),
            ("tgt_len", result.target_len, writes),
            ("hypothesis length", len(result.hypothesis), writes),
        ):
            if stored != logged:
                raise SessionError(f"{name} {stored} disagrees with the event log's {logged}")
        return result


_STORED_KEYS = {"events", "hypothesis", "id", "quality", "source_duration_us", "src_len", "tgt_len"}


class Session(ReadWritePath):
    """The engine: one utterance's session, taken in steps. ReadWritePath
    checks them first, raising InvalidTraceError before anything moves if
    one is illegal; then each moves the clocks and logs what it did."""

    def __init__(self, utterance: Utterance, config: SessionConfig):
        ReadWritePath.__init__(self, utterance.source_len, utterance.target_len)
        seg_ms = config.pre_decision_ms or utterance.source_token_duration_ms
        if not math.isfinite(seg_ms * 1000):  # a corpus's own duration; the config's is checked
            raise SessionError(f"source segment of {seg_ms} ms is too large to count in us")
        self.seg_us = _us(seg_ms)
        if self.seg_us < 1:  # no source time would pass, and report() rejects a zero duration
            raise SessionError(f"source segment of {seg_ms} ms rounds to 0 us")
        compute = config.compute
        self.dec_us, self.per_unit_us = _us(compute.per_decision_ms), _us(compute.per_unit_ms)
        self.unit_us = _us(config.unit_ms)
        self.upt, self.l = config.units_per_token, config.emission_rate_l
        self.utterance, self.events, self.hypothesis = utterance, [], []
        self.clocks = (0, 0, 0, 0)  # see take

    def read(self) -> int:
        """Consume the next source segment; return its arrival time in us."""
        return self.take((Action.READ,))

    def write(self) -> int:
        """Write the next target token; return the stub's token."""
        return self.take((Action.WRITE,))

    def take(self, actions: Sequence[Action]) -> Optional[int]:
        """Each action as a step; the last one's arrival time or token."""
        r, w, READ = self.reads, self.writes, Action.READ
        ReadWritePath.take(self, actions)
        utt, N, seg_us, dec_us = self.utterance, self.N, self.seg_us, self.dec_us
        upt, l, unit_us, per_unit_us = self.upt, self.l, self.unit_us, self.per_unit_us
        call_us, span_us = l * per_unit_us, l * unit_us  # compute and playback of a full call
        # the two clocks, the units not yet synthesized, the end of the last playback
        t_ideal, t_ca, buffered, audio_end = self.clocks
        log, say, last = self.events.append, self.hypothesis.append, None
        for a in actions:
            if a is READ:
                r += 1
                last = arr = r * seg_us
                if t_ideal < arr:
                    t_ideal = arr
                t_ca = (t_ca if t_ca > arr else arr) + dec_us
                log((t_ideal, t_ca, "read", r))
            else:
                w += 1
                t_ca += dec_us
                last = synthetic_hypothesis_token(utt, w, r)
                say(last)
                log((t_ideal, t_ca, "write", w, upt, r))
                buffered += upt
                # a vocoder call per emission_rate_l units; after the last
                # token nothing further can arrive, so one more emits the tail
                while buffered >= l:
                    buffered -= l
                    t_ca += call_us
                    start = t_ca if t_ca > audio_end else audio_end
                    audio_end = start + span_us
                    log((t_ideal, t_ca, "vocoder_call", l, start, audio_end))
                if buffered and w == N:
                    t_ca += buffered * per_unit_us
                    start = t_ca if t_ca > audio_end else audio_end
                    audio_end = start + buffered * unit_us
                    log((t_ideal, t_ca, "vocoder_call", buffered, start, audio_end))
        self.clocks = t_ideal, t_ca, buffered, audio_end
        return last

    def end(self) -> SessionResult:
        """The session's result, once every segment is read and every token written."""
        ReadWritePath.end(self)
        utt, hypothesis, M = self.utterance, self.hypothesis, self.M
        return SessionResult(
            utterance_id=utt.id, source_len=M, target_len=self.N,
            source_duration_us=M * self.seg_us, events=tuple(self.events),
            hypothesis=tuple(hypothesis), quality=quality_score(hypothesis, utt.target_tokens),
            **fold_events(self.events),
        )


def run_session(utterance: Utterance, config: SessionConfig, policy: Policy) -> SessionResult:
    """Drive one utterance through a policy schedule, a Session step per action."""
    trace = policy.plan(utterance)
    session = Session(utterance, config)
    try:
        session.take(trace)
        return session.end()
    except InvalidTraceError as exc:
        raise SessionError(f"policy produced an invalid schedule: {exc}") from None


def fold_events(events: Sequence[tuple]) -> dict:
    """Per-token fields of a SessionResult, derived from its event log.

    Token i is produced by the first vocoder_call whose running unit
    count reaches token i's last unit; its delays are that call's clock
    readings. full_source_index is the first token produced after the
    last read. Returns consumption, ideal_delays_us, ca_delays_us and
    full_source_index as keyword arguments for SessionResult.
    """
    consumption: list[int] = []
    token_ends: list[int] = []  # running unit count at each token's last unit
    ideal: list[int] = []
    ca: list[int] = []
    written = voiced = 0
    tokens = done = 0  # tokens written; tokens synthesized, so done is the next one's index
    full_source_index = None
    for e in events:  # rows: (t_us, wall_us, kind, *EVENT_FIELDS[kind])
        kind = e[2]
        if kind == "vocoder_call":  # n_units, start_us, end_us; the commonest kind
            voiced += e[3]
            while done < tokens and token_ends[done] <= voiced:
                done += 1
                if full_source_index is None:
                    full_source_index = done
                ideal.append(e[0])
                ca.append(e[1])
        elif kind == "write":  # token, n_units, src_consumed
            consumption.append(e[5])
            written += e[4]
            token_ends.append(written)
            tokens += 1
        else:  # read
            full_source_index = None
    if done < tokens:
        raise SessionError(f"event log leaves {tokens - done} tokens unsynthesized")
    return {
        "consumption": tuple(consumption),
        "ideal_delays_us": tuple(ideal),
        "ca_delays_us": tuple(ca),
        "full_source_index": full_source_index,
    }


def discontinuity_report(events: Sequence[tuple]) -> tuple[float, int, float]:
    """(total_gap_ms, gap_count, max_gap_ms) between emitted audio spans."""
    total = count = biggest = 0
    prev_end = None  # end_us of the last vocoder_call so far
    for e in events:
        if e[2] == "vocoder_call":  # n_units, start_us, end_us
            if prev_end is not None and e[4] > prev_end:
                gap = e[4] - prev_end
                total += gap
                count += 1
                if gap > biggest:
                    biggest = gap
            prev_end = e[5]
    return total / 1000, count, biggest / 1000


def recompute_result_from_events(result: SessionResult) -> SessionResult:
    """result with its per-token fields folded afresh from its event log,
    so equal to a result that from_json read. eval calls it by this name,
    which the benchmark's tracer times and its tests perturb."""
    return replace(result, **fold_events(result.events))
