"""Event rows: the engine, its fold and the results-file encoding checked
against the engine as it was written with one payload dict per event."""

import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulstream.actions import Action, trace_from_consumption, validate_trace
from simulstream.corpus import SyntheticTaskSpec, Utterance, generate_corpus, quality_score
from simulstream.session import (
    EVENT_FIELDS,
    ComputeModel,
    PolicySpec,
    ScriptedPolicy,
    SessionConfig,
    SessionError,
    SessionResult,
    discontinuity_report,
    policy_from_spec,
    recompute_result_from_events,
    run_session,
    synthetic_hypothesis_token,
)


def _dict_engine(utterance, config, trace):
    """run_session with each event a (t_us, wall_us, kind, payload dict),
    its per-token fields folded from the payloads: a copy of the engine
    before events became rows. Returns (events, SessionResult fields)."""
    us = lambda ms: round(ms * 1000)
    M, N = utterance.source_len, utterance.target_len
    seg_us = us(config.pre_decision_ms or utterance.source_token_duration_ms)
    unit_us, upt, l = us(config.unit_ms), config.units_per_token, config.emission_rate_l
    dec_us, per_unit_us = us(config.compute.per_decision_ms), us(config.compute.per_unit_ms)
    t_ideal = t_ca = r = w = buffered = audio_end = 0
    events, hypothesis = [], []

    def vocoder_flush(n_units):
        nonlocal t_ca, buffered, audio_end
        buffered -= n_units
        t_ca += n_units * per_unit_us
        start = max(t_ca, audio_end)
        audio_end = start + n_units * unit_us
        payload = {"n_units": n_units, "start_us": start, "end_us": audio_end}
        events.append((t_ideal, t_ca, "vocoder_call", payload))

    for a in trace:
        if a is Action.READ:
            r += 1
            t_ideal = max(t_ideal, r * seg_us)
            t_ca = max(t_ca, r * seg_us) + dec_us
            events.append((t_ideal, t_ca, "read", {"index": r}))
        else:
            w += 1
            t_ca += dec_us
            hypothesis.append(synthetic_hypothesis_token(utterance, w, r))
            events.append((t_ideal, t_ca, "write", {"token": w, "n_units": upt, "src_consumed": r}))
            buffered += upt
            while buffered >= l:
                vocoder_flush(l)
            if w == N and buffered:
                vocoder_flush(buffered)

    consumption, token_ends, ideal, ca = [], [], [], []
    written = voiced = 0
    full_source_index = None
    for t_us, wall_us, kind, payload in events:
        if kind == "read":
            full_source_index = None
        elif kind == "write":
            consumption.append(payload["src_consumed"])
            written += payload["n_units"]
            token_ends.append(written)
        else:
            voiced += payload["n_units"]
            while len(ideal) < len(token_ends) and token_ends[len(ideal)] <= voiced:
                if full_source_index is None:
                    full_source_index = len(ideal) + 1
                ideal.append(t_us)
                ca.append(wall_us)
    fields = {
        "utterance_id": utterance.id,
        "source_len": M,
        "target_len": N,
        "source_duration_us": M * seg_us,
        "hypothesis": tuple(hypothesis),
        "consumption": tuple(consumption),
        "ideal_delays_us": tuple(ideal),
        "ca_delays_us": tuple(ca),
        "full_source_index": full_source_index,
        "quality": quality_score(hypothesis, utterance.target_tokens),
    }
    return events, fields


def _dict_discontinuity(events):
    spans = [(p["start_us"], p["end_us"]) for _, _, kind, p in events if kind == "vocoder_call"]
    gaps = [start - end for (_, end), (start, _) in zip(spans, spans[1:]) if start > end]
    return sum(gaps) / 1000, len(gaps), max(gaps, default=0) / 1000


def _dict_to_json(events, fields):
    """The results line as json.dumps wrote it from one dict per event,
    without the per-token fields the events determine."""
    record = {
        "id": fields["utterance_id"],
        "src_len": fields["source_len"],
        "tgt_len": fields["target_len"],
        "source_duration_us": fields["source_duration_us"],
        "hypothesis": list(fields["hypothesis"]),
        "quality": fields["quality"],
        "events": [{"t_us": t, "wall_us": wall, "kind": k, **p} for t, wall, k, p in events],
    }
    return json.dumps(record, sort_keys=True)


@st.composite
def _sessions(draw):
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 9))
    g = sorted(draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))
    align = sorted(draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))
    utt = Utterance(
        id=f"u{draw(st.integers(0, 999))}",
        source_tokens=tuple(range(10, 10 + m)),
        target_tokens=tuple(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))),
        source_token_duration_ms=draw(st.sampled_from([40.0, 280.0, 333.3])),
        oracle_alignment=tuple(align),
    )
    upt = draw(st.integers(1, 6))
    ms = st.sampled_from([0.0, 0.25, 1.5, 7.0, 400.0])
    config = SessionConfig(
        policy=PolicySpec("waitk", k=1),
        pre_decision_ms=draw(st.sampled_from([None, 120.0])),
        emission_rate_l=draw(st.integers(1, n * upt + 2)),
        unit_ms=draw(st.sampled_from([20.0, 12.5, 80.0])),
        units_per_token=upt,
        compute=ComputeModel(per_decision_ms=draw(ms), per_unit_ms=draw(ms)),
    )
    return utt, config, trace_from_consumption(g, m)


def _run_both(utt, config, trace):
    res = run_session(utt, config, ScriptedPolicy(tuple(trace)))
    events, fields = _dict_engine(utt, config, trace)
    return res, events, fields


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sessions())
def test_rows_engine_matches_dict_engine(session):
    utt, config, trace = session
    validate_trace(trace, utt.source_len, utt.target_len)
    res, events, fields = _run_both(utt, config, trace)
    assert tuple(EVENT_FIELDS) == ("read", "write", "vocoder_call")
    assert all(type(e) is tuple for e in res.events)
    got = [(t, wall, kind, list(zip(EVENT_FIELDS[kind], row))) for t, wall, kind, *row in res.events]
    assert got == [(t, wall, kind, list(p.items())) for t, wall, kind, p in events]
    for f in dataclasses.fields(SessionResult):
        if f.name != "events":
            assert getattr(res, f.name) == fields[f.name], f.name
    assert discontinuity_report(res.events) == _dict_discontinuity(events)
    assert recompute_result_from_events(res) == res


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sessions())
def test_results_line_round_trips_and_keeps_its_bytes(session):
    res, events, fields = _run_both(*session)
    text = res.to_json()
    assert text == _dict_to_json(events, fields)
    back = SessionResult.from_json(text)
    assert back == res
    assert back.to_json() == text
    assert all(type(e) is type(r) for e, r in zip(back.events, res.events))


def _pinned_lines():
    corpus = generate_corpus(SyntheticTaskSpec(60, (4, 9), "random-monotone", noise_rate=0.3), 6, 11)
    lines = []
    for spec, l, upt in ((PolicySpec("waitk", k=2), 3, 4), (PolicySpec("vmma", lam=0.5), 1, 5)):
        config = SessionConfig(
            policy=spec,
            emission_rate_l=l,
            units_per_token=upt,
            compute=ComputeModel(per_decision_ms=1.5, per_unit_ms=0.25),
        )
        lines += [run_session(u, config, policy_from_spec(spec)).to_json() for u in corpus]
    return lines


def test_results_lines_pinned_sha256():
    # each line is the one the dict-per-event encoder wrote before events
    # became rows (49891 bytes, sha256 9767dd8e...), with consumption,
    # ideal_delays_us, ca_delays_us and full_source_index deleted
    text = "\n".join(_pinned_lines())
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (
        47197,
        "aca28fc68fae95b9b8fb566a0a820d741fa3a12d3e2bcc2b8268072070557278",
    )


def _stored_line(change):
    """A results line whose second event, a write, is change(that event)."""
    utt = generate_corpus(SyntheticTaskSpec(20, (3, 3)), 1, 0)[0]
    record = json.loads(run_session(utt, SessionConfig(), policy_from_spec(PolicySpec())).to_json())
    record["events"][1] = change(record["events"][1])
    return json.dumps(record)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda e: {**e, "bogus": 1}, "event 2 (write) has unknown field 'bogus'"),
        (lambda e: {**e, "t_us": 1.5}, "event 2 (write): t_us 1.5 is not an integer"),
        (lambda e: {**e, "t_us": "7"}, "event 2 (write): t_us '7' is not an integer"),
        (lambda e: {**e, "n_units": True}, "event 2 (write): n_units True is not an integer"),
        (lambda e: {**e, "wall_us": None}, "event 2 (write): wall_us None is not an integer"),
        (lambda e: list(e.values()), "event 2 is not an object"),
        (lambda e: {**e, "kind": ["write"]}, "unknown event kind ['write']"),
    ],
)
def test_from_json_rejects_malformed_events(change, message):
    with pytest.raises(SessionError, match=re.escape(message)):
        SessionResult.from_json(_stored_line(change))


def test_from_json_missing_field_is_a_key_error():
    line = _stored_line(lambda e: {k: v for k, v in e.items() if k != "src_consumed"})
    with pytest.raises(KeyError, match="src_consumed"):
        SessionResult.from_json(line)
