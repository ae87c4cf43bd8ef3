import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simulstream.actions import (
    Action,
    consumed_before_write,
    trace_from_consumption,
    wait_k_trace,
)
from simulstream.corpus import SyntheticTaskSpec, Utterance, generate_corpus
from simulstream.session import (
    GUESS_BASE,
    ComputeModel,
    PolicySpec,
    ScriptedPolicy,
    SessionConfig,
    SessionError,
    SessionResult,
    VmmaPolicy,
    WaitKPolicy,
    discontinuity_report,
    policy_from_spec,
    recompute_result_from_events,
    run_session,
    stable_utterance_seed,
    synthetic_hypothesis_token,
)

WAIT1 = PolicySpec("waitk", k=1)
OFFLINE = policy_from_spec(PolicySpec("offline"))


def _utt(m=2, n=2, seg=300.0, align=None):
    return Utterance(
        id=f"hand-{m}x{n}",
        source_tokens=tuple(range(10, 10 + m)),
        target_tokens=tuple(range(50, 50 + n)),
        source_token_duration_ms=seg,
        oracle_alignment=tuple(align) if align else tuple(min(i, m) for i in range(1, n + 1)),
    )


def _cfg(**kw):
    kw.setdefault("policy", WAIT1)
    kw.setdefault("unit_ms", 20.0)
    kw.setdefault("units_per_token", 2)
    kw.setdefault("emission_rate_l", 1)
    return SessionConfig(**kw)


def test_wait1_hand_timeline():
    res = run_session(_utt(), _cfg(), WaitKPolicy(1))
    assert res.consumption == (1, 2)
    assert res.ideal_delays_us == (300_000, 600_000)
    assert res.ca_delays_us == (300_000, 600_000)  # zero-cost compute model
    assert res.full_source_index == 2
    assert res.hypothesis == (50, 51)
    assert res.quality == pytest.approx(100.0)
    assert res.report().al_ms == pytest.approx(300.0)

    total, count, biggest = discontinuity_report(res.events)
    # audio runs 300-340 then 600-640: one 260ms gap
    assert (total, count, biggest) == (260.0, 1, 260.0)


def test_compute_model_charges_decisions_and_units():
    cfg = _cfg(compute=ComputeModel(per_decision_ms=10.0, per_unit_ms=5.0))
    res = run_session(_utt(), cfg, WaitKPolicy(1))
    assert res.ideal_delays_us == (300_000, 600_000)
    assert res.ca_delays_us == (330_000, 630_000)
    rep = res.report()
    assert rep.al_ms == pytest.approx(300.0)
    assert rep.ca_al_ms == pytest.approx(330.0)
    assert rep.ca_al_ms >= rep.al_ms


def test_emission_rate_batches_delay_early_tokens():
    eager = run_session(_utt(), _cfg(emission_rate_l=1), WaitKPolicy(1))
    batched = run_session(_utt(), _cfg(emission_rate_l=4), WaitKPolicy(1))
    assert eager.ideal_delays_us == (300_000, 600_000)
    assert batched.ideal_delays_us == (600_000, 600_000)
    for a, b in zip(eager.ideal_delays_us, batched.ideal_delays_us):
        assert a <= b


def test_audio_conservation_across_emission_rates():
    for l in (1, 2, 4):
        res = run_session(_utt(), _cfg(emission_rate_l=l), WaitKPolicy(1))
        # vocoder_call rows: (t_us, wall_us, kind, n_units, start_us, end_us)
        calls = [e[3:] for e in res.events if e[2] == "vocoder_call"]
        assert sum(end - start for _, start, end in calls) == 2 * 2 * 20_000
        assert sum(n_units for n_units, _, _ in calls) == 2 * 2


def test_final_flush_emits_partial_batch():
    utt = _utt(m=1, n=1, align=[1])
    cfg = _cfg(units_per_token=3, emission_rate_l=2)
    res = run_session(utt, cfg, WaitKPolicy(1))
    calls = [e[3] for e in res.events if e[2] == "vocoder_call"]
    assert calls == [2, 1]
    assert res.ideal_delays_us == (300_000,)


def test_offline_policy_cuts_lagging_at_first_token():
    utt = _utt(m=3, n=3, seg=1000.0, align=[1, 2, 3])
    res = run_session(utt, _cfg(), OFFLINE)
    assert res.consumption == (3, 3, 3)
    assert res.full_source_index == 1
    assert res.report().al_ms == pytest.approx(3000.0)


def test_pre_decision_override():
    utt = _utt(seg=280.0)
    default = run_session(utt, _cfg(), WaitKPolicy(1))
    overridden = run_session(utt, _cfg(pre_decision_ms=100.0), WaitKPolicy(1))
    assert default.source_duration_us == 560_000
    assert overridden.source_duration_us == 200_000
    assert overridden.ideal_delays_us == (100_000, 200_000)


def test_synthetic_hypothesis_token_behaviour():
    utt = _utt(m=4, n=4, align=[2, 2, 3, 4])
    assert synthetic_hypothesis_token(utt, 1, 2) == utt.target_tokens[0]
    early = synthetic_hypothesis_token(utt, 1, 1)
    assert early >= GUESS_BASE
    assert early == synthetic_hypothesis_token(utt, 1, 1)
    assert synthetic_hypothesis_token(utt, 2, 1) != early


def test_premature_writes_lower_quality():
    utt = _utt(m=4, n=4, align=[4, 4, 4, 4])  # everything needs the full source
    eager = run_session(utt, _cfg(), WaitKPolicy(1))
    patient = run_session(utt, _cfg(), OFFLINE)
    assert patient.quality == pytest.approx(100.0)
    assert eager.quality < patient.quality
    assert all(t >= GUESS_BASE for t in eager.hypothesis[:3])


def test_invalid_schedule_rejected():
    utt = _utt()
    bad = ScriptedPolicy((Action.WRITE, Action.READ, Action.READ, Action.WRITE))
    with pytest.raises(SessionError, match="invalid schedule: trace must begin with READ$"):
        run_session(utt, _cfg(), bad)
    short = ScriptedPolicy((Action.READ, Action.WRITE))
    with pytest.raises(SessionError, match="invalid schedule: incomplete trace: 1/2 reads"):
        run_session(utt, _cfg(), short)


@st.composite
def _waitk_cases(draw):
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 10))
    utt = Utterance(
        id=f"u{draw(st.integers(0, 99))}",
        source_tokens=tuple(range(10, 10 + m)),
        target_tokens=tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))),
        source_token_duration_ms=draw(st.sampled_from([40.0, 280.0, 333.3])),
        oracle_alignment=tuple(sorted(draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))),
    )
    upt = draw(st.integers(1, 6))
    ms = st.sampled_from([0.0, 0.25, 1.5, 7.0, 400.0])
    config = _cfg(
        units_per_token=upt,
        emission_rate_l=draw(st.integers(1, n * upt + 2)),
        compute=ComputeModel(per_decision_ms=draw(ms), per_unit_ms=draw(ms)),
    )
    return utt, config


# CA-AL itself can fall as k rises: here 620 ms at k=1, 480 ms at k=2. The
# slow vocoder delays token 2 past the last read at k=1, so AL's cutoff
# counts both tokens; at k=2 every read comes first and it counts only token 1
_CA_AL_FALLS = (
    _utt(2, 2, seg=40.0, align=[1, 1]),
    _cfg(units_per_token=1, compute=ComputeModel(per_unit_ms=400.0)),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_waitk_cases())
@example(_CA_AL_FALLS)
def test_waitk_tradeoff_never_falls_as_k_rises(case):
    # the paper's latency/quality trade-off, per utterance: a longer head start
    # never lowers AL or quality, nor any token's ideal or computation-aware delay
    utt, config = case
    runs = [run_session(utt, config, WaitKPolicy(k)) for k in range(1, utt.source_len + 2)]
    for before, after in zip(runs, runs[1:]):
        assert after.report().al_ms >= before.report().al_ms
        assert after.quality >= before.quality
        assert all(a >= b for a, b in zip(after.ideal_delays_us, before.ideal_delays_us))
        assert all(a >= b for a, b in zip(after.ca_delays_us, before.ca_delays_us))


def test_ca_al_can_fall_as_k_rises():
    reports = [run_session(*_CA_AL_FALLS, WaitKPolicy(k)).report() for k in (1, 2)]
    assert [r.ca_al_ms for r in reports] == [620.0, 480.0]


def test_event_log_replays_to_identical_metrics(rng):
    spec = SyntheticTaskSpec(80, (3, 10), "random-monotone", noise_rate=0.4)
    corpus = generate_corpus(spec, 25, seed=5)
    cfg = SessionConfig(
        policy=PolicySpec("vmma", lam=0.2, seed=9),
        emission_rate_l=3,
        units_per_token=4,
        compute=ComputeModel(per_decision_ms=2.0, per_unit_ms=1.0),
    )
    policy = policy_from_spec(cfg.policy)
    for utt in corpus:
        res = run_session(utt, cfg, policy)
        again = recompute_result_from_events(res)
        assert again.ideal_delays_us == res.ideal_delays_us
        assert again.ca_delays_us == res.ca_delays_us
        assert again.full_source_index == res.full_source_index
        assert again.consumption == res.consumption


def _per_unit_reference(trace, utt, cfg, spans=None):
    """Unit-by-unit replay of a schedule: a buffer of (token, is_last)
    units, flushed when it holds emission_rate_l units and after the last
    token. Returns consumption, both delay tuples and full_source_index.
    Each flush plays its units back from max(t_ca, the previous span's
    end); if spans is a list, the (start_us, end_us) spans go into it."""
    seg_us = round(utt.source_token_duration_ms * 1000)
    unit_us = round(cfg.unit_ms * 1000)
    dec_us = round(cfg.compute.per_decision_ms * 1000)
    per_unit_us = round(cfg.compute.per_unit_ms * 1000)
    upt, l, n = cfg.units_per_token, cfg.emission_rate_l, utt.target_len
    last_read_step = max(i for i, a in enumerate(trace) if a is Action.READ)
    t_ideal = t_ca = r = w = audio_end = 0
    buffer = []
    consumption, ideal, ca, call_step = [], [None] * n, [None] * n, [None] * n
    for step, a in enumerate(trace):
        if a is Action.READ:
            r += 1
            t_ideal = max(t_ideal, r * seg_us)
            t_ca = max(t_ca, r * seg_us) + dec_us
            continue
        w += 1
        t_ca += dec_us
        consumption.append(r)
        for u in range(upt):
            buffer.append((w, u == upt - 1))
            if len(buffer) == l or (w == n and u == upt - 1):
                t_ca += len(buffer) * per_unit_us
                start = max(t_ca, audio_end)
                audio_end = start + len(buffer) * unit_us
                if spans is not None:
                    spans.append((start, audio_end))
                for token, is_last in buffer:
                    if is_last:
                        ideal[token - 1], ca[token - 1] = t_ideal, t_ca
                        call_step[token - 1] = step
                buffer = []
    full = next((i + 1 for i in range(n) if call_step[i] > last_read_step), None)
    return tuple(consumption), tuple(ideal), tuple(ca), full


@st.composite
def _schedules(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    g = sorted(draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))
    upt = draw(st.integers(1, 6))
    l = draw(st.integers(1, n * upt + 2))
    return m, n, g, upt, l


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_schedules())
def test_event_fold_matches_per_unit_reference(schedule):
    m, n, g, upt, l = schedule
    utt = _utt(m=m, n=n, seg=280.0, align=[min(i, m) for i in range(1, n + 1)])
    cfg = _cfg(
        units_per_token=upt,
        emission_rate_l=l,
        compute=ComputeModel(per_decision_ms=1.5, per_unit_ms=0.25),
    )
    trace = trace_from_consumption(g, m)
    res = run_session(utt, cfg, ScriptedPolicy(tuple(trace)))
    got = (res.consumption, res.ideal_delays_us, res.ca_delays_us, res.full_source_index)
    assert got == _per_unit_reference(trace, utt, cfg)
    assert recompute_result_from_events(SessionResult.from_json(res.to_json())) == res
    spans = []
    _per_unit_reference(trace, utt, cfg, spans)
    gaps = [start - end for (_, end), (start, _) in zip(spans, spans[1:]) if start > end]
    want = (sum(gaps) / 1000, len(gaps), max(gaps, default=0) / 1000)
    assert discontinuity_report(res.events) == want


def test_result_json_round_trip():
    res = run_session(_utt(), _cfg(), WaitKPolicy(1))
    back = SessionResult.from_json(res.to_json())
    assert back == res
    d = json.loads(res.to_json())
    assert set(d) == {
        "id",
        "src_len",
        "tgt_len",
        "source_duration_us",
        "hypothesis",
        "quality",
        "events",
    }


def test_consumption_matches_trace():
    utt = _utt(m=5, n=4, align=[1, 2, 3, 4])
    for k in (1, 2, 3, 7):
        res = run_session(utt, _cfg(), WaitKPolicy(k))
        trace = WaitKPolicy(k).plan(utt)
        assert list(res.consumption) == consumed_before_write(trace)


def test_stable_seed_is_deterministic_and_spread():
    a = stable_utterance_seed(7, "utt-1")
    assert a == stable_utterance_seed(7, "utt-1")
    assert a != stable_utterance_seed(7, "utt-2")
    assert a != stable_utterance_seed(8, "utt-1")
    assert 0 <= a < 1 << 63


def test_vmma_policy_deterministic_per_utterance():
    utt = _utt(m=6, n=6, align=[1, 2, 3, 4, 5, 6])
    pol = VmmaPolicy(lam=0.3, seed=11)
    assert pol.plan(utt) == pol.plan(utt)
    other = Utterance(
        id="other",
        source_tokens=utt.source_tokens,
        target_tokens=utt.target_tokens,
        source_token_duration_ms=utt.source_token_duration_ms,
        oracle_alignment=utt.oracle_alignment,
    )
    assert pol.plan(utt) != pol.plan(other)
    res = run_session(utt, _cfg(policy=PolicySpec("vmma", lam=0.3, seed=11)), pol)
    assert res.target_len == 6


def test_vmma_constant_scorer_plans_without_the_oracle():
    from simulstream import vmma

    spec = PolicySpec("vmma", lam=0.3, scorer="constant", scorer_value=0.8, seed=5)
    pol = policy_from_spec(spec)
    diagonal, late = _utt(m=6, n=5), _utt(m=6, n=5, align=[6] * 5)  # same id and lengths
    plan = pol.plan(diagonal)
    assert pol.plan(late) == plan  # the oracle alignment is never read
    seed = stable_utterance_seed(5, diagonal.id)
    trace = vmma.sample_change_trace(vmma.ConstantScorer(0.8), 0.3, 6, 5, seed)
    assert plan == vmma.change_to_actions(trace)
    assert run_session(late, _cfg(policy=spec), pol).target_len == 5


def test_policy_from_spec_kinds():
    assert isinstance(policy_from_spec(PolicySpec("waitk", k=3)), WaitKPolicy)
    for m, n in [(1, 1), (1, 6), (6, 1), (5, 9), (17, 4), (40, 40)]:
        utt = _utt(m=m, n=n)
        assert OFFLINE.plan(utt) == wait_k_trace(m, m, n)
    assert isinstance(policy_from_spec(PolicySpec("vmma", lam=0.1)), VmmaPolicy)
    assert PolicySpec("waitk", k=3).label() == "waitk-3"
    assert PolicySpec("offline").label() == "offline"
    assert PolicySpec("vmma", lam=0.25).label() == "vmma-0.25"
    with pytest.raises(ValueError):
        PolicySpec("waitk", k=0)
    with pytest.raises(ValueError):
        PolicySpec("vmma", lam=0.0)
    with pytest.raises(ValueError):
        PolicySpec("magic")


def test_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(policy=WAIT1, emission_rate_l=0)
    with pytest.raises(ValueError):
        SessionConfig(policy=WAIT1, units_per_token=0)
    with pytest.raises(ValueError):
        SessionConfig(policy=WAIT1, unit_ms=0.0)
    with pytest.raises(ValueError):
        SessionConfig(policy=WAIT1, pre_decision_ms=-5.0)
    with pytest.raises(ValueError):
        ComputeModel(per_unit_ms=-1.0)
    with pytest.raises(ValueError):
        ComputeModel(per_decision_ms=-1.0)


def test_config_refuses_a_dict_for_a_nested_setting():
    # config_from_dict builds the nested objects; the constructor takes only them
    with pytest.raises(ValueError, match=r"^policy \{'kind': 'psychic'\} is not a PolicySpec$"):
        SessionConfig(policy={"kind": "psychic"})
    with pytest.raises(ValueError, match=r"^compute \{'per_unit_ms': 1.0\} is not a ComputeModel$"):
        SessionConfig(compute={"per_unit_ms": 1.0})
