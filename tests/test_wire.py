import json
import socket
from collections import Counter

import pytest

from simulstream.corpus import SyntheticTaskSpec, generate_corpus
from simulstream.session import (
    ComputeModel,
    PolicySpec,
    SessionConfig,
    policy_from_spec,
    run_session,
)
from simulstream import wire
from simulstream.wire import (
    ProtocolError,
    _Channel,
    config_from_dict,
    config_to_dict,
    connect,
    run_client_session,
    serve,
)


def _corpus(n=6, seed=21):
    spec = SyntheticTaskSpec(60, (3, 8), "random-monotone", noise_rate=0.4)
    return generate_corpus(spec, n, seed=seed)


def _config(kind="waitk", **kw):
    return SessionConfig(
        policy=PolicySpec(kind, k=2, lam=0.2, seed=4),
        emission_rate_l=2,
        units_per_token=3,
        compute=ComputeModel(per_decision_ms=1.5, per_unit_ms=0.5),
        **kw,
    )


@pytest.fixture()
def server():
    srv = serve("127.0.0.1", 0, _corpus(), _config())
    yield srv
    srv.shutdown()


def test_config_dict_round_trip():
    for kind in ("waitk", "offline", "vmma"):
        cfg = _config(kind, pre_decision_ms=40.0)
        assert config_from_dict(config_to_dict(cfg)) == cfg
        # as the HELLO message carries it
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_loopback_metrics_match_in_process(server, monkeypatch):
    replays = []

    def recording_run_session(utt, config, policy):
        result = run_session(utt, config, policy)
        replays.append(result)
        return result

    monkeypatch.setattr(wire, "run_session", recording_run_session)
    host, port = server.address
    exchanges = connect(host, port)
    assert len(exchanges) == 6
    assert server.failures == []
    for ex in exchanges:
        assert ex.max_field_gap() == 0.0

    # each end replays each utterance once, and every replay equals a plain
    # in-process run of the same policy
    corpus = _corpus()
    assert Counter(r.utterance_id for r in replays) == {utt.id: 2 for utt in corpus}
    cfg = _config()
    for utt in corpus:
        local = run_session(utt, cfg, policy_from_spec(cfg.policy))
        for remote in (r for r in replays if r.utterance_id == utt.id):
            assert remote.ideal_delays_us == local.ideal_delays_us
            assert remote.ca_delays_us == local.ca_delays_us
            assert remote.hypothesis == local.hypothesis
            assert remote.quality == local.quality


def test_server_reports_done_when_drained(server):
    host, port = server.address
    connect(host, port)
    assert run_client_session(host, port) is None
    # drained server answers every later connection the same way
    assert connect(host, port) == []


def test_max_sessions_limits_drain(server):
    host, port = server.address
    first = connect(host, port, max_sessions=2)
    assert len(first) == 2
    rest = connect(host, port)
    assert len(rest) == 4


def test_read_past_end_gets_eos_src():
    corpus = _corpus(1)
    utt = corpus[0]
    # a plan that asks for more segments than exist: k far beyond the source
    cfg = SessionConfig(policy=PolicySpec("waitk", k=utt.source_len + 5))
    srv = serve("127.0.0.1", 0, corpus, cfg)
    try:
        host, port = srv.address
        exchanges = connect(host, port)
        assert len(exchanges) == 1
        assert exchanges[0].max_field_gap() == 0.0
        assert srv.failures == []
    finally:
        srv.shutdown()


def test_vmma_policy_over_wire_matches():
    srv = serve("127.0.0.1", 0, _corpus(4, seed=8), _config("vmma"))
    try:
        host, port = srv.address
        exchanges = connect(host, port)
        assert len(exchanges) == 4
        assert srv.failures == []
        assert max(ex.max_field_gap() for ex in exchanges) == 0.0
    finally:
        srv.shutdown()


def test_paced_server_sleeps_until_arrival():
    corpus = _corpus(1)
    utt = corpus[0]
    cfg = SessionConfig(policy=PolicySpec("waitk", k=1), pre_decision_ms=20.0)
    srv = serve("127.0.0.1", 0, corpus, cfg, fast_forward=False)
    try:
        import time

        host, port = srv.address
        t0 = time.monotonic()
        ex = run_client_session(host, port)
        elapsed_ms = (time.monotonic() - t0) * 1000
        assert ex is not None and ex.max_field_gap() == 0.0
        # all source segments must have "arrived" in real time
        assert elapsed_ms >= utt.source_len * 20.0
    finally:
        srv.shutdown()


def test_channel_rejects_bad_messages():
    a, b = socket.socketpair()
    try:
        chan_a = _Channel(a)
        chan_b = _Channel(b)
        with pytest.raises(ProtocolError):
            chan_a.send("NONSENSE", {})
        chan_a.wfile.write("this is not json\n")
        chan_a.wfile.flush()
        with pytest.raises(ProtocolError, match="malformed"):
            chan_b.recv()
    finally:
        a.close()
        b.close()


def test_channel_rejects_sequence_regression():
    a, b = socket.socketpair()
    try:
        chan_a = _Channel(a)
        chan_b = _Channel(b)
        chan_a.send("READ_REQ", {})
        chan_b.recv()
        # replay the same seq_no manually
        chan_a.wfile.write(
            json.dumps({"type": "READ_REQ", "session_id": "", "seq_no": 1, "body": {}}) + "\n"
        )
        chan_a.wfile.flush()
        with pytest.raises(ProtocolError, match="regression"):
            chan_b.recv()
    finally:
        a.close()
        b.close()


def test_channel_detects_closed_connection():
    a, b = socket.socketpair()
    chan_b = _Channel(b)
    a.close()
    try:
        with pytest.raises(ProtocolError, match="closed"):
            chan_b.recv()
    finally:
        b.close()


def test_server_flags_token_mismatch():
    corpus = _corpus(1)
    cfg = SessionConfig(policy=PolicySpec("waitk", k=1))
    srv = serve("127.0.0.1", 0, corpus, cfg)
    try:
        host, port = srv.address
        with socket.create_connection((host, port)) as sock:
            chan = _Channel(sock)
            _, body = chan.recv()
            utt_len = len(body["utterance"]["target"])
            src_len = len(body["utterance"]["source"])
            chan.send("READ_REQ", {})
            chan.recv()
            for i in range(utt_len):
                chan.send("WRITE", {"token_index": i + 1, "token": -1, "src_consumed": 1})
            for _ in range(src_len - 1):
                chan.send("READ_REQ", {})
                chan.recv()
            chan.send("EOS_TGT", {})
            # server drops the session instead of blessing wrong tokens
            with pytest.raises(ProtocolError):
                chan.recv()
        assert any("disagree" in f for f in srv.failures)
    finally:
        srv.shutdown()


def _tcp_pair():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname())
        server_side, _ = listener.accept()
    return client, server_side


@pytest.mark.parametrize("make_pair", [_tcp_pair, socket.socketpair], ids=["tcp", "unix"])
def test_channel_round_trip_and_nodelay(make_pair):
    a, b = make_pair()
    try:
        chan_a = _Channel(a)
        chan_b = _Channel(b)
        if a.family != socket.AF_UNIX:
            for sock in (a, b):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        chan_a.send("WRITE", {"token": 7})
        assert chan_b.recv() == ("WRITE", {"token": 7})
    finally:
        a.close()
        b.close()


def _invalid_schedule(chan, utt):
    chan.send("WRITE", {"token_index": 1, "token": utt["target"][0], "src_consumed": 0})
    chan.send("EOS_TGT", {})


def _non_dict_body(chan, utt):
    chan.send("READ_REQ", {})
    chan.recv()
    chan.send("WRITE", 5)


def _writes(tokens, first_index=1, src_consumed=1):
    """A client that reads one segment, then writes tokens as given."""

    def client(chan, utt):
        chan.send("READ_REQ", {})
        chan.recv()
        for w, token in enumerate(tokens(utt["target"]), first_index):
            chan.send("WRITE", {"token_index": w, "token": token, "src_consumed": src_consumed})
        chan.send("EOS_TGT", {})

    return client


def _silent(chan, utt):
    pass


def _oversized(chan, utt):
    chan.wfile.write("x" * (wire.MAX_FRAME_BYTES + 1) + "\n")
    chan.wfile.flush()


@pytest.mark.parametrize(
    "misbehave, reason",
    [
        (_invalid_schedule, "invalid schedule"),
        (_non_dict_body, "body is not an object"),
        (_silent, "timed out after 0.2 s"),
        (_oversized, "frame too long"),
        (
            _writes(lambda target: [str(target[0]), *(t + 0.5 for t in target[1:])]),
            "bad WRITE: token '",
        ),
        (_writes(lambda target: [t + 0.5 for t in target]), ".5 is not an integer"),
        (_writes(list, first_index=2), "bad WRITE: token_index 2 is not 1"),
        (_writes(list, src_consumed=0), "bad WRITE: src_consumed 0 is not 1"),
    ],
    ids=[
        "invalid-schedule", "non-dict-body", "silent", "oversized", "string-token",
        "fractional-token", "skipped-index", "wrong-src-consumed",
    ],
)
def test_bad_client_is_recorded_and_told(misbehave, reason, monkeypatch, capsys):
    monkeypatch.setattr(wire, "READ_TIMEOUT_S", 0.2)
    srv = serve("127.0.0.1", 0, _corpus(2), _config())
    try:
        # the client-side timeout turns a server that never answers into a failure
        with socket.create_connection(srv.address, timeout=10) as sock:
            chan = _Channel(sock)
            _, hello = chan.recv()
            misbehave(chan, hello["utterance"])
            with pytest.raises(ProtocolError, match=f"peer error: .*{reason}"):
                chan.recv()
            chan.close()  # the socket's files hold it open, and the server lingers until EOF
        uid = hello["utterance"]["id"]
        assert len(srv.failures) == 1
        assert srv.failures[0].startswith(f"{uid}: ") and reason in srv.failures[0]
        # the other utterance is still served, and then the server is drained
        exchanges = connect(*srv.address)
        assert len(exchanges) == 1 and exchanges[0].max_field_gap() == 0.0
        assert exchanges[0].server_metrics["remaining"] == 0
        assert srv.drained.wait(5)
    finally:
        srv.shutdown()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("mib", [8, 32])
def test_client_still_sending_reads_error_line(mib):
    # far beyond the socket buffers: the server gives up mid-frame and must
    # not reset the connection before the client has read the ERROR line
    srv = serve("127.0.0.1", 0, _corpus(1), _config())
    try:
        with socket.create_connection(srv.address, timeout=10) as sock:
            chan = _Channel(sock)
            chan.recv()
            chan.wfile.write("x" * (mib << 20) + "\n")
            chan.wfile.flush()
            with pytest.raises(ProtocolError, match="^peer error: frame too long$"):
                chan.recv()
        assert srv.drained.wait(5)
        assert len(srv.failures) == 1 and srv.failures[0].endswith(": frame too long")
    finally:
        srv.shutdown()
