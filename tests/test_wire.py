import errno
import hashlib
import json
import re
import select
import socket
import sys
import threading
import time
import tracemalloc
from collections import Counter

import pytest

from conftest import bad_fields, with_field
from simulstream.corpus import SyntheticTaskSpec, Utterance, generate_corpus
from simulstream.session import (
    ComputeModel,
    PolicySpec,
    Session,
    SessionConfig,
    policy_from_spec,
    run_session,
    synthetic_hypothesis_token,
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


def _server_threads(srv):
    return [t for t in threading.enumerate() if t.name == f"EvalServer:{srv.address[1]}"]


@pytest.fixture(autouse=True)
def no_server_thread_outlives_shutdown(monkeypatch):
    """Fail a test that leaves a server thread alive LINGER_S + 1 s after
    that server's shutdown(): a session in progress may linger, no more."""
    shut = []  # (server, deadline) per shutdown() call
    shutdown = wire.EvalServer.shutdown

    def recording_shutdown(srv):
        shutdown(srv)
        shut.append((srv, time.monotonic() + wire.LINGER_S + 1))

    monkeypatch.setattr(wire.EvalServer, "shutdown", recording_shutdown)
    yield
    for srv, deadline in shut:
        for thread in _server_threads(srv):
            thread.join(max(0.0, deadline - time.monotonic()))
            assert not thread.is_alive(), f"{thread.name} outlived shutdown()"


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

    # the server steps its engine message by message, so only the client
    # runs each utterance's session, once; that run and the server's
    # METRICS both equal a plain in-process run of the same policy
    corpus = _corpus()
    assert Counter(r.utterance_id for r in replays) == {utt.id: 1 for utt in corpus}
    cfg = _config()
    for utt, ex in zip(corpus, exchanges):
        local = run_session(utt, cfg, policy_from_spec(cfg.policy))
        for remote in (r for r in replays if r.utterance_id == utt.id):
            assert remote.ideal_delays_us == local.ideal_delays_us
            assert remote.ca_delays_us == local.ca_delays_us
            assert remote.hypothesis == local.hypothesis
            assert remote.quality == local.quality
        assert ex.server_metrics == {
            **wire._metrics_body(local), "remaining": ex.server_metrics["remaining"]
        }


def _pump(src, dst, record):
    while chunk := src.recv(1 << 16):
        record += chunk
        dst.sendall(chunk)
    try:
        dst.shutdown(socket.SHUT_WR)
    except OSError:  # the far end has closed already
        pass


def _relayed_session(address):
    """One run_client_session through a loopback relay that records what
    each end sends: (exchange, client bytes, server bytes)."""
    streams = (bytearray(), bytearray())
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def relay():
            client, _ = listener.accept()
            with client, socket.create_connection(address) as server:
                pumps = [
                    threading.Thread(target=_pump, args=(client, server, streams[0])),
                    threading.Thread(target=_pump, args=(server, client, streams[1])),
                ]
                for pump in pumps:
                    pump.start()
                for pump in pumps:
                    pump.join()

        thread = threading.Thread(target=relay)
        thread.start()
        exchange = run_client_session(*listener.getsockname())
        thread.join(10)
    assert not thread.is_alive()
    return exchange, bytes(streams[0]), bytes(streams[1])


def test_session_bytes_pinned():
    # a whole number of microseconds per segment (280.0 ms), so a SEGMENT's
    # arrival_ms reads the same from the engine's clock as from r * 280.0
    srv = serve("127.0.0.1", 0, _corpus(1), _config())
    try:
        exchange, sent, received = _relayed_session(srv.address)
    finally:
        srv.shutdown()
    assert exchange.max_field_gap() == 0.0 and srv.failures == []
    assert [json.loads(line)["type"] for line in received.splitlines()] == [
        "HELLO", *["SEGMENT"] * 4, "METRICS"
    ]
    assert hashlib.sha256(sent).hexdigest() == (
        "66b8ef51e59d0a7809f5d6d2baf3660742cd3e5a06018caabd32993d35c596e0"
    )
    assert hashlib.sha256(received).hexdigest() == (
        "4d014b01b1cab2c675add8796aa01e0a59eb8728962ea004431abfc41848b058"
    )


def test_sent_bodies_have_the_fields_of_the_message_table():
    srv = serve("127.0.0.1", 0, _corpus(1), _config())
    try:
        exchange, sent, received = _relayed_session(srv.address)
        done, _, done_received = _relayed_session(srv.address)
    finally:
        srv.shutdown()
    assert exchange is not None and done is None
    messages = [json.loads(line) for line in (sent + received).splitlines()]
    assert {m["type"] for m in messages} == set(wire.MESSAGES) - {"ERROR"}
    for m in messages:
        assert list(m["body"]) == list(wire.MESSAGES[m["type"]]), m["type"]
    # the one exception: a server out of work sends HELLO with done alone
    assert [json.loads(line)["body"] for line in done_received.splitlines()] == [{"done": True}]


class _FullFdTable:
    """A listener whose accept() fails as in a process at its file-descriptor limit."""

    def __init__(self, real):
        self.real, self.calls = real, 0

    def accept(self):
        self.calls += 1
        raise OSError(errno.EMFILE, "Too many open files")

    def close(self):
        self.real.close()


def test_accept_error_does_not_spin():
    srv = wire.EvalServer("127.0.0.1", 0, _corpus(1), _config())
    srv._listener = listener = _FullFdTable(srv._listener)
    srv.start()
    time.sleep(0.3)
    srv.shutdown()
    # a retry every ACCEPT_RETRY_S; a loop without a pause makes thousands
    assert 1 <= listener.calls < 100


def test_server_reports_done_when_drained(server):
    host, port = server.address
    connect(host, port)
    assert run_client_session(host, port) is None
    # drained server answers every later connection the same way
    assert connect(host, port) == []


def _run_clients(address, n):
    """n run_client_session(address) at once, each on its own thread
    joined within 10 s; the exchanges of those that finished."""
    done = []
    clients = [
        threading.Thread(target=lambda: done.append(run_client_session(*address)), daemon=True)
        for _ in range(n)
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join(10)
    return done


def test_open_session_does_not_block_another(server):
    # the first client holds its session after HELLO; a serial server would
    # never answer the second
    with socket.create_connection(server.address, timeout=10) as sock, _Channel(sock) as chan:
        chan.recv("HELLO")
        second = _run_clients(server.address, 1)
    assert len(second) == 1 and second[0].max_field_gap() == 0.0


def test_sequential_sessions_reuse_server_threads(monkeypatch):
    # no thread per session: a closed-loop client needs two threads (one
    # serving, one waiting) and a third only when it connects before the
    # thread that served it has gone back to accept()
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    srv = serve("127.0.0.1", 0, _corpus(20), _config())
    try:
        exchanges = connect(*srv.address)
    finally:
        srv.shutdown()
    assert len(exchanges) == 20 and srv.failures == []
    assert 2 <= len(started) <= 3, started


def test_failed_thread_start_leaves_an_acceptor(monkeypatch):
    # as at the process's thread limit: each server thread after the first
    # fails to start, so the one that accepted serves and accepts again
    start = threading.Thread.start

    def start_one(thread):
        if thread.name.startswith("EvalServer:"):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
        start(thread)

    started = []
    monkeypatch.setattr(threading.Thread, "start", start_one)
    monkeypatch.setattr(wire, "READ_TIMEOUT_S", 5.0)  # so a lost acceptor fails, not hangs
    srv = serve("127.0.0.1", 0, _corpus(3), _config())
    try:
        exchanges = connect(*srv.address)
        assert srv.drained.wait(5)
    finally:
        srv.shutdown()  # joins only threads that started
    assert len(exchanges) == 3 and max(ex.max_field_gap() for ex in exchanges) == 0.0
    assert srv.failures == [] and len(started) == 1


def test_shutdown_after_concurrent_sessions_ends_every_thread(monkeypatch):
    # three sessions in flight at once: each client waits at a barrier after
    # HELLO until all three have theirs
    together = threading.Barrier(3, timeout=10)

    def run_session_together(*args):
        together.wait()
        return run_session(*args)

    monkeypatch.setattr(wire, "run_session", run_session_together)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    srv = serve("127.0.0.1", 0, _corpus(3), _config())
    try:
        exchanges = _run_clients(srv.address, 3)
        assert srv.drained.wait(5)
    finally:
        sys.setswitchinterval(interval)
        t0 = time.monotonic()
        srv.shutdown()
    assert time.monotonic() - t0 < 1.0
    assert len(exchanges) == 3 and max(ex.max_field_gap() for ex in exchanges) == 0.0
    assert not together.broken and srv.failures == []
    for thread in _server_threads(srv):
        thread.join(max(0.0, t0 + 1.0 - time.monotonic()))
        assert not thread.is_alive(), thread


def test_shutdown_wakeups_claim_nothing(monkeypatch):
    claimed = []
    claim = wire.EvalServer._claim

    def recorded_claim(srv):
        claimed.append(claim(srv))
        return claimed[-1]

    monkeypatch.setattr(wire.EvalServer, "_claim", recorded_claim)
    srv = serve("127.0.0.1", 0, _corpus(2), _config())
    try:
        assert len(connect(*srv.address, max_sessions=1)) == 1
    finally:
        srv.shutdown()
    # one thread woken per waiter, each of which closes its wake-up unclaimed
    assert len(claimed) == 1 and srv.failures == [] and not srv.drained.is_set()


def test_max_sessions_limits_drain(server):
    host, port = server.address
    first = connect(host, port, max_sessions=2)
    assert len(first) == 2
    rest = connect(host, port)
    assert len(rest) == 4


def test_head_start_past_source_end_matches():
    corpus = _corpus(1)
    utt = corpus[0]
    # a head start longer than the source: wait-k reads all of it, never past its end
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
        with socket.create_connection((host, port), timeout=10) as sock:
            chan = _Channel(sock)
            chan.recv()
            chan.send("READ_REQ", {})
            chan.recv()
            chan.send("WRITE", {"token_index": 1, "token": -1, "src_consumed": 1})
            # server drops the session at the wrong token instead of blessing it
            with pytest.raises(ProtocolError, match="peer error: .*disagree"):
                chan.recv()
        assert any("disagree" in f for f in srv.failures)
    finally:
        srv.shutdown()


def _write(chan, utt, w, r, token=None):
    """A WRITE of token w after r segments; the stub's token unless given."""
    if token is None:
        token = synthetic_hypothesis_token(utt, w, r)
    chan.send("WRITE", {"token_index": w, "token": token, "src_consumed": r})


def _read_all(chan, utt):
    for _ in range(utt.source_len):
        chan.send("READ_REQ", {})
        chan.recv()


def test_write_flood_fails_at_write_n_plus_1_in_bounded_memory(monkeypatch):
    # a client that keeps writing past the target end: the server fails the
    # session at WRITE N+1 and keeps nothing per further WRITE
    monkeypatch.setattr(wire, "READ_TIMEOUT_S", 5.0)
    srv = serve("127.0.0.1", 0, _corpus(1), _config())
    tracemalloc.start()
    try:
        with socket.create_connection(srv.address, timeout=10) as sock:
            chan = _Channel(sock)
            utt = Utterance.from_json(json.dumps(chan.recv()[1]["utterance"]))
            _read_all(chan, utt)
            M, N = utt.source_len, utt.target_len
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for w in range(1, 20_001):
                _write(chan, utt, w, M, token=(1 << 30) + w if w > N else None)
                if select.select([sock], [], [], 0)[0]:  # the ERROR is in
                    break
            with pytest.raises(ProtocolError, match=f"write past target end at step {M + N}$"):
                chan.recv()
            grown = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        srv.shutdown()
    assert grown < 256 << 10, grown


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
        body = {"token_index": 1, "token": 7, "src_consumed": 1}
        chan_a.send("WRITE", body)
        assert chan_b.recv() == ("WRITE", body)
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


def _write_before_read(chan, utt):
    chan.send("WRITE", {"token_index": 1, "token": utt["target"][0], "src_consumed": 0})


def _write_past_target(chan, utt):
    # every segment and token as the stub has them, then one WRITE too many
    utt = Utterance.from_json(json.dumps(utt))
    _read_all(chan, utt)
    for w in range(1, utt.target_len + 2):
        _write(chan, utt, w, utt.source_len, token=0 if w > utt.target_len else None)


def _read_past_source(chan, utt):
    # every segment, then one READ_REQ more
    for _ in utt["source"]:
        chan.send("READ_REQ", {})
        chan.recv()
    chan.send("READ_REQ", {})


def _silent(chan, utt):
    pass


def _oversized(chan, utt):
    chan.wfile.write("x" * (wire.MAX_FRAME_BYTES + 1) + "\n")
    chan.wfile.flush()


def _frame(**fields):
    """A client that sends one READ_REQ frame, its fields replaced as given;
    a field given as None is left out."""

    def client(chan, utt):
        frame = {"type": "READ_REQ", "session_id": "", "seq_no": 1, "body": {}, **fields}
        chan.wfile.write(json.dumps({k: v for k, v in frame.items() if v is not None}) + "\n")
        chan.wfile.flush()

    return client


def _sends(msg_type):
    """A client whose first message has a type only the server sends."""
    return lambda chan, utt: chan.send(msg_type, {})


def _bad_write(key, value):
    """A client that reads one segment, then sends a WRITE with key set to value."""

    def client(chan, utt):
        chan.send("READ_REQ", {})
        chan.recv()
        body = {"token_index": 1, "token": utt["target"][0], "src_consumed": 1}
        chan.send("WRITE", with_field(body, key, value))

    return client


_BAD_WRITES = list(bad_fields("WRITE"))


@pytest.mark.parametrize(
    "misbehave, reason",
    [
        (_invalid_schedule, "invalid schedule"),
        (_non_dict_body, "body is not an object"),
        (_silent, "timed out after 0.2 s"),
        (_oversized, "frame too long"),
        # a bool is not an integer, so true is not sequence number 1
        (_frame(seq_no=True), "malformed message: seq_no True is not an integer"),
        (_frame(seq_no=None), "malformed message: missing field 'seq_no'"),
        (_frame(extra=1), "malformed message: unknown field 'extra'"),
        (_frame(session_id=5), "malformed message: session_id 5 is not a string"),
        (_frame(body=None), "bad READ_REQ: body is not an object"),
        (
            _writes(lambda target: [str(target[0]), *(t + 0.5 for t in target[1:])]),
            "bad WRITE: token '",
        ),
        (_writes(lambda target: [t + 0.5 for t in target]), ".5 is not an integer"),
        (_writes(list, first_index=2), "bad WRITE: token_index 2 is not 1"),
        (_writes(list, src_consumed=0), "bad WRITE: src_consumed 0 is not 1"),
        # no EOS_TGT follows these: the ERROR answers the offending WRITE itself
        (_write_before_read, "invalid schedule: trace must begin with READ"),
        (_write_past_target, "invalid schedule: write past target end at step"),
        (_read_past_source, "invalid schedule: read past source end at step"),
        *(
            (_sends(t), f"expected READ_REQ or WRITE or EOS_TGT, got {t}")
            for t in ("HELLO", "SEGMENT", "METRICS")
        ),
        (_frame(type="NONSENSE"), "malformed message: type 'NONSENSE' is not a message type"),
        (_frame(type=[]), "malformed message: type [] is not a message type"),  # unhashable
        *((_bad_write(key, value), reason) for _, key, value, reason in _BAD_WRITES),
    ],
    ids=[
        "invalid-schedule", "non-dict-body", "silent", "oversized", "bool-seq-no",
        "missing-seq-no", "unknown-envelope-key", "int-session-id", "missing-body",
        "string-token", "fractional-token", "skipped-index", "wrong-src-consumed",
        "write-before-read", "write-past-target", "read-past-source", "sends-hello",
        "sends-segment", "sends-metrics", "unknown-type", "list-type",
        *(f"write-{case}" for case, *_ in _BAD_WRITES),
    ],
)
def test_bad_client_is_recorded_and_told(misbehave, reason, monkeypatch, capsys):
    monkeypatch.setattr(wire, "READ_TIMEOUT_S", 0.2)
    srv = serve("127.0.0.1", 0, _corpus(2), _config())
    try:
        # the client-side timeout turns a server that never answers into a failure
        with socket.create_connection(srv.address, timeout=10) as sock, _Channel(sock) as chan:
            _, hello = chan.recv()
            misbehave(chan, hello["utterance"])
            with pytest.raises(ProtocolError, match=f"peer error: .*{re.escape(reason)}"):
                chan.recv()
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
        # the channel closes the socket with its files, so the server need not linger
        with socket.create_connection(srv.address, timeout=10) as sock, _Channel(sock) as chan:
            chan.recv()
            chan.wfile.write("x" * (mib << 20) + "\n")
            chan.wfile.flush()
            with pytest.raises(ProtocolError, match="^peer error: frame too long$"):
                chan.recv()
        assert srv.drained.wait(5)
        assert len(srv.failures) == 1 and srv.failures[0].endswith(": frame too long")
    finally:
        srv.shutdown()


def _deferring_peer(utt, config):
    """A server for one session of utt that reads every client message up
    to EOS_TGT before it sends any SEGMENT; returns its address. A client
    that waits for a SEGMENT first gets "connection closed" after 5 s."""
    listener = socket.create_server(("127.0.0.1", 0))
    result = run_session(utt, config, policy_from_spec(config.policy))
    utterance, config_dict = json.loads(utt.to_json()), config_to_dict(config)
    hello = {"done": False, "utterance": utterance, "config": config_dict}

    def run():
        with listener:
            conn, _ = listener.accept()
        conn.settimeout(5)
        chan = _Channel(conn, session_id=utt.id)
        try:
            chan.send("HELLO", hello)
            reads = 0
            while (msg_type := chan.recv()[0]) != "EOS_TGT":
                reads += msg_type == "READ_REQ"
            for r in range(1, reads + 1):
                segment = {"index": r, "payload": utt.source_tokens[r - 1], "arrival_ms": 0.0}
                chan.send("SEGMENT", segment)
            chan.send("METRICS", {**wire._metrics_body(result), "remaining": 0})
        except OSError:  # the timeout
            pass
        finally:
            chan.close()
            conn.close()

    threading.Thread(target=run, daemon=True).start()
    return listener.getsockname()


def test_client_sends_its_log_before_it_reads_a_segment():
    utt, config = _corpus(1)[0], _config()
    assert utt.source_len <= wire.READ_WINDOW
    exchange = run_client_session(*_deferring_peer(utt, config))
    assert exchange.max_field_gap() == 0


def test_read_window_keeps_small_socket_buffers_moving(monkeypatch):
    # with 4 KiB buffers at both ends, a client that sent every READ_REQ of
    # a long session before reading would block writing while the server
    # blocks writing SEGMENTs; the server's send then times out
    init = _Channel.__init__

    def small_buffers(self, sock, session_id=""):
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            sock.setsockopt(socket.SOL_SOCKET, option, 4096)
        if sock.gettimeout() is None:  # the client: its own bound
            sock.settimeout(10)
        init(self, sock, session_id)

    monkeypatch.setattr(_Channel, "__init__", small_buffers)
    monkeypatch.setattr(wire, "READ_TIMEOUT_S", 0.25)
    m = 2000
    utt = Utterance("long", tuple(range(m)), tuple(range(m)), 10.0, tuple(range(1, m + 1)))
    srv = serve("127.0.0.1", 0, [utt], SessionConfig(policy=PolicySpec("waitk", k=3)))
    try:
        exchange = run_client_session(*srv.address)
        assert srv.drained.wait(5)
    finally:
        srv.shutdown()
    assert srv.failures == []
    assert exchange.max_field_gap() == 0


class _LyingSession(Session):
    """The server's engine, with another token at WRITE 2."""

    def write(self):
        token = super().write()
        return token + 1 if self.writes == 2 else token


def test_pipelined_client_reads_error_sent_mid_session(monkeypatch):
    # the client has sent its whole log by the time the server fails WRITE 2;
    # it must still read the ERROR line, not a reset or a broken pipe
    monkeypatch.setattr(wire, "Session", _LyingSession)
    before = set(threading.enumerate())
    srv = serve("127.0.0.1", 0, _corpus(1), _config())
    try:
        with pytest.raises(ProtocolError, match="^peer error: client token .* disagrees .*"):
            run_client_session(*srv.address)
        assert srv.drained.wait(wire.LINGER_S + 1)
    finally:
        srv.shutdown()
    assert len(srv.failures) == 1 and "disagrees with stub" in srv.failures[0]
    for thread in set(threading.enumerate()) - before:
        thread.join(wire.LINGER_S)
        assert not thread.is_alive(), thread


def test_kept_protocol_error_does_not_hold_the_server(monkeypatch):
    # the caller keeps the error, and with it run_client_session's frame;
    # the channel has closed its socket all the same, so the server sees EOF
    # at once instead of lingering LINGER_S
    monkeypatch.setattr(wire, "Session", _LyingSession)
    srv = serve("127.0.0.1", 0, _corpus(1), _config())
    try:
        with pytest.raises(ProtocolError, match="^peer error: ") as kept:
            run_client_session(*srv.address)
        assert srv.drained.wait(0.5)
    finally:
        srv.shutdown()
    assert kept.value.__traceback__ is not None
