"""Newline-delimited JSON wire protocol for networked evaluation.

One session per connection, on the thread that accepted it, which first
starts another if none waits (and, if it cannot, serves all the same).
The server owns the corpus and config; the client decides. Flow:

    server -> HELLO
    client -> READ_REQ  (one per read in its log)
    server -> SEGMENT
    client -> WRITE
    client -> EOS_TGT
    server -> METRICS
    either -> ERROR     (then the sender closes)

`ENVELOPE` gives every message's keys (a known `type`, a string
`session_id`, an integer `seq_no` and a `body`) and `MESSAGES` each
type's body: its fields in the order they are sent, the rule each obeys,
and no other key. Both ends check every message they read against both
tables and the types they expect next (`_Channel.recv`), and stamp
messages with per-direction sequence numbers, rejecting regressions.
Both ends run the session engine (session.Session): the client runs its
session once on HELLO and sends its event log's reads and writes; the
server takes each message as one step of its engine, so SEGMENTs carry
its arrival times and METRICS its result. The client does not wait for
each SEGMENT: it writes its log's READ_REQs and WRITEs, then EOS_TGT,
and reads the SEGMENTs in order. At most `READ_WINDOW` READ_REQs are
unanswered; at that bound it flushes and reads the oldest SEGMENT first,
so what the server owes fits in small socket buffers (4 KiB a side is
tested) and the two ends never block writing to each other. `remaining`
counts the utterances no client has claimed yet; at 0 a client stops
without another connection, so it never races a `serve --once` that has
exited.

A session fails when its client sends a message that `recv` refuses,
a WRITE whose token_index or src_consumed is not the server's count,
makes a move the engine rejects (a WRITE before any READ or past the
target end, a READ_REQ past the source end, EOS_TGT too early) or
writes a token other than the engine's, each at that message, stays
silent for `READ_TIMEOUT_S` or sends a line longer than
`MAX_FRAME_BYTES`. The server records `"<id>: <reason>"` in `failures`,
sends ERROR on a best-effort basis, half-closes and discards the
client's input until it closes too (at most `LINGER_S` and
`LINGER_MAX_BYTES`), so a client still sending reads the ERROR line
rather than a connection reset; its `recv` raises `ProtocolError("peer
error: <reason>")`. A client raises `ProtocolError` for a message that
`recv` refuses, a HELLO utterance that `Utterance.from_dict` refuses,
config that `config_from_dict` rejects, a SEGMENT out of order and a
METRICS that names another session. Sockets run with TCP_NODELAY, so no
message waits for the peer's delayed ACK.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .corpus import Utterance
from .actions import InvalidTraceError
from .latency import BOOL, COLUMN_RULES, INT, NUMBER, REPORT_CSV_COLUMNS, STR, checked_fields
from .latency import metrics_to_dict
from .session import (
    Session,
    SessionConfig,
    SessionResult,
    config_from_dict,
    config_to_dict,
    policy_from_spec,
    run_session,
)

# Each message type's body: its fields in the order they are sent, and the
# (ok, want) rule recv checks each against; no other key passes. A rule of None:
# run_client_session reads the field itself, by Utterance.from_dict and
# config_from_dict; a server out of work sends HELLO {"done": true} alone.
MESSAGES = {
    "HELLO": {"done": BOOL, "utterance": None, "config": None},
    "READ_REQ": {},
    "SEGMENT": {"index": INT, "payload": INT, "arrival_ms": NUMBER},
    "WRITE": {"token_index": INT, "token": INT, "src_consumed": INT},
    "EOS_TGT": {},
    "METRICS": {**COLUMN_RULES, "remaining": INT},
    "ERROR": {"reason": STR},
}
# Every message's envelope, by the same rules; no other key passes. The body
# is checked against its type's MESSAGES entry once the type is known.
ENVELOPE = {
    "type": (lambda v: type(v) is str and v in MESSAGES, "a message type"),  # a list is unhashable
    "session_id": STR,
    "seq_no": INT,
    "body": None,
}
READ_TIMEOUT_S = 30.0  # either end's longest wait for the peer's next message
READ_WINDOW = 32  # client side: most READ_REQs sent whose SEGMENT is not read yet
MAX_FRAME_BYTES = 1 << 20  # longest accepted line, newline excluded
LINGER_S = 2.0  # after ERROR: longest wait for the client to stop sending
LINGER_MAX_BYTES = 64 * MAX_FRAME_BYTES  # after ERROR: most input discarded
ACCEPT_RETRY_S = 0.02  # after accept() fails: the wait before the next try


class ProtocolError(RuntimeError):
    pass


class _Channel:
    """Framed JSON messages with per-direction sequence checking; closing
    it (or leaving its `with`) closes the socket."""

    def __init__(self, sock: socket.socket, session_id: str = ""):
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.wfile = sock.makefile("w", encoding="utf-8", newline="\n")
        self.session_id = session_id
        self._send_seq = 0
        self._recv_seq = 0

    def send(self, msg_type: str, body: dict, flush: bool = True) -> None:
        """Write one message; unless flush, it stays buffered until a later flush."""
        if msg_type not in MESSAGES:
            raise ProtocolError(f"unknown message type {msg_type!r}")
        self._send_seq += 1
        record = {
            "type": msg_type,
            "session_id": self.session_id,
            "seq_no": self._send_seq,
            "body": body,
        }
        self.wfile.write(json.dumps(record) + "\n")
        if flush:
            self.wfile.flush()

    def recv(self, *expected: str) -> tuple[str, dict]:
        """The next message, if its type is one of expected (any, if none
        is named) and its body obeys MESSAGES; an ERROR raises."""
        line = self.rfile.readline(MAX_FRAME_BYTES + 1)
        if not line:
            raise ProtocolError("connection closed")
        if len(line) > MAX_FRAME_BYTES and not line.endswith(b"\n"):
            raise ProtocolError("frame too long")
        try:
            msg_type, _, seq, body = checked_fields(json.loads(line), ENVELOPE, "message")
        except ValueError as exc:  # not JSON (or not UTF-8), or refused by ENVELOPE
            raise ProtocolError(f"malformed message: {exc}") from None
        if seq <= self._recv_seq:
            raise ProtocolError(f"sequence number regression: {seq} after {self._recv_seq}")
        self._recv_seq = seq
        if expected and msg_type not in expected and msg_type != "ERROR":
            raise ProtocolError(f"expected {' or '.join(expected)}, got {msg_type}")
        try:
            checked_fields(body, MESSAGES[msg_type], "body")
        except ValueError as exc:
            raise ProtocolError(f"bad {msg_type}: {exc}") from None
        if msg_type == "ERROR":
            raise ProtocolError(f"peer error: {body['reason']}")
        return msg_type, body

    def close(self) -> None:
        for f in (self.wfile, self.rfile, self.sock):
            try:
                f.close()
            except OSError:  # the flush, to a peer that has gone
                pass

    def __enter__(self) -> "_Channel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _metrics_body(result: SessionResult) -> dict:
    return metrics_to_dict(result.utterance_id, result.report(), result.quality)


class EvalServer:
    """Serves one session per connection, in corpus order.

    Every claimed utterance ends in a METRICS sent or in one `failures`
    entry; `drained` is set once the last one has been settled and its
    connection closed."""

    def __init__(
        self,
        host: str,
        port: int,
        corpus: list[Utterance],
        config: SessionConfig,
        fast_forward: bool = True,
    ):
        self.corpus = corpus
        self.config = config
        self.fast_forward = fast_forward
        self.failures: list[str] = []
        self.drained = threading.Event()
        if not corpus:
            self.drained.set()
        self._next = 0
        self._settled = 0
        self._lock = threading.Lock()
        self._listener = socket.create_server((host, port))  # IPv4, SO_REUSEADDR on POSIX
        self.address = self._listener.getsockname()
        self._waiting: set[threading.Thread] = set()  # in accept(), or on their way to it
        self._closed = False

    def start(self):
        with self._lock:
            self._spawn()
        return self

    def _spawn(self) -> None:  # under self._lock; a thread that fails to start is not waiting
        name = f"EvalServer:{self.address[1]}"
        thread = threading.Thread(target=self._accept_loop, name=name, daemon=True)
        thread.start()
        self._waiting.add(thread)

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn = self._listener.accept()[0]
            except OSError:  # the listener closed, a client gone before accept, no fd free
                if not self._closed:  # an error that persists must not spin
                    time.sleep(ACCEPT_RETRY_S)
                continue
            with self._lock:
                self._waiting.discard(threading.current_thread())
                if not (self._closed or self._waiting):
                    try:
                        self._spawn()
                    except RuntimeError:  # no thread to spare: this one serves, then accepts
                        pass
            with conn:
                if not self._closed:  # else a wake-up from shutdown, or a client too late
                    self._handle(conn)
            with self._lock:
                self._waiting.add(threading.current_thread())

    def shutdown(self) -> None:
        with self._lock:
            self._closed = True
            woken = list(self._waiting)
            try:  # a connection wakes one thread blocked in accept()
                for _ in woken:
                    socket.create_connection(self.address).close()
            except OSError:  # one may stay in accept(): a daemon, it ends with the process
                woken = []
            self._listener.close()
        for thread in woken:  # so what each accepted is closed before the process can exit
            thread.join()

    def _claim(self) -> Optional[Utterance]:
        with self._lock:
            if self._next >= len(self.corpus):
                return None
            utt = self.corpus[self._next]
            self._next += 1
            return utt

    def _settle(self) -> None:
        with self._lock:
            self._settled += 1
            if self._settled == len(self.corpus):
                self.drained.set()

    def _handle(self, conn: socket.socket):
        utt = self._claim()
        try:
            conn.settimeout(READ_TIMEOUT_S)
            with _Channel(conn, session_id=utt.id if utt else "") as chan:
                try:
                    self._serve(chan, utt)
                except Exception as exc:  # one bad session must not take the server down
                    if isinstance(exc, ProtocolError):
                        reason = str(exc)
                    elif isinstance(exc, InvalidTraceError):  # a step of the session engine
                        reason = f"invalid schedule: {exc}"
                    elif isinstance(exc, TimeoutError):
                        reason = f"timed out after {READ_TIMEOUT_S:g} s"
                    else:
                        reason = f"{type(exc).__name__}: {exc}"
                    with self._lock:
                        self.failures.append(f"{utt.id if utt else '?'}: {reason}")
                    try:
                        chan.send("ERROR", {"reason": reason})
                    except OSError:
                        pass
                    _linger(conn)
        finally:
            if utt is not None:
                self._settle()

    def _serve(self, chan: _Channel, utt: Optional[Utterance]) -> None:
        if utt is None:
            chan.send("HELLO", {"done": True})
            return
        config = config_to_dict(self.config)
        chan.send("HELLO", {"done": False, "utterance": utt.to_dict(), "config": config})
        session = Session(utt, self.config)
        t0 = time.monotonic()
        while True:
            msg_type, body = chan.recv("READ_REQ", "WRITE", "EOS_TGT")
            if msg_type == "READ_REQ":
                arrival_us = session.read()
                if not self.fast_forward:
                    wait_s = arrival_us / 1e6 - (time.monotonic() - t0)
                    if wait_s > 0:
                        time.sleep(wait_s)
                r = session.reads
                segment = {"index": r, "payload": utt.source_tokens[r - 1]}
                chan.send("SEGMENT", {**segment, "arrival_ms": arrival_us / 1000})
            elif msg_type == "WRITE":
                w, r = session.writes + 1, session.reads
                for key, count in (("token_index", w), ("src_consumed", r)):
                    if body[key] != count:
                        raise ProtocolError(f"bad WRITE: {key} {body[key]} is not {count}")
                stub = session.write()
                if body["token"] != stub:
                    raise ProtocolError(f"client token {body['token']} disagrees with stub {stub}")
            else:  # EOS_TGT
                break
        result = session.end()
        remaining = len(self.corpus) - self._next
        chan.send("METRICS", {**_metrics_body(result), "remaining": remaining})


def _linger(conn: socket.socket) -> None:
    """Half-close, then discard input until the client closes its end.

    Closing a socket with unread input makes the kernel reset the
    connection, and a client still sending (say, an oversized frame)
    would get a broken pipe instead of the ERROR line already sent.
    Bounded by LINGER_S and LINGER_MAX_BYTES."""
    deadline = time.monotonic() + LINGER_S
    discarded = 0
    try:
        conn.shutdown(socket.SHUT_WR)
        while discarded < LINGER_MAX_BYTES:
            left = deadline - time.monotonic()
            if left <= 0:
                return
            conn.settimeout(left)
            chunk = conn.recv(1 << 16)
            if not chunk:
                return
            discarded += len(chunk)
    except OSError:  # also the timeout
        pass


def serve(
    host: str, port: int, corpus: list[Utterance], config: SessionConfig, fast_forward: bool = True
) -> EvalServer:
    return EvalServer(host, port, corpus, config, fast_forward).start()


@dataclass(frozen=True)
class SessionExchange:
    utterance_id: str
    client_metrics: dict
    server_metrics: dict

    def max_field_gap(self) -> float:
        ours, theirs = self.client_metrics, self.server_metrics
        return max(abs(ours[k] - theirs[k]) for k in REPORT_CSV_COLUMNS[1:])  # all but the id


def _read_segment(chan: _Channel, index: int) -> None:
    """Read the next message, which must be the SEGMENT of read `index`."""
    if chan.recv("SEGMENT")[1]["index"] != index:
        raise ProtocolError("segment order violated")


def run_client_session(host: str, port: int) -> Optional[SessionExchange]:
    """Run one networked session; None when the server is out of work."""
    with socket.create_connection((host, port), READ_TIMEOUT_S) as sock, _Channel(sock) as chan:
        hello = chan.recv("HELLO")[1]
        if hello["done"]:
            return None
        try:
            utt = Utterance.from_dict(hello.get("utterance"))
        except ValueError as exc:
            raise ProtocolError(f"bad HELLO utterance: {exc}") from None
        try:
            config = config_from_dict(hello.get("config"))
        except ValueError as exc:
            raise ProtocolError(f"bad HELLO config: {exc}") from None
        local = run_session(utt, config, policy_from_spec(config.policy))
        chan.session_id = utt.id
        unanswered = deque()  # the index of each READ_REQ sent, until its SEGMENT is read
        for event in local.events:  # rows (t_us, wall_us, kind, *EVENT_FIELDS[kind])
            if event[2] == "read":  # index
                if len(unanswered) == READ_WINDOW:
                    chan.wfile.flush()
                    _read_segment(chan, unanswered.popleft())
                chan.send("READ_REQ", {}, flush=False)
                unanswered.append(event[3])
            elif event[2] == "write":  # token, n_units, src_consumed
                w = event[3]
                token = local.hypothesis[w - 1]
                body = {"token_index": w, "token": token, "src_consumed": event[5]}
                chan.send("WRITE", body, flush=False)
        chan.send("EOS_TGT", {})
        for index in unanswered:
            _read_segment(chan, index)
        metrics = chan.recv("METRICS")[1]
        if metrics["id"] != utt.id:
            other = metrics["id"]
            raise ProtocolError(f"bad METRICS: id {other!r} is not this session's {utt.id!r}")
        return SessionExchange(utt.id, _metrics_body(local), metrics)


def connect(host: str, port: int, max_sessions: Optional[int] = None) -> list[SessionExchange]:
    """Drain the server session by session until it reports done."""
    out = []
    while max_sessions is None or len(out) < max_sessions:
        exchange = run_client_session(host, port)
        if exchange is None:
            break
        out.append(exchange)
        if exchange.server_metrics["remaining"] == 0:
            break
    return out
