"""Newline-delimited JSON wire protocol for networked evaluation.

One session per connection. The server owns the corpus and the session
config; the client is the deciding agent. Flow:

    server -> HELLO     {utterance, config, done}
    client -> READ_REQ  {}                  (one per read in its log)
    server -> SEGMENT   {index, payload, arrival_ms}
    client -> WRITE     {token_index, token, src_consumed}
    client -> EOS_TGT   {}
    server -> METRICS   {each latency.REPORT_CSV_COLUMNS key, remaining}
    either -> ERROR     {reason}            (then the sender closes)

Both ends stamp messages with per-direction sequence numbers and reject
regressions. Both ends run the session engine (session.Session): the
client runs its session once on HELLO and sends its event log's reads
and writes; the server takes each message as one step of its engine, so
SEGMENTs carry its arrival times and METRICS its result. `remaining`
counts the utterances no client has claimed yet; at 0 a client stops
without another connection, so it never races a `serve --once` that
has exited.

A session fails when its client breaks the protocol, sends a WRITE
whose token is not an integer or whose token_index or src_consumed is
not the server's count, makes a move the engine rejects (a WRITE before
any READ or past the target end, a READ_REQ past the source end, EOS_TGT
too early) or writes a token other than the engine's, each at that
message, stays silent for `READ_TIMEOUT_S` or sends a line longer than
`MAX_FRAME_BYTES`. The server records `"<id>: <reason>"` in `failures`,
sends ERROR on a best-effort basis, half-closes and discards the
client's input until it closes too (at most `LINGER_S` and
`LINGER_MAX_BYTES`), so a client still sending reads the ERROR line
rather than a connection reset; its `recv` raises `ProtocolError("peer
error: <reason>")`. A client raises `ProtocolError("bad <part>: ...")`
for a HELLO utterance that does not parse or whose segments the engine
cannot time, config that `config_from_dict` rejects, a SEGMENT without
an integer index and a METRICS that `latency.metrics_from_dict` rejects
or that names another session. Sockets run with TCP_NODELAY: a session
is a chain of small request/reply messages, and Nagle's algorithm would
hold each one back for the peer's delayed ACK.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .corpus import Utterance
from .actions import InvalidTraceError
from .latency import REPORT_CSV_COLUMNS, checked_field, is_int, metrics_from_dict, metrics_to_dict
from .session import (
    Session,
    SessionConfig,
    SessionError,
    SessionResult,
    config_from_dict,
    config_to_dict,
    policy_from_spec,
    run_session,
)

MESSAGE_TYPES = ("HELLO", "SEGMENT", "READ_REQ", "WRITE", "EOS_TGT", "METRICS", "ERROR")
READ_TIMEOUT_S = 30.0  # server side: longest wait for a client's next message
MAX_FRAME_BYTES = 1 << 20  # longest accepted line, newline excluded
LINGER_S = 2.0  # after ERROR: longest wait for the client to stop sending
LINGER_MAX_BYTES = 64 * MAX_FRAME_BYTES  # after ERROR: most input discarded


class ProtocolError(RuntimeError):
    pass


class _Channel:
    """Framed JSON messages with per-direction sequence checking."""

    def __init__(self, sock: socket.socket, session_id: str = ""):
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = sock.makefile("rb")
        self.wfile = sock.makefile("w", encoding="utf-8", newline="\n")
        self.session_id = session_id
        self._send_seq = 0
        self._recv_seq = 0

    def send(self, msg_type: str, body: dict) -> None:
        if msg_type not in MESSAGE_TYPES:
            raise ProtocolError(f"unknown message type {msg_type!r}")
        self._send_seq += 1
        record = {
            "type": msg_type,
            "session_id": self.session_id,
            "seq_no": self._send_seq,
            "body": body,
        }
        self.wfile.write(json.dumps(record) + "\n")
        self.wfile.flush()

    def recv(self) -> tuple[str, dict]:
        line = self.rfile.readline(MAX_FRAME_BYTES + 1)
        if not line:
            raise ProtocolError("connection closed")
        if len(line) > MAX_FRAME_BYTES and not line.endswith(b"\n"):
            raise ProtocolError("frame too long")
        try:
            record = json.loads(line)
        except ValueError as exc:  # also invalid UTF-8
            raise ProtocolError(f"malformed message: {exc}") from exc
        if not isinstance(record, dict):
            raise ProtocolError("malformed message: not an object")
        msg_type = record.get("type")
        if msg_type not in MESSAGE_TYPES:
            raise ProtocolError(f"unknown message type {msg_type!r}")
        seq = record.get("seq_no")
        if not is_int(seq):
            raise ProtocolError(f"sequence number {seq!r} is not an integer")
        if seq <= self._recv_seq:
            raise ProtocolError(f"sequence number regression: {seq} after {self._recv_seq}")
        self._recv_seq = seq
        body = record.get("body", {})
        if not isinstance(body, dict):
            raise ProtocolError("malformed message: body is not an object")
        if msg_type == "ERROR":
            raise ProtocolError(f"peer error: {body.get('reason', '')}")
        return msg_type, body

    def close(self):
        try:
            self.rfile.close()
            self.wfile.close()
        except OSError:
            pass


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
        outer = self

        class Handler(socketserver.BaseRequestHandler):  # _Channel makes the socket's files
            def handle(self):
                outer._handle(self.request)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((host, port), Handler)
        self.address = self._server.server_address
        # shutdown() waits for the accept loop's next poll
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    def start(self):
        self._thread.start()
        return self

    def shutdown(self):
        self._server.shutdown()
        self._server.server_close()

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
        chan = None
        try:
            conn.settimeout(READ_TIMEOUT_S)
            chan = _Channel(conn, session_id=utt.id if utt else "")
            if utt is None:
                chan.send("HELLO", {"done": True})
                return
            chan.send(
                "HELLO",
                {
                    "done": False,
                    "utterance": json.loads(utt.to_json()),
                    "config": config_to_dict(self.config),
                },
            )
            session = Session(utt, self.config)
            t0 = time.monotonic()
            while True:
                msg_type, body = chan.recv()
                if msg_type == "READ_REQ":
                    arrival_us = session.read()
                    r = session.reads
                    if not self.fast_forward:
                        wait_s = arrival_us / 1e6 - (time.monotonic() - t0)
                        if wait_s > 0:
                            time.sleep(wait_s)
                    arrival_ms, payload = arrival_us / 1000, utt.source_tokens[r - 1]
                    chan.send("SEGMENT", {"index": r, "payload": payload, "arrival_ms": arrival_ms})
                elif msg_type == "WRITE":
                    w, r = session.writes + 1, session.reads
                    try:  # as _reading does, without its generator: a WRITE comes per token
                        token = checked_field(body, "token", is_int, "an integer")
                        checked_field(body, "token_index", lambda v: is_int(v) and v == w, f"{w}")
                        checked_field(body, "src_consumed", lambda v: is_int(v) and v == r, f"{r}")
                    except ValueError as exc:
                        raise ProtocolError(f"bad WRITE: {exc}") from None
                    stub = session.write()
                    if token != stub:
                        raise ProtocolError(f"client token {token} disagrees with stub {stub}")
                elif msg_type == "EOS_TGT":
                    break
                else:
                    raise ProtocolError(f"unexpected {msg_type} from client")
            result = session.end()
            remaining = len(self.corpus) - self._next
            chan.send("METRICS", {**_metrics_body(result), "remaining": remaining})
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
            if chan is not None:
                try:
                    chan.send("ERROR", {"reason": reason})
                except OSError:
                    pass
                _linger(conn)
        finally:
            if chan is not None:
                chan.close()
            if utt is not None:
                self._settle()


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


@contextmanager
def _reading(what: str):
    """Turn a malformed message part into ProtocolError("bad <what>: ...")."""
    try:
        yield
    except KeyError as exc:
        raise ProtocolError(f"bad {what}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad {what}: {exc}") from None


def run_client_session(host: str, port: int) -> Optional[SessionExchange]:
    """Run one networked session; None when the server is out of work."""
    with socket.create_connection((host, port)) as sock:
        chan = _Channel(sock)
        msg_type, body = chan.recv()
        if msg_type != "HELLO":
            raise ProtocolError(f"expected HELLO, got {msg_type}")
        if body.get("done"):
            return None
        with _reading("HELLO utterance"):
            utt = Utterance.from_json(json.dumps(body["utterance"]))
        with _reading("HELLO config"):
            config = config_from_dict(body.get("config"))
        try:  # an utterance whose segments the engine cannot time
            local = run_session(utt, config, policy_from_spec(config.policy))
        except SessionError as exc:
            raise ProtocolError(f"bad HELLO utterance: {exc}") from None
        chan.session_id = utt.id
        for event in local.events:  # rows (t_us, wall_us, kind, *EVENT_FIELDS[kind])
            if event[2] == "read":  # index
                chan.send("READ_REQ", {})
                msg_type, seg = chan.recv()
                if msg_type != "SEGMENT":
                    raise ProtocolError(f"expected SEGMENT, got {msg_type}")
                with _reading("SEGMENT"):
                    index = checked_field(seg, "index", is_int, "an integer")
                if index != event[3]:
                    raise ProtocolError("segment order violated")
            elif event[2] == "write":  # token, n_units, src_consumed
                w = event[3]
                token = local.hypothesis[w - 1]
                chan.send("WRITE", {"token_index": w, "token": token, "src_consumed": event[5]})
        chan.send("EOS_TGT", {})
        msg_type, server_metrics = chan.recv()
        if msg_type != "METRICS":
            raise ProtocolError(f"expected METRICS, got {msg_type}")
        with _reading("METRICS"):
            metrics_id = metrics_from_dict(server_metrics)[0]
            if metrics_id != utt.id:
                raise ValueError(f"id {metrics_id!r} is not this session's {utt.id!r}")
        return SessionExchange(utt.id, _metrics_body(local), server_metrics)


def connect(host: str, port: int, max_sessions: Optional[int] = None) -> list[SessionExchange]:
    """Drain the server session by session until it reports done."""
    out = []
    while max_sessions is None or len(out) < max_sessions:
        exchange = run_client_session(host, port)
        if exchange is None:
            break
        out.append(exchange)
        if exchange.server_metrics.get("remaining") == 0:
            break
    return out
