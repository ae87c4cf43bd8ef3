"""Read/write action sequences and fixed-lag schedules.

An action trace is the full decision record of one streaming pass:
READ consumes the next source segment, WRITE emits the next target
token. A legal complete trace consumes all M segments and emits all
N tokens, never reads past M, never writes past N, and starts with a
READ (nothing can be emitted before any input arrives).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence


class Action(str, Enum):
    READ = "READ"
    WRITE = "WRITE"


class InvalidTraceError(ValueError):
    pass


class ReadWritePath:
    """A read/write path over M segments and N tokens, taken in steps: the
    rules of a legal complete trace, stated once. take and end raise
    InvalidTraceError, naming the fault, at the first illegal step."""

    def __init__(self, M: int, N: int):
        self.M, self.N, self.reads, self.writes = M, N, 0, 0

    def take(self, actions: Sequence[Action]) -> None:
        """Each action as the next step; all of them, or none if one is illegal."""
        M, N, reads, writes = self.M, self.N, self.reads, self.writes
        READ = Action.READ  # a local: an Enum member lookup costs more than the loop's test
        if not reads and actions and actions[0] is not READ:  # only a first step precedes them all
            raise InvalidTraceError("trace must begin with READ")
        for a in actions:
            if a is READ:
                if reads == M:
                    raise InvalidTraceError(f"read past source end at step {reads + writes}")
                reads += 1
            else:
                if writes == N:
                    raise InvalidTraceError(f"write past target end at step {reads + writes}")
                writes += 1
        self.reads, self.writes = reads, writes

    def end(self) -> None:
        r, w, M, N = self.reads, self.writes, self.M, self.N
        if not r + w:
            raise InvalidTraceError("empty trace")
        if r != M or w != N:
            raise InvalidTraceError(f"incomplete trace: {r}/{M} reads, {w}/{N} writes")


def validate_trace(actions: Sequence[Action], M: int, N: int) -> None:
    """Raise InvalidTraceError, naming the fault, unless actions is a legal
    complete trace over M segments and N tokens."""
    path = ReadWritePath(M, N)
    path.take(actions)
    path.end()


def consumed_before_write(actions: Sequence[Action]) -> list[int]:
    """g(i): source segments consumed before emitting target token i."""
    out = []
    reads = 0
    for a in actions:
        if a is Action.READ:
            reads += 1
        else:
            out.append(reads)
    return out


def wait_k_trace(k: int, M: int, N: int) -> list[Action]:
    """Fixed-lag schedule: read min(k, M) segments, then alternate.

    After the head start, each WRITE is followed by one READ while
    source remains; once the source is exhausted all remaining target
    tokens are written back to back.
    """
    if M < 1 or N < 1:
        raise ValueError("M and N must be >= 1")
    READ, WRITE = Action.READ, Action.WRITE
    trace = []
    reads = min(k, M)
    trace.extend([READ] * reads)
    writes = 0
    while writes < N:
        trace.append(WRITE)
        writes += 1
        if writes < N and reads < M:
            trace.append(READ)
            reads += 1
    trace.extend([READ] * (M - reads))
    return trace


def wait_k_mask(k: int, N: int, M: int) -> np.ndarray:
    """Boolean (N, M): entry (i, j) true iff segment j is visible to token i.

    Visibility is prefix-monotone: row i allows columns 1..min(k+i-1, M)
    in 1-based terms.
    """
    import numpy as np  # here, so that wait-k schedules need no numpy

    rows = np.arange(1, N + 1)[:, None]
    cols = np.arange(1, M + 1)[None, :]
    limit = np.minimum(k + rows - 1, M)
    return cols <= limit


def trace_from_consumption(g: Sequence[int], M: int) -> list[Action]:
    """Rebuild an action trace from per-token consumption counts g(i)."""
    prev = 0
    trace: list[Action] = []
    for gi in g:
        if gi < prev or gi > M:
            raise ValueError(f"consumption sequence not monotone within [0,{M}]: {list(g)}")
        trace.extend([Action.READ] * (gi - prev))
        trace.append(Action.WRITE)
        prev = gi
    trace.extend([Action.READ] * (M - prev))
    if not trace or trace[0] is not Action.READ:
        raise ValueError("first token must consume at least one segment")
    return trace


def encode_trace(actions: Iterable[Action]) -> str:
    return "".join("R" if a is Action.READ else "W" for a in actions)

