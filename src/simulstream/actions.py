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

import numpy as np


class Action(str, Enum):
    READ = "READ"
    WRITE = "WRITE"


class InvalidTraceError(ValueError):
    pass


def validate_trace(actions: Sequence[Action], M: int, N: int) -> None:
    """Raise InvalidTraceError, naming the fault, unless actions is a legal
    complete trace over M segments and N tokens."""
    READ = Action.READ  # a local: an Enum member lookup costs more than the loop's test
    reads = writes = 0
    if not actions:
        raise InvalidTraceError("empty trace")
    if actions[0] is not READ:
        raise InvalidTraceError("trace must begin with READ")
    for t, a in enumerate(actions):
        if a is READ:
            reads += 1
            if reads > M:
                raise InvalidTraceError(f"read past source end at step {t}")
        else:
            writes += 1
            if writes > N:
                raise InvalidTraceError(f"write past target end at step {t}")
    if reads != M or writes != N:
        raise InvalidTraceError(f"incomplete trace: {reads}/{M} reads, {writes}/{N} writes")


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

