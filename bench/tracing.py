"""Spans around calls into simulstream, recorded from outside the package.

A traced run patches module and class attributes of simulstream at run
time (including the names re-imported into ``cli`` and ``wire``) so that
every call into a layer's public entry point opens a span. The package
itself is never edited, and nothing is patched in an untraced run.

Each span records its name, start, end, parent span and a request id
(the utterance, session or command it belongs to). Spans are kept in
memory and written out once the run ends. Calls are properly nested on
one thread, so a span's self time is its duration minus the summed
durations of its direct children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self._open: list[int] = []

    def begin(self, name: str, request=None) -> int:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent][REQUEST]
        self.spans.append([name, time.perf_counter(), None, parent, request])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, request=None):
        index = self.begin(name, request)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, name: str, fn, request_of=None):
        def traced(*args, **kwargs):
            index = self.begin(name, request_of(*args) if request_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, request in self.spans:
                span = {"name": name, "start": start, "end": end, "parent": parent}
                f.write(json.dumps({**span, "request": request}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def spans_by_root(spans: list[list], root_name: str) -> list[list[int]]:
    """Indices of the spans under each root span named root_name, root first."""
    groups: dict[int, list[int]] = {}
    root_of: list[int] = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        root = index if parent is None else root_of[parent]
        root_of.append(root)
        if spans[root][NAME] == root_name:
            groups.setdefault(root, []).append(index)
    return list(groups.values())


@contextmanager
def patched(patches):
    """Temporarily set attributes; patches is a list of (owner, name, value)."""
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def instrument(tracer: Tracer):
    """Patch the entry points the corpus and wire workloads reach."""
    from simulstream import cli, corpus, session, wire

    def utterance_id(utterance, *_):
        return utterance.id

    def result_id(result, *_):
        return result.utterance_id

    def planned_id(_policy, utterance):
        return utterance.id

    run = tracer.wrap("session.run", session.run_session, utterance_id)
    quality = tracer.wrap("corpus.quality", corpus.quality_score)
    read = tracer.wrap("corpus.read", corpus.read_corpus)
    recompute = tracer.wrap("session.recompute", session.recompute_result_from_events, result_id)
    result, waitk, vmma = session.SessionResult, session.WaitKPolicy, session.VmmaPolicy
    from_json = vars(result)["from_json"].__func__
    return patched(
        [
            (cli, "run_session", run),
            (wire, "run_session", run),
            (cli, "read_corpus", read),
            (cli, "recompute_result_from_events", recompute),
            # run_session scores through session's name; eval imports corpus's
            (session, "quality_score", quality),
            (corpus, "quality_score", quality),
            (waitk, "plan", tracer.wrap("plan.waitk", waitk.plan, planned_id)),
            (vmma, "plan", tracer.wrap("plan.vmma", vmma.plan, planned_id)),
            (result, "to_json", tracer.wrap("session.to_json", result.to_json, result_id)),
            (result, "from_json", classmethod(tracer.wrap("session.from_json", from_json))),
            (result, "report", tracer.wrap("latency.report", result.report, result_id)),
            # the one private hook: time the client spends blocked on a reply
            (wire._Channel, "recv", tracer.wrap("wire.recv", wire._Channel.recv)),
        ]
    )
