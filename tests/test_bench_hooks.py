"""The benchmark's traced runs patch simulstream's entry points by name
(bench/tracing.py). A rename there breaks only traced bench runs, so this
checks, with the benchmark's own code, that every name it patches exists,
that the CLI calls through it, and that leaving the trace restores it."""

import importlib.util
import inspect
import sys
from pathlib import Path

from simulstream import cli, corpus, latency, session, wire
from simulstream.corpus import SyntheticTaskSpec, generate_corpus
from simulstream.session import SessionConfig

ROOT = Path(__file__).resolve().parent.parent
MODULES = (cli, corpus, latency, session, wire)


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every module of MODULES and every class defined in one, by name."""
    out = {}
    for module in MODULES:
        out[module.__name__] = module
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                out[f"{module.__name__}.{name}"] = value
    return out


def _snapshot():
    return {where: dict(vars(owner)) for where, owner in _namespaces().items()}


def _changed(before):
    return {
        (where, name)
        for where, attrs in _snapshot().items()
        for name in attrs.keys() | before[where].keys()
        if attrs.get(name) is not before[where].get(name)
    }


def test_instrument_patches_entry_points_and_restores_them(tmp_path, monkeypatch):
    tracing = _load_tracing(monkeypatch)
    corpus_path = tmp_path / "corpus.jsonl"
    assert cli.main(["gen-corpus", "--out", str(corpus_path), "--n", "2", "--seed", "5"]) == 0
    results, out = tmp_path / "results.jsonl", tmp_path / "out.csv"
    before = _snapshot()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        patched = _changed(before)
        assert cli.main(["simulate", "--corpus", str(corpus_path), "--out-results", str(results),
                         "--out-csv", str(out)]) == 0
        assert cli.main(["eval", "--results", str(results), "--corpus", str(corpus_path),
                         "--out", str(out)]) == 0
        assert cli.main(["sweep", "--corpus", str(corpus_path), "--family", "vmma",
                         "--grid", "0.5", "--out", str(out)]) == 0
    assert {("simulstream.cli", "run_session"), ("simulstream.wire", "run_session"),
            ("simulstream.session.SessionResult", "report")} <= patched
    assert _changed(before) == set()
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {
        "session.run", "session.recompute", "session.to_json", "session.from_json",
        "latency.report", "plan.waitk", "plan.vmma", "corpus.read", "corpus.quality",
    } <= names


def test_wire_sessions_are_traced_in_process(monkeypatch):
    # the wire-loopback workload times the client's recv and its own session
    # by these names; the server steps its own engine, so only the client
    # runs one, once per session, before its first READ_REQ
    tracing = _load_tracing(monkeypatch)
    utterances = generate_corpus(SyntheticTaskSpec(60, (3, 6), "random-monotone"), 3, seed=4)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        server = wire.serve("127.0.0.1", 0, utterances, SessionConfig())
        try:
            exchanges = wire.connect(*server.address)
        finally:
            server.shutdown()
    assert len(exchanges) == 3 and server.failures == []
    assert all(e.max_field_gap() == 0 for e in exchanges)
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("session.run") == 3 and "wire.recv" in names
