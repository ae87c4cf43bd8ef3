import hashlib
import json
import os
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import MISSING, bad_fields, with_field
from simulstream.cli import main
from simulstream.corpus import read_corpus
from simulstream import wire
from simulstream.wire import ProtocolError, _Channel, _linger


def _gen(tmp_path, name="corpus.jsonl", n=8, seed=3, **kw):
    path = tmp_path / name
    argv = ["gen-corpus", "--out", str(path), "--n", str(n), "--seed", str(seed)]
    for flag, value in kw.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    return path


def test_gen_corpus_writes_deterministic_jsonl(tmp_path):
    a = _gen(tmp_path, "a.jsonl", kind="random-monotone", noise_rate=0.4)
    b = _gen(tmp_path, "b.jsonl", kind="random-monotone", noise_rate=0.4)
    c = _gen(tmp_path, "c.jsonl", seed=4, kind="random-monotone", noise_rate=0.4)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    corpus = read_corpus(str(a))
    assert len(corpus) == 8
    assert all(u.source_len >= 6 for u in corpus)


def test_vmma_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # str hashes change from one process to the next unless PYTHONHASHSEED
    # pins them; the same seeds must give the same bytes in any process
    corpus = _gen(tmp_path, n=6, kind="random-monotone", noise_rate=0.4)
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash-seed-{hash_seed}"
        out.mkdir()
        vmma = ["--policy", "vmma", "--lam", "0.3", "--per-decision-ms", "1.5"]
        simulate = ["simulate", "--corpus", str(corpus), "--out-results", str(out / "r.jsonl"),
                    "--out-csv", str(out / "simulate.csv"), *vmma]
        sweep = ["sweep", "--corpus", str(corpus), "--family", "vmma", "--grid", "0.2,1.0",
                 "--out", str(out / "sweep.csv")]
        script = "from simulstream.cli import main\n" + "".join(
            f"assert main({argv!r}) == 0\n" for argv in (simulate, sweep)
        )
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert list(outputs[0]) == ["r.jsonl", "simulate.csv", "sweep.csv"]
    assert all(outputs[0].values()) and outputs[0] == outputs[1]


_HUGE = "99999999999999999999"  # past int64, so numpy cannot draw it
# what a time setting, a corpus's src_tok_ms and gen-corpus --segment-ms take:
# a nonzero count of whole us, and one that a float holds
_TIME = "a finite number of ms over 0.0005 and at most 1.7976931348623156e+305"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--min-len", "9", "--max-len", "3"], "invalid length_range (9, 3)"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--vocab-size", _HUGE], "vocab_size must be <= 9223372036854775807"),
        (["--max-len", _HUGE], "lengths must be <= 9223372036854775807"),
        # segments a session could not count in whole us: rounding to 0, or past a float
        (["--segment-ms", "0.0001"], f"segment_ms 0.0001 is not {_TIME}"),
        (["--segment-ms", "1e308"], f"segment_ms 1e+308 is not {_TIME}"),
    ],
    ids=[
        "min-above-max", "negative-seed", "huge-vocab-size", "huge-max-len",
        "segment-rounds-to-0", "segment-too-large",
    ],
)
def test_gen_corpus_rejects_bad_lengths(tmp_path, capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        main(["gen-corpus", "--out", str(tmp_path / "x.jsonl"), *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.jsonl").exists()


def test_simulate_writes_results_and_csv(tmp_path, capsys):
    corpus = _gen(tmp_path)
    results = tmp_path / "results.jsonl"
    csv = tmp_path / "report.csv"
    rc = main(
        [
            "simulate",
            "--corpus",
            str(corpus),
            "--k",
            "2",
            "--out-results",
            str(results),
            "--out-csv",
            str(csv),
        ]
    )
    assert rc == 0
    assert "waitk-2" in capsys.readouterr().out
    lines = csv.read_text().splitlines()
    assert lines[0] == "id,al_ms,ca_al_ms,mean_delay_ms,discont_ms,n_tokens,quality"
    assert len(lines) == 1 + 8 + 1
    assert lines[-1].startswith("aggregate,")
    assert len(results.read_text().splitlines()) == 8


def test_simulate_is_deterministic(tmp_path):
    corpus = _gen(tmp_path, kind="random-monotone", noise_rate=0.4)
    outs = []
    for name in ("r1.csv", "r2.csv"):
        path = tmp_path / name
        assert (
            main(
                [
                    "simulate",
                    "--corpus",
                    str(corpus),
                    "--policy",
                    "vmma",
                    "--lam",
                    "0.2",
                    "--out-csv",
                    str(path),
                ]
            )
            == 0
        )
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_eval_reproduces_simulate_rows(tmp_path):
    corpus = _gen(tmp_path, kind="random-monotone", noise_rate=0.3)
    results = tmp_path / "results.jsonl"
    sim_csv = tmp_path / "sim.csv"
    eval_csv = tmp_path / "eval.csv"
    main(
        [
            "simulate",
            "--corpus",
            str(corpus),
            "--k",
            "3",
            "--emission-rate",
            "2",
            "--per-decision-ms",
            "1.0",
            "--out-results",
            str(results),
            "--out-csv",
            str(sim_csv),
        ]
    )
    assert main(["eval", "--results", str(results), "--out", str(eval_csv)]) == 0
    sim_rows = sim_csv.read_text().splitlines()
    eval_rows = eval_csv.read_text().splitlines()
    assert eval_rows == sim_rows[:-1]  # everything but the aggregate row

    # quality re-scored against the corpus matches the stored hypothesis score
    rescored = tmp_path / "rescored.csv"
    assert (
        main(
            ["eval", "--results", str(results), "--corpus", str(corpus), "--out", str(rescored)]
        )
        == 0
    )
    assert rescored.read_text().splitlines() == eval_rows


def test_eval_refuses_a_session_missing_from_the_corpus(tmp_path, capsys):
    results, out = tmp_path / "results.jsonl", tmp_path / "eval.csv"
    corpus = _gen(tmp_path, n=2)
    assert main(["simulate", "--corpus", str(corpus), "--out-results", str(results)]) == 0
    other = _gen(tmp_path, "other.jsonl", n=2, seed=4)  # ids utt-4-*, not the results' utt-3-*
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--results", str(results), "--corpus", str(other), "--out", str(out)])
    assert exc.value.code == 2
    assert _one_error_line(capsys) == "error: utterance utt-3-00000 missing from corpus\n"
    assert not out.exists()


def test_eval_rejects_bad_results(tmp_path, capsys):
    corpus = _gen(tmp_path, n=2)
    results = tmp_path / "results.jsonl"
    assert main(["simulate", "--corpus", str(corpus), "--out-results", str(results)]) == 0
    good = results.read_text().splitlines()[0]
    record = json.loads(good)
    missing = {k: v for k, v in record.items() if k != "src_len"}
    old_format = dict(record, events=[{"t_us": 0, "wall_us": 0, "kind": "write_unit"}])
    # a synthesis batch as logged before vocoder_call carried its playback span
    old_batch = dict(
        record,
        events=[
            {"t_us": 0, "wall_us": 0, "kind": "vocoder_call", "n_units": 1},
            {"t_us": 0, "wall_us": 0, "kind": "emit_audio", "start_us": 0, "end_us": 20000},
        ],
    )
    no_span = dict(record, events=[{"t_us": 0, "wall_us": 0, "kind": "vocoder_call", "n_units": 1}])
    first = record["events"][0]  # a read
    extra_field = dict(record, events=[dict(first, bogus=1)])
    float_time = dict(record, events=[dict(first, t_us=1.5)])
    not_object = dict(record, events=[list(first.values())])
    float_len = dict(record, src_len=15.9)
    string_quality = dict(record, quality="7")
    bool_token = dict(record, hypothesis=[True, *record["hypothesis"][1:]])
    # the header must agree with the event log, which alone holds the delays
    src_len, tgt_len, duration = record["src_len"], record["tgt_len"], record["source_duration_us"]
    old_keys = dict(record, consumption=[1] * tgt_len)
    long_target = dict(record, tgt_len=tgt_len + 5)
    long_source = dict(record, src_len=src_len + 5, hypothesis=record["hypothesis"][:3])
    long_duration = dict(record, source_duration_us=duration * 3)
    short_hypothesis = dict(record, hypothesis=record["hypothesis"][:-1])
    # a header that agrees with the log, whose tokens no vocoder_call synthesizes
    unvoiced = dict(record, events=[e for e in record["events"] if e["kind"] != "vocoder_call"])
    # and one whose last token lacks only its final vocoder_call
    events = list(record["events"])
    del events[max(n for n, e in enumerate(events) if e["kind"] == "vocoder_call")]
    half_voiced = dict(record, events=events)
    cases = {
        "nope.jsonl": (None, "cannot read results"),
        "garbled.jsonl": ("{not json", "line 2"),
        "missing.jsonl": (json.dumps(missing), "line 2: missing field 'src_len'"),
        "old.jsonl": (json.dumps(old_format), "line 2: unknown event kind 'write_unit'"),
        "old-batch.jsonl": (json.dumps(old_batch), "line 2: unknown event kind 'emit_audio'"),
        "no-span.jsonl": (
            json.dumps(no_span),
            "line 2: event 1 (vocoder_call): missing field 'start_us'",
        ),
        "extra.jsonl": (json.dumps(extra_field), "line 2: event 1 (read) has unknown field 'bogus'"),
        "float.jsonl": (json.dumps(float_time), "line 2: event 1 (read): t_us 1.5 is not an integer"),
        "not-object.jsonl": (json.dumps(not_object), "line 2: event 1 is not an object"),
        "float-len.jsonl": (json.dumps(float_len), "line 2: src_len 15.9 is not an integer"),
        "string-quality.jsonl": (
            json.dumps(string_quality),
            "line 2: quality '7' is not a finite number",
        ),
        "bool-token.jsonl": (json.dumps(bool_token), "line 2: hypothesis [True, "),
        "old-keys.jsonl": (json.dumps(old_keys), "line 2: unknown field 'consumption'"),
        "long-target.jsonl": (
            json.dumps(long_target),
            f"line 2: tgt_len {tgt_len + 5} disagrees with the event log's {tgt_len}",
        ),
        "long-source.jsonl": (
            json.dumps(long_source),
            f"line 2: src_len {src_len + 5} disagrees with the event log's {src_len}",
        ),
        "long-duration.jsonl": (
            json.dumps(long_duration),
            f"line 2: source_duration_us {duration * 3} disagrees with the event log's {duration}",
        ),
        "short-hypothesis.jsonl": (
            json.dumps(short_hypothesis),
            f"line 2: hypothesis length {tgt_len - 1} disagrees with the event log's {tgt_len}",
        ),
        "unvoiced.jsonl": (
            json.dumps(unvoiced),
            f"line 2: event log leaves {tgt_len} tokens unsynthesized",
        ),
        "half-voiced.jsonl": (
            json.dumps(half_voiced),
            "line 2: event log leaves 1 tokens unsynthesized",
        ),
        # one session twice, as read_corpus refuses one utterance twice
        "duplicate.jsonl": (good, f"line 2: duplicate id {record['id']!r}"),
        "array.jsonl": (json.dumps([record]), "line 2: results line is not an object"),
        "int-events.jsonl": (json.dumps(dict(record, events=5)), "line 2: events 5 is not a list"),
        "str-events.jsonl": (
            json.dumps(dict(record, events="ab")),
            "line 2: events 'ab' is not a list",
        ),
        "dict-events.jsonl": (
            json.dumps(dict(record, events={})),
            "line 2: events {} is not a list",
        ),
    }
    capsys.readouterr()
    for name, (bad_line, message) in cases.items():
        path = tmp_path / name
        if bad_line is not None:
            path.write_text(good + "\n" + bad_line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--results", str(path), "--out", str(tmp_path / "eval.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert str(path) in err and message in err


def test_sweep_sorts_grid_and_writes_rows(tmp_path):
    corpus = _gen(tmp_path)
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--corpus", str(corpus), "--family", "waitk", "--grid", "5,1,3", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,quality,al_ms,ca_al_ms"
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "3", "5"]


def test_vmma_sweep_bytes_pinned(tmp_path):
    # pins the sampler's RNG stream end to end: every uniform it draws, in order
    corpus = _gen(tmp_path, n=40, seed=11, kind="random-monotone", noise_rate=0.4)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--corpus", str(corpus), "--family", "vmma", "--grid", "0.2,0.5,1.0"]
    assert main([*argv, "--scorer", "oracle", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == 110
    assert hashlib.sha256(data).hexdigest() == (
        "672800ae226bf1c62efc1b7e3956cc3bda11cc75bb146c4153d22d145ceafb0e"
    )


def test_sweep_rejects_bad_grid(tmp_path):
    corpus = _gen(tmp_path)
    out = tmp_path / "s.csv"
    for family, grid in (("waitk", ""), ("waitk", "a,b"), ("waitk", "0,2"), ("vmma", "-0.5")):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--corpus", str(corpus), "--family", family, "--grid", grid, "--out", str(out)])
        assert exc.value.code == 2


def test_config_file_and_flag_precedence(tmp_path, capsys):
    corpus = _gen(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": {"kind": "waitk", "k": 4}, "emission_rate_l": 2}))
    assert main(["simulate", "--corpus", str(corpus), "--config", str(cfg)]) == 0
    assert "waitk-4" in capsys.readouterr().out
    # flags beat the file
    assert main(["simulate", "--corpus", str(corpus), "--config", str(cfg), "--k", "7"]) == 0
    assert "waitk-7" in capsys.readouterr().out


def test_config_file_errors_are_actionable(tmp_path, capsys):
    corpus = _gen(tmp_path)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--corpus", str(corpus), "--config", str(bad_json)])
    assert exc.value.code == 2
    assert "line 1" in capsys.readouterr().err

    bad_value = tmp_path / "value.json"
    bad_value.write_text(json.dumps({"policy": {"kind": "psychic"}}))
    with pytest.raises(SystemExit):
        main(["simulate", "--corpus", str(corpus), "--config", str(bad_value)])
    assert "kind 'psychic' is not one of ['waitk', 'offline', 'vmma'] at $['policy']" in (
        capsys.readouterr().err
    )

    unknown_key = tmp_path / "extra.json"
    unknown_key.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SystemExit):
        main(["simulate", "--corpus", str(corpus), "--config", str(unknown_key)])
    assert "bogus" in capsys.readouterr().err

    compute_kind = tmp_path / "kind.json"
    compute_kind.write_text(json.dumps({"compute": {"kind": "fixed_cost"}}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--corpus", str(corpus), "--config", str(compute_kind)])
    assert exc.value.code == 2
    err = _one_error_line(capsys)
    assert err == f"error: config {compute_kind}: unknown field 'kind' at $['compute']\n"


def test_empty_and_missing_corpus_fail_cleanly(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--corpus", str(empty)])
    assert exc.value.code == 2
    assert "empty" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["simulate", "--corpus", str(tmp_path / "nope.jsonl")])
    assert "cannot load corpus" in capsys.readouterr().err
    # results with no session line: no CSV of a header alone
    out = tmp_path / "eval.csv"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--results", str(empty), "--out", str(out)])
    assert exc.value.code == 2
    assert _one_error_line(capsys) == f"error: results {empty} is empty\n"
    assert not out.exists()


def test_verify_command_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "checks passed" in out
    assert "FAIL" not in out


def test_serve_and_connect_round_trip(tmp_path, capsys):
    corpus = _gen(tmp_path, n=4)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    server = threading.Thread(
        target=main,
        args=(
            [
                "serve",
                "--corpus",
                str(corpus),
                "--port",
                str(port),
                "--once",
                "--k",
                "2",
            ],
        ),
        daemon=True,
    )
    server.start()
    import time

    out_csv = tmp_path / "remote.csv"
    rc = None
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            rc = main(["connect", "--port", str(port), "--out", str(out_csv)])
            break
        except SystemExit:
            # refusal happens before any session is claimed, so retrying is safe
            assert "Connection refused" in capsys.readouterr().err
            time.sleep(0.05)
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "id,al_ms,ca_al_ms,mean_delay_ms,discont_ms,n_tokens,quality"
    assert len(lines) == 1 + 4
    assert "0 metric mismatches" in capsys.readouterr().out
    server.join(timeout=10)
    assert not server.is_alive()
    # one formatter writes every CSV: connect's rows are simulate's, byte for byte
    local_csv = tmp_path / "local.csv"
    assert main(["simulate", "--corpus", str(corpus), "--k", "2", "--out-csv", str(local_csv)]) == 0
    *utterance_rows, aggregate = local_csv.read_bytes().splitlines(keepends=True)
    assert aggregate.startswith(b"aggregate,")
    assert out_csv.read_bytes() == b"".join(utterance_rows)


def test_serve_once_exits_after_invalid_schedule(tmp_path, capsys):
    corpus = _gen(tmp_path, n=1)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    rc = []
    argv = ["serve", "--corpus", str(corpus), "--port", str(port), "--once"]
    server = threading.Thread(target=lambda: rc.append(main(argv)), daemon=True)
    server.start()
    deadline = time.monotonic() + 5
    while True:
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            break
        except OSError:
            assert time.monotonic() < deadline
            time.sleep(0.05)
    # the channel closes the socket with its files, so the server need not linger
    with sock, _Channel(sock) as chan:
        chan.recv()
        # WRITE before any READ: the server's engine rejects that step
        chan.send("WRITE", {"token_index": 1, "token": 0, "src_consumed": 0})
        chan.send("EOS_TGT", {})
        with pytest.raises(ProtocolError, match="peer error"):
            chan.recv()
    server.join(timeout=5)
    assert not server.is_alive()
    assert rc == [1]
    err = capsys.readouterr().err
    assert len([ln for ln in err.splitlines() if ln.startswith("failed:")]) == 1
    assert "Traceback" not in err


def test_serve_ends_on_sigterm_with_its_failed_lines(tmp_path):
    # a serve without --once runs until stopped; SIGTERM stops it as Ctrl-C
    # does, so the sessions it failed are still reported
    corpus = _gen(tmp_path, n=2)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-u", "-m", "simulstream.cli", "serve", "--corpus", str(corpus),
            "--port", "0"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        port = int(proc.stdout.readline().rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock, \
                _Channel(sock) as chan:
            chan.recv()
            chan.send("WRITE", {"token_index": 1, "token": 0, "src_consumed": 0})
            # the server records a failure before it sends the ERROR
            with pytest.raises(ProtocolError, match="peer error"):
                chan.recv()
        proc.terminate()
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1, (proc.returncode, err)
    assert len([ln for ln in err.splitlines() if ln.startswith("failed:")]) == 1
    assert "Traceback" not in err


def test_serve_flushes_its_address_line(tmp_path):
    # with stdout piped and buffered (no -u, no PYTHONUNBUFFERED), a supervisor
    # using --port 0 learns the port from this line only if it is flushed at once
    corpus = _gen(tmp_path, n=2)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "simulstream.cli", "serve", "--corpus", str(corpus),
            "--port", "0"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        assert ready, "no line within 10 s"
        line = proc.stdout.readline().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert line.startswith("serving 2 utterances on 127.0.0.1:") and line.endswith("\n")


def _exit_codes(argv) -> list:
    """The exit codes main(argv) raised, run in a thread with a bounded join:
    a serve --once that wrongly started would wait for a client forever."""
    codes = []

    def run():
        try:
            main(argv)
        except SystemExit as exc:
            codes.append(exc.code)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    return codes


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


_NOT_FINITE = "is not a finite number"
_SHARE = "a number strictly inside (0, 1) at $['policy']\n"


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--policy", "vmma", "--lam", "nan"], None, _NOT_FINITE),
        (["--unit-ms", "nan"], None, _NOT_FINITE),
        (["--per-decision-ms", "inf"], None, _NOT_FINITE),
        (["--per-unit-ms", "nan"], None, _NOT_FINITE),
        (["--pre-decision-ms", "inf"], None, _NOT_FINITE),
        ([], '{"unit_ms": NaN}', _NOT_FINITE),
        # a nonzero time the engine's whole microseconds would drop
        (["--unit-ms", "0.0001", "--pre-decision-ms", "100"], None,
         f"error: bad option: unit_ms 0.0001 is not {_TIME} at $\n"),
        (["--pre-decision-ms", "0.0004"], None,
         f"error: bad option: pre_decision_ms 0.0004 is not {_TIME} or null at $\n"),
        ([], '{"compute": {"per_decision_ms": 0.0001}}',
         f"per_decision_ms 0.0001 is not {_TIME}, or 0 at $['compute']\n"),
        (["--per-unit-ms", "0.0004"], None,
         f"error: bad option: per_unit_ms 0.0004 is not {_TIME}, or 0 at $['compute']\n"),
        # a finite time whose count of us a float cannot hold
        (["--unit-ms", "1e308"], None, f"error: bad option: unit_ms 1e+308 is not {_TIME} at $\n"),
        (["--pre-decision-ms", "1.7976931348623157e308"], None,
         f"bad option: pre_decision_ms 1.7976931348623157e+308 is not {_TIME} or null at $\n"),
        ([], '{"compute": {"per_unit_ms": 1e306}}',
         f"per_unit_ms 1e+306 is not {_TIME}, or 0 at $['compute']\n"),
        (["--per-decision-ms", "2e305"], None,
         f"error: bad option: per_decision_ms 2e+305 is not {_TIME}, or 0 at $['compute']\n"),
        # an integer within float range whose count of us a float cannot hold
        ([], '{"unit_ms": 1%s}' % ("0" * 306), f"unit_ms 1{'0' * 306} is not {_TIME} at $\n"),
        # exactly half a us, which round() takes to 0
        (["--unit-ms", "0.0005"], None, f"error: bad option: unit_ms 0.0005 is not {_TIME} at $\n"),
        # a share's open interval excludes both ends
        (["--scorer-value", "0"], None, f"error: bad option: scorer_value 0.0 is not {_SHARE}"),
        (["--scorer-value", "1"], None, f"error: bad option: scorer_value 1.0 is not {_SHARE}"),
    ],
    ids=[
        "lam", "unit-ms", "per-decision-ms", "per-unit-ms", "pre-decision-ms", "file",
        "unit-ms-0us", "pre-decision-ms-0us", "per-decision-ms-0us-file", "per-unit-ms-0us",
        "unit-ms-too-large", "pre-decision-ms-too-large", "per-unit-ms-too-large-file",
        "per-decision-ms-too-large", "unit-ms-huge-int-file", "unit-ms-half-us",
        "scorer-value-0", "scorer-value-1",
    ],
)
def test_non_finite_config_is_rejected(tmp_path, capsys, flags, config, message):
    corpus = _gen(tmp_path, n=3)
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        flags = flags + ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--corpus", str(corpus), "--out-csv", str(out), *flags])
    assert exc.value.code == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


def test_out_of_range_scorer_value_is_rejected_at_load(tmp_path, capsys):
    corpus = _gen(tmp_path, n=3)
    argv = ["simulate", "--corpus", str(corpus), "--policy", "vmma", "--scorer", "constant"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--scorer-value", "5"])
    assert exc.value.code == 2
    want = "scorer_value 5.0 is not a number strictly inside (0, 1) at $['policy']"
    assert _one_error_line(capsys) == f"error: bad option: {want}\n"


@pytest.mark.parametrize(
    "command",
    ["gen-corpus", "simulate-results", "simulate-csv", "sweep", "eval", "connect"],
)
def test_unwritable_output_is_one_error(tmp_path, capsys, monkeypatch, command):
    from simulstream import cli

    corpus = _gen(tmp_path, n=2)
    results = tmp_path / "results.jsonl"
    assert main(["simulate", "--corpus", str(corpus), "--out-results", str(results)]) == 0
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        closed_port = probe.getsockname()[1]
    sessions = []
    monkeypatch.setattr(cli, "run_session", lambda *args: sessions.append(args))
    bad = tmp_path / "missing" / "out"
    simulate = ["simulate", "--corpus", str(corpus)]
    argv = {
        "gen-corpus": ["gen-corpus", "--out", str(bad)],
        "simulate-results": [*simulate, "--out-results", str(bad)],
        "simulate-csv": [*simulate, "--out-csv", str(bad)],
        "sweep": ["sweep", "--corpus", str(corpus), "--family", "waitk", "--grid", "1,3",
                  "--out", str(bad)],
        "eval": ["eval", "--results", str(results), "--out", str(bad)],
        # the path is checked before any connection, so no server session is claimed
        "connect": ["connect", "--port", str(closed_port), "--out", str(bad)],
    }[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: cannot write {bad}: " in _one_error_line(capsys)
    assert sessions == []  # simulate and sweep fail before any session runs


def test_simulate_rejects_one_path_for_both_outputs(tmp_path, capsys):
    corpus = _gen(tmp_path, n=2)
    out = tmp_path / "out"
    argv = ["simulate", "--corpus", str(corpus), "--out-results", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-csv", str(tmp_path / "." / "out")])
    assert exc.value.code == 2
    assert "are the same file" in _one_error_line(capsys)
    assert not out.exists()


_GOOD_UTT = {
    "id": "u", "source": [1, 2], "target": [1, 2], "oracle_alignment": [1, 2], "src_tok_ms": 100.0
}
_NOT_EMPTY = "line 3: source and target must be non-empty"


@pytest.mark.parametrize("command", ["simulate", "serve"])
@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(_GOOD_UTT, source=5), "line 3: "),
        ([1, 2], "line 3: utterance is not an object"),
        (dict(_GOOD_UTT, source=["a"]), "line 3: source ['a'] is not a list of integers"),
        (dict(_GOOD_UTT, src_tok_ms=None), "line 3: "),
        (dict(_GOOD_UTT, source=[], oracle_alignment=[]), _NOT_EMPTY),
        (dict(_GOOD_UTT, target=[], oracle_alignment=[]), _NOT_EMPTY),
        (dict(_GOOD_UTT, src_tok_ms=float("nan")), "line 3: src_tok_ms nan is not a finite number"),
        # each field takes its own type; none is coerced
        (dict(_GOOD_UTT, source=[1.9, True]), "line 3: source [1.9, True] is not a list of"),
        (dict(_GOOD_UTT, oracle_alignment=[1.5, "2"]), "line 3: oracle_alignment [1.5, '2']"),
        (dict(_GOOD_UTT, src_tok_ms="100"), "line 3: src_tok_ms '100' is not a finite number"),
        (dict(_GOOD_UTT, id=7), "line 3: id 7 is not a string"),
        ({k: v for k, v in _GOOD_UTT.items() if k != "target"}, "line 3: missing field 'target'"),
        (dict(_GOOD_UTT, bogus=1), "line 3: unknown field 'bogus'"),
        # segments a session could not count in whole us
        (dict(_GOOD_UTT, src_tok_ms=0.0001), f"line 3: src_tok_ms 0.0001 is not {_TIME}\n"),
        (dict(_GOOD_UTT, src_tok_ms=1e308), f"line 3: src_tok_ms 1e+308 is not {_TIME}\n"),
        # eval --corpus would score line 1's session against line 3's reference
        (dict(_GOOD_UTT), "line 3: duplicate id 'u'\n"),
    ],
    ids=[
        "source-int", "array", "source-str", "duration-null", "no-source", "no-target",
        "duration-nan", "source-float-bool", "alignment-float-str", "duration-str", "id-int",
        "no-target-field", "unknown-field", "duration-rounds-to-0", "duration-too-large",
        "duplicate-id",
    ],
)
def test_malformed_corpus_line_is_one_error(tmp_path, capsys, command, bad, message):
    path = tmp_path / "corpus.jsonl"
    # line 2 is blank, so the bad record is on line 3
    path.write_text(json.dumps(_GOOD_UTT) + "\n\n" + json.dumps(bad) + "\n")
    argv = [command, "--corpus", str(path)]
    if command == "serve":
        argv += ["--port", "0", "--once"]
    assert _exit_codes(argv) == [2]
    err = _one_error_line(capsys)
    assert str(path) in err and message in err


@pytest.mark.parametrize("fault", ["busy-port", "port-past-65535", "port-below-0", "unknown-host"])
def test_serve_bind_failure_is_one_error(tmp_path, capsys, monkeypatch, fault):
    corpus = _gen(tmp_path, n=1)
    with socket.create_server(("127.0.0.1", 0)) as busy:
        host, port = "127.0.0.1", busy.getsockname()[1]
        if fault == "port-past-65535":
            port = 70000
        elif fault == "port-below-0":
            port = -1
        elif fault == "unknown-host":
            # looking the name up would ask a DNS server, so the bind fails
            # here the way that lookup does
            host = "256.1.1.1"

            def bind(sock, address):
                raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

            monkeypatch.setattr(socket.socket, "bind", bind)
        argv = ["serve", "--corpus", str(corpus), "--host", host, "--port", str(port), "--once"]
        assert _exit_codes(argv) == [2]
    assert _one_error_line(capsys).startswith(f"error: cannot serve on {host}:{port}: ")


def _fake_server(reply):
    """A listening socket whose first client gets reply(channel); returns its port.
    Then it lingers as the real server does, so no reply is lost to a reset."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        with listener:
            conn, _ = listener.accept()
            with _Channel(conn) as chan:
                reply(chan)
                _linger(conn)

    threading.Thread(target=run, daemon=True).start()
    return listener.getsockname()[1]


def _fake_session(utterance, segment, metrics):
    """A _fake_server reply that plays one session: HELLO with utterance and
    the default config, segment(r) per READ_REQ, then METRICS metrics."""

    def reply(chan):
        chan.send("HELLO", {"done": False, "utterance": utterance, "config": {}})
        r = 0
        try:
            while True:
                msg_type, _ = chan.recv()
                if msg_type == "READ_REQ":
                    r += 1
                    chan.send("SEGMENT", segment(r))
                elif msg_type == "EOS_TGT":
                    chan.send("METRICS", metrics)
                    return
        except (ProtocolError, OSError):  # the client gave up on this session
            pass

    return reply


def test_connect_errors_are_one_line(tmp_path, capsys):
    # bound but not listening, so a connection is refused; held open, so
    # that no fake server below is given its port
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    closed_port = probe.getsockname()[1]
    utterance = json.loads(read_corpus(str(_gen(tmp_path, n=1)))[0].to_json())
    hello = {"done": False, "utterance": utterance, "config": {}}
    bad_hello = dict(hello, config={"policy": {"kind": "psychic"}})
    bogus = dict(utterance, bogus=1)
    compute_kind = {"compute": {"kind": "fixed_cost"}}
    too_large = dict(bad_hello, config={"unit_ms": 1e308})
    float_token = dict(bad_hello, utterance=dict(utterance, source=[1.5, *utterance["source"][1:]]))
    # segments the engine could not count in whole us
    untimable = lambda ms: dict(bad_hello, utterance=dict(utterance, src_tok_ms=ms), config={})
    segment = lambda r: {"index": r, "payload": 0, "arrival_ms": 0.0}
    metrics = {
        "id": utterance["id"], "al_ms": 1.0, "ca_al_ms": 1.0, "mean_delay_ms": 1.0,
        "discont_ms": 0.0, "n_tokens": 1, "quality": 1.0, "remaining": 0,
    }
    no_discont = {k: v for k, v in metrics.items() if k != "discont_ms"}
    cases = {
        "refused": (closed_port, "Connection refused"),
        "peer-error": (
            _fake_server(lambda chan: chan.send("ERROR", {"reason": "no work for you"})),
            "peer error: no work for you",
        ),
        "bad-hello": (
            _fake_server(lambda chan: chan.send("HELLO", bad_hello)),
            "bad HELLO config: kind 'psychic' is not one of ['waitk', 'offline', 'vmma']"
            " at $['policy']",
        ),
        "hello-too-large-ms": (
            _fake_server(lambda chan: chan.send("HELLO", too_large)),
            f"bad HELLO config: unit_ms 1e+308 is not {_TIME} at $\n",
        ),
        "hello-compute-kind": (
            _fake_server(lambda chan: chan.send("HELLO", dict(bad_hello, config=compute_kind))),
            "bad HELLO config: unknown field 'kind' at $['compute']",
        ),
        "bad-hello-utterance": (
            _fake_server(lambda chan: chan.send("HELLO", dict(hello, utterance={"id": "u"}))),
            "bad HELLO utterance: missing field 'source'",
        ),
        "hello-utterance-unknown-field": (
            _fake_server(lambda chan: chan.send("HELLO", dict(hello, utterance=bogus))),
            "bad HELLO utterance: unknown field 'bogus'",
        ),
        # a truthy done that is not true must not read as a server out of work
        "hello-done-string": (
            _fake_server(lambda chan: chan.send("HELLO", dict(hello, done="no"))),
            "bad HELLO: done 'no' is not true or false",
        ),
        "hello-done-int": (
            _fake_server(lambda chan: chan.send("HELLO", dict(hello, done=1))),
            "bad HELLO: done 1 is not true or false",
        ),
        "hello-without-done": (
            _fake_server(lambda chan: chan.send("HELLO", with_field(hello, "done", MISSING))),
            "bad HELLO: missing field 'done'",
        ),
        "hello-float-token": (
            _fake_server(lambda chan: chan.send("HELLO", dict(float_token, config={}))),
            "bad HELLO utterance: source [1.5, ",
        ),
        "hello-segment-rounds-to-0": (
            _fake_server(lambda chan: chan.send("HELLO", untimable(0.0001))),
            f"bad HELLO utterance: src_tok_ms 0.0001 is not {_TIME}\n",
        ),
        "hello-segment-too-large": (
            _fake_server(lambda chan: chan.send("HELLO", untimable(1e308))),
            f"bad HELLO utterance: src_tok_ms 1e+308 is not {_TIME}\n",
        ),
        "metrics-missing-key": (
            _fake_server(_fake_session(utterance, segment, no_discont)),
            "bad METRICS: missing field 'discont_ms'",
        ),
        "metrics-string-value": (
            _fake_server(_fake_session(utterance, segment, dict(metrics, discont_ms="0"))),
            "bad METRICS: discont_ms '0' is not a finite number",
        ),
        "metrics-other-session": (
            _fake_server(_fake_session(utterance, segment, dict(metrics, id="someone-else"))),
            "bad METRICS: id 'someone-else' is not this session's",
        ),
        "segment-without-index": (
            _fake_server(_fake_session(utterance, lambda r: {"payload": 0}, metrics)),
            "bad SEGMENT: missing field 'index'",
        ),
        "segment-first": (
            _fake_server(lambda chan: chan.send("SEGMENT", segment(1))),
            "expected HELLO, got SEGMENT",
        ),
        "segment-out-of-order": (
            _fake_server(_fake_session(utterance, lambda r: segment(r + 1), metrics)),
            "segment order violated",
        ),
        "metrics-for-segment": (
            _fake_server(lambda chan: (chan.send("HELLO", hello), chan.send("METRICS", metrics))),
            "expected SEGMENT, got METRICS",
        ),
    }
    for case, key, value, reason in bad_fields("SEGMENT"):
        bad = lambda r, key=key, value=value: with_field(segment(r), key, value)
        cases[f"segment-{case}"] = (_fake_server(_fake_session(utterance, bad, metrics)), reason)
    for case, key, value, reason in bad_fields("METRICS"):
        bad = with_field(metrics, key, value)
        cases[f"metrics-{case}"] = (_fake_server(_fake_session(utterance, segment, bad)), reason)
    for case, key, value, reason in bad_fields("ERROR"):
        bad = with_field({"reason": "no work for you"}, key, value)
        reply = lambda chan, bad=bad: chan.send("ERROR", bad)
        cases[f"error-{case}"] = (_fake_server(reply), reason)
    with probe:
        for name, (port, message) in cases.items():
            with pytest.raises(SystemExit) as exc:
                main(["connect", "--port", str(port)])
            assert exc.value.code == 2, name
            err = _one_error_line(capsys)
            assert f"127.0.0.1:{port}" in err and message in err, name


def test_connect_to_a_silent_server_times_out(monkeypatch, capsys):
    # its backlog completes the handshake, and nothing is ever written
    monkeypatch.setattr(wire, "READ_TIMEOUT_S", 0.2)
    with socket.create_server(("127.0.0.1", 0)) as silent:
        port = silent.getsockname()[1]
        # a client that would wait for ever gets its connection reset instead
        rescue = threading.Timer(10.0, silent.close)
        rescue.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["connect", "--port", str(port)])
        finally:
            rescue.cancel()
            rescue.join(10)
    assert exc.value.code == 2
    assert _one_error_line(capsys) == f"error: connect 127.0.0.1:{port}: timed out\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_connect_rejects_max_sessions_below_1(n, capsys):
    # before connecting: the port is closed, and the error must not be about it
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        closed_port = probe.getsockname()[1]
    with pytest.raises(SystemExit) as exc:
        main(["connect", "--port", str(closed_port), "--max-sessions", n])
    assert exc.value.code == 2
    assert _one_error_line(capsys) == f"error: --max-sessions must be >= 1, got {n}\n"


@pytest.mark.parametrize("port", ["70000", "101837", "0", "-1"])
def test_connect_rejects_port_out_of_range(port, capsys, monkeypatch):
    # getaddrinfo takes a port past 65535 modulo 65536, so no connection may be tried
    def create_connection(*args, **kwargs):
        raise AssertionError(f"connected to {args}")

    monkeypatch.setattr(socket, "create_connection", create_connection)
    with pytest.raises(SystemExit) as exc:
        main(["connect", "--port", port])
    assert exc.value.code == 2
    assert _one_error_line(capsys) == f"error: --port must be in 1..65535, got {port}\n"


def test_connect_counts_any_metric_gap(tmp_path, capsys):
    from simulstream.latency import metrics_to_dict
    from simulstream.session import SessionConfig, WaitKPolicy, run_session

    utt = read_corpus(str(_gen(tmp_path, n=1)))[0]
    true = run_session(utt, SessionConfig(), WaitKPolicy(1))
    metrics = {**metrics_to_dict(utt.id, true.report(), true.quality), "remaining": 0}
    segment = lambda r: {"index": r, "payload": 0, "arrival_ms": 0.0}
    utterance = json.loads(utt.to_json())
    for al_gap, mismatches in ((0.0, 0), (0.001, 1)):
        off = dict(metrics, al_ms=metrics["al_ms"] + al_gap)
        port = _fake_server(_fake_session(utterance, segment, off))
        assert main(["connect", "--port", str(port)]) == mismatches
        assert f"completed 1 sessions; {mismatches} metric mismatches" in capsys.readouterr().out



def test_sweep_exits_1_when_a_grid_point_fails(tmp_path, capsys, monkeypatch):
    from simulstream import cli

    corpus = _gen(tmp_path, n=3)
    victim = read_corpus(str(corpus))[1].id
    real = cli.run_session

    def run_session(utt, config, policy):
        if utt.id == victim and policy.k == 3:
            raise RuntimeError("boom")
        return real(utt, config, policy)

    monkeypatch.setattr(cli, "run_session", run_session)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--corpus", str(corpus), "--family", "waitk", "--grid", "1,3,5", "--out", str(out)]
    rc = main(argv)
    assert rc == 1
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["1", "5"]
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"failed: waitk=3: {victim}: boom"]
    assert "swept 2 grid points" in captured.out


def test_simulate_exits_1_when_an_utterance_fails(tmp_path, capsys, monkeypatch):
    from simulstream import cli
    from simulstream.latency import corpus_mean, report_csv_row

    corpus = _gen(tmp_path, n=3)
    utterances = read_corpus(str(corpus))
    victim = utterances[1].id
    flags = ["--corpus", str(corpus), "--k", "2"]

    def simulate(name):
        results, csv = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.csv"
        rc = main(["simulate", *flags, "--out-results", str(results), "--out-csv", str(csv)])
        return rc, results.read_text().splitlines(), csv.read_text().splitlines()

    rc, full_lines, (header, *full_rows, _) = simulate("full")
    assert rc == 0
    real = cli.run_session

    def run_session(utt, config, policy):
        if utt.id == victim:
            raise RuntimeError("boom")
        return real(utt, config, policy)

    monkeypatch.setattr(cli, "run_session", run_session)
    capsys.readouterr()
    rc, lines, (part_header, *rows, aggregate) = simulate("part")
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"failed: {victim}: boom"]
    assert "simulated 2/3 utterances" in captured.out
    # the survivors' lines and rows, in corpus order, are a full run's without the victim
    assert lines == [line for line in full_lines if json.loads(line)["id"] != victim]
    assert part_header == header
    assert rows == [row for row in full_rows if not row.startswith(f"{victim},")]
    assert len(rows) == 2
    config = cli.build_config(cli.build_parser().parse_args(["simulate", *flags]))
    policy = cli.policy_from_spec(config.policy)
    survivors = [real(u, config, policy) for u in utterances if u.id != victim]
    mean = corpus_mean([r.report() for r in survivors], [r.quality for r in survivors])
    assert aggregate == report_csv_row("aggregate", *mean)
