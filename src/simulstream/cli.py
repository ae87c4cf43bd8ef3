"""Command-line operator surface.

Subcommands:
    gen-corpus  write a synthetic corpus as JSON lines
    simulate    run every utterance through one policy; JSONL + CSV out
    sweep       grid of policies -> one CSV row per grid point
    eval        recompute metrics from stored session logs
    verify      run the built-in oracle suites; nonzero exit on failure
    serve       host a corpus over the wire protocol
    connect     drain a server, cross-check its metrics, write CSV

Configuration precedence: command-line flags override the --config file,
which overrides built-in defaults. The only environment variable read is
SIMULSTREAM_LOG (log level name).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import threading
from contextlib import ExitStack
from dataclasses import replace
from typing import Iterator, Optional, Sequence

from .corpus import (
    CorpusConfigError,
    SyntheticTaskSpec,
    generate_corpus,
    quality_score,
    read_corpus,
    write_corpus,
)
from .latency import corpus_mean, metrics_from_dict, report_csv_header, report_csv_row
from .session import (
    SessionConfig,
    SessionError,
    SessionResult,
    config_fields,
    config_from_dict,
    policy_from_spec,
    recompute_result_from_events,
    run_session,
)


class CliError(SystemExit):
    def __init__(self, message: str, code: int = 2):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(code)


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: line {exc.lineno} col {exc.colno}")
    try:
        config_from_dict(data)  # so an error here is blamed on the file, not on a flag
    except ValueError as exc:
        raise CliError(f"config {path}: {exc}")
    return data


def build_config(args: argparse.Namespace) -> SessionConfig:
    """The --config file, overlaid with every config flag that was given."""
    data = _load_config_file(args.config)
    for dest, *_ in config_fields():
        value = getattr(args, dest)
        if value is not None:
            *parents, name = dest.split(".")
            node = data
            for key in parents:
                node = node.setdefault(key, {})
            node[name] = value
    try:
        return config_from_dict(data)
    except ValueError as exc:
        raise CliError(f"bad option: {exc}")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    for dest, f, tp, choices in config_fields():
        flag, help = f.metadata["flag"], f.metadata["help"]
        if choices:
            p.add_argument(flag, dest=dest, choices=choices, help=help)
        else:  # the metavar argparse would derive from the flag
            metavar = flag[2:].replace("-", "_").upper()
            p.add_argument(flag, dest=dest, type=tp, metavar=metavar, help=help)


def _read_corpus_or_die(path: str):
    try:
        corpus = read_corpus(path)
    except (OSError, ValueError) as exc:  # CorpusConfigError is a ValueError
        raise CliError(f"cannot load corpus {path}: {exc}")
    if not corpus:
        raise CliError(f"corpus {path} is empty")
    return corpus


def _open_out(path: str):
    """path opened for writing; if it cannot be, one error line and exit 2."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def cmd_gen_corpus(args) -> int:
    try:
        spec = SyntheticTaskSpec(
            vocab_size=args.vocab_size,
            length_range=(args.min_len, args.max_len),
            alignment_kind=args.kind,
            shift_c=args.shift_c,
            noise_rate=args.noise_rate,
            segment_ms=args.segment_ms,
        )
        corpus = generate_corpus(spec, args.n, args.seed)
    except CorpusConfigError as exc:
        raise CliError(str(exc))
    try:
        write_corpus(corpus, args.out)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}")
    print(f"wrote {len(corpus)} utterances to {args.out}")
    return 0


def _run_corpus(corpus, config: SessionConfig, policy, failures) -> Iterator[SessionResult]:
    """Every utterance through one policy, each result yielded as its
    session ends; a session that raises adds "<id>: <reason>" to failures."""
    for utt in corpus:
        try:
            result = run_session(utt, config, policy)
        except Exception as exc:  # keep going; report at the end
            failures.append(f"{utt.id}: {exc}")
        else:
            yield result


def cmd_simulate(args) -> int:
    corpus = _read_corpus_or_die(args.corpus)
    config = build_config(args)
    policy = policy_from_spec(config.policy)
    failures = []
    scores = []  # (report, quality) per session, for the aggregate row
    if args.out_results and args.out_csv:
        if os.path.realpath(args.out_results) == os.path.realpath(args.out_csv):
            # both stay open while sessions run, so their lines would interleave
            raise CliError(f"--out-results and --out-csv are the same file {args.out_csv}")
    with ExitStack() as stack:  # both outputs open before the first session runs
        jsonl = stack.enter_context(_open_out(args.out_results)) if args.out_results else None
        csv = stack.enter_context(_open_out(args.out_csv)) if args.out_csv else None
        if csv:
            csv.write(report_csv_header() + "\n")
        for r in _run_corpus(corpus, config, policy, failures):
            if jsonl:
                jsonl.write(r.to_json() + "\n")
            if csv:
                report = r.report()
                csv.write(report_csv_row(r.utterance_id, report, r.quality) + "\n")
                scores.append((report, r.quality))
        if scores:
            csv.write(report_csv_row("aggregate", *corpus_mean(*zip(*scores))) + "\n")
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    done = len(corpus) - len(failures)
    print(f"simulated {done}/{len(corpus)} utterances with {config.policy.label()}")
    return 1 if failures else 0


def cmd_sweep(args) -> int:
    corpus = _read_corpus_or_die(args.corpus)
    config = build_config(args)
    param, parse = ("k", int) if args.family == "waitk" else ("lam", float)
    try:
        grid = sorted(parse(v) for v in args.grid.split(",") if v)
        specs = [replace(config.policy, kind=args.family, **{param: value}) for value in grid]
    except ValueError as exc:
        raise CliError(f"bad grid: {exc}")
    if not grid:
        raise CliError("grid is empty")
    rows = 0
    failures = []
    with _open_out(args.out) as f:
        f.write("param,quality,al_ms,ca_al_ms\n")
        for value, spec in zip(grid, specs):
            failed = []
            scores = [
                (r.report(), r.quality)
                for r in _run_corpus(corpus, config, policy_from_spec(spec), failed)
            ]
            failures += [f"{args.family}={value}: {line}" for line in failed]
            if failed:
                continue  # a mean over part of the corpus would not compare with the other rows
            mean, quality = corpus_mean(*zip(*scores))
            f.write(f"{value},{quality:.3f},{mean.al_ms:.3f},{mean.ca_al_ms:.3f}\n")
            rows += 1
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    print(f"swept {rows} grid points into {args.out}")
    return 1 if failures else 0


def cmd_eval(args) -> int:
    reference = {}
    if args.corpus:
        reference = {u.id: u for u in _read_corpus_or_die(args.corpus)}
    rows = []
    try:
        with open(args.results, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                where = f"{args.results} line {lineno}"
                try:
                    fresh = recompute_result_from_events(SessionResult.from_json(line))
                    report = fresh.report()
                except KeyError as exc:
                    raise CliError(f"{where}: missing field {exc}")
                except (TypeError, ValueError, SessionError) as exc:
                    raise CliError(f"{where}: {exc}")
                quality = fresh.quality
                if reference:
                    utt = reference.get(fresh.utterance_id)
                    if utt is None:
                        raise CliError(f"utterance {fresh.utterance_id} missing from corpus")
                    quality = quality_score(fresh.hypothesis, utt.target_tokens)
                rows.append(report_csv_row(fresh.utterance_id, report, quality))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read results {args.results}: {exc}")
    if not rows:
        raise CliError(f"results {args.results} is empty")
    with _open_out(args.out) as f:
        f.write(report_csv_header() + "\n")
        for row in rows:
            f.write(row + "\n")
    print(f"recomputed {len(rows)} sessions into {args.out}")
    return 0


def cmd_verify(args) -> int:
    from . import verification  # here, as it loads numpy, which wait-k commands never need

    checks = verification.run_all(thorough=args.thorough)
    width = max(len(c.name) for c in checks)
    failed = 0
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        print(f"{status}  {c.name:<{width}}  {c.detail}")
        failed += 0 if c.ok else 1
    if failed:
        print(f"{failed}/{len(checks)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def cmd_serve(args) -> int:
    import signal
    from . import wire  # here, as only serve and connect need sockets

    corpus = _read_corpus_or_die(args.corpus)
    config = build_config(args)
    try:
        server = wire.serve(args.host, args.port, corpus, config, fast_forward=not args.pace)
    except (OSError, OverflowError) as exc:  # a busy port, a port past 65535, an unknown host
        raise CliError(f"cannot serve on {args.host}:{args.port}: {exc}")
    # without --once, serve until interrupted: by Ctrl-C, or by SIGTERM as if it were one
    done = server.drained if args.once else threading.Event()
    try:
        if threading.current_thread() is threading.main_thread():  # elsewhere signal.signal raises
            signal.signal(signal.SIGTERM, signal.default_int_handler)
        print("serving %d utterances on %s:%d" % (len(corpus), *server.address))
        done.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    if server.failures:
        for line in server.failures:
            print(f"failed: {line}", file=sys.stderr)
        return 1
    return 0


def cmd_connect(args) -> int:
    from . import wire

    # getaddrinfo would take a port past 65535 modulo 65536
    if not 1 <= args.port <= 65535:
        raise CliError(f"--port must be in 1..65535, got {args.port}")
    if args.max_sessions is not None and args.max_sessions < 1:
        raise CliError(f"--max-sessions must be >= 1, got {args.max_sessions}")
    with ExitStack() as stack:
        # opened first: a path that cannot be written must not cost the server its sessions
        out = stack.enter_context(_open_out(args.out)) if args.out else None
        try:
            exchanges = wire.connect(args.host, args.port, args.max_sessions)
        except (OSError, wire.ProtocolError) as exc:
            raise CliError(f"connect {args.host}:{args.port}: {exc}")
        if out:
            out.write(report_csv_header() + "\n")
            for e in exchanges:  # run_client_session has checked each one
                out.write(report_csv_row(*metrics_from_dict(e.server_metrics)) + "\n")
    mismatched = [e for e in exchanges if e.max_field_gap() > 0]
    print(f"completed {len(exchanges)} sessions; {len(mismatched)} metric mismatches")
    return 1 if mismatched else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulstream",
        description="simultaneous translation policies and streaming latency evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="write a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab-size", type=int, default=200, dest="vocab_size")
    p.add_argument("--min-len", type=int, default=6, dest="min_len")
    p.add_argument("--max-len", type=int, default=16, dest="max_len")
    p.add_argument("--kind", choices=["identity", "shift", "random-monotone"], default="identity")
    p.add_argument("--shift-c", type=int, default=0, dest="shift_c")
    p.add_argument("--noise-rate", type=float, default=0.0, dest="noise_rate")
    p.add_argument("--segment-ms", type=float, default=280.0, dest="segment_ms")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("simulate", help="run one policy over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-results", dest="out_results")
    p.add_argument("--out-csv", dest="out_csv")
    _add_config_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="grid of policies, one CSV row each")
    p.add_argument("--corpus", required=True)
    p.add_argument("--family", choices=["waitk", "vmma"], required=True)
    p.add_argument("--grid", required=True, help="comma-separated parameter values")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="recompute metrics from session logs")
    p.add_argument("--results", required=True)
    p.add_argument("--corpus")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run built-in correctness suites")
    p.add_argument("--thorough", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("serve", help="host a corpus over the wire protocol")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--corpus", required=True)
    p.add_argument("--pace", action="store_true", help="stream segments in real time")
    p.add_argument("--once", action="store_true", help="exit after the corpus is drained")
    _add_config_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("connect", help="drain a server and cross-check metrics")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--max-sessions", type=int, dest="max_sessions")
    p.set_defaults(func=cmd_connect)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("SIMULSTREAM_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        raise CliError(f"SIMULSTREAM_LOG {level!r} is not a log level name")
    logging.basicConfig(level=level.upper())
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
