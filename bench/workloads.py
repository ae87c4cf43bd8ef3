"""The three benchmark workloads: corpus-batch, wire-loopback, policy-math.

Every workload follows the same shape:

1. set-up, repeated so its median is steady: imports in a fresh
   interpreter, input generation and writing, and (wire) the server
   starting until it prints its port;
2. one untimed warm-up pass;
3. timed passes while one more fits in the window. A traced run
   alternates untraced and traced passes, so drift in the machine's speed
   reaches both alike and the difference of their medians is the
   tracing overhead;
4. output checks after each pass, outside its timed region. Every
   operation whose output fails a check counts as failed.

A pass opens a "bench.pass" span around exactly its timed region, so the
part of a pass no layer span covers is that span's self time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from simulstream import alignment, cli, corpus, distill, latency, session, vmma, wire
from simulstream.actions import Action

from tracing import END, NAME, PARENT, REQUEST, START, Tracer, instrument, self_times, spans_by_root

SETUP_REPEATS = 5
CORPUS_SPEC = corpus.SyntheticTaskSpec(
    vocab_size=200,
    length_range=(10, 18),
    alignment_kind="random-monotone",
    noise_rate=0.45,
    segment_ms=280.0,
)
COMPUTE = ["--per-decision-ms", "2", "--per-unit-ms", "0.5"]
WAIT3 = ["--policy", "waitk", "--k", "3", *COMPUTE]
SWEEP_GRID = "0.2,0.5,1.0"
SERVER_LIMIT_S = 120.0  # a round that takes longer has hung; its server is killed


@dataclass(frozen=True)
class Params:
    n_utterances: int = 400  # corpus-batch corpus, and the corpus wire serves from
    n_sessions: int = 40
    warmup_sessions: int = 3
    sizes: tuple[int, ...] = (200, 400, 800)
    elbo_size: int = 30
    elbo_samples: int = 200
    distill_size: int = 120
    oracle_cases: int = 20

    @property
    def pinned(self) -> bool:
        """Only full-size runs can be compared with the recorded hashes."""
        return self == Params()


TINY = Params(
    n_utterances=8, n_sessions=4, warmup_sessions=1, sizes=(8, 12, 16), elbo_size=6,
    elbo_samples=10, distill_size=10, oracle_cases=3,
)


@dataclass
class Ledger:
    """Operations attempted and failed, with a line for every failed check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int, problem: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{problem}: {failed} of {attempted} failed")


@dataclass
class Context:
    root: str
    work: str
    seed: int
    seconds: float
    tracer: Tracer | None
    params: Params
    spec: dict  # this workload's entry in metrics.json
    ledger: Ledger = field(default_factory=Ledger)


@dataclass
class Outcome:
    setup: dict[str, float]  # set-up parts, each the median of its repeats
    passes: list[dict]  # untraced timed passes
    traced: list[dict]  # traced timed passes (traced runs only)
    named: list[tuple[str, float, str, int]]  # (name, value, unit, samples)
    layers: dict[str, tuple[float, int]]  # traced runs only: name -> (value, samples)
    input_sha256: str


# ---------------------------------------------------------------- helpers


def no_span(name, request=None):
    return contextlib.nullcontext()


def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(values, q: float) -> float:
    """Smallest sample with at least a share q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)] if ordered else 0.0


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # serve's port line reaches the pipe only because of -u, not the caller's env
    env.pop("PYTHONUNBUFFERED", None)
    return env


def time_imports(ctx: Context) -> list[float]:
    """Seconds to import the CLI in a fresh interpreter, once per repeat."""
    code = (
        "import time; t = time.perf_counter(); import simulstream.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ctx.root, env=child_env(ctx.root),
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout))
    return samples


def measure(ctx: Context, one_pass) -> tuple[list[dict], list[dict]]:
    """Run timed passes for the window; see the module docstring. Another
    pass starts only when one as long as the last still fits the window;
    a traced run always ends with as many traced passes as untraced."""
    plain, traced = [], []
    start = last = time.perf_counter()
    while True:
        owed = ctx.tracer is not None and len(traced) < len(plain)
        fits = 2 * time.perf_counter() - last - start < ctx.seconds
        if plain and not owed and not fits:
            return plain, traced
        last = time.perf_counter()
        if owed:
            with instrument(ctx.tracer):
                traced.append(one_pass(ctx.tracer.span))
        else:
            plain.append(one_pass(no_span))


def end_to_end(outcome: Outcome) -> dict[str, tuple[float, int]]:
    """The gated metrics but peak_rss_mb: name -> (value, samples)."""
    passes = outcome.passes
    jobs = [j for p in passes for j in p["jobs"]]
    ops = sum(p["ops"] for p in passes)
    return {
        "setup_s": (sum(outcome.setup.values()), SETUP_REPEATS),
        "ops_per_s": (ops / sum(p["seconds"] for p in passes), len(passes)),
        "job_ms_p50": (median(jobs) * 1e3, len(jobs)),
        "job_ms_p75": (nearest_rank(jobs, 0.75) * 1e3, len(jobs)),
    }


# (metric, span name, request or None, "dur" or "self", scale): mean per
# matching span in each traced pass, then the median over passes
SPAN_METRICS = [
    ("corpus.read_ms", "corpus.read", None, "dur", 1e3),
    ("corpus.quality_us_per_utt", "corpus.quality", None, "dur", 1e6),
    ("plan.waitk_us_per_utt", "plan.waitk", None, "dur", 1e6),
    ("plan.vmma_us_per_utt", "plan.vmma", None, "dur", 1e6),
    ("vmma.elbo_ms", "vmma.elbo", None, "dur", 1e3),
    ("session.run_us_per_utt", "session.run", None, "self", 1e6),
    ("session.to_json_us_per_utt", "session.to_json", None, "dur", 1e6),
    ("session.from_json_us_per_utt", "session.from_json", None, "dur", 1e6),
    ("session.recompute_us_per_utt", "session.recompute", None, "dur", 1e6),
    ("latency.report_us_per_utt", "latency.report", None, "dur", 1e6),
    ("latency.expected_delays_ms_800", "latency.expected_delays", None, "dur", 1e3),
    ("cli.simulate_self_ms", "cli.simulate", None, "self", 1e3),
    ("cli.eval_self_ms", "cli.eval", None, "self", 1e3),
    ("cli.sweep_self_ms", "cli.sweep", None, "self", 1e3),
    ("alignment.soft_attention_ms_800", "alignment.soft_attention", None, "dur", 1e3),
    ("distill.extract_ms", "distill.extract", None, "dur", 1e3),
    ("distill.prior_ms", "distill.prior", None, "dur", 1e3),
    ("trace.uncovered_ms_per_pass", "bench.pass", None, "self", 1e3),
]


def span_metrics(ctx: Context, table) -> dict[str, tuple[float, int]]:
    spans = ctx.tracer.spans
    selfs = self_times(spans)
    groups = spans_by_root(spans, "bench.pass")
    out = {}
    for metric, name, request, kind, scale in table:
        per_pass = []
        samples = 0
        for group in groups:
            values = [
                selfs[i] if kind == "self" else spans[i][END] - spans[i][START]
                for i in group
                if spans[i][NAME] == name and (request is None or spans[i][REQUEST] == request)
            ]
            if values:
                per_pass.append(sum(values) / len(values) * scale)
                samples += len(values)
        out[metric] = (median(per_pass), samples)
    return out


def common_layers(ctx: Context, outcome: Outcome) -> dict[str, tuple[float, int]]:
    layers = span_metrics(ctx, SPAN_METRICS)
    plain = median([p["seconds"] for p in outcome.passes])
    traced = median([p["seconds"] for p in outcome.traced])
    layers["trace.overhead_ms_per_pass"] = ((traced - plain) * 1e3, len(outcome.traced))
    return layers


# ---------------------------------------------------------- corpus-batch


def call_cli(argv) -> tuple[int, str, str]:
    """simulstream.cli.main in-process, with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def write_corpus_timed(ctx: Context, paths: dict, seed: int) -> tuple[float, float]:
    """Generate the corpus once and write to each path the utterances its
    selector picks; returns (generate seconds, generate + write seconds)."""
    t0 = time.perf_counter()
    utterances = corpus.generate_corpus(CORPUS_SPEC, ctx.params.n_utterances, seed)
    t1 = time.perf_counter()
    for path, select in paths.items():
        corpus.write_corpus(select(utterances), path)
    return t1 - t0, time.perf_counter() - t0


def every_utterance(utterances):
    return utterances


def corpus_setup(ctx: Context, paths: dict) -> tuple[dict, dict]:
    """Median set-up parts, and the set-up layer metrics."""
    imports = time_imports(ctx)
    generate, total = [], []
    for _ in range(SETUP_REPEATS):
        g, t = write_corpus_timed(ctx, paths, ctx.seed)
        generate.append(g)
        total.append(t)
    return {"imports": median(imports), "inputs": median(total)}, {
        "cli.import_ms": (median(imports) * 1e3, len(imports)),
        "corpus.generate_ms": (median(generate) * 1e3, len(generate)),
    }


class BatchFiles:
    """The files of one corpus-batch directory, and the commands over them."""

    def __init__(self, work: str):
        self.corpus = os.path.join(work, "corpus.jsonl")
        self.results = os.path.join(work, "results.jsonl")
        self.simulate_csv = os.path.join(work, "simulate.csv")
        self.eval_csv = os.path.join(work, "eval.csv")
        self.sweep_csv = os.path.join(work, "sweep.csv")

    def commands(self) -> list[tuple[str, list[str]]]:
        return [
            ("simulate", ["simulate", "--corpus", self.corpus, "--out-results",
                          self.results, "--out-csv", self.simulate_csv, *WAIT3]),
            ("eval", ["eval", "--results", self.results, "--corpus", self.corpus,
                      "--out", self.eval_csv]),
            ("sweep", ["sweep", "--corpus", self.corpus, "--family", "vmma", "--grid",
                       SWEEP_GRID, "--scorer", "oracle", "--out", self.sweep_csv, *COMPUTE]),
        ]


def read_lines(path) -> list[bytes]:
    try:
        with open(path, "rb") as f:
            return f.read().split(b"\n")
    except OSError:
        return []


def differing(got: list, want: list) -> int:
    return sum(1 for i in range(max(len(got), len(want))) if got[i : i + 1] != want[i : i + 1])


def check_batch(ledger: Ledger, files: BatchFiles, statuses: dict, reference, n: int) -> dict:
    """Check one pass's outputs against each other and against the
    reference pass; returns them for use as the reference."""
    grid = len(SWEEP_GRID.split(","))
    got = {c: read_lines(getattr(files, f"{c}_csv")) for c in ("simulate", "eval", "sweep")}
    want = reference or got
    bad = {c: int(s[0] != 0 or "failed:" in s[2]) for c, s in statuses.items()}
    # header + utterance rows: simulate's must be eval's, byte for byte
    sim_rows, eval_rows = got["simulate"][:-2], got["eval"][:-1]
    failed = differing(got["simulate"], want["simulate"]) + (len(sim_rows) != n + 1)
    ledger.record(n, min(n, max(failed, bad["simulate"])),
                  "simulate failed or its rows differ from the warm-up pass")
    failed = differing(eval_rows, sim_rows)
    ledger.record(n, min(n, max(failed, bad["eval"])),
                  "eval failed or its rows differ from simulate rows")
    # one sweep row per grid point, each standing for n operations
    failed = differing(got["sweep"], want["sweep"]) + (len(got["sweep"]) != grid + 2)
    ledger.record(n * grid, min(n * grid, max(failed, bad["sweep"]) * n),
                  "sweep failed or its rows differ from the warm-up pass")
    return got


def check_pinned(ctx: Context, files: BatchFiles) -> None:
    """On full-size runs, the pinned corpus and the CSVs simulate and sweep
    make from it must hash to the values recorded in metrics.json. The
    files of a run on another seed are left alone; the pinned corpus is
    run once more, untimed."""
    seed, recorded = ctx.spec["pinned_seed"], ctx.spec["pinned_sha256"]
    if ctx.seed != seed:
        files = BatchFiles(os.path.join(ctx.work, "pinned"))
        os.makedirs(os.path.dirname(files.corpus), exist_ok=True)
        write_corpus_timed(ctx, {files.corpus: every_utterance}, seed)
        commands = dict(files.commands())
        call_cli(commands["simulate"])
        call_cli(commands["sweep"])
    for name, path in (("corpus.jsonl", files.corpus), ("simulate.csv", files.simulate_csv),
                       ("sweep.csv", files.sweep_csv)):
        ok = os.path.exists(path) and sha256_file(path) == recorded[name]
        ctx.ledger.record(1, int(not ok), f"{name} on pinned seed {seed} differs from its record")


def result_counts(path: str) -> dict[str, tuple[float, int]]:
    """Per-utterance sizes of the event logs simulate wrote."""
    events = units = size = n = 0
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            kinds = [e["kind"] for e in json.loads(line)["events"]]
            events += len(kinds)
            units += kinds.count("write_unit")
            size += len(line.encode()) - 1
            n += 1
    return {
        "session.events_per_utt": (events / n, n),
        "session.write_unit_share": (units / events, n),
        "session.result_bytes_per_utt": (size / n, n),
    }


def corpus_batch(ctx: Context) -> Outcome:
    n = ctx.params.n_utterances
    grid = len(SWEEP_GRID.split(","))
    files = BatchFiles(ctx.work)
    setup, setup_layers = corpus_setup(ctx, {files.corpus: every_utterance})
    commands = files.commands()
    state = {"outputs": None}

    def one_pass(span):
        statuses, times = {}, {}
        t0 = time.perf_counter()
        with span("bench.pass"):
            for command, argv in commands:
                c0 = time.perf_counter()
                with span(f"cli.{command}", command):
                    statuses[command] = call_cli(argv)
                times[command] = time.perf_counter() - c0
        seconds = time.perf_counter() - t0
        state["outputs"] = check_batch(ctx.ledger, files, statuses, state["outputs"], n)
        return {"seconds": seconds, "jobs": [seconds], "ops": n * (2 + grid), "times": times}

    one_pass(no_span)  # warm-up; its outputs are the reference for every timed pass
    passes, traced = measure(ctx, one_pass)
    if ctx.params.pinned:
        check_pinned(ctx, files)
    ops = {"simulate": n, "eval": n, "sweep": n * grid}
    named = [
        (f"{c}_utt_per_s", median([ops[c] / p["times"][c] for p in passes]), "1/s", len(passes))
        for c in ops
    ]
    outcome = Outcome(setup, passes, traced, named, {}, sha256_file(files.corpus))
    if ctx.tracer:
        counts = result_counts(files.results)
        outcome.layers = {**setup_layers, **common_layers(ctx, outcome), **counts}
    return outcome


# --------------------------------------------------------- wire-loopback


class Server:
    """A `serve --once` child process and what it reported."""

    def __init__(self, ctx: Context, corpus_path: str):
        self.err_path = corpus_path + ".stderr"
        argv = [sys.executable, "-u", "-m", "simulstream.cli", "serve", "--corpus", corpus_path,
                "--port", "0", "--once", *WAIT3]
        t0 = time.perf_counter()
        with open(self.err_path, "w") as err:
            self.proc = subprocess.Popen(argv, cwd=ctx.root, env=child_env(ctx.root),
                                         stdout=subprocess.PIPE, stderr=err, text=True)
        self.watchdog = threading.Timer(SERVER_LIMIT_S, self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            line = self.proc.stdout.readline() if sel.select(SERVER_LIMIT_S) else ""
        self.start_s = time.perf_counter() - t0
        if not line.startswith("serving "):
            self.stop(kill=True)
            raise RuntimeError(f"server did not announce its port: {line!r}")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self, kill: bool = False) -> None:
        """Wait for the child to exit (killing it on request or when it
        hangs) and collect its exit code, stderr and peak RSS."""
        if kill:
            self.proc.kill()
        deadline = time.monotonic() + 10
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.watchdog.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.peak_rss_mb = usage.ru_maxrss / 1024
        with open(self.err_path) as f:
            self.failures = [ln for ln in f if ln.startswith("failed:") or "Traceback" in ln]


def drain(ctx: Context, span, server: Server, n: int):
    """Closed loop of one client: sessions until the server says done.
    Returns (exchanges, session seconds, pass seconds, client error)."""
    exchanges, jobs, error = [], [], None
    t0 = time.perf_counter()
    with span("bench.pass"):
        while True:
            s0 = time.perf_counter()
            with span("wire.session") as index:
                try:
                    exchange = wire.run_client_session(*server.address)
                except Exception as exc:  # a failed session, unless all n are done:
                    # `serve --once` may exit between the last session and the done probe
                    if len(exchanges) < n:
                        error = exc
                    exchange = None
            elapsed = time.perf_counter() - s0
            if exchange is None:
                if index is not None:
                    ctx.tracer.spans[index][NAME] = "wire.done"
                break
            if index is not None:
                ctx.tracer.spans[index][REQUEST] = exchange.utterance_id
            exchanges.append(exchange)
            jobs.append(elapsed)
    return exchanges, jobs, time.perf_counter() - t0, error


def wire_round(ctx: Context, span, corpus_path: str, n: int, state: dict) -> dict:
    server = Server(ctx, corpus_path)
    error = RuntimeError("client loop did not finish")
    try:
        exchanges, jobs, seconds, error = drain(ctx, span, server, n)
    finally:
        server.stop(kill=error is not None)
    state["starts"].append(server.start_s)
    state["peaks_mb"].append(server.peak_rss_mb)
    bad = sum(1 for e in exchanges if e.max_field_gap() != 0) + (n - len(exchanges))
    if not bad and (server.proc.returncode != 0 or server.failures or error):
        bad = max(1, len(server.failures))
    problem = f"wire sessions (server exit {server.proc.returncode}, client error {error})"
    ctx.ledger.record(n, min(bad, n), problem)
    return {"seconds": seconds, "jobs": jobs, "ops": len(exchanges)}


def server_replay(utterances, plans, config, repeats: int = 5) -> float:
    """Seconds per session for the server's own work: replaying the client's
    plan through run_session and building its report."""
    scripted = [session.ScriptedPolicy(tuple(plan)) for plan in plans]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for utt, plan in zip(utterances, scripted):
            session.run_session(utt, config, plan).report()
        samples.append((time.perf_counter() - t0) / len(utterances))
    return median(samples)


def length_profile(n: int):
    """Selector of n utterances taking the next one of each source length
    in turn. A session's time grows with its length, so serving the same
    lengths on every seed keeps the seed from moving the session times."""

    def select(utterances):
        by_length: dict[int, list] = {}
        for utt in utterances:
            by_length.setdefault(utt.source_len, []).append(utt)
        queues = [by_length[length] for length in sorted(by_length)]
        picked = []
        while len(picked) < n and any(queues):
            for queue in queues:
                if queue and len(picked) < n:
                    picked.append(queue.pop(0))
        return picked

    return select


def wire_loopback(ctx: Context) -> Outcome:
    n, warm = ctx.params.n_sessions, ctx.params.warmup_sessions
    served = os.path.join(ctx.work, "served.jsonl")
    warmup = os.path.join(ctx.work, "warmup.jsonl")
    setup, setup_layers = corpus_setup(ctx, {served: length_profile(n), warmup: lambda u: u[:warm]})
    state = {"starts": [], "peaks_mb": []}
    for _ in range(SETUP_REPEATS):  # start-up alone, so its median is steady
        server = Server(ctx, warmup)
        server.stop(kill=True)
        state["starts"].append(server.start_s)
    wire_round(ctx, no_span, warmup, warm, state)
    passes, traced = measure(ctx, lambda span: wire_round(ctx, span, served, n, state))
    setup["server_start"] = median(state["starts"])
    jobs = [j for p in passes for j in p["jobs"]]
    named = [
        ("wire_sessions_per_s", len(jobs) / sum(jobs), "1/s", len(jobs)),
        ("wire_session_ms_p50", median(jobs) * 1e3, "ms", len(jobs)),
        ("wire_session_ms_p75", nearest_rank(jobs, 0.75) * 1e3, "ms", len(jobs)),
    ]
    outcome = Outcome(setup, passes, traced, named, {}, sha256_file(served))
    if ctx.tracer:
        layers = {**setup_layers, **common_layers(ctx, outcome)}
        layers["wire.server_start_ms"] = (median(state["starts"]) * 1e3, len(state["starts"]))
        layers["wire.server_peak_rss_mb"] = (max(state["peaks_mb"]), len(state["peaks_mb"]))
        layers.update(wire_session_layers(ctx))
        utterances = corpus.read_corpus(served)
        args = cli.build_parser().parse_args(["serve", "--corpus", served, *WAIT3])
        config = cli.build_config(args)
        plans = [session.policy_from_spec(config.policy).plan(u) for u in utterances]
        replay = server_replay(utterances, plans, config)
        layers["wire.server_replay_us_per_session"] = (replay * 1e6, n)
        reads = [p.count(Action.READ) for p in plans]
        writes = [p.count(Action.WRITE) for p in plans]
        # HELLO, then READ_REQ -> SEGMENT per read, then EOS_TGT -> METRICS
        layers["wire.round_trips_per_session"] = (sum(r + 2 for r in reads) / n, n)
        messages = [3 + 2 * r + w for r, w in zip(reads, writes)]
        layers["wire.messages_per_session"] = (sum(messages) / n, n)
        outcome.layers = layers
    return outcome


def wire_session_layers(ctx: Context) -> dict[str, tuple[float, int]]:
    """Per session: time blocked in recv (waiting on the server and the
    network) and the client's own time (the rest of the session)."""
    spans = ctx.tracer.spans
    wait: dict[int, float] = {}
    for span in spans:
        parent = span[PARENT]
        if span[NAME] == "wire.recv" and spans[parent][NAME] == "wire.session":
            wait[parent] = wait.get(parent, 0.0) + span[END] - span[START]
    client, waited = [], []
    for group in spans_by_root(spans, "bench.pass"):
        sessions = [i for i in group if spans[i][NAME] == "wire.session"]
        if sessions:
            waited.append(sum(wait.get(i, 0.0) for i in sessions) / len(sessions))
            total = sum(spans[i][END] - spans[i][START] for i in sessions) / len(sessions)
            client.append(total - waited[-1])
    count = sum(1 for s in spans if s[NAME] == "wire.session")
    return {
        "wire.client_self_ms_per_session": (median(client) * 1e3, count),
        "wire.wait_ms_per_session": (median(waited) * 1e3, count),
    }


# ----------------------------------------------------------- policy-math


@dataclass
class MathInputs:
    stepwise: dict[int, np.ndarray]
    energies: np.ndarray
    phi: np.ndarray
    omega: np.ndarray
    weights: np.ndarray
    needed: tuple[int, ...]
    small: list[np.ndarray]

    @classmethod
    def generate(cls, params: Params, seed: int) -> "MathInputs":
        rng = np.random.default_rng(seed)
        big, e, d = max(params.sizes), params.elbo_size, params.distill_size
        small = []
        for _ in range(params.oracle_cases):
            p = rng.uniform(0.05, 1.0, size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            p[:, -1] = 1.0
            small.append(p)
        return cls(
            stepwise={n: alignment.spiky_low_probability_matrix(n, n, seed) for n in params.sizes},
            energies=rng.normal(0.0, 1.0, size=(big, big)),
            phi=vmma.diagonal_prior(e, e, sharpness=2.0),
            omega=vmma.diagonal_prior(e, e, sharpness=0.5),
            weights=rng.normal(0.0, 0.1, size=(e, e)),
            needed=tuple(int(x) for x in np.sort(rng.integers(1, d + 1, size=d))),
            small=small,
        )

    def sha256(self) -> str:
        h = hashlib.sha256()
        arrays = [*self.stepwise.values(), self.energies, self.phi, self.omega, self.weights]
        for a in arrays + self.small:
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(repr(self.needed).encode())
        return h.hexdigest()


def math_pass(span, params: Params, inputs: MathInputs, seed: int) -> tuple[float, dict]:
    """One pass of library calls; returns (seconds, outputs)."""
    big, e, d = max(params.sizes), params.elbo_size, params.distill_size
    weights = inputs.weights
    out = {}
    t0 = time.perf_counter()
    with span("bench.pass"):
        for n in params.sizes:
            with span("alignment.stable", f"n={n}"):
                out[n] = alignment.expected_alignment_stable(inputs.stepwise[n])
        with span("alignment.soft_attention", f"n={big}"):
            out["milk"] = alignment.milk_soft_attention(out[big], inputs.energies)
        with span("latency.expected_delays", f"n={big}"):
            out["profile"] = latency.expected_delays(out[big], CORPUS_SPEC.segment_ms)
        with span("latency.average_lagging", f"n={big}"):
            out["al"] = latency.average_lagging(out["profile"])
        with span("latency.latency_loss", f"n={big}"):
            out["loss"] = latency.latency_loss(out["profile"])
        with span("vmma.elbo", f"n={e}"):
            out["elbo"] = vmma.estimate_elbo(
                lambda a: float((a * weights).sum()), inputs.phi, inputs.omega, e, e,
                params.elbo_samples, seed,
            )
        with span("distill.extract", f"n={d}"):
            out["table"] = distill.extract_offline_policy(
                distill.SyntheticRankOracle(inputs.needed), range(1, d + 1), 1, d
            )
        with span("distill.prior", f"n={d}"):
            out["prior"] = distill.offline_label_prior(out["table"], d, d)
    return time.perf_counter() - t0, out


MATH_CALLS = 10  # calls per math pass


def check_math(ledger: Ledger, params: Params, inputs: MathInputs, out: dict, reference: dict):
    """Every call's output must be sound and equal the warm-up pass's."""

    def same(key):
        a, b = out[key], reference[key]
        if isinstance(a, np.ndarray):
            return a.shape == b.shape and np.array_equal(a, b)
        return a == b

    d = params.distill_size
    prior = out["prior"]
    checks = {n: bool(np.all(np.abs(out[n].sum(axis=1) - 1.0) <= 1e-9)) for n in params.sizes}
    checks["milk"] = bool(np.all(np.abs(out["milk"].sum(axis=1) - 1.0) <= 1e-9))
    checks["profile"] = len(out["profile"].delays_ms) == max(params.sizes)
    checks["al"] = math.isfinite(out["al"])
    checks["loss"] = math.isfinite(out["loss"])
    checks["elbo"] = all(math.isfinite(x) for x in out["elbo"])
    checks["table"] = out["table"].prefix_lengths == inputs.needed
    checks["prior"] = prior.shape == (d, d) and bool(
        np.all(np.diff(prior, axis=1) >= 0) and prior.min() > 0 and prior.max() < 1
    )
    failed = sum(1 for key, ok in checks.items() if not (ok and same(key)))
    ledger.record(len(checks), failed, "math outputs unsound or different from the warm-up pass")


def policy_math(ctx: Context) -> Outcome:
    params = ctx.params
    imports = time_imports(ctx)
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = MathInputs.generate(params, ctx.seed)
        builds.append(time.perf_counter() - t0)
    setup = {"imports": median(imports), "inputs": median(builds)}
    _, reference = math_pass(no_span, params, inputs, ctx.seed)
    check_math(ctx.ledger, params, inputs, reference, reference)

    def one_pass(span):
        seconds, out = math_pass(span, params, inputs, ctx.seed)
        check_math(ctx.ledger, params, inputs, out, reference)
        return {"seconds": seconds, "jobs": [seconds], "ops": MATH_CALLS}

    passes, traced = measure(ctx, one_pass)
    oracle_failed = sum(
        1
        for p in inputs.small
        if not np.max(
            np.abs(alignment.expected_alignment_stable(p) - alignment.enumerate_alignment_oracle(p))
        ) <= 1e-12
    )
    ctx.ledger.record(len(inputs.small), oracle_failed, "small alignments differ from the oracle")
    named = [("math_pass_s", median([p["seconds"] for p in passes]), "s", len(passes))]
    outcome = Outcome(setup, passes, traced, named, {}, inputs.sha256())
    if ctx.tracer:
        table = [
            (f"alignment.stable_ms_{label}", "alignment.stable", f"n={n}", "dur", 1e3)
            for label, n in zip((200, 400, 800), params.sizes)
        ]
        outcome.layers = {
            "cli.import_ms": (median(imports) * 1e3, len(imports)),
            **span_metrics(ctx, table),
            **common_layers(ctx, outcome),
        }
    return outcome


WORKLOADS = {
    "corpus-batch": corpus_batch,
    "wire-loopback": wire_loopback,
    "policy-math": policy_math,
}
