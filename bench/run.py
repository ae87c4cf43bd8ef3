"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload corpus-batch --seed 2024 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports simulstream from
that checkout's src/ and nowhere else. Workloads, metrics, pinned seeds
and the recorded output hashes are in bench/metrics.json.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
traced run gives every per-layer metric instead (layers a workload does
not reach read 0 with 0 samples). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A full
record of the run, with its manifest, goes to .bench_out/. The exit code
is 1 when any output check failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(HERE, "metrics.json")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def import_package():
    """Import simulstream from this checkout's src/, or exit 2."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        import simulstream
    except ImportError as exc:
        print(f"error: cannot import simulstream from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if os.path.dirname(os.path.abspath(simulstream.__file__)) != os.path.join(src, "simulstream"):
        print(f"error: simulstream came from {simulstream.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return simulstream


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_lines() -> int:
    total = 0
    for folder, _, names in os.walk(os.path.join(ROOT, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def manifest(args, input_sha256: str, workload_spec: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "pinned_seed": workload_spec["pinned_seed"],
        "held_out_seed": workload_spec["held_out_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "input_sha256": input_sha256,
        "src_lines": src_lines(),
    }


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, params=None) -> int:
    spec = load_spec()
    args = parse_args(argv, list(spec["workloads"]))
    import_package()
    import workloads
    from tracing import Tracer

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    ctx = workloads.Context(
        root=ROOT,
        work=tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir),
        seed=args.seed,
        seconds=args.seconds,
        tracer=Tracer() if args.trace else None,
        params=params or workloads.Params(),
        spec=spec["workloads"][args.workload],
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ledger = ctx.ledger
    failed_share = ledger.failed / ledger.attempted
    named = [*outcome.named, ("failed_share", failed_share, "share", ledger.attempted)]

    if args.trace:
        values, wanted = outcome.layers, spec["per_layer"]
    else:
        values = {**workloads.end_to_end(outcome), "peak_rss_mb": (peak_rss_mb, 1)}
        wanted = spec["end_to_end"]
    lines = [(m["name"], *values.get(m["name"], (0.0, 0)), m["unit"]) for m in wanted]
    metrics = {name: {"value": value, "unit": unit} for name, value, _, unit in lines}

    record = {
        "manifest": manifest(args, outcome.input_sha256, ctx.spec),
        "setup_parts_s": outcome.setup,
        "job_s": {
            "untraced": [p["jobs"] for p in outcome.passes],
            "traced": [p["jobs"] for p in outcome.traced],
        },
        "named": {name: {"value": v, "unit": u, "samples": n} for name, v, u, n in named},
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, v, n, u in lines},
        "problems": ledger.problems,
    }
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
    if ctx.tracer:
        ctx.tracer.write(stem + ".spans.jsonl")

    m = record["manifest"]
    print(f"{args.workload}  seed {args.seed} (pinned {m['pinned_seed']}, held-out "
          f"{m['held_out_seed']})  trace {args.trace}  window {args.seconds:g} s")
    for name, value, unit, n in named:
        print(f"  {name:34s} {value:14.6g} {unit:6s} n={n}")
    print("  --" + (" per-layer (traced run)" if args.trace else " gated end-to-end"))
    for name, value, n, unit in lines:
        print(f"  {name:34s} {value:14.6g} {unit:6s} n={n}")
    print(f"  checks: {ledger.failed} of {ledger.attempted} operations failed")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")
    print(f"  manifest: python {m['python']}, numpy {m['numpy']}, nproc {m['nproc']}, commit "
          f"{m['git_commit']}, inputs {m['input_sha256'][:16]}, src lines {m['src_lines']}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
