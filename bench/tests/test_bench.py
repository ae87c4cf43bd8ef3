"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from tracing import END, START, Tracer, self_times, spans_by_root  # noqa: E402

SPEC = run.load_spec()
SEED = 11  # kept apart from the seeds real runs use, so their records survive


def tiny_run(capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace)],
        params=workloads.TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(SPEC["workloads"]))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(capsys, workload, trace):
    code, lines, result = tiny_run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    gated = {m["name"] for m in SPEC["end_to_end"]}
    named = [m for m in SPEC["named"] if workload in m["workloads"] and m["name"] not in gated]
    for m in wanted + named:
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line for line in lines)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_perturbed_eval_row_raises_failed_share(capsys, monkeypatch):
    from simulstream import cli

    recompute = cli.recompute_result_from_events

    def off_by_one_ms(result):
        fresh = recompute(result)
        if not result.utterance_id.endswith("00003"):
            return fresh
        delays = (fresh.ideal_delays_us[0] + 1000, *fresh.ideal_delays_us[1:])
        return dataclasses.replace(fresh, ideal_delays_us=delays)

    monkeypatch.setattr(cli, "recompute_result_from_events", off_by_one_ms)
    code, lines, result = tiny_run(capsys, "corpus-batch", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    share = next(line for line in lines if line.split()[:1] == ["failed_share"])
    assert float(share.split()[1]) == result["failed"] / result["attempted"] > 0
    assert any("eval failed or its rows differ from simulate rows" in line for line in lines)


def test_self_times_and_remainder_add_up_to_wall_time():
    tracer = Tracer()
    with tracer.span("bench.pass"):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(10_000))
            sum(range(10_000))
        with tracer.span("c"):
            sum(range(10_000))
    selfs = self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(selfs) == pytest.approx(root[END] - root[START], abs=1e-12)
    assert all(s >= 0 for s in selfs)


def test_traced_run_spans_add_up_per_pass(capsys):
    tiny_run(capsys, "corpus-batch", 1)
    path = os.path.join(ROOT, ".bench_out", f"corpus-batch-seed{SEED}-trace1.spans.jsonl")
    with open(path) as f:
        spans = [list(json.loads(line).values()) for line in f]
    selfs = self_times(spans)
    groups = spans_by_root(spans, "bench.pass")
    assert groups
    for group in groups:
        root = spans[group[0]]
        assert sum(selfs[i] for i in group) == pytest.approx(root[END] - root[START], abs=1e-9)
    named = {s[0] for s in spans}
    assert {"cli.simulate", "session.run", "plan.waitk", "session.from_json"} <= named


def test_benchmark_json_matches_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(SPEC["workloads"])
    for key in ("end_to_end", "per_layer"):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] == [
            (m["name"], m["unit"], m["better"]) for m in SPEC[key]
        ]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "policy-math", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
