"""numpy and the socket modules are loaded only by what needs them, and
the package still exports every name it did when it imported every
module up front.

The wait-k commands, eval and a wait-k wire session run without numpy,
so a fresh process skips its import, most of the CLI's start-up; only
serve and connect load wire. These tests check module sets in fresh
interpreters, never times.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simulstream
from simulstream.cli import main

ROOT = Path(__file__).resolve().parent.parent
NUMPY_BACKED = (
    "numpy",
    "simulstream.alignment",
    "simulstream.distill",
    "simulstream.verification",
    "simulstream.vmma",
)
WIRE = ("simulstream.wire", "socketserver")

# dir(simulstream) without underscores, as it read when __init__ imported every module
PUBLIC_NAMES = {
    "Action", "ChangeTrace", "ComputeModel", "ConstantScorer", "DelayProfile", "EvalServer",
    "LatencyReport", "OfflinePolicyTable", "OracleScorer", "PolicySpec", "ProtocolError",
    "ScriptedPolicy", "SessionConfig", "SessionExchange", "SessionResult", "SyntheticRankOracle",
    "SyntheticTaskSpec", "Utterance", "VmmaPolicy", "WaitKPolicy", "actions",
    "actions_to_alignment", "actions_to_changes", "alignment", "alignment_to_actions",
    "aux_attention_loss", "average_lagging", "build_report", "change_probability",
    "change_to_actions", "connect", "consumed_before_write", "corpus", "diagonal_prior",
    "discontinuity_report", "distill", "encode_trace", "enumerate_alignment_oracle",
    "enumerate_traces", "estimate_elbo", "exact_elbo", "expected_alignment_div",
    "expected_alignment_stable", "expected_delays", "extract_offline_policy", "generate_corpus",
    "latency", "latency_loss", "milk_soft_attention", "offline_label_prior", "path_log_ratio",
    "policy_from_spec", "quality_score", "read_corpus", "recompute_result_from_events",
    "run_client_session", "run_session", "sample_change_trace", "sample_trace_from_table",
    "serve", "session", "spiky_low_probability_matrix", "trace_from_consumption",
    "validate_stepwise", "validate_trace", "vmma", "wait_k_mask", "wait_k_trace", "wire",
    "write_corpus",
}
SUBMODULES = {"actions", "alignment", "corpus", "distill", "latency", "session", "vmma", "wire"}

SERVE_AND_CONNECT = """
import socket, threading, time
from simulstream.cli import main
with socket.socket() as probe:
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
rc = []
argv = ["serve", "--corpus", {corpus!r}, "--port", str(port), "--once", "--k", "3"]
server = threading.Thread(target=lambda: rc.append(main(argv)), daemon=True)
server.start()
deadline = time.monotonic() + 10
while True:
    try:
        assert main(["connect", "--port", str(port), "--out", {out!r}]) == 0
        break
    except SystemExit:  # refused: the server is not listening yet
        assert time.monotonic() < deadline
        time.sleep(0.05)
server.join(timeout=10)
assert rc == [0]
"""

COMMANDS = {
    "import-cli": "import simulstream.cli",
    "simulate-waitk": "from simulstream.cli import main\n"
    "assert main(['simulate', '--corpus', {corpus!r}, '--k', '3',"
    " '--out-results', {results!r}, '--out-csv', {out!r}]) == 0",
    "sweep-waitk": "from simulstream.cli import main\n"
    "assert main(['sweep', '--corpus', {corpus!r}, '--family', 'waitk', '--grid', '1,3',"
    " '--out', {out!r}]) == 0",
    "eval": "from simulstream.cli import main\n"
    "assert main(['eval', '--results', {results!r}, '--corpus', {corpus!r},"
    " '--out', {out!r}]) == 0",
    "serve-connect-waitk": SERVE_AND_CONNECT,
}


def _loaded_after(script: str, modules: tuple = NUMPY_BACKED) -> list[str]:
    """The modules of `modules` that script leaves loaded in a fresh interpreter."""
    report = f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{script}\nimport json, sys\n{report}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def files(tmp_path):
    corpus, results = tmp_path / "corpus.jsonl", tmp_path / "results.jsonl"
    assert main(["gen-corpus", "--out", str(corpus), "--n", "4", "--kind", "random-monotone",
                 "--noise-rate", "0.3"]) == 0
    assert main(["simulate", "--corpus", str(corpus), "--out-results", str(results)]) == 0
    return {"corpus": str(corpus), "results": str(results), "out": str(tmp_path / "out.csv")}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_does_not_load_numpy(files, command):
    assert _loaded_after(COMMANDS[command].format(**files)) == []


@pytest.mark.parametrize("command", COMMANDS)
def test_only_serve_and_connect_load_wire(files, command):
    # serve-connect-waitk is the control: the same probe sees wire, which
    # serves on threads of its own and so loads no socketserver
    loaded = ["simulstream.wire"] if command == "serve-connect-waitk" else []
    assert _loaded_after(COMMANDS[command].format(**files), WIRE) == loaded


def test_vmma_sweep_loads_numpy(files):
    # the control: the same probe sees what a vmma plan imports
    script = (
        "from simulstream.cli import main\n"
        "assert main(['sweep', '--corpus', {corpus!r}, '--family', 'vmma', '--grid', '0.5',"
        " '--out', {out!r}]) == 0"
    )
    assert _loaded_after(script.format(**files)) == ["numpy", "simulstream.vmma"]


def test_export_surface_is_pinned():
    namespace = {}
    exec("from simulstream import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert set(simulstream.__all__) == PUBLIC_NAMES
    for name in sorted(PUBLIC_NAMES):
        exec(f"from simulstream import {name} as value", namespace)
        value = namespace["value"]
        if name in SUBMODULES:
            assert value is sys.modules[f"simulstream.{name}"], name
        else:  # the same object as the attribute of the submodule that defines it
            assert value.__module__.startswith("simulstream."), name
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert not hasattr(simulstream, "no_such_name")
    with pytest.raises(AttributeError) as exc:
        simulstream.no_such_name
    assert type(exc.value) is AttributeError
    assert str(exc.value) == "module 'simulstream' has no attribute 'no_such_name'"


def test_numpy_backed_names_resolve_on_first_use():
    script = (
        "import sys, simulstream\n"
        "assert 'numpy' not in sys.modules\n"
        "assert simulstream.milk_soft_attention is sys.modules['simulstream.alignment']"
        ".milk_soft_attention\n"
        "from simulstream import OfflinePolicyTable\n"
    )
    assert _loaded_after(script) == ["numpy", "simulstream.alignment", "simulstream.distill",
                                     "simulstream.vmma"]
