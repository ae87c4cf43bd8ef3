"""Simultaneous translation policies and a streaming evaluation harness.

The package splits into three layers:

* policy mathematics: expected monotonic alignments, infinite-lookback
  soft attention, wait-k schedules, change-point path sampling, path
  likelihood ratios and evidence bounds, offline-policy distillation;
* metrics: average lagging (ideal and computation-aware), the
  differentiable latency loss, discontinuity accounting, BLEU-style
  quality scoring over abstract token ids;
* harness: a dual-clock session simulator over synthetic corpora, a
  newline-delimited JSON wire protocol, and the simulstream CLI.

Only what needs numpy loads it. The names of alignment, distill and vmma
are imported on first use (__getattr__); generate_corpus, wait_k_mask
and expected_delays import numpy when called. So wait-k simulation, eval
and a wait-k wire session never load it. The names of wire, which loads
the socket modules, are imported on first use too.
"""

# free of numpy and sockets, so imported now
from .actions import (
    Action, consumed_before_write, encode_trace, trace_from_consumption, validate_trace,
    wait_k_mask, wait_k_trace,
)
from .corpus import (
    SyntheticTaskSpec, Utterance, generate_corpus, quality_score, read_corpus, write_corpus,
)
from .latency import (
    DelayProfile, LatencyReport, average_lagging, build_report, expected_delays, latency_loss,
)
from .session import (
    ComputeModel, PolicySpec, ScriptedPolicy, SessionConfig, SessionResult, VmmaPolicy,
    WaitKPolicy, discontinuity_report, policy_from_spec, recompute_result_from_events,
    run_session,
)

# names of the modules that load numpy or sockets, each imported on first use
_LAZY = {
    name: module
    for module, names in {
        "alignment": (
            "enumerate_alignment_oracle", "expected_alignment_div", "expected_alignment_stable",
            "milk_soft_attention", "spiky_low_probability_matrix", "validate_stepwise",
        ),
        "distill": (
            "OfflinePolicyTable", "SyntheticRankOracle", "aux_attention_loss",
            "extract_offline_policy", "offline_label_prior",
        ),
        "vmma": (
            "ChangeTrace", "ConstantScorer", "OracleScorer", "actions_to_alignment",
            "actions_to_changes", "alignment_to_actions", "change_probability",
            "change_to_actions", "diagonal_prior", "enumerate_traces", "estimate_elbo",
            "exact_elbo", "path_log_ratio", "sample_change_trace", "sample_trace_from_table",
        ),
        "wire": (
            "EvalServer", "ProtocolError", "SessionExchange", "connect", "run_client_session",
            "serve",
        ),
    }.items()
    for name in (module, *names)
}

__version__ = "0.1.0"
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY.keys())


def __getattr__(name: str):
    """A name of _LAZY, from its module (or the module itself), imported now."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)
