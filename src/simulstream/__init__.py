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
"""

from .actions import (
    Action,
    consumed_before_write,
    decode_trace,
    encode_trace,
    trace_from_consumption,
    validate_trace,
    wait_k_consumption,
    wait_k_mask,
    wait_k_trace,
)
from .alignment import (
    enumerate_alignment_oracle,
    expected_alignment_div,
    expected_alignment_stable,
    milk_soft_attention,
    spiky_low_probability_matrix,
    validate_stepwise,
    with_closed_last_column,
)
from .corpus import (
    SyntheticTaskSpec,
    Utterance,
    corpus_quality_score,
    generate_corpus,
    quality_score,
    read_corpus,
    write_corpus,
)
from .distill import (
    OfflinePolicyTable,
    SyntheticRankOracle,
    aux_attention_loss,
    extract_offline_policy,
    offline_label_prior,
)
from .latency import (
    DelayProfile,
    LatencyReport,
    average_lagging,
    build_report,
    expected_delays,
    latency_loss,
)
from .session import (
    ComputeModel,
    PolicySpec,
    ScriptedPolicy,
    SessionConfig,
    SessionResult,
    VmmaPolicy,
    WaitKPolicy,
    discontinuity_report,
    policy_from_spec,
    recompute_result_from_events,
    run_corpus,
    run_session,
)
from .vmma import (
    ChangeTrace,
    ConstantScorer,
    OracleScorer,
    TableScorer,
    actions_to_alignment,
    actions_to_changes,
    alignment_to_actions,
    change_probability,
    change_to_actions,
    diagonal_prior,
    enumerate_traces,
    estimate_elbo,
    exact_elbo,
    path_log_prob,
    path_log_ratio,
    sample_change_trace,
    sample_trace_from_table,
)
from .wire import (
    EvalServer,
    ProtocolError,
    SessionExchange,
    connect,
    run_client_session,
    serve,
)

__version__ = "0.1.0"
