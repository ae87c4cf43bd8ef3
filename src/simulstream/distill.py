"""Extracting read/write supervision from an offline translation model.

An offline model sees the whole source. Probing it on source prefixes
tells us the minimal prefix L_j at which it already ranks the reference
token j highly; the resulting per-token prefix table drives either an
attention-concentration loss or a prior over write decisions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .vmma import PROB_CLAMP


class RankOracle(Protocol):
    """rank(prefix_len, target_index) -> 1-based rank of the reference token."""

    def rank(self, prefix_len: int, target_index: int) -> int: ...


@dataclass(frozen=True)
class SyntheticRankOracle:
    """Rank model driven by a known alignment.

    Token j reaches rank 1 exactly when the prefix covers its aligned
    position needed[j]; each missing segment costs one rank. Rank never
    increases with more context.
    """

    needed: tuple[int, ...]  # segments required per target token, 1-based

    def rank(self, prefix_len: int, target_index: int) -> int:
        if not 1 <= target_index <= len(self.needed):
            raise IndexError(f"target index {target_index} out of range")
        return max(1, self.needed[target_index - 1] - prefix_len + 1)


@dataclass(frozen=True)
class OfflinePolicyTable:
    """Minimal sufficient source-prefix length per target token."""

    rank_threshold: int
    prefix_lengths: tuple[int, ...]


def extract_offline_policy(
    oracle: RankOracle, probe_lengths: Sequence[int], r: int, tgt_len: int
) -> OfflinePolicyTable:
    """L_j = smallest probed prefix where token j ranks within r.

    Tokens that never qualify fall back to the full source (the last
    probe, which must close the grid).
    """
    probes = list(probe_lengths)
    if not probes or any(b <= a for a, b in zip(probes, probes[1:])):
        raise ValueError("probe_lengths must be non-empty and strictly increasing")
    if r < 1:
        raise ValueError("rank threshold must be >= 1")
    out = []
    for j in range(1, tgt_len + 1):
        for L in probes:
            if oracle.rank(L, j) <= r:
                out.append(L)
                break
        else:
            out.append(probes[-1])
    return OfflinePolicyTable(r, tuple(out))


def aux_attention_loss(attention_row, segment: tuple[int, int]) -> float:
    """Negative attention mass inside (L_prev, L_cur], both 1-based.

    Bounded in [-1, 0]; -1 when the row's whole (unit) mass sits inside
    the segment. An empty segment contributes nothing.
    """
    row = np.asarray(attention_row, dtype=np.float64)
    if row.ndim != 1 or np.any(row < 0):
        raise ValueError("attention row must be a non-negative vector")
    if row.sum() > 1.0 + 1e-9:
        raise ValueError("attention row mass exceeds 1")
    lo, hi = segment
    if not (0 <= lo <= hi <= row.size):
        raise ValueError(f"segment ({lo}, {hi}] out of range for {row.size} positions")
    if lo == hi:
        warnings.warn("degenerate empty segment in attention loss", stacklevel=2)
        return 0.0
    return -float(row[lo:hi].sum())


def offline_label_prior(policy: OfflinePolicyTable, src_len: int, tgt_len: int) -> np.ndarray:
    """Write-probability table from offline prefix labels.

    Each target token's label becomes a one-hot row at column L_j,
    lightly smoothed so every state stays reachable, renormalized per
    token, and accumulated left to right: the write probability at
    (i, j) is the label mass at or before column j.
    """
    if len(policy.prefix_lengths) != tgt_len:
        raise ValueError("policy table length must equal tgt_len")
    if any(not 1 <= L <= src_len for L in policy.prefix_lengths):
        raise ValueError("prefix lengths must lie in [1, src_len]")
    a = np.full((tgt_len, src_len), 1e-3)
    for i, L in enumerate(policy.prefix_lengths):
        a[i, L - 1] += 1.0
    a /= a.sum(axis=1, keepdims=True)
    return np.clip(np.cumsum(a, axis=1), PROB_CLAMP, 1.0 - PROB_CLAMP)
