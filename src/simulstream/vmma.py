"""Variational read/write policies over monotone action paths.

A policy decides, at each state (w tokens written, r segments read),
whether to WRITE the next token or READ the next segment. Decisions at
states where only one action is legal (nothing read yet, source
exhausted, target complete) are forced and never enter any likelihood.

Two samplers ship:

* a change-point sampler: the action flips with probability
  p*_k = (1 - exp(-lam * (k - k_last)^2)) * f(w, r), where k_last is
  the step of the most recent flip and f is a context score. Larger
  lam makes flips cheaper, so traces interleave reads and writes more
  finely.
* a table sampler: independent Bernoulli write-probabilities per state,
  used as the posterior in the evidence-bound estimate.

Path log-probabilities, the posterior/prior log-ratio, Monte Carlo and
exact evidence-bound evaluation, and the standard priors live here too.
The Monte Carlo estimate walks each sample once: the walk draws the same
uniforms in the same order as sample_trace_from_table, scores the path
under both tables as it goes and records its write columns, so its
result is bit for bit what the per-trace API (sample_trace_from_table,
actions_to_alignment, path_log_ratio) would give sample by sample.
Policy tables with NaN or infinite entries are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement
from typing import Callable, Iterator, Protocol, Sequence

import numpy as np

from .actions import Action, consumed_before_write, trace_from_consumption, validate_trace
from .actions import InvalidTraceError

PROB_CLAMP = 1e-7
_PROB_HIGH = 1.0 - PROB_CLAMP
_CHUNK = 4096  # uniforms drawn per numpy call in estimate_elbo

# free-state table lookups outside (PROB_CLAMP, 1-PROB_CLAMP) are clamped
# and counted here, one count per clamped lookup: the walk looks each free
# state up once in each of its two tables; read via clamp_warning_count(),
# reset for tests
_clamp_warnings = 0


def clamp_warning_count() -> int:
    return _clamp_warnings


def reset_clamp_warnings() -> None:
    global _clamp_warnings
    _clamp_warnings = 0


def _score(value: float) -> tuple[float, float, float, int]:
    """A write-probability as (clamped p, log p, log(1 - p), 1 if clamped else 0)."""
    if value < PROB_CLAMP:
        value, clamped = PROB_CLAMP, 1
    elif value > _PROB_HIGH:
        value, clamped = _PROB_HIGH, 1
    else:
        clamped = 0
    return value, math.log(value), math.log(1.0 - value), clamped


class EvaluationError(RuntimeError):
    pass


class ContextScorer(Protocol):
    """Score in (0,1) for flipping toward WRITE-ish behavior at a state."""

    def score(self, tgt_written: int, src_read: int) -> float: ...


@dataclass(frozen=True)
class ConstantScorer:
    value: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.value < 1.0:
            raise ValueError("score must be strictly inside (0,1)")

    def score(self, tgt_written: int, src_read: int) -> float:
        return self.value


@dataclass(frozen=True)
class OracleScorer:
    """High score once enough source is in to predict the next token.

    alignment holds a*(i): segments needed before target token i is
    determined. Scores stay strictly inside (0,1).
    """

    alignment: tuple[int, ...]
    low: float = 0.02
    high: float = 0.98

    def score(self, tgt_written: int, src_read: int) -> float:
        nxt = min(tgt_written, len(self.alignment) - 1)
        return self.high if src_read >= self.alignment[nxt] else self.low


@dataclass(frozen=True)
class ChangeTrace:
    """Flip indicators z*_k over the M+N decision steps, starting from READ."""

    changes: tuple[int, ...]
    src_len: int
    tgt_len: int

    def __post_init__(self):
        if len(self.changes) != self.src_len + self.tgt_len:
            raise InvalidTraceError("change trace must cover exactly M+N decisions")

    @property
    def n_changes(self) -> int:
        return sum(self.changes)

    @property
    def forced(self) -> tuple[bool, ...]:
        """Steps where the state machine left no choice."""
        return _forced_mask(change_to_actions(self), self.src_len, self.tgt_len)


def change_to_actions(trace: ChangeTrace) -> list[Action]:
    """Unfold flips into actions; initial action is READ, so a flip at the
    first step gives a trace that begins with WRITE, which is rejected."""
    # the action after k steps is READ after an even number of flips, else WRITE
    actions = (Action.READ, Action.WRITE)
    out = [actions[flips & 1] for flips in accumulate(map(bool, trace.changes))]
    validate_trace(out, trace.src_len, trace.tgt_len)
    return out


def actions_to_changes(actions: Sequence[Action]) -> ChangeTrace:
    """Inverse of change_to_actions; round-trips exactly."""
    M = sum(1 for a in actions if a is Action.READ)
    validate_trace(actions, M, len(actions) - M)  # the counts fit; this checks the start
    changes = []
    prev = Action.READ
    for idx, a in enumerate(actions):
        changes.append(0 if idx == 0 else int(a is not prev))
        prev = a
    return ChangeTrace(tuple(changes), M, len(actions) - M)


def _forced_mask(actions: Sequence[Action], M: int, N: int) -> tuple[bool, ...]:
    w = r = 0
    out = []
    for a in actions:
        out.append(r == 0 or r == M or w == N)
        if a is Action.READ:
            r += 1
        else:
            w += 1
    return tuple(out)


def actions_to_alignment(actions: Sequence[Action], M: int, N: int) -> np.ndarray:
    """Hard alignment: row i is one-hot at the source position of WRITE i."""
    validate_trace(actions, M, N)
    return _alignment([g - 1 for g in consumed_before_write(actions)], M, N)


def alignment_to_actions(align: np.ndarray) -> list[Action]:
    """Inverse of actions_to_alignment for hard (one-hot-row) matrices."""
    align = np.asarray(align)
    N, M = align.shape
    positions = []
    for i in range(N):
        js = np.flatnonzero(align[i])
        if len(js) != 1 or align[i, js[0]] != 1.0:
            raise InvalidTraceError(f"row {i} is not one-hot")
        positions.append(int(js[0]) + 1)
    return trace_from_consumption(positions, M)


def change_probability(lam: float, gap: int, score: float) -> float:
    """p* = (1 - exp(-lam * gap^2)) * score; zero at gap 0 by construction."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return (1.0 - math.exp(-lam * gap * gap)) * score


def sample_change_trace(
    scorer: ContextScorer, lam: float, src_len: int, tgt_len: int, rng_seed: int
) -> ChangeTrace:
    """Draw one action path from the change-point policy.

    The scorer gives the write-propensity f at the current state. A
    READ run flips with probability (1 - exp(-lam * gap^2)) * f, a
    WRITE run with the mirrored (1 - f), gap being the distance to the
    last flip. The gap term starts at zero, so a flip can never
    immediately follow another (or precede the first read).
    Boundary-forced steps bypass sampling entirely and reset the gap
    when they flip the action.

    Each free step takes one uniform, in step order; forced steps take
    none. The uniforms are fetched from the seeded generator in bulk
    (_uniforms), which yields the values one rng.random() call per free
    step would give.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    M, N = src_len, tgt_len
    uniforms = _uniforms(np.random.default_rng(rng_seed), M + N)
    score = scorer.score
    w = r = 0
    writing = False  # the current action: READ until the first flip
    k_last = 1
    changes = []
    for k in range(1, M + N + 1):
        if 0 < r < M and w < N:  # a free step
            f = score(w, r)
            z = next(uniforms) < change_probability(lam, k - k_last, 1.0 - f if writing else f)
        else:  # forced: READ first, WRITE once the source is out, READ once the target is
            z = writing if w == N else (r == M and not writing)
        if z:
            writing = not writing
            k_last = k
        changes.append(z)
        if writing:
            w += 1
        else:
            r += 1
    return ChangeTrace(tuple(map(int, changes)), M, N)


def sample_trace_from_table(
    table: np.ndarray, src_len: int, tgt_len: int, rng_seed: int
) -> list[Action]:
    """Draw one action path from per-state Bernoulli write-probabilities."""
    M, N = src_len, tgt_len
    policy = _scorable(table, M, N, "policy")
    # a path has fewer than M + N free states, so one chunk is enough
    uniforms = _uniforms(np.random.default_rng(rng_seed), M + N)
    cols, _, _ = _walk(policy, policy, M, N, uniforms)
    return trace_from_consumption([c + 1 for c in cols], M)


def _uniforms(rng: np.random.Generator, chunk: int) -> Iterator[float]:
    """rng.random() values in draw order, fetched chunk at a time."""
    while True:
        yield from rng.random(chunk).tolist()


def _scorable(table, M: int, N: int, name: str) -> tuple[list[float], list]:
    """A checked table's entries in row-major order, and a scores list of Nones."""
    entries = _table(table, M, N, name).ravel().tolist()
    return entries, [None] * len(entries)


def _walk(
    q: tuple[list, list], p: tuple[list, list], M: int, N: int, uniforms: Iterator[float]
) -> tuple[list[int], float, float]:
    """Walk one path from (0, 0) to (N, M), scoring it under q and p.

    q and p are _scorable tables; free state (w, r) is entry
    k = w * M + r - 1. At each free state the walk takes the next uniform
    u and writes iff u < q (clamped); forced states take none. It adds
    the chosen action's log-probability under q to lq and under p to lp,
    in path order. Returns (cols, lq, lp), where
    cols[i] is the 0-based source column at which target token i is
    written.

    An entry is scored on the first visit of any walk given its scores
    list, so a caller that reuses the tables clamps and takes logs once
    per state, and one table passed as both is scored once. The clamp
    counter still gains one per clamped lookup in each table per step.
    """
    global _clamp_warnings
    q, q_scores = q
    p, p_scores = p
    cols = []
    lq = lp = 0.0
    clamps = 0
    w, r, k = 0, 1, 0  # the first action is a forced READ
    while w < N and r < M:
        sq = q_scores[k]
        if sq is None:
            sq = q_scores[k] = _score(q[k])
        sp = p_scores[k]
        if sp is None:
            sp = p_scores[k] = _score(p[k])
        if next(uniforms) < sq[0]:
            lq += sq[1]
            lp += sp[1]
            cols.append(r - 1)
            w += 1
            k += M
        else:
            lq += sq[2]
            lp += sp[2]
            r += 1
            k += 1
        clamps += sq[3] + sp[3]
    _clamp_warnings += clamps
    cols += [M - 1] * (N - w)  # source exhausted: the remaining writes are forced
    return cols, lq, lp


def _replay(actions: Sequence[Action], M: int, N: int) -> Iterator[float]:
    """Uniforms under which _walk retraces a valid path: 0.0 writes, 1.0 reads.

    Clamped probabilities lie in [PROB_CLAMP, 1 - PROB_CLAMP], so 0.0 is
    below every one of them and 1.0 above.
    """
    w = r = 0
    for a in actions:
        if 0 < r < M and w < N:
            yield 0.0 if a is Action.WRITE else 1.0
        if a is Action.READ:
            r += 1
        else:
            w += 1


def _alignment(cols: list[int], M: int, N: int) -> np.ndarray:
    """Hard alignment of a path from its write columns; a fresh array each call."""
    align = np.zeros((N, M))
    align[np.arange(N), cols] = 1.0
    return align


def _table(table, M: int, N: int, name: str) -> np.ndarray:
    """The table as an (N, M) float64 array of finite entries, else ValueError."""
    table = np.asarray(table, dtype=np.float64)
    if table.shape != (N, M):
        raise ValueError(f"{name} table must be {N}x{M}, got {table.shape}")
    if M < 1:
        raise ValueError("src_len must be >= 1")
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{name} table must be finite (got NaN or inf)")
    return table


def path_log_ratio(
    actions: Sequence[Action], phi: np.ndarray, omega: np.ndarray, M: int, N: int
) -> float:
    """log q_phi(trace) - log p_omega(trace) over the free steps; zero when
    the tables agree."""
    q, p = _scorable(phi, M, N, "phi"), _scorable(omega, M, N, "omega")
    validate_trace(actions, M, N)
    _, lq, lp = _walk(q, p, M, N, _replay(actions, M, N))
    return lq - lp


def enumerate_traces(M: int, N: int, limit: int = 12) -> list[list[Action]]:
    """All valid action paths from (0,0) to (N,M); exponential, small only."""
    if M < 1 or N < 1:
        raise ValueError(f"enumeration needs M, N >= 1, got {M}x{N}")
    if M > limit or N > limit:
        raise ValueError(f"enumeration limited to {limit}, got {M}x{N}")
    # consumption vectors in descending lexicographic order: the depth-first
    # order of a walk that tries READ before WRITE
    return [
        trace_from_consumption(g, M)
        for g in reversed(list(combinations_with_replacement(range(1, M + 1), N)))
    ]


def estimate_elbo(
    likelihood: Callable[[np.ndarray], float],
    phi: np.ndarray,
    omega: np.ndarray,
    src_len: int,
    tgt_len: int,
    n_samples: int,
    rng_seed: int,
) -> tuple[float, float, float]:
    """Monte Carlo evidence bound: mean loglik minus mean log-ratio.

    Traces are sampled from the phi table; the likelihood callable takes
    the hard alignment matrix of each sampled trace. One walk per sample
    draws the path, scores it under phi and omega and builds its
    alignment, from one RNG stream in sample_trace_from_table's draw
    order; the result is bit for bit the per-trace API's. Returns
    (elbo, kl_estimate, loglik_estimate).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    M, N = src_len, tgt_len
    q, p = _scorable(phi, M, N, "phi"), _scorable(omega, M, N, "omega")
    uniforms = _uniforms(np.random.default_rng(rng_seed), _CHUNK)
    loglik_sum = 0.0
    ratio_sum = 0.0
    for s in range(n_samples):
        cols, lq, lp = _walk(q, p, M, N, uniforms)
        ll = float(likelihood(_alignment(cols, M, N)))
        if not math.isfinite(ll):
            raise EvaluationError(f"non-finite likelihood at sample {s}")
        loglik_sum += ll
        ratio_sum += lq - lp
    loglik = loglik_sum / n_samples
    kl = ratio_sum / n_samples
    return loglik - kl, kl, loglik


def exact_elbo(
    likelihood: Callable[[np.ndarray], float],
    phi: np.ndarray,
    omega: np.ndarray,
    src_len: int,
    tgt_len: int,
) -> tuple[float, float]:
    """Exact (elbo, log_marginal) by enumerating every trace. Small only.

    The bound elbo <= log_marginal holds for any posterior table. The
    log marginal is a max-shifted log-sum-exp, so it stays finite when
    every term underflows or overflows exp.
    """
    M, N = src_len, tgt_len
    q, p = _scorable(phi, M, N, "phi"), _scorable(omega, M, N, "omega")
    elbo = 0.0
    terms = []
    for k, actions in enumerate(enumerate_traces(M, N)):
        cols, lp_phi, lp_omega = _walk(q, p, M, N, _replay(actions, M, N))
        ll = float(likelihood(_alignment(cols, M, N)))
        if not math.isfinite(ll):
            raise EvaluationError(f"non-finite likelihood at trace {k}")
        elbo += math.exp(lp_phi) * (ll - (lp_phi - lp_omega))
        terms.append(lp_omega + ll)
    top = max(terms)
    return elbo, top + math.log(sum(math.exp(t - top) for t in terms))


def diagonal_prior(src_len: int, tgt_len: int, sharpness: float = 2.0) -> np.ndarray:
    """Write-probabilities rising logistically across the j = i*M/N line."""
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    i = np.arange(1, tgt_len + 1)[:, None]
    j = np.arange(1, src_len + 1)[None, :]
    x = sharpness * (j - i * src_len / tgt_len)
    return 1.0 / (1.0 + np.exp(-x))
