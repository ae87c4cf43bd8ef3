"""Synthetic translation tasks with exact ground-truth alignments.

Tokens are abstract integer symbols; one source token stands for one
pre-decision speech segment with a uniform duration. Every generated
utterance carries an oracle alignment a*(i): the number of source
segments needed before target token i is predictable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .latency import INTS, NUMBER, STR, TIME_MS, checked_fields

DEFAULT_SEGMENT_MS = 280.0
_DRAW_MAX = (1 << 63) - 1  # numpy draws tokens and lengths as int64


class CorpusConfigError(ValueError):
    """Raised for invalid task specifications."""


@dataclass(frozen=True)
class Utterance:
    id: str
    source_tokens: tuple[int, ...]
    target_tokens: tuple[int, ...]
    source_token_duration_ms: float
    oracle_alignment: tuple[int, ...]  # a*(i), 1-based source prefix lengths

    def __post_init__(self):
        M = len(self.source_tokens)
        if M == 0 or not self.target_tokens:
            raise CorpusConfigError("source and target must be non-empty")
        if len(self.oracle_alignment) != len(self.target_tokens):
            raise CorpusConfigError("oracle_alignment length must match target length")
        prev = 1
        for a in self.oracle_alignment:
            if a < prev or a > M:
                raise CorpusConfigError(
                    f"oracle_alignment must be non-decreasing and <= {M}, got {self.oracle_alignment}"
                )
            prev = a
        ms = self.source_token_duration_ms
        if not TIME_MS[0](ms):  # a session counts it in whole us
            raise CorpusConfigError(f"src_tok_ms {ms!r} is not {TIME_MS[1]}")

    @property
    def source_len(self) -> int:
        return len(self.source_tokens)

    @property
    def target_len(self) -> int:
        return len(self.target_tokens)

    def to_dict(self) -> dict:
        """A corpus line's object, its keys sorted; also the HELLO utterance."""
        return {
            "id": self.id,
            "oracle_alignment": list(self.oracle_alignment),
            "source": list(self.source_tokens),
            "src_tok_ms": self.source_token_duration_ms,
            "target": list(self.target_tokens),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Utterance":
        """A to_dict dict read back; a missing, mistyped (_UTTERANCE_RULES)
        or unknown field raises ValueError naming it."""
        utt_id, source, target, ms, alignment = checked_fields(d, _UTTERANCE_RULES, "utterance")
        return cls(utt_id, tuple(source), tuple(target), float(ms), tuple(alignment))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, line: str) -> "Utterance":
        """A to_json line read back by from_dict."""
        return cls.from_dict(json.loads(line))


_UTTERANCE_RULES = {  # each field's rule, in the order from_dict checks them
    "id": STR, "source": INTS, "target": INTS, "src_tok_ms": NUMBER, "oracle_alignment": INTS
}


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Recipe for a deterministic synthetic corpus.

    alignment_kind: "identity", "shift" (with shift_c), or "random-monotone".
    noise_rate: per-token probability that the oracle alignment is pushed
    further right (the token needs extra context), keeping monotonicity.
    """

    vocab_size: int
    length_range: tuple[int, int]
    alignment_kind: str = "identity"
    shift_c: int = 0
    noise_rate: float = 0.0
    segment_ms: float = DEFAULT_SEGMENT_MS

    def __post_init__(self):
        lo, hi = self.length_range
        if lo > hi or lo < 1:
            raise CorpusConfigError(f"invalid length_range {self.length_range}")
        if hi > _DRAW_MAX:
            raise CorpusConfigError(f"lengths must be <= {_DRAW_MAX}")
        if self.vocab_size < 2:
            raise CorpusConfigError("vocab_size must be >= 2")
        if self.vocab_size > _DRAW_MAX:
            raise CorpusConfigError(f"vocab_size must be <= {_DRAW_MAX}")
        if self.alignment_kind not in ("identity", "shift", "random-monotone"):
            raise CorpusConfigError(f"unknown alignment_kind {self.alignment_kind!r}")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise CorpusConfigError("noise_rate must be in [0,1]")
        if not TIME_MS[0](self.segment_ms):
            raise CorpusConfigError(f"segment_ms {self.segment_ms!r} is not {TIME_MS[1]}")


def _alignment_for(spec: SyntheticTaskSpec, M: int, N: int, rng: np.random.Generator) -> list[int]:
    if spec.alignment_kind == "identity":
        base = [min(i, M) for i in range(1, N + 1)]
    elif spec.alignment_kind == "shift":
        base = [min(i + spec.shift_c, M) for i in range(1, N + 1)]
    else:  # random-monotone: jittered diagonal; some tokens need far context
        base = []
        for i in range(1, N + 1):
            diag = 1 + int(math.floor((i - 0.5) / N * (M - 1)))
            jitter = int(rng.integers(1, 8)) if rng.random() < spec.noise_rate else 0
            base.append(min(max(diag + jitter, 1), M))
        for i in range(1, N):
            base[i] = max(base[i], base[i - 1])
    if spec.alignment_kind != "random-monotone" and spec.noise_rate > 0:
        for i in range(N):
            if rng.random() < spec.noise_rate:
                base[i] = min(base[i] + 1 + int(rng.integers(0, 2)), M)
        for i in range(1, N):
            base[i] = max(base[i], base[i - 1])
    return base


def generate_corpus(spec: SyntheticTaskSpec, n: int, seed: int) -> list[Utterance]:
    """Generate n utterances, a pure function of (spec, n, seed)."""
    import numpy as np  # here, so that reading and scoring a corpus need no numpy

    if n < 1:
        raise CorpusConfigError("n must be >= 1")
    if seed < 0:
        raise CorpusConfigError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    lo, hi = spec.length_range
    out = []
    for idx in range(n):
        M = int(rng.integers(lo, hi + 1))
        N = M
        source = tuple(int(t) for t in rng.integers(0, spec.vocab_size, size=M))
        align = _alignment_for(spec, M, N, rng)
        # target token i reveals the source token at its aligned position
        target = tuple(source[a - 1] for a in align)
        out.append(
            Utterance(
                id=f"utt-{seed}-{idx:05d}",
                source_tokens=source,
                target_tokens=target,
                source_token_duration_ms=spec.segment_ms,
                oracle_alignment=tuple(align),
            )
        )
    return out


def write_corpus(utterances: Iterable[Utterance], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for utt in utterances:
            f.write(utt.to_json() + "\n")


def read_corpus(path) -> list[Utterance]:
    """Utterances of a JSON-lines file; a malformed line, or one whose id
    an earlier line has, raises CorpusConfigError("line N: ..."), N counted
    from 1."""
    out, ids = [], set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                utt = Utterance.from_json(line)
            except (TypeError, ValueError) as exc:  # also a line that is not JSON
                raise CorpusConfigError(f"line {lineno}: {exc}") from None
            if utt.id in ids:  # eval --corpus would score it against the other's reference
                raise CorpusConfigError(f"line {lineno}: duplicate id {utt.id!r}")
            ids.add(utt.id)
            out.append(utt)
    return out


# ---------------------------------------------------------------------------
# BLEU. 4-gram with brevity penalty; add-one smoothing on n>=2 counts so
# desk-scale sentences do not degenerate to zero.
# ---------------------------------------------------------------------------

_MAX_ORDER = 4


def _ngrams(tokens: Sequence[int], order: int):
    """The n-grams of one order in tokens; a unigram is the token itself."""
    return tokens if order == 1 else zip(*(tokens[k:] for k in range(order)))


def _match_totals(hypothesis: Sequence[int], reference: Sequence[int]):
    """Per-order (matched, total) clipped n-gram counts for one pair.

    Per order, a plain dict counts the reference's n-grams; each n-gram of
    the hypothesis matches while its count lasts, so a match is clipped at
    the reference count."""
    n = len(hypothesis)
    stats = []
    for order in range(1, _MAX_ORDER + 1):
        left: dict = {}  # reference count of each n-gram, less the matches so far
        for gram in _ngrams(reference, order):
            left[gram] = left.get(gram, 0) + 1
        matched = 0
        for gram in _ngrams(hypothesis, order):
            count = left.get(gram)
            if count:
                left[gram] = count - 1
                matched += 1
        stats.append((matched, max(n - order + 1, 0)))
    return stats


def _bleu_from_stats(stats, hyp_len: int, ref_len: int) -> float:
    log_precision = 0.0
    for order, (matched, total) in enumerate(stats, start=1):
        if order == 1:
            if total == 0 or matched == 0:
                return 0.0
            p = matched / total
        else:
            p = (matched + 1.0) / (total + 1.0)
        log_precision += math.log(p)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_precision / _MAX_ORDER)


def quality_score(hypothesis: Sequence[int], reference: Sequence[int]) -> float:
    """Sentence BLEU in [0, 100]; empty hypothesis scores 0."""
    if len(reference) == 0:
        raise ValueError("reference must be non-empty")
    if len(hypothesis) == 0:
        return 0.0
    return _bleu_from_stats(_match_totals(hypothesis, reference), len(hypothesis), len(reference))

