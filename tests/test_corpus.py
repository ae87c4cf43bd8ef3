import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulstream.corpus import (
    CorpusConfigError,
    SyntheticTaskSpec,
    Utterance,
    generate_corpus,
    quality_score,
    read_corpus,
    write_corpus,
)
from simulstream.corpus import _bleu_from_stats, _match_totals


def _reference_bleu(hyp, ref):
    """Independent quality oracle, written from the definition: 4-gram
    precision with counts clipped per reference, add-one smoothing for
    orders above 1, multiplicative brevity penalty."""
    if not hyp:
        return 0.0
    logs = []
    for n in range(1, 5):
        hgrams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
        rgrams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        matched = sum(min(c, rgrams[g]) for g, c in hgrams.items())
        total = max(len(hyp) - n + 1, 0)
        if n == 1:
            if matched == 0:
                return 0.0
            logs.append(math.log(matched / total))
        else:
            logs.append(math.log((matched + 1) / (total + 1)))
    bp = 1.0 if len(hyp) >= len(ref) else math.exp(1 - len(ref) / len(hyp))
    return 100.0 * bp * math.exp(sum(logs) / 4)


def test_quality_frozen_hand_value():
    # unigram 3/4, smoothed bigram 3/4, trigram 2/3, 4-gram 1/2, bp 1
    got = quality_score([1, 2, 3, 4], [1, 2, 3, 5])
    assert got == pytest.approx(100 * (3 / 16) ** 0.25, abs=1e-12)
    assert got == pytest.approx(65.80370064762462, abs=1e-9)


def test_quality_perfect_and_empty():
    assert quality_score([5, 6, 7, 8, 9], [5, 6, 7, 8, 9]) == pytest.approx(100.0)
    assert quality_score([], [1, 2]) == 0.0
    with pytest.raises(ValueError):
        quality_score([1], [])


def test_quality_matches_reference_oracle(rng):
    for _ in range(300):
        n_ref = int(rng.integers(1, 12))
        n_hyp = int(rng.integers(0, 12))
        ref = [int(t) for t in rng.integers(0, 6, size=n_ref)]
        hyp = [int(t) for t in rng.integers(0, 6, size=n_hyp)]
        assert quality_score(hyp, ref) == pytest.approx(_reference_bleu(hyp, ref), abs=1e-12)


def test_brevity_penalty_direction():
    ref = [1, 2, 3, 4, 5, 6]
    short = quality_score([1, 2, 3], ref)
    full = quality_score([1, 2, 3, 4, 5, 6], ref)
    assert short < full


def test_generate_corpus_deterministic():
    spec = SyntheticTaskSpec(100, (4, 9), "random-monotone", noise_rate=0.5)
    a = generate_corpus(spec, 20, seed=9)
    b = generate_corpus(spec, 20, seed=9)
    assert [u.to_json() for u in a] == [u.to_json() for u in b]
    c = generate_corpus(spec, 20, seed=10)
    assert [u.to_json() for u in a] != [u.to_json() for u in c]


def test_alignment_kinds():
    ident = generate_corpus(SyntheticTaskSpec(50, (6, 6), "identity"), 3, seed=0)
    for u in ident:
        assert u.oracle_alignment == tuple(range(1, 7))
        assert u.target_tokens == u.source_tokens
    shifted = generate_corpus(SyntheticTaskSpec(50, (6, 6), "shift", shift_c=2), 3, seed=0)
    for u in shifted:
        assert u.oracle_alignment == (3, 4, 5, 6, 6, 6)
    noisy = generate_corpus(
        SyntheticTaskSpec(50, (8, 12), "random-monotone", noise_rate=0.7), 10, seed=5
    )
    for u in noisy:
        assert all(b >= a for a, b in zip(u.oracle_alignment, u.oracle_alignment[1:]))
        assert all(1 <= a <= u.source_len for a in u.oracle_alignment)


@pytest.mark.parametrize("kind, shift_c", [("identity", 0), ("shift", 2)])
def test_noise_pushes_identity_and_shift_alignments_right(kind, shift_c):
    spec = SyntheticTaskSpec(50, (4, 12), kind, shift_c=shift_c, noise_rate=0.5)
    corpus = generate_corpus(spec, 20, seed=7)
    assert [u.to_json() for u in corpus] == [u.to_json() for u in generate_corpus(spec, 20, 7)]
    pushed = 0
    for u in corpus:
        M, align = u.source_len, u.oracle_alignment
        noiseless = [min(i + shift_c, M) for i in range(1, u.target_len + 1)]
        assert all(b >= a for a, b in zip(align, align[1:]))
        assert all(1 <= a <= M for a in align)
        assert all(a >= base for a, base in zip(align, noiseless))
        pushed += list(align) != noiseless
    assert pushed > 0


def test_target_reveals_aligned_source():
    for u in generate_corpus(SyntheticTaskSpec(50, (5, 10), "shift", shift_c=3), 5, seed=2):
        for i, a in enumerate(u.oracle_alignment):
            assert u.target_tokens[i] == u.source_tokens[a - 1]


def test_jsonl_round_trip(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    write_corpus(small_corpus, path)
    back = read_corpus(path)
    assert back == small_corpus
    record = json.loads(path.read_text().splitlines()[0])
    assert set(record) == {"id", "source", "target", "oracle_alignment", "src_tok_ms"}


def test_utterance_validation():
    with pytest.raises(CorpusConfigError):
        Utterance("x", (1, 2), (1, 2), 100.0, (2, 1))  # not monotone
    with pytest.raises(CorpusConfigError):
        Utterance("x", (1, 2), (1, 2), 100.0, (1, 3))  # beyond source
    with pytest.raises(CorpusConfigError):
        Utterance("x", (1, 2), (1, 2), 0.0, (1, 2))  # bad duration
    with pytest.raises(CorpusConfigError):
        SyntheticTaskSpec(1, (2, 4))
    with pytest.raises(CorpusConfigError):
        SyntheticTaskSpec(10, (5, 4))
    with pytest.raises(CorpusConfigError):
        SyntheticTaskSpec(10, (2, 4), "zigzag")


_GOOD_LINE = {
    "id": "u",
    "source": [4, 5, 6],
    "target": [5, 6],
    "oracle_alignment": [2, 3],
    "src_tok_ms": 280.0,
}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"id": 7}, "id 7 is not a string"),
        ({"source": [1.9, 3, 6]}, "source [1.9, 3, 6] is not a list of integers"),
        ({"source": [4, "3", 6]}, "source [4, '3', 6] is not a list of integers"),
        ({"source": [4, True, 6]}, "source [4, True, 6] is not a list of integers"),
        ({"target": "56"}, "target '56' is not a list of integers"),
        ({"oracle_alignment": [1.5, 3]}, "oracle_alignment [1.5, 3] is not a list of integers"),
        ({"oracle_alignment": {"0": 2}}, "oracle_alignment {'0': 2} is not a list of integers"),
        ({"src_tok_ms": "280"}, "src_tok_ms '280' is not a finite number"),
        ({"src_tok_ms": True}, "src_tok_ms True is not a finite number"),
        ({"src_tok_ms": math.inf}, "src_tok_ms inf is not a finite number"),
        ({"src_tok_ms": None}, "src_tok_ms None is not a finite number"),
        ({"bogus": 1}, "unknown field 'bogus'"),
    ],
)
def test_utterance_from_json_takes_each_field_with_its_own_type(change, message):
    with pytest.raises(ValueError) as exc:
        Utterance.from_json(json.dumps(dict(_GOOD_LINE, **change)))
    assert str(exc.value) == message


def test_utterance_from_json_reads_an_integer_duration_as_float():
    utt = Utterance.from_json(json.dumps(dict(_GOOD_LINE, src_tok_ms=280)))
    assert utt == Utterance.from_json(json.dumps(_GOOD_LINE))
    assert type(utt.source_token_duration_ms) is float


def test_read_corpus_names_the_line_of_a_mistyped_field(tmp_path):
    path = tmp_path / "corpus.jsonl"
    bad = dict(_GOOD_LINE, source=[1.9, "3", True], oracle_alignment=[1.5, "3"], src_tok_ms="280")
    path.write_text(json.dumps(_GOOD_LINE) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(CorpusConfigError, match=r"^line 2: source \[1\.9, '3', True\] is not"):
        read_corpus(path)
    path.write_text(json.dumps(dict(_GOOD_LINE, id=7)) + "\n")
    with pytest.raises(CorpusConfigError, match=r"^line 1: id 7 is not a string$"):
        read_corpus(path)


def _match_totals_by_order(hypothesis, reference):
    """The per-order n-gram statistics as first written: one Counter of
    slices per side and order."""

    def counts(tokens, order):
        return Counter(tuple(tokens[k : k + order]) for k in range(len(tokens) - order + 1))

    stats = []
    for order in range(1, 5):
        hyp_counts = counts(hypothesis, order)
        ref_counts = counts(reference, order)
        matched = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        stats.append((matched, max(len(hypothesis) - order + 1, 0)))
    return stats


_token_lists = st.lists(st.integers(0, 5), max_size=14)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_token_lists, _token_lists, st.booleans())
def test_match_totals_equal_per_order_counts(hypothesis_tokens, reference, as_tuple):
    # a small vocabulary makes repeated n-grams, and so clipping, common
    hyp = tuple(hypothesis_tokens) if as_tuple else hypothesis_tokens
    assert _match_totals(hyp, reference) == _match_totals_by_order(hyp, reference)
    if reference and hyp:
        want = _bleu_from_stats(_match_totals_by_order(hyp, reference), len(hyp), len(reference))
        assert quality_score(hyp, reference) == want
