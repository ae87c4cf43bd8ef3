"""Batch commands hold what their output still needs, not every session.

simulate and sweep write (or score) each session's result as it ends, so
their peak memory grows with the corpus only by the corpus itself and a
(report, quality) pair per utterance, well under a results line each.
"""

import tracemalloc

import pytest

from simulstream.cli import main

N = 100
BUDGET_BYTES_PER_UTT = 2048


def _peak_bytes(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--k", "3", "--out-results", "{out}.jsonl", "--out-csv", "{out}.csv"],
        ["sweep", "--family", "waitk", "--grid", "2,4", "--out", "{out}.csv"],
    ],
    ids=["simulate", "sweep"],
)
def test_peak_memory_does_not_grow_with_the_corpus(tmp_path, command):
    peaks = {}
    for n in (N, 4 * N):
        corpus = tmp_path / f"corpus-{n}.jsonl"
        argv = ["gen-corpus", "--out", str(corpus), "--n", str(n), "--seed", "7"]
        assert main([*argv, "--kind", "random-monotone", "--noise-rate", "0.45"]) == 0
        out = str(tmp_path / f"out-{n}")
        argv = [command[0], "--corpus", str(corpus), *command[1:]]
        peaks[n] = _peak_bytes([arg.format(out=out) for arg in argv])
    per_utt = (peaks[4 * N] - peaks[N]) / (3 * N)
    assert per_utt < BUDGET_BYTES_PER_UTT, f"{per_utt:.0f} bytes per utterance, peaks {peaks}"
