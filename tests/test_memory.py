"""Peak memory of the batch commands and of the policy-math kernels.

simulate and sweep write (or score) each session's result as it ends, so
their peak memory grows with the corpus only by the corpus itself and a
(report, quality) pair per utterance, well under a results line each.

The N x M kernels are bounded in full-size float64 buffers, the result
included: MILk soft attention works in two, the anti-diagonal sweep in
its one (N+1) x M buffer.
"""

import tracemalloc

import numpy as np
import pytest

from simulstream.alignment import (
    expected_alignment_stable,
    milk_soft_attention,
    spiky_low_probability_matrix,
)
from simulstream.cli import main

N = 100
BUDGET_BYTES_PER_UTT = 2048
KERNEL_SIDE = 400


def _traced(fn, *args):
    """fn(*args) and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
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
        code, peaks[n] = _traced(main, [arg.format(out=out) for arg in argv])
        assert code == 0
    per_utt = (peaks[4 * N] - peaks[N]) / (3 * N)
    assert per_utt < BUDGET_BYTES_PER_UTT, f"{per_utt:.0f} bytes per utterance, peaks {peaks}"


@pytest.mark.parametrize("kernel, budget", [("milk", 2.2), ("stable", 1.2)])
def test_policy_kernels_hold_few_full_size_buffers(kernel, budget):
    p = spiky_low_probability_matrix(KERNEL_SIDE, KERNEL_SIDE, seed=32)
    if kernel == "milk":
        u = np.random.default_rng(32).normal(0.0, 1.0, size=p.shape)
        _, peak = _traced(milk_soft_attention, expected_alignment_stable(p), u)
    else:
        _, peak = _traced(expected_alignment_stable, p)
    buffers = peak / (p.size * 8)
    assert buffers <= budget, f"{kernel} peaked at {buffers:.2f} N x M float64 buffers"
