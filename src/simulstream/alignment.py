"""Expected alignments for hard monotonic attention, and MILk soft attention.

A stepwise probability matrix p gives, for target step i and source
position j, the probability that the attention head stops at j. The
expected alignment alpha is the marginal distribution of the stopping
position under the monotone process where each head starts from the
previous row's stop. Two evaluations of the same recurrence ship here:

* expected_alignment_div: the division-based vectorized evaluation,
  alpha_i = p_i * cumprod * cumsum(alpha_{i-1} / cumprod), with the
  cumulative product guarded away from underflow. Once the true product
  drops below the guard the ratio stops telescoping and stale mass is
  re-added at every later position, so the row sums grow geometrically.
  Kept as the cautionary baseline; do not use downstream.
* expected_alignment_stable: the division-free recurrence
  q_{i,j} = (1 - p_{i,j-1}) q_{i,j-1} + alpha_{i-1,j}; alpha = p * q.
  Row-stochastic to 1e-9 at any practical size. Evaluated by sweeping
  the anti-diagonals i + j = s, one vector step each (N + M - 1 steps);
  every cell does the same arithmetic in the same order as a row-by-row
  scalar loop, so the output is bit-identical to it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

DIV_GUARD_EPS = 1e-6
ENUMERATION_LIMIT = 8


class ShapeError(ValueError):
    pass


class SizeLimitError(ValueError):
    pass


def validate_stepwise(p: np.ndarray) -> np.ndarray:
    """Check p is N x M with entries in (0,1] and an all-ones last column."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.size == 0:
        raise ShapeError(f"expected non-empty 2-d matrix, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        # NaN fails every comparison, so the range check below would pass it
        raise ValueError("stepwise probabilities must be finite (got NaN or inf)")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValueError("stepwise probabilities must lie in (0, 1]")
    if not np.all(p[:, -1] == 1.0):
        raise ValueError("last column must be exactly 1 (no mass may pass the source end)")
    return p


def with_closed_last_column(p: np.ndarray) -> np.ndarray:
    """Copy of p with the last column forced to 1."""
    p = np.array(p, dtype=np.float64, copy=True)
    p[:, -1] = 1.0
    return p


def _exclusive_survival(row: np.ndarray) -> np.ndarray:
    """cp_j = prod_{l<j} (1 - p_l), the probability of not stopping before j."""
    return np.cumprod(np.concatenate(([1.0], 1.0 - row[:-1])))


def expected_alignment_div(p: np.ndarray) -> np.ndarray:
    """Division-based evaluation of the alignment recurrence.

    The guarded cumulative product appears both as a factor and as a
    divisor; wherever the guard binds, the two no longer cancel and the
    output is garbage (entries far above 1, or non-finite). That failure
    is intentional and covered by tests; use expected_alignment_stable
    for real work.
    """
    p = validate_stepwise(p)
    N, M = p.shape
    alpha = np.zeros((N, M))
    prev = np.zeros(M)
    prev[0] = 1.0
    for i in range(N):
        cp = np.clip(_exclusive_survival(p[i]), DIV_GUARD_EPS, 1.0)
        alpha[i] = p[i] * cp * np.cumsum(prev / cp)
        prev = alpha[i]
    return alpha


def expected_alignment_stable(p: np.ndarray) -> np.ndarray:
    """Division-free evaluation; rows sum to 1 within 1e-9.

    Swept by anti-diagonals: cell (i, j) needs q only from its left
    neighbour and alpha only from the cell above, so the cells with
    i + j = s are independent and each diagonal is one vector step. Every
    cell still computes q = (1 - p[i, j-1]) * q + alpha[i-1, j], then
    alpha = p * q, in that order, so the result equals the row-by-row
    scalar loop bit for bit.

    One (N+1) x M buffer holds the start state e_0 in row 0 and p below
    it; in its flat layout a diagonal is a slice with step M - 1, and
    each cell's p is read and then overwritten by its alpha. q and
    1 - p of each row's newest cell are kept per row, so no other N x M
    array is allocated.
    """
    p = validate_stepwise(p)
    N, M = p.shape
    buf = np.empty((N + 1, M))
    buf[0] = 0.0
    buf[0, 0] = 1.0
    buf[1:] = p
    flat = buf.ravel()
    step = M - 1 if M > 1 else 1  # M == 1: every diagonal is a single cell
    q = np.zeros(N)  # mass not yet stopped: survivors from j-1 plus arrivals
    keep = np.zeros(N)  # 1 - p[i, j-1]; multiplies q = 0 at j = 0
    add, multiply, subtract = np.add, np.multiply, np.subtract
    for s in range(N + M - 1):
        # rows lo..hi-1 hold diagonal s; each view is taken once and written
        # through out=, since q[rows] *= ... would copy back via __setitem__
        lo = s - M + 1 if s >= M else 0
        hi = s + 1 if s < N else N
        start = (lo + 1) * M + s - lo
        stop = start + (hi - 1 - lo) * step + 1
        qv = q[lo:hi]
        kv = keep[lo:hi]
        multiply(qv, kv, out=qv)
        add(qv, flat[start - M : stop - M : step], out=qv)
        cells = flat[start:stop:step]
        subtract(1.0, cells, out=kv)
        multiply(cells, qv, out=cells)
    return buf[1:]


def enumerate_alignment_oracle(p: np.ndarray) -> np.ndarray:
    """Exact expected alignment by summing over every monotone stop path.

    Exponential in N; guarded to N, M <= 8. Exact rational arithmetic,
    so the result is correct to the last bit of the float conversion.
    """
    p = validate_stepwise(p)
    N, M = p.shape
    if N > ENUMERATION_LIMIT or M > ENUMERATION_LIMIT:
        raise SizeLimitError(f"enumeration limited to {ENUMERATION_LIMIT}, got {N}x{M}")
    pf = [[Fraction(float(x)) for x in row] for row in p]
    one = Fraction(1)
    acc = [[Fraction(0)] * M for _ in range(N)]

    def walk(i: int, start: int, weight: Fraction):
        if weight == 0:
            return
        if i == N:
            return
        survive = one
        for j in range(start, M):
            stop = weight * survive * pf[i][j]
            acc[i][j] += stop
            walk(i + 1, j, stop)
            survive *= one - pf[i][j]

    walk(0, 0, one)
    return np.array([[float(x) for x in row] for row in acc])


def milk_soft_attention(alpha: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Infinite-lookback soft attention expected under the alignment.

    beta_{i,j} = sum_{k>=j} alpha_{i,k} * exp(u_{i,j}) / sum_{l<=k} exp(u_{i,l})

    Evaluated in O(N*M) per call: prefix normalizers are shifted by the
    row max (the shift cancels between numerator and denominator), and
    the k-sum is a single reverse cumulative sum.

    Two N x M buffers: e holds the shifted exponentials and, last, the
    result; ratio holds the prefix normalizers, then alpha divided by
    them, then their reverse cumulative sum, taken in place on the
    reversed view. Each step is the ufunc a fresh-array evaluation would
    run on the same operands, so the values are the same bits; numpy
    buffers any in-place overlap it cannot prove safe. alpha and u are
    only read.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if alpha.shape != u.shape or alpha.ndim != 2:
        raise ShapeError(f"alpha {alpha.shape} and u {u.shape} must be equal 2-d shapes")
    if not np.all(np.isfinite(u)):
        raise ValueError("energies must be finite")
    # min and max propagate NaN and between them see both infinities,
    # with no N x M temporary
    if alpha.size and not (np.isfinite(alpha.min()) and np.isfinite(alpha.max())):
        raise ValueError("alignment must be finite")
    e = np.subtract(u, u.max(axis=1, keepdims=True))
    np.exp(e, out=e)
    ratio = np.cumsum(e, axis=1)
    np.divide(alpha, ratio, out=ratio)
    reversed_ratio = ratio[:, ::-1]
    np.cumsum(reversed_ratio, axis=1, out=reversed_ratio)
    return np.multiply(e, ratio, out=e)


def spiky_low_probability_matrix(
    n: int = 200, m: int = 200, seed: int = 32, spike_rate: float = 0.06
) -> np.ndarray:
    """Stress input for the division-form evaluation.

    Mostly tiny stop probabilities (log-uniform over [1e-4, 2e-2]) with
    a sparse sprinkle of near-one spikes. The spikes drive the survival
    product under the division guard, at which point the division form
    diverges while the stable form stays row-stochastic.
    """
    rng = np.random.default_rng(seed)
    p = np.exp(rng.uniform(np.log(1e-4), np.log(2e-2), size=(n, m)))
    spikes = rng.random(size=(n, m)) < spike_rate
    p[spikes] = rng.uniform(0.8, 0.999, size=int(spikes.sum()))
    p[:, -1] = 1.0
    return p
