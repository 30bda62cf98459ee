"""Erasure-channel laws for incremental-redundancy rounds.

Every law here is a view of one ACK curve per design point: ack_curve(params)
holds P(ACK by time t) for t = 0..n, the code's success curve averaged over
the binomial law of the symbols observed by time t.  The ACK probability
reads it at one t, the round-length law is its first difference with the
residual atom at n, and the expected symbols a schedule transmits per round,
and so throughput, are the telescoped objective over its values at the
boundaries, which scores one schedule or a block of them.  The binomial
weights depend on (t, r, epsilon) alone, so ack_curves computes the curves
of many (k, n) at one epsilon together: a sweep's curves share one weight
table per row block and one stacked dot call per t.  ack_curve is its
one-point case, cached for the most recent design point; every curve is
returned read-only.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codes import CodeParams, MomentPair, _check_epsilon, _integral, decode_success_curve

__all__ = [
    "Schedule",
    "RoundLengthLaw",
    "ack_prob",
    "ack_curve",
    "ack_curves",
    "objective",
    "round_length_law",
    "round_length_moments",
    "expected_round_symbols",
    "throughput",
]


@dataclass(frozen=True)
class Schedule:
    """Cumulative sub-block boundaries n_1 < n_2 < ... < n_m, each made an int by _integral."""

    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        b = tuple(_integral("boundary", x) for x in self.boundaries)
        object.__setattr__(self, "boundaries", b)
        if not b:
            raise ValueError("schedule needs at least one boundary")
        if b[0] < 1:
            raise ValueError(f"first boundary must be >= 1, got {b[0]}")
        if not all(map(operator.lt, b, b[1:])):
            raise ValueError(f"boundaries must be strictly increasing, got {b}")

    @property
    def m(self) -> int:
        return len(self.boundaries)

    @property
    def final(self) -> int:
        return self.boundaries[-1]


@dataclass(frozen=True, eq=False)
class RoundLengthLaw:
    """pmf of the round length on k..n; the atom at n absorbs all leftover mass."""

    support: np.ndarray
    pmf: np.ndarray

    def mean(self) -> float:
        return float(np.dot(self.support, self.pmf))

    def variance(self) -> float:
        m1 = self.mean()
        m2 = float(np.dot(self.support.astype(float) ** 2, self.pmf))
        return max(0.0, m2 - m1 * m1)


_BLOCK_CELLS = 1 << 16  # (t, r) cells of binomial weights held at once

# Cephes lgam (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989) on its integer path, the one scipy's gammaln runs; the
# tests hold it bit for bit to gammaln, which tests/oracles.py keeps as the
# independent route.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178  # log sqrt(2 pi)


def _lgam(x: int) -> float:
    """log Gamma(x) = log (x - 1)! for an integer x >= 1, as Cephes computes it."""
    if x < 13:
        z = 1.0
        for u in range(x - 1, 1, -1):
            z *= u
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a = 0.0
    for c in _LGAM_A:
        a = a * p + c
    return q + a / x


_log_factorial = np.zeros(0)  # log j! for j = 0, 1, ...; grown, never rewritten


def _log_factorials(n: int) -> np.ndarray:
    """log j! for j = 0..n, a read-only view of a table grown on demand."""
    global _log_factorial
    table = _log_factorial
    if len(table) <= n:
        size = max(n + 1, 2 * len(table))
        grown = np.array([_lgam(j + 1) for j in range(len(table), size)])
        table = np.concatenate((table, grown))
        table.setflags(write=False)
        _log_factorial = table
    return table[: n + 1]


# ACK values of the curves computed together, each padded to the largest n
# among them: bounds the ACK and failure tables of ack_curves
_CURVE_CELLS = 1 << 14


def ack_curves(epsilon: float, points):
    """P(ACK by time t), t = 0..n, for each (k, n) of points at one epsilon, in order.

    Yields the curves read-only, zero below k; each is ack_curve(CodeParams(k,
    n, epsilon)) byte for byte.  They are computed a chunk at a time: a run
    of points whose curves, padded to the run's largest n, fit one table of
    at most _CURVE_CELLS values (one curve at least).  So a consumer that
    reads the curves in order holds one chunk's table.
    """
    _check_epsilon(epsilon)
    chunk, top = [], 0
    for k, n in points:
        if chunk and (len(chunk) + 1) * (max(top, n) + 1) > _CURVE_CELLS:
            yield from _ack_table(epsilon, chunk)
            chunk, top = [], 0
        chunk.append((k, n))
        top = max(top, n)
    if chunk:
        yield from _ack_table(epsilon, chunk)


def _ack_table(eps: float, points) -> list[np.ndarray]:
    """The ACK curves of the (k, n) of points at eps, computed together; see ack_curve.

    One table, in point order, every row run up to the largest n: past a
    curve's own n its 1 - P_s is 0, and its values there are never read.
    """
    ps = [decode_success_curve(k, n) for k, n in points]
    if eps == 0.0:
        for curve in ps:  # lossless, ACK is decoding success
            curve.setflags(write=False)
        return ps
    top = max(n for _, n in points)
    acks = np.zeros((len(points), top + 1))
    fail = np.zeros_like(acks)  # P_s = 1 past a curve's own n, so 1 - P_s = 0 there
    for row, curve in zip(fail, ps):
        np.subtract(1.0, curve, out=row[: len(curve)])
    g = _log_factorials(top)
    j = np.arange(top + 1)
    keep, lose = j * math.log1p(-eps), j * math.log(eps)
    # x[e] for e = max(t - r, 0) is back[top - t + r], with back[y] = x[max(top - y, 0)]:
    # row t of a block is one window of back, so no (t, r) index or gather is formed
    back = np.maximum(top - np.arange(2 * top + 1), 0)
    back_g, back_lose = g[back], lose[back]
    rows = max(1, _BLOCK_CELLS // (top + 1))
    for t0 in range(min(k for k, _ in points), top + 1, rows):
        t1 = min(top + 1, t0 + rows)
        at = slice(top + 1 - t1, top + 1 - t0)  # the windows of rows t1 - 1 down to t0
        logw = g[t0:t1, None] - g[:t1]
        logw -= sliding_window_view(back_g, t1)[at][::-1]  # r > t is never read
        logw += keep[:t1]
        logw += sliding_window_view(back_lose, t1)[at][::-1]
        w = np.exp(logw, out=logw)
        for row, tt in zip(w, range(t0, t1)):
            # each curve's dot over r = 0..t, as np.dot's own ddot computes it
            np.matmul(fail[:, None, : tt + 1], row[: tt + 1, None], out=acks[:, tt, None, None])
    # verbatim form: it cancels to a few ulps below 0 when eps is near 1, hence the clamp
    np.subtract(1.0, acks, out=acks)
    np.maximum(acks, 0.0, out=acks)
    for row, (k, _) in zip(acks, points):
        row[:k] = 0.0  # t below k is computed with the rest, then cleared
    acks.setflags(write=False)  # before the views are taken, so they are read-only too
    return [row[: n + 1] for row, (_, n) in zip(acks, points)]


@functools.lru_cache(maxsize=1)
def ack_curve(params: CodeParams) -> np.ndarray:
    """P(ACK by time t) for every t in 0..n, read-only; zero below k.

    ACK(t) = 1 - sum_r (1 - P_s(r)) P(r of t symbols observed), with the
    binomial weights from one log-factorial table g[j] = log j! (direct
    factorials overflow near t ~ 100).  The table comes from _lgam, a port
    of the Cephes lgam that scipy's gammaln runs, grown on demand and read
    as a slice.  Each entry takes scalar math.log: numpy's vector log
    rounds a few arguments differently, which would move curve bytes.  The
    weights w_t(r) depend on (t, r, epsilon) alone, so ack_curves computes
    the curves of many (k, n) at one epsilon together, and this is its
    one-point case, cached for the most recent design point.  The weights
    of the (t, r) triangle are exponentiated a block of rows t at a time,
    at most _BLOCK_CELLS cells per block, once for every curve, so memory
    stays flat in n.  Each t then makes one stacked matmul over every
    curve of the table: per curve it runs np.dot's own BLAS ddot over
    r = 0..t, so each value at t <= n is the float a dot of that row alone
    gives.
    """
    return next(ack_curves(params.epsilon, [(params.k, params.n)]))


def ack_prob(params: CodeParams, t: int) -> float:
    """Probability the destination has ACKed by time t (defined for t <= n only)."""
    t = _integral("t", t)
    if t > params.n:
        raise ValueError(f"ack_prob is defined only for t <= n, got t={t} > n={params.n}")
    if t < params.k:
        return 0.0
    return float(ack_curve(params)[t])


def objective(boundaries, acks) -> float | np.ndarray:
    """Expected symbols per round, telescoped: n_m + sum_i (n_i - n_{i+1}) acks[i].

    acks[i] is the ACK probability at boundaries[i]; the last boundary's
    entry, if given, is not read.  Algebraically identical to weighting each
    stop point by the chance of first ACKing there plus the full length on
    NACK.  Boundaries may be real-valued, as in the smoothed SDO objective.
    An (R, m) block of schedules, with acks (R, m) or (R, m - 1), gives R
    values.  Every value is summed left to right from n_m, one term at a
    time, as np.add.accumulate sums along a schedule; a block with at least
    as many rows as columns makes these same additions one vector addition
    per slot, which reads contiguous slots when the block is F-ordered (the
    transpose of a slot-major array).  No layout changes a float: each value
    is one schedule's float.
    """
    b = np.asarray(boundaries, dtype=float)
    gaps = (b[..., :-1] - b[..., 1:]) * np.asarray(acks)[..., : b.shape[-1] - 1]
    if b.ndim == 2 and b.shape[0] >= b.shape[1]:
        total = b[:, -1].copy()
        for column in gaps.T:
            total += column
        return total
    total = np.add.accumulate(np.concatenate((b[..., -1:], gaps), axis=-1), axis=-1)[..., -1]
    return float(total) if b.ndim == 1 else total


def round_length_law(params: CodeParams) -> RoundLengthLaw:
    """Distribution of the round length: symbol-by-symbol below n, atom at n.

    Pr(length = t) = ACK(t) - ACK(t - 1) for k <= t < n; the rest,
    1 - ACK(n - 1), including every failed round, sits at t = n.  The CDF
    below n is the running maximum of the curve, so the law stays a pmf
    where the curve is rounding noise and steps down by a few ulps.
    """
    k, n = params.k, params.n
    cdf = np.maximum.accumulate(ack_curve(params)[k - 1 : n])  # ACK(k - 1) = 0
    return RoundLengthLaw(np.arange(k, n + 1), np.append(np.diff(cdf), 1.0 - cdf[-1]))


def round_length_moments(params: CodeParams) -> MomentPair:
    """Exact finite-n mean and variance of the round length."""
    law = round_length_law(params)
    return MomentPair(law.mean(), law.variance())


def _check_schedule(params: CodeParams, schedule: Schedule) -> None:
    if schedule.final != params.n:
        raise ValueError(
            f"schedule must end at n={params.n}, got final boundary {schedule.final}"
        )


def expected_round_symbols(params: CodeParams, schedule: Schedule) -> float:
    """Expected symbols transmitted per round under the given schedule."""
    _check_schedule(params, schedule)
    b = schedule.boundaries
    return objective(b, ack_curve(params)[list(b)])


def throughput(params: CodeParams, schedule: Schedule) -> float:
    """Delivered information per transmitted symbol, k P_ack(n) / E[symbols]."""
    return params.k * ack_prob(params, params.n) / expected_round_symbols(params, schedule)
