"""Erasure-channel laws for incremental-redundancy rounds.

Every law here is a view of one ACK curve per design point: ack_curve(params)
holds P(ACK by time t) for t = 0..n, the code's success curve averaged over
the binomial law of the symbols observed by time t.  The ACK probability
reads it at one t, the round-length law is its first difference with the
residual atom at n, and the expected symbols a schedule transmits per round,
and so throughput, are the telescoped objective over its values at the
boundaries.  The curve is cached for the most recent design point and
returned read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .codes import CodeParams, MomentPair, _integral, decode_success_curve

__all__ = [
    "Schedule",
    "RoundLengthLaw",
    "ack_prob",
    "ack_curve",
    "objective",
    "round_length_law",
    "round_length_moments",
    "expected_round_symbols",
    "throughput",
]


@dataclass(frozen=True)
class Schedule:
    """Cumulative sub-block boundaries n_1 < n_2 < ... < n_m."""

    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        b = tuple(_integral("boundary", x) for x in self.boundaries)
        object.__setattr__(self, "boundaries", b)
        if not b:
            raise ValueError("schedule needs at least one boundary")
        if b[0] < 1:
            raise ValueError(f"first boundary must be >= 1, got {b[0]}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"boundaries must be strictly increasing, got {b}")

    @property
    def m(self) -> int:
        return len(self.boundaries)

    @property
    def lengths(self) -> tuple[int, ...]:
        """Sub-block lengths l_i = n_i - n_{i-1} with n_0 = 0."""
        b = (0,) + self.boundaries
        return tuple(b[i + 1] - b[i] for i in range(len(self.boundaries)))

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


@functools.lru_cache(maxsize=1)
def ack_curve(params: CodeParams) -> np.ndarray:
    """P(ACK by time t) for every t in 0..n, read-only; zero below k.

    ACK(t) = 1 - sum_r (1 - P_s(r)) P(r of t symbols observed), with the
    binomial weights from one log-factorial table g[j] = log j! (direct
    factorials overflow near t ~ 100).  The weights of the (t, r) triangle
    are exponentiated a block of rows t at a time, at most _BLOCK_CELLS
    cells per block, so memory stays flat in n; each row is then summed
    with its own dot over r = 0..t.
    """
    k, n, eps = params.k, params.n, params.epsilon
    ps = decode_success_curve(k, n)
    if eps == 0.0:
        out = ps  # lossless, ACK is decoding success
    else:
        out = np.zeros(n + 1)
        g = gammaln(np.arange(1, n + 2))
        j = np.arange(n + 1)
        keep, lose = j * math.log1p(-eps), j * math.log(eps)
        fail = 1.0 - ps
        rows = max(1, _BLOCK_CELLS // (n + 1))
        for t0 in range(k, n + 1, rows):
            t1 = min(n + 1, t0 + rows)
            t = j[t0:t1, None]
            r = j[: t1]
            e = np.maximum(t - r, 0)  # r > t is never read
            logw = g[t] - g[r]
            logw -= g[e]
            logw += keep[: t1]
            logw += lose[e]
            w = np.exp(logw, out=logw)
            for row, tt in zip(w, range(t0, t1)):
                # verbatim form: it cancels to a few ulps below 0 when eps
                # is near 1, hence the clamp
                out[tt] = max(0.0, float(1.0 - np.dot(fail[: tt + 1], row[: tt + 1])))
    out.setflags(write=False)
    return out


def ack_prob(params: CodeParams, t: int) -> float:
    """Probability the destination has ACKed by time t (defined for t <= n only)."""
    if t > params.n:
        raise ValueError(f"ack_prob is defined only for t <= n, got t={t} > n={params.n}")
    if t < params.k:
        return 0.0
    return float(ack_curve(params)[t])


def objective(boundaries, acks) -> float:
    """Expected symbols per round, telescoped: n_m + sum_i (n_i - n_{i+1}) acks[i].

    acks[i] is the ACK probability at boundaries[i]; the last boundary's
    entry, if given, is not read.  Algebraically identical to weighting each
    stop point by the chance of first ACKing there plus the full length on
    NACK.  Boundaries may be real-valued, as in the smoothed SDO objective.
    """
    total = float(boundaries[-1])
    for i in range(len(boundaries) - 1):
        total += (boundaries[i] - boundaries[i + 1]) * acks[i]
    return float(total)


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
