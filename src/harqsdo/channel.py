"""Erasure-channel laws for incremental-redundancy rounds.

Covers the binomial law of observed symbols, the negative-binomial law of
erasures before the r-th arrival, the cumulative ACK probability, the full
round-length distribution with its residual atom at n, the expected number
of symbols a schedule transmits per round, and throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .codes import CodeParams, MomentPair, _integral, decode_success_curve

__all__ = [
    "Schedule",
    "RoundLengthLaw",
    "observed_pmf",
    "erasures_pmf",
    "ack_prob",
    "ack_curve",
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


def _check_eps(epsilon: float) -> None:
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")


def observed_pmf(t: int, r: int, epsilon: float) -> float:
    """Binomial chance of r unerased symbols among t transmitted ones."""
    _check_eps(epsilon)
    if t < 0:
        raise ValueError(f"t must be a nonnegative integer, got {t}")
    if r < 0 or r > t:
        return 0.0
    e = t - r
    if epsilon == 0.0:
        return 1.0 if e == 0 else 0.0
    # binomial coefficients via log-gamma; direct factorials overflow near t ~ 100
    logp = gammaln(t + 1) - gammaln(r + 1) - gammaln(e + 1)
    logp += r * math.log1p(-epsilon)
    if e:
        logp += e * math.log(epsilon)
    return float(math.exp(logp))


def erasures_pmf(r: int, e: int, epsilon: float) -> float:
    """Negative-binomial chance of e erasures before the r-th arrival."""
    _check_eps(epsilon)
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    if e < 0:
        return 0.0
    if epsilon == 0.0:
        return 1.0 if e == 0 else 0.0
    logp = gammaln(r + e) - gammaln(e + 1) - gammaln(r)
    logp += r * math.log1p(-epsilon)
    if e:
        logp += e * math.log(epsilon)
    return float(math.exp(logp))


def _ack_at(t: int, ps: np.ndarray, epsilon: float) -> float:
    """ACK-by-time-t probability given the success curve ps[r] for r = 0..n."""
    if epsilon == 0.0:
        return float(ps[t])
    r = np.arange(t + 1)
    e = t - r
    logw = gammaln(t + 1) - gammaln(r + 1) - gammaln(e + 1)
    logw = logw + r * math.log1p(-epsilon) + e * math.log(epsilon)
    w = np.exp(logw)
    # verbatim form: 1 - sum_e P_f(k, n, t - e) P_{R_t}(t - e); it cancels
    # to a few ulps below 0 when eps is near 1, hence the clamp
    return max(0.0, float(1.0 - np.dot(1.0 - ps[: t + 1], w)))


def ack_prob(params: CodeParams, t: int) -> float:
    """Probability the destination has ACKed by time t (defined for t <= n only)."""
    if t > params.n:
        raise ValueError(f"ack_prob is defined only for t <= n, got t={t} > n={params.n}")
    if t < params.k:
        return 0.0
    ps = decode_success_curve(params.k, params.n)
    return _ack_at(t, ps, params.epsilon)


def ack_curve(params: CodeParams) -> np.ndarray:
    """ack_prob for every t in 0..n; bulk form used by the optimizers."""
    ps = decode_success_curve(params.k, params.n)
    out = np.zeros(params.n + 1)
    for t in range(params.k, params.n + 1):
        out[t] = _ack_at(t, ps, params.epsilon)
    return out


def round_length_law(params: CodeParams) -> RoundLengthLaw:
    """Distribution of the round length: symbol-by-symbol below n, atom at n.

    Pr(length = t) convolves the negative-binomial erasure count with the
    symbols-to-decode pmf for k <= t < n; whatever mass is left, including
    every failed round, sits at t = n.
    """
    k, n, eps = params.k, params.n, params.epsilon
    support = np.arange(k, n + 1)
    ps = decode_success_curve(k, n)
    r = np.arange(k, n + 1)
    pmf_decode = np.exp2(k - r.astype(float)) * ps[k:]
    pmf = np.zeros(n - k + 1)
    for t in range(k, n):
        rr = np.arange(k, t + 1)
        ee = t - rr
        if eps == 0.0:
            w = (ee == 0).astype(float)
        else:
            logw = gammaln(rr + ee) - gammaln(ee + 1) - gammaln(rr)
            logw = logw + rr * math.log1p(-eps) + ee * math.log(eps)
            w = np.exp(logw)
        pmf[t - k] = float(np.dot(w, pmf_decode[: t - k + 1]))
    pmf[-1] = max(0.0, 1.0 - float(pmf[:-1].sum()))
    return RoundLengthLaw(support, pmf)


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
    """Expected symbols transmitted per round under the given schedule.

    Uses the telescoped form sum_i (n_i - n_{i+1}) P_ack(n_i) + n_m, which is
    algebraically identical to weighting each stop point by the chance of
    first ACKing there plus the full length on NACK.
    """
    _check_schedule(params, schedule)
    ps = decode_success_curve(params.k, params.n)
    b = schedule.boundaries
    total = float(b[-1])
    for i in range(len(b) - 1):
        a = _ack_at(b[i], ps, params.epsilon) if b[i] >= params.k else 0.0
        total += (b[i] - b[i + 1]) * a
    return total


def throughput(params: CodeParams, schedule: Schedule) -> float:
    """Delivered information per transmitted symbol, k P_ack(n) / E[symbols]."""
    _check_schedule(params, schedule)
    return params.k * ack_prob(params, params.n) / expected_round_symbols(params, schedule)
