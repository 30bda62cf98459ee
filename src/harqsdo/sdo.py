"""Sub-block schedule selection.

The greedy recursion places boundary i by zeroing the partial derivative of
a smoothed copy of the expected-symbols objective, in which the discrete ACK
curve is replaced by a moment-matched normal or log-normal CDF.  Candidate
first boundaries are swept exhaustively and every candidate schedule is
scored with the exact discrete objective, so the smooth model only ever
decides where the interior boundaries land.  An exact dynamic program over
(slot, boundary) provides the ground-truth optimum SDO is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeParams, asymptotic_round_moments
from .channel import Schedule, ack_curve, expected_round_symbols, objective, throughput

__all__ = [
    "CdfModel",
    "OptimizerReport",
    "StepUnderflowError",
    "std_normal_ccdf",
    "std_normal_ccdf_prime",
    "sdo_step",
    "sdo_step_continuous",
    "sdo_schedule",
    "smoothed_expected_symbols",
    "optimize",
    "exhaustive_search",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class StepUnderflowError(ArithmeticError):
    """The model density underflowed, to zero or so far that the step is
    infinite; the caller should clamp at n."""


def std_normal_ccdf(x: float) -> float:
    """Q(x): upper-tail probability of a standard Gaussian, via erfc."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def std_normal_ccdf_prime(x: float) -> float:
    """Q'(x) = -exp(-x**2 / 2) / sqrt(2 pi)."""
    return -_INV_SQRT_2PI * math.exp(-0.5 * x * x)


@dataclass(frozen=True)
class CdfModel:
    """Moment-matched continuous stand-in for the ACK curve.

    kind is "normal" or "lognormal"; mu/sigma2 are the matched mean and
    variance, mu_star/sigma2_star the induced log-normal parameters.
    """

    kind: str
    mu: float
    sigma2: float
    mu_star: float
    sigma2_star: float

    def __post_init__(self) -> None:
        if self.kind not in ("normal", "lognormal"):
            raise ValueError(f"kind must be 'normal' or 'lognormal', got {self.kind!r}")
        if self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")

    @classmethod
    def from_moments(cls, kind: str, mean: float, variance: float) -> "CdfModel":
        if mean <= 0.0 or variance <= 0.0:
            raise ValueError("moment matching needs positive mean and variance")
        mu_star = math.log(mean * mean / math.sqrt(mean * mean + variance))
        sigma2_star = math.log1p(variance / (mean * mean))
        return cls(kind, mean, variance, mu_star, sigma2_star)

    @classmethod
    def for_params(cls, params: CodeParams, kind: str) -> "CdfModel":
        moments = asymptotic_round_moments(params.k, params.epsilon)
        return cls.from_moments(kind, moments.mean, moments.variance)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def sigma_star(self) -> float:
        return math.sqrt(self.sigma2_star)

    def cdf(self, x: float) -> float:
        if self.kind == "normal":
            return 1.0 - std_normal_ccdf((x - self.mu) / self.sigma)
        if x <= 0.0:
            return 0.0
        return 1.0 - std_normal_ccdf((math.log(x) - self.mu_star) / self.sigma_star)

    def pdf(self, x: float) -> float:
        if self.kind == "normal":
            z = (x - self.mu) / self.sigma
            return -std_normal_ccdf_prime(z) / self.sigma
        if x <= 0.0:
            return 0.0
        z = (math.log(x) - self.mu_star) / self.sigma_star
        return -std_normal_ccdf_prime(z) / (x * self.sigma_star)


@dataclass(frozen=True)
class OptimizerReport:
    """Chosen schedule with its exact objective and throughput."""

    schedule: Schedule
    objective: float
    throughput: float
    model_used: str
    n1_searched: tuple[int, int] | None


def sdo_step(model: CdfModel, n_prev2: float | None, n_prev1: float) -> float:
    """Next boundary: n_prev1 plus a ceiled increment, forced to be >= 1.

    The increment is always a positive integer, so integer boundaries stay
    integer.  n_prev2 is None when there is no predecessor; the model CDF
    then contributes 0, matching the -inf (normal) and 0 (log-normal)
    sentinels.  Raises StepUnderflowError when the density at n_prev1
    underflows.
    """
    ratio = _step_ratio(model, n_prev2, n_prev1)
    return n_prev1 + max(1, math.ceil(ratio))


def sdo_step_continuous(model: CdfModel, n_prev2: float | None, n_prev1: float) -> float:
    """The pre-ceiling, pre-clamp next boundary; used for stationarity checks."""
    return n_prev1 + _step_ratio(model, n_prev2, n_prev1)


def _step_ratio(model: CdfModel, n_prev2: float | None, n_prev1: float) -> float:
    if n_prev2 is not None and not n_prev2 < n_prev1:
        raise ValueError(f"need n_prev2 < n_prev1, got {n_prev2} >= {n_prev1}")
    f1 = model.cdf(n_prev1)
    f0 = 0.0 if n_prev2 is None else model.cdf(n_prev2)
    density = model.pdf(n_prev1)
    # a subnormal density underflows the step itself to inf
    ratio = (f1 - f0) / density if density > 0.0 else math.inf
    if not math.isfinite(ratio):
        raise StepUnderflowError(
            f"model density underflowed at {n_prev1}; clamp the schedule at n"
        )
    return ratio


def _schedule_from_model(model: CdfModel, n: int, m: int, n1: int) -> tuple[int, ...]:
    # Clamp every boundary to n - (sub-blocks still to place) so the boundaries
    # always finish strictly increasing at n_m = n, a valid Schedule.
    bounds = [min(n1, n - (m - 1))]
    prev2: float | None = None
    for slot in range(2, m):
        cap = n - (m - slot)
        try:
            nxt = sdo_step(model, prev2, bounds[-1])
        except StepUnderflowError:
            nxt = cap
        prev2 = bounds[-1]
        bounds.append(min(nxt, cap))
    bounds.append(n)
    return tuple(bounds)


def sdo_schedule(params: CodeParams, m: int, model_kind: str, n1: int) -> Schedule:
    """Full m-boundary schedule grown from n1 by the greedy recursion."""
    if m < 2:
        raise ValueError(f"sdo_schedule needs m >= 2, got {m}")
    if not params.k <= n1 < params.n:
        raise ValueError(f"need k <= n1 < n, got n1={n1} for k={params.k}, n={params.n}")
    model = CdfModel.for_params(params, model_kind)
    return Schedule(_schedule_from_model(model, params.n, m, n1))


def smoothed_expected_symbols(model: CdfModel, boundaries) -> float:
    """The objective with the ACK curve replaced by the model CDF.

    boundaries may be real-valued; the last entry plays the role of n.
    """
    b = list(boundaries)
    return objective(b, [model.cdf(x) for x in b[:-1]])


def _report(params: CodeParams, schedule: Schedule, model_used: str,
            n1_searched: tuple[int, int] | None) -> OptimizerReport:
    return OptimizerReport(
        schedule=schedule,
        objective=expected_round_symbols(params, schedule),
        throughput=throughput(params, schedule),
        model_used=model_used,
        n1_searched=n1_searched,
    )


def _n1_range(params: CodeParams, m: int) -> tuple[int, int]:
    lo, hi = params.k, params.n - m + 1
    if lo > hi:
        raise ValueError(
            f"no feasible schedule: need k + m - 1 <= n, got k={params.k}, "
            f"m={m}, n={params.n}"
        )
    return lo, hi


def optimize(params: CodeParams, m: int, model_kind: str = "normal") -> OptimizerReport:
    """Best schedule over all feasible first boundaries, scored exactly.

    Ties in the exact objective break toward the smaller first boundary.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m == 1:
        return _report(params, Schedule((params.n,)), model_kind, None)
    lo, hi = _n1_range(params, m)
    model = CdfModel.for_params(params, model_kind)
    curve = ack_curve(params).tolist()
    best_obj = math.inf
    best: tuple[int, ...] = ()
    for n1 in range(lo, hi + 1):
        candidate = _schedule_from_model(model, params.n, m, n1)
        obj = objective(candidate, [curve[x] for x in candidate])
        if obj < best_obj:
            best_obj = obj
            best = candidate
    return _report(params, Schedule(best), model_kind, (lo, hi))


def exhaustive_search(params: CodeParams, m: int) -> OptimizerReport:
    """Global minimizer of the exact objective over all boundary tuples.

    An exact backward dynamic program in O(m n**2) time: the objective
    n + sum_i (n_i - n_{i+1}) P_ack(n_i) couples only neighbouring
    boundaries, so F[i][x], the best tail cost with boundary i at x, is
    min over y > x of (x - y) P_ack(x) + F[i+1][y].  Interior boundaries
    range over k..n-1.  Ties break lexicographically toward smaller
    boundaries, as a full enumeration in lexicographic order would.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m == 1:
        return _report(params, Schedule((params.n,)), "exhaustive", None)
    lo, hi = _n1_range(params, m)
    n = params.n
    x = np.arange(params.k, n)
    c = ack_curve(params)[params.k : n]
    # step[a, b]: cost of boundary x[a] followed by x[b]; only b > a is allowed
    step = np.where(x[None, :] > x[:, None], (x[:, None] - x[None, :]) * c[:, None], np.inf)
    tails = [(x - n) * c]
    for _ in range(m - 2):
        tails.append((step + tails[-1]).min(axis=1))
    # tails[i][a]: least sum of the terms from slot i + 1 on, given n_{i+1} = x[a]
    tails.reverse()
    picks = [int(np.argmin(tails[0]))]
    for tail in tails[1:]:
        picks.append(int(np.argmin(step[picks[-1]] + tail)))
    return _report(params, Schedule(tuple(int(x[a]) for a in picks) + (n,)),
                   "exhaustive", (lo, hi))
