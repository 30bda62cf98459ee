"""Sub-block schedule selection.

The greedy recursion places boundary i by zeroing the partial derivative of
a smoothed copy of the expected-symbols objective, in which the discrete ACK
curve is replaced by a moment-matched normal or log-normal CDF.  Candidate
first boundaries are swept exhaustively and every candidate schedule is
scored with the exact discrete objective, so the smooth model only ever
decides where the interior boundaries land.  An exact dynamic program over
(slot, boundary) provides the ground-truth optimum SDO is measured against.

The model depends on (k, epsilon, kind) only, not on n or m, so the
recursion from a first boundary n1 is grown once without caps and shared by
every (n, m): the schedule's slot i is min(b_i, n - (m - i)) and its last
slot is n.  The uncapped trajectories of the last few models are cached and
grown only as far as a schedule asked so far reads them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeParams, asymptotic_round_moments
from .channel import Schedule, ack_curve, ack_prob, expected_round_symbols
from .channel import throughput  # noqa: F401  # unused here; perfbench traces it by this name

__all__ = [
    "CdfModel",
    "OptimizerReport",
    "std_normal_ccdf",
    "std_normal_ccdf_prime",
    "optimize",
    "exhaustive_search",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


@functools.lru_cache(maxsize=4)
def _trajectories(model: CdfModel) -> tuple[dict, dict]:
    """The model's uncapped trajectories grown so far, and F at each one's
    boundary before the last, both keyed by first boundary."""
    return {}, {}


def _grown(model: CdfModel, n: int, m: int, firsts) -> list[list]:
    """The uncapped trajectory from each first boundary, as far as (n, m) reads it.

    b_1 = n1 and b_{i+1} = b_i + max(1, ceil(r)), r = (F(b_i) - F(b_{i-1})) /
    F'(b_i), F(b_0) = 0; an infinite r, from an underflowed density included,
    ends the trajectory with +inf.  A trajectory grows until slots 1..m-1 of
    an (n, m) schedule are known: each step is at least 1 and each cap
    n - (m - i) grows by 1 per slot, so b_i - i never falls, and once the last
    boundary reaches its cap every later slot takes its cap.
    """
    rows, f_before_last = _trajectories(model)
    out = []
    for n1 in firsts:
        b = rows.get(n1) or rows.setdefault(n1, [n1])
        while len(b) < m - 1 and b[-1] - len(b) < n - m:
            cur = b[-1]
            f_cur = model.cdf(cur)
            density = model.pdf(cur)
            f_prev = f_before_last.get(n1, 0.0)
            ratio = (f_cur - f_prev) / density if density > 0.0 else math.inf
            b.append(math.inf if ratio == math.inf else cur + max(1, math.ceil(ratio)))
            f_before_last[n1] = f_cur
        out.append(b)
    return out


def _schedule_from_model(model: CdfModel, n: int, m: int, n1: int) -> tuple[int, ...]:
    """The m boundaries SDO grows from a first boundary n1 <= n - m + 1.

    Boundary n_i, i = 2..m-1, zeroes the smoothed objective's derivative in
    n_{i-1}: n_i = n_{i-1} + max(1, ceil(r)), r = (F(n_{i-1}) - F(n_{i-2})) /
    F'(n_{i-1}), F(n_0) = 0.  When r is at least the room left below n_i's cap
    n - (m - i), an infinite r from an underflowed density included, n_i takes
    its cap, and so does every later boundary, as each step is at least 1:
    the schedule ends strictly increasing at n_m = n.  The room is an integer,
    so r reaches it exactly when the uncapped boundary reaches the cap:
    n_i = min(b_i, n - (m - i)) over the trajectory b that _grown keeps.
    """
    b = _grown(model, n, m, (n1,))[0]
    bounds = [n1] + [min(x, n - (m - i)) for i, x in enumerate(b[1 : m - 1], 2)]
    bounds.extend(range(n - m + len(bounds) + 1, n + 1))
    return tuple(bounds)


# Boundaries scored per block of candidates; bounds the scoring memory.
_BLOCK_CELLS = 1 << 16


def _scores(rows: list[list], n: int, m: int, ack: np.ndarray) -> np.ndarray:
    """The exact objective of each row's (n, m) schedule, in row order.

    The objective n + sum_i (n_i - n_{i+1}) ack[n_i] is summed left to right
    over slots for all rows at once, the same IEEE operations in the same
    order as channel.objective.  Rows are uncapped trajectories; slots past
    the longest row are caps alike for every row and stay scalars.
    """
    caps = np.arange(n - m + 1, n + 1, dtype=float)  # slot i's cap; slot m is n
    per_block = max(1, _BLOCK_CELLS // min(m - 1, max(map(len, rows))))
    out = []
    for start in range(0, len(rows), per_block):
        block = rows[start : start + per_block]
        width = min(m - 1, max(map(len, block)))
        # one array row per slot, +inf past each trajectory's end, then capped
        slots = itertools.zip_longest(*block, fillvalue=math.inf)
        b = np.array(list(itertools.islice(slots, width)), dtype=float)
        np.minimum(b, caps[:width, None], out=b)
        total = np.full(b.shape[1], float(n))
        cur = b[0]
        for j in range(1, m):
            nxt = b[j] if j < width else caps[j]
            total += (cur - nxt) * ack[cur.astype(np.intp)]
            cur = nxt
        out.append(total)
    return np.concatenate(out)


def _report(params: CodeParams, schedule: Schedule, model_used: str,
            n1_searched: tuple[int, int] | None) -> OptimizerReport:
    value = expected_round_symbols(params, schedule)
    return OptimizerReport(
        schedule=schedule,
        objective=value,
        throughput=params.k * ack_prob(params, params.n) / value,  # as throughput()
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
    totals = _scores(_grown(model, params.n, m, range(lo, hi + 1)), params.n, m,
                     ack_curve(params))
    best = _schedule_from_model(model, params.n, m, lo + int(np.argmin(totals)))
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
