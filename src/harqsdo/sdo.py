"""Sub-block schedule selection.

The greedy recursion places boundary i by zeroing the partial derivative of
a smoothed copy of the expected-symbols objective, in which the discrete ACK
curve is replaced by a moment-matched normal or log-normal CDF.  Candidate
first boundaries are swept exhaustively and every candidate schedule is
scored with the exact discrete objective, so the smooth model only ever
decides where the interior boundaries land.  An exact dynamic program over
(slot, boundary) provides the ground-truth optimum SDO is measured against.

The model depends on (k, epsilon, kind) only, not on n or m, so it is
built once per (k, epsilon, kind), and the recursion from a first boundary
n1 is grown once without caps and shared by every (n, m): _capped reads
the schedule's slot i as min(b_i, n - (m - i)) and its last slot as n.
Each of the last few (k, epsilon, kind) keeps its model, its uncapped
trajectories as one float matrix, a row per first boundary and +inf past
each row's end, each row's length, and F and F' at every boundary stepped
from, evaluated once however many rows step from it; a row resumes from
these alone.  The rows grow only as far as a schedule asked so far reads
them.  optimize caps a block of rows at once and scores it with
channel.objective, the package's one telescoped sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeParams, asymptotic_round_moments
from .channel import Schedule, ack_curve, ack_prob, expected_round_symbols, objective
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

    @functools.cached_property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @functools.cached_property
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


class _Trajectories:
    """A model's uncapped trajectories grown so far, row n1 from first boundary n1.

    Every row steps under model, the CDF F.  b[n1, i] is boundary i + 1 of
    the trajectory from n1, and +inf past its lens[n1] known cells; b is as
    wide as its longest row.  known maps each boundary stepped from so far
    to (F, F') there, which many rows share; a row's last boundary and F at
    the one before it, all a further step needs, are read from b and known.
    """

    def __init__(self, model: CdfModel) -> None:
        self.model = model
        self.b = np.empty((0, 1))
        self.lens = np.empty(0, dtype=np.intp)
        self.known: dict[float, tuple[float, float]] = {}

    def resize(self, rows: int, width: int) -> None:
        """Grow b to at least rows x width: new cells +inf, a fresh row its first boundary."""
        old_rows, old_width = self.b.shape
        if rows <= old_rows and width <= old_width:
            return
        rows = max(rows, 2 * old_rows) if rows > old_rows else old_rows  # rows at least double
        b = np.full((rows, max(width, old_width)), np.inf)
        b[:old_rows, :old_width] = self.b
        b[old_rows:, 0] = np.arange(old_rows, rows)
        self.b = b
        self.lens = np.concatenate([self.lens, np.ones(rows - old_rows, dtype=np.intp)])


@functools.lru_cache(maxsize=4)
def _trajectories(k: int, epsilon: float, kind: str) -> _Trajectories:
    """The (k, epsilon, kind) model and its uncapped trajectories grown so far."""
    # the model reads k and epsilon alone, so n = k serves for every n
    return _Trajectories(CdfModel.for_params(CodeParams(k, k, epsilon), kind))


def _step(t: _Trajectories, b: float, f_before: float) -> tuple[float, float]:
    """The boundary after b, and F(b): b + max(1, ceil(r)), r = (F(b) - f_before) / F'(b).

    F is t's model.  f_before is F at the boundary before b, 0 for a first
    boundary.  An infinite r, from an underflowed density included, gives
    +inf.  t.known holds (F(x), F'(x)) by x, read if there and filled if not.
    """
    pair = t.known.get(b)
    if pair is None:
        pair = t.known[b] = t.model.cdf(b), t.model.pdf(b)
    f_cur, density = pair
    if density > 0.0:
        ratio = (f_cur - f_before) / density
        if ratio != math.inf:
            return b + (math.ceil(ratio) if ratio > 1.0 else 1), f_cur  # max(1, ceil(r))
    return math.inf, f_cur


def _grown(t: _Trajectories, n: int, m: int, lo: int, hi: int) -> np.ndarray:
    """The uncapped trajectories from first boundaries lo..hi, as far as (n, m) reads them.

    Row n1 - lo of the result is the trajectory b_1 = n1, b_{i+1} =
    _step(b_i), +inf past its end, as wide as t's longest row, at most
    m - 1.  A trajectory grows until slots 1..m-1 of an (n, m) schedule are
    known: each step is at least 1 and each cap n - (m - i) grows by 1 per
    slot, so b_i - i never falls, and once the last boundary reaches its cap
    every later slot takes its cap.  One array test finds the rows that need
    another step; only those are stepped, with scalar state, and their new
    cells are written back into t's matrix with one assignment.
    """
    t.resize(hi + 1, 1)
    last_slot, room = m - 1, n - m
    sizes, width = t.lens[lo : hi + 1], t.b.shape[1]
    # each row's last cell, +inf once the row has ended, by one flat index
    ends = t.b.ravel()[np.arange(lo * width - 1, hi * width, width) + sizes]
    need = np.nonzero((sizes < last_slot) & (ends - sizes < room))[0]
    if need.size:
        rows, cols, cells, lens = [], [], [], []
        for row, size, cur in zip((lo + need).tolist(), sizes[need].tolist(), ends[need].tolist()):
            # _step put F into known at every boundary this row stepped from
            f_prev = t.known[t.b[row, size - 2]][0] if size > 1 else 0.0
            while size < last_slot and cur - size < room:
                cur, f_prev = _step(t, cur, f_prev)
                rows.append(row)
                cols.append(size)
                cells.append(cur)
                size += 1
            lens.append(size)
        t.resize(hi + 1, max(lens))
        t.b[rows, cols] = cells
        t.lens[lo + need] = lens
    return t.b[lo : hi + 1, : min(last_slot, t.b.shape[1])]


def _capped(rows: np.ndarray, n: int, m: int) -> np.ndarray:
    """The (n, m) schedule over each uncapped trajectory: slot i is min(b_i, n - (m - i)).

    Slots past a row's end, or past the rows' width, take their caps, and
    slot m is n.  The boundaries are integers held as floats.
    """
    out = np.empty((len(rows), m))
    out[:] = np.arange(n - m + 1, n + 1)  # slot i's cap; slot m is n
    width = min(rows.shape[1], m - 1)
    np.minimum(out[:, :width], rows[:, :width], out=out[:, :width])
    return out


# Cells formed per block of rows; bounds the scoring and search memory.
_BLOCK_CELLS = 1 << 16


def _scores(rows: np.ndarray, n: int, m: int, ack: np.ndarray) -> np.ndarray:
    """The exact objective of each row's (n, m) schedule, in row order.

    rows holds uncapped trajectories, as _grown returns them.  Each block of
    rows is capped and scored by channel.objective, as expected_round_symbols is.
    """
    per_block = max(1, _BLOCK_CELLS // m)
    out = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], per_block):
        b = _capped(rows[start : start + per_block], n, m)
        out[start : start + per_block] = objective(b, ack[b[:, :-1].astype(np.intp)])
    return out


def _report(params: CodeParams, schedule: Schedule, model_used: str,
            n1_searched: tuple[int, int] | None, value: float | None = None) -> OptimizerReport:
    """The schedule's report; value is its exact objective, if already known."""
    value = expected_round_symbols(params, schedule) if value is None else float(value)
    return OptimizerReport(
        schedule=schedule,
        objective=value,
        throughput=params.k * ack_prob(params, params.n) / value,  # as throughput()
        model_used=model_used,
        n1_searched=n1_searched,
    )


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def _feasible(k: int, n: int, m: int) -> bool:
    """Whether an m-slot schedule fits: m - 1 boundaries in k..n-1, then n."""
    return k + m - 1 <= n


def _n1_range(params: CodeParams, m: int) -> tuple[int, int]:
    if not _feasible(params.k, params.n, m):
        raise ValueError(
            f"no feasible schedule: need k + m - 1 <= n, got k={params.k}, "
            f"m={m}, n={params.n}"
        )
    return params.k, params.n - m + 1


def optimize(params: CodeParams, m: int, model_kind: str = "normal") -> OptimizerReport:
    """Best schedule over all feasible first boundaries, scored exactly.

    Ties in the exact objective break toward the smaller first boundary.
    """
    _check_m(m)
    if m == 1:
        return _report(params, Schedule((params.n,)), model_kind, None)
    lo, hi = _n1_range(params, m)
    rows = _grown(_trajectories(params.k, params.epsilon, model_kind), params.n, m, lo, hi)
    totals = _scores(rows, params.n, m, ack_curve(params))
    best = int(np.argmin(totals))
    winner = _capped(rows[best : best + 1], params.n, m)[0].astype(int)  # Schedule's fast path
    return _report(params, Schedule(tuple(winner.tolist())), model_kind, (lo, hi), totals[best])


def _steps(x: np.ndarray, c: np.ndarray, start: int, stop: int) -> np.ndarray:
    """step[a - start, b - start] = (x[a] - x[b]) c[a], the cost of boundary x[a]
    followed by x[b], for rows start <= a < stop and columns b >= start; +inf
    where b <= a."""
    a, b = x[start:stop, None], x[None, start:]
    return np.where(b > a, (a - b) * c[start:stop, None], np.inf)


def exhaustive_search(params: CodeParams, m: int) -> OptimizerReport:
    """Global minimizer of the exact objective over all boundary tuples.

    An exact backward dynamic program in O(m n**2) time: the objective
    n + sum_i (n_i - n_{i+1}) P_ack(n_i) couples only neighbouring
    boundaries, so F[i][x], the best tail cost with boundary i at x, is
    min over y > x of (x - y) P_ack(x) + F[i+1][y].  Interior boundaries
    range over k..n-1.  Ties break lexicographically toward smaller
    boundaries, as a full enumeration in lexicographic order would.  The
    step costs are formed in blocks of at most _BLOCK_CELLS, so memory
    stays O(m n) plus one block.
    """
    _check_m(m)
    if m == 1:
        return _report(params, Schedule((params.n,)), "exhaustive", None)
    lo, hi = _n1_range(params, m)
    n = params.n
    x = np.arange(params.k, n)
    c = ack_curve(params)[params.k : n]
    # tails[j][a]: least sum of the last j + 1 terms, the first of them at boundary x[a]
    tails = np.empty((m - 1, len(x)))
    tails[0] = (x - n) * c
    per_block = max(1, _BLOCK_CELLS // len(x))
    # a row's tails read only later rows' and its own shorter tails: blocks go bottom up
    for stop in range(len(x), 0, -per_block):
        start = max(0, stop - per_block)
        step = _steps(x, c, start, stop)
        for j in range(m - 2):
            tails[j + 1, start:stop] = (step + tails[j, start:]).min(axis=1)
    picks = [int(np.argmin(tails[-1]))]
    for tail in tails[-2::-1]:
        a = picks[-1]
        picks.append(a + int(np.argmin(_steps(x, c, a, a + 1)[0] + tail[a:])))
    return _report(params, Schedule(tuple(int(x[a]) for a in picks) + (n,)),
                   "exhaustive", (lo, hi))
