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
slot is n.  Each of the last few models keeps its uncapped trajectories as
one float matrix, a row per first boundary and +inf past each row's end,
grown only as far as a schedule asked so far reads them, with F and F'
evaluated once per boundary however many rows step from it.  optimize
scores a block of rows at once and reports the winning row's score as its
objective.
"""

from __future__ import annotations

import functools
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
    """One model's uncapped trajectories grown so far, row n1 from first boundary n1.

    b[n1, i] is boundary i + 1 of the trajectory from n1, and +inf past its
    lens[n1] known cells; b is as wide as its longest row.  slack[n1] is the
    row's last boundary minus lens[n1] (+inf once the row has ended), and
    f_before[n1] is F at the row's boundary before the last (0 while it has
    none).  known maps each boundary stepped from so far to (F, F') there,
    which many rows share.
    """

    def __init__(self) -> None:
        self.b = np.empty((0, 1))
        self.lens = np.empty(0, dtype=np.intp)
        self.slack = np.empty(0)
        self.f_before = np.empty(0)
        self.known: dict[float, tuple[float, float]] = {}

    def add_rows(self, stop: int) -> None:
        """Rows up to stop - 1, each fresh row just its first boundary."""
        first = len(self.lens)
        b = np.full((stop, self.b.shape[1]), np.inf)
        b[:first] = self.b
        b[first:, 0] = np.arange(first, stop)
        self.b = b
        self.lens = np.concatenate([self.lens, np.ones(stop - first, dtype=np.intp)])
        self.slack = np.concatenate([self.slack, b[first:, 0] - 1.0])
        self.f_before = np.concatenate([self.f_before, np.zeros(stop - first)])

    def widen(self, width: int) -> None:
        """b padded with +inf to width columns."""
        b = np.full((len(self.b), width), np.inf)
        b[:, : self.b.shape[1]] = self.b
        self.b = b


@functools.lru_cache(maxsize=4)
def _trajectories(model: CdfModel) -> _Trajectories:
    """The model's uncapped trajectories grown so far."""
    return _Trajectories()


def _step(model: CdfModel, b: float, f_before: float, known: dict) -> tuple[float, float]:
    """The boundary after b, and F(b): b + max(1, ceil(r)), r = (F(b) - f_before) / F'(b).

    f_before is F at the boundary before b, 0 for a first boundary.  An
    infinite r, from an underflowed density included, gives +inf.  known
    holds (F(x), F'(x)) by x, read if there and filled if not.
    """
    pair = known.get(b)
    if pair is None:
        pair = known[b] = model.cdf(b), model.pdf(b)
    f_cur, density = pair
    if density > 0.0:
        ratio = (f_cur - f_before) / density
        if ratio != math.inf:
            return b + (math.ceil(ratio) if ratio > 1.0 else 1), f_cur  # max(1, ceil(r))
    return math.inf, f_cur


def _grown(model: CdfModel, n: int, m: int, lo: int, hi: int) -> np.ndarray:
    """The uncapped trajectories from first boundaries lo..hi, as far as (n, m) reads them.

    Row n1 - lo of the result is the trajectory b_1 = n1, b_{i+1} =
    _step(b_i), +inf past its end, read from the model's trajectory matrix;
    the result is as wide as the model's longest row, at most m - 1.  A
    trajectory grows until slots 1..m-1 of an (n, m) schedule are known: each
    step is at least 1 and each cap n - (m - i) grows by 1 per slot, so
    b_i - i never falls, and once the last boundary reaches its cap every
    later slot takes its cap.  One array test finds the rows that need
    another step; only those are stepped, with scalar state, and their new
    cells are written back with one assignment.
    """
    t = _trajectories(model)
    if len(t.lens) <= hi:
        t.add_rows(max(hi + 1, 2 * len(t.lens)))  # room for twice the rows asked
    last_slot, room = m - 1, n - m
    need = lo + np.nonzero((t.lens[lo : hi + 1] < last_slot) & (t.slack[lo : hi + 1] < room))[0]
    if need.size:
        rows, cols, cells, lens, slack, f_befores = [], [], [], [], [], []
        state = zip(need.tolist(), t.lens[need].tolist(), t.slack[need].tolist(),
                    t.f_before[need].tolist())
        for row, size, gap, f_prev in state:
            cur = gap + size
            while size < last_slot and cur - size < room:
                cur, f_prev = _step(model, cur, f_prev, t.known)
                rows.append(row)
                cols.append(size)
                cells.append(cur)
                size += 1
            lens.append(size)
            slack.append(cur - size)
            f_befores.append(f_prev)
        width = max(lens)
        if width > t.b.shape[1]:
            t.widen(width)
        t.b[rows, cols] = cells
        t.lens[need] = lens
        t.slack[need] = slack
        t.f_before[need] = f_befores
    return t.b[lo : hi + 1, : min(last_slot, t.b.shape[1])]


def _capped(row: np.ndarray, n: int, m: int) -> tuple[int, ...]:
    """The (n, m) schedule over an uncapped trajectory: slot i is min(b_i, n - (m - i)).

    Slots past the row's end take their caps, and slot m is n.
    """
    bounds = [int(x) if x < cap else cap
              for x, cap in zip(row[: m - 1].tolist(), range(n - m + 1, n))]
    bounds.extend(range(n - m + len(bounds) + 1, n + 1))
    return tuple(bounds)


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
    return _capped(_grown(model, n, m, n1, n1)[0], n, m)


# Cells formed per block of rows; bounds the scoring and search memory.
_BLOCK_CELLS = 1 << 16


def _scores(rows: np.ndarray, n: int, m: int, ack: np.ndarray) -> np.ndarray:
    """The exact objective of each row's (n, m) schedule, in row order.

    rows holds uncapped trajectories, as _grown returns them.  Each term
    (n_i - n_{i+1}) ack[n_i] is formed for a block of rows at once, and the
    objective n + sum_i of them is summed left to right over slots: the same
    IEEE operations in the same order as channel.objective.  Slots past the
    rows' width are caps alike for every row, so their terms are scalars.
    """
    caps = np.arange(n - m + 1, n + 1, dtype=float)  # slot i's cap; slot m is n
    width = rows.shape[1]
    per_block = max(1, _BLOCK_CELLS // (width + 1))
    out = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], per_block):
        block = rows[start : start + per_block]
        b = np.empty((len(block), width + 1))
        np.minimum(block, caps[:width], out=b[:, :width])
        b[:, width] = caps[width]
        # acc[:, j + 1] holds slot j + 1's term, and then the running sum from n
        acc = np.empty_like(b)
        acc[:, 0] = n
        np.multiply(b[:, :-1] - b[:, 1:], ack[b[:, :-1].astype(np.intp)], out=acc[:, 1:])
        np.add.accumulate(acc, axis=1, out=acc)
        out[start : start + per_block] = acc[:, -1]
    if width < m - 1:
        for term in (caps[width:-1] - caps[width + 1 :]) * ack[caps[width:-1].astype(np.intp)]:
            out += term
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
    rows = _grown(CdfModel.for_params(params, model_kind), params.n, m, lo, hi)
    totals = _scores(rows, params.n, m, ack_curve(params))
    best = int(np.argmin(totals))
    return _report(params, Schedule(_capped(rows[best], params.n, m)), model_kind, (lo, hi),
                   totals[best])


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
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
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
    # step is now the top block, rows from 0; a row below it is formed alone
    picks = [int(np.argmin(tails[-1]))]
    for tail in tails[-2::-1]:
        a = picks[-1]
        row = step[a, a:] if a < len(step) else _steps(x, c, a, a + 1)[0]
        picks.append(a + int(np.argmin(row + tail[a:])))
    return _report(params, Schedule(tuple(int(x[a]) for a in picks) + (n,)),
                   "exhaustive", (lo, hi))
