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
them.

A design point is solved once for all the m asked of it.  optimize_each
grows the rows once, as far as any of its m reads them, pads each m's
capped schedules with n up to the largest m (a padded slot adds +0.0) and
scores the candidates of every m together with channel.objective, the
package's one telescoped sum, one call per block of rows; each m takes
the first minimum of its own candidates.  The dynamic program's
recurrence does not depend on m, so exhaustive_search_each fills the
tails once, as deep as the largest m, and backtracks each m from its own.
optimize and exhaustive_search are the one-m case of these.
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
    "optimize_each",
    "exhaustive_search",
    "exhaustive_search_each",
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


def _grown(t: _Trajectories, n: int, ms: tuple[int, ...], lo: int, hi: int) -> np.ndarray:
    """The uncapped trajectories from first boundaries lo..hi, as far as any m in ms reads them.

    ms is ascending, every m at least 2.  Row n1 - lo of the result is the
    trajectory b_1 = n1, b_{i+1} = _step(b_i), +inf past its end, as wide
    as t's longest row, at most max(ms) - 1.  An (n, m) schedule reads
    slots 1..m-1: each step is at least 1 and each cap n - (m - i) grows by
    1 per slot, so b_i - i never falls, and once the last boundary reaches
    its cap every later slot takes its cap.  So a row of s cells steps
    while its last boundary b_s has b_s - s < n - m' for m', the smallest m
    in ms with m - 1 > s: a smaller m has more room under its caps, and a
    larger one reads the same slots later.  A row that m' does not read,
    n1 > n - m' + 1, fails the test, as b_s - s >= n1 - 1.  One array test
    finds the rows that need another step; only those are stepped, with
    scalar state, and their new cells are written back into t's matrix
    with one assignment.
    """
    t.resize(hi + 1, 1)
    # room[s]: n - m' for a row of s cells; -1 from max(ms) - 1 on, as b_s - s >= 0
    room: list[int] = []
    for m in ms:
        room += [n - m] * (m - 1 - len(room))
    room.append(-1)
    sizes, width = t.lens[lo : hi + 1], t.b.shape[1]
    # each row's last cell, +inf once the row has ended, by one flat index
    ends = t.b.ravel()[np.arange(lo * width - 1, hi * width, width) + sizes]
    need = np.nonzero(ends - sizes < np.array(room).take(sizes, mode="clip"))[0]
    if need.size:
        rows, cols, cells, lens = [], [], [], []
        for row, size, cur in zip((lo + need).tolist(), sizes[need].tolist(), ends[need].tolist()):
            # _step put F into known at every boundary this row stepped from
            f_prev = t.known[t.b[row, size - 2]][0] if size > 1 else 0.0
            while cur - size < room[size]:
                cur, f_prev = _step(t, cur, f_prev)
                rows.append(row)
                cols.append(size)
                cells.append(cur)
                size += 1
            lens.append(size)
        t.resize(hi + 1, max(lens))
        t.b[rows, cols] = cells
        t.lens[lo + need] = lens
    return t.b[lo : hi + 1, : min(ms[-1] - 1, t.b.shape[1])]


def _capped(rows: np.ndarray, n: int, m: int, out: np.ndarray) -> np.ndarray:
    """out, filled with the (n, m) schedule over each uncapped trajectory.

    Slot i is min(b_i, n - (m - i)).  Slots past a row's end, or past the
    rows' width, take their caps, and slot m is n, as is every slot after
    it up to out's width.  The boundaries are integers held as floats.
    """
    out[:, :m] = np.arange(n - m + 1, n + 1)  # slot i's cap; slot m is n
    if m < out.shape[1]:
        out[:, m:] = n
    width = min(rows.shape[1], m - 1)
    np.minimum(out[:, :width], rows[:, :width], out=out[:, :width])
    return out


# Cells formed per block of rows; bounds the scoring and search memory.
_BLOCK_CELLS = 1 << 16


def _best(rows: np.ndarray, n: int, ms: tuple[int, ...],
          ack: np.ndarray) -> list[tuple[float, list[int]]]:
    """Each m's best (n, m) candidate, m in ms: its exact objective and its schedule.

    rows holds uncapped trajectories from first boundary k on, as _grown
    returns them for ms, ascending; m's candidates are its first
    len(rows) - (m - ms[0]) rows.  The candidates of every m are stacked,
    each m's after the smaller m's, and each schedule is padded with n up
    to max(ms) slots: a padded slot adds (n - n) ack[n] = +0.0 after the
    real terms, so each total is bit for bit the unpadded one.  The stack
    is capped and scored by channel.objective, as expected_round_symbols
    is, in blocks of at most _BLOCK_CELLS cells.  Each m keeps its first
    minimum, so ties break toward the smaller first boundary.
    """
    width = ms[-1]
    per_block = max(1, _BLOCK_CELLS // width)
    spans, total = [], 0  # (m, first, end): m's candidates fill places first..end-1
    for m in ms:
        spans.append((m, total, total + len(rows) - (m - ms[0])))
        total = spans[-1][2]
    best = [(math.inf, [])] * len(ms)
    for start in range(0, total, per_block):
        stop = min(total, start + per_block)
        b = np.empty((stop - start, width))
        pieces = [(j, m, max(first, start), min(end, stop), first)
                  for j, (m, first, end) in enumerate(spans) if first < stop and start < end]
        for _, m, lo, hi, first in pieces:
            _capped(rows[lo - first : hi - first], n, m, b[lo - start : hi - start])
        totals = objective(b, ack[b[:, :-1].astype(np.intp)])
        for j, m, lo, hi, _ in pieces:
            i = lo - start + int(np.argmin(totals[lo - start : hi - start]))
            if totals[i] < best[j][0]:  # an earlier block keeps a tie
                best[j] = (totals[i], b[i, :m].astype(int).tolist())
    return best


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


def _split_off_m1(params: CodeParams, ms, model_used: str) -> tuple[dict, tuple[int, ...]]:
    """The m = 1 report, keyed by 1, if ms holds 1, and the other m of ms, distinct, ascending.

    The least m must be >= 1 and the largest must fit a schedule; m = 1 is
    the one schedule (n).
    """
    ms = tuple(sorted(set(ms)))
    _check_m(ms[0])
    if not _feasible(params.k, params.n, ms[-1]):  # a larger m needs a larger n
        raise ValueError(
            f"no feasible schedule: need k + m - 1 <= n, got k={params.k}, "
            f"m={ms[-1]}, n={params.n}"
        )
    if ms[0] > 1:
        return {}, ms
    return {1: _report(params, Schedule((params.n,)), model_used, None)}, ms[1:]


def optimize_each(params: CodeParams, ms,
                  model_kind: str = "normal") -> dict[int, OptimizerReport]:
    """optimize's report for every m in ms, keyed by m, from one solve.

    The trajectories are grown once, as far as any m reads them, and the
    candidates of every m >= 2 are scored together, so a design point
    makes one channel.objective call per block however many m it asks.
    Each m takes the first minimum of its own candidates.
    """
    reports, split = _split_off_m1(params, ms, model_kind)
    if not split:
        return reports
    k, n = params.k, params.n
    rows = _grown(_trajectories(k, params.epsilon, model_kind), n, split, k, n - split[0] + 1)
    for m, (value, schedule) in zip(split, _best(rows, n, split, ack_curve(params))):
        reports[m] = _report(params, Schedule(tuple(schedule)), model_kind, (k, n - m + 1), value)
    return reports


def optimize(params: CodeParams, m: int, model_kind: str = "normal") -> OptimizerReport:
    """Best schedule over all feasible first boundaries, scored exactly.

    Ties in the exact objective break toward the smaller first boundary.
    """
    return optimize_each(params, (m,), model_kind)[m]


def _steps(x: np.ndarray, c: np.ndarray, start: int, stop: int) -> np.ndarray:
    """step[a - start, b - start] = (x[a] - x[b]) c[a], the cost of boundary x[a]
    followed by x[b], for rows start <= a < stop and columns b >= start; +inf
    where b <= a."""
    a, b = x[start:stop, None], x[None, start:]
    return np.where(b > a, (a - b) * c[start:stop, None], np.inf)


def exhaustive_search_each(params: CodeParams, ms) -> dict[int, OptimizerReport]:
    """exhaustive_search's report for every m in ms, keyed by m, from one backward pass.

    The pass fills the tails of the largest m; every smaller m backtracks
    from its own tail, as the recurrence does not depend on m.
    """
    reports, split = _split_off_m1(params, ms, "exhaustive")
    if not split:
        return reports
    n = params.n
    x = np.arange(params.k, n)
    c = ack_curve(params)[params.k : n]
    # tails[j][a]: least sum of the last j + 1 terms, the first of them at boundary x[a]
    tails = np.empty((split[-1] - 1, len(x)))
    tails[0] = (x - n) * c
    if len(tails) > 1:
        per_block = max(1, _BLOCK_CELLS // len(x))
        # a row's tails read only later rows' and its own shorter tails: blocks go bottom up
        for stop in range(len(x), 0, -per_block):
            start = max(0, stop - per_block)
            step = _steps(x, c, start, stop)
            for j in range(len(tails) - 1):
                tails[j + 1, start:stop] = (step + tails[j, start:]).min(axis=1)
    for m in split:
        picks = [int(np.argmin(tails[m - 2]))]
        for tail in tails[: m - 2][::-1]:  # not tails[m - 3::-1], all of tails at m = 2
            # _steps's row for the last pick, less its +inf: the next boundary lies past it
            a = picks[-1] + 1
            picks.append(a + int(np.argmin((x[a - 1] - x[a:]) * c[a - 1] + tail[a:])))
        reports[m] = _report(params, Schedule(tuple(int(x[a]) for a in picks) + (n,)),
                             "exhaustive", (params.k, n - m + 1))
    return reports


def exhaustive_search(params: CodeParams, m: int) -> OptimizerReport:
    """Global minimizer of the exact objective over all boundary tuples.

    An exact backward dynamic program in O(m n**2) time: the objective
    n + sum_i (n_i - n_{i+1}) P_ack(n_i) couples only neighbouring
    boundaries, so F[i][x], the best tail cost with boundary i at x, is
    min over y > x of (x - y) P_ack(x) + F[i+1][y].  The recurrence does
    not depend on m: the tail with j boundaries left serves every m, so
    one backward pass, as deep as the largest m, serves every m of a
    design point (exhaustive_search_each).  Interior boundaries range over
    k..n-1.  Ties break lexicographically toward smaller boundaries, as a
    full enumeration in lexicographic order would.  The step costs are
    formed in blocks of at most _BLOCK_CELLS, so memory stays O(m n) plus
    one block.
    """
    return exhaustive_search_each(params, (m,))[m]
