"""Sub-block schedule selection.

The greedy recursion places boundary i by zeroing the partial derivative of
a smoothed copy of the expected-symbols objective, in which the discrete ACK
curve is replaced by a moment-matched normal or log-normal CDF.  Candidate
first boundaries are swept exhaustively and every candidate schedule is
scored with the exact discrete objective, so the smooth model only ever
decides where the interior boundaries land.  An exact dynamic program over
(slot, boundary) provides the ground-truth optimum SDO is measured against.

A sweep row, every (n, m) of one (k, epsilon), is solved in one pass by
optimize_row, for each SDO model and for the dynamic program, "exhaustive".
The model depends on (k, epsilon, kind) only, not on n or m, so the row
builds it once per kind, and _trajectories steps the recursion from each
first boundary n1 once, without caps, as far as the largest n and its m
read it; F and F' are evaluated once per boundary.  The schedule's slot i
is min(b_i, n - (m - i)) and every slot from m on is n, both read from
_caps's per-(n, m) table of slot floors and ceilings.  The candidates of
every (model, n, m) are stacked.  Their ACK values come from the curves
the row is handed, one per n, gathered a chunk of n at a time, and
channel.objective, the package's one telescoped sum, scores them in
blocks of at most _BLOCK_CELLS cells, each padded with n only to the
widest m among its own groups (a padded slot adds +0.0); one segmented
reduction per block takes each group's first minimum.  Nothing is kept
between calls; optimize is the row's one-cell case.  The dynamic
program's recurrence does not depend on m, so _exhaustive fills the
tails once, as deep as the largest m, and backtracks each m from its
own.  It reads the curve it is handed: the row hands it each n's curve
as it reads it, and exhaustive_search_each hands it ack_curve's;
exhaustive_search is the one-m case.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeParams, asymptotic_round_moments
from .channel import Schedule, ack_curve, objective
# unused here; perfbench traces them by these names
from .channel import expected_round_symbols, throughput  # noqa: F401

__all__ = [
    "CdfModel",
    "OptimizerReport",
    "optimize",
    "optimize_row",
    "exhaustive_search",
    "exhaustive_search_each",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)


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

    def cdf_pdf(self, x: float) -> tuple[float, float]:
        """(F(x), F'(x)) from one z, with cdf's and pdf's expressions bit for bit."""
        if self.kind == "normal":
            z = (x - self.mu) / self.sigma
            scale = self.sigma
        elif x <= 0.0:
            return 0.0, 0.0
        else:
            z = (math.log(x) - self.mu_star) / self.sigma_star
            scale = x * self.sigma_star
        # 1 - Q(z) and -Q'(z) / scale, with Q(z) = erfc(z / sqrt(2)) / 2 the standard normal tail
        return 1.0 - 0.5 * math.erfc(z / _SQRT2), _INV_SQRT_2PI * math.exp(-0.5 * z * z) / scale

    def cdf(self, x: float) -> float:
        return self.cdf_pdf(x)[0]

    def pdf(self, x: float) -> float:
        return self.cdf_pdf(x)[1]


@dataclass(frozen=True)
class OptimizerReport:
    """Chosen schedule with its exact objective and throughput."""

    schedule: Schedule
    objective: float
    throughput: float
    model_used: str
    n1_searched: tuple[int, int] | None


def _trajectories(models, n: int, ms: tuple[int, ...], lo: int, hi: int) -> np.ndarray:
    """The uncapped trajectories of models from first boundaries lo..hi, stepped from scratch.

    Row j (hi - lo + 1) + n1 - lo of the result is the trajectory of
    models[j] from n1, as far as any (n, m), m in ms, reads it, and +inf
    past its end; the matrix is as wide as its longest row, at most
    max(ms) - 1 cells and at least 1.  The trajectory is b_1 = n1, b_{i+1} = b_i + max(1,
    ceil(r)) with r = (F(b_i) - F(b_{i-1})) / F'(b_i) and F(b_0) = 0,
    ended (+inf) once r is infinite, an underflowed density included.
    ms is ascending, every m at least 2, and may be empty.  An (n, m)
    schedule reads slots 1..m-1: each step is at least 1 and each cap
    n - (m - i) grows by 1 per slot, so b_i - i never falls, and once the
    last boundary reaches its cap every later slot takes its cap.  So a row
    of s cells steps while its last boundary b_s has b_s - s < n - m' for
    m', the smallest m in ms with m - 1 > s: a smaller m has more room
    under its caps, and a larger one reads the same slots later.  A row
    that m' does not read, n1 > n - m' + 1, takes no step, as b_s - s >=
    n1 - 1; and a smaller n reads no more of a row than n does.  F and F'
    come from one cdf_pdf call per model and boundary, however many rows
    step from it.
    """
    # room[s]: n - m' for a row of s cells; -1 from max(ms) - 1 on, as b_s - s >= 0
    room: list[int] = []
    for m in ms:
        room += [n - m] * (m - 1 - len(room))
    room += [-1, -1]  # a row of one cell reads room[1], also where ms is empty
    cells, lens = [], []
    for model in models:
        known, evaluate = {}, model.cdf_pdf
        for n1 in range(lo, hi + 1):
            cur, f_prev, size = float(n1), 0.0, 1
            cells.append(cur)
            while cur - size < room[size]:
                pair = known.get(cur)
                if pair is None:
                    pair = known[cur] = evaluate(cur)
                f_cur, density = pair
                ratio = (f_cur - f_prev) / density if density > 0.0 else math.inf
                if ratio == math.inf:
                    cur = math.inf
                else:
                    cur += math.ceil(ratio) if ratio > 1.0 else 1  # max(1, ceil(r))
                f_prev = f_cur
                cells.append(cur)
                size += 1
            lens.append(size)
    b = np.full((len(lens), max(lens, default=1)), np.inf)
    b[np.arange(b.shape[1]) < np.array(lens)[:, None]] = cells  # row by row, as cells holds them
    return b


def _caps(ns, ms, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The floor and ceiling of each of width slots of an (n, m) schedule, a row per (n, m).

    Slot i of the (n, m) schedule over an uncapped trajectory b is
    min(b_i, n - (m - i)) below m, and n from slot m on: a padded slot
    beyond m adds (n - n) ack[n] = +0.0 to the telescoped sum, so a block
    of schedules of several m scores each one bit for bit as its unpadded
    self.  Clipping b to the floor and ceiling rows applies both rules.
    The boundaries are integers held as floats.
    """
    to_m = np.asarray(ms)[:, None] - np.arange(1, width + 1)  # m - i, > 0 below slot m
    ceiling = np.asarray(ns, dtype=float)[:, None] - np.maximum(to_m, 0)
    return np.where(to_m > 0, 0.0, ceiling), ceiling


# Cells held per block: candidate schedules scored, DP step costs formed,
# ACK values of a sweep row gathered.  Bounds the solvers' memory.
_BLOCK_CELLS = 1 << 14


def _report(params: CodeParams, schedule: Schedule, model_used: str,
            n1_searched: tuple[int, int] | None, value: float, ack_n: float) -> OptimizerReport:
    """The schedule's report, from its exact objective and the ACK probability at n."""
    return OptimizerReport(
        schedule=schedule,
        objective=value,
        throughput=params.k * ack_n / value,  # as throughput()
        model_used=model_used,
        n1_searched=n1_searched,
    )


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def _feasible(k: int, n: int, m: int) -> bool:
    """Whether an m-slot schedule fits: m - 1 boundaries in k..n-1, then n."""
    return k + m - 1 <= n


def _checked(params: CodeParams, ms) -> tuple[int, ...]:
    """The m of ms, distinct and ascending; the least must be >= 1 and the largest must fit."""
    ms = tuple(sorted(set(ms)))
    _check_m(ms[0])
    if not _feasible(params.k, params.n, ms[-1]):  # a larger m needs a larger n
        raise ValueError(
            f"no feasible schedule: need k + m - 1 <= n, got k={params.k}, "
            f"m={ms[-1]}, n={params.n}"
        )
    return ms


def optimize_row(k: int, epsilon: float, cells, kinds, curves=None):
    """The reports of every (n, m, kind) of one sweep row (k, epsilon), from one pass.

    cells holds (n, ms) pairs, each n once.  kinds names SDO models,
    "normal" and "lognormal", and "exhaustive", the dynamic program.  For
    each cell, in order, this yields n and {kind: {m: report}} over the m
    of ms: an SDO model's report is optimize(CodeParams(k, n, epsilon), m,
    kind), and "exhaustive"'s is exhaustive_search's.  curves yields each
    cell's ACK curve, in cell order, as channel.ack_curves does; the row
    takes one per cell as it reaches it, so a caller may hand it a stream
    that runs on into later rows.  Without one, each cell's curve comes
    from channel.ack_curve, its cached one-point case.  It yields a chunk
    of cells at a time, so a caller holds only the reports it keeps.
    Every cell is checked before any work, and so before any curve is
    read.  Each model's trajectories are grown once, as far as the
    largest n and its m read them.  A chunk is a run of cells whose ACK
    values at k..n fit one table of at most _BLOCK_CELLS cells (one cell
    at least); the dynamic program runs on each curve as it is read.
    A chunk's candidates are stacked model by model, n by n, m ascending:
    first boundaries k..n-m+1 of the (model, n, m) group, or its one
    schedule (n) for m = 1.  They are capped from _caps's table and scored
    by channel.objective in blocks of at most _BLOCK_CELLS cells, each
    padded with n only to the widest m among its own groups; one segmented
    reduction per block gives each group's first minimum, and an earlier
    block keeps a tie, so ties break toward the smaller first boundary.
    """
    points = [(params, _checked(params, ms))
              for params, ms in ((CodeParams(k, n, epsilon), ms) for n, ms in cells)]
    curves = iter((ack_curve(params) for params, _ in points) if curves is None else curves)
    width = max(ms[-1] for _, ms in points)
    inner = tuple(sorted({m for _, ms in points for m in ms if m > 1}))
    # the model reads k and epsilon alone, so n = k serves for every n
    models = [CdfModel.for_params(CodeParams(k, k, epsilon), kind)
              for kind in kinds if kind != "exhaustive"]
    top = max(params.n for params, _ in points)
    last = top - inner[0] + 1 if inner else k  # m = 1 reads row k
    rows = _trajectories(models, top, inner, k, last)
    chunk, cells_held = [], 0
    for params, ms in points:
        if chunk and cells_held + params.n - k + 1 > _BLOCK_CELLS:
            yield from _score_chunk(k, chunk, kinds, models, rows, width, curves)
            chunk, cells_held = [], 0
        chunk.append((params, ms))
        cells_held += params.n - k + 1
    yield from _score_chunk(k, chunk, kinds, models, rows, width, curves)


def _score_chunk(k: int, chunk, kinds, models, rows: np.ndarray, width: int, curves) -> list:
    """optimize_row's (n, {kind: {m: report}}) for each design point of chunk.

    rows is _trajectories's matrix of models from first boundaries k on;
    curves yields the ACK curve of each design point of chunk, in order.
    width is at least every m of chunk; each scoring block is only as wide
    as the widest m among its own groups, so a block of small m is not
    padded to a wide one.
    """
    solved = [(params.n, {kind: {} for kind in kinds}) for params, _ in chunk]
    acks = np.empty(sum(params.n - k + 1 for params, _ in chunk))
    offsets, start = [], 0  # ack(t) of chunk[i] is acks[offsets[i] + t]
    for (params, ms), (_, by_kind) in zip(chunk, solved):
        curve = next(curves)
        acks[start : start + params.n - k + 1] = curve[k:]
        if "exhaustive" in by_kind:
            by_kind["exhaustive"] = _exhaustive(params, ms, curve)
        offsets.append(start - k)
        start += params.n - k + 1
    if not models:
        return solved
    # one model's (n, m) groups, n by n, m ascending; each model stacks the same
    groups = [(i, m) for i, (_, ms) in enumerate(chunk) for m in ms]
    ns = [chunk[i][0].n for i, _ in groups]
    ms = [m for _, m in groups]
    counts = [n - m - k + 2 if m > 1 else 1 for n, m in zip(ns, ms)] * len(models)
    ends = np.cumsum(counts)
    starts = ends - counts
    # candidate place p of group g is first boundary k + p - starts[g], read from row p + origin[g]
    origin = np.repeat(np.arange(len(models)) * (len(rows) // len(models)), len(groups)) - starts
    floor, ceiling = _caps(ns * len(models), ms * len(models), width)
    group_offsets = np.array([offsets[i] for i, _ in groups] * len(models))
    total = int(ends[-1])
    ends_at, group_m = ends.tolist(), np.array(ms * len(models))
    # each group's least total so far, and the block and row of its schedule
    least_of, block_of, row_of = [math.inf] * len(counts), [None] * len(counts), [0] * len(counts)
    lo = 0
    while lo < total:
        # the block from lo is as long as its widest m allows: it runs through
        # group g while (places so far) x (widest m of groups first..g) fits
        first = bisect.bisect_right(ends_at, lo)
        reach = bisect.bisect_right(ends_at, min(total, lo + _BLOCK_CELLS) - 1) + 1
        widest = np.maximum.accumulate(group_m[first:reach])
        cap = lo + _BLOCK_CELLS // widest
        short = np.flatnonzero(cap < ends[first:reach])
        if len(short):  # the block stops in that group, or where it starts
            hi = max(int(cap[short[0]]), int(starts[first + short[0]]), lo + 1)
        else:
            hi = ends_at[reach - 1]
        last = bisect.bisect_right(ends_at, hi - 1)
        wide = int(widest[last - first])
        places = np.arange(lo, hi)
        g = np.searchsorted(ends, places, side="right")
        b = np.full((hi - lo, wide), np.inf)
        read = min(wide, rows.shape[1])
        b[:, :read] = rows[places + origin[g], :read]
        np.maximum(b, floor[g, :wide], out=b)
        np.minimum(b, ceiling[g, :wide], out=b)
        index = b[:, :-1].astype(np.intp)
        index += group_offsets[g][:, None]
        totals = objective(b, acks[index])
        seams = np.maximum(starts[first : last + 1] - lo, 0)
        least = np.minimum.reduceat(totals, seams)
        hits = np.flatnonzero(totals == least[g - first])
        # each group's first minimum, its schedule read when the group's report is made
        chosen = b[hits[np.searchsorted(hits, seams)]].astype(np.intp)
        for j, value in enumerate(least.tolist(), first):
            if value < least_of[j]:  # an earlier block keeps a tie
                least_of[j], block_of[j], row_of[j] = value, chosen, j - first
        lo = hi
    for j, (model, (i, m)) in enumerate(itertools.product(models, groups)):
        params = chunk[i][0]
        n = params.n
        solved[i][1][model.kind][m] = _report(
            params, Schedule(block_of[j][row_of[j], :m].tolist()), model.kind,
            (k, n - m + 1) if m > 1 else None, least_of[j], float(acks[offsets[i] + n]))
    return solved


def optimize(params: CodeParams, m: int, model_kind: str = "normal") -> OptimizerReport:
    """Best schedule over all feasible first boundaries, scored exactly.

    Ties in the exact objective break toward the smaller first boundary.
    This is optimize_row's one-cell case.
    """
    [(_, by_kind)] = optimize_row(params.k, params.epsilon, [(params.n, (m,))], (model_kind,))
    return by_kind[model_kind][m]


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
    return _exhaustive(params, _checked(params, ms), ack_curve(params))


def _exhaustive(params: CodeParams, ms: tuple[int, ...],
                curve: np.ndarray) -> dict[int, OptimizerReport]:
    """exhaustive_search_each's reports for the checked ms, from the design point's ACK curve."""
    n = params.n

    def report(schedule: Schedule, n1_searched: tuple[int, int] | None) -> OptimizerReport:
        b = schedule.boundaries  # scored as expected_round_symbols scores it
        return _report(params, schedule, "exhaustive", n1_searched,
                       objective(b, curve[list(b)]), float(curve[n]))

    reports = {1: report(Schedule((n,)), None)} if ms[0] == 1 else {}
    split = ms[1:] if ms[0] == 1 else ms
    if not split:
        return reports
    x = np.arange(params.k, n)
    c = curve[params.k : n]
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
        reports[m] = report(Schedule(tuple(int(x[a]) for a in picks) + (n,)),
                            (params.k, n - m + 1))
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
