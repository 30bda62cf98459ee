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
m = 1 has one schedule, (n), of objective n, reported for every kind.  The
model depends on (k, epsilon, kind) only, not on n or m, so the row builds
it once per kind, and _trajectories steps the recursion from each first
boundary n1 once, without caps, as far as the largest n and its m read it;
F and F' are evaluated once per boundary.  The ACK values come from the
curves the row is handed, one per n, gathered a chunk of n at a time.
_score_chunk stacks the candidates of one m at a time, over every model
and n that asks for it: slot i < m is min(b_i, n - (m - i)) and slot m is
n, so each block channel.objective, the package's one telescoped sum,
scores is exactly m wide.  A candidate's float does not depend on its
block, as objective sums every schedule left to right from n_m; one
segmented reduction per block takes each group's first minimum.  Nothing
is kept between calls; optimize is the row's one-cell case.  The dynamic
program's recurrence does not depend on m, so _exhaustive fills the tails
once, as deep as the largest m, and backtracks each m from its own.  It
reads the curve the row hands it as it reads it; exhaustive_search is the
row's one-cell, one-m case with kind "exhaustive".
"""

from __future__ import annotations

import functools
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
    read.  m = 1 has one schedule, (n), of objective n, reported for every
    kind as its cell is read.  For m > 1, each model's trajectories are
    grown once, as far as the largest n and its m read them; a row with
    no m > 1 grows none and builds no model.  A chunk is a run of cells
    whose ACK values at k..n fit one table of at most _BLOCK_CELLS cells
    (one cell at least); the dynamic program runs on each curve as it is
    read, and _score_chunk scores the SDO candidates one m at a time.
    """
    points = [(params, _checked(params, ms))
              for params, ms in ((CodeParams(k, n, epsilon), ms) for n, ms in cells)]
    curves = iter((ack_curve(params) for params, _ in points) if curves is None else curves)
    inner = tuple(sorted({m for _, ms in points for m in ms if m > 1}))
    # the model reads k and epsilon alone, so n = k serves for every n
    models = [CdfModel.for_params(CodeParams(k, k, epsilon), kind)
              for kind in kinds if kind != "exhaustive"] if inner else []
    top = max(params.n for params, _ in points)
    rows = _trajectories(models, top, inner, k, top - inner[0] + 1) if models else None
    chunk, cells_held = [], 0
    for params, ms in points:
        if chunk and cells_held + params.n - k + 1 > _BLOCK_CELLS:
            yield from _score_chunk(k, chunk, kinds, models, rows, curves)
            chunk, cells_held = [], 0
        chunk.append((params, ms))
        cells_held += params.n - k + 1
    yield from _score_chunk(k, chunk, kinds, models, rows, curves)


def _score_chunk(k: int, chunk, kinds, models, rows, curves) -> list:
    """optimize_row's (n, {kind: {m: report}}) for each design point of chunk.

    rows is _trajectories's matrix of models from first boundaries k on,
    or None without an SDO model or an m > 1; curves yields the ACK curve
    of each design point of chunk, in order.  The candidates of one m at a
    time are stacked, model by model, n by n: first boundaries k..n-m+1 of
    each (model, n) group that asks for m.  Slot i < m of a candidate is
    min(b_i, n - (m - i)) over its trajectory b, and slot m is n, so every
    block channel.objective scores is exactly m wide, of _BLOCK_CELLS // m
    rows (one at least).  A candidate's total never depends on the block
    it lands in: objective sums it left to right from n_m either way.  One
    segmented reduction per block gives each group's first minimum, and an
    earlier block keeps a tie, so ties break toward the smaller first
    boundary.
    """
    solved = [(params.n, {kind: {} for kind in kinds}) for params, _ in chunk]
    acks = np.empty(sum(params.n - k + 1 for params, _ in chunk))
    offsets, start = [], 0  # ack(t) of chunk[i] is acks[offsets[i] + t]
    for (params, ms), (n, by_kind) in zip(chunk, solved):
        curve = next(curves)
        acks[start : start + n - k + 1] = curve[k:]
        if ms[0] == 1:  # the one schedule (n): objective n, no terms added
            for kind, reports in by_kind.items():
                reports[1] = _report(params, Schedule((n,)), kind, None, float(n), float(curve[n]))
        if "exhaustive" in by_kind and ms[-1] > 1:
            by_kind["exhaustive"].update(_exhaustive(params, ms[1:] if ms[0] == 1 else ms, curve))
        offsets.append(start - k)
        start += n - k + 1
    if not models:
        return solved
    per_model = len(rows) // len(models)
    for m in sorted({m for _, ms in chunk for m in ms if m > 1}):
        groups = [(j, i) for j in range(len(models))
                  for i, (_, ms) in enumerate(chunk) if m in ms]
        ns = np.array([chunk[i][0].n for _, i in groups])
        counts = ns - (k + m - 2)
        starts = np.cumsum(counts) - counts
        group_of = np.repeat(np.arange(len(groups)), counts)
        # candidate p of group g has first boundary k + p - starts[g], read from row p + origin[g]
        origin = np.array([j * per_model for j, _ in groups]) - starts
        shift = np.array([offsets[i] for _, i in groups])
        to_m = m - np.arange(1, m + 1)  # m - i for slots 1..m
        read = min(m - 1, rows.shape[1])
        # each group's least total so far, and its schedule
        least_of, best_of = [math.inf] * len(groups), [None] * len(groups)
        per_block = max(1, _BLOCK_CELLS // m)
        for lo in range(0, len(group_of), per_block):
            g = group_of[lo : lo + per_block]
            b = np.full((len(g), m), np.inf)
            b[:, :read] = rows[np.arange(lo, lo + len(g)) + origin[g], :read]
            np.minimum(b, ns[g][:, None] - to_m, out=b)  # slot m, +inf until here, is n
            index = b[:, :-1].astype(np.intp)
            index += shift[g][:, None]
            totals = objective(b, acks[index])
            first = int(g[0])
            seams = np.maximum(starts[first : g[-1] + 1] - lo, 0)
            least = np.minimum.reduceat(totals, seams)
            hits = np.flatnonzero(totals == least[g - first])
            chosen = b[hits[np.searchsorted(hits, seams)]].astype(np.intp)
            for j, value in enumerate(least.tolist(), first):
                if value < least_of[j]:  # an earlier block keeps a tie
                    least_of[j], best_of[j] = value, chosen[j - first]
        for (j, i), value, best in zip(groups, least_of, best_of):
            params = chunk[i][0]
            n = params.n
            solved[i][1][models[j].kind][m] = _report(
                params, Schedule(best.tolist()), models[j].kind, (k, n - m + 1), value,
                float(acks[offsets[i] + n]))
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


def _exhaustive(params: CodeParams, ms: tuple[int, ...],
                curve: np.ndarray) -> dict[int, OptimizerReport]:
    """exhaustive_search's reports for the checked ms, each at least 2, from the ACK curve."""
    n = params.n
    x = np.arange(params.k, n)
    c = curve[params.k : n]
    # tails[j][a]: least sum of the last j + 1 terms, the first of them at boundary x[a]
    tails = np.empty((ms[-1] - 1, len(x)))
    tails[0] = (x - n) * c
    if len(tails) > 1:
        per_block = max(1, _BLOCK_CELLS // len(x))
        # a row's tails read only later rows' and its own shorter tails: blocks go bottom up
        for stop in range(len(x), 0, -per_block):
            start = max(0, stop - per_block)
            step = _steps(x, c, start, stop)
            for j in range(len(tails) - 1):
                tails[j + 1, start:stop] = (step + tails[j, start:]).min(axis=1)
    reports = {}
    for m in ms:
        picks = [int(np.argmin(tails[m - 2]))]
        for tail in tails[: m - 2][::-1]:  # not tails[m - 3::-1], all of tails at m = 2
            # _steps's row for the last pick, less its +inf: the next boundary lies past it
            a = picks[-1] + 1
            picks.append(a + int(np.argmin((x[a - 1] - x[a:]) * c[a - 1] + tail[a:])))
        b = tuple(int(x[a]) for a in picks) + (n,)  # scored as expected_round_symbols scores it
        reports[m] = _report(params, Schedule(b), "exhaustive", (params.k, n - m + 1),
                             objective(b, curve[list(b)]), float(curve[n]))
    return reports


def exhaustive_search(params: CodeParams, m: int) -> OptimizerReport:
    """Global minimizer of the exact objective over all boundary tuples.

    An exact backward dynamic program in O(m n**2) time: the objective
    n + sum_i (n_i - n_{i+1}) P_ack(n_i) couples only neighbouring
    boundaries, so F[i][x], the best tail cost with boundary i at x, is
    min over y > x of (x - y) P_ack(x) + F[i+1][y].  The recurrence does
    not depend on m: the tail with j boundaries left serves every m, so
    one backward pass, as deep as the largest m, serves every m of a
    design point (optimize_row, kind "exhaustive").  Interior boundaries
    range over k..n-1.  Ties break lexicographically toward smaller
    boundaries, as a full enumeration in lexicographic order would.  The
    step costs are formed in blocks of at most _BLOCK_CELLS, so memory
    stays O(m n) plus one block.
    """
    [(_, by_kind)] = optimize_row(params.k, params.epsilon, [(params.n, (m,))], ("exhaustive",))
    return by_kind["exhaustive"][m]
