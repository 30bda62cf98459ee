"""Sub-block schedule selection.

The greedy recursion places boundary i by zeroing the partial derivative of
a smoothed copy of the expected-symbols objective, in which the discrete ACK
curve is replaced by a moment-matched normal or log-normal CDF.  Candidate
first boundaries are swept exhaustively and every candidate schedule is
scored with the exact discrete objective, so the smooth model only ever
decides where the interior boundaries land.  An exact dynamic program over
(slot, boundary) provides the ground-truth optimum SDO is measured against.

A sweep row, every (n, m) of one (k, epsilon), is solved in one pass by
_row_entries, for each SDO model and for the dynamic program,
"exhaustive"; its winners are plain (boundaries, objective, throughput)
entries, which optimize_row turns into reports and the CLI into rows.  The
row steps each model's trajectories once, from every first boundary, with
F and F' evaluated once per boundary.  _score_chunk stacks the candidates
of one m at a time, over every model and n that asks for it, in blocks
exactly m wide, gathered from one slot-major copy of the trajectories and
scored by channel.objective, the package's one telescoped sum.  A block of
at least m candidates is slot-major in memory too, so that sum adds
contiguous slots; a candidate's float depends on neither its block nor
its layout.  The dynamic program fills its tails once per design point, as
deep as the largest m, and backtracks each m from them.  Nothing is kept
between calls: optimize and exhaustive_search are the row's one-cell cases.
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

__all__ = ["CdfModel", "OptimizerReport", "optimize", "optimize_row", "exhaustive_search"]

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
    schedule reads slots 1..m-1, slot i capped at n - (m - i): each step
    is at least 1 and each cap grows by 1 per slot, so b_i - i never falls,
    and once the last boundary reaches its cap every later slot takes its
    cap.  So a row of s cells steps while s < max(ms) - 1 and its last
    boundary b_s has b_s - s < n - min(ms); any m that reads slot s + 1
    caps it once b_s - s >= n - min(ms) >= n - m.  A smaller n reads no
    more of a row than n does.  F and F' come from one cdf_pdf call per
    model and boundary, however many rows step from it.
    """
    width, room = max(ms, default=2) - 1, n - min(ms, default=0)
    cells, lens = [], []
    for model in models:
        known, evaluate = {}, model.cdf_pdf
        for n1 in range(lo, hi + 1):
            cur, f_prev, size = float(n1), 0.0, 1
            cells.append(cur)
            while size < width and cur - size < room:
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


def optimize_row(k: int, epsilon: float, cells, kinds):
    """The reports of every (n, m, kind) of one sweep row (k, epsilon), from one pass.

    cells holds (n, ms) pairs, each n once.  kinds names SDO models,
    "normal" and "lognormal", and "exhaustive", the dynamic program.  For
    each cell, in order, this yields n and {kind: {m: report}} over the m
    of ms: an SDO model's report is optimize(CodeParams(k, n, epsilon), m,
    kind), and "exhaustive"'s is exhaustive_search's.  Each cell's curve
    comes from channel.ack_curve, its cached one-point case.  The solving
    is _row_entries's; this is the one place its plain entries become
    reports, a chunk of cells at a time, so a caller holds only the
    reports it keeps.  n1_searched is (k, n - m + 1) for m > 1, the
    first boundaries SDO sweeps and the dynamic program's range alike.
    """
    for n, by_kind in _row_entries(k, epsilon, cells, kinds):
        yield n, {kind: {m: OptimizerReport(Schedule(b), value, rate, kind,
                                            None if m == 1 else (k, n - m + 1))
                         for m, (b, value, rate) in entries.items()}
                  for kind, entries in by_kind.items()}


def _row_entries(k: int, epsilon: float, cells, kinds, curves=None):
    """optimize_row's cells, each as n and {kind: {m: (boundaries, objective, throughput)}}.

    An entry is plain: the schedule's boundaries, a tuple of ints, its
    exact objective and its throughput k ACK(n) / objective, both Python
    floats, as throughput() computes them.  The CLI's sweep rows are built
    from these entries directly, with no report or Schedule per cell.
    curves yields each cell's ACK curve, in cell order, as ack_curves does;
    the row takes one per cell as it reaches it, so the CLI hands it a
    stream that runs on into later rows.  Without one, each cell's curve
    comes from ack_curve.  Every kind, then every cell, is checked before
    any work, and so before any curve is read; a row of no cells yields
    nothing.  m = 1 has one schedule, (n), of objective n, entered for
    every kind as its cell is read.  For m > 1, each model's trajectories
    are grown once, up to the largest m and until the largest n and the
    smallest m cap them; a row with no m > 1 grows none and builds no
    model.  A chunk is a run of cells whose ACK values at k..n fit one table
    of at most _BLOCK_CELLS cells (one cell at least); the dynamic program
    runs on each curve as it is read, and _score_chunk scores the SDO
    candidates one m at a time.
    """
    for kind in kinds:
        if kind not in ("normal", "lognormal", "exhaustive"):
            raise ValueError(
                f"kind must be 'normal', 'lognormal' or 'exhaustive', got {kind!r}")
    points = [(params, _checked(params, ms))
              for params, ms in ((CodeParams(k, n, epsilon), ms) for n, ms in cells)]
    curves = iter((ack_curve(params) for params, _ in points) if curves is None else curves)
    inner = tuple(sorted({m for _, ms in points for m in ms if m > 1}))
    # the model reads k and epsilon alone, so n = k serves for every n
    models = [CdfModel.for_params(CodeParams(k, k, epsilon), kind)
              for kind in kinds if kind != "exhaustive"] if inner else []
    top = max((params.n for params, _ in points), default=k)
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
    """_row_entries's (n, {kind: {m: entry}}) for each design point of chunk.

    rows is _trajectories's matrix of models from first boundaries k on,
    or None without an SDO model or an m > 1; curves yields the ACK curve
    of each design point of chunk, in order.  The candidates of one m at a
    time are stacked, model by model, n by n: first boundaries k..n-m+1 of
    each (model, n) group that asks for m.  Slot i < m of a candidate is
    min(b_i, n - (m - i)) over its trajectory b, and slot m is n, so every
    block channel.objective scores is exactly m wide, of _BLOCK_CELLS // m
    rows (one at least), taken from slots, one slot-major copy of rows per
    chunk.  A block of at least m rows, which objective sums one slot at a
    time, is slot-major (F-ordered) too, so each addition reads contiguous
    slots; a thinner one is candidate-major, so the caps and ACK offsets of
    its few candidates broadcast along rows m long.  A candidate's total
    depends on neither its block nor its layout: objective sums it left to
    right from n_m either way.  One segmented reduction over the totals of
    one m takes each group's first minimum, so ties break toward the smaller
    first boundary; only the winners' schedules are built again, and one
    gather reads every group's ACK(n) for its throughput.
    """
    solved = [(params.n, {kind: {} for kind in kinds}) for params, _ in chunk]
    acks = np.empty(sum(params.n - k + 1 for params, _ in chunk))
    offsets, start = [], 0  # ack(t) of chunk[i] is acks[offsets[i] + t]
    for (params, ms), (n, by_kind) in zip(chunk, solved):
        curve = next(curves)
        acks[start : start + n - k + 1] = curve[k:]
        if ms[0] == 1:  # the one schedule (n): objective n, no terms added
            value = float(n)
            entry = (n,), value, k * float(curve[n]) / value
            for entries in by_kind.values():
                entries[1] = entry
        if "exhaustive" in by_kind and ms[-1] > 1:
            by_kind["exhaustive"].update(_exhaustive(params, ms[1:] if ms[0] == 1 else ms, curve))
        offsets.append(start - k)
        start += n - k + 1
    if not models:
        return solved
    per_model = len(rows) // len(models)
    slots = np.ascontiguousarray(rows.T)  # slots[i] holds slot i + 1 of every trajectory
    for m in sorted({m for _, ms in chunk for m in ms if m > 1}):
        groups = [(j, i) for j in range(len(models))
                  for i, (_, ms) in enumerate(chunk) if m in ms]
        ns = np.array([chunk[i][0].n for _, i in groups])
        counts = ns - (k + m - 2)
        starts = np.cumsum(counts) - counts
        group_of = np.repeat(np.arange(len(groups)), counts)
        # candidate p of group g has first boundary k + p - starts[g]: column p + origin[g] of slots
        origin = np.array([j * per_model for j, _ in groups]) - starts
        shift = np.array([offsets[i] for _, i in groups])
        lag = np.arange(1 - m, 1)  # i - m for slots 1..m
        read = min(m - 1, len(slots))

        def capped(p):  # the schedules of candidates p; slot m, +inf until here, is n
            g = group_of[p]
            b = np.empty((len(p), m), order="F" if len(p) >= m else "C")
            b.T[:read] = slots[:read].take(p + origin[g], axis=1)
            b[:, read:] = np.inf
            return np.minimum(b, np.add(ns[g][:, None], lag, out=np.empty_like(b, int)), out=b)

        totals = np.empty(len(group_of))
        per_block = max(1, _BLOCK_CELLS // m)
        for lo in range(0, len(group_of), per_block):
            p = np.arange(lo, min(lo + per_block, len(group_of)))
            b = capped(p)
            index = b[:, :-1].astype(np.intp)
            index += shift[group_of[p]][:, None]
            totals[lo : lo + len(p)] = objective(b, acks[index])
        least = np.minimum.reduceat(totals, starts)
        hits = np.flatnonzero(totals == least[group_of])  # a group's first hit is its first minimum
        best = capped(hits[np.searchsorted(hits, starts)]).astype(np.intp).tolist()
        for (j, i), value, schedule, ack_n in zip(groups, least.tolist(), best,
                                                  acks[shift + ns].tolist()):
            solved[i][1][models[j].kind][m] = tuple(schedule), value, k * ack_n / value
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


def _exhaustive(params: CodeParams, ms: tuple[int, ...], curve: np.ndarray) -> dict:
    """exhaustive_search's entries for the checked ms, each at least 2, from the ACK curve."""
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
    entries = {}
    for m in ms:
        picks = [int(np.argmin(tails[m - 2]))]
        for tail in tails[: m - 2][::-1]:  # not tails[m - 3::-1], all of tails at m = 2
            # _steps's row for the last pick, less its +inf: the next boundary lies past it
            a = picks[-1] + 1
            picks.append(a + int(np.argmin((x[a - 1] - x[a:]) * c[a - 1] + tail[a:])))
        b = tuple(int(x[a]) for a in picks) + (n,)  # scored as expected_round_symbols scores it
        value = objective(b, curve[list(b)])
        entries[m] = b, value, params.k * float(curve[n]) / value
    return entries


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
