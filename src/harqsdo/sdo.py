"""Sub-block schedule selection.

The greedy recursion places boundary i by zeroing the partial derivative of
a smoothed copy of the expected-symbols objective, in which the discrete ACK
curve is replaced by a moment-matched normal or log-normal CDF.  Candidate
first boundaries are swept exhaustively and every candidate schedule is
scored with the exact discrete objective, so the smooth model only ever
decides where the interior boundaries land.  An exact dynamic program over
(slot, boundary) provides the ground-truth optimum SDO is measured against.

Every (k, n, m) cell of a command, at one epsilon, is solved in one pass
by _row_entries, for each SDO model and for the dynamic program,
"exhaustive"; its winners are plain (boundaries, objective, throughput)
entries, which optimize_row turns into reports (one k) and the CLI into
rows (every k).  The cells are read lazily and solved a chunk at a time,
and a chunk may span k.  F and F' of each (k, model) are tabulated at the
integer boundaries from k, by CdfModel.cdf_pdf_at, each boundary once,
as far as the rows step; every trajectory of the chunk, over all its k and
models, then steps together in numpy, by exactly rounded operations, and
rows leave the live set as they end.  _score_chunk stacks the candidates
of one m at a time, over every (model, k, n) that asks for it, in blocks
exactly m wide, gathered from the slot-major trajectories and scored by
channel.objective, the package's one telescoped sum.  A block of at least
m candidates is slot-major in memory too, so that sum adds contiguous
slots; a candidate's float depends on neither its block nor its layout.
The dynamic program fills its tails once per design point, as deep as the
largest m, and backtracks each m from them.  Nothing is kept between
calls: optimize and exhaustive_search are one-cell cases.
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

    def cdf_pdf_at(self, xs) -> tuple[list[float], list[float]]:
        """F(x) and F'(x) for each x of xs, as two lists, each pair from one z.

        F is 1 - Q(z) and F' is -Q'(z) / scale, with Q(z) = erfc(z / sqrt(2))
        / 2 the standard normal tail: z = (x - mu) / sigma and scale sigma
        for the normal model, z = (log x - mu*) / sigma* and scale x sigma*
        for the log-normal one, whose F and F' are 0 at x <= 0.  These
        scalar math expressions are the one definition of F and F':
        cdf_pdf, cdf and pdf are their one-point cases, and the SDO
        trajectories tabulate them here, a run of boundaries at a time.
        """
        erfc, exp = math.erfc, math.exp
        if self.kind == "normal":
            mu, sigma = self.mu, self.sigma
            zs = [((x - mu) / sigma, sigma) for x in xs]
        else:
            log, mu, sigma = math.log, self.mu_star, self.sigma_star
            zs = [((log(x) - mu) / sigma, x * sigma) if x > 0.0 else (None, 0.0) for x in xs]
        return ([0.0 if z is None else 1.0 - 0.5 * erfc(z / _SQRT2) for z, _ in zs],
                [0.0 if z is None else _INV_SQRT_2PI * exp(-0.5 * z * z) / scale
                 for z, scale in zs])

    def cdf_pdf(self, x: float) -> tuple[float, float]:
        """(F(x), F'(x)) from one z, with cdf's and pdf's expressions bit for bit."""
        [f], [density] = self.cdf_pdf_at((x,))
        return f, density

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


def _reach(k: int, top: int, inner) -> int:
    """The farthest boundary any step of _trajectories can evaluate, k - 1 if none.

    A row steps from its cell s, at boundary b_s, only while s < max(inner) - 1
    and b_s - s < top - min(inner); b_s is an integer, so
    b_s <= top - min(inner) + max(inner) - 3.  inner is ascending; an empty
    inner, or inner = (2,), steps nowhere.
    """
    if not inner or inner[-1] < 3:
        return k - 1
    return top - inner[0] + inner[-1] - 3


# Boundaries a model's F and F' table runs past the farthest one its rows are
# known to step from: top at first, then each boundary a step reaches past it
_TABLE_RUN = 32


def _tabulate(model, k: int, end: int, table: tuple[list, list]) -> None:
    """Extend table, model's F(x) and F'(x) at x = k, k + 1, ..., in place to x = end.

    table holds two lists, the values of F and of F', from model.cdf_pdf_at,
    the one definition of F and F'; no boundary is evaluated twice.
    """
    fs, densities = model.cdf_pdf_at(map(float, range(k + len(table[0]), end + 1)))
    table[0].extend(fs)
    table[1].extend(densities)


def _trajectories(groups) -> np.ndarray:
    """The uncapped trajectories of every group, stepped together, slot-major.

    A group is (k, top, inner, models, tables): inner is ascending, every m
    at least 2, and may be empty; tables[j] is model j's F(x) and F'(x) at
    x = k, k + 1, ..., two lists, which this extends in place as far as the
    rows step, _TABLE_RUN boundaries past the farthest needed (top at
    first) and never past _reach(k, top, inner).  The group's rows, model
    by model, are the trajectories of model j from first boundaries
    k..top - min(inner) + 1 (inner's least m taken as 1 when empty), and
    the groups' rows follow one another.  Column r of the result holds row
    r's trajectory, as far as any (n, m), n <= top, m in inner, reads it,
    and +inf past its end; the result is as tall as its longest row, at
    most max(inner) - 1 cells and at least 1.  The trajectory is b_1 = n1,
    b_{i+1} = b_i + max(1, ceil(r)) with r = (F(b_i) - F(b_{i-1})) /
    F'(b_i) and F(b_0) = 0, ended (+inf) once r is infinite, an underflowed
    density included.  An (n, m) schedule reads slots 1..m-1, slot i capped
    at n - (m - i): each step is at least 1 and each cap grows by 1 per
    slot, so b_i - i never falls, and once the last boundary reaches its
    cap every later slot takes its cap.  So a row of s cells steps while s
    < max(inner) - 1 and its last boundary b_s has b_s - s < top -
    min(inner); any m that reads slot s + 1 caps it once b_s - s >= n -
    min(inner) >= n - m.  A smaller n reads no more of a row than top
    does.  Every live row takes step s at once, reading F and F' by one
    gather from a copy of the tables, where F is +inf wherever F' is 0 so
    that r is +inf there; a row leaves the live set once it ends.  A step
    is a subtraction, a division, a ceil and an addition, each exactly
    rounded, so every cell is the float a scalar loop over the same F and
    F' gives.
    """
    heads, counts, blocks, rows, size = [], [], [], 0, 0  # per (group, model)
    for k, top, inner, models, tables in groups:
        lo, hi = min(inner, default=1), max(inner, default=2)
        reach = _reach(k, top, inner)
        for model, table in zip(models, tables):
            _tabulate(model, k, min(reach, top + _TABLE_RUN), table)
            # row r has n1 = r + k - rows, rows those before its block, and its
            # model's F(x) and F'(x) are pairs[:, x + size - k], size the
            # table slots before its block
            heads.append((k - rows, hi - 1, top - lo, size - k))
            blocks.append((size, k, reach, model, table))
            counts.append(top - lo + 2 - k)
            rows += counts[-1]
            size += max(0, reach + 1 - k)
    # each block's slots hold its table, then NaN as far as its reach
    values = [], []
    for _, k, reach, _, table in blocks:
        for column, known in zip(values, table):
            column += known[: reach + 1 - k]
            column += [np.nan] * (reach + 1 - k - len(known))
    pairs = np.array(values)
    pairs[0, pairs[1] == 0.0] = np.inf
    # per row: n1 - r, then its width, room and table offset, compacted together
    per_row = np.array(heads, float).repeat(counts, axis=0)
    at = np.arange(rows)
    cur, limits = per_row[:, 0] + at, per_row[:, 1:].T
    steps = [(at, cur)]  # (the rows live at step s, their cells), s = 0, 1, ...
    f_prev, widths = np.zeros(rows), {hi for _, hi, _, _ in heads}
    with np.errstate(over="ignore"):
        for s in range(1, max(widths)):
            live = cur - s < limits[1]
            if s in widths:  # the rows of some block are as long as any m reads
                live &= limits[0] > s
            if np.count_nonzero(live) < len(at):
                at, cur, f_prev, limits = at[live], cur[live], f_prev[live], limits[:, live]
                if not len(at):
                    break
            index = (cur + limits[2]).astype(np.intp)
            f_cur, density = pairs[:, index]
            if math.isnan(f_cur.sum()):  # some rows step past their tables: run those on
                short = np.unique(index[np.isnan(f_cur)])
                owner = np.searchsorted([base for base, *_ in blocks], short, "right") - 1
                last = np.flatnonzero(np.diff(owner, append=-1))  # each block's farthest
                for block, position in zip(owner[last].tolist(), short[last].tolist()):
                    base, k, reach, model, table = blocks[block]
                    known = len(table[0])
                    _tabulate(model, k, min(reach, position - base + k + _TABLE_RUN), table)
                    grown = pairs[:, base + known : base + len(table[0])]
                    grown[:] = [column[known:] for column in table]
                    grown[0, grown[1] == 0.0] = np.inf
                f_cur, density = pairs[:, index]
            ratio = np.divide(f_cur - f_prev, density)
            cur = cur + np.maximum(np.ceil(ratio, out=ratio), 1.0, out=ratio)  # max(1, ceil(r))
            f_prev = f_cur
            steps.append((at, cur))
    slots = np.empty((len(steps), rows))
    slots.fill(np.inf)
    for s, (at, cells) in enumerate(steps):
        slots[s, at] = cells
    return slots


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
    comes from channel.ack_curve, its cached one-point case, and the cells
    of a chunk are checked before any of its curves.  The solving is
    _row_entries's; this is the one place its plain entries become
    reports, a chunk of cells at a time, so a caller holds only the
    reports it keeps.  n1_searched is (k, n - m + 1) for m > 1, the
    first boundaries SDO sweeps and the dynamic program's range alike.
    """
    cells = ((k, n, ms) for n, ms in cells)
    for _, n, by_kind in _row_entries(epsilon, cells, kinds, _each_curve):
        yield n, {kind: {m: OptimizerReport(Schedule(b), value, rate, kind,
                                            None if m == 1 else (k, n - m + 1))
                         for m, (b, value, rate) in entries.items()}
                  for kind, entries in by_kind.items()}


def _each_curve(epsilon: float, points):
    """ack_curve's cached curve of each (k, n) of points, in order."""
    return (ack_curve(CodeParams(k, n, epsilon)) for k, n in points)


def _row_entries(epsilon: float, cells, kinds, curves):
    """Each (k, n, ms) of cells as k, n and {kind: {m: (boundaries, objective, throughput)}}.

    An entry is plain: the schedule's boundaries, a tuple of ints, its
    exact objective and its throughput k ACK(n) / objective, both Python
    floats, as throughput() computes them.  The CLI's sweep rows are built
    from these entries directly, with no report or Schedule per cell.
    cells may hold many k, in any order, and is read lazily, one cell past
    the chunk being solved; a cell whose ms is empty is yielded in its
    place with no entries, and nothing is computed for it.  Each cell is
    checked as it is read, and every kind before any cell.  m = 1 has one
    schedule, (n), of objective n, entered for every kind.  A chunk is a
    run of cells whose ACK values at k..n fit one table of at most
    _BLOCK_CELLS cells (one cell at least; a cell with no m takes one),
    and may span k.  curves(epsilon, points), ack_curves or _each_curve,
    yields the ACK curve of each (k, n) of points in order: it is called
    once per chunk, on the chunk's cells with an m.  _score_chunk runs the
    dynamic program on each cell's curve and solves the SDO models of
    every k of the chunk together.  Each k's models and their F and F'
    tables are held while its cells run on from chunk to chunk, so each
    boundary is evaluated once per (k, model) there; a k with no m > 1 in
    a chunk builds no model for it.  Nothing is kept between calls.
    """
    for kind in kinds:
        if kind not in ("normal", "lognormal", "exhaustive"):
            raise ValueError(
                f"kind must be 'normal', 'lognormal' or 'exhaustive', got {kind!r}")
    held = {}

    def solve(chunk):  # a cell with no m gets its empty entries as it is yielded
        for k, n, by_kind in _score_chunk(epsilon, chunk, kinds, held, curves):
            yield k, n, {kind: {} for kind in kinds} if by_kind is None else by_kind

    chunk, cells_held = [], 0
    for k, n, ms in cells:
        ms = _checked(CodeParams(k, n, epsilon), ms) if ms else ()
        size = n - k + 1 if ms else 1  # a cell with no m holds one place
        if chunk and cells_held + size > _BLOCK_CELLS:
            yield from solve(chunk)
            chunk, cells_held = [], 0
        chunk.append((k, n, ms))
        cells_held += size
    if chunk:
        yield from solve(chunk)


def _score_chunk(epsilon: float, chunk, kinds, held: dict, curves) -> list:
    """_row_entries's (k, n, {kind: {m: entry}}) for each cell of chunk; None for no m.

    chunk holds (k, n, ms) cells, ms checked and maybe empty; one
    curves(epsilon, points) call gives the ACK curves of the cells with an
    m, together.  held maps each k of the chunk before to its models and
    their F and F' tables, and is left holding this chunk's.  Each k with
    an m > 1 is one group of _trajectories, up to its largest n, largest m
    and smallest m in the chunk, and every group steps together, its
    tables extended as far as its rows step.  The candidates of one m at a
    time are stacked, model by model, cell by cell: first boundaries
    k..n-m+1 of each (model, k, n) group that asks for m.  Slot i < m of a candidate is min(b_i, n - (m -
    i)) over its trajectory b, and slot m is n, so every block
    channel.objective scores is exactly m wide, of _BLOCK_CELLS // m rows
    (one at least), taken from the slot-major trajectories.  A block of at
    least m rows, which objective sums one slot at a time, is slot-major
    (F-ordered) too, so each addition reads contiguous slots; a thinner
    one is candidate-major, so the caps and ACK offsets of its few
    candidates broadcast along rows m long.  A candidate's total depends on
    neither its block nor its layout: objective sums it left to right from
    n_m either way.  One segmented reduction over the totals of one m
    takes each group's first minimum, so ties break toward the smaller
    first boundary; only the winners' schedules are built again, and one
    gather reads every group's ACK(n) for its throughput.
    """
    solved = [(k, n, {kind: {} for kind in kinds} if ms else None) for k, n, ms in chunk]
    acks = np.empty(sum(n - k + 1 for k, n, ms in chunk if ms))
    offsets, start = [], 0  # ack(t) of chunk[i] is acks[offsets[i] + t]
    plan = {}  # k: [largest n, the m > 1] of its cells
    chunk_curves = iter(curves(epsilon, [(k, n) for k, n, ms in chunk if ms]))
    for (k, n, ms), (_, _, by_kind) in zip(chunk, solved):
        offsets.append(start - k)
        if not ms:
            continue
        curve = next(chunk_curves)
        acks[start : start + n - k + 1] = curve[k:]
        start += n - k + 1
        inner = ms
        if ms[0] == 1:  # the one schedule (n): objective n, no terms added
            value = float(n)
            entry = (n,), value, k * float(curve[n]) / value
            for entries in by_kind.values():
                entries[1] = entry
            inner = ms[1:]
        if not inner:
            continue
        if "exhaustive" in by_kind:
            by_kind["exhaustive"].update(_exhaustive(CodeParams(k, n, epsilon), inner, curve))
        if k in plan:
            plan[k][0] = max(plan[k][0], n)
            plan[k][1].update(inner)
        else:
            plan[k] = [n, set(inner)]
    sdo_kinds = [kind for kind in kinds if kind != "exhaustive"]
    # k's rows of model j start at column first[k][0] + j * first[k][1] of slots
    groups, first, kept, columns = [], {}, {}, 0
    for k, (top, inner) in plan.items() if sdo_kinds else ():
        inner = tuple(sorted(inner))
        # the model reads k and epsilon alone; _trajectories extends the tables
        kept[k] = held.get(k) or (
            [CdfModel.for_params(CodeParams(k, k, epsilon), kind) for kind in sdo_kinds],
            [([], []) for _ in sdo_kinds])
        first[k] = columns, top - inner[0] + 2 - k
        columns += len(sdo_kinds) * first[k][1]
        groups.append((k, top, inner, *kept[k]))
    held.clear()
    held.update(kept)
    if not groups:
        return solved
    slots = _trajectories(groups)  # slots[i] holds slot i + 1 of every trajectory
    scored = [i for i, (_, _, ms) in enumerate(chunk) if ms and ms[-1] > 1]
    # column j * len(scored) + p is model j on cell scored[p]: its k, n, n - k,
    # ACK offset, and the column of slots that holds its trajectory from k
    info = np.array([(k, n, n - k, offsets[i], first[k][0] + j * first[k][1])
                     for j in range(len(sdo_kinds)) for i in scored
                     for k, n, _ in (chunk[i],)]).T.copy()
    for m in sorted({m for _, inner in plan.values() for m in inner}):
        # the (model, cell) groups that ask for m, model by model
        cells = [p for p, i in enumerate(scored) if m in chunk[i][2]]
        groups = [(j, scored[p]) for j in range(len(sdo_kinds)) for p in cells]
        ks, ns, span, shift, column = info[:, [j * len(scored) + p for j in range(len(sdo_kinds))
                                               for p in cells]]
        counts = span - (m - 2)
        starts = np.cumsum(counts) - counts
        group_of = np.repeat(np.arange(len(groups)), counts)
        # candidate p of group g has first boundary k + p - starts[g]: column p + origin[g] of slots
        origin = column - starts
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
        for (j, i), k, value, schedule, ack_n in zip(groups, ks.tolist(), least.tolist(), best,
                                                     acks[shift + ns].tolist()):
            solved[i][2][sdo_kinds[j]][m] = tuple(schedule), value, k * ack_n / value
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
