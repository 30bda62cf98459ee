"""Seeded Monte Carlo simulation of the incremental-redundancy protocol.

Each round samples a fresh uniform parity-check matrix and an i.i.d. erasure
pattern, then decodes by the rank condition: the message is recoverable
exactly when the columns for the missing symbols (unsent ones count as
erased) are linearly independent over GF(2).

Decodability is monotone in time, because the set of missing columns only
shrinks as symbols arrive.  So a round reduces to one integer, its decode
time L: the first t at which the symbols sent so far decode, or n + 1 if an
erased column is dependent and the round can never decode.  L is the one
thing the kernel computes, and everything else is a view of it:

- estimate: a schedule stops at its first boundary n_i >= L, or fails at n
  when L = n + 1; the report is aggregated in exact integers and keeps the
  histogram of L over 0..n+1.
- rescore: the same trials under another schedule, scored from that
  histogram without drawing a trial.
- sample_round_lengths: (min(L, n), L <= n).
- sample_decode_counts: L on a lossless channel.

The kernel finds L by inserting each trial's columns in a fixed order, the
erased ones first and then the received ones from right to left: the first
insertion that depends on the earlier ones gives L, n + 1 for an erased
column and its index + 1 for a received one.  With d = n - k parity checks
only the first d insertions need elimination: when they are independent the
(d + 1)-th depends on them, as d + 1 columns of d rows always do.

Columns are row-packed.  A trial's column is W = max(1, ceil(d / 64)) uint64
words, word p holding rows 64 p..64 p + 63, and a block of 512 trials is one
(W, d, 512) array.  The elimination takes the columns in turn; with b the
current column, every later column x becomes min(x, x ^ b), which adds b to
exactly the columns that have b's top bit and clears that bit in them.  It
is exact: adding an earlier column to a later one keeps the span of every
prefix, and no later step brings the bit back, so the nonzero reduced
columns have distinct top bits and a reduced column is zero exactly when it
depends on the columns before it.  For one word that is one XOR and one
minimum over all later columns of the block, two array passes where the
bit-sliced kernel this replaced took four.  Past 64 rows the words take
turns: a phase pivots only on the columns still zero in every word done so
far, carries each column sum it makes into the words still to come, and
ends once every trial's pivots cover the rows the word uses; the last word,
with the d mod 64 leftover rows, goes first and ends after a few columns.
Per 512-trial block, the elimination took 0.79 ms at d = 56 against the
bit-sliced kernel's 2.21 ms, 4.7 against 6.4 ms at d = 88 and 14.3 against
20.7 ms at d = 130 (2-core Xeon VM, numpy 2.4.6).

The draws are one dense stream.  A run builds one Philox(key=seed) and reads
its raw 64-bit words front to back, trials in order, so trial i owns words
i P..(i + 1) P - 1, with P = W n + n.  Column j is the trial's next W words,
bit b of word p being row 64 p + b, masked to the low d bits; then come n
uniforms, each a word's top 53 bits times 2**-53, and symbol j is erased
when its uniform is below eps.  The kernel makes that test on the raw word
itself, x < ceil(eps 2**53) 2**11: scaling both sides by 2**53 is exact, and
an integer is below a real number exactly when it is below its ceiling, so
the two rules erase the same symbols.  With matrix_reuse r the columns of
trial i are those of trial i - i % r, and its uniforms its own.  So trial i
depends on (seed, i) alone, at any block or chunk size, and is the same
round in every entry point.  A trial's insertion order is its sorted
insertion keys, j for an erased symbol and 2n - j for a received one.  The
words arrive row-packed already: one take per word, with each trial's
insertion order, puts a draw chunk's inserted columns straight into the
block, and one mask clears the rows past d.  A decode time is a property of
the columns alone, so neither the pivoting nor the block and chunk sizes
move any output byte.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .codes import CodeParams, _integral
from .channel import Schedule, _check_schedule

__all__ = [
    "EstimateReport",
    "GENERATOR_NAME",
    "estimate",
    "rescore",
    "sample_decode_counts",
    "sample_round_lengths",
]

GENERATOR_NAME = "philox4x64(key=seed), dense: trial i from word i*(W*n+n), W=max(1,ceil(d/64))"

# Trials decoded together: each numpy step of the elimination serves all of
# them, so its fixed cost is shared by more trials as the block grows; at
# k = 32, n = 88 a block's columns take 229 kB.
_BLOCK = 512
# Raw words drawn and packed together, 256 kB: 186 trials at k = 32, n = 88,
# and at least one trial at any size, so a chunk's draw and its packing
# buffers stay small beside the block whatever W n is.
_DRAW_WORDS = 1 << 15


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """A Philox stream keyed by seed at counter [0, 0, index, 0].

    The kernel reads no such stream.  The function stays only because the
    benchmark traces simulate.trial_rng by name (perfbench/run.py, checked by
    tests/test_perfbench_names.py); it goes when the benchmark drops that
    target.
    """
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, index, 0]))


def _erasure_threshold(epsilon: float) -> int:
    """The raw word below which a symbol is erased: ceil(epsilon 2**53) << 11.

    x >> 11 < c exactly when x < c 2**11; see _span_times for why this is
    the float rule.  For epsilon in [0, 1), c = ceil(epsilon 2**53) is at
    most 2**53 - 1, so the threshold fits 64 bits.
    """
    return math.ceil(epsilon * 2 ** 53) << 11


def _first_dependent(cols: np.ndarray) -> np.ndarray:
    """Index of each trial's first column that depends on the columns before it.

    cols is (W, s, T) uint64, row-packed: cols[p, c, t] is word p of trial
    t's column c, rows 64 p..64 p + 63.  It is overwritten.  Returns (T,)
    indices, s for a trial whose s columns are all independent.

    One word: for each column c in turn, b = column c and every later column
    x becomes min(x, x ^ b).  x ^ b < x exactly when x has b's top bit, so
    this adds column c to the later columns that have its top bit and clears
    that bit in them.  Adding an earlier column to a later one keeps the span
    of every prefix, and no later step brings the bit back, as every later b
    lacks it; so the nonzero reduced columns have distinct top bits, and a
    reduced column is zero exactly when it depends on the columns before it.

    More words: one phase per word.  A phase pivots only on the columns that
    are zero in every word done so far (the others are independent already)
    and carries each column sum its x ^ b < x test picks into the words still
    to come.  A phase starts at the first column that is zero in every word
    done so far in some trial, and ends once every trial has as many pivots
    as the word has rows that any column uses: later columns are then zero in
    it.  The last word, which holds the d mod 64 leftover rows, goes first,
    so it ends after a few columns and the carries of the full words' phases
    reach one word fewer.
    """
    w, s, t = cols.shape
    # free[c]: column c is zero in every word done so far; free[s] stays set
    free = np.ones((s + 1, t), dtype=bool)
    step = np.empty((s, t), dtype=np.uint64)
    pick = np.empty((s, t), dtype=bool)
    pivots = np.empty(t, dtype=np.intp)
    for phase, q in enumerate([w - 1, *range(w - 1)]):
        x = cols[q]
        rest = cols[0 if phase == 0 else q + 1 : w - 1]  # the words still to come
        if rest.size:
            rows = int(np.bitwise_or.reduce(x, axis=None)).bit_count()
            pivots[:] = 0
        start = free.any(axis=1).argmax()  # s when no column is free
        for c in range(start, s):
            b = x[c] if phase == 0 else x[c] * free[c]
            later, y = x[c + 1 :], step[c + 1 :]
            np.bitwise_xor(later, b, out=y)
            if not rest.size:
                np.minimum(later, y, out=later)
                continue
            picked = pick[c + 1 :]
            np.less(y, later, out=picked)
            np.minimum(later, y, out=later)
            for word in rest:  # y is spare once later has its minimum
                np.multiply(picked, word[c], out=y)
                word[c + 1 :] ^= y
            pivots += b != 0
            if c + 1 - start >= rows and pivots.min() == rows:
                break
        free[:s] &= x == 0
    return free.argmax(axis=0)


def _insertion_order(erased: np.ndarray, count: int) -> np.ndarray:
    """Each trial's first count insertions: erased symbols, then received ones from the right.

    erased is (T, n) bool.  Symbol j's insertion key is j if erased and 2n - j
    if not, computed branch-free as rev ^ (erased * (j ^ rev)) with rev =
    2n - j.  The keys of a trial are distinct, so their sorted values are its
    insertion order, the order a stable argsort gives, and each sorted key
    holds its symbol, j = min(key, 2n - key).  The keys are two bytes wide,
    which numpy sorts with SIMD where the CPU has it, or four from n = 32768
    on.  Returns a (T, count) view of the sorted keys.
    """
    n = erased.shape[1]
    j = np.arange(n, dtype=np.promote_types(np.uint16, np.min_scalar_type(2 * n)))
    rev = 2 * n - j
    keys = erased.view(np.uint8) * (j ^ rev)  # j ^ rev where erased, else 0
    keys ^= rev
    keys.sort(axis=1)
    order = keys[:, :count]
    np.minimum(order, 2 * n - order, out=order)
    return order


def _span_times(params: CodeParams, seed: int, trials: int, matrix_reuse: int = 1):
    """Decode times of trials 0..trials-1, one array per block of _BLOCK.

    One Philox(key=seed) is read front to back, a draw chunk at a time (see
    the module docstring for the layout).  Each chunk's first d inserted
    columns are taken straight into one block array, and the indices of its
    first d + 1 and the trials' erasure counts into two more, all reused
    block to block.  With matrix_reuse > 1 a trial's columns are its group's
    first trial's, and the columns of a group begun in an earlier chunk are
    carried over; the rows that pick them are checked to lie in the chunk, as
    the take would read a negative word index from the end.  A trial's first
    dependent column is the first of its d columns that _first_dependent
    finds, or its (d + 1)-th insertion when those d are independent.  A
    trial whose first dependent column is erased (the erased ones go first)
    never decodes, n + 1; otherwise the column's index + 1 is the first time
    its symbols decode.

    A symbol is erased when its raw word is below _erasure_threshold(eps),
    the integer form of "its uniform is below eps": the uniform is the
    word's top 53 bits scaled exactly by 2**-53, and an integer is below a
    real number exactly when it is below its ceiling, so both forms erase
    the same symbols.  _insertion_order sorts each trial's symbols into
    their insertion order.
    """
    d, n = params.n - params.k, params.n
    w = max(1, -(-d // 64))
    wn = w * n  # a trial's column words; its n uniforms follow
    bitgen = np.random.Philox(key=seed)
    block = min(_BLOCK, trials)
    chunk = max(1, min(block, _DRAW_WORDS // (wn + n)))
    last = np.uint64((1 << (d - 64 * (w - 1))) - 1)  # the rows of the last word; 0 at d = 0
    below = np.uint64(_erasure_threshold(params.epsilon))
    base = np.zeros((1, wn), dtype=np.uint64)  # the columns of the group in progress
    cols = np.empty((w, d, block), dtype=np.uint64)
    inserted = np.empty((block, d + 1), dtype=np.min_scalar_type(n + 1))
    erasures = np.empty(block, dtype=np.intp)
    for lo in range(0, trials, block):
        t = min(block, trials - lo)
        for a in range(0, t, chunk):
            b = min(a + chunk, t)
            raw = bitgen.random_raw((b - a) * (wn + n)).reshape(b - a, wn + n)
            erased = raw[:, wn:] < below
            order = _insertion_order(erased, d + 1)
            if matrix_reuse == 1:
                code, rows = raw, np.arange(b - a)
            else:
                i = np.arange(lo + a, lo + b)
                code = np.concatenate([base, raw[:, :wn]])
                # row 0, base, serves the trials whose group began before this chunk
                rows = np.maximum(i - i % matrix_reuse - (lo + a) + 1, 0)
                if rows.min() < 0 or rows.max() >= len(code):
                    raise IndexError(f"reuse-group rows {rows.min()}..{rows.max()} leave the"
                                     f" chunk's rows 0..{len(code) - 1}")
                base = code[rows[-1:]]
            at = np.empty((d, b - a), dtype=np.intp)  # word p of each inserted column
            np.multiply(order[:, :d].T, w, out=at, dtype=np.intp)
            at += rows * code.shape[1]
            for p in range(w):
                np.take(code, at, out=cols[p, :, a:b], mode="raise")
                at += 1
            cols[w - 1, :, a:b] &= last
            inserted[a:b] = order
            erasures[a:b] = np.count_nonzero(erased, axis=1)
            del raw, erased, code, order, at  # one chunk's draw alive at a time
        first = _first_dependent(cols[:, :, :t])
        yield np.where(first < erasures[:t], n + 1, inserted[np.arange(t), first] + 1)


@dataclass(frozen=True)
class EstimateReport:
    """Aggregated estimates of `trials` simulated rounds under one seed."""

    params: CodeParams  # the design point the trials were drawn at
    trials: int
    seed: int
    mean_symbols: float
    stderr_symbols: float
    success_rate: float
    ack_rate_per_block: tuple[float, ...]
    empirical_throughput: float
    decode_time_counts: tuple[int, ...]  # trials per decode time 0..n+1
    generator: str = GENERATOR_NAME
    matrix_reuse: int = 1


def _check_run(trials, seed, matrix_reuse=1) -> tuple[int, int, int]:
    """(trials, seed, matrix_reuse) as ints, or ValueError before any trial is drawn."""
    trials = _integral("trials", trials)
    seed = _integral("seed", seed)
    matrix_reuse = _integral("matrix_reuse", matrix_reuse)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed}")
    if matrix_reuse < 1:
        raise ValueError(f"matrix_reuse must be >= 1, got {matrix_reuse}")
    return trials, seed, matrix_reuse


def estimate(params: CodeParams, schedule: Schedule, trials: int, seed: int, *,
             matrix_reuse: int = 1) -> EstimateReport:
    """Simulate `trials` independent rounds and aggregate the estimates.

    Every trial is decoded on the calling thread, in blocks of 512, and all
    accumulators are exact integers.  matrix_reuse > 1 shares one sampled
    code across that many consecutive erasure draws; this is a
    variance-reduction mode that departs from the fresh-code-per-round model.
    """
    trials, seed, matrix_reuse = _check_run(trials, seed, matrix_reuse)
    _check_schedule(params, schedule)
    counts = np.zeros(params.n + 2, dtype=np.int64)  # trials per decode time 0..n+1
    for times in _span_times(params, seed, trials, matrix_reuse):
        counts += np.bincount(times, minlength=params.n + 2)
    return _scored(params, params, schedule, tuple(counts.tolist()), seed, matrix_reuse)


def rescore(report: EstimateReport, params: CodeParams, schedule: Schedule) -> EstimateReport:
    """estimate of report's trials, seed and matrix_reuse under schedule, drawing none.

    params must be the design point the report was drawn at: the decode
    times of one (k, n, eps) say nothing about another's.
    """
    return _scored(report.params, params, schedule, report.decode_time_counts, report.seed,
                   report.matrix_reuse)


def _scored(drawn_at: CodeParams, params: CodeParams, schedule: Schedule,
            counts: tuple[int, ...], seed: int, matrix_reuse: int) -> EstimateReport:
    """The report at params of the trials that counts holds per decode time 0..n+1."""
    trials = sum(counts)
    if len(counts) != params.n + 2 or trials < 1:
        raise ValueError(f"cannot score {trials} trials of decode times 0..{len(counts) - 1}"
                         f" at n={params.n}, which needs 0..{params.n + 1} and >= 1 trial")
    if drawn_at != params:
        raise ValueError(f"cannot score trials drawn at {drawn_at} at another point, {params}")
    _check_schedule(params, schedule)
    b = schedule.boundaries
    m = schedule.m
    sum_ns = 0
    sum_sq = 0
    first_ack = [0] * m
    for t, count in enumerate(counts):
        block = bisect_left(b, t)  # m when t = n + 1: the round fails at n
        sent = b[min(block, m - 1)]
        sum_ns += count * sent
        sum_sq += count * sent * sent
        if block < m:
            first_ack[block] += count
    acked = list(itertools.accumulate(first_ack))  # acked[i]: acked by block i + 1
    mean = sum_ns / trials
    if trials > 1:
        sample_var = max(0.0, (sum_sq - trials * mean * mean) / (trials - 1))
    else:
        sample_var = 0.0
    stderr = math.sqrt(sample_var / trials)
    success_rate = acked[-1] / trials
    return EstimateReport(
        params=params,
        trials=trials,
        seed=seed,
        mean_symbols=mean,
        stderr_symbols=stderr,
        success_rate=success_rate,
        ack_rate_per_block=tuple(c / trials for c in acked),
        empirical_throughput=params.k * success_rate / mean,
        decode_time_counts=counts,
        matrix_reuse=matrix_reuse,
    )


def _sample_times(params: CodeParams, trials: int, seed: int) -> np.ndarray:
    trials, seed, _ = _check_run(trials, seed)
    # a block's times are as narrow as n + 1 allows; the samples are intp
    return np.concatenate(list(_span_times(params, seed, trials)), dtype=np.intp)


def sample_decode_counts(k: int, n: int, trials: int, seed: int) -> np.ndarray:
    """Symbol-by-symbol decode times over a lossless in-order feed.

    One sample per trial of how many leading symbols make the message
    decodable: the decode time L with no erasures.  Trial i uses the same
    code as in sample_round_lengths and estimate.
    """
    return _sample_times(CodeParams(k, n), trials, seed)


def sample_round_lengths(params: CodeParams, trials: int,
                         seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Symbol-by-symbol round lengths over the lossy channel.

    Returns (lengths, success flags); a round that cannot decode even with
    everything received ends at n with success False.  Trial i is trial i of
    estimate with the same seed: the same code and erasure pattern, so its
    first boundary n_j >= length is the block at which that round stops.
    """
    times = _sample_times(params, trials, seed)
    return np.minimum(times, params.n), times <= params.n
