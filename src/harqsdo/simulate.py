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
column and its index + 1 for a received one, and at most d + 1 insertions
are needed for d = n - k parity checks.

Columns are row-packed.  A trial's column is W = max(1, ceil(d / 64)) uint64
words, word p holding rows 64 p..64 p + 63, and a block of 512 trials is one
(W, d + 1, 512) array.  The elimination takes the columns in turn; with b the
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

A draw chunk is packed from the raw words without a byte per entry.  An
entry is the top bit of a byte, so one mask keeps the 8 entries of a word,
which are 8 adjacent columns of one row; three shift-and-OR steps fold 8
rows' words into bytes of 8 rows per column, a byte copy stacks 8 such bytes
into each column word, and one take per word applies each trial's
insertion order.  A decode time is a property of the columns alone, so
neither the pivoting nor the block and chunk sizes move any output byte.
Per 512-trial block, the elimination took 0.79 ms at d = 56 against the
bit-sliced kernel's 2.21 ms, 4.7 against 6.4 ms at d = 88 and 14.3 against
20.7 ms at d = 130 (2-core Xeon VM, numpy 2.4.6).

Trial i reads its own counter-based stream, trial_rng(seed, i), so its
draws depend on (seed, i) alone and trial i is the same round in every
entry point.  A run builds one Philox and re-points it at each trial's
counter instead of building a generator per trial.  The kernel takes the
stream's raw words in one call and reads them exactly as
rng.integers(0, 2, (d, n), uint8) followed by rng.random(n) would, so the
draws, and GENERATOR_NAME, are those of the plain per-trial loop kept in
the tests as the reference.
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
    "trial_rng",
    "estimate",
    "rescore",
    "sample_decode_counts",
    "sample_round_lengths",
]

GENERATOR_NAME = "philox4x64(key=seed, counter=[0, 0, trial, 0])"

# Trials decoded together: each numpy step of the elimination serves all of
# them, so its fixed cost is shared by more trials as the block grows; at
# k = 32, n = 88 a block's columns take 233 kB.
_BLOCK = 512
# Raw words drawn and packed together, 256 kB: 46 trials at k = 32, n = 88,
# and at least one trial at any size, so a chunk's draw and its packing
# buffers stay small beside the block whatever d n is.
_DRAW_WORDS = 1 << 15

_TOP_BITS = np.uint64(0x8080808080808080)  # bit 7 of each byte: one matrix entry


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-trial stream; a pure function of (seed, index)."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, index, 0]))


def _stream(seed: int):
    """words(i, count): the first count raw words of trial_rng(seed, i)'s stream.

    One Philox serves every trial.  Assigning its state with counter
    [0, 0, i, 0], the same key and an empty buffer puts it exactly where a
    fresh Philox(key=seed, counter=[0, 0, i, 0]) starts, without building a
    generator, and with it a SeedSequence, per trial.
    """
    bitgen = np.random.Philox(key=seed)
    state = bitgen.state  # buffer empty; lists assign faster than its arrays
    counter = [0, 0, 0, 0]
    state["state"] = {"counter": counter, "key": state["state"]["key"].tolist()}
    state["buffer"] = state["buffer"].tolist()

    def words(i: int, count: int) -> np.ndarray:
        counter[2] = i
        bitgen.state = state
        return bitgen.random_raw(count)

    return words


def _column_packer(d: int, n: int, chunk: int):
    """pack(code, erased, out): the first s inserted columns of up to chunk trials.

    code is _draw's C-contiguous (T, >= ceil(d n / 8) + 1) raw words and
    erased is (T, n) bool.  A trial inserts its erased columns ascending, then
    its received ones from right to left; out is (W, s, T) uint64, W =
    max(1, ceil(d / 64)), and takes them row-packed: bit b of out[p, c, t] is
    entry 64 p + b of trial t's c-th inserted column.  Returns order, (T, s):
    order[t, c] is the index of trial t's c-th inserted column.

    Entry (r, j) is the top bit of byte r n + j of the trial's words, so the
    word that starts at byte r n + 8 i holds columns 8 i..8 i + 7 of row r
    (a row's bytes past n belong to the next row and land in columns >= n,
    which no trial inserts).  For each run of 8 rows, three shift-and-OR
    steps fold those words into one whose byte i' has column 8 i + i' of the
    run's rows, row 8 R + b at bit b; a byte copy stacks 8 such bytes into
    each column word, and one take per word applies each trial's insertion
    order.  The buffers live as long as pack, and their padding stays zero.
    """
    w, s = max(1, -(-d // 64)), d + 1
    groups, span = -(-d // 8), -(-n // 8)  # runs of 8 rows; words per row
    # fold[b, t, R]: row 8 R + b of trial t, a word per 8 columns
    fold = np.zeros((8, chunk, groups, span), dtype=np.uint64)
    stacked = np.zeros((w, span, 8, chunk, 8), dtype=np.uint8)  # [p, i, i', t, R - 8 p]
    words = stacked.view(np.uint64).reshape(w, span * 8 * chunk)  # column 8 i + i' at t
    full, part = divmod(d, 8)
    j = np.arange(n)

    def pack(code: np.ndarray, erased: np.ndarray, out: np.ndarray) -> np.ndarray:
        t = len(code)
        # a view of code's own buffer: through as_strided, the peak RSS of
        # repeated 3000-trial estimates rose by 0.9 MB after a few hundred calls
        rows = np.ndarray((t, d, span), np.uint64, code, strides=(code.strides[0], n, 8))
        folded = fold[:, :t]
        np.bitwise_and(rows[:, : 8 * full].reshape(t, full, 8, span).transpose(2, 0, 1, 3),
                       _TOP_BITS, out=folded[:, :, :full])
        if part:
            np.bitwise_and(rows[:, 8 * full :].transpose(1, 0, 2), _TOP_BITS,
                           out=folded[:part, :, full])
        # row b lands k bits below row b + k; after k = 1, row b is at bit b
        for k in (4, 2, 1):
            low = folded[:k]
            np.right_shift(low, np.uint64(k), out=low)
            low |= folded[k : 2 * k]
        column_bytes = folded[0].view(np.uint8).reshape(t, groups, span, 8)
        for p in range(w):
            top = column_bytes[:, 8 * p : 8 * p + 8]
            stacked[p, :, :, :t, : top.shape[1]] = top.transpose(2, 3, 0, 1)
        order = np.argsort(np.where(erased, j, 2 * n - j), axis=1)[:, :s]
        at = order.T * chunk + np.arange(t)  # (s, T) offsets into one word of stacked
        for p in range(w):
            np.take(words[p], at, out=out[p], mode="clip")
        return order

    return pack


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


def _draw(words, lo: int, hi: int, d: int, n: int, matrix_reuse: int):
    """Parity-check words and channel uniforms (T, n) of trials lo..hi-1.

    words is a _stream(seed).  The same draws as rng.integers(0, 2, (d, n),
    uint8) followed by rng.random(n) on rng = trial_rng(seed, i), read from
    the stream's raw 64-bit words.  The bounded integer draw takes one byte
    per entry, in little-endian order within each word, and keeps the byte's
    top bit: entry (r, j) of trial i is the top bit of byte r n + j of its
    first ceil(d n / 8) words.  Those come back as they are, in C-contiguous
    rows of at least one more word (the uniforms' words or zero), so that a
    row of the matrix can be read in whole words from any byte.  A uniform
    is the next word's top 53 bits times 2**-53.  With matrix_reuse > 1 the uniforms come from
    the first n words of stream i and the matrix from stream
    i - i % matrix_reuse.
    """
    nm = -(-d * n // 8)
    if matrix_reuse == 1:
        raw = np.empty((hi - lo, nm + n), dtype=np.uint64)
        for row, i in enumerate(range(lo, hi)):
            raw[row] = words(i, nm + n)
        code, chan = raw, raw[:, nm:]
    else:
        base = lo - lo % matrix_reuse
        codes = [words(b, nm) for b in range(base, hi, matrix_reuse)]
        code = np.zeros((hi - lo, nm + 1), dtype=np.uint64)
        for row, i in enumerate(range(lo, hi)):
            code[row, :nm] = codes[(i - base) // matrix_reuse]
        chan = np.stack([words(i, n) for i in range(lo, hi)])
    return code, (chan >> np.uint64(11)) * 2.0 ** -53


def _span_times(params: CodeParams, seed: int, trials: int, matrix_reuse: int = 1):
    """Decode times of trials 0..trials-1, one array per block of _BLOCK.

    Every stream is read through one _stream.  Each draw chunk's inserted
    columns are packed straight into one block array (see _column_packer),
    and their indices and the trials' erasure counts into two more, all
    reused block to block.  A trial whose first dependent column is erased
    (the erased ones go first) never decodes, n + 1; otherwise the column's
    index + 1 is the first time its symbols decode.
    """
    d, n = params.n - params.k, params.n
    words = _stream(seed)
    block = min(_BLOCK, trials)
    chunk = max(1, min(block, _DRAW_WORDS // (-(-d * n // 8) + n)))
    pack = _column_packer(d, n, chunk)
    cols = np.empty((max(1, -(-d // 64)), d + 1, block), dtype=np.uint64)
    inserted = np.empty((block, d + 1), dtype=np.min_scalar_type(n + 1))
    erasures = np.empty(block, dtype=np.intp)
    for lo in range(0, trials, block):
        t = min(block, trials - lo)
        for a in range(0, t, chunk):
            b = min(a + chunk, t)
            code, uniforms = _draw(words, lo + a, lo + b, d, n, matrix_reuse)
            erased = uniforms < params.epsilon
            inserted[a:b] = pack(code, erased, cols[:, :, a:b])
            erasures[a:b] = erased.sum(axis=1)
            del code, uniforms  # one chunk's draw alive at a time
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
