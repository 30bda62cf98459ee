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
are needed for d = n - k parity checks.  It row-reduces the d
checks over the inserted columns, one column at a time for a whole block of
trials in numpy.  The block is bit-sliced across trials: one 64-bit word
holds one matrix entry of 64 trials, so every step is a bitwise operation
on whole words whatever d is.  Each draw chunk enters the block through one
gather of its trials' inserted columns; a multiply by 2 ** (t % 8) puts
trial t's 0/1 entries at bit t % 8, and one OR over each run of 8 trials
makes the bytes.  The pivot for column c is the first row
that has bit c; XOR-ing it into every row with bit c also clears the pivot
row itself, so a used row drops out without a mask of free rows.

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

# Trials decoded together: each numpy step of the kernel serves this many, 64
# to a word, so its fixed cost is shared by more trials as the block grows;
# at k = 32, n = 88 a block holds two 200 kB arrays.
_BLOCK = 512
# Trials drawn together, a multiple of 8 that divides 64 so each chunk fills
# whole bytes of a lane word.  The draw takes one byte per matrix entry, about
# 360 kB per chunk at k = 32, n = 88.
_DRAW = 64


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


def _insertion_columns(bits: np.ndarray, erased: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each trial's parity checks over its inserted columns into out.

    bits is (T, d, n) 0/1 and erased is (T, n) bool.  The order is the erased
    columns ascending, then the received ones from right to left; only the
    first s = out.shape[0] can matter.  out is (s, d, >= ceil(T / 8)) uint8
    and takes the columns bit-sliced across trials: bit t % 8 of
    out[c, r, t // 8] is entry r of trial t's c-th inserted column; its bytes
    past ceil(T / 8) are left as they are.  One gather takes the s columns of
    every trial, (T, s, d); a multiply by 2 ** (t % 8) moves trial t's 0/1
    entries to bit t % 8, and one OR over each run of 8 trials, the last
    zero-padded, makes the bytes.  Returns when, (T, s): when[t, c] is trial
    t's decode time if its c-th inserted column is the first dependent one,
    n + 1 for an erased column and the column's index + 1 otherwise.
    """
    t, d, n = bits.shape
    s = out.shape[0]
    j = np.arange(n)
    order = np.argsort(np.where(erased, j, 2 * n - j), axis=1)[:, :s]
    trials = np.arange(t)[:, None]
    part = bits[trials, :, order]
    # a multiply, not np.left_shift: numpy's uint8 shift by an array of counts
    # checks each count against the width and took 3.7 times as long here
    # (18 against 66 us per 64-trial chunk at k = 32, n = 88, numpy 2.4)
    np.multiply(part, (2 ** (trials % 8)).astype(np.uint8)[:, :, None], out=part)
    if t % 8:
        part = np.concatenate([part, np.zeros((-t % 8, s, d), dtype=np.uint8)])
    lanes = np.bitwise_or.reduce(part.reshape(len(part) // 8, 8, s, d), axis=1)
    out[:, :, : len(lanes)] = lanes.transpose(1, 2, 0)
    is_erased = np.arange(s) < erased.sum(axis=1, keepdims=True)  # erased go first
    return np.where(is_erased, n + 1, order + 1)


def _first_dependent(cols: np.ndarray) -> np.ndarray:
    """Index of each lane's first column that depends on the columns before it.

    cols is (s, G, d) little-endian uint64, bit-sliced across 64 G lanes:
    bit l of cols[c, g, r] is entry r of column c of lane 64 g + l.  It is
    overwritten.  Gaussian elimination runs column by column for all lanes
    at once: column c is independent of columns 0..c-1 iff some row has bit
    c, and the first such row is the pivot.  XOR-ing the pivot row (picked
    out of each lane by a one-hot row mask) into every row that has bit c
    clears that bit, and clears the pivot row itself, so no used row is
    picked again.  Returns (64 G,) indices, s for
    a lane whose s columns are all independent.
    """
    s, g, d = cols.shape
    seen = np.zeros((g, d + 1), dtype="<u8")  # seen[:, r + 1]: rows 0..r have bit c
    below, upto, found = seen[:, :-1], seen[:, 1:], seen[:, d]
    pivot = np.empty((g, d), dtype="<u8")
    update = np.empty_like(cols)
    # independent[c]: the lanes whose columns 0..c-1 are independent
    independent = np.zeros((s + 1, g), dtype="<u8")
    independent[0] = ~np.uint64(0)
    for c in range(s):
        has = cols[c]
        np.bitwise_or.accumulate(has, axis=1, out=upto)
        np.bitwise_and(independent[c], found, out=independent[c + 1])
        np.bitwise_xor(upto, below, out=pivot)
        rest, part = cols[c + 1 :], update[c + 1 :]
        np.bitwise_and(rest, pivot, out=part)
        np.bitwise_and(np.bitwise_or.reduce(part, axis=2)[:, :, None], has, out=part)
        rest ^= part
    independent[:-1] ^= independent[1:]  # row c < s: the lanes whose answer is c
    return np.unpackbits(independent.view(np.uint8), axis=1, bitorder="little").argmax(axis=0)


def _draw(words, lo: int, hi: int, d: int, n: int, matrix_reuse: int):
    """Parity-check bits (T, d, n) and channel uniforms (T, n) of trials lo..hi-1.

    words is a _stream(seed).  The same values as rng.integers(0, 2, (d, n),
    uint8) followed by rng.random(n) on rng = trial_rng(seed, i), read from
    the stream's raw 64-bit words.  The bounded integer draw takes one byte
    per entry, in little-endian order within each word, and keeps the byte's
    top bit; ceil(d n / 8) words hold the matrix.  A uniform is the next
    word's top 53 bits times 2**-53.  With matrix_reuse > 1 the uniforms come
    from the first n words of stream i and the matrix from stream
    i - i % matrix_reuse.
    """
    nm = -(-d * n // 8)
    if matrix_reuse == 1:
        raw = np.empty((hi - lo, nm + n), dtype=np.uint64)
        for row, i in enumerate(range(lo, hi)):
            raw[row] = words(i, nm + n)
        code, chan = raw[:, :nm], raw[:, nm:]
    else:
        base = lo - lo % matrix_reuse
        codes = [words(b, nm) for b in range(base, hi, matrix_reuse)]
        code = np.stack([codes[(i - base) // matrix_reuse] for i in range(lo, hi)])
        chan = np.stack([words(i, n) for i in range(lo, hi)])
    uniforms = (chan >> np.uint64(11)) * 2.0 ** -53
    entries = code.astype("<u8", copy=False).view(np.uint8)[:, : d * n]
    return np.right_shift(entries, 7, out=entries).reshape(hi - lo, d, n), uniforms


def _span_times(params: CodeParams, seed: int, trials: int, matrix_reuse: int = 1):
    """Decode times of trials 0..trials-1, one array per block of _BLOCK.

    Every stream is read through one _stream.  Each draw chunk's columns are
    packed straight into one block array and its trials' decode times by
    inserted column (see _insertion_columns) into another, both reused block
    to block, and a trial's time is the one at its first dependent column.
    """
    d, n = params.n - params.k, params.n
    words = _stream(seed)
    words_per_column = -(-min(_BLOCK, trials) // 64)
    cols = np.empty((d + 1, words_per_column, d), dtype="<u8")
    col_bytes = cols.view(np.uint8).reshape(d + 1, words_per_column, d, 8)
    when = np.empty((64 * words_per_column, d + 1), dtype=np.min_scalar_type(n + 1))
    for lo in range(0, trials, _BLOCK):
        t = min(_BLOCK, trials - lo)
        for a in range(0, t, _DRAW):
            b = min(a + _DRAW, t)
            bits, uniforms = _draw(words, lo + a, lo + b, d, n, matrix_reuse)
            erased = uniforms < params.epsilon
            out = col_bytes[:, a // 64, :, a % 64 // 8 :]
            when[a:b] = _insertion_columns(bits, erased, out)
            del bits, uniforms  # one chunk's draw alive at a time
        first = _first_dependent(cols[:, : -(-t // 64)])[:t]
        yield when[np.arange(t), first]


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
