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
  when L = n + 1; the report is aggregated in exact integers.
- sample_round_lengths: (min(L, n), L <= n).
- sample_decode_counts: L on a lossless channel.
- simulate_round: L of one round drawn from the caller's generator.

The kernel finds L by inserting each trial's columns in a fixed order, the
erased ones first and then the received ones from right to left: the first
insertion that depends on the earlier ones is L's column, and at most d + 1
insertions are needed for d = n - k parity checks.  It row-reduces the d
checks over the inserted columns, one column at a time for a whole block of
trials in numpy, with the rows packed into ceil((d + 1) / 64) 64-bit words.

Trial i reads its own counter-based stream, trial_rng(seed, i), so serial
and parallel runs agree bit for bit.  The kernel takes the stream's raw
words in one call and reads them exactly as rng.integers(0, 2, (d, n),
uint8) followed by rng.random(n) would, so the draws, and GENERATOR_NAME,
are those of the plain per-trial loop kept in the tests as the reference.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codes import CodeParams, _integral
from .channel import Schedule, _check_schedule

__all__ = [
    "Gf2Matrix",
    "RoundOutcome",
    "EstimateReport",
    "GENERATOR_NAME",
    "trial_rng",
    "is_decodable",
    "simulate_round",
    "estimate",
    "sample_decode_counts",
    "sample_round_lengths",
]

GENERATOR_NAME = "philox4x64(key=seed, counter=[0, 0, trial, 0])"

# Trials decoded together: each numpy step of the kernel serves this many.
_BLOCK = 256
# Trials drawn together; bounds the one-byte-per-bit draw to about 100 kB.
_DRAW = 16


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-trial stream; a pure function of (seed, index)."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, index, 0]))


def _pack_words(bits: np.ndarray) -> tuple[int, ...]:
    """Pack the rows of a 0/1 array into ints, bit j = column j."""
    nrows, ncols = bits.shape
    words: list[int] | None = None
    for start in range(0, ncols, 63):
        chunk = bits[:, start : start + 63].astype(np.uint64)
        weights = np.uint64(1) << np.arange(chunk.shape[1], dtype=np.uint64)
        part = (chunk * weights).sum(axis=1, dtype=np.uint64).tolist()
        if words is None:
            words = part
        else:
            words = [w | (x << start) for w, x in zip(words, part)]
    return tuple(words) if words is not None else (0,) * nrows


@dataclass(frozen=True)
class Gf2Matrix:
    """Binary matrix stored as one packed word per row (bit j = entry i,j)."""

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != self.rows:
            raise ValueError(f"expected {self.rows} row words, got {len(self.bits)}")
        limit = 1 << self.cols
        if any(not 0 <= w < limit for w in self.bits):
            raise ValueError("row word has bits outside the column range")

    @classmethod
    def from_array(cls, a) -> "Gf2Matrix":
        arr = np.asarray(a, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("need a 2-d 0/1 array")
        return cls(arr.shape[0], arr.shape[1], _pack_words(arr))

    @classmethod
    def sample(cls, rows: int, cols: int, rng: np.random.Generator) -> "Gf2Matrix":
        """Uniform i.i.d. fair-bit matrix."""
        bits = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        return cls.from_array(bits)


def _insertion_rows(bits: np.ndarray, erased: np.ndarray):
    """Each trial's parity checks over its columns in insertion order.

    bits is (T, d, n) 0/1 and erased is (T, n) bool.  The order is the erased
    columns ascending, then the received ones from right to left; only the
    first s = min(d + 1, n) can matter.  Returns the rows packed word-major
    as (W, T, d + 1) uint64, bit c for the c-th inserted column and a zero
    row last, with the order (T, s) and the erased counts (T,).
    """
    t, d, n = bits.shape
    s = min(d + 1, n)
    j = np.arange(n)
    order = np.argsort(np.where(erased, j, 2 * n - j), axis=1)[:, :s].astype(np.int32)
    # one byte per bit, each row padded to whole words, then packed in one go
    wide = np.zeros((t, d + 1, 64 * -(-s // 64)), dtype=np.uint8)
    wide[:, :d, :s] = bits.transpose(0, 2, 1)[np.arange(t)[:, None], order].transpose(0, 2, 1)
    rows = np.packbits(wide.reshape(-1), bitorder="little").view("<u8").reshape(t, d + 1, -1)
    return rows.transpose(2, 0, 1), order, erased.sum(axis=1)


def _first_dependent(rows: np.ndarray, s: int) -> np.ndarray:
    """Index of each trial's first inserted column that depends on earlier ones.

    rows is _insertion_rows' (W, T, d + 1) array, which this overwrites.
    Gaussian elimination runs column by column, the same column for every
    trial at each step: column c is independent of columns 0..c-1 iff a row
    not yet used as a pivot has bit c set.  Returns s for a trial whose s
    columns are all independent.
    """
    _, t, d1 = rows.shape
    d = d1 - 1
    trial = np.arange(t)
    free = np.ones((t, d1), dtype=bool)
    cand = np.empty((t, d1), dtype=bool)
    update = np.empty_like(rows)
    first = np.full(t, s)
    for c in range(s):
        word, bit = divmod(c, 64)
        np.bitwise_and(rows[word], np.uint64(1 << bit), out=cand, casting="unsafe")
        cand &= free
        cand[:, d] = True  # the zero row is the pivot only when no row has bit c
        piv = cand.argmax(axis=1)
        np.minimum(first, np.where(piv == d, c, s), out=first)
        cand[:, d] = False
        cand[trial, piv] = False
        free[trial, piv] = False
        np.multiply(rows[:, trial, piv][:, :, None], cand, out=update)
        rows ^= update
        if first.max() < s:
            break
    return first


def _times(rows: np.ndarray, order: np.ndarray, n_erased: np.ndarray, n: int) -> np.ndarray:
    """Decode times L from _insertion_rows' output; needs d < n."""
    first = _first_dependent(rows, order.shape[1])
    col = np.take_along_axis(order, first[:, None], axis=1)[:, 0]
    return np.where(first < n_erased, n + 1, col + 1)


def _draw(seed: int, lo: int, hi: int, d: int, n: int, matrix_reuse: int):
    """Parity-check bits (T, d, n) and channel uniforms (T, n) of trials lo..hi-1.

    The same values as rng.integers(0, 2, (d, n), uint8) followed by
    rng.random(n) on rng = trial_rng(seed, i), read from the stream's raw
    64-bit words.  The bounded integer draw takes one byte per entry, in
    little-endian order within each word, and keeps the byte's top bit;
    ceil(d n / 8) words hold the matrix.  A uniform is the next word's top 53
    bits times 2**-53.  With matrix_reuse > 1 the uniforms come from the
    first n words of stream i and the matrix from stream i - i % matrix_reuse.
    """
    nm = -(-d * n // 8)

    def raw(i: int, count: int) -> np.ndarray:
        return trial_rng(seed, i).bit_generator.random_raw(count)

    if matrix_reuse == 1:
        words = np.empty((hi - lo, nm + n), dtype=np.uint64)
        for row, i in enumerate(range(lo, hi)):
            words[row] = raw(i, nm + n)
        code, chan = words[:, :nm], words[:, nm:]
    else:
        base = lo - lo % matrix_reuse
        codes = [raw(b, nm) for b in range(base, hi, matrix_reuse)]
        code = np.stack([codes[(i - base) // matrix_reuse] for i in range(lo, hi)])
        chan = np.stack([raw(i, n) for i in range(lo, hi)])
    entries = code.astype("<u8", copy=False).view(np.uint8)[:, : d * n]
    return entries.reshape(hi - lo, d, n) >> 7, (chan >> np.uint64(11)) * 2.0 ** -53


def _block_times(params: CodeParams, seed: int, lo: int, hi: int,
                 matrix_reuse: int) -> np.ndarray:
    """Decode times of trials lo..hi-1, decoded as one block."""
    d, n = params.n - params.k, params.n
    parts = []
    for a in range(lo, hi, _DRAW):
        bits, uniforms = _draw(seed, a, min(a + _DRAW, hi), d, n, matrix_reuse)
        parts.append(_insertion_rows(bits, uniforms < params.epsilon))
    rows, order, n_erased = zip(*parts)
    return _times(np.concatenate(rows, axis=1), np.concatenate(order),
                  np.concatenate(n_erased), n)


def _span_times(params: CodeParams, seed: int, start: int, stop: int,
                matrix_reuse: int = 1):
    """Decode times of trials start..stop-1, one array per block of _BLOCK."""
    for lo in range(start, stop, _BLOCK):
        yield _block_times(params, seed, lo, min(lo + _BLOCK, stop), matrix_reuse)


def is_decodable(matrix: Gf2Matrix, erased) -> bool:
    """True iff the columns at the erased indices are linearly independent."""
    idx = sorted(set(erased))
    if idx and (idx[0] < 0 or idx[-1] >= matrix.cols):
        raise ValueError(f"erased index out of range for {matrix.cols} columns")
    nbytes = -(-matrix.cols // 8)
    raw = b"".join(w.to_bytes(nbytes, "little") for w in matrix.bits)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(matrix.rows, nbytes),
                         axis=1, count=matrix.cols, bitorder="little")
    flags = np.zeros((1, matrix.cols), dtype=bool)
    flags[0, idx] = True
    rows, order, n_erased = _insertion_rows(bits[None], flags)
    # the erased columns go in first, so they are independent iff none of them is
    # the first dependent column
    return bool(_first_dependent(rows, order.shape[1])[0] >= n_erased[0])


@dataclass(frozen=True)
class RoundOutcome:
    """One simulated round: stop block, symbols sent, outcome, erasures seen."""

    last_block_index: int
    symbols_sent: int
    success: bool
    erased_count_per_block: tuple[int, ...]


def simulate_round(params: CodeParams, schedule: Schedule,
                   rng: np.random.Generator) -> RoundOutcome:
    """Run one protocol round with a freshly sampled code and erasure pattern."""
    _check_schedule(params, schedule)
    n = params.n
    bits = rng.integers(0, 2, size=(n - params.k, n), dtype=np.uint8)
    erased = rng.random(n) < params.epsilon
    t = int(_times(*_insertion_rows(bits[None], erased[None]), n)[0])
    b = schedule.boundaries
    stop = min(bisect_left(b, t), len(b) - 1)
    edges = (0,) + b[: stop + 1]
    counts = tuple(int(erased[x:y].sum()) for x, y in zip(edges, edges[1:]))
    return RoundOutcome(stop + 1, b[stop], t <= n, counts)


@dataclass(frozen=True)
class EstimateReport:
    """Aggregated simulation estimates; identical for any worker split."""

    trials: int
    seed: int
    mean_symbols: float
    stderr_symbols: float
    success_rate: float
    ack_rate_per_block: tuple[float, ...]
    empirical_throughput: float
    generator: str = GENERATOR_NAME
    matrix_reuse: int = 1

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "mean_symbols": self.mean_symbols,
            "stderr_symbols": self.stderr_symbols,
            "success_rate": self.success_rate,
            "ack_rate_per_block": list(self.ack_rate_per_block),
            "empirical_throughput": self.empirical_throughput,
            "generator": self.generator,
            "matrix_reuse": self.matrix_reuse,
        }


def _check_run(trials, seed) -> tuple[int, int]:
    """(trials, seed) as ints, or ValueError before any trial is drawn."""
    trials = _integral("trials", trials)
    seed = _integral("seed", seed)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed}")
    return trials, seed


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _plan_spans(trials: int, workers: int, cpus: int) -> list[tuple[int, int]]:
    """Contiguous trial ranges covering 0..trials, one per thread to run.

    At most min(workers, cpus, trials) ranges: threads beyond the CPUs this
    process may run on add no speed, only cost.
    """
    edges = np.linspace(0, trials, num=min(workers, cpus, trials) + 1, dtype=int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if a < b]


def _time_counts(params: CodeParams, seed: int, span: tuple[int, int],
                 matrix_reuse: int) -> np.ndarray:
    """How many trials of the span have each decode time 0..n+1."""
    counts = np.zeros(params.n + 2, dtype=np.int64)
    for times in _span_times(params, seed, *span, matrix_reuse):
        counts += np.bincount(times, minlength=params.n + 2)
    return counts


def estimate(params: CodeParams, schedule: Schedule, trials: int, seed: int, *,
             workers: int = 1, matrix_reuse: int = 1) -> EstimateReport:
    """Simulate `trials` independent rounds and aggregate the estimates.

    All accumulators are exact integers, so the report is bit-identical for
    any number of workers.  The trials split into min(workers, usable CPUs,
    trials) contiguous spans, each decoded on its own thread in blocks of
    256 trials; the calling thread takes the first span.  matrix_reuse > 1
    shares one sampled code across that many consecutive erasure draws; this
    is a variance-reduction mode that departs from the fresh-code-per-round
    model.
    """
    trials, seed = _check_run(trials, seed)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if matrix_reuse < 1:
        raise ValueError(f"matrix_reuse must be >= 1, got {matrix_reuse}")
    _check_schedule(params, schedule)
    spans = _plan_spans(trials, workers, _usable_cpus())
    # the calling thread decodes the first span itself, so only the others
    # need a thread, and with it a malloc arena of their own
    with ThreadPoolExecutor(max_workers=max(1, len(spans) - 1)) as pool:
        rest = pool.map(lambda s: _time_counts(params, seed, s, matrix_reuse), spans[1:])
        parts = [_time_counts(params, seed, spans[0], matrix_reuse), *rest]
    b = schedule.boundaries
    m = schedule.m
    sum_ns = 0
    sum_sq = 0
    first_ack = [0] * m
    for t, count in enumerate(sum(parts).tolist()):
        block = bisect_left(b, t)  # m when t = n + 1: the round fails at n
        sent = b[min(block, m - 1)]
        sum_ns += count * sent
        sum_sq += count * sent * sent
        if block < m:
            first_ack[block] += count
    successes = sum(first_ack)
    mean = sum_ns / trials
    if trials > 1:
        sample_var = max(0.0, (sum_sq - trials * mean * mean) / (trials - 1))
    else:
        sample_var = 0.0
    stderr = math.sqrt(sample_var / trials)
    success_rate = successes / trials
    acked = 0
    ack_rates = []
    for c in first_ack:
        acked += c
        ack_rates.append(acked / trials)
    return EstimateReport(
        trials=trials,
        seed=seed,
        mean_symbols=mean,
        stderr_symbols=stderr,
        success_rate=success_rate,
        ack_rate_per_block=tuple(ack_rates),
        empirical_throughput=params.k * success_rate / mean,
        matrix_reuse=matrix_reuse,
    )


def _sample_times(params: CodeParams, trials: int, seed: int) -> np.ndarray:
    trials, seed = _check_run(trials, seed)
    return np.concatenate(list(_span_times(params, seed, 0, trials)))


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
    everything received ends at n with success False.  Draws match
    simulate_round's layout, so the same (seed, index) yields the same code
    and erasure pattern in either mode.
    """
    times = _sample_times(params, trials, seed)
    return np.minimum(times, params.n), times <= params.n
