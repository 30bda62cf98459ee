"""Seeded Monte Carlo simulation of the incremental-redundancy protocol.

Each round samples a fresh uniform parity-check matrix and an i.i.d. erasure
pattern, then decodes by the rank condition: the message is recoverable
exactly when the columns for the missing symbols (unsent ones count as
erased) are linearly independent over GF(2).  Per-trial random substreams
are derived from (seed, trial index) with a counter-based generator, so
serial and parallel runs agree bit for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codes import CodeParams
from .channel import Schedule, _check_schedule

__all__ = [
    "Gf2Matrix",
    "RoundOutcome",
    "EstimateReport",
    "GENERATOR_NAME",
    "trial_rng",
    "gf2_rank",
    "is_decodable",
    "simulate_round",
    "estimate",
    "sample_decode_counts",
    "sample_round_lengths",
]

GENERATOR_NAME = "philox4x64(key=seed, counter=[0, 0, trial, 0])"


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
        mat = cls(arr.shape[0], arr.shape[1], _pack_words(arr))
        mat.__dict__["column_masks"] = _pack_words(np.ascontiguousarray(arr.T))
        return mat

    @classmethod
    def sample(cls, rows: int, cols: int, rng: np.random.Generator) -> "Gf2Matrix":
        """Uniform i.i.d. fair-bit matrix."""
        bits = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        return cls.from_array(bits)

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Each column as an int over the row bits."""
        out = []
        for j in range(self.cols):
            v = 0
            for i, w in enumerate(self.bits):
                v |= ((w >> j) & 1) << i
            out.append(v)
        return tuple(out)

    def to_array(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for i, w in enumerate(self.bits):
            for j in range(self.cols):
                out[i, j] = (w >> j) & 1
        return out


def gf2_rank(matrix: Gf2Matrix) -> int:
    """Rank over GF(2) by Gaussian elimination on a working copy."""
    work = list(matrix.bits)
    rank = 0
    row = 0
    for col in range(matrix.cols):
        pivot = None
        for r in range(row, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        for r in range(len(work)):
            if r != row and ((work[r] >> col) & 1):
                work[r] ^= work[row]
        rank += 1
        row += 1
        if row == len(work):
            break
    return rank


class _Gf2Basis:
    """Incremental independence test over int bitmasks of length dim."""

    __slots__ = ("pivots",)

    def __init__(self, dim: int) -> None:
        self.pivots: list[int] = [0] * dim

    def add(self, v: int) -> bool:
        """Reduce v against the basis; keep it if independent."""
        pivots = self.pivots
        while v:
            b = v.bit_length() - 1
            p = pivots[b]
            if not p:
                pivots[b] = v
                return True
            v ^= p
        return False


def _masks_independent(masks, dim: int) -> bool:
    basis = _Gf2Basis(dim)
    return all(basis.add(v) for v in masks)


def is_decodable(matrix: Gf2Matrix, erased) -> bool:
    """True iff the columns at the erased indices are linearly independent."""
    idx = sorted(set(erased))
    if idx and (idx[0] < 0 or idx[-1] >= matrix.cols):
        raise ValueError(f"erased index out of range for {matrix.cols} columns")
    if len(idx) > matrix.rows:
        return False
    cols = matrix.column_masks
    return _masks_independent((cols[j] for j in idx), matrix.rows)


@dataclass(frozen=True)
class RoundOutcome:
    """One simulated round: stop block, symbols sent, outcome, erasures seen."""

    last_block_index: int
    symbols_sent: int
    success: bool
    erased_count_per_block: tuple[int, ...]


def _sample_column_masks(d: int, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    # same draw as Gf2Matrix.sample, packing columns only
    bits = rng.integers(0, 2, size=(d, n), dtype=np.uint8)
    return _pack_words(np.ascontiguousarray(bits.T))


def simulate_round(params: CodeParams, schedule: Schedule,
                   rng: np.random.Generator) -> RoundOutcome:
    """Run one protocol round with a freshly sampled code and erasure pattern."""
    _check_schedule(params, schedule)
    cols = _sample_column_masks(params.n - params.k, params.n, rng)
    erased_chan = rng.random(params.n) < params.epsilon
    return _play_round(params, schedule, cols, erased_chan)


def _play_round(params: CodeParams, schedule: Schedule, cols: tuple[int, ...],
                erased_chan: np.ndarray) -> RoundOutcome:
    n, d = params.n, params.n - params.k
    b = schedule.boundaries
    erased_counts = []
    prev = 0
    for i, t in enumerate(b, start=1):
        erased_counts.append(int(erased_chan[prev:t].sum()))
        prev = t
        missing = int(erased_chan[:t].sum()) + (n - t)
        if missing > d:
            continue
        vectors = [cols[j] for j in np.flatnonzero(erased_chan[:t]).tolist()]
        vectors.extend(cols[t:])
        if _masks_independent(vectors, d):
            return RoundOutcome(i, t, True, tuple(erased_counts))
    return RoundOutcome(len(b), n, False, tuple(erased_counts))


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


def _run_chunk(params: CodeParams, schedule: Schedule, seed: int, start: int,
               stop: int, matrix_reuse: int):
    m = schedule.m
    sum_ns = 0
    sum_sq = 0
    successes = 0
    first_ack = [0] * m
    d, n = params.n - params.k, params.n
    for i in range(start, stop):
        if matrix_reuse == 1:
            rng = trial_rng(seed, i)
            cols = _sample_column_masks(d, n, rng)
            erased = rng.random(n) < params.epsilon
        else:
            base = i - (i % matrix_reuse)
            cols = _sample_column_masks(d, n, trial_rng(seed, base))
            erased = trial_rng(seed, i).random(n) < params.epsilon
        outcome = _play_round(params, schedule, cols, erased)
        sum_ns += outcome.symbols_sent
        sum_sq += outcome.symbols_sent ** 2
        if outcome.success:
            successes += 1
            first_ack[outcome.last_block_index - 1] += 1
    return sum_ns, sum_sq, successes, first_ack


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _plan_spans(trials: int, workers: int, cpus: int) -> list[tuple[int, int]]:
    """Contiguous trial ranges covering 0..trials, one per thread to start.

    At most min(workers, cpus, trials) ranges: threads beyond the CPUs this
    process may run on add no speed, only cost.
    """
    edges = np.linspace(0, trials, num=min(workers, cpus, trials) + 1, dtype=int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if a < b]


def estimate(params: CodeParams, schedule: Schedule, trials: int, seed: int, *,
             workers: int = 1, matrix_reuse: int = 1) -> EstimateReport:
    """Simulate `trials` independent rounds and aggregate the estimates.

    All accumulators are exact integers, so the report is bit-identical for
    any number of workers.  matrix_reuse > 1 shares one sampled code across
    that many consecutive erasure draws; this is a variance-reduction mode
    that departs from the fresh-code-per-round model.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if matrix_reuse < 1:
        raise ValueError(f"matrix_reuse must be >= 1, got {matrix_reuse}")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    _check_schedule(params, schedule)
    m = schedule.m
    spans = _plan_spans(trials, workers, _usable_cpus())
    if len(spans) == 1:
        parts = [_run_chunk(params, schedule, seed, *spans[0], matrix_reuse)]
    else:
        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            parts = list(
                pool.map(
                    lambda s: _run_chunk(params, schedule, seed, s[0], s[1], matrix_reuse),
                    spans,
                )
            )
    sum_ns = sum(p[0] for p in parts)
    sum_sq = sum(p[1] for p in parts)
    successes = sum(p[2] for p in parts)
    first_ack = [sum(p[3][i] for p in parts) for i in range(m)]
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


def sample_decode_counts(k: int, n: int, trials: int, seed: int) -> np.ndarray:
    """Symbol-by-symbol decode times over a lossless in-order feed.

    One sample per trial of how many leading symbols make the message
    decodable.  Works from the right: columns are folded into a basis in
    decreasing index order and the first dependence pins the decode time.
    """
    CodeParams(k, n)
    out = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        cols = _sample_column_masks(n - k, n, trial_rng(seed, i))
        basis = _Gf2Basis(n - k)
        for j in range(n - 1, -1, -1):
            if not basis.add(cols[j]):
                out[i] = j + 1
                break
        else:  # n independent columns of height n - k cannot exist for k >= 1
            raise AssertionError("unreachable: all columns independent")
    return out


def sample_round_lengths(params: CodeParams, trials: int,
                         seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Symbol-by-symbol round lengths over the lossy channel.

    Returns (lengths, success flags); a round that cannot decode even with
    everything received ends at n with success False.  Draws match
    simulate_round's layout, so the same (seed, index) yields the same code
    and erasure pattern in either mode.
    """
    n = params.n
    d = n - params.k
    lengths = np.empty(trials, dtype=np.int64)
    success = np.empty(trials, dtype=bool)
    for i in range(trials):
        rng = trial_rng(seed, i)
        cols = _sample_column_masks(d, n, rng)
        erased_chan = rng.random(n) < params.epsilon
        basis = _Gf2Basis(d)
        ok = all(basis.add(cols[j]) for j in np.flatnonzero(erased_chan).tolist())
        if not ok:
            lengths[i] = n
            success[i] = False
            continue
        received = np.flatnonzero(~erased_chan)
        for j in received[::-1]:
            if not basis.add(cols[j]):
                lengths[i] = j + 1
                success[i] = True
                break
        else:
            raise AssertionError("unreachable: all columns independent")
    return lengths, success
