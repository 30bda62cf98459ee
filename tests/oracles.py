"""Independent brute-force oracles used to freeze expected values.

Everything here stays deliberately naive: dense 0/1 Gaussian elimination,
full enumeration over matrices and erasure patterns, exact rationals, and
quadrature for the Gaussian tail.  None of it shares code with the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def dense_rank_mod2(a: np.ndarray) -> int:
    """Rank over GF(2) by textbook row reduction on a dense 0/1 array."""
    work = (np.array(a, dtype=np.int64) % 2).copy()
    rows, cols = work.shape
    rank = 0
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, rows):
            if work[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[[row, pivot]] = work[[pivot, row]]
        for r in range(rows):
            if r != row and work[r, col]:
                work[r] ^= work[row]
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def _columns_independent(cols_bits, d: int) -> bool:
    """Gaussian elimination with leading-bit pivots over packed columns."""
    pivots = [0] * d
    for v in cols_bits:
        while v:
            lead = v.bit_length() - 1
            if pivots[lead] == 0:
                pivots[lead] = v
                break
            v ^= pivots[lead]
        else:
            return False
    return True


def success_fraction(k: int, n: int, r: int) -> Fraction:
    """Exact fraction of (n-k) x (n-r) binary matrices with independent columns.

    Enumerates all 2**((n-k)(n-r)) matrices; only usable at toy sizes.
    """
    if r > n:
        return Fraction(1)
    d = n - k
    c = n - r
    if c > d:
        return Fraction(0)
    total = 0
    for cols_bits in itertools.product(range(2 ** d), repeat=c):
        if _columns_independent(cols_bits, d):
            total += 1
    return Fraction(total, 2 ** (d * c))


def ack_fraction(k: int, n: int, t: int, epsilon: Fraction) -> Fraction:
    """Exact ACK-by-t probability by enumerating erasure patterns.

    Decodability given a pattern depends only on how many columns are
    missing; the per-size fractions come from success_fraction.
    """
    if t < k:
        return Fraction(0)
    frac_by_missing = {}
    acc = Fraction(0)
    for pattern in itertools.product((False, True), repeat=t):
        erased = sum(pattern) + (n - t)
        if erased not in frac_by_missing:
            frac_by_missing[erased] = success_fraction(k, n, n - erased)
        weight = epsilon ** sum(pattern) * (1 - epsilon) ** (t - sum(pattern))
        acc += weight * frac_by_missing[erased]
    return acc


def gaussian_tail_quad(x: float) -> float:
    """Q(x) by numerical quadrature of the defining integral."""
    from scipy.integrate import quad

    val, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), x, math.inf)
    return val


def expected_stop_symbols(k: int, n: int, epsilon: Fraction, boundaries) -> Fraction:
    """Exact E[symbols per round] by enumerating erasure patterns over n symbols."""
    frac_by_missing = {}

    def decodable_prob(missing: int) -> Fraction:
        if missing not in frac_by_missing:
            frac_by_missing[missing] = success_fraction(k, n, n - missing)
        return frac_by_missing[missing]

    total = Fraction(0)
    for pattern in itertools.product((False, True), repeat=n):
        weight = epsilon ** sum(pattern) * (1 - epsilon) ** (n - sum(pattern))
        stopped = None
        # decodability is random over H given the pattern; average the stop
        # point block by block via inclusion of first-success probabilities
        prob_not_yet = Fraction(1)
        contrib = Fraction(0)
        for b in boundaries:
            missing = sum(pattern[:b]) + (n - b)
            p_dec = decodable_prob(missing)
            # P(first success at this boundary) is NOT p_dec * prob_not_yet in
            # general; nested erased sets make success monotone, so
            # P(success by b) = p_dec and first-success mass is the increment.
            p_by_now = p_dec
            inc = p_by_now - (Fraction(1) - prob_not_yet)
            contrib += b * inc
            prob_not_yet = Fraction(1) - p_by_now
        contrib += boundaries[-1] * prob_not_yet
        total += weight * contrib
    return total


def enumerate_best_interior(curve: np.ndarray, k: int, n: int, m: int) -> tuple[int, ...]:
    """Interior boundaries minimizing the telescoped objective, by enumeration.

    Scores every strictly increasing (m-1)-tuple drawn from k..n-1 against the
    ACK curve, in lexicographic order and in chunks, keeping the first
    minimum; cost is C(n - k, m - 1), so only usable at desk scale.
    """
    chunk_rows = 1 << 20
    combos = itertools.combinations(range(k, n), m - 1)
    best_obj = math.inf
    best: tuple[int, ...] | None = None
    while True:
        chunk = np.array(list(itertools.islice(combos, chunk_rows)), dtype=np.int64)
        if chunk.size == 0:
            break
        nxt = np.concatenate([chunk[:, 1:], np.full((len(chunk), 1), n)], axis=1)
        objs = ((chunk - nxt) * curve[chunk]).sum(axis=1) + n
        idx = int(np.argmin(objs))
        if objs[idx] < best_obj:
            best_obj = float(objs[idx])
            best = tuple(int(x) for x in chunk[idx])
    assert best is not None
    return best
