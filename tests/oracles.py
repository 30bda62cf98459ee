"""Independent brute-force oracles used to freeze expected values.

Everything here stays deliberately naive: dense 0/1 Gaussian elimination,
full enumeration over matrices and erasure patterns, exact rationals,
quadrature for the Gaussian tail, the channel laws term by term, and the
SDO recursion one explicit step at a time.  None of it shares code with the
package, except ack_curve_loop, which reads the package's success curve so
that it can pin the ACK curve's arithmetic bit for bit.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from harqsdo import decode_success_curve


def dense_rank_mod2(a: np.ndarray) -> int:
    """Rank over GF(2) by textbook row reduction on a dense 0/1 array."""
    work = (np.array(a, dtype=np.int64) % 2).copy()
    rows, cols = work.shape
    rank = 0
    row = 0
    for col in range(cols):
        below = np.flatnonzero(work[row:, col])
        if below.size == 0:
            continue
        pivot = row + below[0]
        work[[row, pivot]] = work[[pivot, row]]
        others = work[:, col] == 1
        others[row] = False
        work[others] ^= work[row]
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


def observed_pmf(t: int, r: int, epsilon: float) -> float:
    """Binomial chance of r unerased symbols among t transmitted ones."""
    if t < 0:
        raise ValueError(f"t must be a nonnegative integer, got {t}")
    if r < 0 or r > t:
        return 0.0
    e = t - r
    if epsilon == 0.0:
        return 1.0 if e == 0 else 0.0
    # binomial coefficients via log-gamma; direct factorials overflow near t ~ 100
    logp = math.lgamma(t + 1) - math.lgamma(r + 1) - math.lgamma(e + 1)
    logp += r * math.log1p(-epsilon)
    if e:
        logp += e * math.log(epsilon)
    return math.exp(logp)


def erasures_pmf(r: int, e: int, epsilon: float) -> float:
    """Negative-binomial chance of e erasures before the r-th arrival."""
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    if e < 0:
        return 0.0
    if epsilon == 0.0:
        return 1.0 if e == 0 else 0.0
    logp = math.lgamma(r + e) - math.lgamma(e + 1) - math.lgamma(r)
    logp += r * math.log1p(-epsilon)
    if e:
        logp += e * math.log(epsilon)
    return math.exp(logp)


def ack_curve_loop(params) -> np.ndarray:
    """The ACK curve one t at a time, three gammaln calls and one dot per t.

    The same IEEE operations per element as harqsdo.ack_curve, which must
    match it byte for byte; ps is the package's decode_success_curve.
    """
    k, n, eps = params.k, params.n, params.epsilon
    ps = decode_success_curve(k, n)
    if eps == 0.0:
        return ps
    out = np.zeros(n + 1)
    log_keep, log_lose = math.log1p(-eps), math.log(eps)
    for t in range(k, n + 1):
        r = np.arange(t + 1)
        e = t - r
        logw = gammaln(t + 1) - gammaln(r + 1) - gammaln(e + 1)
        w = np.exp(logw + r * log_keep + e * log_lose)
        out[t] = max(0.0, float(1.0 - np.dot(1.0 - ps[: t + 1], w)))
    return out


def round_length_convolution(k: int, n: int, epsilon: float) -> np.ndarray:
    """Round-length pmf on k..n by convolving erasures with the decode point.

    The decode point needs r received symbols with pmf 2**(k-r) P_s(r), from
    the closed-form product; the round ends at t = r + e for k <= t < n, and
    the rest of the mass sits at n.
    """
    d = n - k
    decode_pmf = [2.0 ** (k - r) * math.prod(1.0 - 2.0 ** (l - d) for l in range(n - r))
                  for r in range(k, n + 1)]
    pmf = np.zeros(n - k + 1)
    for t in range(k, n):
        pmf[t - k] = sum(erasures_pmf(r, t - r, epsilon) * decode_pmf[r - k]
                         for r in range(k, t + 1))
    pmf[-1] = 1.0 - pmf[:-1].sum()
    return pmf


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


def sdo_increment(cdf, pdf, before, prev) -> float:
    """(F(prev) - F(before)) / F'(prev), with F(before) = 0 when before is None."""
    f_before = 0.0 if before is None else cdf(before)
    return (cdf(prev) - f_before) / pdf(prev)


def sdo_continuous_step(cdf, pdf, before, prev) -> float:
    """The real boundary after prev that zeroes the smoothed objective's derivative in prev."""
    return prev + sdo_increment(cdf, pdf, before, prev)


def sdo_recursion(cdf, pdf, n: int, m: int, n1: int) -> tuple[int, ...]:
    """SDO boundaries grown from n1 one step at a time, on any model F = cdf, F' = pdf.

    Every step evaluates F at both predecessors afresh, ceils the increment,
    floors it at 1 and clamps the boundary at its cap n - (m - i).  A density
    that underflows to 0 (a zero division) or so far that the increment is
    infinite (ceil overflows) takes the cap as well.
    """
    bounds = [n1]
    for i in range(2, m):
        prev = bounds[-1]
        before = bounds[-2] if len(bounds) > 1 else None
        cap = n - (m - i)
        try:
            step = math.ceil(sdo_increment(cdf, pdf, before, prev))
        except (ZeroDivisionError, OverflowError):
            bounds.append(cap)
            continue
        bounds.append(min(prev + max(1, step), cap))
    bounds.append(n)
    return tuple(bounds)


def sdo_optimize(cdf, pdf, curve, k: int, n: int, m: int) -> tuple[tuple[int, ...], float]:
    """SDO's schedule and exact objective, one first boundary at a time.

    Grows every feasible n1 = k..n-m+1 with sdo_recursion, scores it with the
    telescoped objective n + sum_i (n_i - n_{i+1}) curve[n_i], summed left to
    right, and keeps the first strict minimum.
    """
    best, best_obj = None, math.inf
    for n1 in range(k, n - m + 2):
        b = sdo_recursion(cdf, pdf, n, m, n1)
        obj = float(n)
        for i in range(m - 1):
            obj += (b[i] - b[i + 1]) * curve[b[i]]
        if obj < best_obj:
            best, best_obj = b, obj
    return best, float(best_obj)


def smoothed_objective(cdf, boundaries) -> float:
    """Expected symbols with the ACK curve replaced by cdf, in the direct form.

    sum over i < m of n_i (F(n_i) - F(n_{i-1})) + n_m (1 - F(n_{m-1})), with
    F(n_0) = 0: each boundary weighted by the chance the round stops there.
    """
    b = list(boundaries)
    f = [0.0] + [cdf(x) for x in b[:-1]]
    return sum(b[i] * (f[i + 1] - f[i]) for i in range(len(b) - 1)) + b[-1] * (1.0 - f[-1])


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


def dp_best_interior(curve: np.ndarray, k: int, n: int, m: int) -> tuple[int, ...]:
    """Interior boundaries minimizing the telescoped objective, by a full-matrix DP.

    Forms the whole (n - k) x (n - k) matrix step[a, b] = (x_a - x_b) curve[x_a]
    for b > a (+inf elsewhere) once, folds it into the best tail cost per
    boundary slot by slot, and backtracks with the first minimum of each row,
    so ties break toward lexicographically smaller boundaries; O(m n**2) time
    and O(n**2) memory.
    """
    x = np.arange(k, n)
    c = curve[k:n]
    step = np.where(x[None, :] > x[:, None], (x[:, None] - x[None, :]) * c[:, None], np.inf)
    tails = [(x - n) * c]
    for _ in range(m - 2):
        tails.append((step + tails[-1]).min(axis=1))
    # tails[i][a]: least sum of the terms from slot i + 1 on, given n_{i+1} = x[a]
    tails.reverse()
    picks = [int(np.argmin(tails[0]))]
    for tail in tails[1:]:
        picks.append(int(np.argmin(step[picks[-1]] + tail)))
    return tuple(int(x[a]) for a in picks)


def philox_trial(seed: int, index: int) -> np.random.Generator:
    """The per-trial stream the simulator names: Philox keyed by seed, counter word 2 = index."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, index, 0]))


def _column_ints(bits: np.ndarray) -> list[int]:
    """Each column of a 0/1 array as an int, bit r = row r."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8).T, axis=1, bitorder="little")
    return [int.from_bytes(col.tobytes(), "little") for col in packed]


def play_round(d: int, n: int, boundaries, cols, erased):
    """(stop block, symbols sent, success, erasures per block) of one round.

    Decides block by block, rebuilding the independence test of the missing
    columns (erased so far plus unsent) from scratch at every boundary.
    """
    counts = []
    prev = 0
    for i, t in enumerate(boundaries, start=1):
        counts.append(int(sum(erased[prev:t])))
        prev = t
        missing = [j for j in range(t) if erased[j]] + list(range(t, n))
        if len(missing) <= d and _columns_independent([cols[j] for j in missing], d):
            return i, t, True, tuple(counts)
    return len(boundaries), n, False, tuple(counts)


def reference_rounds(k: int, n: int, epsilon: float, boundaries, trials: int, seed: int,
                     matrix_reuse: int = 1) -> list[tuple]:
    """play_round for trials 0..trials-1, drawn the plain way.

    Trial i draws rng.integers(0, 2, (n - k, n), uint8) then rng.random(n)
    from its own stream; with matrix_reuse > 1 the code comes from stream
    i - i % matrix_reuse and the erasures from stream i alone.
    """
    d = n - k
    out = []
    for i in range(trials):
        if matrix_reuse == 1:
            rng = philox_trial(seed, i)
            bits = rng.integers(0, 2, size=(d, n), dtype=np.uint8)
        else:
            bits = philox_trial(seed, i - i % matrix_reuse).integers(
                0, 2, size=(d, n), dtype=np.uint8)
            rng = philox_trial(seed, i)
        erased = (rng.random(n) < epsilon).tolist()
        out.append(play_round(d, n, boundaries, _column_ints(bits), erased))
    return out
