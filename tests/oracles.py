"""Independent brute-force oracles used to freeze expected values.

Everything here stays deliberately naive: dense 0/1 Gaussian elimination,
full enumeration over matrices and erasure patterns, exact rationals,
quadrature for the Gaussian tail, the channel laws term by term, and the
SDO recursion one explicit step at a time.  None of it shares code with the
package, except ack_curve_loop, which reads the package's success curve so
that it can pin the ACK curve's arithmetic bit for bit, and
schedule_from_model, which is no oracle but the package's own uncapped SDO
trajectory for one first boundary, capped here by its own rule, the one
the tests hold against sdo_recursion, and rows_to_csv_loop, which writes the
header line from the package's version and the config's own summary.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from harqsdo import decode_success_curve, sdo


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


def success_curve_loop(k: int, n: int) -> np.ndarray:
    """P_s(r) for r = 0..n, one missing column at a time from P_s(n) = 1.

    P_s(r - 1) = P_s(r) (1 - 2**((n - r) - d)): dropping one more received
    symbol adds one column, which must avoid the span of the n - r already
    missing ones.  Zero below k.
    """
    d = n - k
    ps = np.zeros(n + 1)
    ps[n] = 1.0
    for r in range(n, k, -1):
        ps[r - 1] = ps[r] * (1.0 - 2.0 ** ((n - r) - d))
    return ps


def objective_loop(boundaries, acks) -> float:
    """The telescoped objective n_m + sum_i (n_i - n_{i+1}) acks[i] of one schedule.

    One Python float addition per term, left to right from n_m.
    """
    total = float(boundaries[-1])
    for i in range(len(boundaries) - 1):
        total += (boundaries[i] - boundaries[i + 1]) * acks[i]
    return float(total)


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


def std_normal_ccdf(x: float) -> float:
    """Q(x): upper-tail probability of a standard Gaussian, via erfc."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def std_normal_ccdf_prime(x: float) -> float:
    """Q'(x) = -exp(-x**2 / 2) / sqrt(2 pi)."""
    return -(1.0 / math.sqrt(2.0 * math.pi)) * math.exp(-0.5 * x * x)


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


def schedule_from_model(model, n: int, m: int, n1: int) -> tuple[int, ...]:
    """The m boundaries the package grows from a first boundary n1 <= n - m + 1.

    model is any F with cdf_pdf.  The package grows the trajectory b from
    n1 without caps; this applies the cap rule of every schedule optimize
    scores, on its own: n_i = min(b_i, n - (m - i)) for i < m, and n_m = n,
    with every slot past the row's end (+inf there) at its cap.  That is
    sdo_recursion's clamp: the room below a cap is an integer, so the
    increment reaches it exactly when the uncapped boundary reaches the
    cap, and every later boundary takes its cap, as each step is at least 1.
    """
    grown = sdo._trajectories([model], n, (m,), n1, n1)[0].tolist()
    grown += [math.inf] * (m - 1 - len(grown))
    return tuple(int(min(grown[i - 1], n - (m - i))) for i in range(1, m)) + (n,)


def sdo_optimize(cdf, pdf, curve, k: int, n: int, m: int) -> tuple[tuple[int, ...], float]:
    """SDO's schedule and exact objective, one first boundary at a time.

    Grows every feasible n1 = k..n-m+1 with sdo_recursion, scores it with
    objective_loop over curve, and keeps the first strict minimum.
    """
    best, best_obj = None, math.inf
    for n1 in range(k, n - m + 2):
        b = sdo_recursion(cdf, pdf, n, m, n1)
        obj = objective_loop(b, [curve[x] for x in b[:-1]])
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


def dense_trial_words(seed: int, trial: int, count: int) -> list[int]:
    """Words trial * count..(trial + 1) * count - 1 of Philox(key=seed)'s raw stream, as ints.

    A fresh generator per call, moved there by counter arithmetic: one
    Philox4x64 counter step yields four words, so it advances trial * count
    // 4 steps and drops the remainder's words.
    """
    start = trial * count
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start // 4)
    return [int(x) for x in bitgen.random_raw(start % 4 + count)[start % 4 :]]


def dense_trial(d: int, n: int, epsilon: float, seed: int, trial: int,
                matrix_reuse: int = 1) -> tuple[list[int], list[bool]]:
    """(columns, erased) of one trial of simulate's dense stream, with Python ints.

    Trial i owns P = W n + n words, W = max(1, ceil(d / 64)).  Column j is
    the int whose 64-bit digit p is word j W + p, cut to its low d bits (row
    r is bit r); symbol j is erased when word W n + j's top 53 bits times
    2**-53 are below epsilon.  With matrix_reuse r the columns come from trial
    i - i % r and the erasures from trial i.
    """
    w = max(1, -(-d // 64))
    per = w * n + n
    code = dense_trial_words(seed, trial - trial % matrix_reuse, per)
    chan = dense_trial_words(seed, trial, per)[w * n :]
    cols = [sum(code[j * w + p] << (64 * p) for p in range(w)) % 2 ** d for j in range(n)]
    return cols, [(u >> 11) * 2.0 ** -53 < epsilon for u in chan]


def decode_time(d: int, n: int, cols, erased) -> int:
    """First t whose sent symbols decode, or n + 1, by bisection over t.

    The symbols sent by t decode when the columns of the erased ones and of
    the unsent ones are independent; that set only shrinks as t grows.
    """
    def decodes(t: int) -> bool:
        missing = [cols[j] for j in range(t) if erased[j]] + list(cols[t:])
        return len(missing) <= d and _columns_independent(missing, d)

    lo, hi = 0, n + 1  # the answer lies in lo..hi
    while lo < hi:
        mid = (lo + hi) // 2
        if decodes(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def reference_times(k: int, n: int, epsilon: float, trials: int, seed: int,
                    matrix_reuse: int = 1) -> list[int]:
    """decode_time of trials 0..trials-1, each drawn with dense_trial."""
    d = n - k
    return [decode_time(d, n, *dense_trial(d, n, epsilon, seed, i, matrix_reuse))
            for i in range(trials)]


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
    """play_round for trials 0..trials-1, each drawn with dense_trial."""
    d = n - k
    return [play_round(d, n, boundaries, *dense_trial(d, n, epsilon, seed, i, matrix_reuse))
            for i in range(trials)]


def rows_to_csv_loop(cfg, columns, rows) -> str:
    """The CLI's CSV text, each cell's kind decided anew for every cell of every row.

    The header line reads cfg's own summary; a float cell has 12 significant
    digits, a schedule slot nI is the I-th boundary of a row that has a
    schedule key, and a verdict is pass or FAIL.
    """
    import csv
    import io

    from harqsdo import __version__

    buf = io.StringIO()
    buf.write(f"# harq-sdo {__version__} {cfg.param_summary()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        cells = []
        for col in columns:
            if col.startswith("n") and col[1:].isdigit() and "schedule" in row:
                sched = row.get("schedule")
                idx = int(col[1:]) - 1
                if sched is not None and idx < len(sched.boundaries):
                    cells.append(str(sched.boundaries[idx]))
                else:
                    cells.append("")
            elif col == "schedule":
                sched = row.get("schedule")
                cells.append(" ".join(str(b) for b in sched.boundaries) if sched else "")
            elif col == "verdict":
                cells.append("pass" if row.get("passed") else "FAIL")
            else:
                value = row.get(col)
                if value is None:
                    cells.append("")
                elif isinstance(value, float):
                    cells.append(format(value, ".12g"))
                else:
                    cells.append(str(value))
        writer.writerow(cells)
    return buf.getvalue()
