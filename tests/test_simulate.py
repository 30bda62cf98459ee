"""Tests for the GF(2) kernel and the seeded protocol simulator."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from harqsdo import (
    CodeParams,
    Schedule,
    ack_curve,
    ack_prob,
    asymptotic_round_moments,
    decode_success_prob,
    decode_times,
    dst_constant,
    erdos_borwein_constant,
    estimate,
    exhaustive_search,
    expected_round_symbols,
    optimize,
    rescore,
)

import harqsdo.simulate as simulate_module
from harqsdo.cli import build_config, main
from harqsdo.simulate import (
    _BLOCK,
    _erasure_threshold,
    _first_dependent,
    _insertion_order,
)

from oracles import (
    decode_time,
    dense_rank_mod2,
    dense_trial,
    reference_rounds,
    reference_times,
)

# stdout sha256 of simulate at the benchmark's design point and trial count,
# and at d = 88 (two words a column) and d = 131 (three, with n % 8 = 7); and
# at n = 160, eps 0.3, where the insertion keys take two bytes and eps is no
# dyadic fraction, so the erasure threshold is a rounded-up one
FULL_SIZE_DIGESTS = {
    "simulate --k 32 --n 88 --m 4 --eps 0.5 --trials 3000 --seed 11 --model all":
        "6ef720780170b517769c8375d081f08c4c9e5339f3aedfc89771b12675b3d61c",
    "simulate --k 32 --n 88 --m 4 --eps 0.5 --trials 3000 --seed 11 --model all"
    " --matrix-reuse 3":
        "6eda8e38c3b139349b96477216c7aa3e0a4aa49085bb2e4aecb3d7113c30472b",
    "simulate --k 32 --n 120 --m 4 --eps 0.5 --trials 3000 --seed 11 --model all":
        "8ebb5cb069d430dcc5713cbfa57d3589a33a41884ad574615aaa2bed8fc56338",
    "simulate --k 32 --n 120 --m 4 --eps 0.5 --trials 3000 --seed 11 --model all"
    " --matrix-reuse 3":
        "168b79cd298db1f9380e025c60e9a40350ae1feb5529b038c9ab0a9cd890cef9",
    "simulate --k 20 --n 151 --m 4 --eps 0.5 --trials 3000 --seed 11 --model all":
        "9617f8a264da78ceb6fcdee50b7cb13da5ee2e13d6947ae2cc658832b72d58fd",
    "simulate --k 100 --n 160 --m 4 --eps 0.3 --trials 3000 --seed 11 --model all":
        "1c16ff34644ae884f3575b990dfbe3c0054e183bd0db84ea2753580d798d575b",
}


def _lanes(mats) -> np.ndarray:
    """Row-pack (d, s) 0/1 matrices into _first_dependent's (W, s, T) layout.

    Bit b of word [p, c, t] is entry (64 p + b, c) of matrix t, with W =
    max(1, ceil(d / 64)).
    """
    mats = np.asarray(mats, dtype=np.uint64)
    count, d, s = mats.shape
    cols = np.zeros((max(1, -(-d // 64)), s, count), dtype=np.uint64)
    for r in range(d):
        cols[r // 64] |= mats[:, r].T << np.uint64(r % 64)
    return cols


def _no_draws(*args, **kwargs):
    raise AssertionError("a Philox was built")


def _times(params: CodeParams, seed: int, trials: int, matrix_reuse: int = 1) -> list[int]:
    return decode_times(params, trials, seed, matrix_reuse=matrix_reuse).tolist()


def _first_dependent_by_rank(m: np.ndarray) -> int:
    """First column of m whose prefix loses full column rank, by oracles.dense_rank_mod2.

    A prefix that loses full rank never regains it, so a bisection finds it.
    """
    lo, hi = 0, m.shape[1]  # the answer lies in lo..hi
    while lo < hi:
        c = (lo + hi) // 2
        if dense_rank_mod2(m[:, : c + 1]) < c + 1:
            hi = c
        else:
            lo = c + 1
    return lo


@pytest.mark.parametrize("a, rank", [
    (np.eye(5, dtype=np.uint8), 5),
    (np.zeros((3, 4), dtype=np.uint8), 0),
    (np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), 2),  # row 3 = row 1 + row 2
    (np.vstack([np.eye(4, 9, dtype=np.uint8), np.ones((2, 9), dtype=np.uint8)]), 5),
], ids=["identity", "zero", "dependent-row", "wide"])
def test_dense_rank_mod2(a, rank):
    # the rank does not depend on the order of the rows
    perm = np.random.default_rng(2).permutation(len(a))
    assert dense_rank_mod2(a) == dense_rank_mod2(a[perm]) == rank


class TestErasedColumnsIndependent:
    """The kernel on the erased columns alone: they are independent iff it returns their count."""

    def test_exhaustive_fraction_matches_success_prob(self):
        # all 2**8 parity matrices for k=2, n=4, erased columns {2, 3}
        mats = np.array(list(itertools.product((0, 1), repeat=8))).reshape(256, 2, 4)
        first = _first_dependent(_lanes(mats[:, :, [2, 3]]))
        hits = int(np.count_nonzero(first == 2))
        assert hits / 256 == decode_success_prob(2, 4, 2) == 0.375

    def test_position_symmetry_chi_square(self):
        # same erased-set size, different positions: rates indistinguishable
        k, n, draws = 3, 8, 4000
        position_sets = [(1, 2, 3, 7), (0, 1, 2, 3), (2, 4, 5, 6), (3, 5, 6, 7)]
        table = []
        for si, pos in enumerate(position_sets):
            # the columns of the dense stream's first draws trials: at d = 5,
            # column j of trial i is word 2 n i + j, cut to its low 5 bits
            raw = np.random.Philox(key=777 + si).random_raw(draws * 2 * n).reshape(draws, 2 * n)
            cols = raw[:, list(pos)] & np.uint64(2 ** (n - k) - 1)
            assert cols[:3].tolist() == [
                [dense_trial(n - k, n, 0.0, 777 + si, i)[0][j] for j in pos] for i in range(3)]
            first = _first_dependent(cols.T[None].copy())
            dec = int(np.count_nonzero(first == len(pos)))
            table.append([dec, draws - dec])
        assert table == [[2374, 1626], [2362, 1638], [2439, 1561], [2350, 1650]]
        _, pval, _, _ = chi2_contingency(np.array(table))
        assert pval > 1e-3


class TestEstimate:
    def test_single_trial_matches_round(self):
        p = CodeParams(8, 24, 0.5)
        s = Schedule((16, 20, 24))
        rep = estimate(p, s, 1, 42)
        (_, sent, success, _), = reference_rounds(8, 24, 0.5, s.boundaries, 1, 42)
        assert rep.mean_symbols == float(sent)
        assert rep.stderr_symbols == 0.0
        assert rep.success_rate == float(success)

    def test_rate_one_code_always_succeeds_first_block(self):
        rep = estimate(CodeParams(6, 6, 0.0), Schedule((6,)), 20, 7)
        assert rep.success_rate == 1.0
        assert rep.ack_rate_per_block == (1.0,)
        assert rep.mean_symbols == 6.0

    def test_first_block_ack_rate(self):
        rep = estimate(CodeParams(1, 2, 0.0), Schedule((1, 2)), 20000, 5)
        rate = rep.ack_rate_per_block[0]
        assert rate * 20000 == 9937  # reference_times's count on the same stream
        se = math.sqrt(0.5 * 0.5 / 20000)
        assert abs(rate - 0.5) < 3 * se

    def test_schedule_must_end_at_n(self):
        with pytest.raises(ValueError):
            estimate(CodeParams(4, 10, 0.3), Schedule((4, 9)), 10, 1)

    def test_failure_rate_matches_analytic(self):
        p = CodeParams(8, 16, 0.5)
        s = Schedule((12, 16))
        rep = estimate(p, s, 100000, 99)
        want = 1.0 - ack_prob(p, 16)
        se = math.sqrt(want * (1 - want) / rep.trials)
        assert abs((1.0 - rep.success_rate) - want) < 3 * se

    def test_mean_and_ack_rates_match_analytic(self):
        p = CodeParams(8, 24, 0.5)
        s = Schedule((16, 20, 24))
        rep = estimate(p, s, 30000, 42)
        want = expected_round_symbols(p, s)
        assert abs(rep.mean_symbols - want) < 3 * rep.stderr_symbols
        for i, b in enumerate(s.boundaries):
            a = ack_prob(p, b)
            se = math.sqrt(a * (1 - a) / rep.trials)
            assert abs(rep.ack_rate_per_block[i] - a) < 3 * se
        assert rep.ack_rate_per_block == tuple(sorted(rep.ack_rate_per_block))

    def test_matrix_reuse_mode(self):
        p = CodeParams(8, 24, 0.5)
        s = Schedule((16, 20, 24))
        a = estimate(p, s, 4000, 42, matrix_reuse=8)
        b = estimate(p, s, 4000, 42, matrix_reuse=8)
        assert a == b
        assert a.matrix_reuse == 8
        # still an unbiased estimator of the same mean
        want = expected_round_symbols(p, s)
        assert abs(a.mean_symbols - want) < 4 * a.stderr_symbols

    def test_domain(self):
        p = CodeParams(8, 24, 0.5)
        s = Schedule((16, 20, 24))
        with pytest.raises(ValueError):
            estimate(p, s, 0, 1)
        with pytest.raises(ValueError):
            estimate(p, s, 10, -1)
        with pytest.raises(ValueError, match="matrix_reuse must be an integer, got 2.5"):
            estimate(p, s, 10, 1, matrix_reuse=2.5)


class TestRescore:
    """One draw scored under many schedules, against the per-trial oracle."""

    K, N, EPS, TRIALS, SEED = 32, 88, 0.5, 256, 7

    @pytest.fixture(scope="class")
    def drawn(self):
        p = CodeParams(self.K, self.N, self.EPS)
        return estimate(p, Schedule((self.N,)), self.TRIALS, self.SEED)

    @pytest.fixture(scope="class")
    def oracle_times(self):
        return reference_times(self.K, self.N, self.EPS, self.TRIALS, self.SEED)

    @pytest.mark.parametrize("schedule", [
        (88,), (16, 50, 88),
        exhaustive_search(CodeParams(32, 88, 0.5), 4).schedule.boundaries,
        optimize(CodeParams(32, 88, 0.5), 4, "normal").schedule.boundaries,
        optimize(CodeParams(32, 88, 0.5), 4, "lognormal").schedule.boundaries,
    ], ids=["m1", "first-below-k", "es", "na", "lna"])
    def test_scores_match_reference_rounds(self, schedule, drawn, oracle_times,
                                           monkeypatch):
        k, n, trials = self.K, self.N, self.TRIALS
        rounds = reference_rounds(k, n, self.EPS, schedule, trials, self.SEED)
        monkeypatch.setattr(np.random, "Philox", _no_draws)  # the oracle builds its own
        rep = rescore(drawn, Schedule(schedule))
        sent = [r[1] for r in rounds]
        mean = sum(sent) / trials
        var = (sum(x * x for x in sent) - trials * mean * mean) / (trials - 1)
        acked = list(itertools.accumulate(
            sum(1 for r in rounds if r[2] and r[0] == i) for i in range(1, len(schedule) + 1)))
        counts = np.bincount(oracle_times, minlength=n + 2)
        assert dataclasses.asdict(rep) == dataclasses.asdict(drawn) | {
            "mean_symbols": mean,
            "stderr_symbols": math.sqrt(max(0.0, var) / trials),
            "success_rate": acked[-1] / trials,
            "ack_rate_per_block": tuple(a / trials for a in acked),
            "empirical_throughput": k * (acked[-1] / trials) / mean,
            "decode_time_counts": tuple(counts.tolist()),
        }
        assert sum(rep.decode_time_counts) == rep.trials == trials

    @pytest.mark.parametrize("counts, schedule, match", [
        ((50,) + (0,) * 31, (16, 24), r"^cannot score 50 trials of decode times 0\.\.31 at n=24,"
                                      r" which needs 0\.\.25 and >= 1 trial$"),
        ((0,) * 26, (16, 24), "cannot score 0 trials"),
        (None, (16, 20), "schedule must end at n=24"),
    ], ids=["other-n", "no-trials", "schedule-short-of-n"])
    def test_mismatched_histogram_rejected(self, counts, schedule, match):
        # other-n: the histogram of an n = 30 run on a report drawn at n = 24
        rep = estimate(CodeParams(8, 24, 0.5), Schedule((24,)), 50, 1)
        if counts is not None:
            rep = dataclasses.replace(rep, decode_time_counts=counts)
        with pytest.raises(ValueError, match=match) as err:
            rescore(rep, Schedule(schedule))
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("params", [CodeParams(20, 24, 0.5), CodeParams(8, 24, 0.5),
                                        CodeParams(9, 24, 0.3)], ids=["k-and-eps", "eps", "k"])
    def test_scores_at_the_drawn_design_point(self, params, monkeypatch):
        # the report carries the (k, n, eps) its trials were drawn at, and
        # rescore scores them there, as a fresh estimate under the schedule would
        rep = estimate(params, Schedule((24,)), 100, 1)
        want = estimate(params, Schedule((22, 24)), 100, 1)
        monkeypatch.setattr(np.random, "Philox", _no_draws)
        assert rescore(rep, Schedule((22, 24))) == want
        assert want.params == params


class TestPerSymbolSampling:
    def test_decode_counts_dkw_band(self):
        k, n, trials = 8, 48, 100000
        counts = decode_times(CodeParams(k, n), trials, 20260810)
        band = math.sqrt(math.log(2 / 1e-3) / (2 * trials))
        for r in range(k, n + 1):
            emp = float((counts <= r).mean())
            assert abs(emp - decode_success_prob(k, n, r)) <= band

        # Theorem-limit moments from the same draw (n - k = 40)
        c0, c1 = erdos_borwein_constant(), dst_constant()
        mean, var = counts.mean(), counts.var(ddof=1)
        se_mean = counts.std(ddof=1) / math.sqrt(trials)
        m4 = ((counts - mean) ** 4).mean()
        se_var = math.sqrt((m4 - var ** 2) / trials)
        assert abs(mean - (k + c0)) < 3 * se_mean
        assert abs(var - (c0 + c1)) < 3 * se_var

    def test_round_lengths_match_asymptote(self):
        p = CodeParams(8, 72, 0.5)
        times = decode_times(p, 60000, 13)
        lengths, success = np.minimum(times, p.n), times <= p.n
        am = asymptotic_round_moments(8, 0.5)
        trials = len(lengths)
        mean, var = lengths.mean(), lengths.var(ddof=1)
        se_mean = lengths.std(ddof=1) / math.sqrt(trials)
        m4 = ((lengths - mean) ** 4).mean()
        se_var = math.sqrt((m4 - var ** 2) / trials)
        assert abs(mean - am.mean) < 3 * se_mean
        assert abs(var - am.variance) < 3 * se_var
        assert success.all()  # failure is essentially impossible at n - k = 64

    def test_trial_is_a_function_of_seed_and_index(self):
        # a shorter run is a prefix of a longer one, across the 512-trial blocks
        p = CodeParams(8, 24, 0.5)
        times = decode_times(p, 1100, 42)
        assert np.array_equal(times[:600], decode_times(p, 600, 42))
        assert np.array_equal(decode_times(p, 1100, 42), times)
        lossless = CodeParams(8, 24)
        counts = decode_times(lossless, 1100, 42)
        assert np.array_equal(counts[:600], decode_times(lossless, 600, 42))
        # and each is the oracle's trial of that index, either side of a block
        for i in (0, 511, 512, 599, 1099):
            assert times[i] == decode_time(16, 24, *dense_trial(16, 24, 0.5, 42, i))
            assert counts[i] == decode_time(16, 24, *dense_trial(16, 24, 0.0, 42, i))

    def test_round_length_invariants(self):
        k, n = 8, 24
        times = decode_times(CodeParams(k, n, 0.5), 2000, 9)
        lengths, success = np.minimum(times, n), times <= n
        assert ((k <= lengths) & (lengths <= n)).all()
        assert (lengths[~success] == n).all()  # a failed round sends every symbol
        assert 0 < success.sum() < len(success)

    def test_modes_agree_per_trial(self):
        # same (seed, index) must induce the same round in both decode modes
        s = Schedule((16, 20, 24))
        times = decode_times(CodeParams(8, 24, 0.5), 500, 42)
        lengths, success = np.minimum(times, 24), times <= 24
        rounds = reference_rounds(8, 24, 0.5, s.boundaries, 500, 42)
        for length, ok, (block, _, want_ok, _) in zip(lengths, success, rounds):
            assert ok == want_ok
            if ok:
                assert block == min(
                    j for j, b in enumerate(s.boundaries, start=1) if b >= length)


class TestDecodeTimeKernel:
    """The batched kernel against the per-trial reference loop in oracles.py."""

    @pytest.mark.parametrize("matrix_reuse", [1, 3])
    @pytest.mark.parametrize("eps", [0.0, 5e-324, 0.3, 0.5, 0.9, 0.999, 1 - 2 ** -53])
    @pytest.mark.parametrize("d", [0, 1, 56, 63, 64, 65, 88, 131])
    def test_decode_times_match_reference(self, d, eps, matrix_reuse):
        # one, two and three words a column, each full or masked; 40 trials
        # end part-way through a reuse group of 3; the smallest and largest
        # eps above 0 and below 1 put the erasure threshold at its ends.  The
        # kernel eliminates d columns and reads a (d + 1)-th insertion as
        # dependent: k = n (d = 0) has no column to eliminate, eps 0 decodes
        # at that insertion whenever the first d columns are independent, and
        # at eps 0.999 most trials erase more than d symbols and read n + 1
        k, trials, seed = 6, 40, 1000 + d
        n = k + d
        want = reference_times(k, n, eps, trials, seed, matrix_reuse)
        assert _times(CodeParams(k, n, eps), seed, trials, matrix_reuse) == want

    @pytest.mark.parametrize("matrix_reuse", [1, 3])
    @pytest.mark.parametrize("d, n", [(0, 5), (1, 6), (8, 13), (56, 88), (65, 70), (95, 127),
                                      (96, 128), (131, 151)])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.99], ids=["none-erased", "half", "most-erased"])
    @pytest.mark.parametrize("trials", [7, 64])
    def test_decode_times_match_reference_in_small_chunks(self, trials, eps, d, n, matrix_reuse,
                                                          monkeypatch):
        # blocks of 5 trials drawn 2 at a time: a chunk starts inside a
        # reuse group of 3, whose columns come from an earlier chunk or
        # block, and a chunk's columns land mid-block; 7 trials end part-way
        # through a chunk, a block and a group.  The insertion keys run up
        # to 2n: one byte each at n = 127, two at n = 128
        monkeypatch.setattr(simulate_module, "_BLOCK", 5)
        monkeypatch.setattr(simulate_module, "_DRAW_WORDS", 2 * (max(1, -(-d // 64)) + 1) * n)
        seed = 2 * trials + d
        want = reference_times(n - d, n, eps, trials, seed, matrix_reuse)
        assert _times(CodeParams(n - d, n, eps), seed, trials, matrix_reuse) == want

    @pytest.mark.parametrize("n", [127, 128, 32767, 32768])
    def test_insertion_order_is_the_stable_argsort_of_the_keys(self, n):
        # the keys, j if erased and 2n - j if not, are distinct in a trial,
        # so their sorted values decode to the order a stable argsort gives;
        # they take two bytes up to n = 32767 and four from n = 32768
        rng = np.random.default_rng(n)
        erased = rng.random((4, n)) < [[0.0], [0.3], [0.9], [1.0]]
        j = np.arange(n)
        want = np.argsort(np.where(erased, j, 2 * n - j), axis=1, kind="stable")
        got = _insertion_order(erased, n)
        assert got.dtype == (np.uint16 if n < 32768 else np.uint32)
        assert np.array_equal(got, want)
        assert np.array_equal(_insertion_order(erased, 9), want[:, :9])

    @pytest.mark.parametrize("eps", [0.0, 5e-324, 2 ** -53, 0.1, 0.5, 1 - 2 ** -53])
    def test_erasure_threshold_is_the_float_rule(self, eps):
        # the kernel erases a raw word below the threshold; the stream's rule
        # erases it when its top 53 bits times 2**-53 are below eps
        below = _erasure_threshold(eps)
        assert 0 <= below < 2 ** 64
        words = [x for x in (0, below - 1, below, below + 1, 2 ** 64 - 1) if 0 <= x < 2 ** 64]
        erased = np.array(words, dtype=np.uint64) < np.uint64(below)
        assert erased.tolist() == [(x >> 11) * 2.0 ** -53 < eps for x in words]

    @pytest.mark.parametrize("matrix_reuse", [1, 3])
    @pytest.mark.parametrize("n, key", [(32767, np.uint16), (32768, np.uint32)])
    def test_decode_times_where_the_keys_widen(self, n, key, matrix_reuse):
        # the insertion keys run up to 2n: two bytes at n = 32767, four at
        # n = 32768; a few erasures leave the times varied and below n + 1
        assert np.min_scalar_type(2 * n) == key
        want = reference_times(n - 8, n, 1e-4, 3, 5, matrix_reuse)
        assert len(set(want)) > 1 and max(want) <= n
        assert _times(CodeParams(n - 8, n, 1e-4), 5, 3, matrix_reuse) == want

    @pytest.mark.parametrize("k, n", [(250, 255), (250, 256), (251, 257)])
    def test_decode_times_near_a_byte_of_columns(self, k, n):
        # L reaches n and n + 1 here, and column indices pass 255 at n > 256
        want = reference_times(k, n, 0.01, 300, 3)
        assert {n, n + 1} <= set(want)
        assert _times(CodeParams(k, n, 0.01), 3, 300) == want

    @pytest.mark.parametrize("seed", [0, 11, 2 ** 64 + 5, 2 ** 128 - 1])
    @pytest.mark.parametrize("d, n", [(1, 2), (3, 5), (7, 12), (56, 88), (64, 70), (65, 70)])
    def test_decode_times_match_reference_at_any_key(self, d, n, seed):
        # the seeds use no key word, the low one, both, and every bit of both
        for matrix_reuse in (1, 3):
            want = reference_times(n - d, n, 0.3, 10, seed, matrix_reuse)
            assert _times(CodeParams(n - d, n, 0.3), seed, 10, matrix_reuse) == want

    def test_one_bit_generator_per_span(self, request):
        p = CodeParams(32, 88, 0.5)
        s = Schedule((61, 68, 75, 88))
        want = estimate(p, s, 3000, 7)
        built = request.getfixturevalue("philox_builds")
        assert estimate(p, s, 3000, 7) == want
        assert len(built) == 1

    @pytest.mark.parametrize("matrix_reuse", [1, 3])
    @pytest.mark.parametrize("k, n", [(32, 88), (8, 24), (3, 140), (8, 8), (20, 151)])
    def test_decode_times_do_not_depend_on_block_sizes(self, k, n, matrix_reuse,
                                                       monkeypatch):
        # 300 trials end every block and draw chunk part-way, chunks start
        # off the matrix_reuse groups of 3, and neither size need be a
        # multiple of 8: a column's words hold one trial each
        p = CodeParams(k, n, 0.5)
        want = _times(p, 11, 300, matrix_reuse)
        per_trial = (max(1, -(-(n - k) // 64)) + 1) * n  # the words _DRAW_WORDS counts
        for block, draw in [(64, 8), (128, 16), (1024, 32), (100, 13), (37, 5), (7, 1)]:
            monkeypatch.setattr(simulate_module, "_BLOCK", block)
            monkeypatch.setattr(simulate_module, "_DRAW_WORDS", draw * per_trial)
            assert _times(p, 11, 300, matrix_reuse) == want

    @pytest.mark.parametrize("d, s, want", [(5, 6, 0), (1, 1, 0), (0, 1, 0), (130, 4, 0)])
    def test_all_zero_columns_depend_at_once(self, d, s, want):
        first = _first_dependent(_lanes(np.zeros((3, d, s))))
        assert first.tolist() == [want] * 3
        assert _first_dependent_by_rank(np.zeros((d, s))) == want

    @pytest.mark.parametrize("d", [1, 6, 64, 65, 129])
    def test_identity_has_no_dependency_before_d(self, d):
        square = np.eye(d, dtype=np.uint8)
        extra = np.hstack([square, np.ones((d, 1), dtype=np.uint8)])
        # d columns are all independent (the answer is s = d); a (d+1)-th must depend
        assert _first_dependent(_lanes([square]))[0] == d
        assert _first_dependent(_lanes([extra]))[0] == d
        assert _first_dependent_by_rank(square) == d == _first_dependent_by_rank(extra)

    @pytest.mark.parametrize("at", [63, 64, 65])
    def test_duplicate_column_either_side_of_a_word(self, at):
        # columns 0..at-1 independent, column `at` repeats column at-1 (lane 0)
        # or column 0 (lane 1); the other lanes keep the columns independent.
        # Row 64 starts the second word: the repeated unit column is row 62
        # or 63 of the first word, or row 64, the second word's first
        d = 70
        base = np.eye(d, dtype=np.uint8)[:, : at + 1]
        last, first_col = base.copy(), base.copy()
        last[:, at] = base[:, at - 1]
        first_col[:, at] = base[:, 0]
        mats = [last, first_col] + [base] * 68
        got = _first_dependent(_lanes(mats))
        want = [_first_dependent_by_rank(m) for m in mats]
        assert want[:3] == [at, at, at + 1]
        assert got.tolist() == want

    @pytest.mark.parametrize("d", [1, 7, 63, 64, 65, 130])
    def test_random_lanes_match_rank_oracle(self, d):
        # one, two and three words a column; at d = 130 the third word holds
        # two rows, and its phase, which runs first, ends after a few columns
        rng = np.random.default_rng(d)
        lanes = 70 if d < 100 else 24
        mats = rng.integers(0, 2, size=(lanes, d, d + 1), dtype=np.uint8)
        mats[::3, :, d // 2] = 0  # a zero column midway in every third lane
        got = _first_dependent(_lanes(mats))
        assert got.tolist() == [_first_dependent_by_rank(m) for m in mats]

    @pytest.mark.parametrize("d, s", [(6, 2), (6, 9), (2, 6), (4, 130), (64, 64), (100, 40),
                                      (150, 60)],
                             ids=["tall", "wide", "more-columns-than-rows", "many-columns",
                                  "square-64", "two-words-tall", "three-words-tall"])
    def test_random_shapes_match_rank_oracle(self, d, s):
        # the columns past the d-th always depend, so no answer exceeds min(d, s)
        rng = np.random.default_rng(1000 * d + s)
        mats = rng.integers(0, 2, size=(70, d, s), dtype=np.uint8)
        got = _first_dependent(_lanes(mats))
        assert got.tolist() == [_first_dependent_by_rank(m) for m in mats]
        assert got.max() <= min(d, s)

    @pytest.mark.parametrize("d", [3, 64, 130])
    def test_no_columns_means_none_depends(self, d):
        # an empty erased set: the answer is s = 0 in every lane
        assert _first_dependent(_lanes(np.zeros((128, d, 0)))).tolist() == [0] * 128
        assert _first_dependent_by_rank(np.zeros((d, 0))) == 0

    @pytest.mark.parametrize("matrix_reuse", [1, 8])
    def test_estimate_matches_reference_accumulators(self, matrix_reuse):
        p = CodeParams(32, 88, 0.5)
        s = Schedule((61, 68, 75, 88))
        trials = 600  # three blocks
        rounds = reference_rounds(32, 88, 0.5, s.boundaries, trials, 7, matrix_reuse)
        rep = estimate(p, s, trials, 7, matrix_reuse=matrix_reuse)
        sent = [r[1] for r in rounds]
        mean = sum(sent) / trials
        var = (sum(x * x for x in sent) - trials * mean * mean) / (trials - 1)
        first_ack = [sum(1 for r in rounds if r[2] and r[0] == i) for i in (1, 2, 3, 4)]
        assert rep.mean_symbols == mean
        assert rep.stderr_symbols == math.sqrt(max(0.0, var) / trials)
        assert rep.success_rate == sum(first_ack) / trials
        assert rep.ack_rate_per_block == tuple(
            sum(first_ack[: i + 1]) / trials for i in range(4))

    def test_lossless_round_lengths_are_decode_counts(self):
        # nothing is erased, so no round fails: each decodes by n, its length
        # its decode time
        times = decode_times(CodeParams(8, 48, 0.0), 700, 5)
        assert times.dtype == np.intp
        assert (8 <= times).all() and (times <= 48).all()

    @pytest.mark.parametrize("small", [False, True], ids=["blocks-of-512", "small-blocks"])
    @pytest.mark.parametrize("matrix_reuse", [1, 3])
    def test_estimate_histogram_is_decode_times_bincount(self, matrix_reuse, small,
                                                         monkeypatch):
        # 1100 trials span three blocks of 512; blocks of 100 drawn 13 trials
        # at a time start chunks inside reuse groups of 3.  The times are
        # drawn at the default sizes either way
        p, s = CodeParams(32, 88, 0.5), Schedule((61, 68, 75, 88))
        times = decode_times(p, 1100, 42, matrix_reuse=matrix_reuse)
        if small:
            monkeypatch.setattr(simulate_module, "_BLOCK", 100)
            monkeypatch.setattr(simulate_module, "_DRAW_WORDS", 13 * 2 * 88)  # W n + n words each
        rep = estimate(p, s, 1100, 42, matrix_reuse=matrix_reuse)
        assert rep.decode_time_counts == tuple(np.bincount(times, minlength=p.n + 2).tolist())

    def test_traced_memory_peak_under_3mb(self):
        p = CodeParams(32, 88, 0.5)
        s = Schedule((61, 68, 75, 88))
        tracemalloc.start()
        try:
            estimate(p, s, 3000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_traced_memory_peak_at_six_words_a_column(self):
        # d = 368: a 512-trial block of six-word columns is 9 MB; the bit-sliced
        # kernel this one replaced peaked at 30.1 MB here (two 8.7 MB arrays of
        # 64 (d + 1) d bytes per 512 trials, and an 8.7 MB gather per chunk)
        p = CodeParams(32, 400, 0.5)
        s = Schedule((100, 200, 300, 400))
        tracemalloc.start()
        try:
            estimate(p, s, 600, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30_100_000


@pytest.mark.parametrize("argv", sorted(FULL_SIZE_DIGESTS))
def test_full_size_simulate_output_is_pinned(argv, monkeypatch):
    monkeypatch.delenv("HARQ_SDO_OUT", raising=False)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv.split()) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == FULL_SIZE_DIGESTS[argv]


def _law_z(counts: list[int], params: CodeParams) -> tuple[float, float]:
    """Two z of decode-time counts 0..n+1 against the law: a chi-square's and the mean's.

    L = t with probability ACK(t) - ACK(t - 1), and L = n + 1 with 1 - ACK(n).
    For the chi-square (its Wilson-Hilferty z) the times are binned in
    order, a bin closing once its expected count reaches 5; a short run left
    at the end joins the last bin.  The mean decode time is held to the
    law's mean, in standard errors of the law's variance.
    """
    ack = ack_curve(params).tolist()
    probs = [b - a for a, b in zip([0.0] + ack, ack)] + [1.0 - ack[-1]]
    trials = sum(counts)
    bins, obs, exp = [], 0, 0.0
    for count, p in zip(counts, probs):
        obs, exp = obs + count, exp + trials * p
        if exp >= 5:
            bins.append([obs, exp])
            obs, exp = 0, 0.0
    bins[-1][0] += obs
    bins[-1][1] += exp
    chi2 = sum((o - e) ** 2 / e for o, e in bins)
    dof = len(bins) - 1
    h = 2 / (9 * dof)
    mean = sum(t * p for t, p in enumerate(probs))
    variance = sum((t - mean) ** 2 * p for t, p in enumerate(probs))
    seen = sum(t * count for t, count in enumerate(counts)) / trials
    return (((chi2 / dof) ** (1 / 3) - (1 - h)) / math.sqrt(h),
            (seen - mean) / math.sqrt(variance / trials))


def _law_holds(counts: list[int], params: CodeParams) -> bool:
    """Whether both of _law_z's z lie within 5: a 5.7e-7 false alarm each."""
    return max(map(abs, _law_z(counts, params))) <= 5


def _shifted(counts: list[int], by: int) -> list[int]:
    """counts with every decode time 0..n moved by one, up or down, within 0..n."""
    n = len(counts) - 2
    if by > 0:
        return [0] + counts[: n - 1] + [counts[n - 1] + counts[n], counts[n + 1]]
    return [counts[0] + counts[1]] + counts[2 : n + 1] + [0, counts[n + 1]]


def _pinned_counts(argv: str) -> tuple[list[int], CodeParams]:
    """The decode-time counts 0..n+1 of a pinned run, of every r-th trial under matrix_reuse r."""
    cfg = build_config(argv.split())
    params = CodeParams(cfg.scalar("k"), cfg.scalar("n"), cfg.scalar("epsilon"))
    times = decode_times(params, cfg.trials, cfg.seed, matrix_reuse=cfg.matrix_reuse)
    return np.bincount(times[:: cfg.matrix_reuse], minlength=params.n + 2).tolist(), params


@pytest.mark.parametrize("argv", sorted(FULL_SIZE_DIGESTS))
def test_full_size_decode_times_follow_the_law(argv):
    # with matrix_reuse r, trials 0, r, 2 r, ... each have a code of their
    # own, so they are independent rounds
    assert _law_holds(*_pinned_counts(argv))


@pytest.mark.parametrize("k, n, eps, trials", [(32, 88, 0.0, 3000), (32, 88, 0.5, 30000),
                                               (32, 120, 0.5, 30000)])
def test_law_check_fails_a_shifted_histogram(k, n, eps, trials):
    # at eps 0.5 a decode time spreads over about 8 symbols, so a shift by
    # one stands out clearly only past 3000 trials; lossless, it spreads over
    # 2.  At n = 120 (d = 88, two words a column) 3000 trials miss a shift
    # down (the strict xfail below), and 30,000 see both
    params = CodeParams(k, n, eps)
    counts = np.bincount(decode_times(params, trials, 11), minlength=params.n + 2).tolist()
    assert _law_holds(counts, params)
    for by in (1, -1):
        assert sum(_shifted(counts, by)) == trials
        assert not _law_holds(_shifted(counts, by), params)


_ONE_CODE_A_TRIAL = sorted(argv for argv in FULL_SIZE_DIGESTS if "--matrix-reuse" not in argv)


@pytest.mark.parametrize("argv", [
    pytest.param(argv, marks=pytest.mark.xfail(strict=True, reason=(
        "the run's own mean z is +1.86 and a shift moves it by 6.2, so a shift down "
        "reads -4.34 (chi-square 1.68)")))
    if "--n 120" in argv else argv
    for argv in _ONE_CODE_A_TRIAL])
def test_pinned_runs_fail_the_law_shifted(argv):
    # at 3000 trials a shift by one moves the mean's z by 6.2-7.4, where the
    # chi-square moves by less than 5.2; under matrix_reuse 3 only every
    # third trial is an independent round, too few to see the shift
    counts, params = _pinned_counts(argv)
    assert _law_holds(counts, params)
    for by in (1, -1):
        assert not _law_holds(_shifted(counts, by), params), by


class TestRunArguments:
    def test_zero_trials_rejected_by_samplers(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            decode_times(CodeParams(8, 24, 0.5), 0, 1)
        with pytest.raises(ValueError, match="matrix_reuse must be >= 1, got 0"):
            decode_times(CodeParams(8, 24, 0.5), 10, 1, matrix_reuse=0)

    def test_negative_trials_rejected(self):
        s = Schedule((16, 20, 24))
        for call in (lambda: estimate(CodeParams(8, 24, 0.5), s, -3, 1),
                     lambda: decode_times(CodeParams(8, 24, 0.5), -3, 1)):
            with pytest.raises(ValueError, match="trials must be >= 1, got -3"):
                call()

    def test_seed_range_checked_before_threads_start(self, monkeypatch):
        monkeypatch.setattr(np.random, "Philox", _no_draws)
        p = CodeParams(8, 24, 0.5)
        s = Schedule((16, 20, 24))
        for seed in (2 ** 128, -1):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
                estimate(p, s, 10, seed)
        with pytest.raises(ValueError, match="seed"):
            decode_times(p, 10, 2 ** 128)

    def test_largest_seed_accepted(self):
        rep = estimate(CodeParams(8, 24, 0.5), Schedule((16, 20, 24)), 3, 2 ** 128 - 1)
        assert rep.seed == 2 ** 128 - 1
