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
    ack_prob,
    asymptotic_round_moments,
    decode_success_prob,
    dst_constant,
    erdos_borwein_constant,
    estimate,
    exhaustive_search,
    expected_round_symbols,
    optimize,
    rescore,
    sample_decode_counts,
    sample_round_lengths,
)

import harqsdo.simulate as simulate_module
from harqsdo.cli import main
from harqsdo.simulate import (
    _BLOCK,
    _column_packer,
    _draw,
    _first_dependent,
    _span_times,
    _stream,
)

from oracles import dense_rank_mod2, insertion_columns_loop, philox_trial, reference_rounds

# stdout sha256 of simulate at the benchmark's design point and trial count,
# and at d = 88 (two words a column) and d = 131 (three, with n % 8 = 7)
FULL_SIZE_DIGESTS = {
    "simulate --k 32 --n 88 --m 4 --eps 0.5 --trials 3000 --seed 11 --model all":
        "0ecf2f24d83021414ff5f33b325a9303968a45f8fac5389e1e0cd908393115e3",
    "simulate --k 32 --n 88 --m 4 --eps 0.5 --trials 3000 --seed 11 --model all"
    " --matrix-reuse 3":
        "4c1d81b5892585cffd46c4617d4a2631c363e0c5b36572e0557301227872c044",
    "simulate --k 32 --n 120 --m 4 --eps 0.5 --trials 3000 --seed 11 --model all":
        "0c67d5366a7e711b1316855f020b733a12253868f92fd6fdf3bc8b980d71c3ea",
    "simulate --k 32 --n 120 --m 4 --eps 0.5 --trials 3000 --seed 11 --model all"
    " --matrix-reuse 3":
        "5213f94b24c5fff8fb83fb1d0b4d3428e5c893afea1e836540c0c558eba6a25b",
    "simulate --k 20 --n 151 --m 4 --eps 0.5 --trials 3000 --seed 11 --model all":
        "7bca4ad93df02fc89e15e3cd906fc3ce6cf26bcbb55d6efa902bbd04c728185d",
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


def _entries(code: np.ndarray, d: int, n: int) -> np.ndarray:
    """(T, d, n) 0/1 matrices from _draw's words: entry (r, j) is the top bit of byte r n + j."""
    raw = code.view(np.uint8)[:, : d * n] >> 7
    return raw.reshape(len(code), d, n)


def _no_draws(*args, **kwargs):
    raise AssertionError("a trial stream was opened")


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
            code, _ = _draw(_stream(777 + si), 0, draws, n - k, n, 1)
            first = _first_dependent(_lanes(_entries(code, n - k, n)[:, :, list(pos)]))
            dec = int(np.count_nonzero(first == len(pos)))
            table.append([dec, draws - dec])
        # the samples of the per-trial loop over the same streams
        assert table == [[2377, 1623], [2379, 1621], [2398, 1602], [2410, 1590]]
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
        assert rate * 20000 == 9907  # the per-trial loop's count on the same streams
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
        # a boundary at every symbol from k on, so the oracle's stop block is L
        rounds = reference_rounds(self.K, self.N, self.EPS, range(self.K, self.N + 1),
                                  self.TRIALS, self.SEED)
        return [sent if ok else self.N + 1 for _, sent, ok, _ in rounds]

    @pytest.mark.parametrize("schedule", [
        (88,), (16, 50, 88),
        exhaustive_search(CodeParams(32, 88, 0.5), 4).schedule.boundaries,
        optimize(CodeParams(32, 88, 0.5), 4, "normal").schedule.boundaries,
        optimize(CodeParams(32, 88, 0.5), 4, "lognormal").schedule.boundaries,
    ], ids=["m1", "first-below-k", "es", "na", "lna"])
    def test_scores_match_reference_rounds(self, schedule, drawn, oracle_times,
                                           monkeypatch):
        monkeypatch.setattr(simulate_module, "_stream", _no_draws)
        k, n, trials = self.K, self.N, self.TRIALS
        rep = rescore(drawn, CodeParams(k, n, self.EPS), Schedule(schedule))
        rounds = reference_rounds(k, n, self.EPS, schedule, trials, self.SEED)
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

    @pytest.mark.parametrize("params, counts, schedule, match", [
        (CodeParams(8, 30, 0.5), None, (16, 30), r"needs 0\.\.31"),
        (CodeParams(8, 24, 0.5), (0,) * 26, (16, 24), "cannot score 0 trials"),
        (CodeParams(8, 24, 0.5), None, (16, 20), "schedule must end at n=24"),
    ], ids=["other-n", "no-trials", "schedule-short-of-n"])
    def test_mismatched_histogram_rejected(self, params, counts, schedule, match):
        rep = estimate(CodeParams(8, 24, 0.5), Schedule((24,)), 50, 1)
        if counts is not None:
            rep = dataclasses.replace(rep, decode_time_counts=counts)
        with pytest.raises(ValueError, match=match) as err:
            rescore(rep, params, Schedule(schedule))
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("params", [CodeParams(20, 24, 0.5), CodeParams(8, 24, 0.5),
                                        CodeParams(9, 24, 0.3)], ids=["k-and-eps", "eps", "k"])
    def test_other_design_point_rejected(self, params):
        # the same n, so the histogram fits, but at k = 20 it would hold
        # decode times below k, which cannot occur
        rep = estimate(CodeParams(8, 24, 0.3), Schedule((24,)), 100, 1)
        assert rep.params == CodeParams(8, 24, 0.3)
        with pytest.raises(ValueError) as err:
            rescore(rep, params, Schedule((22, 24)))
        assert str(err.value) == ("cannot score trials drawn at CodeParams(k=8, n=24, "
                                  f"epsilon=0.3) at another point, {params}")


class TestPerSymbolSampling:
    def test_decode_counts_dkw_band(self):
        k, n, trials = 8, 48, 100000
        counts = sample_decode_counts(k, n, trials, 20260810)
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
        lengths, success = sample_round_lengths(p, 60000, 13)
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
        lengths, success = sample_round_lengths(p, 1100, 42)
        short_lengths, short_success = sample_round_lengths(p, 600, 42)
        assert np.array_equal(lengths[:600], short_lengths)
        assert np.array_equal(success[:600], short_success)
        again = sample_round_lengths(p, 1100, 42)
        assert np.array_equal(again[0], lengths) and np.array_equal(again[1], success)
        counts = sample_decode_counts(8, 24, 1100, 42)
        assert np.array_equal(counts[:600], sample_decode_counts(8, 24, 600, 42))

    def test_round_length_invariants(self):
        k, n = 8, 24
        lengths, success = sample_round_lengths(CodeParams(k, n, 0.5), 2000, 9)
        assert ((k <= lengths) & (lengths <= n)).all()
        assert (lengths[~success] == n).all()  # a failed round sends every symbol
        assert 0 < success.sum() < len(success)

    def test_modes_agree_per_trial(self):
        # same (seed, index) must induce the same round in both decode modes
        s = Schedule((16, 20, 24))
        lengths, success = sample_round_lengths(CodeParams(8, 24, 0.5), 500, 42)
        rounds = reference_rounds(8, 24, 0.5, s.boundaries, 500, 42)
        for length, ok, (block, _, want_ok, _) in zip(lengths, success, rounds):
            assert ok == want_ok
            if ok:
                assert block == min(
                    j for j, b in enumerate(s.boundaries, start=1) if b >= length)


class TestDecodeTimeKernel:
    """The batched kernel against the per-trial reference loop in oracles.py."""

    @pytest.mark.parametrize("matrix_reuse", [1, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("d", [1, 7, 56, 63, 64, 65, 136])
    def test_decode_times_match_reference(self, d, eps, matrix_reuse):
        # a boundary at every symbol from k on, so the reference's stop block is L
        k, trials, seed = 6, 40, 1000 + d
        n = k + d
        rounds = reference_rounds(k, n, eps, range(k, n + 1), trials, seed, matrix_reuse)
        want = [sent if ok else n + 1 for _, sent, ok, _ in rounds]
        got = np.concatenate(list(_span_times(CodeParams(k, n, eps), seed, trials,
                                              matrix_reuse)))
        assert got.tolist() == want

    @pytest.mark.parametrize("k, n", [(250, 255), (250, 256), (251, 257)])
    def test_decode_times_near_a_byte_of_columns(self, k, n):
        # L reaches n and n + 1 here, and column indices pass 255 at n > 256
        trials, seed = 300, 3
        rounds = reference_rounds(k, n, 0.01, range(k, n + 1), trials, seed)
        want = [sent if ok else n + 1 for _, sent, ok, _ in rounds]
        got = np.concatenate(list(_span_times(CodeParams(k, n, 0.01), seed, trials)))
        assert {n, n + 1} <= set(want)
        assert got.tolist() == want

    @pytest.mark.parametrize("d, n", [(1, 2), (3, 5), (7, 12), (7, 13), (56, 88), (65, 70)])
    def test_raw_word_draw_matches_generator_calls(self, d, n):
        # d * n covers 2, 15, 84, 91, 4928 and 4550: every residue class that
        # decides how the byte draw splits over 32- and 64-bit words.  The
        # seeds use no key word, the low one, both, and every bit of both;
        # lo = 5 is no multiple of _BLOCK or matrix_reuse 3, and one
        # re-pointed stream serves both draws, so the second revisits streams
        # 3 and 5..8 out of order.  Each trial's words run at least one past
        # the matrix, so the packer can read a row's last bytes as a whole word.
        assert 5 % _BLOCK and 5 % 3
        words_per_matrix = -(-d * n // 8)
        for seed in (0, 11, 2 ** 64 + 5, 2 ** 128 - 1):
            words = _stream(seed)
            code, uniforms = _draw(words, 5, 9, d, n, 1)
            assert code.flags.c_contiguous and code.shape == (4, words_per_matrix + n)
            bits = _entries(code, d, n)
            for row, i in enumerate(range(5, 9)):
                rng = philox_trial(seed, i)
                assert np.array_equal(bits[row], rng.integers(0, 2, size=(d, n), dtype=np.uint8))
                assert np.array_equal(uniforms[row], rng.random(n))
            code, uniforms = _draw(words, 5, 12, d, n, 3)
            assert code.flags.c_contiguous and code.shape == (7, words_per_matrix + 1)
            bits = _entries(code, d, n)
            for row, i in enumerate(range(5, 12)):
                want = philox_trial(seed, i - i % 3).integers(0, 2, size=(d, n), dtype=np.uint8)
                assert np.array_equal(bits[row], want)
                assert np.array_equal(uniforms[row], philox_trial(seed, i).random(n))

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
        want = np.concatenate(list(_span_times(p, 11, 300, matrix_reuse)))
        per_trial = -(-(n - k) * n // 8) + n  # the words _DRAW_WORDS counts
        for block, draw in [(64, 8), (128, 16), (1024, 32), (100, 13), (37, 5), (7, 1)]:
            monkeypatch.setattr(simulate_module, "_BLOCK", block)
            monkeypatch.setattr(simulate_module, "_DRAW_WORDS", draw * per_trial)
            got = np.concatenate(list(_span_times(p, 11, 300, matrix_reuse)))
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("erasures", ["all", "none", "random"])
    @pytest.mark.parametrize("d, n", [(0, 5), (1, 6), (8, 13), (56, 88), (65, 70), (131, 151)])
    @pytest.mark.parametrize("trials", [1, 7, 8, 9, 64])
    def test_column_packer_matches_loop(self, trials, d, n, erasures):
        # n < 8 at d <= 1 and n % 8 != 0 but at d = 56, so a row starts
        # mid-word; code has a word past the matrix, as _draw's does with
        # matrix_reuse > 1; out starts mid-block, as _span_times's chunk
        # slices do; and the packer has served a larger chunk first
        s = d + 1
        rng = np.random.default_rng(100 * trials + d)
        words_per_matrix = -(-d * n // 8)

        def draw(count):
            return rng.integers(0, 2 ** 64, size=(count, words_per_matrix + 1), dtype=np.uint64)

        code = draw(trials)
        erased = {"all": np.ones((trials, n), dtype=bool),
                  "none": np.zeros((trials, n), dtype=bool),
                  "random": rng.random((trials, n)) < 0.5}[erasures]
        want_cols, want_order = insertion_columns_loop(_entries(code, d, n), erased, s)
        pack = _column_packer(d, n, trials + 5)
        pack(draw(trials + 5), rng.random((trials + 5, n)) < 0.5,
             np.empty((len(want_cols), s, trials + 5), dtype=np.uint64))
        block = np.full((len(want_cols), s, trials + 6), 0xA5A5, dtype=np.uint64)
        order = pack(code, erased, block[:, :, 3 : 3 + trials])
        assert order.tolist() == want_order.tolist()
        assert np.array_equal(block[:, :, 3 : 3 + trials], want_cols)
        block[:, :, 3 : 3 + trials] = 0xA5A5
        assert (block == 0xA5A5).all()  # no word outside the trials' own was written

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
        lengths, success = sample_round_lengths(CodeParams(8, 48, 0.0), 700, 5)
        assert success.all()
        assert np.array_equal(lengths, sample_decode_counts(8, 48, 700, 5))

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


class TestRunArguments:
    def test_zero_trials_rejected_by_samplers(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            sample_round_lengths(CodeParams(8, 24, 0.5), 0, 1)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            sample_decode_counts(8, 24, 0, 1)

    def test_negative_trials_rejected(self):
        s = Schedule((16, 20, 24))
        for call in (lambda: estimate(CodeParams(8, 24, 0.5), s, -3, 1),
                     lambda: sample_round_lengths(CodeParams(8, 24, 0.5), -3, 1),
                     lambda: sample_decode_counts(8, 24, -3, 1)):
            with pytest.raises(ValueError, match="trials must be >= 1, got -3"):
                call()

    def test_seed_range_checked_before_threads_start(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "_stream", _no_draws)
        p = CodeParams(8, 24, 0.5)
        s = Schedule((16, 20, 24))
        for seed in (2 ** 128, -1):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
                estimate(p, s, 10, seed)
        with pytest.raises(ValueError, match="seed"):
            sample_round_lengths(p, 10, 2 ** 128)
        with pytest.raises(ValueError, match="seed"):
            sample_decode_counts(8, 24, 10, 2 ** 128)

    def test_largest_seed_accepted(self):
        rep = estimate(CodeParams(8, 24, 0.5), Schedule((16, 20, 24)), 3, 2 ** 128 - 1)
        assert rep.seed == 2 ** 128 - 1
