"""Tests for the erasure-channel laws, ACK curve, and round objective."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from harqsdo import (
    CodeParams,
    Schedule,
    ack_curve,
    ack_prob,
    asymptotic_round_moments,
    decodable_count_moments,
    decodable_count_pmf,
    decode_success_prob,
    decode_success_curve,
    erdos_borwein_constant,
    expected_round_symbols,
    objective,
    round_length_law,
    round_length_moments,
    throughput,
)
from harqsdo import channel

from oracles import (
    ack_curve_loop,
    ack_fraction,
    erasures_pmf,
    expected_stop_symbols,
    observed_pmf,
    round_length_convolution,
)


class TestSchedule:
    def test_properties(self):
        s = Schedule((3, 7, 12))
        assert s.m == 3
        assert s.lengths == (3, 4, 5)
        assert s.final == 12

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Schedule((3, 3, 5))
        with pytest.raises(ValueError):
            Schedule((5, 3))
        with pytest.raises(ValueError):
            Schedule((0, 3))
        with pytest.raises(ValueError):
            Schedule(())

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            Schedule((3.7, 9.2))
        with pytest.raises(ValueError):
            Schedule((3, "9"))
        s = Schedule((3.0, np.int64(9)))
        assert s.boundaries == (3, 9)
        assert all(type(b) is int for b in s.boundaries)


class TestObservedPmf:
    def test_lossless(self):
        assert observed_pmf(7, 7, 0.0) == 1.0
        assert observed_pmf(7, 6, 0.0) == 0.0

    def test_two_coin_flips(self):
        assert observed_pmf(2, 1, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_normalization(self):
        total = sum(observed_pmf(20, r, 0.3) for r in range(21))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        assert observed_pmf(5, -1, 0.3) == 0.0
        assert observed_pmf(5, 6, 0.3) == 0.0
        with pytest.raises(ValueError):
            observed_pmf(-1, 0, 0.3)

    def test_large_t_no_overflow(self):
        # direct factorials would overflow here; the log-gamma route must not
        val = observed_pmf(600, 300, 0.5)
        assert 0.0 < val < 1.0
        assert val == pytest.approx(math.comb(600, 300) * 0.5 ** 600, rel=1e-10)


class TestErasuresPmf:
    def test_lossless(self):
        assert erasures_pmf(3, 0, 0.0) == 1.0
        assert erasures_pmf(3, 2, 0.0) == 0.0

    def test_one_erasure_then_arrival(self):
        assert erasures_pmf(1, 1, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_mean(self):
        r, eps = 8, 0.25
        mean = sum(e * erasures_pmf(r, e, eps) for e in range(400))
        assert mean == pytest.approx(r * eps / (1 - eps), abs=1e-9)

    def test_domain(self):
        assert erasures_pmf(3, -1, 0.3) == 0.0
        with pytest.raises(ValueError):
            erasures_pmf(0, 1, 0.3)


class TestAckProb:
    def test_zero_below_k(self):
        p = CodeParams(4, 8, 0.3)
        assert ack_prob(p, 3) == 0.0
        assert ack_prob(p, -1) == 0.0

    def test_lossless_equals_success_prob(self):
        p = CodeParams(4, 8, 0.0)
        for t in range(4, 9):
            assert ack_prob(p, t) == pytest.approx(decode_success_prob(4, 8, t), abs=1e-15)

    def test_tiny_case_hand_value(self):
        # decodable at t=1 iff the symbol arrives and the other column is nonzero
        assert ack_prob(CodeParams(1, 2, 0.5), 1) == pytest.approx(0.25, abs=1e-15)

    def test_matches_enumeration(self):
        for k, n, eps in [(1, 3, Fraction(1, 2)), (2, 4, Fraction(1, 4)), (2, 5, Fraction(1, 2))]:
            p = CodeParams(k, n, float(eps))
            for t in range(k, n + 1):
                want = float(ack_fraction(k, n, t, eps))
                assert ack_prob(p, t) == pytest.approx(want, abs=1e-12), (k, n, t)

    def test_rejects_extrapolation(self):
        with pytest.raises(ValueError):
            ack_prob(CodeParams(4, 8, 0.3), 9)

    def test_monotone_and_bounded_by_success_prob(self):
        for k, n, eps in [(2, 6, 0.3), (4, 12, 0.5), (8, 24, 0.25)]:
            p = CodeParams(k, n, eps)
            curve = ack_curve(p)
            assert np.all(np.diff(curve[k:]) >= 0)
            ps = decode_success_curve(k, n)
            assert np.all(curve <= ps + 1e-12)

    def test_stays_in_unit_interval_near_eps_one(self):
        # the verbatim 1 - sum form cancels to a few ulps below 0 here
        for eps in (0.9, 0.99, 0.999):
            for k in (8, 32):
                for n in range(k, 3 * k + 1, 4):
                    curve = ack_curve(CodeParams(k, n, eps))
                    assert curve.min() >= 0.0 and curve.max() <= 1.0, (k, n, eps)

    def test_curve_matches_scalar(self):
        p = CodeParams(3, 10, 0.4)
        curve = ack_curve(p)
        for t in range(11):
            assert curve[t] == ack_prob(p, t)

    def test_curve_matches_binomial_mixture(self):
        # independent route: sum_r P_s(r) P(r of t observed), term by term
        for k, n in [(1, 6), (8, 24), (16, 70), (32, 120)]:
            ps = [decode_success_prob(k, n, r) for r in range(n + 1)]
            for eps in (0.0, 0.3, 0.5, 0.9):
                curve = ack_curve(CodeParams(k, n, eps))
                for t in range(n + 1):
                    want = sum(ps[r] * observed_pmf(t, r, eps) for r in range(t + 1))
                    assert abs(curve[t] - want) <= 1e-12, (k, n, eps, t)

    def test_curve_is_read_only(self):
        p = CodeParams(4, 12, 0.3)
        curve = ack_curve(p)
        before = curve.copy()
        with pytest.raises(ValueError):
            curve[6] = 0.5
        assert np.array_equal(ack_curve(p), before)

    @pytest.mark.parametrize("k", [1, 2, 17, 32, 64])
    def test_curve_matches_loop_bit_for_bit(self, k):
        # n = 600 spans several row blocks; n = 255..257 sits at a block edge
        for n in sorted({k, k + 1, 2 * k, 3 * k, 255, 256, 257, 600}):
            if n < k:
                continue
            for eps in (0.0, 0.01, 0.3, 0.5, 0.9, 0.999):
                p = CodeParams(k, n, eps)
                assert ack_curve.__wrapped__(p).tobytes() == ack_curve_loop(p).tobytes(), p

    def test_curve_in_one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(channel, "_BLOCK_CELLS", 3)
        for p in (CodeParams(1, 9, 0.3), CodeParams(8, 40, 0.9), CodeParams(17, 60, 0.5)):
            assert ack_curve.__wrapped__(p).tobytes() == ack_curve_loop(p).tobytes(), p

    def test_wide_curve_traced_peak_under_8mb(self):
        # a whole (t, r) triangle at n = 4000 would take about 128 MB per temporary
        ack_curve.cache_clear()
        tracemalloc.start()
        try:
            ack_curve.__wrapped__(CodeParams(32, 4000, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000

    def test_cache_follows_the_design_point(self):
        a, b = CodeParams(4, 12, 0.3), CodeParams(4, 12, 0.5)
        fresh = {p: ack_curve.__wrapped__(p) for p in (a, b)}
        for p in (a, b, a, b):
            assert np.array_equal(ack_curve(p), fresh[p])


class TestRoundLengthLaw:
    def test_degenerate_point_mass(self):
        law = round_length_law(CodeParams(1, 1, 0.7))
        assert list(law.support) == [1]
        assert law.pmf[0] == 1.0

    def test_lossless_matches_decode_pmf(self):
        law = round_length_law(CodeParams(1, 2, 0.0))
        assert law.pmf[0] == pytest.approx(0.5, abs=1e-15)
        assert law.pmf[1] == pytest.approx(0.5, abs=1e-15)

    def test_normalized(self):
        law = round_length_law(CodeParams(4, 24, 0.5))
        assert float(law.pmf.sum()) == pytest.approx(1.0, abs=1e-10)

    def test_matches_convolution(self):
        # independent route: negative-binomial erasures convolved with the
        # decode point, as the law was computed before it read the ACK curve
        for k, n in [(1, 1), (1, 5), (4, 24), (8, 40), (32, 88), (16, 120)]:
            for eps in (0.0, 0.3, 0.5, 0.9):
                law = round_length_law(CodeParams(k, n, eps))
                want = round_length_convolution(k, n, eps)
                assert np.abs(law.pmf - want).max() <= 1e-12, (k, n, eps)

    def test_cdf_below_n_equals_ack(self):
        for k, n, eps in [(2, 8, 0.3), (4, 16, 0.5)]:
            p = CodeParams(k, n, eps)
            law = round_length_law(p)
            cdf = np.cumsum(law.pmf)
            for t in range(k, n):
                assert cdf[t - k] == pytest.approx(ack_prob(p, t), abs=1e-10)


class TestRoundLengthMoments:
    def test_degenerate(self):
        mm = round_length_moments(CodeParams(1, 1, 0.5))
        assert mm.mean == 1.0
        assert mm.variance == 0.0

    def test_converges_to_asymptote(self):
        mm = round_length_moments(CodeParams(8, 8 + 128, 0.5))
        assert abs(mm.mean - (8 + erdos_borwein_constant()) / 0.5) < 0.05

    def test_mean_nondecreasing_in_n(self):
        k, eps = 4, 0.4
        means = [round_length_moments(CodeParams(k, n, eps)).mean for n in range(k, k + 30)]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_lossless_equals_decode_moments(self):
        for k, n in [(2, 9), (5, 17)]:
            got = round_length_moments(CodeParams(k, n, 0.0))
            want = decodable_count_moments(k, n)
            assert got.mean == pytest.approx(want.mean, abs=1e-10)
            assert got.variance == pytest.approx(want.variance, abs=1e-10)


class TestObjective:
    def test_telescoped_sum(self):
        # 10 + (2 - 5) 0.25 + (5 - 10) 0.5
        assert objective((2, 5, 10), (0.25, 0.5)) == 6.75
        assert objective((2, 5, 10), (0.25, 0.5, 1.0)) == 6.75
        assert objective((7,), ()) == 7.0

    def test_real_valued_boundaries(self):
        assert objective((1.5, 4.0), [0.5]) == pytest.approx(2.75, abs=1e-15)

    def test_expected_round_symbols_reads_the_curve(self):
        p = CodeParams(6, 30, 0.4)
        sched = Schedule((5, 12, 20, 30))
        curve = ack_curve(p)
        want = objective(sched.boundaries, [curve[b] for b in sched.boundaries])
        assert expected_round_symbols(p, sched) == want


class TestExpectedRoundSymbols:
    def test_single_block_is_n(self):
        p = CodeParams(5, 14, 0.3)
        assert expected_round_symbols(p, Schedule((14,))) == 14.0

    def test_tiny_hand_value(self):
        p = CodeParams(1, 2, 0.0)
        assert expected_round_symbols(p, Schedule((1, 2))) == pytest.approx(1.5, abs=1e-15)

    def test_matches_exact_enumeration(self):
        # independent route: enumerate erasure patterns and average stop points
        cases = [
            (2, 5, Fraction(1, 2), (3, 4, 5)),
            (1, 4, Fraction(1, 4), (2, 4)),
            (2, 6, Fraction(1, 2), (4, 6)),
        ]
        for k, n, eps, bounds in cases:
            p = CodeParams(k, n, float(eps))
            want = float(expected_stop_symbols(k, n, eps, bounds))
            got = expected_round_symbols(p, Schedule(bounds))
            assert got == pytest.approx(want, abs=1e-12), (k, n, bounds)

    def test_telescoping_identity(self):
        rng = random.Random(42)
        for _ in range(50):
            k = rng.randint(1, 8)
            n = rng.randint(k + 3, k + 20)
            m = rng.randint(1, min(4, n - k))
            interior = sorted(rng.sample(range(1, n), m - 1)) if m > 1 else []
            sched = Schedule(tuple(interior) + (n,))
            eps = rng.choice([0.0, 0.2, 0.5])
            p = CodeParams(k, n, eps)
            lhs = expected_round_symbols(p, sched)
            b = sched.boundaries
            ack = [ack_prob(p, t) for t in b]
            rhs = b[0] * ack[0]
            for i in range(1, len(b)):
                rhs += b[i] * (ack[i] - ack[i - 1])
            rhs += b[-1] * (1.0 - ack[-1])
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_schedule_domain_errors(self):
        p = CodeParams(4, 10, 0.3)
        with pytest.raises(ValueError):
            expected_round_symbols(p, Schedule((4, 9)))
        with pytest.raises(ValueError):
            expected_round_symbols(p, Schedule((4, 12)))


class TestThroughput:
    def test_rate_one_degenerate_code(self):
        # with no parity rows the full block is always needed and always works
        p = CodeParams(1, 1, 0.0)
        assert throughput(p, Schedule((1,))) == 1.0

    def test_capacity_bound_for_real_codes(self):
        rng = random.Random(7)
        for _ in range(40):
            k = rng.randint(1, 10)
            n = rng.randint(k + 1, k + 18)
            eps = rng.choice([0.0, 0.25, 0.5, 0.7])
            m = rng.randint(1, 3)
            interior = sorted(rng.sample(range(1, n), m - 1)) if m > 1 else []
            sched = Schedule(tuple(interior) + (n,))
            t = throughput(CodeParams(k, n, eps), sched)
            assert t < 1.0 - eps

    def test_moments_agree_with_asymptote_half(self):
        # sanity on the analytic stack used to build throughput
        mm = round_length_moments(CodeParams(8, 8 + 160, 0.5))
        want = asymptotic_round_moments(8, 0.5)
        assert mm.mean == pytest.approx(want.mean, rel=1e-3)
        assert mm.variance == pytest.approx(want.variance, rel=1e-3)
