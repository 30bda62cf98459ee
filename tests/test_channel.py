"""Tests for the erasure-channel laws, ACK curve, and round objective."""

import math
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

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
    ack_curve_exact,
    ack_curve_loop,
    ack_fraction,
    erasures_pmf,
    expected_stop_symbols,
    objective_loop,
    observed_pmf,
    round_length_convolution,
)


class TestSchedule:
    def test_properties(self):
        s = Schedule((3, 7, 12))
        assert s.m == 3
        assert s.boundaries == (3, 7, 12)
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

    @pytest.mark.parametrize("boundaries, match", [
        ((True, 3), "boundary must be an integer, got True"),
        ((3, True), "boundary must be an integer, got True"),
        ((3, 8.5), "boundary must be an integer, got 8.5"),
        ((), "schedule needs at least one boundary"),
        ((0, 3), "first boundary must be >= 1, got 0"),
        ((3, 5, 5), r"boundaries must be strictly increasing, got \(3, 5, 5\)"),
        ((3.0, 2), r"boundaries must be strictly increasing, got \(3, 2\)"),
    ])
    def test_each_rejection_has_its_message(self, boundaries, match):
        # every value goes through the per-value check, plain ints included
        with pytest.raises(ValueError, match=match):
            Schedule(boundaries)


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

    def test_curve_within_absolute_error_of_exact_rationals(self):
        # the float curve against exact sums at the float eps itself.  Only
        # the absolute error is bounded: where ACK is tiny, 1 - dot is
        # rounding noise, so its relative error is unbounded near eps 1
        worst = Fraction(0)
        for k, n in [(1, 1), (1, 12), (2, 6), (4, 12), (8, 24), (17, 19), (8, 40),
                     (32, 56), (32, 88)]:
            for eps in (0.0, 0.3, 0.5, 0.9, 0.99, 0.999):
                curve = ack_curve(CodeParams(k, n, eps)).tolist()
                exact = ack_curve_exact(k, n, eps)
                assert len(curve) == len(exact) == n + 1
                worst = max(worst, max(abs(Fraction(got) - want)
                                       for got, want in zip(curve, exact)))
        assert worst <= Fraction(2e-13)

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


# mixed k and n, out of order and repeated; n = 600 spans several row blocks
_BATCH = [(32, 88), (17, 600), (1, 9), (32, 66), (40, 56), (36, 56), (32, 88), (8, 8), (2, 3)]


def _openblas_kernel_unforceable() -> str | None:
    """Why a forced OpenBLAS kernel cannot be tested here, or None where it can."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"OPENBLAS_CORETYPE=Haswell names an x86-64 kernel, not {platform.machine()}'s"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config and returns nothing
        return "numpy does not report how its BLAS was built"
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        return f"numpy's BLAS, {blas.get('name')}, is not OpenBLAS built with DYNAMIC_ARCH"
    return None


class TestAckCurves:
    """Many ACK curves at one eps, computed together, each as it is alone."""

    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.3, 0.5, 0.69, 0.9, 0.999])
    def test_batch_matches_loop_bit_for_bit(self, eps):
        got = list(channel.ack_curves(eps, _BATCH))
        assert len(got) == len(_BATCH)
        for (k, n), curve in zip(_BATCH, got):
            assert curve.tobytes() == ack_curve_loop(CodeParams(k, n, eps)).tobytes(), (k, n)
            assert not curve.flags.writeable

    def test_chunks_hold_the_table_bound(self, monkeypatch):
        # each chunk's curves, padded to its largest n, fit _CURVE_CELLS
        # values, or it is one curve; chunking moves no byte
        chunks = []
        table = channel._ack_table
        monkeypatch.setattr(channel, "_ack_table",
                            lambda eps, chunk: chunks.append(list(chunk)) or table(eps, chunk))
        monkeypatch.setattr(channel, "_CURVE_CELLS", 200)
        got = list(channel.ack_curves(0.5, _BATCH))
        assert [p for chunk in chunks for p in chunk] == _BATCH
        assert len(chunks) > 1
        for chunk in chunks:
            assert len(chunk) == 1 or len(chunk) * (max(n for _, n in chunk) + 1) <= 200
        for (k, n), curve in zip(_BATCH, got):
            assert curve.tobytes() == ack_curve_loop(CodeParams(k, n, 0.5)).tobytes(), (k, n)

    @pytest.mark.parametrize("cells", [None, (400, 3)], ids=["default-cells", "small-cells"])
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "repeated",
                                       "mixed-k"])
    def test_any_point_order_matches_loop(self, monkeypatch, order, cells):
        # one table in point order, each row run to the chunk's largest n:
        # a curve is the one computed alone wherever its n falls; small
        # cells split the points into chunks of mixed n, one weight row a block
        if cells:
            monkeypatch.setattr(channel, "_CURVE_CELLS", cells[0])
            monkeypatch.setattr(channel, "_BLOCK_CELLS", cells[1])
        ns = [9, 20, 33, 47, 161]
        points = {"ascending": [(8, n) for n in ns],
                  "descending": [(8, n) for n in ns[::-1]],
                  "shuffled": [(8, n) for n in random.Random(5).sample(ns, len(ns))],
                  "repeated": [(8, 47), (8, 9), (8, 47), (8, 161), (8, 9), (8, 161)],
                  "mixed-k": [(17, 47), (1, 1), (8, 161), (20, 20), (3, 9), (33, 33)]}[order]
        for eps in (0.0, 0.3, 0.5, 0.999):
            got = list(channel.ack_curves(eps, points))
            assert len(got) == len(points)
            for (k, n), curve in zip(points, got):
                want = ack_curve_loop(CodeParams(k, n, eps))
                assert curve.tobytes() == want.tobytes(), (order, eps, k, n)

    def test_reads_points_as_it_needs_them(self):
        # a stream over many rows computes only the chunks read so far
        read = []

        def points():
            for n in range(20, 400):
                read.append(n)
                yield 8, n

        stream = channel.ack_curves(0.5, points())
        assert read == []
        next(stream)
        assert 0 < len(read) < 380

    def test_rejects_a_bad_eps(self):
        with pytest.raises(ValueError, match="epsilon must lie in"):
            next(channel.ack_curves(1.0, [(4, 8)]))

    @pytest.mark.skipif(_openblas_kernel_unforceable() is not None,
                        reason=str(_openblas_kernel_unforceable()))
    def test_batch_matches_loop_under_the_haswell_kernel(self):
        # OpenBLAS picks its Haswell ddot on an AVX2-only CPU, and the kernel
        # chooses the summation order; the batched matmul runs np.dot's own
        # ddot, so it must still match the per-t dot of the loop there
        here = os.path.dirname(__file__)
        src = os.path.dirname(os.path.dirname(channel.__file__))
        code = (
            "import sys; from harqsdo import channel; from harqsdo.codes import CodeParams\n"
            "from oracles import ack_curve_loop\n"
            f"points = {_BATCH!r}\n"
            "for eps in (0.3, 0.5, 0.69, 0.999):\n"
            "    for (k, n), c in zip(points, channel.ack_curves(eps, points)):\n"
            "        want = ack_curve_loop(CodeParams(k, n, eps))\n"
            "        print(k, n, eps, c.tobytes() == want.tobytes())\n"
        )
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": os.pathsep.join(
            filter(None, (src, here, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=300, check=True)
        lines = run.stdout.splitlines()
        assert len(lines) == 4 * len(_BATCH)
        assert [line for line in lines if not line.endswith("True")] == []


class TestLogFactorialTable:
    """The Cephes lgam port against scipy's gammaln, which runs the same path."""

    @pytest.fixture(autouse=True)
    def fresh_table(self, monkeypatch):
        monkeypatch.setattr(channel, "_log_factorial", np.zeros(0))

    def test_table_equals_gammaln(self):
        table = channel._log_factorials(20_000)
        assert np.array_equal(table, gammaln(np.arange(1, 20_002)))

    @pytest.mark.parametrize("x", [1, 2, 12, 13, 999, 1000, 1001, 10 ** 8, 10 ** 8 + 1])
    def test_scalar_equals_gammaln_at_branch_edges(self, x):
        assert channel._lgam(x) == gammaln(float(x))

    def test_grown_in_steps_equals_one_build(self):
        steps = [channel._log_factorials(n) for n in (30, 12, 5000)]
        channel._log_factorial = np.zeros(0)
        whole = channel._log_factorials(5000)
        for part in steps:
            assert part.tobytes() == whole[: len(part)].tobytes()

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            channel._log_factorials(8)[3] = 0.0


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
        assert objective(np.array([[7], [9]]), np.empty((2, 0))).tolist() == [7.0, 9.0]

    def test_real_valued_boundaries(self):
        assert objective((1.5, 4.0), [0.5]) == pytest.approx(2.75, abs=1e-15)

    @pytest.mark.parametrize("real", [False, True], ids=["integer", "real"])
    def test_single_schedules_match_the_loop(self, real):
        # bit for bit, m = 1 included, with the last boundary's ack given or not
        rng = random.Random(20 + real)
        for _ in range(2000):
            m = rng.randint(1, 10)
            if real:
                b = sorted(rng.uniform(0.5, 400.0) for _ in range(m))
            else:
                b = sorted(rng.sample(range(1, 400), m))
            acks = [rng.random() for _ in range(m - rng.randint(0, 1))]
            got = objective(b, acks)
            assert type(got) is float and got == objective_loop(b, acks)
            assert objective(tuple(b), np.array(acks)) == got

    @pytest.mark.parametrize("rows, m", [(500, 6), (1, 6), (500, 1), (1, 1), (3, 40)],
                             ids=["tall", "one-row", "m1", "one-cell", "wide"])
    @pytest.mark.parametrize("dropped", [0, 1], ids=["acks-m", "acks-m-1"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_block_matches_the_loop_row_by_row(self, order, dropped, rows, m):
        # a tall block is summed column by column, a wide one along each row;
        # an F-ordered block, the .T of a slot-major (m, rows) array as sdo
        # scores its tall blocks, adds contiguous slots and gives the same floats
        gen = np.random.default_rng(7)
        block = np.sort(gen.random((rows, m)) * 300.0, axis=1)
        block[::2] = np.ceil(block[::2])  # every other row integer-valued
        acks = gen.random((rows, m - dropped))
        if order == "F":
            block, acks = np.ascontiguousarray(block.T).T, np.ascontiguousarray(acks.T).T
            assert block.flags.f_contiguous and acks.flags.f_contiguous
        got = objective(block, acks)
        assert got.shape == (rows,)
        assert all(got[i] == objective_loop(block[i].tolist(), acks[i].tolist())
                   for i in range(rows))

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
