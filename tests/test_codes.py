"""Tests for the random-code decoding laws, constants, and moments."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import harqsdo
from harqsdo import (
    CodeParams,
    MomentPair,
    ack_prob,
    asymptotic_round_moments,
    decodable_count_moments,
    decodable_count_pmf,
    decode_success_curve,
    decode_success_prob,
    dst_constant,
    erdos_borwein_constant,
    overhead_moment,
)
from harqsdo import channel, codes, sdo, simulate

from oracles import (
    _columns_independent,
    dense_rank_mod2,
    success_curve_loop,
    success_fraction,
)

C0_DIGITS = 1.6066951524
C1_DIGITS = 1.1373387363


def test_oracle_routes_agree():
    # the packed-int independence test and naive dense elimination must match
    rng = random.Random(5)
    for _ in range(300):
        d = rng.randint(1, 6)
        c = rng.randint(0, 7)
        cols = [rng.randrange(2 ** d) for _ in range(c)]
        mat = np.array([[(w >> i) & 1 for w in cols] for i in range(d)], dtype=int)
        if c == 0:
            mat = mat.reshape(d, 0)
        assert _columns_independent(cols, d) == (dense_rank_mod2(mat) == c)


class TestDecodeSuccessProb:
    def test_below_k_is_zero(self):
        assert decode_success_prob(4, 8, 3) == 0.0
        assert decode_success_prob(4, 8, -2) == 0.0

    def test_extension_above_n_is_one(self):
        assert decode_success_prob(4, 8, 9) == 1.0

    def test_empty_product_at_r_equal_n(self):
        assert decode_success_prob(4, 8, 8) == 1.0
        assert decode_success_prob(1, 1, 1) == 1.0

    def test_known_small_values(self):
        # 6 of the 16 ordered pairs of 2-bit columns are independent
        assert decode_success_prob(2, 4, 2) == 0.375
        assert decode_success_prob(1, 2, 1) == 0.5

    def test_matches_enumeration_exactly(self):
        # dyadic products are exact in binary floating point at these sizes
        for n in range(1, 6):
            for k in range(1, n + 1):
                for r in range(-1, n + 2):
                    got = Fraction(decode_success_prob(k, n, r))
                    assert got == success_fraction(k, n, r), (k, n, r)

    def test_monotone_decreasing_in_n(self):
        rng = random.Random(20260810)
        for _ in range(300):
            k = rng.randint(1, 12)
            n1 = rng.randint(k, 40)
            n2 = rng.randint(n1 + 1, 48)
            r = rng.randint(-2, 50)
            assert decode_success_prob(k, n1, r) >= decode_success_prob(k, n2, r)

    def test_nondecreasing_in_r(self):
        for k, n in [(1, 6), (3, 9), (5, 12)]:
            vals = [decode_success_prob(k, n, r) for r in range(-1, n + 2)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_curve_matches_scalar(self):
        for k, n in [(1, 5), (4, 12), (8, 30)]:
            curve = decode_success_curve(k, n)
            for r in range(n + 1):
                assert curve[r] == pytest.approx(decode_success_prob(k, n, r), abs=1e-15)

    def test_curve_matches_the_loop(self):
        # bit for bit against one missing column at a time, every 1 <= k <= n <= 130
        for n in range(1, 131):
            for k in range(1, n + 1):
                assert np.array_equal(decode_success_curve(k, n), success_curve_loop(k, n))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            decode_success_prob(0, 4, 2)
        with pytest.raises(ValueError):
            decode_success_prob(5, 4, 2)


class TestDecodableCountPmf:
    def test_two_point_law(self):
        assert decodable_count_pmf(1, 2, 1) == 0.5
        assert decodable_count_pmf(1, 2, 2) == 0.5

    def test_degenerate_point(self):
        assert decodable_count_pmf(7, 7, 7) == 1.0

    def test_sums_to_one(self):
        total = sum(decodable_count_pmf(4, 12, r) for r in range(4, 13))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_outside_support(self):
        assert decodable_count_pmf(4, 12, 3) == 0.0
        assert decodable_count_pmf(4, 12, 13) == 0.0

    def test_equals_forward_difference(self):
        for k, n in [(1, 4), (2, 8), (5, 13), (8, 24)]:
            for r in range(k, n + 1):
                diff = decode_success_prob(k, n, r) - decode_success_prob(k, n, r - 1)
                assert decodable_count_pmf(k, n, r) == pytest.approx(diff, abs=1e-12)


class TestConstants:
    def test_erdos_borwein_digits(self):
        assert abs(erdos_borwein_constant() - C0_DIGITS) <= 5e-11

    def test_dst_digits(self):
        assert abs(dst_constant() - C1_DIGITS) <= 5e-11

    def test_one_term_partial_sums(self):
        assert 1.0 / (2.0 ** 1 - 1.0) == 1.0
        assert 1.0 / (2.0 ** 1 - 1.0) ** 2 == 1.0

    def test_against_direct_60_term_sums(self):
        direct0 = sum(1.0 / (2.0 ** i - 1.0) for i in range(1, 61))
        direct1 = sum(1.0 / (2.0 ** i - 1.0) ** 2 for i in range(1, 61))
        assert abs(erdos_borwein_constant() - direct0) <= 1e-12
        assert abs(dst_constant() - direct1) <= 1e-12


class TestOverheadMoments:
    def test_normalization(self):
        assert overhead_moment(0) == pytest.approx(1.0, abs=1e-12)

    def test_first_moment_is_erdos_borwein(self):
        assert overhead_moment(1) == pytest.approx(erdos_borwein_constant(), abs=1e-12)

    def test_second_moment_digits(self):
        assert abs(overhead_moment(2) - 5.3255032015) <= 1e-9

    def test_variance_identity(self):
        # second central moment of the overhead law equals the dst constant
        var = overhead_moment(2) - overhead_moment(1) ** 2 - overhead_moment(1)
        assert abs(var - dst_constant()) <= 1e-10

    def test_bad_power(self):
        with pytest.raises(ValueError):
            overhead_moment(3)


class TestDecodableCountMoments:
    def test_degenerate(self):
        mm = decodable_count_moments(5, 5)
        assert mm.mean == 5.0
        assert mm.variance == 0.0

    def test_two_point_law(self):
        mm = decodable_count_moments(1, 2)
        assert mm.mean == pytest.approx(1.5, abs=1e-15)
        assert mm.variance == pytest.approx(0.25, abs=1e-15)

    def test_matches_pmf_summation(self):
        for k, n in [(2, 7), (4, 16), (6, 20)]:
            mm = decodable_count_moments(k, n)
            mean = sum(r * decodable_count_pmf(k, n, r) for r in range(k, n + 1))
            second = sum(r * r * decodable_count_pmf(k, n, r) for r in range(k, n + 1))
            assert mm.mean == pytest.approx(mean, abs=1e-12)
            assert mm.variance == pytest.approx(second - mean * mean, abs=1e-10)

    def test_limit_mean(self):
        mm = decodable_count_moments(32, 96)
        assert abs(mm.mean - (32.0 + erdos_borwein_constant())) < 1e-9

    def test_mean_nondecreasing_in_n_and_converges(self):
        k = 6
        means = [decodable_count_moments(k, n).mean for n in range(k, k + 80)]
        assert all(a <= b + 1e-15 for a, b in zip(means, means[1:]))
        assert abs(means[-1] - (k + erdos_borwein_constant())) < 1e-9


class TestAsymptoticRoundMoments:
    def test_lossless_limit(self):
        for k in (1, 8, 32):
            mm = asymptotic_round_moments(k, 0.0)
            assert mm.mean == pytest.approx(k + erdos_borwein_constant(), abs=1e-12)
            assert mm.variance == pytest.approx(
                erdos_borwein_constant() + dst_constant(), abs=1e-12
            )

    def test_half_erasure_values(self):
        # Eq.-style closed forms with the series constants plugged in;
        # frozen from (k + c0)/(1-eps) and ((k + c0) eps + c0 + c1)/(1-eps)^2
        mm = asymptotic_round_moments(32, 0.5)
        assert mm.mean == pytest.approx(67.2133903048, abs=1e-9)
        assert mm.variance == pytest.approx(78.1895258599, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_round_moments(8, 1.0)
        with pytest.raises(ValueError):
            asymptotic_round_moments(0, 0.5)


class TestParamTypes:
    def test_code_params_validation(self):
        with pytest.raises(ValueError):
            CodeParams(0, 4)
        with pytest.raises(ValueError):
            CodeParams(5, 4)
        with pytest.raises(ValueError):
            CodeParams(2, 4, 1.0)
        with pytest.raises(ValueError):
            CodeParams(2, 4, -0.1)

    def test_code_params_rejects_non_integral(self):
        with pytest.raises(ValueError):
            CodeParams(8.5, 24, 0.5)
        with pytest.raises(ValueError):
            CodeParams(8, 24.5, 0.5)
        with pytest.raises(ValueError):
            CodeParams("8", 24)
        with pytest.raises(ValueError, match="^k must be an integer, got True$"):
            CodeParams(True, 3)
        p = CodeParams(8.0, np.int64(24), 0.5)
        assert (p.k, p.n) == (8, 24)
        assert type(p.k) is int and type(p.n) is int

    @pytest.mark.parametrize("value", [False, True, np.bool_(False), "0.5", None],
                             ids=["false", "true", "numpy-bool", "str", "none"])
    @pytest.mark.parametrize("call", [
        lambda v: CodeParams(8, 24, v),
        lambda v: asymptotic_round_moments(8, v),
    ], ids=["CodeParams", "asymptotic_round_moments"])
    def test_epsilon_must_be_a_number(self, call, value):
        # False was the eps = 0 design point, printed as epsilon=False, and a
        # string raised a bare TypeError from the range comparison
        with pytest.raises(ValueError, match=f"^epsilon must be a number, got "
                                             f"{re.escape(repr(value))}$"):
            call(value)

    def test_numeric_epsilon_still_passes(self):
        assert CodeParams(8, 24, 0).epsilon == 0
        assert CodeParams(8, 24, np.float64(0.5)) == CodeParams(8, 24, 0.5)
        assert asymptotic_round_moments(8, np.float64(0.5)) == asymptotic_round_moments(8, 0.5)
        assert asymptotic_round_moments(8, 0) == asymptotic_round_moments(8, 0.0)

    def test_moment_pair_validation(self):
        with pytest.raises(ValueError):
            MomentPair(1.0, -0.5)

    @pytest.mark.parametrize("value", [10.5, True, "10", None],
                             ids=["fraction", "bool", "str", "none"])
    @pytest.mark.parametrize("name, call", [
        ("t", lambda v: ack_prob(CodeParams(8, 24, 0.5), v)),
        ("r", lambda v: decode_success_prob(8, 24, v)),
        ("r", lambda v: decodable_count_pmf(8, 24, v)),
    ], ids=["ack_prob", "decode_success_prob", "decodable_count_pmf"])
    def test_time_arguments_must_be_integers(self, name, call, value):
        # a fraction once indexed the curve (numpy's IndexError), and True read as 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "
                                             f"{re.escape(repr(value))}$"):
            call(value)
        assert call(np.int64(10)) == call(10.0) == call(10)

    @pytest.mark.parametrize("name, value, call", [
        ("n", 24.5, lambda: decode_success_curve(8, 24.5)),
        ("k", True, lambda: decode_success_curve(True, 24)),
        ("k", 8.5, lambda: decode_success_prob(8.5, 24, 10)),
        ("n", True, lambda: decodable_count_pmf(8, True, 9)),
        ("k", 8.5, lambda: decodable_count_moments(8.5, 24)),
        ("k", 8.5, lambda: asymptotic_round_moments(8.5, 0.5)),
        ("power", True, lambda: overhead_moment(True)),
    ], ids=["curve_n", "curve_bool_k", "prob_k", "pmf_bool_n", "moments_k",
            "asymptotic_k", "overhead_bool_power"])
    def test_sizes_must_be_integers(self, name, value, call):
        # these raised numpy's bare TypeError, read True as 1, or returned
        # moments for k = 8.5; each is now CodeParams's one-line ValueError
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "
                                             f"{re.escape(repr(value))}$"):
            call()

    def test_integral_sizes_still_pass(self):
        k, n = np.int64(8), 24.0
        assert decode_success_curve(k, n).tobytes() == decode_success_curve(8, 24).tobytes()
        assert decode_success_prob(k, n, 10) == decode_success_prob(8, 24, 10)
        assert decodable_count_pmf(k, n, 10) == decodable_count_pmf(8, 24, 10)
        assert decodable_count_moments(k, n) == decodable_count_moments(8, 24)
        assert asymptotic_round_moments(8.0, 0.5) == asymptotic_round_moments(k, 0.5)
        assert overhead_moment(np.int64(2)) == overhead_moment(2.0) == overhead_moment(2)


@pytest.mark.parametrize("module", [codes, channel, sdo, simulate],
                         ids=lambda m: m.__name__.rsplit(".", 1)[1])
def test_module_exports_are_package_exports(module):
    assert [name for name in module.__all__
            if getattr(harqsdo, name, None) is not getattr(module, name)] == []


def test_package_exports_only_module_exports():
    # a name that a module's __all__ no longer lists is a stale re-export
    exported = {name for name, value in vars(harqsdo).items()
                if not name.startswith("_") and not isinstance(value, type(harqsdo))}
    assert exported == {name for m in (codes, channel, sdo, simulate) for name in m.__all__}
