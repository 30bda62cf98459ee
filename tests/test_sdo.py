"""Tests for the CDF models, the SDO recursion, and the optimizers."""

import math
import random

import numpy as np
import pytest

from harqsdo import (
    CdfModel,
    CodeParams,
    Schedule,
    StepUnderflowError,
    ack_curve,
    asymptotic_round_moments,
    exhaustive_search,
    expected_round_symbols,
    optimize,
    sdo_schedule,
    sdo_step,
    sdo_step_continuous,
    smoothed_expected_symbols,
    std_normal_ccdf,
    std_normal_ccdf_prime,
    throughput,
)

from oracles import enumerate_best_interior, gaussian_tail_quad

FIG1_PARAMS = CodeParams(32, 88, 0.5)


class TestStdNormalCcdf:
    def test_symmetry_at_zero(self):
        assert std_normal_ccdf(0.0) == 0.5

    def test_symmetry_identity(self):
        assert std_normal_ccdf(1.7) + std_normal_ccdf(-1.7) == pytest.approx(1.0, abs=1e-15)

    def test_against_quadrature(self):
        for x in (-2.0, 0.3, 1.0, 2.5):
            assert std_normal_ccdf(x) == pytest.approx(gaussian_tail_quad(x), abs=1e-12)

    def test_prime(self):
        assert std_normal_ccdf_prime(0.0) == pytest.approx(-1.0 / math.sqrt(2 * math.pi))
        h = 1e-6
        for x in (-1.0, 0.7, 2.0):
            fd = (std_normal_ccdf(x + h) - std_normal_ccdf(x - h)) / (2 * h)
            assert std_normal_ccdf_prime(x) == pytest.approx(fd, rel=1e-6)


class TestCdfModel:
    def test_moment_matching_identities(self):
        for kind in ("normal", "lognormal"):
            model = CdfModel.for_params(FIG1_PARAMS, kind)
            mean_back = math.exp(model.mu_star + model.sigma2_star / 2)
            var_back = (math.exp(model.sigma2_star) - 1.0) * math.exp(
                2 * model.mu_star + model.sigma2_star
            )
            assert mean_back == pytest.approx(model.mu, abs=1e-9)
            assert var_back == pytest.approx(model.sigma2, abs=1e-9)
            assert model.sigma2 > 0
            assert model.sigma2_star > 0

    def test_matches_asymptotic_moments(self):
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        mm = asymptotic_round_moments(32, 0.5)
        assert model.mu == mm.mean
        assert model.sigma2 == mm.variance

    def test_lognormal_support(self):
        model = CdfModel.for_params(FIG1_PARAMS, "lognormal")
        assert model.cdf(0.0) == 0.0
        assert model.pdf(0.0) == 0.0
        assert model.cdf(-3.0) == 0.0

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            CdfModel.from_moments("cauchy", 10.0, 4.0)


class TestSdoStep:
    def test_closed_form_at_mean(self):
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        want = model.mu + math.ceil(0.5 * model.sigma * math.sqrt(2 * math.pi))
        assert sdo_step(model, None, model.mu) == want

    def test_against_quadrature(self):
        # independently recompute Result-1's increment with integrated F, F'
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        mu, sigma = model.mu, model.sigma
        f60 = 1.0 - gaussian_tail_quad((60 - mu) / sigma)
        d60 = math.exp(-0.5 * ((60 - mu) / sigma) ** 2) / math.sqrt(2 * math.pi) / sigma
        assert sdo_step(model, None, 60) == 60 + math.ceil(f60 / d60)

    def test_minimum_increment(self):
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        x1 = model.mu + 9 * model.sigma
        x2 = model.mu + 10 * model.sigma
        assert model.cdf(x1) == model.cdf(x2)
        assert sdo_step(model, x1, x2) == x2 + 1

    def test_underflow_raises(self):
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        with pytest.raises(StepUnderflowError):
            sdo_step(model, None, model.mu + 50 * model.sigma)

    def test_subnormal_density_raises(self):
        # the density is still positive but the step overflows to inf
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        x = model.mu + 37.8 * model.sigma
        assert 0.0 < model.pdf(x) < 1e-300
        with pytest.raises(StepUnderflowError):
            sdo_step(model, None, x)

    def test_predecessor_ordering(self):
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        with pytest.raises(ValueError):
            sdo_step(model, 70.0, 60.0)

    def test_continuous_matches_step_before_ceiling(self):
        model = CdfModel.for_params(FIG1_PARAMS, "lognormal")
        cont = sdo_step_continuous(model, None, 60)
        stepped = sdo_step(model, None, 60)
        assert stepped == 60 + max(1, math.ceil(cont - 60))


class TestSdoSchedule:
    def test_m2_is_n1_then_n(self):
        s = sdo_schedule(CodeParams(8, 24, 0.5), 2, "normal", 13)
        assert s.boundaries == (13, 24)

    def test_fig1_regime_well_formed(self):
        for kind in ("normal", "lognormal"):
            s = sdo_schedule(FIG1_PARAMS, 4, kind, 55)
            b = s.boundaries
            assert len(b) == 4
            assert b[-1] == 88
            assert all(x < y for x, y in zip(b, b[1:]))
            assert b[0] >= 32

    def test_models_land_close(self):
        sna = sdo_schedule(FIG1_PARAMS, 4, "normal", 55)
        slna = sdo_schedule(FIG1_PARAMS, 4, "lognormal", 55)
        for a, b in zip(sna.boundaries, slna.boundaries):
            assert abs(a - b) <= 4

    def test_clamps_against_n(self):
        # n1 high enough that raw steps would overshoot n
        s = sdo_schedule(CodeParams(8, 24, 0.5), 4, "normal", 21)
        assert s.boundaries == (21, 22, 23, 24)

    def test_n1_domain(self):
        with pytest.raises(ValueError):
            sdo_schedule(CodeParams(8, 24, 0.5), 3, "normal", 7)
        with pytest.raises(ValueError):
            sdo_schedule(CodeParams(8, 24, 0.5), 3, "normal", 24)

    def test_stationarity_of_continuous_solution(self):
        # the recursion zeroes d/dn_j for j = 1..m-2 at the pre-rounding values
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        m = 5
        bounds = [55.0]
        prev2 = None
        for _ in range(m - 2):
            nxt = sdo_step_continuous(model, prev2, bounds[-1])
            prev2 = bounds[-1]
            bounds.append(nxt)
        bounds.append(float(FIG1_PARAMS.n))
        h = 1e-4
        for j in range(m - 2):
            up = list(bounds)
            dn = list(bounds)
            up[j] += h
            dn[j] -= h
            deriv = (
                smoothed_expected_symbols(model, up)
                - smoothed_expected_symbols(model, dn)
            ) / (2 * h)
            assert abs(deriv) < 1e-6


class TestOptimize:
    def test_m1_schedule_is_n(self):
        rep = optimize(CodeParams(8, 24, 0.5), 1)
        assert rep.schedule.boundaries == (24,)
        assert rep.objective == 24.0
        assert rep.n1_searched is None

    def test_m2_matches_exhaustive(self):
        p = CodeParams(8, 24, 0.0)
        sdo = optimize(p, 2, "normal")
        es = exhaustive_search(p, 2)
        assert abs(sdo.objective - es.objective) <= 1.0
        assert sdo.n1_searched == (8, 23)

    def test_objective_consistent_with_channel(self):
        rep = optimize(FIG1_PARAMS, 4, "lognormal")
        assert rep.objective == pytest.approx(
            expected_round_symbols(FIG1_PARAMS, rep.schedule), abs=1e-9
        )
        assert rep.throughput == pytest.approx(
            throughput(FIG1_PARAMS, rep.schedule), abs=1e-12
        )
        assert rep.model_used == "lognormal"

    def test_beats_equal_split(self):
        for k, n, m, eps in [(8, 24, 3, 0.5), (8, 32, 4, 0.3), (12, 30, 3, 0.5)]:
            p = CodeParams(k, n, eps)
            rep = optimize(p, m, "normal")
            step = (n - k) / m
            interior = sorted({k + round(step * i) for i in range(1, m)})
            baseline = Schedule(tuple(interior) + (n,))
            assert rep.objective <= expected_round_symbols(p, baseline) + 1e-12

    def test_monotone_throughput_in_m(self):
        p = CodeParams(8, 24, 0.5)
        last = 0.0
        for m in range(1, 6):
            t = optimize(p, m, "normal").throughput
            assert t >= last - 1e-12
            last = t


class TestExhaustiveSearch:
    def test_m1(self):
        rep = exhaustive_search(CodeParams(5, 9, 0.2), 1)
        assert rep.schedule.boundaries == (9,)
        assert rep.objective == 9.0

    def test_only_candidate(self):
        rep = exhaustive_search(CodeParams(1, 2, 0.0), 2)
        assert rep.schedule.boundaries == (1, 2)
        assert rep.objective == pytest.approx(1.5, abs=1e-15)

    def test_is_global_minimum_by_fuzz(self):
        p = CodeParams(4, 12, 0.5)
        rep = exhaustive_search(p, 3)
        rng = random.Random(3)
        for _ in range(200):
            interior = sorted(rng.sample(range(4, 12), 2))
            cand = Schedule(tuple(interior) + (12,))
            assert expected_round_symbols(p, cand) >= rep.objective - 1e-12

    def test_sdo_close_to_exhaustive(self):
        p = CodeParams(4, 12, 0.5)
        es = exhaustive_search(p, 3)
        for kind in ("normal", "lognormal"):
            rep = optimize(p, 3, kind)
            assert es.objective <= rep.objective + 1e-12
            assert rep.objective <= es.objective * 1.02

    def test_large_space_solved(self):
        # C(199, 7) ~ 2.3e12 boundary tuples: far beyond enumeration
        p = CodeParams(1, 200, 0.5)
        rep = exhaustive_search(p, 8)
        b = rep.schedule.boundaries
        assert len(b) == 8 and b[0] >= 1 and b[-1] == 200
        assert all(x < y for x, y in zip(b, b[1:]))
        assert rep.objective <= optimize(p, 8, "normal").objective + 1e-12
        assert rep.objective <= optimize(p, 8, "lognormal").objective + 1e-12
        rng = random.Random(5)
        for _ in range(200):
            interior = sorted(rng.sample(range(1, 200), 7))
            cand = Schedule(tuple(interior) + (200,))
            assert expected_round_symbols(p, cand) >= rep.objective - 1e-12

    def test_matches_enumeration_on_criterion_6_grid(self):
        for k in range(4, 17):
            for n in range(2 * k, 3 * k + 1):
                for m in (2, 3, 4):
                    for eps in (0.3, 0.5):
                        self._assert_matches_enumeration(CodeParams(k, n, eps), m)

    def test_matches_enumeration_on_lossless_ties(self):
        # eps = 0 makes the ACK curve a product of dyadic factors, so many
        # tuples tie exactly; the DP must pick the lexicographically first
        for k in range(1, 6):
            for n in range(k + 1, k + 13):
                for m in (2, 3, 4):
                    if k + m - 1 <= n:
                        self._assert_matches_enumeration(CodeParams(k, n, 0.0), m)

    @staticmethod
    def _assert_matches_enumeration(p, m):
        want = enumerate_best_interior(ack_curve(p), p.k, p.n, m) + (p.n,)
        assert exhaustive_search(p, m).schedule.boundaries == want, (p, m)

    def test_model_used_label(self):
        assert exhaustive_search(CodeParams(4, 10, 0.3), 2).model_used == "exhaustive"


class TestScheduleEmission:
    def test_every_emitted_schedule_valid(self):
        rng = random.Random(11)
        for _ in range(25):
            k = rng.randint(2, 10)
            n = rng.randint(k + 4, k + 20)
            m = rng.randint(1, 4)
            eps = rng.choice([0.1, 0.3, 0.5])
            p = CodeParams(k, n, eps)
            for rep in (optimize(p, m, "normal"), optimize(p, m, "lognormal"),
                        exhaustive_search(p, m)):
                b = rep.schedule.boundaries
                assert b[-1] == n
                assert all(x < y for x, y in zip(b, b[1:]))
                if m > 1:
                    assert b[0] >= k
