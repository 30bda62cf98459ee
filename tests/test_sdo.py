"""Tests for the CDF models, the SDO recursion, and the optimizers."""

import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

from harqsdo import (
    CdfModel,
    CodeParams,
    Schedule,
    ack_curve,
    asymptotic_round_moments,
    exhaustive_search,
    expected_round_symbols,
    objective,
    optimize,
    std_normal_ccdf,
    std_normal_ccdf_prime,
    throughput,
)

from harqsdo import sdo
from harqsdo.cli import main
from harqsdo.sdo import _schedule_from_model, _trajectories

from oracles import (
    dp_best_interior,
    enumerate_best_interior,
    gaussian_tail_quad,
    sdo_continuous_step,
    sdo_optimize,
    sdo_recursion,
    smoothed_objective,
)

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


def _package(model, n, m, n1):
    return _schedule_from_model(model, n, m, n1)


def _oracle(model, n, m, n1):
    return sdo_recursion(model.cdf, model.pdf, n, m, n1)


class _FlatModel:
    """A flat CDF; hashable, as the package caches trajectories per model."""

    def cdf(self, x):
        return 0.5

    def pdf(self, x):
        return 0.25


BOTH_ROUTES = pytest.mark.parametrize("grow", [_package, _oracle], ids=["package", "oracle"])


class TestSdoRecursion:
    @pytest.mark.parametrize("route", ["package", "oracle"])
    def test_closed_form_at_mean(self, route):
        # F(mu) = 1/2 and F'(mu) = 1 / (sigma sqrt(2 pi)).  mu is not an
        # integer, so no row of the package's trajectory matrix starts there:
        # the package route takes its one recursion step directly.
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        want = model.mu + math.ceil(0.5 * model.sigma * math.sqrt(2 * math.pi))
        if route == "package":
            assert sdo._step(model, model.mu, 0.0, {}) == (want, 0.5)
        else:
            assert _oracle(model, 88, 3, model.mu) == (model.mu, want, 88)

    @BOTH_ROUTES
    def test_against_quadrature(self, grow):
        # independently recompute Result-1's increment with integrated F, F'
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        mu, sigma = model.mu, model.sigma
        f60 = 1.0 - gaussian_tail_quad((60 - mu) / sigma)
        d60 = math.exp(-0.5 * ((60 - mu) / sigma) ** 2) / math.sqrt(2 * math.pi) / sigma
        assert grow(model, 88, 3, 60) == (60, 60 + math.ceil(f60 / d60), 88)

    @BOTH_ROUTES
    def test_ceiling_and_minimum_increment(self, grow):
        # a flat CDF: the first increment is exactly 0.5 / 0.25 = 2, every later one 0
        flat = _FlatModel()
        assert grow(flat, 30, 5, 10) == (10, 12, 13, 14, 30)
        # a step one short of the cap n - 1 = 13 keeps its value
        assert grow(flat, 14, 3, 10) == (10, 12, 14)

    @BOTH_ROUTES
    def test_zero_density_takes_the_cap(self, grow):
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        n1 = math.ceil(model.mu + 50 * model.sigma)
        assert model.pdf(n1) == 0.0
        assert grow(model, n1 + 10, 4, n1) == (n1, n1 + 8, n1 + 9, n1 + 10)

    @BOTH_ROUTES
    def test_subnormal_density_takes_the_cap(self, grow):
        # the density is still positive but the increment overflows to inf
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        n1 = math.ceil(model.mu + 37.8 * model.sigma)
        assert 0.0 < model.pdf(n1) < 1e-300
        assert model.cdf(n1) / model.pdf(n1) == math.inf
        assert grow(model, n1 + 10, 4, n1) == (n1, n1 + 8, n1 + 9, n1 + 10)

    @BOTH_ROUTES
    def test_m2_is_n1_then_n(self, grow):
        model = CdfModel.for_params(CodeParams(8, 24, 0.5), "normal")
        assert grow(model, 24, 2, 13) == (13, 24)

    @BOTH_ROUTES
    def test_clamps_against_n(self, grow):
        # n1 high enough that raw steps would overshoot n
        model = CdfModel.for_params(CodeParams(8, 24, 0.5), "normal")
        assert grow(model, 24, 4, 21) == (21, 22, 23, 24)

    @BOTH_ROUTES
    def test_fig1_regime_well_formed(self, grow):
        for kind in ("normal", "lognormal"):
            b = grow(CdfModel.for_params(FIG1_PARAMS, kind), 88, 4, 55)
            assert len(b) == 4
            assert b[0] == 55 and b[-1] == 88
            assert all(x < y for x, y in zip(b, b[1:]))
            assert all(type(x) is int for x in b)

    @BOTH_ROUTES
    def test_models_land_close(self, grow):
        sna = grow(CdfModel.for_params(FIG1_PARAMS, "normal"), 88, 4, 55)
        slna = grow(CdfModel.for_params(FIG1_PARAMS, "lognormal"), 88, 4, 55)
        for a, b in zip(sna, slna):
            assert abs(a - b) <= 4

    def test_step_is_the_ceiled_continuous_step(self):
        model = CdfModel.for_params(FIG1_PARAMS, "lognormal")
        cont = sdo_continuous_step(model.cdf, model.pdf, None, 60)
        assert _schedule_from_model(model, 88, 3, 60)[1] == 60 + max(1, math.ceil(cont - 60))

    def test_stationarity_of_continuous_solution(self):
        # the recursion zeroes d/dn_j for j = 1..m-2 at the pre-rounding values
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        m = 5
        bounds = [55.0]
        before = None
        for _ in range(m - 2):
            nxt = sdo_continuous_step(model.cdf, model.pdf, before, bounds[-1])
            before = bounds[-1]
            bounds.append(nxt)
        bounds.append(float(FIG1_PARAMS.n))
        h = 1e-4
        for j in range(m - 2):
            up = list(bounds)
            dn = list(bounds)
            up[j] += h
            dn[j] -= h
            deriv = (
                smoothed_objective(model.cdf, up) - smoothed_objective(model.cdf, dn)
            ) / (2 * h)
            assert abs(deriv) < 1e-6

    def test_smoothed_objective_telescopes(self):
        # the direct form equals the package's telescoped objective over F
        model = CdfModel.for_params(FIG1_PARAMS, "lognormal")
        b = (55, 63, 70, 88)
        assert smoothed_objective(model.cdf, b) == pytest.approx(
            objective(b, [model.cdf(x) for x in b]), abs=1e-12)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warmed-by-larger-n"])
    @pytest.mark.parametrize("kind", ["normal", "lognormal"])
    def test_matches_oracle_on_every_feasible_n1(self, kind, warm):
        _trajectories.cache_clear()
        count = 0
        for k in (1, 4, 17, 32, 64):
            for eps in (0.0, 0.3, 0.5, 0.9, 0.99):
                model = CdfModel.for_params(CodeParams(k, k, eps), kind)
                if warm:
                    # trajectories grown past every cap the loop below reads
                    for n1 in range(k, 3 * k + 8):
                        _schedule_from_model(model, 4 * k + 16, 8, n1)
                for n in (k + 3, 2 * k + 7, 3 * k):
                    for m in range(2, 9):
                        for n1 in range(k, n - m + 2):
                            want = sdo_recursion(model.cdf, model.pdf, n, m, n1)
                            got = _schedule_from_model(model, n, m, n1)
                            assert got == want, (k, eps, n, m, n1)
                            count += 1
        assert count == 12765


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


OPTIMIZE_GRID = [(k, eps, n, m) for k in (1, 8, 32, 64) for eps in (0.0, 0.3, 0.9, 0.99)
                 for n in sorted({k + 3, 2 * k + 7, 3 * k}) for m in range(2, 9)
                 if k + m - 1 <= n]


@functools.lru_cache(maxsize=None)
def _oracle_optimize(kind, k, eps, n, m):
    p = CodeParams(k, n, eps)
    model = CdfModel.for_params(p, kind)
    return sdo_optimize(model.cdf, model.pdf, ack_curve(p), k, n, m)


class TestSharedTrajectories:
    """optimize reads every candidate from trajectories shared across (n, m)."""

    @staticmethod
    def _assert_matches_oracle(kind, grid):
        for k, eps, n, m in grid:
            rep = optimize(CodeParams(k, n, eps), m, kind)
            schedule, obj = _oracle_optimize(kind, k, eps, n, m)
            assert rep.schedule.boundaries == schedule, (k, eps, n, m)
            assert rep.objective == obj, (k, eps, n, m)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("kind", ["normal", "lognormal"])
    def test_optimize_matches_oracle_in_any_call_order(self, kind, order):
        grid = {"ascending": OPTIMIZE_GRID, "descending": OPTIMIZE_GRID[::-1],
                "shuffled": random.Random(9).sample(OPTIMIZE_GRID, len(OPTIMIZE_GRID))}[order]
        _trajectories.cache_clear()
        self._assert_matches_oracle(kind, grid)

    def test_scoring_in_small_row_blocks(self, monkeypatch):
        # one or two candidates per block, so every block edge is crossed
        monkeypatch.setattr(sdo, "_BLOCK_CELLS", 3)
        _trajectories.cache_clear()
        self._assert_matches_oracle("normal", [g for g in OPTIMIZE_GRID if g[0] in (8, 32)])

    def test_cache_holds_a_few_models(self):
        for eps in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            optimize(CodeParams(8, 24, eps), 4, "lognormal")
        assert 1 <= _trajectories.cache_info().currsize <= 4

    def test_cdf_evaluations_per_cli_call(self, monkeypatch, capsys):
        # sweep-n-fig2 grew 44,594 steps when every (n, m, n1) regrew its
        # schedule and 484 with shared rows; sweep-k-es has no (n, m) to
        # share and takes 1,168 steps.  F is evaluated once per boundary and
        # model, at 172 and 529 boundaries.
        evaluations = []
        cdf = CdfModel.cdf
        monkeypatch.setattr(CdfModel, "cdf", lambda model, x: evaluations.append(x) or cdf(model, x))
        for argv, limit in [("sweep-n --k 32 --n 66:120:2 --m 1:8 --model all", 200),
                            ("sweep-k --k 24:40:4 --n 88 --m 5 --model all", 600)]:
            _trajectories.cache_clear()
            evaluations.clear()
            assert main(argv.split() + ["--eps", "0.47"]) == 0
            assert len(evaluations) <= limit, argv
        capsys.readouterr()

    def test_wide_optimize_traced_peak_under_8mb(self):
        _trajectories.cache_clear()
        tracemalloc.start()
        try:
            optimize(CodeParams(32, 4000, 0.5), 3000, "normal")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000


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

    @pytest.mark.parametrize("block_cells", [None, 1], ids=["default-blocks", "one-cell-blocks"])
    def test_matches_full_matrix_dp_on_criterion_6_grid(self, monkeypatch, block_cells):
        if block_cells is not None:
            monkeypatch.setattr(sdo, "_BLOCK_CELLS", block_cells)
        for k in range(4, 17):
            for n in range(2 * k, 3 * k + 1):
                for m in (2, 3, 4, 6):
                    for eps in (0.3, 0.5):
                        if k + m - 1 <= n:
                            self._assert_matches_full_matrix_dp(CodeParams(k, n, eps), m)

    def test_matches_full_matrix_dp_across_blocks(self, monkeypatch):
        # 300 boundaries make two default blocks; 1000 cells make blocks of
        # 3, 16 and 31 rows at the three sizes below
        for block_cells in (None, 1000):
            if block_cells is not None:
                monkeypatch.setattr(sdo, "_BLOCK_CELLS", block_cells)
            for p, m in [(CodeParams(32, 332, 0.5), 5), (CodeParams(1, 60, 0.0), 4),
                         (CodeParams(8, 40, 0.9), 8)]:
                self._assert_matches_full_matrix_dp(p, m)

    @staticmethod
    def _assert_matches_full_matrix_dp(p, m):
        want = Schedule(dp_best_interior(ack_curve(p), p.k, p.n, m) + (p.n,))
        rep = exhaustive_search(p, m)
        assert rep.schedule == want, (p, m)
        assert rep.objective == expected_round_symbols(p, want), (p, m)

    def test_traced_peak_under_8mb(self):
        # the full (n - k)**2 step matrix alone would take 31 MB here
        params = CodeParams(32, 2000, 0.5)
        ack_curve(params)
        tracemalloc.start()
        try:
            exhaustive_search(params, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000

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
