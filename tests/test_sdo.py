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
    throughput,
)

from harqsdo import channel, sdo
from harqsdo.cli import main

from oracles import (
    dp_best_interior,
    enumerate_best_interior,
    gaussian_tail_quad,
    objective_loop,
    schedule_from_model,
    sdo_continuous_step,
    sdo_optimize,
    sdo_recursion,
    smoothed_objective,
    std_normal_ccdf,
    std_normal_ccdf_prime,
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

    @pytest.mark.parametrize("kind", ["normal", "lognormal"])
    def test_cdf_pdf_is_the_separate_forms_bit_for_bit(self, kind):
        # one z serves F and F'; each equals its own form 1 - Q(z) and
        # -Q'(z) / (sigma, or x sigma*) exactly, on and off the integers
        model = CdfModel.for_params(FIG1_PARAMS, kind)
        rng = random.Random(12)
        xs = [-3.0, 0.0, model.mu, 1e-300] + list(range(1, 300))
        xs += [rng.uniform(-5.0, 300.0) for _ in range(2000)]
        for x in xs:
            if kind == "normal":
                z, scale = (x - model.mu) / model.sigma, model.sigma
            elif x <= 0.0:
                assert model.cdf_pdf(x) == (0.0, 0.0) == (model.cdf(x), model.pdf(x))
                continue
            else:
                z, scale = (math.log(x) - model.mu_star) / model.sigma_star, x * model.sigma_star
            assert std_normal_ccdf(z) == 0.5 * math.erfc(z / math.sqrt(2.0))
            want = (1.0 - std_normal_ccdf(z), -std_normal_ccdf_prime(z) / scale)
            assert model.cdf_pdf(x) == want == (model.cdf(x), model.pdf(x)), x


def _oracle(model, n, m, n1):
    return sdo_recursion(model.cdf, model.pdf, n, m, n1)


class _FlatModel:
    """A flat CDF, with the cdf_pdf the package's trajectories step through."""

    def cdf(self, x):
        return 0.5

    def pdf(self, x):
        return 0.25

    def cdf_pdf(self, x):
        return 0.5, 0.25


BOTH_ROUTES = pytest.mark.parametrize("grow", [schedule_from_model, _oracle],
                                      ids=["package", "oracle"])


class TestSdoRecursion:
    @pytest.mark.parametrize("route", ["package", "oracle"])
    def test_closed_form_at_mean(self, route):
        # F(mu) = 1/2 and F'(mu) = 1 / (sigma sqrt(2 pi)).  mu is not an
        # integer, so no row of the package's trajectory matrix starts there:
        # the package route steps from the same model moved to mean 60.
        model = CdfModel.for_params(FIG1_PARAMS, "normal")
        increment = math.ceil(0.5 * model.sigma * math.sqrt(2 * math.pi))
        if route == "package":
            at_60 = CdfModel("normal", 60.0, model.sigma2, model.mu_star, model.sigma2_star)
            assert schedule_from_model(at_60, 88, 3, 60) == (60, 60 + increment, 88)
        else:
            assert _oracle(model, 88, 3, model.mu) == (model.mu, model.mu + increment, 88)

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
        assert schedule_from_model(model, 88, 3, 60)[1] == 60 + max(1, math.ceil(cont - 60))

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

    @pytest.mark.parametrize("kind", ["normal", "lognormal"])
    def test_matches_oracle_on_every_feasible_n1(self, kind):
        count = 0
        for k in (1, 4, 17, 32, 64):
            for eps in (0.0, 0.3, 0.5, 0.9, 0.99):
                model = CdfModel.for_params(CodeParams(k, k, eps), kind)
                for n in (k + 3, 2 * k + 7, 3 * k):
                    for m in range(2, 9):
                        for n1 in range(k, n - m + 2):
                            want = sdo_recursion(model.cdf, model.pdf, n, m, n1)
                            got = schedule_from_model(model, n, m, n1)
                            assert got == want, (k, eps, n, m, n1)
                            count += 1
        assert count == 12765


class _Counted:
    """A model that records every boundary its F and F' are evaluated at."""

    def __init__(self, model):
        self.model, self.at = model, []

    def cdf_pdf(self, x):
        self.at.append(x)
        return self.model.cdf_pdf(x)


TRAJECTORY_POINTS = [(1, 0.0, 9), (8, 0.99, 31), (32, 0.5, 88)]


class TestTrajectories:
    """sdo._trajectories: every model's rows stepped from scratch in one stacked matrix."""

    @pytest.mark.parametrize("ms", [(), (2,), (2, 5, 8), (8,)],
                             ids=["no-m", "m2", "m2-5-8", "m8"])
    def test_stacks_each_row_as_stepped_alone(self, ms):
        for k, eps, n in TRAJECTORY_POINTS:
            models = [CdfModel.for_params(CodeParams(k, n, eps), kind)
                      for kind in ("normal", "lognormal")]
            got = sdo._trajectories(models, n, ms, k, n)
            alone = [sdo._trajectories([model], n, ms, n1, n1)
                     for model in models for n1 in range(k, n + 1)]
            # a row per (model, n1), as wide as its longest row and no wider
            assert got.shape == (len(alone), max(row.shape[1] for row in alone))
            assert got.shape[1] <= max(max(ms, default=2) - 1, 1)
            # the longest row's last cell follows a finite one; padding would not
            assert got.shape[1] == 1 or np.isfinite(got[:, -2]).any()
            for row, one in zip(got, alone):
                assert one.shape[0] == 1 and np.isfinite(one[0, 0])
                assert row[: one.shape[1]].tolist() == one[0].tolist(), (k, eps, n, ms)
                assert np.all(row[one.shape[1]:] == np.inf)

    def test_each_boundary_evaluated_once_per_model_and_call(self):
        ms = (2, 5, 8)
        for k, eps, n in TRAJECTORY_POINTS:
            models = [_Counted(CdfModel.for_params(CodeParams(k, n, eps), kind))
                      for kind in ("normal", "lognormal")]
            got = sdo._trajectories(models, n, ms, k, n)
            for model in models:
                # a row stepped alone is as wide as it is long, and steps
                # from every cell but its last
                stepped = set()
                for n1 in range(k, n + 1):
                    stepped.update(sdo._trajectories([model.model], n, ms, n1, n1)[0, :-1].tolist())
                assert sorted(model.at) == sorted(stepped), (k, eps, n)
            # nothing is kept between calls: the same call evaluates the same boundaries
            before = [list(model.at) for model in models]
            for model in models:
                model.at.clear()
            assert sdo._trajectories(models, n, ms, k, n).tolist() == got.tolist()
            assert [model.at for model in models] == before

    def test_no_m_reads_past_the_first_boundary(self):
        model = _Counted(CdfModel.for_params(FIG1_PARAMS, "normal"))
        got = sdo._trajectories([model], 88, (), 32, 88)
        assert got.tolist() == [[float(n1)] for n1 in range(32, 89)]
        assert model.at == []


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
        self._assert_matches_oracle(kind, grid)

    def test_scoring_in_small_row_blocks(self, monkeypatch):
        # one or two candidates per block, so every block edge is crossed
        monkeypatch.setattr(sdo, "_BLOCK_CELLS", 3)
        self._assert_matches_oracle("normal", [g for g in OPTIMIZE_GRID if g[0] in (8, 32)])

    def test_cdf_evaluations_per_cli_call(self, monkeypatch, capsys):
        # sweep-n-fig2 grew 44,594 steps when every (n, m, n1) regrew its
        # schedule and 484 with shared rows; sweep-k-es has no (n, m) to
        # share and takes 1,168 steps.  F is evaluated once per boundary and
        # model, at 172 and 529 boundaries, by one cdf_pdf call each.
        evaluations = []
        cdf_pdf = CdfModel.cdf_pdf
        monkeypatch.setattr(CdfModel, "cdf_pdf",
                            lambda model, x: evaluations.append(x) or cdf_pdf(model, x))
        for argv, limit in [("sweep-n --k 32 --n 66:120:2 --m 1:8 --model all", 200),
                            ("sweep-k --k 24:40:4 --n 88 --m 5 --model all", 600)]:
            evaluations.clear()
            assert main(argv.split() + ["--eps", "0.47"]) == 0
            assert len(evaluations) <= limit, argv
        capsys.readouterr()

    def test_one_model_per_kind_per_cli_call(self, monkeypatch, capsys):
        # the model depends on (k, eps, kind) alone; building it per (n, m)
        # cell took 392 models for these 196 SDO cells and two kinds
        built = []
        post_init = CdfModel.__post_init__
        monkeypatch.setattr(CdfModel, "__post_init__",
                            lambda model: built.append(model) or post_init(model))
        argv = "sweep-n --k 32 --n 66:120:2 --m 1:8 --model all --eps 0.47".split()
        assert main(argv) == 0
        assert sorted(model.kind for model in built) == ["lognormal", "normal"]
        capsys.readouterr()

    def test_wide_optimize_traced_peak_under_8mb(self):
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
        # 300 boundaries make six default blocks; 1000 cells make blocks of
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


# design points of OPTIMIZE_GRID with every m = 1..8 that fits
EACH_GRID = sorted({(k, eps, n) for k, eps, n, _ in OPTIMIZE_GRID})


def _ms_in(order, ms):
    """ms ascending, descending, shuffled, or with each m twice."""
    return {"ascending": ms, "descending": ms[::-1],
            "shuffled": random.Random(len(ms)).sample(ms, len(ms)),
            "duplicates": [m for m in ms for _ in range(2)]}[order]


def _optimize_each(params, ms, kind):
    """kind's report for every m in ms, keyed by m, from a one-cell optimize_row."""
    [(_, by_kind)] = sdo.optimize_row(params.k, params.epsilon, [(params.n, ms)], (kind,))
    return by_kind[kind]


class TestSolveEach:
    """Every m of a design point from one SDO scoring pass and one DP pass."""

    @staticmethod
    def _assert_each_matches_oracles(grid, order, kinds=("normal", "lognormal")):
        for k, eps, n in grid:
            p = CodeParams(k, n, eps)
            ms = _ms_in(order, [m for m in range(1, 9) if k + m - 1 <= n])
            for kind in kinds:
                reports = _optimize_each(p, ms, kind)
                assert sorted(reports) == sorted(set(ms))
                for m, rep in reports.items():
                    if m == 1:
                        assert rep == optimize(p, 1, kind)
                        continue
                    schedule, obj = _oracle_optimize(kind, k, eps, n, m)
                    assert rep.schedule.boundaries == schedule, (kind, k, eps, n, m)
                    assert rep.objective == obj, (kind, k, eps, n, m)
                    assert rep.n1_searched == (k, n - m + 1)
            reports = _optimize_each(p, ms, "exhaustive")
            assert sorted(reports) == sorted(set(ms))
            for m, rep in reports.items():
                want = Schedule((n,) if m == 1 else dp_best_interior(ack_curve(p), k, n, m) + (n,))
                assert rep.schedule == want, (k, eps, n, m)
                assert rep.objective == expected_round_symbols(p, want), (k, eps, n, m)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "duplicates"])
    def test_match_oracles_for_every_m(self, order):
        self._assert_each_matches_oracles(EACH_GRID, order)

    @pytest.mark.parametrize("block_cells", [1, 3])
    def test_match_oracles_in_small_blocks(self, monkeypatch, block_cells):
        # blocks of one or a few rows: every block edge, and every edge
        # between two m's stacked candidates, falls inside some block
        monkeypatch.setattr(sdo, "_BLOCK_CELLS", block_cells)
        self._assert_each_matches_oracles([g for g in EACH_GRID if g[0] in (8, 32)],
                                          "shuffled", kinds=("normal",))

    def test_m2_alone(self):
        # m = 2 reads tails[0] only; tails[m - 3::-1] would read all of them
        for k, eps, n in EACH_GRID:
            p = CodeParams(k, n, eps)
            rep = _optimize_each(p, (2,), "exhaustive")[2]
            assert rep.schedule.boundaries == dp_best_interior(ack_curve(p), k, n, 2) + (n,)
            ms = range(1, 9) if k + 7 <= n else (2,)
            assert rep == _optimize_each(p, ms, "exhaustive")[2]
            for kind in ("normal", "lognormal"):
                assert _optimize_each(p, (2,), kind)[2].schedule.boundaries == (
                    _oracle_optimize(kind, k, eps, n, 2)[0])

    @pytest.mark.parametrize("kind", ["normal", "lognormal"])
    def test_unpadded_totals_equal_the_loop(self, monkeypatch, kind):
        # the candidates of each m = 2..8 are scored in one call of their
        # own, exactly m wide, and score as the loop does
        scored = []
        score = sdo.objective
        monkeypatch.setattr(sdo, "objective", lambda b, acks: (
            scored.append((b.shape, score(b, acks))) or scored[-1][1]))
        p = CodeParams(32, 88, 0.5)
        _optimize_each(p, range(2, 9), kind)
        model, curve = CdfModel.for_params(p, kind), ack_curve(p)
        want = [objective_loop(b, [curve[x] for x in b[:-1]])
                for m in range(2, 9) for b in (sdo_recursion(model.cdf, model.pdf, 88, m, n1)
                                               for n1 in range(32, 88 - m + 2))]
        assert [shape for shape, _ in scored] == [(88 - m - 30, m) for m in range(2, 9)]
        assert np.concatenate([totals for _, totals in scored]).tolist() == want

    def test_infeasible_m_raises_before_any_solve(self):
        for kind in ("normal", "exhaustive"):
            with pytest.raises(ValueError, match=r"got k=8, m=18, n=24$"):
                _optimize_each(CodeParams(8, 24, 0.5), (2, 18, 3), kind)
            with pytest.raises(ValueError, match="m must be >= 1, got 0"):
                _optimize_each(CodeParams(8, 24, 0.5), (2, 0), kind)

    def test_duplicate_m_prints_its_rows_twice(self, capsys):
        for model in ("na", "es"):
            assert main(["sweep-n", "--k", "8", "--n", "24", "--m", "3,3", "--model", model]) == 0
            rows = capsys.readouterr().out.splitlines()[2:]
            assert len(rows) == 2 and rows[0] == rows[1]
            assert rows[0].startswith("8,24,3,0.5,")

    def test_one_scoring_call_per_n_and_model(self, monkeypatch, capsys):
        # the sweep row stacks the candidates of one m at a time, over its 28
        # n and 2 models, and scores them in blocks of _BLOCK_CELLS // m
        # rows, each exactly m wide: 10 objective calls over 112,112 cells,
        # and m = 1 needs none.  Padding every block to its widest m took
        # 12 calls over 182,336 cells; one call per (n, model) took 56, and
        # one per (n, m, model) 392
        shapes = []
        score = sdo.objective
        monkeypatch.setattr(sdo, "objective",
                            lambda b, acks: shapes.append(b.shape) or score(b, acks))
        argv = "sweep-n --k 32 --n 66:120:2 --m 1:8 --model all --eps 0.47".split()
        assert main(argv) == 0
        assert len(shapes) <= 10
        assert sum(rows * wide for rows, wide in shapes) == 112_112
        capsys.readouterr()

    def test_one_backward_pass_per_design_point(self, monkeypatch, capsys):
        # every (k, n) here fits one row block, so each pass forms one block
        # of step costs, and its last block starts at row 0
        passes = []
        steps = sdo._steps
        monkeypatch.setattr(sdo, "_steps", lambda x, c, start, stop: (
            passes.append(start == 0) or steps(x, c, start, stop)))
        argv = "sweep-n --k 32 --n 66:120:2 --m 1:8 --model es --eps 0.47".split()
        assert main(argv) == 0
        assert sum(passes) == len(passes) == 28
        capsys.readouterr()

    @pytest.mark.parametrize("params, solve", [
        (CodeParams(32, 2000, 0.5), lambda p: _optimize_each(p, range(1, 9), "exhaustive")),
        (CodeParams(32, 4000, 0.5), lambda p: _optimize_each(p, (2, 1000, 3000), "normal")),
    ], ids=["dp", "sdo"])
    def test_traced_peak_under_8mb(self, params, solve):
        ack_curve(params)
        tracemalloc.start()
        try:
            solve(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000


class TestSweepRow:
    """Every (n, m, model) of a k from one optimize_row pass."""

    @pytest.fixture
    def computed(self, monkeypatch):
        """The (k, n, eps) of every ACK curve computed from here on, and the chunks they came in."""
        points, chunks = [], []
        table = channel._ack_table

        def counted(eps, chunk):
            points.extend((k, n, eps) for k, n in chunk)
            chunks.append(len(chunk))
            return table(eps, chunk)

        monkeypatch.setattr(channel, "_ack_table", counted)
        ack_curve.cache_clear()
        return points, chunks

    @pytest.mark.parametrize("argv, points", [
        ("sweep-n --k 32 --n 66:120:2 --m 1:8 --model all",
         [(32, n) for n in range(66, 121, 2)]),
        ("sweep-k --k 24:40:4 --n 88 --m 5 --model all", [(k, 88) for k in range(24, 41, 4)]),
        ("optimize --k 32 --n 88 --m 4 --model all", [(32, 88)]),
    ], ids=["sweep-n", "sweep-k", "optimize"])
    def test_each_ack_curve_computed_once_per_cli_call(self, argv, points, computed, capsys):
        # the command's curves are computed together, k by k: sweep-k's five
        # k share one table, and es reads the curve the row is handed
        assert main(argv.split() + ["--eps", "0.47"]) == 0
        assert computed == ([(k, n, 0.47) for k, n in points], [len(points)])
        capsys.readouterr()

    def test_yields_each_n_in_order_with_every_kind(self, monkeypatch, computed):
        cells = [(40, [3, 1]), (24, [2]), (33, [8, 2, 2])]
        got = list(sdo.optimize_row(8, 0.4, cells, ["lognormal", "exhaustive", "normal"]))
        assert [n for n, _ in got] == [40, 24, 33]
        for (n, ms), (_, by_kind) in zip(cells, got):
            assert list(by_kind) == ["lognormal", "exhaustive", "normal"]
            for kind in ("normal", "lognormal"):
                assert by_kind[kind] == _optimize_each(CodeParams(8, n, 0.4), ms, kind)
            assert by_kind["exhaustive"] == _optimize_each(CodeParams(8, n, 0.4), ms, "exhaustive")
        # the dynamic program alone reads the ACK curve alone: no model is
        # built, and each n's curve is still computed once, in cell order
        built = []
        post_init = CdfModel.__post_init__
        monkeypatch.setattr(CdfModel, "__post_init__",
                            lambda model: built.append(model) or post_init(model))
        points, _ = computed
        points.clear()  # the curves read above
        alone = list(sdo.optimize_row(8, 0.4, cells, ["exhaustive"]))
        assert built == []
        assert points == [(8, n, 0.4) for n, _ in cells]
        assert alone == [(n, {"exhaustive": by_kind["exhaustive"]}) for n, by_kind in got]

    def test_takes_the_curves_it_is_handed(self, computed):
        # one curve per cell, in order, read from the stream as the row reaches
        # it: the row and its DP compute none, and the curve after the row's
        # stays in the stream for the next row
        cells = [(40, [3, 1]), (24, [2])]
        stream = channel.ack_curves(0.4, [(8, 40), (8, 24), (9, 30)])
        got = list(sdo.optimize_row(8, 0.4, cells, ["normal", "exhaustive"], stream))
        assert computed == ([(8, 40, 0.4), (8, 24, 0.4), (9, 30, 0.4)], [3])
        assert got == list(sdo.optimize_row(8, 0.4, cells, ["normal", "exhaustive"]))
        assert next(stream).tobytes() == ack_curve(CodeParams(9, 30, 0.4)).tobytes()

    def test_every_block_is_exactly_its_m_wide(self, monkeypatch):
        # each scoring block holds the candidates of one m, m slots wide: the
        # 3,968 candidates of m = 2 take 2 slots, not the row's 3,000.
        # Sizing every block by the row's widest m scored 7,908 x 3,000 cells
        shapes = []
        score = sdo.objective
        monkeypatch.setattr(sdo, "objective",
                            lambda b, acks: shapes.append(b.shape) or score(b, acks))
        got = list(sdo.optimize_row(32, 0.5, [(4000, (2, 1000, 3000))], ["normal"]))
        counts = {2: 3968, 1000: 2970, 3000: 970}  # first boundaries 32..n-m+1
        assert sum(rows for rows, _ in shapes) == sum(counts.values())
        assert sum(rows * wide for rows, wide in shapes) == sum(c * m for m, c in counts.items())
        assert {wide for _, wide in shapes} == set(counts)
        assert all(rows * wide <= sdo._BLOCK_CELLS for rows, wide in shapes)
        assert got[0][1]["normal"][2] == optimize(CodeParams(32, 4000, 0.5), 2, "normal")

    @pytest.mark.parametrize("block_cells", [7, 50])
    def test_sparse_wide_m_match_oracles(self, monkeypatch, block_cells):
        # m far apart, given twice and out of order, at block sizes no m
        # divides: at 7 cells a block of m = 40 or 90 holds one row, and at
        # 50 the three small n share a chunk and their groups of m = 2 share
        # blocks
        monkeypatch.setattr(sdo, "_BLOCK_CELLS", block_cells)
        k, eps, kinds = 8, 0.4, ["normal", "exhaustive", "lognormal"]
        ms = [40, 90, 1, 2, 40, 1, 90]
        cells = [(n, [m for m in ms if k + m - 1 <= n]) for n in (100, 9, 20, 30, 130, 50)]
        got = list(sdo.optimize_row(k, eps, cells, kinds))
        assert [n for n, _ in got] == [n for n, _ in cells]
        for (n, cell_ms), (_, by_kind) in zip(cells, got):
            p = CodeParams(k, n, eps)
            curve = ack_curve(p)
            for kind in kinds:
                assert sorted(by_kind[kind]) == sorted(set(cell_ms)), (kind, n)
                for m, rep in by_kind[kind].items():
                    if m == 1:
                        want = (n,), float(n)
                    elif kind == "exhaustive":
                        b = dp_best_interior(curve, k, n, m) + (n,)
                        want = b, expected_round_symbols(p, Schedule(b))
                    else:
                        model = CdfModel.for_params(p, kind)
                        want = sdo_optimize(model.cdf, model.pdf, curve, k, n, m)
                    assert (rep.schedule.boundaries, rep.objective) == want, (kind, n, m)
                    assert rep.throughput == k * curve[n] / rep.objective, (kind, n, m)
                    assert rep.n1_searched == (None if m == 1 else (k, n - m + 1))
                    assert rep.model_used == kind

    def test_infeasible_cell_raises_before_any_curve(self, computed):
        with pytest.raises(ValueError, match=r"got k=8, m=18, n=24$"):
            list(sdo.optimize_row(8, 0.5, [(30, [2]), (24, [18])], ["normal"]))
        assert computed == ([], [])

    def test_long_sweep_traced_peak(self, computed, capsys):
        # the ACK tables of the curves computed together, the ACK rows of a
        # row and its candidate block are each held to a bound, so memory
        # stays flat in the n range.  The solver that took one (n, model) at
        # a time peaked at 2,916,977 bytes on this call (Python 3.11.7, numpy
        # 2.4.6, a fresh process with the same caches cleared); the bound is
        # that plus 10%
        channel._log_factorials(400)  # the table a first run would grow
        argv = "sweep-n --k 32 --n 66:400:2 --m 1:8 --model all --eps 0.5".split()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        points, _ = computed
        assert sorted(points) == [(32, n, 0.5) for n in range(66, 401, 2)]
        assert peak <= 3_208_675


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
