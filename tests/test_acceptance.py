"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py
-v -s` to see them live.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np

from harqsdo import (
    CodeParams,
    ack_prob,
    asymptotic_round_moments,
    decodable_count_moments,
    decode_success_prob,
    dst_constant,
    erdos_borwein_constant,
    estimate,
    exhaustive_search,
    expected_round_symbols,
    optimize,
    overhead_moment,
    round_length_moments,
)
from harqsdo.cli import main, run_validate, RunConfig

from oracles import success_fraction

SEED = 20260810


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_eq1_exact_at_toy_scale():
    t0 = time.time()
    worst = None
    for n in range(1, 6):
        for k in range(1, n + 1):
            for r in range(-1, n + 2):
                got = Fraction(decode_success_prob(k, n, r))
                want = success_fraction(k, n, r) if r <= n else Fraction(1)
                if got != want:
                    worst = (k, n, r, got, want)
    elapsed = time.time() - t0
    ok = worst is None and elapsed < 1.0
    _verdict(1, ok, f"exact rational match over all (k, n<=5, r); {elapsed:.2f}s")


def test_criterion_2_constants_and_overhead_moments():
    t0 = time.time()
    c0, c1 = erdos_borwein_constant(), dst_constant()
    checks = [
        abs(c0 - 1.6066951524) <= 5e-11,
        abs(c1 - 1.1373387363) <= 5e-11,
        abs(overhead_moment(0) - 1.0) <= 1e-9,
        abs(overhead_moment(1) - c0) <= 1e-9,
        abs(overhead_moment(2) - 5.3255032015) <= 1e-9,
    ]
    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 0.1
    _verdict(2, ok, f"c0={c0:.11f} c1={c1:.11f} moments (1, c0, 5.3255032015); {elapsed:.3f}s")


def test_criterion_3_lossless_moment_limits():
    t0 = time.time()
    mm = decodable_count_moments(8, 8 + 64)
    c0, c1 = erdos_borwein_constant(), dst_constant()
    mean_err = abs(mm.mean - (8 + c0))
    var_err = abs(mm.variance - (c0 + c1))
    elapsed = time.time() - t0
    ok = mean_err < 1e-9 and var_err < 1e-9 and elapsed < 0.1
    _verdict(3, ok, f"mean err {mean_err:.2e}, variance err {var_err:.2e}; {elapsed:.3f}s")


def test_criterion_4_lossy_moment_limits():
    t0 = time.time()
    worst = 0.0
    for eps in (0.25, 0.5):
        mm = round_length_moments(CodeParams(8, 8 + 160, eps))
        want = asymptotic_round_moments(8, eps)
        worst = max(worst, abs(mm.mean / want.mean - 1.0),
                    abs(mm.variance / want.variance - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 5.0
    _verdict(4, ok, f"worst relative moment error {worst:.2e}; {elapsed:.2f}s")


def test_criterion_5_monte_carlo_agreement():
    t0 = time.time()
    params = CodeParams(8, 24, 0.5)
    schedule = exhaustive_search(params, 3).schedule
    rep = estimate(params, schedule, 100000, SEED)
    devs = []
    want_mean = expected_round_symbols(params, schedule)
    devs.append(abs(rep.mean_symbols - want_mean) / rep.stderr_symbols)
    for i, b in enumerate(schedule.boundaries):
        a = ack_prob(params, b)
        se = math.sqrt(a * (1 - a) / rep.trials)
        devs.append(abs(rep.ack_rate_per_block[i] - a) / se)
    fail_want = 1.0 - ack_prob(params, params.n)
    se_f = math.sqrt(fail_want * (1 - fail_want) / rep.trials)
    devs.append(abs((1.0 - rep.success_rate) - fail_want) / se_f)
    elapsed = time.time() - t0
    ok = max(devs) < 3.0 and elapsed < 30.0
    _verdict(5, ok, f"10^5 trials, max deviation {max(devs):.2f} SE "
                    f"(mean, 3 ack rates, failure rate); {elapsed:.1f}s")


def test_criterion_6_sdo_matches_exhaustive_search():
    t0 = time.time()
    worst_na = worst_lna = 1.0
    worst_gap = 0.0
    instances = 0
    grid = [(k, n, (2, 3, 4)) for k in range(4, 17) for n in range(2 * k, 3 * k + 1)]
    # larger k, where the asymptotic models should be at their best, up to m = 8
    grid += [(k, n, range(2, 9)) for k in (20, 24, 32, 40, 48, 56, 64)
             for n in range(2 * k, 3 * k + 1, max(1, k // 8))]
    for k, n, ms in grid:
        for m in ms:
            for eps in (0.3, 0.5):
                params = CodeParams(k, n, eps)
                es = exhaustive_search(params, m)
                na = optimize(params, m, "normal")
                lna = optimize(params, m, "lognormal")
                worst_na = min(worst_na, na.throughput / es.throughput)
                worst_lna = min(worst_lna, lna.throughput / es.throughput)
                worst_gap = max(
                    worst_gap,
                    abs(na.throughput - lna.throughput)
                    / max(na.throughput, lna.throughput),
                )
                instances += 1
    elapsed = time.time() - t0
    ok = worst_na >= 0.98 and worst_lna >= 0.98 and worst_gap <= 0.02 and elapsed < 300
    _verdict(6, ok, f"{instances} instances: min T_NA/T_ES={worst_na:.4f}, "
                    f"min T_LNA/T_ES={worst_lna:.4f}, max NA-LNA gap={worst_gap:.4f}; "
                    f"{elapsed:.1f}s")


def test_criterion_7_blocklength_sweep_shape():
    t0 = time.time()
    k, eps = 32, 0.5
    grid = list(range(66, 121))
    ms = list(range(1, 9))
    T = {}
    for n in grid:
        for m in ms:
            T[(n, m)] = max(
                optimize(CodeParams(k, n, eps), m, kind).throughput
                for kind in ("normal", "lognormal")
            )
    monotone = all(
        T[(n, m + 1)] >= T[(n, m)] - 1e-12 for n in grid for m in ms[:-1]
    )
    peak = {m: max(T[(n, m)] for n in grid) for m in ms}
    gain_15 = peak[5] - peak[1]
    gain_58 = peak[8] - peak[5]
    diminishing = gain_58 < 0.2 * gain_15
    # Peaks are flat: any n within 1e-4 relative of the max is a co-maximizer,
    # and the robustness window must reach every m's co-maximizer plateau.
    plateau = {
        m: [n for n in grid if T[(n, m)] >= (1.0 - 1e-4) * peak[m]] for m in ms
    }
    need_hi = max(min(p) for p in plateau.values())
    need_lo = min(max(p) for p in plateau.values())
    window_ok = need_hi / need_lo <= 1.1 / 0.9
    elapsed = time.time() - t0
    ok = monotone and diminishing and window_ok and elapsed < 600
    _verdict(7, ok, f"monotone in m: {monotone}; gain(m5->m8)/gain(m1->m5)="
                    f"{gain_58 / gain_15:.3f} (<0.2); argmax plateaus fit a "
                    f"+/-10% window: {window_ok} (ratio {need_hi / need_lo:.4f} "
                    f"<= {1.1 / 0.9:.4f}); {elapsed:.1f}s")


def test_criterion_8_validate_enforces_sanity():
    checks = run_validate(RunConfig(command="validate"))[1]
    by_name = {c["name"]: c for c in checks}
    capacity = by_name["throughput_below_capacity"]
    monotone = by_name["ack_monotone_in_t"]
    all_pass = all(c["passed"] for c in checks)
    ok = all_pass and capacity["passed"] and monotone["passed"]
    _verdict(8, ok, f"run_validate: {len(checks)} checks, all pass={all_pass}, "
                    f"capacity margin {capacity['value']:.4f} < 0, "
                    f"ack monotone min step {monotone['value']:.1e} >= 0")


def test_criterion_9_simulate_determinism_across_workers(tmp_path):
    base = ["simulate", "--k", "8", "--n", "24", "--m", "3", "--eps", "0.5",
            "--trials", "5000", "--seed", str(SEED), "--model", "es",
            "--format", "json"]
    f1 = tmp_path / "workers1.json"
    f2 = tmp_path / "workers6.json"
    rc1 = main(base + ["--workers", "1", "--out", str(f1)])
    rc2 = main(base + ["--workers", "6", "--out", str(f2)])
    identical = f1.read_bytes() == f2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    _verdict(9, ok, f"simulate twice (workers 1 vs 6): byte-identical={identical}, "
                    f"{len(f1.read_bytes())} bytes")
