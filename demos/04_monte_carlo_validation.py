"""Seeded protocol simulation against the analytic predictions.

Every trial samples a fresh parity-check matrix and erasure pattern, decodes
by the rank condition, and the aggregate estimates are checked against the
closed-form ACK probabilities and expected round cost.
"""

from bisect import bisect_left

from harqsdo import (
    CodeParams,
    ack_prob,
    asymptotic_round_moments,
    decode_times,
    dst_constant,
    erdos_borwein_constant,
    estimate,
    exhaustive_search,
    expected_round_symbols,
)

params = CodeParams(k=8, n=24, epsilon=0.5)
schedule = exhaustive_search(params, 3).schedule
print(f"schedule under test: {schedule.boundaries} (seeded, reproducible)")

print("\nfirst three simulated rounds (seed 2026):")
for i, time in enumerate(decode_times(params, 3, 2026).tolist()):
    # a round that never decodes (time n + 1) sends all n symbols and fails;
    # the round stops at the first boundary that reaches its length
    length, ok = min(time, params.n), time <= params.n
    block = bisect_left(schedule.boundaries, length)
    print(f"  trial {i}: round length {length}, stopped at block {block + 1} "
          f"({schedule.boundaries[block]} symbols), success={ok}")

trials = 20000
report = estimate(params, schedule, trials, 2026)
print(f"\n{trials} trials with {report.generator}")
want = expected_round_symbols(params, schedule)
print(f"  mean symbols : {report.mean_symbols:.4f} +/- {report.stderr_symbols:.4f}"
      f"   (analytic {want:.4f})")
for i, b in enumerate(schedule.boundaries):
    a = ack_prob(params, b)
    print(f"  ACK by block {i + 1}: {report.ack_rate_per_block[i]:.4f}"
          f"   (analytic {a:.4f})")
print(f"  throughput   : {report.empirical_throughput:.4f}")

counts = decode_times(CodeParams(8, 48), 20000, 2026)  # eps = 0: a lossless feed
c0, c1 = erdos_borwein_constant(), dst_constant()
print("\nsymbol-by-symbol decode times over a lossless feed (k=8, n=48):")
print(f"  empirical mean {counts.mean():.4f} vs limit {8 + c0:.4f}")
print(f"  empirical var  {counts.var(ddof=1):.4f} vs limit {c0 + c1:.4f}")
mm = asymptotic_round_moments(8, 0.5)
print(f"\nlossy-round limits for comparison: mean {mm.mean:.4f}, var {mm.variance:.4f}")
