"""Greedy differential schedule selection vs brute force.

Steps the boundary recursion by hand under both moment-matched models, then
compares the optimized schedules against the exact optimum.
"""

from harqsdo import (
    CdfModel,
    CodeParams,
    exhaustive_search,
    optimize,
    sdo_step,
)

params = CodeParams(k=32, n=88, epsilon=0.5)

model = CdfModel.for_params(params, "normal")
print(f"matched normal model: mu={model.mu:.4f}, sigma^2={model.sigma2:.4f}")
print(f"log-normal parameters: mu*={model.mu_star:.4f}, sigma*^2={model.sigma2_star:.4f}")

print("\nstepping the recursion from n1=61 (normal model):")
prev2, prev = None, 61
bounds = [61]
for i in range(2, 4):
    nxt = sdo_step(model, prev2, prev)
    left = "-inf" if prev2 is None else str(prev2)
    print(f"  n{i} = {prev} + ceil((F({prev}) - F({left})) / F'({prev})) = {nxt}")
    prev2, prev = prev, nxt
    bounds.append(nxt)
print(f"  full schedule: {tuple(bounds) + (params.n,)}")

print("\noptimized over all feasible first boundaries (exact objective):")
for m in (2, 4, 8):
    es = exhaustive_search(params, m)
    na = optimize(params, m, "normal")
    lna = optimize(params, m, "lognormal")
    print(f"  m={m}:")
    print(f"    ES : {es.schedule.boundaries}  E={es.objective:.4f}  T={es.throughput:.5f}")
    print(f"    NA : {na.schedule.boundaries}  E={na.objective:.4f}  T={na.throughput:.5f}")
    print(f"    LNA: {lna.schedule.boundaries}  E={lna.objective:.4f}  T={lna.throughput:.5f}")

small = CodeParams(k=8, n=24, epsilon=0.5)
es = exhaustive_search(small, 3)
na = optimize(small, 3, "normal")
print(f"\ndesk-scale check (k=8, n=24, m=3): ES T={es.throughput:.5f}, "
      f"NA T={na.throughput:.5f}, ratio={na.throughput / es.throughput:.4f}")
