#!/usr/bin/env python3
"""Plot-ready data for the Gaussian secrecy regions.

Scalar case: the joint-coding region strictly contains the separate
two-code time-sharing region, with the corner point witnessing perfect
embedding.  Parallel case with a pooled power budget: exact secrecy
water-filling finds the split that maximizes each objective; the two
splits differ, so the corner is unreachable.  The gap is printed and the
boundary written as CSV, for two and for three subchannels.
"""

from secembed import gauss, regions
from secembed.gauss import ParallelGaussChannel, ScalarGaussChannel

ch = ScalarGaussChannel(power=1.0, a=1.0, b1=0.5, b2=0.1)
res = gauss.region_scalar(ch)
naive = gauss.naive_region(ch)
print("scalar channel P=1, a=1, b1=0.5, b2=0.1")
cap_high, cap_low, corner = res["cap_high"], res["cap_low"], res["corner"]
print(f"  cap_high={cap_high:.6f}  cap_low={cap_low:.6f}")
print(f"  corner point ({corner[0]:.6f}, {corner[1]:.6f})")
print(f"  naive hull violation at corner: {naive['corner_violation']:.6f}")

with open("scalar_region.csv", "w") as f:
    f.write("R1,R2\n")
    for r1, r2 in gauss.boundary_points([(cap_high, cap_low)], cap_high, cap_low, 201):
        f.write(f"{r1:.9f},{r2:.9f}\n")
print("  boundary written to scalar_region.csv")

pch = ParallelGaussChannel(a=(1.0, 1.0), b1=(0.8, 0.25), b2=(0.1, 0.1),
                           total_power=1.0)
pooled = gauss.region_parallel_total(pch)
print("\ntwo subchannels, pooled power P=1 (exact water-filling)")
print(f"  allocation maximizing R1:       {tuple(pooled['alloc_max_r1'])}")
print(f"  allocation maximizing sum rate: {tuple(pooled['alloc_max_sum'])}")
max_r1, max_sum = pooled["max_r1"], pooled["max_sum"]
print(f"  max R1 = {max_r1:.6f}, max sum = {max_sum:.6f}")
print(f"  would-be corner sits {pooled['embedding_gap']:.6f} bits above the boundary")
print("  (embeddable, but not perfectly embeddable under pooled power)")

with open("pooled_region.csv", "w") as f:
    f.write("R1,R2\n")
    for r1, r2 in gauss.boundary_points(gauss.pooled_frontier(pch, pooled), max_r1, max_sum,
                                        gauss.N_BOUNDARY):
        f.write(f"{r1:.9f},{r2:.9f}\n")
print("  boundary written to pooled_region.csv")

# three subchannels: each objective fills power where its slope is highest
tri = gauss.region_parallel_total(ParallelGaussChannel(
    a=(1.0, 1.2, 0.9), b1=(0.5, 0.3, 0.4), b2=(0.1, 0.1, 0.1), total_power=1.0))
print("\nthree subchannels, pooled power P=1")
print("  allocation maximizing R1:       " + ", ".join(f"{p:.4f}" for p in tri["alloc_max_r1"]))
print("  allocation maximizing sum rate: " + ", ".join(f"{p:.4f}" for p in tri["alloc_max_sum"]))
print(f"  max R1 = {tri['max_r1']:.6f}, max sum = {tri['max_sum']:.6f}, "
      f"gap {tri['embedding_gap']:.6f} bits")

# fixed split for contrast: every fixed allocation is perfectly embeddable
fixed = gauss.region_parallel_individual(
    [ScalarGaussChannel(0.5, a, b1, b2) for a, b1, b2 in zip(pch.a, pch.b1, pch.b2)])
print(f"\nfixed even split: corner ({fixed['corner'][0]:.6f}, {fixed['corner'][1]:.6f}) "
      f"inside its region: {regions.contains(fixed['region'], fixed['corner'])}")
