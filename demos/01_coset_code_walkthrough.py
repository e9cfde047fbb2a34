#!/usr/bin/env python3
"""Walk through a two-level coset code end to end.

Builds a certified code, encodes and decodes a message pair, shows what
each eavesdropper strength actually learns, and compares the exact
worst-case equivocation certificates with the 3/eps allowance.
"""

import numpy as np

from secembed import coset
from secembed.coset import WiretapIIParams

params = WiretapIIParams(n=16, alpha1=0.5, alpha2=0.25, eps=0.25)
print(f"block length n={params.n}")
print(f"high-security bits k1={params.k1} (rate {params.r1}), "
      f"low-security bits k2={params.k2} (rate {params.r2})")
print(f"strong eavesdropper sees {params.n_alpha1} positions, "
      f"weak one sees {params.n_alpha2}")

code = coset.construct(params, seed=7)
print(f"\nconstructed with certificates d1*={code.d1_star}, d2*={code.d2_star}")
print(f"leakage allowance 3/eps = {params.margin_bits} bits")

rng = np.random.default_rng(1)
m1, m2 = 9, 4
x = coset.encode(code, m1, m2, rng)
print(f"\nencode (m1={m1}, m2={m2}) -> {''.join(map(str, x))}")
print(f"decode -> {coset.decode(code, x)}")

# a strong eavesdropper grabs half the positions
observed = set(range(0, 16, 2))
obs = coset.eavesdrop(x, observed)
print(f"\nstrong view (8 of 16 positions): {[int(v) for v in obs.z]}")
print(f"equivocation about m1 at this view: "
      f"{coset.equivocation(code, observed, 'high')} bits of {code.k1}")

report = coset.audit_code(code)
for side in ("strong_eavesdropper", "weak_eavesdropper"):
    r = report[side]
    print(f"{side}: worst-case equivocation {r['worst_case_equivocation_bits']} "
          f"of {r['message_bits']} bits, leakage {r['worst_case_leakage_bits']} "
          f"<= {report['leakage_allowance_bits']} -> pass={r['pass']}")

bound = coset.union_bound_report(params, exact_counts=True)
print(f"\nrandom-construction rejection bound (exact counts): "
      f"{bound['total']:.3e} (conclusive at this n: {bound['conclusive']})")
