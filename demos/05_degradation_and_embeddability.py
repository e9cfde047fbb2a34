#!/usr/bin/env python3
"""Check degradation orderings and hunt for embedding certificates.

Degradation (is one output a stochastic postprocessing of another?) is
decided by a non-negative least-squares solve whose verdict rests on a
certificate: a witness kernel within dmc._DEGRADED_TOL of the target, or
else a weak-duality lower bound on how far every kernel misses it.
Embeddability is searched over user-supplied input distributions: can
the high-security message ride at a positive rate without hurting the
best sum rate found?
"""

import numpy as np

from secembed import dmc
from secembed.dmc import DmcTriple

ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.4),
                           dmc.bec_kernel(0.75))
for which in ("z2_of_z1", "z1_of_y", "z2_of_y"):
    res = dmc.check_degraded(ch, which)
    print(f"{which}: degraded={res.degraded} (residual {res.residual:.2e})")
print("witness kernel taking the strong output to the weak one:")
print(np.round(dmc.check_degraded(ch, "z2_of_z1").witness, 6))

# a pair that is not degraded: BSC(p) is a degradation of BEC(e) only when
# e <= 2p, so BEC(0.3) cannot be turned into BSC(0.1); the residual is then
# a certified lower bound on how far every kernel misses
mixed = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.3),
                              dmc.bsc_kernel(0.1))
res = dmc.check_degraded(mixed, "z2_of_z1")
print(f"BSC(0.1) from BEC(0.3): degraded={res.degraded} (residual at least {res.residual:.2e})")

candidates = [np.array([q, 1 - q]) for q in np.linspace(0.1, 0.9, 17)]
rep = dmc.embeddability_report(ch, px_candidates=candidates)
print(f"\nsearched {len(candidates)} input distributions:")
print(f"  best sum rate    {rep['best_sum']:.6f}")
print(f"  best R1 there    {rep['best_r1_at_best_sum']:.6f}")
print(f"  embeddable: {rep['embeddable']}, perfectly: {rep['perfectly_embeddable']}")

# an adversarial case: the strong eavesdropper sees exactly what the
# receiver sees, so no candidate can place the high-security message
flat = DmcTriple.independent(dmc.bsc_kernel(0.1), dmc.bsc_kernel(0.1),
                             dmc.bsc_kernel(0.3))
rep = dmc.embeddability_report(flat, px_candidates=candidates)
print(f"\nstrong eavesdropper = receiver: embeddable={rep['embeddable']}")
