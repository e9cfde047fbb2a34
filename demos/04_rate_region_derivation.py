#!/usr/bin/env python3
"""Rederive the achievable rate regions symbolically.

The nested-binning constraints couple the message rates with the
randomness rate T; eliminating T and closing the region leaves the
two-inequality form.  The layered scheme (rate splitting, superposition,
nested binning, channel prefixing) takes three eliminations and two
standing facts, and the same two-line shape emerges in conditional
information terms.  Finally the symbolic region is instantiated with
numbers from a concrete channel and compared against the direct
evaluation.
"""

from secembed import dmc, fm, regions
from secembed.dmc import DmcTriple

print("nested-binning constraints:")
sys0 = fm.nested_binning_constraints()
print(sys0.pretty())
print("\nafter eliminating T and closing:")
nested = fm.derive_nested_binning_region()
print(nested.pretty())

print("\nlayered-scheme constraints:")
sys1 = fm.layered_scheme_constraints()
print(sys1.pretty())
print("\nafter eliminating T, R2b, R2a, closing eps and simplifying:")
layered = fm.derive_layered_region()
print(layered.pretty(aliases=fm.LAYERED_ALIASES))

ch = DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                           dmc.bec_kernel(0.9))
px = [0.5, 0.5]
ixy = dmc.mi_bits(0.5 * ch.py_x)
ixz1 = dmc.mi_bits(0.5 * ch.pz1_x)
ixz2 = dmc.mi_bits(0.5 * ch.pz2_x)
region = nested.instantiate({"I_XY": ixy, "I_XZ1": ixz1, "I_XZ2": ixz2})
direct = dmc.region_point_simple(ch, px)
print("\ninstantiated at the erasure reference channel (uniform input):")
print(f"  symbolic region max R2 at R1=0.3: {regions.max_r2_at(region, 0.3):.6f}")
print(f"  direct bounds: R1 <= {direct['r1_max']}, R1+R2 <= {direct['sum_max']}")
