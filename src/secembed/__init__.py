"""Security-embedding coding toolkit.

Modules: GF(2) linear algebra (:mod:`secembed.gf2`), two-level coset
codes for the erasure-eavesdropper setting (:mod:`secembed.coset`),
Gaussian secrecy capacity regions (:mod:`secembed.gauss`),
finite-alphabet channels and the nested-binning simulator
(:mod:`secembed.dmc`, :mod:`secembed.binning`), exact rational
Fourier-Motzkin elimination (:mod:`secembed.fm`), numeric rate regions
as plain dicts (:mod:`secembed.regions`) and a command-line front end
(:mod:`secembed.cli`).
"""

__version__ = "0.1.0"
