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

import numbers
import operator
from math import isfinite

__version__ = "0.1.0"


def _integer(x, what: str) -> int:
    """Every module's integer rule: ``x`` as a Python int by ``operator.index`` (numpy
    integers pass), or ValueError naming ``what``; a bool, float, str or None is none."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{what} = {x!r} must be an integer")


def _real(x, what: str) -> float:
    """Every module's real rule: ``x`` as a Python float when it is a finite ``numbers.Real``
    and no bool, else ValueError naming ``what``; an int beyond float range is not finite."""
    try:
        if isinstance(x, numbers.Real) and not isinstance(x, bool) and isfinite(x):
            return float(x)
    except OverflowError:
        pass
    raise ValueError(f"{what} = {x!r} must be a finite real number")
