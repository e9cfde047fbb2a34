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
from math import isfinite, log10

__version__ = "0.1.0"


def _integer(x, what: str, least=None, most=None) -> int:
    """Every module's integer rule: ``x`` as a Python int by ``operator.index`` (numpy
    integers pass), or ValueError naming ``what``; a bool, float, str or None is none.
    A bound given, ``least`` or ``most``, is then checked by ``_bounded``."""
    if not isinstance(x, bool):
        try:
            x = operator.index(x)
        except TypeError:
            pass
        else:
            return _bounded(x, what, least, most)
    raise ValueError(f"{what} = {x!r} must be an integer")


def _real(x, what: str, least=None, most=None) -> float:
    """Every module's real rule: ``x`` as a Python float when it is a finite ``numbers.Real``
    and no bool, else ValueError naming ``what``; an int beyond float range is not finite.
    A bound given, ``least`` or ``most``, is then checked by ``_bounded``."""
    try:
        if isinstance(x, numbers.Real) and not isinstance(x, bool) and isfinite(x):
            return _bounded(float(x), what, least, most)
    except OverflowError:
        pass
    raise ValueError(f"{what} = {_shown(x)} must be a finite real number")


_COUNT_TOL = 1e-9  # relative: n*fraction and 2**(n*rate) land a few ulps from their counts


def _count(x: float, what: str) -> int:
    """The one count rule: the int k nearest the real ``x`` when x is finite and within
    _COUNT_TOL * max(1, |k|) of it, else ValueError naming ``what``."""
    if isfinite(x) and abs(x - (k := round(x))) <= _COUNT_TOL * max(1, abs(k)):
        return k
    raise ValueError(f"{what} = {_shown(x)} must be an integer")


def _bounded(v, what: str, least, most):
    """The one range rule: v when least <= v <= most (None is no bound), else ValueError."""
    if least is not None and v < least:
        raise ValueError(f"{what} = {_shown(v)} must be >= {least}")
    if most is not None and v > most:
        raise ValueError(f"{what} = {_shown(v)} must be <= {most}")
    return v


def _shown(v) -> str:
    """v for a message: its repr, or for an int too long for Python's int-to-str
    limit, its digit count ("a 5001-digit integer", "a negative ...")."""
    try:
        return repr(v)
    except ValueError:
        digits = int(abs(v).bit_length() * log10(2))  # the count, or one less
        digits += abs(v) >= 10**digits
        return f"a {'negative ' * (v < 0)}{digits}-digit integer"
