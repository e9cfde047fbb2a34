"""Numeric rate regions: finite lists of linear inequalities over rate symbols.

A region is the dict that ``region parallel`` prints as its ``region`` key,
``{"variables": [...], "halfspaces": [{"coeffs", "bound", "relation"}, ...]}``:
a conjunction of half-spaces ``sum_i coeffs[i] * r_i <= bound`` (relation
``"<="``) or ``< bound`` (relation ``"<"``) over named nonnegative rate
variables.  ``fm.LinIneqSystem.instantiate`` and the Gaussian calculators
build regions here; ``gauss.boundary_points`` samples boundaries.
"""

from __future__ import annotations

import numpy as np

__all__ = ["region", "corner_region", "contains", "max_r2_at"]

_TOL = 1e-12  # slack of contains and max_r2_at: a boundary point computed in float lies in it


def region(variables, halfspaces) -> dict:
    """The region over ``variables`` of ``(coeffs, bound, strict)`` half-spaces."""
    return {"variables": list(variables),
            "halfspaces": [{"coeffs": list(c), "bound": b, "relation": "<" if s else "<="}
                           for c, b, s in halfspaces]}


def corner_region(r1_max: float, sum_max: float) -> dict:
    """Corner region {R1 <= r1_max, R1 + R2 <= sum_max, R1, R2 >= 0}."""
    return region(("R1", "R2"), [((1.0, 0.0), float(r1_max), False),
                                 ((1.0, 1.0), float(sum_max), False),
                                 ((-1.0, 0.0), 0.0, False), ((0.0, -1.0), 0.0, False)])


def contains(region: dict, point) -> bool:
    """Whether ``point`` meets every half-space: ``<=`` within _TOL, ``<`` by over _TOL."""
    for hs in region["halfspaces"]:
        v = float(np.dot(hs["coeffs"], point)) - hs["bound"]
        if v >= -_TOL if hs["relation"] == "<" else v > _TOL:
            return False
    return True


def max_r2_at(region: dict, r1: float):
    """Largest feasible value of the second of two variables at the given first,
    or None when no value is feasible."""
    if len(region["variables"]) != 2:
        raise ValueError("max_r2_at applies to two-variable regions")
    lower, upper = -np.inf, np.inf
    for hs in region["halfspaces"]:
        (a1, a2), bound = hs["coeffs"], hs["bound"]
        rest = bound - a1 * r1
        if a2 > 0:
            upper = min(upper, rest / a2)
        elif a2 < 0:
            lower = max(lower, rest / a2)
        elif a1 * r1 > bound + _TOL:
            return None
    if lower > upper + _TOL:
        return None
    return float(upper)
