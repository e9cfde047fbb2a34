"""Numeric rate regions: finite lists of linear inequalities over rate symbols.

This is the common currency between the Gaussian calculators and the
symbolic elimination engine; ``gauss.boundary_points`` samples boundaries.
A region is a conjunction of half-spaces ``sum_i coeff_i * r_i <= bound``
(or strict ``<``) over named nonnegative rate variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HalfSpace", "RateRegion"]


@dataclass(frozen=True)
class HalfSpace:
    """coeffs . r <= bound (strict: <)."""

    coeffs: tuple[float, ...]
    bound: float
    strict: bool = False

    def value(self, point) -> float:
        return float(np.dot(self.coeffs, point))


@dataclass(frozen=True)
class RateRegion:
    variables: tuple[str, ...]
    halfspaces: tuple[HalfSpace, ...]

    @classmethod
    def from_rate_bounds(cls, r1_max: float, sum_max: float) -> "RateRegion":
        """Corner region {R1 <= r1_max, R1 + R2 <= sum_max, R1, R2 >= 0}."""
        return cls(
            variables=("R1", "R2"),
            halfspaces=(
                HalfSpace((1.0, 0.0), float(r1_max)),
                HalfSpace((1.0, 1.0), float(sum_max)),
                HalfSpace((-1.0, 0.0), 0.0),
                HalfSpace((0.0, -1.0), 0.0),
            ),
        )

    def contains(self, point, tol: float = 1e-12) -> bool:
        for hs in self.halfspaces:
            v = hs.value(point) - hs.bound
            if hs.strict:
                if v >= -tol:
                    return False
            elif v > tol:
                return False
        return True

    def max_r2_at(self, r1: float):
        """Largest feasible value of the second variable at the given first.

        Returns None when no feasible value exists.  Assumes exactly two
        variables.
        """
        if len(self.variables) != 2:
            raise ValueError("max_r2_at applies to two-variable regions")
        lower, upper = -np.inf, np.inf
        for hs in self.halfspaces:
            a1, a2 = hs.coeffs
            rest = hs.bound - a1 * r1
            if a2 > 0:
                upper = min(upper, rest / a2)
            elif a2 < 0:
                lower = max(lower, rest / a2)
            elif a1 * r1 > hs.bound + 1e-12:
                return None
        if lower > upper + 1e-12:
            return None
        return float(upper)

    def canonical(self) -> tuple:
        """Scale-normalized, sorted halfspace tuples (10 digits) for region comparison."""
        rows = []
        for hs in self.halfspaces:
            scale = max(abs(c) for c in hs.coeffs) or 1.0
            rows.append((
                tuple(round(c / scale, 10) for c in hs.coeffs),
                round(hs.bound / scale, 10),
                hs.strict,
            ))
        return tuple(sorted(set(rows)))

    def to_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "halfspaces": [
                {"coeffs": list(hs.coeffs), "bound": hs.bound,
                 "relation": "<" if hs.strict else "<="}
                for hs in self.halfspaces
            ],
        }
