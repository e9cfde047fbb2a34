"""Exact Fourier-Motzkin elimination over symbolic rate inequalities.

Systems mix eliminable rate variables (message and randomness rates)
with opaque constant symbols (mutual-information placeholders, every
one nonnegative).  Coefficients are exact rationals, and strictness is
tracked through elimination: combining a strict bound with a non-strict
one yields a strict consequence.  The closure step sets the slack
symbol to zero and relaxes strict inequalities to weak ones, mirroring
the limit that turns achievability constraints into a closed rate
region.

Every inequality is built in one canonical form: zero terms dropped,
terms sorted by symbol, and the whole scaled by the unique positive
factor that makes coefficients and constant coprime integers, held as
Python ints (Fraction only converts inputs).  Equal half-spaces compare equal.

Redundancy removal happens at two levels: syntactic dominance (same
coefficients, weaker constant side) during elimination, and exact
implication checking (rational feasibility of the negation, via full
elimination) in simplify_with_assumptions.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from secembed import _integer

__all__ = [
    "LinIneq",
    "LinIneqSystem",
    "ContradictionError",
    "UnboundConstantError",
    "nested_binning_constraints",
    "derive_nested_binning_region",
    "layered_scheme_constraints",
    "derive_layered_region",
    "LAYERED_ALIASES",
]


class ContradictionError(ValueError):
    """The assumptions contradict the system (or each other)."""


class UnboundConstantError(KeyError):
    """instantiate() was called with a constant symbol left unbound."""


def _q(x) -> int | Fraction:
    """x exact: int and Fraction unchanged, another Rational (np.int64, ...) by its
    parts as Python ints, a non-Rational real (np.float32, ...) via float; a bool
    or str is no number."""
    if type(x) is int or type(x) is Fraction:
        return x
    if not isinstance(x, (bool, str)):  # Fraction would parse "1/3"
        try:
            if isinstance(x, numbers.Rational):  # Fraction(x) keeps np.int64 parts
                return Fraction(_integer(x.numerator, "numerator"),
                                _integer(x.denominator, "denominator"))
            if isinstance(x, numbers.Real):
                x = float(x)
            return Fraction(x)
        except (OverflowError, ValueError, TypeError):
            pass
    raise ValueError(f"{x!r} is not a finite rational")


@dataclass(frozen=True)
class LinIneq:
    """sum(coeff * symbol) + const  <=  0   (or < 0 when strict), as coprime ints.

    terms is given as a {symbol: coeff} map or (symbol, coeff) pairs, whose
    repeated symbols add up, and stored as sorted pairs.
    """

    terms: tuple
    const: int = 0
    strict: bool = False

    def __post_init__(self):
        coeffs = {}
        for s, c in self.terms.items() if isinstance(self.terms, dict) else self.terms:
            coeffs[s] = coeffs.get(s, 0) + _q(c)
        terms = sorted((s, c) for s, c in coeffs.items() if c)
        values = [c for _, c in terms] + [_q(self.const)]
        den = lcm(*(v.denominator for v in values))
        nums = [v.numerator * (den // v.denominator) for v in values]
        g = gcd(*nums) or 1  # an all-zero row stays all-zero
        nums = [v // g for v in nums]
        object.__setattr__(self, "terms", tuple((s, v) for (s, _), v in zip(terms, nums)))
        object.__setattr__(self, "const", nums[-1])

    @classmethod
    def at_most(cls, lhs, rhs, strict=False) -> "LinIneq":
        """lhs <= rhs, both sides as {symbol: coeff} maps."""
        return cls(list(dict(lhs).items()) + [(s, -_q(c)) for s, c in dict(rhs).items()],
                   strict=strict)

    def coeff(self, symbol) -> int:
        for s, c in self.terms:
            if s == symbol:
                return c
        return 0

    def symbols(self) -> set:
        return {s for s, _ in self.terms}

    def is_tautology(self) -> bool:
        if self.terms:
            return False
        return self.const < 0 or (self.const == 0 and not self.strict)

    def is_contradiction(self) -> bool:
        if self.terms:
            return False
        return self.const > 0 or (self.const == 0 and self.strict)

    def negation(self) -> "LinIneq":
        return LinIneq({s: -c for s, c in self.terms}, -self.const, not self.strict)

    def render(self, variables) -> str:
        """Human form: variable terms on the left, the rest on the right.

        A pure lower bound (every variable coefficient negative) is
        flipped to read as one, e.g. 'R2 + T > I_XZ1'.
        """
        var_set = set(variables)
        flip = any(s in var_set for s, _ in self.terms) and all(
            c < 0 for s, c in self.terms if s in var_set)
        sign = -1 if flip else 1
        lhs = [(s, sign * c) for s, c in self.terms if s in var_set]
        rhs = [(s, -sign * c) for s, c in self.terms if s not in var_set]
        if flip:
            rel = ">" if self.strict else ">="
        else:
            rel = "<" if self.strict else "<="
        return f"{_side(lhs, 0)} {rel} {_side(rhs, -sign * self.const)}"


def _side(terms, const) -> str:
    """One side of a rendered inequality, e.g. 'x - 2 y + 3', or '0' when it is empty."""
    words = []
    for s, c in terms:
        words += ["+" if c > 0 else "-", s if abs(c) == 1 else f"{abs(c)} {s}"]
    if const:
        words += ["+" if const > 0 else "-", str(abs(const))]
    if not words:
        return "0"
    return ("-" if words[0] == "-" else "") + " ".join(words[1:])


def _prune(ineqs) -> tuple:
    """Drop tautologies and syntactically dominated inequalities.

    Inequalities are canonical, so two with the same terms share their
    coefficient pattern; only the stronger constant side is kept (larger
    constant; strict beats weak at equal constants), in first-seen order.
    Contradiction facts (no symbols, false) are kept: they record an
    infeasible projection.
    """
    best = {}
    for iq in ineqs:
        if iq.is_tautology():
            continue
        cur = best.get(iq.terms)
        if cur is None or (iq.const, iq.strict) > (cur.const, cur.strict):
            best[iq.terms] = iq
    return tuple(best.values())


def _fm_step(ineqs, var) -> tuple:
    """One Fourier-Motzkin step on var.

    Keeps the inequalities free of var and adds, for every lower bound
    and every upper bound on var, the positive combination that cancels
    it; the result is pruned.
    """
    lowers, uppers, rest = [], [], []
    for iq in ineqs:
        a = iq.coeff(var)
        if a > 0:
            uppers.append((iq, a))
        elif a < 0:
            lowers.append((iq, -a))
        else:
            rest.append(iq)
    combos = []
    for lo, a_lo in lowers:
        for up, a_up in uppers:
            terms = [(s, a_up * c) for s, c in lo.terms] + [(s, a_lo * c) for s, c in up.terms]
            combos.append(LinIneq(terms, a_up * lo.const + a_lo * up.const,
                                  lo.strict or up.strict))
    return _prune(rest + combos)


@dataclass(frozen=True)
class LinIneqSystem:
    """Inequality system over declared rate variables and nonnegative constant symbols."""

    variables: tuple
    constants: tuple
    inequalities: tuple

    def __post_init__(self):
        for name in ("variables", "constants", "inequalities"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        declared = set(self.variables) | set(self.constants)
        for iq in self.inequalities:
            loose = iq.symbols() - declared
            if loose:
                raise ValueError(f"undeclared symbols in inequality: {sorted(loose)}")

    def eliminate(self, var: str) -> "LinIneqSystem":
        """Project away one variable by combining its lower and upper bounds.

        Constants are never eliminated here; they stay opaque symbols.
        Only syntactic dominance is pruned; semantic redundancy under
        symbol orderings is left to simplify_with_assumptions.
        """
        if var not in self.variables:
            raise ValueError(f"{var} is not a declared variable")
        return dataclasses.replace(
            self, variables=tuple(v for v in self.variables if v != var),
            inequalities=_fm_step(self.inequalities, var))

    def relax_closure(self, slack_symbol=None) -> "LinIneqSystem":
        """Take the vanishing-slack limit: slack := 0, strict becomes weak."""
        weak = [LinIneq([(s, c) for s, c in iq.terms if s != slack_symbol], iq.const)
                for iq in self.inequalities]
        return LinIneqSystem(
            variables=[v for v in self.variables if v != slack_symbol],
            constants=[c for c in self.constants if c != slack_symbol],
            inequalities=_prune(weak),
        )

    def is_feasible(self, extra=()) -> bool:
        """Exact rational satisfiability over all symbols (reals).

        Eliminates every symbol by Fourier-Motzkin (cheapest pair count
        first) and checks the remaining ground facts, with every constant
        nonnegative.
        """
        facts = _prune([*self.inequalities, *(LinIneq({c: -1}) for c in sorted(self.constants)),
                        *extra])
        while not any(iq.is_contradiction() for iq in facts):
            signs = {}  # symbol -> [lower-bound count, upper-bound count]
            for iq in facts:
                for s, c in iq.terms:
                    signs.setdefault(s, [0, 0])[c > 0] += 1
            if not signs:
                return True
            var = min(signs, key=lambda s: (signs[s][0] * signs[s][1], s))
            facts = _fm_step(facts, var)
        return False

    def simplify_with_assumptions(self, assumptions=()) -> "LinIneqSystem":
        """Remove inequalities implied by the rest plus the assumptions.

        Assumptions are LinIneq facts over the constant symbols.  An
        inequality goes when the others, the assumptions and its negation
        are infeasible together.  If the system and the assumptions are
        infeasible (one assumption alone, or several jointly),
        ContradictionError is raised.
        """
        assumptions = list(assumptions)
        if assumptions and not self.is_feasible(extra=assumptions):
            shown = "; ".join(a.render(self.variables) for a in assumptions)
            raise ContradictionError(f"assumptions contradict the system: {shown}")
        kept = list(_prune(self.inequalities))
        i = 0
        while i < len(kept):
            others = dataclasses.replace(self, inequalities=kept[:i] + kept[i + 1:])
            if others.is_feasible(extra=[*assumptions, kept[i].negation()]):
                i += 1
            else:
                kept.pop(i)
        return dataclasses.replace(self, inequalities=kept)

    def instantiate(self, values: dict):
        """Bind every constant to a number and return the numeric region dict."""
        from secembed import regions

        used = {s for iq in self.inequalities for s in iq.symbols()}
        missing = [c for c in self.constants if c not in values and c in used]
        if missing:
            raise UnboundConstantError(f"unbound constants: {missing}")
        constants = set(self.constants)
        halfspaces = []
        for iq in self.inequalities:
            terms = dict(iq.terms)
            coeffs = tuple(float(terms.get(v, 0)) for v in self.variables)
            shift = iq.const + sum(a * _q(values[s]) for s, a in iq.terms if s in constants)
            halfspaces.append((coeffs, float(-shift), iq.strict))
        return regions.region(self.variables, halfspaces)

    def structural_inequalities(self) -> tuple:
        """Inequalities other than plain variable nonnegativity."""
        out = []
        for iq in self.inequalities:
            if len(iq.terms) == 1 and iq.const == 0:
                (sym, c), = iq.terms
                if sym in self.variables and c < 0:
                    continue
            out.append(iq)
        return tuple(out)

    def pretty(self, aliases=()) -> str:
        """Stable text rendering; aliases rewrite constant groups for display.

        An alias (name, {symbol: coeff, ...}) replaces any occurrence of
        the group scaled by a common rational with the alias name; it
        affects presentation only, never the stored system.
        """
        structural = sorted(self.structural_inequalities(), key=lambda iq: (
            tuple(iq.coeff(v) for v in self.variables),
            tuple(iq.coeff(c) for c in self.constants), iq.const, iq.strict))
        lines = [self._alias_render(iq, aliases) for iq in structural]
        nonneg = [iq for iq in self.inequalities if iq not in structural]
        if nonneg:
            names = sorted(s for iq in nonneg for s in iq.symbols())
            lines.append("with " + ", ".join(f"{s} >= 0" for s in names))
        return "\n".join(lines)

    def _alias_render(self, iq: LinIneq, aliases) -> str:
        coeffs = dict(iq.terms)
        for name, group in aliases:
            group = {s: _q(c) for s, c in dict(group).items()}
            anchor = next(iter(group))
            q = Fraction(coeffs.get(anchor, 0), group[anchor])  # exact, never int / int
            if q != 0 and all(coeffs.get(s, 0) == q * c for s, c in group.items()):
                for s in group:
                    coeffs.pop(s)
                coeffs[name] = coeffs.get(name, 0) + q
        return LinIneq(coeffs, iq.const, iq.strict).render(self.variables)

    def to_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "constants": list(self.constants),
            "nonneg_constants": sorted(self.constants),
            "inequalities": [
                {"coeffs": {s: [c, 1] for s, c in iq.terms},  # stored ints: c is c/1
                 "const": [iq.const, 1],
                 "relation": "<" if iq.strict else "<="}
                for iq in self.inequalities
            ],
        }


def nested_binning_constraints() -> LinIneqSystem:
    """Decodability and the two secrecy constraints of the nested-binning scheme.

    Variables: message rates R1, R2 and the pure-randomness rate T.
    Constants: I_XY, I_XZ1, I_XZ2 (mutual informations at the receiver,
    strong eavesdropper, weak eavesdropper).
    """
    v = ("R1", "R2", "T")
    c = ("I_XY", "I_XZ1", "I_XZ2")
    ineqs = [
        LinIneq.at_most({"R1": 1, "R2": 1, "T": 1}, {"I_XY": 1}, strict=True),
        LinIneq.at_most({"I_XZ1": 1}, {"R2": 1, "T": 1}, strict=True),
        LinIneq.at_most({"I_XZ2": 1}, {"T": 1}, strict=True),
        *(LinIneq({x: -1}) for x in v),
    ]
    return LinIneqSystem(v, c, ineqs)


def derive_nested_binning_region() -> LinIneqSystem:
    """Eliminate the randomness rate and close the region."""
    sys = nested_binning_constraints().eliminate("T")
    return sys.relax_closure().simplify_with_assumptions()


LAYERED_ALIASES = (
    ("I_VY", {"I_VY_U": 1, "I_UY": 1}),
    ("I_VZ2", {"I_VZ2_U": 1, "I_UZ2": 1}),
)


def layered_scheme_constraints() -> LinIneqSystem:
    """Constraints of the layered scheme: rate splitting, superposition,
    nested binning and channel prefixing.

    The low-security rate splits as R2 = R2a + R2b; R2a rides on the
    cloud-center codebook, R2b and T on the satellite codebook.  The
    slack symbol eps is the cloud-codebook oversampling margin.
    """
    v = ("R1", "R2", "R2a", "R2b", "T")
    c = ("I_UY", "I_UZ2", "I_VY_U", "I_VZ1_U", "I_VZ2_U", "eps")
    ineqs = [
        LinIneq.at_most({"R2a": 1, "I_UZ2": 1, "eps": 1}, {"I_UY": 1}, strict=True),
        LinIneq.at_most({"R1": 1, "R2b": 1, "T": 1}, {"I_VY_U": 1}, strict=True),
        LinIneq.at_most({"I_VZ1_U": 1}, {"R2b": 1, "T": 1}, strict=True),
        LinIneq.at_most({"I_VZ2_U": 1}, {"T": 1}, strict=True),
        LinIneq.at_most({"R2": 1}, {"R2a": 1, "R2b": 1}),
        LinIneq.at_most({"R2a": 1, "R2b": 1}, {"R2": 1}),
        *(LinIneq({x: -1}) for x in v),
    ]
    return LinIneqSystem(v, c, ineqs)


def derive_layered_region() -> LinIneqSystem:
    """Eliminate T, R2b, R2a, close the slack, and simplify with the two
    standing facts: the cloud decodes before the weak eavesdropper
    (I_UY >= I_UZ2) and the strong eavesdropper dominates the weak one
    (I_VZ1_U >= I_VZ2_U)."""
    sys = layered_scheme_constraints()
    for var in ("T", "R2b", "R2a"):
        sys = sys.eliminate(var)
    sys = sys.relax_closure(slack_symbol="eps")
    facts = [
        LinIneq.at_most({"I_UZ2": 1}, {"I_UY": 1}),
        LinIneq.at_most({"I_VZ2_U": 1}, {"I_VZ1_U": 1}),
    ]
    return sys.simplify_with_assumptions(facts)
