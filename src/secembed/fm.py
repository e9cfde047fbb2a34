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

Elimination, closure and feasibility run on rows: dense tuples
(coefficient per column..., const, strict) of Python ints over one
column order, the system's symbols sorted by name, so a row is the
canonical form with its zeros written out.  LinIneq objects are built
only where a system is read in and where one is returned.

Redundancy removal happens at two levels: syntactic dominance (same
coefficients, weaker constant side) during elimination, and exact
implication checking (rational feasibility of the negation, via full
elimination) in simplify_with_assumptions, which converts its system,
assumptions and the constants' nonnegativity to rows once for all its
checks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
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


class UnboundConstantError(ValueError):
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
        symbols = sorted(s for s, c in coeffs.items() if c)
        values = [coeffs[s] for s in symbols] + [_q(self.const)]
        den = lcm(*(v.denominator for v in values))
        nums = [v.numerator * (den // v.denominator) for v in values]
        g = gcd(*nums)
        if g > 1:  # an all-zero row stays all-zero
            nums = [v // g for v in nums]
        object.__setattr__(self, "terms", tuple(zip(symbols, nums)))
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


def _alias_groups(aliases) -> list:
    """Each alias (name, {symbol: coeff, ...}) as the name and its group with exact
    coefficients; an alias that is no name with a nonempty group of nonzero
    rationals is a ValueError naming it."""
    groups = []
    for alias in aliases:
        try:
            name, group = alias
            group = {s: _q(c) for s, c in dict(group).items()}
            ok = isinstance(name, str) and name and group and all(group.values())
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"alias {alias!r} must be a name and a nonempty map of "
                             "symbols to nonzero rationals")
        groups.append((name, group))
    return groups


def _row(vals, strict) -> tuple:
    """The canonical row of vals (coefficients, then the constant): divided by their gcd."""
    g = gcd(*vals)
    if g > 1:
        vals = [v // g for v in vals]
    return (*vals, strict)


def _rows(ineqs, columns) -> list:
    """Dense rows of canonical inequalities, one coefficient per column."""
    index = {s: j for j, s in enumerate(columns)}
    rows = []
    for iq in ineqs:
        row = [0] * len(columns)
        for s, c in iq.terms:
            row[index[s]] = c
        rows.append((*row, iq.const, iq.strict))
    return rows


def _ineqs(rows, columns) -> tuple:
    """The inequalities of canonical rows over sorted columns.

    A row is already in canonical form, so each is stored as it is,
    without the normalizing constructor.
    """
    out = []
    for r in rows:
        iq = object.__new__(LinIneq)
        iq.__dict__.update(terms=tuple(compress(zip(columns, r), r)), const=r[-2], strict=r[-1])
        out.append(iq)
    return tuple(out)


def _system(variables, constants, rows, columns) -> "LinIneqSystem":
    """The system of canonical rows over declared columns, built without re-checking them."""
    system = object.__new__(LinIneqSystem)
    system.__dict__.update(variables=tuple(variables), constants=tuple(constants),
                           inequalities=_ineqs(rows, columns))
    return system


def _nonneg(symbols, columns) -> list:
    """The rows -s <= 0 for each symbol."""
    return [(*(-1 if c == s else 0 for c in columns), 0, False) for s in symbols]


def _prune(rows) -> list:
    """Drop tautologies and syntactically dominated rows.

    Rows are canonical, so two with the same coefficients share their
    half-space's direction; only the stronger constant side is kept
    (larger constant; strict beats weak at equal constants), in
    first-seen order.  Contradiction facts (no coefficient, false) are
    kept: they record an infeasible projection.
    """
    best = {}
    for r in rows:
        key = r[:-2]
        if not any(key) and (r[-2] < 0 or (r[-2] == 0 and not r[-1])):
            continue  # a tautology
        cur = best.get(key)
        if cur is None or r[-2:] > cur[-2:]:
            best[key] = r
    return list(best.values())


def _fm_step(rows, j) -> list:
    """One Fourier-Motzkin step on column j.

    Keeps the rows free of column j and adds, for every lower bound and
    every upper bound on it, the positive combination that cancels it;
    the result is pruned.
    """
    lowers, uppers, out = [], [], []
    for r in rows:
        (uppers if r[j] > 0 else lowers if r[j] < 0 else out).append(r)
    for lo in lowers:
        a_lo = -lo[j]
        for up in uppers:
            a_up = up[j]
            out.append(_row([a_up * x + a_lo * y for x, y in zip(lo[:-1], up[:-1])],
                            lo[-1] or up[-1]))
    return _prune(out)


def _feasible(rows) -> bool:
    """Exact rational satisfiability of rows over the reals.

    A column whose coefficients share one sign bounds its symbol on one
    side only, so every row on such a column goes at once.  Otherwise
    one Fourier-Motzkin step eliminates the column with the fewest
    lower-upper pairs (the first on ties).  Rows may repeat but hold no
    tautology, and steps prune every tautology they make, so the rows
    are infeasible exactly when one with no coefficient is left.  Row
    sets are bit masks: bit i of column j's ups (lows) is set when row
    i's coefficient j is positive (negative).
    """
    while rows:
        signs, touched = [], 0
        index = range(len(rows))
        for col in list(zip(*rows))[:-2]:
            ups = lows = 0
            for i in compress(index, col):
                if col[i] > 0:
                    ups |= 1 << i
                else:
                    lows |= 1 << i
            signs.append((ups, lows))
            touched |= ups | lows
        alive = (1 << len(rows)) - 1
        if touched != alive:
            return False
        while alive:
            lone = 0
            for ups, lows in signs:
                ups, lows = ups & alive, lows & alive
                if (not ups) != (not lows):
                    lone |= ups | lows
            if not lone:
                break
            alive &= ~lone
        if not alive:
            return True
        pairs = [((ups & alive).bit_count() * (lows & alive).bit_count(), j)
                 for j, (ups, lows) in enumerate(signs) if ups & alive and lows & alive]
        rows = _fm_step([r for i, r in enumerate(rows) if alive >> i & 1], min(pairs)[1])
    return True


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

    def _columns(self) -> list:
        """The one column order of rows: every declared symbol, sorted by name."""
        return sorted({*self.variables, *self.constants})

    def eliminate(self, var: str) -> "LinIneqSystem":
        """Project away one variable by combining its lower and upper bounds.

        Constants are never eliminated here; they stay opaque symbols.
        Only syntactic dominance is pruned; semantic redundancy under
        symbol orderings is left to simplify_with_assumptions.
        """
        if var not in self.variables:
            raise ValueError(f"{var} is not a declared variable")
        columns = self._columns()
        rows = _fm_step(_rows(self.inequalities, columns), columns.index(var))
        return _system([v for v in self.variables if v != var], self.constants, rows, columns)

    def relax_closure(self, slack_symbol=None) -> "LinIneqSystem":
        """Take the vanishing-slack limit: slack := 0, strict becomes weak."""
        columns = self._columns()
        rows = [_row([0 if s == slack_symbol else c for s, c in zip(columns, r)] + [r[-2]], False)
                for r in _rows(self.inequalities, columns)]
        return _system([v for v in self.variables if v != slack_symbol],
                       [c for c in self.constants if c != slack_symbol], _prune(rows), columns)

    def is_feasible(self, extra=()) -> bool:
        """Exact rational satisfiability over all symbols (reals).

        Eliminates every symbol by Fourier-Motzkin (cheapest pair count
        first) and checks the remaining ground facts, with every constant
        nonnegative.  The extra inequalities may name any symbol.
        """
        extra = list(extra)
        columns = sorted({*self.variables, *self.constants,
                          *(s for iq in extra for s, _ in iq.terms)})
        return _feasible(_prune(_rows([*self.inequalities, *extra], columns)
                                + _nonneg(self.constants, columns)))

    def simplify_with_assumptions(self, assumptions=()) -> "LinIneqSystem":
        """Remove inequalities implied by the rest plus the assumptions.

        Assumptions are LinIneq facts over the constant symbols; one that
        names any other symbol is a ValueError.  An inequality goes when
        the others, the assumptions and its negation are infeasible
        together.  If the system and the assumptions are infeasible (one
        assumption alone, or several jointly), ContradictionError is raised.
        """
        assumptions = list(assumptions)
        loose = {s for a in assumptions for s, _ in a.terms} - set(self.constants)
        if loose:
            raise ValueError(f"non-constant symbols in assumptions: {sorted(loose)}")
        if assumptions and not self.is_feasible(extra=assumptions):
            shown = "; ".join(a.render(self.variables) for a in assumptions)
            raise ContradictionError(f"assumptions contradict the system: {shown}")
        columns = self._columns()
        facts = _prune(_rows(assumptions, columns) + _nonneg(self.constants, columns))
        kept = _prune(_rows(self.inequalities, columns))
        i = 0
        while i < len(kept):
            # pruned: the negation of a contradiction fact is a tautology
            negation = _prune([(*(-c for c in kept[i][:-1]), not kept[i][-1])])
            if _feasible(kept[:i] + kept[i + 1:] + facts + negation):
                i += 1
            else:
                kept.pop(i)
        return _system(self.variables, self.constants, kept, columns)

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
        groups = _alias_groups(aliases)
        lines = [self._alias_render(iq, groups) for iq in structural]
        nonneg = [iq for iq in self.inequalities if iq not in structural]
        if nonneg:
            names = sorted(s for iq in nonneg for s in iq.symbols())
            lines.append("with " + ", ".join(f"{s} >= 0" for s in names))
        return "\n".join(lines)

    def _alias_render(self, iq: LinIneq, groups) -> str:
        coeffs = dict(iq.terms)
        for name, group in groups:
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
