"""Elimination engine tests: projections, golden regions, exact implication."""

import math
import pathlib
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from secembed import fm, regions
from secembed.fm import LinIneq, LinIneqSystem

GOLDEN = pathlib.Path(__file__).parent / "golden"


def canon(system):
    return set(system.inequalities)


def satisfies(iq, point):
    val = iq.const
    for s, c in iq.terms:
        val += c * point[s]
    return val < 0 if iq.strict else val <= 0


def system_satisfied(system, point):
    return all(satisfies(iq, point) for iq in system.inequalities)


def extension_exists(system, var, point):
    """Exact check that some value of var completes the point feasibly."""
    lo = up = None
    lo_strict = up_strict = False
    for iq in system.inequalities:
        a = iq.coeff(var)
        rest = Fraction(iq.const)  # stored ints: keep -rest / a exact
        for s, c in iq.terms:
            if s != var:
                rest += c * point[s]
        if a == 0:
            if rest > 0 or (rest == 0 and iq.strict):
                return False
        elif a > 0:
            bound = -rest / a
            if up is None or bound < up:
                up, up_strict = bound, iq.strict
            elif bound == up:
                up_strict = up_strict or iq.strict
        else:
            bound = -rest / a
            if lo is None or bound > lo:
                lo, lo_strict = bound, iq.strict
            elif bound == lo:
                lo_strict = lo_strict or iq.strict
    if lo is None or up is None:
        return True
    return lo < up or (lo == up and not lo_strict and not up_strict)


def random_system(rng, max_vars=6):
    nvars = int(rng.integers(1, max_vars + 1))
    variables = tuple(f"x{i}" for i in range(nvars))
    ineqs = []
    for _ in range(int(rng.integers(2, 8))):
        coeffs = {v: Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                  for v in variables}
        ineqs.append(LinIneq(coeffs, const=Fraction(int(rng.integers(-6, 7))),
                             strict=bool(rng.integers(0, 2))))
    return LinIneqSystem(variables, (), ineqs)


def random_point(rng, symbols):
    return {s: Fraction(int(rng.integers(-16, 17)), 2) for s in symbols}


def run_projection_property_trials(n_systems, seed):
    """Soundness and completeness of eliminate() on random systems.

    Completeness: any point of the original projects into the eliminated
    system.  Soundness: any point of the eliminated system extends to a
    point of the original (checked by the exact bound-interval test).
    Returns the number of points exercised for each property.
    """
    rng = np.random.default_rng(seed)
    complete = sound = 0
    for _ in range(n_systems):
        system = random_system(rng)
        var = str(rng.choice(system.variables))
        projected = system.eliminate(var)
        rest = [v for v in system.variables if v != var]
        for _ in range(12):
            point = random_point(rng, system.variables)
            if system_satisfied(system, point):
                reduced = {v: point[v] for v in rest}
                assert system_satisfied(projected, reduced)
                complete += 1
        for _ in range(12):
            point = random_point(rng, rest)
            if system_satisfied(projected, point):
                assert extension_exists(system, var, point)
                sound += 1
    return complete, sound


def test_eliminate_randomness_rate_reproduces_target_shape():
    sys = fm.nested_binning_constraints()
    out = sys.eliminate("T")
    got = canon(out)
    want_r1 = LinIneq.at_most({"R1": 1, "I_XZ1": 1}, {"I_XY": 1}, strict=True)
    want_sum = LinIneq.at_most({"R1": 1, "R2": 1, "I_XZ2": 1}, {"I_XY": 1},
                               strict=True)
    assert want_r1 in got and want_sum in got
    assert "T" not in out.variables


def test_eliminate_absent_variable_is_identity():
    sys = LinIneqSystem(("x", "y"), (), [LinIneq({"x": 1}, const=-1)])
    out = sys.eliminate("y")
    assert canon(out) == canon(sys)
    assert out.variables == ("x",)


def test_eliminate_prunes_trivially_true_consequence():
    sys = LinIneqSystem(("x",), (), [
        LinIneq({"x": -1}),            # x >= 0
        LinIneq({"x": 1}, const=-1),   # x <= 1
    ])
    out = sys.eliminate("x")
    assert out.inequalities == ()


def test_eliminate_keeps_contradiction_fact():
    sys = LinIneqSystem(("x",), (), [
        LinIneq({"x": -1}, const=2),   # x >= 2
        LinIneq({"x": 1}, const=-1),   # x <= 1
    ])
    out = sys.eliminate("x")
    assert any(iq.is_contradiction() for iq in out.inequalities)
    assert not sys.is_feasible()


def test_strictness_propagates_through_combination():
    sys = LinIneqSystem(("x", "y"), (), [
        LinIneq({"y": 1, "x": -1}, strict=True),   # x > y
        LinIneq({"x": 1}, const=-2),               # x <= 2
    ])
    out = sys.eliminate("x")
    (iq,) = out.inequalities
    assert iq.strict  # y < 2


def test_golden_nested_binning_region():
    got = fm.derive_nested_binning_region().pretty() + "\n"
    assert got == (GOLDEN / "nested_binning_region.txt").read_text()


def test_golden_layered_region():
    region = fm.derive_layered_region()
    got = region.pretty(aliases=fm.LAYERED_ALIASES) + "\n"
    assert got == (GOLDEN / "layered_region.txt").read_text()
    structural = region.structural_inequalities()
    assert len(structural) == 2
    want_r1 = LinIneq.at_most({"R1": 1, "I_VZ1_U": 1}, {"I_VY_U": 1})
    want_sum = LinIneq.at_most({"R1": 1, "R2": 1, "I_VZ2_U": 1, "I_UZ2": 1},
                               {"I_VY_U": 1, "I_UY": 1})
    assert set(structural) == {want_r1, want_sum}


def test_simplify_without_assumptions_is_dominance_only():
    sys = LinIneqSystem(("x",), ("c",), [
        LinIneq({"x": 1, "c": -1}),            # x <= c
        LinIneq({"x": 2, "c": -2}),            # same after normalization
        LinIneq({"x": 1, "c": -1}, const=-1),  # x <= c + 1 (weaker, kept: needs LP)
    ])
    out = sys.simplify_with_assumptions()
    # x <= c + 1 is implied by x <= c, so exact implication removes it too
    assert canon(out) == {LinIneq({"x": 1, "c": -1})}


@pytest.mark.parametrize("assumption, loose", [
    # 2 R1 <= I_XY - I_XZ1 names a rate: taken as a fact it drops R1 <= I_XY - I_XZ1
    (LinIneq.at_most({"R1": 2}, {"I_XY": 1, "I_XZ1": -1}), ["R1"]),
    (LinIneq.at_most({"I_XZ2": 1}, {"I_XZZ1": 1}), ["I_XZZ1"]),  # a misspelt constant
])
def test_simplify_rejects_assumptions_off_the_constants(assumption, loose):
    closed = fm.nested_binning_constraints().eliminate("T").relax_closure()
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'non-constant symbols in assumptions: {loose}')}$"):
        closed.simplify_with_assumptions([LinIneq.at_most({"I_XZ2": 1}, {"I_XZ1": 1}),
                                          assumption])
    assert closed.is_feasible(extra=[assumption])  # extra stays free over every symbol


def test_simplify_contradictory_assumption_raises():
    sys = fm.nested_binning_constraints()
    with pytest.raises(fm.ContradictionError):
        sys.simplify_with_assumptions([LinIneq({}, const=1)])  # 1 <= 0
    with pytest.raises(fm.ContradictionError):
        sys.simplify_with_assumptions([LinIneq({}, strict=True)])  # 0 < 0


def test_simplify_jointly_contradictory_assumptions_raise():
    # I_XZ2 <= 1 and I_XZ2 >= 2: each is consistent with the system alone
    sys = fm.nested_binning_constraints()
    with pytest.raises(fm.ContradictionError,
                       match="0 <= -I_XZ2 \\+ 1; 0 <= I_XZ2 - 2"):
        sys.simplify_with_assumptions([LinIneq({"I_XZ2": 1}, const=-1),
                                       LinIneq({"I_XZ2": -1}, const=2)])


def test_make_stores_primitive_integer_form():
    iq = LinIneq({"x": Fraction(1, 2)}, const=1)   # x/2 + 1 <= 0
    assert iq.terms == (("x", 1),) and iq.const == 2
    assert type(iq.terms[0][1]) is int and type(iq.const) is int
    assert LinIneq({"y": 6, "x": -4}, const=Fraction(2, 3)) == \
        LinIneq({"x": -6, "y": 9}, const=1)
    assert LinIneq({"x": 0}, const=-3) == LinIneq({}, const=-1)


def test_repeated_symbols_add_up():
    assert LinIneq((("x", 1), ("x", 1)), -2) == LinIneq({"x": 2}, -2)
    assert LinIneq((("x", 1), ("y", 3), ("x", Fraction(1, 2))), 1) == \
        LinIneq({"x": Fraction(3, 2), "y": 3}, 1)
    assert LinIneq((("x", 1), ("x", -1)), -2).terms == ()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_rationals_are_domain_errors(bad):
    match = f"{bad!r} is not a finite rational"
    with pytest.raises(ValueError, match=match):
        LinIneq({"x": bad})
    with pytest.raises(ValueError, match=match):
        LinIneq({"x": 1}, const=bad)
    with pytest.raises(ValueError, match=match):
        LinIneq.at_most({"x": 1}, {"y": bad})
    with pytest.raises(ValueError, match=match):
        LinIneq.at_most({"x": bad}, {})
    with pytest.raises(ValueError, match=match):
        fm.derive_nested_binning_region().instantiate(
            {"I_XY": bad, "I_XZ1": 0.5, "I_XZ2": 0.1})



@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_numpy_floats_convert_exactly(dtype):
    assert LinIneq({"x": dtype(0.5)}, const=dtype(-1.5)) == \
        LinIneq({"x": Fraction(1, 2)}, const=Fraction(-3, 2))
    assert LinIneq.at_most({"x": dtype(0.25)}, {"y": dtype(1)}) == \
        LinIneq.at_most({"x": Fraction(1, 4)}, {"y": 1})
    region = fm.derive_nested_binning_region()
    exact = {"I_XY": 1.0, "I_XZ1": 0.5, "I_XZ2": 0.125}
    assert region.instantiate({k: dtype(v) for k, v in exact.items()}) == \
        region.instantiate(exact)
    for bad in (dtype("nan"), dtype("inf")):
        with pytest.raises(ValueError, match="is not a finite rational"):
            LinIneq({"x": bad})


@pytest.mark.parametrize("bad", [None, [1], object(), "1", "1/3"])
def test_non_numbers_are_domain_errors(bad):
    with pytest.raises(ValueError, match="is not a finite rational"):
        LinIneq({"x": bad})
    with pytest.raises(ValueError, match="is not a finite rational"):
        LinIneq.at_most({"x": bad}, {})
    with pytest.raises(ValueError, match="is not a finite rational"):
        LinIneq({"x": 1}, const=bad)
    with pytest.raises(ValueError, match="is not a finite rational"):
        fm.derive_nested_binning_region().instantiate(
            {"I_XY": bad, "I_XZ1": 0.5, "I_XZ2": 0.1})


def test_constraint_presets_pretty():
    # these reach the flipped (lower-bound) and strict render paths
    assert fm.nested_binning_constraints().pretty() == (
        "R2 + T > I_XZ1\n"
        "T > I_XZ2\n"
        "R1 + R2 + T < I_XY\n"
        "with R1 >= 0, R2 >= 0, T >= 0")
    assert fm.layered_scheme_constraints().pretty() == (
        "-R2 + R2a + R2b <= 0\n"
        "R2b + T > I_VZ1_U\n"
        "T > I_VZ2_U\n"
        "R2a < I_UY - I_UZ2 - eps\n"
        "R2 - R2a - R2b <= 0\n"
        "R1 + R2b + T < I_VY_U\n"
        "with R1 >= 0, R2 >= 0, R2a >= 0, R2b >= 0, T >= 0")


def test_instantiate_matches_manual_region():
    region = fm.derive_nested_binning_region()
    num = region.instantiate({"I_XY": 1.0, "I_XZ1": 0.5, "I_XZ2": 0.1})
    assert regions.contains(num, (0.49, 0.4))
    assert not regions.contains(num, (0.51, 0.0))
    assert not regions.contains(num, (0.4, 0.55))
    assert regions.max_r2_at(num, 0.2) == pytest.approx(0.7)


def test_instantiate_zero_constants_degenerate():
    region = fm.derive_nested_binning_region()
    num = region.instantiate({"I_XY": 0.0, "I_XZ1": 0.0, "I_XZ2": 0.0})
    assert regions.contains(num, (0.0, 0.0))
    assert not regions.contains(num, (1e-6, 0.0))
    assert not regions.contains(num, (0.0, 1e-6))


def test_instantiate_infeasible_when_strong_exceeds_receiver():
    sys = fm.nested_binning_constraints().eliminate("T")
    num = sys.instantiate({"I_XY": 0.3, "I_XZ1": 0.5, "I_XZ2": 0.1})
    # strict R1 < -0.2 plus R1 >= 0 leaves nothing, even the origin
    assert not regions.contains(num, (0.0, 0.0))


def test_instantiate_unbound_constant():
    with pytest.raises(fm.UnboundConstantError):
        fm.derive_nested_binning_region().instantiate({"I_XY": 1.0})


def stored_types(system):
    return ({type(c) for iq in system.inequalities for _, c in iq.terms}
            | {type(iq.const) for iq in system.inequalities})


@pytest.mark.parametrize("derive", [fm.derive_nested_binning_region,
                                    fm.derive_layered_region])
def test_derived_regions_store_python_ints(derive):
    region = derive()
    assert stored_types(region) == {int}


def test_alias_with_non_unit_group_divides_exactly():
    # x + a + 2b - 1 <= 0: the group a + 2b is G/3 for the alias G = 3a + 6b
    sys = LinIneqSystem(("x",), ("a", "b"),
                        [LinIneq({"x": 1, "a": 1, "b": 2}, const=-1)])
    assert sys.pretty(aliases=(("G", {"a": 3, "b": 6}),)) == "3 x <= -G + 3"


def test_alias_named_after_its_own_symbol_is_substituted_once():
    sys = LinIneqSystem(("x",), ("a",), [LinIneq({"x": 1, "a": -1})])
    assert sys.pretty(aliases=(("a", {"a": 1}),)) == "x <= a"


def test_system_guards_name_the_symbol():
    with pytest.raises(ValueError, match=r"^undeclared symbols in inequality: \['y'\]$"):
        LinIneqSystem(("x",), ("c",), [LinIneq({"x": 1, "y": 1})])
    with pytest.raises(ValueError, match="^I_XY is not a declared variable$"):
        fm.nested_binning_constraints().eliminate("I_XY")


def test_projection_soundness_completeness_sample():
    complete, sound = run_projection_property_trials(200, seed=101)
    assert complete > 100
    assert sound > 100


SYMBOLS = ("x0", "x1", "x2", "x3")
small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
positive_rationals = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))


@st.composite
def raw_inequalities(draw):
    """(coeffs, const, strict, positive scale) for one inequality."""
    coeffs = {s: draw(small_rationals) for s in SYMBOLS[:draw(st.integers(1, 4))]}
    return coeffs, draw(small_rationals), draw(st.booleans()), draw(positive_rationals)


def build(raw, rescale):
    coeffs, const, strict, q = raw
    if not rescale:
        q = 1
    return LinIneq({s: c * q for s, c in coeffs.items()}, const=const * q, strict=strict)


@settings(max_examples=80)
@given(raws=st.lists(raw_inequalities(), min_size=1, max_size=6),
       target=raw_inequalities())
def test_positive_rescaling_changes_nothing(raws, target):
    plain = [build(r, False) for r in raws]
    rescaled = [build(r, True) for r in raws]
    assert plain == rescaled
    for iq, (coeffs, const, _, _) in zip(plain, raws):
        values = [c for _, c in iq.terms] + [iq.const]
        assert all(type(v) is int for v in values)
        assert math.gcd(*(v.numerator for v in values)) in (0, 1)
        # the stored form is a positive multiple of the raw one
        assert {s for s, _ in iq.terms} == {s for s, c in coeffs.items() if c}
        raw = [coeffs[s] for s, _ in iq.terms] + [const]
        lam = next((v / r for v, r in zip(values, raw) if r), None)
        assert lam is None or (lam > 0 and all(v == lam * r for v, r in zip(values, raw)))
    a = LinIneqSystem(SYMBOLS, (), plain)
    b = LinIneqSystem(SYMBOLS, (), rescaled)
    for var in SYMBOLS:
        assert set(a.eliminate(var).inequalities) == set(b.eliminate(var).inequalities)
    assert a.is_feasible() == b.is_feasible()
    assert a.is_feasible(extra=[build(target, False).negation()]) == \
        b.is_feasible(extra=[build(target, True).negation()])


def test_relax_closure_drops_the_slack_and_weakens():
    sys = LinIneqSystem(("R",), ("I", "eps"), [
        LinIneq.at_most({"R": 2, "eps": 2}, {"I": 2}, strict=True),
        LinIneq({"R": 1, "I": -1}, 1),
        LinIneq({"eps": 1}, strict=True),
    ])
    out = sys.relax_closure(slack_symbol="eps")
    assert (out.variables, out.constants) == (("R",), ("I",))
    # 2R + 2eps < 2I loses eps and gives way to the tighter R <= I - 1; eps < 0 becomes 0 <= 0
    assert out.inequalities == (LinIneq({"R": 1, "I": -1}, 1),)


SMALL_VARS, SMALL_CONSTS = ("x", "y"), ("a", "b")


def small_inequalities(symbols):
    return st.builds(LinIneq, st.fixed_dictionaries({s: st.integers(-1, 1) for s in symbols}),
                     st.integers(-2, 2), st.booleans())


@settings(max_examples=60)
@given(ineqs=st.lists(small_inequalities(SMALL_VARS + SMALL_CONSTS), min_size=1, max_size=5),
       assumptions=st.lists(small_inequalities(SMALL_CONSTS), max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_simplify_keeps_the_region(ineqs, assumptions, seed):
    system = LinIneqSystem(SMALL_VARS, SMALL_CONSTS, ineqs)
    try:
        out = system.simplify_with_assumptions(assumptions)
    except fm.ContradictionError:
        reject()  # covered by the contradiction tests above
    assert set(out.inequalities) <= set(system.inequalities)
    # half-integer points in [-3, 3], constants nonnegative
    halves = np.random.default_rng(seed).integers(-6, 7, size=(200, 4))
    halves[:, 2:] = abs(halves[:, 2:])
    for values in halves.tolist():
        point = {s: Fraction(v, 2) for s, v in zip(SMALL_VARS + SMALL_CONSTS, values)}
        if all(satisfies(a, point) for a in assumptions):
            assert system_satisfied(out, point) == system_satisfied(system, point)


def lp_feasible(system) -> bool:
    """is_feasible's oracle, by scipy's HiGHS: the largest common slack t <= 1 of the
    strict rows, over the rows with every constant nonnegative.

    Feasible iff the LP is and either no row is strict or t* > 1e-9.  That threshold
    cannot misjudge a system of lp_systems: a positive t* is a vertex value, a ratio of
    integer determinants of size at most 6 (3 variables, 2 constants and t) whose
    entries are at most 3 in size, so by Hadamard's bound the denominator is at most
    54**3 and t* is at least about 6e-6.
    """
    from scipy.optimize import linprog

    symbols = system.variables + system.constants
    a_ub = [[iq.coeff(s) for s in symbols] + [int(iq.strict)] for iq in system.inequalities]
    b_ub = [-iq.const for iq in system.inequalities]
    bounds = ([(None, None)] * len(system.variables) + [(0, None)] * len(system.constants)
              + [(None, 1)])
    res = linprog([0] * len(symbols) + [-1], A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                  method="highs")
    assert res.status in (0, 2), res.message  # solved or infeasible
    if res.status == 2:
        return False
    return not any(iq.strict for iq in system.inequalities) or -res.fun > 1e-9


small_ints = st.integers(-3, 3)


@st.composite
def lp_systems(draw, max_rows=6):
    """Systems over at most 3 variables and 2 constants, integers in -3..3."""
    variables = ("x", "y", "z")[:draw(st.integers(1, 3))]
    constants = ("a", "b")[:draw(st.integers(0, 2))]
    rows = st.builds(LinIneq, st.fixed_dictionaries({s: small_ints
                                                     for s in variables + constants}),
                     small_ints, st.booleans())
    return LinIneqSystem(variables, constants,
                         draw(st.lists(rows, min_size=1, max_size=max_rows)))


@settings(max_examples=300)
@given(system=lp_systems())
def test_is_feasible_matches_the_lp_oracle(system):
    assert system.is_feasible() == lp_feasible(system)


def reference_prune(ineqs) -> tuple:
    """The object-based dominance prune that the row core replaced, kept as the
    ordering oracle: the stronger of two with equal terms, in first-seen order."""
    best = {}
    for iq in ineqs:
        if iq.is_tautology():
            continue
        cur = best.get(iq.terms)
        if cur is None or (iq.const, iq.strict) > (cur.const, cur.strict):
            best[iq.terms] = iq
    return tuple(best.values())


def reference_fm_step(ineqs, var) -> tuple:
    """The object-based Fourier-Motzkin step that the row core replaced: the rows free
    of var, then each lower-upper combination, pruned."""
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
    return reference_prune(rest + combos)


def reference_relax_closure(ineqs, slack) -> tuple:
    return reference_prune([LinIneq([(s, c) for s, c in iq.terms if s != slack], iq.const)
                            for iq in ineqs])


def stored_form(ineqs):
    """Each inequality with the types of its fields, which == alone would not compare."""
    return [(iq.terms, iq.const, type(iq.const), iq.strict, type(iq.strict)) for iq in ineqs]


@settings(max_examples=200)
@given(system=lp_systems(max_rows=8), data=st.data())
def test_row_core_keeps_the_reference_order(system, data):
    for var in system.variables:
        assert stored_form(system.eliminate(var).inequalities) == \
            stored_form(reference_fm_step(system.inequalities, var))
    slack = data.draw(st.sampled_from((None,) + system.variables + system.constants))
    assert stored_form(system.relax_closure(slack).inequalities) == \
        stored_form(reference_relax_closure(system.inequalities, slack))
