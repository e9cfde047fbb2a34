"""One contract for every public scalar parameter, read by the package root's
``_integer`` and ``_real``.

Each row calls one public function or constructor with one scalar replaced.
A valid numpy scalar gives the same result, by ``repr``, as the Python number
it holds; every value that is no number there raises a ValueError whose message
names the parameter (fm's, the value), an integer out of the parameter's range
raises a ValueError, and no other exception or warning escapes.  Each bound of a
parameter is accepted, and one step past it is the range rule's exact message.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

from secembed import binning, coset, dmc, fm, gauss, gf2
from secembed.coset import CosetCodePair, WiretapIIParams

PARAMS = WiretapIIParams(4, 0.75, 0.5, 0.0)
H1, H2 = [[1, 1, 1, 1]], [[1, 0, 1, 0]]
CODE = CosetCodePair(params=PARAMS, h1=H1, h2=H2, d1_star=1, d2_star=1)
RATES = (0.25, 0.25, 0.0)


def bec_triple():
    return dmc.DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                                     dmc.bec_kernel(0.9))


def channel_of(**changes):
    return dmc.DmcTriple.from_dict({**bec_triple().to_dict(), **changes}).to_dict()


def params_of(**changes):
    p = WiretapIIParams(**{**dict(n=8, alpha1=0.5, alpha2=0.25, eps=0.25), **changes})
    return p.to_dict(), p.n_alpha1, p.n_alpha2, p.k1, p.k2, p.r1, p.r2, p.margin_bits


def code_of(**certificates):
    code = CosetCodePair(params=PARAMS, h1=H1, h2=H2, **{"d1_star": 1, "d2_star": 1,
                                                           **certificates})
    return code.to_bundle()


def encoded(m1, m2):
    return coset.encode(CODE, m1, m2, np.random.default_rng(1)).tolist()


def codebook_of(n=4, counts=(2, 2, 1)):
    cb = binning.make_codebook([0.5, 0.5], n, counts, np.random.default_rng(1))
    return cb.codewords.tolist()


def nested(nx):
    cb = binning.NestedCodebook(np.zeros((2, 2, 1, 4), dtype=np.int64), nx)
    return cb.nx, cb.codewords.tolist()


def error_rate(trials):
    cb = binning.make_codebook([0.5, 0.5], 4, (2, 2, 1), np.random.default_rng(1))
    return binning.empirical_error_rate(cb, dmc.bsc_kernel(0.1), trials, np.random.default_rng(1))


def simulated(**changes):
    kwargs = {**dict(n=4, trials=3, seed=1), **changes}
    return binning.simulate_nested_binning(bec_triple(), [0.5, 0.5], RATES, **kwargs)


def scalar_region(**changes):
    kwargs = {**dict(power=1.0, a=1.0, b1=0.5, b2=0.25), **changes}
    report = gauss.region_scalar(gauss.ScalarGaussChannel(**kwargs))
    return report["cap_high"], report["cap_low"], report["corner"]


def pooled_region(gain=1.0, total_power=1.0):
    ch = gauss.ParallelGaussChannel((1.2, gain), (0.5, 0.3), (0.1, 0.1), total_power)
    return gauss.region_parallel_total(ch)


def lin_ineq(coeff=1, const=0):
    return fm.LinIneq({"x": coeff, "y": 2}, const=const)


def min_rank(size):
    return gf2.min_rank_over_column_subsets(np.array([[1, 0, 1], [0, 1, 1]]), size)


def boundary(num, max_r1=0.5, max_sum=1.0):
    return gauss.boundary_points([(0.5, 1.0)], max_r1, max_sum, num)


def unit_channel(key, v):
    return dmc.DmcTriple.from_dict({**dict.fromkeys(("nx", "ny", "nz1", "nz2"), 1), key: v,
                                    "p": [1.0]})


# id: (call with the scalar, the name its message gives, a valid numpy scalar,
#      whether an int beyond float range is a valid value there)
ROWS = {
    "WiretapIIParams.n": (lambda v: params_of(n=v), "n", np.int64(8), False),
    "WiretapIIParams.alpha1": (lambda v: params_of(alpha1=v), "alpha1", np.float32(0.5), False),
    "WiretapIIParams.alpha2": (lambda v: params_of(alpha2=v), "alpha2", np.float32(0.25), False),
    "WiretapIIParams.eps": (lambda v: params_of(eps=v), "eps", np.float32(0.25), False),
    "CosetCodePair.d1_star": (lambda v: code_of(d1_star=v), "d1_star", np.int64(1), True),
    "CosetCodePair.d2_star": (lambda v: code_of(d2_star=v), "d2_star", np.uint8(1), True),
    "encode.m1": (lambda v: encoded(v, 0), "m1", np.int64(1), False),
    "encode.m2": (lambda v: encoded(0, v), "m2", np.int8(1), False),
    "construct.seed": (lambda v: coset.construct(WiretapIIParams(8, 0.5, 0.25, 0.25), v)
                       .to_bundle(), "seed", np.int64(3), True),
    "rates_to_counts.rate": (lambda v: binning.rates_to_counts((v, 0.25, 0.0), 8), "rate",
                             np.float32(0.25), False),
    "rates_to_counts.n": (lambda v: binning.rates_to_counts(RATES, v), "n", np.int64(8), False),
    "make_codebook.n": (lambda v: codebook_of(n=v), "n", np.int64(4), False),
    "make_codebook.counts": (lambda v: codebook_of(counts=(2, v, 1)), "counts", np.int64(2),
                             False),
    "NestedCodebook.nx": (nested, "nx", np.int64(2), True),
    "empirical_error_rate.trials": (error_rate, "trials", np.int64(5), False),
    "simulate_nested_binning.n": (lambda v: simulated(n=v), "n", np.int64(4), False),
    "simulate_nested_binning.trials": (lambda v: simulated(trials=v), "trials", np.int64(3),
                                       False),
    "simulate_nested_binning.seed": (lambda v: simulated(seed=v), "seed", np.int64(2), True),
    "bec_kernel": (lambda v: dmc.bec_kernel(v).tolist(), "erasure probability",
                   np.float32(0.1), False),
    "bsc_kernel": (lambda v: dmc.bsc_kernel(v).tolist(), "flip probability", np.float32(0.1),
                   False),
    "noiseless_kernel": (lambda v: dmc.noiseless_kernel(v).tolist(), "size", np.int64(3), False),
    "DmcTriple.from_dict.nx": (lambda v: channel_of(nx=v), "nx", np.int64(2), False),
    "DmcTriple.from_dict.ny": (lambda v: channel_of(ny=v), "ny", np.int64(2), False),
    "DmcTriple.from_dict.nz1": (lambda v: channel_of(nz1=v), "nz1", np.int64(3), False),
    "DmcTriple.from_dict.nz2": (lambda v: channel_of(nz2=v), "nz2", np.uint8(3), False),
    "cs_scalar.power": (lambda v: gauss.cs_scalar(v, 1.0, 0.5), "power", np.float32(0.3),
                        False),
    "cs_scalar.b": (lambda v: gauss.cs_scalar(1.0, 1.0, v), "b", np.float32(0.3), False),
    "ScalarGaussChannel.power": (lambda v: scalar_region(power=v), "power", np.float32(0.3),
                                 False),
    "ScalarGaussChannel.b1": (lambda v: scalar_region(b1=v), "b1", np.float32(0.3), False),
    "ParallelGaussChannel.total_power": (lambda v: pooled_region(total_power=v), "total power",
                                         np.float32(0.3), False),
    "ParallelGaussChannel.a": (lambda v: pooled_region(gain=v), "gains", np.float32(0.7), False),
    "boundary_points.num": (lambda v: boundary(v).tolist(), "num", np.int64(5), False),
    "boundary_points.max_r1": (lambda v: boundary(5, max_r1=v).tolist(), "max_r1",
                               np.float32(0.5), False),
    "boundary_points.max_sum": (lambda v: boundary(5, max_sum=v).tolist(), "max_sum",
                                np.float32(0.75), False),
    "min_rank_over_column_subsets.size": (min_rank, "size", np.int64(2), False),
    # fm reads exact rationals: 1.5 and 10**400 are numbers there, and its message
    # names the value, "<value> is not a finite rational"
    "LinIneq.coefficient": (lambda v: lin_ineq(coeff=v), None, np.float32(0.1), True),
    "LinIneq.const": (lambda v: lin_ineq(const=v), None, np.int64(-3), True),
}

NOT_NUMBERS = [True, np.True_, None, "1", "1/3", math.nan, math.inf]


def cases():
    """NOT_NUMBERS everywhere, 1.5 where an integer is read and 10**400 where a float is."""
    for row, (_, name, valid, big_ok) in ROWS.items():
        integer = isinstance(valid, np.integer)
        bad = NOT_NUMBERS + [1.5] * (integer and name is not None)
        for value in bad + [10**400] * (not integer and not big_ok):
            yield pytest.param(row, value, id=f"{row}-{value!r}"[:60])


def quiet(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(value)


@pytest.mark.parametrize("row", ROWS)
def test_numpy_scalar_reads_as_its_python_number(row):
    call, _, valid, big_ok = ROWS[row]
    assert repr(quiet(call, valid)) == repr(quiet(call, valid.item()))
    if big_ok:  # an integer of any size is a number there
        quiet(call, 10**400)
    elif isinstance(valid, np.integer):  # an integer, but out of the parameter's range
        with pytest.raises(ValueError):
            quiet(call, 10**400)


@pytest.mark.parametrize("row, value", cases())
def test_non_number_is_a_named_domain_error(row, value):
    call, name, _, _ = ROWS[row]
    with pytest.raises(ValueError) as info:
        quiet(call, value)
    message = str(info.value)
    if name is None:
        assert message == f"{value!r} is not a finite rational"
    else:
        assert message.startswith(f"{name} ") or f" {name} " in message, message


# id: (a call of one scalar, a value that is no number or out of range there, its message)
REJECTIONS = {
    "noiseless_kernel-0": (dmc.noiseless_kernel, 0, "size = 0 must be >= 1"),
    "noiseless_kernel--1": (dmc.noiseless_kernel, -1, "size = -1 must be >= 1"),
    "from_dict.nx-True": (lambda v: channel_of(nx=v), True, "channel nx = True must be an integer"),
    "from_dict.nx-2.0": (lambda v: channel_of(nx=v), 2.0, "channel nx = 2.0 must be an integer"),
    "from_dict.nx-'2'": (lambda v: channel_of(nx=v), "2", "channel nx = '2' must be an integer"),
    "from_dict.ny-None": (lambda v: channel_of(ny=v), None, "channel ny = None must be an integer"),
    "from_dict.nz1-0": (lambda v: channel_of(nz1=v), 0, "channel nz1 = 0 must be >= 1"),
    "to_bundle.seed-True": (lambda v: CODE.to_bundle(seed=v), True,
                            "seed = True must be an integer"),
    "to_bundle.seed-1.5": (lambda v: CODE.to_bundle(seed=v), 1.5, "seed = 1.5 must be an integer"),
    "to_bundle.seed-'x'": (lambda v: CODE.to_bundle(seed=v), "x", "seed = 'x' must be an integer"),
    "min_rank.size-2.5": (min_rank, 2.5, "size = 2.5 must be an integer"),
    "min_rank.size-True": (min_rank, True, "size = True must be an integer"),
    "min_rank.size-'3'": (min_rank, "3", "size = '3' must be an integer"),
    "boundary_points.num-1.5": (boundary, 1.5, "num = 1.5 must be an integer"),
    "boundary_points.num-True": (boundary, True, "num = True must be an integer"),
    "boundary_points.num-0": (boundary, 0, "num = 0 must be >= 2"),
    "boundary_points.num-10**12": (boundary, 10**12, "num = 1000000000000 must be <= 1000000"),
    "noiseless_kernel-10**6": (dmc.noiseless_kernel, 10**6, "size = 1000000 must be <= 1024"),
    # past Python's 4300-digit limit on int-to-str, the message gives the digit count
    "encode.m1-10**5000": (lambda v: encoded(v, 0), 10**5000,
                           "m1 = a 5001-digit integer must be <= 1"),
    "encode.m1--10**5000": (lambda v: encoded(v, 0), -10**5000,
                            "m1 = a negative 5001-digit integer must be >= 0"),
    "cs_scalar.power-10**5000": (lambda v: gauss.cs_scalar(v, 1.0, 0.5), 10**5000,
                                 "power = a 5001-digit integer must be a finite real number"),
    "simulate_nested_binning.trials-10**5000": (
        lambda v: simulated(trials=v), 10**5000,
        "trials * n = a 5001-digit integer * 4 exceeds binning.TRIALS_BUDGET = 1048576"),
    "empirical_error_rate.trials-10**5000": (
        error_rate, 10**5000,
        "trials * n = a 5001-digit integer * 4 exceeds binning.TRIALS_BUDGET = 1048576"),
}


@pytest.mark.parametrize("row", REJECTIONS)
def test_rejection_message_is_exact(row):
    call, value, message = REJECTIONS[row]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        quiet(call, value)


BELOW_0, ABOVE_1 = math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)  # one float past

# id: (a call of one scalar, its bound, one step past the bound, that step's message)
RANGES = {
    "rates_to_counts.n": (lambda v: binning.rates_to_counts((0.0, 0.0, 0.0), v), 1, 0,
                          "n = 0 must be >= 1"),
    "rates_to_counts.rate": (lambda v: binning.rates_to_counts((v, 0.25, 0.0), 8), 0.0,
                             BELOW_0, "rate = -5e-324 must be >= 0"),
    "make_codebook.n": (lambda v: codebook_of(n=v), 1, 0, "n = 0 must be >= 1"),
    "make_codebook.counts": (lambda v: codebook_of(counts=(2, v, 1)), 1, 0,
                             "counts = 0 must be >= 1"),
    "make_codebook.counts-first": (lambda v: codebook_of(counts=(v, 2, 2)), 1, -1,
                                   "counts = -1 must be >= 1"),
    "NestedCodebook.nx": (nested, 1, 0, "nx = 0 must be >= 1"),
    "empirical_error_rate.trials": (error_rate, 1, 0, "trials = 0 must be >= 1"),
    "simulate_nested_binning.trials": (lambda v: simulated(trials=v), 0, -1,
                                       "trials = -1 must be >= 0"),
    "simulate_nested_binning.seed": (lambda v: simulated(seed=v), 0, -1,
                                     "seed = -1 must be >= 0"),
    "WiretapIIParams.n": (lambda v: WiretapIIParams(v, 1.0, 0.0), 1, 0, "n = 0 must be >= 1"),
    "WiretapIIParams.eps": (lambda v: params_of(eps=v), 0.0, BELOW_0,
                            "eps = -5e-324 must be >= 0"),
    "WiretapIIParams.alpha1-least": (lambda v: WiretapIIParams(4, v, 0.0), 0.0, BELOW_0,
                                     "alpha1 = -5e-324 must be >= 0"),
    "WiretapIIParams.alpha1-most": (lambda v: WiretapIIParams(4, v, 0.5), 1.0, ABOVE_1,
                                    "alpha1 = 1.0000000000000002 must be <= 1"),
    "WiretapIIParams.alpha2-least": (lambda v: WiretapIIParams(4, 0.5, v), 0.0, BELOW_0,
                                     "alpha2 = -5e-324 must be >= 0"),
    # alpha2 = alpha1 is allowed: the two eavesdroppers may see alike
    "WiretapIIParams.alpha2-most": (lambda v: WiretapIIParams(4, 0.5, v), 0.5,
                                    math.nextafter(0.5, 1.0),
                                    "alpha2 = 0.5000000000000001 must be <= 0.5"),
    "WiretapIIParams.k1": (lambda v: WiretapIIParams(4, 0.75, 0.0, v), 0.25, 0.5,
                           "n*(1-alpha1-eps) = -1 must be >= 0"),
    "encode.m1-least": (lambda v: encoded(v, 0), 0, -1, "m1 = -1 must be >= 0"),
    "encode.m1-most": (lambda v: encoded(v, 0), 1, 2, "m1 = 2 must be <= 1"),
    "encode.m2-least": (lambda v: encoded(0, v), 0, -1, "m2 = -1 must be >= 0"),
    "encode.m2-most": (lambda v: encoded(0, v), 1, 2, "m2 = 2 must be <= 1"),
    "construct.seed": (lambda v: coset.construct(WiretapIIParams(8, 0.5, 0.25, 0.25), v), 0,
                       -1, "seed = -1 must be >= 0"),
    "to_bundle.seed": (lambda v: CODE.to_bundle(seed=v), 0, -1, "seed = -1 must be >= 0"),
    "DmcTriple.from_dict.nx": (lambda v: unit_channel("nx", v), 1, 0,
                               "channel nx = 0 must be >= 1"),
    "DmcTriple.from_dict.ny": (lambda v: unit_channel("ny", v), 1, 0,
                               "channel ny = 0 must be >= 1"),
    "DmcTriple.from_dict.nz1": (lambda v: unit_channel("nz1", v), 1, 0,
                                "channel nz1 = 0 must be >= 1"),
    "DmcTriple.from_dict.nz2": (lambda v: unit_channel("nz2", v), 1, 0,
                                "channel nz2 = 0 must be >= 1"),
    "bec_kernel-least": (dmc.bec_kernel, 0.0, BELOW_0,
                         "erasure probability = -5e-324 must be >= 0"),
    "bec_kernel-most": (dmc.bec_kernel, 1.0, ABOVE_1,
                        "erasure probability = 1.0000000000000002 must be <= 1"),
    "bsc_kernel-least": (dmc.bsc_kernel, 0.0, BELOW_0, "flip probability = -5e-324 must be >= 0"),
    "bsc_kernel-most": (dmc.bsc_kernel, 1.0, ABOVE_1,
                        "flip probability = 1.0000000000000002 must be <= 1"),
    "noiseless_kernel": (dmc.noiseless_kernel, 1, 0, "size = 0 must be >= 1"),
    "noiseless_kernel-most": (dmc.noiseless_kernel, dmc.MAX_ALPHABET, dmc.MAX_ALPHABET + 1,
                              "size = 1025 must be <= 1024"),
    "min_rank.size-least": (min_rank, 0, -1, "size = -1 must be >= 0"),
    "min_rank.size-most": (min_rank, 3, 4, "size = 4 must be <= 3"),
    "cs_scalar.power": (lambda v: gauss.cs_scalar(v, 1.0, 0.5), 0.0, BELOW_0,
                        "power = -5e-324 must be >= 0"),
    "cs_scalar.a": (lambda v: gauss.cs_scalar(1.0, v, 0.5), 0.0, BELOW_0,
                    "a = -5e-324 must be >= 0"),
    "cs_scalar.b": (lambda v: gauss.cs_scalar(1.0, 1.0, v), 0.0, BELOW_0,
                    "b = -5e-324 must be >= 0"),
    "ScalarGaussChannel.power": (lambda v: scalar_region(power=v), 0.0, BELOW_0,
                                 "power = -5e-324 must be >= 0"),
    "ScalarGaussChannel.a": (lambda v: scalar_region(a=v), 0.0, BELOW_0,
                             "a = -5e-324 must be >= 0"),
    "ScalarGaussChannel.b1": (lambda v: scalar_region(b1=v, b2=0.0), 0.0, BELOW_0,
                              "b1 = -5e-324 must be >= 0"),
    "ScalarGaussChannel.b2": (lambda v: scalar_region(b2=v), 0.0, BELOW_0,
                              "b2 = -5e-324 must be >= 0"),
    "ScalarGaussChannel.b2-most": (lambda v: scalar_region(b2=v), 0.5, math.nextafter(0.5, 1.0),
                                   "b2 = 0.5000000000000001 must be <= 0.5"),
    "ParallelGaussChannel.b2_l-most": (lambda v: gauss.region_parallel_total(
        gauss.ParallelGaussChannel((1.2, 1.0), (0.5, 0.3), (0.1, v), 1.0)), 0.3,
        math.nextafter(0.3, 1.0), "b2_1 = 0.30000000000000004 must be <= 0.3"),
    "ParallelGaussChannel.total_power": (lambda v: pooled_region(total_power=v), 0.0, BELOW_0,
                                         "total power = -5e-324 must be >= 0"),
    "ParallelGaussChannel.a": (lambda v: pooled_region(gain=v), 0.0, BELOW_0,
                               "gains = -5e-324 must be >= 0"),
    "boundary_points.max_r1": (lambda v: boundary(5, max_r1=v), 0.0, BELOW_0,
                               "max_r1 = -5e-324 must be >= 0"),
    "boundary_points.max_sum": (lambda v: boundary(5, max_sum=v), 0.0, BELOW_0,
                                "max_sum = -5e-324 must be >= 0"),
    "boundary_points.num-least": (boundary, 2, 1, "num = 1 must be >= 2"),
    "boundary_points.num-most": (boundary, gauss.MAX_POINTS, gauss.MAX_POINTS + 1,
                                 "num = 1000001 must be <= 1000000"),
}


@pytest.mark.parametrize("row", RANGES)
def test_bound_is_accepted_and_one_step_past_it_is_not(row):
    call, bound, past, message = RANGES[row]
    quiet(call, bound)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        quiet(call, past)


def test_reports_are_json_ready_whatever_numbers_came_in():
    """A numpy scalar in is a Python number out, so every report serializes."""
    f32 = np.float32
    reports = [
        gauss.region_scalar(gauss.ScalarGaussChannel(f32(1), 1, 0.5, 0.1)),
        binning.simulate_nested_binning(bec_triple(), [0.5, 0.5], (f32(0.25), f32(0.25), 0.0),
                                        n=4, trials=3, seed=1),
        CODE.to_bundle(seed=np.int64(3)),
    ]
    for report in reports:
        json.dumps(report, allow_nan=False)
