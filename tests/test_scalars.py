"""One contract for every public scalar parameter, read by the package root's
``_integer`` and ``_real``.

Each row calls one public function or constructor with one scalar replaced.
A valid numpy scalar gives the same result, by ``repr``, as the Python number
it holds; every value that is no number there raises a ValueError whose message
names the parameter (fm's, the value), an integer out of the parameter's range
raises a ValueError, and no other exception or warning escapes.
"""

import math
import warnings

import numpy as np
import pytest

from secembed import binning, coset, dmc, fm, gauss
from secembed.coset import CosetCodePair, WiretapIIParams

PARAMS = WiretapIIParams(4, 0.75, 0.5, 0.0)
H1, H2 = [[1, 1, 1, 1]], [[1, 0, 1, 0]]
CODE = CosetCodePair(params=PARAMS, h1=H1, h2=H2, d1_star=1, d2_star=1)
RATES = (0.25, 0.25, 0.0)


def bec_triple():
    return dmc.DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                                     dmc.bec_kernel(0.9))


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
    "cs_scalar.power": (lambda v: gauss.cs_scalar(v, 1.0, 0.5), "power", np.float32(0.3),
                        False),
    "cs_scalar.b": (lambda v: gauss.cs_scalar(1.0, 1.0, v), "gains", np.float32(0.3), False),
    "ScalarGaussChannel.power": (lambda v: scalar_region(power=v), "power", np.float32(0.3),
                                 False),
    "ScalarGaussChannel.b1": (lambda v: scalar_region(b1=v), "gains", np.float32(0.3), False),
    "ParallelGaussChannel.total_power": (lambda v: pooled_region(total_power=v), "total power",
                                         np.float32(0.3), False),
    "ParallelGaussChannel.a": (lambda v: pooled_region(gain=v), "gains", np.float32(0.7), False),
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
