"""The benchmark's workloads: seeded input generation, ops and output checks.

Each workload turns ``(seed, seconds)`` into a fixed list of ops.  An op is a
call sequence through the entry points users call (``secembed.cli.main`` with
``--out`` into a scratch directory, or the Python API where no CLI verb
exists), plus a check of its output that holds for any seed.  The list length
is derived from ``seconds`` and a nominal per-op cost measured on a 2-vCPU
Intel Xeon host, so a run does about ``seconds`` of work there; the work of a
given ``(seed, seconds)`` is fixed, so ``run_s`` is a time to solution.

Op ``i`` draws its inputs from the stream ``(seed, i)`` alone (``codec``, which
has no reference values, draws all ops from one stream), so a longer run
extends a shorter one and the reference values of the default seed apply to
runs of any length.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from secembed import cli, coset, dmc, gf2

# Nominal per-op costs (seconds) on the reference host; they only size the op lists.
CERTIFY_OP_S = 0.047
CODEC_OP_S = 0.00113
LEAKAGE_OP_S = 0.365
REGIONS_SUB4_S = 25.0
REGIONS_JOB_S = 0.144
REGIONS_SUB4_MIN_RUN_S = 10
SUB4_GRID = 4e-3
REGIONS_MIN_JOBS = 20

# certify: at n = 32 one code costs 0.7-6 s (coefficient of variation 0.6 over
# construct seeds), so a run would hold ~6 codes and its time would measure the
# draw.  At n = 24 a code costs ~0.07 s (variation 0.4) and a run holds ~300;
# d1* still takes the primal branch-and-bound and d2* the kernel-side search.
CERTIFY_N = 24
CERTIFY_ROUND_TRIPS = 8
CODE_ARGS = ["--alpha1", "0.5", "--alpha2", "0.25", "--eps", "0.25"]
CODEC_SIZES = (32, 64)
CODEC_CODES_PER_SIZE = 4
LEAKAGE_RATES = f"0.25,0.25,{math.log2(3) / 4!r}"
LEAKAGE_SWEEP = "8,12"
LEAKAGE_TRIALS = "400"


class CheckFailed(Exception):
    """An op's output violates a property every correct result has."""


def expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    key: str
    run: Callable[[], Any]
    # Returns {field: (value, tolerance)} for the reference file; raises on a bad output.
    check: Callable[[Any], dict]


def stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def call_cli(argv: list) -> int:
    return cli.main([str(a) for a in argv])


def read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------- certify

def _certify_op(key: str, n: int, seed: int, msgs, enc_seed: int, tmp: str) -> Op:
    bundle = os.path.join(tmp, f"{key}.bundle.json")
    audit = os.path.join(tmp, f"{key}.audit.json")

    def run():
        rc_construct = call_cli(["code", "construct", "--n", n, *CODE_ARGS,
                                 "--seed", seed, "--out", bundle])
        code = coset.CosetCodePair.from_bundle(read_json(bundle))
        rng = np.random.default_rng(enc_seed)
        wrong = sum(coset.decode(code, coset.encode(code, m1, m2, rng)) != (m1, m2)
                    for m1, m2 in msgs)
        rc_audit = call_cli(["code", "audit", "--bundle", bundle, "--out", audit])
        return rc_construct, rc_audit, wrong

    def check(out):
        rc_construct, rc_audit, wrong = out
        expect(rc_construct == 0 and rc_audit == 0,
               f"exit codes construct={rc_construct} audit={rc_audit}")
        expect(wrong == 0, f"{wrong} of {len(msgs)} round trips decoded wrongly")
        report = read_json(audit)
        expect(report["pass"] is True, "audit did not pass")
        expect(report["certificates_match"] is True, "audit certificates differ")
        return {"d1_star": (report["d1_star"], 0), "d2_star": (report["d2_star"], 0)}

    return Op("certify", key, run, check)


def certify(seed: int, seconds: float, tmp: str, root: str):
    def make(i, n, trips):
        rng = stream(seed, 0, i)
        k = n // 4  # k1 = k2 = n/4 at alpha1 = 0.5, alpha2 = eps = 0.25
        msgs = [(int(a), int(b)) for a, b in rng.integers(0, 2**k, size=(trips, 2))]
        return _certify_op(f"certify-s{seed}-i{i}", n, cli_seed(rng), msgs,
                           cli_seed(rng), tmp)

    count = max(1, int(seconds / CERTIFY_OP_S))
    ops = [make(i, CERTIFY_N, CERTIFY_ROUND_TRIPS) for i in range(count)]
    warm = [make(10**6, 16, 2)]
    return ops, warm


# ---------------------------------------------------------------- codec

def _random_code(n: int, rng: np.random.Generator) -> coset.CosetCodePair:
    params = coset.WiretapIIParams(n=n, alpha1=0.5, alpha2=0.25, eps=0.25)
    rows = params.k1 + params.k2
    while True:
        h = gf2.random_matrix(rows, n, rng)
        if gf2.rank(h) == rows:
            break
    bundle = {"params": params.to_dict(), "H1": gf2.matrix_to_text(h[:params.k1]),
              "H2": gf2.matrix_to_text(h[params.k1:]), "d1_star": 0, "d2_star": 0,
              "seed": None}
    return coset.CosetCodePair.from_bundle(bundle)


def _codec_op(key: str, code, m1: int, m2: int, observed: list, rng) -> Op:
    def run():
        x = coset.encode(code, m1, m2, rng)
        decoded = coset.decode(code, x)
        obs = coset.eavesdrop(x, observed)
        return x, decoded, obs, coset.equivocation(code, observed)

    def check(out):
        x, decoded, obs, equiv = out
        expect(decoded == (m1, m2), f"decoded {decoded} != sent {(m1, m2)}")
        seen = np.zeros(code.n, dtype=bool)
        seen[observed] = True
        expect(obs.observed == frozenset(observed), "observed set changed")
        expect(bool((obs.z[seen] == x[seen]).all()), "observed bits differ")
        expect(bool((obs.z[~seen] == coset.ERASURE).all()), "unobserved bits not erased")
        k = code.rows
        lo, hi = max(0, k - len(observed)), min(k, code.n - len(observed))
        expect(lo <= equiv <= hi, f"equivocation {equiv} outside [{lo}, {hi}]")
        return {}

    return Op("codec_n%d" % code.n, key, run, check)


def codec(seed: int, seconds: float, tmp: str, root: str):
    code_rng = stream(seed, 1)
    codes = {n: [_random_code(n, code_rng) for _ in range(CODEC_CODES_PER_SIZE)]
             for n in CODEC_SIZES}
    enc_rng = stream(seed, 2)
    rng = stream(seed, 0)  # codec ops have no reference values, so one stream serves all

    def make(i):
        # three n = 32 ops to one n = 64 op keeps the median inside the n = 32 cluster
        n = CODEC_SIZES[1] if i % 4 == 3 else CODEC_SIZES[0]
        code = codes[n][int(rng.integers(CODEC_CODES_PER_SIZE))]
        m1 = int(rng.integers(2**code.k1))
        m2 = int(rng.integers(2**code.k2))
        observed = sorted(int(j) for j in rng.permutation(n)[:rng.integers(0, n + 1)])
        return _codec_op(f"codec-s{seed}-i{i}", code, m1, m2, observed, enc_rng)

    warm = [make(i) for i in range(20)]
    ops = [make(i) for i in range(max(1, int(seconds / CODEC_OP_S)))]
    return ops, warm


# ---------------------------------------------------------------- leakage

def _leakage_op(kind: str, key: str, channel: list, n: str, seed: int, tmp: str) -> Op:
    out_path = os.path.join(tmp, f"{key}.json")

    def run():
        return call_cli(["sim", "dmc", *channel, "--px", "0.5,0.5",
                         "--rates", LEAKAGE_RATES, "--n", n, "--trials", LEAKAGE_TRIALS,
                         "--seed", seed, "--out", out_path])

    def check(rc):
        expect(rc == 0, f"exit code {rc}")
        payload = read_json(out_path)
        runs = payload.get("runs", [payload])
        expect([r["n"] for r in runs] == [int(b) for b in n.split(",")], "block lengths")
        values = {}
        for r in runs:
            err = r["error_rate"]
            weak_cap = r["rates"]["r1"] + r["rates"]["r2"]
            expect(0.0 <= err <= 1.0, f"error rate {err} outside [0, 1]")
            for field, cap in (("normalized_leak_m1_strong", r["rates"]["r1"]),
                               ("normalized_leak_messages_weak", weak_cap)):
                leak = r[field]
                expect(math.isfinite(leak) and leak >= 0.0, f"{field} = {leak}")
                # I(M; Z^n) <= H(M) = n * rate, so the normalized leak is at most the rate
                expect(leak <= cap + 1e-12, f"{field} = {leak} exceeds the rate {cap}")
                values[f"n{r['n']}.{field}"] = (leak, 1e-12)
            values[f"n{r['n']}.error_rate"] = (err, 0)
        return values

    return Op(kind, key, run, check)


def leakage(seed: int, seconds: float, tmp: str, root: str):
    bec = ["--bec", "0.5,0.9"]
    bsc_file = os.path.join(tmp, "bsc_channel.json")
    with open(bsc_file, "w") as f:
        json.dump(dmc.DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bsc_kernel(0.2),
                                            dmc.bsc_kernel(0.4)).to_dict(), f)
    bsc = ["--channel", bsc_file]
    count = max(2, int(seconds / LEAKAGE_OP_S))
    ops = [_leakage_op("sim_bec", f"bec-s{seed}-i{i}", bec, LEAKAGE_SWEEP,
                       cli_seed(stream(seed, 0, i)), tmp) for i in range(count - 1)]
    # one op on the general (non-erasure) leakage path
    ops.append(_leakage_op("sim_bsc", f"bsc-s{seed}", bsc, "12", cli_seed(stream(seed, 3)),
                           tmp))
    warm = [_leakage_op("sim_bec", "warm-bec", bec, "8", 1, tmp),
            _leakage_op("sim_bsc", "warm-bsc", bsc, "8", 1, tmp)]
    return ops, warm


# ---------------------------------------------------------------- regions

def cs(power: float, a: float, b: float) -> float:
    return max(0.0, 0.5 * (math.log2(1.0 + a * power) - math.log2(1.0 + b * power)))


def _gains(rng: np.random.Generator, size: int):
    """Gains with a > b1 > b2 in every subchannel, so every secrecy capacity is positive."""
    a = rng.uniform(0.6, 1.4, size)
    b1 = a * rng.uniform(0.1, 0.9, size)
    b2 = b1 * rng.uniform(0.1, 0.9, size)
    return a, b1, b2


def _pooled_op(kind: str, key: str, gains, grid: float, tmp: str, preset: bool = False) -> Op:
    out_path = os.path.join(tmp, f"{key}.json")
    a, b1, b2 = gains
    if preset:
        argv = ["--preset", "two-subchannel-reference"]
    else:
        argv = ["--a", floats(a), "--b1", floats(b1), "--b2", floats(b2)]
    argv += ["--grid", repr(grid), "--out", out_path]
    total = 1.0
    # first-order bound on the value lost by an allocation within one grid step
    tol = 0.5 * (len(a) - 1) * grid * total * max(a) / math.log(2)

    def run():
        return call_cli(["region", "parallel-total", *argv])

    def value(alloc, eve):
        return sum(cs(p, ai, bi) for p, ai, bi in zip(alloc, a, eve))

    def check(rc):
        expect(rc == 0, f"exit code {rc}")
        r = read_json(out_path)
        corners = [tuple(total if j == k else 0.0 for j in range(len(a))) for k in range(len(a))]
        corners.append(tuple(total / len(a) for _ in a))
        for field, alloc_field, eve in (("max_r1", "alloc_max_r1", b1),
                                        ("max_sum", "alloc_max_sum", b2)):
            alloc = r[alloc_field]
            expect(min(alloc) >= 0.0 and abs(sum(alloc) - total) <= 1e-9,
                   f"{alloc_field} {alloc} is not a split of the total power")
            expect(abs(value(alloc, eve) - r[field]) <= 1e-12,
                   f"{field} does not match its allocation")
            best_corner = max(value(c, eve) for c in corners)
            expect(r[field] >= best_corner - 1e-12, f"{field} below a feasible allocation")
            ceiling = sum(cs(total, ai, bi) for ai, bi in zip(a, eve))
            expect(r[field] <= ceiling + 1e-12, f"{field} above the per-subchannel ceiling")
        expect(r["max_r1"] <= r["max_sum"] + 1e-12, "max_r1 exceeds max_sum")
        if preset:
            expect(r["embedding_gap"] > 0.0, f"reference embedding gap {r['embedding_gap']}")
        else:
            expect(r["embedding_gap"] >= -1e-12, f"embedding gap {r['embedding_gap']} < 0")
        return {"max_r1": (r["max_r1"], tol), "max_sum": (r["max_sum"], tol)}

    return Op(kind, key, run, check)


def _scalar_op(key: str, rng, tmp: str) -> Op:
    out_path = os.path.join(tmp, f"{key}.json")
    power = float(rng.uniform(0.5, 4.0))
    (a,), (b1,), (b2,) = _gains(rng, 1)

    def run():
        return call_cli(["region", "scalar", "--P", repr(power), "--a", repr(float(a)),
                         "--b1", repr(float(b1)), "--b2", repr(float(b2)), "--out", out_path])

    def check(rc):
        expect(rc == 0, f"exit code {rc}")
        r = read_json(out_path)
        high, low = cs(power, a, b1), cs(power, a, b2)
        expect(abs(r["cap_high"] - high) <= 1e-12 and abs(r["cap_low"] - low) <= 1e-12,
               "capacities differ from the closed form")
        expect(abs(r["corner"][0] - r["cap_high"]) <= 1e-15
               and abs(r["corner"][1] - (r["cap_low"] - r["cap_high"])) <= 1e-15,
               "corner is not (cap_high, cap_low - cap_high)")
        expect(r["naive_degenerate"] is False and r["corner_outside_naive"] is True,
               "corner should lie outside the separate-coding hull")
        return {}

    return Op("scalar", key, run, check)


def _fm_op(key: str, preset: str, golden: str, tmp: str) -> Op:
    out_path = os.path.join(tmp, f"{key}.txt")
    with open(golden, "rb") as f:
        want = f.read()

    def run():
        return call_cli(["fm", "derive", "--preset", preset, "--out", out_path])

    def check(rc):
        expect(rc == 0, f"exit code {rc}")
        with open(out_path, "rb") as f:
            expect(f.read() == want, f"text differs from {os.path.basename(golden)}")
        return {}

    return Op("fm_" + preset.replace("-", "_"), key, run, check)


def _random_channel(rng):
    """A channel whose weak-eavesdropper output is a degradation of the strong one."""
    nx = int(rng.integers(2, 4))
    py_x = rng.dirichlet(np.ones(3), size=nx)
    pz1_x = rng.dirichlet(np.ones(3), size=nx)
    pz2_x = pz1_x @ rng.dirichlet(np.ones(2), size=3)
    px = rng.dirichlet(np.ones(nx))
    return dmc.DmcTriple.independent(py_x, pz1_x, pz2_x), px


def _dmc_op(key: str, triple, px, tmp: str) -> Op:
    """``dmc region-point`` on a random channel, then ``dmc.check_degraded`` on it."""
    channel_file = os.path.join(tmp, f"{key}.channel.json")
    with open(channel_file, "w") as f:
        json.dump(triple.to_dict(), f)
    out_path = os.path.join(tmp, f"{key}.json")

    def run():
        rc = call_cli(["dmc", "region-point", "--channel", channel_file,
                       "--px", floats(px), "--out", out_path])
        return rc, dmc.check_degraded(triple, "z2_of_z1")

    def check(out):
        rc, res = out
        expect(rc == 0, f"exit code {rc}")
        r = read_json(out_path)
        expect(r["r1_max"] == max(0.0, r["raw_r1"]) and r["sum_max"] == max(0.0, r["raw_sum"]),
               "bounds are not the clamped information differences")
        # Z2 is degraded from Z1, so I(X;Z2) <= I(X;Z1)
        expect(r["raw_r1"] <= r["raw_sum"] + 1e-12, "R1 bound exceeds the sum-rate bound")
        expect(r["sum_max"] <= math.log2(len(px)) + 1e-12, "sum-rate bound exceeds H(X)")
        expect(res.degraded, f"degraded channel not recognised (residual {res.residual})")
        w = res.witness
        expect(bool((w >= -1e-9).all()) and np.allclose(w.sum(axis=1), 1.0, atol=1e-7),
               "witness is not a stochastic matrix")
        expect(np.allclose(triple.pz1_x @ w, triple.pz2_x, atol=1e-7),
               "witness does not reproduce the degraded output")
        return {}

    return Op("dmc", key, run, check)


def regions(seed: int, seconds: float, tmp: str, root: str):
    golden = os.path.join(root, "tests", "golden")

    def job(j):
        rng = stream(seed, 0, j)
        triple, px = _random_channel(rng)
        return [
            _pooled_op("sub2", f"sub2-s{seed}-j{j}", _gains(rng, 2), 1e-4, tmp),
            _scalar_op(f"scalar-s{seed}-j{j}", rng, tmp),
            _fm_op(f"fmnb-s{seed}-j{j}", "nested-binning",
                   os.path.join(golden, "nested_binning_region.txt"), tmp),
            _fm_op(f"fmlay-s{seed}-j{j}", "layered",
                   os.path.join(golden, "layered_region.txt"), tmp),
            _dmc_op(f"dmc-s{seed}-j{j}", triple, px, tmp),
        ]

    ops = []
    budget = seconds
    # The 4-subchannel op runs the weighted-sweep path, ~25 s whatever the run
    # length, so shorter runs leave it out.  Grid 4e-3 is the coarsest that keeps
    # four subchannels on that path (the default 1e-3 adds a fifth refinement
    # level and ~30% to a run that is already the longest).  Its gains are drawn
    # near-equal so that every weighted optimum is interior: the sweep then does
    # the same number of evaluations for every seed, where spread gains move it
    # between 7M and 18M and the run would time the draw.
    if seconds >= REGIONS_SUB4_MIN_RUN_S:
        rng = stream(seed, 4)
        a = rng.uniform(0.9, 1.1, 4)
        b1 = a * rng.uniform(0.2, 0.4, 4)
        gains = (a, b1, b1 * rng.uniform(0.2, 0.4, 4))
        ops.append(_pooled_op("sub4", f"sub4-s{seed}", gains, SUB4_GRID, tmp))
        budget -= REGIONS_SUB4_S
    reference = ((1.0, 1.0), (0.8, 0.25), (0.1, 0.1))
    ops.append(_pooled_op("sub2_reference", "sub2-reference", reference, 1e-4, tmp,
                          preset=True))
    for j in range(max(REGIONS_MIN_JOBS, int(budget / REGIONS_JOB_S))):
        ops.extend(job(j))
    warm = job(10**6)
    return ops, warm


WORKLOADS = {"certify": certify, "codec": codec, "leakage": leakage, "regions": regions}
