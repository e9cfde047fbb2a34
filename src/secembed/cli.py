"""Command-line front end.

One binary with subcommand groups:

    region scalar | parallel | parallel-total
    code construct | audit | bound
    sim dmc
    dmc region-point
    fm derive

All outputs are deterministic for a fixed seed: JSON is emitted with
sorted keys and no timestamps, and every randomized artifact records
its seed.  Exit codes: 0 success, 1 domain error (machine-readable
error JSON on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from secembed import binning, coset, dmc, fm, gauss

OUT_DIR_ENV = "SECEMBED_OUT_DIR"


def _resolve(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit_text(text: str, out: str | None):
    path = _resolve(out)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _emit_json(payload: dict, out: str | None):
    _emit_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False), out)


def _emit_csv(rows, header, path: str):
    with open(_resolve(path), "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.12g}" for v in row) + "\n")


def _floats(text: str, flag: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--{flag} must be comma-separated numbers, got {text!r}") from None


def _check_seed(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")


def _check_points(args):
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")


def _emit_corner_csv(cap_high: float, cap_low: float, args):
    """Boundary CSV of {R1 <= cap_high, R1 + R2 <= cap_low}."""
    pts = gauss.boundary_points([(cap_high, cap_low)], cap_high, cap_low, args.points)
    _emit_csv(pts, ("R1", "R2"), args.csv)


def _cmd_region_scalar(args) -> int:
    _check_points(args)
    ch = gauss.ScalarGaussChannel(power=args.P, a=args.a, b1=args.b1, b2=args.b2)
    res = gauss.region_scalar(ch)
    naive = gauss.naive_region(ch)
    payload = {
        "channel": {"P": args.P, "a": args.a, "b1": args.b1, "b2": args.b2},
        "cap_high": res.cap_high,
        "cap_low": res.cap_low,
        "corner": list(res.corner),
        "naive_degenerate": naive.degenerate,
        "corner_outside_naive": (None if naive.degenerate
                                 else naive.hull_violation(res.corner) > 0),
    }
    _emit_json(payload, args.out)
    if args.csv:
        _emit_corner_csv(res.cap_high, res.cap_low, args)
    return 0


def _parallel_channel(args, pooled: bool) -> gauss.ParallelGaussChannel:
    if getattr(args, "preset", None) == "two-subchannel-reference":
        a, b1, b2 = (1.0, 1.0), (0.8, 0.25), (0.1, 0.1)
        total = 1.0
        if pooled:
            return gauss.ParallelGaussChannel(a=a, b1=b1, b2=b2, total_power=total)
        return gauss.ParallelGaussChannel(a=a, b1=b1, b2=b2, powers=(0.5, 0.5))
    flags = ("a", "b1", "b2") if pooled else ("a", "b1", "b2", "powers")
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}; give them or --preset")
    kwargs = {flag: _floats(getattr(args, flag), flag) for flag in flags}
    if pooled:
        kwargs["total_power"] = args.P
    return gauss.ParallelGaussChannel(**kwargs)


def _cmd_region_parallel(args) -> int:
    _check_points(args)
    ch = _parallel_channel(args, pooled=False)
    res = gauss.region_parallel_individual(ch)
    _emit_json(res.to_dict(), args.out)
    if args.csv:
        _emit_corner_csv(res.cap_high_sum, res.cap_low_sum, args)
    return 0


def _cmd_region_parallel_total(args) -> int:
    ch = _parallel_channel(args, pooled=True)
    if not args.grid > 0:
        raise ValueError("grid resolution must be positive")
    bnd = gauss.region_parallel_total(ch)
    _emit_json(bnd.to_dict(), args.out)
    if args.csv:
        _emit_csv(bnd.points, ("R1", "R2"), args.csv)
    return 0


def _cmd_code_construct(args) -> int:
    _check_seed(args)
    params = coset.WiretapIIParams(n=args.n, alpha1=args.alpha1, alpha2=args.alpha2,
                                   eps=args.eps)
    code = coset.construct(params, seed=args.seed, max_attempts=args.max_attempts,
                           node_limit=args.node_limit)
    _emit_json(code.to_bundle(seed=args.seed), args.out)
    return 0


def _cmd_code_audit(args) -> int:
    with open(args.bundle) as f:
        bundle = json.load(f)
    code = coset.CosetCodePair.from_bundle(bundle)
    report = coset.audit_code(code, node_limit=args.node_limit)
    _emit_json(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_code_bound(args) -> int:
    params = coset.WiretapIIParams(n=args.n, alpha1=args.alpha1, alpha2=args.alpha2,
                                   eps=args.eps)
    report = coset.union_bound_report(params, exact_counts=args.exact)
    _emit_json(report.to_dict(), args.out)
    return 0


def _load_channel(args) -> dmc.DmcTriple:
    if args.channel:
        with open(args.channel) as f:
            return dmc.DmcTriple.from_dict(json.load(f))
    if args.bec:
        deltas = _floats(args.bec, "bec")
        if len(deltas) != 2:
            raise ValueError(f"--bec must be two erasure probabilities D1,D2, got {args.bec!r}")
        d1, d2 = deltas
        return dmc.DmcTriple.independent(dmc.noiseless_kernel(2),
                                         dmc.bec_kernel(d1), dmc.bec_kernel(d2))
    raise ValueError("give either --channel FILE or --bec D1,D2")


def _cmd_sim_dmc(args) -> int:
    _check_seed(args)
    ch = _load_channel(args)
    px = _floats(args.px, "px")
    rates = _floats(args.rates, "rates")
    try:
        blocks = [int(x) for x in args.n.split(",")]
    except ValueError:
        raise ValueError(f"--n must be comma-separated integers, got {args.n!r}") from None
    for n in blocks:
        binning.rates_to_counts(rates, n)  # reject every block before simulating any
    reports = []
    for n in blocks:
        rep = binning.simulate_nested_binning(
            ch, px, rates, n=n, trials=args.trials, seed=args.seed,
            codebook_budget=args.codebook_budget, leakage_budget=args.leakage_budget,
            measure_leakage=not args.no_leakage)
        reports.append(rep)
    payload = {"seed": args.seed, "runs": [r.to_dict() for r in reports]}
    _emit_json(payload if len(reports) > 1 else reports[0].to_dict(), args.out)
    if args.csv:
        fields = ("error_rate", "leak_m1_strong", "leak_messages_weak")
        rows = [(r.n, *(float("nan") if getattr(r, f) is None else getattr(r, f) for f in fields))
                for r in reports]
        _emit_csv(rows, ("n", *fields), args.csv)
    return 0


def _cmd_dmc_region_point(args) -> int:
    ch = _load_channel(args)
    if (args.px is None) == (args.aux is None):
        raise ValueError("give exactly one of --px or --aux")
    if args.px is not None:
        bounds = dmc.region_point_simple(ch, _floats(args.px, "px"))
    else:
        with open(args.aux) as f:
            spec = json.load(f)
        keys = ("pu", "pv_u", "px_v")
        if not isinstance(spec, dict) or any(
                np.asarray(spec.get(k)).dtype.kind not in "iuf" for k in keys):
            raise ValueError("--aux must hold a JSON object with pu, pv_u, px_v")
        aux = dmc.AuxiliaryChain(*(np.asarray(spec[k], dtype=float) for k in keys))
        bounds = dmc.region_point_full(ch, aux)
    _emit_json(bounds.to_dict(), args.out)
    return 0


_FM_PRESETS = {
    "nested-binning": (fm.derive_nested_binning_region, ()),
    "layered": (fm.derive_layered_region, fm.LAYERED_ALIASES),
}


def _cmd_fm_derive(args) -> int:
    derive, aliases = _FM_PRESETS[args.preset]
    region = derive()
    if args.json:
        _emit_json(region.to_dict(), args.out)
    else:
        _emit_text(region.pretty(aliases=aliases), args.out)
    return 0


def _add_budget_args(p):
    p.add_argument("--node-limit", type=int, default=20_000_000,
                   help="hard node cap for the exact certificate search")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="secembed",
                                  description="security-embedding coding toolkit")
    sub = top.add_subparsers(dest="group", required=True)

    region = sub.add_parser("region", help="Gaussian secrecy regions")
    rsub = region.add_subparsers(dest="cmd", required=True)

    rs = rsub.add_parser("scalar", help="scalar channel region and corner point")
    rs.add_argument("--P", type=float, required=True)
    rs.add_argument("--a", type=float, required=True)
    rs.add_argument("--b1", type=float, required=True)
    rs.add_argument("--b2", type=float, required=True)
    rs.add_argument("--points", type=int, default=201)
    rs.add_argument("--out")
    rs.add_argument("--csv")
    rs.set_defaults(func=_cmd_region_scalar)

    rp = rsub.add_parser("parallel", help="per-subchannel power constraints")
    rp.add_argument("--a")
    rp.add_argument("--b1")
    rp.add_argument("--b2")
    rp.add_argument("--powers")
    rp.add_argument("--preset", choices=["two-subchannel-reference"])
    rp.add_argument("--points", type=int, default=201)
    rp.add_argument("--out")
    rp.add_argument("--csv")
    rp.set_defaults(func=_cmd_region_parallel)

    rt = rsub.add_parser("parallel-total", help="pooled power budget")
    rt.add_argument("--a")
    rt.add_argument("--b1")
    rt.add_argument("--b2")
    rt.add_argument("--P", type=float, default=1.0)
    rt.add_argument("--preset", choices=["two-subchannel-reference"])
    rt.add_argument("--grid", type=float, default=1e-3,
                    help="accepted for compatibility and must be positive; the "
                         "allocation is solved exactly and the result does not "
                         "depend on it")
    rt.add_argument("--out")
    rt.add_argument("--csv")
    rt.set_defaults(func=_cmd_region_parallel_total)

    code = sub.add_parser("code", help="two-level coset codes")
    csub = code.add_subparsers(dest="cmd", required=True)

    cc = csub.add_parser("construct", help="rejection-sample a certified code")
    cc.add_argument("--n", type=int, required=True)
    cc.add_argument("--alpha1", type=float, required=True)
    cc.add_argument("--alpha2", type=float, required=True)
    cc.add_argument("--eps", type=float, required=True)
    cc.add_argument("--seed", type=int, required=True)
    cc.add_argument("--max-attempts", type=int, default=100)
    _add_budget_args(cc)
    cc.add_argument("--out")
    cc.set_defaults(func=_cmd_code_construct)

    ca = csub.add_parser("audit", help="re-verify a code bundle exactly")
    ca.add_argument("--bundle", required=True)
    _add_budget_args(ca)
    ca.add_argument("--out")
    ca.set_defaults(func=_cmd_code_audit)

    cb = csub.add_parser("bound", help="random-construction rejection bound")
    cb.add_argument("--n", type=int, required=True)
    cb.add_argument("--alpha1", type=float, required=True)
    cb.add_argument("--alpha2", type=float, required=True)
    cb.add_argument("--eps", type=float, required=True)
    cb.add_argument("--exact", action="store_true",
                    help="exact binomial subset counts instead of the loose 2**n")
    cb.add_argument("--out")
    cb.set_defaults(func=_cmd_code_bound)

    sim = sub.add_parser("sim", help="nested-binning simulation")
    ssub = sim.add_subparsers(dest="cmd", required=True)
    sd = ssub.add_parser("dmc", help="simulate one or more block lengths")
    sd.add_argument("--channel", help="channel JSON file")
    sd.add_argument("--bec", help="D1,D2: noiseless main + two erasure eavesdroppers")
    sd.add_argument("--px", required=True)
    sd.add_argument("--rates", required=True, help="R1,R2,T in bits/use")
    sd.add_argument("--n", required=True, help="block length, or comma list for a sweep")
    sd.add_argument("--trials", type=int, default=200)
    sd.add_argument("--seed", type=int, required=True)
    sd.add_argument("--codebook-budget", type=int, default=2**20)
    sd.add_argument("--leakage-budget", type=int, default=2**24)
    sd.add_argument("--no-leakage", action="store_true")
    sd.add_argument("--out")
    sd.add_argument("--csv")
    sd.set_defaults(func=_cmd_sim_dmc)

    dgroup = sub.add_parser("dmc", help="finite-alphabet region points")
    dsub = dgroup.add_subparsers(dest="cmd", required=True)
    dp = dsub.add_parser("region-point", help="evaluate rate bounds at a distribution")
    dp.add_argument("--channel")
    dp.add_argument("--bec")
    dp.add_argument("--px")
    dp.add_argument("--aux", help="JSON file with pu, pv_u, px_v")
    dp.add_argument("--out")
    dp.set_defaults(func=_cmd_dmc_region_point)

    fmp = sub.add_parser("fm", help="symbolic rate-region derivation")
    fsub = fmp.add_subparsers(dest="cmd", required=True)
    fd = fsub.add_parser("derive", help="rederive a region from its constraints")
    fd.add_argument("--preset", choices=sorted(_FM_PRESETS), required=True)
    fd.add_argument("--json", action="store_true")
    fd.add_argument("--out")
    fd.set_defaults(func=_cmd_fm_derive)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, IndexError, OSError, RuntimeError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
