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
import stat
import sys

from secembed import binning, coset, dmc, fm, gauss


def _write(files) -> None:
    """Write each (path, text) pair in place once every path is open, so a
    path that cannot be opened leaves every destination as it was."""
    opened = []  # (file, path created here or None, text)
    try:
        for path, text in files:
            new = None if os.path.exists(path) else path
            opened.append((open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w"), new, text))
    except OSError:
        for f, new, _ in opened:
            f.close()
            if new:
                os.remove(os.path.realpath(new))  # a dangling symlink keeps its link
        raise
    for f, new, text in opened:
        with f:
            # a device or FIFO is not truncated, nor a file created empty above
            if not new and stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate(0)
            f.write(text)


def _emit(args, report, rows=None, header=("R1", "R2")) -> int:
    """Print the report, or write it to --out: a str as it is, a dict as sorted JSON.

    When ``rows`` is given, --csv also takes the table ``rows()`` under
    ``header``.  The rows are computed and every destination opened before
    anything is written or printed, so a domain error or a path that cannot
    be opened prints nothing and leaves every destination as it was.
    """
    csv = rows is not None and args.csv
    if csv and args.out and os.path.realpath(csv) == os.path.realpath(args.out):
        raise ValueError("--out and --csv name the same file")
    text = report if isinstance(report, str) else json.dumps(
        report, sort_keys=True, indent=2, allow_nan=False)
    files = [(args.out, text + "\n")] if args.out else []
    if csv:
        files.append((csv, ",".join(header) + "\n" + "".join(
            ",".join(f"{v:.12g}" for v in row) + "\n" for row in rows())))
    _write(files)
    if not args.out:
        print(text)
    return 0


def _floats(text: str, flag: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--{flag} must be comma-separated numbers, got {text!r}") from None


def _check_seed(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")


def _check_points(args):
    if not 2 <= args.points <= gauss.MAX_POINTS:
        raise ValueError(f"--points must be from 2 to {gauss.MAX_POINTS}, got {args.points}")


def _emit_corner_report(report: dict, high: str, low: str, args) -> int:
    """The report, then with --csv the boundary of {R1 <= report[high], R1 + R2 <= report[low]}."""
    cap_high, cap_low = report[high], report[low]
    return _emit(args, report, lambda: gauss.boundary_points(
        [(cap_high, cap_low)], cap_high, cap_low, args.points))


def _cmd_region_scalar(args) -> int:
    _check_points(args)
    ch = gauss.ScalarGaussChannel(power=args.P, a=args.a, b1=args.b1, b2=args.b2)
    return _emit_corner_report(gauss.region_scalar(ch), "cap_high", "cap_low", args)


def _parallel_channel(args, pooled: bool):
    """The pooled channel, or with fixed powers the list of its scalar subchannels."""
    flags = ("a", "b1", "b2") if pooled else ("a", "b1", "b2", "powers")
    if args.preset == "two-subchannel-reference":
        given = [f"--{flag}" for flag in flags + ("P",) * pooled
                 if getattr(args, flag) is not None]
        if given:
            raise ValueError(f"--preset fixes the channel; drop {', '.join(given)}")
        lists = [(1.0, 1.0), (0.8, 0.25), (0.1, 0.1), (0.5, 0.5)][:len(flags)]
    else:
        missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
        if missing:
            raise ValueError(f"missing {', '.join(missing)}; give them or --preset")
        lists = [_floats(getattr(args, flag), flag) for flag in flags]
    if pooled:
        try:
            return gauss.ParallelGaussChannel(*lists, 1.0 if args.P is None else args.P)
        except ValueError as exc:  # the power's messages start with its name
            flags = "--P" if str(exc).startswith("total power") else "--a, --b1, --b2"
            raise ValueError(f"{flags}: {exc}") from None
    if len(set(map(len, lists))) != 1:
        raise ValueError("--a, --b1, --b2 and --powers must have equal lengths")
    a, b1, b2, powers = lists
    subchannels = []
    for l, sub in enumerate(zip(powers, a, b1, b2)):
        try:
            subchannels.append(gauss.ScalarGaussChannel(*sub))
        except ValueError as exc:
            raise ValueError(f"--a, --b1, --b2 and --powers at l = {l}: {exc}") from None
    return subchannels


def _cmd_region_parallel(args) -> int:
    _check_points(args)
    subchannels = _parallel_channel(args, pooled=False)
    return _emit_corner_report(gauss.region_parallel_individual(subchannels), "cap_high_sum",
                               "cap_low_sum", args)


def _cmd_region_parallel_total(args) -> int:
    ch = _parallel_channel(args, pooled=True)
    if not args.grid > 0:
        raise ValueError("grid resolution must be positive")
    report = gauss.region_parallel_total(ch)
    return _emit(args, report, lambda: gauss.boundary_points(  # traced only for --csv
        gauss.pooled_frontier(ch, report), report["max_r1"], report["max_sum"], gauss.N_BOUNDARY))


def _wiretap_params(args) -> coset.WiretapIIParams:
    return coset.WiretapIIParams(n=args.n, alpha1=args.alpha1, alpha2=args.alpha2,
                                 eps=args.eps)


def _cmd_code_construct(args) -> int:
    _check_seed(args)
    code = coset.construct(_wiretap_params(args), seed=args.seed)
    return _emit(args, code.to_bundle(seed=args.seed))


def _cmd_code_audit(args) -> int:
    with open(args.bundle) as f:
        bundle = json.load(f)
    code = coset.CosetCodePair.from_bundle(bundle)
    report = coset.audit_code(code)
    _emit(args, report)
    return 0 if report["pass"] else 1


def _cmd_code_bound(args) -> int:
    return _emit(args, coset.union_bound_report(_wiretap_params(args), exact_counts=args.exact))


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
    for n in blocks:  # reject every block before simulating any
        binning._check_simulation(ch, px, rates, n, args.trials, not args.no_leakage)
    reports = [binning.simulate_nested_binning(ch, px, rates, n=n, trials=args.trials,
                                               seed=args.seed,
                                               measure_leakage=not args.no_leakage)
               for n in blocks]
    payload = {"seed": args.seed, "runs": reports} if len(reports) > 1 else reports[0]
    keys = ("n", "error_rate", "normalized_leak_m1_strong", "normalized_leak_messages_weak")
    rows = [[float("nan") if r[k] is None else r[k] for k in keys] for r in reports]
    return _emit(args, payload, lambda: rows,
                 ("n", "error_rate", "leak_m1_strong", "leak_messages_weak"))


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
        if not (isinstance(spec, dict) and all(k in spec for k in keys)):
            raise ValueError("--aux must hold a JSON object with pu, pv_u, px_v")
        bounds = dmc.region_point_full(ch, dmc.AuxiliaryChain(*(spec[k] for k in keys)))
    return _emit(args, bounds)


_FM_PRESETS = {
    "nested-binning": (fm.derive_nested_binning_region, ()),
    "layered": (fm.derive_layered_region, fm.LAYERED_ALIASES),
}


def _cmd_fm_derive(args) -> int:
    derive, aliases = _FM_PRESETS[args.preset]
    region = derive()
    return _emit(args, region.to_dict() if args.json else region.pretty(aliases=aliases))


def _options(**flags) -> argparse.ArgumentParser:
    """One option group, declared once; subcommands take it through parents=."""
    group = argparse.ArgumentParser(add_help=False)
    for name, kwargs in flags.items():
        group.add_argument("--" + name.replace("_", "-"), **kwargs)
    return group


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="secembed",
                                  description="security-embedding coding toolkit")
    sub = top.add_subparsers(dest="group", required=True)
    out, csv = _options(out={}), _options(csv={})
    points = _options(points=dict(type=int, default=gauss.N_BOUNDARY))
    gains = _options(a={}, b1={}, b2={})
    preset = _options(preset=dict(choices=["two-subchannel-reference"]))
    real = dict(type=float, required=True)
    wiretap = _options(n=dict(type=int, required=True), alpha1=real, alpha2=real, eps=real)
    seed = _options(seed=dict(type=int, required=True))
    channel = _options(channel=dict(help="channel JSON file"),
                       bec=dict(help="D1,D2: noiseless main + two erasure eavesdroppers"))

    region = sub.add_parser("region", help="Gaussian secrecy regions")
    rsub = region.add_subparsers(dest="cmd", required=True)

    rs = rsub.add_parser("scalar", help="scalar channel region and corner point",
                         parents=[points, out, csv])
    for flag in ("--P", "--a", "--b1", "--b2"):
        rs.add_argument(flag, type=float, required=True)
    rs.set_defaults(func=_cmd_region_scalar)

    rp = rsub.add_parser("parallel", help="per-subchannel power constraints",
                         parents=[gains, preset, points, out, csv])
    rp.add_argument("--powers")
    rp.set_defaults(func=_cmd_region_parallel)

    rt = rsub.add_parser("parallel-total", help="pooled power budget",
                         parents=[gains, preset, out, csv])
    rt.add_argument("--P", type=float, help="total power (default 1.0)")
    rt.add_argument("--grid", type=float, default=1e-3,
                    help="accepted for compatibility and must be positive; the "
                         "allocation is solved exactly and the result does not "
                         "depend on it")
    rt.set_defaults(func=_cmd_region_parallel_total)

    code = sub.add_parser("code", help="two-level coset codes")
    csub = code.add_subparsers(dest="cmd", required=True)

    cc = csub.add_parser("construct", help="rejection-sample a certified code",
                         parents=[wiretap, seed, out])
    cc.set_defaults(func=_cmd_code_construct)

    ca = csub.add_parser("audit", help="re-verify a code bundle exactly",
                         parents=[out])
    ca.add_argument("--bundle", required=True)
    ca.set_defaults(func=_cmd_code_audit)

    cb = csub.add_parser("bound", help="random-construction rejection bound",
                         parents=[wiretap, out])
    cb.add_argument("--exact", action="store_true",
                    help="exact binomial subset counts instead of the loose 2**n")
    cb.set_defaults(func=_cmd_code_bound)

    sim = sub.add_parser("sim", help="nested-binning simulation")
    ssub = sim.add_subparsers(dest="cmd", required=True)
    sd = ssub.add_parser("dmc", help="simulate one or more block lengths",
                         parents=[channel, seed, out, csv])
    sd.add_argument("--px", required=True)
    sd.add_argument("--rates", required=True, help="R1,R2,T in bits/use")
    sd.add_argument("--n", required=True, help="block length, or comma list for a sweep")
    sd.add_argument("--trials", type=int, default=200)
    sd.add_argument("--no-leakage", action="store_true")
    sd.set_defaults(func=_cmd_sim_dmc)

    dgroup = sub.add_parser("dmc", help="finite-alphabet region points")
    dsub = dgroup.add_subparsers(dest="cmd", required=True)
    dp = dsub.add_parser("region-point", help="evaluate rate bounds at a distribution",
                         parents=[channel, out])
    dp.add_argument("--px")
    dp.add_argument("--aux", help="JSON file with pu, pv_u, px_v")
    dp.set_defaults(func=_cmd_dmc_region_point)

    fmp = sub.add_parser("fm", help="symbolic rate-region derivation")
    fsub = fmp.add_subparsers(dest="cmd", required=True)
    fd = fsub.add_parser("derive", help="rederive a region from its constraints",
                         parents=[out])
    fd.add_argument("--preset", choices=sorted(_FM_PRESETS), required=True)
    fd.add_argument("--json", action="store_true")
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
