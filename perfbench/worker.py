"""One workload in one process: set up, run the op list, check every output.

Run by ``run.py``; prints ``READY`` once set-up (imports, input generation and
warm-up) is done.  With ``--setup-only`` it then prints ``PROBE <seconds>``, the
host-speed probe's time, and exits; otherwise it runs the timed phase and
prints a JSON report as its last line.  With ``--trace 1`` the timed phase
runs every op traced instead, for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SELF_TIME_TOLERANCE = 0.05
PAIR_EVERY = 4  # traced runs that also get an untraced twin, for the overhead


def import_program() -> float:
    """Import secembed from this checkout's sources; returns the import time."""
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import secembed
    from secembed import binning, cli, coset, dmc, fm, gauss, gf2  # noqa: F401

    if Path(secembed.__file__).resolve().parent != ROOT / "src" / "secembed":
        raise ImportError(f"secembed imported from {secembed.__file__}, not this checkout")
    return perf_counter() - start


def run_one(op, run=None):
    """Run one op; returns (output, error message or None)."""
    try:
        return (run or op.run)(), None
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        return None, f"{type(exc).__name__}: {exc}"


def timed_pass(ops, probe):
    """Run every op once, timing ``probe`` between ops; checks come later.

    Returns (run_s, latencies, midpoints, outputs); run_s excludes probe time.
    """
    latencies, midpoints, outputs = [], [], []
    probe.once()
    spent = probe.spent
    start = perf_counter()
    for op in ops:
        probe.when_due()
        t = perf_counter()
        outputs.append(run_one(op))
        end = perf_counter()
        latencies.append(end - t)
        midpoints.append((t + end) / 2)
    run_s = perf_counter() - start - (probe.spent - spent)
    probe.once()
    return run_s, latencies, midpoints, outputs


def compare(values: dict, ref: dict) -> list[str]:
    bad = []
    for field, want in ref.items():
        if field not in values:
            bad.append(f"{field} missing")
            continue
        got, tol = values[field]
        if abs(got - want) > tol:
            bad.append(f"{field} = {got!r}, reference {want!r} (tolerance {tol})")
    return bad


def check_pass(ops, outputs, reference: dict, first: int = 0):
    """Check every output; returns (failures, observed reference values)."""
    failures, observed = [], {}
    for i, (op, (out, error)) in enumerate(zip(ops, outputs), first):
        if error is None:
            try:
                values = op.check(out)
            except Exception as exc:  # a malformed output fails its check
                error = f"{type(exc).__name__}: {exc}"
            else:
                if values:
                    observed[op.key] = {k: v for k, (v, _) in values.items()}
                bad = compare(values, reference.get(op.key, {}))
                if bad:
                    error = "reference: " + "; ".join(bad)
        if error is not None:
            failures.append({"op": i, "kind": op.kind, "key": op.key, "error": error})
    return failures, observed


def build(name: str, seed: int, seconds: float, tmp: str):
    import workloads

    ops, warm = workloads.WORKLOADS[name](seed, seconds, tmp, str(ROOT))
    for op in warm:  # loads lazy imports and code paths; checked in the timed phase
        try:
            op.run()
        except Exception:
            pass
    return ops


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict,
                 tmp: str, ready=lambda: None) -> dict:
    import_s = import_program()
    ops = build(name, seed, seconds, tmp)
    ready()
    report = {"workload": name, "seed": seed, "seconds": seconds, "import_s": import_s}
    if trace:
        report["trace"] = traced_run(ops, reference, report)
        return report
    import hostspeed

    probe = hostspeed.Probe()
    run_s, latencies, midpoints, outputs = timed_pass(ops, probe)
    failures, observed = check_pass(ops, outputs, reference)
    factors = probe.factors(midpoints)
    normalized = [lat * f for lat, f in zip(latencies, factors)]
    report.update({
        "run_s": run_s,
        "run_s_normalized": run_s * sum(normalized) / sum(latencies),
        "probe_s": probe.typical(),
        "probes": probe.samples,
        "ops": [{"kind": op.kind, "key": op.key, "latency_s": lat, "normalized_s": nl}
                for op, lat, nl in zip(ops, latencies, normalized)],
        "attempted": len(ops), "failures": failures, "observed": observed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return report


def traced_run(ops, reference: dict, report: dict) -> dict:
    """Run every op traced, every PAIR_EVERY-th op also untraced, then derive the
    layer metrics.

    Each untraced twin runs back to back with its traced run, which cancels the
    drift of a shared host's speed (larger over a whole pass than the tracing
    overhead); the order alternates so that neither run always finds warm caches.
    """
    import tracing

    tracer = tracing.Tracer()
    traced_s = 0.0
    paired = {False: 0.0, True: 0.0}
    report["failures"] = []
    for i, op in enumerate(ops):
        if i % PAIR_EVERY:
            runs = (True,)
        else:
            runs = (False, True) if i // PAIR_EVERY % 2 == 0 else (True, False)
        for traced in runs:
            if traced:
                tracer.install()
            t = perf_counter()
            try:
                out = run_one(op, (lambda: tracer.run_op(i, op.run)) if traced else None)
            finally:
                spent = perf_counter() - t
                if traced:
                    tracer.uninstall()
                    traced_s += spent
                if len(runs) == 2:
                    paired[traced] += spent
            failures, _ = check_pass([op], [out], reference, i)
            report["failures"] += [dict(f, traced=traced) for f in failures]
    report["attempted"] = len(ops) + len(range(0, len(ops), PAIR_EVERY))
    run_s = traced_s
    summary = tracer.summary()
    # self times partition the root op spans, so they must add up to the traced time
    coverage = sum(summary["self_s"].values()) / run_s
    if not abs(coverage - 1.0) <= SELF_TIME_TOLERANCE:
        report["failures"].append({"op": -1, "kind": "trace", "key": "self_time_coverage",
                                   "error": f"self times sum to {coverage:.4f} of run_s"})
    spans_file = OUT_DIR / f"{report['workload']}-seed{report['seed']}.spans.csv"
    tracer.write(spans_file)
    metrics = tracing.layer_metrics(tracer, summary, paired[True] / paired[False] - 1.0)
    metrics["import.s"] = (report["import_s"], "s")
    return {"run_s": run_s, "paired_s": paired, "self_time_coverage": coverage,
            "spans_file": str(spans_file), "span_count": len(tracer.spans), "summary": summary,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    with open(REFERENCE) as f:
        reference = json.load(f)["workloads"].get(args.workload, {})

    def ready():
        print("READY", flush=True)
        if args.setup_only:
            import hostspeed

            probe = hostspeed.Probe()
            for _ in range(hostspeed.SMOOTH):
                probe.once()
            print(f"PROBE {probe.typical()!r}", flush=True)
            raise SystemExit(0)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              reference, tmp, ready)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report["versions"] = versions()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
