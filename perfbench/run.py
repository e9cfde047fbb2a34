"""secembed benchmark: one workload per invocation, closed loop, one op in flight.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Runs the workload's op list in a worker process of its own (so its peak RSS
is the workload's), after two set-up-only workers that give ``setup_s`` a
median of three.  Prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) with their units, writes the full record
(environment, per-op latencies, failures) to ``perfbench/out/``, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
Exits non-zero without that line when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from hostspeed import PROBE_REF_S
from worker import OUT_DIR, ROOT

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify", "codec", "leakage", "regions")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15.0
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 170.0
# op_tail_s is the highest of these percentiles with >= 10 ops beyond it; the
# ladder stops at p95 because p99 of millisecond codec ops tracks host jitter.
TAIL_LADDER = (95, 90, 75, 50)
TAIL_MIN_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list) -> tuple[float, str]:
    """Run a worker; returns (seconds from spawn to READY, last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = perf_counter()
    setup, last = None, ""
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if setup is None and line.strip() == "READY":
                    setup = perf_counter() - start
                if line.strip():
                    last = line
        finally:
            timer.cancel()
        code = proc.wait()
    if code != 0 or setup is None:
        raise WorkerFailed(f"worker {' '.join(args)} exited with code {code}")
    return setup, last


def nearest_rank(sorted_values: list, pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def tail(latencies: list) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) for the highest qualifying ladder percentile."""
    values = sorted(latencies)
    n = len(values)
    for pct in TAIL_LADDER:
        beyond = n - math.ceil(pct / 100.0 * n)
        if beyond >= TAIL_MIN_BEYOND:
            return nearest_rank(values, pct), pct, beyond
    return values[-1], 100.0, 0  # fewer than 20 ops: only the maximum is left


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(), "git_commit": git_commit(),
            "seed": seed, "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def times(run_s: float, latencies: list, setups: list) -> dict:
    value, pct, beyond = tail(latencies)
    return {"run_s": run_s, "op_p50_s": statistics.median(latencies), "op_tail_s": value,
            "setup_s": statistics.median(setups), "tail_percentile": pct,
            "ops": len(latencies), "ops_beyond_tail": beyond}


def end_to_end(report: dict, setups: list) -> tuple[dict, dict]:
    """Host-normalized end-to-end metrics, plus the raw wall times for the record."""
    normalized = times(report["run_s_normalized"],
                       [op["normalized_s"] for op in report["ops"]],
                       [s * PROBE_REF_S / probe for s, probe in setups])
    raw = times(report["run_s"], [op["latency_s"] for op in report["ops"]],
                [s for s, _ in setups])
    metrics = {name: (normalized[name], "s")
               for name in ("run_s", "op_p50_s", "op_tail_s", "setup_s")}
    metrics["peak_rss_mb"] = (report["peak_rss_mb"], "MB")
    return metrics, {"normalized": normalized, "raw": raw}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []  # (seconds, probe seconds measured right after set-up)
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setup, last = spawn(worker_args + ["--setup-only"])
                setups.append((setup, float(last.split()[1])))
        setup, last = spawn(worker_args)
        report = json.loads(last)
        if not args.trace:
            setups.append((setup, report["probe_s"]))
    except (WorkerFailed, json.JSONDecodeError, IndexError, ValueError) as exc:
        sys.stderr.write(f"benchmark could not run: {exc}\n")
        return 1

    attempted = report["attempted"]
    failed = len({(f["op"], f.get("traced", False)) for f in report["failures"]})
    record = {"environment": environment(args.seed), "setup_samples": setups,
              "worker": report}
    if args.trace:
        metrics = {k: (m["value"], m["unit"]) for k, m in report["trace"]["metrics"].items()}
    else:
        metrics, record["times"] = end_to_end(report, setups)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  failed {failed}")
    raw = record.get("times", {}).get("raw", {})
    for name, (value, unit) in metrics.items():
        wall = f"   ({raw[name]:.6g} s wall)" if name in raw else ""
        print(f"  {name:32s} {value:14.6g} {unit}{wall}")
    if not args.trace:
        t = raw
        print(f"  op_tail_s is p{t['tail_percentile']:g} of {t['ops']} ops, "
              f"{t['ops_beyond_tail']} beyond it")
        print(f"  {'fail_frac':32s} {failed / attempted:14.6g} ratio")
    for f in report["failures"][:10]:
        print(f"  FAILED op {f['op']} ({f['kind']} {f['key']}): {f['error']}")
    print(f"  record: {out_file.relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
