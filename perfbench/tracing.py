"""Span tracing at the public-function boundaries of the secembed layers.

Tracing is installed from the benchmark's own files: each traced function is
replaced by a wrapper on the attribute its callers look it up through (a
module global, a class attribute, or the CLI's preset table).  Spans are kept
in memory as ``[name, start, end, parent, op]`` lists and written out when the
run ends.  Functions called millions of times (``gauss.cs_scalar``) get a
count-only wrapper, because a span per call would dominate the run.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.sim_n: dict[int, int] = {}
        self._undo: list = []

    def _record(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
                if after is not None:
                    after(idx, *args, **kwargs)

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, after=None):
        self._patch(owner, attr, self._record(name, getattr(owner, attr), after))

    def count(self, owner, attr, name):
        self._patch(owner, attr, self._count(name, getattr(owner, attr)))

    def run_op(self, op_id, fn):
        """Run one benchmark op under a root span."""
        self.op = op_id
        return self._record(ROOT, fn)()

    def install(self):
        from secembed import binning, cli, coset, dmc, fm, gauss, gf2

        for attr, name in [
            ("min_rank_over_column_subsets", "gf2.min_rank"),
            ("rank", "gf2.rank"),
            ("nullspace", "gf2.nullspace"),
            ("solve_affine", "gf2.solve_affine"),
            ("column_subset_dim", "gf2.column_subset_dim"),
            ("random_matrix", "gf2.random_matrix"),
            ("matrix_to_text", "gf2.text"),
            ("matrix_from_text", "gf2.text"),
        ]:
            self.span(gf2, attr, name)
        for attr in ("construct", "audit_code", "worst_case_security", "encode",
                     "decode", "eavesdrop", "equivocation"):
            self.span(coset, attr, f"coset.{attr}")

        def remember_n(idx, ch, px, rates, n, *a, **k):
            self.sim_n[idx] = n

        self.span(binning, "simulate_nested_binning", "binning.simulate", after=remember_n)
        self.span(binning, "make_codebook", "binning.codebook")
        self.span(binning, "exact_leakage", "binning.leakage_general")

        def count_trials(idx, codebook, py_x, trials, *a, **k):
            self.counts["binning.decode.trials"] += trials

        self.span(binning, "empirical_error_rate", "binning.decode", after=count_trials)
        self.span(gauss, "region_parallel_total",
                  lambda ch, *a, **k: f"gauss.parallel_total_sub{ch.n_sub}")
        self.span(gauss, "region_scalar", "gauss.region_scalar")
        self.span(gauss, "naive_region", "gauss.naive_region")
        self.count(gauss, "cs_scalar", "gauss.cs_scalar")
        self.span(fm.LinIneqSystem, "eliminate", "fm.eliminate")
        self.span(fm.LinIneqSystem, "is_feasible", "fm.is_feasible")
        self._patch(cli, "_FM_PRESETS", {
            key: (self._record("fm.derive", derive), aliases)
            for key, (derive, aliases) in cli._FM_PRESETS.items()})
        self.span(dmc, "check_degraded", "dmc.check_degraded")
        self.span(dmc, "region_point_simple", "dmc.region_point")
        self.span(cli, "main", "cli.main")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-name calls, total time and self time, plus the count-only wrappers."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(self_time),
                "counts": dict(self.counts)}

    def construct_attempts(self) -> int:
        """random_matrix calls made inside coset.construct spans."""
        names = [s[0] for s in self.spans]
        attempts = 0
        for name, _, _, parent, _ in self.spans:
            if name != "gf2.random_matrix":
                continue
            while parent >= 0 and names[parent] != "coset.construct":
                parent = self.spans[parent][3]
            attempts += parent >= 0
        return attempts

    def erasure_patterns(self) -> int:
        """Sum of 2**n over simulate calls that took the erasure leakage path.

        A simulate span without a general-path child computed its leakage by
        the reveal-pattern decomposition, which visits 2**n patterns.
        """
        general_parents = {s[3] for s in self.spans if s[0] == "binning.leakage_general"}
        return sum(2 ** n for i, n in self.sim_n.items() if i not in general_parents)

    def write(self, path):
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                f.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def per_call_us(summary: dict, name: str) -> float:
    calls = summary["calls"].get(name, 0)
    return summary["total_s"].get(name, 0.0) / calls * 1e6 if calls else 0.0


def layer_metrics(tracer: Tracer, s: dict, overhead: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced run.

    ``s`` is ``tracer.summary()``; ``overhead`` is the traced time over the
    untraced time of the same ops, less one.
    """
    total, self_s, calls, counts = s["total_s"], s["self_s"], s["calls"], s["counts"]
    attempts = tracer.construct_attempts()
    patterns = tracer.erasure_patterns()
    leak_self = self_s.get("binning.simulate", 0.0)
    return {
        "gf2.min_rank.s": (total.get("gf2.min_rank", 0.0), "s"),
        "gf2.min_rank.calls": (calls.get("gf2.min_rank", 0), "count"),
        "gf2.rank.s": (total.get("gf2.rank", 0.0), "s"),
        "gf2.rank.calls": (calls.get("gf2.rank", 0), "count"),
        "coset.construct.attempts": (attempts, "count"),
        "coset.construct.accept_ratio": (
            calls.get("coset.construct", 0) / attempts if attempts else 0.0, "ratio"),
        "gf2.solve_affine.us_per_call": (per_call_us(s, "gf2.solve_affine"), "us"),
        "gf2.nullspace.s": (total.get("gf2.nullspace", 0.0), "s"),
        "coset.encode.us_per_call": (per_call_us(s, "coset.encode"), "us"),
        "coset.equivocation.us_per_call": (per_call_us(s, "coset.equivocation"), "us"),
        "binning.leakage.self_s": (leak_self, "s"),
        "binning.leakage.patterns": (patterns, "count"),
        "binning.leakage.us_per_pattern": (
            leak_self / patterns * 1e6 if patterns else 0.0, "us"),
        "binning.leakage_general.s": (total.get("binning.leakage_general", 0.0), "s"),
        "binning.decode.s": (total.get("binning.decode", 0.0), "s"),
        "binning.decode.trials": (counts.get("binning.decode.trials", 0), "count"),
        "binning.codebook.s": (total.get("binning.codebook", 0.0), "s"),
        "gauss.parallel_total_sub4.s": (total.get("gauss.parallel_total_sub4", 0.0), "s"),
        "gauss.parallel_total_sub2.s": (total.get("gauss.parallel_total_sub2", 0.0), "s"),
        "gauss.cs_scalar.calls": (counts.get("gauss.cs_scalar", 0), "count"),
        "fm.derive.s": (total.get("fm.derive", 0.0), "s"),
        "fm.eliminate.calls": (calls.get("fm.eliminate", 0), "count"),
        "fm.is_feasible.calls": (calls.get("fm.is_feasible", 0), "count"),
        "fm.is_feasible.s": (total.get("fm.is_feasible", 0.0), "s"),
        "dmc.check_degraded.s": (total.get("dmc.check_degraded", 0.0), "s"),
        "dmc.region_point.s": (total.get("dmc.region_point", 0.0), "s"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
        "trace_overhead_frac": (overhead, "frac"),
    }
