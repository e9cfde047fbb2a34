"""Every case of the golden CLI command list prints exactly its stored stdout,
CSV and exit code (see ``cli_golden`` for the list and how to regenerate)."""

import ast
import contextlib
import io
import itertools
import json
import pathlib
import runpy
import sys
import threading

import pytest

import cli_golden
import secembed
from secembed import coset

# The src functions that no golden case or quick demo calls, each kept for the reason given.
UNREACHED = {
    "binning.exact_leakage": "public API that perfbench/tracing.py patches by name; "
                             "the tests' single-request leakage oracle",
    "gf2.nullspace": "public API that perfbench/tracing.py patches by name; the tests' kernel oracle",
    "gf2.solve_affine": "public API that perfbench/tracing.py patches by name; "
                        "the tests' oracle for the encoder's affine sampler",
    "gf2.column_subset_dim": "public API that perfbench/tracing.py patches by name; "
                             "the tests' per-subset rank oracle",
    "coset.CosetCodePair.rows": "benchmark traffic: the codec workload's equivocation reads it",
    "coset.Observation.observed": "benchmark traffic: the codec workload's check reads it",
    "dmc.DmcTriple.to_dict": "benchmark traffic: the leakage and regions workloads write "
                             "their channel files with it",
}


@pytest.mark.parametrize("name", list(cli_golden.CASES))
def test_cli_output_matches_golden(name, tmp_path):
    code, stdout, csv = cli_golden.run_case(name, tmp_path)
    assert code == cli_golden.exit_codes()[name]
    assert stdout == (cli_golden.GOLDEN / f"{name}.out").read_text()
    if csv is not None:
        assert csv == (cli_golden.GOLDEN / f"{name}.csv").read_text()


def test_golden_list_has_no_stale_files():
    """Each stored output belongs to a case or a demo, so a renamed case leaves nothing."""
    want = {f"{name}.out" for name in cli_golden.CASES}
    want |= {f"{name}.csv" for name, argv in cli_golden.CASES.items() if "{csv}" in argv}
    want |= {cli_golden.demo_golden(name).name for name in cli_golden.DEMOS}
    have = {p.name for p in cli_golden.GOLDEN.iterdir() if p.suffix in (".out", ".csv")}
    assert have == want
    assert set(cli_golden.exit_codes()) == set(cli_golden.CASES)


def test_kernel_side_certificate_is_the_least_pair_equivocation():
    """d2* of the n = 32 bundle, which the kernel-side search certifies, is the least
    equivocation of both messages over all C(32, 2) = 496 observed pairs."""
    bundle = json.loads((cli_golden.GOLDEN / "code_construct_n32_kernel_side.out").read_text())
    code = coset.CosetCodePair.from_bundle(bundle)
    size = code.params.n_alpha2
    assert size == 2
    worst = min(coset.equivocation(code, pair, "both")
                for pair in itertools.combinations(range(code.n), size))
    assert worst == bundle["d2_star"] == 26


def src_functions() -> dict:
    """(resolved file, qualname) -> "module.qualname" of every def in src/, nested ones too."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                found[(path, qualname)] = f"{path.stem}.{qualname}"
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")

    for path in sorted(pathlib.Path(secembed.__file__).resolve().parent.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


def test_unreached_src_functions_are_the_kept_ones(tmp_path, monkeypatch):
    """Replay every golden case and quick demo in this process, recording each code
    object entered on any thread: a def that nothing reaches and that UNREACHED does
    not list is dead code, and a listed def that something reaches has lost its reason."""
    monkeypatch.chdir(tmp_path)  # demo 02 writes its CSVs to the working directory
    for module in [m for name, m in sys.modules.items() if name.startswith("secembed")]:
        for obj in vars(module).values():  # a cached call made before the hook is seen again
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    entered = set()

    def hook(frame, event, arg):
        entered.add(frame.f_code)

    outer = sys.getprofile(), threading.getprofile()
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        for name in cli_golden.CASES:
            cli_golden.run_case(name, tmp_path)
        for name in cli_golden.QUICK_DEMOS:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(cli_golden.DEMO_DIR / name), run_name="__main__")
    finally:
        sys.setprofile(outer[0])
        threading.setprofile(outer[1])
    reached = {(pathlib.Path(c.co_filename).resolve(), c.co_qualname) for c in entered}
    unreached = {name for key, name in src_functions().items() if key not in reached}
    assert unreached == set(UNREACHED)
