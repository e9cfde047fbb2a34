"""Golden CLI outputs: a fixed command list with its exact stdout and exit code.

``tests/golden/cli/`` holds, for each case below, ``<name>.out`` (stdout byte
for byte) and, for a ``--csv`` case, ``<name>.csv``; ``exit_codes.json`` maps
every case to its exit code.  ``demo_<script stem>.out`` is the stdout of each
demo, and ``acceptance_<k>.txt`` the ACCEPTANCE line of criterion k.  The
files the commands read sit beside them: ``input_bsc_channel.json``,
``input_aux.json``, and the bundles that the ``code construct`` cases print.

``tests/test_cli_golden.py``, ``tests/test_demos.py`` and the criteria of
``tests/test_acceptance.py`` compare against these files.  After an intended
output change, regenerate the files it touches, named by file stem (a case, a
``demo_<script stem>`` or an ``acceptance_<k>``), or every file with no names
(criterion 6 takes a few minutes), and name each changed file and the reason
in CHANGES.md:

    PYTHONPATH=src python tests/cli_golden.py code_construct_seed1 code_audit_seed1
    PYTHONPATH=src python tests/cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import secembed
from secembed import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli"
DEMO_DIR = pathlib.Path(__file__).resolve().parents[1] / "demos"
QUICK_DEMOS = (
    "01_coset_code_walkthrough.py",
    "02_gaussian_regions.py",
    "04_rate_region_derivation.py",
    "05_degradation_and_embeddability.py",
)
SLOW_DEMO = "03_nested_binning_simulation.py"  # an n = 16 exact-leakage pass, about 8 s
DEMOS = (*QUICK_DEMOS, SLOW_DEMO)

_RATES = ["--alpha1", "0.5", "--alpha2", "0.25", "--eps", "0.25"]
_CODE = ["--n", "16", *_RATES]
_BOUND = ["code", "bound", "--n", "32", *_RATES]
_SIM = ["sim", "dmc", "--px", "0.5,0.5", "--rates", "0.25,0.25,0.39624062518028907",
        "--trials", "400", "--seed", "1"]
_REGIONS = {
    "region_scalar": ["region", "scalar", "--P", "1", "--a", "1", "--b1", "0.5", "--b2", "0.1",
                      "--points", "21"],
    "region_parallel": ["region", "parallel", "--preset", "two-subchannel-reference",
                        "--points", "21"],
    "region_parallel_total": ["region", "parallel-total", "--a", "1,1.2,0.9",
                              "--b1", "0.5,0.3,0.4", "--b2", "0.1,0.1,0.1", "--P", "1"],
}

# Case name -> argv; "{golden}" is this directory, "{csv}" a scratch CSV path.
CASES = {
    **{f"code_construct_seed{s}": ["code", "construct", *_CODE, "--seed", str(s)]
       for s in (1, 2, 3)},
    **{f"code_audit_seed{s}": ["code", "audit", "--bundle", f"{{golden}}/code_construct_seed{s}.out"]
       for s in (1, 2, 3)},
    # d2* searches the kernel side and d1* reduces rows per support: the min-rank
    # paths that the n = 16 cases, which list and count on the row side, skip
    "code_construct_n32_kernel_side": ["code", "construct", "--n", "32", "--alpha1", "0.25",
                                       "--alpha2", "0.0625", "--eps", "0.0625", "--seed", "1"],
    "code_audit_n32_kernel_side": ["code", "audit", "--bundle",
                                   "{golden}/code_construct_n32_kernel_side.out"],
    # neither side's words fit gf2.NODE_LIMIT: exit 1 before any draw, nothing on stdout
    "code_construct_n56_over_budget": ["code", "construct", "--n", "56", *_RATES, "--seed", "1"],
    "code_bound": _BOUND,
    "code_bound_exact": [*_BOUND, "--exact"],
    **_REGIONS,
    **{f"{name}_csv": [*argv, "--csv", "{csv}"] for name, argv in _REGIONS.items()},
    "region_scalar_power_1e100": ["region", "scalar", "--P", "1e100", "--a", "1", "--b1", "0.5",
                                  "--b2", "0.1"],
    "region_parallel_total_power_1e100": ["region", "parallel-total", "--a", "1,1.2",
                                          "--b1", "0.5,0.3", "--b2", "0.1,0.1", "--P", "1e100"],
    "sim_dmc_bec": [*_SIM, "--bec", "0.5,0.9", "--n", "8,12"],
    "sim_dmc_bsc": [*_SIM, "--channel", "{golden}/input_bsc_channel.json", "--n", "8"],
    "dmc_region_point": ["dmc", "region-point", "--bec", "0.5,0.9", "--px", "0.5,0.5"],
    "dmc_region_point_aux": ["dmc", "region-point", "--bec", "0.5,0.9",
                             "--aux", "{golden}/input_aux.json"],
    "fm_derive_nested_binning": ["fm", "derive", "--preset", "nested-binning", "--json"],
    "fm_derive_layered": ["fm", "derive", "--preset", "layered", "--json"],
}


def run_case(name: str, scratch: pathlib.Path) -> tuple[int, str, str | None]:
    """(exit code, stdout, CSV text or None) of one case, run in this process."""
    csv = scratch / f"{name}.csv"
    argv = [a.format(golden=GOLDEN, csv=csv) for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), csv.read_text() if "{csv}" in CASES[name] else None


def run_demo(name: str, cwd: pathlib.Path) -> subprocess.CompletedProcess:
    """Run a demo script in ``cwd`` (where it writes its files) on this secembed."""
    package_root = str(pathlib.Path(secembed.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(DEMO_DIR / name)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def demo_golden(name: str) -> pathlib.Path:
    return GOLDEN / f"demo_{pathlib.Path(name).stem}.out"


def exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def regenerate(names=()):
    """Rewrite the golden files of the named cases, demos and ACCEPTANCE lines, each
    named by its file stem, with the exit codes of the named cases; no names, every file."""
    import test_acceptance  # a test module that imports this one

    demos = {demo_golden(name).stem: name for name in DEMOS}
    lines = [f"acceptance_{k}" for k in range(1, 9)]
    known = [*CASES, *demos, *lines]
    names = set(names or known)
    if names - set(known):
        raise SystemExit(f"unknown golden names {sorted(names - set(known))}; known: {known}")
    codes = {name: code for name, code in exit_codes().items() if name in CASES}
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp)
        for name in CASES:  # construct cases come first: the audits read their bundles
            if name in names:
                codes[name], stdout, csv = run_case(name, scratch)
                (GOLDEN / f"{name}.out").write_text(stdout)
                if csv is not None:
                    (GOLDEN / f"{name}.csv").write_text(csv)
        for stem, name in demos.items():
            if stem in names:
                done = run_demo(name, scratch)
                if done.returncode:
                    raise SystemExit(f"{name} failed:\n{done.stderr}")
                demo_golden(name).write_text(done.stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n")
    for k, stem in enumerate(lines, 1):
        if stem in names:
            line = getattr(test_acceptance, f"criterion_{k}_line")()[1]
            (GOLDEN / f"{stem}.txt").write_text(line + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    regenerate(sys.argv[1:])
