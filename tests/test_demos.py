"""Smoke test: the quick demos run to completion and print something.

Demo 03 (an n = 16 exact-leakage pass, ~20 s) is left to manual runs.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import secembed

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_coset_code_walkthrough.py",
    "02_gaussian_regions.py",
    "04_rate_region_derivation.py",
    "05_degradation_and_embeddability.py",
])
def test_demo_runs(name, tmp_path):
    # the demo imports the same secembed as this test; its files land in tmp_path
    package_root = str(pathlib.Path(secembed.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
