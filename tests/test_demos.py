"""The quick demos run to completion and print exactly their golden stdout.

Demo 03 (an n = 16 exact-leakage pass, ~12 s) is left to manual runs.
"""

import pytest

import cli_golden


@pytest.mark.parametrize("name", cli_golden.QUICK_DEMOS)
def test_demo_runs(name, tmp_path):
    # the demo imports the same secembed as this test; its files land in tmp_path
    done = cli_golden.run_demo(name, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == cli_golden.demo_golden(name).read_text()
