"""The demos run to completion and print exactly their golden stdout.

Demo 03 (an n = 16 exact-leakage pass) is marked slow, as criterion 6 is.
"""

import pytest

import cli_golden


@pytest.mark.parametrize("name", [*cli_golden.QUICK_DEMOS,
                                  pytest.param(cli_golden.SLOW_DEMO, marks=pytest.mark.slow)])
def test_demo_runs(name, tmp_path):
    # the demo imports the same secembed as this test; its files land in tmp_path
    done = cli_golden.run_demo(name, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == cli_golden.demo_golden(name).read_text()
