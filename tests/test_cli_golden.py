"""Every case of the golden CLI command list prints exactly its stored stdout,
CSV and exit code (see ``cli_golden`` for the list and how to regenerate)."""

import pytest

import cli_golden


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
