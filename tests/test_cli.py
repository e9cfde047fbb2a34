"""CLI surface tests: formats, exit codes, determinism, round trips."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from secembed import cli, dmc
from secembed.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_region_scalar_json_and_csv(tmp_path, capsys):
    csv = tmp_path / "boundary.csv"
    code, out, err = run_cli(capsys, "region", "scalar", "--P", "1", "--a", "1",
                             "--b1", "0.5", "--b2", "0.1", "--csv", str(csv))
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["corner_outside_naive"] is True
    assert payload["cap_high"] == pytest.approx(0.207518749639422)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "R1,R2"
    first = tuple(float(x) for x in lines[1].split(","))
    assert first == (0.0, pytest.approx(payload["cap_low"]))


def test_region_parallel_preset(capsys):
    code, out, err = run_cli(capsys, "region", "parallel", "--preset",
                             "two-subchannel-reference")
    assert code == 0
    payload = json.loads(out)
    assert payload["cap_low_sum"] == pytest.approx(
        2 * 0.5 * np.log2(1.5 / 1.05), abs=1e-12)


def test_region_parallel_total_reference(capsys):
    code, out, err = run_cli(capsys, "region", "parallel-total", "--preset",
                             "two-subchannel-reference", "--grid", "1e-3")
    assert code == 0
    payload = json.loads(out)
    assert payload["embedding_gap"] > 1e-4
    assert abs(payload["alloc_max_r1"][0] - payload["alloc_max_sum"][0]) > 0.1


def test_code_construct_audit_roundtrip(tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    code, out, err = run_cli(capsys, "code", "construct", "--n", "16",
                             "--alpha1", "0.5", "--alpha2", "0.25", "--eps", "0.25",
                             "--seed", "7", "--out", str(bundle))
    assert code == 0
    saved = json.loads(bundle.read_text())
    assert saved["seed"] == 7
    code, out, err = run_cli(capsys, "code", "audit", "--bundle", str(bundle))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["certificates_match"] is True


def test_code_construct_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        rc, _, _ = run_cli(capsys, "code", "construct", "--n", "16", "--alpha1", "0.5",
                           "--alpha2", "0.25", "--eps", "0.25", "--seed", "3",
                           "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_code_bound(capsys):
    code, out, err = run_cli(capsys, "code", "bound", "--n", "16", "--alpha1", "0.5",
                             "--alpha2", "0.25", "--eps", "0.25")
    assert code == 0
    payload = json.loads(out)
    assert payload["subset_term"] == 2.0 ** (1 - 16)
    assert payload["mode"] == "loose"


def test_sim_dmc_sweep_csv(tmp_path, capsys):
    csv = tmp_path / "trend.csv"
    code, out, err = run_cli(capsys, "sim", "dmc", "--bec", "0.5,0.9",
                             "--px", "0.5,0.5", "--rates", "0.25,0.25,0.25",
                             "--n", "4,8", "--trials", "50", "--seed", "2",
                             "--csv", str(csv))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["runs"]) == 2
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "n,error_rate,leak_m1_strong,leak_messages_weak"
    assert len(lines) == 3


def test_dmc_region_point_px(capsys):
    code, out, err = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9",
                             "--px", "0.5,0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["r1_max"] == pytest.approx(0.5, abs=1e-12)
    assert payload["sum_max"] == pytest.approx(0.9, abs=1e-12)


def test_dmc_region_point_aux(tmp_path, capsys):
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps({
        "pu": [1.0],
        "pv_u": [[0.5, 0.5]],
        "px_v": [[1.0, 0.0], [0.0, 1.0]],
    }))
    code, out, err = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9",
                             "--aux", str(aux))
    assert code == 0
    payload = json.loads(out)
    assert payload["side_condition_ok"] is True
    assert payload["r1_max"] == pytest.approx(0.5, abs=1e-10)


def test_fm_derive_text_matches_golden(capsys, tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    code, out, err = run_cli(capsys, "fm", "derive", "--preset", "nested-binning")
    assert code == 0
    assert out == (golden / "nested_binning_region.txt").read_text()
    code, out, err = run_cli(capsys, "fm", "derive", "--preset", "layered")
    assert code == 0
    assert out == (golden / "layered_region.txt").read_text()


def test_fm_derive_json(capsys):
    code, out, err = run_cli(capsys, "fm", "derive", "--preset", "nested-binning",
                             "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["variables"] == ["R1", "R2"]
    rels = {row["relation"] for row in payload["inequalities"]}
    assert rels == {"<="}


def test_channel_file_roundtrip(tmp_path, capsys):
    ch = dmc.DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                                   dmc.bec_kernel(0.9))
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(ch.to_dict()))
    code, out, err = run_cli(capsys, "dmc", "region-point", "--channel", str(path),
                             "--px", "0.5,0.5")
    assert code == 0
    assert json.loads(out)["sum_max"] == pytest.approx(0.9, abs=1e-12)


def test_domain_error_exit_code_and_stderr_json(capsys):
    code, out, err = run_cli(capsys, "code", "construct", "--n", "10",
                             "--alpha1", "0.33", "--alpha2", "0.25", "--eps", "0.1",
                             "--seed", "0")
    assert code == 1
    assert not out
    payload = json.loads(err)
    assert payload["error"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ["region", "scalar", "--P", "nan", "--a", "1", "--b1", "0.5", "--b2", "0.1"],
    ["region", "scalar", "--P", "1", "--a", "inf", "--b1", "0.5", "--b2", "0.1"],
    ["region", "parallel", "--a", "1,1", "--b1", "0.5,0.3", "--b2", "0.1,0.1",
     "--powers", "0.5,nan"],
    ["region", "parallel-total", "--a", "1,1", "--b1", "0.5,0.3", "--b2", "0.1,0.1",
     "--P", "nan"],
])
def test_non_finite_gaussian_input_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert not out
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "finite" in payload["message"]


SIM_BEC = ["sim", "dmc", "--bec", "0.5,0.9", "--px", "0.5,0.5", "--seed", "1"]


@pytest.mark.parametrize("extra, match", [
    (["--rates", "inf,0,0", "--n", "8"], "not finite"),
    (["--rates", "300,0,0", "--n", "8"], "too large"),
    (["--rates", "0.25,0.25,0", "--n", "8,0"], "positive integer, got n=0"),
    (["--rates", "0.25,0.25,0", "--n", "-4"], "positive integer, got n=-4"),
    (["--rates", "0.25,0.25,0", "--n", "8", "--trials", "-5"], "trials"),
])
def test_sim_dmc_bad_input_is_domain_error(tmp_path, capsys, extra, match):
    out_file = tmp_path / "out.json"
    code, out, err = run_cli(capsys, *SIM_BEC, *extra, "--out", str(out_file))
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert match in payload["message"]
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["region", "scalar", "--P", "1", "--a", "1", "--b1", "0.5", "--b2", "0.1"],
    ["region", "parallel", "--preset", "two-subchannel-reference"],
])
@pytest.mark.parametrize("points", ["-3", "1"])
def test_region_points_below_two_prints_no_result(tmp_path, capsys, argv, points):
    csv = tmp_path / "boundary.csv"
    code, out, err = run_cli(capsys, *argv, "--csv", str(csv), "--points", points)
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "--points" in payload["message"]
    assert not csv.exists()


def test_emit_json_refuses_non_json_numbers():
    with pytest.raises(ValueError):
        cli._emit_json({"x": float("nan")}, None)


CONSTRUCT_16 = ["code", "construct", "--n", "16", "--alpha1", "0.5", "--alpha2", "0.25",
                "--eps", "0.25", "--seed", "7"]


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_node_limit_below_one_is_domain_error(tmp_path, capsys, limit):
    code, out, err = run_cli(capsys, *CONSTRUCT_16, "--node-limit", limit)
    assert code == 1 and not out
    assert json.loads(err)["error"] == "ValueError"
    bundle = tmp_path / "bundle.json"
    assert run_cli(capsys, *CONSTRUCT_16, "--out", str(bundle))[0] == 0
    code, out, err = run_cli(capsys, "code", "audit", "--bundle", str(bundle),
                             "--node-limit", limit)
    assert code == 1 and not out
    assert json.loads(err)["error"] == "ValueError"


def test_node_budget_error_reports_bracket(capsys):
    code, out, err = run_cli(capsys, "code", "construct", "--n", "24", "--alpha1", "0.5",
                             "--alpha2", "0.25", "--eps", "0.25", "--seed", "1",
                             "--node-limit", "5")
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"] == "BudgetExceededError"
    assert "exceeded 5 nodes with the minimum rank in [4, 6]" in payload["message"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["region", "scalar", "--P", "1"])  # missing required gains
    assert exc.value.code == 2


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SECEMBED_OUT_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, "code", "bound", "--n", "8", "--alpha1", "0.5",
                             "--alpha2", "0.25", "--eps", "0.25",
                             "--out", "bound.json")
    assert code == 0
    assert (tmp_path / "bound.json").exists()


def test_readme_command_line_block_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("secembed ")]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: secembed {shlex.join(argv)}")
