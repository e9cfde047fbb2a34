"""CLI surface tests: formats, exit codes, determinism, round trips."""

import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from secembed import cli, dmc, gf2
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


# Full --csv text of the README scalar channel and the two-subchannel preset
# at --points 11; both sample the corner region {R1 <= cap_high, R1 + R2 <= cap_low}.
PINNED_CSV = {
    "scalar": (["--P", "1", "--a", "1", "--b1", "0.5", "--b2", "0.1"], """R1,R2
0,0.431248238125
0.0207518749639,0.410496363161
0.0415037499279,0.389744488197
0.0622556248918,0.368992613233
0.0830074998558,0.348240738269
0.10375937482,0.327488863305
0.124511249784,0.306736988341
0.145263124748,0.285985113377
0.166014999712,0.265233238413
0.186766874675,0.24448136345
0.207518749639,0.223729488486
"""),
    "parallel": (["--preset", "two-subchannel-reference"], """R1,R2
0,0.51457317283
0.0257286586415,0.488844514188
0.051457317283,0.463115855547
0.0771859759245,0.437387196905
0.102914634566,0.411658538264
0.128643293207,0.385929879622
0.154371951849,0.360201220981
0.18010061049,0.334472562339
0.205829269132,0.308743903698
0.231557927773,0.283015245056
0.257286586415,0.257286586415
"""),
}


@pytest.mark.parametrize("verb", sorted(PINNED_CSV))
def test_region_csv_text_pinned(tmp_path, capsys, verb):
    argv, want = PINNED_CSV[verb]
    csv = tmp_path / "boundary.csv"
    code, _, err = run_cli(capsys, "region", verb, *argv, "--points", "11", "--csv", str(csv))
    assert code == 0 and not err
    assert csv.read_text() == want


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


def test_sim_dmc_no_leakage_skips_only_the_leaks(tmp_path, capsys):
    argv = ["sim", "dmc", "--bec", "0.5,0.9", "--px", "0.5,0.5", "--rates", "0.25,0.25,0.25",
            "--n", "4,8", "--trials", "50", "--seed", "2"]
    code, full, _ = run_cli(capsys, *argv)
    assert code == 0
    csv = tmp_path / "bare.csv"
    code, bare, err = run_cli(capsys, *argv, "--no-leakage", "--csv", str(csv))
    assert code == 0 and not err
    full_runs, bare_runs = json.loads(full)["runs"], json.loads(bare)["runs"]
    assert [r["error_rate"] for r in bare_runs] == [r["error_rate"] for r in full_runs]
    for run in bare_runs:
        assert run["normalized_leak_m1_strong"] is None
        assert run["normalized_leak_messages_weak"] is None
    rows = [line.split(",") for line in csv.read_text().strip().splitlines()[1:]]
    assert [row[2:] for row in rows] == [["nan", "nan"]] * 2
    assert [float(row[1]) for row in rows] == [r["error_rate"] for r in full_runs]


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


def bec_channel_dict(**changes):
    ch = dmc.DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                                   dmc.bec_kernel(0.9))
    return {**ch.to_dict(), **changes}


@pytest.mark.parametrize("command", [
    ["sim", "dmc", "--px", "0.5,0.5", "--rates", "0.1,0.1,0.1", "--n", "4", "--seed", "1"],
    ["dmc", "region-point", "--px", "0.5,0.5"],
])
@pytest.mark.parametrize("channel", [
    [1, 2],
    "channel",
    bec_channel_dict(nx="2"),
    bec_channel_dict(nx=2.5),
    bec_channel_dict(nx=True),
    bec_channel_dict(ny=0),
    bec_channel_dict(p=5),
    bec_channel_dict(p=[0.5] * 4),
    {"nx": 2, "ny": 1, "nz1": 1, "nz2": 1, "p": [{}, {}]},
])
def test_malformed_channel_file_is_domain_error(tmp_path, capsys, command, channel):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(channel))
    code, out, err = run_cli(capsys, *command, "--channel", str(path))
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "channel" in payload["message"]


@pytest.mark.parametrize("spec", [
    [1], "aux", 3,
    {"pu": {"a": 1}, "pv_u": [[1]], "px_v": [[0.5, 0.5]]},
    {"pu": [1]},
])
def test_malformed_aux_file_is_domain_error(tmp_path, capsys, spec):
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9",
                             "--aux", str(aux))
    assert code == 1 and not out
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "--aux must hold a JSON object with pu, pv_u, px_v"}


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


@pytest.mark.parametrize("argv, flag", [
    (["sim", "dmc", "--bec", "0.5", "--px", "0.5,0.5", "--seed", "1",
      "--rates", "0.25,0.25,0", "--n", "8"], "--bec"),
    (["dmc", "region-point", "--bec", "0.5", "--px", "0.5,0.5"], "--bec"),
    (["dmc", "region-point", "--bec", "0.5,0.9,0.1", "--px", "0.5,0.5"], "--bec"),
    (["sim", "dmc", "--bec", "0.5,0.9", "--px", "0.5,0.5", "--seed", "-1",
      "--rates", "0.25,0.25,0", "--n", "8"], "--seed"),
    (["code", "construct", "--n", "16", "--alpha1", "0.5", "--alpha2", "0.25",
      "--eps", "0.25", "--seed", "-1"], "--seed"),
    ([*SIM_BEC, "--rates", "0.25,0.25,0", "--n", "8,x"], "--n"),
    ([*SIM_BEC, "--rates", "0.25,x,0", "--n", "8"], "--rates"),
    (["dmc", "region-point", "--bec", "0.5,0.9", "--px", "0.5,"], "--px"),
], ids=["sim-bec-one", "point-bec-one", "point-bec-three", "sim-seed", "construct-seed",
        "sim-n-text", "sim-rates-text", "point-px-empty"])
def test_bad_flag_value_is_domain_error_naming_the_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith(flag + " must be")


@pytest.mark.parametrize("argv", [
    ["dmc", "region-point", "--bec", "0.5,0.9", "--px", "nan,1"],
    ["dmc", "region-point", "--bec", "0.5,0.9", "--px", "0.5,inf"],
    ["sim", "dmc", "--bec", "0.5,0.9", "--px", "nan,1", "--seed", "1",
     "--rates", "0.25,0.25,0", "--n", "8"],
])
def test_non_finite_px_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "px must be a distribution of finite entries" in payload["message"]


@pytest.mark.parametrize("px", ["1", "0.5,0.25,0.25"])
def test_sim_dmc_px_over_wrong_alphabet_is_domain_error(tmp_path, capsys, px):
    out_file = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "sim", "dmc", "--bec", "0.5,0.9", "--px", px,
                             "--rates", "0.25,0.25,0", "--n", "8", "--trials", "10",
                             "--seed", "1", "--out", str(out_file))
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "px must be a distribution over the input alphabet" in payload["message"]
    assert not out_file.exists()


# (error_rate, normalized_leak_m1_strong, normalized_leak_messages_weak) of
# `sim dmc` on a noiseless main output with BSC(0.2) and BSC(0.4) eavesdroppers
# (the general leakage path), rates (0.25, 0.25, log2(3)/4), 400 trials, seed 1,
# computed by the per-codeword loop
BSC_RUNS = {
    8: (0.1825, 0.017097231814318326, 0.0036807401002580953),
    12: (0.195, 0.007716043949970312, 0.0013122873911779465),
}


def test_sim_dmc_bsc_eavesdroppers_pinned(tmp_path, capsys):
    channel = tmp_path / "bsc.json"
    channel.write_text(json.dumps(dmc.DmcTriple.independent(
        dmc.noiseless_kernel(2), dmc.bsc_kernel(0.2), dmc.bsc_kernel(0.4)).to_dict()))
    code, out, err = run_cli(capsys, "sim", "dmc", "--channel", str(channel),
                             "--px", "0.5,0.5", "--rates", f"0.25,0.25,{math.log2(3) / 4!r}",
                             "--n", "8,12", "--trials", "400", "--seed", "1")
    assert code == 0
    runs = json.loads(out)["runs"]
    assert [r["n"] for r in runs] == sorted(BSC_RUNS)
    for r in runs:
        error, leak1, leak2 = BSC_RUNS[r["n"]]
        assert r["error_rate"] == error
        assert r["normalized_leak_m1_strong"] == pytest.approx(leak1, abs=1e-12)
        assert r["normalized_leak_messages_weak"] == pytest.approx(leak2, abs=1e-12)


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
    assert "exceeded 5 nodes with the minimum rank in [0, 6]" in payload["message"]


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


@pytest.mark.parametrize("argv, missing", [
    (["region", "parallel"], "--a, --b1, --b2, --powers"),
    (["region", "parallel", "--a", "1,1", "--b1", "0.5,0.3", "--b2", "0.1,0.1"], "--powers"),
    (["region", "parallel", "--a", "1,1", "--b1", "0.5,0.3", "--powers", "0.5,0.5"], "--b2"),
    (["region", "parallel-total"], "--a, --b1, --b2"),
    (["region", "parallel-total", "--a", "1,1", "--b1", "0.5,0.3"], "--b2"),
])
def test_region_parallel_missing_gains_is_domain_error(capsys, argv, missing):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert f"missing {missing};" in payload["message"]


@pytest.mark.parametrize("verb", [["construct", "--seed", "1"], ["bound"]])
@pytest.mark.parametrize("eps", ["inf", "1e308", "nan"])
def test_code_non_finite_eps_is_domain_error(capsys, verb, eps):
    code, out, err = run_cli(capsys, "code", verb[0], "--n", "16", "--alpha1", "0.5",
                             "--alpha2", "0.25", "--eps", eps, *verb[1:])
    assert code == 1 and not out
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("edit", [
    lambda b: [b],
    lambda b: {**b, "params": {**b["params"], "n": 16.0}},
    lambda b: {**b, "params": {**b["params"], "n": "16"}},
    lambda b: {**b, "params": {**b["params"], "extra": 1}},
    lambda b: {**b, "H1": None},
    lambda b: {k: v for k, v in b.items() if k != "H1"},
    lambda b: {k: v for k, v in b.items() if k != "H2"},
    lambda b: {k: v for k, v in b.items() if k != "params"},
], ids=["list", "n-float", "n-text", "params-extra", "H1-none", "no-H1", "no-H2", "no-params"])
def test_code_audit_malformed_bundle_is_domain_error(tmp_path, capsys, edit):
    bundle = tmp_path / "bundle.json"
    assert run_cli(capsys, *CONSTRUCT_16, "--out", str(bundle))[0] == 0
    bundle.write_text(json.dumps(edit(json.loads(bundle.read_text()))))
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "code", "audit", "--bundle", str(bundle),
                             "--out", str(report))
    assert code == 1 and not out
    assert json.loads(err)["error"] == "ValueError"
    assert not report.exists()


def test_code_audit_rejects_transposed_parity_check(tmp_path, capsys):
    """A bundle whose H1 is the transpose of the real one names another matrix
    shape, so audit refuses it instead of reshaping it into a different code."""
    bundle = tmp_path / "bundle.json"
    assert run_cli(capsys, "code", "construct", "--n", "16", "--alpha1", "0.5", "--alpha2", "0.25",
                   "--eps", "0.25", "--seed", "1", "--out", str(bundle))[0] == 0
    saved = json.loads(bundle.read_text())
    h1 = gf2.matrix_from_text(saved["H1"])
    assert h1.shape == (4, 16)
    bundle.write_text(json.dumps({**saved, "H1": gf2.matrix_to_text(h1.T)}))
    code, out, err = run_cli(capsys, "code", "audit", "--bundle", str(bundle))
    assert code == 1 and not out
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "(16, 4)" in error["message"]
