"""CLI surface tests: formats, exit codes, determinism, round trips."""

import argparse
import ast
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import secembed
from secembed import binning, cli, dmc, gauss, gf2
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


@pytest.mark.parametrize("argv, report", [
    (["scalar", "--P", "1", "--a", "1", "--b1", "0.5", "--b2", "0.1"],
     gauss.region_scalar(gauss.ScalarGaussChannel(1.0, 1.0, 0.5, 0.1))),
    (["parallel", "--preset", "two-subchannel-reference"],
     gauss.region_parallel_individual([gauss.ScalarGaussChannel(0.5, 1.0, 0.8, 0.1),
                                       gauss.ScalarGaussChannel(0.5, 1.0, 0.25, 0.1)])),
    (["parallel-total", "--preset", "two-subchannel-reference"],
     gauss.region_parallel_total(gauss.ParallelGaussChannel(
         a=(1.0, 1.0), b1=(0.8, 0.25), b2=(0.1, 0.1), total_power=1.0))),
    (["parallel-total", "--a", "1,1.2,0.9", "--b1", "0.5,0.3,0.4", "--b2", "0.1,0.1,0.1"],
     gauss.region_parallel_total(gauss.ParallelGaussChannel(
         a=(1.0, 1.2, 0.9), b1=(0.5, 0.3, 0.4), b2=(0.1, 0.1, 0.1), total_power=1.0))),
], ids=["scalar", "parallel", "parallel-total", "parallel-total-sub3"])
def test_region_prints_the_library_report(capsys, argv, report):
    code, out, err = run_cli(capsys, "region", *argv)
    assert code == 0 and not err
    assert report == json.loads(out)


def test_pooled_frontier_is_traced_only_for_csv(tmp_path, capsys, monkeypatch):
    calls = []
    trace = gauss._trace_frontier
    monkeypatch.setattr(gauss, "_trace_frontier", lambda *a: calls.append(a) or trace(*a))
    argv = ["region", "parallel-total", "--preset", "two-subchannel-reference"]
    assert run_cli(capsys, *argv)[0] == 0 and len(calls) == 0
    assert run_cli(capsys, *argv, "--csv", str(tmp_path / "b.csv"))[0] == 0 and len(calls) == 1


CSV_VERBS = {
    "scalar": ["region", "scalar", "--P", "1", "--a", "1", "--b1", "0.5", "--b2", "0.1"],
    "parallel": ["region", "parallel", "--preset", "two-subchannel-reference"],
    "parallel-total": ["region", "parallel-total", "--preset", "two-subchannel-reference"],
    "sim-dmc": ["sim", "dmc", "--bec", "0.5,0.9", "--px", "0.5,0.5", "--rates",
                "0.25,0.25,0.39624062518028907", "--n", "8", "--trials", "4", "--seed", "1"],
}


@pytest.mark.parametrize("argv", CSV_VERBS.values(), ids=CSV_VERBS.keys())
def test_unopenable_csv_prints_no_result(tmp_path, capsys, argv):
    # the CSV is opened before the report is printed, so stdout stays empty
    code, out, err = run_cli(capsys, *argv, "--csv", str(tmp_path / "nodir" / "x.csv"))
    assert code == 1 and not out and err.count("\n") == 1
    assert json.loads(err)["error"] == "FileNotFoundError"


@pytest.mark.parametrize("argv", CSV_VERBS.values(), ids=CSV_VERBS.keys())
def test_unopenable_out_leaves_the_csv_as_it_was(tmp_path, capsys, argv):
    # every destination is opened before either is written
    old = tmp_path / "old.csv"
    old.write_bytes(b"0123456789")
    (tmp_path / "adir").mkdir()
    for bad, error in [("nodir/x.json", "FileNotFoundError"), ("adir", "IsADirectoryError")]:
        for csv in (tmp_path / "new.csv", old):
            code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / bad),
                                     "--csv", str(csv))
            assert code == 1 and not out and err.count("\n") == 1
            assert json.loads(err)["error"] == error
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "old.csv"]
    assert old.read_bytes() == b"0123456789"


@pytest.mark.parametrize("argv", CSV_VERBS.values(), ids=CSV_VERBS.keys())
def test_unopenable_csv_removes_the_out_it_created(tmp_path, capsys, argv):
    # --out is opened first: a file it created goes, an existing one keeps its bytes
    old = tmp_path / "old.json"
    old.write_bytes(b"0123456789")
    csv = tmp_path / "nodir" / "x.csv"
    for report in (tmp_path / "new.json", old):
        code, out, err = run_cli(capsys, *argv, "--out", str(report), "--csv", str(csv))
        assert code == 1 and not out
        assert json.loads(err) == {"error": "FileNotFoundError",
                                   "message": f"[Errno 2] No such file or directory: '{csv}'"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]
    assert old.read_bytes() == b"0123456789"


@pytest.mark.parametrize("argv", CSV_VERBS.values(), ids=CSV_VERBS.keys())
def test_csv_destinations_are_written_in_place(tmp_path, capsys, argv):
    # an existing file keeps its inode, and a device is written, not replaced
    csv, report = tmp_path / "r.csv", tmp_path / "r.json"
    csv.write_text("old contents, longer than nothing\n")
    inode = csv.stat().st_ino
    code, out, err = run_cli(capsys, *argv, "--out", os.devnull, "--csv", str(csv))
    assert code == 0 and not out and not err
    assert csv.stat().st_ino == inode and csv.read_text().startswith(("R1,R2\n", "n,"))
    code, out, err = run_cli(capsys, *argv, "--out", str(report), "--csv", os.devnull)
    assert code == 0 and not out and not err and json.loads(report.read_text())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]


def test_same_out_and_csv_is_domain_error(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    code, out, err = run_cli(capsys, *CSV_VERBS["scalar"], "--out", str(tmp_path / "same.txt"),
                             "--csv", str(tmp_path / "sub" / ".." / "same.txt"))
    assert code == 1 and not out and json.loads(err)["error"] == "ValueError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


# b1 = b2 puts the corner on the separate-coding hull; b1 > a leaves no
# high-security rate, so that hull is an axis segment.
@pytest.mark.parametrize("b1, b2, degenerate, outside", [
    ("0.5", "0.1", False, True),
    ("0.3", "0.3", False, False),
    ("1.5", "0.1", True, None),
])
def test_region_scalar_naive_fields(capsys, b1, b2, degenerate, outside):
    code, out, err = run_cli(capsys, "region", "scalar", "--P", "1", "--a", "1",
                             "--b1", b1, "--b2", b2)
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["naive_degenerate"] is degenerate
    assert payload["corner_outside_naive"] is outside


def test_region_parallel_preset(capsys):
    code, out, err = run_cli(capsys, "region", "parallel", "--preset",
                             "two-subchannel-reference")
    assert code == 0
    payload = json.loads(out)
    assert payload["cap_low_sum"] == pytest.approx(
        2 * 0.5 * np.log2(1.5 / 1.05), abs=1e-12)


@pytest.mark.parametrize("argv, given", [
    (["parallel-total", "--P", "5"], "--P"),
    (["parallel-total", "--P", "1"], "--P"),
    (["parallel-total", "--a", "3,3", "--b1", "0.1,0.1"], "--a, --b1"),
    (["parallel-total", "--b2", "0.1,0.1", "--P", "2"], "--b2, --P"),
    (["parallel", "--powers", "9,9"], "--powers"),
    (["parallel", "--a", "1,1", "--b1", "0.8,0.25", "--b2", "0.1,0.1", "--powers", "0.5,0.5"],
     "--a, --b1, --b2, --powers"),
], ids=["total-P5", "total-P1", "total-gains", "total-b2-P", "powers", "every-flag"])
def test_region_preset_with_channel_flags_is_domain_error(tmp_path, capsys, argv, given):
    csv = tmp_path / "boundary.csv"
    code, out, err = run_cli(capsys, "region", *argv, "--preset", "two-subchannel-reference",
                             "--csv", str(csv))
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert payload["message"] == f"--preset fixes the channel; drop {given}"
    assert not csv.exists()


def test_region_parallel_total_p_defaults_to_one(capsys):
    gains = ["--a", "1,1", "--b1", "0.8,0.25", "--b2", "0.1,0.1"]
    runs = [run_cli(capsys, "region", "parallel-total", *argv)
            for argv in (gains, [*gains, "--P", "1"], ["--preset", "two-subchannel-reference"])]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    assert runs[0] == runs[1] == runs[2]


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
    keys = ("n", "error_rate", "normalized_leak_m1_strong", "normalized_leak_messages_weak")
    assert [line.split(",") for line in lines[1:]] == [
        [f"{run[k]:.12g}" for k in keys] for run in payload["runs"]]


def test_sim_dmc_prints_the_library_report(capsys):
    code, out, err = run_cli(capsys, "sim", "dmc", "--bec", "0.5,0.9", "--px", "0.5,0.5",
                             "--rates", "0.25,0.25,0.25", "--n", "8", "--trials", "50",
                             "--seed", "2")
    assert code == 0
    report = binning.simulate_nested_binning(bec_channel(), [0.5, 0.5], (0.25, 0.25, 0.25),
                                             n=8, trials=50, seed=2)
    assert report == json.loads(out)


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


AUX_CHAIN = {"pu": [0.5, 0.5], "pv_u": [[0.9, 0.1], [0.2, 0.8]], "px_v": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("flag", ["--px", "--aux"])
def test_dmc_region_point_prints_the_library_report(tmp_path, capsys, flag):
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps(AUX_CHAIN))
    code, out, err = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9",
                             flag, "0.5,0.5" if flag == "--px" else str(aux))
    assert code == 0
    if flag == "--px":
        report = dmc.region_point_simple(bec_channel(), [0.5, 0.5])
    else:
        report = dmc.region_point_full(bec_channel(), dmc.AuxiliaryChain(**AUX_CHAIN))
    assert report == json.loads(out)


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


def bec_channel():
    """The channel that ``--bec 0.5,0.9`` names."""
    return dmc.DmcTriple.independent(dmc.noiseless_kernel(2), dmc.bec_kernel(0.5),
                                     dmc.bec_kernel(0.9))


def bec_channel_dict(**changes):
    return {**bec_channel().to_dict(), **changes}


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
    {"nx": 2, "ny": 1, "nz1": 1, "nz2": 1, "p": [10**400, 1]},
])
def test_malformed_channel_file_is_domain_error(tmp_path, capsys, command, channel):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(channel))
    code, out, err = run_cli(capsys, *command, "--channel", str(path))
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "channel" in payload["message"]


NOT_AUX = "--aux must hold a JSON object with pu, pv_u, px_v"


@pytest.mark.parametrize("spec, message", [
    ([1], NOT_AUX), ("aux", NOT_AUX), (3, NOT_AUX),
    ({"pu": {"a": 1}, "pv_u": [[1]], "px_v": [[0.5, 0.5]]}, "p(u) must be a 1-D vector of numbers"),
    ({"pu": [1]}, NOT_AUX),
], ids=["spec0", "aux", "3", "spec3", "spec4"])
def test_malformed_aux_file_is_domain_error(tmp_path, capsys, spec, message):
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9",
                             "--aux", str(aux))
    assert code == 1 and not out
    assert json.loads(err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("spec, message", [
    ({"pu": [[1.0]], "pv_u": [[0.5, 0.5]], "px_v": [[1.0, 0.0], [0.0, 1.0]]},
     "p(u) must be a 1-D vector of numbers"),
    ({**AUX_CHAIN, "px_v": [[1.0, 0.0], [1.0]]},
     "p(x|v) must be a 2-D matrix of numbers"),
], ids=["pu-2d", "px_v-ragged"])
def test_aux_shape_is_a_named_domain_error(tmp_path, capsys, spec, message):
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9",
                             "--aux", str(aux))
    assert code == 1 and not out
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_aux_pu_takes_the_px_rule(tmp_path, capsys):
    # p(u) once had to sum to 1 within 1e-12 where px may be off by 1e-9
    spec = {**AUX_CHAIN, "pu": [0.5, 0.5000000001]}
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9",
                             "--aux", str(aux))
    assert code == 0 and not err
    assert json.loads(out) == dmc.region_point_full(bec_channel(), dmc.AuxiliaryChain(**spec))


@pytest.mark.parametrize("key, value", [
    ("pv_u", [[0.9, 0.1], [0.2, 0.8000000001]]),
    ("px_v", [[1.0, 0.0], [0.0, 0.9999999999]]),
])
def test_aux_kernel_rows_take_the_px_rule(tmp_path, capsys, key, value):
    # a kernel row once had to sum to 1 within 1e-12 where p(u) may be off by 1e-9
    spec = {**AUX_CHAIN, key: value}
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9",
                             "--aux", str(aux))
    assert code == 0 and not err
    assert json.loads(out) == dmc.region_point_full(bec_channel(), dmc.AuxiliaryChain(**spec))


@pytest.mark.parametrize("key, value, what", [
    ("pv_u", 0, "p(v|u)"),
    ("pv_u", [1, 1], "p(v|u)"),
    ("px_v", 0, "p(x|v)"),
    ("px_v", [1, 1], "p(x|v)"),
])
def test_aux_matrix_that_is_not_2d_is_domain_error(tmp_path, capsys, key, value, what):
    spec = {"pu": [0.5, 0.5], "pv_u": [[1, 0], [0, 1]], "px_v": [[1, 0], [0, 1]], key: value}
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9",
                             "--aux", str(aux))
    assert code == 1 and not out
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError",
                               "message": f"{what} must be a 2-D matrix of numbers"}


def test_aux_with_a_bool_is_a_domain_error(tmp_path, capsys):
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps({**AUX_CHAIN, "pu": [True, 0.0]}))
    code, out, err = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9",
                             "--aux", str(aux))
    assert code == 1 and not out
    assert json.loads(err) == {"error": "ValueError",
                               "message": "p(u) must be a 1-D vector of numbers"}


@pytest.mark.parametrize("inputs", [[], ["--px", "0.5,0.5", "--aux", "aux.json"]],
                         ids=["neither", "both"])
def test_region_point_takes_exactly_one_input_law(capsys, inputs):
    code, out, err = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9", *inputs)
    assert code == 1 and not out
    assert json.loads(err) == {"error": "ValueError",
                               "message": "give exactly one of --px or --aux"}


def test_sim_dmc_without_a_channel_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "sim", "dmc", "--px", "0.5,0.5", "--rates",
                             "0.25,0.25,0", "--n", "8", "--seed", "1")
    assert code == 1 and not out
    assert json.loads(err) == {"error": "ValueError",
                               "message": "give either --channel FILE or --bec D1,D2"}


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
    pytest.param(["--rates", "inf,0,0", "--n", "8"], "rate = inf must be a finite real number",
                 id="extra0-not finite"),  # the id of the old message, "not finite"
    (["--rates", "300,0,0", "--n", "8"], "too large"),
    # the ids of the old messages, "positive integer, got n=0" and "... n=-4"
    pytest.param(["--rates", "0.25,0.25,0", "--n", "8,0"], "n = 0 must be >= 1",
                 id="extra2-positive integer, got n=0"),
    pytest.param(["--rates", "0.25,0.25,0", "--n", "-4"], "n = -4 must be >= 1",
                 id="extra3-positive integer, got n=-4"),
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


@pytest.mark.parametrize("extra, message", [
    (["--rates", "0,0,0", "--n", "25"],
     "2**n = 2**25 = 33554432 exceeds binning.LEAKAGE_BUDGET = 16777216"),
    (["--rates", "0.5,0.5,0.25", "--n", "16"],
     "K * n = 1048576 * 16 = 16777216 exceeds binning.CODEBOOK_BUDGET = 1048576"),
    (["--rates", "0.25,0.25,0", "--n", "24"],
     "2**n * K = 2**24 * 4096 = 68719476736 exceeds binning.LEAKAGE_KEY_BUDGET = 4294967296"),
    (["--rates", "0,0,0", "--n", "20000"],  # 2**20000 has 6021 digits, past Python's limit
     "2**n = 2**20000 exceeds binning.LEAKAGE_BUDGET = 16777216"),
], ids=["leakage", "codebook", "leakage-keys", "leakage-n20000"])
def test_sim_dmc_budget_error_is_domain_error(capsys, extra, message):
    code, out, err = run_cli(capsys, *SIM_BEC, *extra, "--trials", "1")
    assert code == 1 and not out
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_sim_dmc_trials_over_budget_is_domain_error(capsys):
    trials = 2**17 + 1  # one trial over the budget at n = 8, so a missing check stays small
    code, out, err = run_cli(capsys, *SIM_BEC, "--rates", "0.25,0.25,0", "--n", "8",
                             "--trials", str(trials), "--no-leakage")
    assert code == 1 and not out
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert payload["message"] == (f"trials * n = {trials} * 8 = {trials * 8} exceeds "
                                  "binning.TRIALS_BUDGET = 1048576")


@pytest.mark.parametrize("extra, message", [
    (["--rates", "0.5,0.5,0.25", "--n", "8,12,16", "--trials", "10"],
     "K * n = 1048576 * 16 = 16777216 exceeds binning.CODEBOOK_BUDGET = 1048576"),
    (["--rates", "0.25,0.25,0", "--n", "8,12", "--trials", "131072", "--no-leakage"],
     "trials * n = 131072 * 12 = 1572864 exceeds binning.TRIALS_BUDGET = 1048576"),
    (["--rates", "0,0,0", "--n", "8,25", "--trials", "10"],
     "2**n = 2**25 = 33554432 exceeds binning.LEAKAGE_BUDGET = 16777216"),
], ids=["codebook", "trials", "leakage"])
def test_sim_dmc_checks_every_block_before_simulating(monkeypatch, capsys, extra, message):
    # only the last block is over budget, so no block may be simulated
    calls = []
    simulate = binning.simulate_nested_binning

    def counted(*args, **kwargs):
        calls.append(kwargs["n"])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(binning, "simulate_nested_binning", counted)
    code, out, err = run_cli(capsys, *SIM_BEC, *extra)
    assert calls == []
    assert code == 1 and not out
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_sim_dmc_checks_the_key_span_of_every_block_before_simulating(
        monkeypatch, tmp_path, capsys):
    # 16 erasure-revealed symbols at n = 16 in 256 groups need 72 key bits; n = 8 needs 36
    erasure = np.hstack([0.5 * np.eye(16), 0.5 * np.ones((16, 1))])
    path = tmp_path / "ch16.json"
    path.write_text(json.dumps(dmc.DmcTriple.independent(np.eye(16), erasure, erasure)
                               .to_dict()))
    calls = []
    simulate = binning.simulate_nested_binning

    def counted(*args, **kwargs):
        calls.append(kwargs["n"])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(binning, "simulate_nested_binning", counted)
    code, out, err = run_cli(capsys, "sim", "dmc", "--channel", str(path),
                             "--px", ",".join(["0.0625"] * 16), "--rates", "0.25,0.25,0",
                             "--n", "8,16", "--trials", "10", "--seed", "1")
    assert calls == []
    assert code == 1 and not out
    assert json.loads(err) == {"error": "ValueError",
                               "message": "pattern projection would overflow 64-bit keys"}


def test_sim_dmc_no_leakage_runs_past_the_leakage_budget(capsys):
    code, out, err = run_cli(capsys, *SIM_BEC, "--rates", "0,0,0", "--n", "8,25",
                             "--trials", "10", "--no-leakage")
    assert code == 0 and not err
    assert [run["n"] for run in json.loads(out)["runs"]] == [8, 25]


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


def test_tiny_negative_px_is_zero_to_both_verbs(capsys):
    # region-point once answered with raw_r1 -2.2e-14 where sim dmc refused the same px
    code, out, err = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9",
                             "--px=1,-1e-13")
    assert code == 0 and not err
    assert json.loads(out) == {"r1_max": 0.0, "sum_max": 0.0, "raw_r1": 0.0, "raw_sum": 0.0}
    code, out, err = run_cli(capsys, "sim", "dmc", "--bec", "0.5,0.9", "--px=1,-1e-13",
                             "--rates", "0.25,0.25,0", "--n", "8", "--trials", "10",
                             "--seed", "1")
    assert code == 0 and not err
    assert json.loads(out)["normalized_leak_messages_weak"] == 0.0  # every codeword is 0


def px_entry():
    """A --px entry: a probability, a tiny negative, a non-finite value or a near-miss."""
    return st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        ["-1e-13", "-1e-12", "-2e-12", "-1e-9", "nan", "inf", "-inf", "0.5000000001",
         "0.500000002"]))


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.lists(px_entry(), min_size=1, max_size=3),
    st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-10, -1e-10, 2e-9, -2e-9]))
    .map(lambda t: [t[0], 1.0 - t[0] + t[1]])))
@example(["1", "-1e-13"])
def test_property_px_means_the_same_to_both_verbs(capsys, entries):
    px = ",".join(e if isinstance(e, str) else repr(e) for e in entries)
    point = run_cli(capsys, "dmc", "region-point", "--bec", "0.5,0.9", f"--px={px}")
    sim = run_cli(capsys, "sim", "dmc", "--bec", "0.5,0.9", f"--px={px}", "--rates",
                  "0.25,0.25,0", "--n", "8", "--trials", "0", "--no-leakage", "--seed", "1")
    assert point[0] == sim[0] and point[0] in (0, 1)
    if point[0] == 1:
        assert point[2] == sim[2]
        assert json.loads(point[2])["message"].startswith("px must be a distribution")


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
@pytest.mark.parametrize("points", ["-3", "1", "10000000000000"])
def test_region_points_out_of_range_prints_no_result(tmp_path, capsys, argv, points):
    csv = tmp_path / "boundary.csv"
    code, out, err = run_cli(capsys, *argv, "--csv", str(csv), "--points", points)
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "--points" in payload["message"]
    assert not csv.exists()


def test_emit_refuses_non_json_numbers():
    with pytest.raises(ValueError):
        cli._emit(argparse.Namespace(out=None), {"x": float("nan")})


CONSTRUCT_16 = ["code", "construct", "--n", "16", "--alpha1", "0.5", "--alpha2", "0.25",
                "--eps", "0.25", "--seed", "7"]


def test_code_verbs_refuse_a_block_length_past_max_n(capsys):
    rates = ["--n", str(10**30), "--alpha1", "0.5", "--alpha2", "0.25", "--eps", "0.25"]
    for verb in (["bound", "--exact"], ["construct", "--seed", "1"]):
        code, out, err = run_cli(capsys, "code", *verb, *rates)
        assert code == 1 and not out
        assert json.loads(err) == {"error": "ValueError", "message": "n = 1e+30 must be <= 4096"}


def test_node_budget_error_reports_bracket(capsys):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "NODE_LIMIT", 5)
        code, out, err = run_cli(capsys, "code", "construct", "--n", "24", "--alpha1", "0.5",
                                 "--alpha2", "0.25", "--eps", "0.25", "--seed", "1")
    assert code == 1 and not out
    payload = json.loads(err)
    assert payload["error"] == "BudgetExceededError"
    assert "exceeded 5 nodes with the minimum rank in [0, 6]" in payload["message"]
    assert payload["message"].endswith("(gf2.NODE_LIMIT = 5)")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["region", "scalar", "--P", "1"])  # missing required gains
    assert exc.value.code == 2


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


def test_readme_api_names_resolve():
    # every backticked dotted name (calls included) rooted at a secembed module or public class
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    roots = {}
    for info in pkgutil.iter_modules(secembed.__path__):
        module = importlib.import_module(f"secembed.{info.name}")
        roots[info.name] = module
        roots.update((name, obj) for name, obj in vars(module).items()
                     if inspect.isclass(obj) and not name.startswith("_")
                     and obj.__module__ == module.__name__)
    chains = [m[1].split(".") for m in re.finditer(r"`(\w+(?:\.\w+)*)(?:\([^`]*\))?`", readme)]
    chains = [chain for chain in chains if chain[0] in roots]

    def resolves(chain):
        obj = roots[chain[0]]
        for attr in chain[1:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True

    assert len(chains) >= 20
    assert [".".join(chain) for chain in chains if not resolves(chain)] == []


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


@pytest.mark.parametrize("verb", [["construct", "--seed", "1"], ["bound"]])
def test_code_eps_that_names_no_position_is_domain_error(capsys, verb):
    # n*(1-alpha1-eps) = 4 - 8e-12 reads as the count 4, leaving n*eps = 0 margin positions
    # for a 3e12-bit allowance; bound once divided by 2**(n*(alpha2+eps)) - 1 = 0 here
    code, out, err = run_cli(capsys, "code", verb[0], "--n", "8", "--alpha1", "0.5",
                             "--alpha2", "0", "--eps", "1e-12", *verb[1:])
    assert code == 1 and not out and err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError", "message": "n*eps = 0 must be >= 1"}


@pytest.mark.parametrize("edit", [
    lambda b: [b],
    lambda b: {**b, "params": {**b["params"], "n": 16.0}},
    lambda b: {**b, "params": {**b["params"], "n": "16"}},
    lambda b: {**b, "params": {**b["params"], "extra": 1}},
    lambda b: {**b, "H1": None},
    lambda b: {k: v for k, v in b.items() if k != "H1"},
    lambda b: {k: v for k, v in b.items() if k != "H2"},
    lambda b: {k: v for k, v in b.items() if k != "params"},
    lambda b: {**b, "H1": "1 10000000000000\n0110\n"},
    lambda b: {**b, "H1": "2 -3\n011\n110\n"},
], ids=["list", "n-float", "n-text", "params-extra", "H1-none", "no-H1", "no-H2", "no-params",
        "H1-huge-cols", "H1-negative-cols"])
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


# Every action of every subcommand, by dest: (option strings, type, default,
# required, choices).  Sharing option groups between subcommands may reorder
# --help, but must leave each flag as it is here.
OPTION_TABLE = {
    "region scalar": {
        "P": (("--P",), "float", None, True, None),
        "a": (("--a",), "float", None, True, None),
        "b1": (("--b1",), "float", None, True, None),
        "b2": (("--b2",), "float", None, True, None),
        "csv": (("--csv",), None, None, False, None),
        "help": (("-h", "--help"), None, "==SUPPRESS==", False, None),
        "out": (("--out",), None, None, False, None),
        "points": (("--points",), "int", 201, False, None),
    },
    "region parallel": {
        "a": (("--a",), None, None, False, None),
        "b1": (("--b1",), None, None, False, None),
        "b2": (("--b2",), None, None, False, None),
        "csv": (("--csv",), None, None, False, None),
        "help": (("-h", "--help"), None, "==SUPPRESS==", False, None),
        "out": (("--out",), None, None, False, None),
        "points": (("--points",), "int", 201, False, None),
        "powers": (("--powers",), None, None, False, None),
        "preset": (("--preset",), None, None, False, ["two-subchannel-reference"]),
    },
    "region parallel-total": {
        "P": (("--P",), "float", None, False, None),
        "a": (("--a",), None, None, False, None),
        "b1": (("--b1",), None, None, False, None),
        "b2": (("--b2",), None, None, False, None),
        "csv": (("--csv",), None, None, False, None),
        "grid": (("--grid",), "float", 0.001, False, None),
        "help": (("-h", "--help"), None, "==SUPPRESS==", False, None),
        "out": (("--out",), None, None, False, None),
        "preset": (("--preset",), None, None, False, ["two-subchannel-reference"]),
    },
    "code construct": {
        "alpha1": (("--alpha1",), "float", None, True, None),
        "alpha2": (("--alpha2",), "float", None, True, None),
        "eps": (("--eps",), "float", None, True, None),
        "help": (("-h", "--help"), None, "==SUPPRESS==", False, None),
        "n": (("--n",), "int", None, True, None),
        "out": (("--out",), None, None, False, None),
        "seed": (("--seed",), "int", None, True, None),
    },
    "code audit": {
        "bundle": (("--bundle",), None, None, True, None),
        "help": (("-h", "--help"), None, "==SUPPRESS==", False, None),
        "out": (("--out",), None, None, False, None),
    },
    "code bound": {
        "alpha1": (("--alpha1",), "float", None, True, None),
        "alpha2": (("--alpha2",), "float", None, True, None),
        "eps": (("--eps",), "float", None, True, None),
        "exact": (("--exact",), None, False, False, None),
        "help": (("-h", "--help"), None, "==SUPPRESS==", False, None),
        "n": (("--n",), "int", None, True, None),
        "out": (("--out",), None, None, False, None),
    },
    "sim dmc": {
        "bec": (("--bec",), None, None, False, None),
        "channel": (("--channel",), None, None, False, None),
        "csv": (("--csv",), None, None, False, None),
        "help": (("-h", "--help"), None, "==SUPPRESS==", False, None),
        "n": (("--n",), None, None, True, None),
        "no_leakage": (("--no-leakage",), None, False, False, None),
        "out": (("--out",), None, None, False, None),
        "px": (("--px",), None, None, True, None),
        "rates": (("--rates",), None, None, True, None),
        "seed": (("--seed",), "int", None, True, None),
        "trials": (("--trials",), "int", 200, False, None),
    },
    "dmc region-point": {
        "aux": (("--aux",), None, None, False, None),
        "bec": (("--bec",), None, None, False, None),
        "channel": (("--channel",), None, None, False, None),
        "help": (("-h", "--help"), None, "==SUPPRESS==", False, None),
        "out": (("--out",), None, None, False, None),
        "px": (("--px",), None, None, False, None),
    },
    "fm derive": {
        "help": (("-h", "--help"), None, "==SUPPRESS==", False, None),
        "json": (("--json",), None, False, False, None),
        "out": (("--out",), None, None, False, None),
        "preset": (("--preset",), None, None, True, ["layered", "nested-binning"]),
    },
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_option_table_pinned():
    table = {}
    for group, group_parser in _subparsers(cli.build_parser()).choices.items():
        for cmd, parser in _subparsers(group_parser).choices.items():
            table[f"{group} {cmd}"] = {
                a.dest: (tuple(a.option_strings), getattr(a.type, "__name__", a.type),
                         a.default, a.required, a.choices)
                for a in parser._actions}
    assert table == OPTION_TABLE


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"

# One valid argv per verb of OPTION_TABLE as (flag, value) pairs, a switch's value
# None; a file is named by its golden input
VALID_ARGV = {
    "region scalar": [("--P", "1"), ("--a", "1"), ("--b1", "0.5"), ("--b2", "0.1"),
                      ("--points", "21")],
    "region parallel": [("--a", "1,1"), ("--b1", "0.8,0.25"), ("--b2", "0.1,0.1"),
                        ("--powers", "0.5,0.5"), ("--points", "21")],
    "region parallel-total": [("--a", "1,1.2"), ("--b1", "0.5,0.3"), ("--b2", "0.1,0.1"),
                              ("--P", "1")],
    "code construct": [("--n", "16"), ("--alpha1", "0.5"), ("--alpha2", "0.25"),
                       ("--eps", "0.25"), ("--seed", "1")],
    "code audit": [("--bundle", "code_construct_seed1.out")],
    "code bound": [("--n", "32"), ("--alpha1", "0.5"), ("--alpha2", "0.25"), ("--eps", "0.25"),
                   ("--exact", None)],
    "sim dmc": [("--channel", "input_bsc_channel.json"), ("--px", "0.5,0.5"),
                ("--rates", "0.25,0.25,0.39624062518028907"), ("--n", "8"), ("--trials", "20"),
                ("--seed", "1"), ("--no-leakage", None)],
    "dmc region-point": [("--bec", "0.5,0.9"), ("--aux", "input_aux.json")],
    "fm derive": [("--preset", "layered"), ("--json", None)],
}
FILE_FLAGS = ("--bundle", "--channel", "--aux")
NON_NUMBERS = ["nan", "inf", "-inf", "-1", "-0.0", "0", "1e300", "1" + "0" * 30, "", "x", "1/2"]


def replacement(verb, flag):
    """A value for one flag: finite, non-finite, negative, zero, huge, empty or no number,
    or a comma list of any length; the sizes that set run time stay small."""
    bad = st.sampled_from(["", "x", "nan", "-1", "0", "1e1", "2.5", "8,"])
    if (verb, flag) == ("sim dmc", "--n"):
        return st.one_of(bad, st.lists(st.integers(-2, 12), min_size=1, max_size=3)
                         .map(lambda ns: ",".join(map(str, ns))))
    if (verb, flag) in (("sim dmc", "--trials"), ("code construct", "--n")):
        return st.one_of(bad, st.integers(-3, 50 if flag == "--trials" else 24).map(str))
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.integers(-3, 40).map(str), st.sampled_from(NON_NUMBERS))
    return st.one_of(number, st.lists(number, min_size=1, max_size=4).map(",".join))


def input_file(draw, name, work):
    """The golden input, a copy with a key dropped, a type or a shape changed, or a
    path that is missing, a directory or no JSON."""
    kind = draw(st.sampled_from(["golden", "golden", "drop", "type", "shape", "missing",
                                 "dir", "text"]))
    if kind in ("golden", "missing", "dir", "text"):
        path = {"golden": GOLDEN_CLI / name, "missing": work / "missing.json", "dir": work,
                "text": work / "text.json"}[kind]
        if kind == "text":
            path.write_text("{not json")
        return str(path)
    doc = json.loads((GOLDEN_CLI / name).read_text())
    holder = doc
    if "params" in doc and draw(st.booleans()):
        holder = doc["params"]
    key = draw(st.sampled_from(sorted(holder)))
    if kind == "drop":
        del holder[key]
    elif kind == "type":
        holder[key] = draw(st.sampled_from(["x", None, 1.5, True, [], {}]))
    else:
        value = holder[key]
        holder[key] = (value[:-1] if isinstance(value, list) and value and draw(st.booleans())
                       else value.rsplit("\n", 2)[0] + "\n" if isinstance(value, str)
                       else [value])
    path = work / f"mutated-{name}"
    path.write_text(json.dumps(doc))
    return str(path)


@settings(max_examples=1000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(VALID_ARGV)), st.data())
def test_property_every_verb_exits_0_1_or_2(tmp_path, verb, data):
    """From a valid argv, replace up to three values, draw each input file, and sometimes
    name a destination that cannot be written: main returns 0 or 1, or argparse exits
    with 2, and nothing else escapes, warnings included.  Exit 1 is one error JSON line
    on stderr with nothing on stdout and no new file, except a failed audit's report;
    exit 0 prints JSON, except the text of fm derive."""
    draw = data.draw
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    pairs = [(flag, input_file(draw, value, work) if flag in FILE_FLAGS else value)
             for flag, value in VALID_ARGV[verb] if value is not None or draw(st.booleans())]
    valued = [i for i, (flag, value) in enumerate(pairs)
              if value is not None and flag not in FILE_FLAGS]
    for i in draw(st.sets(st.sampled_from(valued), max_size=min(3, len(valued)))
                  if valued else st.just(())):
        pairs[i] = (pairs[i][0], draw(replacement(verb, pairs[i][0])))
    for flag in ("--out", "--csv"):
        if flag[2:] in OPTION_TABLE[verb]:
            where = draw(st.sampled_from([None, "fresh", "missing dir", "dir"]))
            pairs += [] if where is None else [(flag, str(
                {"fresh": work / f"{flag[2:]}.txt", "missing dir": work / "no" / "f.txt",
                 "dir": work}[where]))]
    argv = [*verb.split(), *(flag if value is None else f"{flag}={value}"
                             for flag, value in pairs)]
    before = set(work.rglob("*"))
    out, err = StringIO(), StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    if code == 2:
        return
    assert code in (0, 1), argv
    created = set(work.rglob("*")) - before
    dest = dict(pairs).get("--out")
    printed = Path(dest).read_text() if dest and Path(dest).is_file() else out.getvalue()
    if code == 1 and err.getvalue():
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}, argv
        assert out.getvalue() == "" and not created, argv
    elif code == 1:  # only a failed audit exits 1 with no error, and prints its report
        assert verb == "code audit" and json.loads(printed)["pass"] is False, argv
    else:
        assert err.getvalue() == "" and (not dest or out.getvalue() == ""), argv
        if not (verb == "fm derive" and "--json" not in argv):
            json.loads(printed)


# Every parameter with a default of each public function, class and class method
# of each secembed module, with the repr of its default.  A new knob must be
# added here; the search and construction budgets are module constants instead.
DEFAULTS_TABLE = {
    "binning.exact_leakage": {"level": "'bin'"},
    "binning.simulate_nested_binning": {"measure_leakage": "True"},
    "cli.main": {"argv": "None"},
    "coset.CosetCodePair.to_bundle": {"seed": "None"},
    "coset.WiretapIIParams": {"eps": "0.0"},
    "coset.equivocation": {"level": "'both'"},
    "coset.union_bound_report": {"exact_counts": "False"},
    "dmc.DegradationResult": {"dual": "None"},
    "dmc.check_degraded": {"which": "'z2_of_z1'"},
    "dmc.embeddability_report": {"px_candidates": "()", "aux_candidates": "()"},
    "fm.LinIneq": {"const": "0", "strict": "False"},
    "fm.LinIneq.at_most": {"strict": "False"},
    "fm.LinIneqSystem.is_feasible": {"extra": "()"},
    "fm.LinIneqSystem.pretty": {"aliases": "()"},
    "fm.LinIneqSystem.relax_closure": {"slack_symbol": "None"},
    "fm.LinIneqSystem.simplify_with_assumptions": {"assumptions": "()"},
    "gf2.bit_array": {"what": "'matrix'"},
}


def _defaults(fn) -> dict:
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # an exception class that keeps the builtin constructor
        return {}
    return {p.name: repr(p.default) for p in params if p.default is not p.empty}


def test_library_defaults_pinned():
    table = {}
    for info in pkgutil.iter_modules(secembed.__path__):
        module = importlib.import_module(f"secembed.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", getattr(member, "__func__", member))
                            for attr, member in vars(obj).items() if not attr.startswith("_")]
            for qualname, fn in members:
                if callable(fn) and _defaults(fn):
                    table[f"{info.name}.{qualname}"] = _defaults(fn)
    assert table == DEFAULTS_TABLE


def test_no_unused_import_in_src():
    unused = []
    for path in sorted(Path(secembed.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in names]
    assert not unused


def test_one_scalar_rule_in_src():
    """Only the package root (the scalar readers) and fm (its exact rationals) import
    numbers, so a module with its own copy of the rule fails here; the root imports
    only the standard library, so importing gf2 still loads no other module."""
    importers, root_imports = [], set()
    for path in sorted(Path(secembed.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            importers += [path.name for name in names if name == "numbers"]
            if path.name == "__init__.py":
                root_imports.update(name.split(".")[0] for name in names)
    assert importers == ["__init__.py", "fm.py"]
    assert root_imports <= sys.stdlib_module_names, root_imports


def test_one_budget_rule_in_src():
    """In binning a *_BUDGET constant is read only inside _within, the one budget check,
    so a check written out by hand, with its own wording, fails here; the module-level
    assignments of the constants are exempt."""
    tree = ast.parse(Path(binning.__file__).read_text())
    within = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_within"]
    exempt = within + [node for node in tree.body if isinstance(node, ast.Assign) and all(
        isinstance(t, ast.Name) and t.id.endswith("_BUDGET") for t in node.targets)]
    uses = sorted(node.lineno for top in tree.body if top not in exempt
                  for node in ast.walk(top)
                  if isinstance(node, ast.Name) and node.id.endswith("_BUDGET"))
    assert uses == [], f"budget constants read outside _within on lines {uses}"
    assert len(within) == 1


def test_one_range_rule_in_src():
    """A message stating a numeric range is written only by the package root's range rule
    (``_bounded``, under ``_integer`` and ``_real``), so a range check written out by hand,
    with its own wording, fails here.  cli.py is exempt: its flag messages name the flag
    (``--seed``, ``--points``) rather than a library parameter, and tests of the command
    line pin those names."""
    states_a_range = re.compile(r"must be [<>]= (-?\d|$)|must be (finite and )?nonnegative"
                                r"|positive integer|out of range|number in \[|must lie in")
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(secembed.__file__).parent.glob("*.py"))
             if path.name not in ("__init__.py", "cli.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and states_a_range.search(node.value)]
    assert found == [], f"range messages written outside the range rule: {found}"


def test_one_tolerance_rule_in_src():
    """A tolerance, a float literal below 1e-5 in magnitude, is written only in a
    module-level assignment, where it has a name and a comment saying what it decides,
    so a bare literal in a comparison, with its own rule, fails here."""
    found = []
    for path in sorted(Path(secembed.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {id(node) for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                 for node in ast.walk(stmt)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0 < abs(node.value) < 1e-5 and id(node) not in named]
    assert found == [], f"tolerances written outside a named module constant: {found}"


def test_one_error_kind_for_bad_values_in_src():
    """A bad value is a ValueError in every module, so cli.main maps exactly three error
    kinds: no module raises IndexError, KeyError or LookupError, or builds an error
    class on one of them, and main catches ValueError, OSError and RuntimeError."""
    lookup = {"IndexError", "KeyError", "LookupError"}
    found, caught = [], []
    for path in sorted(Path(secembed.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                found += [f"{path.name}:{node.lineno}"] * (
                    getattr(exc, "id", getattr(exc, "attr", None)) in lookup)
            elif isinstance(node, ast.ExceptHandler) and path.name == "cli.py":
                caught.append([n.id for n in getattr(node.type, "elts", [])])
    for info in pkgutil.iter_modules(secembed.__path__):
        module = importlib.import_module(f"secembed.{info.name}")
        found += [f"{info.name}.{name}" for name, obj in vars(module).items()
                  if inspect.isclass(obj) and issubclass(obj, LookupError)
                  and obj.__module__ == module.__name__]
    assert found == [], f"lookup errors raised or built on in src: {found}"
    assert ["ValueError", "OSError", "RuntimeError"] in caught


def test_all_lists_the_public_functions_and_classes():
    # constants such as coset.ERASURE may be listed too, but every listed name must exist
    def defined(obj):
        return inspect.isfunction(obj) or inspect.isclass(obj)

    for info in pkgutil.iter_modules(secembed.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"secembed.{info.name}")
        listed = {name for name in module.__all__ if defined(getattr(module, name))}
        public = {name for name, obj in vars(module).items() if not name.startswith("_")
                  and defined(obj) and obj.__module__ == module.__name__}
        assert listed == public, info.name


def test_importing_gf2_loads_no_other_module():
    src = str(Path(secembed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, secembed.gf2; "
         "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'secembed'))"],
        capture_output=True, text=True, check=True, env=env).stdout.split()
    assert loaded == ["secembed", "secembed.gf2"]
