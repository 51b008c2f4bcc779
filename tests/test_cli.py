"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlcycles import cli
from pwlcycles.cli import main
from pwlcycles.config import read_config
from pwlcycles.cycle_solver import solve_cycle, solve_symbolic_cycle
from pwlcycles.errors import PwlcyclesError
from pwlcycles.region_atlas import GridSpec
from pwlcycles.simulator import trajectory
from pwlcycles.skew_tent import classify

CANONICAL_DOC = (
    '{"kind": "canonical", "m": 3, "a": 0.4, "d": -4.0, "mu_hat": 0.8,'
    ' "b_vec": [1.0, 0.5, 0.6], "e_vec": [0.5, 1.0, 1.0],'
    ' "A_block": [[0.4, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.6]],'
    ' "h_Y": [1.0, 0.0, 1.0]}'
)

SCALAR_DOC = (
    '{"kind": "canonical", "m": 0, "a": 0.4, "d": -4.0, "mu_hat": 0.8,'
    ' "b_vec": [], "e_vec": [], "A_block": [], "h_Y": []}'
)

DIVERGING_DOC = SCALAR_DOC.replace('"d": -4.0', '"d": 3.0')

EIG_ONE_DOC = (
    '{"kind": "canonical", "m": 1, "a": 0.4, "d": -4.0, "mu_hat": 0.8,'
    ' "b_vec": [1.0], "e_vec": [0.5], "A_block": [[1.0]], "h_Y": [0.0]}'
)

NET_DOC = (
    '{"kind": "plrnn", "M": 4, "A_diag": [0.4, 0.4, 0.5, 0.6],'
    ' "W": [[-4.4, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0],'
    ' [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],'
    ' "h": [0.8, 1.0, 0.0, 1.0], "relaxed_diagonal": true}'
)

STRICT_NET_DOC = (
    '{"kind": "plrnn", "M": 2, "A_diag": [0.5, 0.5],'
    ' "W": [[0.0, 0.0], [0.3, 0.0]], "h": [1.0, 0.0],'
    ' "relaxed_diagonal": false}'
)

CROSSED_NET_DOC = (
    '{"kind": "plrnn", "M": 2, "A_diag": [0.5, 0.5],'
    ' "W": [[0.0, 0.7], [0.3, 0.0]], "h": [1.0, 0.0],'
    ' "relaxed_diagonal": false}'
)


@pytest.fixture
def write_doc(tmp_path):
    def _write(text, name="sys.json"):
        path = tmp_path / name
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    return _write


def test_classify_text(capsys):
    rc = main(["classify", "--a", "0.4", "--d", "-4.0", "--n", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: ExistsStable" in out
    assert "existence_margin" in out
    assert "curve_distance" in out


def test_classify_json(capsys):
    rc = main(["classify", "--a", "0.4", "--d", "-3.5", "--n", "3",
               "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "OnBifurcationCurve"
    assert doc["n"] == 3
    assert "existence_margin" in doc["details"]


def test_classify_negative_exponent_value(capsys):
    # argparse's stock pattern reads -4.6e+21 as an option flag
    rc = main(["classify", "--a", "0.4", "--d", "-4.6e+21", "--n", "3",
               "--tol", "1E-9", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "ExistsUnstable"
    assert doc["details"]["existence_margin"] == pytest.approx(4.6e21)


def test_classify_missing_flag_is_usage_error(capsys):
    rc = main(["classify", "--a", "0.4", "--d", "-4.0"])
    assert rc == 2


def test_cycle_prints_points(write_doc, capsys):
    rc = main(["cycle", "--config", write_doc(CANONICAL_DOC), "--n", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sequence: RLL" in out
    assert "point 1: 0.760976 0.668543 -0.479443 1.744400" in out
    assert "stable: True" in out


def test_cycle_symbolic_matches_positional(write_doc, capsys):
    # the fixed-point solve may differ from the closed form in the last
    # ulp, so compare at the printed 6-decimal precision, not bytewise
    path = write_doc(CANONICAL_DOC)
    main(["cycle", "--config", path, "--n", "3"])
    by_n = capsys.readouterr().out.splitlines()
    main(["cycle", "--config", path, "--sequence", "RLL"])
    by_seq = capsys.readouterr().out.splitlines()

    def keep(lines):
        prefixes = ("sequence:", "point", "multipliers:", "stable:")
        return [l for l in lines if l.startswith(prefixes)]

    assert keep(by_n) == keep(by_seq)


def test_cycle_emit_csv_deterministic(write_doc, tmp_path, capsys):
    path = write_doc(CANONICAL_DOC)
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    assert main(["cycle", "--config", path, "--n", "3",
                 "--emit", "csv", "--out", str(out1)]) == 0
    assert main(["cycle", "--config", path, "--n", "3",
                 "--emit", "csv", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "i,x,Y1,Y2,Y3"
    assert len(lines) == 4
    assert lines[1].startswith("1,0.7609756097560977,")


@pytest.mark.parametrize("doc", [SCALAR_DOC, CANONICAL_DOC], ids=["m0", "m3"])
@pytest.mark.parametrize("flags", [["--n", "3"], ["--sequence", "RLL"]],
                         ids=["n", "sequence"])
def test_cycle_emit_csv_matches_csv_module(doc, flags, write_doc, tmp_path, capsys):
    path = write_doc(doc)
    out = tmp_path / "c.csv"
    assert main(["cycle", "--config", path, *flags,
                 "--emit", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    system = read_config(path)
    if flags[0] == "--n":
        sol = solve_cycle(system, 3)
    else:
        sol = solve_symbolic_cycle(system, "RLL")
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["i", "x"] + [f"Y{k}" for k in range(1, system.m + 1)])
    for idx, point in enumerate(sol.points, start=1):
        writer.writerow([idx] + [repr(float(v)) for v in point])
    assert out.read_bytes() == expected.getvalue().encode()


def test_cycle_emit_json(write_doc, tmp_path, capsys):
    out = tmp_path / "c.json"
    rc = main(["cycle", "--config", write_doc(CANONICAL_DOC), "--n", "3",
               "--emit", "json", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["sequence"] == "RLL"
    assert len(doc["points"]) == 3
    assert len(doc["multipliers"]) == 4


def test_cycle_flag_and_io_errors(write_doc, capsys):
    path = write_doc(CANONICAL_DOC)
    assert main(["cycle", "--config", path, "--n", "3", "--emit", "csv"]) == 2
    assert main(["cycle", "--config", path]) == 2
    assert main(["cycle", "--config", path, "--n", "3",
                 "--sequence", "RLL"]) == 2
    assert main(["cycle", "--config", "/nonexistent/x.json", "--n", "3"]) == 4
    assert main(["cycle", "--config", write_doc(NET_DOC, "n.json"),
                 "--n", "3"]) == 2
    capsys.readouterr()


def test_cycle_solver_preconditions_exit_3(write_doc, capsys):
    assert main(["cycle", "--config", write_doc(EIG_ONE_DOC), "--n", "3"]) == 3
    zero_mu = SCALAR_DOC.replace('"mu_hat": 0.8', '"mu_hat": 0.0')
    assert main(["cycle", "--config", write_doc(zero_mu, "z.json"),
                 "--n", "3"]) == 3
    capsys.readouterr()
    # a^(n-1) overflows a float: one error line, no traceback or warning
    huge = SCALAR_DOC.replace('"a": 0.4', '"a": 1e200')
    huge = huge.replace('"d": -4.0', '"d": -1.0')
    assert main(["cycle", "--config", write_doc(huge, "h.json"), "--n", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: NotAdmissibleError: ") and err.count("\n") == 1
    # the composed map of the word overflows
    wide = SCALAR_DOC.replace('"a": 0.4', '"a": -3e4').replace('"d": -4.0', '"d": 2e4')
    wide = wide.replace('"mu_hat": 0.8', '"mu_hat": 1.0')
    assert main(["cycle", "--config", write_doc(wide, "w.json"),
                 "--sequence", "RL" * 40]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: NotAdmissibleError: ")
    assert captured.err.count("\n") == 1
    # A_block^n overflows while every x point is finite
    blocked = EIG_ONE_DOC.replace('"d": -4.0', '"d": -12.0')
    cases = (("1e120", ["--n", "3"]), ("1e20", ["--sequence", "R" + "L" * 29]))
    for block, flags in cases:
        doc = blocked.replace('"A_block": [[1.0]]', f'"A_block": [[{block}]]')
        assert main(["cycle", "--config", write_doc(doc, "b.json"), *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: NotAdmissibleError: A_block")
        assert captured.err.count("\n") == 1


def test_scan_stdout(capsys):
    rc = main(["scan", "--a-min", "0.3", "--a-max", "0.5", "--a-steps", "2",
               "--d-min", "-5.0", "--d-max", "-3.0", "--d-steps", "2",
               "--n", "3", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "a,d,n,verdict"
    assert len(lines) == 1 + 2 * 2 * 2
    assert lines[1] == "0.35,-4.5,3,ExistsStable"


def test_scan_negative_exponent_bounds(capsys):
    rc = main(["scan", "--a-min", "0.3", "--a-max", "0.5", "--a-steps", "2",
               "--d-min", "-4e+1", "--d-max", "-3e0", "--d-steps", "2",
               "--n", "3"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 4
    assert [row.split(",")[1] for row in rows[:2]] == ["-30.75", "-12.25"]


def test_scan_to_file_and_io_error(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(["scan", "--a-min", "0.3", "--a-max", "0.5", "--a-steps", "2",
               "--d-min", "-5.0", "--d-max", "-3.0", "--d-steps", "2",
               "--n", "3", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "a,d,n,verdict"
    rc = main(["scan", "--a-min", "0.3", "--a-max", "0.5", "--a-steps", "2",
               "--d-min", "-5.0", "--d-max", "-3.0", "--d-steps", "2",
               "--n", "3", "--out", "/nonexistent/dir/grid.csv"])
    assert rc == 4
    capsys.readouterr()


def test_scan_rejects_bad_grid(capsys):
    rc = main(["scan", "--a-min", "0.5", "--a-max", "0.3", "--a-steps", "2",
               "--d-min", "-5.0", "--d-max", "-3.0", "--d-steps", "2",
               "--n", "3"])
    assert rc == 2
    capsys.readouterr()


def test_scan_rejects_a_repeated_cycle_length(capsys):
    # a repeated n used to write each of its rows twice
    rc = main(["scan", "--a-min", "0.3", "--a-max", "0.5", "--a-steps", "2",
               "--d-min", "-5.0", "--d-max", "-3.0", "--d-steps", "2",
               "--n", "3", "3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: n_list must not repeat")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--a", "0.4", "--d", "-3.5", "--n", "3", "--tol", "nan"],
        ["classify", "--a", "0.4", "--d", "-3.5", "--n", "3", "--tol", "inf"],
        ["scan", "--a-min", "0.3", "--a-max", "0.5", "--a-steps", "2",
         "--d-min", "-5.0", "--d-max", "-3.0", "--d-steps", "2", "--n", "3",
         "--tol", "nan"],
        ["scan", "--a-min", "0.3", "--a-max", "inf", "--a-steps", "2",
         "--d-min", "-5.0", "--d-max", "-3.0", "--d-steps", "2", "--n", "3"],
        ["scan", "--a-min", "0.3", "--a-max", "0.5", "--a-steps", "2",
         "--d-min=-inf", "--d-max", "-3.0", "--d-steps", "2", "--n", "3"],
        ["classify", "--a", "nan", "--d", "-3.5", "--n", "3"],
        ["classify", "--a", "0.4", "--d=-inf", "--n", "3", "--mu-sign=-"],
    ],
)
def test_non_finite_tol_and_bounds_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "bounds, mu_sign",
    [
        (("1e-05", "3", "7", "-4.6e+21", "-1e-05", "5", ("3", "30")), "+"),
        (("-4.6e+21", "-1e-05", "5", "1e-05", "3", "7", ("3", "30")), "-"),
        (("1e-05", "2e-05", "3", "-4.6e+21", "-4.5e+21", "2", ("3", "30")), "+"),
        (("-4.6e+21", "-4.5e+21", "2", "1e-05", "2e-05", "3", ("3", "30")), "-"),
        # 1x1, 1xN and Nx1 grids, and an unsorted n_list (a repeated n
        # exits 2: test_scan_rejects_a_repeated_cycle_length)
        (("0.1", "0.9", "1", "-12", "-1", "1", ("3", "30")), "+"),
        (("-12", "-1", "1", "0.1", "0.9", "1", ("3", "30")), "-"),
        (("0.1", "0.9", "1", "-12", "-1", "9", ("3", "4")), "+"),
        (("-12", "-1", "1", "0.1", "0.9", "9", ("3", "4")), "-"),
        (("0.1", "0.9", "9", "-12", "-1", "1", ("4", "3")), "+"),
        (("-12", "-1", "9", "0.1", "0.9", "1", ("4", "3")), "-"),
        (("0.1", "0.9", "4", "-12", "-1", "3", ("5", "3", "4")), "+"),
        (("-12", "-1", "4", "0.1", "0.9", "3", ("5", "3", "4")), "-"),
    ],
)
def test_scan_csv_matches_per_cell_oracle(bounds, mu_sign, tmp_path, capsys):
    a_min, a_max, a_steps, d_min, d_max, d_steps, n_args = bounds
    argv = ["scan", "--a-min", a_min, "--a-max", a_max, "--a-steps", a_steps,
            "--d-min", d_min, "--d-max", d_max, "--d-steps", d_steps,
            "--n", *n_args, "--mu-sign", mu_sign]
    n_list = tuple(int(n) for n in n_args)
    spec = GridSpec(float(a_min), float(a_max), int(a_steps), float(d_min),
                    float(d_max), int(d_steps), n_list, mu_sign)
    rows = [["a", "d", "n", "verdict"]] + [
        [repr(float(a)), repr(float(d)), str(n),
         classify(float(a), float(d), n, mu_sign=mu_sign).verdict.value]
        for n in n_list
        for a in spec.a_centers()
        for d in spec.d_centers()
    ]
    expected = "".join(",".join(row) + "\n" for row in rows)
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout == expected
    assert list(csv.reader(io.StringIO(stdout))) == rows
    out = tmp_path / "grid.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()


def test_simulate_summary_and_csv(write_doc, tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    rc = main(["simulate", "--config", write_doc(CANONICAL_DOC),
               "--steps", "2000", "--transient", "1900", "--x0", "0.3",
               "--emit-csv", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "period: 3" in stdout
    assert "bands: 3" in stdout
    assert "itinerary: " in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,Y1,Y2,Y3"
    assert len(lines) == 101
    assert lines[1].startswith("1900,")
    system = read_config(write_doc(CANONICAL_DOC))
    orbit = trajectory(system, steps=2000, transient=1900, z0=[0.3, 0.0, 0.0, 0.0])
    rows = [
        ",".join([str(1900 + k)] + [repr(float(v)) for v in orbit.states[k]])
        for k in range(100)
    ]
    expected = "".join(line + "\n" for line in ["t,x,Y1,Y2,Y3"] + rows)
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("flag", ["--cycle-tol", "--zero-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_simulate_non_finite_tolerance_exits_2(flag, value, write_doc, capsys):
    rc = main(["simulate", "--config", write_doc(CANONICAL_DOC),
               "--steps", "2000", "--transient", "1000", "--x0", "0.3",
               f"{flag}={value}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # the eigenvalue-one config exits 3 once a valid zero_tol reaches the solver
    ["cycle", "--config", "{eig1}", "--n", "3", "--zero-tol", "nan"],
    ["cycle", "--config", "{can}", "--n", "3", "--zero-tol", "0"],
    ["cycle", "--config", "{can}", "--sequence", "RLL", "--zero-tol=-1e-9"],
    ["plrnn", "--config", "{net}", "--pair", "0000", "1000", "--n", "3",
     "--zero-tol", "inf"],
])
def test_zero_tol_must_be_finite_and_positive(argv, write_doc, capsys):
    paths = {"{eig1}": write_doc(EIG_ONE_DOC, "eig1.json"),
             "{can}": write_doc(CANONICAL_DOC, "can.json"),
             "{net}": write_doc(NET_DOC, "net.json")}
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: zero_tol must be a finite positive number")
    assert captured.err.count("\n") == 1


def test_simulate_zero_tol_defaults_to_the_cycle_tolerance(write_doc, capsys):
    # mu_hat = 10: the third point of the 3-cycle, about -5e-9, is inside
    # zero_tolerance(10) = 1e-8 but outside the absolute 1e-9
    doc = SCALAR_DOC.replace('"a": 0.4, "d": -4.0, "mu_hat": 0.8',
                             '"a": 0.5, "d": -3.00000000175, "mu_hat": 10.0')
    path = write_doc(doc)
    sol = solve_cycle(read_config(path), 3)
    assert -1e-8 < sol.points[2][0] < -1e-9
    argv = ["simulate", "--config", path, "--steps", "2000", "--transient",
            "999", "--x0", repr(float(sol.points[0][0]))]
    assert main(["cycle", "--config", path, "--n", "3"]) == 0
    assert "sequence: RL0\n" in capsys.readouterr().out
    assert main(argv) == 0
    assert "itinerary: " + "RL0" * 10 + "RL\n" in capsys.readouterr().out
    assert main(argv + ["--zero-tol", "1e-9"]) == 0
    assert "itinerary: " + "RLL" * 10 + "RL\n" in capsys.readouterr().out


def test_simulate_divergence_is_reported_not_fatal(write_doc, tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    rc = main(["simulate", "--config", write_doc(DIVERGING_DOC),
               "--steps", "1000", "--transient", "0", "--x0", "0.4",
               "--emit-csv", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    # the threshold is 1e12 times the run's scale, max(|mu_hat|, |x0|)
    assert stdout == "diverged at step 26 (threshold 800000000000.0)\n"
    assert out.read_bytes() == b"t,x\n"


@pytest.mark.parametrize("mu_hat", ["1e-9", "1e13"])
def test_simulate_finds_the_cycle_at_any_scale_of_mu_hat(mu_hat, write_doc, capsys):
    # the orbit scales with mu_hat, and so do the cycle tolerance and the
    # divergence threshold: at 1e-9 the whole 3-cycle lies within an
    # absolute 1e-7, and at 1e13 its points lie beyond an absolute 1e12
    tent = write_doc(SCALAR_DOC.replace('"mu_hat": 0.8', f'"mu_hat": {mu_hat}'))
    assert main(["simulate", "--config", tent]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "period: 3" in lines
    assert "bands: 3" in lines


def test_simulate_no_cycle_reported(write_doc, capsys):
    chaos = SCALAR_DOC.replace('"d": -4.0', '"d": -2.8')
    rc = main(["simulate", "--config", write_doc(chaos),
               "--steps", "101000", "--transient", "1000", "--x0", "0.3"])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "period: none (no cycle up to 64)" in stdout
    assert "bands: 2" in stdout


def test_plrnn_localization_report(write_doc, capsys):
    rc = main(["plrnn", "--config", write_doc(NET_DOC),
               "--pair", "0000", "1000", "--n", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "boundary: s = 1" in out
    assert "a: 0.4" in out
    assert "d: -4.0" in out
    assert "mu_hat: 0.8" in out
    assert "e_vec: 0.5 1.0 1.0" in out
    assert "classification: ExistsStable" in out
    assert "locality: violated at 9 point-coordinates" in out


def test_plrnn_consistent_pair_reports_ok(write_doc, capsys):
    rc = main(["plrnn", "--config", write_doc(NET_DOC),
               "--pair", "0111", "1111", "--n", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "locality: ok (0 boundary warnings)" in out
    assert "point 1: 0.760976" in out


def test_cycle_n_solves_the_family_of_the_offset_sign(write_doc, capsys):
    # the tent that the negative-offset network reduces to: cycle --n
    # solves L R^(n-1) there, as plrnn does for the network and as
    # classify --mu-sign - reads the point
    net = ('{"kind": "plrnn", "M": 2, "A_diag": [-4.0, 0.5],'
           ' "W": [[4.4, 0.0], [0.3, 0.1]], "h": [-0.8, 1.0],'
           ' "relaxed_diagonal": true}')
    tent = SCALAR_DOC.replace('"a": 0.4, "d": -4.0, "mu_hat": 0.8',
                              '"a": -4.0, "d": 0.4, "mu_hat": -0.8')
    runs = (
        ["classify", "--a", "-4.0", "--d", "0.4", "--n", "3", "--mu-sign", "-"],
        ["plrnn", "--config", write_doc(net, "net.json"), "--pair", "01", "11"],
        ["cycle", "--config", write_doc(tent, "tent.json")],
    )
    outs = []
    for argv in runs:
        assert main(argv + ["--n", "3"]) == 0
        outs.append(capsys.readouterr().out.splitlines())
    assert "verdict: ExistsStable" in outs[0]
    for lines in outs[1:]:
        assert "sequence: LRR" in lines
        assert "stable: True" in lines
        assert any(line.startswith("point 1: -0.760976") for line in lines)


def test_classify_cycle_and_simulate_read_one_kink_rule(write_doc, capsys):
    # one ulp below -536870911 at n = 30 the last cycle point lies within
    # 1e-9 mu_hat of the kink, as the closed form's letter 0 says; and a
    # tent with mu_hat = 1e-9 has the cycle of mu_hat = 0.8, scaled
    assert main(["classify", "--a", "0.5", "--d", "-536870911.00000006",
                 "--n", "30"]) == 0
    assert "verdict: OnBifurcationCurve" in capsys.readouterr().out.splitlines()
    tent = write_doc(SCALAR_DOC.replace('"mu_hat": 0.8', '"mu_hat": 1e-9'))
    assert main(["cycle", "--config", tent, "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "sequence: RLL" in lines
    assert "stable: True" in lines
    assert main(["simulate", "--config", tent]) == 0
    assert "itinerary: " + "RLL" * 10 + "RL" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("argv, lines_read", [
    (["classify", "--a", "0.5", "--d", "-3.9", "--n", "3"], 0),
    (["scan", "--a-min", "0.01", "--a-max", "3", "--a-steps", "200", "--d-min",
      "-40", "--d-max", "-0.01", "--d-steps", "200", "--n", "3"], 1),
])
def test_a_reader_that_closes_the_pipe_early_ends_the_command_quietly(
        argv, lines_read):
    # classify's few lines sit in the buffer until main flushes them; the
    # scan's 1.5 MB block on the pipe after the reader's first line
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", "from pwlcycles.cli import entry_point; entry_point()",
         *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    for _ in range(lines_read):
        assert proc.stdout.readline() == b"a,d,n,verdict\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert _readme_exit_codes()["BrokenPipeError"] == 0


def test_plrnn_degenerate_kink_line(write_doc, capsys):
    rc = main(["plrnn", "--config", write_doc(STRICT_NET_DOC),
               "--pair", "00", "10", "--n", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "DegenerateKink: a = d = 0.5" in out
    assert "classification: OutsideRegion" in out


def test_plrnn_structural_errors_exit_5(write_doc, capsys):
    net = write_doc(NET_DOC)
    assert main(["plrnn", "--config", net, "--pair", "0000", "1100",
                 "--n", "3"]) == 5
    assert main(["plrnn", "--config", net, "--pair", "0000", "0000",
                 "--n", "3"]) == 5
    crossed = write_doc(CROSSED_NET_DOC, "crossed.json")
    assert main(["plrnn", "--config", crossed, "--pair", "00", "10",
                 "--n", "3"]) == 5
    capsys.readouterr()


def test_plrnn_flag_errors_exit_2(write_doc, capsys):
    net = write_doc(NET_DOC)
    assert main(["plrnn", "--config", net, "--pair", "000", "100",
                 "--n", "3"]) == 2
    assert main(["plrnn", "--config", net, "--pair", "0000", "10a0",
                 "--n", "3"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cycle_config_with_huge_integer_exits_2(write_doc, capsys):
    huge = SCALAR_DOC.replace('"a": 0.4', '"a": 1' + "0" * 400)
    assert main(["cycle", "--config", write_doc(huge), "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: ConfigError: field 'a' must fit in a float\n"


SUBCOMMANDS = ["classify", "cycle", "scan", "simulate", "plrnn"]

_CLASSIFY = ["classify", "--a", "0.4", "--d", "-3.5", "--n", "3"]
_SCAN = ["scan", "--a-min", "0.01", "--a-max", "3", "--a-steps", "4",
         "--d-min", "-40", "--d-max", "-0.01", "--d-steps", "3", "--n", "3", "4"]
# {can}, {scalar} and {net} stand for config files written by the test
_VALID_CALLS = [
    _CLASSIFY,
    ["cycle", "--config", "{can}", "--n", "3"],
    _SCAN,
    ["simulate", "--config", "{scalar}", "--steps", "2000", "--transient", "100"],
    ["plrnn", "--config", "{net}", "--pair", "0000", "1000", "--n", "3"],
]
IDENTITY_CORPUS = [
    *_VALID_CALLS,
    *([name, "-h"] for name in SUBCOMMANDS),
    ["-h"],
    [],
    ["bogus"],
    ["class"],
    *(argv + ["--bogus"] for argv in _VALID_CALLS),
    ["classify", "--a", "0.4", "--d", "-3.5"],
    ["plrnn", "--config", "{net}", "--pair", "0000"],
    ["classify", "--a", "0.4", "--d", "-3.5", "--n", "three"],
    ["scan", *_SCAN[1:6], "4.5", *_SCAN[7:]],
    ["cycle", "--config", "{can}", "--n", "3", "--sequence", "RL"],
    ["classify", "--a", "0.4", "--d", "-4.6e+21", "--n", "3"],
]

USAGE = "usage: pwlcycles [-h] {classify,cycle,scan,simulate,plrnn} ...\n"


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["class"], "argument command: invalid choice: 'class' (choose from 'classify', "
                "'cycle', 'scan', 'simulate', 'plrnn')"),
    (_CLASSIFY + ["--bogus"], "unrecognized arguments: --bogus"),
])
def test_top_level_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{USAGE}pwlcycles: error: {message}\n"


def _full_parser_call(argv):
    """argv parsed by a fresh parser of every subcommand, dispatched by name."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return getattr(cli, f"_cmd_{args.command}")(args)


@pytest.fixture
def with_configs(write_doc):
    """argv with {can}, {scalar} and {net} replaced by written config paths."""
    paths = {"{can}": write_doc(CANONICAL_DOC, "can.json"),
             "{scalar}": write_doc(SCALAR_DOC, "scalar.json"),
             "{net}": write_doc(NET_DOC, "net.json")}
    return lambda argv: [paths.get(arg, arg) for arg in argv]


@pytest.mark.parametrize("argv", IDENTITY_CORPUS,
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_matches_the_full_parser(argv, with_configs, capsys):
    argv = with_configs(argv)
    got = (main(argv), *capsys.readouterr())
    assert got == (_full_parser_call(argv), *capsys.readouterr())


def test_main_calls_a_handler_patched_after_its_parser_was_built(monkeypatch, capsys):
    assert main(_CLASSIFY) == 0  # builds and keeps the parser
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "_cmd_classify", lambda args: seen.append(args.n) or 7)
    assert main(_CLASSIFY) == 7
    assert seen == [3]


def test_a_kept_parser_answers_each_call_afresh(capsys):
    def call(argv):
        return (main(argv), *capsys.readouterr())

    first = {}
    for argv in (_CLASSIFY, _CLASSIFY + ["--bogus"], _CLASSIFY, ["classify", "-h"]):
        got = [call(argv) for _ in range(3)]
        assert got == [first.setdefault(tuple(argv), got[0])] * 3
    assert [first[key][0] for key in first] == [0, 2, 0]
    # a list-valued flag holds only the values of the call that gave it
    assert _SCAN[-3:] == ["--n", "3", "4"]
    call(_SCAN)
    fewer = _SCAN[:-2] + ["5"]
    got = call(fewer)
    assert {row.split(",")[2] for row in got[1].splitlines()[1:]} == {"5"}
    assert got == (_full_parser_call(fewer), *capsys.readouterr())
    # build_parser still hands every caller a parser of its own
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()


def test_main_builds_one_parser_per_process(with_configs, monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    calls = [*_VALID_CALLS, ["-h"], ["bogus"], _CLASSIFY + ["--bogus"]]
    codes = [main(with_configs(argv)) for argv in calls]
    capsys.readouterr()
    assert codes == [0] * 6 + [2, 2]
    assert len(built) == 1


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["+", "-", "text", "json", "csv", "xml", "0101", "01a", "RL",
                     "", "-4.6e+21", "-.5", "--bogus", "-x", "-h", "--", "classify"]),
    st.text(alphabet="-.0123456789eE+RL", max_size=6),
)


def _valid_value(action):
    if action.choices:
        return st.sampled_from(action.choices)
    if action.type is float:
        return st.floats().map(repr)
    if action.type is int:
        return st.integers(-10**6, 10**6).map(str)
    if action.type is cli._bits_word:
        return st.text(alphabet="01", min_size=1, max_size=4)
    return st.text(alphabet="RL01.", max_size=4)  # a config path or a word


@st.composite
def _subcommand_argv(draw, name, actions):
    """name, then the flags of actions in any order, each left out one time
    in sixteen; one value in eight is an arbitrary token, and so may be a
    last token."""
    argv = [name]
    for action in draw(st.permutations(actions)):
        if draw(st.integers(0, 15)):
            argv.append(action.option_strings[-1])
            for _ in range(2 if action.nargs == 2 else 1):
                arbitrary = draw(st.integers(0, 7)) == 0
                argv.append(draw(_TOKENS if arbitrary else _valid_value(action)))
    return argv + draw(st.lists(_TOKENS, max_size=1))


def _parse(parser, argv):
    """The namespace parser reads from argv, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    return repr(sorted(vars(args).items()))  # repr, since nan != nan


@st.composite
def _argv_sequence(draw, subs, name):
    """An argv of subcommand name, then up to three argv of any of subs
    or of arbitrary tokens, in any order."""

    def argv_of(sub):
        return _subcommand_argv(sub, subs[sub]._actions[1:])  # all but -h

    rest = draw(st.lists(st.one_of(st.sampled_from(list(subs)).flatmap(argv_of),
                                   st.lists(_TOKENS, max_size=2)), max_size=3))
    return draw(st.permutations([draw(argv_of(name)), *rest]))


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_one_subcommand_parser_parses_as_the_full_parser(name):
    """main's kept parser reads each argv of a sequence as a fresh parser does."""
    subs = _subparsers(cli.build_parser())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_argv_sequence(subs, name))
    def check(sequence):
        for argv in sequence:
            assert _parse(cli._parser(), argv) == _parse(cli.build_parser(), argv)

    check()


def test_classify_underflowing_slope_power(capsys):
    rc = main(["classify", "--a", "1e-200", "--d", "-1e300", "--n", "3",
               "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "ExistsStable"


def _readme_exit_codes():
    """Error class name -> exit code, from the README's exit-code table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    codes = {}
    for line in readme.splitlines():
        match = re.match(r"^\| (\d) \|", line)
        if match:
            for name in re.findall(r"`(\w+)`", line):
                codes[name] = int(match.group(1))
    return codes


ERROR_CLASSES = sorted(PwlcyclesError.__subclasses__(), key=lambda c: c.__name__)


def test_every_error_class_is_in_the_readme_table():
    codes = _readme_exit_codes()
    assert codes["ValueError"] == 2 and codes["OSError"] == 4
    assert {c.__name__ for c in ERROR_CLASSES} <= set(codes)
    assert len(ERROR_CLASSES) == 9


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_class_exit_code(cls, monkeypatch, capsys):
    assert "exit_code" in vars(cls)
    assert cls.exit_code == _readme_exit_codes()[cls.__name__]

    def fail(args):
        raise cls.__new__(cls)  # skip __init__: str(err) is empty

    monkeypatch.setattr(cli, "_cmd_classify", fail)
    assert main(["classify", "--a", "0.4", "--d", "-4.0", "--n", "3"]) == cls.exit_code
    assert capsys.readouterr().err == f"error: {cls.__name__}: \n"
