"""End-to-end tests for the command-line interface."""

import json

import pytest

from pwlcycles.cli import main

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


def test_simulate_divergence_is_reported_not_fatal(write_doc, tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    rc = main(["simulate", "--config", write_doc(DIVERGING_DOC),
               "--steps", "1000", "--transient", "0", "--x0", "0.4",
               "--emit-csv", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "diverged at step 26" in stdout
    assert out.read_text().splitlines() == ["t,x"]


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


def test_classify_underflowing_slope_power(capsys):
    rc = main(["classify", "--a", "1e-200", "--d", "-1e300", "--n", "3",
               "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "ExistsStable"
