import argparse
import csv
import io
import json
import math
import re
import warnings

import pytest

from symcorr import (Configuration, ModelParams, cli, compute_report, compute_reports,
                     information)
from symcorr.cli import _scheme, build_parser, main
from symcorr.quadrature import QuadratureScheme
from symcorr.reference_tables import table_spec
from symcorr.wavefunction import parse_symmetry

REPORT_HEADER = ("system,space,s1,s2,s3,I_pair,I3,I_rho_gamma,I_gamma_gamma,"
                 "I_higher,error_estimate")
PAIR_HEADER = "system,space,s1,s2,I_pair,error_estimate"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_report_table_format(capsys):
    code, out, err = run(capsys, "report", "--n", "1,2,3", "--sym", "a",
                         "--panels", "10")
    assert code == 0
    assert "# box L=1 ns=(1, 2, 3) antisymmetric  [position]" in out
    assert "I3_x" in out and "I_rho,Gamma" in out
    assert "(est. error)" in out


def test_report_json_both_spaces(capsys):
    code, out, err = run(capsys, "report", "--n", "1,2,3", "--sym", "s",
                         "--space", "both", "--panels", "10",
                         "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["space"] for r in rows] == ["position", "momentum"]
    for r in rows:
        assert set(r) >= {"s1", "s2", "s3", "I_pair", "I3", "I_rho_gamma",
                          "I_gamma_gamma", "I_higher"}


def test_report_csv_format(capsys):
    code, out, err = run(capsys, "report", "--n", "1,2,3", "--sym", "d",
                         "--panels", "10", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert ",".join(rows[0]) == REPORT_HEADER
    assert len(rows) == 2
    # distinguishable products carry no correlation
    header = rows[0]
    vals = dict(zip(header, rows[1]))
    assert float(vals["I_pair"]) == pytest.approx(0.0, abs=1e-9)


def test_report_two_particles(capsys):
    code, out, err = run(capsys, "report", "--n", "1,2", "--sym", "a",
                         "--panels", "10", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    r = rows[0]
    assert r["I_pair"] == pytest.approx(2 * r["s1"] - r["s2"], abs=1e-12)
    assert r["I_pair"] > 0


def test_oscillator_report_on_120_panels(capsys):
    # the mapped rule at 120 panels once failed its own mirror check (exit 1)
    code, out, err = run(capsys, "report", "--model", "ho", "--n", "0,1", "--sym", "a",
                         "--panels", "120", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)[0]["I_pair"] > 0


def test_report_two_particles_csv(capsys):
    code, out, err = run(capsys, "report", "--n", "1,2", "--sym", "s",
                         "--space", "both", "--panels", "10", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert out.splitlines()[0] == PAIR_HEADER
    assert [r["space"] for r in rows] == ["position", "momentum"]
    for r in rows:
        assert r["system"] == "box L=1 ns=(1, 2) symmetric"
        s1, s2, i_pair = (float(r[k]) for k in ("s1", "s2", "I_pair"))
        assert i_pair == pytest.approx(2 * s1 - s2, abs=1e-10)


def test_report_two_particles_table(capsys):
    code, out, err = run(capsys, "report", "--n", "1,2", "--sym", "a",
                         "--panels", "10", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# box L=1 ns=(1, 2) antisymmetric  [position]"
    assert [line.split()[0] for line in lines[1:]] == ["s_x", "s_Gamma", "I_x",
                                                       "(est."]
    s1, s2, i_pair = (float(line.split()[1]) for line in lines[1:4])
    assert i_pair == pytest.approx(2 * s1 - s2, abs=2e-6)


@pytest.mark.parametrize("ns,sym", [("1,2", "d"), ("1,1", "s")])
def test_two_particle_product_states_carry_no_correlation(capsys, ns, sym):
    # box momentum: the pair entropy is the Hartree product's 2 s1 exactly
    code, out, err = run(capsys, "report", "--n", ns, "--sym", sym,
                         "--space", "momentum", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["I_pair"] == 0.0
    assert row["s2"] == 2 * row["s1"]


def test_report_both_spaces_is_one_batch(capsys, monkeypatch):
    calls = []

    def spy(systems, *args, **kwargs):
        calls.append([s.space for s in systems])
        return compute_reports(systems, *args, **kwargs)

    monkeypatch.setattr(cli, "compute_reports", spy)
    code, out, err = run(capsys, "report", "--n", "1,2", "--sym", "a",
                         "--space", "both", "--panels", "10", "--format", "json")
    assert code == 0
    assert calls == [["position", "momentum"]]
    assert [r["space"] for r in json.loads(out)] == ["position", "momentum"]


def test_tables_pass_and_output(capsys):
    code, out, err = run(capsys, "tables", "--which", "1", "--panels", "10")
    assert code == 0
    assert "PASS: all 64 cells" in out
    assert "A3" in out and "S6" in out


def test_tables_oscillator(capsys):
    code, out, err = run(capsys, "tables", "--which", "2", "--panels", "14")
    assert code == 0
    assert "PASS: all 64 cells" in out


def test_tables_negative_control(capsys):
    # a deliberately starved rule must be detected, not silently accepted
    code, out, err = run(capsys, "tables", "--which", "1", "--panels", "4")
    assert code == 1
    assert "FAIL" in out


def test_scan_superposition_csv(capsys):
    code, out, err = run(capsys, "scan-superposition", "--sym", "s",
                         "--panels", "10", "--c1sq-grid", "0.0,0.5,1.0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("c1sq,s1,s2,s3,I_pair,I3,I_rho_gamma,"
                        "I_gamma_gamma,I_higher")
    assert len(lines) == 4


def test_scan_superposition_no_interference(capsys):
    on_code, on_out, _ = run(capsys, "scan-superposition", "--sym", "a",
                             "--panels", "10",
                             "--c1sq-grid", "0.0,0.5,1.0")
    off_code, off_out, _ = run(capsys, "scan-superposition", "--sym", "a",
                               "--panels", "10", "--no-interference",
                               "--c1sq-grid", "0.0,0.5,1.0")
    assert on_code == 0 and off_code == 0
    mid_on = on_out.strip().split("\n")[2].split(",")
    mid_off = off_out.strip().split("\n")[2].split(",")
    # s3 (column 3) feels the interference toggle at c1^2 = 0.5
    assert abs(float(mid_on[3]) - float(mid_off[3])) > 1e-3


# each rule is too coarse for its states: the pair mutual information
# of a state comes out negative beyond the tolerance
@pytest.mark.parametrize("argv", [
    ["report", "--model", "ho", "--n", "0,1,5", "--sym", "s", "--panels", "3"],
    ["scan-n3", "--model", "ho", "--n", "0,1", "--n3-range", "5:5", "--panels", "3"],
    ["tables", "--which", "2", "--panels", "2"],
    ["scan-superposition", "--model", "ho", "--n", "0,1,5", "--n-second", "0,1,2",
     "--sym", "s", "--c1sq-grid", "0,0.5,1", "--panels", "3"],
], ids=lambda argv: argv[0])
def test_numerical_failure_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv, "--nodes", "8")
    assert code == 3
    assert out == ""
    assert err.startswith("error: numerical failure: pair mutual information")


def run_quietly(capsys, *argv):
    """``run``, with every NumPy RuntimeWarning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *argv)
    return result + ([w for w in caught if issubclass(w.category, RuntimeWarning)],)


def json_rows(capsys, *argv):
    """The JSON rows of a run that must exit 0 without a NumPy warning."""
    code, out, err, numpy_warnings = run_quietly(capsys, *argv, "--format", "json")
    assert code == 0 and err == "" and not numpy_warnings
    return json.loads(out)


# at the state's own scale the first two gave nan entropies, the next three
# a density that the rule's round-off pushed below -1e-12, and the last
# s2 = s3 = 0 and I^3 = -1040.9
@pytest.mark.parametrize("argv", [
    ["report", "--n", "1,2,3", "--sym", "a", "--L", "1e300"],
    ["report", "--n", "1,2,3", "--sym", "a", "--L", "1e-300"],
    ["report", "--n", "1,2", "--sym", "a", "--L", "0.02"],
    ["report", "--model", "ho", "--n", "0,1,2", "--sym", "a", "--omega", "1e5"],
    ["scan-n3", "--L", "0.01"],
    ["report", "--model", "ho", "--n", "0,1,2", "--sym", "a", "--omega", "1e-300"],
], ids=["L-1e300", "L-1e-300", "L-0.02", "omega-1e5", "scan-n3-L-0.01", "omega-1e-300"])
def test_extreme_scale_prints_the_unit_scale_measures(capsys, argv):
    # x scales as c = L, 1/L, omega^(-1/2) or omega^(1/2): each s_k shifts
    # by k ln c, and every other number stays
    scaled = json_rows(capsys, *argv)
    unit = json_rows(capsys, *argv[:-1], "1")
    assert len(scaled) == len(unit)
    for a, b in zip(unit, scaled):
        sign = 1.0 if b["space"] == "position" else -1.0
        log_c = sign * math.log(float(argv[-1])) * (1.0 if "--L" in argv else -0.5)
        bound = 1e-14 * max(1.0, abs(b["s1"]))
        assert a["space"] == b["space"]
        for key, value in a.items():
            if isinstance(value, float):
                shift = int(key[1]) * log_c if key in ("s1", "s2", "s3") else 0.0
                assert abs(b[key] - value - shift) <= bound, (b["system"], key)


# the pair-density grid is pointwise, in physical units: at an extreme L
# its values overflow, or its round-off passes -1e-12.  The first two
# printed inf and exited 0
@pytest.mark.parametrize("argv,message", [
    (["--sym", "s", "--space", "momentum", "--L", "1e300"], "pair density not finite"),
    (["--sym", "a", "--L", "1e-300"], "pair density not finite"),
    (["--sym", "a", "--L", "1e-6"], "density value significantly negative"),
], ids=["momentum-L-1e300", "L-1e-300", "L-1e-6"])
def test_density_grid_out_of_range_exits_3(capsys, argv, message):
    code, out, err, numpy_warnings = run_quietly(capsys, "density-grid", "--n", "1,2",
                                                 *argv)
    assert code == 3 and out == "" and not numpy_warnings
    assert err.startswith(f"error: numerical failure: {message}") and err.count("\n") == 1


# each run at L or omega over 600 decades, with the option that sets it last
SCALE_RUNS = {
    **{f"report-{ns}-{space}": ["report", "--n", ns, "--sym", "a", "--space", space]
       + (["--model", "ho", "--omega"] if ns == "0,1,2" else ["--L"])
       for ns in ("1,2", "1,2,3", "0,1,2") for space in ("position", "momentum")},
    "scan-n3": ["scan-n3", "--n3-range", "3:3", "--space", "both", "--L"],
    "scan-a": ["scan-superposition", "--sym", "a", "--c1sq-grid", "0.3,0.5,0.7", "--L"],
    "scan-ho-d": ["scan-superposition", "--model", "ho", "--sym", "d", "--n", "0,1,2",
                  "--n-second", "3,4,5", "--c1sq-grid", "0.3,0.5,0.7", "--omega"],
    **{f"density-grid-{tag}": ["density-grid", "--points", "5"] + argv for tag, argv in (
        ("a", ["--n", "1,2", "--sym", "a", "--L"]),
        ("s-momentum", ["--n", "1,2", "--sym", "s", "--space", "momentum", "--L"]),
        ("ho-a", ["--model", "ho", "--n", "0,1", "--sym", "a", "--omega"]))},
}


@pytest.mark.parametrize("scale", ["1e-300", "1e-6", "0.01", "1e6", "1e300"])
@pytest.mark.parametrize("name", SCALE_RUNS)
def test_extreme_scale_prints_finite_numbers_or_one_error(capsys, name, scale):
    # every entropy runs at unit scale, so only the pointwise density grid,
    # in physical units, may fail
    code, out, err, numpy_warnings = run_quietly(capsys, *SCALE_RUNS[name], scale)
    assert not numpy_warnings
    assert code == 0 or (code == 3 and name.startswith("density-grid"))
    if code:
        assert out == "" and err.startswith("error: numerical failure: ") \
            and err.count("\n") == 1
    else:
        assert out and not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE)


def test_table_mismatch_exits_1(capsys):
    # these cells miss the table, but no pair mutual information is negative
    code, out, err = run(capsys, "tables", "--which", "1", "--panels", "2",
                         "--nodes", "8")
    assert code == 1
    assert "FAIL:" in out
    assert err == ""


def test_scan_n3(capsys):
    code, out, err = run(capsys, "scan-n3", "--panels", "10",
                         "--n3-range", "3:4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert ",".join(rows[0]) == REPORT_HEADER
    assert len(rows) == 1 + 4  # (a, s) x (n3 = 3, 4)


def test_scan_n3_batch_matches_single_reports(capsys):
    # one compute_reports batch: S and A of each n3 share a kernel pass,
    # n3 = 2 repeats a quantum number, and the spaces run side by side
    code, out, err = run(capsys, "scan-n3", "--panels", "8", "--n3-range",
                         "2:3", "--space", "both", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    want = [(space, n3, sym) for space in ("position", "momentum")
            for n3, syms in ((2, "s"), (3, "as")) for sym in syms]
    assert len(rows) == len(want)
    scheme = QuadratureScheme(panels=8, panels_3d=8, line_panels=8,
                              line_panels_3d=8)
    for row, (space, n3, sym) in zip(rows, want):
        cfg = Configuration(ModelParams.box(1.0), (1, 2, n3),
                            parse_symmetry(sym), space)
        ref = compute_report(cfg, scheme).as_dict()
        assert row["system"] == ref["system"] and row["space"] == space
        for key, value in ref.items():
            if isinstance(value, float):
                assert abs(row[key] - value) <= 1e-13, key


def test_density_grid(capsys):
    code, out, err = run(capsys, "density-grid", "--n", "1,2,3", "--sym", "a",
                         "--points", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 1 + 25
    # the diagonal Fermi hole survives the reduction
    diag = [l for l in lines[1:] if l.split(",")[0] == l.split(",")[1]]
    assert diag and all(abs(float(l.split(",")[2])) < 1e-10 for l in diag)


def test_density_grid_writes_no_negative_density(capsys):
    # round-off on the Fermi-hole diagonal is written as 0
    code, out, err = run(capsys, "density-grid", "--n", "1,2,3", "--sym", "a")
    assert code == 0
    values = [float(l.split(",")[2]) for l in out.strip().split("\n")[1:]]
    assert len(values) == 101 * 101 and min(values) == 0.0
    assert not any(l.endswith(",-0") for l in out.split("\n"))


def test_density_grid_momentum_header(capsys):
    code, out, err = run(capsys, "density-grid", "--n", "1,2", "--sym", "s",
                         "--space", "momentum", "--points", "3")
    assert code == 0
    assert out.startswith("p1,p2,value")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "report", "--n", "1,2,3", "--sym", "a",
                         "--panels", "10", "--format", "json",
                         "--out", str(target))
    assert code == 0
    assert out == ""
    rows = json.loads(target.read_text())
    assert rows[0]["space"] == "position"


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = ho\nomega = 2.0\nsym = s\npanels = 10\n"
                   "# comment line\nformat = json\n")
    code, out, err = run(capsys, "report", "--n", "0,1,2",
                         "--config", str(cfg))
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["system"].startswith("ho")
    assert "symmetric" in rows[0]["system"]


def test_config_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sym = s\npanels = 10\n")
    code, out, err = run(capsys, "report", "--n", "1,2,3", "--sym", "d",
                         "--config", str(cfg), "--format", "json")
    assert code == 0
    assert "distinguishable" in json.loads(out)[0]["system"]


def test_config_flag_at_its_default_still_wins(tmp_path, capsys):
    # --format table is the default, and the config file says csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = csv\n")
    code, out, err = run(capsys, "report", "--n", "1,2", "--sym", "a",
                         "--format", "table", "--config", str(cfg))
    assert code == 0
    assert out.startswith("# box L=1 ns=(1, 2) antisymmetric  [position]")
    code, out, err = run(capsys, "report", "--n", "1,2", "--sym", "a",
                         "--config", str(cfg))
    assert code == 0
    assert out.startswith(PAIR_HEADER + "\n")


def exit_code(*argv):
    """main's exit code, also when argparse rejects the arguments."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_config_values_pass_the_flags_checks(tmp_path, capsys):
    # as flags both are usage errors; from the config file they raised
    # AttributeError and TypeError
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c1sq_grid = 0.5\n")
    assert exit_code("scan-superposition", "--config", str(cfg)) == 2
    assert "at least 3 samples" in capsys.readouterr().err
    cfg.write_text("panels = 2.5\n")
    assert exit_code("report", "--n", "1,2,3", "--config", str(cfg)) == 2
    assert "invalid int value" in capsys.readouterr().err
    cfg.write_text("format = xml\n")
    assert exit_code("report", "--n", "1,2,3", "--config", str(cfg)) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_config_switch_and_dashed_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no-interference = yes\nc1sq-grid = 0.0,0.5,1.0\npanels = 10\n")
    code, out, err = run(capsys, "scan-superposition", "--config", str(cfg))
    want = run(capsys, "scan-superposition", "--no-interference",
               "--c1sq-grid", "0.0,0.5,1.0", "--panels", "10")
    assert code == 0 and (code, out, err) == want


def test_config_switch_takes_only_true_or_false_words(tmp_path, capsys):
    # "ture" was read as off: the scan ran with interference and exited 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_interference = ture\n")
    assert exit_code("scan-superposition", "--config", str(cfg)) == 2
    assert "'no_interference'" in capsys.readouterr().err
    cfg.write_text("no_interference = Off\nc1sq_grid = 0.0,0.5,1.0\n")
    code, out, err = run(capsys, "scan-superposition", "--config", str(cfg),
                         "--panels", "10")
    assert code == 0 and (code, out, err) == run(
        capsys, "scan-superposition", "--c1sq-grid", "0.0,0.5,1.0",
        "--panels", "10")


# each subcommand takes only the options it reads: (subcommand, its
# required arguments, an option it does not take, a value)
NOT_TAKEN = [
    ("tables", ["--which", "1"], "--model", "ho"),
    ("tables", ["--which", "1"], "--L", "2"),
    ("tables", ["--which", "1"], "--omega", "2"),
    ("tables", ["--which", "1"], "--sym", "s"),
    ("tables", ["--which", "1"], "--space", "momentum"),
    ("tables", ["--which", "1"], "--format", "csv"),
    ("scan-n3", [], "--sym", "d"),
    ("scan-superposition", [], "--format", "json"),
    ("density-grid", ["--n", "1,2"], "--panels", "10"),
    ("density-grid", ["--n", "1,2"], "--nodes", "5"),
    ("density-grid", ["--n", "1,2"], "--tol", "1e-6"),
    ("density-grid", ["--n", "1,2"], "--format", "json"),
]


@pytest.mark.parametrize("command,required,option,value", NOT_TAKEN,
                         ids=[f"{c} {o}" for c, _, o, _ in NOT_TAKEN])
def test_option_not_taken_is_a_usage_error(tmp_path, capsys, command,
                                           required, option, value):
    # tables --which 1 --space momentum printed the position-space tables
    assert exit_code(command, *required, option, value) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    # the subcommand's usage line, not the top-level one
    assert err.startswith(f"usage: symcorr {command} ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option[2:]} = {value}\n")
    assert exit_code(command, *required, "--config", str(cfg)) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_density_grid_rejects_empty_grid(capsys):
    code, out, err = run(capsys, "density-grid", "--n", "1,2", "--points", "0")
    assert code == 2 and out == ""
    assert "n_points must be at least 1" in err


def test_scan_n3_rejects_empty_or_malformed_range(capsys):
    # 6:3 printed only the CSV header and exited 0; the others printed
    # int()'s "invalid literal for int() with base 10: ''"
    for text in ("6:3", "3", "3:", "3:x", "a:b"):
        code, out, err = run(capsys, "scan-n3", "--panels", "10",
                             "--n3-range", text, "--format", "csv")
        assert code == 2 and out == "", text
        assert "is empty" in err if text == "6:3" \
            else f"takes lo:hi integers, not {text!r}" in err


@pytest.mark.parametrize("argv", [
    ["report", "--n", "1,2,3", "--sym", "a", "--panels", "2"],
    ["report", "--n", "1,2,3", "--sym", "a", "--panels", "4", "--nodes", "5"],
    ["scan-n3", "--n3-range", "3:3", "--panels", "2"],
], ids=["report-panels-2", "report-nodes-5", "scan-n3"])
def test_no_error_level_at_the_node_floor_is_a_usage_error(capsys, argv):
    # report --panels 2 printed "(est. error) 0.00e+00" for an s_Psi 5e-3
    # off: its coarse level was its fine level
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "no coarser rule for the error estimate" in err


def test_tol_reaches_the_scheme(capsys):
    parser, _ = build_parser()
    args = parser.parse_args(["report", "--n", "1,2,3", "--tol", "1e-7"])
    assert _scheme(args).target_abs_tol == 1e-7
    code, out, err = run(capsys, "report", "--n", "1,2,3", "--tol", "0")
    assert code == 2 and out == ""
    assert "target_abs_tol must be positive" in err


def test_table_spec_rejects_a_third_table():
    with pytest.raises(ValueError, match="table number must be 1 or 2"):
        table_spec(3)


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for line, message in (("no_such_option = 1", "unknown config key"),
                          ("format csv", "bad config line 'format csv'")):
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "report", "--n", "1,2,3",
                             "--config", str(cfg))
        assert code == 2
        assert message in err


def test_usage_errors(capsys):
    # repeated quantum numbers make the determinant vanish
    code, out, err = run(capsys, "report", "--n", "1,1,2", "--sym", "a",
                         "--panels", "10")
    assert code == 2
    assert "distinct" in err
    code, out, err = run(capsys, "report", "--n", "1,2,3,4")
    assert code == 2
    code, out, err = run(capsys, "density-grid", "--n", "1,2,3",
                         "--space", "both")
    assert code == 2
    for argv, message in (
            (["report", "--n", "1,x,3"], "cannot parse quantum numbers '1,x,3'"),
            (["scan-n3", "--n", "1,2,3"], "scan-n3 expects --n with the two fixed"),
            (["scan-superposition", "--n", "1,2"],
             "superposition scans are for 3-particle states"),
            (["report", "--n", "1,2,3", "--L", "inf"],
             "box model requires a finite L > 0"),
            (["report", "--model", "ho", "--n", "0,1,2", "--omega", "inf"],
             "oscillator model requires a finite omega > 0"),
            (["scan-superposition", "--c1sq-grid", "nan,0.5,1"],
             "c1^2 samples must be distinct values in [0, 1]"),
            (["scan-superposition", "--c1sq-grid", "0,x,1"],
             "--c1sq-grid takes comma-separated numbers, not '0,x,1'")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and message in err, argv


def test_parser_defaults_exposed():
    parser, subparsers = build_parser()
    assert set(subparsers) == {"report", "scan-n3", "scan-superposition",
                               "tables", "density-grid"}
    args = parser.parse_args(["tables", "--which", "2"])
    assert args.which == 2
    assert parser.parse_args(["report", "--n", "1,2,3"]).model == "box"


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_a_later_call_builds_no_parser(capsys, monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    argv = ["report", "--n", "1,2", "--sym", "a", "--panels", "10"]
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, *argv)[0] == 0
    assert made == []
    build_parser.__wrapped__()  # the spy sees every parser a build makes
    assert len(made) == 12


def test_no_state_carries_from_one_call_to_the_next(tmp_path, capsys):
    argv = ["report", "--n", "1,2", "--sym", "a", "--panels", "10"]
    target = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"format = csv\nout = {target}\n")
    code, out, _ = run(capsys, *argv, "--config", str(cfg))
    assert code == 0 and out == ""
    assert target.read_text().startswith(PAIR_HEADER + "\n")
    code, after_config, _ = run(capsys, *argv)
    assert code == 0
    assert after_config.startswith("# box L=1 ns=(1, 2) antisymmetric  [position]")
    for bad in (["--format", "xml"], ["--bogus", "1"]):
        assert exit_code(*argv, *bad) == 2
        capsys.readouterr()
        code, after_error, _ = run(capsys, *argv)
        assert code == 0 and after_error == after_config
    build_parser.cache_clear()  # a fresh parser prints the same
    assert run(capsys, *argv)[:2] == (0, after_config)


def test_scan_n3_runs_each_oscillator_state_once_for_both_spaces(capsys, monkeypatch):
    # oscillator position and momentum states have equal unit-scale terms,
    # so the two share one s3 sample per level and print equal rows.  Run
    # twice, 3 error estimates moved by 1e-15 between a state's two rows
    entropy_grid, samples = information.entropy_grid, []

    def counted(terms, *args):
        samples.append(len(terms[0]))  # terms stacked along a sample axis
        return entropy_grid(terms, *args)

    monkeypatch.setattr(information, "entropy_grid", counted)
    code, out, _ = run(capsys, "scan-n3", "--model", "ho", "--n", "0,1", "--n3-range", "2:5",
                       "--space", "both", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # 8 states, each in both spaces: one sample each at either level
    assert len(rows) == 16 and sum(samples) == 2 * 8
    for pos, mom in zip(rows[:8], rows[8:]):
        assert (pos.pop("space"), mom.pop("space")) == ("position", "momentum")
        assert pos == mom
