import json
import math
import subprocess
import sys

import numpy as np
import pytest

from glome import geodesics as geo
from glome import jetcalc, reduction, symmetries
from glome.cli import main

FAST = ["--samples", "60", "--seed", "0"]
FAST_VERIFY = FAST + ["--trajectories", "2"]

REFERENCE_TABLE = [
    ["zero", "-chi6", "-chi4", "+chi3", "zero", "+chi2"],
    ["+chi6", "zero", "-chi5", "zero", "+chi3", "-chi1"],
    ["+chi4", "+chi5", "zero", "-chi1", "-chi2", "zero"],
    ["-chi3", "zero", "+chi1", "zero", "-chi6", "+chi5"],
    ["zero", "-chi3", "+chi2", "+chi6", "zero", "-chi4"],
    ["-chi2", "+chi1", "zero", "-chi5", "+chi4", "zero"],
]


CSV_HEADER = "x,y,v,y_x,v_x,noether_c,lagrangian,ambient_norm_residual"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def loads_strict(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def read_json(path):
    return loads_strict(path.read_text())


def test_verify_passes_and_reproduces_table(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", *FAST_VERIFY, "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    by_name = {c["name"]: c for c in report["checks"]}
    table = by_name["bracket_table"]["table"]["entries"]
    grid = [[cell["id"] for cell in row] for row in table]
    assert grid == REFERENCE_TABLE
    for check in report["checks"]:
        assert {"name", "passed", "max_residual", "tolerance"} <= set(check)


def test_verify_reports_are_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", *FAST_VERIFY, "--out", str(out1)]) == 0
    assert main(["verify", *FAST_VERIFY, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_zero_tolerances_fail(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", *FAST_VERIFY, "--tol-all", "0", "--out", str(out)])
    assert code == 1
    report = read_json(out)
    assert report["passed"] is False
    for check in report["checks"]:
        assert check["passed"] is False


def test_verify_single_tolerance_override(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", *FAST_VERIFY, "--tol", "noether_drift=1e-30",
                 "--out", str(out)])
    assert code == 1
    by_name = {c["name"]: c for c in read_json(out)["checks"]}
    assert by_name["noether_drift"]["passed"] is False
    assert by_name["variational_criterion"]["passed"] is True


def test_verify_tolerance_applies_on_top_of_tol_all(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", *FAST_VERIFY, "--tol-all", "1", "--tol", "noether_drift=1e-30",
                 "--out", str(out)])
    assert code == 1
    by_name = {c["name"]: c for c in read_json(out)["checks"]}
    assert by_name["noether_drift"]["tolerance"] == 1e-30
    assert by_name["noether_drift"]["passed"] is False
    assert by_name["variational_criterion"]["tolerance"] == 1.0


def test_subcommands_reject_flags_they_do_not_read():
    for argv in (["verify", "--json"], ["brackets", "--json"], ["brackets", "--step", "1e-3"],
                 ["reduce", "t.csv", "--json"],
                 ["integrate", "--initial", "0,0,0,0,0", "--x-end", "0.5", "--seed", "1"],
                 ["integrate", "--initial", "0,0,0,0,0", "--x-end", "0.5", "--samples", "9"],
                 ["integrate", "--initial", "0,0,0,0,0", "--x-end", "0.5", "--margin", "0.2"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


def test_integrate_rejects_bad_step(tmp_path):
    for step in ("0.5", "0", "-1e-3"):
        assert main(["integrate", "--initial", "0,0,0,0,0", "--x-end", "0.5",
                     f"--step={step}", "--out", str(tmp_path / "t.csv")]) == 2


def test_verify_rejects_bad_config():
    assert main(["verify", "--step", "0.5"]) == 2
    assert main(["verify", "--margin", "3.2"]) == 2
    assert main(["verify", "--samples", "0"]) == 2
    assert main(["verify", "--tol", "nonsense"]) == 2
    assert main(["verify", "--tol", "unknown_check=1"]) == 2


def test_brackets_json(tmp_path):
    out = tmp_path / "table.json"
    code = main(["brackets", "--samples", "600", "--out", str(out)])
    assert code == 0
    table = read_json(out)["entries"]
    grid = [[cell["id"] for cell in row] for row in table]
    assert grid == REFERENCE_TABLE


def test_integrate_constant_state(tmp_path):
    out = tmp_path / "flat.csv"
    code = main(["integrate", "--initial", "0,0,0,0,0", "--x-end", "0.5",
                 "--out", str(out)])
    assert code == 0
    traj = geo.Trajectory.from_csv(out)
    assert np.max(np.abs(traj.samples[:, 1])) < 1e-15
    assert np.max(np.abs(traj.samples[:, 2])) < 1e-15
    sidecar = read_json(out.with_suffix(".json"))
    assert sidecar["status"] == "ok"
    assert sidecar["k"] == 0.0


def test_integrate_sidecar_diagnostics(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["integrate", "--initial", "0,0,0,0.4,0.7", "--x-end", "0.8",
                 "--out", str(out)])
    assert code == 0
    sidecar = read_json(out.with_suffix(".json"))
    assert sidecar["noether_drift"] < 1e-8
    assert sidecar["oracle_endpoint_error"] < 1e-7
    assert sidecar["samples"] == 801


def test_integrate_domain_exit_flagged(tmp_path):
    out = tmp_path / "exit.csv"
    code = main(["integrate", "--initial", "1.4,0,0,0,0", "--x-end", "1.55",
                 "--out", str(out)])
    assert code == 1
    sidecar = read_json(out.with_suffix(".json"))
    assert sidecar["status"] == "DomainExit"
    traj = geo.Trajectory.from_csv(out)  # partial trajectory was written
    assert len(traj) > 1
    assert traj.x[-1] < 1.55


def test_integrate_domain_exit_via_runaway_slope(tmp_path):
    out = tmp_path / "steep.csv"
    code = main(["integrate", "--initial", "0,1.4,0,5,0", "--x-end", "0.5",
                 "--out", str(out)])
    assert code == 1
    assert read_json(out.with_suffix(".json"))["status"] == "DomainExit"


def test_integrate_rejects_bad_initial():
    assert main(["integrate", "--initial", "0,0,0,0", "--x-end", "0.5"]) == 2
    assert main(["integrate", "--initial", "2.0,0,0,0,0", "--x-end", "0.5"]) == 2


def test_reduce_pipeline(tmp_path):
    csv_path = tmp_path / "traj.csv"
    assert main(["integrate", "--initial", "0,0,0,0.4,0.7", "--x-end", "0.8",
                 "--out", str(csv_path)]) == 0
    out = tmp_path / "reduction.json"
    assert main(["reduce", str(csv_path), "--out", str(out)]) == 0
    report = read_json(out)
    assert report["alpha_rel_dev"] < 1e-5
    assert report["branch"] == "+"
    assert report["samples"] + report["excluded_rows"] == 801


def test_reduce_planar_reports_k_zero(tmp_path):
    csv_path = tmp_path / "planar.csv"
    assert main(["integrate", "--initial", "0,0.3,1.0,0.4,0", "--x-end", "0.8",
                 "--out", str(csv_path)]) == 0
    out = tmp_path / "reduction.json"
    assert main(["reduce", str(csv_path), "--out", str(out)]) == 0
    assert read_json(out)["k"] == 0.0


def test_reduce_empty_csv_is_usage_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["reduce", str(empty)]) == 2
    missing = tmp_path / "missing.csv"
    assert main(["reduce", str(missing)]) == 2


def _planar_rows_with_forged_charge(tmp_path):
    """A v_x = 0 geodesic (charge 0) from `glome integrate`, noether_c set to 0.9."""
    src = tmp_path / "planar.csv"
    assert main(["integrate", "--initial", "0,0.3,1.0,0.4,0", "--x-end", "0.2",
                 "--out", str(src)]) == 0
    rows = []
    for line in src.read_text().splitlines()[1:]:
        cells = line.split(",")
        cells[5] = "0.9"
        rows.append(",".join(cells))
    return rows


@pytest.mark.parametrize("rows", [
    ["0.1,0.1,0,0.2,0.3,2,1,0", "0.2,0.1,0,0.2,0.3,2,1,0"],
    ["0.1,0.1,0,0.2,0.3,0.2,1,0", "0.2,nan,0,0.2,0.3,0.2,1,0"],
    ["0.1,0.1,0,0.2,0.3,0.2,1,0", "2.0,0.1,0,0.2,0.3,0.2,1,0"],
    _planar_rows_with_forged_charge,
], ids=["noether_c_2_gives_k_4", "nan_cell", "x_outside_chart", "planar_noether_c_forged"])
def test_reduce_bad_input_is_usage_error(tmp_path, capsys, rows):
    if callable(rows):
        rows = rows(tmp_path)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    capsys.readouterr()  # drop what building the rows printed
    assert main(["reduce", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_reduce_without_admissible_row_emits_null_and_fails(tmp_path):
    path = tmp_path / "axis.csv"  # x = 0: canonical coordinates undefined
    geo.Trajectory(np.array([[0.0, 0.1, 0.0, 0.2, 0.3]])).to_csv(path)
    out = tmp_path / "reduction.json"
    assert main(["reduce", str(path), "--out", str(out)]) == 1
    report = read_json(out)
    assert report["alpha_mean"] is None and report["alpha_rel_dev"] is None
    assert report["samples"] == 0 and report["excluded_rows"] == 1
    assert "alpha_reason" in report


def test_reduce_excludes_rows_whose_tau_derivative_underflows(tmp_path, capsys):
    # for 0 < |x| < 1e-154 the square of sin x underflows to 0 (a traceback at one time)
    path = tmp_path / "tiny.csv"
    geo.Trajectory(np.array([[5e-324, 0.3, 0.0, 0.2, 0.3], [1e-200, 0.3, 0.0, 0.2, 0.3],
                             [0.3, 0.3, 0.0, 0.2, 0.3]])).to_csv(path)
    out = tmp_path / "reduction.json"
    assert main(["reduce", str(path), "--out", str(out)]) == 0
    report = read_json(out)
    assert report["samples"] == 1 and report["excluded_rows"] == 2
    assert "Traceback" not in capsys.readouterr().err


def test_flow_on_axis_emits_null_tau_shift(capsys):
    assert main(["flow", "--point", "0,0.3", "--lambda", "0.2", "--json"]) == 0
    payload = loads_strict(capsys.readouterr().out)
    assert payload["tau_shift_residual"] is None
    assert "tau_shift_reason" in payload
    assert payload["omega_residual"] < 1e-12


def test_non_finite_numbers_are_usage_errors():
    assert main(["flow", "--point", "0.5,0.3", "--lambda", "inf"]) == 2
    assert main(["integrate", "--initial", "0,0,0,0,0", "--x-end", "nan"]) == 2


def test_flow_json(tmp_path):
    out = tmp_path / "flow.json"
    code = main(["flow", "--point", "0.5,0.3", "--lambda", "0.2",
                 "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert abs(payload["omega_residual"]) < 1e-12
    assert abs(payload["tau_shift_residual"]) < 1e-9
    X, Y = payload["image"]
    assert abs(X) < math.pi / 2 and abs(Y) < math.pi / 2


def test_flow_prints_image(capsys):
    code = main(["flow", "--point", "0.5,0.3", "--lambda", "0.0"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    values = {line.split("=")[0].strip(): line.split("=")[1].strip() for line in lines}
    assert abs(float(values["X"]) - 0.5) < 1e-15
    assert abs(float(values["Y"]) - 0.3) < 1e-15


def test_flow_rejects_bad_point():
    assert main(["flow", "--point", "0.5", "--lambda", "0.1"]) == 2
    assert main(["flow", "--point", "2.0,0.3", "--lambda", "0.1"]) == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "glome.cli", "flow", "--point", "0.4,0.2",
         "--lambda", "0.1", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = loads_strict(proc.stdout)
    assert payload["point"] == [0.4, 0.2]


def _raise(err):
    def raiser(*args, **kwargs):
        raise err

    return raiser


# One row per typed error: the command that meets it, the module function
# replaced to raise it where no input reaches it, and the documented exit
# code (0 all checks pass, 1 check or runtime failure, 2 usage error).
EXIT_CODES = [
    ("ConfigError", ["verify", "--samples", "0"], None, 2),
    ("ChartError", ["integrate", "--initial", "2.0,0,0,0,0", "--x-end", "0.5",
                    "--out", "{tmp}/t.csv"], None, 2),
    ("ChartError_flow", ["flow", "--point", "2.0,0.3", "--lambda", "0.1"], None, 2),
    ("DomainExit", ["integrate", "--initial", "1.4,0,0,0,0", "--x-end", "1.55",
                    "--out", "{tmp}/t.csv"], None, 1),
    ("SingularSystem", ["integrate", "--initial", "0.5,0.5,0,1e8,1e8", "--x-end", "0.6",
                        "--out", "{tmp}/t.csv"], None, 1),
    ("OutOfRange", ["reduce", "{tmp}/ok.csv"],
     (reduction, "reduction_report", geo.OutOfRange("k must lie in [0, 1], got 4.0")), 2),
    ("AmbiguousIdentification", ["brackets", "--samples", "10"],
     (symmetries, "bracket_table", symmetries.AmbiguousIdentification("no unique candidate")), 1),
    ("BranchExit", ["flow", "--point", "0.5,0.3", "--lambda", "0.2"],
     (reduction, "global_flow", reduction.BranchExit(0.2)), 1),
    ("DomainError", ["flow", "--point", "0.5,0.3", "--lambda", "0.2"],
     (reduction, "omega_coordinate", jetcalc.DomainError("sqrt", -1.0, "planted")), 1),
    # rows are allocated only up to the pole margin: a far x_end stops there
    ("DomainExit_x_end_1e9", ["integrate", "--initial", "0,0.1,0,0.2,0", "--x-end", "1e9",
                              "--out", "{tmp}/t.csv"], None, 1),
    ("DomainExit_x_end_1e300", ["integrate", "--initial", "0,0.1,0,0.2,0", "--x-end", "1e300",
                                "--out", "{tmp}/t.csv"], None, 1),
    # a step below geodesics.MIN_STEP is a usage error, not an allocation failure
    ("ConfigError_integrate_step", ["integrate", "--initial", "0,0.1,0,0.2,0", "--x-end", "0.5",
                                    "--step", "1e-300", "--out", "{tmp}/t.csv"], None, 2),
    ("ConfigError_verify_step", ["verify", "--step", "1e-300"], None, 2),
    # the long run used to leave the chart here (ChartError, DomainExit for 1217..1256)
    ("verify_samples_past_long_run_cap",
     ["verify", "--samples", "1300", "--trajectories", "1", "--step", "0.01",
      "--out", "{tmp}/report.json"], None, 0),
]


@pytest.mark.parametrize("error, argv, patch, code", EXIT_CODES,
                         ids=[row[0] for row in EXIT_CODES])
def test_typed_errors_map_to_documented_exit_codes(tmp_path, monkeypatch, capsys,
                                                   error, argv, patch, code):
    geo.Trajectory(np.array([[0.1, 0.2, 0.0, 0.3, 0.4], [0.2, 0.25, 0.1, 0.3, 0.4]])).to_csv(
        tmp_path / "ok.csv")
    if patch is not None:
        module, name, err = patch
        monkeypatch.setattr(module, name, _raise(err))
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if argv[0] == "integrate" and code == 1:  # the sidecar names the error met
        assert read_json(tmp_path / "t.json")["status"] == error.partition("_")[0]
        assert (tmp_path / "t.csv").exists()  # with the partial trajectory
