import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from glome import geodesics as geo
from glome import cli, jetcalc, reduction, symmetries
from glome.cli import main
from glome.suites import DEFAULT_TOLERANCES
from reference import bracket_table, numpy_trig_is_math

FAST = ["--samples", "60", "--seed", "0"]
FAST_VERIFY = FAST + ["--trajectories", "2"]

REFERENCE_TABLE = bracket_table()  # derived from the planes the generators rotate


CSV_HEADER = "x,y,v,y_x,v_x,noether_c,lagrangian,ambient_norm_residual"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def loads_strict(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def read_json(path):
    return loads_strict(path.read_text())


def test_verify_passes_and_reproduces_table(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", *FAST_VERIFY, "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert sorted(names) == sorted(DEFAULT_TOLERANCES)  # one check per tolerance, each once
    by_name = {c["name"]: c for c in report["checks"]}
    assert main(["brackets", *FAST]) == 0  # prints the table verify embeds at its seed and samples
    assert loads_strict(capsys.readouterr().out) == by_name["bracket_table"]["table"]
    table = by_name["bracket_table"]["table"]["entries"]
    grid = [[cell["id"] for cell in row] for row in table]
    assert grid == REFERENCE_TABLE
    for check in report["checks"]:
        assert {"name", "passed", "max_residual", "tolerance"} <= set(check)
        assert check["tolerance"] == DEFAULT_TOLERANCES[check["name"]]


def test_verify_reports_are_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", *FAST_VERIFY, "--out", str(out1)]) == 0
    assert main(["verify", *FAST_VERIFY, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_exits_1_when_a_check_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(geo, "endpoint_error_vs_great_circle", lambda traj: 1.0)
    out = tmp_path / "report.json"
    assert main(["verify", *FAST_VERIFY, "--out", str(out)]) == 1
    report = read_json(out)
    assert report["passed"] is False
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["oracle_endpoint"]


def test_subcommands_reject_flags_they_do_not_read():
    for argv in (["verify", "--json"], ["brackets", "--json"], ["brackets", "--step", "1e-3"],
                 ["verify", "--tol", "noether_drift=1"], ["verify", "--tol-all", "1"],
                 ["reduce", "t.csv", "--json"],
                 ["flow", "--point", "0.5,0.3", "--lambda", "0.2", "--json"],
                 ["integrate", "--initial", "0,0,0,0,0", "--x-end", "0.5", "--json"],
                 ["integrate", "--initial", "0,0,0,0,0", "--x-end", "0.5", "--seed", "1"],
                 ["integrate", "--initial", "0,0,0,0,0", "--x-end", "0.5", "--samples", "9"],
                 ["integrate", "--initial", "0,0,0,0,0", "--x-end", "0.5", "--margin", "0.2"],
                 ["verify", "--margin", "0.2"], ["brackets", "--margin", "0.2"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


def test_integrate_rejects_bad_step(tmp_path):
    for step in ("0.5", "0", "-1e-3"):
        assert main(["integrate", "--initial", "0,0,0,0,0", "--x-end", "0.5",
                     f"--step={step}", "--out", str(tmp_path / "t.csv")]) == 2


def test_verify_rejects_bad_config():
    assert main(["verify", "--step", "0.5"]) == 2
    assert main(["verify", "--samples", "0"]) == 2


def test_brackets_json(tmp_path):
    out = tmp_path / "table.json"
    # 30 points at seed 0, and the batched identification at 20 points at seed 3
    for argv in (["--samples", "600"], ["--seed", "3", "--samples", "400"]):
        assert main(["brackets", *argv, "--out", str(out)]) == 0
        table = read_json(out)["entries"]
        grid = [[cell["id"] for cell in row] for row in table]
        assert grid == REFERENCE_TABLE


@pytest.mark.skipif(not numpy_trig_is_math(),
                    reason="the residuals' last bits follow numpy's sin/cos, which differ from math's here")
def test_brackets_default_stdout_bytes_are_pinned(capsys):
    assert main(["brackets"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "efcde4e62b543849cd834e5c785dc4270b323e0866dbb3b1ba1902988e6d69f8")


@pytest.mark.skipif(not numpy_trig_is_math(),
                    reason="the residuals' last bits follow numpy's sin/cos, which differ from math's here")
def test_brackets_second_seed_stdout_bytes_are_pinned(capsys):
    # 20 points at seed 3
    assert main(["brackets", "--seed", "3", "--samples", "400"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "b7c7632ae3f8dbb52bdef0de8d113317551c34defe31d2ef2fc53361870d10e1")


# Lone runs, each with its integrate arguments, exit code and sidecar status.
# All but the backward one have their bytes pinned below.
LONE_RUNS = {
    "ok": (["--initial=0,0.2,0.3,0.1,0.2", "--x-end", "0.5"], 0, "ok"),
    "backward": (["--initial=0.3,0.2,0.1,-0.3,0.4", "--x-end", "-0.4"], 0, "ok"),  # x_end < x0
    # breaches the pole margin, so it writes a partial trajectory
    "stopped": (["--initial=0,1.4,0,5,0", "--x-end", "0.5"], 1, "DomainExit"),
    # meets the turning point near x = 0.785 after 786 rows
    "singular": (["--initial=0,0,0,0,1", "--x-end", "0.8"], 1, "SingularSystem"),
    # 2000 RK4 steps from x = -1.25, shaped like the benchmark's roundtrip
    "long": (["--initial=-1.25,0.1,0.5,0.15,-0.2", "--x-end=-0.75", "--step=0.00025"], 0, "ok"),
}


def _lone_run(tmp_path, run):
    """(exit code, CSV path) of glome integrate of LONE_RUNS[run] into tmp_path."""
    out = tmp_path / "t.csv"
    return main(["integrate", *LONE_RUNS[run][0], "--out", str(out)]), out


@pytest.mark.parametrize("run", list(LONE_RUNS))
def test_lone_run_prints_its_sidecar_and_counts_its_rows(tmp_path, capsys, run):
    # what every host shows of a lone run; only the byte pins below depend on the host
    code, out = _lone_run(tmp_path, run)
    assert code == LONE_RUNS[run][1]
    sidecar_bytes = out.with_suffix(".json").read_bytes()
    assert capsys.readouterr().out.encode() == sidecar_bytes  # stdout holds the sidecar's bytes
    sidecar = loads_strict(sidecar_bytes)
    rows = len(out.read_text().splitlines()) - 1  # less the header
    assert sidecar["status"] == LONE_RUNS[run][2]
    assert sidecar["samples"] == rows
    if code == 0:  # the charge and the oracle at their clean levels; reduce reads every row
        assert type(sidecar["k"]) is float and 0.0 <= sidecar["k"] <= 1.0
        assert sidecar["noether_drift"] < 1e-8
        assert sidecar["oracle_endpoint_error"] < 1e-7
        report = tmp_path / "reduce.json"
        assert main(["reduce", str(out), "--out", str(report)]) == 0
        reduced = read_json(report)
        assert reduced["samples"] + reduced["excluded_rows"] == rows
        assert type(reduced["alpha_rel_dev"]) is float and reduced["alpha_rel_dev"] < 1e-5


lone_run_bytes = pytest.mark.skipif(
    not numpy_trig_is_math(),
    reason="the diagnostic columns' last bits follow numpy's sin/cos, which differ from math's"
           " here")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@lone_run_bytes
def test_integrate_csv_and_sidecar_bytes_are_pinned(tmp_path):
    _, out = _lone_run(tmp_path, "ok")
    assert _sha256(out) == "208a226be87fc6bdcceeadd1bdc35d0025add1441a8126c6df4a8c016c265ed3"
    assert _sha256(out.with_suffix(".json")) == (
        "e1c3b8e98c6a8b1931025f62ea12bd86a3bc4016336b9091528a7c300ee34699")


@lone_run_bytes
def test_integrate_stopped_run_csv_and_sidecar_bytes_are_pinned(tmp_path):
    _, out = _lone_run(tmp_path, "stopped")
    assert _sha256(out) == "fe439f6191514196c69ea4add772c2bceffca81b94c8082a022d8e1791111cf0"
    assert _sha256(out.with_suffix(".json")) == (
        "d11c2edc7e0558cefdb8893be1d4faa675649991c7d2c725814d399c1cd97379")


@lone_run_bytes
def test_integrate_singular_stop_csv_and_sidecar_bytes_are_pinned(tmp_path):
    _, out = _lone_run(tmp_path, "singular")
    assert _sha256(out) == "4a82cc036ab8c3f25ccb1b55bd889a81c83f200dc96429e390c2055e989bccbe"
    assert _sha256(out.with_suffix(".json")) == (
        "1dfb96c633064c2906fefe60f5319824209c513078d3ffc4c1304fedc0d39312")


@lone_run_bytes
def test_long_lone_run_csv_sidecar_and_reduce_bytes_are_pinned(tmp_path):
    _, out = _lone_run(tmp_path, "long")
    assert _sha256(out) == "5c1aabc14a34f99b9c965019ad28433f48d7d1e4b8b2c26e38535d22f821ea34"
    assert _sha256(out.with_suffix(".json")) == (
        "45d0ff5081c3efab3f8502e5437c39f849f2ae7e8dfd4bb90367bd23a1fce79d")
    report = tmp_path / "reduce.json"
    main(["reduce", str(out), "--out", str(report)])
    assert _sha256(report) == "380c67238f7f7e24769fb4ba294303756941c05b1b6ccea21bd305a6a7b98bc3"


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


def test_integrate_overflowing_initial_integrand_is_domain_exit(tmp_path):
    # a one-row run once met an infinite speed in its oracle (a traceback)
    out = tmp_path / "t.csv"
    assert main(["integrate", "--initial=0,0.3,0,1e308,1e308", "--x-end=0",
                 "--out", str(out)]) == 1
    assert read_json(out.with_suffix(".json"))["status"] == "DomainExit"
    assert not out.exists()


def _planted_curvatures(v_xx=0.0, error=None):
    """A stand-in for geodesics._curvatures: zero y_xx, the given v_xx and a
    unit determinant, or ``error`` raised at every stage."""
    def curvatures(x, y, y_x, v_x):
        if error is not None:
            raise error
        return 0.0 * y, 0.0 * y + v_xx, 1.0 + 0.0 * y
    return curvatures


@pytest.mark.parametrize("initial, x_end, step, cause, trajectory, curvatures", [
    ("1.54,0,0,0,0", "1.55", "1e-3", "initial state lies outside the pole margin at x = 1.54",
     False, None),
    ("0,0.3,0,1e308,1e308", "0", "1e-3", "initial slopes overflow the integrand at x = 0", False,
     None),
    ("1.4,0,0,0,0", "1.55", "1e-3", "trajectory breached the pole margin near x = 1.521", True,
     None),
    # stage 2 lands at y = 1.5 + 0.005 * 20 = 1.6, past pi/2; the rows never leave the margin
    ("0,1.5,0,20,0", "0.5", "1e-2", "an RK4 stage left the open chart in the step from x = 0"
     " (stage at x = 0.005 has (y, v, y_x, v_x) = (1.6, 0.0, 20.0, 0.0))", True, None),
    ("0,0.1,0,0.2,0", "0.5", "1e-2", "an RK4 stage failed a domain guard in the step from x = 0"
     " (sqrt evaluated at -1.0 (planted))", True,
     _planted_curvatures(error=jetcalc.DomainError("sqrt", -1.0, "planted"))),
    # every stage is finite, but the weighted sum of four v_xx = 1e308 overflows
    ("0,0.1,0,0.2,0", "0.5", "1e-2", "trajectory state became non-finite at x = 0.01", True,
     _planted_curvatures(v_xx=1e308)),
], ids=["initial_outside_margin", "initial_slopes_overflow", "margin_breach", "stage_off_chart",
        "stage_domain_guard", "non_finite_state"])
def test_integrate_domain_exit_names_its_cause_and_the_files_written(tmp_path, monkeypatch, capsys,
                                                                    initial, x_end, step, cause,
                                                                    trajectory, curvatures):
    if curvatures is not None:
        monkeypatch.setattr(geo, "_curvatures", curvatures)
    out = tmp_path / "t.csv"
    assert main(["integrate", f"--initial={initial}", f"--x-end={x_end}", f"--step={step}",
                 "--out", str(out)]) == 1
    sidecar_bytes = out.with_suffix(".json").read_bytes()
    sidecar = loads_strict(sidecar_bytes)
    assert sidecar["status"] == "DomainExit"
    assert sidecar["detail"] == cause
    assert out.exists() == trajectory
    assert ("samples" in sidecar) == trajectory
    assert capsys.readouterr().out.encode() == sidecar_bytes


# Each command with the step that --out must precede: a (module or class,
# attribute) that is replaced to fail the test if it runs.
INTEGRATE = ["integrate", "--initial", "0,0.1,0,0.2,0", "--x-end", "0.1"]
FLOW = ["flow", "--point", "0.5,0.3", "--lambda", "0.2"]
OUT_BEFORE = [
    (["verify"], (cli, "run_all")),
    (["brackets"], (cli, "bracket_table_for")),
    (INTEGRATE, None),
    (["reduce", "{tmp}/t.csv"], (geo.Trajectory, "from_csv")),
    (FLOW, (reduction, "global_flow")),
]
OUT_IDS = ["verify", "brackets", "integrate", "reduce", "flow"]


@pytest.mark.parametrize("argv, slow", OUT_BEFORE, ids=OUT_IDS)
def test_out_into_a_missing_directory_fails_before_the_run(tmp_path, monkeypatch, capsys, argv,
                                                           slow):
    argv = [*argv, "--out", "{tmp}/missing/out"]
    err = _usage_error_before_the_run(tmp_path, monkeypatch, capsys, argv, slow)
    assert err == (f"glome {argv[0]}: usage error: [Errno 2] no directory for --out:"
                   f" '{tmp_path}/missing'\n")


@pytest.mark.parametrize("argv, slow, named", [
    *[([*argv, "--out", "{tmp}"], slow, "{tmp}") for argv, slow in OUT_BEFORE],
    # the sidecar next to the CSV is a directory
    ([*INTEGRATE, "--out", "{tmp}/t.csv"], None, "{tmp}/t.json"),
], ids=[*OUT_IDS, "integrate_sidecar"])
def test_out_naming_a_directory_fails_before_the_run(tmp_path, monkeypatch, capsys, argv, slow,
                                                     named):
    (tmp_path / "t.json").mkdir()
    err = _usage_error_before_the_run(tmp_path, monkeypatch, capsys, argv, slow)
    named = named.replace("{tmp}", str(tmp_path))
    assert err == (f"glome {argv[0]}: usage error: [Errno 21] output path is a directory:"
                   f" '{named}'\n")
    assert not (tmp_path / "t.csv").exists()


def _usage_error_before_the_run(tmp_path, monkeypatch, capsys, argv, slow) -> str:
    """main's one stderr line for ``argv``, which must exit 2 before ``slow``
    (an (owner, attribute) pair) or any integration runs."""
    if slow:
        monkeypatch.setattr(*slow, _raise(AssertionError("ran before checking --out")))
    monkeypatch.setattr(geo, "integrate_batch", _raise(AssertionError("ran before checking --out")))
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"glome {argv[0]}: usage error: ") and err.count("\n") == 1
    return err


def test_reduce_quotes_a_long_csv_header_in_one_short_line(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text(",".join(["x"] * 70_000) + "\n0.1,0.2,0,0.3,0.4,0,1,0\n")
    assert main(["reduce", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("glome reduce: usage error: unexpected trajectory CSV header: ['x', ")
    assert err.count("\n") == 1 and len(err) < 400


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
    # sin x = 0, or too small to square (cot x overflowed to a NaN shift at one time)
    for point, lam in (("0,0.3", "0.2"), ("5e-324,0", "-0.0"), ("1e-200,0.3", "0.2")):
        assert main(["flow", "--point", point, f"--lambda={lam}"]) == 0
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
    X, Y = loads_strict(capsys.readouterr().out)["image"]
    assert abs(X - 0.5) < 1e-15
    assert abs(Y - 0.3) < 1e-15


def test_flow_rejects_bad_point(capsys):
    assert main(["flow", "--point", "2,0.3", "--lambda", "0.1"]) == 2
    assert capsys.readouterr().err == ("glome flow: usage error: (x, y) = (2.0, 0.3) lies outside"
                                       " the open chart |x|, |y| < pi/2\n")
    assert main(["flow", "--point", "0.5", "--lambda", "0.1"]) == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "glome.cli", "flow", "--point", "0.4,0.2",
         "--lambda", "0.1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = loads_strict(proc.stdout)
    assert payload["point"] == [0.4, 0.2]


@pytest.mark.parametrize("argv", [
    ["verify", *FAST_VERIFY],
    ["brackets", *FAST],
    ["integrate", "--initial=0,0.2,0.3,0.1,0.2", "--x-end", "0.5", "--out", "{tmp}/t.csv"],
    ["reduce", "{tmp}/ok.csv"],
    FLOW,
    # a passing verify at a small configuration: its exit code says the report passed
    ["verify", "--samples", "50", "--trajectories", "5", "--step", "5e-3"],
], ids=[*OUT_IDS, "verify_small"])
def test_every_command_prints_strict_json(tmp_path, capsys, argv):
    geo.Trajectory(np.array([[0.1, 0.2, 0.0, 0.3, 0.4], [0.2, 0.25, 0.1, 0.3, 0.4]])).to_csv(
        tmp_path / "ok.csv")
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 0
    assert isinstance(loads_strict(capsys.readouterr().out), dict)


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
    # sin x rounds to 1 within about 1.05e-8 of pi/2, so the flow by lambda = 0 leaves the branch
    ("BranchExit_next_to_pole", ["flow", "--point", "1.57079632,0", "--lambda", "0"], None, 1),
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
    # a negative seed is a usage error, not numpy's ValueError from default_rng
    ("ConfigError_verify_negative_seed", ["verify", "--seed", "-8"], None, 2),
    ("ConfigError_brackets_negative_seed", ["brackets", "--seed", "-30"], None, 2),
    # run sizes past suites.MAX_SAMPLES / MAX_TRAJECTORY_ROWS are usage errors, not allocation
    # failures
    ("ConfigError_verify_samples_bound", ["verify", "--samples", "1000000000000",
                                          "--trajectories", "1"], None, 2),
    ("ConfigError_verify_trajectories_bound", ["verify", "--trajectories", "10001"], None, 2),
    ("ConfigError_verify_trajectory_rows_bound", ["verify", "--trajectories", "101",
                                                  "--step", "1e-5"], None, 2),
    ("ConfigError_brackets_samples_bound", ["brackets", "--samples", "1000001"], None, 2),
    # the long run used to leave the chart here (ChartError, DomainExit for 1217..1256)
    ("verify_samples_past_long_run_cap",
     ["verify", "--samples", "1300", "--trajectories", "1", "--step", "0.01",
      "--out", "{tmp}/report.json"], None, 0),
    # --out into a missing directory is a usage error for every command (a traceback once)
    ("OSError_verify_out", ["verify", *FAST_VERIFY, "--out", "{tmp}/missing/r.json"], None, 2),
    ("OSError_brackets_out", ["brackets", *FAST, "--out", "{tmp}/missing/t.json"], None, 2),
    ("OSError_integrate_out", ["integrate", "--initial", "0,0.1,0,0.2,0", "--x-end", "0.1",
                               "--out", "{tmp}/missing/t.csv"], None, 2),
    ("OSError_reduce_out", ["reduce", "{tmp}/ok.csv", "--out", "{tmp}/missing/r.json"], None, 2),
    ("OSError_flow_out", ["flow", "--point", "0.5,0.3", "--lambda", "0.2",
                          "--out", "{tmp}/missing/f.json"], None, 2),
    ("OSError_reduce_missing_csv", ["reduce", "{tmp}/missing.csv"], None, 2),
    ("ConfigError_integrate_empty_out", ["integrate", "--initial", "0,0.1,0,0.2,0", "--x-end",
                                         "0.1", "--out", ""], None, 2),
    # the sidecar of t.json would be t.json itself and overwrite the CSV
    ("ConfigError_integrate_json_out", ["integrate", "--initial=0,0.2,0.3,0.1,0.2", "--x-end",
                                        "0.5", "--out", "{tmp}/t.json"], None, 2),
    # one field past the csv module's 131072-character limit
    ("TrajectoryCSVError_long_field", ["reduce", "{tmp}/long_field.csv"], None, 2),
    # argparse before Python 3.12 reads --opt=-- as an empty list
    ("ConfigError_option_dash_dash", ["flow", "--point", "0.5,0.3", "--lambda=--"], None, 2),
    # a CSV row whose slopes overflow the integrand (its forged diagnostics passed)
    ("ChartError_csv_integrand_overflow", ["reduce", "{tmp}/huge_slope.csv"], None, 2),
    # a subnormal span: the row count divided the margin by a subnormal step
    ("integrate_subnormal_span", ["integrate", "--initial=5e-324,0.3,0,0,0", "--x-end=0",
                                  "--out", "{tmp}/t.csv"], None, 0),
]

# the stderr label of each exit code that main maps an error to
LABELS = {1: "runtime failure", 2: "usage error"}


@pytest.mark.parametrize("error, argv, patch, code", EXIT_CODES,
                         ids=[row[0] for row in EXIT_CODES])
def test_typed_errors_map_to_documented_exit_codes(tmp_path, monkeypatch, capsys,
                                                   error, argv, patch, code):
    geo.Trajectory(np.array([[0.1, 0.2, 0.0, 0.3, 0.4], [0.2, 0.25, 0.1, 0.3, 0.4]])).to_csv(
        tmp_path / "ok.csv")
    (tmp_path / "long_field.csv").write_text(f"{CSV_HEADER}\n{'1' * 131073}\n")
    (tmp_path / "huge_slope.csv").write_text(f"{CSV_HEADER}\n0.1,0.2,0,1e308,1e308,0,0,0\n")
    if patch is not None:
        module, name, err = patch
        monkeypatch.setattr(module, name, _raise(err))
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if code == 2 or captured.err:  # one line, in main's one format
        assert captured.err.startswith(f"glome {argv[0]}: {LABELS[code]}: ")
        assert captured.err.count("\n") == 1
    if code == 2:  # a usage error is met before any file is written
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "huge_slope.csv", "long_field.csv", "ok.csv"]
    if argv[0] == "integrate" and code == 1:  # the sidecar names the error met
        assert read_json(tmp_path / "t.json")["status"] == error.partition("_")[0]
        assert (tmp_path / "t.csv").exists()  # with the partial trajectory
