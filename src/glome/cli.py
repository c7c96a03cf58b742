"""Command-line entry point.

Subcommands:

  verify      run every verification suite, emit a JSON report
  brackets    identify the 6x6 bracket table, emit JSON
  integrate   integrate one geodesic to CSV plus a JSON sidecar
  reduce      map a trajectory CSV through the reduction, emit JSON
  flow        evaluate the closed-form orbit at one point

The commands raise; main alone maps an error to its exit code, through
EXIT_TABLE, and prints one stderr line ``glome <command>: <label>: <message>``.
Exit codes: 0 all checks pass; 1 a check fails, integration stops early
(DomainExit, SingularSystem: results, written to the sidecar) or a runtime
failure (DomainError, BranchExit, AmbiguousIdentification); 2 a usage error
(ConfigError, ChartError, OutOfRange, TrajectoryCSVError, OSError).  Any
other exception is a bug and propagates with its traceback.  Reports are
byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import sys
from pathlib import Path

from . import chart, geodesics, jetcalc, reduction, symmetries
from .suites import DEFAULT_TOLERANCES, ConfigError, RunConfig, bracket_table_for, run_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# (error types, exit code, stderr label); the first row that matches wins.
EXIT_TABLE = (
    ((ConfigError, chart.ChartError, geodesics.OutOfRange, geodesics.TrajectoryCSVError, OSError),
     EXIT_USAGE, "usage error"),
    ((jetcalc.DomainError, reduction.BranchExit, symmetries.AmbiguousIdentification),
     EXIT_FAIL, "runtime failure"),
)


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--samples", type=int, default=1000,
                        help="sample-count knob; 1000 reproduces the standard counts")
    parser.add_argument("--margin", type=float, default=chart.DEFAULT_MARGIN,
                        help="chart sampling margin in radians (default 0.1)")


def _add_step(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--step", type=float, default=1e-3,
                        help=f"RK4 step in x, in [{geodesics.MIN_STEP:g}, {geodesics.MAX_STEP:g}]"
                             " (default 1e-3)")


def _check_out(out: str | None) -> None:
    """Refuse an --out whose directory is missing before any work is done."""
    if out and not Path(out).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no directory for --out", str(Path(out).parent))


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _parse_tolerances(args) -> dict:
    """--tol-all sets every tolerance; each --tol NAME=VALUE then overrides one."""
    overrides = {}
    if args.tol_all is not None:
        overrides = dict.fromkeys(DEFAULT_TOLERANCES, args.tol_all)
    for item in args.tol or []:
        if "=" not in item:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        try:
            overrides[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--tol value is not a number: {item!r}") from None
    return overrides


def cmd_verify(args) -> int:
    cfg = RunConfig(seed=args.seed, samples=args.samples, margin=args.margin,
                    step=args.step, trajectories=args.trajectories,
                    tolerances=_parse_tolerances(args))
    _check_out(args.out)
    report = run_all(cfg)
    _emit(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_brackets(args) -> int:
    cfg = RunConfig(seed=args.seed, samples=args.samples, margin=args.margin)
    _check_out(args.out)
    _emit(bracket_table_for(cfg).to_json_dict(), args.out)
    return EXIT_OK


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != count:
        raise ConfigError(f"{what} expects {count} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{what} is not numeric: {text!r}") from None


def cmd_integrate(args) -> int:
    if not geodesics.MIN_STEP <= args.step <= geodesics.MAX_STEP:
        raise ConfigError(f"--step must lie in [{geodesics.MIN_STEP:g}, {geodesics.MAX_STEP:g}],"
                          f" got {args.step}")
    initial = _parse_floats(args.initial, 5, "--initial")
    j0 = chart.jet1(*initial)
    if not math.isfinite(args.x_end):
        raise ConfigError(f"--x-end must be finite, got {args.x_end}")

    out = Path(args.out) if args.out else Path("trajectory.csv")
    _check_out(str(out))
    sidecar_path = out.with_suffix(".json")
    status = "ok"
    detail = ""
    traj = None
    try:
        traj = geodesics.integrate(j0, args.x_end, args.step)
    except (geodesics.DomainExit, geodesics.SingularSystem) as err:
        status, detail, traj = type(err).__name__, str(err), err.trajectory

    sidecar = {"status": status, "initial": initial, "x_end": args.x_end,
               "step": args.step}
    if detail:
        sidecar["detail"] = detail
    written = [sidecar_path]
    if traj is not None:
        traj.to_csv(out)
        written.insert(0, out)
        sidecar["samples"] = len(traj)
        sidecar["x_reached"] = float(traj.x[-1])
        sidecar["k"] = float(geodesics.infer_k(traj.jet(0)))
        sidecar["noether_drift"] = traj.noether_drift()
        if status == "ok":
            sidecar["oracle_endpoint_error"] = geodesics.endpoint_error_vs_great_circle(traj)
    text = json.dumps(sidecar, indent=2, allow_nan=False)
    sidecar_path.write_text(text + "\n")
    if not args.json:
        print(f"wrote {' and '.join(map(str, written))} ({status})")
    else:
        print(text)
    return EXIT_OK if status == "ok" else EXIT_FAIL


def cmd_reduce(args) -> int:
    report = reduction.reduction_report(geodesics.Trajectory.from_csv(Path(args.trajectory)))
    _emit(report, args.out)
    return EXIT_FAIL if report["alpha_rel_dev"] is None else EXIT_OK


def cmd_flow(args) -> int:
    x, y = _parse_floats(args.point, 2, "--point")
    lam = args.lam
    chart.ChartPoint(x, y, 0.0)
    if not math.isfinite(lam):
        raise ConfigError(f"--lambda must be finite, got {lam}")
    X, Y = reduction.global_flow(x, y, lam)
    omega_residual = abs(
        reduction.omega_coordinate(X, Y) - reduction.omega_coordinate(x, y)
    )
    tau_residual = None
    if reduction.tau_defined(x) and reduction.tau_defined(X):
        tau_residual = abs(reduction.wrap_mod_pi(
            reduction.tau_coordinate(X, Y) - reduction.tau_coordinate(x, y) - lam
        ))
    payload = {
        "point": [x, y],
        "lambda": lam,
        "image": [X, Y],
        "omega_residual": omega_residual,
        "tau_shift_residual": tau_residual,
    }
    if tau_residual is None:
        payload["tau_shift_reason"] = ("tau is undefined where sin x is zero or too small"
                                       " to square (point or image)")
    if args.json or args.out:
        _emit(payload, args.out)
    else:
        print(f"X = {X:.17g}")
        print(f"Y = {Y:.17g}")
        print(f"omega residual     = {omega_residual:.3e}")
        tau_text = payload.get("tau_shift_reason") or f"{tau_residual:.3e}"
        print(f"tau shift residual = {tau_text}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glome",
        description="Symmetry analysis of geodesics on the 3-sphere: "
                    "verification suites, integration, and order reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all verification suites")
    _add_sampling(p_verify)
    _add_step(p_verify)
    p_verify.add_argument("--trajectories", type=int, default=50,
                          help="geodesics per dynamics suite (default 50)")
    p_verify.add_argument("--tol", action="append", metavar="NAME=VALUE",
                          help="override one tolerance (repeatable)")
    p_verify.add_argument("--tol-all", type=float, default=None,
                          help="override every tolerance with one value "
                               "(--tol entries apply on top)")
    p_verify.add_argument("--out", type=str, default=None, help="report path")
    p_verify.set_defaults(func=cmd_verify)

    p_br = sub.add_parser("brackets", help="emit the identified bracket table")
    _add_sampling(p_br)
    p_br.add_argument("--out", type=str, default=None, help="table path")
    p_br.set_defaults(func=cmd_brackets)

    p_int = sub.add_parser("integrate", help="integrate one geodesic to CSV")
    p_int.add_argument("--initial", required=True,
                       help="x,y,v,y_x,v_x of the initial state")
    p_int.add_argument("--x-end", type=float, required=True, dest="x_end")
    _add_step(p_int)
    p_int.add_argument("--out", type=str, default=None,
                       help="CSV path (default trajectory.csv); the sidecar takes .json")
    p_int.add_argument("--json", action="store_true", help="print the sidecar on stdout")
    p_int.set_defaults(func=cmd_integrate)

    p_red = sub.add_parser("reduce", help="reduction report for a trajectory CSV")
    p_red.add_argument("trajectory", help="path to a trajectory CSV")
    p_red.add_argument("--out", type=str, default=None)
    p_red.set_defaults(func=cmd_reduce)

    p_flow = sub.add_parser("flow", help="evaluate the closed-form orbit")
    p_flow.add_argument("--point", required=True, help="x,y of the seed point")
    p_flow.add_argument("--lambda", type=float, required=True, dest="lam")
    p_flow.add_argument("--out", type=str, default=None)
    p_flow.add_argument("--json", action="store_true")
    p_flow.set_defaults(func=cmd_flow)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if [] in vars(args).values():  # argparse before Python 3.12 reads --opt=-- as []
            raise ConfigError("an option's value may not be '--'")
        return args.func(args)
    except tuple(t for types, _, _ in EXIT_TABLE for t in types) as err:
        code, label = next((code, label) for types, code, label in EXIT_TABLE
                           if isinstance(err, types))
        print(f"glome {args.command}: {label}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
