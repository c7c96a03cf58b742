"""Command-line entry point.

Subcommands:

  verify      run every verification suite, emit a JSON report
  brackets    identify the 6x6 bracket table, emit JSON
  integrate   integrate one geodesic to CSV plus a JSON sidecar
  reduce      map a trajectory CSV through the reduction, emit JSON
  flow        evaluate the closed-form orbit at one point, emit JSON

The commands raise; main alone maps an error to its exit code, through
EXIT_TABLE, and prints one stderr line ``glome <command>: <label>: <message>``.
Every command has --out, and main checks it before the command runs.
Exit codes: 0 all checks pass; 1 a check fails, integration stops early
(DomainExit, SingularSystem: results, written to the sidecar) or a runtime
failure (DomainError, BranchExit, AmbiguousIdentification); 2 a usage error
(ConfigError, ChartError, OutOfRange, TrajectoryCSVError, OSError).  Any
other exception is a bug and propagates with its traceback.  Every command
prints its JSON result on stdout, or writes it to --out; integrate writes its
sidecar and prints it.  Reports are byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import sys
from pathlib import Path

from . import chart, geodesics, jetcalc, reduction, symmetries
from .suites import ConfigError, RunConfig, bracket_table_for, run_all

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
    parser.add_argument("--seed", type=int, default=RunConfig.seed,
                        help="RNG seed (default %(default)s)")
    parser.add_argument("--samples", type=int, default=RunConfig.samples,
                        help="sample-count knob; %(default)s reproduces the standard counts")


def _add_step(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--step", type=float, default=RunConfig.step,
                        help=f"RK4 step in x, in [{geodesics.MIN_STEP:g}, {geodesics.MAX_STEP:g}]"
                             " (default %(default)s)")


def _check_out(out: str | None) -> None:
    """Refuse an output path that is a directory, or whose directory is
    missing, before any work is done."""
    if out and Path(out).is_dir():
        raise IsADirectoryError(errno.EISDIR, "output path is a directory", out)
    if out and not Path(out).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no directory for --out", str(Path(out).parent))


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def cmd_verify(args) -> int:
    cfg = RunConfig(seed=args.seed, samples=args.samples, step=args.step,
                    trajectories=args.trajectories)
    report = run_all(cfg)
    _emit(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_brackets(args) -> int:
    cfg = RunConfig(seed=args.seed, samples=args.samples)
    _emit(bracket_table_for(cfg), args.out)
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
    if not args.out:  # Path("") is the working directory, which has no .json sibling
        raise ConfigError("--out must name the CSV file, got ''")
    out = Path(args.out)
    sidecar_path = out.with_suffix(".json")
    if sidecar_path == out:
        raise ConfigError(f"--out must not end in .json, which the sidecar takes, got {args.out!r}")
    _check_out(str(sidecar_path))
    if not geodesics.MIN_STEP <= args.step <= geodesics.MAX_STEP:
        raise ConfigError(f"--step must lie in [{geodesics.MIN_STEP:g}, {geodesics.MAX_STEP:g}],"
                          f" got {args.step}")
    initial = _parse_floats(args.initial, 5, "--initial")
    j0 = chart.jet1(*initial)
    if not math.isfinite(args.x_end):
        raise ConfigError(f"--x-end must be finite, got {args.x_end}")

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
    if traj is not None:
        traj.to_csv(out)
        sidecar["samples"] = len(traj)
        sidecar["x_reached"] = float(traj.x[-1])
        sidecar["k"] = geodesics.infer_k(traj.jet(0))
        sidecar["noether_drift"] = traj.noether_drift()
        if status == "ok":
            sidecar["oracle_endpoint_error"] = geodesics.endpoint_error_vs_great_circle(traj)
    _emit(sidecar, str(sidecar_path))
    _emit(sidecar, None)
    return EXIT_OK if status == "ok" else EXIT_FAIL


def cmd_reduce(args) -> int:
    report = reduction.reduction_report(geodesics.Trajectory.from_csv(Path(args.trajectory)))
    _emit(report, args.out)
    return EXIT_FAIL if report["alpha_rel_dev"] is None else EXIT_OK


def cmd_flow(args) -> int:
    x, y = _parse_floats(args.point, 2, "--point")
    lam = args.lam
    chart.jet1(x, y, 0.0, 0.0, 0.0)
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
    _emit(payload, args.out)
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
    p_verify.add_argument("--trajectories", type=int, default=RunConfig.trajectories,
                          help="geodesics per dynamics suite (default %(default)s)")
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
    p_int.add_argument("--out", type=str, default="trajectory.csv",
                       help="CSV path (default trajectory.csv); the sidecar takes .json")
    p_int.set_defaults(func=cmd_integrate)

    p_red = sub.add_parser("reduce", help="reduction report for a trajectory CSV")
    p_red.add_argument("trajectory", help="path to a trajectory CSV")
    p_red.add_argument("--out", type=str, default=None)
    p_red.set_defaults(func=cmd_reduce)

    p_flow = sub.add_parser("flow", help="evaluate the closed-form orbit")
    p_flow.add_argument("--point", required=True, help="x,y of the seed point")
    p_flow.add_argument("--lambda", type=float, required=True, dest="lam")
    p_flow.add_argument("--out", type=str, default=None)
    p_flow.set_defaults(func=cmd_flow)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if [] in vars(args).values():  # argparse before Python 3.12 reads --opt=-- as []
            raise ConfigError("an option's value may not be '--'")
        _check_out(args.out)
        return args.func(args)
    except tuple(t for types, _, _ in EXIT_TABLE for t in types) as err:
        code, label = next((code, label) for types, code, label in EXIT_TABLE
                           if isinstance(err, types))
        print(f"glome {args.command}: {label}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
