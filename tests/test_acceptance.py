"""Acceptance criteria, one test per criterion, at the stated tolerances.

Every criterion runs against the full default verification configuration
(the session-scoped report fixture), which uses the standard counts:
50 points per bracket entry, 1000 jets/triples for the pointwise
criteria, 100 points for each of 20 random combinations, 200 on-shell
jets per k value, 50 random geodesics at step 1e-3 plus one 10^4-step
run, and the complete reduction pipeline.
"""

import itertools

import pytest

from glome import chart, geodesics as geo
from glome import symmetries as sym
from reference import bracket_table

REFERENCE_TABLE = bracket_table()  # derived from the planes the generators rotate


def by_name(report):
    return {c["name"]: c for c in report["checks"]}


def announce(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{status}] {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def test_criterion_1_bracket_table(default_report):
    check = by_name(default_report)["bracket_table"]
    grid = [[cell["id"] for cell in row] for row in check["table"]["entries"]]
    worst = max(cell["residual"] for row in check["table"]["entries"] for cell in row)
    ok = grid == REFERENCE_TABLE and worst < 1e-8
    announce(1, "bracket table reproduced, 36/36 entries",
             ok, f"max residual {worst:.2e} < 1e-8, 50 points per entry")


def test_criterion_2_variational_symmetry(default_report):
    check = by_name(default_report)["variational_criterion"]
    announce(2, "variational criterion for chi1..chi6 over 1000 jets",
             check["max_residual"] < 1e-9,
             f"max residual {check['max_residual']:.2e} < 1e-9")


def test_criterion_3_determining_equations(default_report):
    check = by_name(default_report)["determining_equations"]
    announce(3, "determining equations for 20 random combinations x 100 points",
             check["max_residual"] < 1e-9,
             f"max residual {check['max_residual']:.2e} < 1e-9")


def test_criterion_4_subgroup_closure(default_report):
    check = by_name(default_report)["subgroup_closure"]
    expected = [[1, 2, 6], [1, 3, 4], [2, 3, 5], [4, 5, 6]]
    counterexample_fails = [1, 2, 3] not in check["closed_triples"]
    ok = check["closed_triples"] == expected and counterexample_fails
    announce(4, "exactly the four listed triples close; {1,2,3} fails",
             ok, f"closed: {check['closed_triples']}")


def test_criterion_5_second_prolongation_collapsed(default_report):
    check = by_name(default_report)["collapsed_prolongation"]
    announce(5, "pr2(chi3) annihilates E on-shell for k in {0, 0.25, 0.5, 0.9}",
             check["max_residual"] < 1e-8,
             f"max residual {check['max_residual']:.2e} < 1e-8, 200 jets per k")


def test_criterion_6_flow_properties(default_report):
    checks = by_name(default_report)
    omega = checks["flow_omega_invariance"]["max_residual"]
    tau = checks["flow_tau_shift"]["max_residual"]
    group = checks["flow_group_property"]["max_residual"]
    ok = omega < 1e-12 and tau < 1e-9 and group < 1e-9
    announce(6, "flow properties over 1000 in-window triples", ok,
             f"omega {omega:.2e} < 1e-12, tau {tau:.2e} < 1e-9, group {group:.2e} < 1e-9")


def test_criterion_7_conservation_and_oracle(default_report):
    checks = by_name(default_report)
    drift = checks["noether_drift"]["max_residual"]
    endpoint = checks["oracle_endpoint"]["max_residual"]
    steps = checks["noether_drift"]["long_run_steps"]
    ok = drift < 1e-8 and endpoint < 1e-7 and steps == 10000
    announce(7, "charge drift and great-circle endpoint over 50 geodesics",
             ok, f"drift {drift:.2e} < 1e-8 (incl. {steps}-step run), "
                 f"endpoint {endpoint:.2e} < 1e-7")


def test_criterion_8_collapsed_equation_and_reduction(default_report):
    checks = by_name(default_report)
    k_gap = checks["k_grid_agreement"]["max_residual"]
    worst_E = checks["collapsed_equation"]["max_residual"]
    alpha = checks["alpha_constancy"]["max_residual"]
    ok = k_gap < 1e-3 and worst_E < 1e-7 and alpha < 1e-5
    announce(8, "inferred k vs grid oracle, |E| along trajectories, alpha constancy",
             ok, f"k gap {k_gap:.2e} < 1e-3, |E| {worst_E:.2e} < 1e-7, "
                 f"alpha dev {alpha:.2e} < 1e-5")


def test_criterion_9_totally_geodesic(default_report):
    checks = by_name(default_report)
    vx = checks["totally_geodesic_vx"]["max_residual"]
    s2 = checks["totally_geodesic_s2"]["max_residual"]
    ok = vx < 1e-10 and s2 < 1e-8
    announce(9, "v_x = 0 geodesics stay planar and satisfy the 2-sphere equation",
             ok, f"|v_x| {vx:.2e} < 1e-10, residual {s2:.2e} < 1e-8")


def test_all_checks_green(default_report):
    failed = [c["name"] for c in default_report["checks"] if not c["passed"]]
    assert default_report["passed"], f"failed checks: {failed}"
