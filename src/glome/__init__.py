"""Numerical symmetry analysis of geodesics on the 3-sphere.

Submodules:

- :mod:`glome.jetcalc`: forward-mode dual numbers and derivative helpers
- :mod:`glome.chart`: the hyperspherical chart, embedding, and integrand
- :mod:`glome.symmetries`: generators, prolongations, brackets, tables
- :mod:`glome.geodesics`: Euler-Lagrange dynamics, RK4, conserved charge
- :mod:`glome.reduction`: canonical coordinates, global flow, reduction
- :mod:`glome.suites`: the named verification suites
- :mod:`glome.cli`: the `glome` command-line entry point
"""

from .chart import embed, lagrangian, sample_domain
from .geodesics import (
    DomainExit,
    OutOfRange,
    SingularSystem,
    Trajectory,
    collapsed_E,
    el_rhs,
    great_circle,
    infer_k,
    integrate,
    integrate_batch,
    noether_charge,
)
from .jetcalc import DomainError, DualScalar
from .reduction import (
    BranchExit,
    global_flow,
    s2_residual,
)
from .symmetries import (
    AmbiguousIdentification,
    BracketTable,
    bracket_table,
    chi,
    closed_triples,
    determining_residuals,
    general_symmetry,
    lie_bracket,
    prolong2_apply,
    variational_residual,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousIdentification",
    "BracketTable",
    "BranchExit",
    "DomainError",
    "DomainExit",
    "DualScalar",
    "OutOfRange",
    "SingularSystem",
    "Trajectory",
    "bracket_table",
    "chi",
    "closed_triples",
    "collapsed_E",
    "determining_residuals",
    "el_rhs",
    "embed",
    "general_symmetry",
    "global_flow",
    "great_circle",
    "infer_k",
    "integrate",
    "integrate_batch",
    "lagrangian",
    "lie_bracket",
    "noether_charge",
    "prolong2_apply",
    "s2_residual",
    "sample_domain",
    "variational_residual",
]
