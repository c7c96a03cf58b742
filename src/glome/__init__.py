"""Numerical symmetry analysis of geodesics on the 3-sphere.

Submodules:

- :mod:`glome.tape`: records a float computation once, replays it as straight-line code
- :mod:`glome.jetcalc`: forward-mode dual numbers and derivative helpers
- :mod:`glome.chart`: the hyperspherical chart, embedding, and integrand
- :mod:`glome.symmetries`: generators, prolongations, brackets, tables
- :mod:`glome.geodesics`: Euler-Lagrange dynamics, RK4, conserved charge
- :mod:`glome.reduction`: canonical coordinates, global flow, reduction
- :mod:`glome.suites`: the named verification suites
- :mod:`glome.cli`: the `glome` command-line entry point
"""
