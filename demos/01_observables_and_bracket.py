"""Trace-word observables and the canonical Poisson bracket.

Builds a few observables on the phase space SU(3) x su(3), checks their
exact gradients against finite differences, and samples the bracket axioms.
"""

import numpy as np

from redint import GroupContext, random_phase_point
from redint.phase import evaluate, fd_gradients, gradients, poisson_bracket
from redint.words import observable, word

ctx = GroupContext(3)
x = random_phase_point(ctx, seed=0)

print("== observables ==")
kinetic = observable(word(("J", "J"), coeff=-0.5))
holonomy = observable(word(("G",)), word(("G", "J"), part="im", coeff=0.25))
print("kinetic  = -0.5 Re tr(J J)               :", evaluate(kinetic, x))
print("holonomy = Re tr(G) + 0.25 Im tr(G J)     :", evaluate(holonomy, x))

print("\n== exact gradients vs finite differences ==")
for name, F in (("kinetic", kinetic), ("holonomy", holonomy)):
    fd_left, fd_fiber = fd_gradients(F, x)
    left, fiber = gradients(F, x)
    dl = np.linalg.norm(left - fd_left)
    df = np.linalg.norm(fiber - fd_fiber)
    print(f"{name:9s} left-gradient defect {dl:.2e}, fiber-gradient defect {df:.2e}")

print("\n== bracket values ==")
print("{kinetic, holonomy}(x) =", poisson_bracket(kinetic, holonomy, x))
print("antisymmetry defect    =", abs(
    poisson_bracket(kinetic, holonomy, x) + poisson_bracket(holonomy, kinetic, x)
))

print("\n== the harness check wraps this up with Leibniz and Jacobi ==")
from redint.harness import ExperimentConfig, run_check

report = run_check("bracket-axioms", ExperimentConfig(n=3, seed=0, samples=25))
for key, value in report.observed.items():
    print(f"{key:32s} {value:.3e}")
print("passed:", report.passed)
