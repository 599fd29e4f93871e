"""Rank certificates for the conjugation-reduced system.

All quotient statements are tested upstairs, modulo the gauge directions of
the conjugation action: the projected span of the commuting flows, the span
of pulled-back invariant words, centrality of the Casimirs, and the leaf
codimension cut out by the moment-map Casimirs.
"""

import numpy as np

from redint import GroupContext, classify, random_phase_point
from redint.free_motion import DoublePoint
from redint.groups import random_algebra
from redint.reduction import (
    double_orbit_dim,
    invariant_span_double,
    leaf_codim,
    max_centrality_defect,
    reduced_hamiltonian_span,
    span_plateau,
    word_generators,
)

for n in (2, 3):
    ctx = GroupContext(n)
    x = random_phase_point(ctx, seed=10 + n)
    print(f"== SU({n}) ==")
    print("stratum flags:", classify(x))
    print("projected Hamiltonian span:", reduced_hamiltonian_span(x), "(rank =", ctx.rank, ")")
    max_len = 4 if n == 2 else 6
    sweep = span_plateau(x, max_len)
    print("constants span by word length:", sweep, "-> expected plateau", ctx.dim_g - ctx.rank)
    gens = word_generators(4)
    worst = max_centrality_defect(x, gens)
    print("max Casimir centrality defect:", f"{worst:.2e}")
    print("leaf codimension from moment Casimirs:", leaf_codim(x), "(rank =", ctx.rank, ")")
    print()

print("== invariant spans on the double ==")
ctx = GroupContext(2)
rng = np.random.default_rng(5)
gens = word_generators(4)
z = DoublePoint(random_algebra(ctx, rng), random_algebra(ctx, rng))
print("generic pair: span", invariant_span_double(z, gens),
      "= orbit codimension", 2 * ctx.dim_g - double_orbit_dim(z))

X = random_algebra(ctx, rng)
zd = DoublePoint(X, X)
print("diagonal pair: span", invariant_span_double(zd, gens),
      "vs orbit codimension", 2 * ctx.dim_g - double_orbit_dim(zd))
print("   (off the principal stratum every invariant factors through the")
print("    three pairings, so the span is smaller than the codimension)")
