"""Free flows and the constants-of-motion map.

The Casimir trace powers generate explicit flows (g(t), J). The map
(g, J) -> (g^{-1} J g, J) stays constant along every such flow, intertwines
the brackets, and has constant differential rank over the regular set.
"""

import numpy as np

from redint import GroupContext, constants_map, free_flow, random_phase_point
from redint.free_motion import (
    casimir_value,
    constants_map_rank,
    double_norm,
    poisson_map_defect,
)
from redint.words import observable, random_observable, word

ctx = GroupContext(3)
x = random_phase_point(ctx, seed=1)

print("== exact flow of the quadratic Casimir ==")
for t in (0.0, 1.0, 5.0, 10.0):
    drift = double_norm(constants_map(free_flow(x, 2, t)), constants_map(x))
    print(f"t = {t:5.1f}   constants-map drift {drift:.2e}")

print("\n== cubic Casimir, same story ==")
worst = max(
    double_norm(constants_map(free_flow(x, 3, t)), constants_map(x))
    for t in np.arange(0.0, 10.5, 0.5)
)
print("max drift over t in [0, 10]:", f"{worst:.2e}")

print("\n== the image satisfies the Casimir matching conditions ==")
z = constants_map(x)
for k in (2, 3):
    print(f"|C_{k}(X) - C_{k}(Y)| =", f"{abs(casimir_value(k, z.X) - casimir_value(k, z.Y)):.2e}")

print("\n== Poisson property on random invariant words ==")
rng = np.random.default_rng(2)
worst = max(
    poisson_map_defect(
        random_observable(rng, ("X", "Y"), max_len=4),
        random_observable(rng, ("X", "Y"), max_len=4),
        random_phase_point(ctx, rng),
    )
    for _ in range(50)
)
print("max defect over 50 pairs:", f"{worst:.2e}")

print("\n== differential rank ==")
rank, singvals = constants_map_rank(x)
print("rank:", rank, "(phase dimension", ctx.dim_phase, "minus rank", ctx.rank, ")")
print("singular-value tail:", singvals[rank - 1 : rank + 2])
zero = random_phase_point(ctx, seed=3)
from redint.phase import PhasePoint

zero = PhasePoint(zero.g, np.zeros((3, 3), dtype=complex))
print("rank at zero momentum:", constants_map_rank(zero)[0], "(algebra dimension)")
