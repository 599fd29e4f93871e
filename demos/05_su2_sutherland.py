"""The SU(2) reduction: the two-particle trigonometric Sutherland model.

Walks the whole chain: the gauge slice, the energy identity, the special
equilibrium orbit, and the regauged exact flow side by side with the exact
Sutherland motion in closed form and with a fourth-order integration of the
canonical equations. Writes the trajectory comparison to su2_trajectory.csv.
"""

import numpy as np

from redint.free_motion import constants_map
from redint.phase import moment_map
from redint.su2 import (
    EXCEPTIONAL_Q,
    TIME_SCALE,
    SliceCoords,
    calibrate_time_scale,
    exceptional_point_audit,
    reduced_dynamics_match,
    regauge_to_slice,
    rk4_deviation,
    slice_point,
    sutherland_energy,
    trajectory_csv_rows,
)

print("== the slice and its closed forms ==")
c = SliceCoords(q=np.pi / 3, p=0.4, x=1.0)
x = slice_point(c)
print("moment value:\n", moment_map(x).round(12))
print("reduced energy:", sutherland_energy(c))
print("trace identity: -1/4 Re tr(J^2) =", float(-0.25 * np.trace(x.J @ x.J).real))

print("\n== gauge fixing round trip ==")
back = regauge_to_slice(x)
print("recovered (q, p, x):", (back.q, back.p, back.x))

print("\n== the equilibrium orbit ==")
for x_val in (1.0, 2.0):
    audit = exceptional_point_audit(x_val)
    print(f"x={x_val}: image stabilizer dim {audit.image_stabilizer_dim}, "
          f"projected span {audit.projected_span}, grid minimum {audit.grid_min_energy}")

print("\n== reduced dynamics: regauged flow, closed form and RK4 ==")
measured = calibrate_time_scale(1.0)
print("time scale between flow and Sutherland time: derived", TIME_SCALE,
      f"measured {measured!r} (off by {measured - TIME_SCALE:.1e})")
c0 = SliceCoords(np.pi / 3, 0.0, 1.0)
comp = reduced_dynamics_match(c0, T=2.0, steps=10_000)
rk4, rk4_drift = rk4_deviation(comp, c0, T=2.0, steps=10_000)
print("max deviation from the closed form:", f"{comp.max_deviation:.2e}")
print("max deviation from RK4:", f"{rk4:.2e}")
print("closed-form energy drift:", f"{comp.energy_drift:.2e}")
print("RK4 energy drift:", f"{rk4_drift:.2e}")

header, rows = trajectory_csv_rows(comp)
with open("su2_trajectory.csv", "w", encoding="utf8") as fh:
    fh.write("\n".join([header] + rows) + "\n")
print("wrote su2_trajectory.csv with", len(rows), "samples")
