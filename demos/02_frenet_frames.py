"""Frenet frames and curvatures in dimensions 3 and 4.

The frame V1..Vn is the Q factor of the QR factorization of the first n
derivative vectors, carried in jet arithmetic; curvatures k1..k_{n-1} are all
positive for a nondegenerate curve. A curve whose derivatives become
dependent is reported as degenerate instead of silently producing a bad
frame.
"""

import numpy as np

from eikohelix import eval_curve_jet, frenet_apparatus, parse_curve_spec
from eikohelix.errors import DegenerateCurve

np.set_printoptions(precision=6, suppress=True)

helix = parse_curve_spec(
    """
dimension = 3
curve = ["3*cos(s/5)", "3*sin(s/5)", "4*s/5"]
field = "x3"
s_range = [0, 31.4159]
"""
)
print("unit-speed helix of radius 3 and pitch 4")
for s in (0.0, 5.0, 20.0):
    fr = frenet_apparatus(eval_curve_jet(helix, s), helix.tol_frame, s=s)
    print(f"  s = {s:5.1f}  speed = {fr.speed.value:.6f}  k = {fr.curvature_values()}")
print("  expected curvatures: 3/25 = 0.12 and 4/25 = 0.16 at every s")
print()

fr = frenet_apparatus(eval_curve_jet(helix, 5.0), helix.tol_frame, s=5.0)
frame = fr.frame_values()
print("frame at s = 5 (rows V1, V2, V3):")
print(frame)
print("orthonormality defect:", np.max(np.abs(frame @ frame.T - np.eye(3))))
print()

torus = parse_curve_spec(
    """
dimension = 4
curve = ["cos(s)", "sin(s)", "0.5*cos(2*s)", "0.5*sin(2*s)"]
field = "x4"
s_range = [0, 6.2832]
"""
)
fr4 = frenet_apparatus(eval_curve_jet(torus, 1.0), torus.tol_frame, s=1.0)
print("closed double-rotation curve in R^4: constant curvatures")
print("  k =", fr4.curvature_values())
print()

circle = parse_curve_spec(
    """
dimension = 3
curve = ["cos(s)", "sin(s)", "0"]
field = "x3"
s_range = [0, 6.2832]
"""
)
print("planar circle embedded in R^3:")
try:
    frenet_apparatus(eval_curve_jet(circle, 1.0), circle.tol_frame, s=1.0)
except DegenerateCurve as exc:
    print("  ", exc)
