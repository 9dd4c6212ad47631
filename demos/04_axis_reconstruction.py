"""Axis reconstruction and the harmonic-curvature identities.

For a parallel-gradient helix the gradient expands over the frame with
harmonic-curvature coefficients:

    grad f = |grad f| cos(theta) (V1 + H1 V3 + ... + H_{n-2} Vn)

and the slant family mirrors it from the other end of the frame. The sums
of squared harmonic curvatures are constant, and the last entry of each
family obeys a closing derivative identity. All of it is checked here as
grid maxima of pointwise residuals.
"""

import math

import numpy as np

from eikohelix import catalog, classify_rows, sample_along_curve, verify_all

np.set_printoptions(precision=6, suppress=True)

for name in ("helix345_fz", "helix_r4"):
    spec = catalog.load(name)
    trajectory = sample_along_curve(spec)  # every grid quantity, as arrays
    classification = classify_rows(trajectory, spec.tol_const)
    residuals = verify_all(trajectory, classification)

    print(f"{name}: helix = {classification.helix}, "
          f"parallel gradient = {classification.parallel_gradient}")
    r = residuals.values  # grid maxima, keyed as the report's residuals block
    print(f"  ladder system residual   : {r['sys_helix']:.3e}")
    print(f"  axis reconstruction      : {r['axis_helix']:.3e}")
    print(f"  sum H_i^2 spread         : {r['sumsq_helix_spread']:.3e}")
    print(f"  angle identity           : {r['tan_identity']:.3e}")
    print(f"  min |H_(n-2)|            : {r['hn2_min']:.6f}")
    print(f"  closing identity residual: {r['cor31']:.3e}")

    mid = len(trajectory) // 2
    frame = trajectory.frame[mid]
    H = trajectory.harmonic.H_values()[mid]
    coeff = trajectory.grad_norm[mid] * math.cos(classification.theta)
    axis = frame[0].copy()
    for i, Hi in enumerate(H):
        axis += Hi * frame[i + 2]
    axis *= coeff
    print(f"  reconstructed axis at midpoint: {axis}")
    print(f"  field gradient                : {trajectory.grad[mid]}")
    print()

spec = catalog.load("helix345_fz")
trajectory = sample_along_curve(spec)
classification = classify_rows(trajectory, spec.tol_const)
residuals = verify_all(trajectory, classification)
r = residuals.values
print("helix345_fz, slant family (axis from the other end of the frame):")
print(f"  ladder system residual   : {r['sys_slant']:.3e}")
print(f"  axis reconstruction      : {r['axis_slant']:.3e}")
print(f"  sum H*_i^2 spread        : {r['sumsq_slant_spread']:.3e}")
print(f"  closing identity residual: {r['cor41']:.3e}")
print(f"  sum H_i^2 = tan^2(theta) : {trajectory.harmonic.sumsq_H[0]:.6f}"
      f" vs {math.tan(classification.theta) ** 2:.6f}")
