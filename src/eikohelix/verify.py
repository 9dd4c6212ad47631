"""Numerical verification of the helix and slant-helix characterizations.

For a parallel (constant) gradient, a helix satisfies a ladder of pointwise
identities: each <V_{i+2}, grad f> equals H_i <V1, grad f>, the gradient
reconstructs from the frame as |grad f| cos(theta) (V1 + H1 V3 + ... +
H_{n-2} Vn), the sum of squared harmonic curvatures is a nonzero constant
with cos^2(theta) (1 + sum H_i^2) = 1, and the last harmonic curvature
obeys the closing derivative identity. The slant family mirrors all of
this with the reversed-index ladder whose axis expansion is
(H*_{n-2} V1 + ... + H*_1 V_{n-2} + Vn) <grad f, Vn>.

Residuals are maxima over the sample grid, computed as array reductions
over the sampled :class:`~eikohelix.classify.Trajectory`: the identities
are pointwise, and a mean could hide a localized failure. When the
hypotheses (helix or slant flag, parallel gradient) fail, residuals are
still computed where possible so a near-helix can be measured, but they
carry hypotheses_met = False and the report layer suppresses pass/fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import Classification, Trajectory
from .harmonic import lemma_residuals

# Below this angle the gradient is numerically aligned with the tangent and
# the tangent-family constancy statement degenerates (all H_i would need to
# vanish); verification flags the case instead of guessing.
THETA_DEGENERATE = 1e-6


@dataclass
class HelixResiduals:
    """Grid maxima of the tangent-family identities."""

    hypotheses_met: bool
    reason: str  # empty when hypotheses_met
    sys_helix: float  # ladder system <V_{i+2}, grad f> = H_i <V1, grad f>
    axis_helix: float  # gradient reconstruction from the frame
    sumsq_helix_spread: float
    tan_identity: float  # cos^2(theta) (1 + sum H_i^2) = 1
    hn2_min: float  # min |H_{n-2}|; the characterization needs it nonzero
    cor31: float  # max residual of the closing derivative identity
    theta_degenerate: bool


@dataclass
class SlantResiduals:
    """Grid maxima of the normal-family identities."""

    hypotheses_met: bool
    reason: str
    sys_slant: float
    axis_slant: float
    sumsq_slant_spread: float
    hn2star_min: float
    cor41: float


def _hypothesis_reason(flag: bool, name: str, classification: Classification) -> str:
    reasons = []
    if not flag:
        reasons.append(name)
    if not classification.parallel_gradient:
        reasons.append("gradient not parallel (Hessian nonzero along curve)")
    return "; ".join(reasons)


def verify_helix_theorems(
    trajectory: Trajectory, classification: Classification
) -> HelixResiduals:
    """Residuals of the tangent-family identities over the grid."""
    theta = classification.theta
    cos_theta = math.cos(theta) if theta is not None else 1.0
    theta_degenerate = theta is not None and abs(theta) < THETA_DEGENERATE

    frame = trajectory.frame
    grad = trajectory.grad
    H = trajectory.harmonic.H_values()  # (N, n-2)
    ip1 = trajectory.ip_tangent[:, None]

    # ladder entries i = 1 .. n-2: <V_{i+2}, grad f> = H_i <V1, grad f>
    sys_max = np.abs(trajectory.projections[:, 2:] - H * ip1).max()

    axis = frame[:, 0] + np.einsum("pi,pic->pc", H, frame[:, 2:])
    axis *= (trajectory.grad_norm * cos_theta)[:, None]
    axis_max = np.linalg.norm(grad - axis, axis=-1).max()

    sumsq = trajectory.harmonic.sumsq_H
    tan_max = np.abs(cos_theta**2 * (1.0 + sumsq) - 1.0).max()
    r_tangent, _ = lemma_residuals(trajectory.harmonic, trajectory.frenet)

    met = classification.helix and classification.parallel_gradient and not theta_degenerate
    reason = _hypothesis_reason(classification.helix, "not a helix (tangent angle varies or is zero)", classification)
    if theta_degenerate:
        reason = (reason + "; " if reason else "") + "axis aligned with tangent (theta ~ 0)"
    return HelixResiduals(
        hypotheses_met=met,
        reason="" if met else reason,
        sys_helix=float(sys_max),
        axis_helix=float(axis_max),
        sumsq_helix_spread=float(np.ptp(sumsq)),
        tan_identity=float(tan_max),
        hn2_min=float(np.abs(H[:, -1]).min()),
        cor31=float(r_tangent.max()),
        theta_degenerate=theta_degenerate,
    )


def verify_slant_theorems(
    trajectory: Trajectory, classification: Classification
) -> SlantResiduals:
    """Residuals of the normal-family identities over the grid."""
    frame = trajectory.frame
    grad = trajectory.grad
    Hstar = trajectory.harmonic.Hstar_values()  # H*_1 .. H*_{n-2}, (N, n-2)
    ipn = trajectory.ip_last
    n = frame.shape[-1]

    # <V_{n-(i+1)}, grad f> = H*_i <Vn, grad f> for i = 1 .. n-2
    sys_max = np.abs(trajectory.projections[:, n - 3 :: -1] - Hstar * ipn[:, None]).max()

    # the coefficient of V_j (j = 1 .. n-2) is H*_{n-1-j}
    axis = frame[:, -1] + np.einsum("pi,pic->pc", Hstar[:, ::-1], frame[:, : n - 2])
    axis *= ipn[:, None]
    axis_max = np.linalg.norm(grad - axis, axis=-1).max()

    _, r_normal = lemma_residuals(trajectory.harmonic, trajectory.frenet)

    met = classification.slant and classification.parallel_gradient
    reason = _hypothesis_reason(
        classification.slant, "not a slant helix (last-vector angle varies or is zero)", classification
    )
    return SlantResiduals(
        hypotheses_met=met,
        reason="" if met else reason,
        sys_slant=float(sys_max),
        axis_slant=float(axis_max),
        sumsq_slant_spread=float(np.ptp(trajectory.harmonic.sumsq_Hstar)),
        hn2star_min=float(np.abs(Hstar[:, -1]).min()),
        cor41=float(r_normal.max()),
    )


def orthogonality_checks(trajectory: Trajectory) -> tuple[float, float]:
    """Grid maxima of |<grad f, V2>| and |<grad f, V_{n-1}>|.

    A parallel-gradient helix keeps the gradient orthogonal to V2; a
    parallel-gradient slant helix keeps it orthogonal to V_{n-1}. Both
    maxima are reported unconditionally as diagnostics.
    """
    projections = trajectory.projections
    return float(np.abs(projections[:, 1]).max()), float(np.abs(projections[:, -2]).max())


@dataclass
class TheoremResiduals:
    """Combined residual record used by the report layer."""

    helix: HelixResiduals
    slant: SlantResiduals
    orth_v2: float
    orth_vn1: float


def verify_all(trajectory: Trajectory, classification: Classification) -> TheoremResiduals:
    helix = verify_helix_theorems(trajectory, classification)
    slant = verify_slant_theorems(trajectory, classification)
    orth_v2, orth_vn1 = orthogonality_checks(trajectory)
    return TheoremResiduals(helix=helix, slant=slant, orth_v2=orth_v2, orth_vn1=orth_vn1)
