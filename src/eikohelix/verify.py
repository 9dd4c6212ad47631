"""Numerical verification of the helix and slant-helix characterizations.

For a parallel (constant) gradient, a helix satisfies a ladder of pointwise
identities: each <V_{i+2}, grad f> equals H_i <V1, grad f>, the gradient
reconstructs from the frame as |grad f| cos(theta) (V1 + H1 V3 + ... +
H_{n-2} Vn), the sum of squared harmonic curvatures is a nonzero constant
with cos^2(theta) (1 + sum H_i^2) = 1, and the last harmonic curvature
obeys the closing derivative identity. The slant family mirrors all of
this with the reversed-index ladder whose axis expansion is
(H*_{n-2} V1 + ... + H*_1 V_{n-2} + Vn) <grad f, Vn>. The closing
identities' pointwise residuals come with the families from
:func:`~eikohelix.harmonic.harmonic_data` (``closing_H`` and
``closing_Hstar``, the step of each recurrence past its end); their grid
maxima are cor31 and cor41.

Residuals are maxima over the sample grid, computed as array reductions
over the sampled :class:`~eikohelix.classify.Trajectory`: the identities
are pointwise, and a mean could hide a localized failure. The hypotheses
are the family's flag, whose rate test keeps its scale at every angle theta
including near 0, and a parallel gradient. When they fail, residuals are
still computed so a near-helix can be measured, but the family carries a
non-empty reason and the report layer suppresses pass/fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import Classification, Trajectory, row_norm


@dataclass
class TheoremResiduals:
    """Grid maxima of every identity, their scales, and why a family's hypotheses fail.

    ``values`` is keyed and ordered as the report's ``residuals`` block, and
    ``scales``, keyed alike, holds each residual's scale in its own units;
    ``reasons`` maps "helix" and "slant" to "" when the family's hypotheses
    hold and to the reason they fail otherwise.
    """

    values: dict[str, float]
    scales: dict[str, float]
    reasons: dict[str, str]


def _reason(*checks: tuple[bool, str]) -> str:
    return "; ".join(text for failed, text in checks if failed)


def verify_all(trajectory: Trajectory, classification: Classification) -> TheoremResiduals:
    """Residuals of both families' identities over the grid, and their scales."""
    cos_theta = math.cos(classification.theta) if classification.theta is not None else 1.0

    frame = trajectory.frame
    grad = trajectory.grad
    projections = trajectory.projections
    harmonic = trajectory.harmonic
    H = harmonic.H_values()  # H_1 .. H_{n-2}, (N, n-2)
    Hstar = harmonic.Hstar_values()  # H*_1 .. H*_{n-2}, (N, n-2)
    ipn = trajectory.ip_last[:, None]
    n = frame.shape[-1]

    axis_helix = frame[:, 0] + np.einsum("pi,pic->pc", H, frame[:, 2:])
    axis_helix *= (trajectory.grad_norm * cos_theta)[:, None]
    # the coefficient of V_j (j = 1 .. n-2) is H*_{n-1-j}
    axis_slant = frame[:, -1] + np.einsum("pi,pic->pc", Hstar[:, ::-1], frame[:, : n - 2])
    axis_slant *= ipn

    grad_max = trajectory.grad_norm.max()
    k = trajectory.frenet.curvature_values()
    # key -> (grid maximum, scale in the residual's units; H and H* have none)
    residuals = {
        # <V_{i+2}, grad f> = H_i <V1, grad f> for i = 1 .. n-2
        "sys_helix": (np.abs(projections[:, 2:] - H * trajectory.ip_tangent[:, None]).max(), grad_max),
        "axis_helix": (row_norm(grad - axis_helix).max(), grad_max),
        "sumsq_helix_spread": (np.ptp(harmonic.sumsq_H), 1.0 + harmonic.sumsq_H.mean()),
        "tan_identity": (np.abs(cos_theta**2 * (1.0 + harmonic.sumsq_H) - 1.0).max(), 1.0),
        "hn2_min": (np.abs(H[:, -1]).min(), 1.0),  # the characterization needs H_{n-2} nonzero
        # the closing step's operands: k_{n-1} H_{n-3} and V1[H_{n-2}]
        "cor31": (harmonic.closing_H.max(), k[:, -1].max() * np.abs(H).max()),
        # <V_{n-(i+1)}, grad f> = H*_i <Vn, grad f> for i = 1 .. n-2
        "sys_slant": (np.abs(projections[:, n - 3 :: -1] - Hstar * ipn).max(), grad_max),
        "axis_slant": (row_norm(grad - axis_slant).max(), grad_max),
        "sumsq_slant_spread": (np.ptp(harmonic.sumsq_Hstar), 1.0 + harmonic.sumsq_Hstar.mean()),
        "hn2star_min": (np.abs(Hstar[:, -1]).min(), 1.0),
        "cor41": (harmonic.closing_Hstar.max(), k[:, 0].max() * np.abs(Hstar).max()),
        # diagnostics: a parallel gradient stays orthogonal to V2 along a
        # helix and to V_{n-1} along a slant helix
        "orth_v2": (np.abs(projections[:, 1]).max(), grad_max),
        "orth_vn1": (np.abs(projections[:, -2]).max(), grad_max),
    }

    not_parallel = (not classification.parallel_gradient, "gradient not parallel (Hessian nonzero along curve)")
    reasons = {
        "helix": _reason(
            (not classification.helix, "not a helix (tangent angle varies or is zero)"),
            not_parallel,
        ),
        "slant": _reason(
            (not classification.slant, "not a slant helix (last-vector angle varies or is zero)"),
            not_parallel,
        ),
    }
    return TheoremResiduals(
        values={key: float(value) for key, (value, _) in residuals.items()},
        scales={key: float(scale) for key, (_, scale) in residuals.items()},
        reasons=reasons,
    )
