"""Sampling a curve/field pair and classifying the helix structure.

A curve is classified against a scalar field f by sampling the parameter
interval: eikonal when the gradient norm is constant along the curve, a
helix when additionally <grad f, V1> is a nonzero constant, and a slant
helix when <grad f, Vn> is. A vanishing Hessian along the curve marks the
gradient as parallel (a constant vector), which is the hypothesis under
which the axis and constancy identities of the verification module apply.

Sampling evaluates every stage once over the whole grid and returns a
:class:`Trajectory`, one array per quantity; classification reduces those
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dsl import CurveSpec
from .errors import EmptyInput, EvalError, EvalOverflow, FrameError, raise_first, value_at
from .frenet import FrenetData, frenet_apparatus
from .harmonic import HarmonicData, harmonic_data
from .jets import FieldJet, default_jet_order, eval_curve_jet, eval_field_jet


@dataclass(eq=False)
class Trajectory:
    """Everything computed along the sample grid of N points.

    ``frenet`` and ``harmonic`` hold jets with batch shape (N,); ``field``
    holds the field value, gradient and Hessian with shapes (N,), (N, n)
    and (N, n, n). The derived arrays below have the grid as first axis.
    """

    s: np.ndarray
    frenet: FrenetData
    harmonic: HarmonicData
    field: FieldJet

    def __len__(self) -> int:
        return len(self.s)

    @property
    def grad(self) -> np.ndarray:
        """(N, n) field gradient."""
        return self.field.gradient

    @cached_property
    def frame(self) -> np.ndarray:
        """(N, n, n) frame values; frame[:, i] is V_{i+1}."""
        return self.frenet.frame_values()

    @cached_property
    def projections(self) -> np.ndarray:
        """(N, n) array of <grad f, V_i>."""
        return np.einsum("pc,pic->pi", self.grad, self.frame)

    @property
    def ip_tangent(self) -> np.ndarray:
        """<grad f, V1> along the grid."""
        return self.projections[:, 0]

    @property
    def ip_last(self) -> np.ndarray:
        """<grad f, Vn> along the grid."""
        return self.projections[:, -1]

    @cached_property
    def grad_norm(self) -> np.ndarray:
        """|grad f| along the grid."""
        return row_norm(self.grad)

    @cached_property
    def hessian_norm(self) -> np.ndarray:
        """Frobenius norm of the field Hessian along the grid."""
        return row_norm(self.field.hessian, axis=(-2, -1))


def row_norm(x: np.ndarray, axis: int | tuple[int, int] = -1) -> np.ndarray:
    """Euclidean norm of each row of ``x`` over ``axis``, without overflow warnings.

    A row whose plain norm is not finite (its squares overflow) is rescaled
    by its largest entry; every other row is the plain norm, bit for bit.
    A row holding an infinite entry comes out nan.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(x, axis=axis)
        overflow = ~np.isfinite(norm)
        if overflow.any():
            rows = x[overflow]
            scale = np.abs(rows).max(axis=axis, keepdims=True)
            norm[overflow] = scale.reshape(-1) * np.linalg.norm(rows / scale, axis=axis)
    return norm


@dataclass
class Classification:
    eikonal: bool
    helix: bool
    slant: bool
    parallel_gradient: bool
    spreads: dict[str, float]
    theta: float | None  # angle between grad f and V1, from mean values
    grad_norm: float  # mean over the grid
    ip_tangent: float
    ip_last: float
    tol_const: float


def constancy(values, tol: float) -> tuple[bool, float]:
    """Spread-based constancy test with a relative-absolute hybrid threshold.

    Returns (is_const, max - min); constant means the spread is at most
    tol * (1 + |mean|), so the test is scale-free for large values.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyInput("constancy of an empty list")
    spread = float(arr.max() - arr.min())
    mean = float(arr.mean())
    return spread <= tol * (1.0 + abs(mean)), spread


def sample_along_curve(spec: CurveSpec) -> Trajectory:
    """Evaluate jets, frame, harmonic curvatures, and field over the grid.

    The grid is ``spec.samples`` equally spaced parameter values including
    both endpoints. A failure is reported as the per-point loop would
    report it: at the first grid point that fails any check, the first
    check in stage order, with the offending s attached.
    """
    grid = np.linspace(spec.s_range[0], spec.s_range[1], spec.samples)
    return _sample(spec, grid)


def _sample(spec: CurveSpec, grid: np.ndarray) -> Trajectory:
    try:
        jets = eval_curve_jet(spec, grid, default_jet_order(spec.dimension))
        fr = frenet_apparatus(jets, spec.tol_frame, grid)
        h = harmonic_data(fr)
        fj = eval_field_jet(spec, np.stack([j.coeffs[0] for j in jets], axis=-1))
        trajectory = Trajectory(s=grid, frenet=fr, harmonic=h, field=fj)
        # a finite gradient can still have a norm above the float range; the
        # projections on V_i are no larger, and classify_rows checks the means
        norm = trajectory.grad_norm
        raise_first(
            ~np.isfinite(norm), lambda i: EvalOverflow(f"|grad f| overflows to {value_at(norm, i)!r}")
        )
    except (FrameError, EvalError) as exc:
        first = exc.grid_index or 0
        if first:
            # Each check raised for its own first failing point; a check that
            # runs later may fail at an earlier point, which comes first.
            _sample(spec, grid[:first])
        if isinstance(exc, EvalError):
            raise type(exc)(f"{exc} (while sampling at s = {float(grid[first])!r})") from exc
        raise
    return trajectory


def classify_rows(trajectory: Trajectory, tol_const: float) -> Classification:
    """Classification from a sampled trajectory."""
    grad_norms = trajectory.grad_norm
    ip_tangents = trajectory.ip_tangent
    ip_lasts = trajectory.ip_last

    # an overflowing mean or spread raises EvalOverflow below
    with np.errstate(over="ignore"):
        eikonal, spread_norm = constancy(grad_norms, tol_const)
        tangent_const, spread_tangent = constancy(ip_tangents, tol_const)
        last_const, spread_last = constancy(ip_lasts, tol_const)

        mean_norm = float(np.mean(grad_norms))
        mean_tangent = float(np.mean(ip_tangents))
        mean_last = float(np.mean(ip_lasts))

    helix = eikonal and tangent_const and abs(mean_tangent) > tol_const
    slant = eikonal and last_const and abs(mean_last) > tol_const
    parallel = float(trajectory.hessian_norm.max()) <= tol_const
    aggregates = (mean_norm, mean_tangent, mean_last, spread_norm, spread_tangent, spread_last)
    if not all(map(math.isfinite, aggregates)):
        raise EvalOverflow(
            "mean or spread of |grad f|, <grad f, V1> or <grad f, Vn> over the grid overflows"
        )

    if mean_norm > 0.0:
        theta: float | None = math.acos(max(-1.0, min(1.0, mean_tangent / mean_norm)))
    else:
        theta = None

    return Classification(
        eikonal=eikonal,
        helix=helix,
        slant=slant,
        parallel_gradient=parallel,
        spreads={
            "grad_norm": spread_norm,
            "ip_tangent": spread_tangent,
            "ip_last": spread_last,
        },
        theta=theta,
        grad_norm=mean_norm,
        ip_tangent=mean_tangent,
        ip_last=mean_last,
        tol_const=tol_const,
    )


def classify(spec: CurveSpec) -> Classification:
    """Sample the spec's curve and classify it against its field."""
    return classify_rows(sample_along_curve(spec), spec.tol_const)
