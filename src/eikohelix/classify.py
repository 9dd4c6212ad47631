"""Sampling a curve/field pair and classifying the helix structure.

A curve is classified against a scalar field f by sampling the parameter
interval: eikonal when the gradient norm is constant along the curve, a
helix when additionally <grad f, V1> is a nonzero constant, and a slant
helix when <grad f, Vn> is, each tested by its rate over the frame's turning
from the Frenet equations. A vanishing Hessian along the curve marks the
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

    @cached_property
    def hessian_projections(self) -> np.ndarray:
        """(N, n) array of <Hess f V1, V_i>, which is <grad f, V_i>' / speed - <grad f, V_i'> / speed."""
        return np.einsum("pic,pc->pi", self.frame, np.einsum("pcd,pd->pc", self.field.hessian, self.frame[:, 0]))

    @cached_property
    def rate_tangent(self) -> np.ndarray:
        """r_1 = <grad f, V1>' / (speed k_1) = V1^T Hess V1 / k_1 + <grad f, V2>, by the Frenet equations."""
        return self.hessian_projections[:, 0] / self.frenet.curvatures[0].value + self.projections[:, 1]

    @cached_property
    def rate_last(self) -> np.ndarray:
        """r_n = <grad f, Vn>' / (speed k_{n-1}) = V1^T Hess Vn / k_{n-1} - <grad f, V_{n-1}>."""
        return self.hessian_projections[:, -1] / self.frenet.curvatures[-1].value - self.projections[:, -2]

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

    Each row is divided by 2^e, e the binary exponent of its largest entry,
    and its norm multiplied back: the squares stay in range whatever the
    units of the row, and every row in float64's normal range keeps its bits
    however far it lies below the others. Where every nonzero |entry| lies in
    [2^-250, 2^250], no square, sum or root of either form leaves the normal
    range, where a power of two commutes with rounding, so the plain norm is
    taken: it has the same bits.
    """
    a = np.abs(x)
    if a.max(initial=0.0) <= 2.0**250 and a.min(where=a != 0.0, initial=np.inf) >= 2.0**-250:
        return np.linalg.norm(x, axis=axis)
    e = np.frexp(a.max(axis=axis, keepdims=True))[1]
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.norm(np.ldexp(x, -e), axis=axis), e.squeeze(axis))


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


def constancy(values, tol: float, scale: float) -> tuple[bool, float]:
    """Spread-based constancy test: constant means max - min <= tol * scale.

    ``scale`` carries the units of the values, so the verdict does not
    depend on them. Returns (is_const, max - min).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyInput("constancy of an empty list")
    spread = float(arr.max() - arr.min())
    return spread <= tol * scale, spread


def sample_along_curve(spec: CurveSpec) -> Trajectory:
    """Evaluate jets, frame, harmonic curvatures, and field over the grid.

    The grid is ``spec.samples`` equally spaced parameter values including
    both endpoints. A failure is reported as the per-point loop would
    report it: at the first grid point that fails any check, the first
    check in stage order, with the offending s attached. A grid whose
    float64 bytes numpy cannot count in ``np.intp`` raises MemoryError, as
    one too large to allocate does.
    """
    # linspace counts the samples in float64; past np.intp it raises
    # ValueError or returns an empty grid instead of a MemoryError
    limit = np.iinfo(np.intp).max
    if float(min(spec.samples, limit)) * np.dtype(float).itemsize > limit:
        raise MemoryError(f"no float64 grid of {spec.samples} samples")
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
    """Classification from a sampled trajectory.

    <grad f, V1> (<grad f, Vn>) is constant when its rate ``rate_tangent``
    (``rate_last``) vanishes; a cosine's spread, reported only, is flat near
    its axis. Each test compares with ``tol_const`` times a scale in the units
    of what it tests: mean |grad f| for the spread of |grad f|, the two rates,
    the two nonzero means, and max |Hess f| * L, L = mean speed * (s_end - s_start);
    a zero max |Hess f| is parallel even where L overflows.
    """
    grad_norms = trajectory.grad_norm
    ip_tangents = trajectory.ip_tangent
    ip_lasts = trajectory.ip_last

    # an overflowing mean or spread, or +inf and -inf meeting in a sum as nan,
    # raises EvalOverflow below
    with np.errstate(over="ignore", invalid="ignore"):
        mean_norm = float(np.mean(grad_norms))
        eikonal, spread_norm = constancy(grad_norms, tol_const, mean_norm)
        spread_tangent = constancy(ip_tangents, tol_const, mean_norm)[1]
        spread_last = constancy(ip_lasts, tol_const, mean_norm)[1]

        mean_tangent = float(np.mean(ip_tangents))
        mean_last = float(np.mean(ip_lasts))
        # the speeds are divided by a power of two only where their sum could overflow
        speed = trajectory.frenet.speed.value
        shift = max(0, np.frexp(np.max(speed))[1] + np.size(speed).bit_length() - 1023)
        length = float(np.ldexp(np.mean(np.ldexp(speed, -shift)), shift) * (trajectory.s[-1] - trajectory.s[0]))

    small = tol_const * mean_norm
    helix = eikonal and float(np.abs(trajectory.rate_tangent).max()) <= small and abs(mean_tangent) > small
    slant = eikonal and float(np.abs(trajectory.rate_last).max()) <= small and abs(mean_last) > small
    max_hessian = float(trajectory.hessian_norm.max())
    parallel = max_hessian == 0.0 or max_hessian * length <= small
    aggregates = (mean_norm, mean_tangent, mean_last, spread_norm, spread_tangent, spread_last)
    if not all(map(math.isfinite, aggregates)):
        raise EvalOverflow("mean or spread of |grad f|, <grad f, V1> or <grad f, Vn> over the grid overflows")

    return Classification(
        eikonal=eikonal,
        helix=helix,
        slant=slant,
        parallel_gradient=parallel,
        spreads={"grad_norm": spread_norm, "ip_tangent": spread_tangent, "ip_last": spread_last},
        theta=math.acos(max(-1.0, min(1.0, mean_tangent / mean_norm))) if mean_norm > 0.0 else None,
        grad_norm=mean_norm,
        ip_tangent=mean_tangent,
        ip_last=mean_last,
        tol_const=tol_const,
    )


def classify(spec: CurveSpec) -> Classification:
    """Sample the spec's curve and classify it against its field at its relative tol_const."""
    return classify_rows(sample_along_curve(spec), spec.tol_const)
