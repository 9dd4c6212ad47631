"""Frenet frame and curvatures of an n-dimensional curve, carried as jets.

The frame V1..Vn comes from modified Gram-Schmidt (with one
reorthogonalization pass) applied to the derivative vectors
alpha', alpha'', ..., alpha^(n), all in jet arithmetic. Its one degeneracy
test, at each step i, is relative to |alpha^(i)| and so free of units:
step 1 gives the speed, and step i + 1 keeps k_i > 0 in
k_i = <V_i', V_{i+1}> / speed, which keeps curvature derivatives exact.
Each step first scales alpha^(i) by a power of two near its size, so the
size of a curve neither overflows nor underflows the squares it takes.

The construction runs on a whole batch of parameter values at once (a
sample grid, or a single point as batch shape ``()``): a vector of jets is
one :class:`Jet` whose first batch axis runs over the n components. Each
check raises for the first batch point at which it fails.

Curves need not be unit speed: every parameter derivative that feeds a
frame-relative rate is divided by the speed jet.

Each quantity is carried only to the jet order its consumers need (see
:func:`eikohelix.jets.frame_jet_order`): the curve at 2n-2, the derivative
vectors and so V_1..V_{n-1} at n-1, and V_n and each k_i at n-2, which
leaves the last harmonic curvatures of both families at order 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurve, EvalOverflow, NotRegular, raise_first, value_at
from .jets import Jet, frame_jet_order, jet_dot, jet_sqrt


@dataclass(eq=False)
class FrenetData:
    """Frame, curvatures, and speed of a curve over a batch of parameter values.

    Every jet has the batch shape of ``s`` (``()`` for one point), except
    that frame[i], the vector jet of V_{i+1}, carries the n components on an
    extra first batch axis: its coefficients have shape (K+1, n, *batch).
    curvatures[i] is the jet of k_{i+1}.
    """

    s: float | np.ndarray
    speed: Jet
    frame: list[Jet]
    curvatures: list[Jet]

    @property
    def dimension(self) -> int:
        return len(self.frame)

    def frame_values(self) -> np.ndarray:
        """(*batch, n, n) array; [..., i, :] is the value of V_{i+1}."""
        return _rows([v.coeffs[0] for v in self.frame])

    def frame_d1(self) -> np.ndarray:
        """(*batch, n, n) array of first parameter derivatives of the frame rows."""
        return _rows([v.coeffs[1] for v in self.frame])

    def curvature_values(self) -> np.ndarray:
        """(*batch, n-1) array of k_1..k_{n-1}."""
        return np.stack([k.coeffs[0] for k in self.curvatures], axis=-1)


def _rows(vectors: list[np.ndarray]) -> np.ndarray:
    """Stack (n, *batch) component arrays into (*batch, rows, n)."""
    return np.moveaxis(np.stack(vectors), (0, 1), (-2, -1))


def directional_derivative(g: Jet, speed: Jet) -> Jet:
    """Rate of change of g along the unit tangent: g'(s) / speed(s).

    Returns a jet one order lower than g.
    """
    return g.derivative() / speed


def frenet_apparatus(curve_jets: list[Jet], tol_frame: float, s=None) -> FrenetData:
    """Build the Frenet frame and curvatures from component jets.

    ``curve_jets`` holds the n component jets of the curve, each with the
    batch shape of ``s`` and order at least n+1. Step i first divides
    alpha^(i) at each point by 2^e, e the binary exponent of its largest
    value component: a power of two is exact, so the frame, speed and
    curvatures keep their bits while the squares stay in float64's range.
    The scaling holds |alpha^(i)|^2 to at most n, so an overflow shows in
    the squared norm Gram-Schmidt leaves of alpha^(i): raises EvalOverflow
    when a coefficient of it is not finite, and DegenerateCurve(i) when that
    norm is at most ``tol_frame`` times |alpha^(i)| (NotRegular at i = 1,
    where it means alpha' = 0), each for the first batch point that fails it.
    """
    n = len(curve_jets)
    if n < 2:
        raise ValueError("curve must have dimension >= 2")
    order = min(j.order for j in curve_jets)
    if order < n + 1:
        raise ValueError(f"need jet order >= {n + 1} for dimension {n}, got {order}")

    budget = frame_jet_order(n)
    frame: list[Jet] = []
    current = Jet(np.stack([j.coeffs[: order + 1] for j in curve_jets], axis=1))
    with np.errstate(all="ignore"):  # an overflow raises EvalOverflow below
        for i in range(1, n + 1):
            # the derivative vector alpha^(i), cut to the budget
            current = current.derivative()
            deriv = current.truncate(min(current.order, budget))
            exponent = np.frexp(np.abs(deriv.coeffs[0]).max(axis=0))[1]
            deriv = vec = Jet(np.ldexp(deriv.coeffs, -exponent))
            # Gram-Schmidt and one reorthogonalization pass ("twice is enough").
            # With one pass max |V V^T - I| reaches 9e-12 at n = 13 (2e-15 at
            # n = 5) instead of 7e-16, and n = 4 residuals grow tenfold.
            for _ in range(2):
                for basis in frame:
                    vec = vec - jet_dot(vec, basis) * basis
            norm_sq = jet_dot(vec, vec)
            raise_first(
                ~np.isfinite(norm_sq.coeffs).all(axis=0),
                lambda p: EvalOverflow(f"derivative {i} of the curve overflows in the frame"),
            )
            raise_first(
                norm_sq.coeffs[0] <= tol_frame**2 * (deriv.coeffs[0] ** 2).sum(axis=0),
                lambda p: DegenerateCurve(i, value_at(s, p)) if i > 1 else NotRegular(
                    f"curve speed {value_at(np.ldexp(np.sqrt(norm_sq.coeffs[0]), exponent), p)!r} below threshold",
                    value_at(s, p),
                ),
            )
            norm = jet_sqrt(norm_sq)
            frame.append(vec / norm)
            if i == 1:
                speed = Jet(np.ldexp(norm.coeffs, exponent))

        # each k_i > 0, as step i + 1 above left V_{i+1} a positive share
        curvatures = [jet_dot(frame[i].derivative(), frame[i + 1]) / speed for i in range(n - 1)]

    return FrenetData(s=s if s is not None else 0.0, speed=speed, frame=frame, curvatures=curvatures)
