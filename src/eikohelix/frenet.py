"""Frenet frame and curvatures of an n-dimensional curve, carried as jets.

The frame V1..Vn is the Q factor of D = [alpha', ..., alpha^(n)] = Q R, propagated in Taylor
mode over a whole batch of parameter values at once (a sample grid, or one point as batch shape
``()``), batch axes last as in :class:`Jet`. Curves need not be unit speed: every parameter
derivative that feeds a frame-relative rate is divided by the speed jet. Each quantity is carried
only to the jet order its consumers need (see :func:`eikohelix.jets.frame_jet_order`): the curve
at 2n-2, V_1..V_{n-1} at n-1, and V_n and each k_i at n-2, which leaves the last harmonic
curvatures of both families at order 1. The QR starts from classical Gram-Schmidt run twice
(CGS2) on the values, one block projection per pass. Its per-point n x n products run as einsum
below n = 9 and as batched BLAS matmul from there on: the rule keys on n alone, not on the batch,
so that a point and a grid take the same kernel. Every sum over vector components runs as an
outer loop, never as numpy's pairwise or SIMD reduction along one point's axis, so a point and
the same point inside a grid give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurve, EvalOverflow, NotRegular, raise_first, value_at
from .jets import Jet, frame_jet_order


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
        return np.moveaxis(np.stack([v.coeffs[0] for v in self.frame]), (0, 1), (-2, -1))

    def curvature_values(self) -> np.ndarray:
        """(*batch, n-1) array of k_1..k_{n-1}."""
        return np.stack([k.coeffs[0] for k in self.curvatures], axis=-1)


def directional_derivative(g: Jet, speed: Jet) -> Jet:
    """Rate of change of g along the unit tangent, g'(s) / speed(s): a jet one order lower than g."""
    return g.derivative() / speed


_BATCHED_FROM = 9  # the dimension from which the recurrence runs as batched matmul; see frenet_apparatus


def _batch_first(a: np.ndarray) -> np.ndarray:  # a view of the stack [k, a, c, *batch] as (k, *batch, a, c)
    return np.moveaxis(a, (1, 2), (-2, -1))


def _finite(a: np.ndarray, carried: int, overflow: np.ndarray) -> None:
    """Set the non-finite entries of ``a`` to 0, each marking ``overflow`` for its column if one of
    the first ``carried``, so that no triangular product carries an overflow into an earlier column."""
    finite = np.isfinite(a)
    if not finite.all():
        overflow[:carried] |= ~finite.all(axis=tuple(range(a.ndim - overflow.ndim)))[:carried]
        a[~finite] = 0.0


def _gram_schmidt(D0: np.ndarray, tol_frame: float):
    """(Q_0, R_0^-1, norm_sq, degenerate) for D_0 = Q_0 R_0 by classical Gram-Schmidt run twice
    (CGS2), one block projection per column and pass. R_0^-1 takes the same column operations from
    I. norm_sq[i] is the squared norm of what is left of column i, and the column is degenerate
    when that norm is at most ``tol_frame`` times the column's own; it then gets pivot 1, so the
    earlier columns' checks stay finite. C holds Q_0 over R_0^-1 and W their rows again, so that
    every sum over components runs as an outer loop: one point sums as a grid does."""
    n = len(D0)
    C, W, norm_sq = np.empty((2 * n, *D0.shape[1:])), np.empty((n, 2 * n, *D0.shape[2:])), np.empty(D0.shape[1:])
    C[:n], C[n:] = D0, np.eye(n).reshape(n, n, *[1] * (D0.ndim - 2))
    threshold = tol_frame**2 * np.einsum("ri...,ri...->i...", D0, D0)
    for i in range(n):
        for _ in range(2 if i else 0):
            C[:, i] -= np.einsum("jr...,j...->r...", W[:i], np.einsum("rj...,r...->j...", C[:n, :i], C[:n, i]))
        norm_sq[i] = np.einsum("r...,r...->...", C[:n, i], C[:n, i])
        C[:, i] /= np.where(norm_sq[i] > threshold[i], np.sqrt(norm_sq[i]), 1.0)
        W[i] = C[:, i]
    return C[:n], C[n:], norm_sq, ~(norm_sq > threshold)


def frenet_apparatus(curve_jets: list[Jet], tol_frame: float, s=None) -> FrenetData:
    """Build the Frenet frame and curvatures from component jets.

    ``curve_jets`` holds the n component jets of the curve, each with the batch shape of ``s``
    and order at least n+1. Column i of D, alpha^(i), is first divided at each point by 2^e, e the
    binary exponent of its largest value component: a power of two is exact, so the results keep
    their bits while the squares stay in float64's range. With D_0 = Q_0 R_0 from CGS2,
    X = Q_0^T Q and U = R R_0^-1 (X_0 = U_0 = I, U upper triangular), F = Q_0^T D R_0^-1 = X U
    and X^T X = I give at order k

        P = F_k - sum_{m=1}^{k-1} X_m U_{k-m} = X_k + U_k,
        S = -sum_{m=1}^{k-1} X_m^T X_{k-m} = X_k + X_k^T,

    so X_k is P's strict lower part, S/2 on the diagonal and S - P^T above it, and U_k = P - X_k;
    coefficient k of column i depends only on alpha'..alpha^(i) up to order k. Columns are checked
    in order: each raises EvalOverflow when a coefficient it carries is not finite, then
    DegenerateCurve(i) (NotRegular at i = 1, alpha' = 0) when the norm Gram-Schmidt leaves of
    alpha^(i) is at most ``tol_frame`` times |alpha^(i)|, for the first batch point that fails it.
    From n = 9 on, the n x n products run as np.matmul over batch-first stacks; below n = 9 the
    stacks' extra copies cost more than BLAS gains over einsum's loops across the batch.
    """
    n = len(curve_jets)
    if n < 2:
        raise ValueError("curve must have dimension >= 2")
    order = min(j.order for j in curve_jets)
    if order < n + 1:
        raise ValueError(f"need jet order >= {n + 1} for dimension {n}, got {order}")

    # column i carries alpha^(i+1) to the order its jet has, cut to the budget
    orders = [min(order - i, frame_jet_order(n)) for i in range(1, n + 1)]
    current = Jet(np.stack([j.coeffs[: order + 1] for j in curve_jets], axis=1))
    D = np.zeros((orders[0] + 1, n, *current.shape))  # [k, component, column, *batch]
    with np.errstate(all="ignore"):  # an overflow raises EvalOverflow below
        for i, top in enumerate(orders):
            current = current.derivative()
            D[: top + 1, :, i] = current.coeffs[: top + 1]
        exponent = np.frexp(np.abs(D[0]).max(axis=0))[1]
        np.ldexp(D, -exponent, out=D)
        Q0, Rinv, norm_sq, degenerate = _gram_schmidt(D[0], tol_frame)
        overflow = ~np.isfinite(norm_sq)
        _finite(Q0, 0, overflow)  # a non-finite R_0^-1 column reaches only itself and later ones
        eye = np.eye(n).reshape(n, n, *[1] * (D.ndim - 3))
        # F_k overwrites D_k, and Q all of D, which keeps the peak memory at n = 13 near the jets' own
        batched = n >= _BATCHED_FROM
        if batched:  # X and U are stored batch-first, so that every order's sums read contiguous stacks
            Xw, Uw = np.empty((2, len(D), *D.shape[3:], n, n))
            X, U = (np.moveaxis(a, (-2, -1), (1, 2)) for a in (Xw, Uw))
            np.matmul(_batch_first(Q0[None]).swapaxes(-2, -1), _batch_first(D[1:]), out=Xw[1:])
            _finite(X[1:], n, overflow)
            F = np.matmul(Xw[1:], _batch_first(Rinv[None]), out=_batch_first(D[1:]))
            rows, lower = (-2, -1), np.tri(n, k=-1, dtype=bool)  # the axes a, c of one order's n x n slab
        else:
            X, U = Xw, Uw = np.empty_like(D), np.empty_like(D)
            _finite(np.einsum("ra...,krc...->kac...", Q0, D[1:], out=X[1:]), n, overflow)
            F = np.einsum("kab...,bc...->kac...", X[1:], Rinv, out=D[1:])
            rows, lower = (0, 1), np.tri(n, k=-1, dtype=bool).reshape(eye.shape)
        X[0] = U[0] = eye
        upper = lower.swapaxes(*rows)
        for k in range(1, len(D)):
            carried = sum(top >= k for top in orders)
            if batched:  # the same sums: over the inner index by BLAS at each point, then over m
                P = F[k - 1] - np.matmul(Xw[1:k], Uw[k - 1 : 0 : -1]).sum(axis=0)
                T = np.matmul(Xw[1 : k // 2 + 1].swapaxes(-2, -1), Xw[k - 1 : (k - 1) // 2 : -1]).sum(axis=0)
                if k % 2 == 0:  # S = -(T + T^T) with T over the terms m < k - m and half of m = k - m
                    T -= 0.5 * np.matmul(Xw[k // 2].swapaxes(-2, -1), Xw[k // 2])
            else:
                P = F[k - 1] - np.einsum("mab...,mbc...->ac...", X[1:k], U[k - 1 : 0 : -1])
                T = np.einsum("mra...,mrc...->ac...", X[1 : k // 2 + 1], X[k - 1 : (k - 1) // 2 : -1])
                if k % 2 == 0:
                    T -= 0.5 * np.einsum("ra...,rc...->ac...", X[k // 2], X[k // 2])
            S = np.add(T, T.swapaxes(*rows))
            np.negative(S, out=S)
            S -= P.swapaxes(*rows)  # X_k above the diagonal: S - X_k^T there, X_k^T being P's strict lower part
            Xk, Uk = Xw[k], Uw[k]
            np.negative(T, out=Xk)  # on the diagonal, S/2 = -T
            np.copyto(Xk, P, where=lower)
            np.copyto(Xk, S, where=upper)
            np.subtract(P, Xk, out=Uk)
            np.copyto(Uk, 0.0, where=lower)
            for a in X[k], U[k]:
                _finite(a, carried, overflow)
        for i in range(n):
            raise_first(overflow[i], lambda p: EvalOverflow(f"derivative {i + 1} of the curve overflows in the frame"))
            raise_first(degenerate[i], lambda p: DegenerateCurve(i + 1, value_at(s, p)) if i else NotRegular(
                f"curve speed {value_at(np.ldexp(np.sqrt(norm_sq[0]), exponent[0]), p)!r} below threshold", value_at(s, p)
            ))
        speed = Jet(np.ldexp(U[:, 0, 0] * np.sqrt(norm_sq[0]), exponent[0]))
        if batched:
            Q = np.moveaxis(np.matmul(_batch_first(Q0[None]), Xw, out=_batch_first(D)), (-2, -1), (1, 2))
        else:
            Q = np.einsum("ra...,kab...->krb...", Q0, X, out=D)
        frame = [Jet(Q[: top + 1, :, i]) for i, top in enumerate(orders)]
        # k_i * speed = <V_i', V_{i+1}> = <X'[:, i], X[:, i+1]> as Q_0 is orthogonal; read from
        # Q = Q_0 X instead, the lift's k, H and H* come out up to 3 times less accurate
        X = np.ascontiguousarray(X)  # batch-last again, where this einsum runs about twice as fast
        dX = Jet(X).derivative().coeffs
        kappa = (Jet([np.einsum("jra...,jra...->a...", dX[: m + 1, :, :-1], X[m::-1, :, 1:]) for m in range(len(dX))]) / speed).coeffs
        curvatures = [Jet(kappa[: min(orders[i] - 1, orders[i + 1]) + 1, i]) for i in range(n - 1)]
    return FrenetData(s=s if s is not None else 0.0, speed=speed, frame=frame, curvatures=curvatures)
