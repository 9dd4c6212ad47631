"""Frenet frame and curvatures of an n-dimensional curve, carried as jets.

The frame V1..Vn is the Q factor of D = [alpha', ..., alpha^(n)] = Q R, propagated in Taylor
mode over a whole batch of parameter values at once (a sample grid, or one point as batch shape
``()``), batch axes last as in :class:`Jet`. Curves need not be unit speed. R's jets come from a
Cholesky recurrence on the Gram matrix of D, and k_i = R_{i+1,i+1} / (R_ii speed) from its
diagonal, so V_1..V_n are formed to order 1 only. Every column of D, R and every k_i are carried
to one order, the n-2 the harmonic families read (:func:`eikohelix.jets.frame_jet_order`). The
n x n products run as einsum below n = 7 and as batched BLAS matmul from there on, by n alone, so
a point and a grid take the same kernel. Every sum over vector components runs as an outer loop,
never as numpy's pairwise or SIMD reduction along one point's axis, so a point and the same point
inside a grid give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurve, EvalOverflow, InsufficientOrder, NotRegular, raise_first_check, value_at
from .jets import Jet, _weights, frame_jet_order, jet_div


@dataclass(eq=False)
class FrenetData:
    """Frame, curvatures, and speed of a curve over a batch of parameter values.

    Every jet has the batch shape of ``s`` (``()`` for one point), except
    that frame[i], the vector jet of V_{i+1} to order 1, carries the n
    components on an extra first batch axis: its coefficients have shape
    (2, n, *batch). curvatures[i] is the jet of k_{i+1}.
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


_BATCHED_FROM = 7  # the dimension from which the recurrence runs as batched matmul; see frenet_apparatus


def _finite(a: np.ndarray, overflow: np.ndarray) -> None:
    """Set the non-finite entries of ``a`` to 0, each marking ``overflow`` for its column, so that
    no triangular product carries an overflow into an earlier column."""
    finite = np.isfinite(a)
    if not finite.all():
        overflow |= ~finite.all(axis=tuple(range(a.ndim - overflow.ndim)))
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
    and order at least n + K, K = frame_jet_order(n), so that alpha^(n) reaches order K; below
    that, one InsufficientOrder names the order. Every column of D is cut to K. Column i of D,
    alpha^(i), the i-th derivative by ``Jet.derivative``'s products, is first divided at each point
    by 2^e, e the binary exponent of its largest value component: a power of two is exact, so the
    results keep their bits while the squares stay in float64's range. With D_0 = Q_0 R_0 from CGS2,
    X = Q_0^T Q and U = R R_0^-1 (X_0 = U_0 = I, U upper triangular), F = Q_0^T D R_0^-1 = X U
    and X^T X = I give F^T F = U^T U, so at order k, with F_0 = I and h = k/2,

        M = F_k + sum_{m < k-m} (F_m^T F_{k-m} - U_m^T U_{k-m}) + [k even] (F_h^T F_h - U_h^T U_h) / 2

    and U_k + U_k^T = M + M^T: U_k is the strict upper part of M + M^T with M's diagonal. The
    frame is Q_0 and Q_0 X_1, X_1 = F_1 - U_1. R = U R_0 gives R_ii = U_ii sqrt(norm_sq_i) 2^e_i,
    the speed R_11 and the higher coefficients of k_i, all to order K; the values of k_i are
    X_1[i+1, i] / speed_0, that is <V_i', V_{i+1}> / speed, up to 5 times more accurate at
    n = 13 than the diagonal's.
    Columns are checked in order: each raises EvalOverflow when a coefficient it carries is not
    finite, then DegenerateCurve(i) (NotRegular at i = 1, alpha' = 0) when the norm Gram-Schmidt
    leaves of alpha^(i) is at most ``tol_frame`` times |alpha^(i)|, for the first batch point that
    fails it. Below n = 7, batch-first stacks for np.matmul cost more than BLAS gains over einsum.
    """
    n = len(curve_jets)
    if n < 2:
        raise ValueError("curve must have dimension >= 2")
    K, order = frame_jet_order(n), min(j.order for j in curve_jets)
    if order < n + K:
        raise InsufficientOrder(f"curve jets of order {order}; the frame of dimension {n} needs {n + K}")

    # every column, alpha' .. alpha^(n), is carried to the budget K
    current = np.stack([j.coeffs[: n + K + 1] for j in curve_jets], axis=1)
    batch, weights = current.shape[2:], _weights(current)
    # G stacks U, F and -U as [slab, k, a, c, *batch], so that G[0:2] against G[2:0:-1] pairs U with -U and
    # F with F. S is its storage, where rows are the axes a, c: batched, each order's n x n slab is contiguous
    batched = n >= _BATCHED_FROM
    S = np.zeros((3, K + 1, *batch, n, n) if batched else (3, K + 1, n, n, *batch))
    G, rows = (np.moveaxis(S, (-2, -1), (2, 3)), (-2, -1)) if batched else (S, (0, 1))
    D = S[1].reshape(K + 1, n, n, *batch)  # [k, component, column, *batch] in F's slab: F_k overwrites D_k
    upper, diagonal = (m if batched else m.reshape(n, n, *[1] * len(batch)) for m in (np.tri(n, k=-1, dtype=bool).T, np.eye(n, dtype=bool)))
    with np.errstate(all="ignore"):  # an overflow raises EvalOverflow below
        for i in range(n):  # each a derivative, Jet.derivative's products
            current = current[1:] * weights[: len(current) - 1]
            D[:, :, i] = current[: K + 1]
        exponent = np.frexp(np.abs(D[0]).max(axis=0))[1]
        np.ldexp(D, -exponent, out=D)
        Q0, Rinv, norm_sq, degenerate = _gram_schmidt(D[0], tol_frame)
        overflow = ~np.isfinite(norm_sq)
        _finite(Q0, overflow)  # a non-finite Q_0 column has a non-finite norm_sq, marked already
        # Q_0^T D_k goes through -U's slab, F_k = Q_0^T D_k R_0^-1 into F's; U's lower part stays 0
        if batched:  # batch-first views of Q_0^T, D_k and R_0^-1
            np.matmul(np.moveaxis(Q0, (0, 1), (-1, -2)), np.moveaxis(D[1:], (1, 2), (-2, -1)), out=S[2, 1:])
            _finite(G[2, 1:], overflow)
            np.matmul(S[2, 1:], np.moveaxis(Rinv, (0, 1), (-2, -1)), out=S[1, 1:])
        else:
            _finite(np.einsum("ra...,krc...->kac...", Q0, D[1:], out=G[2, 1:]), overflow)
            np.einsum("kab...,bc...->kac...", G[2, 1:], Rinv, out=G[1, 1:])
        S[0, 0] = diagonal  # U_0 = I
        for k in range(1, K + 1):
            # M = F_k + the terms F_m^T F_{k-m} - U_m^T U_{k-m} for m < k - m, and half the term m = k - m
            if k == 1:
                M = S[1, 1]
            elif batched:  # each term by BLAS at each point, then the sum over m
                T = np.matmul(S[0:2, 1 : k // 2 + 1].swapaxes(-2, -1), S[2:0:-1, k - 1 : (k - 1) // 2 : -1])
                if k % 2 == 0:
                    T[:, -1] *= 0.5
                M = S[1, k] + T.sum(axis=(0, 1))
            else:
                M = G[1, k] + np.einsum("smra...,smrc...->ac...", G[0:2, 1 : (k + 1) // 2], G[2:0:-1, k - 1 : k // 2 : -1])
                if k % 2 == 0:
                    M += 0.5 * np.einsum("sra...,src...->ac...", G[0:2, k // 2], G[2:0:-1, k // 2])
            np.add(M, M.swapaxes(*rows), out=S[0, k], where=upper)  # U_k + U_k^T = M + M^T, U_k upper triangular
            np.copyto(S[0, k], M, where=diagonal)
            _finite(G[0:2, k], overflow)
            np.negative(S[0, k], out=S[2, k])

        def error(j: int, p: int):  # check 2i: column i overflows; check 2i + 1: it is degenerate
            if j % 2 == 0:
                return EvalOverflow(f"derivative {j // 2 + 1} of the curve overflows in the frame")
            if j > 1:
                return DegenerateCurve(j // 2 + 1, value_at(s, p))
            return NotRegular(f"curve speed {value_at(np.ldexp(np.sqrt(norm_sq[0]), exponent[0]), p)!r} below threshold", value_at(s, p))
        raise_first_check(np.stack([overflow, degenerate], axis=1).reshape(2 * n, *batch), error)
        speed = Jet(np.ldexp(G[0, :, 0, 0] * np.sqrt(norm_sq[0]), exponent[0]))
        # R_{i+1,i+1} = R_ii k_i speed with R_ii = U_ii |r_i| 2^e_i
        U = np.einsum("kii...->ki...", G[0])
        kappa = jet_div(Jet(U[:, 1:]), Jet(U[:, :-1]) * speed).coeffs
        kappa *= np.ldexp(np.sqrt(norm_sq[1:] / norm_sq[:-1]), exponent[1:] - exponent[:-1])
        # the values as <V_i', V_{i+1}> / speed gives them, X_1[i+1, i] = F_1[i+1, i]: more accurate
        kappa[0] = np.einsum("ii...->i...", G[1, 1, 1:, :-1]) / speed.coeffs[0]
        curvatures = [Jet(kappa[:, i]) for i in range(n - 1)]
        # the frame to order 1, Q_0 and Q_0 X_1 with X_1 = F_1 - U_1, in an array of its own so that G goes
        Q = np.empty((2, n, n, *batch))
        Q[0] = Q0
        np.einsum("ra...,ab...->rb...", Q0, np.add(G[1, 1], G[2, 1], out=G[2, 1]), out=Q[1])
    return FrenetData(s=s if s is not None else 0.0, speed=speed, frame=[Jet(Q[:, :, i]) for i in range(n)], curvatures=curvatures)
