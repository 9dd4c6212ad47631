"""Harmonic curvature families of a Frenet curve.

Two scalar families generalize the 3-dimensional ratio of curvature to
torsion. The tangent family starts at H1 = k1/k2 and recurses

    H_i = (V1[H_{i-1}] + k_i * H_{i-2}) / k_{i+1},    H_0 := 0,

characterizing curves whose unit tangent keeps a constant angle with a
fixed axis. The normal family is the same recurrence run on the reversed
curvatures k_{n-1}, ..., k_1 with the sign of the rate flipped,

    H*_0 := 0,  H*_1 = k_{n-1}/k_{n-2},
    H*_i = (k_{n-i} * H*_{i-2} - V1[H*_{i-1}]) / k_{n-(i+1)},

characterizing curves whose last frame vector does. One recurrence runs
both families at once, k_i paired with k_{n-i} on a family axis of size
2, as G_i = (c_i * G_{i-2} + sign * V1[G_{i-1}]) / c_{i+1} with sign +1
for the tangent and -1 for the normal family; a sum is commutative and a
product by -1 exact, so each family gets its own step's bits. The first
entry G_1 = c_1 / c_2 and the reciprocals of the later divisors, c_3 ..
c_{n-1} and the speed of V1[.] = (.)' / speed, come from one division
recurrence over a stacked axis, so that each step runs Cauchy products
only, on coefficient arrays, with the bits of ``Jet`` products. It runs one
step past the end: the steps that divide by a curvature give the entries
1..n-2, and the last, with no curvature left to divide by, gives the
residual of the derivative identity that closes the family,

    V1[H_{n-2}] + k_{n-1} * H_{n-3} = 0     exactly when the curve is a helix,
    k_1 * H*_{n-3} - V1[H*_{n-2}] = 0       exactly when it is a slant helix.

V1[g] is the rate of g along the unit tangent (g' / speed), evaluated on
jets so the derivative identities use exact derivatives rather than grid
differencing. For n = 3 the families are {H1} and {H*_1}, and the
index-(n-3) entry of each closing identity is the zero H_0 (H*_0).

``harmonic_data`` is the layer's one entry point. It evaluates both
families and their closing residuals for every point of the frame's batch
at once (a whole sample grid, or one point as batch shape ``()``). Both
run at the order o that every k_i carries; each step takes one rate, so
o must be at least n-2. The frame carries every k_i to exactly that order
(jets.frame_jet_order) and raises itself on shorter curve jets; a
FrenetData built by hand can still carry less, and below n-2 one
InsufficientOrder names o.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurvature, EvalOverflow, InsufficientOrder, raise_first_check, value_at
from .frenet import FrenetData
from .jets import Jet, _cauchy, _div, _pad_batch, _scalar, _weights


@dataclass(eq=False)
class HarmonicData:
    """Both harmonic-curvature families over the frame's batch of points.

    H and Hstar hold the jets of H_1..H_{n-2} and H*_1..H*_{n-2}; the zero
    entries H_0 and H*_0 are not stored. sumsq_* are the value-level sums of
    squares over each family, and closing_H and closing_Hstar the absolute
    residuals of the identities that close the tangent and normal family:
    floats for one point, arrays over a batch.
    """

    s: float | np.ndarray
    H: list[Jet]
    Hstar: list[Jet]
    sumsq_H: float | np.ndarray
    sumsq_Hstar: float | np.ndarray
    closing_H: float | np.ndarray
    closing_Hstar: float | np.ndarray

    def H_values(self) -> np.ndarray:
        """(*batch, n-2) array of H_1..H_{n-2}."""
        return np.stack([h.coeffs[0] for h in self.H], axis=-1)

    def Hstar_values(self) -> np.ndarray:
        """(*batch, n-2) array of H*_1..H*_{n-2}."""
        return np.stack([h.coeffs[0] for h in self.Hstar], axis=-1)


def _check_curvatures(fr: FrenetData) -> np.ndarray:
    """k_1 .. k_{n-1} cut to the order o that every k_i carries, as one
    (o+1, n-1, *batch) array. Raises if some k_i is not positive and finite
    at some point, or if o < n-2: each step of the recurrence takes one
    rate, so H_{n-2} and H*_{n-2} keep order 1 exactly from o = n-2 on."""
    n = fr.dimension
    if n < 3:
        raise ValueError("harmonic curvatures need dimension >= 3")
    order = min(k.order for k in fr.curvatures)
    k = np.stack([ki.coeffs[: order + 1] for ki in fr.curvatures], axis=1)
    raise_first_check(
        ~((k[0] > 0.0) & np.isfinite(k[0])),
        lambda i, p: DegenerateCurvature(
            f"curvature k{i + 1} = {value_at(k[0, i], p)!r} not positive and finite", value_at(fr.s, p)
        ),
    )
    if order < n - 2:
        raise InsufficientOrder(f"curvature jets of order {order}; the harmonic families need {n - 2}")
    return k


@np.errstate(all="ignore")  # a value past float64's range raises EvalOverflow below
def harmonic_data(fr: FrenetData) -> HarmonicData:
    """Evaluate both families, their sums of squares and their closing
    residuals at fr's points.

    Each k_i is cut to the order o they all carry and stacked with k_{n-i}
    on a family axis of size 2, the first batch axis. One ``_div`` over
    an axis that stacks its columns gives G_1 = c_1 / c_2 and the
    reciprocals 1/c_3 .. 1/c_{n-1} and 1/speed, so each step is three
    ``_cauchy`` products on coefficient arrays, cut to the orders a ``Jet``
    product aligns them to: the rate V1[G] = G' * (1/speed), then
    c_i * G_{i-2} and the step's sum times 1/c_{i+1}. The step past the end
    reads V1[G_{n-2}] at its value only, which is G'_0 / speed_0. The
    stacked products and the division sum over coefficients in the same
    order at one point as on a grid, so a point of a grid gets the grid's
    bits. Finite curvatures can still give a value past float64's range:
    the first of H_1, H*_1, H_2, ..., the two sums of squares and the two
    closing residuals that is not finite raises EvalOverflow."""
    k = _check_curvatures(fr)  # (o+1, n-1, *batch)
    o, n = len(k) - 1, fr.dimension
    d = np.empty((o + 1, 2 * n - 1, *k.shape[2:]))  # c_1 .. c_{n-1}, c_i = (k_i, k_{n-i}), then the speed
    d[:, 0:-1:2], d[:, 1:-1:2] = k, k[:, ::-1]
    d[:, -1] = _pad_batch(fr.speed.coeffs[: o + 1], k.ndim - 2)  # a constant speed broadcasts
    num = np.zeros_like(d[:, 2:])  # c_1 over c_2, then the series 1 over c_3 .. c_{n-1} and the speed
    num[0] = 1.0
    num[:, :2] = d[:, :2]
    quotients = _div(num, d[:, 2:])
    sign = np.array([1.0, -1.0]).reshape(-1, *[1] * (k.ndim - 2))  # tangent, normal
    weights = _weights(quotients)
    G = [np.zeros_like(quotients[:, :2]), quotients[:, :2]]  # G_0 = 0, G_1
    for i in range(2, n - 1):
        m = len(G[-1]) - 1  # the order of G'
        rate = sign * _cauchy(G[-1][1:] * weights[:m], quotients[:m, -1:])  # 1/speed on the family axis
        step = np.add(_cauchy(d[: len(G[-2]), 2 * i - 2 : 2 * i], G[-2])[:m], rate, out=rate)  # c_i G_{i-2} + ...
        G.append(_cauchy(step, quotients[:m, 2 * i - 2 : 2 * i]))  # ... times 1 / c_{i+1}
    # the step past the end, with no c_n to divide by, reads V1[G_{n-2}] at its value only
    rate = G[-1][1] / fr.speed.coeffs[0]
    closing = abs(d[0, -3:-1] * G[-2][0] + sign * rate)
    sumsq = sum(g[0] ** 2 for g in G[1:])
    # checked in order, each a tangent and normal pair: H_1 .. H_{n-2}, the sums of squares, the closing residuals
    checked = np.concatenate([*(g[0] for g in G[1:]), sumsq, closing])
    names = [*(f"H{{}}{i}" for i in range(1, n - 1)), "sum of H{}_i^2", "closing residual of H{}"]  # {}: the normal family's *
    raise_first_check(
        ~np.isfinite(checked),
        lambda j, p: EvalOverflow(f"{names[j // 2].format('*' * (j % 2))} overflows to {value_at(checked[j], p)!r}"),
    )
    return HarmonicData(
        s=fr.s,
        H=[Jet(g[:, 0]) for g in G[1:]],
        Hstar=[Jet(g[:, 1]) for g in G[1:]],
        sumsq_H=_scalar(sumsq[0]),
        sumsq_Hstar=_scalar(sumsq[1]),
        closing_H=_scalar(closing[0]),
        closing_Hstar=_scalar(closing[1]),
    )
