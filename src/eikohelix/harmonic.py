"""Harmonic curvature families of a Frenet curve.

Two scalar families generalize the 3-dimensional ratio of curvature to
torsion. The tangent family starts at H1 = k1/k2 and recurses

    H_i = (V1[H_{i-1}] + k_i * H_{i-2}) / k_{i+1},    H_0 := 0,

characterizing curves whose unit tangent keeps a constant angle with a
fixed axis. The normal family is the same recurrence run on the reversed
curvatures k_{n-1}, ..., k_1 with the sign of the rate flipped,

    H*_0 := 0,  H*_1 = k_{n-1}/k_{n-2},
    H*_i = (k_{n-i} * H*_{i-2} - V1[H*_{i-1}]) / k_{n-(i+1)},

characterizing curves whose last frame vector does. One loop runs each
family one step past its end: the steps that divide by a curvature give
the entries 1..n-2, and the last step, with no curvature left to divide
by, gives the residual of the derivative identity that closes the family,

    V1[H_{n-2}] + k_{n-1} * H_{n-3} = 0     exactly when the curve is a helix,
    k_1 * H*_{n-3} - V1[H*_{n-2}] = 0       exactly when it is a slant helix.

V1[g] is the rate of g along the unit tangent (g' / speed), evaluated on
jets so the derivative identities use exact derivatives rather than grid
differencing. For n = 3 the families are {H1} and {H*_1}, and the
index-(n-3) entry of each closing identity is the zero H_0 (H*_0).

``harmonic_data`` is the layer's one entry point. It evaluates both
families and their closing residuals for every point of the frame's batch
at once (a whole sample grid, or one point as batch shape ``()``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurvature, InsufficientOrder, raise_first, value_at
from .frenet import FrenetData, directional_derivative
from .jets import Jet, jet_constant


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


def _check_curvatures(fr: FrenetData) -> None:
    if fr.dimension < 3:
        raise ValueError("harmonic curvatures need dimension >= 3")
    for i, k in enumerate(fr.curvatures, start=1):
        raise_first(
            ~((k.coeffs[0] > 0.0) & np.isfinite(k.coeffs[0])),
            lambda p: DegenerateCurvature(
                f"curvature k{i} = {value_at(k.coeffs[0], p)!r} not positive and finite", value_at(fr.s, p)
            ),
        )


def _families(fr: FrenetData):
    """(symbol, name, curvatures in recurrence order, step) of each family."""
    k = fr.curvatures
    return (
        ("H", "tangent", k, lambda rate, c, g: rate + c * g),
        ("H*", "normal", k[::-1], lambda rate, c, g: c * g - rate),
    )


# The InsufficientOrder guards below cannot fire from the sampler: at the
# default jet order every k_i carries order n-2 (jets.frame_jet_order), so
# H_{n-2} and H*_{n-2} keep order 1. They stay for frames built by a direct
# call from curve jets of a lower order, which they report instead of
# failing on a missing coefficient.


def _recurrence(fr: FrenetData, family) -> tuple[list[Jet], float | np.ndarray]:
    """([G_1, ..., G_{n-2}], closing residual) for curvatures c_1..c_{n-1} in
    the family's order: G_0 = 0, G_1 = c_1/c_2 and
    G_i = step(V1[G_{i-1}], c_i, G_{i-2}) / c_{i+1}. The step past the end,
    i = n-1, has no c_n to divide by; |step(V1[G_{n-2}], c_{n-1}, G_{n-3})|
    at the value level is the closing residual."""
    symbol, name, c, step = family
    n = fr.dimension
    first = c[0] / c[1]
    G: list[Jet] = [jet_constant(0.0, first.order), first]
    for i in range(2, n):
        if G[-1].order < 1:
            raise InsufficientOrder(
                f"jet order exhausted computing {symbol}{i}"
                if i < n - 1
                else f"last {name}-family entry lost its derivative"
            )
        rate = directional_derivative(G[-1], fr.speed)
        if i == n - 1:
            return G[1:], abs(step(rate.value, c[-1].value, G[-2].value))
        G.append(step(rate, c[i - 1], G[-2]) / c[i])


def harmonic_data(fr: FrenetData) -> HarmonicData:
    """Evaluate both families, their sums of squares and their closing
    residuals at fr's points."""
    _check_curvatures(fr)
    (H, closing_H), (Hstar, closing_Hstar) = (_recurrence(fr, f) for f in _families(fr))
    return HarmonicData(
        s=fr.s,
        H=H,
        Hstar=Hstar,
        sumsq_H=sum(h.value**2 for h in H),
        sumsq_Hstar=sum(h.value**2 for h in Hstar),
        closing_H=closing_H,
        closing_Hstar=closing_Hstar,
    )
