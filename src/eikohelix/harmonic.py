"""Harmonic curvature families of a Frenet curve.

Two scalar families generalize the 3-dimensional ratio of curvature to
torsion. The tangent family starts at H1 = k1/k2 and recurses

    H_i = (V1[H_{i-1}] + k_i * H_{i-2}) / k_{i+1},    H_0 := 0,

characterizing curves whose unit tangent keeps a constant angle with a
fixed axis. The normal family is the same recurrence run on the reversed
curvatures k_{n-1}, ..., k_1 with the sign of the rate flipped,

    H*_0 = 0,  H*_1 = k_{n-1}/k_{n-2},
    H*_i = (k_{n-i} * H*_{i-2} - V1[H*_{i-1}]) / k_{n-(i+1)},

characterizing curves whose last frame vector does. Taken one step past
its end, where no curvature is left to divide by, each recurrence gives the
derivative identity that closes its family (``lemma_residuals``). V1[g] is
the rate of g along the unit tangent (g' / speed), evaluated on jets so the
derivative identities use exact derivatives rather than grid differencing.

For n = 3 the tangent family is {H1} and the normal family is {H*_1}; the
index-(n-3) entries appearing in the derivative identities resolve to the
zero conventions above.

Both families are evaluated for every point of the frame's batch at once
(a whole sample grid, or one point as batch shape ``()``).
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

    H holds the jets of H1..H_{n-2}; Hstar holds H*_0 (identically zero)
    followed by H*_1..H*_{n-2}. sumsq_* are the value-level sums of squares
    over each family (H*_0 excluded): floats for one point, arrays over a
    batch.
    """

    s: float | np.ndarray
    H: list[Jet]
    Hstar: list[Jet]
    sumsq_H: float | np.ndarray
    sumsq_Hstar: float | np.ndarray

    def H_values(self) -> np.ndarray:
        """(*batch, n-2) array of H1..H_{n-2}."""
        return np.stack([h.coeffs[0] for h in self.H], axis=-1)

    def Hstar_values(self) -> np.ndarray:
        """(*batch, n-2) array of H*_1..H*_{n-2} (the zero entry H*_0 is dropped)."""
        return np.stack([h.coeffs[0] for h in self.Hstar[1:]], axis=-1)


def _check_curvatures(fr: FrenetData) -> None:
    if fr.dimension < 3:
        raise ValueError("harmonic curvatures need dimension >= 3")
    for i, k in enumerate(fr.curvatures, start=1):
        raise_first(
            ~(k.coeffs[0] > 0.0),
            lambda p: DegenerateCurvature(
                f"curvature k{i} = {value_at(k.coeffs[0], p)!r} not positive", value_at(fr.s, p)
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


def _recurrence(fr: FrenetData, family) -> list[Jet]:
    """[G_0 = 0, G_1 = c_1/c_2, ..., G_{n-2}] for curvatures c_1..c_{n-1}
    in the family's order, G_i = step(V1[G_{i-1}], c_i, G_{i-2}) / c_{i+1}."""
    symbol, name, c, step = family
    first = c[0] / c[1]
    G: list[Jet] = [jet_constant(0.0, first.order), first]
    for i in range(2, fr.dimension - 1):
        if G[-1].order < 1:
            raise InsufficientOrder(f"jet order exhausted computing {symbol}{i}")
        rate = directional_derivative(G[-1], fr.speed)
        G.append(step(rate, c[i - 1], G[-2]) / c[i])
    if G[-1].order < 1:
        raise InsufficientOrder(f"last {name}-family entry lost its derivative")
    return G


def harmonic_tangent(fr: FrenetData) -> list[Jet]:
    """Tangent-family harmonic curvatures H1..H_{n-2} as jets."""
    _check_curvatures(fr)
    return _recurrence(fr, _families(fr)[0])[1:]


def harmonic_normal(fr: FrenetData) -> list[Jet]:
    """Normal-family harmonic curvatures H*_0..H*_{n-2} as jets."""
    _check_curvatures(fr)
    return _recurrence(fr, _families(fr)[1])


def harmonic_data(fr: FrenetData) -> HarmonicData:
    """Evaluate both families and their sums of squares at fr's sample."""
    _check_curvatures(fr)
    tangent, normal = (_recurrence(fr, family) for family in _families(fr))
    return HarmonicData(
        s=fr.s,
        H=tangent[1:],
        Hstar=normal,
        sumsq_H=sum(h.value**2 for h in tangent[1:]),
        sumsq_Hstar=sum(h.value**2 for h in normal[1:]),
    )


def lemma_residuals(h: HarmonicData, fr: FrenetData) -> tuple[float, float]:
    """Residuals of the derivative identities closing each family.

    Each is the family's recurrence taken one step past its end, where no
    curvature is left to divide by: the tangent family satisfies
    V1[H_{n-2}] = -k_{n-1} * H_{n-3} exactly when the curve is a helix, the
    normal family V1[H*_{n-2}] = k1 * H*_{n-3} exactly when it is a slant
    helix. Returns the absolute residuals (r_tangent, r_normal) at the
    value level, as floats for one point or arrays over the batch.
    """
    tangent = (h.Hstar[0], *h.H)  # H_0 = H*_0 = 0
    families = zip((tangent, h.Hstar), _families(fr))
    return tuple(
        abs(step(directional_derivative(G[-1], fr.speed).value, c[-1].value, G[-2].value))
        for G, (_, _, c, step) in families
    )
