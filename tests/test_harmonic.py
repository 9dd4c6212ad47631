"""Harmonic curvature recurrence tests, including the finite-difference
recurrence oracle and the derivative-identity equivalence."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from eikohelix import catalog
from eikohelix.classify import sample_along_curve
from eikohelix.dsl import parse_curve_spec
from eikohelix.errors import DegenerateCurvature, EvalOverflow, InsufficientOrder
from eikohelix.frenet import FrenetData, frenet_apparatus
from eikohelix.harmonic import HarmonicData, harmonic_data
from eikohelix.jets import Jet, default_jet_order, eval_curve_jet

from helpers import (
    eval_float,
    fd_frenet,
    lift_helix_r4,
    nonhelix_r3,
    reference_harmonic_normal,
    reference_harmonic_tangent,
    reference_jet_steps,
    reference_lemma_residuals,
    wcurve_helix_r3,
    wcurve_lift,
)

HELIX345 = """\
dimension = 3
curve = ["3*cos(s/5)", "3*sin(s/5)", "4*s/5"]
field = "x3"
s_range = [0, 31.4159]
samples = 48
"""

PAPER_CURVE = """\
dimension = 3
curve = ["cos(s/sqrt(2))", "s/sqrt(2)", "sin(s/sqrt(2))"]
field = "x1^2 + x2 + x3^2"
s_range = [0, 12.566]
samples = 48
"""

TORUS_R4 = """\
dimension = 4
curve = ["cos(s)", "sin(s)", "0.5*cos(2*s)", "0.5*sin(2*s)"]
field = "x4"
s_range = [0, 6.2832]
samples = 48
"""


def frenet_at(doc: str, s: float):
    spec = parse_curve_spec(doc)
    return spec, frenet_apparatus(eval_curve_jet(spec, s), spec.tol_frame, s=s)


class TestTangentFamily:
    def test_helix345_ratio(self):
        for s in (0.0, 11.0, 26.5):
            _, fr = frenet_at(HELIX345, s)
            (H1,) = harmonic_data(fr).H
            assert H1.value == pytest.approx(0.75, abs=1e-12)
            assert H1.coeffs[1] == pytest.approx(0.0, abs=1e-12)

    def test_paper_curve_ratio(self):
        for s in (0.0, 4.2, 12.566):
            _, fr = frenet_at(PAPER_CURVE, s)
            (H1,) = harmonic_data(fr).H
            assert H1.value == pytest.approx(1.0, abs=1e-12)

    def test_constant_curvature_r4_second_entry_vanishes(self):
        # constant curvatures make H1 constant, so H2 = (0 + k2*0)/k3 = 0
        for s in (0.7, 3.0, 5.5):
            _, fr = frenet_at(TORUS_R4, s)
            H = harmonic_data(fr).H
            assert len(H) == 2
            assert H[0].coeffs[1] == pytest.approx(0.0, abs=1e-12)
            assert H[1].value == pytest.approx(0.0, abs=1e-12)


class TestNormalFamily:
    def test_helix345_reversed_ratio(self):
        _, fr = frenet_at(HELIX345, 3.3)
        Hstar = harmonic_data(fr).Hstar
        assert Hstar[0].value == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_paper_curve(self):
        _, fr = frenet_at(PAPER_CURVE, 2.0)
        assert harmonic_data(fr).Hstar[0].value == pytest.approx(1.0, abs=1e-12)

    def test_constant_curvature_r4_second_entry_vanishes(self):
        _, fr = frenet_at(TORUS_R4, 1.9)
        Hstar = harmonic_data(fr).Hstar
        assert len(Hstar) == 2
        assert Hstar[1].value == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_order_reported(self):
        spec = parse_curve_spec(TORUS_R4)
        # the frame of dimension 4 needs curve jets of the default order 6
        with pytest.raises(InsufficientOrder) as exc_info:
            frenet_apparatus(eval_curve_jet(spec, 1.0, 5), spec.tol_frame, s=1.0)
        assert str(exc_info.value) == "curve jets of order 5; the frame of dimension 4 needs 6"
        # a frame built by hand with k3 at order 1, below the n-2 = 2 the
        # recurrence needs, is harmonic_data's own check to catch
        fr = frenet_apparatus(eval_curve_jet(spec, 1.0, 6), spec.tol_frame, s=1.0)
        assert [k.order for k in fr.curvatures] == [2, 2, 2]
        k1, k2, k3 = fr.curvatures
        with pytest.raises(InsufficientOrder) as exc_info:
            harmonic_data(FrenetData(fr.s, fr.speed, fr.frame, [k1, k2, Jet(k3.coeffs[:2])]))
        assert str(exc_info.value) == "curvature jets of order 1; the harmonic families need 2"


class TestLemmaResiduals:
    def test_helix_residuals_vanish(self):
        for s in (0.0, 14.0, 30.0):
            _, fr = frenet_at(HELIX345, s)
            h = harmonic_data(fr)
            assert h.closing_H == pytest.approx(0.0, abs=1e-12)
            assert h.closing_Hstar == pytest.approx(0.0, abs=1e-12)

    def test_nonhelix_residual_large(self):
        doc = (
            "dimension = 3\n"
            'curve = ["cos(s)", "sin(s)", "s^2"]\n'
            'field = "x3"\n'
            "s_range = [0.3, 2.8]\n"
        )
        _, fr = frenet_at(doc, 1.0)
        h = harmonic_data(fr)
        assert h.closing_H > 0.01

    def test_sumsq_values(self):
        _, fr = frenet_at(HELIX345, 8.0)
        h = harmonic_data(fr)
        assert h.sumsq_H == pytest.approx(9.0 / 16.0, abs=1e-12)
        assert h.sumsq_Hstar == pytest.approx(16.0 / 9.0, abs=1e-12)


class TestRecurrenceOracle:
    def test_r4_wcurves_match_finite_difference_recurrence(self):
        """H1, H2 from jets match a finite-difference evaluation of the
        recurrence on random constant-curvature torus curves."""
        rng = np.random.default_rng(404)
        for _ in range(4):
            a = float(rng.uniform(0.6, 1.4))
            b = float(rng.uniform(0.3, 0.8))
            q = float(rng.uniform(1.6, 2.6))
            doc = (
                "dimension = 4\n"
                f'curve = ["{a!r}*cos(s)", "{a!r}*sin(s)", "{b!r}*cos({q!r}*s)", "{b!r}*sin({q!r}*s)"]\n'
                'field = "x4"\n'
                "s_range = [0, 6]\n"
            )
            spec = parse_curve_spec(doc)

            def curve(s, spec=spec):
                return [eval_float(c, s) for c in spec.components]

            def H1_fd(s):
                _, k, _ = fd_frenet(curve, s, 4)
                return k[0] / k[1]

            for s0 in (1.0, 3.7):
                fr = frenet_apparatus(eval_curve_jet(spec, s0), spec.tol_frame, s=s0)
                H = harmonic_data(fr).H
                _, k_o, speed_o = fd_frenet(curve, s0, 4)
                assert H[0].value == pytest.approx(k_o[0] / k_o[1], rel=1e-6)
                h = 1e-3
                rate_fd = (H1_fd(s0 + h) - H1_fd(s0 - h)) / (2 * h) / speed_o
                H2_fd = (rate_fd + k_o[1] * 0.0) / k_o[2]
                assert H[1].value == pytest.approx(H2_fd, abs=1e-6)

    def test_varying_curvature_r4_against_finite_differences(self):
        """Same oracle on a nonconstant-curvature curve, where H2 != 0."""
        doc = (
            "dimension = 4\n"
            'curve = ["sin(0.6)*(sin(4*s)/8 + sin(2*s)/4)", '
            '"sin(0.6)*(-cos(4*s)/8 - cos(2*s)/4)", "-sin(0.6)*cos(s)", "cos(0.6)*s"]\n'
            'field = "x4"\n'
            "s_range = [0.2, 1.3]\n"
        )
        spec = parse_curve_spec(doc)

        def curve(s):
            return [eval_float(c, s) for c in spec.components]

        def H1_fd(s):
            _, k, _ = fd_frenet(curve, s, 4)
            return k[0] / k[1]

        for s0 in (0.45, 0.9):
            fr = frenet_apparatus(eval_curve_jet(spec, s0), spec.tol_frame, s=s0)
            H = harmonic_data(fr).H
            _, k_o, speed_o = fd_frenet(curve, s0, 4)
            h = 1e-3
            rate_fd = (H1_fd(s0 + h) - H1_fd(s0 - h)) / (2 * h) / speed_o
            H2_fd = rate_fd / k_o[2]
            assert abs(H[1].value) > 0.05
            assert H[1].value == pytest.approx(H2_fd, abs=1e-5)


class TestDerivativeConsistency:
    def test_jet_rate_matches_grid_differences(self):
        """First derivatives carried in the H jets agree with central
        differences of H values across neighboring grid samples.

        Uses a smooth nonconstant-curvature curve so the grid difference
        itself resolves the tolerance."""
        spec = parse_curve_spec(
            "dimension = 4\n"
            'curve = ["sin(0.6)*(sin(4*s)/8 + sin(2*s)/4)", '
            '"sin(0.6)*(-cos(4*s)/8 - cos(2*s)/4)", "-sin(0.6)*cos(s)", "cos(0.6)*s"]\n'
            'field = "x4"\n'
            "s_range = [0.2, 1.3]\n"
            "samples = 801\n"
        )
        trajectory = sample_along_curve(spec)
        ds = trajectory.s[1] - trajectory.s[0]
        for j in range(1, len(trajectory) - 1, 50):
            for hi in range(2):
                H = trajectory.harmonic.H[hi]
                h_prev = H.value[j - 1]
                h_next = H.value[j + 1]
                grid_rate = (h_next - h_prev) / (2 * ds)
                jet_rate = H.coeffs[1, j]
                assert jet_rate == pytest.approx(grid_rate, abs=1e-5)


class TestEquivalence:
    def test_constancy_iff_small_residual(self):
        """Sum-of-squares constancy over the grid holds exactly when the
        closing derivative identity residual is small, in both directions."""
        rng = np.random.default_rng(777)
        tol = 1e-7
        saw_const = saw_varying = False
        for case in range(8):
            if case % 2 == 0:
                spec = wcurve_helix_r3(rng).spec
            else:
                spec = nonhelix_r3(rng)
            trajectory = sample_along_curve(spec)
            sumsq = trajectory.harmonic.sumsq_H
            spread = sumsq.max() - sumsq.min()
            max_res = trajectory.harmonic.closing_H.max()
            hn2_floor = np.abs(trajectory.harmonic.H[-1].value).min()
            assert hn2_floor > 1e-3  # equivalence hypothesis
            assert (spread <= tol) == (max_res <= tol)
            saw_const |= spread <= tol
            saw_varying |= spread > tol
        assert saw_const and saw_varying

    def test_starred_equivalence(self):
        rng = np.random.default_rng(778)
        tol = 1e-7
        for case in range(6):
            spec = wcurve_helix_r3(rng).spec if case % 2 == 0 else nonhelix_r3(rng)
            trajectory = sample_along_curve(spec)
            sumsq = trajectory.harmonic.sumsq_Hstar
            spread = sumsq.max() - sumsq.min()
            max_res = trajectory.harmonic.closing_Hstar.max()
            assert (spread <= tol) == (max_res <= tol)


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the InsufficientOrder it raises."""
    try:
        return fn(*args)
    except InsufficientOrder as exc:
        return type(exc), str(exc)


def reference_data(fr):
    H = reference_harmonic_tangent(fr)
    Hstar = reference_harmonic_normal(fr)  # H*_0, H*_1 .. H*_{n-2}
    closing = reference_lemma_residuals(SimpleNamespace(H=H, Hstar=Hstar), fr)
    return HarmonicData(
        s=fr.s,
        H=H,
        Hstar=Hstar[1:],
        sumsq_H=sum(h.value**2 for h in H),
        sumsq_Hstar=sum(h.value**2 for h in Hstar[1:]),
        closing_H=closing[0],
        closing_Hstar=closing[1],
    )


# The recurrence multiplies by reciprocals where the reference divides, so
# the two round differently. The largest differences measured on the cases
# below were 51 eps for H and H*, 38 eps for the sums of squares and 164 eps
# for the closing residuals, each in the unit the bound names.
ULPS = 1024 * np.finfo(float).eps


def assert_matches_reference(fr) -> bool:
    """Both families, their sums of squares and closing residuals agree with
    the two families written apart, within ULPS of their size, or fail with
    the same InsufficientOrder. Returns whether the families were computed.

    Each H_i and H*_i jet is within ULPS of its largest coefficient, each
    sum of squares within ULPS of itself, and each closing residual within
    ULPS of its verify scale: max k_{n-1} * max|H| (max k_1 * max|H*|)."""
    got, want = outcome(harmonic_data, fr), outcome(reference_data, fr)
    if isinstance(want, tuple):
        assert got == want
        return False
    for name in ("H", "Hstar"):
        for g, w in zip(getattr(got, name), getattr(want, name), strict=True):
            assert g.coeffs.shape == w.coeffs.shape
            assert np.abs(g.coeffs - w.coeffs).max() <= ULPS * np.abs(w.coeffs).max()
    for name in ("sumsq_H", "sumsq_Hstar", "closing_H", "closing_Hstar"):
        assert type(getattr(got, name)) is type(getattr(want, name))
    for name in ("sumsq_H", "sumsq_Hstar"):
        g, w = getattr(got, name), getattr(want, name)
        assert np.all(np.abs(g - w) <= ULPS * np.abs(w))
    k = fr.curvatures
    for name, family, curvature in (("H", want.H, k[-1]), ("Hstar", want.Hstar, k[0])):
        scale = np.max(curvature.value) * max(np.abs(h.value).max() for h in family)
        g, w = getattr(got, f"closing_{name}"), getattr(want, f"closing_{name}")
        assert np.max(np.abs(g - w)) <= ULPS * scale
    return True


class TestArraySteps:
    """The recurrence's steps on coefficient arrays keep every bit of the
    ``Jet`` arithmetic they replaced: at a point, on a grid, and with a
    constant speed series, where a ``Jet`` product scales instead."""

    @staticmethod
    def _assert_same_bits(fr):
        h = harmonic_data(fr)
        G, sumsq, closing = reference_jet_steps(fr)
        for g, H, Hstar in zip(G, h.H, h.Hstar, strict=True):
            assert H.coeffs.tobytes() == g[:, 0].tobytes() and Hstar.coeffs.tobytes() == g[:, 1].tobytes()
        assert np.float64(h.sumsq_H).tobytes() == sumsq[0].tobytes()
        assert np.float64(h.sumsq_Hstar).tobytes() == sumsq[1].tobytes()
        assert np.float64(h.closing_H).tobytes() == closing[0].tobytes()
        assert np.float64(h.closing_Hstar).tobytes() == closing[1].tobytes()

    @pytest.mark.parametrize("n", range(3, 14))
    @pytest.mark.parametrize("quadratic", [False, True], ids=["linear", "quadratic"])
    def test_wcurve_lift(self, n, quadratic):
        spec = wcurve_lift(n, 12, quadratic)
        self._assert_same_bits(sample_along_curve(spec).frenet)
        fr = frenet_apparatus(eval_curve_jet(spec, 1.7), spec.tol_frame, s=1.7)
        self._assert_same_bits(fr)
        constant = np.zeros_like(fr.speed.coeffs)
        constant[0] = fr.speed.coeffs[0]
        self._assert_same_bits(FrenetData(fr.s, Jet(constant), fr.frame, fr.curvatures))


class TestOneRecurrence:
    """The merged recurrence against the two families written apart, within
    a rounding bound fixed by the dtype."""

    @pytest.mark.parametrize("n", range(3, 14))
    @pytest.mark.parametrize("quadratic", [False, True], ids=["linear", "quadratic"])
    def test_wcurve_lift(self, n, quadratic):
        spec = wcurve_lift(n, 12, quadratic)
        assert assert_matches_reference(sample_along_curve(spec).frenet)
        for s in (0.3, 1.7):
            fr = frenet_apparatus(eval_curve_jet(spec, s), spec.tol_frame, s=s)
            assert assert_matches_reference(fr)

    @pytest.mark.parametrize("name", [n for n in catalog.names() if n != "circle_in_r3"])
    def test_catalog(self, name):
        assert assert_matches_reference(sample_along_curve(catalog.load(name)).frenet)

    def test_fuzz_families(self):
        rng = np.random.default_rng(808)
        for _ in range(4):
            for spec in (wcurve_helix_r3(rng).spec, lift_helix_r4(rng).spec, nonhelix_r3(rng)):
                assert assert_matches_reference(sample_along_curve(spec).frenet)

    @pytest.mark.parametrize("n", range(3, 14))
    def test_insufficient_order(self, n):
        """One order rule in each layer. The frame raises its one
        InsufficientOrder on curve jets below the default order 2n-2, which
        leaves every k_i at order n-2. harmonic_data raises its own exactly
        when some k_i, cut by hand, carries less than n-2, and otherwise
        agrees with the two families written apart within ULPS."""
        spec = wcurve_lift(n, 12, quadratic=True)
        default = default_jet_order(n)
        for order in range(n + 1, default):
            message = f"curve jets of order {order}; the frame of dimension {n} needs {default}"
            assert outcome(frenet_apparatus, eval_curve_jet(spec, 1.1, order), spec.tol_frame, 1.1) == (InsufficientOrder, message)
        fr = frenet_apparatus(eval_curve_jet(spec, 1.1, default), spec.tol_frame, s=1.1)
        assert [k.order for k in fr.curvatures] == [n - 2] * (n - 1)
        assert assert_matches_reference(fr)
        for i in range(n - 1):
            for cut in range(n - 2):
                k = list(fr.curvatures)
                k[i] = Jet(k[i].coeffs[: cut + 1])
                message = f"curvature jets of order {cut}; the harmonic families need {n - 2}"
                assert outcome(harmonic_data, FrenetData(fr.s, fr.speed, fr.frame, k)) == (InsufficientOrder, message)
                assert not assert_matches_reference(FrenetData(fr.s, fr.speed, fr.frame, k))


class TestCurvatureCheck:
    @pytest.mark.parametrize(
        ("p", "message"),
        [(150, "H1 overflows to inf"), (100, "sum of H_i^2 overflows to inf"), (-100, "sum of H*_i^2 overflows to inf")],
    )
    def test_family_overflow_raises(self, p, message):
        """At s = 0, (s, 10^p s^2, 10^-p s^3) has the finite curvatures
        k_1 = 2 10^p and k_2 = 3 10^-2p. H_1 = k_1/k_2 is past float64's range
        at p = 150, H_1^2 at p = 100, and H*_1^2 = (k_2/k_1)^2 at p = -100:
        one EvalOverflow names the first entry that is not finite, with no
        RuntimeWarning ahead of it."""
        spec = parse_curve_spec(f'dimension = 3\ncurve = ["s", "1e{p}*s^2", "1e{-p}*s^3"]\nfield = "x3"\ns_range = [0, 1]\n')
        fr = frenet_apparatus(eval_curve_jet(spec, np.zeros(2)), spec.tol_frame, np.zeros(2))
        assert fr.curvature_values()[0] == pytest.approx([2 * 10.0**p, 3 * 10.0 ** (-2 * p)])
        with pytest.raises(EvalOverflow) as exc_info:
            harmonic_data(fr)
        assert (str(exc_info.value), exc_info.value.grid_index) == (message, 0)

    def test_first_curvature_in_index_order_wins(self):
        """k_2 fails at point 0, k_3 at point 1 and k_1 at point 2: the error
        is k_1's, at point 2, as when each curvature is checked in turn."""
        fr = sample_along_curve(wcurve_lift(5, 8)).frenet
        k = [Jet(c.coeffs.copy()) for c in fr.curvatures]
        k[1].coeffs[0, 0] = -1.0
        k[2].coeffs[0, 1] = np.nan
        k[0].coeffs[0, 2] = 0.0
        with pytest.raises(DegenerateCurvature) as exc_info:
            harmonic_data(FrenetData(fr.s, fr.speed, fr.frame, k))
        assert str(exc_info.value) == f"curvature k1 = 0.0 not positive and finite (at s = {float(fr.s[2])!r})"
        assert (exc_info.value.s, exc_info.value.grid_index) == (float(fr.s[2]), 2)
