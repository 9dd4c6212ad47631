"""Frenet frame construction tests against closed forms and brute-force
finite-difference oracles."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from eikohelix import catalog
from eikohelix.classify import classify_rows, sample_along_curve
from eikohelix.dsl import parse_curve_spec, parse_expr_text
from eikohelix.errors import DegenerateCurve, EikohelixError, EvalOverflow, InsufficientOrder, NotRegular
from eikohelix.frenet import frenet_apparatus
from eikohelix.harmonic import harmonic_data
from eikohelix.jets import Jet, default_jet_order, eval_curve_jet, jet_constant, jet_param, jet_sin

from helpers import (
    classical_kappa_tau,
    eval_float,
    fd_frenet,
    fit_derivatives,
    lift_helix_r4,
    reference_frenet_apparatus,
    wcurve_helix_r3,
    wcurve_lift,
    wcurve_lift_curvatures,
    wcurve_lift_reference,
)

HELIX345 = """\
dimension = 3
curve = ["3*cos(s/5)", "3*sin(s/5)", "4*s/5"]
field = "x3"
s_range = [0, 31.4159]
samples = 64
"""

PAPER_CURVE = """\
dimension = 3
curve = ["cos(s/sqrt(2))", "s/sqrt(2)", "sin(s/sqrt(2))"]
field = "x1^2 + x2 + x3^2"
s_range = [0, 12.566]
samples = 64
"""


def apparatus_at(doc: str, s: float, order=None):
    spec = parse_curve_spec(doc)
    jets = eval_curve_jet(spec, s, order)
    return spec, frenet_apparatus(jets, spec.tol_frame, s=s)


class TestClosedFormCurvatures:
    def test_helix345(self):
        # radius 3, pitch 4 helix: k1 = 3/25, k2 = 4/25 at every s
        for s in np.linspace(0.0, 31.4159, 9):
            _, fr = apparatus_at(HELIX345, float(s))
            assert fr.curvature_values() == pytest.approx([3 / 25, 4 / 25], abs=1e-12)
            assert fr.speed.value == pytest.approx(1.0, abs=1e-14)

    def test_paper_curve(self):
        # radius 1, pitch 1: k1 = k2 = 1/2
        for s in np.linspace(0.0, 12.566, 7):
            _, fr = apparatus_at(PAPER_CURVE, float(s))
            assert fr.curvature_values() == pytest.approx([0.5, 0.5], abs=1e-12)

    # n -> bounds on the relative error of each k_i value and on each higher
    # Taylor coefficient of k_i (exactly 0) over k_i: ten times the maxima
    # measured on 16 samples, 2.3e-16, 6.7e-16, 1.6e-15, 6.3e-15, 5.0e-14,
    # 3.1e-13 and 3.0e-16, 2.4e-15, 3.2e-14, 3.4e-13, 5.5e-12, 1.1e-10
    LIFT_BOUNDS = {
        3: (2.4e-15, 3.1e-15),
        5: (6.7e-15, 2.4e-14),
        7: (1.7e-14, 3.2e-13),
        9: (6.3e-14, 3.5e-12),
        11: (5.1e-13, 5.5e-11),
        13: (3.1e-12, 1.2e-9),
    }

    @pytest.mark.parametrize("n", range(3, 14, 2))
    def test_wcurve_lift_against_50_digits(self, n):
        """Every k_i of the W-curve lift is constant; compare the jets with
        the 50-digit value of ``helpers.wcurve_lift_curvatures``."""
        import mpmath

        frenet = sample_along_curve(wcurve_lift(n, 16)).frenet
        value_error = higher = 0.0
        with mpmath.workdps(50):
            for k, exact in zip(frenet.curvatures, wcurve_lift_curvatures(n), strict=True):
                errors = [abs(mpmath.mpf(x) - exact) / exact for x in k.coeffs[0]]
                value_error = max(value_error, float(max(errors)))
                higher = max(higher, float(np.abs(k.coeffs[1:]).max() / exact))
        value_bound, higher_bound = self.LIFT_BOUNDS[n]
        print(f"n = {n}: k value error {value_error:.3g} (bound {value_bound:.3g}), "
              f"higher coefficients {higher:.3g} (bound {higher_bound:.3g})")  # fmt: skip
        assert value_error <= value_bound
        assert higher <= higher_bound

    # n -> errors of the jet Gram-Schmidt frame this QR replaced, measured on
    # 16 samples against ``helpers.wcurve_lift_reference`` and rounded up to
    # three digits: V absolute, k_i relative to k_i, and H and H* relative to
    # the family's largest entry
    GRAM_SCHMIDT_ERRORS = {
        3: (1.19e-16, 2.33e-16, 2.70e-16, 3.18e-16),
        5: (1.97e-16, 6.70e-16, 2.27e-15, 3.05e-15),
        7: (1.36e-15, 1.62e-15, 1.06e-13, 1.16e-13),
        9: (1.70e-15, 6.29e-15, 8.06e-13, 2.76e-12),
        11: (1.29e-14, 5.03e-14, 1.73e-11, 1.19e-10),
        13: (1.02e-13, 3.07e-13, 6.03e-10, 8.04e-09),
    }
    # Both frames start from the same value-level Gram-Schmidt, so V's error
    # is the same. The other maxima are rounding noise: Gram-Schmidt's own
    # move by up to 3.3x when the 16-point grid shifts by up to 0.051, so
    # the QR's may exceed them by a factor of 3 at most.
    SPREAD = (1.0, 3.0, 3.0, 3.0)

    @pytest.mark.parametrize("n", range(3, 14, 2))
    def test_wcurve_lift_frame_and_families_against_50_digits(self, n):
        import mpmath

        trajectory = sample_along_curve(wcurve_lift(n, 16))
        V, k = trajectory.frenet.frame_values(), trajectory.frenet.curvature_values()
        H, Hstar = trajectory.harmonic.H_values(), trajectory.harmonic.Hstar_values()
        frames, k_exact, H_exact, Hstar_exact = wcurve_lift_reference(n, trajectory.s)
        points = range(len(trajectory.s))
        with mpmath.workdps(50):

            def family_error(values, exact):
                error = max(abs(mpmath.mpf(values[p, i]) - x) for p in points for i, x in enumerate(exact))
                return error / max(abs(x) for x in exact)

            errors = (
                max(abs(mpmath.mpf(V[p, i, c]) - frames[p][i][c]) for p in points for i in range(n) for c in range(n)),
                max(abs(mpmath.mpf(k[p, i]) - x) / x for p in points for i, x in enumerate(k_exact)),
                family_error(H, H_exact),
                family_error(Hstar, Hstar_exact),
            )
        for name, error, bound, spread in zip("V k H H*".split(), errors, self.GRAM_SCHMIDT_ERRORS[n], self.SPREAD):
            print(f"n = {n}: {name} error {float(error):.3g}, Gram-Schmidt's {bound:.3g}")
            assert error <= spread * bound


class TestDegeneracies:
    def test_planar_circle_in_r3(self):
        doc = (
            "dimension = 3\n"
            'curve = ["cos(s)", "sin(s)", "0"]\n'
            'field = "x3"\n'
            "s_range = [0, 6.2832]\n"
        )
        with pytest.raises(DegenerateCurve) as exc_info:
            apparatus_at(doc, 1.0)
        assert exc_info.value.index == 3

    def test_not_regular(self):
        doc = (
            "dimension = 3\n"
            'curve = ["s^2", "s^3", "s^4"]\n'
            'field = "x3"\n'
            "s_range = [-1, 1]\n"
        )
        with pytest.raises(NotRegular):
            apparatus_at(doc, 0.0)

    def test_overflowing_derivative_raises_without_warning(self):
        # the jets of 1e308*s^4 are finite, but differentiating them three
        # times multiplies a coefficient by 24; at s = 0 that overflow must
        # surface as the frame's EvalOverflow and not first as a numpy
        # RuntimeWarning. On the grid, the next point's alpha'' lies within
        # a relative 1e-303 of the line of alpha', and that earlier column's
        # check comes first, still with no warning
        doc = (
            "dimension = 3\n"
            'curve = ["cos(s)", "sin(s)", "1e308*s^4"]\n'
            'field = "x3"\n'
            "s_range = [0, 0.01]\n"
            "samples = 8\n"
        )
        spec = parse_curve_spec(doc)
        grid = np.linspace(0.0, 0.01, 8)
        jets = eval_curve_jet(spec, grid, default_jet_order(3))
        at_zero = [Jet(j.coeffs[:, 0]) for j in jets]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvalOverflow, match="derivative 3 of the curve overflows in the frame"):
                frenet_apparatus(at_zero, spec.tol_frame, 0.0)
            with pytest.raises(DegenerateCurve) as exc_info:
                frenet_apparatus(jets, spec.tol_frame, grid)
        assert str(exc_info.value) == f"derivative 2 linearly dependent on predecessors (at s = {float(grid[1])!r})"

    @pytest.mark.parametrize(
        ("point2", "point0", "error", "message"),
        [
            ([[1, 0, 0], [2, 0, 0]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]], DegenerateCurve,
             "derivative 2 linearly dependent on predecessors"),
            ([[0, 0, 0]], [[1, 0, 0], [2, 0, 0]], NotRegular, "curve speed 0.0 below threshold"),
        ],
        ids=["column2_before_column3", "speed_before_column2"],
    )  # fmt: skip
    def test_first_check_in_column_order_wins(self, point2, point0, error, message):
        """Two columns fail at different points of one batch: the error is the
        earlier column's, at its own first failing point, although the later
        column fails at an earlier point. At each of the three points alpha',
        alpha'', alpha''' are e_1, e_2, e_3, except the first ones that
        ``point2`` and ``point0`` set at points 2 and 0."""
        s = np.array([0.5, 1.5, 2.5])
        values = np.tile(np.eye(3)[:, :, None], (1, 1, 3))  # [derivative, component, point]
        for point, derivatives in ((2, point2), (0, point0)):
            values[: len(derivatives), :, point] = derivatives
        coeffs = np.zeros((default_jet_order(3) + 1, 3, 3))  # [k, component, point]
        for d in range(3):  # alpha^(d+1) at the point is (d+1)! times coefficient d+1
            coeffs[d + 1] = values[d] / math.factorial(d + 1)
        with pytest.raises(error) as exc_info:
            frenet_apparatus([Jet(coeffs[:, c]) for c in range(3)], 1e-10, s)
        assert str(exc_info.value) == f"{message} (at s = 2.5)"
        assert (exc_info.value.s, exc_info.value.grid_index) == (2.5, 2)

    def test_overflowing_value_is_blamed_on_the_derivative_that_carries_it(self):
        # alpha''' of 4e307*s^3 is 2.4e308, which overflows, while alpha'''/2,
        # a coefficient alpha' carries, does not: derivative 2 carries the
        # overflow, and its non-finite successor must not make derivative 1
        # look overflowed
        doc = (
            "dimension = 3\n"
            'curve = ["cos(s)", "sin(s)", "4e307*s^3"]\n'
            'field = "x3"\n'
            "s_range = [0, 0.01]\n"
            "samples = 8\n"
        )
        with pytest.raises(EvalOverflow, match="derivative 2 of the curve overflows in the frame") as exc_info:
            sample_along_curve(parse_curve_spec(doc))
        assert str(exc_info.value).endswith("(while sampling at s = 0.0)")


class TestFrameInvariants:
    @pytest.mark.parametrize("doc,s_values", [
        (HELIX345, [0.0, 7.9, 23.6]),
        (PAPER_CURVE, [0.0, 5.1, 12.566]),
    ])
    def test_orthonormality_and_frenet_residual(self, doc, s_values):
        for s in s_values:
            _, fr = apparatus_at(doc, s)
            frame = fr.frame_values()
            n = fr.dimension
            assert np.max(np.abs(frame @ frame.T - np.eye(n))) < 1e-12

            rates = np.array([v.coeffs[1] for v in fr.frame]) / fr.speed.value
            k = fr.curvature_values()
            for i in range(n):
                expected = np.zeros(n)
                if i > 0:
                    expected -= k[i - 1] * frame[i - 1]
                if i < n - 1:
                    expected += k[i] * frame[i + 1]
                assert np.max(np.abs(rates[i] - expected)) < 1e-10


class TestAgainstOracle:
    @pytest.mark.parametrize("doc", [HELIX345, PAPER_CURVE])
    def test_fd_frenet_oracle(self, doc):
        spec = parse_curve_spec(doc)

        def curve(s):
            return [eval_float(c, s) for c in spec.components]

        for s in np.linspace(*spec.s_range, 5):
            s = float(s)
            jets = eval_curve_jet(spec, s)
            fr = frenet_apparatus(jets, spec.tol_frame, s=s)
            frame_o, k_o, speed_o = fd_frenet(curve, s, 3)
            assert fr.speed.value == pytest.approx(speed_o, rel=1e-9)
            assert fr.curvature_values() == pytest.approx(k_o, rel=1e-6)
            assert np.max(np.abs(fr.frame_values() - frame_o)) < 1e-8

    def test_classical_kappa_tau_on_random_cubics(self):
        rng = np.random.default_rng(31)
        done = 0
        while done < 20:
            coeffs = rng.uniform(-1.5, 1.5, size=(3, 4))
            s0 = float(rng.uniform(-1.0, 1.0))
            d = np.array(
                [
                    [
                        c[1] + 2 * c[2] * s0 + 3 * c[3] * s0**2,
                        2 * c[2] + 6 * c[3] * s0,
                        6 * c[3],
                    ]
                    for c in coeffs
                ]
            )
            if abs(np.linalg.det(d.T[[0, 1, 2]])) < 0.05:
                continue
            kappa, tau = classical_kappa_tau(d[:, 0], d[:, 1], d[:, 2])
            if kappa < 1e-3 or abs(tau) < 1e-3:
                continue
            source = [
                f"({c[0]!r}) + ({c[1]!r})*s + ({c[2]!r})*s^2 + ({c[3]!r})*s^3"
                for c in ((*map(float, row),) for row in coeffs)
            ]
            doc = (
                "dimension = 3\n"
                f'curve = ["{source[0]}", "{source[1]}", "{source[2]}"]\n'
                'field = "x3"\n'
                "s_range = [-2, 2]\n"
            )
            spec = parse_curve_spec(doc)
            jets = eval_curve_jet(spec, s0)
            fr = frenet_apparatus(jets, spec.tol_frame, s=s0)
            k = fr.curvature_values()
            assert k[0] == pytest.approx(kappa, rel=1e-9)
            # the frame convention keeps every curvature positive, so the
            # second curvature matches the absolute torsion
            assert k[1] == pytest.approx(abs(tau), rel=1e-9)
            done += 1

    def test_reparametrization_invariance(self):
        doubled = HELIX345.replace("s/5", "2*s/5").replace("4*s/5", "8*s/5")
        for s in (2.0, 9.0, 14.5):
            _, fr_unit = apparatus_at(HELIX345, 2 * s)
            _, fr_fast = apparatus_at(doubled, s)
            assert fr_fast.speed.value == pytest.approx(2.0, abs=1e-12)
            assert np.max(
                np.abs(fr_unit.curvature_values() - fr_fast.curvature_values())
            ) < 1e-9
            assert np.max(np.abs(fr_unit.frame_values() - fr_fast.frame_values())) < 1e-9

    def test_n4_frame_against_oracle(self):
        doc = (
            "dimension = 4\n"
            'curve = ["cos(s)", "sin(s)", "0.5*cos(2*s)", "0.5*sin(2*s)"]\n'
            'field = "x4"\n'
            "s_range = [0, 6.2832]\n"
        )
        spec = parse_curve_spec(doc)

        def curve(s):
            return [eval_float(c, s) for c in spec.components]

        for s in (0.3, 2.2, 5.0):
            jets = eval_curve_jet(spec, s)
            fr = frenet_apparatus(jets, spec.tol_frame, s=s)
            frame_o, k_o, speed_o = fd_frenet(curve, s, 4)
            assert fr.curvature_values() == pytest.approx(k_o, rel=1e-6)
            assert np.max(np.abs(fr.frame_values() - frame_o)) < 1e-7


class TestDirectionalDerivative:
    """V1[g] = g' / speed, the rate along the unit tangent, as the harmonic
    families take it: a jet one order lower than g."""

    def test_power_rule(self):
        g = jet_param(1.0, 3) * jet_param(1.0, 3)  # s^2 at s=1
        rate = g.derivative() / jet_constant(1.0, 3)
        assert rate.value == pytest.approx(2.0, abs=1e-14)

    def test_constant(self):
        g = jet_constant(5.0, 3)
        speed = 2.0 + jet_sin(jet_param(0.7, 3))
        assert (g.derivative() / speed).value == 0.0

    def test_chain_rule_under_reparametrization(self):
        g = jet_sin(jet_param(0.0, 3))
        rate = g.derivative() / jet_constant(2.0, 3)
        assert rate.value == pytest.approx(0.5, abs=1e-14)

    def test_order_drops_by_one(self):
        g = jet_param(0.5, 4)
        assert (g.derivative() / jet_constant(1.0, 4)).order == 3


def _first_derivatives(fr) -> np.ndarray:
    """(*batch, n, n) array; [..., i, :] is coefficient 1 of V_{i+1}."""
    return np.moveaxis(np.stack([v.coeffs[1] for v in fr.frame]), (0, 1), (-2, -1))


def _largest_difference(fr, h, ref, ref_h) -> float:
    """Largest difference of V's first coefficient, k, H and H*, each relative to the
    reference array's largest entry, and of both closing residuals."""
    differences = [
        np.abs(got - want).max() / np.abs(want).max()
        for got, want in [
            (_first_derivatives(fr), _first_derivatives(ref)),
            (fr.curvature_values(), ref.curvature_values()),
            (h.H_values(), ref_h.H_values()),
            (h.Hstar_values(), ref_h.Hstar_values()),
        ]
    ]
    return max(differences + [np.abs(h.closing_H - ref_h.closing_H).max(), np.abs(h.closing_Hstar - ref_h.closing_Hstar).max()])


class TestOrderBudget:
    """The frame cut to ``frame_jet_order`` against the same QR at a larger
    budget and on longer jets, and against the frozen jet Gram-Schmidt frame."""

    CASES = [*range(3, 14, 2), "wcurve_r4", "helix_r4"]  # the W-curve lift at odd n, two curves in R^4

    @staticmethod
    def _sample(case):
        spec = wcurve_lift(case, samples=16) if isinstance(case, int) else catalog.load(case)
        trajectory = sample_along_curve(spec)
        return spec, trajectory, eval_curve_jet(spec, trajectory.s, default_jet_order(spec.dimension))

    @pytest.mark.parametrize("case", CASES)
    def test_orders_and_bytes_match_full_order(self, case, monkeypatch):
        """Coefficient k of column i uses only alpha'..alpha^(i) up to order k,
        so every coefficient the budget keeps has the bits of the full-order run."""
        spec, trajectory, _ = self._sample(case)
        n = spec.dimension
        fr, h = trajectory.frenet, trajectory.harmonic
        assert [v.order for v in fr.frame] == [1] * n
        assert [k.order for k in fr.curvatures] == [n - 2] * (n - 1)
        # every k_i carries order n-2, so the last entries keep order 1 and
        # harmonic.py's one order check cannot fire from the sampler
        assert h.H[-1].order == 1 and h.Hstar[-1].order == 1

        # a budget of 2n-3 carries every column, and so every k_i, to 2n-3
        budget = 2 * n - 3
        monkeypatch.setattr("eikohelix.frenet.frame_jet_order", lambda dimension: budget)
        full = frenet_apparatus(eval_curve_jet(spec, trajectory.s, n + budget), spec.tol_frame, trajectory.s)
        assert [v.order for v in full.frame] == [1] * n
        assert [k.order for k in full.curvatures] == [budget] * (n - 1)
        full_h = harmonic_data(full)
        cut = [(fr.speed, full.speed), *zip(fr.frame, full.frame), *zip(fr.curvatures, full.curvatures)]
        for got, want in cut:
            assert got.coeffs.tobytes() == want.coeffs[: got.order + 1].tobytes()
        pairs = [
            (h.H_values(), full_h.H_values()),
            (h.Hstar_values(), full_h.Hstar_values()),
            (h.closing_H, full_h.closing_H),
            (h.closing_Hstar, full_h.closing_Hstar),
        ]
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [3, 13])
    def test_one_order_below_the_budget_raises(self, n):
        """The frame takes curve jets of order n + frame_jet_order(n), the
        default order, and names the order it got when given one less."""
        spec = wcurve_lift(n, 16)
        order = default_jet_order(n) - 1
        with pytest.raises(InsufficientOrder) as exc_info:
            frenet_apparatus(eval_curve_jet(spec, 1.1, order), spec.tol_frame, s=1.1)
        assert str(exc_info.value) == f"curve jets of order {order}; the frame of dimension {n} needs {order + 1}"

    @pytest.mark.parametrize("case", CASES)
    def test_longer_jets_give_the_same_bytes(self, case):
        """Curve jets carried three orders past the default are cut to the
        budget: every jet of the FrenetData keeps its order and its bits."""
        spec, trajectory, _ = self._sample(case)
        fr = trajectory.frenet
        jets = eval_curve_jet(spec, trajectory.s, default_jet_order(spec.dimension) + 3)
        longer = frenet_apparatus(jets, spec.tol_frame, trajectory.s)
        pairs = [(fr.speed, longer.speed), *zip(fr.frame, longer.frame), *zip(fr.curvatures, longer.curvatures)]
        assert len(pairs) == 2 * spec.dimension
        for got, want in pairs:
            assert got.coeffs.shape == want.coeffs.shape
            assert got.coeffs.tobytes() == want.coeffs.tobytes()

    # case -> bound on the largest difference from the frozen Gram-Schmidt
    # frame of V's first coefficient, k, H and H*, each relative to the
    # frozen array's largest entry, and of both closing residuals: ten times
    # the maxima measured, 3.5e-16, 6.6e-15, 1.6e-13, 4.2e-12, 1.4e-10,
    # 1.3e-8 and 1.1e-14, 1.1e-14 (each from a closing residual, except the
    # H* differences 4.2e-12 and 1.4e-10)
    GRAM_SCHMIDT_BOUNDS = {
        3: 3.5e-15, 5: 6.6e-14, 7: 1.7e-12, 9: 4.3e-11, 11: 1.5e-9, 13: 1.3e-7,
        "wcurve_r4": 1.1e-13, "helix_r4": 1.2e-13,
    }  # fmt: skip

    # case -> bound on max |V - V_frozen| over the frame values: ten times the
    # maxima measured, 1.1e-16, 1.7e-16, 5.0e-16, 1.8e-15, 1.8e-14, 7.8e-14,
    # 2.2e-16 and 2.2e-16
    FRAME_VALUE_BOUNDS = {
        3: 1.2e-15, 5: 1.7e-15, 7: 5e-15, 9: 1.8e-14, 11: 1.8e-13, 13: 7.8e-13,
        "wcurve_r4": 2.3e-15, "helix_r4": 2.3e-15,
    }  # fmt: skip
    ORTHONORMALITY_BOUND = 4.5e-15  # on max |V V^T - I|: ten times the largest measured, 4.4e-16

    @pytest.mark.parametrize("case", CASES)
    def test_against_frozen_gram_schmidt(self, case):
        """The frame values differ from the frozen frame's by rounding: the
        QR's value-level Gram-Schmidt is classical and run twice, the frozen
        one modified, with one reorthogonalization pass, over whole jets.
        Both frames are orthonormal to working precision, and the rest
        differs by rounding too."""
        spec, trajectory, jets = self._sample(case)
        fr, h = trajectory.frenet, trajectory.harmonic
        ref = reference_frenet_apparatus(jets, trajectory.s)
        ref_h = harmonic_data(ref)
        V = fr.frame_values()
        value_difference = np.abs(V - ref.frame_values()).max()
        orthonormality = np.abs(V @ V.swapaxes(-2, -1) - np.eye(spec.dimension)).max()
        print(f"{case}: max |dV| {value_difference:.3g}, max |V V^T - I| {orthonormality:.3g}")
        assert value_difference <= self.FRAME_VALUE_BOUNDS[case]
        assert orthonormality <= self.ORTHONORMALITY_BOUND
        difference = _largest_difference(fr, h, ref, ref_h)
        print(f"{case}: largest difference {difference:.3g} (bound {self.GRAM_SCHMIDT_BOUNDS[case]:.3g})")
        assert difference <= self.GRAM_SCHMIDT_BOUNDS[case]


def _lift_with(n, kept, tail, **changes):
    """The 16-sample lift's first ``kept`` components, then the expressions ``tail``."""
    spec = wcurve_lift(n, 16)
    components = (*spec.components[:kept], *(parse_expr_text(c, "curve") for c in tail))
    return replace(spec, dimension=len(components), components=components, **changes)


class TestKernels:
    """From ``frenet._BATCHED_FROM`` on, the recurrence's n x n products run
    as batched matmul over batch-first stacks instead of einsum. Both kernels
    start from the same value-level Gram-Schmidt, so the frame values keep
    their bits; the rest differs by rounding, and no flag or error moves."""

    @staticmethod
    def _both(spec, monkeypatch):
        """The sampled trajectory and its classification, or the error's type, message and
        ``s``, through the einsum kernel, then through the matmul kernel."""
        results = []
        for threshold in (spec.dimension + 1, spec.dimension):
            monkeypatch.setattr("eikohelix.frenet._BATCHED_FROM", threshold)
            try:
                trajectory = sample_along_curve(spec)
            except EikohelixError as exc:
                results.append((type(exc), str(exc), getattr(exc, "s", None)))
            else:
                results.append((trajectory, classify_rows(trajectory, spec.tol_const)))
        return results

    @pytest.mark.parametrize("quadratic", [False, True], ids=["helix", "twin"])
    @pytest.mark.parametrize("n", [7, 9, 11, 13])
    def test_lift_agrees(self, n, quadratic, monkeypatch):
        (einsum, flags), (batched, batched_flags) = self._both(wcurve_lift(n, 16, quadratic), monkeypatch)
        assert np.array_equal(batched.frenet.frame_values(), einsum.frenet.frame_values())
        difference = _largest_difference(batched.frenet, batched.harmonic, einsum.frenet, einsum.harmonic)
        print(f"n = {n}: largest difference {difference:.3g} (bound {TestOrderBudget.GRAM_SCHMIDT_BOUNDS[n]:.3g})")
        assert difference <= TestOrderBudget.GRAM_SCHMIDT_BOUNDS[n]
        for flag in ("eikonal", "helix", "slant", "parallel_gradient"):
            assert getattr(batched_flags, flag) == getattr(flags, flag)

    @pytest.mark.parametrize(
        ("spec", "error"),
        [
            (_lift_with(9, 8, ["1e308*s^4"], s_range=(0.0, 0.01)), EvalOverflow),
            (_lift_with(13, 12, ["s + 1e200*s^2"]), DegenerateCurve),
            (_lift_with(7, 6, ["cos(s)", "sin(s)", "0.7*s"]), DegenerateCurve),  # n = 9
        ],
        ids=["overflow9", "large13", "repeated9"],
    )
    def test_errors_agree(self, spec, error, monkeypatch):
        einsum, batched = self._both(spec, monkeypatch)
        assert einsum[0] is error
        assert batched == einsum


class TestPointAgainstGrid:
    """A single point (batch shape ()) and the same point inside a grid give
    the same bits under both kernels: every sum over vector components or
    jet coefficients runs in the same order for both."""

    @staticmethod
    def _assert_same_bits(spec, points):
        trajectory = sample_along_curve(spec)
        grid, grid_h = trajectory.frenet, trajectory.harmonic
        for p in points:
            s = float(trajectory.s[p])
            point = frenet_apparatus(eval_curve_jet(spec, s), spec.tol_frame, s=s)
            point_h = harmonic_data(point)
            jets = [
                (point.speed, grid.speed),
                *zip(point.frame, grid.frame),
                *zip(point.curvatures, grid.curvatures),
                *zip(point_h.H, grid_h.H),
                *zip(point_h.Hstar, grid_h.Hstar),
            ]
            for at_point, on_grid in jets:
                assert at_point.coeffs.tobytes() == on_grid.coeffs[..., p].tobytes()
            for name in ("closing_H", "closing_Hstar"):
                assert type(getattr(point_h, name)) is float
                assert np.float64(getattr(point_h, name)).tobytes() == getattr(grid_h, name)[p].tobytes()

    @pytest.mark.parametrize("kernel", ["einsum", "matmul"])
    @pytest.mark.parametrize("quadratic", [False, True], ids=["helix", "twin"])
    @pytest.mark.parametrize("n", range(3, 14))
    def test_lift(self, n, quadratic, kernel, monkeypatch):
        monkeypatch.setattr("eikohelix.frenet._BATCHED_FROM", n + 1 if kernel == "einsum" else n)
        self._assert_same_bits(wcurve_lift(n, 12, quadratic), range(12))

    @pytest.mark.parametrize("name", [n for n in catalog.names() if n != "circle_in_r3"])
    def test_catalog(self, name):
        spec = catalog.load(name)
        self._assert_same_bits(spec, [*range(0, spec.samples, 51), spec.samples - 1])

    @pytest.mark.parametrize("make", [wcurve_helix_r3, lift_helix_r4], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", range(3))
    def test_constant_times_trig_components(self, make, seed):
        # each component sums constant * trig terms: on the grid a product
        # with a constant scales, at one point it is a full Cauchy product
        spec = make(np.random.default_rng(seed)).spec
        self._assert_same_bits(spec, [0, spec.samples // 2, spec.samples - 1])
