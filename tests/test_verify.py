"""Verification-module tests: axis reconstruction, identity residuals,
hypothesis gating, the synthetic n=4 frame systems, and the verdict rule."""

from __future__ import annotations

import math

import numpy as np
import pytest

from eikohelix.classify import classify_rows, sample_along_curve
from eikohelix.dsl import DEFAULT_TOL_FRAME, parse_curve_spec
from eikohelix.report import FAIL, NOT_APPLICABLE, PASS, residuals_payload, verdicts_payload
from eikohelix.verify import TheoremResiduals, verify_all

from helpers import (
    even_helix,
    lift_helix_r4,
    nonhelix_r3,
    synthetic_helix_r4,
    synthetic_slant_r4,
    wcurve_helix_r3,
    wcurve_lift,
)

HELIX345_FZ = """\
dimension = 3
curve = ["3*cos(s/5)", "3*sin(s/5)", "4*s/5"]
field = "x3"
s_range = [0, 31.4159]
samples = 128
"""

PAPER_DOC = """\
dimension = 3
curve = ["cos(s/sqrt(2))", "s/sqrt(2)", "sin(s/sqrt(2))"]
field = "x1^2 + x2 + x3^2"
s_range = [0, 12.566]
samples = 128
"""

# (s_range, samples) of the near-axis cases
NEAR_AXIS_GRIDS = [pytest.param("[1, 6]", 64, id="64_on_1_6"), pytest.param("[0, 6]", 32, id="32_on_0_6")]


def run(doc: str):
    spec = parse_curve_spec(doc)
    trajectory = sample_along_curve(spec)
    classification = classify_rows(trajectory, spec.tol_const)
    return spec, trajectory, classification


class TestHelix345:
    def test_axis_reconstruction(self):
        _, trajectory, classification = run(HELIX345_FZ)
        r = verify_all(trajectory, classification)
        assert not r.reasons["helix"]
        assert r.values["axis_helix"] <= 1e-9
        # the reconstructed axis is the field gradient (0, 0, 1)
        cos_theta = math.cos(classification.theta)
        for j in range(0, len(trajectory), 17):
            frame = trajectory.frame[j]
            H1 = trajectory.harmonic.H[0].value[j]
            axis = trajectory.grad_norm[j] * cos_theta * (frame[0] + H1 * frame[2])
            assert np.max(np.abs(axis - [0.0, 0.0, 1.0])) <= 1e-9

    def test_sumsq_and_tan_identity(self):
        _, trajectory, classification = run(HELIX345_FZ)
        r = verify_all(trajectory, classification)
        assert trajectory.harmonic.sumsq_H[0] == pytest.approx(9.0 / 16.0, abs=1e-12)
        # cos^2(theta) (1 + 9/16) = (16/25)(25/16) = 1 exactly
        assert r.values["tan_identity"] <= 1e-12
        assert r.values["sumsq_helix_spread"] <= 1e-12
        assert r.values["hn2_min"] == pytest.approx(0.75, abs=1e-12)
        assert r.values["cor31"] <= 1e-12

    def test_slant_axis_reconstruction(self):
        _, trajectory, classification = run(HELIX345_FZ)
        r = verify_all(trajectory, classification)
        assert not r.reasons["slant"]
        assert r.values["axis_slant"] <= 1e-9
        assert r.values["sumsq_slant_spread"] <= 1e-12
        assert trajectory.harmonic.sumsq_Hstar[0] == pytest.approx(16.0 / 9.0, abs=1e-12)
        for j in range(0, len(trajectory), 29):
            frame = trajectory.frame[j]
            H1s = trajectory.harmonic.Hstar_values()[j, 0]
            axis = trajectory.ip_last[j] * (H1s * frame[0] + frame[2])
            assert np.max(np.abs(axis - [0.0, 0.0, 1.0])) <= 1e-9

    def test_orthogonality(self):
        _, trajectory, classification = run(HELIX345_FZ)
        r = verify_all(trajectory, classification)
        assert r.values["orth_v2"] <= 1e-12
        assert r.values["orth_vn1"] <= 1e-12

    def test_family_consistency(self):
        # the axis lies in span{V1, V3}: cos^2(theta) + (<grad,V3>/|grad|)^2 = 1
        _, _, classification = run(HELIX345_FZ)
        cos_theta = math.cos(classification.theta)
        ratio = classification.ip_last / classification.grad_norm
        assert cos_theta**2 + ratio**2 == pytest.approx(1.0, abs=1e-9)


class TestHypothesisGating:
    def test_paper_case_not_applicable_but_diagnosed(self):
        _, trajectory, classification = run(PAPER_DOC)
        assert classification.helix and not classification.parallel_gradient
        r = verify_all(trajectory, classification)
        assert "parallel" in r.reasons["helix"]
        assert math.isfinite(r.values["sys_helix"])  # diagnostics still computed

    def test_nonhelix_fails_residuals(self):
        doc = (
            "dimension = 3\n"
            'curve = ["cos(s)", "sin(s)", "s^2"]\n'
            'field = "x3"\n'
            "s_range = [0.3, 2.8]\n"
            "samples = 128\n"
        )
        _, trajectory, classification = run(doc)
        assert classification.parallel_gradient and not classification.helix
        r = verify_all(trajectory, classification)
        assert r.reasons["helix"]
        assert r.values["sumsq_helix_spread"] > 1e-3
        assert r.values["cor31"] > 1e-3

    def test_low_last_angle_probe(self):
        # gradient orthogonal to the last frame vector: slant hypothesis off
        doc = HELIX345_FZ.replace('"x3"', '"0.6*x1 - 0.8*x2"')
        _, trajectory, classification = run(doc)
        assert not classification.slant
        r = verify_all(trajectory, classification)
        assert r.reasons["slant"]

    @pytest.mark.parametrize("s_range, samples", NEAR_AXIS_GRIDS)
    @pytest.mark.parametrize("r", ["1e-3", "1e-4", "1e-5", "1e-7"])
    def test_near_axis_helix_passes(self, r, s_range, samples):
        # the tangent makes an angle theta ~ r with the axis e_3; the flags
        # test each angle's rate, which keeps its scale as theta goes to 0
        classification, _, verdicts = _band_run(f'["{r}*cos(s)", "{r}*sin(s)", "s"]', s_range, samples)
        assert classification.helix and classification.slant
        assert verdicts == dict.fromkeys(RULES, PASS)

    @pytest.mark.parametrize("s_range, samples", NEAR_AXIS_GRIDS)
    def test_near_axis_edges(self, s_range, samples):
        # r = 1e-9: <grad f, Vn> = sin(theta) ~ 1e-9 is below tol_const * mean
        # |grad f|, so the slant flag is off and the slant family NOT-APPLICABLE
        classification, _, verdicts = _band_run('["1e-9*cos(s)", "1e-9*sin(s)", "s"]', s_range, samples)
        assert classification.helix and not classification.slant
        assert verdicts == {name: PASS if name in HELIX_VERDICTS else NOT_APPLICABLE for name in RULES}
        # r = 1e-12: H_1 = k_1/k_2 ~ 1e-12 is at most tol_frame, so thm33
        # FAILs; H_{n-2} != 0 is a condition of thm33, not of the helix family
        classification, residuals, verdicts = _band_run('["1e-12*cos(s)", "1e-12*sin(s)", "s"]', s_range, samples)
        assert classification.helix and not classification.slant
        assert residuals.values["hn2_min"] <= DEFAULT_TOL_FRAME
        expected = {name: PASS if name in HELIX_VERDICTS else NOT_APPLICABLE for name in RULES}
        assert verdicts == {**expected, "thm33": FAIL}


class TestFuzzR3:
    def test_random_wcurve_helices(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            case = wcurve_helix_r3(rng)
            spec = case.spec
            trajectory = sample_along_curve(spec)
            classification = classify_rows(trajectory, spec.tol_const)
            assert classification.helix and classification.slant
            assert classification.parallel_gradient
            r = verify_all(trajectory, classification)
            assert r.values["sys_helix"] <= 1e-7
            assert r.values["axis_helix"] <= 1e-7
            assert r.values["tan_identity"] <= 1e-9
            assert r.values["sumsq_helix_spread"] <= 1e-8
            assert r.values["hn2_min"] > 1e-6
            assert r.values["hn2_min"] == pytest.approx(case.expected_H1, rel=1e-9)
            assert r.values["cor31"] <= 1e-7
            assert r.values["sys_slant"] <= 1e-7
            assert r.values["axis_slant"] <= 1e-7
            assert r.values["sumsq_slant_spread"] <= 1e-8
            assert r.values["hn2star_min"] > 1e-6
            assert r.values["cor41"] <= 1e-7
            # reconstructed axis equals the planted one up to field scale
            grad = trajectory.grad[0]
            assert np.max(np.abs(grad / np.linalg.norm(grad) - case.axis)) <= 1e-9


class TestFuzzR4:
    def test_lift_helices(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            case = lift_helix_r4(rng)
            trajectory = sample_along_curve(case.spec)
            classification = classify_rows(trajectory, case.spec.tol_const)
            assert classification.helix and classification.parallel_gradient
            r = verify_all(trajectory, classification)
            assert r.values["sys_helix"] <= 1e-7
            assert r.values["axis_helix"] <= 1e-7
            assert r.values["tan_identity"] <= 1e-9
            assert r.values["sumsq_helix_spread"] <= 1e-8
            assert r.values["hn2_min"] > 1e-6
            assert r.values["cor31"] <= 1e-7

    def test_synthetic_helix_systems(self):
        rng = np.random.default_rng(13)
        for _ in range(4):
            system = synthetic_helix_r4(rng)
            classification = classify_rows(system.trajectory, 1e-8)
            assert classification.helix and classification.parallel_gradient
            r = verify_all(system.trajectory, classification)
            assert r.values["sys_helix"] <= 1e-7
            assert r.values["axis_helix"] <= 1e-7
            assert r.values["sumsq_helix_spread"] <= 1e-8
            assert r.values["hn2_min"] > 1e-6
            assert r.values["cor31"] <= 1e-7
            assert system.trajectory.harmonic.sumsq_H[0] == pytest.approx(
                system.expected_sumsq, rel=1e-10
            )

    def test_synthetic_slant_systems(self):
        rng = np.random.default_rng(14)
        for _ in range(4):
            system = synthetic_slant_r4(rng)
            classification = classify_rows(system.trajectory, 1e-8)
            assert classification.slant and classification.parallel_gradient
            assert not classification.helix  # distinct families in R^4
            r = verify_all(system.trajectory, classification)
            assert not r.reasons["slant"]
            assert r.values["sys_slant"] <= 1e-7
            assert r.values["axis_slant"] <= 1e-7
            assert r.values["sumsq_slant_spread"] <= 1e-8
            assert r.values["hn2star_min"] > 1e-6
            assert r.values["cor41"] <= 1e-7
            assert system.trajectory.harmonic.sumsq_Hstar[0] == pytest.approx(
                system.expected_sumsq, rel=1e-10
            )

    def test_nonhelix_large_residuals(self):
        rng = np.random.default_rng(15)
        spec = nonhelix_r3(rng)
        trajectory = sample_along_curve(spec)
        classification = classify_rows(trajectory, spec.tol_const)
        r = verify_all(trajectory, classification)
        assert r.reasons["helix"]
        assert r.values["sumsq_helix_spread"] > 1e-4
        assert r.values["cor31"] > 1e-4


# verdict -> (residual that must be <= tol * its scale, residual that must be > tol_frame)
RULES = {
    "thm31": ("sys_helix", None),
    "thm32": ("axis_helix", None),
    "thm33": ("sumsq_helix_spread", "hn2_min"),
    "cor31": ("cor31", None),
    "thm41": ("sys_slant", None),
    "thm42": ("axis_slant", None),
    "thm43": ("sumsq_slant_spread", "hn2star_min"),
    "cor41": ("cor41", None),
}
HELIX_VERDICTS = ("thm31", "thm32", "thm33", "cor31")
TOL, TOL_FRAME = 1e-8, 1e-6


VALUES = {
    "sys_helix": 0.0, "axis_helix": 0.0, "sumsq_helix_spread": 0.0, "tan_identity": 0.0,
    "hn2_min": 1.0, "cor31": 0.0, "sys_slant": 0.0, "axis_slant": 0.0,
    "sumsq_slant_spread": 0.0, "hn2star_min": 1.0, "cor41": 0.0, "orth_v2": 0.0, "orth_vn1": 0.0,
}  # fmt: skip
# a distinct scale per key, none of them 1, so that a verdict reading the
# wrong scale, or none, moves its boundary
SCALES = {key: 0.3 * 1.9**i for i, key in enumerate(VALUES)}


def _residuals(helix_reason: str = "", slant_reason: str = "", **changes) -> TheoremResiduals:
    """Residuals that PASS every verdict at TOL and TOL_FRAME, with ``changes`` applied."""
    assert changes.keys() <= VALUES.keys()
    values = {**VALUES, **changes}
    return TheoremResiduals(values, SCALES, {"helix": helix_reason, "slant": slant_reason})


def _verdicts(residuals: TheoremResiduals) -> dict[str, str]:
    return {name: v["verdict"] for name, v in verdicts_payload(residuals, TOL, TOL_FRAME).items()}


class TestVerdictRule:
    def test_all_pass(self):
        assert _verdicts(_residuals()) == dict.fromkeys(RULES, PASS)

    @pytest.mark.parametrize("verdict", RULES)
    def test_residual_at_tol_passes(self, verdict):
        small, _ = RULES[verdict]
        boundary = TOL * SCALES[small]
        assert _verdicts(_residuals(**{small: boundary})) == dict.fromkeys(RULES, PASS)
        above = _verdicts(_residuals(**{small: math.nextafter(boundary, math.inf)}))
        assert above == {**dict.fromkeys(RULES, PASS), verdict: FAIL}

    @pytest.mark.parametrize("verdict", ["thm33", "thm43"])
    def test_last_harmonic_curvature_at_tol_frame_fails(self, verdict):
        _, nonzero = RULES[verdict]
        at = _verdicts(_residuals(**{nonzero: TOL_FRAME}))
        assert at == {**dict.fromkeys(RULES, PASS), verdict: FAIL}
        above = _verdicts(_residuals(**{nonzero: math.nextafter(TOL_FRAME, math.inf)}))
        assert above == dict.fromkeys(RULES, PASS)

    @pytest.mark.parametrize("key", ["sys_helix", "hn2_min", "sumsq_slant_spread", "hn2star_min", "cor41"])
    def test_nan_residual_fails_and_shows_null(self, key):
        residuals = _residuals(**{key: math.nan})
        failed = {name for name, rule in RULES.items() if key in rule}
        assert _verdicts(residuals) == {name: FAIL if name in failed else PASS for name in RULES}
        payload = residuals_payload(residuals)
        assert payload[key] is None
        assert list(payload) == list(residuals.values)

    @pytest.mark.parametrize(
        "values", [{}, {"sys_helix": math.nan, "hn2_min": 0.0, "sys_slant": 1.0}], ids=["passing", "failing"]
    )
    def test_reason_gives_not_applicable(self, values):
        helix = "not a helix (tangent angle varies or is zero)"
        slant = "gradient not parallel (Hessian nonzero along curve)"
        payload = verdicts_payload(_residuals(helix, slant, **values), TOL, TOL_FRAME)
        assert payload == {
            name: {"verdict": NOT_APPLICABLE, "reason": helix if name in HELIX_VERDICTS else slant}
            for name in RULES
        }
        # a reason in one family leaves the other family's verdicts to the values
        verdicts = _verdicts(_residuals(helix, **values))
        assert {verdicts[name] for name in HELIX_VERDICTS} == {NOT_APPLICABLE}
        assert verdicts["thm41"] == (FAIL if values else PASS)


def _lift_run(n: int, quadratic: bool, family=wcurve_lift):
    spec = family(n, 64, quadratic)
    trajectory = sample_along_curve(spec)
    classification = classify_rows(trajectory, spec.tol_const)
    residuals = verify_all(trajectory, classification)
    payload = verdicts_payload(residuals, spec.tol_const, spec.tol_frame)
    return spec, classification, residuals, {name: v["verdict"] for name, v in payload.items()}


class TestOddDimensions:
    """Verdicts of the W-curve lift at every odd n from 3 to 13, where both
    closing identities (cor31, cor41) are taken at their highest index."""

    # at n = 13, cor41 reads 9.4e-9 of its scale k_1 max|H*|, 7% under
    # tol_const = 1e-8 by a rounding shift of the frame's recurrence, not by
    # a fix of the float64 floor (ROADMAP item 3)
    @pytest.mark.parametrize("n", range(3, 14, 2))
    def test_helix_passes_every_verdict(self, n):
        _, classification, _, verdicts = _lift_run(n, quadratic=False)
        assert classification.helix and classification.slant
        assert verdicts == dict.fromkeys(RULES, PASS)

    @pytest.mark.parametrize("n", range(3, 14, 2))
    def test_quadratic_twin_is_not_applicable(self, n):
        spec, classification, residuals, verdicts = _lift_run(n, quadratic=True)
        assert not classification.helix and not classification.slant
        assert verdicts == dict.fromkeys(RULES, NOT_APPLICABLE)
        # the closing identities still measure the twin's distance from a helix
        margin = 1e7 * spec.tol_const
        cor31, cor41 = residuals.values["cor31"], residuals.values["cor41"]
        print(f"n = {n}: cor31 = {cor31:.3g}, cor41 = {cor41:.3g}, margin {margin:.3g}")
        assert cor31 > margin and cor41 > margin


class TestEvenDimensions:
    """Verdicts of helpers.even_helix at every even n from 4 to 12: a helix at
    the angle arccos 0.8 to its axis, and not a slant helix."""

    # at n = 12, cor31 reads 5.2e-9 of its scale k_{n-1} max|H|, under
    # tol_const = 1e-8 by a rounding shift of the frame's recurrence, not by
    # a fix of the float64 floor (ROADMAP item 3)
    @pytest.mark.parametrize("n", range(4, 13, 2))
    def test_helix_passes_the_helix_verdicts(self, n):
        _, classification, _, verdicts = _lift_run(n, False, even_helix)
        assert classification.helix and not classification.slant
        assert abs(classification.ip_tangent - 0.8) <= 1e-12
        assert verdicts == {name: PASS if name in HELIX_VERDICTS else NOT_APPLICABLE for name in RULES}

    @pytest.mark.parametrize("n", range(4, 13, 2))
    def test_quadratic_twin_is_not_applicable(self, n):
        _, classification, _, verdicts = _lift_run(n, True, even_helix)
        assert not classification.helix and not classification.slant
        assert verdicts == dict.fromkeys(RULES, NOT_APPLICABLE)


class TestNearAxisBand:
    """Non-helices whose angle stays within sqrt(2 tol_const) ~ 1.4e-4 rad of its axis.

    cos(theta) changes by less than theta^2/2 while theta stays near 0, so a
    test of the spread of <grad f, V1> or <grad f, Vn> flagged both curves
    below and let them PASS verdicts. The rate of the angle over the
    frame's turning reads about 1e-5 of mean |grad f| on both.
    """

    def test_conical_spiral_is_not_a_helix(self):
        # tangent angle to e_3 grows from 1.4e-5 to 6.1e-5 rad
        classification, _, verdicts = _band_run('["1e-5*s*cos(s)", "1e-5*s*sin(s)", "s"]')
        print(f"helix flag {classification.helix}: {verdicts}")
        assert not classification.helix
        assert PASS not in {verdicts[name] for name in HELIX_VERDICTS}

    def test_slow_rise_is_not_a_slant_helix(self):
        # the binormal V_3's angle to e_3 grows from 2.8e-5 to 1.2e-4 rad
        classification, _, verdicts = _band_run('["cos(s)", "sin(s)", "1e-5*s^2"]')
        print(f"slant flag {classification.slant}: {verdicts}")
        assert not classification.slant
        assert PASS not in {verdicts[name] for name in RULES if name not in HELIX_VERDICTS}


def _band_run(curve: str, s_range: str = "[1, 6]", samples: int = 64):
    """(classification, residuals, verdicts) of ``curve`` against the field x3."""
    spec, trajectory, classification = run(
        f'dimension = 3\ncurve = {curve}\nfield = "x3"\ns_range = {s_range}\nsamples = {samples}\n'
    )
    residuals = verify_all(trajectory, classification)
    payload = verdicts_payload(residuals, spec.tol_const, spec.tol_frame)
    return classification, residuals, {name: v["verdict"] for name, v in payload.items()}
