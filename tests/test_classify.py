"""Classification tests: the constancy probe, the sampling pipeline, and
the invariance properties of the classifier flags."""

from __future__ import annotations

import math

import numpy as np
import pytest

from eikohelix.classify import classify, classify_rows, constancy, row_norm, sample_along_curve
from eikohelix.dsl import (
    Binary,
    Constant,
    Coord,
    CurveSpec,
    parse_curve_spec,
    parse_expr_text,
)
from eikohelix.errors import (
    DegenerateCurve,
    EmptyInput,
    EvalDomainError,
    EvalError,
    FrameError,
    NotRegular,
)
from eikohelix.report import PASS, verdicts_payload
from eikohelix.verify import verify_all

from helpers import (
    add_all,
    lin,
    linear_field,
    rotation,
    sample_point_by_point,
    substitute,
    wcurve_helix_r3,
)

PAPER_DOC = """\
dimension = 3
curve = ["cos(s/sqrt(2))", "s/sqrt(2)", "sin(s/sqrt(2))"]
field = "x1^2 + x2 + x3^2"
s_range = [0, 12.566]
samples = 512
"""

HELIX345_FZ = """\
dimension = 3
curve = ["3*cos(s/5)", "3*sin(s/5)", "4*s/5"]
field = "x3"
s_range = [0, 31.4159]
samples = 128
"""


class TestConstancy:
    def test_identical_values(self):
        root5 = math.sqrt(5.0)
        assert constancy([root5, root5, root5], 1e-8, root5) == (True, 0.0)

    def test_forced_failure(self):
        is_const, spread = constancy([1.0, 1.0 + 1e-3], 1e-8, 1.0)
        assert not is_const
        assert spread == pytest.approx(1e-3)

    def test_relative_scaling(self):
        # the spread is compared with tol * scale, not with the values: 1e-4
        # is constant against a scale of 1e6 and not against a scale of 1
        assert constancy([1e6, 1e6 + 1e-4], 1e-8, 1e6)[0]
        assert not constancy([1e6, 1e6 + 1e-4], 1e-8, 1.0)[0]
        boundary = 1e-8 * 3.7
        assert constancy([0.0, boundary], 1e-8, 3.7) == (True, boundary)
        assert not constancy([0.0, math.nextafter(boundary, 1.0)], 1e-8, 3.7)[0]
        assert not constancy([0.0, math.nan], 1e-8, 3.7)[0]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            constancy([], 1e-8, 1.0)


class TestSampling:
    def test_paper_rows(self):
        spec = parse_curve_spec(PAPER_DOC)
        trajectory = sample_along_curve(spec)
        assert len(trajectory) == 512
        assert trajectory.s[0] == 0.0
        assert trajectory.s[-1] == pytest.approx(12.566)
        root5 = math.sqrt(5.0)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        for j in range(0, len(trajectory), 37):
            assert trajectory.grad_norm[j] == pytest.approx(root5, abs=1e-12)
            assert trajectory.ip_tangent[j] == pytest.approx(inv_sqrt2, abs=1e-12)
        is_const, spread = constancy(trajectory.ip_tangent, 1e-8, trajectory.grad_norm.mean())
        assert is_const and spread <= 1e-10

    def test_varying_gradient_norm(self):
        doc = HELIX345_FZ.replace('"x3"', '"x1^2 + x2^2 + x3^2"')
        norms = sample_along_curve(parse_curve_spec(doc)).grad_norm
        assert norms.max() - norms.min() > 1.0

    def test_small_rows_keep_their_bits(self):
        """exp(400*x3) makes the last row's gradient about 1e156 times the
        first's; each row's norm is scaled by its own power of two, so the
        first row's squares do not fall into subnormals."""
        doc = HELIX345_FZ.replace('"x3"', '"exp(400*x3) + 0.7*x1 + 0.3*x2"')
        doc = doc.replace("[0, 31.4159]", "[0, 1.125]").replace("samples = 128", "samples = 8")
        trajectory = sample_along_curve(parse_curve_spec(doc))
        # entries past 2^250 take row_norm's rescaled form, not the plain one
        assert np.abs(trajectory.grad).max() > 2.0**250
        assert trajectory.grad_norm.max() > 1e158
        assert trajectory.grad_norm[0] == np.linalg.norm([0.7, 0.3, 400.0]) == 400.00072499934294
        assert trajectory.hessian_norm[0] == 160000.0

    def test_cauchy_schwarz_rows(self):
        spec = parse_curve_spec(PAPER_DOC)
        trajectory = sample_along_curve(spec)
        for j in range(0, len(trajectory), 61):
            assert abs(trajectory.ip_tangent[j]) <= trajectory.grad_norm[j] + 1e-12
            assert abs(trajectory.ip_last[j]) <= trajectory.grad_norm[j] + 1e-12

    def test_degeneracy_carries_s(self):
        doc = (
            "dimension = 3\n"
            'curve = ["cos(s)", "sin(s)", "0"]\n'
            'field = "x3"\n'
            "s_range = [0, 6.2832]\n"
        )
        with pytest.raises(DegenerateCurve) as exc_info:
            sample_along_curve(parse_curve_spec(doc))
        assert exc_info.value.s is not None


def _rescaled_norm(x: np.ndarray, axis) -> np.ndarray:
    """Every row divided by the power of two of its largest entry, as
    row_norm does outside its band."""
    e = np.frexp(np.abs(x).max(axis=axis, keepdims=True))[1]
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.norm(np.ldexp(x, -e), axis=axis), e.squeeze(axis))


def _band_arrays(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Arrays inside, at the edges of and across row_norm's band [2^-250, 2^250]."""
    rng = np.random.default_rng(250)

    def scaled(low: int, high: int) -> np.ndarray:
        """Entries of magnitude in [2^low, 2^(high + 1)), either sign."""
        mantissa = rng.uniform(1.0, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
        return mantissa * np.exp2(rng.integers(low, high + 1, shape).astype(float))

    edges = scaled(-250, 249)
    edges.flat[:4] = [2.0**250, -(2.0**250), 2.0**-250, -(2.0**-250)]
    arrays = [scaled(-20, 20), scaled(-250, 249), edges, scaled(-599, 599), scaled(-1074, 1022)]
    for value in (math.nextafter(2.0**250, math.inf), math.nextafter(2.0**-250, 0.0), 5e-324, math.inf, -math.inf, math.nan):
        arrays.append(edges.copy())
        arrays[-1].flat[5] = value
    with_zeros = scaled(-250, 249)
    with_zeros[::3] = 0.0
    with_zeros.flat[1] = -0.0
    arrays += [with_zeros, np.zeros(shape), scaled(-250, 249).swapaxes(0, 1).copy().swapaxes(0, 1)]
    return arrays


class TestRowNorm:
    """Inside the band the plain norm is taken; it must keep the bits of the
    rescaled form, which is taken everywhere else."""

    @pytest.mark.parametrize(
        ("shape", "axis"), [((64, 3), -1), ((24, 13), -1), ((64, 3, 3), (-2, -1)), ((24, 13, 13), (-2, -1))]
    )
    def test_band_keeps_the_rescaled_bits(self, shape, axis):
        for x in _band_arrays(shape):
            assert row_norm(x, axis).tobytes() == _rescaled_norm(x, axis).tobytes()

    @pytest.mark.parametrize(("shape", "axis"), [((0, 3), -1), ((0, 3, 3), (-2, -1))])
    def test_empty(self, shape, axis):
        assert row_norm(np.empty(shape), axis).shape == (0,)

    def test_squares_outside_the_band(self):
        # the plain form would square 2^520 to inf and 2^-540 to 0.0
        assert row_norm(np.array([[2.0**520, 0.0, 0.0], [2.0**-540, 0.0, 0.0]])).tolist() == [2.0**520, 2.0**-540]


def _rate_doc(curve: list[str], field: str, samples: int) -> str:
    components = ", ".join(f'"{c}"' for c in curve)
    return (
        f"dimension = {len(curve)}\ncurve = [{components}]\nfield = \"{field}\"\n"
        f"s_range = [0.3, 2.8]\nsamples = {samples}\n"
    )


class TestRates:
    """r_1 and r_n, the rates the helix and slant flags test, against central
    differences of <grad f, V1> and <grad f, Vn> over speed * k."""

    @pytest.mark.parametrize(
        "curve, field, bound",
        [
            # paper_3_1's field on a non-helix: at n = 3, V2 is both V_2 and V_{n-1}
            (["cos(s)", "sin(s)", "s^2"], "x1^2 + x2 + x3^2", 3e-6),
            # at n = 4 the two rates read different frame vectors and curvatures
            (["cos(s)", "sin(s)", "0.5*cos(2*s)", "0.5*sin(2*s) + 0.1*s^2"], "x1^2 + x2*x4 + x3^2", 3e-5),
        ],
        ids=["r3", "r4"],
    )
    def test_against_central_differences(self, curve, field, bound):
        # the difference quotient errs by O(h^2): on 1001 samples the largest
        # error over mean |grad f| was 1.4e-6 (r_1) and 2.2e-6 (r_n) in R^3,
        # 1.3e-5 and 8.4e-6 in R^4, and a quarter of that on 2001 samples
        trajectory = sample_along_curve(parse_curve_spec(_rate_doc(curve, field, 1001)))
        h = trajectory.s[1] - trajectory.s[0]
        k = trajectory.frenet.curvature_values()[1:-1]
        speed = trajectory.frenet.speed.value[1:-1]
        scale = trajectory.grad_norm.mean()
        for ip, rate, k_turning in [
            (trajectory.ip_tangent, trajectory.rate_tangent, k[:, 0]),
            (trajectory.ip_last, trajectory.rate_last, k[:, -1]),
        ]:
            difference = (ip[2:] - ip[:-2]) / (2.0 * h) / (speed * k_turning)
            error = np.abs(difference - rate[1:-1]).max() / scale
            print(f"max |r| {np.abs(rate).max() / scale:.3g}, difference error {error:.3g} of mean |grad f|")
            assert np.abs(rate).max() > 0.1 * scale  # the curve is neither a helix nor a slant helix
            assert error <= bound

    def test_parallel_gradient_rates_are_projections(self):
        # with Hess f = 0 the rates are <grad f, V2> and -<grad f, V_{n-1}>
        doc = _rate_doc(["cos(s)", "sin(s)", "0.5*cos(2*s)", "0.5*sin(2*s) + 0.1*s^2"], "0.3*x1 - 0.5*x2 + 0.8*x4", 64)
        trajectory = sample_along_curve(parse_curve_spec(doc))
        assert np.array_equal(trajectory.rate_tangent, trajectory.projections[:, 1])
        assert np.array_equal(trajectory.rate_last, -trajectory.projections[:, -2])


def grid_doc(curve: str, field: str, s_range: str = "[0, 2]") -> str:
    return (
        f"dimension = 3\ncurve = {curve}\nfield = \"{field}\"\n"
        f"s_range = {s_range}\nsamples = 9\n"
    )


# the third derivative (0, 0, 24(s-1)) vanishes at s = 1.0, the fifth of
# nine grid points
QUARTIC = '["s", "s^2", "(s-1)^4"]'


class TestFirstOffendingPoint:
    """A failure is reported at the first grid point that fails any check,
    and at that point by the first check in stage order: curve jets, frame,
    harmonic families, field."""

    def test_frame_degeneracy_inside_the_grid(self):
        with pytest.raises(DegenerateCurve) as exc_info:
            sample_along_curve(parse_curve_spec(grid_doc(QUARTIC, "x3")))
        assert exc_info.value.index == 3
        assert exc_info.value.s == 1.0
        assert str(exc_info.value) == "derivative 3 linearly dependent on predecessors (at s = 1.0)"

    def test_earlier_field_error_comes_first(self):
        with pytest.raises(EvalDomainError) as exc_info:
            sample_along_curve(parse_curve_spec(grid_doc(QUARTIC, "ln(x1 - 0.2)")))
        assert str(exc_info.value) == "ln of non-positive value -0.2 (while sampling at s = 0.0)"

    def test_frame_degeneracy_ahead_of_later_field_error(self):
        # the field fails from s = 1.5 on, after the frame fails at s = 1.0
        with pytest.raises(DegenerateCurve) as exc_info:
            sample_along_curve(parse_curve_spec(grid_doc(QUARTIC, "ln(1.5 - x1)")))
        assert exc_info.value.s == 1.0

    def test_curve_domain_error_inside_the_grid(self):
        doc = grid_doc('["cos(s)", "sin(s)", "s + sqrt(1.5-s)"]', "x3")
        with pytest.raises(EvalDomainError) as exc_info:
            sample_along_curve(parse_curve_spec(doc))
        assert str(exc_info.value).endswith("(while sampling at s = 1.5)")

    def test_matches_point_by_point_loop(self):
        """Random curves and fields whose domain errors and degeneracies fall
        at various grid points report the same error as the per-point loop."""
        rng = np.random.default_rng(2026)
        shifts = ["0", "0.3", "0.5", "1", "1.25", "1.5", "2"]
        safe = ["s", "s^2", "cos(s)", "sin(s)", "s^3 - 0.5*s", "cos(2*s)"]
        risky = ["sqrt({c} - s)", "ln(s - {c})", "s + 1/(s - {c})", "(s - {c})^4", "(s - {c})^-1"]
        fields = ["x1", "ln(x1 - {c})", "sqrt({c} - x2)", "1/(x1 - {c})", "(x2 - {c})^0.5"]
        failures = 0
        for _ in range(40):
            curve = list(rng.choice(safe, size=3))
            curve[rng.integers(3)] = str(rng.choice(risky)).format(c=rng.choice(shifts))
            field = str(rng.choice(fields)).format(c=rng.choice(shifts))
            spec = parse_curve_spec(grid_doc("[" + ", ".join(f'"{c}"' for c in curve) + "]", field))
            outcomes = []
            for run in (sample_along_curve, sample_point_by_point):
                try:
                    run(spec)
                    outcomes.append(None)
                except (FrameError, EvalError) as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], spec
            failures += outcomes[0] is not None
        assert failures >= 20

    def test_messages_format_plain_floats(self):
        doc = grid_doc('["cos(s)", "sin(s)", "s + sqrt(1.5-s)"]', "x3")
        with pytest.raises(EvalDomainError) as exc_info:
            sample_along_curve(parse_curve_spec(doc))
        assert str(exc_info.value) == (
            "sqrt of non-positive jet value 0.0 (while sampling at s = 1.5)"
        )
        doc = grid_doc('["s^2", "s^3", "s^4"]', "x3", s_range="[-1, 1]")
        with pytest.raises(NotRegular) as exc_info:
            sample_along_curve(parse_curve_spec(doc))
        assert str(exc_info.value) == "curve speed 0.0 below threshold (at s = 0.0)"


def _long_curve(end: int, field: str = "x3") -> CurveSpec:
    """A regular curve of speed about 1.1e307; on [0, 30] its length overflows."""
    return parse_curve_spec(
        'dimension = 3\ncurve = ["1e307*cos(s)", "1e307*sin(s)", "5e306*s"]\n'
        f'field = "{field}"\ns_range = [0, {end}]\nsamples = 64\n'
    )


class TestClassify:
    @pytest.mark.parametrize("end", [10, 30])
    def test_zero_hessian_on_a_long_curve(self, end):
        # the sum inside the mean speed overflows on both ranges; a zero
        # Hessian is parallel whatever the length
        spec = _long_curve(end)
        trajectory = sample_along_curve(spec)
        with np.errstate(over="ignore"):
            assert np.sum(trajectory.frenet.speed.value) == math.inf
        c = classify_rows(trajectory, spec.tol_const)
        assert c.eikonal and c.helix and c.slant and c.parallel_gradient
        verdicts = verdicts_payload(verify_all(trajectory, c), spec.tol_const, spec.tol_frame)
        assert [v["verdict"] for v in verdicts.values()] == [PASS] * 8

    @pytest.mark.parametrize("end", [10, 30])
    def test_nonzero_hessian_on_a_long_curve(self, end):
        assert not classify(_long_curve(end, "x3 + sin(x1)")).parallel_gradient

    def test_paper_example(self):
        c = classify(parse_curve_spec(PAPER_DOC))
        assert c.eikonal and c.helix
        assert not c.parallel_gradient  # curved field, Hessian diag(2,0,2)
        assert c.grad_norm == pytest.approx(math.sqrt(5.0), abs=1e-12)

    def test_helix345_with_axis_field(self):
        c = classify(parse_curve_spec(HELIX345_FZ))
        assert c.eikonal and c.helix and c.slant and c.parallel_gradient
        assert math.cos(c.theta) == pytest.approx(4.0 / 5.0, abs=1e-12)
        assert c.ip_last == pytest.approx(3.0 / 5.0, abs=1e-12)

    def test_oscillating_tangent_angle(self):
        doc = HELIX345_FZ.replace('"x3"', '"x1 + x2 + x3"')
        c = classify(parse_curve_spec(doc))
        assert not c.helix

    def test_flag_invariants(self):
        for doc in (PAPER_DOC, HELIX345_FZ):
            c = classify(parse_curve_spec(doc))
            if c.helix:
                assert c.eikonal and abs(c.ip_tangent) > c.tol_const * c.grad_norm
            if c.slant:
                assert c.eikonal and abs(c.ip_last) > c.tol_const * c.grad_norm


class TestInvariances:
    def test_field_scaling_changes_values_not_flags(self):
        base = classify(parse_curve_spec(PAPER_DOC))
        # the nonzero means and max |Hess f| are compared with tol_const times
        # scales in their units, so 1e-9 keeps the helix flag and no parallel one
        for factor in (3.7, -2.2, 1e-9, 1e9):
            doc = PAPER_DOC.replace(
                '"x1^2 + x2 + x3^2"', f'"({factor})*(x1^2 + x2 + x3^2)"'
            )
            scaled = classify(parse_curve_spec(doc))
            assert (scaled.eikonal, scaled.helix, scaled.slant) == (
                base.eikonal,
                base.helix,
                base.slant,
            )
            assert scaled.parallel_gradient == base.parallel_gradient
            assert scaled.grad_norm == pytest.approx(abs(factor) * base.grad_norm, rel=1e-12)
            assert scaled.ip_tangent == pytest.approx(factor * base.ip_tangent, rel=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(2024)
        base_spec = parse_curve_spec(HELIX345_FZ)
        base = classify(base_spec)
        for _ in range(2):
            rot = rotation(rng, 3)
            shift = rng.uniform(-2, 2, size=3)
            moved_components = tuple(
                add_all(
                    [lin(rot[i, j], base_spec.components[j]) for j in range(3)]
                    + [Constant(float(shift[i]))]
                )
                for i in range(3)
            )

            def pulled_back(coord):
                j = coord.index - 1
                return add_all(
                    [
                        lin(
                            rot[i, j],
                            Binary("-", Coord(i + 1), Constant(float(shift[i]))),
                        )
                        for i in range(3)
                    ]
                )

            moved = CurveSpec(
                dimension=3,
                components=moved_components,
                field=substitute(base_spec.field, pulled_back),
                s_range=base_spec.s_range,
                samples=base_spec.samples,
            )
            c = classify(moved)
            assert (c.eikonal, c.helix, c.slant, c.parallel_gradient) == (
                base.eikonal,
                base.helix,
                base.slant,
                base.parallel_gradient,
            )
            assert c.theta == pytest.approx(base.theta, abs=1e-9)

    def test_helix_iff_slant_in_r3_parallel_fields(self):
        """With a constant gradient in dimension 3, the tangent-angle and
        binormal-angle conditions hold together on the catalog curves."""
        docs = [
            HELIX345_FZ,
            "dimension = 3\n"
            'curve = ["cos(s)", "sin(s)", "s^2"]\n'
            'field = "x3"\n'
            "s_range = [0.3, 2.8]\n"
            "samples = 128\n",
        ]
        rng = np.random.default_rng(5)
        for _ in range(3):
            docs.append(None)  # placeholder replaced by fuzz case below
        cases = []
        for doc in docs:
            if doc is None:
                cases.append(wcurve_helix_r3(rng).spec)
            else:
                cases.append(parse_curve_spec(doc))
        for spec in cases:
            c = classify(spec)
            assert c.parallel_gradient
            assert c.helix == c.slant

    def test_classify_rows_matches_classify(self):
        spec = parse_curve_spec(HELIX345_FZ)
        trajectory = sample_along_curve(spec)
        assert classify_rows(trajectory, spec.tol_const) == classify(spec)
