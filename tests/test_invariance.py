"""Flags and verdicts do not depend on units.

The paper's characterizations hold unchanged when the field f becomes
c*f + d, when the curve is moved, rotated and scaled (the field carried
along), and when s is reparametrised affinely. Every tolerance compares a
residual with tol times a scale in the residual's own units, so none of
these maps may change a classification flag or a verdict. The second half
holds regression tests for defects of the absolute tolerances that the
scaled rule replaced; the small curved field is in test_classify.py
(``TestInvariances::test_field_scaling_changes_values_not_flags``).
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eikohelix import catalog, cli
from eikohelix.classify import classify_rows, sample_along_curve
from eikohelix.dsl import (
    Binary,
    Constant,
    Coord,
    Param,
    format_curve_spec,
    parse_curve_spec,
    parse_expr_text,
)
from eikohelix.errors import EvalOverflow
from eikohelix.report import NOT_APPLICABLE, PASS, VERDICT_RULES, verdicts_payload
from eikohelix.verify import verify_all

from helpers import add_all, even_helix, lin, rotation, substitute, wcurve_lift

SAMPLES = 64
FLAGS = ("eikonal", "helix", "slant", "parallel_gradient")
HELIX_VERDICTS = ("thm31", "thm32", "thm33", "cor31")
# a twin's cor31 and cor41 stay above MARGIN * tol_const, each relative to
# its scale; the smallest measured is cor41 = 0.062 of its scale (lift, n = 3)
MARGIN = 1e5


def _helix_r4(quadratic: bool):
    spec = replace(catalog.load("helix_r4"), samples=SAMPLES)
    if not quadratic:
        return spec
    rise = parse_expr_text("cos(0.6)*s^2", "curve")
    return replace(spec, components=(*spec.components[:3], rise))


# name -> (spec builder, true helix). The W-curve lift is a helix and a
# slant helix at odd n; helix_r4 and the even-n family (even_helix) are
# helices and not slant helices. Each has a quadratic-rise twin that is
# neither. The lift's n = 7, 9 and 11 and even n = 8 and 10 run the frame's
# batched matmul kernel, the rest its einsum kernel. n = 13 is left out: there
# the float64 rounding floor reaches tol_const (cor41 of the lift reads 9.4e-9
# of its scale), and rotated n = 13 lifts FAIL slant verdicts from rounding
# alone (ROADMAP items 3 and 7).
CASES = {
    **{f"lift{n}": (functools.partial(wcurve_lift, n, SAMPLES), True) for n in range(3, 12, 2)},
    **{f"lift{n}-twin": (functools.partial(wcurve_lift, n, SAMPLES, True), False) for n in range(3, 12, 2)},
    **{f"even{n}": (functools.partial(even_helix, n, SAMPLES), True) for n in (6, 8, 10)},
    **{f"even{n}-twin": (functools.partial(even_helix, n, SAMPLES, True), False) for n in (6, 8, 10)},
    "helix_r4": (functools.partial(_helix_r4, False), True),
    "helix_r4-twin": (functools.partial(_helix_r4, True), False),
}


def _outcome(spec):
    """(flags, verdicts, cor31 and cor41 relative to their scales)."""
    trajectory = sample_along_curve(spec)
    classification = classify_rows(trajectory, spec.tol_const)
    residuals = verify_all(trajectory, classification)
    payload = verdicts_payload(residuals, spec.tol_const, spec.tol_frame)
    flags = {flag: getattr(classification, flag) for flag in FLAGS}
    verdicts = {name: v["verdict"] for name, v in payload.items()}
    closing = {key: residuals.values[key] / residuals.scales[key] for key in ("cor31", "cor41")}
    return flags, verdicts, closing


@functools.cache
def _base(name: str):
    build, _ = CASES[name]
    spec = build()
    return spec, _outcome(spec)


def _assert_unchanged(name: str, spec) -> None:
    _, (base_flags, base_verdicts, _) = _base(name)
    flags, verdicts, closing = _outcome(spec)
    assert flags == base_flags
    assert verdicts == base_verdicts
    if not CASES[name][1]:
        assert min(closing.values()) > MARGIN * spec.tol_const


def _reparametrised(spec, rate: float, shift: float):
    """The same curve in the parameter rate*s + shift."""
    old_s = Binary("/", Binary("-", Param(), Constant(shift)), Constant(rate))
    lo, hi = spec.s_range
    curve = tuple(substitute(c, lambda _: old_s) for c in spec.components)
    return replace(spec, components=curve, s_range=(rate * lo + shift, rate * hi + shift))


def _decades(lo: int, hi: int):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


FEW = settings(max_examples=4, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("name", CASES)
def test_base_cases(name):
    spec, (flags, verdicts, closing) = _base(name)
    if CASES[name][1]:
        assert flags["eikonal"] and flags["helix"] and flags["parallel_gradient"]
        passing = VERDICT_RULES if flags["slant"] else HELIX_VERDICTS
        assert {verdicts[v] for v in passing} == {PASS}
        assert flags["slant"] == name.startswith("lift")
    else:
        assert not flags["helix"] and not flags["slant"]
        assert verdicts == dict.fromkeys(VERDICT_RULES, NOT_APPLICABLE)
        margin = MARGIN * spec.tol_const
        print(f"{name}: cor31 = {closing['cor31']:.3g}, cor41 = {closing['cor41']:.3g} of scale, margin {margin:.3g}")
        assert min(closing.values()) > margin


@pytest.mark.parametrize("name", CASES)
@FEW
@given(exponent=st.floats(-300, 300), sign=st.sampled_from([1.0, -1.0]), offset=st.floats(-1e3, 1e3))
@example(exponent=-9.0, sign=1.0, offset=1e3)
@example(exponent=9.0, sign=-1.0, offset=-1e3)
@example(exponent=-300.0, sign=-1.0, offset=1e3)
@example(exponent=300.0, sign=1.0, offset=-1e3)
def test_field_affine_map(name, exponent, sign, offset):
    """f -> c*f + d with |c| from 1e-300 to 1e300."""
    spec, _ = _base(name)
    field = Binary("+", lin(sign * 10.0**exponent, spec.field), Constant(offset))
    _assert_unchanged(name, replace(spec, field=field))


@pytest.mark.parametrize("name", CASES)
@FEW
@given(scale=_decades(-300, 290), seed=st.integers(0, 2**32 - 1))
@example(scale=1e-6, seed=1)
@example(scale=1e6, seed=2)
@example(scale=1e-12, seed=3)
@example(scale=1e12, seed=4)
@example(scale=1e-30, seed=5)
@example(scale=1e30, seed=6)
@example(scale=1e-300, seed=7)
@example(scale=1e200, seed=8)
@example(scale=1e290, seed=9)
def test_similarity_map(name, scale, seed):
    """alpha -> scale*Q*alpha + b, with the field carried along as
    f(Q^T (x - b) / scale), for a rotation Q and b from the seed.

    The scale stays at or below 1e290 for a float64 reason: at 1e300 the
    n = 11 lift's alpha^(20), the highest derivative the frame takes,
    overflows.
    """
    spec, _ = _base(name)
    n = spec.dimension
    rng = np.random.default_rng(seed)
    q, b = rotation(rng, n), rng.uniform(-10.0, 10.0, n)
    curve = tuple(
        add_all([lin(scale * q[i, j], spec.components[j]) for j in range(n)] + [Constant(float(b[i]))])
        for i in range(n)
    )

    def pulled_back(coord):
        j = coord.index - 1
        return add_all(
            [lin(q[i, j] / scale, Binary("-", Coord(i + 1), Constant(float(b[i])))) for i in range(n)]
        )

    moved = replace(spec, components=curve, field=substitute(spec.field, pulled_back))
    _assert_unchanged(name, moved)


@pytest.mark.parametrize("name", CASES)
@FEW
@given(rate=_decades(-12, 12), shift=st.floats(-10, 10))
@example(rate=1e-6, shift=10.0)
@example(rate=1e6, shift=-10.0)
@example(rate=1e-12, shift=10.0)
@example(rate=1e12, shift=-10.0)
def test_affine_reparametrisation(name, rate, shift):
    """s -> rate*s + shift, with s_range mapped to match.

    The rate stays at or above 1e-12 for a float64 reason: alpha^(2n-2), the
    highest curve derivative the frame takes, grows like rate^-(2n-2), so
    at n = 11 a rate of 1e-18 overflows it (test_rate_below_range_overflows).
    """
    _assert_unchanged(name, _reparametrised(_base(name)[0], rate, shift))


def test_rate_below_range_overflows():
    # the n = 11 lift at rate 1e-18 carries Taylor coefficients near
    # 1e18^20 = 1e360, past the float range in the curve jets themselves
    spec = _reparametrised(wcurve_lift(11, SAMPLES), 1e-18, 0.0)
    with pytest.raises(EvalOverflow, match="non-finite jet coefficients"):
        sample_along_curve(spec)


# ------------------------------------------------- defects of absolute tolerances


class TestNamedDefects:
    """Each of these failed while tolerances were absolute."""

    @pytest.mark.parametrize("field", ["1e9*x3", "1e200*x3", "1e-9*x3", "1e-200*x3", "1e-300*x3"])
    def test_scaled_axis_field_passes(self, field):
        # sys_* and axis_* carry the units of |grad f|; with 1e-9*x3 the
        # means <grad f, V1> and <grad f, Vn> fell below an absolute tol_const,
        # and below about 1e-162 |grad f| squared unscaled components to 0
        document = catalog.get("helix345_fz").document.replace('"x3"', f'"{field}"')
        assert _outcome(parse_curve_spec(document))[1] == dict.fromkeys(VERDICT_RULES, PASS)

    def test_near_axis_slant_helix_passes(self):
        # sumsq_slant_spread reads 0.156 against sum H*^2 ~ 1e14: rounding;
        # the helix flag tests the rate of the tangent angle, which keeps its
        # scale at theta ~ 1e-7, so the helix family PASSes as well
        document = (
            "dimension = 3\n"
            'curve = ["0.0000001*cos(s)", "0.0000001*sin(s)", "s"]\n'
            'field = "x3"\n'
            "s_range = [0, 6]\n"
            "samples = 32\n"
        )
        assert _outcome(parse_curve_spec(document))[1] == dict.fromkeys(VERDICT_RULES, PASS)

    @pytest.mark.parametrize("scale", [1e-11, 1e11, 1e-100, 1e100, 1e-170, 1e160, 1e-304, 1e200, 1e300])
    def test_scaled_helix_is_regular(self, scale):
        # the curve scaled by `scale`, the field carried along as x3 / scale;
        # 1e+-11 and 1e+-100 exited 3 while the frame tested the speed
        # (NotRegular) and each k_i (DegenerateCurvature) against tol_frame
        # absolutely, 1e-170 and 1e160 while the frame squared unscaled
        # derivatives (|alpha'|^2 underflowed to 0 or overflowed); 1e-304
        # and 1e300 exited 3 while jets refused divisors below 1e-300, and
        # 1e200 lost its verdicts while |grad f| = 1e-200 squared to 0
        spec = parse_curve_spec(catalog.get("helix345_fz").document)
        curve = tuple(lin(scale, c) for c in spec.components)
        scaled = replace(spec, components=curve, field=lin(1.0 / scale, spec.field))
        assert _outcome(scaled)[1] == dict.fromkeys(VERDICT_RULES, PASS)

    def test_reparametrised_lift_is_not_degenerate(self, tmp_path, capsys):
        # after s -> 100*s + 5, Gram-Schmidt leaves 1.9e-11 of alpha^(6) at
        # s = 35, 8% of |alpha^(6)| but below tol_frame times a running
        # maximum of earlier norms that started at 1
        path = tmp_path / "lift7.spec"
        path.write_text(format_curve_spec(_reparametrised(wcurve_lift(7, SAMPLES), 100.0, 5.0)), encoding="utf-8")
        assert cli.main(["verify", str(path)]) == 0
        assert capsys.readouterr().err == ""
