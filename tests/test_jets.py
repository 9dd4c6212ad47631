"""Jet arithmetic and field-derivative tests.

Expected values come from hand Taylor expansions, sympy symbolic
differentiation, 50-digit mpmath series, or Richardson finite differences;
none reuse the jet recurrences they check. The scaling by a constant series
is checked against the full Cauchy product and division recurrence it
stands in for.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from eikohelix.dsl import parse_curve_spec, parse_expr_text
from eikohelix.errors import EvalDomainError, EvalOverflow, JetDivisionByZero
from eikohelix.jets import (
    Jet,
    _align,
    _div,
    _JetAlgebra,
    _mul,
    _sin_cos,
    default_jet_order,
    frame_jet_order,
    eval_curve_jet,
    eval_expr_jet,
    eval_field_jet,
    jet_constant,
    jet_cos,
    jet_div,
    jet_exp,
    jet_ln,
    jet_param,
    jet_pow,
    jet_sin,
    jet_sqrt,
)

from helpers import RICHARDSON, eval_float, random_expr, reference_field_jet, reference_jet_div, reference_jet_mul

EXAMPLE_DOC = """\
dimension = 3
curve = ["cos(s/sqrt(2))", "s/sqrt(2)", "sin(s/sqrt(2))"]
field = "x1^2 + x2 + x3^2"
s_range = [0, 12.566]
samples = 512
"""


class TestJetBasics:
    def test_sine_taylor_coefficients(self):
        jet = eval_expr_jet(parse_expr_text("sin(s)", "curve"), 0.0, 3)
        assert np.allclose(jet.coeffs, [0.0, 1.0, 0.0, -1.0 / 6.0], atol=1e-15)

    def test_polynomial_shift(self):
        jet = eval_expr_jet(parse_expr_text("s^2", "curve"), 3.0, 2)
        assert np.allclose(jet.coeffs, [9.0, 6.0, 1.0], atol=1e-14)

    def test_product_rule(self):
        s = jet_param(2.0, 2)
        assert np.allclose((s * s).coeffs, [4.0, 4.0, 1.0], atol=1e-15)

    def test_geometric_series(self):
        s = jet_param(0.0, 3)
        inv = jet_div(jet_constant(1.0, 3), 1.0 + s)
        assert np.allclose(inv.coeffs, [1.0, -1.0, 1.0, -1.0], atol=1e-15)

    def test_pythagorean_identity(self):
        s = jet_param(1.3, 4)
        total = jet_sin(s) * jet_sin(s) + jet_cos(s) * jet_cos(s)
        assert np.allclose(total.coeffs, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_exp_ln_inverse(self):
        u = 0.7 + jet_param(0.4, 5) * jet_param(0.4, 5)
        back = jet_exp(jet_ln(u))
        assert np.allclose(back.coeffs, u.coeffs, atol=1e-14)

    def test_sqrt_squares(self):
        u = 1.5 + jet_sin(jet_param(0.9, 5))
        r = jet_sqrt(u)
        assert np.allclose((r * r).coeffs, u.coeffs, atol=1e-14)

    def test_pow_matches_repeated_multiplication(self):
        u = 0.5 + jet_param(1.1, 4)
        assert np.allclose(jet_pow(u, 3).coeffs, (u * u * u).coeffs, atol=1e-13)

    def test_fractional_pow(self):
        u = 2.0 + jet_param(0.3, 4)
        half = jet_pow(u, 0.5)
        assert np.allclose(half.coeffs, jet_sqrt(u).coeffs, atol=1e-14)

    def test_negative_integer_pow(self):
        u = 2.0 + jet_param(0.3, 3)
        inv2 = jet_pow(u, -2)
        assert np.allclose((inv2 * u * u).coeffs, [1, 0, 0, 0], atol=1e-14)

    @pytest.mark.parametrize("p", [65, -65])
    def test_large_integer_pow_of_negative_base(self, p):
        # every integer exponent goes by square-and-multiply, as in the field
        # duals; above 64 this once took exp(p*ln(s)), undefined at s < 0
        jet = eval_expr_jet(parse_expr_text(f"s^({p})", "curve"), -1.1, 3)
        closed = [(-1.1) ** p, p * (-1.1) ** (p - 1)]
        assert np.allclose(jet.coeffs[:2], closed, rtol=1e-13, atol=0.0)

    def test_mixed_order_truncation(self):
        a = jet_param(1.0, 5)
        b = jet_param(1.0, 2)
        assert (a * b).order == 2

    def test_derivative_shift(self):
        # 3s^2 at s=2: value 12, rate 12, half the second derivative 3
        jet = eval_expr_jet(parse_expr_text("s^3", "curve"), 2.0, 4)
        d = jet.derivative()
        assert np.allclose(d.coeffs, [12.0, 12.0, 3.0, 0.0], atol=1e-13)


class TestJetErrors:
    def test_division_by_zero_value(self):
        with pytest.raises(JetDivisionByZero):
            jet_div(jet_constant(1.0, 3), jet_param(0.0, 3) * 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            jet_sqrt(jet_constant(-1.0, 3))
        with pytest.raises(EvalDomainError):
            eval_expr_jet(parse_expr_text("sqrt(s)", "curve"), -2.0, 3)

    def test_ln_domain(self):
        with pytest.raises(EvalDomainError):
            jet_ln(jet_constant(0.0, 3))

    def test_overflow_reported(self):
        with pytest.raises((EvalOverflow, OverflowError)):
            eval_expr_jet(parse_expr_text("exp(exp(exp(s)))", "curve"), 5.0, 3)


def _outcome(op):
    """The bytes of a jet operation's coefficients, or its error's type and message."""
    try:
        with np.errstate(all="ignore"):
            return op().coeffs.tobytes()
    except JetDivisionByZero as exc:
        return type(exc), str(exc)


class TestConstantSeries:
    """A product with, or a quotient by, a constant series (batch shape (),
    every higher coefficient an exact zero) scales coefficients, with the
    bytes of the full Cauchy product and division recurrence. The walker
    asks ``_mul`` and ``_div`` to scale where ``_JetAlgebra.series`` holds;
    ``Jet`` arithmetic always runs the full operation."""

    @staticmethod
    def _operands(point: bool) -> list[Jet]:
        """A finite u with signed zeros and a u with an infinite coefficient,
        on a grid of 5 points or at one point of it."""
        u = np.random.default_rng(29).uniform(-2.0, 2.0, (6, 5))
        u[2, 1], u[3, 2] = -0.0, 0.0
        infinite = u.copy()
        infinite[1, 1] = np.inf
        return [Jet(x[:, 1] if point else x) for x in (u, infinite)]

    @pytest.mark.parametrize("point", [False, True], ids=["grid", "point"])
    @pytest.mark.parametrize("orders", [(5, 5), (2, 5), (5, 3)], ids=["c5u5", "c2u5", "c5u3"])
    @pytest.mark.parametrize("tail", [0.0, -0.0, math.nan], ids=["tail+0", "tail-0", "tailnan"])
    @pytest.mark.parametrize("c0", [2.5, -3.0, 0.0, -0.0, math.inf, math.nan])
    def test_scaling_keeps_the_bits(self, c0, tail, orders, point):
        c_order, u_order = orders
        c = Jet([c0] + [tail] * c_order)
        series = _JetAlgebra.series(c.coeffs, known=False)
        assert series == (tail == 0.0)
        for u in self._operands(point):
            u = Jet(u.coeffs[: u_order + 1])
            for a, b, scale in ((c, u, 0), (u, c, 1)):
                full = _outcome(lambda: reference_jet_mul(a, b))
                assert _outcome(lambda: a * b) == _outcome(lambda: Jet(_mul(*_align(a, b), scale if series else None))) == full
            quotient = _outcome(lambda: u / c)
            assert quotient == _outcome(lambda: Jet(_div(*_align(u, c), series))) == _outcome(lambda: reference_jet_div(u, c))
            assert isinstance(quotient, tuple) == (c0 == 0.0)  # a zero divisor raises

    @pytest.mark.parametrize("position", [1, 3, 5])
    def test_a_nonzero_higher_coefficient_takes_the_full_operation(self, position):
        # such as the speed of a curve that is not unit-speed, at one point
        c = jet_constant(2.5, 5)
        c.coeffs[position] = 1.0
        assert not _JetAlgebra.series(c.coeffs, known=False)
        c.coeffs[0] = math.inf  # a value that is not finite: the data tell, whatever is known
        assert not _JetAlgebra.series(c.coeffs, known=True)
        c.coeffs[0] = 2.5
        for u in self._operands(False)[:1] + self._operands(True)[:1]:
            for result, full in (
                (c * u, reference_jet_mul(c, u)),
                (u * c, reference_jet_mul(u, c)),
                (u / c, reference_jet_div(u, c)),
            ):
                assert result.coeffs.tobytes() == full.coeffs.tobytes()
            assert (c * u).coeffs.tobytes() != (u.coeffs * 2.5 + 0.0).tobytes()
            assert (u / c).coeffs.tobytes() != (u.coeffs / 2.5).tobytes()


def _gathered_product(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """c[k] = sum_j T[k, j] a[j] for the Toeplitz matrix T of b, built by hand, zeros above the
    diagonal."""
    m = len(a)
    T = np.zeros((m, m, *b.shape[1:]))
    for k in range(m):
        for j in range(k + 1):
            T[k, j] = b[k - j]
    return np.einsum("kj...,j...->k...", T, a)


class TestCauchyGather:
    """A ``Jet`` product gathers the smaller operand's Toeplitz matrix and
    gives the bytes of one built by hand, signed zeros and infinities
    included."""

    @pytest.mark.parametrize("shape", [(8, 2, 24), (2, 2, 2048), (12, 2, 512), (25, 1, 7)])
    def test_matches_a_hand_built_toeplitz_matrix(self, shape):
        m = shape[0]
        rng = np.random.default_rng(m * shape[1] * shape[2])
        a, b = rng.uniform(-2.0, 2.0, shape), rng.uniform(-2.0, 2.0, (m, 1, shape[2]))
        a[rng.random(shape) < 0.3] = 0.0
        a[rng.random(shape) < 0.3] = -0.0
        b[rng.random(b.shape) < 0.3] = -0.0
        a[:, :, :3], b[:, :, 3:6] = -0.0, -0.0  # whole sums of signed zeros
        b_inf = b.copy()
        b_inf[1 % m, 0, 4], b_inf[m - 1, 0, 5], b_inf[0, 0, 6] = np.inf, -np.inf, np.inf
        a_inf = a.copy()
        a_inf[m - 1, -1, 2], a_inf[1 % m, 0, 3] = -np.inf, np.inf
        with np.errstate(invalid="ignore"):
            for x, y in ((b, a), (b_inf, a), (b, a_inf), (b_inf, a_inf)):
                assert (Jet(y) * Jet(x)).coeffs.tobytes() == _gathered_product(x, y).tobytes()  # spreads x


class TestCurveJets:
    def test_reference_curve_at_zero(self):
        spec = parse_curve_spec(EXAMPLE_DOC)
        jets = eval_curve_jet(spec, 0.0, 1)
        values = [j.value for j in jets]
        rates = [j.coeffs[1] for j in jets]
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert np.allclose(values, [1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(rates, [0.0, inv_sqrt2, inv_sqrt2], atol=1e-15)

    def test_a_checked_component_raises_before_a_later_one_that_fails(self):
        # the second component overflows from s = 1.0 on (its rate 2e308 * s),
        # the third raises from s = 0.5 on; components are checked in order,
        # so the second's overflow comes first, at its own first point
        spec = parse_curve_spec(
            'dimension = 3\ncurve = ["s", "1e308*s*s", "sqrt(0.5 - s)"]\nfield = "x1"\ns_range = [0, 2]\n'
        )
        grid = np.linspace(0.0, 2.0, 5)
        with pytest.raises(EvalOverflow) as exc_info:
            eval_curve_jet(spec, grid)
        assert exc_info.value.grid_index == 2
        assert str(exc_info.value) == "non-finite jet coefficients at s = 1.0"
        # with the components swapped, the domain error is the first check that fails
        swapped = parse_curve_spec(
            'dimension = 3\ncurve = ["s", "sqrt(0.5 - s)", "1e308*s*s"]\nfield = "x1"\ns_range = [0, 2]\n'
        )
        with pytest.raises(EvalDomainError):
            eval_curve_jet(swapped, grid)

    def test_default_order(self):
        assert default_jet_order(3) == 4
        assert default_jet_order(4) == 6
        assert default_jet_order(13) == 24
        assert [frame_jet_order(n) for n in (3, 4, 13)] == [1, 2, 11]
        spec = parse_curve_spec(EXAMPLE_DOC)
        assert eval_curve_jet(spec, 1.0)[0].order == 4


class TestFieldJets:
    def test_reference_field_gradient(self):
        spec = parse_curve_spec(EXAMPLE_DOC)
        fj = eval_field_jet(spec, [1.0, 0.0, 0.0])
        assert np.allclose(fj.gradient, [2.0, 1.0, 0.0], atol=1e-15)

    def test_reference_field_hessian(self):
        spec = parse_curve_spec(EXAMPLE_DOC)
        for point in ([1.0, 0.0, 0.0], [0.3, -2.0, 1.7]):
            fj = eval_field_jet(spec, point)
            assert np.allclose(fj.hessian, np.diag([2.0, 0.0, 2.0]), atol=1e-15)
            assert np.allclose(fj.hessian, fj.hessian.T, atol=0)

    def test_linear_field(self):
        doc = (
            "dimension = 2\n"
            'curve = ["s", "s"]\n'
            'field = "x1 + x2"\n'
            "s_range = [0, 1]\n"
        )
        fj = eval_field_jet(parse_curve_spec(doc), [5.0, -5.0])
        assert fj.value == 0.0
        assert np.allclose(fj.gradient, [1.0, 1.0])
        assert np.allclose(fj.hessian, 0.0)

    def test_product_and_quotient_fields(self):
        doc = (
            "dimension = 2\n"
            'curve = ["s", "s"]\n'
            'field = "x1*x2 / (1 + x1^2)"\n'
            "s_range = [0, 1]\n"
        )
        spec = parse_curve_spec(doc)
        x, y = 0.7, -1.2
        fj = eval_field_jet(spec, [x, y])

        def f(u, v):
            return u * v / (1.0 + u * u)

        h = 1e-5
        grad_fd = [
            (f(x + h, y) - f(x - h, y)) / (2 * h),
            (f(x, y + h) - f(x, y - h)) / (2 * h),
        ]
        assert np.allclose(fj.gradient, grad_fd, atol=1e-9)
        hxx = (f(x + h, y) - 2 * f(x, y) + f(x - h, y)) / h**2
        hxy = (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)) / (
            4 * h * h
        )
        assert np.allclose(fj.hessian[0, 0], hxx, atol=1e-5)
        assert np.allclose(fj.hessian[0, 1], hxy, atol=1e-5)
        assert np.allclose(fj.hessian, fj.hessian.T, atol=0)


class TestAgainstSympy:
    def test_polynomial_exactness(self):
        """Jet coefficients of polynomials match symbolic expansion."""
        import sympy

        s = sympy.Symbol("s")
        rng = np.random.default_rng(7)
        for _ in range(25):
            degree = int(rng.integers(1, 5))
            coeffs = [float(c) for c in rng.uniform(-2, 2, size=degree + 1)]
            source = " + ".join(f"({c!r})*s^{j}" for j, c in enumerate(coeffs))
            expr = parse_expr_text(source, "curve")
            s0 = float(rng.uniform(-2, 2))
            order = degree
            jet = eval_expr_jet(expr, s0, order)
            poly = sum(sympy.Float(c, 17) * s**j for j, c in enumerate(coeffs))
            shifted = sympy.Poly(poly.subs(s, s + s0), s)
            expected = [float(shifted.coeff_monomial(s**j)) for j in range(order + 1)]
            scale = max(1.0, max(abs(e) for e in expected))
            assert np.allclose(jet.coeffs, expected, atol=1e-13 * scale)

    def test_transcendental_against_sympy(self):
        import sympy

        s = sympy.Symbol("s")
        cases = [
            ("sin(s)*exp(s/2)", sympy.sin(s) * sympy.exp(s / 2)),
            ("ln(2 + s^2)", sympy.log(2 + s**2)),
            ("sqrt(1 + cos(s)^2)", sympy.sqrt(1 + sympy.cos(s) ** 2)),
            ("(1 + s^2)^-1", 1 / (1 + s**2)),
        ]
        for source, symbolic in cases:
            expr = parse_expr_text(source, "curve")
            for s0 in (0.0, 0.8, -1.3):
                jet = eval_expr_jet(expr, s0, 5)
                for j in range(6):
                    expected = float(
                        sympy.diff(symbolic, s, j).subs(s, s0) / math.factorial(j)
                    )
                    assert jet.coeffs[j] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _to_sympy(expr, symbols):
    """The sympy expression of a parsed field, one rule per node type; each
    float constant becomes the exact rational it stores."""
    import sympy

    from eikohelix.dsl import Binary, Constant, Coord, Unary

    if isinstance(expr, Constant):
        return sympy.Rational(expr.value)
    if isinstance(expr, Coord):
        return symbols[expr.index - 1]
    if isinstance(expr, Unary):
        child = _to_sympy(expr.child, symbols)
        if expr.op == "neg":
            return -child
        return {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp, "sqrt": sympy.sqrt, "ln": sympy.log}[expr.op](child)
    assert isinstance(expr, Binary), expr
    left, right = _to_sympy(expr.left, symbols), _to_sympy(expr.right, symbols)
    return {"+": left + right, "-": left - right, "*": left * right, "/": left / right, "^": left**right}[expr.op]


class TestFieldAgainstSympy:
    """Gradient and Hessian of composed fields against sympy at 50 digits.

    The field duals hold a function of one dual as a lazy chain of scalars
    and form the gradient and Hessian only where two bases meet, so they
    round differently from the full duals of ``helpers.reference_field_jet``.
    Values must keep the reference's bytes; at each point, each derivative's
    largest error may exceed the reference's own by at most 4 eps of that
    derivative's largest exact entry."""

    # bench/workloads.py's g(R) template with fixed a0..a4, at R = x1^2 + x3^2
    G = (
        "0.758137*sin(R)*exp(1.495465*R) + sqrt(1 + R^2)/(2 + cos(R)) + 0.798253*ln(1 + R^3)"
        " - 1.377785*(R - 1)^3 + exp(-R)*cos(2*R)/sqrt(R) + 1.007198*ln(R + sqrt(R))*sin(R/3)^2"
    )
    FIELDS = {
        "g": "x2 + " + G.replace("R", "(x1^2 + x3^2)"),
        "trig": "exp(sin(x1*x2))/(2 + cos(x3))",
        # full duals added to and taken from lazy chains: scaled, divided,
        # under sin and cos of one argument, cancelled and multiplied
        "parts": "2*(x2 + sin(x1))/3 - cos(x3 + x1^2)*sin(x3 + x1^2) + (x1*x2 + exp(x3)) - x1*x2"
        " + (sin(x1) - x2*x3)*(x1*x3 - cos(x2))",
    }

    @pytest.mark.parametrize("batch", [(), (7,), (3, 4)], ids=["point", "grid", "two_axes"])
    @pytest.mark.parametrize("name", ["g", "trig", "parts"])
    def test_errors_within_the_reference_s(self, name, batch):
        import mpmath
        import sympy

        field = parse_expr_text(self.FIELDS[name], "field", 3)
        symbols = sympy.symbols("x1:4")
        f = _to_sympy(field, symbols)
        gradient = [sympy.diff(f, x) for x in symbols]
        hessian = [[sympy.diff(g, x) for x in symbols] for g in gradient]
        exact_at = sympy.lambdify(symbols, [gradient, hessian], modules="mpmath")
        point = np.random.default_rng(len(batch)).uniform(-1.5, 1.5, size=(*batch, 3))
        spec = parse_curve_spec(EXAMPLE_DOC.replace('"x1^2 + x2 + x3^2"', f'"{self.FIELDS[name]}"'))
        fj, ref = eval_field_jet(spec, point), reference_field_jet(field, point)
        assert np.asarray(fj.value).tobytes() == np.asarray(ref.value).tobytes()
        eps = np.finfo(float).eps
        worst = [-np.inf, -np.inf]  # the largest (error - reference error) / (eps scale)
        with mpmath.workdps(50):

            def max_error(got, truth):
                return float(max(abs(mpmath.mpf(float(a)) - x) for a, x in zip(got.flat, truth)))

            for index in np.ndindex(*batch):
                exact = exact_at(*(mpmath.mpf(float(x)) for x in point[index]))
                derivatives = zip((fj.gradient, fj.hessian), (ref.gradient, ref.hessian), exact)
                for k, (got, want, truth) in enumerate(derivatives):
                    truth = list(np.ravel(np.array(truth, dtype=object)))
                    scale = float(max(abs(x) for x in truth))
                    excess = max_error(got[index], truth) - max_error(want[index], truth)
                    worst[k] = max(worst[k], excess / (eps * scale))
        print(f"{name} {batch}: error over the reference's, in eps of the largest entry: "
              f"gradient {worst[0]:.2f}, Hessian {worst[1]:.2f} (bound 4)")  # fmt: skip
        assert max(worst) <= 4.0


def _sin_cos_taylor(u_coeffs, digits: int = 50) -> tuple[list[float], list[float]]:
    """Taylor coefficients of sin(u) and cos(u) from the float coefficients of u, exact
    in mpmath to ``digits`` digits: exp(i u) = exp(i u_0) sum_m (i p)^m / m! with
    p = u - u_0, which has no constant term, so powers up to the order suffice."""
    import mpmath

    with mpmath.workdps(digits):
        order = len(u_coeffs) - 1
        p = [mpmath.mpf(0)] + [mpmath.mpf(float(c)) for c in u_coeffs[1:]]
        series = term = [mpmath.mpc(1)] + [mpmath.mpc(0)] * order
        for m in range(1, order + 1):
            term = [sum(term[j] * p[k - j] for j in range(k + 1)) * 1j / m for k in range(order + 1)]
            series = [a + b for a, b in zip(series, term)]
        rotated = [mpmath.expj(mpmath.mpf(float(u_coeffs[0]))) * c for c in series]
        return [float(c.imag) for c in rotated], [float(c.real) for c in rotated]


class TestSinCosAgainstMpmath:
    """sin and cos share one stacked recurrence; each series is checked
    against 50-digit Taylor coefficients of a nonlinear u's sine and cosine."""

    @pytest.mark.parametrize("order", [3, 11, 24])
    def test_coefficients(self, order):
        grid = np.linspace(-2.0, 3.0, 6)
        u = eval_expr_jet(parse_expr_text("1.7*s + 0.4*s^2 - exp(s/3)", "curve"), grid, order)
        on_grid = jet_sin(u), jet_cos(u)
        for p in range(len(grid)):
            at_point = Jet(u.coeffs[:, p].copy())
            expected = _sin_cos_taylor(u.coeffs[:, p])
            for got, grid_jet, want in zip((jet_sin(at_point), jet_cos(at_point)), on_grid, expected):
                assert got.shape == ()
                assert got.coeffs.tobytes() == grid_jet.coeffs[:, p].tobytes()
                # ten times the largest error measured, 1.8e-16 of the largest coefficient
                assert np.abs(got.coeffs - want).max() <= 2e-15 * np.abs(want).max()


class TestStackedSinCos:
    """Sines and cosines of several arguments run as one recurrence over a
    stacked batch axis; each series keeps the bits it has alone."""

    AFFINE = ("s", "2*s + 0.5", "-3*s", "0.7*s - 1.1", "5*s", "1e-3*s + 2")
    CURVED = ("s^2", "1.7*s + 0.4*s^2 - exp(s/3)", "sin(2*s)", "s^3 - s", "cos(s)*s", "1/(2 + s^2)")

    @pytest.mark.parametrize("order", [3, 11, 24])
    @pytest.mark.parametrize("texts", [AFFINE, CURVED], ids=["affine", "curved"])
    def test_each_series_keeps_its_bits(self, order, texts):
        grid = np.linspace(-2.0, 3.0, 6)
        exprs = [parse_expr_text(text, "curve") for text in texts]
        for m in range(1, len(exprs) + 1):
            on_grid = [eval_expr_jet(e, grid, order) for e in exprs[:m]]
            algebra = _JetAlgebra(grid, order)
            assert algebra.stack_width >= m  # one call takes all m
            stacked = algebra.sin_cos_stack([u.coeffs for u in on_grid])
            for u, pair in zip(on_grid, stacked):
                for got, want in zip(pair, _sin_cos(u.coeffs)):
                    assert got.flags.c_contiguous
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
            for p in (0, 4):
                at_point = [u.coeffs[:, p].copy() for u in on_grid]
                at_point_stacked = _JetAlgebra(np.asarray(grid[p]), order).sin_cos_stack(at_point)
                for x, pair, grid_pair in zip(at_point, at_point_stacked, stacked):
                    for got, want, column in zip(pair, _sin_cos(x), grid_pair):
                        assert got.shape == (order + 1,)
                        assert got.tobytes() == want.tobytes()
                        assert got.tobytes() == column[:, p].tobytes()


def check_jets_against_richardson(pairs: int, seed: int, rel_tol: float = 1e-6):
    """Compare jet derivative orders 1..3 with Richardson finite differences
    on random expression/point pairs.

    A comparison counts only when the oracle's own two-level error estimate
    resolves the tolerance (an oracle-side criterion, blind to the jet
    value). Returns (counted, attempted).
    """
    from eikohelix.dsl import Param

    rng = np.random.default_rng(seed)
    counted = 0
    attempted = 0
    while counted < pairs:
        attempted += 1
        assert attempted < 20 * pairs, "random generator yields too few usable cases"
        expr = random_expr(rng, depth=3, leaf=Param())
        s0 = float(rng.uniform(-2.0, 2.0))
        try:
            jet = eval_expr_jet(expr, s0, 3)
        except (EvalDomainError, EvalOverflow, JetDivisionByZero, OverflowError):
            continue
        if np.max(np.abs(jet.coeffs)) > 1e6:
            continue

        def value(x, expr=expr):
            return eval_float(expr, x)

        usable = True
        for order in (1, 2, 3):
            exact = jet.coeffs[order] * math.factorial(order)
            scale = max(1.0, abs(exact))
            try:
                fd, err = RICHARDSON[order](value, s0)
            except (EvalDomainError, EvalOverflow, JetDivisionByZero, OverflowError):
                usable = False
                break
            if err > 0.2 * rel_tol * scale:
                usable = False  # oracle cannot resolve the tolerance here
                break
            assert abs(fd - exact) <= rel_tol * scale, (
                f"order {order}: jet {exact} vs fd {fd} (est err {err}) for {expr}"
            )
        if usable:
            counted += 1
    return counted, attempted


class TestAgainstFiniteDifferences:
    def test_random_expressions_match_richardson(self):
        counted, attempted = check_jets_against_richardson(400, seed=12345)
        assert counted == 400
        assert counted / attempted > 0.5, "oracle rejected too many cases"
