"""Shared oracles and fuzz-case generators for the test suite.

Everything here is deliberately independent of the jet pipeline it checks:
derivatives come from Richardson-extrapolated central differences or dense
polynomial fits, frames from plain numpy Gram-Schmidt on those derivatives,
the W-curve lift's frame, curvatures and harmonic curvatures from a 50-digit
Gram-Schmidt over its closed-form derivatives, and the synthetic n=4 systems
from direct ODE integration of the frame equations with prescribed curvature
functions. These exceptions reuse the
package's own primitives on purpose: ``sample_point_by_point`` runs its
stages one point at a time, as the reference for which error the batched
sampler reports, and ``reference_curve_jets``/``reference_field_jet`` walk
an expression as a tree, as the reference for the DAG walker, with every
jet product a full Cauchy product and every jet quotient the division
recurrence (``reference_jet_mul``/``reference_jet_div``), as the reference
for the scaling by a constant series in ``Jet`` arithmetic; and
``reference_to_json`` with ``reference_samples_payload`` is the report
writer that passes every row dict through ``json.dumps``, as the reference
for the one-join writer; ``reference_frenet_apparatus`` is the jet Gram-Schmidt
frame, each derivative vector at its full order, as the reference for the
Taylor-mode QR; the batch-first ``_Dual2`` is the field-dual algebra before
its batch axes moved last, as the reference for that layout;
``reference_harmonic_tangent``/``reference_harmonic_normal`` with
``reference_lemma_residuals`` write the two harmonic families apart, with
a division at each step, as the reference for their one recurrence over
stacked reciprocals (both call the package's ``_check_curvatures``, so they
raise its order error too, and need no order guard of their own); ``ReferenceExprParser`` parses
``+ - * /`` with one method per precedence level, as the reference for the
parser's one precedence-climbing loop; ``reference_tokenize`` and
``reference_split_list`` scan one character at a time, as the reference for
the scanners' compiled patterns (a ``Token`` equals the plain
``(kind, text, offset)`` tuple of ``dsl._scan``); and ``reference_format_curve_spec`` writes
a document line by line, as the reference for the one document writer.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from eikohelix.classify import Trajectory
from eikohelix.dsl import (
    _MAX_DEPTH,
    FUNCTIONS,
    NAMED_CONSTANTS,
    Binary,
    Constant,
    Coord,
    CurveSpec,
    Expr,
    Param,
    Unary,
    constant_value,
    format_expr,
    is_constant_expr,
    parse_curve_spec,
)
from eikohelix.errors import (
    CoordOutOfRange,
    EvalDomainError,
    EvalError,
    EvalOverflow,
    ExprSyntaxError,
    FrameError,
    IllegalCharacter,
    JetDivisionByZero,
    SpecDocumentError,
    UnknownIdentifier,
    WrongSymbolKind,
    raise_first,
    value_at,
)
from eikohelix.frenet import FrenetData, frenet_apparatus
from eikohelix.harmonic import HarmonicData, _check_curvatures, harmonic_data
from eikohelix.jets import (
    FieldJet,
    Jet,
    _align,
    _cauchy,
    _check_divisor,
    _inner,
    _pad_batch,
    _toeplitz_index,
    default_jet_order,
    eval_curve_jet,
    eval_field_jet,
    jet_constant,
    jet_cos,
    jet_exp,
    jet_ln,
    jet_param,
    jet_sin,
    jet_sqrt,
)


# ------------------------------------------------- plain float evaluation


def eval_float(expr: Expr, s: float | None = None, point=None) -> float:
    """Evaluate an expression with plain math-library floats.

    Independent of the package's jet/dual evaluators; used as the value
    oracle under the finite-difference derivative checks.
    """
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Param):
        return float(s)
    if isinstance(expr, Coord):
        return float(point[expr.index - 1])
    if isinstance(expr, Unary):
        v = eval_float(expr.child, s, point)
        if expr.op == "neg":
            return -v
        return getattr(math, "log" if expr.op == "ln" else expr.op)(v)
    if isinstance(expr, Binary):
        a = eval_float(expr.left, s, point)
        b = eval_float(expr.right, s, point)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            return a / b
        return a**b
    raise TypeError(f"not an Expr: {expr!r}")


# ------------------------------------------------- reference spec language


class Token(NamedTuple):
    kind: str  # num | ident | op | lparen | rparen | end
    text: str
    position: int


def _deeper(tok: Token, depth: int) -> int:
    """``depth + 1``, if that is at most _MAX_DEPTH; ``tok`` is where it is reached."""
    if depth >= _MAX_DEPTH:
        raise ExprSyntaxError(f"expression nests deeper than {_MAX_DEPTH} levels", tok.position)
    return depth + 1


class ReferenceExprParser:
    """Recursive-descent parser with precedence ^ > unary- > */ > +-.

    ``^`` is right-associative and its exponent must be a constant
    expression; the other binary operators are left-associative.

    The methods below ``parse`` return a subexpression with its tree depth
    (a leaf is 1 deep). The parser refuses a tree deeper than _MAX_DEPTH, and
    more than _MAX_DEPTH nested signs, parentheses, function arguments and
    exponents, so that neither it nor the recursive walkers over its trees
    come near Python's recursion limit.
    """

    def __init__(self, tokens: list[Token], kind: str, dimension: int):
        if kind not in ("curve", "field"):
            raise ValueError("kind must be 'curve' or 'field'")
        self.tokens = tokens
        self.kind = kind
        self.dimension = dimension
        self.pos = 0
        self.nesting = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ExprSyntaxError(f"expected {want!r}, found {tok.text or 'end'!r}", tok.position)
        return self.advance()

    def parse(self) -> Expr:
        expr, _ = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r} after expression", tok.position)
        return expr

    def sum(self) -> tuple[Expr, int]:
        expr, depth = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            right, d = self.term()
            expr, depth = Binary(tok.text, expr, right), _deeper(tok, max(depth, d))
        return expr, depth

    def term(self) -> tuple[Expr, int]:
        expr, depth = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            right, d = self.factor()
            expr, depth = Binary(tok.text, expr, right), _deeper(tok, max(depth, d))
        return expr, depth

    def factor(self) -> tuple[Expr, int]:
        tok = self.peek()
        self.nesting = _deeper(tok, self.nesting)
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            expr, depth = self.factor()
            if tok.text == "-":
                expr, depth = Unary("neg", expr), _deeper(tok, depth)
        else:
            expr, depth = self.power()
        self.nesting -= 1
        return expr, depth

    def power(self) -> tuple[Expr, int]:
        base, depth = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent, d = self.factor()  # right-assoc; allows 2^-3 and 2^3^2
            if not is_constant_expr(exponent):
                raise ExprSyntaxError(
                    "exponent of '^' must be a constant expression", tok.position
                )
            try:
                value = constant_value(exponent)
            except (ArithmeticError, ValueError):  # math domain error, overflow, 1/0
                value = math.nan
            if not (isinstance(value, float) and math.isfinite(value)):
                raise ExprSyntaxError("exponent of '^' has no finite real value", tok.position)
            return Binary("^", base, exponent), _deeper(tok, max(depth, d))
        return base, depth

    def atom(self) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "num":
            return Constant(float(tok.text)), 1
        if tok.kind == "lparen":
            expr = self.sum()
            self.expect("rparen")
            return expr
        if tok.kind == "ident":
            return self.identifier(tok)
        raise ExprSyntaxError(f"unexpected {tok.text or 'end'!r}", tok.position)

    def identifier(self, tok: Token) -> tuple[Expr, int]:
        name = tok.text
        if name in FUNCTIONS:
            self.expect("lparen")
            arg, depth = self.sum()
            self.expect("rparen")
            return Unary(name, arg), _deeper(tok, depth)
        if name in NAMED_CONSTANTS:
            return Constant(NAMED_CONSTANTS[name]), 1
        if name == "s":
            if self.kind != "curve":
                raise WrongSymbolKind(
                    "parameter 's' not allowed in a field expression", tok.position
                )
            return Param(), 1
        if name.startswith("x") and name[1:].isdecimal():
            index = int(name[1:])
            if self.kind != "field":
                raise WrongSymbolKind(
                    f"coordinate {name!r} not allowed in a curve component", tok.position
                )
            if not 1 <= index <= self.dimension:
                raise CoordOutOfRange(index, self.dimension, tok.position)
            return Coord(index), 1
        raise UnknownIdentifier(name, tok.position)


def reference_tokenize(source: str) -> list[Token]:
    """``dsl._scan`` as a loop over characters."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token("rparen", ch, i))
            i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and source[i + 1].isdecimal()):
            start = i
            while i < n and source[i].isdecimal():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdecimal():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdecimal():
                    i = j
                    while i < n and source[i].isdecimal():
                        i += 1
            tokens.append(Token("num", source[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(Token("ident", source[start:i], start))
            continue
        raise IllegalCharacter(ch, i)
    tokens.append(Token("end", "", n))
    return tokens


def reference_split_list(body: str, line: int) -> list[str]:
    """``dsl._split_list`` as a loop over characters."""
    items: list[str] = []
    depth = 0
    in_string = False
    current = ""
    for ch in body:
        if in_string:
            current += ch
            if ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
            current += ch
        elif ch == "," and depth == 0:
            items.append(current)
            current = ""
        else:
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            current += ch
    if in_string or depth != 0:
        raise SpecDocumentError("unterminated list or string", line)
    if current.strip():
        items.append(current)
    return items


def reference_format_curve_spec(spec: CurveSpec) -> str:
    """Render a CurveSpec back to document text (parse round-trips)."""
    curve = ", ".join(f'"{format_expr(c)}"' for c in spec.components)
    lines = [
        f"dimension = {spec.dimension}",
        f"curve = [{curve}]",
        f'field = "{format_expr(spec.field)}"',
        f"s_range = [{spec.s_range[0]!r}, {spec.s_range[1]!r}]",
        f"samples = {spec.samples}",
        f"tol_const = {spec.tol_const!r}",
        f"tol_frame = {spec.tol_frame!r}",
    ]
    return "\n".join(lines) + "\n"


# ------------------------------------------------- per-point reference


def sample_point_by_point(spec: CurveSpec) -> None:
    """Run every stage one grid point at a time, in grid order.

    This is the reference for the error rule of ``sample_along_curve``: the
    first point that fails any check raises, and at that point the first
    check in stage order. It returns nothing when no point fails.
    """
    order = default_jet_order(spec.dimension)
    for s in np.linspace(spec.s_range[0], spec.s_range[1], spec.samples):
        s = float(s)
        try:
            jets = eval_curve_jet(spec, s, order)
            harmonic_data(frenet_apparatus(jets, spec.tol_frame, s=s))
            eval_field_jet(spec, [j.value for j in jets])
        except FrameError:
            raise
        except EvalError as exc:
            raise type(exc)(f"{exc} (while sampling at s = {s!r})") from exc


# ------------------------------------------------- reference frame


def _jet_dot(u: Jet, v: Jet) -> Jet:
    """Inner product of vector jets whose first batch axis runs over components."""
    a, b = _align(u, v)
    size = len(a)
    # m[j, i] = sum_c a[j, c] b[i, c]; the product's coefficient k sums m[j, k-j]
    m = np.einsum("jc...,ic...->ji...", a, b)
    padded = np.concatenate([m, np.zeros((size, 1, *m.shape[2:]))], axis=1)
    return Jet(padded[np.arange(size), _toeplitz_index(size)].sum(axis=1))


def reference_frenet_apparatus(curve_jets: list[Jet], s) -> FrenetData:
    """The frame by modified Gram-Schmidt with one reorthogonalization pass
    over jets, each alpha^(i) carried at its full order, 2n-2-i.

    The construction ``frenet_apparatus`` used before its Taylor-mode QR,
    without the cut to ``frame_jet_order`` and without the degeneracy
    checks.
    """
    n = len(curve_jets)
    current = Jet(np.stack([j.coeffs for j in curve_jets], axis=1))
    derivatives = []
    for _ in range(n):
        current = current.derivative()
        derivatives.append(current)
    speed = jet_sqrt(_jet_dot(derivatives[0], derivatives[0]))
    frame: list[Jet] = []
    for vec in derivatives:
        for _ in range(2):
            for basis in frame:
                vec = vec - _jet_dot(vec, basis) * basis
        frame.append(vec / jet_sqrt(_jet_dot(vec, vec)))
    curvatures = [_jet_dot(frame[i].derivative(), frame[i + 1]) / speed for i in range(n - 1)]
    return FrenetData(s=s, speed=speed, frame=frame, curvatures=curvatures)


def wcurve_lift(n: int, samples: int, quadratic: bool = False) -> CurveSpec:
    """The W-curve lift in R^n: cos(j s)/j, sin(j s)/j for j = 1..(n-1)//2,
    then a rise. At odd n it is 0.7 s (a helix) or, if ``quadratic``, 0.7 s^2;
    an even n rises by 0.7 s and 0.3 s^2 in its last two coordinates."""
    components = []
    for j in range(1, (n - 1) // 2 + 1):
        components += [f"cos({j}*s)/{j}", f"sin({j}*s)/{j}"]
    if n % 2 == 0:
        components += ["0.7*s", "0.3*s^2"]
    else:
        components.append("0.7*s^2" if quadratic else "0.7*s")
    curve = ", ".join(f'"{c}"' for c in components)
    return parse_curve_spec(
        f'dimension = {n}\ncurve = [{curve}]\nfield = "x{n}"\n'
        f"s_range = [0.3, 5.9]\nsamples = {samples}\n"
    )


def even_helix(n: int, samples: int = 64, quadratic: bool = False) -> CurveSpec:
    """A helix in R^n at even n >= 4: alpha = (0.6 * integral of gamma, 0.8 s) with the
    unit gamma = (cos s * u, sin s), u the W-curve (cos c_j s, sin c_j s)_{j=1..m} / sqrt(m),
    m = (n - 2) / 2 and c_j = 2j + 1; so cos theta = 0.8 at unit speed. At m = 1 it is
    helix_r4 with sin theta = 0.6. The ``quadratic`` twin rises by 0.8 s + 0.3 s^2."""
    m = (n - 2) // 2
    w = 0.6 / math.sqrt(m)
    components = []
    for c in range(3, 2 * m + 2, 2):
        components += [
            f"{w!r}*(sin({c + 1}*s)/{2 * (c + 1)} + sin({c - 1}*s)/{2 * (c - 1)})",
            f"{w!r}*(-cos({c + 1}*s)/{2 * (c + 1)} - cos({c - 1}*s)/{2 * (c - 1)})",
        ]
    components += ["-0.6*cos(s)", "0.8*s + 0.3*s^2" if quadratic else "0.8*s"]
    curve = ", ".join(f'"{c}"' for c in components)
    return parse_curve_spec(
        f'dimension = {n}\ncurve = [{curve}]\nfield = "x{n}"\n'
        f"s_range = [0.3, 5.9]\nsamples = {samples}\n"
    )


# ------------------------------------------------- reference harmonic families
#
# The two families and their closing residuals as they were written before
# they became one recurrence, kept as the reference for it.


def reference_harmonic_tangent(fr: FrenetData) -> list[Jet]:
    """Tangent-family harmonic curvatures H1..H_{n-2} as jets."""
    _check_curvatures(fr)
    n = fr.dimension
    k = fr.curvatures
    H: list[Jet] = [k[0] / k[1]]
    prev2 = jet_constant(0.0, H[0].order)  # H_0 := 0
    for i in range(2, n - 1):
        rate = H[-1].derivative() / fr.speed
        H_i = (rate + k[i - 1] * prev2) / k[i]
        prev2 = H[-1]
        H.append(H_i)
    return H


def reference_harmonic_normal(fr: FrenetData) -> list[Jet]:
    """Normal-family harmonic curvatures H*_0..H*_{n-2} as jets."""
    _check_curvatures(fr)
    n = fr.dimension
    k = fr.curvatures
    first = k[n - 2] / k[n - 3]
    Hstar: list[Jet] = [jet_constant(0.0, first.order), first]
    for i in range(2, n - 1):
        rate = Hstar[-1].derivative() / fr.speed
        H_i = (k[n - i - 1] * Hstar[-2] - rate) / k[n - i - 2]
        Hstar.append(H_i)
    return Hstar


def reference_lemma_residuals(h: HarmonicData, fr: FrenetData) -> tuple[float, float]:
    """Residuals of the derivative identities closing each family.

    The tangent family satisfies V1[H_{n-2}] = -k_{n-1} * H_{n-3} exactly
    when the curve is a helix; the normal family satisfies
    V1[H*_{n-2}] = k1 * H*_{n-3} exactly when it is a slant helix. Returns
    the absolute residuals (r_tangent, r_normal) at the value level, as
    floats for one point or arrays over the batch.
    """
    n = fr.dimension
    k = fr.curvatures
    H_last_rate = (h.H[-1].derivative() / fr.speed).value
    H_prev = h.H[n - 4].value if n >= 4 else 0.0  # H_{n-3}; zero for n = 3
    r_tangent = abs(H_last_rate + k[n - 2].value * H_prev)

    Hstar_last_rate = (h.Hstar[-1].derivative() / fr.speed).value
    Hstar_prev = h.Hstar[n - 3].value  # H*_{n-3}; Hstar[0] = 0 covers n = 3
    r_normal = abs(Hstar_last_rate - k[0].value * Hstar_prev)
    return r_tangent, r_normal


# ------------------------------------------------- reference duals, batch first
#
# The field duals as they were before the batch axes moved last, kept as
# the reference for the batch-last ``_Dual2`` in ``eikohelix.jets``.


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise outer products of the last axes of a and b."""
    return a[..., :, None] * b[..., None, :]


class _Dual2:
    """Second-order multivariate duals (value, gradient, hessian) over a batch."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g: np.ndarray, h: np.ndarray):
        self.v = np.asarray(v, dtype=float)
        self.g = g
        self.h = h

    @staticmethod
    def constant(value: float, n: int) -> _Dual2:
        return _Dual2(value, np.zeros(n), np.zeros((n, n)))

    def __add__(self, o: _Dual2) -> _Dual2:
        return _Dual2(self.v + o.v, self.g + o.g, self.h + o.h)

    def __sub__(self, o: _Dual2) -> _Dual2:
        return _Dual2(self.v - o.v, self.g - o.g, self.h - o.h)

    def __neg__(self) -> _Dual2:
        return _Dual2(-self.v, -self.g, -self.h)

    def __mul__(self, o: _Dual2) -> _Dual2:
        v, ov = self.v[..., None], o.v[..., None]
        cross = _outer(self.g, o.g)
        return _Dual2(
            self.v * o.v,
            v * o.g + ov * self.g,
            v[..., None] * o.h + ov[..., None] * self.h + cross + np.swapaxes(cross, -1, -2),
        )

    def __truediv__(self, o: _Dual2) -> _Dual2:
        b = o.v
        raise_first(
            b == 0.0,
            lambda i: JetDivisionByZero(f"field division by value {value_at(b, i)!r}"),
        )
        return self * o.chain(1.0 / b, -1.0 / (b * b), 2.0 / b**3)

    def chain(self, f0, f1, f2) -> _Dual2:
        """Apply a scalar function given f(v), f'(v), f''(v)."""
        f1 = np.asarray(f1)[..., None]
        f2 = np.asarray(f2)[..., None, None]
        return _Dual2(f0, f1 * self.g, f1[..., None] * self.h + f2 * _outer(self.g, self.g))


def _dual_pow(u: _Dual2, p: float) -> _Dual2:
    v = u.v
    if p == 0:
        return _Dual2.constant(1.0, u.g.shape[-1])
    if float(p).is_integer():
        p_int = int(p)
        if p_int < 0:
            raise_first(v == 0.0, lambda i: EvalDomainError("negative power of zero"))

        def mono(c: float, e: int):
            # zero coefficient wins before v**e can blow up at v == 0;
            # an overflowing power is inf, which the final finite check reports
            return c * np.power(v, float(e)) if c != 0.0 else 0.0

        return u.chain(np.power(v, float(p_int)), mono(p, p_int - 1), mono(p * (p - 1), p_int - 2))
    raise_first(
        v <= 0.0,
        lambda i: EvalDomainError(f"fractional power of non-positive value {value_at(v, i)!r}"),
    )
    vp = np.power(v, p)
    return u.chain(vp, p * vp / v, p * (p - 1) * vp / (v * v))


def _dual_exp(u: _Dual2) -> _Dual2:
    ev = np.exp(u.v)
    raise_first(
        np.isinf(ev) & np.isfinite(u.v),
        lambda i: EvalOverflow(f"exp overflow at {value_at(u.v, i)!r}"),
    )
    return u.chain(ev, ev, ev)


def _dual_sqrt(u: _Dual2) -> _Dual2:
    v = u.v
    raise_first(
        v <= 0.0, lambda i: EvalDomainError(f"sqrt of non-positive value {value_at(v, i)!r}")
    )
    r = np.sqrt(v)
    return u.chain(r, 0.5 / r, -0.25 / (r * v))


def _dual_ln(u: _Dual2) -> _Dual2:
    v = u.v
    raise_first(
        v <= 0.0, lambda i: EvalDomainError(f"ln of non-positive value {value_at(v, i)!r}")
    )
    return u.chain(np.log(v), 1.0 / v, -1.0 / (v * v))


# ------------------------------------------------- reference tree walker


def reference_jet_mul(u: Jet, v: Jet) -> Jet:
    """The full Cauchy product, whatever the operands hold."""
    return Jet(_cauchy(*_align(u, v)))


def reference_jet_div(num: Jet, den: Jet) -> Jet:
    """``jet_div``'s recurrence, whatever the divisor holds."""
    _check_divisor(den.coeffs[0])
    a, b = _align(num, den)
    q = np.empty(np.broadcast_shapes(a.shape, b.shape))
    q[0] = a[0] / b[0]
    for k in range(1, len(q)):
        q[k] = (a[k] - _inner(b[1 : k + 1], q[k - 1 :: -1])) / b[0]
    return Jet(q)


def reference_jet_pow(u: Jet, exponent: float) -> Jet:
    """``jet_pow`` as the tree walker used it: square-and-multiply from the
    constant jet 1, squaring once more after the last bit."""
    if exponent == 0:
        return jet_constant(1.0, u.order)
    if float(exponent).is_integer():
        p = int(exponent)
        if p < 0:
            return reference_jet_div(jet_constant(1.0, u.order), reference_jet_pow(u, -p))
        result = jet_constant(1.0, u.order)
        base = u
        while p:
            if p & 1:
                result = reference_jet_mul(result, base)
            base = reference_jet_mul(base, base)
            p >>= 1
        return result
    x0 = u.coeffs[0]
    raise_first(
        x0 <= 0.0,
        lambda i: EvalDomainError(
            f"fractional power of non-positive jet value {value_at(x0, i)!r}"
        ),
    )
    return jet_exp(jet_ln(u) * float(exponent))


class ReferenceJetAlgebra:
    """Curve components as jets; a constant is a full-order constant jet."""

    unary = {
        "neg": operator.neg,
        "sin": jet_sin,
        "cos": jet_cos,
        "exp": jet_exp,
        "sqrt": jet_sqrt,
        "ln": jet_ln,
    }
    binary = {"+": operator.add, "-": operator.sub, "*": reference_jet_mul, "/": reference_jet_div}
    power = staticmethod(reference_jet_pow)

    def __init__(self, s: np.ndarray, order: int):
        self.order = order
        self.param = jet_param(s, order)

    def constant(self, value: float) -> Jet:
        return jet_constant(value, self.order)

    def symbol(self, node: Expr) -> Jet:
        if isinstance(node, Coord):
            raise EvalDomainError("coordinate symbol in a curve component")
        return self.param


class ReferenceDualAlgebra:
    """Fields as duals; a constant has an n-vector of zeros as gradient."""

    unary = {
        "neg": operator.neg,
        "sin": lambda u: u.chain(np.sin(u.v), np.cos(u.v), -np.sin(u.v)),
        "cos": lambda u: u.chain(np.cos(u.v), -np.sin(u.v), -np.cos(u.v)),
        "exp": _dual_exp,
        "sqrt": _dual_sqrt,
        "ln": _dual_ln,
    }
    binary = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    power = staticmethod(_dual_pow)

    def __init__(self, point: np.ndarray):
        self.point = point
        self.n = point.shape[-1]

    def constant(self, value: float) -> _Dual2:
        return _Dual2.constant(value, self.n)

    def symbol(self, node: Expr) -> _Dual2:
        if isinstance(node, Param):
            raise EvalDomainError("parameter symbol in a field expression")
        g = np.zeros(self.n)
        g[node.index - 1] = 1.0
        return _Dual2(self.point[..., node.index - 1], g, np.zeros((self.n, self.n)))


def reference_evaluate(node: Expr, algebra):
    """Evaluate an expression tree in the jet or the dual algebra, every
    node where it occurs."""
    if isinstance(node, Constant):
        return algebra.constant(node.value)
    if isinstance(node, (Param, Coord)):
        return algebra.symbol(node)
    if isinstance(node, Unary):
        return algebra.unary[node.op](reference_evaluate(node.child, algebra))
    if isinstance(node, Binary):
        left = reference_evaluate(node.left, algebra)
        if node.op == "^":
            return algebra.power(left, constant_value(node.right))
        return algebra.binary[node.op](left, reference_evaluate(node.right, algebra))
    raise TypeError(f"not an Expr: {node!r}")


def reference_curve_jets(exprs, s, order: int) -> list[Jet]:
    """Jets of curve components by the tree walker, each checked for finite
    coefficients before the next is evaluated."""
    s = np.asarray(s, dtype=float)
    jets = []
    for expr in exprs:
        with np.errstate(all="ignore"):
            result = reference_evaluate(expr, ReferenceJetAlgebra(s, order))
        coeffs = np.broadcast_to(_pad_batch(result.coeffs, s.ndim), (order + 1, *s.shape)).copy()
        raise_first(
            ~np.isfinite(coeffs).all(axis=0),
            lambda i: EvalOverflow(f"non-finite jet coefficients at s = {value_at(s, i)!r}"),
        )
        jets.append(Jet(coeffs))
    return jets


def reference_field_jet(field: Expr, point) -> FieldJet:
    """Value, gradient and Hessian of a field expression by the tree walker."""
    point = np.asarray(point, dtype=float)
    n = point.shape[-1]
    batch = point.shape[:-1]
    with np.errstate(all="ignore"):
        result = reference_evaluate(field, ReferenceDualAlgebra(point))
    value = np.broadcast_to(result.v, batch).copy()
    gradient = np.broadcast_to(result.g, (*batch, n)).copy()
    hessian = np.broadcast_to(result.h, (*batch, n, n)).copy()
    finite = np.isfinite(value) & np.isfinite(gradient).all(axis=-1)
    finite &= np.isfinite(hessian).all(axis=(-2, -1))
    raise_first(
        ~finite,
        lambda i: EvalOverflow(
            f"non-finite field derivatives at point {point.reshape(-1, n)[i].tolist()!r}"
        ),
    )
    return FieldJet(value=value if batch else float(value), gradient=gradient, hessian=hessian)


# ------------------------------------------------------ reference JSON writer


def reference_samples_payload(trajectory: Trajectory) -> list[dict]:
    """One row dict per grid point; every number a Python float."""
    columns = zip(
        trajectory.s.tolist(),
        trajectory.frenet.curvature_values().tolist(),
        trajectory.harmonic.H_values().tolist(),
        trajectory.harmonic.Hstar_values().tolist(),
        trajectory.grad_norm.tolist(),
        trajectory.ip_tangent.tolist(),
        trajectory.ip_last.tolist(),
    )
    return [
        {"s": s, "k": k, "H": H, "Hstar": Hstar, "grad_norm": g, "ip_tangent": t, "ip_last": last}
        for s, k, H, Hstar, g, t, last in columns
    ]


def reference_to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


# ------------------------------------------------------ finite differences


_EPS = float(np.finfo(float).eps)


def _richardson_tower(d, h: float, roundoff) -> tuple[float, float]:
    """Two Richardson steps over an O(h^2) central difference.

    Returns (value, error_estimate). The estimate combines the gap between
    the last extrapolation levels (truncation) with a roundoff bound at the
    smallest step; both are oracle-side quantities.
    """
    a1, a2, a3 = d(h), d(h / 2.0), d(h / 4.0)
    r1 = (4.0 * a2 - a1) / 3.0
    r2 = (4.0 * a3 - a2) / 3.0
    rr = (16.0 * r2 - r1) / 15.0
    return rr, abs(rr - r2) + roundoff(h / 4.0)


def _adaptive(make_d, f, x: float, steps) -> tuple[float, float]:
    best = None
    for h in steps:
        d, roundoff = make_d(f, x)
        value, err = _richardson_tower(d, h, roundoff)
        if best is None or err < best[1]:
            best = (value, err)
    return best


def _magnitude_tracker(f):
    seen = [1.0]

    def tracked(x):
        y = f(x)
        seen[0] = max(seen[0], abs(y))
        return y

    return tracked, seen


def richardson_d1(f, x: float) -> tuple[float, float]:
    def make_d(f, x):
        tracked, seen = _magnitude_tracker(f)

        def d(s):
            return (tracked(x + s) - tracked(x - s)) / (2.0 * s)

        return d, lambda s: 2.0 * _EPS * seen[0] / (2.0 * s)

    return _adaptive(make_d, f, x, (1e-2, 1e-3))


def richardson_d2(f, x: float) -> tuple[float, float]:
    def make_d(f, x):
        tracked, seen = _magnitude_tracker(f)
        f0 = tracked(x)

        def d(s):
            return (tracked(x + s) - 2.0 * f0 + tracked(x - s)) / s**2

        return d, lambda s: 4.0 * _EPS * seen[0] / s**2

    return _adaptive(make_d, f, x, (3e-2, 4e-3))


def richardson_d3(f, x: float) -> tuple[float, float]:
    def make_d(f, x):
        tracked, seen = _magnitude_tracker(f)

        def d(s):
            return (
                tracked(x + 2 * s) - 2 * tracked(x + s) + 2 * tracked(x - s) - tracked(x - 2 * s)
            ) / (2.0 * s**3)

        return d, lambda s: 3.0 * _EPS * seen[0] / s**3

    return _adaptive(make_d, f, x, (6e-2, 1.2e-2, 2.5e-3))


RICHARDSON = {1: richardson_d1, 2: richardson_d2, 3: richardson_d3}


def fit_derivatives(f, s: float, max_order: int, half: int = 8, h: float = 2.5e-2) -> np.ndarray:
    """Derivatives 0..max_order of a vector function by a local Chebyshev fit.

    The stencil is mapped to [-1, 1] before fitting, which keeps the
    high-degree fit well conditioned.
    """
    from numpy.polynomial import chebyshev as C

    width = half * h
    t = np.arange(-half, half + 1) / half
    ys = np.array([np.asarray(f(s + width * ti), dtype=float) for ti in t])
    out = np.empty((ys.shape[1], max_order + 1))
    for c in range(ys.shape[1]):
        series = C.chebfit(t, ys[:, c], 2 * half)
        for j in range(max_order + 1):
            out[c, j] = C.chebval(0.0, C.chebder(series, j)) / width**j
    return out


# ---------------------------------------------------- brute-force Frenet


def _wcurve_lift_gram_schmidt(n: int, s) -> tuple[list, list]:
    """(V_1..V_n, Gram-Schmidt norms R_1..R_n) of the odd-n W-curve lift at
    the mpmath number s, at the working precision.

    The lift's r-th derivative is j^(r-1) (cos, sin)(j s + r pi/2) in plane
    j, then 0.7 in the last coordinate for r = 1 and 0 after that; the rise
    is float64's 0.7, the number the spec's "0.7*s" evaluates.
    """
    import mpmath

    basis: list = []
    norms = []
    for r in range(1, n + 1):
        e = []
        for j in range(1, (n - 1) // 2 + 1):
            angle = j * s + r * mpmath.pi / 2
            e += [mpmath.mpf(j) ** (r - 1) * mpmath.cos(angle), mpmath.mpf(j) ** (r - 1) * mpmath.sin(angle)]
        e = mpmath.matrix(e + [mpmath.mpf(0.7) if r == 1 else mpmath.mpf(0)])
        for u in basis:
            e -= (e.T * u)[0] * u
        norms.append(mpmath.norm(e))
        basis.append(e / norms[-1])
    return basis, norms


def wcurve_lift_curvatures(n: int, digits: int = 50) -> list:
    """k_1..k_{n-1} of the helix ``wcurve_lift(n, ...)`` at odd n, as mpmath
    numbers correct to about ``digits`` digits.

    The lift is the orbit of a one-parameter group (rotation by j s in
    plane j, translation along x_n), so every k_i is constant.
    Gram-Schmidt over its derivatives at s = 0 gives norms
    R_i = speed^i k_1...k_{i-1}, so k_i = R_{i+1} / (R_i speed).
    """
    import mpmath

    with mpmath.workdps(digits):
        norms = _wcurve_lift_gram_schmidt(n, mpmath.mpf(0))[1]
        return [norms[i + 1] / (norms[i] * norms[0]) for i in range(n - 1)]


def wcurve_lift_reference(n: int, grid, digits: int = 50):
    """(frames, k, H, Hstar) of the helix ``wcurve_lift(n, ...)`` at odd n,
    as mpmath numbers correct to about ``digits`` digits: frames[p][i] is
    V_{i+1} at grid[p], an mpmath column; k, H and Hstar are constant.

    With every k_i constant each rate V1[.] vanishes, so the families'
    recurrences reduce to G_1 = c_1/c_2 and G_i = c_i G_{i-2} / c_{i+1}
    (G_0 = 0), over c = k for H and over k reversed for H*.
    """
    import mpmath

    with mpmath.workdps(digits):
        k = wcurve_lift_curvatures(n, digits)
        frames = [_wcurve_lift_gram_schmidt(n, mpmath.mpf(float(s)))[0] for s in grid]

        def family(c):
            G = [mpmath.mpf(0), c[0] / c[1]]
            for i in range(2, n - 1):
                G.append(c[i - 1] * G[-2] / c[i])
            return G[1:]

        return frames, k, family(k), family(k[::-1])


def fd_frenet(curve_fn, s: float, n: int):
    """Finite-difference Frenet oracle: (frame, curvatures, speed).

    Derivatives come from the local fit; the frame from plain Gram-Schmidt;
    curvatures from the Gram-Schmidt norm ratios k_i = |E_{i+1}|/(|E_i| v),
    which need no differencing of the frame itself.
    """
    derivs = fit_derivatives(curve_fn, s, n)
    speed = float(np.linalg.norm(derivs[:, 1]))
    basis: list[np.ndarray] = []
    norms: list[float] = []
    for i in range(1, n + 1):
        e = derivs[:, i].astype(float).copy()
        for u in basis:
            e -= (e @ u) * u
        for u in basis:
            e -= (e @ u) * u
        norms.append(float(np.linalg.norm(e)))
        basis.append(e / norms[-1])
    frame = np.array(basis)
    curvatures = np.array([norms[i + 1] / (norms[i] * speed) for i in range(n - 1)])
    return frame, curvatures, speed


def classical_kappa_tau(d1: np.ndarray, d2: np.ndarray, d3: np.ndarray) -> tuple[float, float]:
    """3-dimensional curvature and torsion from the cross/det formulas."""
    cross = np.cross(d1, d2)
    cross_norm = np.linalg.norm(cross)
    kappa = cross_norm / np.linalg.norm(d1) ** 3
    tau = float(np.linalg.det(np.array([d1, d2, d3]))) / cross_norm**2
    return float(kappa), tau


# ------------------------------------------------- random expression trees


def lin(coeff: float, expr: Expr) -> Expr:
    return Binary("*", Constant(float(coeff)), expr)


def add_all(terms: list[Expr]) -> Expr:
    acc = terms[0]
    for t in terms[1:]:
        acc = Binary("+", acc, t)
    return acc


def substitute(expr: Expr, leaf) -> Expr:
    """``expr`` with every ``s`` and ``x_i`` node replaced by ``leaf(node)``."""
    if isinstance(expr, (Param, Coord)):
        return leaf(expr)
    if isinstance(expr, Unary):
        return Unary(expr.op, substitute(expr.child, leaf))
    if isinstance(expr, Binary):
        return Binary(expr.op, substitute(expr.left, leaf), substitute(expr.right, leaf))
    return expr


def random_expr(rng: np.random.Generator, depth: int, leaf: Expr) -> Expr:
    """A random safe expression over the given leaf symbol.

    sqrt/ln arguments and divisors are built as (expr^2 + c) with c > 0, so
    any real argument stays inside the domain.
    """
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return leaf
        return Constant(float(rng.uniform(0.3, 2.5)))

    def positive(sub: Expr) -> Expr:
        return Binary("+", Binary("*", sub, sub), Constant(float(rng.uniform(0.5, 1.5))))

    kind = rng.integers(0, 8)
    child = random_expr(rng, depth - 1, leaf)
    if kind == 0:
        return Unary("sin", child)
    if kind == 1:
        return Unary("cos", child)
    if kind == 2:
        return Unary("exp", lin(rng.uniform(-0.4, 0.4), child))
    if kind == 3:
        return Unary("sqrt", positive(child))
    if kind == 4:
        return Unary("ln", positive(child))
    if kind == 5:
        return Binary("^", positive(child), Constant(float(rng.choice([2.0, 3.0, 0.5, 1.5]))))
    other = random_expr(rng, depth - 1, leaf)
    if kind == 6:
        return Binary(rng.choice(["+", "-", "*"]), child, other)
    return Binary("/", child, positive(other))


# ---------------------------------------------------------- fuzz families


def rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random rotation from QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def linear_field(coeffs: np.ndarray, dimension: int) -> Expr:
    return add_all([lin(coeffs[i], Coord(i + 1)) for i in range(dimension)])


@dataclass
class FuzzCase:
    spec: CurveSpec
    axis: np.ndarray  # unit axis of the expected helix structure
    expected_H1: float | None  # tangent-family ratio when constant


def wcurve_helix_r3(rng: np.random.Generator, samples: int = 33) -> FuzzCase:
    """Random unit-speed circular helix in R^3, randomly rotated, with a
    linear field along its axis."""
    kappa = float(rng.uniform(0.2, 2.0))
    tau = float(rng.uniform(0.2, 2.0))
    p = math.hypot(kappa, tau)
    a = kappa / p**2
    c = tau / p
    rot = rotation(rng, 3)
    base = [
        lin(a, Unary("cos", lin(p, Param()))),
        lin(a, Unary("sin", lin(p, Param()))),
        lin(c, Param()),
    ]
    components = tuple(
        add_all([lin(rot[i, j], base[j]) for j in range(3)]) for i in range(3)
    )
    scale = float(rng.uniform(0.5, 3.0))
    axis = rot @ np.array([0.0, 0.0, 1.0])
    spec = CurveSpec(
        dimension=3,
        components=components,
        field=linear_field(scale * axis, 3),
        s_range=(0.0, float(rng.uniform(4.0, 9.0))),
        samples=samples,
    )
    return FuzzCase(spec=spec, axis=axis, expected_H1=kappa / tau)


def lift_helix_r4(rng: np.random.Generator, samples: int = 33) -> FuzzCase:
    """Random proper-4 unit-speed helix: the tangent traces a spherical
    curve at constant latitude around the axis, randomly rotated."""
    a = float(rng.uniform(0.6, 1.3))
    b = float(rng.uniform(2.4, 3.6))
    phi = float(rng.uniform(0.35, 1.15))
    sp, cp = math.sin(phi), math.cos(phi)
    ab, ba = a + b, b - a
    base = [
        lin(
            sp,
            Binary(
                "+",
                Binary("/", Unary("sin", lin(ab, Param())), Constant(2 * ab)),
                Binary("/", Unary("sin", lin(ba, Param())), Constant(2 * ba)),
            ),
        ),
        lin(
            -sp,
            Binary(
                "+",
                Binary("/", Unary("cos", lin(ab, Param())), Constant(2 * ab)),
                Binary("/", Unary("cos", lin(ba, Param())), Constant(2 * ba)),
            ),
        ),
        lin(-sp / a, Unary("cos", lin(a, Param()))),
        lin(cp, Param()),
    ]
    rot = rotation(rng, 4)
    components = tuple(
        add_all([lin(rot[i, j], base[j]) for j in range(4)]) for i in range(4)
    )
    scale = float(rng.uniform(0.5, 3.0))
    axis = rot @ np.array([0.0, 0.0, 0.0, 1.0])
    spec = CurveSpec(
        dimension=4,
        components=components,
        field=linear_field(scale * axis, 4),
        s_range=(0.2, 1.1),
        samples=samples,
    )
    return FuzzCase(spec=spec, axis=axis, expected_H1=None)


def nonhelix_r3(rng: np.random.Generator, samples: int = 33) -> CurveSpec:
    """Perturbed helix that is decisively not a helix for any linear field."""
    a = float(rng.uniform(0.8, 1.5))
    eps = float(rng.uniform(0.15, 0.4))
    components = (
        lin(a, Unary("cos", Param())),
        lin(a, Unary("sin", Param())),
        Binary("+", Param(), lin(eps, Binary("^", Param(), Constant(2.0)))),
    )
    return CurveSpec(
        dimension=3,
        components=components,
        field=Coord(3),
        s_range=(0.2, 2.6),
        samples=samples,
    )


# --------------------------------------------- synthetic n = 4 frame data


def _jet_closure_frame(V: np.ndarray, omega: np.ndarray) -> list[Jet]:
    """Order-1 frame jets over the grid: values from V, first derivatives
    from omega @ V, for (N, n, n) arrays V and omega."""
    rates = omega @ V
    return [Jet(np.stack([V[:, i].T, rates[:, i].T])) for i in range(V.shape[1])]


def _omega(k: np.ndarray) -> np.ndarray:
    n = len(k) + 1
    m = np.zeros((n, n))
    for i, ki in enumerate(k):
        m[i, i + 1] = ki
        m[i + 1, i] = -ki
    return m


@dataclass
class SyntheticSystem:
    trajectory: Trajectory
    axis: np.ndarray
    expected_sumsq: float


def _integrate_frame(curvature_values, grid: np.ndarray, n: int) -> list[np.ndarray]:
    """Frame solutions of V' = Omega(s) V at each grid point (unit speed)."""
    from scipy.integrate import solve_ivp

    def rhs(s, y):
        V = y.reshape(n, n)
        return (_omega(curvature_values(s)) @ V).ravel()

    y0 = np.eye(n).ravel()
    sol = solve_ivp(
        rhs,
        (grid[0], grid[-1]),
        y0,
        t_eval=grid,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    assert sol.success
    return [sol.y[:, j].reshape(n, n) for j in range(len(grid))]


def _build_trajectory(grid, frames, curvature_jets, curvature_values, axis, order=4):
    """Trajectory of a synthetic unit-speed frame system with the constant
    gradient ``axis`` (a parallel field, so the Hessian vanishes)."""
    V = np.array(frames)
    count, n = V.shape[0], V.shape[1]
    omega = np.array([_omega(curvature_values(float(s))) for s in grid])
    fr = FrenetData(
        s=grid,
        speed=jet_constant(1.0, order),
        frame=_jet_closure_frame(V, omega),
        curvatures=curvature_jets(jet_param(grid, order)),
    )
    field = FieldJet(
        value=np.zeros(count),
        gradient=np.tile(axis, (count, 1)),
        hessian=np.zeros((count, n, n)),
    )
    return Trajectory(s=grid, frenet=fr, harmonic=harmonic_data(fr), field=field)


def synthetic_helix_r4(rng: np.random.Generator, count: int = 25) -> SyntheticSystem:
    """n=4 helix-structured frame system with random curvature functions.

    The tangent-family pair (H1, H2) is forced onto the circle of radius T
    by choosing k1 = k2 * T * sin(Psi) with Psi' = k3; the axis is then read
    off the frame coefficients at the left endpoint.
    """
    T = float(rng.uniform(0.4, 1.6))
    c2 = float(rng.uniform(0.8, 2.0))
    w2 = float(rng.uniform(0.3, 1.0))
    c3 = float(rng.uniform(0.6, 1.4))
    w3 = float(rng.uniform(0.3, 1.0))
    psi0 = 0.35
    length = min(0.8 / (c3 * 1.3), 1.2)  # keep Psi inside [0.35, 1.2]

    def psi(sj):
        # integral of k3 = c3 (1 + 0.3 sin(w3 s)) from 0, shifted to psi0
        return c3 * (sj - (0.3 / w3) * jet_cos(sj * w3)) + (psi0 + c3 * 0.3 / w3)

    def k_jets(sj):
        k2 = c2 * (1.0 + 0.25 * jet_sin(sj * w2))
        k3 = c3 * (1.0 + 0.3 * jet_sin(sj * w3))
        k1 = k2 * (T * jet_sin(psi(sj)))
        return [k1, k2, k3]

    def k_values(s):
        return np.array([k.value for k in k_jets(jet_param(float(s), 1))])

    grid = np.linspace(0.0, length, count)
    frames = _integrate_frame(k_values, grid, 4)

    lam = 1.0 / math.sqrt(1.0 + T * T)
    sj0 = jet_param(0.0, 1)
    H1_0 = T * math.sin(psi(sj0).value)
    H2_0 = T * math.cos(psi(sj0).value)
    V0 = frames[0]
    axis = lam * (V0[0] + H1_0 * V0[2] + H2_0 * V0[3])

    trajectory = _build_trajectory(grid, frames, k_jets, k_values, axis)
    return SyntheticSystem(trajectory=trajectory, axis=axis, expected_sumsq=T * T)


def synthetic_slant_r4(rng: np.random.Generator, count: int = 25) -> SyntheticSystem:
    """n=4 slant-structured frame system with random curvature functions.

    The normal-family pair (H*_1, H*_2) is forced onto the circle of radius
    rho/m by choosing k3 = k2 * (rho/m) cos(Phi) with Phi' = k1.
    """
    m = float(rng.uniform(0.45, 0.8))
    rho = math.sqrt(1.0 - m * m)
    c1 = float(rng.uniform(0.6, 1.4))
    w1 = float(rng.uniform(0.3, 1.0))
    c2 = float(rng.uniform(0.8, 2.0))
    w2 = float(rng.uniform(0.3, 1.0))
    phi0 = 0.3
    length = min(0.9 / (c1 * 1.3), 1.2)  # keep Phi inside [0.3, 1.2]

    def phi(sj):
        return c1 * (sj - (0.3 / w1) * jet_cos(sj * w1)) + (phi0 + c1 * 0.3 / w1)

    def k_jets(sj):
        k1 = c1 * (1.0 + 0.3 * jet_sin(sj * w1))
        k2 = c2 * (1.0 + 0.25 * jet_sin(sj * w2))
        k3 = k2 * ((rho / m) * jet_cos(phi(sj)))
        return [k1, k2, k3]

    def k_values(s):
        return np.array([k.value for k in k_jets(jet_param(float(s), 1))])

    grid = np.linspace(0.0, length, count)
    frames = _integrate_frame(k_values, grid, 4)

    sj0 = jet_param(0.0, 1)
    mu1_0 = rho * math.sin(phi(sj0).value)
    mu2_0 = rho * math.cos(phi(sj0).value)
    V0 = frames[0]
    axis = mu1_0 * V0[0] + mu2_0 * V0[1] + m * V0[3]

    trajectory = _build_trajectory(grid, frames, k_jets, k_values, axis)
    return SyntheticSystem(trajectory=trajectory, axis=axis, expected_sumsq=(rho / m) ** 2)
