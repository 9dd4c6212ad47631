"""Truncated Taylor-series (jet) arithmetic and field derivatives.

A :class:`Jet` of order K stores normalized Taylor coefficients
``coeffs[j] = g^(j)(s0) / j!`` of a scalar function of the curve parameter,
for a whole batch of expansion points at once: ``coeffs`` has shape
``(K+1, *batch)``. A jet over a sample grid of N points has shape (K+1, N);
a single expansion point is the batch shape ``()``. Every operation acts
pointwise along the batch with the same arithmetic as for one point, so a
grid costs one pass of array operations instead of one pass per point
(univariate Taylor propagation vectorizes over independent expansion
points). Combining jets of different orders truncates to the smaller
order; batch shapes broadcast, with batch axes aligned from the right.

All operations propagate exactly truncated series, so derivatives of any
derived quantity (speed, curvatures, harmonic curvatures) come out exact to
the carried order rather than finite-differenced.

:class:`FieldJet` carries value, gradient, and Hessian of a scalar field at
a batch of points, propagated through expressions as second-order
multivariate duals. The duals use the jets' layout, coordinate axes first
and batch axes last, so each elementwise op is one loop over the batch;
:func:`eval_field_jet` copies the result once into the public
:class:`FieldJet` shapes, where the batch axes lead. A function of one
dual B is held lazily, as its value and the per-point scalars phi'(B) and
phi''(B), through further functions and ``+ - * /`` among views of B
(accumulating univariate chains before they reach the full derivative;
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008): the
n x n Hessian is formed only where two such bases meet, where a scalar
of a chain overflows, and at the root. Field values take the same
operations either way and keep every bit; gradients and Hessians are
exact to rounding, and do not keep the sign of a zero entry.

One expression walker serves both algebras, and it evaluates a list of
expressions as a DAG (the evaluation procedure of reverse- and
Taylor-mode differentiation): each node is evaluated once per call, across
all components of a curve, and every ``sin`` and ``cos`` of one argument
reads the argument's (sin, cos) pair from one cache, filled once: by one
recurrence in a curve, by one ``np.sin`` and one ``np.cos`` in a field. In
a curve, the pairs of all arguments that are polynomials in s come from
one recurrence over a stacked axis when they fit one call, and each from
its own when they do not. The parser makes
equal subexpressions of one document one node; a tree built in Python
evaluates an equal but distinct copy again, to the same bits. A curve is
walked on coefficient arrays, by the functions :class:`Jet` arithmetic
wraps; a subexpression free of s and x_i has batch shape (). A product
with, or a quotient by, a constant series (every higher coefficient an
exact zero) scales coefficients, not a Cauchy product or division
recurrence, to the plain walk's bits, signed zeros too. The DAG's constant
flag says where; the data are read only past a non-finite value or a power.

Domain and overflow checks act on the whole batch and raise for the first
offending point, with ``grid_index`` set on the error (see
:func:`eikohelix.errors.raise_first`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dsl import BINARY_OPERATORS, Binary, Constant, Coord, CurveSpec, Expr, Param, Unary, constant_value
from .errors import (
    EvalDomainError,
    EvalOverflow,
    InsufficientOrder,
    JetDivisionByZero,
    raise_first,
    raise_first_check,
    value_at,
)


def frame_jet_order(dimension: int) -> int:
    """Jet order of the frame's QR, D = [alpha', ..., alpha^(n)] = Q R: the pipeline's budget.

    Work back from the last consumer. The identities closing both harmonic
    families, V1[H_{n-2}] = -k_{n-1} H_{n-3} and V1[H*_{n-2}] = k_1 H*_{n-3},
    read H_{n-2} and H*_{n-2} to order 1. Each level of the recurrence takes
    one rate V1[.] of the level before, so H_1 = k_1/k_2 and H*_1 are
    needed to order 1 + (n-3) = n-2, and so is every k_i. R gives
    k_i = R_{i+1,i+1} / (R_ii speed) to the order of D's columns, so every
    column is carried to n-2, and to order 1 at n = 2, where the frame
    V_1, V_2 is still formed to order 1. Coefficient k of column i depends
    only on alpha'..alpha^(i) up to order k.
    """
    return max(1, dimension - 2)


def default_jet_order(dimension: int) -> int:
    """Jet order carried through curve evaluation for an n-dimensional curve.

    alpha^(n), the last column of D, must reach the frame budget
    (:func:`frame_jet_order`), so the curve carries n + max(1, n-2): 2n-2
    from n = 3 on, and 3 at n = 2.
    """
    return dimension + frame_jet_order(dimension)


def _scalar(x):
    """A 0-d value as a Python float; batched values stay arrays."""
    return float(x) if np.ndim(x) == 0 else x


class Jet:
    """Normalized truncated Taylor expansions of a scalar in one variable,
    over a batch of expansion points (coefficient axis first)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def shape(self) -> tuple[int, ...]:
        """Batch shape."""
        return self.coeffs.shape[1:]

    @property
    def value(self):
        """Value coefficient: a float for one point, an array for a batch."""
        return _scalar(self.coeffs[0])

    def derivative(self) -> Jet:
        """Jet of the derivative, one order lower."""
        if self.order < 1:
            raise InsufficientOrder("cannot differentiate an order-0 jet")
        return Jet(self.coeffs[1:] * _weights(self.coeffs))

    def __repr__(self) -> str:
        return f"Jet({self.coeffs.tolist()})"

    # arithmetic ------------------------------------------------------

    def __add__(self, other) -> Jet:
        return Jet(np.add(*_align(self, _as_jet(other, self.order))))

    __radd__ = __add__

    def __sub__(self, other) -> Jet:
        return Jet(np.subtract(*_align(self, _as_jet(other, self.order))))

    def __rsub__(self, other) -> Jet:
        return Jet(np.subtract(*_align(self, _as_jet(other, self.order))[::-1]))

    def __mul__(self, other) -> Jet:
        if not isinstance(other, Jet) and np.ndim(other) == 0:
            return Jet(self.coeffs * float(other))  # product with a scalar
        return Jet(_mul(*_align(self, _as_jet(other, self.order))))

    __rmul__ = __mul__

    def __truediv__(self, other) -> Jet:
        return Jet(_div(*_align(self, _as_jet(other, self.order))))

    def __rtruediv__(self, other) -> Jet:
        return _as_jet(other, self.order) / self

    def __neg__(self) -> Jet:
        return Jet(-self.coeffs)


jet_div = Jet.__truediv__  # the truncated quotient of two jets


def jet_constant(value, order: int) -> Jet:
    """Constant jets; ``value`` may be a float or an array of batch values."""
    value = np.asarray(value, dtype=float)
    coeffs = np.zeros((order + 1, *value.shape))
    coeffs[0] = value
    return Jet(coeffs)


def jet_param(s, order: int) -> Jet:
    """The jet of the identity function at expansion point(s) s."""
    coeffs = jet_constant(s, order).coeffs
    if order >= 1:
        coeffs[1] = 1.0
    return Jet(coeffs)


def _as_jet(x, order: int) -> Jet:
    if isinstance(x, Jet):
        return x
    return jet_constant(x, order)


def _pad_batch(coeffs: np.ndarray, ndim: int) -> np.ndarray:
    """View of ``coeffs`` with batch axes padded on the left to ``ndim``."""
    pad = ndim - (coeffs.ndim - 1)
    return coeffs.reshape(coeffs.shape[:1] + (1,) * pad + coeffs.shape[1:]) if pad > 0 else coeffs


def _pad(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient arrays a and b, the one of lower batch rank padded to broadcast with the other."""
    return _pad_batch(a, b.ndim - 1), _pad_batch(b, a.ndim - 1)


def _align(a: Jet, b: Jet) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of a and b at the smaller order, batch axes made to broadcast."""
    k = min(a.order, b.order)
    return _pad(a.coeffs[: k + 1], b.coeffs[: k + 1])


@lru_cache(maxsize=64)
def _toeplitz_index(size: int) -> np.ndarray:
    """index[k, j] = k - j below the diagonal, else ``size`` (a zero row)."""
    k = np.arange(size)
    diff = k[:, None] - k[None, :]
    return np.where(diff >= 0, diff, size)


def _cauchy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated Cauchy product c[k] = sum_j a[j] b[k-j] of aligned coefficients."""
    if b.size > a.size:  # spread the smaller operand into the Toeplitz matrix
        a, b = b, a
    padded = np.zeros((len(b) + 1, *b.shape[1:]))
    padded[:-1] = b
    return np.einsum("kj...,j...->k...", padded.take(_toeplitz_index(len(a)), axis=0), a)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[j] b[j] along the coefficient axis, pointwise over the batch."""
    return np.einsum("j...,j...->...", a, b)


def _weights(coeffs: np.ndarray) -> np.ndarray:
    """j for j = 1..K, shaped to scale coefficient rows 1..K."""
    return np.arange(1, len(coeffs)).reshape(-1, *[1] * (coeffs.ndim - 1))


def _check_divisor(b0, kind: str = "jet") -> None:
    """Raise JetDivisionByZero at the first divisor that is exactly 0; an
    overflowing quotient is left to each stage's finite checks."""
    raise_first(b0 == 0.0, lambda i: JetDivisionByZero(f"{kind} division by value {value_at(b0, i)!r}"))


def _mul(a: np.ndarray, b: np.ndarray, scale: int | None = None) -> np.ndarray:
    """Truncated product of coefficient arrays of one order, batch axes of any two ranks (``_pad``), as for
    every operation below, which the walker runs and Jet arithmetic wraps. ``scale`` names a constant series
    c (0 for a, 1 for b). With a finite u, the Cauchy product sums c0*u_k and exact zeros from +0.0, so u is
    scaled: c0*u_k + 0.0. A non-finite u_j turns a zero into nan, which only the full product gives."""
    if scale is not None:
        c, u = (a, b) if scale == 0 else (b, a)
        if math.isfinite(np.add.reduce(u, None)):  # then u is finite; a sum that overflows costs the full product
            product = u * c[0]
            product += 0.0
            return product
    return _cauchy(*_pad(a, b))


def _div(a: np.ndarray, b: np.ndarray, series: bool = False) -> np.ndarray:
    """Truncated quotient. By a constant series b (``series``), the recurrence subtracts sums of
    exact zeros, +0.0, so q_k = a_k / b0 and a is scaled, unless a non-finite q_j before the last
    turns a zero into nan."""
    _check_divisor(b[0])
    if series:
        q = a / b[0]
        if math.isfinite(np.add.reduce(q[:-1], None)):  # a finite sum: every q_j before the last is finite
            return q
    a, b = _pad(a, b)
    q = np.empty(np.broadcast_shapes(a.shape, b.shape))
    q[0] = a[0] / b[0]
    for k in range(1, len(q)):
        q[k] = (a[k] - _inner(b[1 : k + 1], q[k - 1 :: -1])) / b[0]
    return q


@lru_cache(maxsize=64)
def _sin_cos_divisors(size: int, ndim: int) -> np.ndarray:
    """k for sin_k and -k for cos_k, k < ``size``, shaped for ``ndim``-d coefficients: read-only."""
    divisors = np.multiply.outer([1.0, -1.0], np.arange(size)).reshape(2, size, *[1] * (ndim - 1))
    return np.broadcast_to(divisors, divisors.shape)


def _sin_cos(x: np.ndarray) -> np.ndarray:
    """sin and cos as one recurrence on a stacked axis: k sin_k = sum_j j u_j cos_{k-j} and
    k cos_k = -sum_j j u_j sin_{k-j}, one einsum per order for both series. Each sum runs over
    j in the order it runs for one series alone, and x / -k is -(x / k), so every bit is kept.
    The stacked axis leads, so that each series is contiguous, as it was computed alone.
    Several arguments stacked on a batch axis run as one call, each column with the bits it
    has alone (``_JetAlgebra.sin_cos_stack``)."""
    sc = np.empty((2, *x.shape))  # [(sin, cos), k, *batch]
    sc[:, 0] = np.sin(x[0]), np.cos(x[0])
    weighted = _weights(x) * x[1:]  # j * u_j
    divisors = _sin_cos_divisors(len(x), x.ndim)  # sin_k takes the cos sum over k, cos_k minus the sin sum
    for k in range(1, len(x)):
        np.divide(np.einsum("j...,pj...->p...", weighted[:k], sc[:, k - 1 :: -1])[::-1], divisors[:, k], out=sc[:, k])
    return sc


def _exp(x: np.ndarray) -> np.ndarray:
    e = np.empty_like(x)
    e[0] = np.exp(x[0])
    raise_first(np.isinf(e[0]) & np.isfinite(x[0]), lambda i: EvalOverflow(f"exp overflow at {value_at(x[0], i)!r}"))
    weighted = _weights(x) * x[1:]
    for k in range(1, len(x)):
        e[k] = _inner(weighted[:k], e[k - 1 :: -1]) / k
    return e


def _ln(x: np.ndarray) -> np.ndarray:
    raise_first(x[0] <= 0.0, lambda i: EvalDomainError(f"ln of non-positive jet value {value_at(x[0], i)!r}"))
    w = np.empty_like(x)
    w[0] = np.log(x[0])
    for k in range(1, len(x)):
        acc = _inner(_weights(w[:k]) * w[1:k], x[k - 1 : 0 : -1]) if k > 1 else 0.0
        w[k] = (k * x[k] - acc) / (k * x[0])
    return w


def _sqrt(x: np.ndarray) -> np.ndarray:
    raise_first(x[0] <= 0.0, lambda i: EvalDomainError(f"sqrt of non-positive jet value {value_at(x[0], i)!r}"))
    r = np.empty_like(x)
    r[0] = np.sqrt(x[0])
    for k in range(1, len(x)):
        acc = _inner(r[1:k], r[k - 1 : 0 : -1]) if k > 1 else 0.0
        r[k] = (x[k] - acc) / (2.0 * r[0])
    return r


def _pow(x: np.ndarray, exponent: float) -> np.ndarray:
    """x raised to a constant real power. Every integer exponent, however large, goes by square-and-multiply
    from the constant series 1, so it takes any base, as the field duals' power does; fractional exponents
    require a positive value coefficient."""
    if float(exponent).is_integer():
        p = int(exponent)
        one = jet_constant(1.0, len(x) - 1).coeffs
        if p < 0:
            return _div(one, _pow(x, -p))
        result, base = one, x
        while True:
            if p & 1:
                result = _mul(result, base, 0 if result is one else None)
            p >>= 1
            if not p:
                return result
            base = _mul(base, base)
    raise_first(x[0] <= 0.0, lambda i: EvalDomainError(f"fractional power of non-positive jet value {value_at(x[0], i)!r}"))
    return _exp(_ln(x) * float(exponent))


def _on_jets(f):
    """``f`` of a coefficient array, and of further arguments, as a function of a jet."""
    return lambda u, *args: Jet(f(u.coeffs, *args))


jet_exp, jet_ln, jet_sqrt, jet_pow = map(_on_jets, (_exp, _ln, _sqrt, _pow))
jet_sin, jet_cos = _on_jets(lambda x: _sin_cos(x)[0]), _on_jets(lambda x: _sin_cos(x)[1])


# ------------------------------------------------------------ field duals


@dataclass(frozen=True)
class FieldJet:
    """Value, gradient, and Hessian of a scalar field at a batch of points:
    C-contiguous arrays of shapes (*batch,), (*batch, n) and (*batch, n, n).
    The Hessian is symmetric only up to rounding: entries (i, j) and (j, i)
    sum the same products in different orders and can differ in the last
    bit."""

    value: float | np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise outer products of the first axes of a and b."""
    return a[:, None] * b


def _dual_basis(n: int, batch_ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero Hessian and the unit gradients e_1..e_n (stacked), with size-1
    batch axes; read-only, as one evaluation's duals share them."""
    ones = (1,) * batch_ndim
    basis = np.zeros((n, n, *ones)), np.eye(n).reshape(n, n, *ones)
    for array in basis:
        array.flags.writeable = False
    return basis


def _finite(a, b) -> bool:
    """Whether the scalars a and b are finite at every point. Their sum is
    finite only where both are; a sum that overflows only sends a product
    or a function to its expansion, which is exact either way."""
    return bool(np.isfinite(a + b).all())


def _is_chain(x) -> bool:
    """Whether x is a lazy chain over a base: not a full dual or a constant."""
    return x.base is not None and x.base is not x


def _sum(x, y, op) -> _FieldDual:
    """x + y or x - y, as ``op`` says: views of one base (a constant views
    every base) add their scalars, and where two bases meet both operands
    are expanded."""
    base = y.base if x.base is None else x.base
    if y.base is None or y.base is base:
        return _Chain(op(x.v, y.v), op(x.a, y.a), op(x.b, y.b), base)
    x, y = x.expand(), y.expand()
    return _Dual2(op(x.v, y.v), op(x.g, y.g), op(x.h, y.h))


class _FieldDual:
    """``+ - * /`` of field duals, full or lazy. Values take the same
    operations on either form, and division reaches both through ``chain``."""

    __slots__ = ()

    def __add__(self, o: _FieldDual) -> _FieldDual:
        return _sum(self, o, operator.add)

    def __sub__(self, o: _FieldDual) -> _FieldDual:
        return _sum(self, o, operator.sub)

    def __mul__(self, o: _FieldDual) -> _FieldDual:
        """The product rule, with its second-order terms added in one order.

        Views of one base multiply their scalars, the outer product of two
        gradients becoming a product of two scalars. A chain's scalar times
        another can overflow where the gradients' product does not, so
        there the product is taken again of the expansions. Where two
        bases meet, both operands are expanded."""
        x, y = self, o
        base = y.base if x.base is None else x.base
        if y.base is None or y.base is base:
            cross = x.a * y.a
            a, b = x.v * y.a + y.v * x.a, x.v * y.b + y.v * x.b + cross + cross
            if not (_is_chain(x) or _is_chain(y)) or _finite(a, b):
                return _Chain(x.v * y.v, a, b, base)
            return x.expand() * y.expand()
        x, y = x.expand(), y.expand()
        cross = _outer(x.g, y.g)
        h = x.v * y.h + y.v * x.h + cross + np.swapaxes(cross, 0, 1)
        return _Dual2(x.v * y.v, x.v * y.g + y.v * x.g, h)

    def __truediv__(self, o: _FieldDual) -> _FieldDual:
        b = o.v
        _check_divisor(b, "field")
        return self * o.chain(1.0 / b, -1.0 / (b * b), 2.0 / b**3)


class _Dual2(_FieldDual):
    """Second-order multivariate duals (value, gradient, hessian) over a
    batch, in full.

    As in :class:`Jet`, the coordinate axes lead and the batch axes trail:
    ``v`` has shape (*batch,), ``g`` (n, *batch) and ``h`` (n, n, *batch),
    so every elementwise op is one loop over the batch. A coordinate symbol
    has size-1 batch axes in ``g`` and ``h``. A full dual is the base of the
    lazy chains over it, and views itself as (a, b) = (1, 0).
    """

    __slots__ = ("v", "g", "h")
    a, b = 1.0, 0.0

    def __init__(self, v, g: np.ndarray, h: np.ndarray):
        self.v = np.asarray(v, dtype=float)
        self.g = g
        self.h = h

    @property
    def base(self) -> _Dual2:
        return self

    def expand(self) -> _Dual2:
        return self

    def chain(self, f0, f1, f2) -> _Chain:
        """f of this dual, given f(v), f'(v), f''(v): a lazy chain over it."""
        return _Chain(f0, f1, f2, self)


class _Chain(_FieldDual):
    """phi(B) of a base dual B, held as the value v = phi(B.v) and the
    scalars a = phi'(B.v), b = phi''(B.v) per point, with no gradient or
    Hessian formed.

    A further function f composes by the scalar chain rule, a <- f'·a and
    b <- f''·a² + f'·b. ``expand`` forms g = a·g_B and
    H = a·H_B + b·g_B ⊗ g_B: the chain rule applied to B's full dual at
    once, so a single function of a full dual rounds as full duals do.

    A constant is a chain with no base, which views every base. Its a and b
    are what every entry of its full dual's gradient and Hessian would be:
    zero, or nan where a function of it had a derivative that overflowed.
    It is its own expansion.
    """

    __slots__ = ("v", "a", "b", "base")

    def __init__(self, v, a, b, base: _Dual2 | None):
        self.v = np.asarray(v, dtype=float)
        self.a, self.b, self.base = a, b, base

    def expand(self) -> _FieldDual:
        """The full dual. A b that is zero at every point, as for a sum with
        a constant or a negation, adds no b·g_B ⊗ g_B, which could hold
        overflowed entries where full duals form none."""
        if self.base is None:
            return self
        g, h = self.base.g, self.a * self.base.h
        if np.any(self.b):
            h = h + self.b * _outer(g, g)
        return _Dual2(self.v, self.a * g, h)

    def chain(self, f0, f1, f2) -> _FieldDual:
        """f of this chain, given f(v), f'(v), f''(v), over the same base;
        where a composed scalar overflows (a² can where (a·g_B)² does not),
        over the expansion."""
        a = self.a
        a, b = f1 * a, f2 * (a * a) + f1 * self.b
        if self.base is None or _finite(a, b):
            return _Chain(f0, a, b, self.base)
        return self.expand().chain(f0, f1, f2)


def _constant(value) -> _Chain:
    return _Chain(value, 0.0, 0.0, None)


def _dual_pow(u: _FieldDual, p: float) -> _FieldDual:
    v = u.v
    if p == 0:
        return _constant(1.0)
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


def _dual_exp(u: _FieldDual) -> _FieldDual:
    ev = np.exp(u.v)
    raise_first(
        np.isinf(ev) & np.isfinite(u.v),
        lambda i: EvalOverflow(f"exp overflow at {value_at(u.v, i)!r}"),
    )
    return u.chain(ev, ev, ev)


def _dual_sqrt(u: _FieldDual) -> _FieldDual:
    v = u.v
    raise_first(
        v <= 0.0, lambda i: EvalDomainError(f"sqrt of non-positive value {value_at(v, i)!r}")
    )
    r = np.sqrt(v)
    return u.chain(r, 0.5 / r, -0.25 / (r * v))


def _dual_ln(u: _FieldDual) -> _FieldDual:
    v = u.v
    raise_first(
        v <= 0.0, lambda i: EvalDomainError(f"ln of non-positive value {value_at(v, i)!r}")
    )
    return u.chain(np.log(v), 1.0 / v, -1.0 / (v * v))


# ---------------------------------------------------- expression walker
#
# The walker evaluates every distinct node once, in the order a
# left-to-right post-order walk of the tree first meets it, so checks run
# and raise in the tree's order. A subexpression free of s and x_i is
# evaluated at batch shape ().


# The most points (arguments times batch) that one stacked sin/cos call takes;
# when a curve's polynomial arguments need more, none of them is stacked.
# Stacking saves the Python loop over orders of each argument but not its
# arithmetic, so it pays on small grids and can lose on large ones, the more
# so at high order. Curve jets of the W-curve lift, all arguments stacked, in
# units of one call per argument (fresh processes, median of 5 to 7): at
# n = 13 (six arguments, order 24) x0.46 on 24 points, x0.68 on 85, x0.78 on
# 128, x1.2-1.4 on 512 and x1.74 on 2,048; on 512 points x1.34 at n = 7 and
# x1.57 at n = 9, but x0.92 at n = 5, and x0.88 for helix_r4's three
# arguments at order 6. A rule in points alone cannot follow all of these.
_STACK_POINTS = 512

# The index of each function in an argument's (sin, cos) pair: an int, as a bool index adds an axis to an array.
_TRIG = {"sin": 0, "cos": 1}


class _JetAlgebra:
    """Curve components: jet coefficient arrays of one order in s; a constant's batch shape is ()."""

    unary = {"neg": operator.neg, "exp": _exp, "sqrt": _sqrt, "ln": _ln}
    power = staticmethod(_pow)

    def __init__(self, s: np.ndarray, order: int):
        self.order = order
        self.param = jet_param(s, order).coeffs
        self.stack_width = _STACK_POINTS // max(1, s.size)  # arguments per stacked sin/cos call

    def constant(self, value: float) -> np.ndarray:
        return jet_constant(value, self.order).coeffs

    def symbol(self, node: Expr) -> np.ndarray:
        if isinstance(node, Coord):
            raise EvalDomainError("coordinate symbol in a curve component")
        return self.param

    @staticmethod
    def binary(op: str, x: np.ndarray, y: np.ndarray, x_series: bool, y_series: bool) -> np.ndarray:
        """x op y for ``+ - * /``; a product with, or a quotient by, a constant series scales."""
        if op == "*":
            return _mul(x, y, 0 if x_series else 1 if y_series else None)
        if op == "/":
            return _div(x, y, y_series)
        if x.ndim != y.ndim:  # a constant meets the batch of s
            x, y = _pad(x, y)
        return x + y if op == "+" else x - y

    @staticmethod
    def series(x: np.ndarray, known: bool) -> bool:
        """Whether a constant x has exact zeros past its value: ``known`` (a leaf, or a node other than ``^`` of
        such operands) if x's value is finite, as only exact zeros then sum past it; else its coefficients tell."""
        return known and math.isfinite(x[0]) or not np.count_nonzero(x[1:])

    sin_cos = staticmethod(lambda x: _sin_cos(x))  # the (sin, cos) pair on a leading axis; _sin_cos read at call time

    def sin_cos_stack(self, xs: list[np.ndarray]) -> list[np.ndarray]:
        """The (sin, cos) pair of each of ``xs``, all of batch shape s's, from one ``_sin_cos`` call over a
        stacked batch axis; each pair keeps the bits it has alone, copied out contiguous as it was laid out alone."""
        sc = _sin_cos(np.stack(xs, axis=1))
        return [sc[:, :, i].copy() for i in range(len(xs))]


class _DualAlgebra:
    """Fields: second-order duals in the coordinates x1..xn.

    A coordinate symbol is a full dual; a constant is a lazy chain with no
    base, at batch shape (). A function of a dual and ``+ - * /`` among
    views of one base stay lazy chains of per-point scalars, so a
    subexpression that reaches the coordinates through one dual, as
    g(x1^2 + x3^2) does through its argument, forms no gradient or Hessian
    until it meets another base or is the root (see :class:`_Chain`).
    """

    unary = {"neg": lambda u: u.chain(-u.v, -1.0, 0.0), "exp": _dual_exp, "sqrt": _dual_sqrt, "ln": _dual_ln}
    power = staticmethod(_dual_pow)
    constant = staticmethod(_constant)
    series = staticmethod(lambda x, known: False)  # a product with a constant forms no Cauchy sum
    binary = staticmethod(lambda op, x, y, x_series, y_series: BINARY_OPERATORS[op](x, y))

    def __init__(self, point: np.ndarray):
        self.point = point
        self.zero_h, self.units = _dual_basis(point.shape[-1], point.ndim - 1)

    def symbol(self, node: Expr) -> _Dual2:
        if isinstance(node, Param):
            raise EvalDomainError("parameter symbol in a field expression")
        i = node.index - 1
        return _Dual2(self.point[..., i], self.units[i], self.zero_h)

    @staticmethod
    def sin_cos(u: _FieldDual) -> tuple[_FieldDual, _FieldDual]:
        sin, cos = np.sin(u.v), np.cos(u.v)
        return u.chain(sin, cos, -sin), u.chain(cos, -sin, -cos)


class _Dag:
    """The distinct nodes of a list of expressions, numbered in the order a
    left-to-right post-order walk first meets them.

    A node is distinct by identity: the parser makes equal subexpressions
    of one document one node, and an equal copy built in Python is
    evaluated again, to the same bits. ``nodes[i]`` is node i and
    ``args[i]`` the ids of its operands in the algebra (the exponent of
    ``^`` is read with ``constant_value``). ``const[i]`` says whether it is
    free of s and x_i; ``uses[i]`` how many operand slots and roots read
    it. Expression e has root id ``roots[e]`` and needs the ids below
    ``ends[e]``. ``poly[i]`` says whether node i is a polynomial in s:
    built only from ``+ - *``, ``neg``, ``s`` and constants. In the jet
    algebra such a node cannot raise. ``stacked`` lists the arguments of
    ``sin`` or ``cos`` that are polynomials in s and not constant, in the
    order their first taker is met; each has the batch shape of s.
    """

    def __init__(self, exprs):
        nodes: list[Expr] = []
        args_of: list[tuple[int, ...]] = []
        const: list[bool] = []
        poly: list[bool] = []
        uses: list[int] = []
        ids: dict[int, int] = {}  # id(node) -> its number
        trig: dict[int, None] = {}  # the arguments of sin and cos, an ordered set

        def visit(node: Expr) -> int:
            i = ids.get(key := id(node))
            if i is not None:
                return i
            cls = type(node)
            if cls is Binary:
                args = (visit(node.left),) if node.op == "^" else (visit(node.left), visit(node.right))
            elif cls is Unary:
                args = (visit(node.child),)
            elif cls in (Constant, Coord, Param):
                args = ()
            else:
                raise TypeError(f"not an Expr: {node!r}")
            i = ids[key] = len(nodes)
            nodes.append(node)
            args_of.append(args)
            const.append(const[args[0]] and const[args[-1]] if args else cls is Constant)
            # a polynomial in s: ^'s one operand is its base, and ^ is not in the set
            poly.append(node.op in ("+", "-", "*", "neg") and poly[args[0]] and poly[args[-1]] if args else cls is not Coord)
            uses.append(0)
            for j in args:
                uses[j] += 1
            if cls is Unary and node.op in _TRIG:
                trig[args[0]] = None
            return i

        self.roots: list[int] = []
        self.ends: list[int] = []
        for expr in exprs:
            root = visit(expr)
            uses[root] += 1
            self.roots.append(root)
            self.ends.append(len(nodes))
        self.nodes, self.args, self.const, self.poly, self.uses = nodes, args_of, const, poly, uses
        self.stacked = [a for a in trig if poly[a] and not const[a]]


def _evaluate(exprs, algebra):
    """Yield the value of each expression in turn, in the jet or the dual algebra; a constant
    comes out at batch shape (). Every ``+ - * /`` node runs ``algebra.binary``, told which
    operands are constant series by ``algebra.series``, asked of constant nodes only.

    Each distinct node is evaluated once per call and dropped after its
    last use. A ``sin`` or ``cos`` node reads its argument's (sin, cos)
    pair from one cache keyed by the argument's id: the first node that
    takes the argument fills it with ``algebra.sin_cos``, and the entry
    goes with the argument. When there are two or more arguments in
    ``_Dag.stacked`` and all of them fit one call of
    ``algebra.stack_width``, every polynomial node runs first, in
    post-order, and one stacked recurrence (``_JetAlgebra.sin_cos_stack``)
    fills the cache for all of them; otherwise none is stacked. Polynomial
    nodes cannot raise, so every check still raises in the tree's order.
    """
    dag = _Dag(exprs)
    nodes, args_of, uses, const = dag.nodes, dag.args, dag.uses, dag.const
    values: list = [None] * len(nodes)
    done = [False] * len(nodes)
    series = [False] * len(nodes)
    pairs: dict = {}  # argument id -> its (sin, cos) pair

    def release(j: int) -> None:
        uses[j] -= 1
        if not uses[j]:
            values[j] = None
            pairs.pop(j, None)

    def run(i: int) -> None:
        node, args = nodes[i], args_of[i]
        cls = type(node)
        if cls is Binary:
            x = values[args[0]]
            if node.op == "^":
                value = algebra.power(x, constant_value(node.right))
            else:
                value = algebra.binary(node.op, x, values[args[1]], series[args[0]], series[args[1]])
        elif cls is Unary:
            a = args[0]
            if node.op in _TRIG:
                pair = pairs.get(a)
                if pair is None:
                    pair = pairs[a] = algebra.sin_cos(values[a])
                value = pair[_TRIG[node.op]]
            else:
                value = algebra.unary[node.op](values[a])
        elif cls is Constant:
            value = algebra.constant(node.value)
        else:
            value = algebra.symbol(node)
        values[i] = value
        if const[i]:
            series[i] = algebra.series(value, cls is Constant or node.op != "^" and series[args[0]] and series[args[-1]])
        for j in args:
            release(j)

    stacked = dag.stacked
    if 1 < len(stacked) <= algebra.stack_width:  # a field's list is empty: it has no stack_width
        done = dag.poly
        for i in range(len(nodes)):
            if done[i]:
                run(i)
        pairs.update(zip(stacked, algebra.sin_cos_stack([values[a] for a in stacked])))
    start = 0
    for root, end in zip(dag.roots, dag.ends):
        for i in range(start, end):
            if not done[i]:
                run(i)
        start = end
        value = values[root]
        release(root)
        yield value


def _curve_jets(exprs, s, order: int) -> list[Jet]:
    """Jets of curve-component expressions at expansion point(s) s, in one array checked for
    finite coefficients once, in component order; an error that evaluating component j raises
    comes after the checks of the components before j, as when each was checked in turn."""
    s = np.asarray(s, dtype=float)
    coeffs, done, failure = np.empty((len(exprs), order + 1, *s.shape)), 0, None
    with np.errstate(all="ignore"):
        try:
            for result in _evaluate(exprs, _JetAlgebra(s, order)):
                coeffs[done] = _pad_batch(result, s.ndim)
                done += 1
        except Exception as exc:  # component `done` raised: the ones before it are checked first
            coeffs[done:], failure = 0.0, exc
    raise_first_check(~np.isfinite(coeffs).all(axis=1), lambda j, i: EvalOverflow(f"non-finite jet coefficients at s = {value_at(s, i)!r}"))
    if failure is not None:
        raise failure
    return [Jet(c) for c in coeffs]


def eval_expr_jet(expr: Expr, s, order: int) -> Jet:
    """Evaluate a curve-component expression to jets at expansion point(s) s.

    ``s`` is a float or an array of points; the result has batch shape
    ``np.shape(s)``.
    """
    return _curve_jets([expr], s, order)[0]


def eval_curve_jet(spec: CurveSpec, s, order: int | None = None) -> list[Jet]:
    """Jets of all curve components of ``spec`` at parameter value(s) s.

    Subexpressions shared between components are evaluated once.
    """
    if order is None:
        order = default_jet_order(spec.dimension)
    if order < 1:
        raise InsufficientOrder("curve jets need order >= 1")
    return _curve_jets(spec.components, s, order)


def eval_field_jet(spec: CurveSpec, point) -> FieldJet:
    """Exact value, gradient, and Hessian of the spec's field at ``point``.

    ``point`` has shape (n,) for one point or (*batch, n) for a batch.
    """
    point = np.asarray(point, dtype=float)
    n = spec.dimension
    if point.ndim == 0 or point.shape[-1] != n:
        raise ValueError(f"point must have shape (..., {n}), got {point.shape}")
    batch = point.shape[:-1]
    with np.errstate(all="ignore"):
        (result,) = _evaluate([spec.field], _DualAlgebra(point))
        result = result.expand()
    # one copy each, from the batch-last duals to the public batch-first shapes
    k = len(batch)
    value, gradient, hessian = np.empty(batch), np.empty((*batch, n)), np.empty((*batch, n, n))
    value[...] = result.v
    if result.base is None:  # a constant field
        gradient[...], hessian[...] = result.a, result.b
    else:
        gradient[...] = result.g.transpose(*range(1, k + 1), 0)
        hessian[...] = result.h.transpose(*range(2, k + 2), 0, 1)
    finite = np.isfinite(value) & np.isfinite(gradient).all(axis=-1)
    finite &= np.isfinite(hessian).all(axis=(-2, -1))
    raise_first(
        ~finite,
        lambda i: EvalOverflow(
            f"non-finite field derivatives at point {point.reshape(-1, n)[i].tolist()!r}"
        ),
    )
    return FieldJet(value=_scalar(value), gradient=gradient, hessian=hessian)
