"""Shared oracles and fuzz-case generators for the test suite.

Everything here is deliberately independent of the jet pipeline it checks:
derivatives come from Richardson-extrapolated central differences or dense
polynomial fits, frames from plain numpy Gram-Schmidt on those derivatives,
and the synthetic n=4 systems from direct ODE integration of the frame
equations with prescribed curvature functions. Two exceptions reuse the
package's own primitives on purpose: ``sample_point_by_point`` runs its
stages one point at a time, as the reference for which error the batched
sampler reports, and ``reference_curve_jets``/``reference_field_jet`` walk
an expression as a tree, as the reference for the DAG walker; and
``reference_to_json`` with ``reference_samples_payload`` is the report
writer that passes every row dict through ``json.dumps``, as the reference
for the row template.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from eikohelix.classify import Trajectory
from eikohelix.dsl import Binary, Constant, Coord, CurveSpec, Expr, Param, Unary, constant_value
from eikohelix.errors import (
    EvalDomainError,
    EvalError,
    EvalOverflow,
    FrameError,
    raise_first,
    value_at,
)
from eikohelix.frenet import FrenetData, frenet_apparatus
from eikohelix.harmonic import harmonic_data
from eikohelix.jets import (
    FieldJet,
    Jet,
    _Dual2,
    _dual_exp,
    _dual_ln,
    _dual_pow,
    _dual_sqrt,
    _pad_batch,
    default_jet_order,
    eval_curve_jet,
    eval_field_jet,
    jet_constant,
    jet_cos,
    jet_div,
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


# ------------------------------------------------- reference tree walker


def reference_jet_pow(u: Jet, exponent: float) -> Jet:
    """``jet_pow`` as the tree walker used it: square-and-multiply from the
    constant jet 1, squaring once more after the last bit."""
    if exponent == 0:
        return jet_constant(1.0, u.order)
    if float(exponent).is_integer() and abs(exponent) <= 64:
        p = int(exponent)
        if p < 0:
            return jet_div(jet_constant(1.0, u.order), reference_jet_pow(u, -p))
        result = jet_constant(1.0, u.order)
        base = u
        while p:
            if p & 1:
                result = result * base
            base = base * base
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


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


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
        return _BINARY[node.op](left, reference_evaluate(node.right, algebra))
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


def gram_schmidt(vectors: np.ndarray) -> np.ndarray:
    """Orthonormalize rows with one reorthogonalization pass."""
    basis = []
    for v in vectors:
        e = v.astype(float).copy()
        for u in basis:
            e -= (e @ u) * u
        for u in basis:
            e -= (e @ u) * u
        basis.append(e / np.linalg.norm(e))
    return np.array(basis)


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
