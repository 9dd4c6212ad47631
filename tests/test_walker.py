"""The DAG expression walker against the tree walker it replaced.

The walker evaluates each distinct subexpression once, evaluates constant
subexpressions at batch shape (), and multiplies or divides by a constant
by scaling; the field duals carry the batch on the trailing axis and hold
functions of one dual as lazy scalar chains. None of this may change a
number: every jet coefficient and every field value must match the tree
walker of ``helpers.reference_evaluate``, whose field duals carry the
batch on the leading axes and form every gradient and Hessian in full,
byte for byte (so signed zeros count); every field gradient and Hessian
must equal the reference's entry for entry, where only the sign of a zero
may differ; and every failure must raise the same exception type with the
same message and ``grid_index``.
"""

from __future__ import annotations

import copy
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from eikohelix import catalog, jets
from eikohelix.classify import sample_along_curve
from eikohelix.dsl import (
    Binary,
    Constant,
    Coord,
    Param,
    Unary,
    format_document,
    format_expr,
    parse_curve_spec,
    parse_expr_text,
)
from eikohelix.errors import EvalDomainError
from eikohelix.jets import default_jet_order, eval_curve_jet, eval_expr_jet, eval_field_jet

from helpers import reference_curve_jets, reference_field_jet, wcurve_lift

CONSTANTS = (0.0, -0.0, 1.0, 2.0, 0.6, 2.5, 5.0, 1e200, 1e-300, 1e-320, float("inf"), np.pi)
EXPONENTS = (2.0, 3.0, 0.0, 1.0, -1.0, -2.0, 0.5, 1.5, -0.5, 65.0)
UNARY = ("neg", "sin", "cos", "exp", "sqrt", "ln")

# The sin/cos calls of each catalog curve on its own grid: no grid of 64 or
# more points stacks its arguments, and helix_r4 takes sin(0.6) at shape ().
CATALOG_CALLS = {
    "paper_3_1": [(512,)],
    "helix345_fz": [(512,)],
    "wcurve_r4": [(512,), (512,)],
    "helix_r4": [(), (512,), (512,), (512,)],
    "circle_in_r3": [(64,)],
    "nonhelix_parabolic": [(256,)],
}


def _outcome(evaluate):
    """Coefficient bytes of a result, or the identity of the error raised;
    a field's gradient and Hessian are kept as arrays, for ``_same``."""
    try:
        result = evaluate()
    except Exception as exc:  # the comparison is over every exception type
        return ("error", type(exc), str(exc), getattr(exc, "grid_index", None))
    if isinstance(result, list):
        return ("jets", [(j.coeffs.shape, j.coeffs.tobytes()) for j in result])
    return ("field", np.asarray(result.value).tobytes(), result.gradient, result.hessian)


def _same(new, reference) -> bool:
    """Outcomes agree exactly, except that a field's gradient and Hessian
    are compared by value: the lazy chains need not keep the sign of a
    zero entry."""
    if new[0] != "field" or reference[0] != "field":
        return new == reference
    return new[1] == reference[1] and all(np.array_equal(a, b) for a, b in zip(new[2:], reference[2:]))


class _Generator:
    """Random expressions with constants, constant-only subtrees, repeated
    subtrees (shared objects and equal copies), sin/cos pairs, integer,
    negative and fractional powers, and division by constants."""

    def __init__(self, rng: np.random.Generator, symbols):
        self.rng = rng
        self.symbols = symbols
        self.pool = []

    def constant(self):
        return Constant(float(self.rng.choice(CONSTANTS)))

    def leaf(self, constant_only: bool):
        if self.pool and self.rng.random() < 0.3:
            picked = self.pool[self.rng.integers(len(self.pool))]
            if not constant_only or not _has_symbol(picked):
                return copy.deepcopy(picked) if self.rng.random() < 0.5 else picked
        if constant_only or self.rng.random() < 0.4:
            return self.constant()
        return self.symbols[self.rng.integers(len(self.symbols))]

    def expr(self, depth: int, constant_only: bool = False):
        rng = self.rng
        if depth == 0 or rng.random() < 0.2:
            return self.leaf(constant_only)
        kind = rng.integers(7)
        child = self.expr(depth - 1, constant_only or rng.random() < 0.15)
        if kind == 0:
            op = str(rng.choice(UNARY))
            out = Unary(op, child)
            if op in ("sin", "cos"):
                self.pool.append(Unary("cos" if op == "sin" else "sin", child))
        elif kind == 1:
            out = Binary("^", child, Constant(float(rng.choice(EXPONENTS))))
        elif kind == 2:
            out = Binary("/", child, self.expr(1, constant_only=True))
        elif kind == 3:
            out = Binary(str(rng.choice(["*", "-", "+"])), self.constant(), child)
        else:
            other = self.expr(depth - 1, constant_only)
            out = Binary(str(rng.choice(["+", "-", "*", "/"])), child, other)
        if rng.random() < 0.4:
            self.pool.append(out)
        return out


def _has_symbol(expr) -> bool:
    if isinstance(expr, (Param, Coord)):
        return True
    if isinstance(expr, Constant):
        return False
    if isinstance(expr, Unary):
        return _has_symbol(expr.child)
    return _has_symbol(expr.left) or _has_symbol(expr.right)


class _Spec:
    """The parts of a CurveSpec the evaluators read, without its checks."""

    def __init__(self, components, field=None):
        self.components = tuple(components)
        self.dimension = len(components)
        self.field = field


class TestAgainstTreeWalker:
    def test_catalog_specs(self):
        for name in catalog.names():
            spec = parse_curve_spec(catalog.get(name).document)
            grid = np.linspace(spec.s_range[0], spec.s_range[1], spec.samples)
            order = default_jet_order(spec.dimension)
            new = _outcome(lambda: eval_curve_jet(spec, grid, order))
            assert new == _outcome(lambda: reference_curve_jets(spec.components, grid, order)), name
            points = np.stack([np.asarray(j.coeffs[0]) for j in eval_curve_jet(spec, grid, order)], axis=-1)
            new = _outcome(lambda: eval_field_jet(spec, points))
            assert _same(new, _outcome(lambda: reference_field_jet(spec.field, points))), name

    @pytest.mark.parametrize("seed", range(4))
    def test_random_curve_components(self, seed):
        rng = np.random.default_rng(seed)
        outcomes = set()
        for case in range(60):
            gen = _Generator(rng, [Param()])
            exprs = [gen.expr(int(rng.integers(0, 5)), constant_only=rng.random() < 0.1) for _ in range(3)]
            s = np.linspace(-2.0, 3.0, 11) if case % 4 else 0.7
            order = int(rng.choice([1, 2, 5]))
            spec = _Spec(exprs)
            new = _outcome(lambda: eval_curve_jet(spec, s, order))
            assert new == _outcome(lambda: reference_curve_jets(exprs, s, order)), (exprs, s, order)
            outcomes.add(new[0])
            new = _outcome(lambda: [eval_expr_jet(exprs[0], s, order)])
            assert new == _outcome(lambda: reference_curve_jets(exprs[:1], s, order))
        assert outcomes == {"jets", "error"}

    @pytest.mark.parametrize("seed", range(4))
    def test_random_fields(self, seed):
        rng = np.random.default_rng(100 + seed)
        outcomes = set()
        for case in range(60):
            n = int(rng.integers(2, 5))
            gen = _Generator(rng, [Coord(i + 1) for i in range(n)])
            field = gen.expr(int(rng.integers(0, 5)), constant_only=rng.random() < 0.1)
            shape = (9, n) if case % 4 else (n,)
            point = rng.normal(size=shape) * rng.choice([1.0, 3.0, 1e150, 1e160])
            spec = _Spec([Param()] * n, field)
            new = _outcome(lambda: eval_field_jet(spec, point))
            assert _same(new, _outcome(lambda: reference_field_jet(field, point))), (field, point)
            outcomes.add(new[0])
        assert outcomes == {"field", "error"}

    def test_signed_zero_constants_stay_apart(self):
        # 0.0 == -0.0, but s*0.0 and s*-0.0 differ in the sign of zeros
        exprs = [Binary("*", Param(), Constant(0.0)), Binary("*", Param(), Constant(-0.0))]
        s = np.linspace(-1.0, 1.0, 5)
        assert _outcome(lambda: eval_curve_jet(_Spec(exprs), s, 3)) == _outcome(
            lambda: reference_curve_jets(exprs, s, 3)
        )


BATCH_SHAPES = ((), (7,), (3, 4))
BATCH_IDS = ["point", "grid", "two_axes"]


def _field_outcome(field, point):
    """``_outcome`` of ``eval_field_jet``, asserted equal to the reference's,
    with the public shapes and C order of a result checked too."""
    spec = _Spec([Param()] * point.shape[-1], field)
    new = _outcome(lambda: eval_field_jet(spec, point))
    assert _same(new, _outcome(lambda: reference_field_jet(field, point))), (field, point)
    if new[0] == "field":
        fj = eval_field_jet(spec, point)
        batch, n = point.shape[:-1], point.shape[-1]
        assert np.shape(fj.value) == batch
        assert fj.gradient.shape == (*batch, n) and fj.hessian.shape == (*batch, n, n)
        assert fj.gradient.flags.c_contiguous and fj.hessian.flags.c_contiguous
    return new


class TestDualLayout:
    """Batch-last field duals against the batch-first reference at every n
    the pipeline runs and at batch shapes (), (N,) and (3, 4)."""

    @pytest.mark.parametrize("n", range(2, 14))
    def test_random_fields(self, n):
        rng = np.random.default_rng(200 + n)
        outcomes = set()
        for case in range(30):
            gen = _Generator(rng, [Coord(i + 1) for i in range(n)])
            field = gen.expr(int(rng.integers(0, 5)), constant_only=rng.random() < 0.1)
            batch = BATCH_SHAPES[case % 3]
            point = rng.normal(size=(*batch, n)) * rng.choice([1.0, 3.0, 1e150, 1e160])
            outcomes.add((len(batch), _field_outcome(field, point)[0]))
        assert {kind for _, kind in outcomes} == {"field", "error"}
        assert {k for k, kind in outcomes if kind == "field"} == {0, 1, 2}

    @pytest.mark.parametrize("n", range(2, 14))
    @pytest.mark.parametrize("batch", BATCH_SHAPES, ids=BATCH_IDS)
    def test_symbol_and_constant_fields(self, n, batch):
        # the size-1 batch axes of a constant's or a symbol's gradient and
        # Hessian must broadcast out to the whole batch
        point = np.random.default_rng(n).normal(size=(*batch, n))
        for text in (f"x{min(n, 3)}", "2.5", "-0.0*x1"):
            field = parse_expr_text(text, "field", n)
            assert _field_outcome(field, point)[0] == "field", text

    @pytest.mark.parametrize("batch", BATCH_SHAPES, ids=BATCH_IDS)
    @pytest.mark.parametrize(
        "text, x1, x2",
        [
            ("x1*x2 + 1", 1e160, 1.0),
            ("-(x1*x2)", 1e160, 1.0),
            ("2*(x1*x2)", 1e160, 1.0),
            ("(1e200*(x1*x2))^2", 1e-150, 1e-150),
            ("1e200*(1e200*(1e-300*x1*x2))", 1.0, 1.0),
            ("(1e200*(x1*x2))*(1e200*(x1*x2))", 1e-150, 1e-150),
            ("sin(1e200*(x1*x2))", 1e-150, 1e-150),
        ],
        ids=["plus_one", "neg", "scaled", "square", "scaled_twice", "product", "sin"],
    )
    def test_overflow_edges(self, batch, text, x1, x2):
        # where g ⊗ g, or a chain's scalar a² or a·a', overflows though the
        # full duals' gradient and Hessian stay finite, the lazy form must
        # not raise: a zero b adds no b·g ⊗ g, and an overflowing scalar
        # sends the chain to its expansion
        point = np.ones((*batch, 3))
        point[..., 0], point[..., 1] = x1, x2
        assert _field_outcome(parse_expr_text(text, "field", 3), point)[0] == "field"

    def test_hessian_keeps_its_rounding_asymmetry(self):
        # H[i, j] of a product sums A + g_i h_j + g_j h_i and H[j, i] adds
        # the cross terms in the other order, so the two can differ in the
        # last bit; the layout must keep each entry where it was
        field = parse_expr_text("(x1*x2 + x3)*(x2*x3 + x1)", "field", 3)
        point = np.random.default_rng(0).normal(size=(64, 3))
        assert _field_outcome(field, point)[0] == "field"
        hessian = eval_field_jet(_Spec([Param()] * 3, field), point).hessian
        assert (hessian != np.swapaxes(hessian, -1, -2)).any()

    @pytest.mark.parametrize("batch", BATCH_SHAPES, ids=BATCH_IDS)
    @pytest.mark.parametrize(
        "text, bad, expected",
        [
            ("ln(x1) + x2", -1.0, "EvalDomainError"),
            ("x2/(x1 - 1)", 1.0, "JetDivisionByZero"),
            ("x1*x1*x1 + x3", 1e120, "EvalOverflow"),
            ("exp(x1) + x3", 800.0, "EvalOverflow"),
            ("2*ln(x1 + sin(x2))", -5.0, "EvalDomainError"),
        ],
        ids=["ln", "division", "non_finite", "exp", "ln_of_two_bases"],
    )
    def test_errors_name_the_first_bad_point(self, batch, text, bad, expected):
        n = 4
        point = np.random.default_rng(7).uniform(2.0, 3.0, size=(*batch, n))
        flat = point.reshape(-1, n)
        last = len(flat) - 1
        for index in (last, 0):  # set the last bad point first, then an earlier one
            flat[index, 0] = bad
            outcome = _field_outcome(parse_expr_text(text, "field", n), point)
            assert outcome[0] == "error" and outcome[1].__name__ == expected, outcome
            assert outcome[3] == index


class TestSharing:
    @staticmethod
    def _count_sin_cos(monkeypatch) -> list:
        """The batch shape of each ``jets._sin_cos`` call from now on."""
        calls = []
        recurrence = jets._sin_cos

        def counting(u):
            calls.append(u.shape)
            return recurrence(u)

        monkeypatch.setattr(jets, "_sin_cos", counting)
        return calls

    def test_shared_cos_runs_one_recurrence(self, monkeypatch):
        spec = parse_curve_spec(
            "dimension = 3\n"
            'curve = ["3*cos(s/5)", "3*sin(s/5) + cos(s/5)", "4*s/5 - cos(s/5)"]\n'
            'field = "x3"\n'
            "s_range = [0, 31.4159]\n"
        )
        calls = self._count_sin_cos(monkeypatch)
        eval_curve_jet(spec, np.linspace(0.0, 31.4159, 16))
        assert calls == [(16,)]

    def test_lift_stacks_every_argument(self, monkeypatch):
        # cos(j*s)/j and sin(j*s)/j for j = 1..6: six arguments, one stacked recurrence
        spec = wcurve_lift(13, 24)
        grid = np.linspace(spec.s_range[0], spec.s_range[1], spec.samples)
        calls = self._count_sin_cos(monkeypatch)
        eval_curve_jet(spec, grid)
        assert calls == [(6, 24)]
        assert _outcome(lambda: eval_curve_jet(spec, grid)) == _outcome(
            lambda: reference_curve_jets(spec.components, grid, default_jet_order(13))
        )

    @pytest.mark.parametrize(
        "samples, calls",
        [(85, [(6, 85)]), (86, [(86,)] * 6), (256, [(256,)] * 6), (512, [(512,)] * 6)],
        ids=["85", "86", "256", "512"],
    )
    def test_larger_grids_stack_fewer_arguments(self, monkeypatch, samples, calls):
        # a stacked call takes at most jets._STACK_POINTS = 512 points: the six
        # arguments stack on 85 samples, and from 86 on, as 6 * 86 > 512, each
        # runs alone, in tree order
        assert jets._STACK_POINTS == 512
        spec = wcurve_lift(13, samples)
        grid = np.linspace(spec.s_range[0], spec.s_range[1], spec.samples)
        counted = self._count_sin_cos(monkeypatch)
        eval_curve_jet(spec, grid)
        assert counted == calls
        assert _outcome(lambda: eval_curve_jet(spec, grid)) == _outcome(
            lambda: reference_curve_jets(spec.components, grid, default_jet_order(13))
        )

    def test_only_polynomial_arguments_stack(self, monkeypatch):
        texts = ("sin(2*s) + cos(s)", "cos(sin(2*s) - s^2)", "sin(s*cos(s))")
        exprs = [parse_expr_text(text, "curve") for text in texts]
        grid = np.linspace(-1.0, 2.0, 7)
        calls = self._count_sin_cos(monkeypatch)
        eval_curve_jet(_Spec(exprs), grid, 9)
        # parsed apart, the three share no node: 2*s, s, 2*s and s stack, then
        # sin(2*s) - s^2 and s*cos(s), which hold a sine, a cosine or a power,
        # run alone in tree order
        assert calls == [(4, 7), (7,), (7,)]
        assert _outcome(lambda: eval_curve_jet(_Spec(exprs), grid, 9)) == _outcome(
            lambda: reference_curve_jets(exprs, grid, 9)
        )

    def test_errors_keep_their_order(self, monkeypatch):
        """ln(2 - s) comes before the stackable sin(3*s) and cos(s*s) in
        post-order. Their series run first, as one stacked recurrence, but
        cannot raise, so ln's error is the one raised, at the same s."""
        spec = parse_curve_spec(
            "dimension = 3\n"
            'curve = ["ln(2 - s)", "sin(3*s)", "cos(s*s)"]\n'
            'field = "x3"\n'
            "s_range = [1, 3]\n"
            "samples = 9\n"
        )
        dag = jets._Dag(spec.components)
        assert [format_expr(dag.nodes[a]) for a in dag.stacked] == ["3.0 * s", "s * s"]
        grid = np.linspace(1.0, 3.0, 9)
        calls = self._count_sin_cos(monkeypatch)
        with pytest.raises(EvalDomainError) as exc_info:
            sample_along_curve(spec)
        assert str(exc_info.value) == "ln of non-positive jet value 0.0 (while sampling at s = 2.0)"
        assert calls[0] == (2, 9)
        new = _outcome(lambda: eval_curve_jet(spec, grid, 4))
        assert new == _outcome(lambda: reference_curve_jets(spec.components, grid, 4))
        assert new[:4] == ("error", EvalDomainError, "ln of non-positive jet value 0.0", 4)

    def test_parsed_document_shares_nodes(self):
        # a rotated, rescaled helix in R^4 with a quadratic rise, in the
        # style of the benchmark's many_small specs: the rotation is a scaled
        # Hadamard matrix, so every component holds every term
        terms = [
            "sin(0.6)*(sin(4*s)/8 + sin(2*s)/4)",
            "sin(0.6)*(-cos(4*s)/8 - cos(2*s)/4)",
            "-sin(0.6)*cos(s)",
            "cos(0.6)*s^2",
        ]
        signs = ["++++", "+-+-", "++--", "+--+"]
        curve = [
            " ".join(f"{sign} 0.75*({term})" for sign, term in zip(row, terms)).lstrip("+ ")
            for row in signs
        ]
        field = " ".join(f"{row[3]} 0.5*x{r + 1}" for r, row in enumerate(signs)).lstrip("+ ")
        document = {"dimension": 4, "curve": curve, "field": field, "s_range": [0.2, 1.3], "samples": 16}
        spec = parse_curve_spec(format_document(document))

        def subtrees(expr, exponents=True):
            """Every subtree occurrence, pre-order; without the exponents of ^ if asked."""
            yield expr
            if isinstance(expr, Unary):
                yield from subtrees(expr.child, exponents)
            elif isinstance(expr, Binary):
                yield from subtrees(expr.left, exponents)
                if exponents or expr.op != "^":
                    yield from subtrees(expr.right, exponents)

        repeated = parse_expr_text(terms[0], "curve")
        found = [t for c in spec.components for t in subtrees(c) if t == repeated]
        assert len(found) == 4
        assert all(t is found[0] for t in found)
        distinct = {t for c in spec.components for t in subtrees(c, exponents=False)}
        assert len(jets._Dag(spec.components).nodes) == len(distinct)

        coords = parse_expr_text("x3 + x03", "field", 3)
        assert coords.left is coords.right and coords.left == Coord(3)
        doubled = parse_expr_text("2*s + 2*s", "curve")
        assert doubled.left is doubled.right

    @staticmethod
    def _workload_calls(op: dict) -> list[tuple[int, ...]]:
        """The sin/cos calls one benchmark operation's curve makes."""
        group, name = op["name"].split("/")
        if group == "catalog":
            return CATALOG_CALLS[name]
        if group == "high_n":  # cos(j*s) and sin(j*s), j = 1..m, stacked
            return [((op["dimension"] - 1) // 2, op["points"])]
        if group == "dense_table":  # paper_3_1's one argument s/sqrt(2)
            return [(op["points"],)]
        if "helix345" in name:  # one argument s/5
            return [(16,)]
        return [(3, 16), ()]  # 4*s, 2*s and s stacked, then sin(0.6)

    def test_benchmark_traffic_keeps_its_calls(self, monkeypatch):
        """Every curve of the benchmark's four workloads at seed 1 makes the
        sin/cos calls it makes by the stacking rule, and its jets match the
        tree walker bit for bit; a rule that stopped stacking these curves
        fails here."""
        workloads = _bench_workloads()
        ops = [op for workload in workloads.WORKLOADS for op in workloads.build(workload, 1)]
        assert len(ops) == 217
        calls = self._count_sin_cos(monkeypatch)
        for op in ops:
            spec = parse_curve_spec(op["document"])
            grid = np.linspace(spec.s_range[0], spec.s_range[1], spec.samples)
            calls.clear()
            new = _outcome(lambda: eval_curve_jet(spec, grid))
            assert calls == self._workload_calls(op), op["name"]
            order = default_jet_order(spec.dimension)
            assert new == _outcome(lambda: reference_curve_jets(spec.components, grid, order)), op["name"]

    def test_dense_field_expands_where_bases_meet(self, monkeypatch):
        """The benchmark's dense_table field x2 + g(x1^2 + x3^2) at seed 1
        forms gradients and Hessians eight times: x1^2 and x3^2, two lazy
        chains over different coordinates, into R = x1^2 + x3^2, and each
        of g's six top-level terms, all lazy chains over R, where it meets
        the running sum that starts at x2. A change that expanded every
        node would expand dozens."""
        (op,) = _bench_workloads().build("dense_table", 1)
        spec = parse_curve_spec(op["document"])
        expanded = []
        expand = jets._Chain.expand

        def counting(chain):
            expanded.append(chain.base.g.shape)
            return expand(chain)

        monkeypatch.setattr(jets._Chain, "expand", counting)
        for batch in ((), (2048,)):
            expanded.clear()
            eval_field_jet(spec, np.random.default_rng(1).uniform(0.5, 1.0, size=(*batch, 3)))
            assert expanded == [(3, *[1] * len(batch))] * 2 + [(3, *batch)] * 6


def _bench_workloads():
    """The benchmark's workload builder, which uses only the standard library."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    return workloads
