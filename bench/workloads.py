"""Benchmark inputs and their known answers.

Every workload is a list of operations. An operation is one
``eikohelix verify <spec> --json --out <report>`` call, described by the
spec document it reads and by the answer expected from how the spec was
built: the exit code, the classification flags, the eight verdicts, and
a few mean values that follow in closed form from the construction. No
expectation is captured from the program's own output.

This module uses only the standard library and never imports eikohelix, so
the inputs and the oracle stay independent of the code under test.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = {
    "catalog": "the six built-in specs users run today (n = 3-4); frame and curve jets dominate, "
    "and circle_in_r3 takes the degenerate-input path (exit 3)",
    "high_n": "W-curve lift helix and a quadratic-rise non-helix at odd n = 5..13; jet order "
    "reaches 2n-2 and the frame dominates; n = 13 carries the known verdict failures",
    "dense_table": "paper_3_1's curve at 2048 samples with --table and a large field using every "
    "function; field duals, verify and report take their largest share",
    "many_small": "200 small specs (16 samples) made from the seed: rotated, rescaled helices in "
    "R^3 and R^4, half with a quadratic rise; fixed per-spec costs show here",
}

HELIX_VERDICTS = ("thm31", "thm32", "thm33", "cor31")
SLANT_VERDICTS = ("thm41", "thm42", "thm43", "cor41")

_CATALOG_DOCS = {
    # name: (curve, field, s_range, samples); the same documents as
    # ``eikohelix.catalog``, repeated so the inputs do not come from the code
    # under test.
    "paper_3_1": (["cos(s/sqrt(2))", "s/sqrt(2)", "sin(s/sqrt(2))"], "x1^2 + x2 + x3^2", (0, 12.566), 512),
    "helix345_fz": (["3*cos(s/5)", "3*sin(s/5)", "4*s/5"], "x3", (0, 31.4159), 512),
    "wcurve_r4": (["cos(s)", "sin(s)", "0.5*cos(2*s)", "0.5*sin(2*s)"], "x1^2 + x2^2", (0, 6.2832), 512),
    "helix_r4": (
        [
            "sin(0.6)*(sin(4*s)/8 + sin(2*s)/4)",
            "sin(0.6)*(-cos(4*s)/8 - cos(2*s)/4)",
            "-sin(0.6)*cos(s)",
            "cos(0.6)*s",
        ],
        "x4",
        (0.2, 1.3),
        512,
    ),
    "circle_in_r3": (["cos(s)", "sin(s)", "0"], "x3", (0, 6.2832), 64),
    "nonhelix_parabolic": (["cos(s)", "sin(s)", "s^2"], "x3", (0.3, 2.8), 256),
}


def spec_document(curve: list[str], field: str, s_range, samples: int) -> str:
    comps = ", ".join(f'"{c}"' for c in curve)
    return (
        f"dimension = {len(curve)}\n"
        f"curve = [{comps}]\n"
        f'field = "{field}"\n'
        f"s_range = [{s_range[0]!r}, {s_range[1]!r}]\n"
        f"samples = {samples}\n"
    )


def expected_verdicts(helix: bool, slant: bool, parallel: bool) -> dict[str, str]:
    """Verdicts the paper predicts: every identity of a family holds when
    its hypotheses (family flag and a parallel gradient) are met."""
    out = {}
    for names, flag in ((HELIX_VERDICTS, helix), (SLANT_VERDICTS, slant)):
        for name in names:
            out[name] = "PASS" if flag and parallel else "NOT-APPLICABLE"
    return out


def _op(name, curve, field, s_range, samples, *, eikonal, helix, slant, parallel, values, table=False):
    return {
        "name": name,
        "document": spec_document(curve, field, s_range, samples),
        "table": table,
        "points": samples,
        "dimension": len(curve),
        "expect": {
            "exit": 0,
            "flags": {"eikonal": eikonal, "helix": helix, "slant": slant, "parallel_gradient": parallel},
            "verdicts": expected_verdicts(helix, slant, parallel),
            "values": values,
        },
    }


def _catalog(rng: random.Random) -> list[dict]:
    def op(name, **kw):
        return _op(f"catalog/{name}", *_CATALOG_DOCS[name], **kw)

    r2 = 1 / math.sqrt(2)
    ops = [
        # paper_3_1: grad f = (2 cos u, 1, 2 sin u) along the curve, radial
        # in the x1-x3 plane, so <grad, T> = 1/sqrt(2), <grad, B> = -1/sqrt(2)
        # and |grad| = sqrt(5); the Hessian diag(2, 0, 2) is not zero.
        op("paper_3_1", eikonal=True, helix=True, slant=True, parallel=False,
           values={"grad_norm": math.sqrt(5), "ip_tangent": r2, "abs_ip_last": r2}),
        op("helix345_fz", eikonal=True, helix=True, slant=True, parallel=True,
           values={"grad_norm": 1.0, "ip_tangent": 0.8, "abs_ip_last": 0.6}),
        # wcurve_r4 is the orbit of a rotation group that leaves x1^2 + x2^2
        # invariant, so every <grad, V_i> is constant; at s = 0 Gram-Schmidt
        # gives V1 . grad = 0 and V4 . grad = -4/sqrt(5).
        op("wcurve_r4", eikonal=True, helix=False, slant=True, parallel=False,
           values={"grad_norm": 2.0, "ip_tangent": 0.0, "abs_ip_last": 4 / math.sqrt(5)}),
        op("helix_r4", eikonal=True, helix=True, slant=False, parallel=True,
           values={"grad_norm": 1.0, "ip_tangent": math.cos(0.6)}),
        op("nonhelix_parabolic", eikonal=True, helix=False, slant=False, parallel=True,
           values={"grad_norm": 1.0}),
    ]
    # Every grid point of the planar circle has alpha''' parallel to alpha',
    # so the first grid point s = 0.0 is the one reported.
    circle = _op("catalog/circle_in_r3", *_CATALOG_DOCS["circle_in_r3"],
                 eikonal=True, helix=False, slant=False, parallel=True, values={})
    circle["points"] = 0
    circle["expect"] = {"exit": 3, "stderr": "derivative 3 linearly dependent on predecessors (at s = 0.0)"}
    ops.append(circle)
    rng.shuffle(ops)
    return ops


def lift_curve(n: int, quadratic: bool) -> list[str]:
    """W-curve lift in R^n, n = 2m + 1: circles of frequency j = 1..m and a
    linear (helix) or quadratic (non-helix) rise in the last coordinate."""
    m = (n - 1) // 2
    comps = []
    for j in range(1, m + 1):
        comps += [f"cos({j}*s)/{j}", f"sin({j}*s)/{j}"]
    comps.append("0.7*s^2" if quadratic else "0.7*s")
    return comps


def _high_n(rng: random.Random) -> list[dict]:
    ops = []
    for n in range(5, 14, 2):
        m = (n - 1) // 2
        # The helix is the orbit of a group (rotation by j*t in plane j,
        # translation by 0.7*t along x_n) that fixes the field x_n, so every
        # <e_n, V_i> is constant; <e_n, V_n> != 0 because e_n is not in the
        # span of alpha'..alpha^(n-1). Hence helix and slant helix.
        ops.append(_op(f"high_n/helix_n{n}", lift_curve(n, False), f"x{n}", (0.3, 2.8), 24,
                       eikonal=True, helix=True, slant=True, parallel=True,
                       values={"grad_norm": 1.0, "ip_tangent": 0.7 / math.sqrt(m + 0.49)}))
        # A quadratic rise makes <e_n, V1> = 1.4 s / speed(s) vary.
        ops.append(_op(f"high_n/nonhelix_n{n}", lift_curve(n, True), f"x{n}", (0.3, 2.8), 24,
                       eikonal=True, helix=False, slant=False, parallel=True,
                       values={"grad_norm": 1.0}))
    rng.shuffle(ops)
    return ops


# g(r) with r = x1^2 + x3^2: uses every function of the expression language.
# The coefficients a0..a4 come from the seed.
_G_TEMPLATE = (
    "{a0}*sin(R)*exp({a1}*R) + sqrt(1 + R^2)/(2 + cos(R)) + {a2}*ln(1 + R^3)"
    " - {a3}*(R - 1)^3 + exp(-R)*cos(2*R)/sqrt(R) + {a4}*ln(R + sqrt(R))*sin(R/3)^2"
)


def _dense_table(rng: random.Random) -> list[dict]:
    a = {f"a{i}": round(rng.uniform(0.5, 1.5), 6) for i in range(5)}
    g = _G_TEMPLATE.format(**a)
    field = "x2 + " + g.replace("R", "(x1^2 + x3^2)")
    # On the curve x1^2 + x3^2 = 1, so grad f = e2 + 2 g'(1) (x1, 0, x3):
    # radial in the x1-x3 plane like paper_3_1's, hence eikonal, helix and
    # slant; g'(1) != 0 makes the Hessian nonzero. g'(1) by complex step.
    funcs = {"sin": cmath.sin, "cos": cmath.cos, "exp": cmath.exp, "sqrt": cmath.sqrt, "ln": cmath.log}
    h = 1e-20
    dg = eval(g.replace("^", "**"), funcs, {"R": 1 + 1j * h}).imag / h  # noqa: S307 (own constant text)
    s0 = round(rng.uniform(0.0, 2 * math.pi * math.sqrt(2)), 6)
    curve = _CATALOG_DOCS["paper_3_1"][0]
    r2 = 1 / math.sqrt(2)
    op = _op("dense_table/paper_3_1_field_g", curve, field, (s0, s0 + 12.566), 2048,
             eikonal=True, helix=True, slant=True, parallel=False, table=True,
             values={"grad_norm": math.sqrt(1 + 4 * dg * dg), "ip_tangent": r2, "abs_ip_last": r2})
    return [op]


def _rotation(rng: random.Random, n: int) -> list[list[float]]:
    """Random orthogonal matrix by Gram-Schmidt on Gaussian rows."""
    rows: list[list[float]] = []
    while len(rows) < n:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        for b in rows:
            d = sum(x * y for x, y in zip(v, b))
            v = [x - d * y for x, y in zip(v, b)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            rows.append([x / norm for x in v])
    return rows


def _linear(coeffs: list[str], terms: list[str]) -> str:
    text = ""
    for c, t in zip(coeffs, terms):
        sign = "-" if c.startswith("-") else "+"
        text += f" {sign} {c.lstrip('-')}*{t}"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


_SMALL_BASES = {
    # name: (components with the axis last, rise, quadratic rise, s_range, cos of axis angle)
    "helix345": (["3*cos(s/5)", "3*sin(s/5)"], "(4*s/5)", "(0.8*s^2)", (0.5, 10.5), 0.8),
    "helix_r4": (_CATALOG_DOCS["helix_r4"][0][:3], "(cos(0.6)*s)", "(cos(0.6)*s^2)", (0.2, 1.3), math.cos(0.6)),
}


def _many_small(rng: random.Random, count: int = 200) -> list[dict]:
    ops = []
    for i in range(count):
        base = "helix345" if i % 2 == 0 else "helix_r4"
        quadratic = (i // 2) % 2 == 1
        planar, rise, qrise, s_range, cos_axis = _SMALL_BASES[base]
        terms = [f"({c})" for c in planar] + [qrise if quadratic else rise]
        n = len(terms)
        q = _rotation(rng, n)
        scale = rng.uniform(0.5, 2.0)
        curve = [_linear([repr(scale * q[r][c]) for c in range(n)], terms) for r in range(n)]
        # The field is the unit linear function along the rotated axis Q e_n.
        field = _linear([repr(q[r][n - 1]) for r in range(n)], [f"x{r + 1}" for r in range(n)])
        # Rotation and scaling keep every angle with the rotated axis, so the
        # flags are the base curve's: helix345 is helix and slant, helix_r4
        # a helix only; a quadratic rise is neither.
        values = {"grad_norm": 1.0} if quadratic else {"grad_norm": 1.0, "ip_tangent": cos_axis}
        ops.append(_op(f"many_small/{i:03d}_{base}{'_quadratic' if quadratic else ''}", curve, field,
                       s_range, 16, eikonal=True, helix=not quadratic,
                       slant=(base == "helix345" and not quadratic), parallel=True, values=values))
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "catalog": _catalog,
    "high_n": _high_n,
    "dense_table": _dense_table,
    "many_small": _many_small,
}


def build(workload: str, seed: int) -> list[dict]:
    """The operations of ``workload``; the same seed gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
