"""Report assembly: verdicts, JSON payloads, and human-readable text.

JSON payloads are plain dicts with a fixed key order and floats left to the
serializer's shortest round-trip formatting, so repeated runs produce
byte-identical output.

The optional per-sample table is held as flat rows of floats and written by
one row template with exactly the bytes ``json.dumps(indent=2)`` gives row
dicts at that depth; floats go through ``%r``, which is ``float.__repr__``,
the function json uses. Any ``indent`` makes CPython's json fall back to its
pure-Python encoder, which would otherwise cost more than every stage of the
computation on a table of a few thousand rows.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .classify import Classification, Trajectory
from .dsl import CurveSpec, format_expr
from .verify import TheoremResiduals

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT-APPLICABLE"


def spec_payload(spec: CurveSpec) -> dict:
    return {
        "dimension": spec.dimension,
        "curve": [format_expr(c) for c in spec.components],
        "field": format_expr(spec.field),
        "s_range": [spec.s_range[0], spec.s_range[1]],
        "samples": spec.samples,
        "tol_const": spec.tol_const,
        "tol_frame": spec.tol_frame,
    }


def classification_payload(c: Classification) -> dict:
    return {
        "eikonal": c.eikonal,
        "helix": c.helix,
        "slant": c.slant,
        "parallel_gradient": c.parallel_gradient,
        "theta": c.theta,
        "grad_norm": c.grad_norm,
        "ip_tangent": c.ip_tangent,
        "ip_last": c.ip_last,
        "spreads": {
            "grad_norm": c.spreads["grad_norm"],
            "ip_tangent": c.spreads["ip_tangent"],
            "ip_last": c.spreads["ip_last"],
        },
    }


def residuals_payload(r: TheoremResiduals) -> dict:
    def finite(x: float):
        return x if math.isfinite(x) else None

    return {
        "sys_helix": finite(r.helix.sys_helix),
        "axis_helix": finite(r.helix.axis_helix),
        "sumsq_helix_spread": finite(r.helix.sumsq_helix_spread),
        "tan_identity": finite(r.helix.tan_identity),
        "hn2_min": finite(r.helix.hn2_min),
        "cor31": finite(r.helix.cor31),
        "sys_slant": finite(r.slant.sys_slant),
        "axis_slant": finite(r.slant.axis_slant),
        "sumsq_slant_spread": finite(r.slant.sumsq_slant_spread),
        "hn2star_min": finite(r.slant.hn2star_min),
        "cor41": finite(r.slant.cor41),
        "orth_v2": finite(r.orth_v2),
        "orth_vn1": finite(r.orth_vn1),
    }


def _verdict(met: bool, reason: str, ok: bool) -> dict:
    if not met:
        return {"verdict": NOT_APPLICABLE, "reason": reason}
    return {"verdict": PASS if ok else FAIL}


def verdicts_payload(
    residuals: TheoremResiduals, tol: float, tol_frame: float
) -> dict:
    h = residuals.helix
    s = residuals.slant
    return {
        "thm31": _verdict(h.hypotheses_met, h.reason, h.sys_helix <= tol),
        "thm32": _verdict(h.hypotheses_met, h.reason, h.axis_helix <= tol),
        "thm33": _verdict(
            h.hypotheses_met,
            h.reason,
            h.sumsq_helix_spread <= tol and h.hn2_min > tol_frame,
        ),
        "cor31": _verdict(h.hypotheses_met, h.reason, h.cor31 <= tol),
        "thm41": _verdict(s.hypotheses_met, s.reason, s.sys_slant <= tol),
        "thm42": _verdict(s.hypotheses_met, s.reason, s.axis_slant <= tol),
        "thm43": _verdict(
            s.hypotheses_met,
            s.reason,
            s.sumsq_slant_spread <= tol and s.hn2star_min > tol_frame,
        ),
        "cor41": _verdict(s.hypotheses_met, s.reason, s.cor41 <= tol),
    }


def samples_payload(trajectory: Trajectory) -> list[list[float]]:
    """One flat row of Python floats per grid point.

    A row is s, k_1..k_{n-1}, H_1..H_{n-2}, H*_1..H*_{n-2}, grad_norm,
    ip_tangent, ip_last; ``to_json`` writes it as the object with keys "s",
    "k", "H", "Hstar", "grad_norm", "ip_tangent", "ip_last". A non-finite
    entry raises the ValueError that ``json.dumps(allow_nan=False)`` raises
    for the first one in row order.
    """
    table = np.column_stack(
        (
            trajectory.s,
            trajectory.frenet.curvature_values(),
            trajectory.harmonic.H_values(),
            trajectory.harmonic.Hstar_values(),
            trajectory.grad_norm,
            trajectory.ip_tangent,
            trajectory.ip_last,
        )
    )
    finite = np.isfinite(table)
    if not finite.all():
        bad = float(table.flat[np.flatnonzero(~finite)[0]])
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return table.tolist()


def classify_report(spec: CurveSpec, classification: Classification) -> dict:
    return {
        "spec": spec_payload(spec),
        "classification": classification_payload(classification),
    }


def verify_report(
    spec: CurveSpec,
    classification: Classification,
    residuals: TheoremResiduals,
    tol: float,
    trajectory: Trajectory | None = None,
) -> dict:
    payload = {
        "spec": spec_payload(spec),
        "classification": classification_payload(classification),
        "residuals": residuals_payload(residuals),
        "verdicts": verdicts_payload(residuals, tol, spec.tol_frame),
    }
    if trajectory is not None:
        payload["samples"] = samples_payload(trajectory)
    return payload


def _row_template(n: int) -> str:
    """A ``%``-template of one ``samples`` row as json's indent-2 layout writes it."""

    def numbers(key: str, count: int) -> str:
        return f'      "{key}": [\n' + ",\n".join(["        %r"] * count) + "\n      ]"

    fields = [
        '      "s": %r',
        numbers("k", n - 1),
        numbers("H", n - 2),
        numbers("Hstar", n - 2),
        '      "grad_norm": %r',
        '      "ip_tangent": %r',
        '      "ip_last": %r',
    ]
    return "    {\n" + ",\n".join(fields) + "\n    }"


def to_json(payload: dict) -> str:
    """The report as indented JSON; ``samples``, when present, is the last key."""
    rows = payload.get("samples")
    head = {key: value for key, value in payload.items() if key != "samples"}
    text = json.dumps(head, indent=2, allow_nan=False)
    if rows is None:
        return text + "\n"
    template = _row_template((len(rows[0]) + 1) // 3)  # a row holds 3n - 1 numbers
    table = ",\n".join([template % tuple(row) for row in rows])
    # text ends with the closing "\n}" of the head object
    return f'{text[:-2]},\n  "samples": [\n{table}\n  ]\n}}\n'


# ------------------------------------------------------------- plain text


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def classification_text(c: Classification) -> list[str]:
    lines = [
        f"eikonal            : {_fmt(c.eikonal)}   (grad_norm = {_fmt(c.grad_norm)}, spread = {_fmt(c.spreads['grad_norm'])})",
        f"helix              : {_fmt(c.helix)}   (<grad f, V1> = {_fmt(c.ip_tangent)}, spread = {_fmt(c.spreads['ip_tangent'])})",
        f"slant helix        : {_fmt(c.slant)}   (<grad f, Vn> = {_fmt(c.ip_last)}, spread = {_fmt(c.spreads['ip_last'])})",
        f"parallel gradient  : {_fmt(c.parallel_gradient)}",
        f"theta              : {_fmt(c.theta)}",
    ]
    return lines


def render_classify_text(spec: CurveSpec, classification: Classification) -> str:
    lines = [
        f"curve ({spec.dimension}-dimensional): " + ", ".join(format_expr(c) for c in spec.components),
        f"field: {format_expr(spec.field)}",
        f"grid: {spec.samples} samples on [{_fmt(spec.s_range[0])}, {_fmt(spec.s_range[1])}]",
        "",
    ]
    lines += classification_text(classification)
    return "\n".join(lines) + "\n"


def render_verify_text(payload: dict) -> str:
    spec = payload["spec"]
    lines = [
        f"curve ({spec['dimension']}-dimensional): " + ", ".join(spec["curve"]),
        f"field: {spec['field']}",
        f"grid: {spec['samples']} samples on [{_fmt(spec['s_range'][0])}, {_fmt(spec['s_range'][1])}]",
        "",
        "classification:",
    ]
    c = payload["classification"]
    for key in ("eikonal", "helix", "slant", "parallel_gradient"):
        lines.append(f"  {key:<18}: {_fmt(c[key])}")
    lines.append(f"  {'theta':<18}: {_fmt(c['theta'])}")
    lines.append(f"  {'grad_norm':<18}: {_fmt(c['grad_norm'])}")
    lines.append("")
    lines.append("residuals (grid maxima):")
    for key, value in payload["residuals"].items():
        lines.append(f"  {key:<20}: {_fmt(value)}")
    lines.append("")
    lines.append("verdicts:")
    for key, verdict in payload["verdicts"].items():
        text = verdict["verdict"]
        if "reason" in verdict:
            text += f" ({verdict['reason']})"
        lines.append(f"  {key:<6}: {text}")
    return "\n".join(lines) + "\n"
