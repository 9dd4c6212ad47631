"""Report assembly: verdicts, JSON payloads, and human-readable text.

JSON payloads are plain dicts with a fixed key order and floats left to the
serializer's shortest round-trip formatting, so repeated runs produce
byte-identical output.

The optional per-sample table is held as one float64 array, a row per grid
point, and written with exactly the bytes ``json.dumps(indent=2)`` gives row
dicts at that depth, by one ``"".join`` over the numbers and the text json
lays between them. Any ``indent`` makes CPython's json fall back to its
pure-Python encoder, which would otherwise cost more than every stage of the
computation on a table of a few thousand rows. Each distinct float64 bit
pattern is formatted once, by ``float.__repr__``, the function json uses: on
a helix the paper's characterizations hold k_i, H_i, H*_i, |grad f|,
<grad f, V1> and <grad f, Vn> constant, so all columns but s repeat a few
values (the benchmark's dense_table table, 2048 x 8, holds 2,102 distinct
values in 16,384 cells). A 2048 x 8 table whose cells are all distinct pays
about 0.5 ms for the deduplication on top of the 11 ms of ``float.__repr__``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .classify import Classification, Trajectory
from .dsl import CurveSpec, spec_payload
from .verify import TheoremResiduals

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT-APPLICABLE"


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
    return {key: value if math.isfinite(value) else None for key, value in r.values.items()}


# verdict -> (family, residual that must be <= tol * its scale, residual that must be > tol_frame)
VERDICT_RULES = {
    "thm31": ("helix", "sys_helix", None),
    "thm32": ("helix", "axis_helix", None),
    "thm33": ("helix", "sumsq_helix_spread", "hn2_min"),
    "cor31": ("helix", "cor31", None),
    "thm41": ("slant", "sys_slant", None),
    "thm42": ("slant", "axis_slant", None),
    "thm43": ("slant", "sumsq_slant_spread", "hn2star_min"),
    "cor41": ("slant", "cor41", None),
}


def verdicts_payload(residuals: TheoremResiduals, tol: float, tol_frame: float) -> dict:
    """PASS/FAIL by VERDICT_RULES, or NOT-APPLICABLE with the family's reason.

    A residual passes when it is at most ``tol`` times its scale in
    ``residuals.scales``; a nan residual fails, so its verdict is FAIL.
    """
    values, scales, payload = residuals.values, residuals.scales, {}
    for name, (family, small, nonzero) in VERDICT_RULES.items():
        reason = residuals.reasons[family]
        if reason:
            payload[name] = {"verdict": NOT_APPLICABLE, "reason": reason}
        else:
            ok = values[small] <= tol * scales[small] and (nonzero is None or values[nonzero] > tol_frame)
            payload[name] = {"verdict": PASS if ok else FAIL}
    return payload


def samples_payload(trajectory: Trajectory) -> np.ndarray:
    """The (N, 3n - 1) float64 table, one row per grid point.

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
    return table


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


def to_json(payload: dict) -> str:
    """The report as indented JSON; ``samples``, when present, is the last key.

    ``samples`` is an array or a list of rows of floats.
    """
    rows = payload.get("samples")
    head = {key: value for key, value in payload.items() if key != "samples"}
    if rows is None or len(rows) == 0:
        return json.dumps(head if rows is None else dict(head, samples=[]), indent=2, allow_nan=False) + "\n"
    text = json.dumps(head, indent=2, allow_nan=False)
    rows = np.asarray(rows, dtype=np.float64)
    # keyed on bits, not on ==: -0.0 == 0.0, but the two print differently
    bits, inverse = np.unique(rows.ravel().view(np.int64), return_inverse=True)
    numbers = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    n = (rows.shape[1] + 1) // 3  # a row holds 3n - 1 numbers
    row = {"s": 0, "k": [0] * (n - 1), "H": [0] * (n - 2), "Hstar": [0] * (n - 2),
           "grad_norm": 0, "ip_tangent": 0, "ip_last": 0}
    # json's layout of two rows cut at their numbers: the opening, the text
    # between two numbers of a row, the joint between rows, and the closing
    pieces = json.dumps({"samples": [row, row]}, indent=2).split("0")
    separators = pieces[len(pieces) // 2 : -1] * len(rows)
    # text ends with the closing "\n}" of the head object, or is "{}" without a head
    separators[0] = f"{text[:-2]},{pieces[0][1:]}" if head else pieces[0]
    parts = [f"{pieces[-1]}\n"] * (2 * len(separators) + 1)
    parts[:-1:2], parts[1::2] = separators, numbers[inverse].tolist()
    return "".join(parts)


# ------------------------------------------------------------- plain text


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _header(spec: dict) -> list[str]:
    """The lines both text reports open with, from a ``spec`` payload."""
    return [
        f"curve ({spec['dimension']}-dimensional): " + ", ".join(spec["curve"]),
        f"field: {spec['field']}",
        f"grid: {spec['samples']} samples on [{_fmt(spec['s_range'][0])}, {_fmt(spec['s_range'][1])}]",
        "",
    ]


def render_classify_text(payload: dict) -> str:
    c = payload["classification"]
    spreads = c["spreads"]
    lines = _header(payload["spec"]) + [
        f"eikonal            : {_fmt(c['eikonal'])}   (grad_norm = {_fmt(c['grad_norm'])}, spread = {_fmt(spreads['grad_norm'])})",
        f"helix              : {_fmt(c['helix'])}   (<grad f, V1> = {_fmt(c['ip_tangent'])}, spread = {_fmt(spreads['ip_tangent'])})",
        f"slant helix        : {_fmt(c['slant'])}   (<grad f, Vn> = {_fmt(c['ip_last'])}, spread = {_fmt(spreads['ip_last'])})",
        f"parallel gradient  : {_fmt(c['parallel_gradient'])}",
        f"theta              : {_fmt(c['theta'])}",
    ]
    return "\n".join(lines) + "\n"


def render_verify_text(payload: dict) -> str:
    lines = _header(payload["spec"]) + ["classification:"]
    c = payload["classification"]
    for key in ("eikonal", "helix", "slant", "parallel_gradient", "theta", "grad_norm"):
        lines.append(f"  {key:<18}: {_fmt(c[key])}")
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
