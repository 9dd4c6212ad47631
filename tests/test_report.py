"""The JSON report writer against ``json.dumps(indent=2)`` of row dicts.

``to_json`` writes the ``samples`` rows with a row template; the reference
in ``helpers`` passes the same report, with one dict per row, through
``json.dumps``. The two must agree byte for byte.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from eikohelix import catalog
from eikohelix.classify import classify_rows, sample_along_curve
from eikohelix.errors import FrameError
from eikohelix.report import classify_report, samples_payload, to_json, verify_report
from eikohelix.verify import verify_all

from helpers import reference_samples_payload, reference_to_json, wcurve_lift


def _verify_payloads(spec):
    """The verify report without and with the table, and the trajectory."""
    trajectory = sample_along_curve(spec)
    classification = classify_rows(trajectory, spec.tol_const)
    residuals = verify_all(trajectory, classification)
    plain = verify_report(spec, classification, residuals, spec.tol_const)
    table = verify_report(spec, classification, residuals, spec.tol_const, trajectory)
    return plain, table, trajectory


def _assert_table_matches_reference(spec):
    _, payload, trajectory = _verify_payloads(spec)
    reference = dict(payload, samples=reference_samples_payload(trajectory))
    assert to_json(payload) == reference_to_json(reference)


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_specs(name):
    spec = catalog.load(name)
    try:
        plain, table, trajectory = _verify_payloads(spec)
    except FrameError:
        assert name == "circle_in_r3"  # its frame degenerates, so it has no report
        return
    assert to_json(plain) == reference_to_json(plain)
    reference = dict(table, samples=reference_samples_payload(trajectory))
    assert to_json(table) == reference_to_json(reference)
    classification = classify_rows(trajectory, spec.tol_const)
    report = classify_report(spec, classification)
    assert to_json(report) == reference_to_json(report)


@pytest.mark.parametrize("n", [3, 5, 9, 13])
def test_wcurve_lift_tables(n):
    # one row width 3n - 1 per dimension
    _assert_table_matches_reference(wcurve_lift(n, samples=16))


def test_fewest_samples():
    _assert_table_matches_reference(wcurve_lift(3, samples=8))


def test_extreme_floats():
    plain, _, _ = _verify_payloads(wcurve_lift(5, samples=8))
    rng = np.random.default_rng(4)
    specials = [-0.0, 0.0, 1e200, -1e200, 5e-324, -5e-324, 1.7976931348623157e308, 1.0, 0.1]
    dicts, rows = [], []
    for row in range(8):
        values = [
            float(rng.choice(specials)) if rng.random() < 0.5
            else float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
            for _ in range(14)
        ]
        if row == 0:
            values[: len(specials)] = specials
        dicts.append({
            "s": values[0], "k": values[1:5], "H": values[5:8], "Hstar": values[8:11],
            "grad_norm": values[11], "ip_tangent": values[12], "ip_last": values[13],
        })
        rows.append(values)
    text = to_json(dict(plain, samples=rows))
    assert text == reference_to_json(dict(plain, samples=dicts))
    for token in ("-0.0", "1e+200", "5e-324"):
        assert token in text
    assert json.loads(text)["samples"] == dicts


@pytest.mark.parametrize(
    ("nan_row", "inf_row", "first"),
    [(5, 3, "inf"), (2, 3, "nan"), (3, 3, "nan")],
)
def test_non_finite_row_raises_like_json(nan_row, inf_row, first):
    trajectory = sample_along_curve(wcurve_lift(3, samples=8))
    s = trajectory.s.copy()
    s[nan_row] = np.nan
    grad_norm = trajectory.grad_norm.copy()
    grad_norm[inf_row] = np.inf
    trajectory.s = s
    trajectory.grad_norm = grad_norm
    with pytest.raises(ValueError) as expected:
        reference_to_json({"samples": reference_samples_payload(trajectory)})
    with pytest.raises(ValueError) as raised:
        samples_payload(trajectory)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value) == f"Out of range float values are not JSON compliant: {first}"
