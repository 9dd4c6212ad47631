"""The JSON report writer against ``json.dumps(indent=2)`` of row dicts.

``to_json`` writes the ``samples`` rows with a row template; the reference
in ``helpers`` passes the same report, with one dict per row, through
``json.dumps``. The two must agree byte for byte.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eikohelix import catalog
from eikohelix.classify import classify_rows, sample_along_curve
from eikohelix.errors import FrameError
from eikohelix.report import classify_report, samples_payload, to_json, verify_report
from eikohelix.verify import verify_all

from helpers import reference_samples_payload, reference_to_json, wcurve_lift

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POOL = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]


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


def _row_dict(values: list[float]) -> dict:
    """The row object of a flat row of 3n - 1 numbers."""
    n = (len(values) + 1) // 3
    return {
        "s": values[0], "k": values[1:n], "H": values[n:2 * n - 2], "Hstar": values[2 * n - 2:3 * n - 4],
        "grad_norm": values[3 * n - 4], "ip_tangent": values[3 * n - 3], "ip_last": values[3 * n - 2],
    }


@st.composite
def _tables(draw):
    """Rows of width 3n - 1 whose values mostly repeat, within and across columns."""
    n = draw(st.integers(3, 13))
    pool = _POOL + draw(st.lists(_FINITE, max_size=4))
    cell = st.one_of(st.sampled_from(pool), st.sampled_from(pool), st.sampled_from(pool), _FINITE)
    return draw(st.lists(st.lists(cell, min_size=3 * n - 1, max_size=3 * n - 1), min_size=1, max_size=40))


@given(_tables())
@example([[0.0] * 8, [-0.0] * 8, [0.0] * 8])  # equal zeros print differently
@settings(max_examples=200, deadline=None)
def test_repeated_floats_match_reference(rows):
    head = {"spec": {"dimension": (len(rows[0]) + 1) // 3}}
    expected = reference_to_json(dict(head, samples=[_row_dict(row) for row in rows]))
    assert to_json(dict(head, samples=rows)) == expected
    assert to_json(dict(head, samples=np.array(rows))) == expected


def test_samples_as_the_only_key():
    rows = _verify_payloads(wcurve_lift(3, samples=8))[1]["samples"]
    expected = reference_to_json({"samples": [_row_dict(row) for row in rows.tolist()]})
    assert to_json({"samples": rows}) == expected
    assert to_json({"samples": rows.tolist()}) == expected


@pytest.mark.parametrize("empty", [np.empty((0, 8)), np.asarray([]), []], ids=["array", "flat-array", "list"])
@pytest.mark.parametrize("head", [{}, {"spec": {}}], ids=["no-head", "head"])
def test_empty_table(empty, head):
    # an empty table has no row width to build a template from
    assert to_json(dict(head, samples=empty)) == json.dumps(dict(head, samples=[]), indent=2) + "\n"


def test_array_payload_matches_lists():
    payload = _verify_payloads(catalog.load("helix345_fz"))[1]
    table = payload["samples"]
    assert table.dtype == np.float64 and table.shape == (512, 8)
    assert to_json(payload) == to_json(dict(payload, samples=table.tolist()))


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
        dicts.append(_row_dict(values))
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
