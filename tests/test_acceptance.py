"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py``. Tolerances are pinned
here and nowhere else; they are not derived from the code under test.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from eikohelix import catalog
from eikohelix.classify import classify_rows, sample_along_curve
from eikohelix.dsl import parse_curve_spec
from eikohelix.errors import DegenerateCurve
from eikohelix.jets import eval_expr_jet, eval_field_jet
from eikohelix.verify import verify_all

from helpers import (
    RICHARDSON,
    eval_float,
    fd_frenet,
    lift_helix_r4,
    nonhelix_r3,
    random_expr,
    synthetic_helix_r4,
    synthetic_slant_r4,
    wcurve_helix_r3,
)
from test_jets import check_jets_against_richardson

ROOT5 = math.sqrt(5.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {text}")


@pytest.fixture(scope="module")
def catalog_runs():
    runs = {}
    for name in catalog.names():
        if name == "circle_in_r3":
            continue
        spec = catalog.load(name)
        trajectory = sample_along_curve(spec)
        runs[name] = (spec, trajectory, classify_rows(trajectory, spec.tol_const))
    return runs


def test_criterion_1_reference_reproduction(catalog_runs):
    """Gradient norm sqrt(5) and tangent angle 1/sqrt(2) on paper_3_1."""
    _, trajectory, classification = catalog_runs["paper_3_1"]
    norms = trajectory.grad_norm
    tangents = trajectory.ip_tangent
    assert len(trajectory) == 512
    assert np.max(np.abs(norms - ROOT5)) <= 1e-10
    assert norms.max() - norms.min() <= 1e-10
    assert np.max(np.abs(tangents - INV_SQRT2)) <= 1e-10
    assert tangents.max() - tangents.min() <= 1e-10
    assert classification.helix
    _report(1, "paper_3_1 gradient norm sqrt(5), tangent angle 1/sqrt(2), helix=true")


def test_criterion_2_frenet_oracle_equivalence(catalog_runs):
    """Curvatures match closed forms at 1e-9 and the finite-difference
    Frenet oracle at 1e-6, on both n=3 catalog helices."""
    closed_forms = {
        "paper_3_1": (0.5, 0.5),
        "helix345_fz": (3.0 / 25.0, 4.0 / 25.0),
    }
    for name, (k1, k2) in closed_forms.items():
        spec, trajectory, _ = catalog_runs[name]
        assert len(trajectory) == 512
        k = trajectory.frenet.curvature_values()  # (512, 2)
        assert np.max(np.abs(k[:, 0] - k1)) <= 1e-9
        assert np.max(np.abs(k[:, 1] - k2)) <= 1e-9

        def curve(s, spec=spec):
            return [eval_float(c, s) for c in spec.components]

        speed = trajectory.frenet.speed.value
        for j in range(0, len(trajectory), 8):
            _, k_oracle, speed_oracle = fd_frenet(curve, trajectory.s[j], 3)
            assert np.max(np.abs(k[j] - k_oracle)) <= 1e-6
            assert abs(speed[j] - speed_oracle) <= 1e-6
    _report(2, "k1, k2 match closed forms (1e-9, all 512 samples) and FD oracle (1e-6)")


def test_criterion_3_axis_reconstruction(catalog_runs):
    """Axis formulas reconstruct (0, 0, 1) on helix345_fz at 1e-9."""
    _, trajectory, classification = catalog_runs["helix345_fz"]
    r = verify_all(trajectory, classification)
    assert r.values["axis_helix"] <= 1e-9
    assert r.values["axis_slant"] <= 1e-9
    cos_theta = math.cos(classification.theta)
    frame = trajectory.frame  # (N, 3, 3)
    H1 = trajectory.harmonic.H[0].value[:, None]
    axis = trajectory.grad_norm[:, None] * cos_theta * (frame[:, 0] + H1 * frame[:, 2])
    assert np.max(np.abs(axis - [0.0, 0.0, 1.0])) <= 1e-9
    _report(3, "tangent and last-vector axis formulas reconstruct (0,0,1) at 1e-9")


def _check_tangent_family(trajectory, classification, label):
    r = verify_all(trajectory, classification)
    v = r.values
    assert not r.reasons["helix"], label
    assert v["sys_helix"] <= 1e-7, f"{label}: system {v['sys_helix']}"
    assert v["tan_identity"] <= 1e-9, f"{label}: tan identity {v['tan_identity']}"
    assert v["sumsq_helix_spread"] <= 1e-8, f"{label}: sumsq spread {v['sumsq_helix_spread']}"
    assert v["hn2_min"] > 1e-6, f"{label}: |H_(n-2)| {v['hn2_min']}"
    assert v["cor31"] <= 1e-7, f"{label}: closing identity {v['cor31']}"


def _check_normal_family(trajectory, classification, label):
    r = verify_all(trajectory, classification)
    v = r.values
    assert not r.reasons["slant"], label
    assert v["sys_slant"] <= 1e-7, f"{label}: system {v['sys_slant']}"
    assert v["sumsq_slant_spread"] <= 1e-8, f"{label}: sumsq spread {v['sumsq_slant_spread']}"
    assert v["hn2star_min"] > 1e-6, f"{label}: |H*_(n-2)| {v['hn2star_min']}"
    assert v["cor41"] <= 1e-7, f"{label}: closing identity {v['cor41']}"


def test_criterion_4_identity_suite(catalog_runs):
    """Pointwise identity systems on every parallel-gradient helix case in
    the catalog plus 100 fuzzed cases across n=3 and n=4.

    Proper-4 curves cannot keep constant curvatures and a constant tangent
    angle at once, so the n=4 fuzz uses analytic unit-speed helices with
    varying curvatures plus synthetic frame systems for both families.
    """
    helix_cases = 0
    slant_cases = 0

    for name, (spec, trajectory, classification) in catalog_runs.items():
        if classification.helix and classification.parallel_gradient:
            _check_tangent_family(trajectory, classification, name)
            helix_cases += 1
        if classification.slant and classification.parallel_gradient:
            _check_normal_family(trajectory, classification, name)
            slant_cases += 1
    assert helix_cases >= 2  # helix345_fz and helix_r4
    assert slant_cases >= 1

    rng = np.random.default_rng(20260810)
    for _ in range(60):  # n=3 constant-curvature helices, both families
        spec = wcurve_helix_r3(rng).spec
        trajectory = sample_along_curve(spec)
        classification = classify_rows(trajectory, spec.tol_const)
        assert classification.helix and classification.slant
        _check_tangent_family(trajectory, classification, "r3 fuzz")
        _check_normal_family(trajectory, classification, "r3 fuzz")

    for _ in range(20):  # n=4 full-pipeline helices
        spec = lift_helix_r4(rng).spec
        trajectory = sample_along_curve(spec)
        classification = classify_rows(trajectory, spec.tol_const)
        assert classification.helix
        _check_tangent_family(trajectory, classification, "r4 lift fuzz")

    for _ in range(10):  # n=4 tangent-family synthetic frame systems
        system = synthetic_helix_r4(rng)
        classification = classify_rows(system.trajectory, 1e-8)
        assert classification.helix
        _check_tangent_family(system.trajectory, classification, "r4 synthetic helix")

    for _ in range(10):  # n=4 normal-family synthetic frame systems
        system = synthetic_slant_r4(rng)
        classification = classify_rows(system.trajectory, 1e-8)
        assert classification.slant
        _check_normal_family(system.trajectory, classification, "r4 synthetic slant")

    _report(4, "identity suite on catalog helix cases + 100 fuzzed cases (n=3, n=4)")


def test_criterion_5_equivalence_property(catalog_runs):
    """Sum-of-squares constancy holds iff the closing derivative identity
    does, in both directions at tol 1e-7; nonhelix_parabolic fails both."""
    tol = 1e-7
    rng = np.random.default_rng(31337)
    const_seen = varying_seen = 0
    for case in range(16):
        spec = wcurve_helix_r3(rng).spec if case % 2 == 0 else nonhelix_r3(rng)
        trajectory = sample_along_curve(spec)
        h = trajectory.harmonic
        for family in (0, 1):
            sumsq = (h.sumsq_H, h.sumsq_Hstar)[family]
            spread = sumsq.max() - sumsq.min()
            residual = (h.closing_H, h.closing_Hstar)[family].max()
            assert (spread <= tol) == (residual <= tol)
            if family == 0:
                const_seen += spread <= tol
                varying_seen += spread > tol
    assert const_seen >= 4 and varying_seen >= 4  # both directions exercised

    _, trajectory, _ = catalog_runs["nonhelix_parabolic"]
    sumsq = trajectory.harmonic.sumsq_H
    spread = sumsq.max() - sumsq.min()
    residual = trajectory.harmonic.closing_H.max()
    assert spread > tol and residual > tol
    _report(5, "constancy <=> closing identity at 1e-7, both directions; parabolic fails both")


def test_criterion_6_frame_invariants(catalog_runs):
    """Orthonormality defect <= 1e-10 and frame-equation residual <= 1e-8
    at every sample of every catalog curve, including the n=4 torus curve;
    the planar circle is caught as degenerate."""
    for name, (_, trajectory, _) in catalog_runs.items():
        frame = trajectory.frame  # (N, n, n), every sample at once
        n = trajectory.frenet.dimension
        defect = np.max(np.abs(frame @ frame.transpose(0, 2, 1) - np.eye(n)))
        assert defect <= 1e-10, f"{name}: orthonormality defect {defect}"
        d1 = np.moveaxis(np.stack([v.coeffs[1] for v in trajectory.frenet.frame]), (0, 1), (-2, -1))
        rates = d1 / trajectory.frenet.speed.value[:, None, None]
        k = trajectory.frenet.curvature_values()
        for i in range(n):
            expected = np.zeros((len(trajectory), n))
            if i > 0:
                expected -= k[:, i - 1, None] * frame[:, i - 1]
            if i < n - 1:
                expected += k[:, i, None] * frame[:, i + 1]
            residual = np.max(np.abs(rates[:, i] - expected))
            assert residual <= 1e-8, f"{name}: frame equation residual {residual}"
    assert catalog.load("wcurve_r4").dimension == 4
    with pytest.raises(DegenerateCurve):
        sample_along_curve(catalog.load("circle_in_r3"))
    _report(6, "orthonormality <= 1e-10 and frame-equation residual <= 1e-8 on all catalog curves")


def test_criterion_7_differentiation_cross_checks():
    """10^4 random expression/point pairs: jet derivative orders 1..3 agree
    with Richardson finite differences at relative 1e-6; field gradients
    against the same oracle likewise."""
    counted, attempted = check_jets_against_richardson(10_000, seed=20260810)
    assert counted == 10_000
    assert counted / attempted >= 0.8

    from eikohelix.dsl import Coord, CurveSpec, Param

    rng = np.random.default_rng(424242)
    checked = 0
    attempts = 0
    while checked < 2_000:
        attempts += 1
        assert attempts < 40_000
        n = int(rng.integers(2, 4))
        field = random_expr(rng, depth=3, leaf=Coord(int(rng.integers(1, n + 1))))
        spec = CurveSpec(
            dimension=n,
            components=tuple([Param()] * n),
            field=field,
            s_range=(0.0, 1.0),
        )
        point = rng.uniform(-2.0, 2.0, size=n)
        try:
            fj = eval_field_jet(spec, point)
        except Exception:
            continue
        if np.max(np.abs(fj.gradient)) > 1e6:
            continue
        usable = True
        for axis in range(n):
            def along(t, axis=axis):
                shifted = point.copy()
                shifted[axis] = t
                return eval_float(field, point=shifted)

            exact = fj.gradient[axis]
            scale = max(1.0, abs(exact))
            try:
                fd, err = RICHARDSON[1](along, float(point[axis]))
            except Exception:
                usable = False
                break
            if err > 0.2e-6 * scale:
                usable = False
                break
            assert abs(fd - exact) <= 1e-6 * scale
        if usable:
            checked += 1
    _report(7, "jet and gradient derivatives agree with Richardson differences at 1e-6")


def test_criterion_8_determinism_and_cli(tmp_path):
    """Byte-identical JSON across runs, exit codes 0/2/3, and a lossless
    catalog emit round-trip."""

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "eikohelix", *args], capture_output=True, text=True
        )

    spec_path = tmp_path / "helix345_fz.spec"
    assert run("catalog", "--emit", "helix345_fz", str(spec_path)).returncode == 0

    outputs = []
    for _ in range(2):
        result = run("verify", str(spec_path), "--json", "--table")
        assert result.returncode == 0
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].encode() == outputs[1].encode()
    payload = json.loads(outputs[0])
    assert all(v["verdict"] == "PASS" for v in payload["verdicts"].values())

    assert run("classify", str(tmp_path / "missing.spec")).returncode == 2

    circle_path = tmp_path / "circle.spec"
    assert run("catalog", "--emit", "circle_in_r3", str(circle_path)).returncode == 0
    assert run("classify", str(circle_path)).returncode == 3

    emitted = tmp_path / "paper.spec"
    assert run("catalog", "--emit", "paper_3_1", str(emitted)).returncode == 0
    round_tripped = parse_curve_spec(emitted.read_text(encoding="utf-8"))
    assert round_tripped == catalog.load("paper_3_1")
    assert run("catalog", "--emit", "nonsense", str(tmp_path / "x.spec")).returncode == 2
    _report(8, "deterministic JSON, exit codes 0/2/3, catalog emit round-trip")
