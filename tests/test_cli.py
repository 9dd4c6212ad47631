"""End-to-end CLI tests: exit codes, report formats, and determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eikohelix
from eikohelix import catalog
from eikohelix.classify import sample_along_curve
from eikohelix.cli import main
from eikohelix.dsl import format_document, parse_curve_spec

RESIDUAL_KEYS = [
    "sys_helix",
    "axis_helix",
    "sumsq_helix_spread",
    "tan_identity",
    "hn2_min",
    "cor31",
    "sys_slant",
    "axis_slant",
    "sumsq_slant_spread",
    "hn2star_min",
    "cor41",
]
VERDICT_KEYS = ["thm31", "thm32", "thm33", "cor31", "thm41", "thm42", "thm43", "cor41"]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "eikohelix", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    paths = {}
    for name in catalog.names():
        path = root / f"{name}.spec"
        path.write_text(catalog.get(name).document, encoding="utf-8")
        paths[name] = str(path)
    return paths


class TestExitCodes:
    def test_classify_success(self, spec_paths):
        result = run_cli("classify", spec_paths["paper_3_1"])
        assert result.returncode == 0
        assert "helix" in result.stdout

    def test_missing_file(self):
        result = run_cli("classify", "does_not_exist.spec")
        assert result.returncode == 2
        assert "does_not_exist.spec" in result.stderr

    def test_bad_document(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("dimension = 3\n", encoding="utf-8")
        result = run_cli("classify", str(path))
        assert result.returncode == 2

    def test_degenerate_curve(self, spec_paths):
        result = run_cli("classify", spec_paths["circle_in_r3"])
        assert result.returncode == 3
        assert "derivative 3" in result.stderr
        assert "s =" in result.stderr

    def test_verify_success_even_when_not_applicable(self, spec_paths):
        result = run_cli("verify", spec_paths["nonhelix_parabolic"])
        assert result.returncode == 0
        assert "NOT-APPLICABLE" in result.stdout

    def test_unknown_catalog_name(self, tmp_path):
        result = run_cli("catalog", "--emit", "unknown", str(tmp_path / "x.spec"))
        assert result.returncode == 2

    def test_usage_error(self):
        assert run_cli("frobnicate").returncode == 2


def _write_spec(tmp_path, curve: str, field: str, s_range: str) -> str:
    path = tmp_path / "case.spec"
    path.write_text(
        f'dimension = 3\ncurve = {curve}\nfield = "{field}"\ns_range = {s_range}\nsamples = 9\n',
        encoding="utf-8",
    )
    return str(path)


class TestErrorReports:
    def test_exponent_without_finite_value(self, tmp_path, capsys):
        path = _write_spec(tmp_path, '["cos(s)", "sin(s)", "s^ln(0-1)"]', "x3", "[0, 2]")
        assert main(["verify", path]) == 2
        assert "exponent of '^' has no finite real value" in capsys.readouterr().err

    def test_field_power_overflow(self, tmp_path, capsys):
        path = _write_spec(tmp_path, '["cos(s)", "sin(s)", "s"]', "(x3*1e200)^2", "[1, 2]")
        for command in ("verify", "classify"):
            assert main([command, path]) == 3
            err = capsys.readouterr().err
            assert "non-finite field derivatives" in err
            assert err.rstrip().endswith("(while sampling at s = 1.0)")

    def test_degeneracy_inside_the_grid(self, tmp_path, capsys):
        path = _write_spec(tmp_path, '["s", "s^2", "(s-1)^4"]', "x3", "[0, 2]")
        assert main(["verify", path]) == 3
        err = capsys.readouterr().err
        assert "derivative 3 linearly dependent on predecessors (at s = 1.0)" in err

    def test_overflow_in_the_frame(self, tmp_path):
        # at s = 0, alpha' = (1 + 2e200*s, -sin(s), cos(s)) and alpha'' =
        # (2e200, -cos(s), -sin(s)): the frame's Gram matrix would meet a
        # Taylor coefficient near (1e200)^2 = 1e400 only past the order its
        # columns carry, so nothing overflows, and the torsion there, near
        # 1e-400, leaves alpha''' dependent: one error line, no numpy
        # RuntimeWarning ahead of it
        path = _write_spec(tmp_path, '["s + 1e200*s^2", "cos(s)", "sin(s)"]', "x3", "[0, 6]")
        result = run_cli("verify", path)
        assert result.returncode == 3
        assert result.stderr == "error: derivative 3 linearly dependent on predecessors (at s = 0.0)\n"

    def test_overflow_in_the_derivatives(self, tmp_path):
        # the jets of 1e308*s^4 are finite, but the frame's third derivative
        # multiplies one by 24: one error line, no RuntimeWarning ahead of it
        path = _write_spec(tmp_path, '["cos(s)", "sin(s)", "1e308*s^4"]', "x3", "[0, 0.01]")
        result = run_cli("verify", path)
        assert result.returncode == 3
        assert result.stderr == (
            "error: derivative 3 of the curve overflows in the frame (while sampling at s = 0.0)\n"
        )

    def test_overflow_in_the_harmonic_families(self, tmp_path):
        # k1 = 2e150 and k2 = 3e-300 on the whole grid, so H1 = k1/k2 is past
        # float64's range: one error line, with no RuntimeWarning ahead of it
        # and no report of null residuals
        path = _write_spec(tmp_path, '["s", "1e150*s^2", "1e-150*s^3"]', "x3", "[0, 1e-300]")
        result = run_cli("verify", path, "--json")
        assert result.returncode == 3
        assert (result.stdout, result.stderr) == ("", "error: H1 overflows to inf (while sampling at s = 0.0)\n")

    def test_subnormal_speed(self, tmp_path):
        # helix345_fz scaled by 1e-310 has a subnormal speed, so
        # k_i = <V_i', V_{i+1}> / speed overflows: DegenerateCurvature's
        # one error line, no traceback
        curve = '["1e-310*(3*cos(s/5))", "1e-310*(3*sin(s/5))", "1e-310*(4*s/5)"]'
        result = run_cli("verify", _write_spec(tmp_path, curve, "x3", "[0, 31.4159]"), "--json", "--table")
        assert result.returncode == 3
        assert result.stderr == "error: curvature k1 = inf not positive and finite (at s = 0.0)\n"

    def test_length_below_float_range(self, tmp_path):
        # the curve's length 1e-170 * 1e-170 underflows to 0.0; the
        # parallel-gradient test multiplies by it instead of dividing
        curve = '["1e-170*cos(s)", "1e-170*sin(s)", "1e-170*s"]'
        result = run_cli("verify", _write_spec(tmp_path, curve, "1e170*x3", "[0, 1e-170]"), "--json")
        assert result.returncode == 0
        assert result.stderr == ""
        verdicts = json.loads(result.stdout)["verdicts"]
        assert [v["verdict"] for v in verdicts.values()] == ["PASS"] * 8


class TestSpecErrors:
    @pytest.mark.parametrize(
        "curve, field",
        [('["cos(s)", "sin(s)", "s*²"]', "x3"), ('["cos(s)", "sin(s)", "s"]', "x²")],
        ids=["superscript_number", "superscript_coordinate"],
    )
    def test_non_decimal_digit(self, tmp_path, curve, field):
        path = _write_spec(tmp_path, curve, field, "[0, 3]")
        result = run_cli("verify", path)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_planar_spec(self, tmp_path, command):
        # a CurveSpec may be planar, but H_1 = k_1/k_2 needs n >= 3
        path = tmp_path / "planar.spec"
        path.write_text(
            'dimension = 2\ncurve = ["cos(s)", "sin(s)"]\nfield = "x1"\ns_range = [0, 3]\n',
            encoding="utf-8",
        )
        result = run_cli(command, str(path))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "harmonic curvatures need dimension >= 3, got 2" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_spec_not_utf8(self, tmp_path, command):
        path = tmp_path / "latin.spec"
        path.write_bytes(
            b'# \xff\xfe\ndimension = 3\ncurve = ["cos(s)", "sin(s)", "s"]\n'
            b'field = "x3"\ns_range = [0, 3]\n'
        )
        result = run_cli(command, str(path))
        assert result.returncode == 2
        assert result.stderr.startswith("error: cannot read spec file ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_grid_too_large_for_memory(self, tmp_path, command):
        # 10^15 samples need 8 PB for the grid alone, more than any address
        # space, so the first allocation fails at once and uses no memory.
        # From 2^60 samples up numpy cannot even count the grid's bytes in
        # np.intp; 2^62, 2^63 - 1, 10^20 and 10^400 must read the same error.
        for samples in (10**15, 2**62, 2**63 - 1, 10**20, 10**400):
            path = tmp_path / "huge.spec"
            path.write_text(
                'dimension = 3\ncurve = ["cos(s)", "sin(s)", "s"]\nfield = "x3"\n'
                f"s_range = [0, 3]\nsamples = {samples}\n",
                encoding="utf-8",
            )
            result = run_cli(command, str(path))
            assert result.returncode == 2, (samples, result.stderr)
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
            assert f"samples = {samples} at dimension = 3" in result.stderr
            assert "Traceback" not in result.stderr

    def test_byte_order_mark(self, spec_paths, tmp_path, capsys):
        """A spec saved with a UTF-8 byte-order mark reads as the same document."""
        plain = Path(spec_paths["helix345_fz"])
        marked = tmp_path / plain.name
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for path in (plain, marked):
            assert main(["verify", str(path), "--json"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == outputs[1].err == ""
        assert outputs[1].out == outputs[0].out

    def test_s_range_width_overflows(self, tmp_path, capsys):
        path = _write_spec(tmp_path, '["cos(s)", "sin(s)", "s"]', "x3", "[-1e308, 1e308]")
        assert main(["verify", path]) == 2
        assert "invalid s_range" in capsys.readouterr().err


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["verify", "classify", "catalog"])
    def test_missing_directory(self, spec_paths, tmp_path, command):
        out = tmp_path / "no_such_dir" / "report.json"
        if command == "catalog":
            result = run_cli("catalog", "--emit", "paper_3_1", str(out))
        else:
            result = run_cli(command, spec_paths["helix345_fz"], "--out", str(out))
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: cannot write {str(out)!r}: ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        assert not out.parent.exists()


class TestGradientOverflow:
    def test_finite_gradient_with_overflowing_square(self, tmp_path, capsys):
        # |grad f|^2 = 1e400 overflows although the gradient is finite
        path = _write_spec(tmp_path, '["3*cos(s/5)", "3*sin(s/5)", "4*s/5"]', "1e200*x3", "[0, 31.4159]")
        for command in ("verify", "classify"):
            assert main([command, path, "--json"]) == 0
            c = json.loads(capsys.readouterr().out)["classification"]
            assert c["eikonal"] and c["helix"] and c["slant"]
            assert c["grad_norm"] == 1e200

    def test_gradient_norm_above_float_range(self, tmp_path, capsys):
        path = _write_spec(tmp_path, '["0.1*cos(s)", "0.1*sin(s)", "s"]', "1.5e308*x1 + 1.5e308*x2", "[0, 3]")
        for command in ("verify", "classify"):
            assert main([command, path, "--json"]) == 3
            err = capsys.readouterr().err
            assert "|grad f| overflows to inf (while sampling at s = 0.0)" in err

    def test_overflowing_residual_norms_stay_finite(self, tmp_path):
        # |grad f - axis|^2 overflows although both vectors are finite
        path = _write_spec(tmp_path, '["3*cos(s/5)", "3*sin(s/5)", "4*s/5"]', "1e200*x3", "[0, 31.4159]")
        result = run_cli("verify", path, "--json")
        assert result.returncode == 0
        assert result.stderr == ""
        residuals = json.loads(result.stdout)["residuals"]
        for key in ("axis_helix", "axis_slant"):
            assert isinstance(residuals[key], float) and math.isfinite(residuals[key])

    def test_overflowing_hessian_norm(self, tmp_path):
        path = _write_spec(tmp_path, '["3*cos(s/5)", "3*sin(s/5)", "4*s/5"]', "1e300*x1^2", "[0, 31.4159]")
        result = run_cli("verify", path, "--json")
        assert result.returncode == 0
        assert result.stderr == ""
        assert json.loads(result.stdout)["classification"]["parallel_gradient"] is False

    def test_mean_above_float_range(self, tmp_path, capsys):
        # every |grad f| = 1e308 is finite and their sum over the grid is not;
        # the mean, taken on the values divided by a power of two, is finite
        path = _write_spec(tmp_path, '["3*cos(s/5)", "3*sin(s/5)", "4*s/5"]', "1e308*x3", "[0, 1]")
        for command in ("verify", "classify"):
            assert main([command, path, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["classification"]["grad_norm"] == pytest.approx(1e308, rel=1e-15)

    def test_spread_above_float_range(self, tmp_path, capsys):
        # <grad f, V1> = -1.5e308 sin(s) / sqrt(2) and <grad f, V3> swing past
        # -1e308 and 1e308: each value is finite, their spreads are not
        path = _write_spec(tmp_path, '["cos(s)", "sin(s)", "s"]', "1.5e308*x1", "[0, 6.2832]")
        for command in ("verify", "classify"):
            assert main([command, path, "--json"]) == 3
            assert "over the grid overflows" in capsys.readouterr().err

    def test_projection_sums_meeting_as_nan(self, tmp_path):
        # on 512 samples the plain sums of <grad f, V1> and <grad f, V3>
        # overflow to +inf and -inf and meet as nan; the means, taken on the
        # values divided by a power of two, are finite, with no numpy warning
        document = catalog.get("helix345_fz").document.replace('field = "x3"', 'field = "1e307*x1^2"')
        assert 'field = "1e307*x1^2"' in document
        trajectory = sample_along_curve(parse_curve_spec(document))
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(np.sum(trajectory.ip_tangent)) and math.isnan(np.sum(trajectory.ip_last))
        path = tmp_path / "case.spec"
        path.write_text(document, encoding="utf-8")
        for command in ("classify", "verify"):
            result = run_cli(command, str(path), "--json")
            assert result.returncode == 0
            assert result.stderr == ""
            c = json.loads(result.stdout)["classification"]
            assert abs(c["ip_tangent"]) < 1e-7 * c["grad_norm"] and abs(c["ip_last"]) < 1e-7 * c["grad_norm"]

    def test_field_scale_near_float_range(self, tmp_path, capsys):
        # helix345_fz with field 1e306*x3: |grad f| = 1e306 at all 512 samples,
        # whose sum overflows; the report reads as at field 1e9*x3
        reports = {}
        for scale in ("1e9", "1e306"):
            document = catalog.get("helix345_fz").document.replace('field = "x3"', f'field = "{scale}*x3"')
            assert f'field = "{scale}*x3"' in document
            path = tmp_path / f"{scale}.spec"
            path.write_text(document, encoding="utf-8")
            assert main(["verify", str(path), "--json"]) == 0
            reports[scale] = json.loads(capsys.readouterr().out)
        assert reports["1e306"]["classification"]["grad_norm"] == pytest.approx(1e306, rel=1e-15)
        verdicts = {name: v["verdict"] for name, v in reports["1e306"]["verdicts"].items()}
        assert verdicts == {name: v["verdict"] for name, v in reports["1e9"]["verdicts"].items()}
        assert list(verdicts.values()) == ["PASS"] * 8


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf", "abc"])
    def test_rejected(self, spec_paths, tol, capsys):
        assert main(["verify", spec_paths["helix345_fz"], f"--tol={tol}"]) == 2
        err = capsys.readouterr().err
        assert "argument --tol" in err
        if tol != "abc":
            assert "must be finite and positive" in err

    def test_accepted(self, spec_paths, capsys):
        assert main(["verify", spec_paths["helix345_fz"], "--json", "--tol=1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"]["thm31"]["verdict"] == "PASS"


class TestRepeatedCalls:
    def test_flags_do_not_carry_over(self, spec_paths, capsys):
        spec = spec_paths["helix345_fz"]
        assert main(["verify", spec, "--json", "--table"]) == 0
        assert "samples" in json.loads(capsys.readouterr().out)
        assert main(["verify", spec, "--json"]) == 0
        assert "samples" not in json.loads(capsys.readouterr().out)
        assert main(["verify", spec, "--json", "--tol", "1e-20"]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"]["thm31"]["verdict"] == "FAIL"
        assert main(["verify", spec, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"]["thm31"]["verdict"] == "PASS"
        assert main(["classify", spec, "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {"spec", "classification"}

    def test_text_report_ignores_table(self, spec_paths, capsys):
        spec = spec_paths["helix345_fz"]
        assert main(["verify", spec]) == 0
        plain = capsys.readouterr().out
        assert main(["verify", spec, "--table"]) == 0
        assert capsys.readouterr().out == plain


class TestCatalog:
    def test_listing(self):
        result = run_cli("catalog")
        assert result.returncode == 0
        lines = [line for line in result.stdout.splitlines() if line.strip()]
        assert len(lines) >= 5
        for name in ("paper_3_1", "helix345_fz", "wcurve_r4", "circle_in_r3", "nonhelix_parabolic"):
            assert any(line.startswith(name) for line in lines)

    def test_emit_round_trip(self, tmp_path):
        out = tmp_path / "emitted.spec"
        result = run_cli("catalog", "--emit", "paper_3_1", str(out))
        assert result.returncode == 0
        emitted = parse_curve_spec(out.read_text(encoding="utf-8"))
        assert emitted == parse_curve_spec(catalog.get("paper_3_1").document)
        assert emitted == catalog.load("paper_3_1")


class TestJsonReports:
    def test_verify_json_schema(self, spec_paths):
        result = run_cli("verify", spec_paths["helix345_fz"], "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert set(payload) == {"spec", "classification", "residuals", "verdicts"}
        assert set(payload["residuals"]) >= set(RESIDUAL_KEYS)
        assert list(payload["verdicts"]) == VERDICT_KEYS
        for key in VERDICT_KEYS:
            assert payload["verdicts"][key]["verdict"] == "PASS"
        c = payload["classification"]
        assert c["helix"] and c["slant"] and c["parallel_gradient"]
        assert set(c["spreads"]) == {"grad_norm", "ip_tangent", "ip_last"}

    def test_verify_table(self, spec_paths):
        result = run_cli("verify", spec_paths["helix345_fz"], "--json", "--table")
        payload = json.loads(result.stdout)
        assert len(payload["samples"]) == 512
        row = payload["samples"][0]
        assert set(row) == {"s", "k", "H", "Hstar", "grad_norm", "ip_tangent", "ip_last"}
        assert row["k"] == pytest.approx([3 / 25, 4 / 25], abs=1e-12)

    def test_not_applicable_reason(self, spec_paths):
        result = run_cli("verify", spec_paths["paper_3_1"], "--json")
        payload = json.loads(result.stdout)
        verdict = payload["verdicts"]["thm31"]
        assert verdict["verdict"] == "NOT-APPLICABLE"
        assert "parallel" in verdict["reason"]

    def test_tol_override_flips_verdict(self, spec_paths):
        strict = run_cli("verify", spec_paths["helix345_fz"], "--json", "--tol", "1e-20")
        payload = json.loads(strict.stdout)
        assert payload["verdicts"]["thm31"]["verdict"] == "FAIL"

    def test_json_round_trip_lossless(self, spec_paths):
        result = run_cli("verify", spec_paths["helix_r4"], "--json")
        payload = json.loads(result.stdout)
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("field", ["x3", "x3 + x1^(1/1e999)"], ids=["plain", "infinite_literal"])
    def test_spec_block_round_trips(self, tmp_path, field, capsys):
        # the report's spec block, written back as a document, verifies to the
        # same report; 1/1e999 prints an infinite constant, which must read back
        document = catalog.get("helix345_fz").document.replace('field = "x3"', f'field = "{field}"')
        assert f'field = "{field}"' in document
        reports = []
        for _ in range(2):
            path = tmp_path / "spec.txt"
            path.write_text(document, encoding="utf-8")
            assert main(["verify", str(path), "--json"]) == 0
            reports.append(capsys.readouterr().out)
            document = format_document(json.loads(reports[-1])["spec"])
        assert reports[0] == reports[1]

    def test_classify_json(self, spec_paths):
        result = run_cli("classify", spec_paths["paper_3_1"], "--json")
        payload = json.loads(result.stdout)
        assert set(payload) == {"spec", "classification"}
        assert payload["classification"]["grad_norm"] == pytest.approx(5**0.5)


class TestDeterminism:
    def test_byte_identical_json(self, spec_paths, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            result = run_cli(
                "verify", spec_paths["helix345_fz"], "--json", "--table", "--out", str(out)
            )
            assert result.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_in_process_main_matches_subprocess(self, spec_paths, capsys):
        code = main(["classify", spec_paths["helix345_fz"], "--json"])
        assert code == 0
        captured = capsys.readouterr().out
        assert captured == run_cli("classify", spec_paths["helix345_fz"], "--json").stdout


def _deep_spec(tmp_path, component: str) -> str:
    path = tmp_path / "deep.spec"
    path.write_text(
        f'dimension = 3\ncurve = ["cos(s)", "sin(s)", "{component}"]\nfield = "x3"\n'
        "s_range = [0, 6]\nsamples = 16\n",
        encoding="utf-8",
    )
    return str(path)


class TestDeepExpressions:
    """Expressions nested past dsl._MAX_DEPTH = 100 levels are spec errors,
    reported where the parser reaches level 101."""

    @pytest.mark.parametrize(
        "component, offset",
        [("(" * 200 + "s" + ")" * 200, 100), ("s" + "+s" * 999, 199), ("-" * 2000 + "s", 100)],
        ids=["parentheses", "sum", "signs"],
    )
    @pytest.mark.parametrize("command", ["verify", "classify"])
    def test_rejected(self, tmp_path, component, offset, command):
        result = run_cli(command, _deep_spec(tmp_path, component))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert f"expression nests deeper than 100 levels (at offset {offset})" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "component",
        ["(" * 99 + "s" + ")" * 99, "s" + "+s" * 99, "-" * 99 + "s"],
        ids=["parentheses", "sum", "signs"],
    )
    def test_at_the_bound(self, tmp_path, component):
        result = run_cli("verify", _deep_spec(tmp_path, component), "--json")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["classification"]["helix"]

    def test_long_source_is_quoted_in_a_window(self, tmp_path):
        """Past 80 characters the error line quotes 40 of them around the offset."""
        _deep_spec(tmp_path, "-" * 2000 + "s")
        src = str(Path(eikohelix.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-m", "eikohelix", "verify", "deep.spec"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert len(result.stderr) < 200
        assert f"near {'-' * 40!r}" in result.stderr and "at offset 100" in result.stderr
        assert "Traceback" not in result.stderr


class TestSharedPipeline:
    """classify and verify run one pipeline and open with one header."""

    @pytest.mark.parametrize("name", [n for n in catalog.names() if n != "circle_in_r3"])
    def test_classify_is_part_of_verify(self, spec_paths, name, capsys):
        outputs = {}
        for argv in (["classify", "--json"], ["verify", "--json"], ["classify"], ["verify"]):
            assert main([argv[0], spec_paths[name], *argv[1:]]) == 0
            outputs[" ".join(argv)] = capsys.readouterr().out
        classify = json.loads(outputs["classify --json"])
        verify = json.loads(outputs["verify --json"])
        assert classify == {"spec": verify["spec"], "classification": verify["classification"]}
        header = outputs["classify"].split("\n\n")[0]
        assert header.startswith("curve (") and header.count("\n") == 2
        assert outputs["verify"].split("\n\n")[0] == header

    def test_degenerate_line_is_shared(self, spec_paths, capsys):
        errors = set()
        for argv in (["classify"], ["classify", "--json"], ["verify"], ["verify", "--json"]):
            assert main([argv[0], spec_paths["circle_in_r3"], *argv[1:]]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            errors.add(captured.err)
        (line,) = errors
        assert line.startswith("error: ") and "derivative 3" in line
