"""End-to-end CLI tests: exit codes, report formats, and determinism."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from eikohelix import catalog
from eikohelix.cli import main
from eikohelix.dsl import parse_curve_spec

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
        # every |grad f| = 1e308 is finite, their sum over the grid is not
        path = _write_spec(tmp_path, '["3*cos(s/5)", "3*sin(s/5)", "4*s/5"]', "1e308*x3", "[0, 1]")
        assert main(["verify", path, "--json"]) == 3
        assert "over the grid overflows" in capsys.readouterr().err


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
