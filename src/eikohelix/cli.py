"""Command-line front end.

Subcommands:

    classify <spec> [--json] [--out PATH]
    verify <spec> [--json] [--table] [--tol X] [--out PATH]
    catalog [--emit NAME PATH]

``classify`` and ``verify`` run one pipeline (``cmd_report``): load the
spec, sample it, classify it; ``verify`` goes on to the identity residuals
and verdicts. Exit codes: 0 for a completed run (whatever the
classification or verdicts say), 2 for spec/parse/usage errors and
unreadable or unwritable files, and grids too large for memory; 3 for
degenerate-curve or numeric evaluation failures.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import catalog as catalog_module
from .classify import classify_rows, sample_along_curve
from .dsl import parse_curve_spec
from .errors import DimensionMismatch, DslError, EvalError, FrameError
from .report import (
    classify_report,
    render_classify_text,
    render_verify_text,
    to_json,
    verify_report,
)
from .verify import verify_all

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_DEGENERATE = 3


def _load_spec(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(_error(f"cannot read spec file {path!r}: {exc}", EXIT_SPEC_ERROR))
    try:
        spec = parse_curve_spec(text)
        if spec.dimension < 3:  # a CurveSpec may be planar; the pipeline may not
            raise DimensionMismatch(
                f"harmonic curvatures need dimension >= 3, got {spec.dimension}"
            )
    except DslError as exc:
        raise SystemExit(_error(f"{path}: {exc}", EXIT_SPEC_ERROR))
    return spec


def _error(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_file(text: str, path: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(_error(f"cannot write {path!r}: {exc}", EXIT_SPEC_ERROR))


def cmd_report(args: argparse.Namespace) -> int:
    """classify and verify: sample the spec's curve, classify it, and report."""
    spec = _load_spec(args.spec)
    try:
        return _report(args, spec)
    except MemoryError:  # a grid too large to hold is a spec error
        size = f"samples = {spec.samples} at dimension = {spec.dimension}"
        return _error(f"{args.spec}: not enough memory for {size}", EXIT_SPEC_ERROR)


def _report(args: argparse.Namespace, spec) -> int:
    try:
        trajectory = sample_along_curve(spec)
        classification = classify_rows(trajectory, spec.tol_const)
    except (FrameError, EvalError) as exc:
        return _error(str(exc), EXIT_DEGENERATE)
    if args.command == "classify":
        payload, render = classify_report(spec, classification), render_classify_text
    else:
        residuals = verify_all(trajectory, classification)
        tol = args.tol if args.tol is not None else spec.tol_const
        # the text report has no table, so the rows are built only for --json
        table = trajectory if args.table and args.json else None
        payload = verify_report(spec, classification, residuals, tol, trajectory=table)
        render = render_verify_text
    text = to_json(payload) if args.json else render(payload)
    if args.out:
        _write_file(text, args.out)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.emit:
        name, path = args.emit
        try:
            entry = catalog_module.get(name)
        except KeyError:
            known = ", ".join(catalog_module.names())
            return _error(f"unknown catalog entry {name!r} (known: {known})", EXIT_SPEC_ERROR)
        _write_file(entry.document, path)
        print(f"wrote {entry.name} to {path}")
        return EXIT_OK
    for entry in catalog_module.entries():
        print(f"{entry.name:<20} {entry.description}")
    return EXIT_OK


def _tolerance(text: str) -> float:
    """A verdict tolerance: finite and positive, like a spec's tol_const."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {value!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eikohelix",
        description=(
            "Compute n-dimensional Frenet frames and harmonic curvatures of a "
            "parametric curve, classify it as a helix or slant helix against a "
            "scalar field, and verify the characterizing identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary in (
        ("classify", "classify a curve/field spec"),
        ("verify", "classify and verify the identity suite"),
    ):
        command = sub.add_parser(name, help=summary)
        command.add_argument("spec", help="path to a curve-spec document")
        command.add_argument("--json", action="store_true", help="emit the JSON report")
        if name == "verify":
            command.add_argument("--table", action="store_true", help="include per-sample rows")
            command.add_argument("--tol", type=_tolerance, help="verdict tolerance relative to each residual's scale (default: spec tol_const)")
        command.add_argument("--out", metavar="PATH", help="write the report to a file")
        command.set_defaults(func=cmd_report)

    p_catalog = sub.add_parser("catalog", help="list or emit built-in specs")
    p_catalog.add_argument(
        "--emit",
        nargs=2,
        metavar=("NAME", "PATH"),
        help="write the named built-in spec document to PATH",
    )
    p_catalog.set_defaults(func=cmd_catalog)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the spec-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
