"""n-dimensional Frenet frames, harmonic curvatures, and eikonal-helix
classification for parametric curves given as closed-form expressions."""

from .classify import (
    Classification,
    Trajectory,
    classify,
    classify_rows,
    constancy,
    sample_along_curve,
)
from .dsl import (
    CurveSpec,
    Expr,
    format_curve_spec,
    format_expr,
    parse_curve_spec,
    parse_expr_text,
)
from .frenet import frenet_apparatus
from .harmonic import harmonic_data
from .jets import (
    FieldJet,
    Jet,
    default_jet_order,
    eval_curve_jet,
    eval_expr_jet,
    eval_field_jet,
)
from .verify import TheoremResiduals, verify_all

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CurveSpec",
    "Expr",
    "FieldJet",
    "Jet",
    "TheoremResiduals",
    "Trajectory",
    "classify",
    "classify_rows",
    "constancy",
    "default_jet_order",
    "eval_curve_jet",
    "eval_expr_jet",
    "eval_field_jet",
    "format_curve_spec",
    "format_expr",
    "frenet_apparatus",
    "harmonic_data",
    "parse_curve_spec",
    "parse_expr_text",
    "sample_along_curve",
    "verify_all",
]
