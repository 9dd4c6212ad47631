"""Built-in named curve specs used by the CLI and the test suite.

An entry holds its curve and field texts, ``s_range`` and ``samples``; its
document is written by ``format_curve_spec``'s writer, ``format_document``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsl import CurveSpec, format_document, parse_curve_spec


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    curve: tuple[str, ...]
    field: str
    s_range: tuple[float, float]
    samples: int

    @property
    def document(self) -> str:
        return format_document(
            {"dimension": len(self.curve), "curve": self.curve, "field": self.field,
             "s_range": self.s_range, "samples": self.samples}
        )


_ENTRIES = [
    CatalogEntry(
        name="paper_3_1",
        description="circular helix in R^3 with a quadratic field whose gradient norm is constant along it (helix, non-parallel gradient)",
        curve=("cos(s/sqrt(2))", "s/sqrt(2)", "sin(s/sqrt(2))"),
        field="x1^2 + x2 + x3^2", s_range=(0, 12.566), samples=512,
    ),
    CatalogEntry(
        name="helix345_fz",
        description="unit-speed 3-4-5 circular helix with the linear field x3 (helix and slant helix, parallel gradient)",
        curve=("3*cos(s/5)", "3*sin(s/5)", "4*s/5"),
        field="x3", s_range=(0, 31.4159), samples=512,
    ),
    CatalogEntry(
        name="wcurve_r4",
        description="proper-4 constant-curvature torus curve in R^4 with an eikonal quadratic field (not a helix; frame exerciser)",
        curve=("cos(s)", "sin(s)", "0.5*cos(2*s)", "0.5*sin(2*s)"),
        field="x1^2 + x2^2", s_range=(0, 6.2832), samples=512,
    ),
    CatalogEntry(
        name="helix_r4",
        description="proper-4 unit-speed helix in R^4 (tangent sphere-curve lift) with the linear field x4 (helix, parallel gradient)",
        curve=("sin(0.6)*(sin(4*s)/8 + sin(2*s)/4)", "sin(0.6)*(-cos(4*s)/8 - cos(2*s)/4)", "-sin(0.6)*cos(s)", "cos(0.6)*s"),
        field="x4", s_range=(0.2, 1.3), samples=512,
    ),
    CatalogEntry(
        name="circle_in_r3",
        description="planar circle embedded in R^3; its third derivative is dependent, so the frame construction reports degeneracy",
        curve=("cos(s)", "sin(s)", "0"),
        field="x3", s_range=(0, 6.2832), samples=64,
    ),
    CatalogEntry(
        name="nonhelix_parabolic",
        description="circular motion with quadratic rise and the linear field x3; the tangent angle drifts, so no helix structure",
        curve=("cos(s)", "sin(s)", "s^2"),
        field="x3", s_range=(0.3, 2.8), samples=256,
    ),
]

_BY_NAME = {entry.name: entry for entry in _ENTRIES}


def entries() -> list[CatalogEntry]:
    return list(_ENTRIES)


def names() -> list[str]:
    return [entry.name for entry in _ENTRIES]


def get(name: str) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"no catalog entry named {name!r}") from None


def load(name: str) -> CurveSpec:
    return parse_curve_spec(get(name).document)
