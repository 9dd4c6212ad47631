"""Expression and curve-spec parsing.

Two small languages live here. The expression language covers curve
components (functions of the parameter ``s``) and scalar fields (functions
of coordinates ``x1 .. xn``) with arithmetic, constant powers, and the
function set {sin, cos, exp, sqrt, ln}. The curve-spec document language is
a flat ``key = value`` text format holding a dimension, component
expressions, a field expression, a parameter range, and sampling/tolerance
settings.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    CoordOutOfRange,
    DimensionMismatch,
    DslError,
    ExprSyntaxError,
    IllegalCharacter,
    MissingField,
    SpecDocumentError,
    UnknownIdentifier,
    WrongSymbolKind,
)

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "ln")
NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}

DEFAULT_SAMPLES = 512
DEFAULT_TOL_CONST = 1e-8
DEFAULT_TOL_FRAME = 1e-10
_MAX_DEPTH = 100  # deepest expression tree and nesting the parser accepts
# the binary operators on floats, jets and field duals alike
BINARY_OPERATORS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow
}


# --------------------------------------------------------------------- AST


class Expr:
    """Base class of expression nodes. Nodes are immutable and comparable."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(Expr):
    value: float


@dataclass(frozen=True)
class Param(Expr):
    """The curve parameter symbol ``s``."""


@dataclass(frozen=True)
class Coord(Expr):
    """A field coordinate ``x1 .. xn`` (1-based index)."""

    index: int


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # neg | sin | cos | exp | sqrt | ln
    child: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - * / ^
    left: Expr
    right: Expr


def is_constant_expr(expr: Expr) -> bool:
    """True when the expression contains no Param or Coord node."""
    if isinstance(expr, Constant):
        return True
    if isinstance(expr, (Param, Coord)):
        return False
    if isinstance(expr, Unary):
        return is_constant_expr(expr.child)
    if isinstance(expr, Binary):
        return is_constant_expr(expr.left) and is_constant_expr(expr.right)
    raise TypeError(f"not an Expr: {expr!r}")


def constant_value(expr: Expr) -> float:
    """Evaluate a constant expression to a float."""
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Unary):
        v = constant_value(expr.child)
        if expr.op == "neg":
            return -v
        return getattr(math, "log" if expr.op == "ln" else expr.op)(v)
    if isinstance(expr, Binary):
        return BINARY_OPERATORS[expr.op](constant_value(expr.left), constant_value(expr.right))
    raise ExprSyntaxError("expression is not constant")


# ------------------------------------------------------------------ tokens


class Token(NamedTuple):
    kind: str  # num | ident | op | lparen | rparen | end
    text: str
    position: int


# one named group per token kind, tried in order; without re.ASCII, \d is
# str.isdecimal (the digits float accepts) and \w is str.isalnum or "_"
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)|(?P<op>[-+*/^])|(?P<lparen>\()|(?P<rparen>\))"
    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?)|(?P<ident>\w+)"
)


def tokenize(source: str) -> list[Token]:
    """Split an expression source string into tokens.

    Numbers support decimal and exponent notation, with the digits
    ``float`` accepts (``str.isdecimal``; "²" is illegal); an exponent needs
    a digit, so ``2e`` is a number and a word. A word is ``str.isalnum``
    characters and ``_``, starting with a letter or ``_``. Whitespace is
    space, tab, CR and LF. Raises IllegalCharacter with the 0-based offset
    of the first unrecognized character.
    """
    tokens: list[Token] = []
    i = 0
    while i < len(source):
        match = _TOKEN.match(source, i)
        kind = match and match.lastgroup
        if kind is None or (kind == "ident" and not (source[i].isalpha() or source[i] == "_")):
            raise IllegalCharacter(source[i], i)
        if kind != "space":
            tokens.append(Token(kind, match.group(), i))
        i = match.end()
    tokens.append(Token("end", "", len(source)))
    return tokens


# ------------------------------------------------------------------ parser


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _deeper(depth: int, position: int | None = None) -> int:
    """``depth + 1``, if that is at most _MAX_DEPTH; ``position`` is where it is reached."""
    if depth >= _MAX_DEPTH:
        raise ExprSyntaxError(f"expression nests deeper than {_MAX_DEPTH} levels", position)
    return depth + 1


def _check_leaf(leaf: Param | Coord, kind: str, dimension: int, name: str = "", position: int | None = None):
    """``s`` only in a curve component; ``x1 .. x<dimension>`` only in a field. ``name`` is
    the leaf's source text; a leaf built in Python is named by the printer, if it errs."""
    if isinstance(leaf, Param):
        if kind != "curve":
            raise WrongSymbolKind("parameter 's' not allowed in a field expression", position)
    elif kind != "field":
        name = name or format_expr(leaf)
        raise WrongSymbolKind(f"coordinate {name!r} not allowed in a curve component", position)
    elif not 1 <= leaf.index <= dimension:
        raise CoordOutOfRange(leaf.index, dimension, position)
    return leaf


def _check_exponent(exponent: Expr, position: int | None = None) -> None:
    """The exponent of ``^`` is a constant expression with a finite real value."""
    if not is_constant_expr(exponent):
        raise ExprSyntaxError("exponent of '^' must be a constant expression", position)
    try:
        value = constant_value(exponent)
    except (ArithmeticError, ValueError):  # math domain error, overflow, 1/0
        value = math.nan
    if not (isinstance(value, float) and math.isfinite(value)):
        raise ExprSyntaxError("exponent of '^' has no finite real value", position)


class _ExprParser:
    """Recursive-descent parser with precedence ^ > unary- > */ > +-.

    ``+ - * /`` are parsed by one precedence-climbing loop (``binary``) that
    takes each operator's binding strength from _PRECEDENCE, the table the
    printer reads; all four are left-associative. ``^`` is right-associative
    and its exponent must be a constant expression.

    The methods below ``parse`` return a subexpression with its tree depth
    (a leaf is 1 deep). The parser refuses a tree deeper than _MAX_DEPTH, and
    more than _MAX_DEPTH nested signs, parentheses, function arguments and
    exponents, so that neither it nor the recursive walkers over its trees
    come near Python's recursion limit.
    """

    def __init__(self, tokens: list[Token], kind: str, dimension: int):
        if kind not in ("curve", "field"):
            raise ValueError("kind must be 'curve' or 'field'")
        self.tokens = tokens
        self.kind = kind
        self.dimension = dimension
        self.pos = 0
        self.nesting = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ExprSyntaxError(f"expected {want!r}, found {tok.text or 'end'!r}", tok.position)
        return self.advance()

    def parse(self) -> Expr:
        expr, _ = self.binary()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r} after expression", tok.position)
        return expr

    def binary(self, floor: int = 1) -> tuple[Expr, int]:
        """Factors joined by the operators of + - * / that bind at least ``floor`` tightly."""
        expr, depth = self.factor()
        tok = self.peek()
        while tok.kind == "op" and tok.text in "+-*/" and _PRECEDENCE[tok.text] >= floor:
            self.advance()
            right, d = self.binary(_PRECEDENCE[tok.text] + 1)
            expr, depth = Binary(tok.text, expr, right), _deeper(max(depth, d), tok.position)
            tok = self.peek()
        return expr, depth

    def factor(self) -> tuple[Expr, int]:
        tok = self.peek()
        self.nesting = _deeper(self.nesting, tok.position)
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            expr, depth = self.factor()
            if tok.text == "-":
                expr, depth = Unary("neg", expr), _deeper(depth, tok.position)
        else:
            expr, depth = self.power()
        self.nesting -= 1
        return expr, depth

    def power(self) -> tuple[Expr, int]:
        base, depth = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent, d = self.factor()  # right-assoc; allows 2^-3 and 2^3^2
            _check_exponent(exponent, tok.position)
            return Binary("^", base, exponent), _deeper(max(depth, d), tok.position)
        return base, depth

    def atom(self) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "num":
            return Constant(float(tok.text)), 1
        if tok.kind == "lparen":
            expr = self.binary()
            self.expect("rparen")
            return expr
        if tok.kind == "ident":
            return self.identifier(tok)
        raise ExprSyntaxError(f"unexpected {tok.text or 'end'!r}", tok.position)

    def identifier(self, tok: Token) -> tuple[Expr, int]:
        name = tok.text
        if name in FUNCTIONS:
            self.expect("lparen")
            arg, depth = self.binary()
            self.expect("rparen")
            return Unary(name, arg), _deeper(depth, tok.position)
        if name in NAMED_CONSTANTS:
            return Constant(NAMED_CONSTANTS[name]), 1
        if name == "s" or (name.startswith("x") and name[1:].isdecimal()):
            leaf = Param() if name == "s" else Coord(int(name[1:]))
            return _check_leaf(leaf, self.kind, self.dimension, name, tok.position), 1
        raise UnknownIdentifier(name, tok.position)


def parse_expression(tokens: list[Token], kind: str, dimension: int) -> Expr:
    """Parse a token sequence into an Expr.

    ``kind`` selects which symbols are legal: 'curve' admits the parameter
    ``s``, 'field' admits coordinates ``x1 .. x<dimension>``.
    """
    return _ExprParser(tokens, kind, dimension).parse()


def parse_expr_text(source: str, kind: str, dimension: int = 0) -> Expr:
    return parse_expression(tokenize(source), kind, dimension)


# ---------------------------------------------------------------- printing

def format_expr(expr: Expr) -> str:
    """Render an Expr as parseable source text with minimal parentheses."""
    return _format(expr, 0)


def _format(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Constant):
        return repr(expr.value) if expr.value >= 0 else f"({expr.value!r})"
    if isinstance(expr, Param):
        return "s"
    if isinstance(expr, Coord):
        return f"x{expr.index}"
    if isinstance(expr, Unary):
        if expr.op == "neg":
            text = "-" + _format(expr.child, _PRECEDENCE["neg"])
            return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
        return f"{expr.op}({_format(expr.child, 0)})"
    if isinstance(expr, Binary):
        prec = _PRECEDENCE[expr.op]
        if expr.op == "^":
            # right-assoc: parenthesize a left child of equal precedence
            left = _format(expr.left, prec + 1)
            right = _format(expr.right, prec)
        else:
            left = _format(expr.left, prec)
            right = _format(expr.right, prec + 1)
        text = f"{left}{expr.op}{right}" if expr.op == "^" else f"{left} {expr.op} {right}"
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"not an Expr: {expr!r}")


# --------------------------------------------------------------- CurveSpec


@dataclass(frozen=True)
class CurveSpec:
    """A validated curve/field pair with sampling and tolerance settings."""

    dimension: int
    components: tuple[Expr, ...]
    field: Expr
    s_range: tuple[float, float]
    samples: int = DEFAULT_SAMPLES
    tol_const: float = DEFAULT_TOL_CONST
    tol_frame: float = DEFAULT_TOL_FRAME

    def __post_init__(self):
        if self.dimension < 2:
            raise DimensionMismatch(f"dimension must be >= 2, got {self.dimension}")
        if len(self.components) != self.dimension:
            raise DimensionMismatch(
                f"{len(self.components)} curve components for dimension {self.dimension}"
            )
        lo, hi = self.s_range
        if not (lo < hi and math.isfinite(hi - lo)):  # a finite width needs finite ends
            raise SpecDocumentError(f"invalid s_range {self.s_range!r}")
        if self.samples < 8:
            raise SpecDocumentError(f"samples must be >= 8, got {self.samples}")
        for name, tol in (("tol_const", self.tol_const), ("tol_frame", self.tol_frame)):
            if not (math.isfinite(tol) and tol > 0):
                raise SpecDocumentError(f"{name} must be finite and positive, got {tol!r}")
        # the parser's rules, without offsets, for trees that may be built in Python,
        # walked one level at a time so that a deep tree cannot exhaust the stack
        exponents = []
        for kind, expr in [*(("curve", c) for c in self.components), ("field", self.field)]:
            level, depth = [expr], 0
            while level:
                depth, below = _deeper(depth), []  # the nodes of ``level`` are ``depth`` deep
                for node in level:
                    if isinstance(node, Binary):
                        below += (node.left, node.right)
                        if node.op == "^":
                            exponents.append(node.right)
                    elif isinstance(node, Unary):
                        below.append(node.child)
                    elif isinstance(node, (Param, Coord)):
                        _check_leaf(node, kind, self.dimension)
                level = below
        for exponent in exponents:  # recursive walkers, safe once the depth is bounded
            _check_exponent(exponent)


def spec_payload(spec: CurveSpec) -> dict:
    """A spec's document keys and values, in document order; the report's ``spec`` block."""
    return {
        "dimension": spec.dimension,
        "curve": [format_expr(c) for c in spec.components],
        "field": format_expr(spec.field),
        "s_range": [spec.s_range[0], spec.s_range[1]],
        "samples": spec.samples,
        "tol_const": spec.tol_const,
        "tol_frame": spec.tol_frame,
    }


# ------------------------------------------------------- document parsing


def _parse_scalar(text: str, line: int):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise SpecDocumentError(f"cannot parse value {text!r}", line) from None


def _split_list(body: str, line: int) -> list[str]:
    """Split a list body on the commas outside strings and brackets."""
    items, current, depth = [], "", 0
    # a whole string, a run of plain characters, or one of '",()[]'
    for piece in re.findall(r'"[^"]*"|[^",()\[\]]+|.', body):
        if piece == '"':  # no closing quote follows
            raise SpecDocumentError("unterminated list or string", line)
        if piece == "," and depth == 0:
            items.append(current)
            current = ""
            continue
        depth += (piece in ("(", "[")) - (piece in (")", "]"))
        current += piece
    if depth != 0:
        raise SpecDocumentError("unterminated list or string", line)
    if current.strip():
        items.append(current)
    return items


def parse_curve_spec(document: str) -> CurveSpec:
    """Parse a curve-spec document into a validated CurveSpec.

    The format is one ``key = value`` pair per line; values are integers,
    reals, quoted expression strings, or bracketed lists of those. Blank
    lines and ``#`` comments are ignored. Required keys: ``dimension``,
    ``curve``, ``field``, ``s_range``. Optional: ``samples``, ``tol_const``,
    ``tol_frame``.
    """
    entries: dict[str, tuple[object, int]] = {}
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecDocumentError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key.isidentifier():
            raise SpecDocumentError(f"bad key {key!r}", lineno)
        if key in entries:
            raise SpecDocumentError(f"duplicate key {key!r}", lineno)
        if value.startswith("[") and value.endswith("]"):
            parsed: object = [_parse_scalar(item, lineno) for item in _split_list(value[1:-1], lineno)]
        else:
            parsed = _parse_scalar(value, lineno)
        entries[key] = (parsed, lineno)

    known = {"dimension", "curve", "field", "s_range", "samples", "tol_const", "tol_frame"}
    for key, (_, lineno) in entries.items():
        if key not in known:
            raise SpecDocumentError(f"unknown key {key!r}", lineno)

    def require(name: str):
        if name not in entries:
            raise MissingField(name)
        return entries[name]

    dim_value, dim_line = require("dimension")
    if not isinstance(dim_value, int):
        raise SpecDocumentError(f"dimension must be an integer, got {dim_value!r}", dim_line)
    dimension = dim_value

    curve_value, curve_line = require("curve")
    if not isinstance(curve_value, list) or not all(isinstance(c, str) for c in curve_value):
        raise SpecDocumentError("curve must be a list of quoted expressions", curve_line)
    if len(curve_value) != dimension:
        raise DimensionMismatch(
            f"{len(curve_value)} curve components for dimension {dimension}", curve_line
        )

    field_value, field_line = require("field")
    if not isinstance(field_value, str):
        raise SpecDocumentError("field must be a quoted expression", field_line)

    range_value, range_line = require("s_range")
    if (
        not isinstance(range_value, list)
        or len(range_value) != 2
        or not all(isinstance(v, (int, float)) for v in range_value)
    ):
        raise SpecDocumentError("s_range must be a list of two reals", range_line)

    def parse_wrapped(source: str, kind: str, lineno: int) -> Expr:
        try:
            return parse_expr_text(source, kind, dimension)
        except SpecDocumentError:
            raise
        except DslError as exc:
            quoted = repr(source)
            if len(source) > 80:  # a window of 40 characters around the offset
                start = min(max((exc.position or 0) - 20, 0), len(source) - 40)
                quoted = f"of {len(source)} characters, near {source[start:start + 40]!r}"
            raise SpecDocumentError(f"in expression {quoted}: {exc}", lineno) from exc

    components = tuple(parse_wrapped(src, "curve", curve_line) for src in curve_value)
    field_expr = parse_wrapped(field_value, "field", field_line)

    kwargs = {}
    if "samples" in entries:
        samples_value, samples_line = entries["samples"]
        if not isinstance(samples_value, int):
            raise SpecDocumentError("samples must be an integer", samples_line)
        kwargs["samples"] = samples_value
    for name in ("tol_const", "tol_frame"):
        if name in entries:
            value, lineno = entries[name]
            if not isinstance(value, (int, float)):
                raise SpecDocumentError(f"{name} must be a real", lineno)
            kwargs[name] = float(value)

    return CurveSpec(
        dimension=dimension,
        components=components,
        field=field_expr,
        s_range=(float(range_value[0]), float(range_value[1])),
        **kwargs,
    )


def format_document(payload: dict) -> str:
    """One ``key = <JSON value>`` line per key: the layout ``parse_curve_spec`` reads."""
    return "".join(f"{key} = {json.dumps(value)}\n" for key, value in payload.items())


def format_curve_spec(spec: CurveSpec) -> str:
    """Render a CurveSpec back to document text (parse round-trips)."""
    return format_document(spec_payload(spec))
