"""Expression and curve-spec parsing.

Two small languages live here. The expression language covers curve
components (functions of the parameter ``s``) and scalar fields (functions
of coordinates ``x1 .. xn``) with arithmetic, constant powers, and the
function set {sin, cos, exp, sqrt, ln}. The curve-spec document language is
a flat ``key = value`` text format holding a dimension, component
expressions, a field expression, a parameter range, and sampling/tolerance
settings.

An expression is scanned by one pass of one compiled pattern into
``(kind, text, offset)`` tuples, then parsed by one loop over ``+ - * /``
that calls one method for everything binding tighter. Within one parsed
document, equal subexpressions are one shared node. The parser checks
every rule as it builds the tree, so a CurveSpec from ``parse_curve_spec``
takes its trees as they are; one built in Python, directly or through
``dataclasses.replace``, has its trees walked against the same rules.
"""

from __future__ import annotations

import json
import math
import operator
import re
from contextvars import ContextVar
from dataclasses import dataclass

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
_TOO_DEEP = f"expression nests deeper than {_MAX_DEPTH} levels"
# the binary operators on floats, jets and field duals alike
BINARY_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}


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


# one named group per token kind, tried in order; without re.ASCII, \d is
# str.isdecimal (the digits float accepts) and \w is str.isalnum or "_".
# ``bad`` takes the rest of the source from a character nothing else matches.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)|(?P<op>[-+*/^])|(?P<lparen>\()|(?P<rparen>\))"
    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?)|(?P<ident>\w+)|(?P<bad>[\s\S]+)"
)


def _scan(source: str) -> list[tuple[str, str, int]]:
    """Split an expression source string into ``(kind, text, offset)`` tokens,
    by one pass of _TOKEN; ``kind`` is num, ident, op, lparen, rparen or end.

    Numbers support decimal and exponent notation, with the digits
    ``float`` accepts (``str.isdecimal``; "²" is illegal); an exponent needs
    a digit, so ``2e`` is a number and a word. A word is ``str.isalnum``
    characters and ``_``, starting with a letter or ``_``. Whitespace is
    space, tab, CR and LF. Raises IllegalCharacter with the 0-based offset
    of the first unrecognized character.
    """
    tokens = [(kind, m.group(), m.start()) for m in _TOKEN.finditer(source) if (kind := m.lastgroup) != "space"]
    # ``bad`` can only be last; a word can start with a numeric such as "²", neither a
    # letter nor "_", only in a source that is not ASCII
    for kind, text, position in tokens if not source.isascii() else tokens[-1:]:
        if kind == "bad" or (kind == "ident" and not (text[0].isalpha() or text[0] == "_")):
            raise IllegalCharacter(text[0], position)
    tokens.append(("end", "", len(source)))
    return tokens


# ------------------------------------------------------------------ parser


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _deeper(depth: int, position: int | None = None) -> int:
    """``depth + 1``, if that is at most _MAX_DEPTH; ``position`` is where it is reached."""
    if depth >= _MAX_DEPTH:
        raise ExprSyntaxError(_TOO_DEEP, position)
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
    """Precedence-climbing parser with precedence ^ > unary- > */ > +-.

    It reads ``_scan``'s ``(kind, text, offset)`` tuples. Every node is made
    through ``table``, keyed by its operator and the ``id()`` of its operands,
    a coordinate's index or a constant's value, so equal subexpressions of
    all the expressions parsed with one table are one object. ``binary``
    is one loop over ``+ - * /`` that keeps the left operands still waiting
    for their right ones on a stack, each operator's binding strength from
    _PRECEDENCE, the table the printer reads; all four are left-associative.
    ``operand`` is everything tighter in one method: signs, numbers,
    parentheses, function calls, names and a right-associative ``^``, whose
    exponent must be a constant expression.

    Both return a subexpression with its tree depth (a leaf is 1 deep). The
    parser refuses a tree deeper than _MAX_DEPTH, and more than _MAX_DEPTH
    nested signs, parentheses, function arguments and exponents (``operand``
    calls), so that neither it nor the recursive walkers over its trees come
    near Python's recursion limit.
    """

    def __init__(self, tokens: list[tuple[str, str, int]], kind: str, dimension: int, table: dict | None = None):
        if kind not in ("curve", "field"):
            raise ValueError("kind must be 'curve' or 'field'")
        self.tokens, self.kind, self.dimension = tokens, kind, dimension
        self.table = {} if table is None else table
        self.pos = self.nesting = 0  # the next token's index; the operand calls under way

    def make(self, key, cls, *fields) -> Expr:
        """The node of ``table`` at ``key``, made as ``cls(*fields)`` the first time."""
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = cls(*fields)
        return node

    def expect(self, kind: str) -> None:
        found, text, position = self.tokens[self.pos]
        if found != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {text or 'end'!r}", position)
        self.pos += 1

    def parse(self) -> Expr:
        expr, _ = self.binary()
        kind, text, position = self.tokens[self.pos]
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r} after expression", position)
        return expr

    def binary(self) -> tuple[Expr, int]:
        """Operands joined by ``+ - * /``."""
        tokens, waiting = self.tokens, []  # (left, its depth, operator, its offset, binding)
        expr, depth = self.operand()
        while True:
            kind, op, position = tokens[self.pos]
            binding = _PRECEDENCE[op] if kind == "op" and op in "+-*/" else 0
            while waiting and waiting[-1][4] >= binding:  # join what binds at least as tightly
                left, d, left_op, left_position, _ = waiting.pop()
                expr = self.make((left_op, id(left), id(expr)), Binary, left_op, left, expr)
                depth = (d if d > depth else depth) + 1
                if depth > _MAX_DEPTH:
                    raise ExprSyntaxError(_TOO_DEEP, left_position)
            if not binding:
                return expr, depth
            self.pos += 1
            waiting.append((expr, depth, op, position, binding))
            expr, depth = self.operand()

    def operand(self) -> tuple[Expr, int]:
        """A sign and its operand, or an atom and the ``^`` exponent that may follow it."""
        tokens = self.tokens
        kind, text, position = tokens[self.pos]
        if self.nesting >= _MAX_DEPTH:
            raise ExprSyntaxError(_TOO_DEEP, position)
        self.nesting += 1
        self.pos += 1
        if kind == "op" and text in "+-":
            expr, depth = self.operand()
            if text == "-":
                expr, depth = self.make(("neg", id(expr)), Unary, "neg", expr), _deeper(depth, position)
            self.nesting -= 1
            return expr, depth
        if kind == "num":
            value = float(text)  # never negative, so its value alone is its key
            expr, depth = self.make(value, Constant, value), 1
        elif kind == "lparen":
            expr, depth = self.binary()
            self.expect("rparen")
        elif kind != "ident":
            raise ExprSyntaxError(f"unexpected {text or 'end'!r}", position)
        elif text in FUNCTIONS:
            self.expect("lparen")
            arg, depth = self.binary()
            self.expect("rparen")
            expr, depth = self.make((text, id(arg)), Unary, text, arg), _deeper(depth, position)
        elif text in NAMED_CONSTANTS:
            value = NAMED_CONSTANTS[text]
            expr, depth = self.make(value, Constant, value), 1
        elif text == "s":
            expr, depth = _check_leaf(self.make("s", Param), self.kind, self.dimension, text, position), 1
        elif text.startswith("x") and text[1:].isdecimal():
            index = int(text[1:])
            leaf = self.make(("x", index), Coord, index)
            expr, depth = _check_leaf(leaf, self.kind, self.dimension, text, position), 1
        else:
            raise UnknownIdentifier(text, position)
        _, text, position = tokens[self.pos]
        if text == "^":  # right-assoc; allows 2^-3 and 2^3^2
            self.pos += 1
            exponent, d = self.operand()
            _check_exponent(exponent, position)
            expr = self.make(("^", id(expr), id(exponent)), Binary, "^", expr, exponent)
            depth = _deeper(max(depth, d), position)
        self.nesting -= 1
        return expr, depth


def parse_expr_text(source: str, kind: str, dimension: int = 0) -> Expr:
    """Parse an expression source string into an Expr.

    ``kind`` selects which symbols are legal: 'curve' admits the parameter
    ``s``, 'field' admits coordinates ``x1 .. x<dimension>``.
    """
    return _ExprParser(_scan(source), kind, dimension).parse()


# ---------------------------------------------------------------- printing

def format_expr(expr: Expr) -> str:
    """Render an Expr as parseable source text with minimal parentheses."""
    return _format(expr, 0)


def _format(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Constant):
        if math.isnan(expr.value):
            return "(1e999 - 1e999)"  # no literal reads back as nan, but inf - inf does
        text = repr(expr.value).replace("inf", "1e999")  # a literal the scanner reads back as inf
        return f"({text})" if math.copysign(1.0, expr.value) < 0 else text  # by the sign bit: -0.0 too
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
        _check_value("dimension", self.dimension)
        if len(self.components) != self.dimension:
            raise DimensionMismatch(f"{len(self.components)} curve components for dimension {self.dimension}")
        for key in ("s_range", "samples", "tol_const", "tol_frame"):
            _check_value(key, getattr(self, key))
        if not _PARSED.get():
            _check_trees(self)


def _check_value(key: str, value, line: int | None = None) -> None:
    """The rule on the value of a spec key, reported at ``line`` of a document if given."""
    if key == "dimension" and value < 2:
        raise DimensionMismatch(f"dimension must be >= 2, got {value}", line)
    if key == "s_range":
        lo, hi = value
        if not (lo < hi and math.isfinite(hi - lo)):  # a finite width needs finite ends
            raise SpecDocumentError(f"invalid s_range {value!r}", line)
    if key == "samples" and value < 8:
        raise SpecDocumentError(f"samples must be >= 8, got {value}", line)
    if key in ("tol_const", "tol_frame") and not (math.isfinite(value) and value > 0):
        raise SpecDocumentError(f"{key} must be finite and positive, got {value!r}", line)


# true, in this thread or task, while parse_curve_spec makes a CurveSpec of the
# trees its parser has just checked, which __post_init__ then does not walk again
_PARSED: ContextVar[bool] = ContextVar("parsed", default=False)


def _check_trees(spec: CurveSpec) -> None:
    """The parser's rules, without offsets, for trees that may be built in Python,
    walked one level at a time so that a deep tree cannot exhaust the stack."""
    exponents: dict[int, Expr] = {}
    for kind, expr in [*(("curve", c) for c in spec.components), ("field", spec.field)]:
        level, depth = {id(expr): expr}, 0
        while level:
            # the distinct nodes of ``level``, by id() in first-occurrence order, are ``depth`` deep
            depth, below = _deeper(depth), {}
            for node in level.values():
                if isinstance(node, Binary):
                    below[id(node.left)], below[id(node.right)] = node.left, node.right
                    if node.op == "^":
                        exponents[id(node.right)] = node.right
                elif isinstance(node, Unary):
                    below[id(node.child)] = node.child
                elif isinstance(node, (Param, Coord)):
                    _check_leaf(node, kind, spec.dimension)
            level = below
    for exponent in exponents.values():  # recursive walkers, safe once the depth is bounded
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


def _real(value: int | float) -> float:
    """A document's number as a float; an integer too large for one reads as
    an infinity, as a float literal does, for the key's check to report."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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

    dimension, dim_line = require("dimension")
    if not isinstance(dimension, int):
        raise SpecDocumentError(f"dimension must be an integer, got {dimension!r}", dim_line)
    _check_value("dimension", dimension, dim_line)

    curve_value, curve_line = require("curve")
    if not isinstance(curve_value, list) or not all(isinstance(c, str) for c in curve_value):
        raise SpecDocumentError("curve must be a list of quoted expressions", curve_line)
    if len(curve_value) != dimension:
        raise DimensionMismatch(f"{len(curve_value)} curve components for dimension {dimension}", curve_line)

    field_value, field_line = require("field")
    if not isinstance(field_value, str):
        raise SpecDocumentError("field must be a quoted expression", field_line)

    range_value, range_line = require("s_range")
    if not (isinstance(range_value, list) and len(range_value) == 2
            and all(isinstance(v, (int, float)) for v in range_value)):
        raise SpecDocumentError("s_range must be a list of two reals", range_line)
    s_range = (_real(range_value[0]), _real(range_value[1]))
    _check_value("s_range", s_range, range_line)

    table: dict = {}  # one for the document: components and field share equal subexpressions

    def parse_wrapped(source: str, kind: str, lineno: int) -> Expr:
        try:
            return _ExprParser(_scan(source), kind, dimension, table).parse()
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
        _check_value("samples", samples_value, samples_line)
        kwargs["samples"] = samples_value
    for name in ("tol_const", "tol_frame"):
        if name in entries:
            value, lineno = entries[name]
            if not isinstance(value, (int, float)):
                raise SpecDocumentError(f"{name} must be a real", lineno)
            kwargs[name] = _real(value)
            _check_value(name, kwargs[name], lineno)

    parsed = _PARSED.set(True)
    try:
        return CurveSpec(dimension, components, field_expr, s_range, **kwargs)
    finally:
        _PARSED.reset(parsed)


def format_document(payload: dict) -> str:
    """One ``key = <JSON value>`` line per key: the layout ``parse_curve_spec`` reads."""
    return "".join(f"{key} = {json.dumps(value)}\n" for key, value in payload.items())


def format_curve_spec(spec: CurveSpec) -> str:
    """Render a CurveSpec back to document text (parse round-trips)."""
    return format_document(spec_payload(spec))
