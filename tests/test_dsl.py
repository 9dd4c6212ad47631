"""Tokenizer, expression parser, and spec-document parser tests."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eikohelix import catalog, dsl
from eikohelix.dsl import (
    _MAX_DEPTH,
    FUNCTIONS,
    Binary,
    Constant,
    Coord,
    CurveSpec,
    Param,
    Unary,
    _ExprParser,
    _scan,
    _split_list,
    constant_value,
    format_curve_spec,
    format_document,
    format_expr,
    is_constant_expr,
    parse_curve_spec,
    parse_expr_text,
)
from eikohelix.errors import (
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
from eikohelix.jets import eval_expr_jet

from helpers import (
    ReferenceExprParser,
    add_all,
    lift_helix_r4,
    nonhelix_r3,
    random_expr,
    reference_format_curve_spec,
    reference_split_list,
    reference_tokenize,
    wcurve_helix_r3,
    wcurve_lift,
)

EXAMPLE_DOC = """\
dimension = 3
curve = ["cos(s/sqrt(2))", "s/sqrt(2)", "sin(s/sqrt(2))"]
field = "x1^2 + x2 + x3^2"
s_range = [0, 12.566]
samples = 512
"""


class TestTokenize:
    def test_function_call(self):
        kinds_texts = [(kind, text) for kind, text, _ in _scan("cos(s/sqrt(2))")[:-1]]
        assert kinds_texts == [
            ("ident", "cos"),
            ("lparen", "("),
            ("ident", "s"),
            ("op", "/"),
            ("ident", "sqrt"),
            ("lparen", "("),
            ("num", "2"),
            ("rparen", ")"),
            ("rparen", ")"),
        ]

    def test_field_polynomial(self):
        tokens = _scan("x1^2 + x2 + x3^2")[:-1]
        assert [(kind, text) for kind, text, _ in tokens[-3:]] == [
            ("ident", "x3"),
            ("op", "^"),
            ("num", "2"),
        ]
        assert [text for _, text, _ in tokens] == ["x1", "^", "2", "+", "x2", "+", "x3", "^", "2"]

    def test_illegal_character_position(self):
        with pytest.raises(IllegalCharacter) as exc_info:
            _scan("3 @ 4")
        assert exc_info.value.position == 2

    def test_scientific_notation(self):
        tokens = _scan("1.5e-3 + 2E6")[:-1]
        assert [text for _, text, _ in tokens] == ["1.5e-3", "+", "2E6"]

    def test_non_decimal_digits_are_illegal(self):
        # "²" passes str.isdigit but float() rejects it
        for source, position in (("s*²", 2), ("3²", 1), ("2.5²", 3)):
            with pytest.raises(IllegalCharacter) as exc_info:
                _scan(source)
            assert exc_info.value.position == position, source

    def test_decimal_digits_beyond_ascii(self):
        assert [text for _, text, _ in _scan("٣.٥e٢ + s")[:-1]] == ["٣.٥e٢", "+", "s"]

    def test_positions_recorded(self):
        tokens = _scan("s + 12")
        assert [position for _, _, position in tokens[:-1]] == [0, 2, 4]

    @pytest.mark.parametrize(
        "source, tokens",
        [
            ("1.e5", [("num", "1.e5", 0)]),
            (".5", [("num", ".5", 0)]),
            ("5.", [("num", "5.", 0)]),
            # an exponent needs a digit; without one the "e" starts a word
            ("2e", [("num", "2", 0), ("ident", "e", 1)]),
            ("1e+", [("num", "1", 0), ("ident", "e", 1), ("op", "+", 2)]),
            ("1.2.3", [("num", "1.2", 0), ("num", ".3", 3)]),
            ("_x1", [("ident", "_x1", 0)]),
            ("x_1", [("ident", "x_1", 0)]),
            ("é", [("ident", "é", 0)]),
            ("xⅫ", [("ident", "xⅫ", 0)]),
        ],
    )
    def test_token_boundaries(self, source, tokens):
        assert _scan(source) == [*tokens, ("end", "", len(source))]

    @pytest.mark.parametrize(
        "source, char, position",
        [("²x", "²", 0), ("½", "½", 0), ("Ⅻ", "Ⅻ", 0), ("s\f1", "\f", 1), ("s\v1", "\v", 1), ("s + .", ".", 4)],
    )
    def test_illegal_first_characters(self, source, char, position):
        # a word starts with a letter or "_"; whitespace is " \t\r\n" only
        with pytest.raises(IllegalCharacter) as exc_info:
            _scan(source)
        assert (exc_info.value.char, exc_info.value.position) == (char, position)
        assert str(exc_info.value) == f"illegal character {char!r} (at offset {position})"


class TestParseExpression:
    def test_curve_expression(self):
        expr = parse_expr_text("s/sqrt(2)", "curve")
        assert expr == Binary("/", Param(), Unary("sqrt", Constant(2.0)))

    def test_field_polynomial(self):
        expr = parse_expr_text("x1^2+x2+x3^2", "field", 3)
        assert expr == Binary(
            "+",
            Binary("+", Binary("^", Coord(1), Constant(2.0)), Coord(2)),
            Binary("^", Coord(3), Constant(2.0)),
        )

    def test_coord_out_of_range(self):
        with pytest.raises(CoordOutOfRange) as exc_info:
            parse_expr_text("x4", "field", 3)
        assert (exc_info.value.index, exc_info.value.dimension) == (4, 3)

    def test_wrong_symbol_kind(self):
        with pytest.raises(WrongSymbolKind):
            parse_expr_text("s + 1", "field", 3)
        with pytest.raises(WrongSymbolKind):
            parse_expr_text("x1", "curve")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse_expr_text("tan(s)", "curve")

    def test_coordinate_index_digits(self):
        with pytest.raises(UnknownIdentifier) as exc_info:
            parse_expr_text("1 + x²", "field", 3)
        assert exc_info.value.position == 4
        assert parse_expr_text("x٣", "field", 3) == Coord(3)
        assert parse_expr_text("٣*s", "curve") == Binary("*", Constant(3.0), Param())

    def test_precedence(self):
        # ^ binds tighter than unary minus, which binds tighter than * /
        assert parse_expr_text("-s^2", "curve") == Unary(
            "neg", Binary("^", Param(), Constant(2.0))
        )
        assert parse_expr_text("2*s+1", "curve") == Binary(
            "+", Binary("*", Constant(2.0), Param()), Constant(1.0)
        )
        # right-associative power with a unary exponent
        expr = parse_expr_text("2^-3", "curve")
        assert expr == Binary("^", Constant(2.0), Unary("neg", Constant(3.0)))

    def test_power_right_associative(self):
        expr = parse_expr_text("2^3^2", "curve")
        assert expr == Binary(
            "^", Constant(2.0), Binary("^", Constant(3.0), Constant(2.0))
        )

    def test_left_associative_subtraction(self):
        expr = parse_expr_text("s - 1 - 2", "curve")
        assert expr == Binary("-", Binary("-", Param(), Constant(1.0)), Constant(2.0))

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr_text("2^s", "curve")

    def test_exponent_without_finite_value_rejected(self):
        # ln(-1) has no real value and 10^400 overflows; both are parse
        # errors at the offset of the '^'
        for source in ("s^ln(0-1)", "s^(10^400)"):
            with pytest.raises(ExprSyntaxError) as exc_info:
                parse_expr_text(source, "curve")
            assert exc_info.value.position == 1

    def test_named_constants(self):
        assert parse_expr_text("pi", "curve") == Constant(math.pi)
        assert parse_expr_text("e", "curve") == Constant(math.e)

    def test_syntax_errors_positioned(self):
        for bad in ("s +", "(s", "sin s", "s 2", ""):
            with pytest.raises(ExprSyntaxError):
                parse_expr_text(bad, "curve")


# shape -> (source nested k levels deep, offset where level 101 is reached)
DEEP_SHAPES = {
    "parentheses": (lambda k: "(" * (k - 1) + "s" + ")" * (k - 1), 100),
    "functions": (lambda k: "sin(" * (k - 1) + "s" + ")" * (k - 1), 400),
    "signs": (lambda k: "-" * (k - 1) + "s", 100),
    "sum": (lambda k: "s" + "+s" * (k - 1), 199),
    "product": (lambda k: "s" + "*s" * (k - 1), 199),
    "powers": (lambda k: "2" + "^1" * (k - 1), 200),
}


class TestDepthBound:
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_past_the_bound(self, shape):
        source, offset = DEEP_SHAPES[shape]
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse_expr_text(source(_MAX_DEPTH + 1), "curve")
        assert exc_info.value.position == offset
        assert "expression nests deeper than 100 levels" in str(exc_info.value)

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_walkers_at_the_bound(self, shape):
        """The deepest tree the parser accepts leaves every recursive walker
        far inside the recursion limit: each runs with 150 frames to spare."""
        expr = parse_expr_text(DEEP_SHAPES[shape][0](_MAX_DEPTH), "curve")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 150)
        try:
            text = format_expr(expr)
            value = constant_value(expr) if is_constant_expr(expr) else eval_expr_jet(expr, 0.5, 2)
        finally:
            sys.setrecursionlimit(limit)
        assert parse_expr_text(text, "curve") == expr
        assert value == 2.0 or value.order == 2


class TestParseCurveSpec:
    def test_reference_document(self):
        spec = parse_curve_spec(EXAMPLE_DOC)
        assert spec.dimension == 3
        assert len(spec.components) == 3
        assert spec.s_range == (0.0, 12.566)
        assert spec.samples == 512
        assert spec.tol_const == 1e-8
        assert spec.tol_frame == 1e-10
        assert isinstance(spec.field, Binary)

    def test_dimension_mismatch(self):
        doc = EXAMPLE_DOC.replace('"s/sqrt(2)", ', "")
        with pytest.raises(DimensionMismatch):
            parse_curve_spec(doc)

    def test_samples_default(self):
        doc = "\n".join(line for line in EXAMPLE_DOC.splitlines() if "samples" not in line)
        assert parse_curve_spec(doc).samples == 512

    def test_missing_field(self):
        doc = "\n".join(line for line in EXAMPLE_DOC.splitlines() if "field" not in line)
        with pytest.raises(MissingField):
            parse_curve_spec(doc)

    def test_expression_error_wrapped_with_line(self):
        doc = EXAMPLE_DOC.replace("x1^2 + x2 + x3^2", "x9")
        with pytest.raises(SpecDocumentError) as exc_info:
            parse_curve_spec(doc)
        assert exc_info.value.line == 3

    @pytest.mark.parametrize(
        "length, offset, start", [(80, 79, None), (81, 80, 41), (2001, 1000, 980), (2001, 5, 0)]
    )
    def test_expression_quoted_in_error(self, length, offset, start):
        """Sources up to 80 characters are quoted whole; longer ones by the
        40 characters around the offset."""
        legal = ("s+" * length)[:length]
        source = legal[:offset] + "@" + legal[offset + 1 :]
        doc = EXAMPLE_DOC.replace('"s/sqrt(2)"', f'"{source}"')
        with pytest.raises(SpecDocumentError) as exc_info:
            parse_curve_spec(doc)
        quoted = repr(source) if start is None else f"of {length} characters, near {source[start:start + 40]!r}"
        at = f"illegal character '@' (at offset {offset}) (line 2)"
        assert str(exc_info.value) == f"in expression {quoted}: {at}"

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecDocumentError):
            parse_curve_spec(EXAMPLE_DOC + "extra = 1\n")

    def test_comments_and_blank_lines(self):
        doc = "# a comment\n\n" + EXAMPLE_DOC + "\ntol_const = 1e-9  # trailing\n"
        assert parse_curve_spec(doc).tol_const == 1e-9

    def test_bad_ranges_and_tolerances(self):
        with pytest.raises(SpecDocumentError):
            parse_curve_spec(EXAMPLE_DOC.replace("[0, 12.566]", "[3, 3]"))
        with pytest.raises(SpecDocumentError):
            parse_curve_spec(EXAMPLE_DOC + "tol_frame = -1\n")
        with pytest.raises(SpecDocumentError):
            parse_curve_spec(EXAMPLE_DOC.replace("samples = 512", "samples = 4"))

    @pytest.mark.parametrize("s_range", ["[-1e308, 1e308]", "[-inf, 0]", "[0, nan]", "[0, inf]"])
    def test_s_range_width_must_be_finite(self, s_range):
        with pytest.raises(SpecDocumentError, match="invalid s_range"):
            parse_curve_spec(EXAMPLE_DOC.replace("[0, 12.566]", s_range))

    def test_document_round_trip(self):
        spec = parse_curve_spec(EXAMPLE_DOC)
        assert parse_curve_spec(format_curve_spec(spec)) == spec

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("[0, 12.566]", '[0, "]', "unterminated list or string (line 4)"),
            ('"sin(s/sqrt(2))"]', '"sin(s/sqrt(2))]', "unterminated list or string (line 2)"),
            ("[0, 12.566]", "[(1, 2)]", "cannot parse value '(1, 2)' (line 4)"),
            ("[0, 12.566]", "[1, 2]]", "unterminated list or string (line 4)"),
            ("[0, 12.566]", "[1,, 2]", "cannot parse value '' (line 4)"),
            ('"x1^2 + x2 + x3^2"', '"a" "b"', "in expression 'a\" \"b': illegal character '\"' (at offset 1) (line 3)"),
            ('"x1^2 + x2 + x3^2"', '"', "cannot parse value '\"' (line 3)"),
            ("samples = 512", "samples 512", "expected 'key = value', got 'samples 512' (line 5)"),
            ("samples = 512", "1key = 1", "bad key '1key' (line 5)"),
            ("samples = 512", "field = 1", "duplicate key 'field' (line 5)"),
            ("samples = 512", "extra = 1", "unknown key 'extra' (line 5)"),
        ],
    )
    def test_malformed_documents(self, old, new, message):
        assert old in EXAMPLE_DOC
        with pytest.raises(SpecDocumentError) as exc_info:
            parse_curve_spec(EXAMPLE_DOC.replace(old, new))
        assert str(exc_info.value) == message
        assert exc_info.value.line == int(message.rsplit(" ", 1)[1][:-1])

    @pytest.mark.parametrize(
        "edits, error, message",
        [
            ({"samples": "4"}, SpecDocumentError, "samples must be >= 8, got 4 (line 5)"),
            ({"s_range": "[1, 0]"}, SpecDocumentError, "invalid s_range (1.0, 0.0) (line 4)"),
            ({"tol_const": "-1"}, SpecDocumentError, "tol_const must be finite and positive, got -1.0 (line 6)"),
            # integers too large for a float read as infinities, as float literals do
            ({"s_range": f"[0, 1{'0' * 400}]"}, SpecDocumentError, "invalid s_range (0.0, inf) (line 4)"),
            (
                {"tol_const": f"1{'0' * 400}"},
                SpecDocumentError,
                "tol_const must be finite and positive, got inf (line 6)",
            ),
            (
                {"tol_frame": f"-1{'0' * 400}"},
                SpecDocumentError,
                "tol_frame must be finite and positive, got -inf (line 6)",
            ),
            ({"dimension": "1"}, DimensionMismatch, "dimension must be >= 2, got 1 (line 1)"),
            (
                {"dimension": "1", "curve": '["s"]', "field": '"x3"'},
                DimensionMismatch,
                "dimension must be >= 2, got 1 (line 1)",
            ),
        ],
        ids=[
            "samples", "s_range", "tol_const", "huge_s_range", "huge_tol_const", "huge_tol_frame",
            "dimension", "dimension_first",
        ],
    )
    def test_value_errors_name_their_line(self, edits, error, message):
        """A key's value is checked on its line, dimension before the curve's
        length and before any expression is parsed; the edits are made to
        the emitted helix345_fz document, a key it lacks appended."""
        lines = catalog.get("helix345_fz").document.splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        for key, value in edits.items():
            if key not in keys:
                keys.append(key)
                lines.append("")
            lines[keys.index(key)] = f"{key} = {value}"
        with pytest.raises(error) as exc_info:
            parse_curve_spec("\n".join(lines) + "\n")
        assert type(exc_info.value) is error
        assert str(exc_info.value) == message

    def test_trailing_comma_in_list(self):
        assert parse_curve_spec(EXAMPLE_DOC.replace("[0, 12.566]", "[1, 2,]")).s_range == (1.0, 2.0)


# ------------------------------------------------- property-based checks

_CONSTANTS = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
).map(Constant)
# a leaf may also be infinite, which no literal but one that overflows gives
_LEAF_CONSTANTS = st.one_of(_CONSTANTS, st.just(Constant(math.inf)))


def _expr_strategy(kind: str, dimension: int = 3):
    if kind == "curve":
        leaves = st.one_of(_LEAF_CONSTANTS, st.just(Param()))
    else:
        leaves = st.one_of(
            _LEAF_CONSTANTS, st.integers(1, dimension).map(Coord)
        )

    def extend(children):
        unary = st.builds(
            Unary, st.sampled_from(["neg", "sin", "cos", "exp", "sqrt", "ln"]), children
        )
        binary = st.builds(
            Binary, st.sampled_from(["+", "-", "*", "/"]), children, children
        )
        power = st.builds(Binary, st.just("^"), children, _CONSTANTS)
        return st.one_of(unary, binary, power)

    return st.recursive(leaves, extend, max_leaves=20)


@given(_expr_strategy("curve"))
@example(Binary("+", Param(), Binary("^", Constant(math.inf), Constant(2.0))))
@settings(max_examples=200)
def test_print_parse_round_trip_curve(expr):
    assert parse_expr_text(format_expr(expr), "curve") == expr


@given(_expr_strategy("field", 4))
@example(Binary("/", Coord(1), Constant(math.inf)))
@settings(max_examples=200)
def test_print_parse_round_trip_field(expr):
    assert parse_expr_text(format_expr(expr), "field", 4) == expr


def test_negative_zero_keeps_its_sign_through_the_printer():
    """-0.0 is negative by its sign bit only: printed bare, (-0.0)^2 would
    read back as -(0.0^2) = -0.0 where the tree's value is +0.0."""
    tree = Binary("^", Constant(-0.0), Constant(2.0))
    text = format_expr(tree)
    assert text == "(-0.0)^2.0"
    value, back = constant_value(tree), constant_value(parse_expr_text(text, "curve"))
    assert (value, math.copysign(1.0, value)) == (back, math.copysign(1.0, back)) == (0.0, 1.0)



def test_nan_constant_reads_back_through_the_printer():
    """No literal reads as nan, so a nan built in Python prints as inf - inf."""
    s = Param()
    spec = CurveSpec(3, (s, s, Binary("*", Constant(math.nan), s)), Coord(3), (0.0, 1.0))
    text = format_curve_spec(spec)
    assert 'curve = ["s", "s", "(1e999 - 1e999) * s"]' in text
    back = parse_curve_spec(text).components[2]
    assert math.isnan(constant_value(back.left)) and back.right == s

@given(st.text(alphabet="sx123+-*/^(). abcdefghilnopqrt_", max_size=40))
@settings(max_examples=300)
def test_parser_total_over_garbage(source):
    """Arbitrary input either parses or raises a positioned DslError."""
    try:
        parse_expr_text(source, "curve")
    except DslError:
        pass


@given(st.lists(st.sampled_from("sx1+-*/^()2. "), max_size=25).map("".join))
@settings(max_examples=300)
def test_parser_total_over_token_soup(source):
    try:
        parse_expr_text(source, "field", 2)
    except DslError:
        pass


def test_curvespec_validation():
    expr = parse_expr_text("s", "curve")
    field = parse_expr_text("x1", "field", 2)
    with pytest.raises(DimensionMismatch):
        CurveSpec(dimension=2, components=(expr,), field=field, s_range=(0.0, 1.0))
    with pytest.raises(SpecDocumentError):
        CurveSpec(
            dimension=2,
            components=(expr, expr),
            field=field,
            s_range=(0.0, 1.0),
            tol_const=0.0,
        )


# ------------------------------------------ one operator loop, one writer


def _outcome(parser, scanner, source: str, kind: str, dimension: int):
    """The parsed tree, or the error's type, message and offset."""
    try:
        return parser(scanner(source), kind, dimension).parse()
    except DslError as exc:
        return type(exc), str(exc), exc.position


_PIECES = ["s", "x1", "x3", "2", "0.5", "1e3", "pi", "+", "-", "*", "/", "^", "(", ")", "sin(", "ln(", " "]
_EXPONENTS = ["2", "-1", "(1/2)", "3^2", "s", "(0-1)^0.5", "2*3", "ln(0)"]


def _random_text(rng: random.Random, depth: int) -> str:
    """A random expression source of sums, products, signs, parentheses,
    powers and functions, not always legal."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["s", "x1", "x2", "3", "0.5", "pi", "1e400"])
    r = rng.random()
    if r < 0.55:
        op = rng.choice(["+", "-", "*", "/", " + ", " - ", " * ", " / "])
        return _random_text(rng, depth - 1) + op + _random_text(rng, depth - 1)
    if r < 0.65:
        return f"({_random_text(rng, depth - 1)})"
    if r < 0.75:
        return rng.choice("+-") + _random_text(rng, depth - 1)
    if r < 0.87:
        return f"{_random_text(rng, depth - 1)}^{rng.choice(_EXPONENTS)}"
    return f"{rng.choice(FUNCTIONS)}({_random_text(rng, depth - 1)})"


def _random_source(rng: random.Random) -> str:
    if rng.random() < 0.4:  # token soup
        return "".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 12)))
    text = _random_text(rng, rng.randint(1, 5))
    if rng.random() < 0.3:  # one piece overwritten
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(_PIECES) + text[i + 1 :]
    return text


# deep shapes that mix the operator levels with the nesting counts
_MIXED_DEEP = {
    "sum of products of functions": lambda k: "s+s*sin(" * (k - 1) + "s" + ")" * (k - 1),
    "quotients in parentheses": lambda k: "s/(" * (k - 1) + "s" + ")" * (k - 1),
    "signed differences": lambda k: "s-" * (k - 1) + "-s",
    "products of sums": lambda k: "(s+" * (k - 1) + "s" + ")*s" * (k - 1),
    "powers of products": lambda k: "2*" * (k - 1) + "s^2" + "^1" * (k - 1),
}


class TestOneOperatorLoop:
    """The parser's one precedence-climbing loop for + - * / against the
    parser with one method per precedence level (helpers.ReferenceExprParser):
    the same tree, or the same error type, message and offset."""

    def test_generated_strings(self):
        rng = random.Random(20121)
        parsed, differences = 0, []
        for _ in range(100_000):
            source = _random_source(rng)
            kind = rng.choice(["curve", "field"])
            new = _outcome(_ExprParser, _scan, source, kind, 2)
            if new != _outcome(ReferenceExprParser, reference_tokenize, source, kind, 2):
                differences.append(source)
            parsed += not isinstance(new, tuple)
        assert differences == []
        assert parsed > 10_000  # most of the legal strings exercise precedence

    @pytest.mark.parametrize("shape", [*DEEP_SHAPES, *_MIXED_DEEP])
    @pytest.mark.parametrize("kind", ["curve", "field"])
    def test_at_the_depth_bound(self, shape, kind):
        make = DEEP_SHAPES[shape][0] if shape in DEEP_SHAPES else _MIXED_DEEP[shape]
        for k in (_MAX_DEPTH - 1, _MAX_DEPTH, _MAX_DEPTH + 1):
            source = make(k)
            new = _outcome(_ExprParser, _scan, source, kind, 3)
            assert new == _outcome(ReferenceExprParser, reference_tokenize, source, kind, 3), (shape, k)


# every branch of both scanners, with digits, letters and numerics beyond
# ASCII and the whitespace that the tokenizer refuses
_TOKEN_CHARS = [*"0123456789.eE+-*/^() \t\r\nxs_@", "٣", "𝟘", "²", "½", "Ⅻ", "é", "\f", "\v"]
_LIST_CHARS = '",()[] a1.\t-é'


def _scanned(scanner, *args):
    """The scanner's result, or the error's type, message and offset."""
    try:
        return scanner(*args)
    except DslError as exc:
        return type(exc), str(exc), exc.position


class TestScanners:
    """The scanners' compiled patterns against the character loops of
    helpers.reference_tokenize and helpers.reference_split_list."""

    def test_tokenize(self):
        rng = random.Random(4960)
        tokenized = 0
        for _ in range(30_000):
            source = "".join(rng.choice(_TOKEN_CHARS) for _ in range(rng.randint(0, 14)))
            new = _scanned(_scan, source)
            assert new == _scanned(reference_tokenize, source), source
            tokenized += isinstance(new, list)
        assert tokenized > 5_000

    def test_split_list(self):
        rng = random.Random(1211)
        split = 0
        for _ in range(30_000):
            body = "".join(rng.choice(_LIST_CHARS) for _ in range(rng.randint(0, 16)))
            new = _scanned(_split_list, body, 7)
            assert new == _scanned(reference_split_list, body, 7), body
            split += isinstance(new, list)
        assert split > 5_000


# SHA-256 of each catalog document before the entries were written by
# format_document
CATALOG_SHA256 = {
    "paper_3_1": "30d9513b2bc27a962235dd96f23a1307c1ec930608ffce05b0e860202217774d",
    "helix345_fz": "e90004a41f96b2dc3b5e7729d554fe70dd98b57054e3b73e70eda993aee5c899",
    "wcurve_r4": "74f07662aa28be263ca1ae4a415d0b13458adaf22bee6a4278bdb7248e0794fd",
    "helix_r4": "e97504daf0dc63effcfb07384a986b5359fdb71cad08e235205b5b90be1a397c",
    "circle_in_r3": "78085db25ab4a9e74acc201c4158408a566aeed99fe5d8ed78306b81ab44e10d",
    "nonhelix_parabolic": "291510a5a24d700082c8f89af96ae90b6ba3dc8c202b3f2b7e65dbfb112d854f",
}


def _writer_specs() -> list[CurveSpec]:
    """The catalog specs, the fuzz families, the W-curve lifts and random
    expression trees, at varied tolerances."""
    rng = np.random.default_rng(44)
    specs = [catalog.load(name) for name in catalog.names()]
    for _ in range(8):
        specs += [wcurve_helix_r3(rng).spec, lift_helix_r4(rng).spec, nonhelix_r3(rng)]
    specs += [wcurve_lift(n, 16, quadratic) for n in range(3, 14) for quadratic in (False, True)]
    for i in range(30):
        curve = tuple(random_expr(rng, 4, Param()) for _ in range(3))
        field = add_all([random_expr(rng, 3, Coord(j)) for j in (1, 2, 3)])
        lo = float(rng.uniform(-5, 5))
        specs.append(
            CurveSpec(3, curve, field, (lo, lo + float(rng.uniform(0.1, 9))), samples=8 + i,
                      tol_const=float(rng.uniform(1e-12, 1e-3)), tol_frame=10.0 ** -(i % 15))
        )
    return specs


class TestDocumentWriter:
    @pytest.mark.parametrize("name", catalog.names())
    def test_catalog_document_bytes(self, name):
        document = catalog.get(name).document.encode("utf-8")
        assert hashlib.sha256(document).hexdigest() == CATALOG_SHA256[name]

    def test_format_curve_spec_matches_line_writer(self):
        specs = _writer_specs()
        assert len(specs) == 82
        for spec in specs:
            text = format_curve_spec(spec)
            assert text == reference_format_curve_spec(spec)
            parse_curve_spec(text)  # the reader takes it back


# ------------------------------------------------------ hand-built specs


def _hand_built(curve_last=Param(), field=Coord(3)) -> CurveSpec:
    return CurveSpec(3, (Unary("cos", Param()), Unary("sin", Param()), curve_last), field, (0.0, 1.0))


def _parser_message(source: str, kind: str) -> str:
    """What the parser says about ``source`` in R^3, without the offset."""
    with pytest.raises(DslError) as exc_info:
        parse_expr_text(source, kind, 3)
    return str(exc_info.value).rsplit(" (at offset ", 1)[0]


class TestHandBuiltSpecs:
    """A CurveSpec built in Python meets the parser's rules; the errors are
    the parser's, without an offset."""

    @pytest.mark.parametrize("index", [0, -1])
    def test_coordinate_below_one(self, index):
        with pytest.raises(CoordOutOfRange) as exc_info:
            _hand_built(field=Coord(index))
        assert str(exc_info.value) == f"coordinate x{index} out of range for dimension 3"
        assert exc_info.value.position is None

    def test_coordinate_past_dimension(self):
        with pytest.raises(CoordOutOfRange) as exc_info:
            _hand_built(field=Binary("+", Coord(1), Coord(4)))
        assert str(exc_info.value) == _parser_message("x1 + x4", "field")

    @pytest.mark.parametrize(
        "field, source",
        [
            (Binary("^", Coord(1), Coord(2)), "x1^x2"),
            (Binary("^", Coord(1), Unary("ln", Unary("neg", Constant(1.0)))), "x1^ln(-1)"),
        ],
        ids=["not constant", "no finite value"],
    )
    def test_exponents(self, field, source):
        with pytest.raises(ExprSyntaxError) as exc_info:
            _hand_built(field=field)
        assert str(exc_info.value) == _parser_message(source, "field")
        with pytest.raises(ExprSyntaxError):
            _hand_built(curve_last=Binary("^", Param(), Param()))

    def test_symbols_of_the_wrong_kind(self):
        with pytest.raises(WrongSymbolKind) as exc_info:
            _hand_built(field=Binary("*", Coord(1), Param()))
        assert str(exc_info.value) == _parser_message("x1*s", "field")
        with pytest.raises(WrongSymbolKind) as exc_info:
            _hand_built(curve_last=Binary("+", Param(), Coord(2)))
        assert str(exc_info.value) == _parser_message("s + x2", "curve")

    def test_deep_tree(self):
        with pytest.raises(ExprSyntaxError) as exc_info:
            _hand_built(curve_last=add_all([Param()] * 1000))
        assert str(exc_info.value) == "expression nests deeper than 100 levels"
        spec = _hand_built(curve_last=add_all([Param()] * _MAX_DEPTH))  # at the bound
        assert parse_curve_spec(format_curve_spec(spec)) == spec


def _rotated_document() -> str:
    """A document like the benchmark's many small specs: helix345 rotated and rescaled in R^3,
    with the unit linear field along its rotated axis."""
    q = np.linalg.qr(np.random.default_rng(19).standard_normal((3, 3)))[0]
    terms = ["(3*cos(s/5))", "(3*sin(s/5))", "(4*s/5)"]
    curve = [" + ".join(f"{float(1.3 * q[r, c])!r}*{t}" for c, t in enumerate(terms)) for r in range(3)]
    field = " + ".join(f"{float(q[r, 2])!r}*x{r + 1}" for r in range(3))
    return format_document({"dimension": 3, "curve": curve, "field": field, "s_range": [0.5, 10.5], "samples": 16})


class TestCheckedOnce:
    """parse_curve_spec's trees are checked by the parser only; a tree built in
    Python, directly or through dataclasses.replace, is walked by CurveSpec."""

    def test_parsed_trees_are_not_walked_again(self, monkeypatch):
        walked = []
        walk = dsl._check_trees
        monkeypatch.setattr(dsl, "_check_trees", lambda spec: walked.append(spec) or walk(spec))
        documents = [catalog.get(name).document for name in catalog.names()] + [_rotated_document()]
        specs = [parse_curve_spec(document) for document in documents]
        assert walked == []
        field = Binary("+", Coord(1), Binary("*", Constant(2.0), Param()))  # contains s
        message = "parameter 's' not allowed in a field expression"
        for build in (
            lambda: dataclasses.replace(specs[-1], field=field),
            lambda: CurveSpec(3, specs[-1].components, field, specs[-1].s_range),
        ):
            with pytest.raises(WrongSymbolKind) as exc_info:
                build()
            assert str(exc_info.value) == message == _parser_message("x1 + 2*s", "field")
        assert len(walked) == 2

    def test_shared_nodes_are_walked_once(self, monkeypatch):
        """A tree built in Python that shares its children is walked by its
        distinct nodes at each level, not by every occurrence: 16 doublings
        of one ``s^2`` are 2^16 occurrences of one leaf and one exponent."""
        calls = []
        for name in ("_check_leaf", "_check_exponent"):
            check = getattr(dsl, name)
            monkeypatch.setattr(dsl, name, lambda *args, name=name, check=check: calls.append(name) or check(*args))
        x = Binary("^", Param(), Constant(2.0))
        for _ in range(16):
            x = Binary("+", x, x)
        CurveSpec(3, (x, Param(), Param()), Coord(3), (0.0, 1.0))
        assert (calls.count("_check_leaf"), calls.count("_check_exponent")) == (4, 1)

        x = Param()
        for _ in range(100):
            x = Binary("+", x, x)
        with pytest.raises(ExprSyntaxError) as exc_info:
            CurveSpec(3, (x, Param(), Param()), Coord(3), (0.0, 1.0))
        assert str(exc_info.value) == "expression nests deeper than 100 levels"
