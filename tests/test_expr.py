"""Expression grammar: parsing, the tape, evaluation, printing, and fuzz
robustness.

The node classes below are a syntax tree kept on the test side only, as an
independent oracle: random trees reach the parser as text through
:func:`to_source`, :func:`tape_of` is the tape the parser must emit for
them, and :func:`eval_node_reference` evaluates them one Python float
operation per node.
"""

import re
import string
from dataclasses import dataclass
from typing import Union

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivwsm import EvalError, ParseError, evaluate, parse
from ivwsm.expr import MAX_DEPTH, _tokenize, _Token

Node = Union["Const", "Var", "Neg", "Abs", "Bin", "Pow", "MinMax"]


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    operand: Node


@dataclass(frozen=True)
class Abs:
    operand: Node


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow:
    base: Node
    exponent: int  # nonnegative


@dataclass(frozen=True)
class MinMax:
    op: str  # 'min' or 'max'
    args: tuple[Node, ...]


class TestParseExamples:
    def test_poly_example(self):
        ast = parse("5 - x1*x2 - x1", 2)
        assert evaluate(ast, [-1.0, -1.0]) == 5.0  # 5 - 1 + 1

    def test_abs(self):
        ast = parse("abs(x1)", 1)
        assert evaluate(ast, [-2.0]) == 2.0

    def test_truncated_input_offset(self):
        with pytest.raises(ParseError) as err:
            parse("x1 +", 1)
        assert err.value.offset == 4

    def test_upper_poly(self):
        ast = parse("10 - x1^2*x2 - x2^2*x1", 2)
        assert evaluate(ast, [-1.0, 0.0]) == 10.0

    def test_min_max(self):
        ast = parse("min(x1, 2*x1)", 1)
        assert evaluate(ast, [3.0]) == 3.0
        assert evaluate(ast, [-3.0]) == -6.0
        ast = parse("max(x1, 0, -1)", 1)
        assert evaluate(ast, [-5.0]) == 0.0

    def test_precedence(self):
        # '^' binds tighter than '*', which binds tighter than '-'
        ast = parse("2*x1^2 - 1", 1)
        assert evaluate(ast, [3.0]) == 17.0
        # unary minus forms an atom, so it is the base of the power
        assert evaluate(parse("-x1^2", 1), [3.0]) == 9.0
        assert evaluate(parse("-(x1^2)", 1), [3.0]) == -9.0

    def test_division(self):
        assert evaluate(parse("x1 / 4", 1), [2.0]) == 0.5

    def test_numbers(self):
        assert evaluate(parse("1.5e2", 1), [0.0]) == 150.0
        assert evaluate(parse("2.5 + 1e-3", 1), [0.0]) == 2.501

    def test_whitespace_insensitive(self):
        a = parse("1+2 * x1", 1)
        b = parse("  1 + 2*x1 ", 1)
        assert a == b


class TestParseErrors:
    def test_variable_beyond_dimension(self):
        with pytest.raises(ParseError, match="outside dimension"):
            parse("x3 + 1", 2)
        with pytest.raises(ParseError):
            parse("x0", 2)

    def test_bad_exponent(self):
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse("x1^2.5", 1)
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse("x1^-2", 1)
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse("x1^(2)", 1)

    def test_unknown_name(self):
        with pytest.raises(ParseError, match="unknown name"):
            parse("sin(x1)", 1)

    def test_min_needs_two_arguments(self):
        with pytest.raises(ParseError):
            parse("min(x1)", 1)

    def test_stray_character(self):
        with pytest.raises(ParseError) as err:
            parse("x1 $ 2", 1)
        assert err.value.offset == 3

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(x1 + 1", 1)
        with pytest.raises(ParseError, match="trailing"):
            parse("x1 + 1)", 1)

    @pytest.mark.parametrize(
        "source, message, offset",
        [
            ("(" * 245 + "x1" + ")" * 245, f"nests deeper than {MAX_DEPTH} levels", 128),
            ("-" * 980 + "x1", f"nests deeper than {MAX_DEPTH} levels", 509),
            ("x1\u00b2", "unexpected character '\u00b2'", 2),
            ("\u00e9 + x1", "unexpected character '\u00e9'", 0),
            ("x1^" + "9" * 5000, "exponent must be a nonnegative integer", 3),
        ],
        ids=["deep-parens", "many-minuses", "superscript", "accent", "long-exponent"],
    )
    def test_input_beyond_the_grammar_limits_is_a_parse_error(self, source, message, offset):
        with pytest.raises(ParseError, match=message) as err:
            parse(source, 1)
        assert err.value.offset == offset


def deepest_accepted(make) -> int:
    """The largest m for which ``parse(make(m), 1)`` is accepted."""
    lo, hi = 1, 4 * MAX_DEPTH  # lo parses, hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(make(mid), 1)
            lo = mid
        except ParseError:
            hi = mid
    return lo


class TestNestingBound:
    """Every expression within MAX_DEPTH parses and evaluates without
    exhausting Python's recursion limit, here under the test runner's own
    stack; one level more is a ParseError."""

    @pytest.mark.parametrize(
        "make, value",
        [
            (lambda m: "(" * m + "x1" + ")" * m, lambda m: 0.5),
            (lambda m: "-" * m + "x1", lambda m: (-1) ** m * 0.5),
            (lambda m: "abs(" * m + "-x1" + ")" * m, lambda m: 0.5),
            (lambda m: "max(" * m + "x1" + ", 0)" * m, lambda m: 0.5),
            (lambda m: "(" * m + "x1" + ")^1" * m, lambda m: 0.5),
        ],
        ids=["parens", "minuses", "abs", "max", "powers"],
    )
    def test_the_deepest_accepted_expressions_evaluate(self, make, value):
        m = deepest_accepted(make)
        with pytest.raises(ParseError, match="nests deeper"):
            parse(make(m + 1), 1)
        ast = parse(make(m), 1)
        assert evaluate(ast, [0.5]) == value(m)
        assert list(ast.rows(np.full((3, 1), 0.5))) == [value(m)] * 3

    def test_a_sum_of_500_terms_parses(self):
        assert evaluate(parse(" + ".join(["x1"] * 500), 1), [0.5]) == 250.0


class TestFlatChains:
    """A chain of one precedence level nests no grammar rule, so it parses
    at any length, and the flat tape's repr, == and hash never recurse."""

    @pytest.mark.parametrize(
        "source, value",
        [
            (" + ".join(["x1"] * 5000), 2500.0),
            (" * ".join(["1"] * 5000) + " * x1", 0.5),
            # a chain inside a group that heads a chain
            ("(" + " + ".join(["x1"] * 5000) + ") + " + " + ".join(["x1"] * 5000), 5000.0),
        ],
        ids=["sum", "product", "chained-chains"],
    )
    def test_5000_terms_parse_and_evaluate(self, source, value):
        ast = parse(source, 1)
        assert evaluate(ast, [0.5]) == value
        assert list(ast.rows(np.full((3, 1), 0.5))) == [value] * 3

    def test_repr_eq_and_hash_of_a_5000_term_sum_return(self):
        ast = parse("+".join(["x1"] * 5000), 1)
        again = parse("+".join(["x1"] * 5000), 1)
        assert repr(ast).startswith("ExprAst(tape=(('var', 0), ('var', 0), ('+', None), ")
        assert ast == again and hash(ast) == hash(again)
        assert ast != parse("+".join(["x1"] * 4999), 1)
        assert evaluate(ast, [0.5]) == 2500.0


class TestEval:
    def test_dimension_mismatch(self):
        ast = parse("x1 + 1", 2)
        with pytest.raises(ValueError, match="length"):
            evaluate(ast, [1.0])

    def test_division_by_zero(self):
        ast = parse("1 / x1", 1)
        with pytest.raises(EvalError):
            evaluate(ast, [0.0])

    def test_deterministic(self):
        ast = parse("max(x1^3, abs(x2) - 0.5, x1*x2)", 2)
        vals = {evaluate(ast, [0.3, -0.7]) for _ in range(5)}
        assert len(vals) == 1


def random_tree(rng: np.random.Generator, dimension: int, depth: int) -> Node:
    """Seeded syntax tree in the shapes the parser itself can produce."""
    if depth == 0:
        if rng.random() < 0.5:
            return Const(float(np.round(rng.uniform(0, 10), 3)))
        return Var(int(rng.integers(1, dimension + 1)))
    kind = rng.integers(0, 6)
    child = lambda: random_tree(rng, dimension, depth - 1)  # noqa: E731
    if kind == 0:
        return Neg(child())
    if kind == 1:
        return Abs(child())
    if kind == 2:
        return Pow(child(), int(rng.integers(0, 4)))
    if kind == 3:
        op = rng.choice(["min", "max"])
        count = int(rng.integers(2, 4))
        return MinMax(str(op), tuple(child() for _ in range(count)))
    op = str(rng.choice(["+", "-", "*", "/"]))
    return Bin(op, child(), child())


def eval_node_reference(node: Node, point) -> float:
    """Reference oracle: the scalar tree-walking interpreter, one Python
    float operation per node."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(point[node.index - 1])
    if isinstance(node, Neg):
        return -eval_node_reference(node.operand, point)
    if isinstance(node, Abs):
        return abs(eval_node_reference(node.operand, point))
    if isinstance(node, Pow):
        return eval_node_reference(node.base, point) ** node.exponent
    if isinstance(node, MinMax):
        values = [eval_node_reference(a, point) for a in node.args]
        return min(values) if node.op == "min" else max(values)
    left = eval_node_reference(node.left, point)
    right = eval_node_reference(node.right, point)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right == 0.0:
        raise EvalError("division by zero")
    return left / right


def tape_of(node: Node) -> tuple:
    """The post-order tape the parser emits for ``node``: each node's
    instruction right after those of its operands."""
    if isinstance(node, Const):
        return (("const", node.value),)
    if isinstance(node, Var):
        return (("var", node.index - 1),)
    if isinstance(node, Neg):
        return tape_of(node.operand) + (("neg", None),)
    if isinstance(node, Abs):
        return tape_of(node.operand) + (("abs", None),)
    if isinstance(node, Pow):
        return tape_of(node.base) + (("^", node.exponent),)
    if isinstance(node, MinMax):
        return sum(map(tape_of, node.args), ()) + ((node.op, len(node.args)),)
    return tape_of(node.left) + tape_of(node.right) + ((node.op, None),)


def same_bits(a, b) -> bool:
    """Equal float arrays bit for bit, counting any two NaNs as equal."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))
    )


#: Sources made of constants only, with their syntax trees.
CONSTANT_ROOTS = {
    "2": Const(2.0),
    "min(1, 2)": MinMax("min", (Const(1.0), Const(2.0))),
    "-3^2": Pow(Neg(Const(3.0)), 2),
    "abs(-1)": Abs(Neg(Const(1.0))),
    "max(0.5, -0.0, 1e-3)": MinMax("max", (Const(0.5), Neg(Const(0.0)), Const(1e-3))),
}


class TestCompiledRows:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8))
    def test_rows_match_the_reference_bit_for_bit(self, seed, count):
        rng = np.random.default_rng(seed)
        dimension = int(rng.integers(1, 4))
        tree = random_tree(rng, dimension, int(rng.integers(1, 5)))
        ast = parse(to_source(tree), dimension)
        assert ast.tape == tape_of(tree)
        points = rng.uniform(-3, 3, size=(count, dimension))
        points *= 10.0 ** rng.integers(-3, 4, size=(count, 1))
        # exact zeros and repeated values reach zero denominators and min/max ties
        points[rng.random(points.shape) < 0.2] = 0.0
        points[rng.random(points.shape) < 0.1] = -0.0
        expected, errors = [], set()
        for x in points:
            try:
                expected.append(eval_node_reference(tree, x))
            except (EvalError, OverflowError) as exc:
                errors.add(type(exc))
        if errors:
            with pytest.raises(tuple(errors)):
                ast.rows(points)
            return
        assert same_bits(ast.rows(points), expected)
        assert same_bits([evaluate(ast, x) for x in points], expected)

    def test_errors_name_the_offending_point(self):
        with pytest.raises(EvalError, match=r"division by zero at x=\[0\.\]"):
            parse("1 / x1", 1).rows(np.array([[2.0], [0.0]]))
        with pytest.raises(OverflowError, match=r"overflows at x=\[-1\.\]"):
            parse("(10*x1)^400", 1).rows(np.array([[0.5], [-1.0]]))
        # a constant subtree fails at every row, so the first is named
        for source in ("1/0", "x1 + 1/0"):
            with pytest.raises(EvalError, match=r"division by zero at x=\[2\.\]"):
                parse(source, 1).rows(np.array([[2.0], [0.0]]))
        with pytest.raises(OverflowError, match=r"overflows at x=\[2\.\]"):
            parse("10^400", 1).rows(np.array([[2.0], [0.0]]))
        # no row, no error: as when the constant was a column of m values
        for source in ("1/0", "10^400"):
            assert parse(source, 1).rows(np.empty((0, 1))).shape == (0,)

    @pytest.mark.parametrize("source", CONSTANT_ROOTS)
    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_constant_roots_give_one_value_per_row(self, source, count):
        tree = CONSTANT_ROOTS[source]
        ast = parse(source, 2)
        assert ast.tape == tape_of(tree)
        values = ast.rows(np.random.default_rng(count).uniform(-1, 1, size=(count, 2)))
        assert values.dtype == np.float64 and values.shape == (count,)
        assert same_bits(values, [eval_node_reference(tree, None)] * count)
        assert same_bits(evaluate(ast, [0.5, 0.5]), eval_node_reference(tree, None))

    def test_infinite_base_does_not_overflow(self):
        # Python's inf ** 2 is inf without an error; so is the tape's
        assert evaluate(parse("(x1*1e308*10)^2", 1), [1.0]) == np.inf
        # among inf rows, the first whose base was finite is named
        with pytest.raises(OverflowError, match=r"overflows at x=\[1\.\]"):
            parse("(x1*1e300)^2", 1).rows(np.array([[1e9], [1.0], [2.0]]))


# Precedence levels used by the printer: a child is parenthesized whenever
# its level is below what its syntactic slot requires.
_ADD, _MUL, _POW, _ATOM = 1, 2, 3, 4


def _emit(node: Node) -> tuple[str, int]:
    if isinstance(node, Const):
        if node.value < 0:
            return f"-{-node.value!r}", _ATOM
        return repr(node.value), _ATOM
    if isinstance(node, Var):
        return f"x{node.index}", _ATOM
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, _ATOM), _ATOM
    if isinstance(node, Abs):
        return f"abs({_emit(node.operand)[0]})", _ATOM
    if isinstance(node, MinMax):
        inner = ", ".join(_emit(a)[0] for a in node.args)
        return f"{node.op}({inner})", _ATOM
    if isinstance(node, Pow):
        return _wrap(node.base, _ATOM) + f"^{node.exponent}", _POW
    if isinstance(node, Bin):
        if node.op in "+-":
            text = f"{_wrap(node.left, _ADD)} {node.op} {_wrap(node.right, _MUL)}"
            return text, _ADD
        text = f"{_wrap(node.left, _MUL)} {node.op} {_wrap(node.right, _POW)}"
        return text, _MUL
    raise TypeError(f"unknown node {node!r}")


def _wrap(node: Node, min_level: int) -> str:
    text, level = _emit(node)
    return f"({text})" if level < min_level else text


def to_source(tree: Node) -> str:
    """Render a syntax tree as source; parsing it yields the tree's tape."""
    return _emit(tree)[0]


class TestRoundTrip:
    def test_round_trip_on_seeded_asts(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            dimension = int(rng.integers(1, 4))
            tree = random_tree(rng, dimension, int(rng.integers(1, 4)))
            source = to_source(tree)
            assert parse(source, dimension).tape == tape_of(tree), source

    def test_round_trip_examples(self):
        x1, x2 = Var(1), Var(2)
        for src, n, tree in [
            ("5 - x1*x2 - x1", 2, Bin("-", Bin("-", Const(5.0), Bin("*", x1, x2)), x1)),
            (
                "10 - x1^2*x2 - x2^2*x1",
                2,
                Bin("-", Bin("-", Const(10.0), Bin("*", Pow(x1, 2), x2)), Bin("*", Pow(x2, 2), x1)),
            ),
            (
                "min(x1, 2*x1, abs(x2) - 3)",
                2,
                MinMax("min", (x1, Bin("*", Const(2.0), x1), Bin("-", Abs(x2), Const(3.0)))),
            ),
            ("-x1^2", 1, Pow(Neg(x1), 2)),
            ("-(x1^2)", 1, Neg(Pow(x1, 2))),
            ("1 - 2 - 3", 1, Bin("-", Bin("-", Const(1.0), Const(2.0)), Const(3.0))),
            ("1 - (2 - 3)", 1, Bin("-", Const(1.0), Bin("-", Const(2.0), Const(3.0)))),
        ]:
            assert parse(src, n).tape == tape_of(tree), src
            assert parse(to_source(tree), n).tape == tape_of(tree), src


class TestFuzz:
    def test_truncations_and_mutations_never_crash(self):
        rng = np.random.default_rng(99)
        seeds = [
            "5 - x1*x2 - x1",
            "10 - x1^2*x2 - x2^2*x1",
            "min(x1, 2*x1) + max(x2, abs(x1) - 0.5, 3)",
            "abs(-x1^3 / (x2 + 2)) * 1.5e-2",
            "((x1))",
        ]
        alphabet = list("x12+-*/^().,ea bs")
        outcomes = {"ok": 0, "error": 0}
        for i in range(1000):
            base = seeds[i % len(seeds)]
            if i % 2 == 0:
                cut = int(rng.integers(0, len(base)))
                mutated = base[:cut]
            else:
                pos = int(rng.integers(0, len(base)))
                mutated = base[:pos] + str(rng.choice(alphabet)) + base[pos + 1:]
            try:
                parse(mutated, 2)
                outcomes["ok"] += 1
            except ParseError:
                outcomes["error"] += 1
            # anything else propagates and fails the test
        assert outcomes["error"] > 100  # the corpus does exercise failures


# The per-character tokenizer that the named-group pattern replaced, verbatim
# with its two regexes: the reference the pattern must match token for token.
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def reference_tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        # ASCII only: str.isdigit/isalpha accept more than the token patterns
        if c.isascii() and c.isdigit():
            m = _NUMBER.match(source, i)
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        if c.isascii() and c.isalpha():
            m = _NAME.match(source, i)
            tokens.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, i))
        elif c == "(":
            tokens.append(_Token("lparen", c, i))
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
        elif c == ",":
            tokens.append(_Token("comma", c, i))
        else:
            raise ParseError(f"unexpected character {c!r}", i)
        i += 1
    tokens.append(_Token("eof", "", n))
    return tokens


def tokens_or_error(tokenize, source: str):
    """Each token's (kind, text, offset), or the ParseError's message and
    offset."""
    try:
        return [(tok.kind, tok.text, tok.offset) for tok in tokenize(source)]
    except ParseError as exc:
        return str(exc), exc.offset


TOKENIZER_ALPHABET = (
    list("+-*/^(),.e" + string.ascii_letters + string.digits)
    # whitespace, ASCII and not
    + [" ", "\t", "\n", "\u00a0", "\u2003"]
    # non-ASCII digits and letters: superscript two, Arabic-Indic three,
    # e acute, fullwidth x
    + ["\u00b2", "\u0663", "\u00e9", "\uff58"]
)


class TestTokenizer:
    @settings(derandomize=True, database=None, max_examples=600)
    @given(st.text(alphabet=st.sampled_from(TOKENIZER_ALPHABET), max_size=24))
    def test_matches_the_per_character_reference(self, source):
        assert tokens_or_error(_tokenize, source) == tokens_or_error(reference_tokenize, source)

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("2x1", [("number", "2", 0), ("name", "x1", 1), ("eof", "", 3)]),
            ("1e", [("number", "1", 0), ("name", "e", 1), ("eof", "", 2)]),
            ("1e+5", [("number", "1e+5", 0), ("eof", "", 4)]),
            (".5", ("unexpected character '.' (at offset 0)", 0)),
            ("1.2.3", ("unexpected character '.' (at offset 3)", 3)),
            ("x1\u00b2", ("unexpected character '\u00b2' (at offset 2)", 2)),
        ],
    )
    def test_token_boundaries(self, source, expected):
        assert tokens_or_error(_tokenize, source) == expected
        assert tokens_or_error(reference_tokenize, source) == expected
