"""Expression grammar: parsing, evaluation, printing, and fuzz robustness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivwsm import EvalError, ParseError, evaluate, parse
from ivwsm.expr import MAX_DEPTH, Abs, Bin, Const, ExprAst, MinMax, Neg, Pow, Var


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
            (" + ".join(["x1"] * 983), f"nests deeper than {MAX_DEPTH} levels", 2558),
            ("x1\u00b2", "unexpected character '\u00b2'", 2),
            ("\u00e9 + x1", "unexpected character '\u00e9'", 0),
            ("x1^" + "9" * 5000, "exponent must be a nonnegative integer", 3),
        ],
        ids=["deep-parens", "many-minuses", "long-sum", "superscript", "accent", "long-exponent"],
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
    """Every expression within MAX_DEPTH parses, compiles and evaluates
    without exhausting Python's recursion limit, here under the test
    runner's own stack; one level more is a ParseError."""

    @pytest.mark.parametrize(
        "make, value",
        [
            (lambda m: "(" * m + "x1" + ")" * m, lambda m: 0.5),
            (lambda m: "-" * m + "x1", lambda m: (-1) ** m * 0.5),
            (lambda m: "abs(" * m + "-x1" + ")" * m, lambda m: 0.5),
            (lambda m: "max(" * m + "x1" + ", 0)" * m, lambda m: 0.5),
            (lambda m: "(" * m + "x1" + ")^1" * m, lambda m: 0.5),
            (lambda m: " + ".join(["x1"] * m), lambda m: 0.5 * m),
            (lambda m: " * ".join(["2"] * m) + " * x1", lambda m: 2.0 ** (m - 1)),
            # a chain inside a group that heads a chain: the tree is about
            # twice as deep as either chain
            (lambda m: "(" + " + ".join(["x1"] * m) + ") + " + " + ".join(["x1"] * m),
             lambda m: 0.5 * 2 * m),
        ],
        ids=["parens", "minuses", "abs", "max", "powers", "sum", "product", "chained-chains"],
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


def random_ast(rng: np.random.Generator, dimension: int, depth: int):
    """Seeded AST in the shapes the parser itself can produce."""
    if depth == 0:
        if rng.random() < 0.5:
            return Const(float(np.round(rng.uniform(0, 10), 3)))
        return Var(int(rng.integers(1, dimension + 1)))
    kind = rng.integers(0, 6)
    child = lambda: random_ast(rng, dimension, depth - 1)  # noqa: E731
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


def eval_node_reference(node, point) -> float:
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


class TestCompiledRows:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8))
    def test_rows_match_the_reference_bit_for_bit(self, seed, count):
        rng = np.random.default_rng(seed)
        dimension = int(rng.integers(1, 4))
        ast = ExprAst(random_ast(rng, dimension, int(rng.integers(1, 5))), dimension)
        points = rng.uniform(-3, 3, size=(count, dimension))
        points *= 10.0 ** rng.integers(-3, 4, size=(count, 1))
        # exact zeros and repeated values reach zero denominators and min/max ties
        points[rng.random(points.shape) < 0.2] = 0.0
        points[rng.random(points.shape) < 0.1] = -0.0
        expected, errors = [], set()
        for x in points:
            try:
                expected.append(eval_node_reference(ast.root, x))
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

    @pytest.mark.parametrize(
        "source", ["2", "min(1, 2)", "-3^2", "abs(-1)", "max(0.5, -0.0, 1e-3)"]
    )
    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_constant_roots_give_one_value_per_row(self, source, count):
        ast = parse(source, 2)
        values = ast.rows(np.random.default_rng(count).uniform(-1, 1, size=(count, 2)))
        assert values.dtype == np.float64 and values.shape == (count,)
        assert same_bits(values, [eval_node_reference(ast.root, None)] * count)
        assert same_bits(evaluate(ast, [0.5, 0.5]), eval_node_reference(ast.root, None))

    def test_infinite_base_does_not_overflow(self):
        # Python's inf ** 2 is inf without an error; so is the compiled form
        assert evaluate(parse("(x1*1e308*10)^2", 1), [1.0]) == np.inf


# Precedence levels used by the printer: a child is parenthesized whenever
# its level is below what its syntactic slot requires.
_ADD, _MUL, _POW, _ATOM = 1, 2, 3, 4


def _emit(node) -> tuple[str, int]:
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


def _wrap(node, min_level: int) -> str:
    text, level = _emit(node)
    return f"({text})" if level < min_level else text


def to_source(ast: ExprAst) -> str:
    """Render the AST back to source; reparsing yields an identical AST."""
    return _emit(ast.root)[0]


class TestRoundTrip:
    def test_round_trip_on_seeded_asts(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            dimension = int(rng.integers(1, 4))
            ast = ExprAst(random_ast(rng, dimension, int(rng.integers(1, 4))), dimension)
            source = to_source(ast)
            reparsed = parse(source, dimension)
            assert reparsed == ast, source

    def test_round_trip_examples(self):
        for src, n in [
            ("5 - x1*x2 - x1", 2),
            ("10 - x1^2*x2 - x2^2*x1", 2),
            ("min(x1, 2*x1, abs(x2) - 3)", 2),
            ("-x1^2", 1),
            ("-(x1^2)", 1),
            ("1 - 2 - 3", 1),
            ("1 - (2 - 3)", 1),
        ]:
            first = parse(src, n)
            assert parse(to_source(first), n) == first


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
