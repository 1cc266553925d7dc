"""A small arithmetic expression language for endpoint functions.

Problem files carry the lower/upper endpoint functions of an objective as
text in this grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' uint)?
    atom   := number | 'x' uint | '(' expr ')' | '-' atom
            | 'abs' '(' expr ')' | ('min' | 'max') '(' expr (',' expr)+ ')'

Numbers are decimal literals with optional fraction and exponent (no hex,
no underscores).  Variables are ``x1 .. xn`` with n fixed at parse time.
Exponents must be literal nonnegative integers.  ``min``/``max``/``abs``
are first class so piecewise-linear convex endpoints can be written
without a dedicated piecewise syntax.

Parse errors carry the byte offset of the offending input.

Evaluation compiles the AST once into NumPy closures over the rows of an
``(m, n)`` array of points (:attr:`ExprAst.rows`); :func:`evaluate` is a
one-row call of that closure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

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


@dataclass(frozen=True)
class ExprAst:
    """Parsed expression plus the variable dimension it was checked against."""

    root: Node
    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        for index in _variable_indices(self.root):
            if not 1 <= index <= self.dimension:
                raise ValueError(
                    f"variable x{index} outside dimension 1..{self.dimension}"
                )

    def __call__(self, point: Sequence[float]) -> float:
        """The value at one point, so the AST itself is an endpoint function."""
        return evaluate(self, point)

    @cached_property
    def rows(self) -> Callable[[np.ndarray], np.ndarray]:
        """The expression compiled once into a function of the rows of an
        (m, n) array, returning the m values."""
        compiled = _compile(self.root)

        def rows(points: np.ndarray) -> np.ndarray:
            # inf and NaN propagate silently, as in Python float arithmetic
            with np.errstate(all="ignore"):
                return compiled(points)

        return rows


def _variable_indices(node: Node):
    if isinstance(node, Var):
        yield node.index
    elif isinstance(node, (Neg, Abs)):
        yield from _variable_indices(node.operand)
    elif isinstance(node, Pow):
        yield from _variable_indices(node.base)
    elif isinstance(node, Bin):
        yield from _variable_indices(node.left)
        yield from _variable_indices(node.right)
    elif isinstance(node, MinMax):
        for arg in node.args:
            yield from _variable_indices(arg)


class ParseError(ValueError):
    """Syntax or range error, pointing at a byte offset of the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Runtime evaluation failure (division by zero)."""


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_UINT = re.compile(r"\d+$")


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | lparen | rparen | comma | eof
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            m = _NUMBER.match(source, i)
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        if c.isalpha():
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


class _Parser:
    def __init__(self, tokens: list[_Token], dimension: int):
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.offset)
        return self.advance()

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.factor())
        return node

    def factor(self) -> Node:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "number" or not _UINT.match(tok.text):
                raise ParseError("exponent must be a nonnegative integer", tok.offset)
            self.advance()
            node = Pow(node, int(tok.text))
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.atom())
        if tok.kind == "lparen":
            self.advance()
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "name":
            return self.name_atom()
        raise ParseError("expected a number, variable, '(' or function", tok.offset)

    def name_atom(self) -> Node:
        tok = self.advance()
        name = tok.text
        if name == "abs":
            self.expect("lparen", "'(' after abs")
            node = self.expr()
            self.expect("rparen", "')'")
            return Abs(node)
        if name in ("min", "max"):
            self.expect("lparen", f"'(' after {name}")
            args = [self.expr()]
            while self.peek().kind == "comma":
                self.advance()
                args.append(self.expr())
            if len(args) < 2:
                raise ParseError(f"{name} needs at least two arguments", self.peek().offset)
            self.expect("rparen", "')'")
            return MinMax(name, tuple(args))
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            index = int(m.group(1))
            if not 1 <= index <= self.dimension:
                raise ParseError(
                    f"variable x{index} outside dimension 1..{self.dimension}", tok.offset
                )
            return Var(index)
        raise ParseError(f"unknown name {name!r}", tok.offset)


def parse(source: str, dimension: int) -> ExprAst:
    """Parse ``source`` into an AST over variables x1..x<dimension>."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    tokens = _tokenize(source)
    parser = _Parser(tokens, dimension)
    root = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError("unexpected trailing input", tok.offset)
    return ExprAst(root, dimension)


def _compile(node: Node) -> Callable[[np.ndarray], np.ndarray]:
    """Closure evaluating ``node`` at every row of an (m, n) float array.

    Each node applies, elementwise, the float64 operation Python applies to
    one point, so every row matches a scalar evaluation bit for bit: ``^``
    is ``np.float_power`` (``np.power`` rounds small integer powers
    differently), and ``min``/``max`` keep the first of equal or NaN
    arguments, as Python's builtins do.  Where Python raises, the closure
    raises for the first offending row and names it.
    """
    if isinstance(node, Const):
        value = node.value
        return lambda rows: np.full(len(rows), value)
    if isinstance(node, Var):
        i = node.index - 1
        return lambda rows: rows[:, i].copy()
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda rows: -operand(rows)
    if isinstance(node, Abs):
        operand = _compile(node.operand)
        return lambda rows: np.abs(operand(rows))
    if isinstance(node, Pow):
        return _compile_pow(_compile(node.base), node.exponent)
    if isinstance(node, MinMax):
        return _compile_minmax(node.op, [_compile(a) for a in node.args])
    if isinstance(node, Bin):
        return _compile_bin(node.op, _compile(node.left), _compile(node.right))
    raise TypeError(f"unknown node {node!r}")


def _compile_pow(base, exponent: int):
    def power(rows):
        b = base(rows)
        out = np.float_power(b, float(exponent))
        # Python's float ** int raises where a finite base overflows
        overflow = np.isinf(out) & np.isfinite(b)
        if overflow.any():
            raise OverflowError(
                f"'^{exponent}' overflows at x={rows[np.argmax(overflow)]}"
            )
        return out

    return power


def _compile_minmax(op: str, args):
    first, rest = args[0], args[1:]
    beats = np.less if op == "min" else np.greater

    def minmax(rows):
        best = first(rows)
        for arg in rest:
            value = arg(rows)
            best = np.where(beats(value, best), value, best)
        return best

    return minmax


def _compile_bin(op: str, left, right):
    if op == "+":
        return lambda rows: left(rows) + right(rows)
    if op == "-":
        return lambda rows: left(rows) - right(rows)
    if op == "*":
        return lambda rows: left(rows) * right(rows)

    def divide(rows):
        numerator = left(rows)
        denominator = right(rows)
        zero = denominator == 0.0
        if zero.any():
            raise EvalError(f"division by zero at x={rows[np.argmax(zero)]}")
        return numerator / denominator

    return divide


def evaluate(ast: ExprAst, point: Sequence[float]) -> float:
    """Evaluate the expression at ``point`` (length must match the dimension).

    A one-row call of the compiled expression :attr:`ExprAst.rows`.
    """
    x = np.asarray(point, dtype=float)
    if x.shape != (ast.dimension,):
        raise ValueError(
            f"point has length {len(point)}, expression dimension is {ast.dimension}"
        )
    return float(ast.rows(x[None, :])[0])


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


def to_source(ast: ExprAst) -> str:
    """Render the AST back to source; reparsing yields an identical AST."""
    return _emit(ast.root)[0]
