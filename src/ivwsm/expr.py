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

Numbers, names and operators are ASCII.  Nesting is bounded by
:data:`MAX_DEPTH`.  Parse errors carry the byte offset of the offending
input.

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
                values = compiled(points)
            # a root made of constants only is one scalar: broadcast it once
            return values if np.ndim(values) else np.full(len(points), values)

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


_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_UINT = re.compile(r"[0-9]+$")
#: Deepest nesting :func:`parse` accepts: the parser is inside at most this
#: many grammar rules (four per parenthesized group, one per unary minus),
#: and the syntax tree it builds is at most this many nodes high, so
#: compiling and evaluating it recurse at most about this deep.
MAX_DEPTH = 512


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


class _Parser:
    def __init__(self, tokens: list[_Token], dimension: int):
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension
        self.height = 0  # height of the tree the last rule returned

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

    def grown(self, node: Node, height: int, tok: _Token) -> Node:
        """``node``, of tree height ``height``, unless that exceeds MAX_DEPTH."""
        if height > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok.offset)
        self.height = height
        return node

    # each rule passes its depth (see MAX_DEPTH) plus one to the rules it
    # calls; every cycle of calls passes atom, which checks it

    def expr(self, depth: int) -> Node:
        node = self.term(depth + 1)
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            height = self.height
            node = Bin(op.text, node, self.term(depth + 1))
            node = self.grown(node, max(height, self.height) + 1, op)
        return node

    def term(self, depth: int) -> Node:
        node = self.factor(depth + 1)
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            height = self.height
            node = Bin(op.text, node, self.factor(depth + 1))
            node = self.grown(node, max(height, self.height) + 1, op)
        return node

    def factor(self, depth: int) -> Node:
        node = self.atom(depth + 1)
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "number" or not _UINT.match(tok.text) or float(tok.text) >= 1e308:
                raise ParseError("exponent must be a nonnegative integer below 1e308", tok.offset)
            self.advance()
            node = self.grown(Pow(node, int(tok.text)), self.height + 1, tok)
        return node

    def atom(self, depth: int) -> Node:
        tok = self.peek()
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok.offset)
        if tok.kind == "number":
            self.advance()
            return self.grown(Const(float(tok.text)), 1, tok)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return self.grown(Neg(self.atom(depth + 1)), self.height + 1, tok)
        if tok.kind == "lparen":
            self.advance()
            node = self.expr(depth + 1)
            self.expect("rparen", "')'")
            return node
        if tok.kind == "name":
            return self.name_atom(depth + 1)
        raise ParseError("expected a number, variable, '(' or function", tok.offset)

    def name_atom(self, depth: int) -> Node:
        tok = self.advance()
        name = tok.text
        if name == "abs":
            self.expect("lparen", "'(' after abs")
            node = self.expr(depth + 1)
            self.expect("rparen", "')'")
            return self.grown(Abs(node), self.height + 1, tok)
        if name in ("min", "max"):
            self.expect("lparen", f"'(' after {name}")
            args = [self.expr(depth + 1)]
            height = self.height
            while self.peek().kind == "comma":
                self.advance()
                args.append(self.expr(depth + 1))
                height = max(height, self.height)
            if len(args) < 2:
                raise ParseError(f"{name} needs at least two arguments", self.peek().offset)
            self.expect("rparen", "')'")
            return self.grown(MinMax(name, tuple(args)), height + 1, tok)
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            index = int(m.group(1))
            if not 1 <= index <= self.dimension:
                raise ParseError(
                    f"variable x{index} outside dimension 1..{self.dimension}", tok.offset
                )
            return self.grown(Var(index), 1, tok)
        raise ParseError(f"unknown name {name!r}", tok.offset)


def parse(source: str, dimension: int) -> ExprAst:
    """Parse ``source`` into an AST over variables x1..x<dimension>."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    tokens = _tokenize(source)
    parser = _Parser(tokens, dimension)
    root = parser.expr(1)
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
    raises for the first offending row and names it.  A constant is one
    float64 scalar, not a column, so a subtree of constants is computed
    once; its error names the first row, where every row fails (and
    zero rows raise nothing, as for a column).
    """
    if isinstance(node, Const):
        value = np.float64(node.value)
        return lambda rows: value
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
        if overflow.any() and len(rows):
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
        if zero.any() and len(rows):
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
