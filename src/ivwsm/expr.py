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

Numbers, names and operators are ASCII.  Nesting of parentheses, unary
minuses and function calls is bounded by :data:`MAX_DEPTH`; flat chains
such as a long sum are not.  Parse errors carry the byte offset of the
offending input.

The parser emits a flat post-order tape of ``(opcode, arg)`` instructions
(:attr:`ExprAst.tape`), each right after its operands.
:meth:`ExprAst.rows` runs the tape on a value stack over the rows of an
``(m, n)`` array of points, one NumPy rule per opcode (:data:`_RULES`);
:func:`evaluate` is a one-row call of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

#: One instruction: the opcode and its argument, which is the float64
#: constant of ``const``, the 0-based column of ``var``, the exponent of
#: ``^`` and the arity of ``min``/``max`` (None for the other operators).
Instruction = tuple[str, Union[np.float64, int, None]]


@dataclass(frozen=True)
class ExprAst:
    """Parsed expression: its post-order tape plus the variable dimension
    it was checked against."""

    tape: tuple[Instruction, ...]
    dimension: int

    def __call__(self, point: Sequence[float]) -> float:
        """The value at one point, so the AST itself is an endpoint function."""
        return evaluate(self, point)

    def rows(self, points: np.ndarray) -> np.ndarray:
        """The m values of the expression at the rows of an (m, n) array."""
        stack = []
        # inf and NaN propagate silently, as in Python float arithmetic
        with np.errstate(all="ignore"):
            for opcode, arg in self.tape:
                _RULES[opcode](stack, arg, points)
        (value,) = stack
        # a tape of constants only gives one scalar: broadcast it once
        return value if np.ndim(value) else np.full(len(points), value)


class ParseError(ValueError):
    """Syntax or range error, pointing at a byte offset of the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Runtime evaluation failure (division by zero)."""


#: One token at a position, named by its kind, or a run of whitespace (no
#: group); a position where nothing matches is an unexpected character.
_TOKEN = re.compile(
    r"(?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^])|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|\s+"
)
#: Deepest nesting :func:`parse` accepts: the parser is inside at most this
#: many grammar rules (four per parenthesized group, one per unary minus),
#: so its recursive descent stays inside Python's recursion limit.
MAX_DEPTH = 512


class _Token(NamedTuple):
    kind: str  # number | name | op | lparen | rparen | comma | eof
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(source):
        m = _TOKEN.match(source, i)
        if m is None:
            raise ParseError(f"unexpected character {source[i]!r}", i)
        if m.lastgroup:
            tokens.append(_Token(m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(_Token("eof", "", len(source)))
    return tokens


class _Parser:
    """Recursive descent that appends each rule's instructions to
    :attr:`tape` as the rule returns, so operands precede their operator."""

    def __init__(self, tokens: list[_Token], dimension: int):
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension
        self.tape: list[Instruction] = []

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

    # each rule passes its depth (see MAX_DEPTH) plus one to the rules it
    # calls; every cycle of calls passes atom, which checks it

    def expr(self, depth: int) -> None:
        self.term(depth + 1)
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            self.term(depth + 1)
            self.tape.append((op.text, None))

    def term(self, depth: int) -> None:
        self.factor(depth + 1)
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            self.factor(depth + 1)
            self.tape.append((op.text, None))

    def factor(self, depth: int) -> None:
        self.atom(depth + 1)
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "number" or not tok.text.isdigit() or float(tok.text) >= 1e308:
                raise ParseError("exponent must be a nonnegative integer below 1e308", tok.offset)
            self.advance()
            self.tape.append(("^", int(tok.text)))

    def atom(self, depth: int) -> None:
        tok = self.peek()
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok.offset)
        if tok.kind == "number":
            self.advance()
            self.tape.append(("const", np.float64(float(tok.text))))
        elif tok.kind == "op" and tok.text == "-":
            self.advance()
            self.atom(depth + 1)
            self.tape.append(("neg", None))
        elif tok.kind == "lparen":
            self.advance()
            self.expr(depth + 1)
            self.expect("rparen", "')'")
        elif tok.kind == "name":
            self.name_atom(depth + 1)
        else:
            raise ParseError("expected a number, variable, '(' or function", tok.offset)

    def name_atom(self, depth: int) -> None:
        tok = self.advance()
        name = tok.text
        if name == "abs":
            self.expect("lparen", "'(' after abs")
            self.expr(depth + 1)
            self.expect("rparen", "')'")
            self.tape.append(("abs", None))
            return
        if name in ("min", "max"):
            self.expect("lparen", f"'(' after {name}")
            self.expr(depth + 1)
            count = 1
            while self.peek().kind == "comma":
                self.advance()
                self.expr(depth + 1)
                count += 1
            if count < 2:
                raise ParseError(f"{name} needs at least two arguments", self.peek().offset)
            self.expect("rparen", "')'")
            self.tape.append((name, count))
            return
        m = re.fullmatch(r"x(\d+)", name)
        if not m:
            raise ParseError(f"unknown name {name!r}", tok.offset)
        index = int(m.group(1))
        if not 1 <= index <= self.dimension:
            raise ParseError(
                f"variable x{index} outside dimension 1..{self.dimension}", tok.offset
            )
        self.tape.append(("var", index - 1))


def parse(source: str, dimension: int) -> ExprAst:
    """Parse ``source`` into the tape of an expression over variables
    x1..x<dimension>."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    tokens = _tokenize(source)
    parser = _Parser(tokens, dimension)
    parser.expr(1)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError("unexpected trailing input", tok.offset)
    return ExprAst(tuple(parser.tape), dimension)


# Each rule replaces its operands on top of the value stack by its result,
# applying elementwise the float64 operation Python applies to one point, so
# every row matches a scalar evaluation bit for bit: ``^`` is
# ``np.float_power`` (``np.power`` rounds small integer powers differently),
# and ``min``/``max`` keep the first of equal or NaN arguments, as Python's
# builtins do.  Where Python raises, the rule raises for the first offending
# row and names it.  A constant is one float64 scalar, not a column, so a
# subtree of constants is computed once; its error names the first row,
# where every row fails (and zero rows raise nothing, as for a column).


def _divide(stack, arg, rows):
    denominator = stack.pop()
    zero = denominator == 0.0
    if zero.any() and len(rows):
        raise EvalError(f"division by zero at x={rows[np.argmax(zero)]}")
    stack[-1] = stack[-1] / denominator


def _power(stack, exponent, rows):
    base = stack[-1]
    stack[-1] = out = np.float_power(base, float(exponent))
    # Python's float ** int raises where a finite base overflows
    overflow = np.isinf(out)
    if overflow.any() and len(rows):
        overflow &= np.isfinite(base)
        if overflow.any():
            raise OverflowError(f"'^{exponent}' overflows at x={rows[np.argmax(overflow)]}")


def _extremum(beats):
    def rule(stack, count, rows):
        best, *rest = stack[-count:]
        del stack[-count:]
        for value in rest:
            best = np.where(beats(value, best), value, best)
        stack.append(best)

    return rule


_RULES = {
    "const": lambda stack, value, rows: stack.append(value),
    "var": lambda stack, column, rows: stack.append(rows[:, column].copy()),
    "neg": lambda stack, arg, rows: stack.append(-stack.pop()),
    "abs": lambda stack, arg, rows: stack.append(abs(stack.pop())),
    # pop(-2) takes the left operand, then pop() the right one
    "+": lambda stack, arg, rows: stack.append(stack.pop(-2) + stack.pop()),
    "-": lambda stack, arg, rows: stack.append(stack.pop(-2) - stack.pop()),
    "*": lambda stack, arg, rows: stack.append(stack.pop(-2) * stack.pop()),
    "/": _divide,
    "^": _power,
    "min": _extremum(np.less),
    "max": _extremum(np.greater),
}


def evaluate(ast: ExprAst, point: Sequence[float]) -> float:
    """Evaluate the expression at ``point`` (length must match the dimension).

    A one-row call of :meth:`ExprAst.rows`.
    """
    x = np.asarray(point, dtype=float)
    if x.shape != (ast.dimension,):
        raise ValueError(
            f"point has length {len(point)}, expression dimension is {ast.dimension}"
        )
    return float(ast.rows(x[None, :])[0])
