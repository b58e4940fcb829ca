"""Tiny arithmetic language for user-supplied coefficient functions.

Grammar (whitespace ignored):

    expr   := term (('+' | '-') term)*
    term   := power (('*' | '/') power)*
    power  := unary ('^' INTEGER)?
    unary  := '-' unary | atom
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Names are restricted to the state variables t, x, y, z, u, v and the
functions min, max, abs, exp.  min and max take two or more arguments,
abs and exp exactly one.  The exponent of '^' must be a nonnegative
integer literal.  Parentheses, calls and unary minus may nest at most
MAX_DEPTH levels deep.  Everything evaluates through numpy, so feeding
arrays for any variable broadcasts elementwise, and under
`np.errstate(all="ignore")`: an overflow or an invalid operation gives an
inf or a nan, and no warning.

There is deliberately no eval() anywhere: expressions come from config
files and must not reach the Python interpreter.
"""

from __future__ import annotations

import re

import numpy as np

VARIABLES = ("t", "x", "y", "z", "u", "v")
MAX_DEPTH = 50

_FUNCTIONS = {
    "abs": (1, 1),
    "exp": (1, 1),
    "min": (2, None),
    "max": (2, None),
}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class ExpressionError(ValueError):
    """Raised for any lexical, syntactic or arity problem in an expression."""


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(
                f"unexpected character {text[pos]!r} at position {pos} in {text!r}"
            )
        if m.group("num") is not None:
            tokens.append(("num", m.group(0).strip(), pos))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), pos))
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class Expression:
    """A parsed expression.  Call with keyword arguments for its variables."""

    def __init__(self, text, root, variables):
        self.text = text
        self._root = root
        self.variables = frozenset(variables)

    def __call__(self, **env):
        missing = self.variables - set(env)
        if missing:
            raise ExpressionError(
                f"expression {self.text!r} needs values for {sorted(missing)}"
            )
        # an overflow or 0/0 is a nonfinite value, which the solvers and
        # checks refuse naming the coefficient, not a numpy warning
        with np.errstate(all="ignore"):
            return self._root(env)

    def __repr__(self):
        return f"Expression({self.text!r})"


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.variables = set()

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(
                f"expected {op!r} at position {pos} in {self.text!r}, got {val!r}"
            )

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError(
                f"trailing input {val!r} at position {pos} in {self.text!r}"
            )
        return node

    def expr(self):
        return self.chain(self.term, {"+": np.add, "-": np.subtract})

    def term(self):
        return self.chain(self.power, {"*": np.multiply, "/": np.divide})

    def chain(self, operand, ops):
        """One node for `operand (op operand)*` with op in `ops`, folded left
        to right, so a long flat chain neither recurses nor nests."""
        first = operand()
        rest = []
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in ops:
                return _fold(first, rest) if rest else first
            self.take()
            rest.append((ops[val], operand()))

    def power(self):
        node = self.unary()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            ekind, etext, epos = self.take()
            if ekind != "num" or not re.fullmatch(r"\d+", etext):
                raise ExpressionError(
                    f"exponent must be a nonnegative integer literal at position"
                    f" {epos} in {self.text!r}"
                )
            k = int(etext)
            node = _unary(lambda a, _k=k: np.power(a, _k), node)
        return node

    def unary(self):
        # every nested operand passes through here, so this bounds the
        # parser's recursion
        kind, val, pos = self.peek()
        if self.depth == MAX_DEPTH:
            raise ExpressionError(
                f"expression nests deeper than {MAX_DEPTH} levels at position"
                f" {pos} in {self.text!r}"
            )
        self.depth += 1
        if kind == "op" and val == "-":
            self.take()
            node = _unary(np.negative, self.unary())
        else:
            node = self.atom()
        self.depth -= 1
        return node

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            const = float(val)
            return lambda env, _c=const: _c
        if kind == "name":
            if val in _FUNCTIONS:
                return self.call(val, pos)
            if val in VARIABLES:
                self.variables.add(val)
                return lambda env, _n=val: env[_n]
            raise ExpressionError(
                f"unknown name {val!r} at position {pos} in {self.text!r};"
                f" variables are {'/'.join(VARIABLES)},"
                f" functions are {'/'.join(sorted(_FUNCTIONS))}"
            )
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(
            f"unexpected token {val!r} at position {pos} in {self.text!r}"
        )

    def call(self, fname, pos):
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.take()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        lo, hi = _FUNCTIONS[fname]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ExpressionError(
                f"{fname} takes {lo}{'' if hi == lo else ' or more'} argument(s),"
                f" got {len(args)} at position {pos} in {self.text!r}"
            )
        if fname == "abs":
            return _unary(np.abs, args[0])
        if fname == "exp":
            return _unary(np.exp, args[0])
        reducer = np.minimum if fname == "min" else np.maximum
        return _fold(args[0], [(reducer, a) for a in args[1:]])


def _fold(first, rest):
    """Node evaluating first, then out = op(out, operand) for each pair of
    `rest` in order."""
    rest = tuple(rest)

    def node(env):
        out = first(env)
        for op, operand in rest:
            out = op(out, operand(env))
        return out

    return node


def _unary(op, a):
    return lambda env: op(a(env))


def parse_expression(text):
    """Parse *text* and return an Expression.

    Raises ExpressionError with a position on any malformed input.
    """
    if not isinstance(text, str) or text.strip() == "":
        raise ExpressionError("empty expression")
    p = _Parser(text)
    root = p.parse()
    return Expression(text, root, p.variables)
