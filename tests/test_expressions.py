"""Grammar, evaluation and rejection tests for the expression mini-language."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isaacs.expressions import MAX_DEPTH, Expression, ExpressionError, parse_expression


def test_arithmetic_and_precedence():
    e = parse_expression("2 + 3 * x^2")
    assert e(x=2.0) == 14.0
    assert parse_expression("2 - 3 - 4")(x=0.0) == -5.0
    assert parse_expression("12 / 3 / 2")(x=0.0) == 2.0
    assert parse_expression("(2 + 3) * x")(x=2.0) == 10.0


def test_unary_minus_binds_tighter_than_power():
    assert parse_expression("-x^2")(x=3.0) == 9.0
    assert parse_expression("0 - x^2")(x=3.0) == -9.0
    assert parse_expression("0 - -x")(x=4.0) == 4.0
    assert parse_expression("--x")(x=5.0) == 5.0


def test_functions_and_varargs():
    assert parse_expression("min(1, 2, 3)")() == 1.0
    assert parse_expression("max(x, 0, -x)")(x=-7.0) == 7.0
    assert parse_expression("abs(-3)")() == 3.0
    e = parse_expression("exp(0 - x^2)")
    assert e(x=0.0) == 1.0
    assert abs(e(x=1.0) - np.exp(-1.0)) < 1e-15


def test_tent_shape_broadcasts_over_arrays():
    tent = parse_expression("max(0, 1 - abs(x))")
    x = np.linspace(-2.0, 2.0, 9)
    out = tent(x=x)
    assert out.shape == x.shape
    assert np.array_equal(out, np.maximum(0.0, 1.0 - np.abs(x)))


def test_all_six_variables_reach_the_driver():
    e = parse_expression("t + x + y + z + u + v")
    assert e.variables == frozenset("txyzuv")
    assert e(t=1.0, x=2.0, y=3.0, z=4.0, u=5.0, v=6.0) == 21.0


def test_variables_reports_only_what_is_used():
    e = parse_expression("x * u")
    assert e.variables == frozenset({"x", "u"})
    # extra bindings are fine, missing ones are not
    assert e(x=2.0, u=3.0, t=99.0) == 6.0
    with pytest.raises(ExpressionError, match="needs values"):
        e(x=2.0)


def test_scientific_notation_literals():
    assert parse_expression("1e3")() == 1000.0
    assert parse_expression("2.5e-2 * x")(x=4.0) == 0.1


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "   ",
        "2 +",
        "(1 + 2",
        "1 + 2)",
        "x y",
        "min(1)",
        "abs(1, 2)",
        "x ^ y",
        "x ^ -1",
        "x ^ 2.5",
        "w + 1",
        "sin(x)",
        "1 $ 2",
    ],
)
def test_malformed_expressions_are_rejected(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


def test_no_route_to_the_interpreter():
    # names outside the tiny whitelist never resolve, so there is nothing
    # an expression string can reach beyond numpy arithmetic
    for text in ("__import__(1)", "eval(1)", "x.__class__", "open(1)"):
        with pytest.raises(ExpressionError):
            parse_expression(text)


def test_error_messages_carry_position_and_text():
    with pytest.raises(
        ExpressionError, match=r"'sin' at position 3 in '1 \+ sin\(x\)'"
    ):
        parse_expression("1 + sin(x)")


@pytest.mark.parametrize("op, value", [("+", 2000.0), ("-", -1998.0), ("*", 1.0), ("/", 1.0)])
def test_long_flat_chains_evaluate_without_recursion(op, value):
    # nesting is bounded by the parser, flat chains are not: a 2000-term
    # chain must evaluate as one loop, not as a 2000-deep call tree
    e = parse_expression(f" {op} ".join(["x"] * 2000))
    assert e(x=1.0) == value
    assert np.array_equal(e(x=np.ones(3)), np.full(3, value))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(text=st.one_of(st.text(), st.text(alphabet="0123456789.eE+-*/^(),xyzuvt minaxbsp ")))
def test_arbitrary_text_parses_or_raises_expression_error(text):
    try:
        e = parse_expression(text)
    except ExpressionError:
        return
    assert isinstance(e, Expression)


# expression trees: ("num", c), ("x",), (op, a, b) for + - * /, ("^", a, k),
# ("neg", a) and (name, *args) for abs, exp, min and max
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_CALLS = {"abs": np.abs, "exp": np.exp, "min": np.minimum, "max": np.maximum}


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(sorted(_BINARY)), children, children),
        st.tuples(st.just("^"), children, st.integers(0, 4)),
        st.tuples(st.just("neg"), children),
        st.tuples(st.sampled_from(["abs", "exp"]), children),
        st.builds(
            lambda name, args: (name, *args),
            st.sampled_from(["min", "max"]),
            st.lists(children, min_size=2, max_size=4),
        ),
    )


_TREES = st.recursive(
    st.one_of(st.tuples(st.just("num"), st.floats(0.0, 1e3)), st.just(("x",))),
    _extend,
    max_leaves=30,
)


def _print(tree):
    """Fully parenthesized text of a tree."""
    kind = tree[0]
    if kind == "num":
        return repr(tree[1])
    if kind == "x":
        return "x"
    if kind in _BINARY:
        return f"({_print(tree[1])} {kind} {_print(tree[2])})"
    if kind == "^":
        return f"({_print(tree[1])}^{tree[2]})"
    if kind == "neg":
        return f"(-{_print(tree[1])})"
    return f"{kind}({', '.join(_print(arg) for arg in tree[1:])})"


def _evaluate(tree, xs):
    kind = tree[0]
    if kind == "num":
        return tree[1]
    if kind == "x":
        return xs
    if kind in _BINARY:
        return _BINARY[kind](_evaluate(tree[1], xs), _evaluate(tree[2], xs))
    if kind == "^":
        return np.power(_evaluate(tree[1], xs), tree[2])
    if kind == "neg":
        return np.negative(_evaluate(tree[1], xs))
    out = _evaluate(tree[1], xs)
    for arg in tree[2:]:
        out = _CALLS[kind](out, _evaluate(arg, xs))
    return _CALLS[kind](out) if kind in ("abs", "exp") else out


def _nesting(tree):
    """Levels of the parser's nesting bound that the printed tree uses: one
    per parenthesized group, call or leaf, two for a parenthesized minus."""
    below = max((_nesting(arg) for arg in tree[1:] if isinstance(arg, tuple)), default=0)
    return below + (2 if tree[0] == "neg" else 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    tree=_TREES,
    xs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5).map(np.array),
)
def test_printed_trees_evaluate_as_their_numpy_evaluation(tree, xs):
    assume(_nesting(tree) <= MAX_DEPTH)
    with np.errstate(all="ignore"):
        got = parse_expression(_print(tree))(x=xs)
        want = _evaluate(tree, xs)
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    np.testing.assert_array_equal(got, want)  # NaN matches NaN
