import collections
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pedalkit.expr as ex
from pedalkit.curve import CurveDef, format_curve
from pedalkit.errors import EvalError, ParseError
from pedalkit.transforms import invert_curve

from _exprgen import expression_corpus

_REFERENCE_FN = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "abs": np.abs,
}


def reference_evaluate(e, t):
    """Plain recursive numpy evaluation of a tree, the reference that the
    jet walk's entry 0 is checked against."""
    if isinstance(e, ex.Num):
        return e.value
    if isinstance(e, ex.Const):
        return ex.CONSTANTS[e.name]
    if isinstance(e, ex.Param):
        return t
    if isinstance(e, ex.Neg):
        return -reference_evaluate(e.arg, t)
    if isinstance(e, ex.Add):
        return reference_evaluate(e.left, t) + reference_evaluate(e.right, t)
    if isinstance(e, ex.Sub):
        return reference_evaluate(e.left, t) - reference_evaluate(e.right, t)
    if isinstance(e, ex.Mul):
        return reference_evaluate(e.left, t) * reference_evaluate(e.right, t)
    if isinstance(e, ex.Div):
        return reference_evaluate(e.left, t) / reference_evaluate(e.right, t)
    if isinstance(e, ex.Pow):
        return np.power(reference_evaluate(e.base, t), reference_evaluate(e.exponent, t))
    if isinstance(e, ex.Call):
        return _REFERENCE_FN[e.func](reference_evaluate(e.arg, t))
    raise TypeError(f"not an Expr node: {e!r}")


def reference_array(e, ts):
    with np.errstate(all="ignore"):
        return np.broadcast_to(np.float64(reference_evaluate(e, ts)), ts.shape)


@pytest.mark.parametrize("text, t, expected", [
    ("2+3*4^2", 0.0, 50.0),
    ("2^3^2", 0.0, 512.0),          # right-associative
    ("-t^2", 3.0, 9.0),             # '^' binds the signed factor
    ("-(t^2)", 3.0, -9.0),
    ("sin(t)^2 + cos(t)^2", 0.7, 1.0),
    ("pi", 0.0, math.pi),
    ("e", 0.0, math.e),
    ("sqrt(3)", 0.0, math.sqrt(3)),
    ("abs(-4) / 2", 0.0, 2.0),
    ("(30*cos(t) - 17*cos(3*t) + 3*cos(5*t))/32", 0.0, 0.5),
])
def test_evaluate_known_values(text, t, expected):
    assert ex.evaluate(ex.parse_expr(text), t) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("bad, fragment", [
    ("sin(", "unexpected end of input"),
    ("t t", "trailing input"),
    ("foo(t)", "unknown identifier 'foo'"),
    ("2 +", "unexpected end of input"),
    ("(t", "expected ')'"),
    ("", "unexpected end of input"),
    ("t*²", "unknown identifier '²'"),
    ("1e999", "too large"),
])
def test_parse_errors_carry_position(bad, fragment):
    with pytest.raises(ParseError) as err:
        ex.parse_expr(bad)
    assert fragment in str(err.value)
    assert "line 1" in str(err.value)


# pieces of text: the tokens of the grammar, blanks, and characters that
# str.isdigit() or str.isnumeric() takes for digits although only '٣' is a
# decimal digit that float() reads
_PIECES = list("0123456789.eE+-*/^() \t\n") + ["t", "sin", "cos", "pi", "abs",
                                               "²", "½", "٣", "①"]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=12),
                 st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)))
def test_any_text_parses_to_a_printable_tree_or_raises_parse_error(text):
    try:
        e = ex.parse_expr(text)
    except ParseError:
        return
    assert ex.parse_expr(ex.to_text(e)) == e


# each shape as (text nested d levels deep, the column at which a text
# one level past MAX_DEPTH is refused): parentheses are counted as the
# text is read, the depth of the tree as it is built
_NESTED = {
    "parentheses": (lambda d: "(" * (d - 1) + "cos(t)" + ")" * (d - 1), lambda d: d + 3),
    "calls": (lambda d: "cos(" * d + "t" + ")" * d, lambda d: 4 * d),
    "sum": (lambda d: "+".join(["t"] * (d + 1)), lambda d: 2 * d + 1),
    "power": (lambda d: "^".join(["t"] * (d + 1)), lambda d: 2 * d + 1),
    "unary-minus": (lambda d: "-" * d + "t", lambda d: d + 1),
}


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_nesting_is_bounded_where_every_walk_still_runs(shape):
    text, column = _NESTED[shape]
    e = ex.parse_expr(text(ex.MAX_DEPTH))
    ex.jets((e,), np.linspace(0.1, 0.9, 5))
    ex.to_text(ex.differentiate(e))
    format_curve(invert_curve(CurveDef(e, ex.T, 0.1, 0.9, closed=False)))
    with pytest.raises(ParseError, match=f"more than {ex.MAX_DEPTH} ") as err:
        ex.parse_expr(text(ex.MAX_DEPTH + 1), line=3, column=5)
    assert (err.value.line, err.value.column) == (3, 4 + column(ex.MAX_DEPTH + 1))


def test_long_chains_of_unary_minus_and_powers_parse_without_recursion():
    assert ex.parse_expr("-" * 5001 + "3") == ex.Num(-3.0)
    assert ex.parse_expr("-t^2") == ex.Pow(ex.Neg(ex.T), ex.Num(2.0))
    assert ex.parse_expr("2^-3^t") == ex.Pow(ex.Num(2.0), ex.Pow(ex.Num(-3.0), ex.T))


@pytest.mark.parametrize("text, dtext", [
    ("sin(t)", "cos(t)"),
    ("t^3", "3.0*t^2.0"),
    ("sin(t)/sqrt(3)", "cos(t)/sqrt(3.0)"),
])
def test_differentiate_prints_expected(text, dtext):
    assert ex.to_text(ex.differentiate(ex.parse_expr(text))) == dtext


def test_differentiate_chain_and_product():
    d = ex.differentiate(ex.parse_expr("t^2 * exp(sin(t))"))
    f = lambda t: t * t * math.exp(math.sin(t))
    h = 1e-6
    for t in (0.3, 1.1, 2.5):
        fd = (f(t + h) - f(t - h)) / (2 * h)
        assert ex.evaluate(d, t) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_abs_derivative_is_sign_away_from_zero():
    d = ex.differentiate(ex.parse_expr("abs(t)"))
    assert ex.evaluate(d, 2.0) == 1.0
    assert ex.evaluate(d, -2.0) == -1.0
    with pytest.raises(EvalError):
        ex.evaluate(d, 0.0)


def test_scalar_domain_errors_raise_but_arrays_yield_nan():
    e = ex.parse_expr("log(t)")
    with pytest.raises(EvalError):
        ex.evaluate(e, -1.0)
    out = ex.evaluate_array(e, np.array([-1.0, 1.0, math.e]))
    assert not np.isfinite(out[0])
    assert out[1] == 0.0
    assert out[2] == pytest.approx(1.0, abs=1e-15)


def test_scalar_fractional_power_of_negative_base_raises():
    # Python's float power returns a complex number here; the scalar
    # path must report the domain error instead
    with pytest.raises(EvalError):
        ex.evaluate(ex.parse_expr("(0-8)^(1/3)"), 0.0)
    assert not np.isfinite(ex.evaluate_array(ex.parse_expr("(0-8)^(1/3)"),
                                             np.array([0.0]))[0])


def test_evaluate_array_matches_scalar_loop():
    e = ex.parse_expr("sin(2*t) + t/(abs(cos(t)) + 1)")
    ts = np.linspace(0.0, 6.0, 37)
    arr = ex.evaluate_array(e, ts)
    for t, v in zip(ts, arr):
        assert v == ex.evaluate(e, float(t))


@pytest.mark.parametrize("text", expression_corpus(seed=1202, count=40))
def test_round_trip_through_text(text):
    parsed = ex.parse_expr(text)
    printed = ex.to_text(parsed)
    again = ex.parse_expr(printed)
    ts = np.linspace(0.15, 2.9, 64)
    a = ex.evaluate_array(parsed, ts)
    b = ex.evaluate_array(again, ts)
    assert np.isfinite(a).all()
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("text", expression_corpus(seed=1202, count=40))
def test_symbolic_derivative_matches_central_difference(text):
    parsed = ex.parse_expr(text)
    deriv = ex.differentiate(parsed)
    ts = np.linspace(0.15, 2.9, 64)
    h = 1e-5
    sym = ex.evaluate_array(deriv, ts)
    fd = (ex.evaluate_array(parsed, ts + h) - ex.evaluate_array(parsed, ts - h)) / (2 * h)
    scale = np.maximum(1.0, np.abs(sym))
    assert np.isfinite(sym).all()
    assert (np.abs(sym - fd) / scale).max() < 1e-7


def test_depends_on_t():
    assert ex.depends_on_t(ex.parse_expr("sin(t) + 1"))
    assert not ex.depends_on_t(ex.parse_expr("2*pi + e^2"))


def test_scalar_evaluate_returns_a_float_or_raises():
    value = ex.evaluate(ex.parse_expr("sin(t)"), 0.5)
    assert type(value) is float
    assert type(ex.evaluate(ex.parse_expr("2"), 0.5)) is float
    with pytest.raises(EvalError):
        ex.evaluate(ex.parse_expr("1/t"), 0.0)
    with pytest.raises(EvalError):
        ex.evaluate(ex.parse_expr("exp(t)"), 1000.0)


@pytest.mark.parametrize("text", expression_corpus(seed=1202, count=40))
def test_jets_match_the_symbolic_derivatives(text):
    # entry 0 is the reference evaluation bit for bit; orders 1 to 3 agree
    # with the derivative trees, evaluated by the reference, to rounding
    e = ex.parse_expr(text)
    ts = np.linspace(0.15, 2.9, 64)
    values = ex.jets([e], ts)[0]
    assert len(values) == ex.MAX_JET_ORDER + 1
    assert reference_array(e, ts).tobytes() == values[0].tobytes()
    d = e
    for k in range(1, ex.MAX_JET_ORDER + 1):
        d = ex.differentiate(d)
        sym = reference_array(d, ts)
        assert np.isfinite(values[k]).all()
        assert (np.abs(values[k] - sym) / np.maximum(1.0, np.abs(sym))).max() < 1e-12


_EDGE_TEXTS = ["-t^2", "tan(t) - t", "t^t", "sin(t)^cos(t)", "(0-8)^(1/3) + t",
               "1/t", "log(t - 1)", "sqrt(1 - t^2)", "exp(1000*t)/exp(1000*t)",
               "2*pi + e^2", "abs(t)/t"]


@pytest.mark.parametrize("text", expression_corpus(seed=1202, count=40) + _EDGE_TEXTS)
def test_evaluate_is_the_reference_evaluation_bitwise(text):
    # over the corpus, its derivative trees and trees that are undefined
    # or overflow on part of the grid: evaluate, evaluate_array and entry
    # 0 of the jets at every order have the reference's bits
    ts = np.concatenate([np.linspace(-1.5, 2.9, 45), [0.0, -0.0, 1.0, 0.5]])
    d = ex.parse_expr(text)
    for _ in range(2):
        want = reference_array(d, ts)
        assert ex.evaluate_array(d, ts).tobytes() == want.tobytes()
        assert np.broadcast_to(ex.evaluate(d, ts), ts.shape).tobytes() == want.tobytes()
        for order in range(ex.MAX_JET_ORDER + 1):
            assert ex.jets([d], ts, order)[0][0].tobytes() == want.tobytes()
        for t, v in zip(ts[::7], want[::7]):
            if math.isfinite(v):
                assert ex.evaluate(d, float(t)) == v
            else:
                with pytest.raises(EvalError):
                    ex.evaluate(d, float(t))
        d = ex.differentiate(d)


def test_jets_stop_at_the_order_asked_for():
    e = ex.parse_expr("t^2*exp(sin(t))")
    ts = np.linspace(-1.0, 1.0, 9)
    full = ex.jets([e], ts)[0]
    for order in range(ex.MAX_JET_ORDER + 1):
        part = ex.jets([e], ts, order)[0]
        assert len(part) == order + 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(part, full))
    with pytest.raises(ValueError):
        ex.jets([e], ts, ex.MAX_JET_ORDER + 1)


@pytest.mark.parametrize("text, expected", [
    ("t^2", (0.0, 0.0, 2.0, 0.0)),
    ("t^3", (0.0, 0.0, 0.0, 6.0)),
    ("(t - 1)^2", (1.0, -2.0, 2.0, 0.0)),
])
def test_jets_of_integer_powers_are_finite_at_zero(text, expected):
    values = ex.jets([ex.parse_expr(text)], np.array([0.0]))[0]
    assert tuple(float(v[0]) for v in values) == expected


def test_jets_of_a_constant_keep_structural_zeros():
    # d(2 + cos t)/dt at t = 0 is -sin 0 = -0.0; adding the constant's
    # derivative as 0.0 would turn it into +0.0
    values = ex.jets([ex.parse_expr("2 + cos(t)")], np.array([0.0]))[0]
    assert math.copysign(1.0, values[1][0]) == -1.0
    assert all(v.shape == (1,) for v in ex.jets([ex.parse_expr("pi")], np.array([0.0]))[0])


def test_jets_of_a_varying_exponent():
    ts = np.linspace(0.5, 2.5, 11)
    values = ex.jets([ex.parse_expr("t^t")], ts)[0]
    np.testing.assert_array_equal(values[0], np.power(ts, ts))
    np.testing.assert_allclose(values[1], ts**ts * (np.log(ts) + 1.0), rtol=1e-14)
    d = ex.parse_expr("sin(t)^cos(t)")
    values = ex.jets([d], ts)[0]
    for k in range(1, ex.MAX_JET_ORDER + 1):
        d = ex.differentiate(d)
        np.testing.assert_allclose(values[k], reference_array(d, ts), rtol=1e-12, atol=1e-12)


def test_jets_leave_no_reference_cycles():
    # a walk's arrays are freed when it returns, not at the next cyclic
    # collection; on a long grid that garbage would pile up across calls
    e = ex.parse_expr("sin(t)*(23 + 4*cos(2*t))/(1 + t^2) + t^t")
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        ex.jets([e], np.linspace(0.5, 1.0, 8))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _random_dag(seed: int) -> tuple:
    """Three roots over shared subtrees of generated text: x reads a twice
    in one node (a*a), y reads a and b again, and the third root, a, is
    also a child of x and y."""
    a, b, c = expression_corpus(seed=seed, count=3)
    table: dict = {}
    x = ex.parse_expr(f"({a})*({a}) + sin({b})", table=table)
    y = ex.parse_expr(f"cos({b}) - ({a})/(abs({c}) + 1) + sin({a})", table=table)
    return x, y, ex.parse_expr(a, table=table)


def _bytes(walked) -> list:
    return [[v.tobytes() for v in w] for w in walked]


@pytest.mark.parametrize("seed", range(2401, 2413))
def test_a_released_walk_has_the_bits_of_one_that_keeps_every_jet(monkeypatch, seed):
    # one schedule serves the walks of three blocks, as a curve's does;
    # every node is computed once per walk, and a walk ends holding the
    # roots' jets, and the sin and cos of a root, and nothing else
    exprs = _random_dag(seed)
    assert exprs[0].left.left is exprs[0].left.right  # a child read twice
    schedule = ex.release_schedule(exprs)
    roots = set(map(id, exprs))
    assert not roots & {k for drops in schedule.values() for k in drops}
    walk, memos, computed = ex._jet, [], collections.Counter()

    def counted(e, t, order, memo, drops):
        if not memos or memos[-1] is not memo:
            memos.append(memo)
        computed[len(memos), id(e)] += id(e) not in memo
        return walk(e, t, order, memo, drops)

    ts = np.linspace(0.15, 2.9, 3 * 257)
    for order in range(ex.MAX_JET_ORDER + 1):
        for block in np.split(ts, 3):
            kept = ex.jets(exprs, block, order, {})
            monkeypatch.setattr(ex, "_jet", counted)
            released = ex.jets(exprs, block, order, schedule)
            monkeypatch.setattr(ex, "_jet", walk)
            assert _bytes(released) == _bytes(kept)
            assert set(computed.values()) == {1}
            kept_keys = set(memos[-1])  # the roots' jets, and the sin and cos of roots
            assert {k for k in kept_keys if type(k) is int} == roots
            assert all(k[1] in roots for k in kept_keys - roots)
    assert len(memos) == 3 * (ex.MAX_JET_ORDER + 1)


def test_the_sin_and_cos_of_an_argument_that_is_gone_are_not_reused():
    # forty arguments k*t + k, each dropped, with its sin and cos, once
    # its sine is computed: a new argument's array may take the address
    # of a dead one, and must not find the dead one's sin or cos
    e = ex.parse_expr(" + ".join(f"sin({k}*t + {k})" for k in range(1, 41)))
    ts = np.linspace(-3.0, 3.0, 4099)
    for order in range(ex.MAX_JET_ORDER + 1):
        assert _bytes(ex.jets([e], ts, order)) == _bytes(ex.jets([e], ts, order, {}))
    want = sum(np.sin(k * ts + k) for k in range(1, 41))
    np.testing.assert_allclose(ex.jets([e], ts, 0)[0][0], want, rtol=0, atol=1e-12)


def test_a_jet_walk_of_the_front_holds_few_jets():
    # the tracemalloc peak of one block's order-3 walk on its release
    # schedule, against a walk that keeps every node's jets
    from pedalkit.curve import JET_BLOCK, builtin_curve, sample_grid
    front = builtin_curve("front")
    ts = sample_grid(front, JET_BLOCK)
    peaks = []
    for schedule in (ex.release_schedule((front.x, front.y)), {}):
        tracemalloc.start()
        try:
            ex.jets((front.x, front.y), ts, 3, schedule)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 0.6 * peaks[1]


def _count_trig(monkeypatch, shape):
    """Counts the sin and cos arrays of shape `shape` that the walk makes."""
    made = []
    for name in ("sin", "cos"):
        def counted(u, fn=ex._NUMPY_FN[name]):
            out = fn(u)
            if np.shape(out) == shape:
                made.append(out)
            return out
        monkeypatch.setitem(ex._NUMPY_FN, name, counted)
    return made


@pytest.mark.parametrize("name, joint, apart", [("ellipse", 2, 4), ("front", 10, 12)])
def test_a_jet_walk_takes_sin_and_cos_once_per_argument(monkeypatch, name, joint, apart):
    # d sin(u) needs cos(u) and d cos(u) needs sin(u): one walk of x and
    # y keeps both per argument; walking x and y apart cannot share them
    from pedalkit.curve import builtin_curve, sample_grid
    curve = builtin_curve(name)
    ts = sample_grid(curve)
    made = _count_trig(monkeypatch, ts.shape)
    together = ex.jets((curve.x, curve.y), ts, 1)
    assert len(made) == joint
    made.clear()
    separate = ex.jets((curve.x,), ts, 1) + ex.jets((curve.y,), ts, 1)
    assert len(made) == apart
    for a, b in zip(together, separate):
        assert [v.tobytes() for v in a] == [v.tobytes() for v in b]
    if name == "ellipse":
        r3 = np.sqrt(3.0)
        want = [[np.cos(ts), -np.sin(ts)], [np.sin(ts) / r3, np.cos(ts) / r3]]
        assert [[v.tobytes() for v in w] for w in together] == \
            [[v.tobytes() for v in w] for w in want]


def test_tan_shares_the_cos_of_its_argument(monkeypatch):
    ts = np.linspace(0.1, 1.2, 17)
    e = ex.parse_expr("tan(t) + cos(t)")
    made = _count_trig(monkeypatch, ts.shape)
    together = ex.jets([e], ts)[0]
    assert len(made) == 2
    tan, cos = ex.jets([e.left], ts)[0], ex.jets([e.right], ts)[0]
    assert len(made) == 5
    assert [v.tobytes() for v in together] == [(a + b).tobytes() for a, b in zip(tan, cos)]


def test_parsing_interns_equal_subtrees():
    e = ex.parse_expr("cos(3*t)*sin(3*t) + cos(3*t)")
    assert e.left.left is e.right
    assert e.left.left.arg is e.left.right.arg
    table = {}
    x = ex.parse_expr("cos(t) + 2", table=table)
    y = ex.parse_expr("sin(t)/(cos(t) + 2)", table=table)
    assert y.right is x
    assert ex.parse_expr("cos(t) + 2") == x and ex.parse_expr("cos(t) + 2") is not x
    # numbers are told apart by sign, so 0.0 and -0.0 stay two nodes
    z = ex.parse_expr("t*0.0 + t*-0.0")
    assert z.left.right is not z.right.right
    assert math.copysign(1.0, z.right.right.value) == -1.0
