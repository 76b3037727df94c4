import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pedalkit.vec import ORIGIN_EPS, invert_xy, median, perp_xy, rotate_xy, scale_xy

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
nonzero_pt = st.tuples(finite, finite).filter(lambda p: math.hypot(*p) > 1e-6)


def test_perp_is_quarter_turn():
    v = np.array([1.0, 2.0])
    assert tuple(perp_xy(v)) == (-2.0, 1.0)
    assert tuple(perp_xy(perp_xy(v))) == (-1.0, -2.0)
    assert v @ perp_xy(v) == 0.0
    assert v[0] * perp_xy(v)[1] - v[1] * perp_xy(v)[0] == v @ v


def test_rotate_known_angles():
    v = np.array([1.0, 0.0])
    r = rotate_xy(v, math.pi / 2)
    assert abs(r[0]) < 1e-16 and abs(r[1] - 1.0) < 1e-16
    assert tuple(rotate_xy(v, 0.0)) == (1.0, 0.0)


@given(nonzero_pt, st.floats(min_value=-10, max_value=10))
def test_rotate_preserves_norm(p, theta):
    v = np.array(p)
    assert math.hypot(*rotate_xy(v, theta)) == pytest.approx(math.hypot(*v), rel=1e-12)


@given(nonzero_pt)
def test_invert_involution(p):
    v = np.array(p)
    w = invert_xy(invert_xy(v))
    assert w[0] == pytest.approx(v[0], rel=1e-12, abs=1e-12)
    assert w[1] == pytest.approx(v[1], rel=1e-12, abs=1e-12)


@given(nonzero_pt)
def test_invert_norm_reciprocal(p):
    v = np.array(p)
    assert math.hypot(*invert_xy(v)) == pytest.approx(1.0 / math.hypot(*v), rel=1e-12)


def test_invert_rejects_origin():
    assert np.isnan(invert_xy(np.array([0.0, 0.0]))).all()


def test_array_helpers_match_scalars():
    # closed forms per row: J(x, y) = (-y, x), rotation by phi, and
    # inversion x / |x|^2
    pts = np.array([[1.0, 2.0], [-0.5, 0.25], [3.0, -4.0]])
    c, s = math.cos(0.3), math.sin(0.3)
    for (x, y), row in zip(pts, perp_xy(pts)):
        assert tuple(row) == (-y, x)
    for (x, y), row in zip(pts, rotate_xy(pts, 0.3)):
        assert row[0] == pytest.approx(c * x - s * y, abs=1e-15)
        assert row[1] == pytest.approx(s * x + c * y, abs=1e-15)
    for (x, y), row in zip(pts, invert_xy(pts)):
        n2 = x * x + y * y
        assert row[0] == pytest.approx(x / n2, rel=1e-15)
        assert row[1] == pytest.approx(y / n2, rel=1e-15)


def test_invert_xy_flags_origin_rows_as_nan():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    out = invert_xy(pts)
    assert not np.isfinite(out[0]).any()
    assert tuple(out[1]) == (1.0, 0.0)


def test_invert_xy_is_x_over_its_squared_norm_bitwise_at_every_scale():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(100_000, 2)) * 10.0 ** rng.uniform(-160, 150, (100_000, 1))
    pts[:4] = [[0.0, 0.0], [-0.0, -0.0], [1e200, 1e200], [1e-200, -1e-200]]
    with np.errstate(all="ignore"):
        n2 = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
        expected = pts / n2[:, None]
    expected[n2 < ORIGIN_EPS * ORIGIN_EPS] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = invert_xy(pts)
        buf, same = np.empty_like(pts), pts.copy()
        into, in_place = invert_xy(pts, buf), invert_xy(same, same)
    assert out.tobytes() == expected.tobytes()
    # written to a buffer, or over the points themselves, with the same bits
    assert into is buf and in_place is same
    assert into.tobytes() == in_place.tobytes() == expected.tobytes()


# the specials of the writer tests and the scales of the inversion test,
# and a nan with its sign bit set: of two nans, the first operand's
# comes out, so the order of the operands shows
EDGE_VALUES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e-300,
               -math.nan)


def _edge_column(rng, n):
    values = rng.normal(size=n) * 10.0 ** rng.uniform(-160, 150, n)
    values[rng.random(n) < 0.1] = 1e300
    values[rng.random(n) < 0.1] = 1e-300
    return np.where(rng.random(n) < 1 / 3, rng.choice(np.array(EDGE_VALUES), n), values)


def _outcome(fn):
    """fn's result bytes and the distinct warnings it gives, and whether
    it raises under errstate(all="raise")."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    with np.errstate(all="raise"):
        try:
            fn()
            raised = False
        except FloatingPointError:
            raised = True
    return out.tobytes(), {(w.category, str(w.message)) for w in caught}, raised


@pytest.mark.parametrize("op", [np.multiply, np.divide])
def test_scale_xy_is_the_broadcast_bitwise_warnings_included(op):
    rng = np.random.default_rng(12)
    n = 20_000
    s = _edge_column(rng, n)
    pts = np.column_stack([_edge_column(rng, n), _edge_column(rng, n)])
    s[:len(EDGE_VALUES)] = EDGE_VALUES
    # every special against every special, in both columns
    pts[:len(EDGE_VALUES) ** 2] = np.repeat(EDGE_VALUES, len(EDGE_VALUES))[:, None]
    s[:len(EDGE_VALUES) ** 2] = np.tile(EDGE_VALUES, len(EDGE_VALUES))
    cases = [(lambda: scale_xy(op, s, pts), lambda: op(s[:, None], pts)),
             (lambda: scale_xy(op, pts, s), lambda: op(pts, s[:, None])),
             (lambda: scale_xy(op, pts[7], s[7]), lambda: op(pts[7], s[7, None]))]
    for got, want in cases:
        expected = _outcome(want)
        assert _outcome(got) == expected
    assert _outcome(cases[0][1])[1]  # the edge values do make op warn


def _same(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (math.isnan(a) and math.isnan(b))


def test_median_is_np_median_bitwise_on_odd_and_even_sizes():
    edges = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf, and overflow of the mean
        for n in range(1, 5):
            for combo in itertools.product(edges, repeat=n):
                x = np.array(combo)
                assert _same(median(x), np.median(x)), combo
    rng = np.random.default_rng(5)
    for n in list(range(1, 40)) + [4096, 4097]:
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
        x[rng.random(n) < 0.1] = 0.0  # repeated entries
        assert _same(median(x), np.median(x)), n
        assert isinstance(median(x), float)


def test_verify_and_plot_do_not_import_numpy_ma():
    # np.median imports numpy.ma on its first call, ~15 ms a process
    code = ("import contextlib, io, os, sys, tempfile\n"
            "from pedalkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify', '--suite', 'all', '--curve', 'front']) == 0\n"
            "    assert 'numpy.ma' not in sys.modules, 'verify'\n"
            "    with tempfile.TemporaryDirectory() as d:\n"
            "        assert main(['plot', '--figure', '8', '--svg', os.path.join(d, 'f.svg')]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'plot'\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(median.__code__.co_filename)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
