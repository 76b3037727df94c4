import dataclasses
import math

import numpy as np
import pytest

import pedalkit as pk
from pedalkit import (CurveDef, IrregularPoint, ParseError, RangeError,
                      builtin_curve, format_curve, frenet, frenet_grid,
                      load_curve, parse_curve, sample_grid)
from pedalkit.curve import jet_grid

ELLIPSE_TEXT = """
name = "squashed"
x = cos(t)
y = sin(t)/sqrt(3)
t_min = 0
t_max = 2*pi
samples = 256
closed = true
"""


def test_parse_curve_fields():
    c = parse_curve(ELLIPSE_TEXT)
    assert c.name == "squashed"
    assert c.t_min == 0.0
    assert c.t_max == pytest.approx(2 * math.pi, abs=0)
    assert c.samples == 256
    assert c.closed


def test_parse_curve_defaults_and_comments():
    c = parse_curve("# just x and y\nx = cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*pi\n")
    assert c.samples == 1024
    assert c.closed


@pytest.mark.parametrize("text, fragment", [
    ("x = cos(t\ny = t\nt_min = 0\nt_max = 1", "expected ')'"),
    ("y = t\nt_min = 0\nt_max = 1", "missing required key 'x'"),
    ("x = t\ny = t\nt_min = 0\nt_max = t", "constant"),
])
def test_parse_curve_rejects(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_curve(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text, fragment", [
    ("x = t\ny = t\nt_min = 1\nt_max = 0", "parameter interval"),
    ("x = t\ny = t\nt_min = 0\nt_max = 1\nsamples = 4", "samples"),
    ("x = t\ny = t\nt_min = 0\nt_max = 1\nclosed = true", "endpoints differ"),
])
def test_curve_value_constraints(text, fragment):
    with pytest.raises(RangeError) as err:
        parse_curve(text)
    assert fragment in str(err.value)


def test_closed_curve_undefined_at_an_end_is_rejected():
    # the closure check walks both end points as one array, where an
    # undefined end is a non-finite row, and check_defined raises there
    with pytest.raises(pk.EvalError, match="not defined at t=0.0"):
        parse_curve("x = log(t)\ny = t\nt_min = 0\nt_max = 1\nclosed = true")


def test_check_defined_names_the_first_undefined_parameter_of_any_row():
    c = pk.builtin_curve("circle")
    ts = np.linspace(0.0, 1.0, 6)
    p, d1, d2 = (np.ones((6, 2)) for _ in range(3))
    pk.curve.check_defined(c, ts, (p, d1, d2))
    d1[4, 1] = np.nan
    d2[2, 0] = -np.inf
    with pytest.raises(pk.EvalError, match="not defined at t=0.4$"):
        pk.curve.check_defined(c, ts, (p, d1, d2))


def test_closure_check_is_one_order_0_walk(monkeypatch):
    walks = []
    jets = pk.expr.jets

    def counted_jets(exprs, t, order=pk.expr.MAX_JET_ORDER, schedule=None):
        walks.append((order, len(t)))
        return jets(exprs, t, order, schedule)

    def no_scalar_evaluate(e, t):
        raise AssertionError("scalar evaluate called")

    monkeypatch.setattr(pk.expr, "jets", counted_jets)
    monkeypatch.setattr(pk.expr, "evaluate", no_scalar_evaluate)
    CurveDef(pk.parse_expr("cos(t)"), pk.parse_expr("sin(t)/sqrt(3)"), 0.0, 2 * math.pi)
    assert walks == [(0, 2)]


def test_format_parse_round_trip(tmp_path):
    c = parse_curve(ELLIPSE_TEXT)
    path = tmp_path / "squashed.curve"
    path.write_text(format_curve(c))
    again = load_curve(path)
    assert again.name == c.name
    ts = np.linspace(0.0, 2 * math.pi, 17)
    np.testing.assert_array_equal(pk.position_xy(c, ts), pk.position_xy(again, ts))


def test_format_parse_round_trip_with_hash_in_name():
    c = dataclasses.replace(parse_curve(ELLIPSE_TEXT), name="a#b")
    again = parse_curve(format_curve(c))
    assert again.name == "a#b"
    # a comment after the quoted value is still a comment
    text = format_curve(c).replace('"a#b"', '"a#b"  # the name')
    assert parse_curve(text).name == "a#b"


def test_builtin_curves_present():
    for name in ("circle", "ellipse", "front", "offset_circle"):
        c = builtin_curve(name)
        assert c.name == name
        assert c.closed
    with pytest.raises(RangeError):
        builtin_curve("lemniscate")


def test_builtin_samples_override():
    assert builtin_curve("circle").samples == 1024
    assert builtin_curve("circle", 4096).samples == 4096


def test_sample_grid_spacing():
    c = builtin_curve("circle", 16)
    ts = sample_grid(c)
    # closed curve: endpoint omitted, uniform step
    assert len(ts) == 16
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(2 * math.pi - 2 * math.pi / 16, abs=1e-15)
    # the default grid is built once, kept on the curve, and read-only
    assert sample_grid(c) is ts
    with pytest.raises(ValueError):
        ts[0] = 1.0
    assert sample_grid(c, 16) is not ts and sample_grid(c, 16).flags.writeable
    np.testing.assert_array_equal(sample_grid(c, 16), ts)
    open_c = parse_curve("x = t\ny = t^2\nt_min = 0\nt_max = 1\nclosed = false")
    ts = sample_grid(open_c, 21)
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert np.allclose(np.diff(ts), 0.05)
    with pytest.raises(RangeError):
        sample_grid(open_c, 8)


def test_frenet_ellipse_at_zero():
    fr = frenet(builtin_curve("ellipse"), 0.0)
    assert (fr.p[0], fr.p[1]) == (1.0, 0.0)
    assert (fr.t_hat[0], fr.t_hat[1]) == (0.0, 1.0)
    assert (fr.n_hat[0], fr.n_hat[1]) == (-1.0, 0.0)
    assert fr.speed == pytest.approx(1 / math.sqrt(3), abs=0)
    # osculating radius b^2/a with a=1, b=1/sqrt(3)
    assert fr.kappa == pytest.approx(3.0, rel=1e-13)
    assert fr.kappa_prime_arc == pytest.approx(0.0, abs=1e-12)


def test_frenet_circle_orientation():
    c = builtin_curve("circle")
    fg = frenet_grid(c, sample_grid(c, 64))
    assert fg.regular.all()
    np.testing.assert_allclose(fg.kappa, 1.0, rtol=1e-12)
    np.testing.assert_allclose(fg.speed, 1.0, rtol=1e-12)
    # n_hat = J t_hat points inward
    np.testing.assert_allclose(fg.n_hat, -fg.p, atol=1e-12)


def test_frenet_frame_orthonormal_everywhere():
    for name in ("ellipse", "offset_circle"):
        c = builtin_curve(name)
        fg = frenet_grid(c, sample_grid(c, 257))
        dots = (fg.t_hat * fg.n_hat).sum(axis=1)
        assert np.abs(dots).max() < 1e-12
        assert np.abs(np.hypot(fg.t_hat[:, 0], fg.t_hat[:, 1]) - 1).max() < 1e-12


def test_kappa_prime_arc_matches_finite_difference():
    c = builtin_curve("ellipse")
    h = 1e-5
    for t in (0.4, 1.3, 2.9):
        # d(kappa)/ds = (dkappa/dt) / speed
        fd = (frenet(c, t + h).kappa - frenet(c, t - h).kappa) / (2 * h)
        fd /= frenet(c, t).speed
        assert frenet(c, t).kappa_prime_arc == pytest.approx(fd, rel=1e-6)


def test_frenet_rejects_irregular_point():
    cusp = parse_curve("x = t^2\ny = t^3\nt_min = -1\nt_max = 1\nclosed = false")
    with pytest.raises(IrregularPoint):
        frenet(cusp, 0.0)
    fg = frenet_grid(cusp, np.array([-0.5, 0.0, 0.5]))
    assert list(fg.regular) == [True, False, True]
    assert np.isnan(fg.kappa[1])


def test_replace_rederives_jets():
    c = builtin_curve("ellipse")
    dense = dataclasses.replace(c, samples=4096)
    assert dense.samples == 4096
    # jets must still evaluate (private cache rebuilt, not copied stale)
    assert frenet(dense, 0.3).speed == frenet(c, 0.3).speed


def test_vertices_of_ellipse_are_axis_points():
    c = builtin_curve("ellipse")
    for t in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        assert abs(frenet(c, t).kappa_prime_arc) < 1e-12


# --- the scalar contract: one parameter, the errors of the grid rows ----------

SCALAR_FNS = [pk.jet, pk.frenet, pk.criterion]

LOG_ARC = parse_curve("x = log(t)\ny = t\nt_min = -1\nt_max = 1\nclosed = false")


@pytest.mark.parametrize("fn", SCALAR_FNS)
def test_scalar_functions_reject_parameters_outside_the_interval(fn):
    c = builtin_curve("ellipse")
    for t in (-0.1, 2 * math.pi + 0.1):
        with pytest.raises(RangeError, match="outside"):
            fn(c, t)


PARABOLA_ARC = parse_curve("x = t\ny = t^2 + 1\nt_min = -1\nt_max = 1\nclosed = false")


@pytest.mark.parametrize("fn", [
    pk.frenet_grid, pk.position_xy, pk.primitive,
    lambda c, ts: pk.envelope(pk.make_family("primitive", c), ts),
], ids=["frenet_grid", "position_xy", "primitive", "envelope"])
def test_grid_functions_reject_parameters_outside_the_interval(fn):
    # a grid walk past t_max used to return finite points flagged ok
    with pytest.raises(RangeError, match="outside"):
        fn(PARABOLA_ARC, np.array([0.0, 5.0]))


@pytest.mark.parametrize("fn", SCALAR_FNS)
def test_scalar_functions_raise_eval_error_where_undefined(fn):
    with pytest.raises(pk.EvalError):
        fn(LOG_ARC, -0.5)


@pytest.mark.parametrize("fn", SCALAR_FNS[1:])
def test_scalar_functions_raise_irregular_point_at_a_stationary_point(fn):
    cusp = parse_curve("x = t^2 + 1\ny = t^3\nt_min = -1\nt_max = 1\nclosed = false")
    with pytest.raises(IrregularPoint):
        fn(cusp, 0.0)


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("name, count", [(name, 300) for name in pk.BUILTIN_NAMES]
                         + [("inv(ellipse)", 300), ("inv(front)", 300)])
def test_scalar_functions_are_rows_of_the_grid_functions(name, count):
    curve = (pk.invert_curve(builtin_curve(name[4:-1])) if name.startswith("inv(")
             else builtin_curve(name))
    ts = np.random.default_rng(7).uniform(curve.t_min, curve.t_max, count)
    jets = jet_grid(curve, ts)
    fg = frenet_grid(curve, ts)
    crit = -pk.inversion_curvature_grid(curve, ts)
    for i, t in enumerate(ts):
        j = pk.jet(curve, t)
        assert _bits(*(c for v in (j.p, j.d1, j.d2, j.d3) for c in (v[0], v[1]))) == \
            _bits(*(c for d in jets for c in d[i]))
        fr = frenet(curve, t)
        assert _bits(fr.p[0], fr.p[1], fr.t_hat[0], fr.t_hat[1], fr.n_hat[0], fr.n_hat[1],
                     fr.speed, fr.kappa, fr.kappa_prime_arc) == \
            _bits(*fg.p[i], *fg.t_hat[i], *fg.n_hat[i],
                  fg.speed[i], fg.kappa[i], fg.kappa_prime_arc[i])
        assert _bits(pk.criterion(curve, t)) == _bits(crit[i])


@pytest.mark.parametrize("x", ["t^-1", "sqrt(t)", "abs(t)"])
def test_scalar_jet_raises_where_a_derivative_is_undefined(x):
    curve = parse_curve(f"x = {x}\ny = t\nt_min = 0\nt_max = 1\nclosed = false")
    rows = jet_grid(curve, np.array([0.0, 0.5]))
    assert not np.isfinite(np.hstack(rows)[0]).all()
    assert np.isfinite(np.hstack(rows)[1]).all()
    with pytest.raises(pk.EvalError):
        pk.jet(curve, 0.0)


def test_jets_of_an_inverted_curve_equal_those_of_its_parsed_copy():
    # invert_curve shares the source's x and y between both coordinates;
    # the text copy has no shared nodes
    inv = pk.invert_curve(builtin_curve("front"))
    again = parse_curve(format_curve(inv))
    ts = sample_grid(inv, 512)
    for a, b in zip(jet_grid(inv, ts), jet_grid(again, ts)):
        assert a.tobytes() == b.tobytes()


def test_jet_grid_blocks_do_not_change_the_result(monkeypatch):
    c = pk.invert_curve(builtin_curve("ellipse"))
    ts = sample_grid(c, 100)
    whole = jet_grid(c, ts)
    monkeypatch.setattr("pedalkit.curve.JET_BLOCK", 7)
    for a, b in zip(whole, jet_grid(c, ts)):
        assert a.tobytes() == b.tobytes()
    assert pk.velocity_xy(c, ts).tobytes() == whole[1].tobytes()


@pytest.mark.parametrize("name", ["ellipse", "front", "offset_circle"])
def test_parsed_curves_share_subtrees_and_keep_their_jets(name):
    # a curve file written from invert_curve(c) parses back to a tree
    # that shares |g|^2 between x and y as the in-memory one does, with
    # the same jets bit for bit
    c = builtin_curve(name)
    ts = sample_grid(c, 1000)
    for mem in (pk.invert_curve(c), pk.invert_curve(pk.invert_curve(c))):
        parsed = parse_curve(format_curve(mem))
        assert parsed == mem
        assert parsed.x.right is parsed.y.right
        assert format_curve(parsed) == format_curve(mem)
        for a, b in zip(jet_grid(parsed, ts), jet_grid(mem, ts)):
            assert a.tobytes() == b.tobytes()
