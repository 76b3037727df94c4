import math
import tracemalloc

import numpy as np
import pytest

from pedalkit import transforms as tr
from pedalkit.envelope import circle_family_check, envelope, make_family
from pedalkit.curve import (JET_BLOCK, builtin_curve, parse_curve, position_xy,
                            sample_grid, velocity_xy)
from pedalkit.errors import OriginSingularity, RangeError
from pedalkit.transforms import frenet_frame, invert_curve, pedal_kernel
from pedalkit.vec import dot_xy, perp_xy


def rel_err(a, b):
    scale = np.maximum(1.0, np.hypot(*b.T))
    return (np.hypot(*(a - b).T) / scale).max()


@pytest.mark.parametrize("kind,kwargs,direct", [
    ("primitive", {}, lambda c, ts: tr.primitive(c, ts)),
    ("parallel", {"r": 2.5}, lambda c, ts: tr.parallel_primitivoid(c, 2.5, ts)),
    ("slant", {"phi": math.pi / 5},
     lambda c, ts: tr.slant_primitivoid(c, math.pi / 5, ts)),
    ("antipedal", {}, lambda c, ts: tr.antipedal(c, ts)),
])
def test_envelope_matches_closed_form(kind, kwargs, direct):
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 512)
    env = envelope(make_family(kind, ell, **kwargs), ts)
    ref = direct(ell, ts)
    mask = env.ok & ref.ok
    assert mask.mean() > 0.95
    assert rel_err(env.points[mask], ref.points[mask]) < 1e-9


def test_envelope_flags_degenerate_members():
    # tangent line passes through the origin where x y' - y x' = 1 - t^2
    # vanishes, so the 2x2 system degenerates at both endpoints
    c = parse_curve(
        "x = 1 + t^2\ny = t\nt_min = -1\nt_max = 1\nclosed = false\nsamples = 33")
    env = envelope(make_family("primitive", c))
    assert not env.ok[0]
    assert not env.ok[-1]
    assert env.ok[1:-1].all()


def test_family_line_contains_transform_point():
    ell = builtin_curve("ellipse")
    ts = np.array([0.7, 2.0, 4.5])
    for fam, mc in ((make_family("primitive", ell), tr.primitive(ell, ts)),
                    (make_family("slant", ell, phi=0.4),
                     tr.slant_primitivoid(ell, 0.4, ts))):
        a, c = fam.members(ts)[:2]
        residual = (a * mc.points).sum(axis=1) - c
        assert np.abs(residual).max() < 1e-12


def test_make_family_rejects_bad_input():
    ell = builtin_curve("ellipse")
    with pytest.raises(RangeError):
        make_family("evolute", ell)
    with pytest.raises(RangeError):
        make_family("parallel", ell, r=0.0)
    with pytest.raises(RangeError):
        make_family("slant", ell)
    through_origin = parse_curve(
        "x = 1 + cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*pi\nsamples = 64")
    with pytest.raises(OriginSingularity):
        envelope(make_family("primitive", through_origin))


def test_circle_family_check_small_on_builtins():
    # the inverted ring points pass close to the origin, so the line
    # residual carries a 1/|x|^2 amplification; 1e-9 is the honest bound
    for name in ("circle", "ellipse", "offset_circle"):
        assert circle_family_check(builtin_curve(name)) < 1e-9


# Reference: each family written out on its own, with the 2x2 solve of
# envelope(); the one-formula families must reproduce it bit for bit.


def _reference_coefficients(kind, curve, ts, value):
    """(a, a', c, c') of the named family, one branch per kind."""
    p, v = position_xy(curve, ts), velocity_xy(curve, ts)
    n2, dot = (p ** 2).sum(axis=1), (p * v).sum(axis=1)
    if kind == "primitive":
        return p, v, n2, 2.0 * dot
    if kind == "parallel":
        return p, v, value * n2, 2.0 * value * dot
    if kind == "slant":
        cp, sp = math.cos(value), math.sin(value)
        return (cp * p + sp * perp_xy(p), cp * v + sp * perp_xy(v),
                cp * n2, 2.0 * cp * dot)
    return p, v, np.ones_like(ts), np.zeros_like(ts)


def _reference_envelope(a, ap, b0, b1):
    """(points, flags) of the per-sample system [a; a'] x = [c; c']."""
    r0, r1, bb0, bb1 = a.copy(), ap.copy(), b0.copy(), b1.copy()
    swap = np.abs(r1[:, 0]) > np.abs(r0[:, 0])
    r0[swap], r1[swap] = ap[swap], a[swap]
    bb0[swap], bb1[swap] = b1[swap], b0[swap]
    with np.errstate(all="ignore"):
        m = r1[:, 0] / r0[:, 0]
        y = (bb1 - m * bb0) / (r1[:, 1] - m * r0[:, 1])
        x = (bb0 - r0[:, 1] * y) / r0[:, 0]
        points = np.column_stack([x, y])
        det = a[:, 0] * ap[:, 1] - a[:, 1] * ap[:, 0]
        bound = 1e-10 * np.hypot(a[:, 0], a[:, 1]) * np.hypot(ap[:, 0], ap[:, 1])
    flags = np.where(np.abs(det) < bound, tr.FLAG_NEAR_SINGULAR, tr.FLAG_OK).astype(np.uint8)
    undefined = ~np.isfinite(points).all(axis=1)
    flags[undefined] = tr.FLAG_UNDEFINED
    points[undefined] = np.nan
    return points, flags


_REFERENCE_CURVES = {
    **{name: (lambda name=name: builtin_curve(name))
       for name in ("circle", "ellipse", "front", "offset_circle")},
    "inv-ellipse": lambda: invert_curve(builtin_curve("ellipse")),
    "parabola-arc": lambda: parse_curve(
        "x = t\ny = t^2 + 1\nt_min = -1\nt_max = 1\nclosed = false\nsamples = 257"),
}

_REFERENCE_FAMILIES = [
    ("primitive", None), ("parallel", 2.0), ("parallel", -1.0),
    ("slant", 0.0), ("slant", math.pi / 10), ("slant", math.pi / 2),
    ("slant", 2.0), ("antipedal", None),
]


def _same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


# envelope() solves in blocks of JET_BLOCK parameters: grids on each
# side of one and two block edges
_BLOCK_EDGE_SAMPLES = (JET_BLOCK - 1, JET_BLOCK, JET_BLOCK + 1, 2 * JET_BLOCK + 1)


@pytest.mark.parametrize("kind,value", _REFERENCE_FAMILIES)
@pytest.mark.parametrize("curve_name", sorted(_REFERENCE_CURVES))
def test_family_matches_reference_bitwise(curve_name, kind, value):
    curve = _REFERENCE_CURVES[curve_name]()
    fam = make_family(kind, curve, r=value, phi=value)
    for n in (None, 97) + _BLOCK_EDGE_SAMPLES:
        ts = sample_grid(curve, n)
        a, ap, c, cp = _reference_coefficients(kind, curve, ts, value)
        members = fam.members(ts)
        assert _same_bits(members[0], a)
        assert _same_bits(members[1], c)
        points, flags = _reference_envelope(a, ap, c, cp)
        env = envelope(fam, ts)
        assert _same_bits(env.points, points)
        assert _same_bits(env.flags, flags)


@pytest.mark.parametrize("kwargs", [
    {"kind": "slant", "phi": math.inf}, {"kind": "slant", "phi": math.nan},
    {"kind": "parallel", "r": -math.inf}, {"kind": "parallel", "r": math.nan},
])
def test_make_family_rejects_non_finite_parameters(kwargs):
    with pytest.raises(RangeError):
        make_family(curve=builtin_curve("ellipse"), **kwargs)


_THROUGH_ORIGIN = "x = 1 + cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*pi\nsamples = {}"


def test_origin_guard_checks_the_evaluated_grid():
    # the grid of 64 hits the origin at t = pi, the grid of 63 misses it
    c63 = parse_curve(_THROUGH_ORIGIN.format(63))
    with pytest.raises(OriginSingularity):
        circle_family_check(c63, sample_grid(c63, 64))
    with pytest.raises(OriginSingularity):
        envelope(make_family("primitive", c63), sample_grid(c63, 64))


def test_origin_hit_in_a_later_block_names_the_first_hit():
    # through the origin at t = pi and t = 3 pi, at grid indices
    # JET_BLOCK + 1 and 3 JET_BLOCK + 3: in the second and fourth blocks
    twice = parse_curve("x = 1 + cos(t)\ny = sin(t)\nt_min = 0\nt_max = 4*pi\n"
                        "closed = false\nsamples = 63")
    ts = sample_grid(twice, 4 * JET_BLOCK + 5)
    g = position_xy(twice, ts)
    hits = np.flatnonzero(np.hypot(g[:, 0], g[:, 1]) < 1e-9)
    assert list(hits) == [JET_BLOCK + 1, 3 * JET_BLOCK + 3]
    with pytest.raises(OriginSingularity, match=f"near t={ts[hits[0]]:.6g}$"):
        envelope(make_family("primitive", twice), ts)


def test_origin_guard_passes_a_grid_that_misses_the_origin():
    c64 = parse_curve(_THROUGH_ORIGIN.format(64))
    assert circle_family_check(c64, sample_grid(c64, 63)) < 1e-9


def test_family_of_a_curve_through_the_origin_solves_a_grid_that_misses_it():
    # the curve's own grid of 64 hits the origin, the grid of 63 misses it
    c64 = parse_curve(_THROUGH_ORIGIN.format(64))
    ts = sample_grid(c64, 63)
    env = envelope(make_family("primitive", c64), ts)
    assert env.ok.all()
    assert rel_err(env.points, tr.primitive(c64, ts).points) < 1e-9


def _one_shot_circle_check(curve, ts):
    """circle_family_check with the rings of the whole grid at once."""
    frame = frenet_frame(curve, ts)
    g = frame.points
    pe = pedal_kernel(frame)
    ok = pe.ok
    resid_g = np.abs(dot_xy(pe.points[ok], pe.points[ok] - g[ok]))
    radius = 0.5 * np.hypot(g[:, 0], g[:, 1])
    angles = 2.0 * math.pi * np.arange(8) / 8 + 0.7
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = 0.5 * g[:, None, :] + radius[:, None, None] * ring[None, :, :]
    n2 = dot_xy(pts, pts)
    with np.errstate(all="ignore"):
        resid_line = np.abs(dot_xy(pts, g[:, None, :]) / n2 - 1.0)
    usable = n2 > (1e-3 * radius[:, None]) ** 2
    resid_line = resid_line[usable & np.isfinite(resid_line)]
    worst = 0.0
    if resid_g.size:
        worst = max(worst, float(resid_g.max()))
    if resid_line.size:
        worst = max(worst, float(resid_line.max()))
    return worst


@pytest.mark.parametrize("curve_name", ["circle", "ellipse", "front", "inv-ellipse"])
def test_blocked_circle_check_equals_one_shot(curve_name):
    curve = _REFERENCE_CURVES[curve_name]()
    ts = sample_grid(curve, 3 * JET_BLOCK + 5)
    assert circle_family_check(curve, ts) == _one_shot_circle_check(curve, ts)


def test_circle_check_runs_in_bounded_memory():
    # the rings of the whole grid at once peak near 56 MB
    ell = builtin_curve("ellipse", samples=1 << 17)
    frenet_frame(ell)  # the kept frame, built before the count starts
    tracemalloc.start()
    try:
        circle_family_check(ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
