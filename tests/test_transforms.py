import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pedalkit as pk
from pedalkit import transforms as tr
from pedalkit.curve import builtin_curve, parse_curve, position_xy, sample_grid
from pedalkit.errors import OriginSingularity, RangeError
from pedalkit.vec import invert_xy, perp_xy, rotate_xy

RADIUS2 = parse_curve(
    "x = 2*cos(t)\ny = 2*sin(t)\nt_min = 0\nt_max = 2*pi\nsamples = 64")

THROUGH_ORIGIN = parse_curve(
    "x = 1 + cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*pi\nsamples = 64")


def test_pedal_ellipse_spot():
    ell = builtin_curve("ellipse")
    pe = tr.pedal(ell, np.array([0.0]))
    assert tuple(pe.points[0]) == (1.0, 0.0)
    assert pe.ok.all()


def test_contrapedal_is_tangential_component():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 64)
    pe = tr.pedal(ell, ts)
    cp = tr.contrapedal(ell, ts)
    # orthogonal decomposition: pedal + contrapedal = gamma
    np.testing.assert_allclose(pe.points + cp.points, position_xy(ell, ts), atol=1e-14)
    assert np.hypot(*cp.points[0]) < 1e-15


def test_pedaloid_interpolates_pedal_and_contrapedal():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 64)
    np.testing.assert_allclose(tr.pedaloid(ell, math.pi / 2, ts).points,
                               tr.pedal(ell, ts).points, atol=1e-14)
    np.testing.assert_allclose(tr.pedaloid(ell, 0.0, ts).points,
                               tr.contrapedal(ell, ts).points, atol=1e-14)


def test_primitive_and_slant_spots():
    ell = builtin_curve("ellipse")
    t0 = np.array([0.0])
    assert tuple(tr.primitive(ell, t0).points[0]) == (1.0, 0.0)
    sl = tr.slant_primitivoid(ell, math.pi / 4, t0)
    assert sl.points[0] == pytest.approx([0.5, 0.5], abs=1e-15)
    assert tuple(tr.slant_primitivoid(ell, 0.0, t0).points[0]) == (1.0, 0.0)


def test_parallel_scales_primitive():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 128)
    pr = tr.primitive(ell, ts)
    for r in (0.5, -2.0):
        par = tr.parallel_primitivoid(ell, r, ts)
        np.testing.assert_array_equal(par.points, r * pr.points)


def test_perp_primitive_is_rotated_primitive():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 128)
    np.testing.assert_array_equal(tr.primitive_of_perp(ell, ts).points,
                                  perp_xy(tr.primitive(ell, ts).points))


def test_inversion_curvature_radius2_circle():
    # analytic value: -kappa |g|^2 - 2 <g, n> = -(1/2)(4) - 2(-2) = 2
    assert tr.inversion_curvature(RADIUS2, 0.0) == 2.0
    ts = sample_grid(RADIUS2)
    np.testing.assert_allclose(tr.inversion_curvature_grid(RADIUS2, ts), 2.0,
                               rtol=1e-13)


def test_inversion_curvature_offset_circle_constant():
    # x = 2 + cos t inverts to another circle; the image curvature is
    # constant even though |g|^2 varies along the source
    c = builtin_curve("offset_circle")
    ts = sample_grid(c, 256)
    np.testing.assert_allclose(tr.inversion_curvature_grid(c, ts), -3.0,
                               rtol=1e-12)


def test_invert_curve_unit_circle_fixed():
    c = builtin_curve("circle")
    ts = sample_grid(c, 64)
    inv = tr.invert_curve(c)
    np.testing.assert_allclose(position_xy(inv, ts), position_xy(c, ts),
                               atol=1e-15)


def test_antipedal_flags_denominator_zeros():
    c = builtin_curve("offset_circle")
    # <g, n> = -2 cos t - 1 vanishes at 2pi/3 and 4pi/3
    ts = np.array([0.0, 2 * math.pi / 3, math.pi, 4 * math.pi / 3])
    ape = tr.antipedal(c, ts)
    assert list(ape.ok) == [True, False, True, False]
    assert np.isfinite(ape.points[ape.ok]).all()


def test_origin_singularity_raised():
    # antipedal only divides by <g, n>, so it merely flags; these divide
    # by |g|^2 and must refuse up front
    raisers = (tr.primitive,
               lambda c: tr.slant_primitivoid(c, math.pi / 4),
               tr.inversion_curvature_grid)
    for fn in raisers:
        with pytest.raises(OriginSingularity):
            fn(THROUGH_ORIGIN)
    # symbolic inversion defers the problem to evaluation time: a circle
    # through the origin inverts to the line x = 1/2, unbounded at t = pi
    inv = tr.invert_curve(THROUGH_ORIGIN)
    ts = np.array([0.0, math.pi / 2, 2.0, math.pi - 1e-8])
    xy = position_xy(inv, ts)
    np.testing.assert_allclose(xy[:3, 0], 0.5, atol=1e-12)
    np.testing.assert_allclose(xy[:, 1], np.tan(ts / 2) / 2, rtol=1e-9)
    assert abs(xy[3, 1]) > 1e7


def test_transform_curve_rotates_and_scales():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 64)
    rot = tr.transform_curve(ell, math.pi / 6, -2.0)
    np.testing.assert_allclose(position_xy(rot, ts),
                               -2.0 * rotate_xy(position_xy(ell, ts), math.pi / 6),
                               atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0))
def test_pedal_equivariant_under_rotation(phi):
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 64)
    lhs = tr.pedal(tr.transform_curve(ell, phi, 1.0), ts).points
    rhs = rotate_xy(tr.pedal(ell, ts).points, phi)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_transform_dispatch():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 64)
    out = tr.apply_transform(ell, "slant", angle=math.pi / 4, ts=ts)
    np.testing.assert_array_equal(out.points,
                                  tr.slant_primitivoid(ell, math.pi / 4, ts).points)
    with pytest.raises(RangeError):
        tr.apply_transform(ell, "evolute", ts=ts)
    with pytest.raises(RangeError):
        tr.apply_transform(ell, "pedaloid")


def test_mapped_transforms_round_trip():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 4096)
    pr = tr.primitive(ell, ts)
    back = tr.mapped_pedal(pr)
    src = position_xy(ell, ts)
    mask = pk.stable_mask(pr) & back.ok
    err = np.hypot(*(back.points - src).T)[mask]
    assert err.max() < 1e-6


def test_slant_degenerate_angle_flagged():
    ell = builtin_curve("ellipse")
    out = tr.slant_primitivoid(ell, math.pi / 2, sample_grid(ell, 64))
    assert out.kind.degenerate_angle
    assert np.hypot(*out.points[out.ok].T).max() < 1e-9


def test_inversion_involution_on_curves():
    c = builtin_curve("offset_circle")
    ts = sample_grid(c, 64)
    double = tr.invert_curve(tr.invert_curve(c))
    np.testing.assert_allclose(position_xy(double, ts), position_xy(c, ts),
                               rtol=1e-12, atol=1e-12)


def test_frenet_frame_carries_the_frenet_normal():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 64)
    frame = tr.frenet_frame(ell, ts)
    fg = pk.frenet_grid(ell, ts)
    np.testing.assert_array_equal(frame.points, fg.p)
    np.testing.assert_array_equal(frame.nu, fg.n_hat)
    assert frame.ok.all() and frame.closed


_FRAME_CURVES = {
    **{name: (lambda name=name: builtin_curve(name))
       for name in ("circle", "ellipse", "front", "offset_circle")},
    "inv-ellipse": lambda: tr.invert_curve(builtin_curve("ellipse")),
    "parabola-arc": lambda: parse_curve(
        "x = t\ny = t^2 + 1\nt_min = -1\nt_max = 1\nclosed = false"),
    # a cusp at t = 0, a sample of both grids: a nan row in the normal
    "cusp": lambda: parse_curve(
        "x = t^2\ny = t^3\nt_min = -1\nt_max = 1\nclosed = false\nsamples = 33"),
}


def _same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("curve_name", sorted(_FRAME_CURVES))
def test_frenet_frame_normal_is_the_frenet_grid_normal_bitwise(curve_name):
    curve = _FRAME_CURVES[curve_name]()
    for ts in (sample_grid(curve), sample_grid(curve, 97)):
        fg = pk.frenet_grid(curve, ts)
        frame = tr.frenet_frame(curve, ts)
        assert fg.regular.all() == (curve_name != "cusp")
        assert _same_bits(frame.nu, fg.n_hat)
        assert _same_bits(frame.points, fg.p)


def test_frenet_frame_is_kept_for_an_equal_grid():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 64)
    before = hash(ell), repr(ell)
    frame = tr.frenet_frame(ell, ts)
    assert (hash(ell), repr(ell)) == before  # the kept frame is not a field
    assert tr.frenet_frame(ell, ts.copy()) is frame
    assert tr.frenet_frame(ell, list(ts)) is frame
    default = tr.frenet_frame(ell)
    assert default is not frame
    assert tr.frenet_frame(ell) is default  # a new but equal default grid
    assert tr.frenet_frame(ell, ts) is not frame  # only the last grid is kept
    other = builtin_curve("ellipse")
    assert other == ell
    assert tr.frenet_frame(other) is not tr.frenet_frame(ell)


def test_frenet_frame_owns_its_grid_and_is_read_only():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 64)
    frame = tr.frenet_frame(ell, ts)
    want = frame.grid.copy()
    ts[:] = 0.0
    np.testing.assert_array_equal(frame.grid, want)
    assert tr.frenet_frame(ell, ts) is not frame
    for arr in (frame.points, frame.nu, frame.grid, frame.flags):
        with pytest.raises(ValueError):
            arr[0] = 1
    out = tr.pedal_kernel(frame)
    assert out.grid is frame.grid
    out.points[0] = 0.0  # the kernel's own arrays stay writeable
    out.flags[0] = tr.FLAG_UNDEFINED
    assert frame.ok[0]


def test_one_frame_serves_every_registered_kernel():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 64)
    frame = tr.frenet_frame(ell, ts)
    for kind, (_, param) in tr.TRANSFORMS.items():
        value = {"angle": 0.4, "ratio": 2.0}.get(param)
        direct = tr.apply_transform(ell, kind, angle=0.4, ratio=2.0, ts=ts)
        shared = tr.transform_frame(frame, kind, value)
        assert shared.kind == direct.kind
        np.testing.assert_array_equal(shared.points, direct.points)
        np.testing.assert_array_equal(shared.flags, direct.flags)
    assert tr.TRANSFORM_KINDS == tuple(tr.TRANSFORMS)
    with pytest.raises(RangeError, match="needs --ratio"):
        tr.transform_frame(frame, "parallel")


def test_polyline_frame_normal_is_nan_off_the_stencil():
    # an open arc: the two samples at each end have no five-point stencil
    arc = parse_curve("x = t\ny = t^2\nt_min = -1\nt_max = 1\nclosed = false\nsamples = 33")
    ts = sample_grid(arc)
    frame = tr.polyline_frames(tr.pedal(arc, ts))
    assert np.isnan(frame.nu[[0, 1, -2, -1]]).all()
    assert np.isfinite(frame.nu[2:-2]).all()
    np.testing.assert_allclose(np.hypot(*frame.nu[2:-2].T), 1.0, atol=1e-12)
    out = tr.mapped_pedal(tr.pedal(arc, ts))
    assert not out.ok[[0, 1, -2, -1]].any()
    assert np.isnan(out.points[~out.ok]).all()


def test_shift_wraps_closed_and_repeats_open_ends():
    a = np.arange(5.0)
    np.testing.assert_array_equal(tr.shift(a, 2, closed=True), [2, 3, 4, 0, 1])
    np.testing.assert_array_equal(tr.shift(a, 2, closed=False), [2, 3, 4, 4, 4])
    np.testing.assert_array_equal(tr.shift(a, -1, closed=False), [0, 0, 1, 2, 3])


def test_sampled_curve_through_the_origin_is_undefined_there_not_refused():
    # the tangent line at t = 0 is the x-axis, so the pedal hits the origin
    arc = parse_curve("x = 2 + t\ny = t^2\nt_min = -1\nt_max = 1\nclosed = false\nsamples = 33")
    pe = tr.pedal(arc, sample_grid(arc))
    assert not pe.points[16].any()
    for out in (tr.mapped_primitive(pe), tr.mapped_slant(pe, 0.3)):
        assert out.flags[16] == tr.FLAG_UNDEFINED
        assert out.ok[2:16].all() and out.ok[17:-2].all()
    with pytest.raises(OriginSingularity):
        tr.primitive_kernel(tr.polyline_frames(pe))
    out = tr.mapped_slant(pe, math.pi / 2)
    assert out.kind.degenerate_angle
    assert (out.points[out.flags != tr.FLAG_UNDEFINED] == 0.0).all()
    assert np.isnan(out.points[out.flags == tr.FLAG_UNDEFINED]).all()


def test_invert_kernel_inverts_points_and_keeps_the_normal_unit():
    c = builtin_curve("offset_circle")
    frame = tr.frenet_frame(c, sample_grid(c, 64))
    inv = tr.invert_kernel(frame, "inverted")
    np.testing.assert_allclose(inv.points, invert_xy(frame.points), rtol=1e-15)
    np.testing.assert_allclose(np.hypot(*inv.nu.T), 1.0, atol=1e-12)
