import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _stencils import ref_five_point_derivative, ref_shift, ref_stencil_ok

import pedalkit as pk
from pedalkit import frontal as fr
from pedalkit import transforms as tr
from pedalkit.curve import (JET_BLOCK, REGULAR_EPS, _jets_xy, bbox_diameter, builtin_curve,
                            parse_curve, position_xy, row_blocks, sample_grid, velocity_xy)
from pedalkit.errors import OriginSingularity, RangeError
from pedalkit.vec import ORIGIN_EPS, dot_xy, invert_xy, perp_xy, rotate_xy

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
    assert tr.inversion_curvature_grid(RADIUS2, [0.0])[0] == 2.0
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


@pytest.mark.parametrize("curve_name", [*pk.BUILTIN_NAMES, "stationary-arc"])
def test_frenet_normal_is_j_d1_over_its_length_bitwise(curve_name):
    # d1 = (3 t^2, 2 t) vanishes at t = 0, the middle sample of 17
    curve = (parse_curve("x = t^3 + 2\ny = t^2\nt_min = -1\nt_max = 1\nclosed = false")
             if curve_name == "stationary-arc" else builtin_curve(curve_name))
    ts = sample_grid(curve, 17 if curve_name == "stationary-arc" else None)
    want = _one_shot_unit_normal(pk.jet_grid(curve, ts)[1])
    assert np.isnan(want[8]).all() == (curve_name == "stationary-arc")
    assert _same_bits(tr.frenet_frame(curve, ts).nu, want)
    assert _same_bits(pk.frenet_grid(curve, ts).n_hat, want)


def test_frenet_frame_is_built_anew_for_an_explicit_grid():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 64)
    before = hash(ell), repr(ell)
    frame = tr.frenet_frame(ell, ts)
    default = tr.frenet_frame(ell)
    assert (hash(ell), repr(ell)) == before  # the kept frame is not a field
    again = tr.frenet_frame(ell, ts)
    assert again is not frame  # a frame on an explicit grid is the caller's
    assert _same_bits(again.points, frame.points) and _same_bits(again.nu, frame.nu)
    assert tr.frenet_frame(ell, list(ts)) is not frame
    assert tr.frenet_frame(ell, default.grid) is not default  # even on the default grid
    assert tr.frenet_frame(ell) is default
    for arr in (again.points, again.nu, again.grid, again.flags):
        with pytest.raises(ValueError):
            arr[0] = 1
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
    pe = tr.pedal(arc, ts[:4])
    for derive in (tr.polyline_frames, tr.mapped_pedal, tr.mapped_primitive,
                   lambda mc: tr.mapped_slant(mc, 0.7)):
        with pytest.raises(RangeError, match="at least 5 samples"):
            derive(pe)


def test_halo_wraps_closed_and_repeats_open_ends():
    a = np.arange(5.0)
    np.testing.assert_array_equal(tr.halo(a, 2, 7, closed=True), [2, 3, 4, 0, 1])
    np.testing.assert_array_equal(tr.halo(a, 2, 7, closed=False), [2, 3, 4, 4, 4])
    np.testing.assert_array_equal(tr.halo(a, -1, 4, closed=False), [0, 0, 1, 2, 3])
    # halos on both sides, up to two rows past each end
    np.testing.assert_array_equal(tr.halo(a, -1, 6, closed=True), [4, 0, 1, 2, 3, 4, 0])
    np.testing.assert_array_equal(tr.halo(a, -2, 7, closed=True), [3, 4, 0, 1, 2, 3, 4, 0, 1])
    np.testing.assert_array_equal(tr.halo(a, -2, 7, closed=False), [0, 0, 0, 1, 2, 3, 4, 4, 4])
    # twist -1 negates the rows wrapped round the seam alone; open ends ignore it
    b = a + 1.0
    np.testing.assert_array_equal(tr.halo(b, -2, 7, True, -1), [-4, -5, 1, 2, 3, 4, 5, -1, -2])
    np.testing.assert_array_equal(tr.halo(b, -1, 3, True, -1), [-5, 1, 2, 3])
    np.testing.assert_array_equal(tr.halo(b, 3, 7, True, -1), [4, 5, -1, -2])
    np.testing.assert_array_equal(tr.halo(b, -2, 7, False, -1), [1, 1, 1, 2, 3, 4, 5, 5, 5])


@pytest.mark.parametrize("closed", [True, False])
def test_halo_rows_are_the_shifted_rows_bitwise(closed):
    rng = np.random.default_rng(3)
    n = 11
    pts = rng.standard_normal((n, 2))
    # nan rows that wrap forward and backward, one with its sign bit set
    pts[[0, 1, -1], 0] = np.nan
    pts[-2, 1] = np.copysign(np.nan, -1.0)
    cases = [(pts, 1), (pts, -1), (pts[:, 0].copy(), -1), (rng.random(n) < 0.5, 1),
             (rng.integers(0, 3, n).astype(np.uint8), 1)]
    for arr, twist in cases:
        w = tr.halo(arr, -2, n + 2, closed, twist)
        for k in (-2, -1, 0, 1, 2):
            assert _same_bits(w[2 + k:2 + k + n], ref_shift(arr, k, closed, twist)), (arr.dtype, k)


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


# ---------------------------------------------------------------------------
# the kernels against broadcast reference formulas: rows scaled with
# s[:, None] * pts and pts / s[:, None], the guard scale measured per call


def _ref_output(frame, points, den=None):
    flags = frame.flags.copy()
    if den is not None:
        eps_d = tr.DENOM_REL_EPS * bbox_diameter(frame.points, frame.ok)
        flags[(np.abs(den) < eps_d) & (flags == tr.FLAG_OK)] = tr.FLAG_NEAR_SINGULAR
    undefined = (flags == tr.FLAG_UNDEFINED) | ~np.isfinite(points).all(axis=1)
    flags[undefined] = tr.FLAG_UNDEFINED
    points[undefined] = np.nan
    return points, flags


def _ref_primitive(frame):
    p, nu = frame.points, frame.nu
    den = dot_xy(p, nu)
    return 2.0 * p - (dot_xy(p, p) / den)[:, None] * nu, den


def _ref_kernel(frame, kind, value):
    """(points, flags, normal) of a kernel, from broadcast formulas."""
    p, nu = frame.points, frame.nu
    with np.errstate(all="ignore"):
        if kind in ("pedal", "contrapedal", "pedaloid"):
            if kind == "pedal":
                d = nu
            elif kind == "contrapedal":
                d = perp_xy(nu) * -1.0
            else:
                d = perp_xy(nu) * -math.cos(value) + math.sin(value) * nu
            return (*_ref_output(frame, dot_xy(p, d)[:, None] * d), None)
        if kind == "antipedal":
            den = dot_xy(p, nu)
            return (*_ref_output(frame, nu / den[:, None], den), None)
        if kind == "invert":
            n2 = dot_xy(p, p)
            points = p / n2[:, None]
            points[n2 < ORIGIN_EPS * ORIGIN_EPS] = np.nan
            normal = nu - 2.0 * (dot_xy(p, nu) / n2)[:, None] * p
            return (*_ref_output(frame, points), normal)
        points, den = _ref_primitive(frame)
        normal = p / np.sqrt(dot_xy(p, p))[:, None]
        if kind == "parallel":
            points = points * value
        elif kind == "slant":
            points = rotate_xy(points, value) * math.cos(value)
            normal = rotate_xy(normal, value)
        elif kind == "perp-primitive":
            points = perp_xy(points)
        return (*_ref_output(frame, points, den), normal)


def _ref_unit_normal(d1):
    with np.errstate(all="ignore"):
        return perp_xy(d1 / np.hypot(d1[:, 0], d1[:, 1])[:, None])


_BLOCKS_SAMPLES = 3 * JET_BLOCK + 5

# the parameters of the kernels that take one
_VALUES = {"pedaloid": 0.4, "slant": 0.7, "parallel": 1.7}


def _moved(frame, k, den):
    """The frame with some rows other than k flagged and some of their
    normals nan, moved so that the origin lies den off the tangent line
    at row k."""
    flags = frame.flags.copy()
    flags[5::97] = tr.FLAG_UNDEFINED
    flags[7::89] = tr.FLAG_NEAR_SINGULAR
    nu = frame.nu.copy()
    nu[11::101] = np.nan
    flags[k], nu[k] = frame.flags[k], frame.nu[k]
    origin = frame.points[k] + 0.5 * perp_xy(frame.nu[k]) + den * frame.nu[k]
    return dataclasses.replace(frame, points=frame.points - origin, flags=flags, nu=nu)


def _kernel_runs(frame):
    """(kind, output) of every kernel on the frame, with and without a
    normal where a kernel can give one."""
    runs = [(kind, tr.transform_frame(frame, kind, _VALUES.get(kind)))
            for kind in tr.TRANSFORM_KINDS]
    runs += [(kind, tr.TRANSFORMS[kind][0](frame, _VALUES[kind], normal=True))
             for kind in ("parallel", "slant")]
    return runs + [("primitive", tr.primitive_kernel(frame, normal=True)),
                   ("invert", tr.invert_kernel(frame, "inverted"))]


def _one_shot_unit_normal(d1):
    """The unit normal of the velocities d1 over the whole grid at once,
    nan where the speed is below REGULAR_EPS or not finite."""
    nu = _ref_unit_normal(d1)
    nu[~(np.hypot(d1[:, 0], d1[:, 1]) >= REGULAR_EPS)] = np.nan
    return nu


def _one_shot_polyline_normal(mc):
    """The normal of polyline_frames from whole-grid shifts at once."""
    with np.errstate(all="ignore"):
        d1 = ref_five_point_derivative(mc.points, mc.grid[1] - mc.grid[0], mc.closed)
    nu = _one_shot_unit_normal(d1)
    nu[~ref_stencil_ok(mc.ok & np.isfinite(mc.points).all(axis=1), mc.closed)] = np.nan
    return nu


@pytest.fixture(scope="module", params=["ellipse", "front"])
def block_frames(request):
    """The curve's Frenet, polyline and lifted frames at 3 JET_BLOCK + 5
    samples, each with its normal from broadcast formulas."""
    curve = builtin_curve(request.param, samples=_BLOCKS_SAMPLES)
    frenet = tr.frenet_frame(curve)
    want = _one_shot_unit_normal(velocity_xy(curve, frenet.grid))
    prim = tr.primitive(curve)
    poly = tr.polyline_frames(prim)
    poly_want = _one_shot_polyline_normal(prim)
    lift = fr.lift_front(curve)
    # moved so that the origin lies 1e-9 off one tangent line, below
    # eps_d: every branch of the output flags
    moved = _moved(frenet, _BLOCKS_SAMPLES // 3, 1e-9)
    return {"frenet": (frenet, want), "polyline": (poly, poly_want),
            "lift": (lift, lift.nu), "moved": (moved, moved.nu)}


@pytest.mark.parametrize("provider", ["frenet", "polyline", "lift", "moved"])
def test_kernels_match_broadcast_formulas_bitwise(block_frames, provider):
    frame, want_nu = block_frames[provider]
    assert _same_bits(frame.nu, want_nu)
    for kind, out in _kernel_runs(frame):
        points, flags, normal = _ref_kernel(frame, kind, _VALUES.get(kind))
        assert _same_bits(out.points, points), kind
        assert _same_bits(out.flags, flags), kind
        assert out.nu is None or _same_bits(out.nu, normal), kind
    if provider == "moved":
        flags = tr.antipedal_kernel(frame).flags
        assert flags[_BLOCKS_SAMPLES // 3] == tr.FLAG_NEAR_SINGULAR
        assert set(np.unique(flags)) == {tr.FLAG_OK, tr.FLAG_NEAR_SINGULAR, tr.FLAG_UNDEFINED}


def test_eps_d_is_measured_once_per_frame(monkeypatch):
    calls = []

    def counted(points, mask=None):
        calls.append(len(points))
        return bbox_diameter(points, mask)

    monkeypatch.setattr(tr, "bbox_diameter", counted)
    curve = builtin_curve("front", samples=256)
    for kind in tr.TRANSFORM_KINDS:
        tr.apply_transform(curve, kind, angle=0.4, ratio=2.0)
    frame = tr.frenet_frame(curve)
    tr.invert_kernel(frame, "inverted")
    tr.primitive_kernel(frame, normal=True)
    assert calls == [256]
    poly = tr.polyline_frames(frame)
    for kind in tr.TRANSFORM_KINDS:
        tr.transform_frame(poly, kind, 0.4)
    assert calls == [256, 256]


def test_default_frame_is_kept_across_other_grids(monkeypatch):
    curve = builtin_curve("ellipse")
    default = tr.frenet_frame(curve)
    assert _same_bits(default.grid, sample_grid(curve))
    grids = []
    monkeypatch.setattr(tr, "sample_grid", lambda *a: grids.append(a) or sample_grid(*a))
    other = tr.frenet_frame(curve, sample_grid(curve, 97))
    assert tr.frenet_frame(curve) is default
    assert tr.frenet_frame(curve, other.grid) is not other  # a frame on a grid is not kept
    assert tr.frenet_frame(curve) is default
    assert grids == []  # the default grid is not built again
    # the kept frame, envelope and the detectors share the curve's default grid
    assert default.grid is sample_grid(curve)
    assert pk.envelope(pk.make_family("primitive", curve)).grid is default.grid
    for arr in (default.points, default.nu, default.grid, default.flags):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_invert_kernel_without_a_normal_flags_what_it_cannot_invert():
    pe = tr.pedal(builtin_curve("offset_circle", samples=64))
    points, flags = pe.points.copy(), pe.flags.copy()
    points[3] = 0.0  # the origin
    points[5] = 1e-10  # within ORIGIN_EPS of it
    points[7] = np.nan
    flags[11] = tr.FLAG_NEAR_SINGULAR
    flags[13] = tr.FLAG_UNDEFINED
    mc = dataclasses.replace(pe, points=points, flags=flags)
    out = tr.invert_kernel(mc, "inverted")
    assert out.nu is None and mc.nu is None
    inv = invert_xy(points)
    mask = mc.ok & np.isfinite(inv).all(axis=1)
    assert np.array_equal(out.ok, mask)
    assert not mask[[3, 5, 7, 11, 13]].any() and mask.sum() == 59
    assert out.flags[11] == tr.FLAG_NEAR_SINGULAR
    assert _same_bits(out.points[mask], inv[mask])


# ---------------------------------------------------------------------------
# frames and kernels run block by block against one-shot references:
# grids on each side of a block edge, closed and open


_EDGE_SAMPLES = (JET_BLOCK - 1, JET_BLOCK, JET_BLOCK + 1, 3 * JET_BLOCK + 5)

# the front, open, with its four cusps inside
_FRONT_ARC = parse_curve(
    "x = (30*cos(t) - 17*cos(3*t) + 3*cos(5*t))/32\n"
    "y = sin(t)*(23 + 4*cos(2*t) - 3*cos(4*t))/(16*sqrt(2))\n"
    "t_min = 0.3\nt_max = 5.5\nclosed = false")

# an open arc whose primitive has poles at t = -1 and t = 1, where the
# tangent line passes through the origin
_PARABOLA_ARC = parse_curve("x = t\ny = t^2 + 1\nt_min = -2\nt_max = 2\nclosed = false")


def _assert_mapped_equal_kernels_on_polyline_frames(mc):
    """mapped_* build their normal a block at a time inside the kernel's
    block loop; the bits are those of the kernel on polyline_frames."""
    poly = tr.polyline_frames(mc)
    name = mc.kind.name
    for out, want in ((tr.mapped_pedal(mc), tr.pedal_kernel(poly, f"pedal of {name}")),
                      (tr.mapped_primitive(mc), tr.primitive_kernel(
                          poly, f"primitive of {name}", refuse_origin=False)),
                      (tr.mapped_slant(mc, 0.7), tr.slant_kernel(
                          poly, 0.7, f"slant of {name}", refuse_origin=False))):
        assert out.kind == want.kind and out.closed == mc.closed and out.nu is None
        assert out.grid is mc.grid
        assert _same_bits(out.points, want.points), out.kind
        assert _same_bits(out.flags, want.flags), out.kind


def _assert_rows_are_slices(frame, whole):
    """Each block's `frame.rows` is a plain MappedCurve, the slice of
    whole bit for bit, that reads the frame's eps_d."""
    for block in row_blocks(len(frame.grid)):
        rows = frame.rows(block)
        assert type(rows) is tr.MappedCurve
        assert (rows.source_name, rows.kind, rows.closed) == (
            whole.source_name, whole.kind, whole.closed)
        for name in ("grid", "points", "flags", "nu"):
            assert _same_bits(getattr(rows, name), getattr(whole, name)[block]), name
        assert repr(rows.eps_d) == repr(frame.eps_d) == repr(whole.eps_d)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
@pytest.mark.parametrize("n", _EDGE_SAMPLES)
def test_blocked_frames_and_kernels_equal_one_shot_bitwise(n, closed):
    curve = builtin_curve("front") if closed else _FRONT_ARC
    grid = sample_grid(curve, n)
    frenet = tr.frenet_frame(curve, grid)
    p, d1 = _jets_xy(curve, grid, 1)
    assert _same_bits(frenet.points, p)
    assert _same_bits(frenet.nu, _one_shot_unit_normal(d1))

    # row k, in the last block, has |<g, nu>| = 0.75 eps_d of the frame;
    # the eps_d of the block's own points is smaller, so only the
    # frame's flags it near_singular
    k = n - 1 - (n - 1) % JET_BLOCK // 2
    den = 0.75 * _moved(frenet, k, 0.0).eps_d
    moved = _moved(frenet, k, den)
    block = slice(k - k % JET_BLOCK, k - k % JET_BLOCK + JET_BLOCK)
    if n > JET_BLOCK:
        assert tr.DENOM_REL_EPS * bbox_diameter(moved.points[block], moved.ok[block]) < den
    assert np.isnan(moved.nu).any() and moved.closed == closed

    pe = tr.pedal_kernel(moved)
    poly = tr.polyline_frames(pe)
    assert _same_bits(poly.nu, _one_shot_polyline_normal(pe))
    assert np.isfinite(poly.nu).any()

    for name, frame in (("frenet", frenet), ("moved", moved), ("polyline", poly)):
        for kind, out in _kernel_runs(frame):
            points, flags, normal = _ref_kernel(frame, kind, _VALUES.get(kind))
            assert _same_bits(out.points, points), (name, kind)
            assert _same_bits(out.flags, flags), (name, kind)
            assert out.nu is None or _same_bits(out.nu, normal), (name, kind)
            assert out.grid is frame.grid
    assert tr.antipedal_kernel(moved).flags[k] == tr.FLAG_NEAR_SINGULAR

    # the frames read by block; the moved frame's block at k has a smaller guard of its own
    lift = fr.lift_front(curve, grid)
    for frame, whole in ((frenet, frenet), (moved, moved), (lift, lift),
                         (tr._polyline(pe), poly)):
        _assert_rows_are_slices(frame, whole)

    other = builtin_curve("ellipse") if closed else _PARABOLA_ARC
    for mc in (pe, tr.primitive(other, sample_grid(other, n))):
        _assert_mapped_equal_kernels_on_polyline_frames(mc)


def test_origin_in_a_later_block_is_refused_at_its_first_sample():
    curve = parse_curve("x = t - 3\ny = t^2 - 9\nt_min = 0\nt_max = 4\n"
                        "closed = false\nsamples = 40001")
    frame = tr.frenet_frame(curve)
    n2 = dot_xy(frame.points, frame.points)
    hits = np.flatnonzero(n2 < ORIGIN_EPS * ORIGIN_EPS)
    assert JET_BLOCK <= hits[0] < 2 * JET_BLOCK
    with pytest.raises(OriginSingularity) as one_shot:
        tr._check_origin(frame.grid, n2, "the primitive transform")
    assert f"near t={frame.grid[hits[0]]:.6g}" in str(one_shot.value)
    with pytest.raises(OriginSingularity, match=f"^{re.escape(str(one_shot.value))}$"):
        tr.primitive_kernel(frame, normal=True)
    for kind in ("parallel", "slant", "perp-primitive"):
        want = str(one_shot.value).replace("primitive", kind, 1)
        with pytest.raises(OriginSingularity, match=f"^{re.escape(want)}$"):
            tr.apply_transform(curve, kind, angle=0.4, ratio=2.0)


def _traced_peak(run):
    """(peak traced bytes, result) of run()."""
    tracemalloc.start()
    try:
        out = run()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_kernels_run_in_bounded_memory():
    # one run over the whole 2^17-row frame peaks near 7 MB
    frame = tr.frenet_frame(builtin_curve("ellipse", samples=1 << 17))
    plain = dataclasses.replace(frame, nu=None)  # a sampled curve without a normal
    runs = [lambda kind=kind: tr.transform_frame(frame, kind, _VALUES.get(kind))
            for kind in tr.TRANSFORM_KINDS]  # the first with a denominator measures eps_d
    for run in runs + [lambda: tr.invert_kernel(plain, "inverted")]:
        peak, out = _traced_peak(run)
        assert out.nu is None and peak < 3.5e6, out.kind
    # an output normal is held too, but no more than the block's
    for run in (lambda: tr.primitive_kernel(frame, normal=True),
                lambda: tr.invert_kernel(frame, "inverted")):
        peak, out = _traced_peak(run)
        assert peak < out.points.nbytes + out.nu.nbytes + out.flags.nbytes + 1.5e6, out.kind


def test_frames_are_built_in_bounded_memory():
    # one build over the whole 2^17-row grid peaks 6.3 MB above what it keeps
    ell = builtin_curve("ellipse", samples=1 << 17)
    peak, frame = _traced_peak(lambda: tr.frenet_frame(ell))
    assert peak < sum(a.nbytes for a in (frame.grid, frame.points, frame.nu, frame.flags)) + 2e6
    pr = tr.primitive_kernel(frame)
    peak, poly = _traced_peak(lambda: tr.polyline_frames(pr))
    assert peak < poly.nu.nbytes + 2e6


def test_mapped_transforms_hold_no_whole_grid_normal():
    # with a whole-grid polyline normal, mapped_pedal peaked at 8.7 MB
    pr = tr.primitive(builtin_curve("ellipse", samples=1 << 18))
    for run in (lambda: tr.mapped_pedal(pr), lambda: tr.mapped_primitive(pr),
                lambda: tr.mapped_slant(pr, 0.7)):
        peak, out = _traced_peak(run)
        assert peak < out.points.nbytes + out.flags.nbytes + 2 * 2**20, out.kind
