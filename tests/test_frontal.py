import math
from dataclasses import replace

import numpy as np
import pytest

from pedalkit import curve as cv
from pedalkit import frontal as fl
from pedalkit import transforms as tr
from pedalkit.curve import REGULAR_EPS, builtin_curve, parse_curve, position_xy, velocity_xy
from pedalkit.vec import dot_xy, perp_xy
from pedalkit.errors import (HypothesisViolated, LiftFailure, OriginSingularity,
                             RangeError)

# parameters where the front's lifted normal changes sign convention
FRONT_FLIPS = (0.980185989137242, 2.1614066644525516,
               4.121778642727036, 5.302999318042343)

ASTROID = parse_curve("x = cos(t)^3\ny = sin(t)^3\nt_min = 0\nt_max = 2*pi")
# a cusp at t = 0, a sample of the grid
CUSP = parse_curve("x = t^2\ny = t^3\nt_min = -1\nt_max = 1\nclosed = false\nsamples = 33")


def test_lift_front_residual_and_seam():
    # an even number of cusps (none, or the four of the front and of the
    # astroid): the lifted normal comes back round the seam as +nu, twist
    # 1; an open arc has no seam and reads twist 1
    for curve in [builtin_curve(name) for name in ("circle", "ellipse", "front")] + [ASTROID]:
        lc = fl.lift_front(curve)
        assert fl.legendrian_residual(lc) < 1e-12
        assert lc.twist == 1
    assert fl.lift_front(CUSP).twist == 1


def test_astroid_lift_flips_in_the_closing_cell():
    # the cusp at sample 0 lies in the closing cell from the last sample
    # round to the first, and is listed at 0.0, in [t_min, t_max)
    lc = fl.lift_front(ASTROID)
    assert lc.grid[0] == 0.0 and not lc.frenet.regular[0]
    assert lc.flips[0] == 0.0
    np.testing.assert_allclose(lc.flips, np.arange(4) * math.pi / 2, rtol=0.0, atol=1e-15)
    i = np.flatnonzero(~lc.frenet.regular)
    np.testing.assert_array_equal(lc.grid[i], lc.flips)
    np.testing.assert_allclose(lc.ell_grid[i], -1.0, rtol=0.0, atol=1e-12)


def test_front_lift_flips_frozen():
    lc = fl.lift_front(builtin_curve("front"))
    np.testing.assert_allclose(lc.flips, FRONT_FLIPS, atol=1e-8)
    assert lc.grid[0] == 0.0
    nu0 = lc.nu[0]
    assert (nu0[0], nu0[1]) == (1.0, 0.0)


def test_the_lift_is_a_frame():
    """The lift is a MappedCurve that shares its Frenet grid's points, and
    every kernel gives on it the bits it gives on a frame of copies;
    views and derived frames of it are plain MappedCurves."""
    lc = fl.lift_front(builtin_curve("front"))
    assert isinstance(lc, tr.MappedCurve)
    assert np.shares_memory(lc.points, lc.frenet.p)
    assert lc.grid is lc.frenet.ts and lc.ok.all()
    copied = tr.MappedCurve(lc.source_name, lc.kind, lc.grid, lc.frenet.p.copy(),
                            lc.flags.copy(), lc.closed, lc.nu.copy())
    ops = [lambda f, k=kind, v=param and 0.4: tr.transform_frame(f, k, v)
           for kind, (_, param) in tr.TRANSFORMS.items()]
    ops += [fl.frontal_pedal, fl.frontal_antipedal, fl.frontal_primitive, fl.invert_frontal,
            lambda f: fl.frontal_parallel_primitivoid(f, 2.0),
            lambda f: fl.frontal_slant_primitivoid(f, 0.4)]
    for op in ops:
        got, want = op(lc), op(copied)
        assert type(got) is tr.MappedCurve
        for a, b in ((got.points, want.points), (got.flags, want.flags), (got.nu, want.nu)):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
    rows = lc.rows(slice(3, 9))
    for derived in (rows, replace(rows, nu=-rows.nu), tr.polyline_frames(lc)):
        assert type(derived) is tr.MappedCurve


def ternary_minima(curve, lo, hi):
    """Speed minima in the cells [lo, hi] by 60 steps of ternary search:
    the reference for the flip refinement."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    for _ in range(60):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        v1, v2 = velocity_xy(curve, m1), velocity_xy(curve, m2)
        left = np.hypot(v1[:, 0], v1[:, 1]) <= np.hypot(v2[:, 0], v2[:, 1])
        hi, lo = np.where(left, m2, hi), np.where(left, lo, m1)
    return 0.5 * (lo + hi)


def test_front_flips_match_the_ternary_reference_in_few_jet_walks(monkeypatch):
    front = builtin_curve("front", samples=2048)
    walks = []
    for module in (cv, fl):
        def counted(*args, _walk=module._jets_xy):
            walks.append(args[2])
            return _walk(*args)
        monkeypatch.setattr(module, "_jets_xy", counted)
    lc = fl.lift_front(front)
    monkeypatch.undo()
    assert len(walks) <= 12
    ts = lc.grid
    cell = np.searchsorted(ts, lc.flips)
    ref = ternary_minima(front, ts[cell - 1], ts[cell])
    assert len(ref) == 4
    np.testing.assert_allclose(lc.flips, ref, rtol=0.0, atol=1e-12)


def test_front_flips_on_a_negative_interval_take_few_jet_walks(monkeypatch):
    # the same front on [-2 pi, 0]: the refinement stops at 2 ulp of the
    # magnitude of each cell's larger end, np.spacing(t) being negative
    # for t < 0, so no cell is left unrefined
    front = builtin_curve("front", samples=2048)
    shifted = replace(front, t_min=-2 * math.pi, t_max=0.0)
    walks = []
    for module in (cv, fl):
        def counted(*args, _walk=module._jets_xy):
            walks.append(args[2])
            return _walk(*args)
        monkeypatch.setattr(module, "_jets_xy", counted)
    lc = fl.lift_front(shifted)
    monkeypatch.undo()
    assert len(walks) <= 12
    want = np.array(fl.lift_front(front).flips) - 2 * math.pi
    assert len(want) == 4
    np.testing.assert_allclose(lc.flips, want, rtol=0.0, atol=1e-12)


def test_flip_cells_without_a_bracket_take_the_slower_end():
    ellipse = builtin_curve("ellipse")
    # its speed rises over (0, pi/2) and falls over (pi/2, pi): <d1, d2>
    # keeps its sign on [0.3, 0.6] and falls through 0 on [1.4, 1.7], so
    # neither cell brackets a minimum; [pi - 0.2, pi + 0.1] does
    ts = np.array([0.3, 0.6, 1.4, 1.7, math.pi - 0.2, math.pi + 0.1])
    fg = cv.frenet_grid(ellipse, ts)
    f = dot_xy(fg.d1, fg.d2)
    assert f[0] > 0.0 and f[1] > 0.0
    assert f[2] > 0.0 > f[3]
    assert f[4] < 0.0 < f[5]
    i, j = np.array([0, 2, 4]), np.array([1, 3, 5])
    got = fl._refine_flips(ellipse, fg, i, j, ts[i], ts[j])
    # the end with the lower speed, |sin| being smaller at 1.4 than at 1.7
    assert fg.speed[2] < fg.speed[3]
    assert list(got[:2]) == [0.3, 1.4]
    assert abs(got[2] - math.pi) < 1e-14


def test_nu_continuous_across_flip():
    front = builtin_curve("front")
    flips = np.array(fl.lift_front(front).flips)
    d = 1e-5
    ts = np.sort(np.concatenate([cv.sample_grid(front), flips - d, flips + d]))
    lc = fl.lift_front(front, ts)
    nu = lc.nu
    for t0 in flips:
        i, j = np.searchsorted(ts, [t0 - d, t0 + d])
        assert (ts[i], ts[j]) == (t0 - d, t0 + d)
        assert nu[i] @ nu[j] > 0.999


def test_front_frame_curvatures_at_zero():
    front = builtin_curve("front")
    lc = fl.lift_front(front)
    assert lc.grid[0] == 0.0
    assert math.isclose(lc.ell_grid[0], -math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(lc.beta_grid[0], 3.0 * math.sqrt(2.0) / 4.0, rel_tol=1e-12)
    # singular parameters still carry frame data: a front, not just a frontal
    t0 = lc.flips[0]
    ts = np.sort(np.append(cv.sample_grid(front), t0))
    at = fl.lift_front(front, ts)
    i = np.searchsorted(ts, t0)
    assert ts[i] == t0 and not at.frenet.regular[i]
    assert math.hypot(at.ell_grid[i], at.beta_grid[i]) > REGULAR_EPS


def test_lift_failures():
    corner = parse_curve(
        "x = t\ny = abs(t)\nt_min = -1\nt_max = 1\nclosed = false\nsamples = 33")
    with pytest.raises(LiftFailure, match="non-finite derivatives"):
        fl.lift_front(corner)
    coarse = parse_curve(
        "x = cos(9*t)\ny = sin(9*t)\nt_min = 0\nt_max = 2*pi\nsamples = 16")
    with pytest.raises(LiftFailure, match="undersampled"):
        fl.lift_front(coarse)
    # d1 and d2 vanish at t = 0, a sample of the grid: the jets up to
    # order 3 do not give ell there (4/3 for the first curve), whether d3
    # gives the direction or vanishes too
    for xy in ("x = t^3\ny = t^4 + 1", "x = t^4\ny = t^5"):
        flat = parse_curve(f"{xy}\nt_min = -1\nt_max = 1\nclosed = false\nsamples = 33")
        with pytest.raises(LiftFailure, match="no direction data at t=0.0"):
            fl.lift_front(flat)


def test_circle_lift_pedal_and_antipedal_fixed():
    # unit circle about the origin: nu = -g, <g, nu> = -1, so both the
    # pedal and the antipedal give back the curve itself
    circle = builtin_curve("circle")
    lc = fl.lift_front(circle)
    g = position_xy(circle, lc.grid)
    for op in (fl.frontal_pedal, fl.frontal_antipedal):
        out = op(lc)
        assert out.ok.all()
        np.testing.assert_allclose(out.points, g, atol=1e-15)


def test_frontal_primitive_front_spot():
    pr = fl.frontal_primitive(fl.lift_front(builtin_curve("front")))
    assert tuple(pr.points[0]) == (0.5, 0.0)
    assert tuple(pr.nu[0]) == (1.0, 0.0)


def test_transforms_invariant_under_nu_sign():
    sf = fl.lift_front(builtin_curve("ellipse"))
    flipped = replace(sf, nu=-sf.nu)
    for op in (fl.frontal_pedal, fl.frontal_antipedal, fl.frontal_primitive,
               lambda s: fl.frontal_slant_primitivoid(s, 0.4)):
        a, b = op(sf), op(flipped)
        mask = a.ok & b.ok
        assert np.abs(a.points[mask] - b.points[mask]).max() < 1e-12


def test_parallel_primitivoid_scales_primitive():
    sf = fl.lift_front(builtin_curve("ellipse"))
    pr = fl.frontal_primitive(sf)
    pl = fl.frontal_parallel_primitivoid(sf, 2.0)
    np.testing.assert_array_equal(pl.points, 2.0 * pr.points)
    with pytest.raises(RangeError):
        fl.frontal_parallel_primitivoid(sf, 0.0)


def test_slant_degenerate_angle_collapses():
    sf = fl.lift_front(builtin_curve("ellipse"))
    out = fl.frontal_slant_primitivoid(sf, math.pi / 2)
    assert out.kind.degenerate_angle
    assert np.abs(out.points[out.ok]).max() == 0.0


def test_invert_frontal_involution_and_unit_normal():
    sf = fl.lift_front(builtin_curve("ellipse"))
    inv = fl.invert_frontal(sf)
    assert np.abs(np.hypot(*inv.nu.T) - 1.0).max() < 1e-12
    dbl = fl.invert_frontal(inv)
    np.testing.assert_allclose(dbl.points, sf.points, atol=1e-14)
    np.testing.assert_allclose(dbl.nu, sf.nu, atol=1e-14)


def test_frontal_primitive_rejects_origin():
    through = parse_curve(
        "x = 1 + cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*pi\nsamples = 64")
    sf = fl.lift_front(through)
    with pytest.raises(OriginSingularity):
        fl.frontal_primitive(sf)


def test_composition_adds_angles_on_circle_lift():
    sf = fl.lift_front(builtin_curve("circle"))
    for psi, phi in ((math.pi / 10, math.pi / 5), (0.3, -0.7)):
        assert fl.composition_check(sf, psi, phi) < 1e-12
    with pytest.raises(HypothesisViolated):
        fl.composition_check(sf, 0.3, math.pi / 2)


def test_general_composition_lands_on_primitive():
    # off-center frontals obey the law only after replacing the source
    # with its primitive on the single-slant side
    sf = fl.lift_front(builtin_curve("ellipse"))
    psi, phi = math.pi / 10, math.pi / 5
    two = fl.frontal_slant_primitivoid(fl.frontal_slant_primitivoid(sf, phi), psi)
    one = fl.frontal_slant_primitivoid(fl.frontal_primitive(sf), psi + phi)
    both = two.ok & one.ok
    lhs = math.cos(psi + phi) * two.points[both]
    rhs = math.cos(psi) * math.cos(phi) * one.points[both]
    scale = np.maximum(1.0, np.hypot(*rhs.T))
    assert (np.hypot(*(lhs - rhs).T) / scale).max() < 1e-12
    # and the literal angle-addition form fails off-center
    assert fl.composition_check(sf, psi, phi) > 1e-3


@pytest.mark.parametrize("name", ["ellipse", "offset_circle", "circle"])
def test_frenet_and_lifted_normal_paths_agree_bitwise(name):
    # On a regular curve the lifted normal is the Frenet normal up to a
    # sign that every transform ignores, so the two paths share one formula
    # and must agree to the bit.
    from pedalkit import transforms as tr
    curve = builtin_curve(name)
    sf = fl.lift_front(curve)
    pairs = (
        (tr.pedal(curve), fl.frontal_pedal(sf)),
        (tr.antipedal(curve), fl.frontal_antipedal(sf)),
        (tr.primitive(curve), fl.frontal_primitive(sf)),
        (tr.parallel_primitivoid(curve, 2.0), fl.frontal_parallel_primitivoid(sf, 2.0)),
        (tr.slant_primitivoid(curve, 0.4), fl.frontal_slant_primitivoid(sf, 0.4)),
    )
    for frenet_out, lifted_out in pairs:
        assert np.array_equal(frenet_out.points, lifted_out.points, equal_nan=True)
        assert np.array_equal(frenet_out.flags, lifted_out.flags)


@pytest.mark.parametrize("curve", [builtin_curve("front", samples=4099), CUSP],
                         ids=["front", "cusp"])
def test_lift_rows_match_broadcast_formulas_bitwise(curve):
    # nu = sigma raw, ell on regular rows from the quotient rule, and at
    # singular samples det(d2, d3) / (2 |d2|^2), each with its rows scaled
    # by s[:, None] broadcasts
    lc = fl.lift_front(curve)
    fg = lc.frenet
    raw = fl._raw_normals(fg)
    want_raw = np.full_like(raw, np.nan)
    for d in (fg.d2, fg.d1):  # the first of d1, d2 that is not zero
        norm = np.hypot(d[:, 0], d[:, 1])
        use = norm >= REGULAR_EPS
        want_raw[use] = np.column_stack([d[use, 1], -d[use, 0]]) / norm[use, None]
    assert raw.tobytes() == want_raw.tobytes()
    sigma = np.where(dot_xy(raw, lc.nu) < 0, -1.0, 1.0)
    assert lc.nu.tobytes() == (sigma[:, None] * raw).tobytes()
    d1, d2, speed = fg.d1, fg.d2, fg.speed
    mu = perp_xy(lc.nu)
    with np.errstate(all="ignore"):
        w = np.column_stack([d1[:, 1], -d1[:, 0]])
        wdot = np.column_stack([d2[:, 1], -d2[:, 0]])
        nudot = sigma[:, None] * (wdot * (speed ** 2)[:, None]
                                  - w * dot_xy(d1, d2)[:, None]) / (speed ** 3)[:, None]
    want = dot_xy(nudot, mu)
    assert fl._ell(sigma, d1, d2, speed, mu).tobytes() == want.tobytes()
    assert lc.ell_grid[fg.regular].tobytes() == want[fg.regular].tobytes()
    i = np.flatnonzero(~fg.regular)
    assert i.size == (not curve.closed)
    d2, d3 = fg.d2[i], fg.d3[i]
    want = (d2[:, 0] * d3[:, 1] - d2[:, 1] * d3[:, 0]) / (2.0 * (d2 * d2).sum(axis=1))
    assert lc.ell_grid[i].tobytes() == want.tobytes()
    assert np.abs(want - 1.5).max(initial=0.0) <= 1e-15  # ell(0) of the cusp; none on the front


@pytest.mark.parametrize("curve, ts, want", [
    # the cusp at 0 between samples 0.5 apart
    (CUSP, np.concatenate([np.linspace(-1.0, -0.5, 5), [0.0, 0.5, 1.0]]), 1.5),
    # steps pi/16 on [0, pi) and pi/64 on [pi, 2 pi), with the cusp at
    # sample 0 next to the seam and that at pi at the change of step;
    # ell is -1 at every cusp of the astroid
    (ASTROID, np.concatenate([np.arange(16) * math.pi / 16,
                              math.pi + np.arange(64) * math.pi / 64]), -1.0),
], ids=["open", "closed-seam"])
def test_ell_at_a_singular_sample_comes_from_the_jets(curve, ts, want):
    # the jets at the sample alone give ell: the grid's spacing and what
    # lies across the seam play no part
    lc = fl.lift_front(curve, ts)
    i = np.flatnonzero(~lc.frenet.regular)
    assert ts[i[0]] == 0.0
    np.testing.assert_allclose(lc.ell_grid[i], want, rtol=0.0, atol=1e-12)
