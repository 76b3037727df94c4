import contextlib
import math
import tracemalloc
from operator import attrgetter

import numpy as np
import pytest

from pedalkit import curve as curve_mod
from pedalkit import singularity as sg
from pedalkit import transforms as tr
from pedalkit.curve import (BUILTIN_NAMES, JET_BLOCK, bbox_diameter, builtin_curve,
                            frenet_grid, parse_curve, position_xy, row_blocks, sample_grid)
from pedalkit.errors import (HypothesisViolated, InflectionPoint,
                             OriginSingularity, RangeError)

CUBIC = parse_curve(
    "x = t\ny = t^3\nt_min = -1\nt_max = 1\nclosed = false\nsamples = 33")

# the four parameters where the ellipse's primitive has cusps
ELL_CUSP = math.atan(1 / math.sqrt(5))
ELL_CUSPS = (ELL_CUSP, math.pi - ELL_CUSP, math.pi + ELL_CUSP,
             2 * math.pi - ELL_CUSP)


# --- find_roots ------------------------------------------------------------

def test_find_roots_bisects_sign_changes():
    grid = np.linspace(0.0, 2.0, 9)
    roots = sg.find_roots(lambda t: t * t - 2.0, grid)
    assert len(roots) == 1
    t0, resid = roots[0]
    assert abs(t0 - math.sqrt(2.0)) < 1e-9
    assert resid <= 1e-10


def test_find_roots_sine_counts_exact_zero_at_left_end():
    # sin(0) is exactly 0.0; sin(pi) is only ~1.2e-16 and gets bisected
    grid = np.linspace(0.0, 2.0 * math.pi, 33)
    roots = sg.find_roots(np.sin, grid)
    assert len(roots) == 2
    assert roots[0] == (0.0, 0.0)
    assert abs(roots[1][0] - math.pi) < 1e-9
    assert roots[1][1] <= 1e-10


def test_find_roots_ignores_tangential_and_flat():
    grid = np.linspace(0.0, 2.0, 5)
    # touches zero at t=1 without crossing
    assert sg.find_roots(lambda t: (t - 1.0) ** 2, grid) == []
    assert sg.find_roots(np.zeros_like, grid) == []


def test_find_roots_zero_run_collapses_to_one_root():
    grid = np.arange(7.0)
    vals = np.array([-1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    roots = sg.find_roots(None, grid, values=vals)
    assert roots == [(2.0, 0.0)]
    # same run without a sign change is not a root
    vals2 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    assert sg.find_roots(None, grid, values=vals2) == []


def test_find_roots_accepts_precomputed_values():
    grid = np.linspace(0.0, 2.0, 9)
    f = lambda t: t - 1.1
    direct = sg.find_roots(f, grid)
    cached = sg.find_roots(f, grid, values=f(grid))
    assert direct == cached


def test_find_roots_skips_cells_with_a_nonfinite_end():
    grid = np.linspace(0.0, 1.0, 11)
    f = lambda t: t - 0.5
    vals = f(grid)
    vals[[3, 7]] = np.nan
    roots = sg.find_roots(f, grid, values=vals)
    assert [round(t, 12) for t, _ in roots] == [0.5]


def test_find_roots_skips_a_pole_where_the_function_is_undefined():
    # 1/(t - 0.55) changes sign across its pole; the midpoint of the
    # bracket hits the point where the function is undefined
    def f(t):
        with np.errstate(divide="ignore"):
            return np.where(t == 0.55, np.nan, 1.0 / (t - 0.55))
    grid = np.linspace(0.0, 1.1, 12)
    assert sg.find_roots(f, grid) == []


def test_find_roots_bisects_all_brackets_together():
    calls = []

    def f(t):
        calls.append(len(t))
        return np.sin(t)
    roots = sg.find_roots(f, np.linspace(0.0, 20.0, 201))
    np.testing.assert_allclose([t for t, _ in roots], np.pi * np.arange(7), atol=1e-9)
    assert len(calls) <= sg.ILLINOIS_MAX_STEPS + 2


# --- refine_brackets -------------------------------------------------------

def test_refine_brackets_keeps_a_root_whose_f_is_noise_next_to_an_end():
    # the ellipse traced backwards on [-2 pi, 0]: its vertex at the seam
    # lies in the closing cell [-h, 0], whose right end reads kappa' at
    # -2 pi, rounding noise; the root is kept, at 0 to within rounding
    rev = parse_curve("x = cos(-t)\ny = sin(-t)/sqrt(3.0)\nt_min = -2*pi\nt_max = 0\n")
    for ts in (None, sample_grid(rev, 40000)):
        reps = sg.vertices(rev, ts)
        np.testing.assert_allclose([r.t for r in reps], np.arange(-3, 1) * math.pi / 2,
                                   rtol=0.0, atol=1e-15)


def test_refine_brackets_rejects_a_pole():
    def f(t):
        return 1.0 / (t - 0.3)
    lo, hi = np.array([0.0, 0.25]), np.array([1.0, 0.5])
    roots, resids = sg.refine_brackets(f, lo, hi, f(lo), f(hi))
    assert np.isnan(roots).all() and np.isnan(resids).all()


def test_refine_brackets_gives_f_and_minus_f_the_same_bits():
    def f(t):
        return np.sin(3.0 * t) + 0.25 * t
    lo = np.array([0.9, 2.0, 3.1, -1.2])
    hi = np.array([1.2, 2.2, 3.3, 0.5])
    got = sg.refine_brackets(f, lo, hi, f(lo), f(hi))
    assert np.isfinite(got[0]).all()
    neg = sg.refine_brackets(lambda t: -f(t), lo, hi, -f(lo), -f(hi))
    for a, b in zip(got, neg):
        assert a.tobytes() == b.tobytes()


def test_refine_brackets_keeps_the_last_point_at_the_step_cap(monkeypatch):
    def f(t):
        return t * t - 2.0
    lo, hi = np.array([1.0]), np.array([2.0])
    root, resid = sg.refine_brackets(f, lo, hi, f(lo), f(hi))
    assert abs(root[0] - math.sqrt(2.0)) <= 2.0 * np.spacing(2.0)
    # two Illinois steps, 4/3 and then 7/5, leave the bracket open; the
    # last point is kept, its |f| = 0.04 being within |f| at the ends
    monkeypatch.setattr(sg, "ILLINOIS_MAX_STEPS", 2)
    root, resid = sg.refine_brackets(f, lo, hi, f(lo), f(hi))
    assert abs(root[0] - 1.4) < 1e-15
    assert resid[0] == abs(f(root)[0]) and abs(resid[0] - 0.04) < 1e-14


# two fields on the closed grid 0, 1, ..., 7 of period 8: one whose only
# sign change is in the closing cell [7, 8] (its zeros are 7.3 and 3.3,
# but it is undefined on [2.5, 4.5]), and one with runs of exact zeros,
# at 1..3 and at 6
CLOSED_FIELDS = {
    "closing-cell": lambda t: np.where(np.abs(t % 8.0 - 3.5) <= 1.0, np.nan,
                                       np.sin(np.pi * (t % 8.0 - 7.3) / 4.0)),
    "zero-runs": lambda t: np.interp(t % 8.0, [0, 1, 3, 5, 6, 8], [-1, 0, 0, 1, 0, -1]),
}


@pytest.mark.parametrize("name, expected", [("closing-cell", [7.3]), ("zero-runs", [2.0, 6.0])])
def test_find_roots_on_a_closed_grid_reads_only_signs(name, expected):
    f, grid = CLOSED_FIELDS[name], np.arange(8.0)
    roots = sg.find_roots(f, grid, period=8.0)
    np.testing.assert_allclose([t for t, _ in roots], expected, atol=1e-10)
    for values in (None, -f(grid)):
        assert repr(sg.find_roots(lambda t: -f(t), grid, values, period=8.0)) == repr(roots)
    if name == "closing-cell":
        assert sg.find_roots(f, grid) == []


def test_find_roots_copies_no_grid_for_the_closing_cell():
    # a copy of the grid and of its values would add 16 bytes per sample
    samples = 1 << 18
    curve = builtin_curve("ellipse")
    ts = sample_grid(curve, samples)
    values = -tr.inversion_curvature_grid(curve, ts)
    tracemalloc.start()
    try:
        roots = sg.find_roots(lambda t: -tr.inversion_curvature_grid(curve, t), ts,
                              values=values, period=curve.period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(roots) == 4
    assert peak < 24 * samples


# --- osculating circle -----------------------------------------------------

def test_osculating_circle_ellipse_apex():
    oc = sg.osculating_circle(builtin_curve("ellipse"), 0.0)
    np.testing.assert_allclose((oc.center[0], oc.center[1]), (2.0 / 3.0, 0.0),
                               rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(oc.radius, 1.0 / 3.0, rtol=1e-12)


def test_osculating_circle_rejects_inflection():
    with pytest.raises(InflectionPoint):
        sg.osculating_circle(CUBIC, 0.0)


def test_cusp_iff_osculating_circle_through_origin():
    ell = builtin_curve("ellipse")
    assert sg.classify_cusp(ell, ELL_CUSP).circle_witness < 1e-12
    assert sg.classify_cusp(ell, 1.0).circle_witness > 0.1


# --- criterion -------------------------------------------------------------

def test_criterion_is_negated_inversion_curvature():
    ell = builtin_curve("ellipse")
    for t in (0.0, 0.3, 1.0, 2.2, 5.0):
        assert sg.criterion(ell, t) == -tr.inversion_curvature_grid(ell, [t])[0]


def test_criterion_grid_matches_scalar():
    ell = builtin_curve("ellipse")
    ts = sample_grid(ell, 32)
    grid_vals = -tr.inversion_curvature_grid(ell, ts)
    np.testing.assert_allclose(grid_vals, [sg.criterion(ell, t) for t in ts],
                               rtol=1e-12, atol=1e-12)


# --- detection and classification ------------------------------------------

def test_ellipse_primitive_cusps():
    reps = sg.primitive_singularities(builtin_curve("ellipse"))
    assert len(reps) == 4
    for rep, expect in zip(reps, ELL_CUSPS):
        assert rep.kind == "primitive-cusp"
        assert abs(rep.t - expect) < 1e-9
        assert rep.residual <= 1e-10
        assert rep.classification == "ordinary-cusp"


def test_primitive_singularities_keep_no_frame_on_the_curve():
    curve = builtin_curve("ellipse")
    assert len(sg.primitive_singularities(curve)) == 4
    assert tr.kept_frame(curve) is None


@pytest.mark.parametrize("name, samples", [(name, n) for name in BUILTIN_NAMES
                                           for n in (1024, 40000)]
                         + [("inv(ellipse)", None), ("sine", None)])
def test_the_default_cusp_guard_is_that_of_the_frenet_frame(monkeypatch, name, samples):
    # classify_cusp reads the guard of the curve's kept frame, measured
    # once over two calls, with the bits of the positions on the sample grid
    if name == "inv(ellipse)":
        curve = tr.invert_curve(builtin_curve("ellipse"))
    elif name == "sine":
        curve = SCAN_CURVES["sine"]()
    else:
        curve = builtin_curve(name, samples=samples)
    diameters, guards = [], []

    def measured(points, mask=None):
        diameters.append(bbox_diameter(points, mask))
        return diameters[-1]

    classify = sg.classify_cusps
    monkeypatch.setattr(tr, "bbox_diameter", measured)
    monkeypatch.setattr(sg, "classify_cusps",
                        lambda c, t, eps_d: guards.append(eps_d) or classify(c, t, eps_d))
    for t0 in (0.5 * (curve.t_min + curve.t_max), 0.7 * curve.t_min + 0.3 * curve.t_max):
        with contextlib.suppress(HypothesisViolated):
            sg.classify_cusp(curve, t0)
    assert tr.kept_frame(curve) is not None
    assert len(diameters) == 1 and len(guards) == 2
    positions = position_xy(curve, sample_grid(curve))
    assert (repr(guards) == repr([tr.kept_frame(curve).eps_d] * 2)
            == repr([tr.DENOM_REL_EPS * bbox_diameter(positions)] * 2))


@pytest.mark.parametrize("samples, explicit", [(1024, None), (40000, None), (1024, 97)])
def test_primitive_singularities_walk_their_grid_once(monkeypatch, samples, explicit):
    # the cusp guard comes from the positions of the scanned grid, by
    # default the sample grid, with no second walk of the curve
    curve = builtin_curve("ellipse", samples=samples)
    ts = None if explicit is None else sample_grid(curve, explicit)
    rows, guards, orders = [], [], []
    walk, classify, jets = sg.frenet_grid, sg.classify_cusps, curve_mod._jets_xy
    monkeypatch.setattr(sg, "frenet_grid", lambda c, t: rows.append(len(t)) or walk(c, t))
    monkeypatch.setattr(curve_mod, "_jets_xy",
                        lambda c, t, order: orders.append(order) or jets(c, t, order))
    monkeypatch.setattr(sg, "classify_cusps",
                        lambda c, t, eps_d: guards.append(eps_d) or classify(c, t, eps_d))
    assert [r.classification for r in sg.primitive_singularities(curve, ts)] == [
        "ordinary-cusp"] * 4
    assert orders and 0 not in orders  # no position walk
    blocks = [b.stop - b.start for b in row_blocks(explicit or samples)]
    assert rows[:len(blocks)] == blocks and max(rows[len(blocks):]) <= 4  # then bisection
    assert repr(guards) == repr([tr.frenet_frame(curve, ts).eps_d])


def test_circle_primitive_has_no_cusps():
    assert sg.primitive_singularities(builtin_curve("circle")) == []


def test_primitive_cusps_refuse_a_curve_through_the_origin():
    # on a circle through the origin the criterion vanishes identically,
    # so a sign scan would report rounding noise as cusps
    through = parse_curve(
        "x = 1 + cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*pi\nsamples = 64")
    with pytest.raises(OriginSingularity):
        sg.primitive_singularities(through)


def test_ellipse_vertices_at_axes():
    reps = sg.vertices(builtin_curve("ellipse"))
    assert [r.kind for r in reps] == ["vertex"] * 4
    np.testing.assert_allclose([r.t for r in reps],
                               [0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
                               atol=1e-8)


def test_detectors_scan_the_closing_cell_of_a_grid_that_skips_t_min():
    # on sample_grid(curve)[5:] the closing cell runs from the last sample
    # to grid[0] + 2 pi, past t_max: the vertex at t_min is found there and
    # listed at t_min, first, as lift_front lists its flips in [t_min, t_max)
    ellipse = builtin_curve("ellipse")
    reps = sg.vertices(ellipse, sample_grid(ellipse)[5:])
    assert reps[0].t == 0.0
    np.testing.assert_allclose([r.t for r in reps], np.arange(4) * math.pi / 2,
                               rtol=0.0, atol=1e-8)
    # the ellipse run from t = s has its primitive cusps at ELL_CUSPS - s,
    # one of them at 0.01, before grid[0]: found past t_max, listed at
    # 0.01, and classified
    s = ELL_CUSP - 0.01
    shifted = parse_curve(f"x = cos(t + {s!r})\ny = sin(t + {s!r})/sqrt(3)\n"
                          "t_min = 0\nt_max = 2*pi")
    grid = sample_grid(shifted)[5:]
    assert grid[0] > 0.01
    reps = sg.primitive_singularities(shifted, grid)
    want = sorted(t - s for t in ELL_CUSPS)
    assert abs(want[0] - 0.01) < 1e-15
    np.testing.assert_allclose([r.t for r in reps], want, rtol=0.0, atol=1e-8)
    assert [r.classification for r in reps] == ["ordinary-cusp"] * 4


def test_cubic_inflection_found_exactly():
    reps = sg.inflections(CUBIC)
    assert len(reps) == 1
    assert reps[0].t == 0.0
    assert reps[0].residual == 0.0
    assert sg.inflections(builtin_curve("ellipse")) == []


def test_classify_cusp_labels():
    ell = builtin_curve("ellipse")
    cls = sg.classify_cusp(ell, ELL_CUSP)
    assert cls.label == "ordinary-cusp"
    assert abs(cls.criterion) <= 1e-8
    assert abs(cls.kappa_prime_arc) > 1.0
    assert cls.circle_witness < 1e-12
    assert sg.classify_cusp(ell, 1.0).label == "not-singular"


def test_classify_cusp_needs_defined_primitive():
    flat = parse_curve(
        "x = t + 2\ny = 0\nt_min = 0\nt_max = 1\nclosed = false\nsamples = 16")
    with pytest.raises(HypothesisViolated, match="primitive is undefined"):
        sg.classify_cusp(flat, 0.5)


# --- the blocked scan ------------------------------------------------------

SCAN_CURVES = {
    "ellipse": lambda: builtin_curve("ellipse"),
    "front": lambda: builtin_curve("front"),
    "parabola": lambda: parse_curve(
        "x = t\ny = t^2 + 1\nt_min = -1\nt_max = 1\nclosed = false\n"),
    # an open arc with roots of all three fields: 2 vertices, 1
    # inflection, 3 cusps of the primitive
    "sine": lambda: parse_curve(
        "x = t\ny = sin(t) + 0.5\nt_min = 0.3\nt_max = 6\nclosed = false\n"),
}
# part of one jet block, two whole blocks, two and part of a third, three
SCAN_SAMPLES = (4096, 32768, 40000, 49152)


def _whole_grid_reports(curve, ts):
    """(kind, root, residual, label) of the three detectors from one
    whole-grid FrenetGrid, the reference of the blocked scan: every root
    scan reads its values, and the cusps are classified at the guard
    scale of its points."""
    fg = frenet_grid(curve, ts)

    def roots(field):
        return sg.find_roots(lambda t: field(frenet_grid(curve, t)), ts,
                             values=field(fg), period=curve.period)

    cusps = roots(lambda g: -tr.inversion_curvature_rows(g))
    eps_d = tr.DENOM_REL_EPS * bbox_diameter(fg.p)
    classes = sg.classify_cusps(curve, [t for t, _ in cusps], eps_d) if cusps else []
    return ([("vertex", t, r, None) for t, r in roots(attrgetter("kappa_prime_arc"))]
            + [("inflection", t, r, None) for t, r in roots(attrgetter("kappa"))]
            + [("primitive-cusp", t, r, c.label) for (t, r), c in zip(cusps, classes)])


@pytest.mark.parametrize("samples", SCAN_SAMPLES)
@pytest.mark.parametrize("name", SCAN_CURVES)
def test_detectors_match_the_whole_grid_scan_bitwise(name, samples):
    curve = SCAN_CURVES[name]()
    ts = sample_grid(curve, samples)
    reports = sg.vertices(curve, ts) + sg.inflections(curve, ts) \
        + sg.primitive_singularities(curve, ts)
    got = [(r.kind, r.t, r.residual, r.classification) for r in reports]
    assert repr(got) == repr(_whole_grid_reports(curve, ts))


@pytest.mark.parametrize("samples", SCAN_SAMPLES)
@pytest.mark.parametrize("name", SCAN_CURVES)
def test_find_roots_evaluates_the_grid_one_block_at_a_time(name, samples):
    curve = SCAN_CURVES[name]()
    ts = sample_grid(curve, samples)
    sizes = []

    def criterion(t):
        sizes.append(len(t))
        return -tr.inversion_curvature_grid(curve, t)

    whole = sg.find_roots(criterion, ts, values=criterion(ts), period=curve.period)
    del sizes[:]
    assert repr(sg.find_roots(criterion, ts, period=curve.period)) == repr(whole)
    # the grid, one row_blocks slice per call, then the bisection steps
    blocks = [b.stop - b.start for b in row_blocks(samples)]
    assert sizes[:len(blocks)] == blocks
    assert max(sizes) <= JET_BLOCK
    # the scan reads |f| and signs only: the negated field, the
    # inversion curvature that the cusp scan reads, has the same roots
    assert repr(sg.find_roots(lambda t: -criterion(t), ts, period=curve.period)) \
        == repr(whole)


@pytest.mark.parametrize("name", ["ellipse", "front"])
def test_detectors_hold_no_whole_grid_frenet_data(name):
    # a whole-grid FrenetGrid holds 161 bytes per sample; the blocked
    # scan keeps the grid, the field on it and the cells of find_roots
    samples = 1 << 18
    curve = builtin_curve(name, samples=samples)
    for detect in (sg.vertices, sg.inflections, sg.primitive_singularities):
        tracemalloc.start()
        try:
            detect(curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * samples, detect.__name__


def test_detect_cusps_numeric_sees_primitive_cusps():
    ell = builtin_curve("ellipse")
    pr = tr.primitive(ell, sample_grid(ell, 4096))
    hits = sg.detect_cusps_numeric(pr)
    assert len(hits) == 4
    np.testing.assert_allclose(hits, ELL_CUSPS, atol=1e-3)
    # a smooth image has none
    assert sg.detect_cusps_numeric(tr.pedal(ell, sample_grid(ell, 4096))) == []


def test_detect_cusps_numeric_needs_enough_samples():
    ell = builtin_curve("ellipse")
    with pytest.raises(RangeError):
        sg.detect_cusps_numeric(tr.primitive(ell, sample_grid(ell, 512)))
