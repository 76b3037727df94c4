import collections
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from _stencils import ref_five_point_derivative, ref_shift, ref_stencil_ok

import pedalkit as pk
from pedalkit import expr as ex
from pedalkit import singularity as sg
from pedalkit import transforms as tr
from pedalkit.cli import main
from pedalkit.curve import (JET_BLOCK, _block_max, builtin_curve, format_curve,
                            parse_curve, position_xy, row_blocks, sample_grid)
from pedalkit.errors import HypothesisViolated, RangeError
from pedalkit import verify as vf
from pedalkit.vec import dot_xy, finite_xy, invert_xy, perp_xy, rotate_xy
from pedalkit.verify import (PLANE_POINTS, PLANE_SEED, STABLE_FRAC, SUITES, VerifyReport, _diff,
                             _fd_curvature_of_inverted, _plane_inversion_rows, _plane_points,
                             _uniform, run_suite, stable_mask)


@pytest.mark.parametrize("name", ["circle", "ellipse", "offset_circle", "front"])
def test_all_suites_pass_on_builtins(name):
    report = run_suite("all", builtin_curve(name))
    assert report.passed, report.format()
    assert len(report.results) > 30


def test_vertices_match_inversion_curvature_extrema_on_a_rotated_ellipse():
    # rotating about the origin moves no vertex; the extremum at t = 0 has
    # its sign change in the closing cell of the grid
    report = run_suite("singularity", tr.transform_curve(builtin_curve("ellipse"), 0.5, 1.0))
    row = {r.name: r for r in report.results}["vertices = extrema of inversion curvature"]
    assert row.passed, report.format()


# the ellipse with a vertex at the seam t_min ~ t_max of its grid: found
# near t_max by the vertex scan and near t_min by the extremum scan
SEAM_ELLIPSES = {
    "rotated": lambda: parse_curve(format_curve(
        tr.transform_curve(builtin_curve("ellipse"), 2.0, 1.0))),
    "reversed": lambda: parse_curve(
        "x = cos(-t)\ny = sin(-t)/sqrt(3.0)\nt_min = -2*pi\nt_max = 0\n"),
}
VERTEX_ROW = "vertices = extrema of inversion curvature"


@pytest.mark.parametrize("name", SEAM_ELLIPSES)
def test_vertices_match_across_the_seam_of_a_closed_curve(name):
    # sorted lists paired in order are off by pi/2 here; the roots are
    # matched on the circle of length period
    report = run_suite("singularity", SEAM_ELLIPSES[name]())
    row = {r.name: r for r in report.results}[VERTEX_ROW]
    assert row.residual < 1e-9, report.format()


@pytest.mark.parametrize("mutation", ["drop", "move"])
@pytest.mark.parametrize("name", SEAM_ELLIPSES)
def test_vertex_row_catches_a_dropped_or_moved_root_at_the_seam(monkeypatch, name, mutation):
    scan = sg._scan

    def mutated(curve, ts, field, values=None):
        roots = scan(curve, ts, field, values)
        if field is tr.inversion_curvature_rows:
            return roots
        roots = sorted(roots)
        if mutation == "drop":
            return roots[:-1]
        (t0, resid), h = roots[-1], ts[1] - ts[0]
        return roots[:-1] + [(t0 + 3 * h, resid)]

    monkeypatch.setattr(sg, "_scan", mutated)
    report = run_suite("singularity", SEAM_ELLIPSES[name]())
    row = {r.name: r for r in report.results}[VERTEX_ROW]
    assert not row.passed
    assert row.residual == (math.inf if mutation == "drop" else pytest.approx(3 * row.tolerance / 2))


@pytest.mark.parametrize("text", [
    "x = cos(t)\ny = sin(t)/sqrt(3)\nt_min = 0.3\nt_max = 5\nclosed = false",
    "x = t\ny = t^3 + 2\nt_min = -1\nt_max = 1\nclosed = false",
    "x = t\ny = t^2 + 1\nt_min = -1\nt_max = 1\nclosed = false",
], ids=["ellipse-arc", "cubic", "parabola"])
def test_frame_closure_on_open_arcs_uses_the_five_point_stencil(text):
    # the lift is exact, so the rows measure the difference stencil alone:
    # a second-order one leaves ~1e-6 at 4096 samples, the five-point one
    # stays near 1e-11
    report = run_suite("frontal", pk.parse_curve(text))
    rows = [r for r in report.results if r.name.startswith("frame closure")]
    assert len(rows) == 2
    assert all(r.residual < 1e-9 for r in rows), report.format()


def _grid_walks(monkeypatch, suite, curve):
    """Counter of the walks run_suite(suite, curve) makes over grids of
    1024 samples or more: ("jets", order, n) per jet walk, a position walk
    of both coordinates being one at order 0, and ("position", n) per
    coordinate that evaluate_array walks on its own."""
    walks = collections.Counter()
    jets, evaluate_array = ex.jets, ex.evaluate_array

    def counted_jets(exprs, t, order=ex.MAX_JET_ORDER, schedule=None):
        if np.size(t) >= 1024:
            walks["jets", order, np.size(t)] += 1
        return jets(exprs, t, order, schedule)

    def counted_evaluate_array(e, ts):
        if np.size(ts) >= 1024:
            walks["position", np.size(ts)] += 1
        return evaluate_array(e, ts)

    monkeypatch.setattr(ex, "jets", counted_jets)
    monkeypatch.setattr(ex, "evaluate_array", counted_evaluate_array)
    run_suite(suite, curve)
    return walks


def test_singularity_and_frontal_suites_walk_each_grid_once(monkeypatch):
    ellipse = builtin_curve("ellipse")
    # the Frenet grid alone: the finite-difference row reads its
    # positions, and the frame of the primitive its positions and normals
    assert _grid_walks(monkeypatch, "singularity", ellipse) == {("jets", 3, 4096): 1}
    # the lifts of the curve and of the 1024-sample circle, nothing more
    assert _grid_walks(monkeypatch, "frontal", ellipse) == {
        ("jets", 3, 4096): 1, ("jets", 3, 1024): 1}


def test_all_suites_build_the_default_frame_of_the_curve_once(monkeypatch):
    # duality, parallel, slant, oracle and the pedal-circle check share
    # the kept frame of the curve's own 1024-sample grid; of the
    # 4096-sample suites, only inverse-pair builds a frame, as singularity
    # reads its frame off its Frenet grid
    ellipse = builtin_curve("ellipse")
    builds = collections.Counter()
    jets_xy = tr._jets_xy

    def counted(curve, ts, order):
        if curve is ellipse:
            builds[len(ts)] += 1
        return jets_xy(curve, ts, order)

    monkeypatch.setattr(tr, "_jets_xy", counted)
    run_suite("all", ellipse)
    assert builds == {1024: 1, 4096: 1}


@pytest.mark.parametrize("curve", [
    builtin_curve("front"),
    parse_curve(format_curve(tr.invert_curve(builtin_curve("ellipse")))),
], ids=["front", "inv-ellipse"])
def test_lifted_points_are_the_sampled_curve_bitwise(curve):
    lc = pk.lift_front(curve)
    assert lc.points.tobytes() == position_xy(curve, lc.grid).tobytes()


# a deltoid with its three cusps between samples: its lifted normal comes
# back as -nu(t_min) round the seam, where the five-point stencils wrap
DELTOID = ('name = "deltoid"\nx = 3 + 2*cos(t+0.1) + cos(2*t+0.2)\n'
           'y = 2*sin(t+0.1) - sin(2*t+0.2)\nt_min = 0\nt_max = 2*pi\n')
FRAME_CLOSURE = ("frame closure nu' = ell mu", "frame closure mu' = -ell nu")


def test_frontal_suite_runs_on_an_anti_periodic_normal(tmp_path, capsys):
    deltoid = parse_curve(DELTOID)
    assert pk.lift_front(deltoid).twist == -1
    report = run_suite("frontal", deltoid)
    rows = {r.name: r for r in report.results}
    assert len(rows) == 11
    assert all(rows[name].residual <= 1e-6 for name in FRAME_CLOSURE), report.format()
    # the one row that fails is rounding near a pole of the inner slant
    # primitivoid against an absolute tolerance
    assert [r.name for r in report.results if not r.passed] == [
        "degenerate composition: both sides vanish"]
    path = tmp_path / "deltoid.curve"
    path.write_text(DELTOID)
    assert main(["verify", "--curve", str(path), "--suite", "frontal"]) == 1
    assert capsys.readouterr().err == ""
    # the front's four cusps bring its normal back to +nu(t_min)
    assert run_suite("frontal", builtin_curve("front")).passed


def test_frame_closure_rows_read_the_twist_of_the_lift(monkeypatch):
    # the same lift with its twist forced to +1 wraps the stencils with
    # the wrong sign, and both frame-closure rows fail
    lift_front = pk.lift_front

    def untwisted(*args):
        return dataclasses.replace(lift_front(*args), twist=1)
    monkeypatch.setattr(pk.frontal, "lift_front", untwisted)
    rows = {r.name: r for r in run_suite("frontal", parse_curve(DELTOID)).results}
    assert not any(rows[name].passed for name in FRAME_CLOSURE)


def _ref_detect_cusps_numeric(mc):
    """detect_cusps_numeric from whole-grid shifts, with the speeds whose
    median it takes."""
    h, p, closed = mc.grid[1] - mc.grid[0], mc.points, mc.closed
    window_ok = ref_stencil_ok(mc.ok & finite_xy(p), closed)
    with np.errstate(all="ignore"):
        central = (ref_shift(p, 1, closed) - ref_shift(p, -1, closed)) / (2.0 * h)
        speed = np.hypot(central[:, 0], central[:, 1])
        before = p - ref_shift(p, -2, closed)
        after = ref_shift(p, 2, closed) - p
        reversal = dot_xy(before, after) < 0.0
    median_speed = np.median(speed[window_ok])
    local_min = (speed < ref_shift(speed, 1, closed)) & (speed <= ref_shift(speed, -1, closed))
    hits = window_ok & local_min & (speed < sg.CUSP_SPEED_FRACTION * median_speed) & reversal
    return [float(mc.grid[i]) for i in np.flatnonzero(hits)], speed[window_ok]


def _ref_fd_curvature_of_inverted(p, h, closed):
    pts = invert_xy(p)
    back2, back1, ahead1, ahead2 = (ref_shift(pts, k, closed) for k in (-2, -1, 1, 2))
    with np.errstate(all="ignore"):
        d1 = ref_five_point_derivative(pts, h, closed)
        d2 = (-back2 + 16 * back1 - 30 * pts + 16 * ahead1 - ahead2) / (12 * h * h)
        speed = np.hypot(d1[:, 0], d1[:, 1])
        kappa = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
    kappa[~ref_stencil_ok(np.ones(len(p), dtype=bool), closed)] = np.nan
    return kappa


def _ref_frame_closure(lc):
    """The frame closure row nu' = ell mu of the frontal suite from
    whole-grid shifts."""
    nu, ell = lc.nu, lc.ell_grid
    nudot = ref_five_point_derivative(nu, lc.grid[1] - lc.grid[0], lc.closed, lc.twist)
    inner = ref_stencil_ok(np.ones(len(nu), dtype=bool), lc.closed)
    return _diff(nudot, lambda s: ell[s, None] * perp_xy(nu[s]), inner)


# the deltoid on its closed grid (twist -1) and an open arc of it
_STENCIL_CURVES = {"closed": DELTOID,
                   "open": DELTOID.replace("t_min = 0\nt_max = 2*pi",
                                           "t_min = 0.3\nt_max = 5\nclosed = false")}


@pytest.mark.parametrize("closed", ["closed", "open"])
@pytest.mark.parametrize("n", [4096, 3 * JET_BLOCK + 5])
def test_whole_grid_stencils_equal_the_shifted_formulas_bitwise(n, closed, monkeypatch):
    curve = parse_curve(_STENCIL_CURVES[closed] + f"samples = {n}\n")
    grid = sample_grid(curve, n)
    frame = tr.frenet_frame(curve, grid)
    medians = []
    monkeypatch.setattr(sg, "median", lambda x: medians.append(x.copy()) or np.median(x))
    found = []
    for mc in (frame, tr.primitive(curve, grid)):
        want, speeds = _ref_detect_cusps_numeric(mc)
        found.append(sg.detect_cusps_numeric(mc))
        assert found[-1] == want
        assert medians.pop().tobytes() == speeds.tobytes()
    assert len(found[0]) >= 2  # the deltoid's own cusps

    h = grid[1] - grid[0]
    fd = _fd_curvature_of_inverted(frame.points, h, curve.closed)
    assert fd.tobytes() == _ref_fd_curvature_of_inverted(frame.points, h, curve.closed).tobytes()

    lc = pk.lift_front(curve, grid)
    assert lc.twist == (-1 if curve.closed else 1)
    rows = {r.name: r.residual for r in run_suite("frontal", curve).results}
    assert np.float64(rows[FRAME_CLOSURE[0]]).tobytes() == np.float64(_ref_frame_closure(lc)).tobytes()


def test_frontal_suite_exits_3_where_d1_and_d2_vanish_on_the_grid(tmp_path, capsys):
    # x = t^3, y = t^4 + 1: t = 0 is sample 2048 of 4097, not one of 4096
    path = tmp_path / "flat-cusp.curve"
    path.write_text("x = t^3\ny = t^4 + 1\nt_min = -1\nt_max = 1\nclosed = false\n")
    argv = ["verify", "--curve", str(path), "--suite", "frontal", "--samples"]
    assert main(argv + ["4097"]) == 3
    assert "no direction data at t=0.0" in capsys.readouterr().err
    assert main(argv + ["4096"]) == 0


def test_suite_all_skips_the_frontal_suite_where_the_lift_fails(tmp_path, capsys):
    # the same curve and grid: the other suites' rows are printed, and the
    # frontal suite is skipped as one whose hypotheses do not hold
    path = tmp_path / "flat-cusp.curve"
    path.write_text("x = t^3\ny = t^4 + 1\nt_min = -1\nt_max = 1\nclosed = false\n")
    rc = main(["verify", "--curve", str(path), "--suite", "all", "--samples", "4097"])
    out = capsys.readouterr().out
    assert rc != 3
    assert "frontal suite skipped: hypotheses not met" in out
    assert "legendrian residual" not in out
    assert "envelope matches closed form" in out and "inversion is an involution" in out


def test_front_skips_singularity_suite_inside_all():
    report = run_suite("all", builtin_curve("front"))
    skipped = [r.name for r in report.results if "skipped" in r.name]
    assert skipped == ["singularity suite skipped: hypotheses not met"]


def test_singularity_suite_alone_raises_on_front():
    with pytest.raises(HypothesisViolated):
        run_suite("singularity", builtin_curve("front"))


def test_unknown_suite_rejected():
    with pytest.raises(RangeError):
        run_suite("everything", builtin_curve("circle"))


def test_report_format_shape():
    report = run_suite("inversion", builtin_curve("circle"))
    text = report.format()
    lines = text.splitlines()
    assert lines[0] == "suite 'inversion' on curve 'circle'"
    assert lines[-1] == "=> PASS"
    assert all("residual" in ln and "tol" in ln for ln in lines[1:-1])
    assert all(r.passed for r in report.results)


def test_report_fail_propagates():
    report = VerifyReport("demo", "none")
    report.add("good row", 1e-12, 1e-9)
    assert report.passed
    report.add("bad row", 1e-3, 1e-9)
    assert not report.passed
    assert report.format().splitlines()[-1] == "=> FAIL"


def test_suites_constant_drives_cli_choices():
    assert SUITES[-1] == "all"
    assert set(SUITES[:-1]) == {"inversion", "duality", "parallel", "slant",
                                "inverse-pair", "oracle", "singularity", "frontal"}


def test_stable_mask_drops_poles_and_their_neighbors():
    # primitive of offset_circle blows up at two parameters; the mask has
    # to remove those samples plus a two-sample buffer, keep the rest
    c = builtin_curve("offset_circle")
    pr = tr.primitive(c, sample_grid(c, 512))
    mask = stable_mask(pr)
    assert 0 < (~mask).sum() < 80
    pole_ts = pr.grid[~mask]
    dist = np.minimum(np.abs(pole_ts - 2 * math.pi / 3),
                      np.abs(pole_ts - 4 * math.pi / 3))
    assert dist.max() < 0.2
    # both poles are represented
    assert (pole_ts < math.pi).any() and (pole_ts > math.pi).any()


def test_stable_mask_keeps_smooth_output():
    c = builtin_curve("ellipse")
    pe = tr.pedal(c, sample_grid(c, 256))
    assert stable_mask(pe).all()


def _whole_grid_stable_mask(mc):
    """stable_mask from whole-grid shifts of the points at once."""
    good = mc.ok & np.isfinite(mc.points).all(axis=1)
    with np.errstate(all="ignore"):
        central = ref_shift(mc.points, 1, mc.closed) - ref_shift(mc.points, -1, mc.closed)
        speed = np.hypot(central[:, 0], central[:, 1])
    ref = np.median(speed[good]) if good.any() else 0.0
    slow = (~good | ~np.isfinite(speed)
            | (speed < STABLE_FRAC * ref) | (speed * STABLE_FRAC > ref))
    return good & ref_stencil_ok(~slow, mc.closed)


# the open arc's primitive has poles at t = -1 and t = 1
_STABLE_CURVES = {
    "closed": lambda: builtin_curve("offset_circle"),
    "open": lambda: parse_curve("x = t\ny = t^2 + 1\nt_min = -2\nt_max = 2\nclosed = false"),
}


@pytest.mark.parametrize("closed", ["closed", "open"])
@pytest.mark.parametrize("n", [JET_BLOCK - 1, JET_BLOCK + 1, 3 * JET_BLOCK + 5])
def test_stable_mask_equals_the_whole_grid_formula(n, closed):
    curve = _STABLE_CURVES[closed]()
    pr = tr.primitive(curve, sample_grid(curve, n))
    flags = pr.flags.copy()
    flags[5::97] = tr.FLAG_UNDEFINED  # some rows on each side of every block edge
    pr = dataclasses.replace(pr, flags=flags)
    mask = stable_mask(pr)
    want = _whole_grid_stable_mask(pr)
    assert mask.dtype == want.dtype and np.array_equal(mask, want)
    assert 0 < (~mask).sum() < n // 2


def test_stable_mask_runs_in_bounded_memory():
    # whole-grid shifts of the 2^18 points peaked at 10.25 MB
    pr = tr.primitive(builtin_curve("ellipse", samples=1 << 18))
    tracemalloc.start()
    try:
        mask = stable_mask(pr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.any() and peak < 7.5 * 2**20


def test_inversion_curvature_row_compares_absolutely_on_a_line_through_the_origin():
    # the inversion curvature is 0 on every row, so a floor relative to its
    # max is 0 and a relative residual would be 0 / 0
    diagonal = parse_curve("x = t\ny = t\nt_min = -1\nt_max = 1\nclosed = false")
    report = run_suite("singularity", diagonal)
    row = {r.name: r for r in report.results}["inversion curvature matches finite differences"]
    assert row.residual == 0.0 and report.passed, report.format()


def test_plane_inversion_rows_are_pinned():
    # the bits of the SplitMix64 plane points, drawn and inverted a block
    # at a time into buffers
    expected = (
        ("inversion is an involution (1e6 points)", 4.558345356976024e-16, 1e-12),
        ("inversion scales distances conformally", 1.7460426645736946e-15, 1e-09),
        ("perp twice negates", 0.0, 0.0),
        ("quarter turn equals perp", 1.1102230246251565e-16, 2.0917196848526337e-15),
        ("rotations add angles", 2.220446049250313e-16, 1e-12),
        ("scalar inversion involution", 0.0, 1e-12),
    )
    assert repr(_plane_inversion_rows()) == repr(expected)


def _splitmix64(seed, n):
    """The first n outputs of SplitMix64 (Steele, Lea & Flood 2014) in
    Python integers."""
    mask, out = (1 << 64) - 1, []
    for _ in range(n):
        seed = (seed + 0x9E3779B97F4A7C15) & mask
        z = ((seed ^ seed >> 30) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & mask
        out.append(z ^ z >> 31)
    return out


def test_plane_draws_are_splitmix64_and_any_slice_is_the_same_draws():
    want = [(z >> 11) * 2.0**-53 for z in _splitmix64(PLANE_SEED, 40)]
    assert _uniform(0, 40).tolist() == want
    draws = _uniform(0, 3 * JET_BLOCK + 7)
    for a, b in ((0, 1), (5, 17), (JET_BLOCK - 3, 2 * JET_BLOCK + 9), (3 * JET_BLOCK, len(draws))):
        assert np.array_equal(_uniform(a, b), draws[a:b])
    radii, pts = _plane_points(0, 3 * JET_BLOCK + 7)
    buf = np.full((JET_BLOCK + 12, 2), np.nan)
    r, p = _plane_points(JET_BLOCK - 5, 2 * JET_BLOCK + 7, buf)
    assert p is buf
    assert np.array_equal(r, radii[JET_BLOCK - 5:2 * JET_BLOCK + 7])
    assert np.array_equal(p, pts[JET_BLOCK - 5:2 * JET_BLOCK + 7])


def test_plane_points_span_their_ranges_and_pair_up_unevenly():
    radii, pts = _plane_points(0, PLANE_POINTS)
    log_r = np.log10(radii)
    angles = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
    # within 1e-5 of each range, at both ends
    assert -3 <= log_r.min() < -3 + 6e-5 and 3 - 6e-5 < log_r.max() < 3
    assert 0 <= angles.min() < 2 * math.pi * 1e-5
    assert 2 * math.pi * (1 - 1e-5) < angles.max() < 2 * math.pi
    assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), radii, rtol=1e-15, atol=0)
    # the conformal row's pairs (i, i + m): a lattice would give every pair
    # one radius ratio and one angle offset
    m = 10_000
    ratios = log_r[m:2 * m] - log_r[:m]
    assert ratios.std() > 1 and np.ptp(ratios) > 10
    offsets = (angles[m:2 * m] - angles[:m]) % (2 * math.pi)
    assert offsets.std() > 1


def _perturbed_y(pts, out=None):
    res = invert_xy(pts, out)
    res[..., 1] *= 1 + 1e-10
    return res


def _rotated(pts, out=None):
    res = invert_xy(pts, out)
    res[...] = rotate_xy(res, 1e-8)
    return res


@pytest.mark.parametrize("mutant", [_perturbed_y, _rotated], ids=["y-1e-10", "rotation-1e-8"])
def test_involution_row_catches_a_slightly_wrong_inversion(monkeypatch, mutant):
    monkeypatch.setattr(vf, "invert_xy", mutant)
    rows = {name: (residual, tol) for name, residual, tol in _plane_inversion_rows.__wrapped__()}
    residual, tol = rows["inversion is an involution (1e6 points)"]
    assert residual > 10 * tol


def test_verify_imports_no_numpy_random():
    code = ("import sys\n"
            "import pedalkit.cli\n"
            "assert pedalkit.cli.main(['verify', '--suite', 'all', '--curve', 'circle']) == 0\n"
            "print(sorted(m for m in ('numpy.random', 'secrets') if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pk.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_plane_inversion_rows_run_in_bounded_memory():
    # one draw of all 1e6 points peaks near 70 MB
    tracemalloc.start()
    try:
        _plane_inversion_rows.__wrapped__()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _one_shot_diff(a, b, mask, relative=False):
    """_diff on the whole grid at once."""
    if not mask.any():
        return math.inf
    d = a[mask] - b[mask]
    dist = np.hypot(d[:, 0], d[:, 1])
    if relative:
        dist = dist / np.maximum(1.0, np.hypot(b[mask][:, 0], b[mask][:, 1]))
    return float(dist.max())


def _diff_cases():
    """(a, b, mask) on a grid of three blocks and five rows."""
    n = 3 * JET_BLOCK + 5
    rng = np.random.default_rng(11)
    b = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    a = b + rng.normal(size=(n, 2)) * 1e-9
    full = np.ones(n, dtype=bool)
    holed = full.copy()
    holed[JET_BLOCK:2 * JET_BLOCK] = False  # one block with no sample
    yield a, b, full
    yield a, b, holed
    late = a.copy()
    late[-2] += 1e-3  # the worst sample, in the last partial block
    yield late, b, holed
    yield a, b, np.zeros(n, dtype=bool)


@pytest.mark.parametrize("relative", [False, True])
def test_blocked_diff_equals_one_shot(relative):
    for a, b, mask in _diff_cases():
        expected = _one_shot_diff(a, b, mask, relative)
        assert _diff(a, b, mask, relative) == expected
        # an operand may be built block by block instead
        assert _diff(a, lambda s: b[s], mask, relative) == expected
        assert _diff(lambda s: a[s], lambda s: b[s], mask, relative) == expected
    assert expected == math.inf


def _one_shot_max(values, mask):
    """_block_max of a per-sample residual array, on the whole grid at once."""
    return float(values[mask].max()) if mask.any() else math.inf


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_block_max_equals_the_one_shot_masked_max(blocks):
    n = blocks * JET_BLOCK
    rng = np.random.default_rng(blocks)
    values = rng.lognormal(size=n)
    values[-1] = 10.0 * values.max()  # the worst sample ends the grid
    calls = []

    def residual(block):
        calls.append(block)
        return values[block]

    full = np.ones(n, dtype=bool)
    sparse = rng.random(n) < 0.01
    holed = full.copy()
    holed[:JET_BLOCK] = False  # the first block compares no sample
    for mask in (full, sparse, holed, ~sparse):
        calls.clear()
        assert repr(_block_max(n, residual, mask)) == repr(_one_shot_max(values, mask))
        # a block that holds no row of mask is not computed
        assert calls == [block for block in row_blocks(n) if mask[block].any()]
    assert repr(_block_max(n, residual)) == repr(float(values.max()))
    # a residual of -inf leaves its row out
    assert repr(_block_max(n, lambda s: np.where(sparse[s], values[s], -np.inf))) == \
        repr(_one_shot_max(values, sparse))
    assert _block_max(n, lambda s: np.full(s.stop - s.start, -np.inf)) == math.inf

    # a nan on a compared row propagates, on a row left out it does not
    j = int(np.flatnonzero(sparse)[-1])
    values[j] = math.nan
    assert math.isnan(_block_max(n, residual, sparse))
    assert repr(_block_max(n, residual, sparse & (np.arange(n) != j))) == repr(
        _one_shot_max(values, sparse & (np.arange(n) != j)))
    # no compared row gives inf, without a residual computed
    calls.clear()
    assert _block_max(n, residual, np.zeros(n, dtype=bool)) == math.inf
    assert calls == []
