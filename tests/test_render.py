import io
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pedalkit import figures as fig
from pedalkit import render as rd
from pedalkit import transforms as tr
from pedalkit.curve import builtin_curve, position_xy, sample_grid
from pedalkit.envelope import make_family
from pedalkit.errors import RangeError
from pedalkit.frontal import lift_front
from pedalkit.transforms import (FLAG_NAMES, FLAG_NEAR_SINGULAR, FLAG_OK,
                                 MappedCurve, TransformKind)


def square_overlay():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return rd.Overlay((pts,), "square", "#000000")


def test_viewbox_and_stroke_conventions():
    svg = rd.render_svg(rd.PlotSpec([square_overlay()]))
    # 5% margin on each side of the unit square, y axis flipped
    assert 'viewBox="-0.05 -1.05 1.1 1.1"' in svg
    stroke = 0.005 * math.hypot(1.1, 1.1)
    assert f'stroke-width="{stroke:.8g}"' in svg


def test_render_is_deterministic(tmp_path):
    spec = fig.figure_spec(2)
    assert rd.render_svg(spec) == rd.render_svg(fig.figure_spec(2))
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    rd.render_to_file(spec, str(p1))
    rd.render_to_file(fig.figure_spec(2), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_render_rejects_empty():
    with pytest.raises(RangeError):
        rd.render_svg(rd.PlotSpec([]))
    with pytest.raises(RangeError):  # overlays without a segment
        rd.render_svg(rd.PlotSpec([rd.Overlay((), "none", "#000000")]))


def stacked_viewbox(spec):
    """The viewBox attribute from the min and max of all overlay points
    stacked into one array."""
    pts = np.vstack([seg for ov in spec.overlays for seg in ov.segments])
    (xmin, ymin), (xmax, ymax) = pts.min(axis=0), pts.max(axis=0)
    pad_x = 0.05 * (xmax - xmin) if xmax > xmin else 0.5
    pad_y = 0.05 * (ymax - ymin) if ymax > ymin else 0.5
    x0, x1, y0, y1 = xmin - pad_x, xmax + pad_x, ymin - pad_y, ymax + pad_y
    return f'viewBox="{x0:.8g} {-y1:.8g} {x1 - x0:.8g} {y1 - y0:.8g}"'


def test_viewbox_is_the_extent_of_all_points_stacked():
    c = builtin_curve("front")
    pr = tr.primitive(c, sample_grid(c, 2000))
    flags = pr.flags.copy()
    flags[[300, 301, 1200]] = FLAG_NEAR_SINGULAR
    split = rd.overlay_from_mapped(MappedCurve(pr.source_name, pr.kind, pr.grid, pr.points,
                                               flags, True))
    assert len(split.segments) == 2
    closed = rd.overlay_from_mapped(tr.pedal(builtin_curve("ellipse")), color=rd.PALETTE[1])
    assert closed.closed and len(closed.segments) == 1
    pair = rd.Overlay((np.array([[-3.25, 7.0], [1e-3, -2.5]]),), "pair", "#000000")
    for overlays in ([split], [closed], [pair], [split, closed, pair]):
        spec = rd.PlotSpec(overlays)
        assert stacked_viewbox(spec) in rd.render_svg(spec)


def test_failed_render_leaves_the_target_file_alone(tmp_path):
    path = tmp_path / "keep.svg"
    path.write_bytes(b"earlier plot")
    with pytest.raises(RangeError):
        rd.render_to_file(rd.PlotSpec([]), str(path))
    assert path.read_bytes() == b"earlier plot"


def test_segments_split_at_flagged_samples():
    grid = np.linspace(0.0, 1.0, 6)
    pts = np.column_stack([grid, grid ** 2])
    flags = np.zeros(6, dtype=np.uint8)
    flags[3] = FLAG_NEAR_SINGULAR
    mc = MappedCurve("demo", TransformKind("demo"), grid, pts, flags, False)
    ov = rd.overlay_from_mapped(mc)
    assert len(ov.segments) == 2
    assert len(ov.segments[0]) == 3 and len(ov.segments[1]) == 2


def test_closed_segments_wrap_and_close():
    c = builtin_curve("circle")
    ts = sample_grid(c, 32)
    pe = tr.pedal(c, ts)
    ov = rd.overlay_from_mapped(pe)
    assert len(ov.segments) == 1 and ov.closed
    # the segment is the curve itself; the polyline closes the loop by
    # repeating the first point
    assert np.shares_memory(ov.segments[0], pe.points)
    polyline = rd.render_svg(rd.PlotSpec([ov])).split('points="')[1].split('"')[0]
    points = polyline.split(" ")
    assert len(points) == 33
    assert points[0] == points[-1]

    # a hole across the seam merges the two boundary runs
    flags = pe.flags.copy()
    flags[16] = FLAG_NEAR_SINGULAR
    holed = MappedCurve(pe.source_name, pe.kind, pe.grid, pe.points, flags, True)
    ov2 = rd.overlay_from_mapped(holed)
    assert len(ov2.segments) == 1 and not ov2.closed
    assert len(ov2.segments[0]) == 31


def test_source_overlay_reads_the_kept_frame():
    c = builtin_curve("ellipse", samples=4096)
    assert tr.kept_frame(c) is None
    walked = rd.overlay_from_curve(c)
    assert tr.kept_frame(c) is None  # no frame is built for the overlay
    frame = tr.frenet_frame(c)
    assert tr.kept_frame(c) is frame
    ov = rd.overlay_from_curve(c)
    assert np.shares_memory(ov.segments[0], frame.points)
    want = position_xy(c, sample_grid(c))
    for pts in (walked.segments[0], ov.segments[0]):
        assert np.array_equal(pts.view(np.uint64), want.view(np.uint64))  # bitwise


def test_source_overlay_below_the_plot_samples_walks_its_own_grid():
    c = builtin_curve("ellipse", samples=256)
    tr.frenet_frame(c)
    ov = rd.overlay_from_curve(c)
    assert len(ov.segments[0]) == rd.MIN_PLOT_SAMPLES
    want = position_xy(c, sample_grid(c, rd.MIN_PLOT_SAMPLES))
    assert np.array_equal(ov.segments[0].view(np.uint64), want.view(np.uint64))


def test_mapped_csv_round_trips_doubles():
    c = builtin_curve("ellipse")
    mc = tr.primitive(c, sample_grid(c, 16))
    buf = io.StringIO()
    rd.write_mapped_csv(mc, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x,y,flag"
    assert len(lines) == 17
    for i, ln in enumerate(lines[1:]):
        t, x, y, flag = ln.split(",")
        assert float(t) == mc.grid[i]
        assert float(x) == mc.points[i, 0]
        assert float(y) == mc.points[i, 1]
        assert flag == "ok"


def test_legendrian_csv_header():
    from pedalkit.frontal import lift_front
    lc = lift_front(builtin_curve("circle"))
    buf = io.StringIO()
    rd.write_legendrian_csv(lc, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x,y,nu_x,nu_y,ell,beta,flag"
    assert len(lines) == len(lc.grid) + 1


def test_figure_catalog():
    assert fig.FIGURE_NUMBERS == tuple(range(1, 11))
    for bad in (0, 11, -3):
        with pytest.raises(RangeError):
            fig.figure_spec(bad)


def test_sheaf_figure_has_five_labeled_groups():
    svg = rd.render_svg(fig.figure_spec(6))
    assert svg.count("<g data-label") == 5


def test_family_figure_draws_lines():
    svg = rd.render_svg(fig.figure_spec(10))
    assert 'data-label="family-lines"' in svg
    assert svg.count("<line ") > 30


def test_clip_line_to_box():
    seg = rd._clip_line_to_box((1.0, 0.0), 0.5, (0.0, 1.0, -2.0, 3.0))
    (px, py), (qx, qy) = seg
    assert px == qx == 0.5
    assert {py, qy} == {-2.0, 3.0}
    assert rd._clip_line_to_box((1.0, 0.0), 5.0, (0.0, 1.0, 0.0, 1.0)) is None


# ---------------------------------------------------------------------------
# Row-at-a-time reference writers.  The writers format blocks of rows at
# once; these format one numpy scalar at a time with f-strings, and the
# two must agree byte for byte, across block edges too.

EDGE_VALUES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e-300)


def ref_mapped_csv(mc):
    out = ["t,x,y,flag\n"]
    for t, (x, y), flag in zip(mc.grid, mc.points, mc.flags):
        out.append(f"{t:.17g},{x:.17g},{y:.17g},{FLAG_NAMES[flag]}\n")
    return "".join(out)


def ref_legendrian_csv(lc, curve):
    pts = position_xy(curve, lc.grid)
    out = ["t,x,y,nu_x,nu_y,ell,beta,flag\n"]
    for i, t in enumerate(lc.grid):
        out.append(f"{t:.17g},{pts[i, 0]:.17g},{pts[i, 1]:.17g},"
                   f"{lc.nu[i, 0]:.17g},{lc.nu[i, 1]:.17g},"
                   f"{lc.ell_grid[i]:.17g},{lc.beta_grid[i]:.17g},ok\n")
    return "".join(out)


def ref_polyline(seg):
    coords = " ".join(f"{x:.8g},{-y:.8g}" for x, y in seg)
    return f'<polyline points="{coords}"/>'


def edge_column(rng, n, specials=EDGE_VALUES):
    """Doubles of every magnitude, a third of them replaced by specials."""
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return np.where(rng.random(n) < 1 / 3, rng.choice(np.array(specials), n), values)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193])
def test_mapped_csv_matches_row_reference(n):
    rng = np.random.default_rng(n)
    grid = edge_column(rng, n)
    grid[:len(EDGE_VALUES)] = EDGE_VALUES[:n]
    pts = np.column_stack([edge_column(rng, n), edge_column(rng, n)])
    flags = (np.arange(n) % len(FLAG_NAMES)).astype(np.uint8)
    mc = MappedCurve("demo", TransformKind("demo"), grid, pts, flags, False)
    buf = io.StringIO()
    rd.write_mapped_csv(mc, buf)
    assert buf.getvalue() == ref_mapped_csv(mc)


def test_legendrian_csv_matches_row_reference():
    front = builtin_curve("front", samples=8193)
    lc = lift_front(front)
    assert len(lc.grid) == 8193
    buf = io.StringIO()
    rd.write_legendrian_csv(lc, buf)
    assert buf.getvalue() == ref_legendrian_csv(lc, front)


def test_svg_polylines_match_row_reference():
    rng = np.random.default_rng(7)
    finite = tuple(v for v in EDGE_VALUES if math.isfinite(v))
    segs = tuple(np.column_stack([edge_column(rng, n, finite), edge_column(rng, n, finite)])
                 for n in (4095, 4096, 4097))
    lines = rd.render_svg(rd.PlotSpec([rd.Overlay(segs, "edges", "#000000")])).split("\n")
    assert lines[2].startswith('<g data-label="edges"')
    assert lines[3:-3] == [ref_polyline(seg) for seg in segs]
    assert lines[-3:] == ["</g>", "</svg>", ""]


def ellipse_with_family_lines():
    c = builtin_curve("ellipse")
    overlays = [rd.overlay_from_curve(c), rd.overlay_from_mapped(tr.primitive(c, sample_grid(c)))]
    return rd.PlotSpec(overlays, family=make_family("primitive", c), family_count=64)


@pytest.mark.parametrize("number", fig.FIGURE_NUMBERS + (None,))
def test_render_to_file_writes_render_svg(tmp_path, number):
    spec = ellipse_with_family_lines() if number is None else fig.figure_spec(number)
    path = tmp_path / "out.svg"
    rd.render_to_file(spec, str(path))
    assert path.read_bytes() == rd.render_svg(spec).encode("utf-8")


# ---------------------------------------------------------------------------
# The numpy '%.Pg' formatter behind the three writers, against Python's '%'.

def formatted(values, P):
    """The formatter's text of values, one per row, and '%.{P}g' of each."""
    values = np.asarray(values, dtype=np.float64)
    got = rd._format_rows((values,), P, ("",), b"\n").split("\n")
    assert got.pop() == ""
    return got, ["%.*g" % (P, v) for v in values.tolist()]


@pytest.mark.parametrize("P", [17, 8])
@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_format_rows_is_percent_on_any_bit_pattern(P, bits):
    got, want = formatted(np.array(bits, dtype=np.uint64).view(np.float64), P)
    assert got == want


def _powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


_SUBNORMALS = [5e-324, 1e-323, 2.5e-320, 1e-310, 2.2250738585072009e-308]
_TIES = [12345678.5, 123456785.0, 1234567.85, 0.5, 2.5, 99999999.5, 999999995.0]
_CARRIES = [9.99999995e-5, 9.9999999e-5, 0.99999999999999999, 9999999.95, 99999.999999999]
_SWITCHES = [1e-5, 1e-4, 1e7, 1e8, 1e16, 1e17, 0.0001, 0.00001, 1.5e16, 1.5e7, 9.5e-5]
_THREE_DIGIT_EXPONENTS = [1e100, 1.5e-100, 2.5e-123, -7.25e255, 3e-256, 1e290, -1e-300,
                          1.7976931348623157e308]


@pytest.mark.parametrize("P", [17, 8])
@pytest.mark.parametrize("values", [
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf],
    _SUBNORMALS + [-v for v in _SUBNORMALS],
    _powers_of_ten(),
    _TIES + [-v for v in _TIES],
    np.random.default_rng(8).integers(10 ** 7, 10 ** 8, 2000) + 0.5,
    _CARRIES + [-v for v in _CARRIES],
    _SWITCHES + [-v for v in _SWITCHES],
    _THREE_DIGIT_EXPONENTS,
], ids=["zeros-nan-inf", "subnormals", "powers-of-ten", "ties", "ties-8-digit", "carries",
        "g-switch-points", "three-digit-exponents"])
def test_format_rows_is_percent_on_edge_values(P, values):
    got, want = formatted(values, P)
    assert got == want


def test_format_rows_without_a_tail_is_percent_on_point_pairs():
    # the SVG polyline points: no tail, so no tail word in the rows
    xy = np.random.default_rng(3).normal(scale=10.0, size=(300, 2))
    xy[::7] = [1e-5, -123456785.0]
    text = rd._format_rows((xy[:, 0], xy[:, 1]), 8, (" ", ","), b"")
    assert text == "".join(" %.8g,%.8g" % (x, y) for x, y in xy.tolist())


@pytest.mark.parametrize("P", [17, 8])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
@pytest.mark.parametrize("tail", [b"", b"\n", "per-row"])
def test_format_rows_is_percent_on_blocks_of_k_columns(P, k, tail):
    # the kernel stacks the k columns into one array and copies each
    # word back into row order; the first column takes the kernel path
    # only, so every fallback row is written into a later column
    rng = np.random.default_rng(10 * k + P)
    n = 1000
    cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-200, 200, n)]
    cols += [edge_column(rng, n) for _ in range(k - 1)]
    seps = ("",) + tuple(rng.choice([",", " ", ";"], k - 1))
    if tail == "per-row":
        tail = np.array([f",{name}\n".encode() for name in FLAG_NAMES])[rng.integers(0, 3, n)]
        tails = tail.tolist()
    else:
        tails = [tail] * n
    want = "".join("".join(sep + "%.*g" % (P, c) for sep, c in zip(seps, row)) + t.decode()
                   for row, t in zip(zip(*(c.tolist() for c in cols)), tails))
    got = rd._format_rows(cols, P, seps, tail)
    if got != want:  # named at the first difference: pytest's diff of long strings is slow
        i = len(os.path.commonprefix([got, want]))
        pytest.fail(f"differ at {i}: {got[i - 30:i + 30]!r} != {want[i - 30:i + 30]!r}")


def near_ties(P, count, seed):
    """Doubles x whose exact P-digit mantissa x * 10^(P-1-e) = m + f has f
    within 1e-12 to 1e-6 of 1/2 (a rounding tie) or of 0 or 1 (an integer
    mantissa), in random decades e.  A double is M * 2^q, and m + f =
    M * g / den with den = 2^A 5^B coprime to g, so M = R / g mod den
    gives f = R / den for any chosen R.  Decades whose den is too small
    to hold such an f, or too large to solve for cheaply, are skipped."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        e = int(rng.integers(-300, 300))
        q = math.floor(e * math.log2(10)) - 52 + int(rng.integers(0, 2))
        s = P - 1 - e
        den = 2 ** max(0, -(q + s)) * 5 ** max(0, -s)
        if not 2 ** 24 <= den <= 2 ** 64:
            continue
        ginv = pow(2 ** max(0, q + s) * 5 ** max(0, s), -1, den)
        target = float(rng.choice([0.5, 0.0, 1.0]))
        sign = 1 if target == 0.0 else -1 if target == 1.0 else int(rng.choice([-1, 1]))
        R = round((target + sign * 10.0 ** rng.uniform(-12, -6)) * den)
        for R in range(R, R + sign * 4096, sign):  # until M is a 53-bit integer
            if not 1e-12 <= abs(R / den - target) <= 1e-6:
                break
            M = R * ginv % den
            if den <= 2 ** 52:
                M += den * int(rng.integers(-(-2 ** 52 // den), 2 ** 53 // den))
            if 2 ** 52 <= M < 2 ** 53:
                x = math.ldexp(M, q)
                if Fraction(10) ** e <= Fraction(x) < Fraction(10) ** (e + 1):
                    mantissa = Fraction(x) * Fraction(10) ** s
                    assert 1e-12 <= abs(float(mantissa % 1) - target) <= 1e-6
                    out.append(float(rng.choice([-x, x])))
                break
    return np.array(out)


@pytest.mark.parametrize("P", [17, 8])
def test_format_rows_is_percent_near_ties_and_integer_mantissas(P):
    values = near_ties(P, 2000, P)
    assert len(set(np.floor(np.log10(np.abs(values))).tolist())) >= 20  # decades
    got, want = formatted(values, P)
    assert got == want


def format_block(cols, P, seps):
    """The formatter's text of the columns and that of '%' on each row."""
    cols = [np.asarray(c, dtype=np.float64) for c in cols]
    want = "".join("".join(sep + "%.*g" % (P, v) for sep, v in zip(seps, row)) + "\n"
                   for row in zip(*(c.tolist() for c in cols)))
    return rd._format_rows(cols, P, seps, b"\n"), want


@pytest.mark.parametrize("P", [17, 8])
@pytest.mark.parametrize("last", [
    1.25,  # no value of the block prints an exponent
    1e-7,  # one scientific value, in the last column of the last row
    -1.2345678901234567e-308,  # the longest fallback text, in a row without the exponent word
    1e290,  # a fallback beyond the kernel's exponent range
], ids=["fixed-only", "one-scientific", "longest-fallback", "1e290"])
def test_format_rows_prints_the_exponent_word_only_where_needed(P, last):
    rng = np.random.default_rng(P)
    fixed = [rng.uniform(-999.0, 999.0, 300) for _ in range(3)]
    fixed[0][:4] = [0.0, math.nan, -math.inf, -0.0]
    fixed[2][-1] = last
    got, want = format_block(fixed, P, ("", ",", ";"))
    assert got == want


@pytest.mark.parametrize("P", [17, 8])
def test_format_rows_fits_the_longest_fallback_texts(P):
    longest = [-1.2345678901234567e-308, -2.2250738585072009e-308, -4.9406564584124654e-324,
               -1.7976931348623157e308]
    assert max(len("%.*g" % (P, v)) for v in longest) == P + 7
    for cols in ([longest], [longest, longest[::-1]], [[0.5] * 4, longest]):
        got, want = format_block(cols, P, ("",) + (",",) * (len(cols) - 1))
        assert got == want


def test_importing_pedalkit_builds_no_formatting_table():
    # the tables cost import time and memory that commands which print
    # no number (verify, and the benchmark's certify and sweep) would pay
    code = ("import pedalkit, pedalkit.cli\n"
            "from pedalkit import render\n"
            "assert render._tables.cache_info().currsize == 0\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(rd.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
