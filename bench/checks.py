"""Output checks for the benchmark workloads.

Nothing here copies pedalkit's present output.  Sampled curves are
compared with the closed forms in `reference`, or with the paper's
identities between two of pedalkit's own outputs; files are checked
for their format and for the properties the method must have.  Every
check returns a list of problems, empty when the output is right.

Arrays are compared in chunks so that the checks, which run inside the
pass process, stay well below the memory the operations themselves
take, and leave `peak_rss_mb` to the program.
"""

from __future__ import annotations

import io
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

import reference as ref

CHUNK = 1 << 14

# closed forms from hand derivatives against pedalkit's expression trees
CLOSED_FORM_REL = 1e-9
# identities that are one multiplication or rotation apart
EXACT_REL = 1e-12
# envelope solve against the closed-form primitive (the oracle suite's bound)
ENVELOPE_REL = 1e-9
# pedal of the primitive, with polyline frames (the inverse-pair suite's bound)
INVERSE_PAIR_ABS = 1e-6
# a reported root must be a zero of the benchmark's own function
ROOT_ABS = 1e-8
# on the front, closed forms are compared where the speed is at least
# this share of its median: at the cusps the normal is not defined
FRONT_SPEED_FRACTION = 1e-3
# dense grid for the benchmark's own root counts
DENSE = 1 << 18


def _rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample |a - b| / max(1, |b|)."""
    return np.hypot(*(a - b).T) / np.maximum(1.0, np.hypot(*b.T))


def _worst(values, what: str, tol: float) -> list[str]:
    worst = max(values, default=0.0)
    if not worst <= tol:
        return [f"{what}: {worst:.3e} > {tol:.1e}"]
    return []


def closed_form(curve: str, kind: str, grid: np.ndarray, points: np.ndarray,
                ok: np.ndarray, angle=None, ratio=None) -> list[str]:
    """Points on ok samples against the reference closed form.  On the
    ellipse every sample must be ok; on the front only samples away from
    the cusps are compared."""
    problems = []
    if len(grid) != len(points) or len(ok) != len(points):
        return [f"{kind}: {len(points)} points for {len(grid)} parameters"]
    if curve == "ellipse" and not ok.all():
        problems.append(f"{kind}: {int((~ok).sum())} samples not ok on the ellipse")
    errs = []
    median_speed = None
    if curve == "front":
        median_speed = float(np.median(ref.frame("front", grid[::64])[3]))
    for i in range(0, len(grid), CHUNK):
        t = grid[i:i + CHUNK]
        mask = ok[i:i + CHUNK].copy()
        if median_speed is not None:
            mask &= ref.frame(curve, t)[3] >= FRONT_SPEED_FRACTION * median_speed
        if not mask.any():
            continue
        want = ref.transform(curve, kind, t[mask], angle=angle, ratio=ratio)
        errs.append(float(_rel_err(points[i:i + CHUNK][mask], want).max()))
    if not errs:
        problems.append(f"{kind}: no sample compared")
    return problems + _worst(errs, f"{kind} against the closed form", CLOSED_FORM_REL)


def same_points(what: str, got: np.ndarray, want, mask: np.ndarray,
                tol: float, relative: bool = True) -> list[str]:
    """max over mask of |got - want| (relative to max(1, |want|)).  `want`
    is an array, or a function of a slice that computes that chunk."""
    if not mask.any():
        return [f"{what}: no sample compared"]
    errs = []
    for i in range(0, len(mask), CHUNK):
        sl = slice(i, i + CHUNK)
        m = mask[sl]
        if not m.any():
            continue
        a = got[sl][m]
        b = (want(sl) if callable(want) else want[sl])[m]
        err = _rel_err(a, b) if relative else np.hypot(*(a - b).T)
        errs.append(float(err.max()))
    return _worst(errs, what, tol)


def grid_matches(what: str, got: np.ndarray, n: int) -> list[str]:
    want = ref.grid(n)
    if len(got) != n:
        return [f"{what}: {len(got)} parameters, expected {n}"]
    gap = float(np.abs(got - want).max())
    return _worst([gap], f"{what}: parameter grid", 4 * np.finfo(float).eps * ref.TWO_PI)


# ---------------------------------------------------------------------------
# files

_ROW = re.compile(r"^  (.*?)\s+residual\s+(\S+)\s+tol\s+(\S+)\s+(pass|FAIL)$")

# one row each suite always writes when it runs, or its skip row
SUITE_ANCHORS = {
    "inversion": "inversion is an involution",
    "duality": "primitive = antipedal of inverted curve",
    "parallel": "parallel(1) = primitive",
    "slant": "slant(0) = primitive",
    "inverse-pair": "pedal of primitive returns the curve",
    "oracle": "envelope matches closed form",
    "singularity": "criterion roots refined to tolerance",
    "frontal": "legendrian residual of the lift",
}


def verify_report(rc: int, text: str) -> list[str]:
    """`verify --suite all`: exit code 0, every row within its tolerance,
    and every suite present with a row or a skip row."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    lines = text.splitlines()
    rows = [m.groups() for m in map(_ROW.match, lines) if m]
    if len(rows) != len(lines) - 2 or lines[-1:] != ["=> PASS"]:
        problems.append("report is not a header, rows and '=> PASS'")
    for name, residual, tol, status in rows:
        if not (float(residual) <= float(tol) and status == "pass"):
            problems.append(f"row {name!r}: residual {residual} > tol {tol}")
    names = [r[0] for r in rows]
    for suite, anchor in SUITE_ANCHORS.items():
        skip = f"{suite} suite skipped: hypotheses not met"
        if not any(n.startswith(anchor) or n == skip for n in names):
            problems.append(f"suite {suite!r} has no row and no skip row")
    return problems


def transform_csv(path: str, kind: str, n: int, angle=None, ratio=None) -> list[str]:
    """`transform` CSV of the ellipse: header, row count, parameter
    column, flags and points."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        body = fh.read()
    problems = [] if header == "t,x,y,flag\n" else [f"CSV header {header!r}"]
    rows = body.count("\n")
    if rows != n or body.count(",ok\n") != n:
        return problems + [f"CSV has {rows} rows, {body.count(',ok' + chr(10))} ok; expected {n}"]
    table = np.loadtxt(io.StringIO(body.replace(",ok\n", "\n")), delimiter=",")
    problems += grid_matches("CSV", table[:, 0], n)
    problems += closed_form("ellipse", kind, ref.grid(n), table[:, 1:3],
                            np.ones(n, dtype=bool), angle=angle, ratio=ratio)
    return problems


def svg_file(path: str) -> list[str]:
    """Parses as XML, is an SVG document and draws at least one curve."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    if root.tag != f"{ns}svg":
        return [f"root element {root.tag!r}"]
    if root.find(f".//{ns}polyline") is None:
        return ["SVG draws no polyline"]
    return []


def _dense_values(curve: str, fn) -> tuple[np.ndarray, np.ndarray]:
    """fn and the speed on a dense grid offset by half a step, so that
    no grid point falls on a symmetric zero."""
    vals, speed = np.empty(DENSE), np.empty(DENSE)
    for i in range(0, DENSE, CHUNK):
        t = ref.TWO_PI * (np.arange(i, i + CHUNK) + 0.5) / DENSE
        vals[i:i + CHUNK] = fn(curve, t)
        speed[i:i + CHUNK] = ref.frame(curve, t)[3]
    return vals, speed


def _kappa(curve, t):
    return ref.frame(curve, t)[4]


def _dkappa(curve, t):
    return ref.frame(curve, t)[5]


DETECT_FUNCTIONS = {
    "inflections": ("inflection", _kappa),
    "vertices": ("vertex", _dkappa),
    "primitive-cusps": ("primitive-cusp", ref.criterion),
}


def detect_rows(path: str, curve: str, what: str) -> list[str]:
    """Each reported parameter is a zero of the benchmark's own function,
    and there are as many as its sign changes on a dense grid.  Pairs of
    grid points next to a cusp of the curve (speed below a share of the
    median) are left out of the count: kappa and the criterion jump sign
    there without a zero."""
    label, fn = DETECT_FUNCTIONS[what]
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    problems = []
    ts = np.array([float(r[1]) for r in rows]) if rows else np.empty(0)
    if any(r[0] != label for r in rows):
        problems.append(f"rows other than {label!r}")
    if len(ts):
        values = np.abs(fn(curve, ts))
        problems += _worst(values.tolist(), f"{what}: own function at reported roots",
                           ROOT_ABS)
    vals, speed = _dense_values(curve, fn)
    regular = speed >= FRONT_SPEED_FRACTION * np.median(speed)
    expected = ref.sign_changes(vals, regular)
    if expected != len(rows):
        problems.append(f"{what}: {len(rows)} rows, {expected} sign changes on the dense grid")
    if what == "primitive-cusps":
        # a clearly nonzero arc-length derivative of kappa makes the cusp ordinary
        _, _, _, speed_at, _, dkappa_at = ref.frame(curve, ts)
        for row, k in zip(rows, dkappa_at / speed_at):
            if abs(k) > 1e-3 and row[3] != "ordinary-cusp":
                problems.append(f"cusp at t={row[1]} classified {row[3]!r}")
    return problems


def perturbed(points: np.ndarray, rel: float = 1e-6) -> np.ndarray:
    """A copy with one sample moved by `rel` of its norm, for the self-test."""
    out = points.copy()
    i = len(out) // 3
    out[i] += rel * max(1.0, math.hypot(*out[i]))
    return out
