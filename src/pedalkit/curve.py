"""Curve definitions, parameter grids and Frenet data.

A CurveDef holds symbolic x(t), y(t) plus a parameter interval.  The
position and its first three derivatives come from one Taylor-mode walk
of those trees (`expr.jets`) per block of JET_BLOCK parameters; no
derivative tree is built.  `position_xy` is that walk at order 0, and
so is the closure check of a closed CurveDef: one two-row walk of
[t_min, t_max], which raises EvalError where an end is undefined.  All
Frenet quantities use parametrization-invariant formulas from the raw
jets, so curves need not be unit speed:

    kappa           = cross(d1, d2) / |d1|^3
    dkappa/dt       = cross(d1, d3) / |d1|^3 - 3 kappa <d1, d2> / |d1|^2
    kappa_prime_arc = (dkappa/dt) / |d1|

They have one implementation, `frenet_grid`, over a parameter grid; the
scalar `jet` and `frenet` (through `frenet_rows`) are one-row views of
it, which raise where the grid row has no data.  Grid walks raise
RangeError outside [t_min, t_max], as the scalar ones do.

CurveDefs are immutable after construction and safe to share across
threads.  `sample_grid` keeps a curve's default grid, `_jets_xy` the
release schedule of its jet walks (`expr.release_schedule`), and
`transforms.frenet_frame` the Frenet frame on that grid, on the
instance, outside the fields; all are read-only, so sharing stays safe
(two threads may at worst build one twice).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import expr as ex
from .errors import EvalError, IrregularPoint, ParseError, RangeError
from .vec import dot_xy, finite_xy, perp_xy, scale_xy

# speeds below this are treated as singular parameter values
REGULAR_EPS = 1e-8

# closed curves must return to their start this tightly, relative to
# the endpoint magnitude for curves far from unit scale
CLOSURE_EPS = 1e-9

MIN_SAMPLES = 16


@dataclass(frozen=True)
class CurveDef:
    x: ex.Expr
    y: ex.Expr
    t_min: float
    t_max: float
    name: str = "curve"
    samples: int = 1024
    closed: bool = True

    def __post_init__(self):
        if not (self.t_min < self.t_max):
            raise RangeError(f"empty parameter interval [{self.t_min}, {self.t_max}]")
        if self.samples < MIN_SAMPLES:
            raise RangeError(f"need at least {MIN_SAMPLES} samples, got {self.samples}")
        if self.closed:
            ends = np.array([self.t_min, self.t_max])
            p = position_xy(self, ends)
            check_defined(self, ends, (p,))
            gap = math.hypot(*(p[0] - p[1]))
            if gap > CLOSURE_EPS * max(1.0, math.hypot(*p[0]), math.hypot(*p[1])):
                raise RangeError(
                    f"curve {self.name!r} declared closed but endpoints differ by {gap:.3e}")

    @property
    def period(self) -> float | None:
        """t_max - t_min for a closed curve, None for an open one."""
        return self.t_max - self.t_min if self.closed else None

    def wrap(self, ts) -> np.ndarray:
        """ts round the seam into [t_min, t_max) from within a period of it
        on a closed curve, clipped to [t_min, t_max] on an open one; the
        parameters already there keep their bits."""
        ts = np.asarray(ts, dtype=float)
        if not self.closed:
            return np.clip(ts, self.t_min, self.t_max)
        return np.where(ts < self.t_min, ts + self.period,
                        np.where(ts >= self.t_max, ts - self.period, ts))

    def _check_params(self, ts) -> np.ndarray:
        """ts as a 1-d float array, each in [t_min, t_max]."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        slack = 1e-9 * (self.t_max - self.t_min)
        outside = ~((self.t_min - slack <= ts) & (ts <= self.t_max + slack))
        if outside.any():
            raise RangeError(f"parameter {float(ts[outside][0])} outside [{self.t_min}, {self.t_max}]")
        return ts


# the vectors of CurveJet and FrenetData are length-2 float64 arrays
@dataclass(frozen=True)
class CurveJet:
    t: float
    p: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray


@dataclass(frozen=True)
class FrenetData:
    t: float
    p: np.ndarray
    t_hat: np.ndarray
    n_hat: np.ndarray
    speed: float
    kappa: float
    kappa_prime_arc: float


def jet(curve: CurveDef, t: float) -> CurveJet:
    """Position and first three derivatives at one parameter, which
    must lie in [t_min, t_max] (else RangeError) and have finite jets
    (else EvalError)."""
    ts = curve._check_params(t)
    p, d1, d2, d3 = jet_grid(curve, ts)
    check_defined(curve, ts, (p, d1, d2, d3))
    return CurveJet(t, p[0], d1[0], d2[0], d3[0])


def frenet(curve: CurveDef, t: float) -> FrenetData:
    """Unit tangent t_hat = -J n_hat, unit normal n_hat, speed, curvature
    and its arc-length derivative at one parameter."""
    fg = frenet_rows(curve, t)
    return FrenetData(t, fg.p[0], -perp_xy(fg.n_hat[0]), fg.n_hat[0],
                      float(fg.speed[0]), float(fg.kappa[0]),
                      float(fg.kappa_prime_arc[0]))


def param_grid(curve: CurveDef, n: int) -> np.ndarray:
    """n uniform parameters, without the duplicate endpoint of a closed curve."""
    try:
        if curve.closed:
            return curve.t_min + (curve.t_max - curve.t_min) * np.arange(n) / n
        return np.linspace(curve.t_min, curve.t_max, n)
    except ValueError as exc:  # numpy refuses an array this large
        raise RangeError(f"cannot sample {n} points: {exc}") from None


def sample_grid(curve: CurveDef, samples: int | None = None) -> np.ndarray:
    """param_grid of samples, at least MIN_SAMPLES, new on each call; or
    the curve's default grid, built once, read-only and kept on the
    curve, which its kept frame, `envelope` and the detectors share."""
    if samples is None:
        if "_grid" not in curve.__dict__:
            grid = param_grid(curve, curve.samples)
            grid.flags.writeable = False
            object.__setattr__(curve, "_grid", grid)  # CurveDef is frozen; _grid is no field
        return curve._grid
    if samples < MIN_SAMPLES:
        raise RangeError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    return param_grid(curve, samples)


@dataclass(frozen=True)
class FrenetGrid:
    """Vectorized jets and Frenet data over a parameter grid, with the
    unit normal n_hat = J d1 / |d1| and no tangent (it is -J n_hat).
    Rows where speed < REGULAR_EPS have n_hat/kappa set to nan;
    `regular` marks the usable rows."""

    ts: np.ndarray
    p: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    speed: np.ndarray
    n_hat: np.ndarray
    kappa: np.ndarray
    kappa_prime_arc: np.ndarray
    regular: np.ndarray


# parameters per jet walk: a walk holds only the jets that a node still
# to be computed reads, so blocks bound the memory a long grid takes
JET_BLOCK = 1 << 14


def row_blocks(n: int) -> list[slice]:
    """The slices of at most JET_BLOCK rows that cover n rows, in order."""
    return [slice(start, min(start + JET_BLOCK, n)) for start in range(0, n, JET_BLOCK)]


def _block_max(n: int, residual, mask: np.ndarray | None = None) -> float:
    """Max over the rows of mask (all n by default) of residual(block),
    one residual per row of each row_blocks slice that holds a row of
    mask: bit for bit the max over the grid.  A residual of -inf leaves
    its row out, as mask does; a nan on a compared row propagates; with
    no compared row the max is inf."""
    worst = -math.inf
    for block in row_blocks(n):
        rows = True if mask is None else mask[block]
        if np.any(rows):
            with np.errstate(all="ignore"):
                worst = np.maximum(worst, residual(block).max(where=rows, initial=-math.inf))
    return math.inf if worst == -math.inf else float(worst)


def _jets_xy(curve: CurveDef, ts: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
    """(p, d1, ..., d_order), each (n, 2), filled block by block."""
    ts = curve._check_params(ts)
    if "_schedule" not in curve.__dict__:
        object.__setattr__(curve, "_schedule", ex.release_schedule((curve.x, curve.y)))
    out = tuple(np.empty((len(ts), 2)) for _ in range(order + 1))
    for block in row_blocks(len(ts)):
        for col, jet in enumerate(ex.jets((curve.x, curve.y), ts[block], order, curve._schedule)):
            for k, values in enumerate(jet):
                out[k][block, col] = values
    return out


def position_xy(curve: CurveDef, ts: np.ndarray) -> np.ndarray:
    return _jets_xy(curve, ts, 0)[0]


def velocity_xy(curve: CurveDef, ts: np.ndarray) -> np.ndarray:
    return _jets_xy(curve, ts, 1)[1]


def jet_grid(curve: CurveDef, ts: np.ndarray) -> tuple[np.ndarray, ...]:
    """(p, d1, d2, d3) arrays, each (n, 2)."""
    return _jets_xy(curve, ts, 3)


def _unit_frame(d1: np.ndarray) -> tuple[np.ndarray, ...]:
    """(speed, regular, n_hat) from the velocities d1: n_hat = J d1 / |d1|,
    the bits of J (d1 / |d1|), and nan on rows that are not regular."""
    speed = np.hypot(d1[:, 0], d1[:, 1])
    regular = np.isfinite(speed) & (speed >= REGULAR_EPS)
    n_hat = perp_xy(d1)
    with np.errstate(all="ignore"):
        scale_xy(np.divide, n_hat, speed, out=n_hat)
    n_hat[~regular] = np.nan
    return speed, regular, n_hat


def frenet_grid(curve: CurveDef, ts: np.ndarray | None = None) -> FrenetGrid:
    """The one carrier of a curve's jets and Frenet data on a grid."""
    ts = sample_grid(curve) if ts is None else np.asarray(ts, dtype=float)
    p, d1, d2, d3 = jet_grid(curve, ts)
    speed, regular, n_hat = _unit_frame(d1)
    with np.errstate(all="ignore"):
        cross12 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        cross13 = d1[:, 0] * d3[:, 1] - d1[:, 1] * d3[:, 0]
        kappa = cross12 / speed**3
        dkappa_dt = cross13 / speed**3 - 3.0 * kappa * dot_xy(d1, d2) / speed**2
        kappa_prime = dkappa_dt / speed
    kappa[~regular] = np.nan
    kappa_prime[~regular] = np.nan
    return FrenetGrid(ts, p, d1, d2, d3, speed, n_hat, kappa, kappa_prime, regular)


def check_defined(curve: CurveDef, ts: np.ndarray, rows) -> None:
    """EvalError at the first of ts where one of the (n, 2) rows is not
    finite, tested column by column: no stacked copy, and no reduction
    along the short axis."""
    defined = np.ones(len(ts), dtype=bool)
    for row in rows:
        defined &= finite_xy(row)
    if not defined.all():
        raise EvalError(f"curve {curve.name!r} is not defined at t={float(ts[~defined][0])}")


def frenet_rows(curve: CurveDef, ts) -> FrenetGrid:
    """frenet_grid at parameters that must each have a Frenet frame:
    the errors of jet, and IrregularPoint where the speed is below
    REGULAR_EPS."""
    ts = curve._check_params(ts)
    fg = frenet_grid(curve, ts)
    check_defined(curve, ts, (fg.p, fg.d1, fg.d2, fg.d3))
    if not fg.regular.all():
        raise IrregularPoint(f"curve {curve.name!r} is singular at t={float(ts[~fg.regular][0])}")
    return fg


# ---------------------------------------------------------------------------
# curve files:  key = value lines, '#' comments, keys x, y, t_min, t_max,
# name (quoted), samples, closed


_REQUIRED = ("x", "y", "t_min", "t_max")
_KNOWN = _REQUIRED + ("name", "samples", "closed")


# the line up to its first '#' outside a double-quoted value: a quoted
# run is one step of the pattern, so a '#' inside it is kept, and an
# unterminated quote runs to the end of the line
_CODE = re.compile(r'(?:[^"#]|"[^"]*"?)*')


def _parse_lines(text: str) -> Iterator[tuple[int, str, str, int]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _CODE.match(raw)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno, 1, ("'='",))
        key, value = line.split("=", 1)
        if not key.strip():
            raise ParseError("missing key before '='", lineno, 1)
        # the 1-based column of the value's first non-blank character
        yield lineno, key.strip(), value.strip(), len(line) - len(value.lstrip()) + 1


def _const_value(text: str, lineno: int, vcol: int, key: str) -> float:
    node = ex.parse_expr(text, line=lineno, column=vcol)
    if ex.depends_on_t(node):
        raise ParseError(f"{key} must be constant, found 't'", lineno, vcol)
    return float(ex.evaluate(node, 0.0))


def parse_curve(text: str, name: str = "curve") -> CurveDef:
    """Parse curve-definition text.  See the module docstring of
    `pedalkit.cli` for the file format."""
    seen: dict[str, object] = {}
    table: dict = {}  # x and y share their equal subtrees
    for lineno, key, value, vcol in _parse_lines(text):
        if key not in _KNOWN:
            raise ParseError(f"unknown key {key!r}", lineno, 1, _KNOWN)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        if key in ("x", "y"):
            seen[key] = ex.parse_expr(value, line=lineno, column=vcol, table=table)
        elif key in ("t_min", "t_max"):
            seen[key] = _const_value(value, lineno, vcol, key)
        elif key == "name":
            if len(value) < 2 or value[0] != '"' or value[-1] != '"':
                raise ParseError("name must be double-quoted", lineno, vcol)
            seen[key] = value[1:-1]
        elif key == "samples":
            try:
                seen[key] = int(value)
            except ValueError:
                raise ParseError(f"samples must be an integer, got {value!r}",
                                 lineno, vcol) from None
        elif key == "closed":
            if value not in ("true", "false"):
                raise ParseError(f"closed must be true or false, got {value!r}",
                                 lineno, vcol, ("true", "false"))
            seen[key] = value == "true"
    for key in _REQUIRED:
        if key not in seen:
            raise ParseError(f"missing required key {key!r}", 1, 1)
    return CurveDef(**{"name": name, **seen})  # the keys are the field names


def load_curve(path: str | os.PathLike) -> CurveDef:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # at the first byte that is not UTF-8
        # the lines as parse_curve counts them, "?" standing for that byte
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8 text",
                         len(lines), len(lines[-1])) from None
    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return parse_curve(text, name=stem)


def format_curve(curve: CurveDef) -> str:
    """Canonical text; parse(format(c)) reproduces c."""
    return "\n".join([
        f'name = "{curve.name}"',
        f"x = {ex.to_text(curve.x)}",
        f"y = {ex.to_text(curve.y)}",
        f"t_min = {curve.t_min!r}",
        f"t_max = {curve.t_max!r}",
        f"samples = {curve.samples}",
        f"closed = {'true' if curve.closed else 'false'}",
    ]) + "\n"


# ---------------------------------------------------------------------------
# built-in curves


_BUILTIN_TEXT = {
    "circle": """
        name = "circle"
        x = cos(t)
        y = sin(t)
        t_min = 0
        t_max = 2*pi
    """,
    "ellipse": """
        name = "ellipse"
        x = cos(t)
        y = sin(t)/sqrt(3)
        t_min = 0
        t_max = 2*pi
    """,
    "front": """
        name = "front"
        x = (30*cos(t) - 17*cos(3*t) + 3*cos(5*t))/32
        y = sin(t)*(23 + 4*cos(2*t) - 3*cos(4*t))/(16*sqrt(2))
        t_min = 0
        t_max = 2*pi
    """,
    "offset_circle": """
        name = "offset_circle"
        x = 2 + cos(t)
        y = sin(t)
        t_min = 0
        t_max = 2*pi
    """,
}

BUILTIN_NAMES = tuple(_BUILTIN_TEXT)


def builtin_curve(name: str, samples: int | None = None) -> CurveDef:
    try:
        text = _BUILTIN_TEXT[name]
    except KeyError:
        raise RangeError(f"no built-in curve named {name!r}; "
                         f"choices: {', '.join(BUILTIN_NAMES)}") from None
    curve = parse_curve(text)
    return curve if samples is None else replace(curve, samples=samples)


def bbox_diameter(points: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Bounding-box diagonal of the finite points (of those in mask), 0
    if there is none; the scale used by denominator guards."""
    good = finite_xy(points)
    if mask is not None:
        good &= mask
    if not good.any():  # a guard of 0: with no such point no row can be near_singular
        return 0.0
    return float(math.hypot(*(c.max(where=good, initial=-np.inf)
                              - c.min(where=good, initial=np.inf) for c in points.T)))

