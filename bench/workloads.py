"""The three benchmark workloads, each a fixed list of operations (a pass).

`build(workload, seed, out)` makes the inputs, which is the set-up the
pass times as `setup_s`, and returns the operations.  Each operation
calls one of pedalkit's public entry points; its check compares the
output with `checks`, and its digest must repeat on every pass of a run.

The seed draws only parameters that leave the cost of a pass unchanged:
the order of the curves in `certify`, and the slant angle, pedaloid
angle and parallel ratio in `sweep` and `emit`.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import checks
import reference as ref

cli = sys.modules["pedalkit.cli"]
cv = sys.modules["pedalkit.curve"]
env = sys.modules["pedalkit.envelope"]
tr = sys.modules["pedalkit.transforms"]
vf = sys.modules["pedalkit.verify"]

KINDS = ("pedal", "contrapedal", "pedaloid", "antipedal", "primitive",
         "parallel", "slant", "perp-primitive")

CERTIFY_CURVES = ("circle", "ellipse", "front", "offset_circle",
                  "inv(ellipse)", "inv(offset_circle)")
SWEEP_SAMPLES = 1 << 18
EMIT_SAMPLES = 1 << 16
# `detect --what vertices` on the front exits 3 on every run (see
# CHANGES.md), so it is left out
EMIT_DETECTS = (("ellipse", "inflections"), ("ellipse", "vertices"),
                ("ellipse", "primitive-cusps"), ("front", "inflections"),
                ("front", "primitive-cusps"))
FIGURES = range(1, 11)
FAMILY_LINES = 64


class OperationFailed(Exception):
    """An entry point exited with an error code."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], str]


def _params(seed: int) -> dict:
    rng = random.Random(seed)
    return {"slant": rng.uniform(0.1, 1.2), "pedaloid": rng.uniform(0.1, 3.0),
            "ratio": rng.uniform(0.5, 2.5)}


def _kind_args(kind: str, params: dict) -> tuple:
    angle = params.get(kind) if kind in ("slant", "pedaloid") else None
    ratio = params["ratio"] if kind == "parallel" else None
    return angle, ratio


def _cli(argv: list) -> int:
    rc = cli.main(argv)
    if rc not in (0, 1):  # 1 is a failed verify row, which the check reports
        raise OperationFailed(f"exit code {rc}")
    return rc


def _files_digest(paths, _value) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _curve_digest(mc) -> str:
    h = hashlib.sha256(np.ascontiguousarray(mc.points).tobytes())
    h.update(mc.flags.tobytes())
    return h.hexdigest()


def _check_report(path, rc) -> list:
    with open(path, encoding="utf-8") as fh:
        return checks.verify_report(rc, fh.read())


# ---------------------------------------------------------------------------
# certify: `verify --suite all` on curve files


def certify(seed: int, out: str) -> list:
    paths = {}
    for name in CERTIFY_CURVES:
        inverted = name.startswith("inv(")
        curve = cv.builtin_curve(name[4:-1] if inverted else name)
        if inverted:
            curve = tr.invert_curve(curve)
        slug = name.replace("(", "_").replace(")", "")
        paths[name] = (os.path.join(out, f"{slug}.curve"),
                       os.path.join(out, f"{slug}.verify.txt"))
        with open(paths[name][0], "w", encoding="utf-8") as fh:
            fh.write(cv.format_curve(curve))
    order = list(CERTIFY_CURVES)
    random.Random(seed).shuffle(order)
    ops = []
    for name in order:
        curve_file, report = paths[name]
        argv = ["verify", "--suite", "all", "--curve", curve_file, "--out", report]
        ops.append(Op(f"verify {name}", partial(_cli, argv),
                      partial(_check_report, report), partial(_files_digest, [report])))
    return ops


# ---------------------------------------------------------------------------
# sweep: library transforms at a large sample count


# pedalkit's functions are looked up when called, so the tracer's
# wrappers are the ones that run


def _transform(curve, kind, angle, ratio):
    return tr.apply_transform(curve, kind, angle=angle, ratio=ratio)


def _envelope(curve):
    return env.envelope(env.make_family("primitive", curve))


def _pedal_of_primitive(curve):
    return tr.mapped_pedal(tr.primitive(curve))


def _check_kind(name, kind, angle, ratio, kept, mc) -> list:
    problems = checks.grid_matches(kind, mc.grid, SWEEP_SAMPLES)
    problems += checks.closed_form(name, kind, mc.grid, mc.points, mc.ok,
                                   angle=angle, ratio=ratio)
    if kind == "primitive":
        kept[name] = mc
    if kind not in ("parallel", "slant", "perp-primitive"):
        return problems
    prim = kept[name]
    mask = mc.ok & prim.ok
    if kind == "parallel":
        problems += checks.same_points("parallel(r) = r primitive", mc.points,
                                       ratio * prim.points, mask, checks.EXACT_REL)
    elif kind == "slant":
        want = np.cos(angle) * ref.rotate(prim.points, angle)
        problems += checks.same_points("slant = cos phi R(phi) primitive", mc.points,
                                       want, mask, checks.EXACT_REL)
    elif kind == "perp-primitive":
        problems += checks.same_points("perp-primitive = J primitive", mc.points,
                                       ref.perp(prim.points), mask, checks.EXACT_REL)
    return problems


def _check_envelope(name, kept, mc) -> list:
    prim = kept[name]
    problems = checks.grid_matches("envelope", mc.grid, SWEEP_SAMPLES)
    problems += checks.same_points("envelope = primitive", mc.points, prim.points,
                                   mc.ok & prim.ok, checks.ENVELOPE_REL)
    if name == "ellipse":
        problems += checks.closed_form(name, "primitive", mc.grid, mc.points, mc.ok)
    return problems


def _check_pedal_of_primitive(name, kept, mc) -> list:
    """The pedal of the primitive is the curve again, on the samples where
    the primitive's polyline resolves it."""
    prim = kept[name]
    mask = vf.stable_mask(prim) & mc.ok
    grid = mc.grid
    return checks.same_points("pedal of primitive = curve", mc.points,
                              lambda sl: ref.JETS[name](grid[sl])[0], mask,
                              checks.INVERSE_PAIR_ABS, relative=False)


def sweep(seed: int, out: str) -> list:
    params = _params(seed)
    kept = {}  # the primitive of each curve, for the identity checks
    ops = []
    for name in ("ellipse", "front"):
        curve = cv.builtin_curve(name, samples=SWEEP_SAMPLES)
        for kind in KINDS:
            angle, ratio = _kind_args(kind, params)
            ops.append(Op(f"{kind} {name}", partial(_transform, curve, kind, angle, ratio),
                          partial(_check_kind, name, kind, angle, ratio, kept),
                          _curve_digest))
        ops.append(Op(f"envelope {name}", partial(_envelope, curve),
                      partial(_check_envelope, name, kept), _curve_digest))
        ops.append(Op(f"mapped pedal {name}", partial(_pedal_of_primitive, curve),
                      partial(_check_pedal_of_primitive, name, kept), _curve_digest))
    return ops


# ---------------------------------------------------------------------------
# emit: CSV and SVG output through the command line


def _exit_code(rc) -> list:
    return [] if rc == 0 else [f"exit code {rc}"]


def _check_transform(csv, svg, kind, angle, ratio, rc) -> list:
    return (_exit_code(rc) + checks.transform_csv(csv, kind, EMIT_SAMPLES, angle, ratio)
            + checks.svg_file(svg))


def _check_detect(tsv, curve, what, rc) -> list:
    return _exit_code(rc) + checks.detect_rows(tsv, curve, what)


def _check_plot(svg, rc) -> list:
    return _exit_code(rc) + checks.svg_file(svg)


def emit(seed: int, out: str) -> list:
    params = _params(seed)
    n = str(EMIT_SAMPLES)
    ops = []
    for kind in KINDS:
        angle, ratio = _kind_args(kind, params)
        csv, svg = (os.path.join(out, f"{kind}.{ext}") for ext in ("csv", "svg"))
        argv = ["transform", "--curve", "ellipse", "--samples", n, "--kind", kind]
        argv += ["--angle", repr(angle)] if angle is not None else []
        argv += ["--ratio", repr(ratio)] if ratio is not None else []
        argv += ["--out", csv, "--svg", svg]
        ops.append(Op(f"transform {kind}", partial(_cli, argv),
                      partial(_check_transform, csv, svg, kind, angle, ratio),
                      partial(_files_digest, [csv, svg])))
    for curve, what in EMIT_DETECTS:
        tsv = os.path.join(out, f"detect-{curve}-{what}.tsv")
        argv = ["detect", "--curve", curve, "--samples", n, "--what", what, "--out", tsv]
        ops.append(Op(f"detect {what} {curve}", partial(_cli, argv),
                      partial(_check_detect, tsv, curve, what),
                      partial(_files_digest, [tsv])))
    plots = [(f"figure {k}", ["--figure", str(k)]) for k in FIGURES]
    plots.append(("overlay plot", [
        "--curve", "ellipse", "--samples", n, "--overlay", "source",
        "--overlay", "primitive", "--overlay", f"slant:{params['slant']!r}",
        "--overlay", f"parallel:{params['ratio']!r}",
        "--family-lines", str(FAMILY_LINES)]))
    for label, args in plots:
        svg = os.path.join(out, label.replace(" ", "-") + ".svg")
        ops.append(Op(f"plot {label}", partial(_cli, ["plot"] + args + ["--svg", svg]),
                      partial(_check_plot, svg), partial(_files_digest, [svg])))
    return ops


WORKLOADS = {"certify": certify, "sweep": sweep, "emit": emit}


def build(workload: str, seed: int, out: str) -> list:
    return WORKLOADS[workload](seed, out)
