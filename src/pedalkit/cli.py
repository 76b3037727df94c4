"""Command-line surface.

Subcommands: transform, detect, verify, plot.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 input/runtime error.

Curve files are UTF-8 text, one `key = value` per line, `#` comments:

    name = "ellipse"        # optional, double-quoted
    x = cos(t)              # expression in t
    y = sin(t)/sqrt(3)
    t_min = 0               # constant expressions allowed (2*pi, ...)
    t_max = 2*pi
    samples = 1024          # optional
    closed = true           # optional, default true

Expressions use +, -, *, /, ^, parentheses, the parameter t, the
constants pi and e, and the functions sin, cos, tan, sqrt, exp, log,
abs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import figures as fig
from . import singularity as sg
from . import transforms as tr
from .curve import BUILTIN_NAMES, CurveDef, builtin_curve, load_curve
from .errors import PedalkitError, RangeError
from .render import (PALETTE, PlotSpec, _svg_chunks, overlay_from_curve, overlay_from_mapped,
                     render_to_file, write_mapped_csv)
from .transforms import FLAG_NAMES, TRANSFORM_KINDS, apply_transform
from .verify import SUITES, run_suite

DETECTORS = {
    "inflections": sg.inflections,
    "vertices": sg.vertices,
    "primitive-cusps": sg.primitive_singularities,
}
DETECT_KINDS = tuple(DETECTORS)


def _resolve_curve(spec: str, samples: int | None) -> CurveDef:
    if os.path.exists(spec):
        curve = load_curve(spec)
        if samples is not None:
            curve = dataclasses.replace(curve, samples=samples)
        return curve
    if spec in BUILTIN_NAMES:
        return builtin_curve(spec, samples=samples)
    raise RangeError(
        f"curve {spec!r} is neither a file nor a built-in name "
        f"(built-ins: {', '.join(BUILTIN_NAMES)})")


def _flag_summary(mc: tr.MappedCurve) -> str:
    counts = np.bincount(mc.flags, minlength=len(FLAG_NAMES))
    parts = [f"{counts[i]} {name}" for i, name in enumerate(FLAG_NAMES) if counts[i]]
    return f"{len(mc.grid)} samples: " + ", ".join(parts)


def cmd_transform(args: argparse.Namespace) -> int:
    param = tr.TRANSFORMS[args.kind][1]
    for name in ("angle", "ratio"):
        if name != param and getattr(args, name) is not None:
            raise RangeError(f"{args.kind} takes no --{name}")
    curve = _resolve_curve(args.curve, args.samples)
    mc = apply_transform(curve, args.kind, angle=args.angle, ratio=args.ratio)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write_mapped_csv(mc, fh)
    else:
        write_mapped_csv(mc, sys.stdout)
    if args.svg:
        spec = PlotSpec([overlay_from_curve(curve, color=PALETTE[0]),
                         overlay_from_mapped(mc, color=PALETTE[1])])
        render_to_file(spec, args.svg)
    if not mc.ok.all():
        print(_flag_summary(mc), file=sys.stderr)
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    curve = _resolve_curve(args.curve, args.samples)
    reports = DETECTORS[args.what](curve)
    out = open(args.out, "w", encoding="utf-8", newline="\n") if args.out else sys.stdout
    try:
        for r in reports:
            cls = r.classification or ""
            out.write(f"{r.kind}\t{r.t:.12g}\t{r.residual:.12g}\t{cls}\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    curve = _resolve_curve(args.curve, args.samples)
    report = run_suite(args.suite, curve)
    text = report.format() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if report.passed else 1


def _parse_overlay(spec: str) -> tuple[str, float | None]:
    kind, _, param = spec.partition(":")
    if kind not in TRANSFORM_KINDS and kind != "source":
        raise RangeError(
            f"unknown overlay kind {kind!r}; choices: source, {', '.join(TRANSFORM_KINDS)}")
    value = None
    takes = None if kind == "source" else tr.TRANSFORMS[kind][1]
    if not param and takes is not None:
        raise RangeError(f"overlay {kind} needs a value: {kind}:{takes.upper()}")
    if param:
        if takes is None:
            raise RangeError(f"overlay {kind!r} takes no parameter")
        try:
            value = float(param)
        except ValueError:
            raise RangeError(f"overlay parameter {param!r} is not a number") from None
    return kind, value


def cmd_plot(args: argparse.Namespace) -> int:
    if args.figure is not None:
        if args.overlay or args.family_lines or args.curve or args.samples is not None:
            raise RangeError("--figure picks its own curve, samples and overlays")
        spec = fig.figure_spec(args.figure)
    else:
        if not args.curve:
            raise RangeError("plot needs --curve (or --figure)")
        curve = _resolve_curve(args.curve, args.samples)
        requested = [_parse_overlay(ov_spec) for ov_spec in args.overlay or ["source"]]
        spec = fig.plot_spec(curve, [(i % len(PALETTE), kind, value, None)
                                     for i, (kind, value) in enumerate(requested)],
                             args.family_lines)
    if args.svg:
        render_to_file(spec, args.svg)
    else:
        sys.stdout.writelines(_svg_chunks(spec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pedalkit",
        description="Pedals, primitives and primitivoids of plane curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the options it reads: --svg where it writes one
    def shared(p, curve_required=True, out=True):
        p.add_argument("--curve", required=curve_required, default=None,
                       help="curve file or built-in name "
                            f"({', '.join(BUILTIN_NAMES)})")
        p.add_argument("--samples", type=int, default=None,
                       help="override the sample count")
        if out:
            p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("transform", help="map a curve and emit CSV")
    shared(p)
    p.add_argument("--svg", default=None, help="also write an SVG plot here")
    p.add_argument("--kind", required=True, choices=TRANSFORM_KINDS)
    p.add_argument("--angle", type=float, default=None,
                   help="angle for slant/pedaloid (radians)")
    p.add_argument("--ratio", type=float, default=None, help="ratio for parallel")

    p = sub.add_parser("detect", help="locate singular parameters")
    shared(p)
    p.add_argument("--what", required=True, choices=DETECT_KINDS)

    p = sub.add_parser("verify", help="run a named identity suite")
    shared(p)
    p.add_argument("--suite", required=True, choices=SUITES)

    p = sub.add_parser("plot", help="render overlays to SVG")
    shared(p, curve_required=False, out=False)
    p.add_argument("--svg", default=None, help="write the SVG here instead of stdout")
    p.add_argument("--overlay", action="append", default=None,
                   metavar="KIND[:PARAM]",
                   help="repeatable; source or a transform kind, with the "
                        "angle/ratio after a colon (e.g. slant:0.31415)")
    p.add_argument("--family-lines", type=int, default=0, metavar="N",
                   help="draw N lines of the family enveloping the primitive")
    p.add_argument("--figure", type=int, default=None,
                   help=f"render a prebuilt gallery figure "
                        f"(1..{max(fig.FIGURE_NUMBERS)})")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first main call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up on each call, so a cmd_* replaced after the first call is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (PedalkitError, OSError) as exc:
        print(f"pedalkit: error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"pedalkit: error: out of memory at {args.samples or 'the default number of'} "
              "samples", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
