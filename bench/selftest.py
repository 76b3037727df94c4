"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each case runs a check on a correct pedalkit output, which must pass,
and on a copy with one point, row or line changed, which must fail.
It also checks the hand-written derivatives in `reference` against
central differences, and that BENCHMARK.json lists the workloads and
metrics that `run.py` reports.  Exits 1 if any case does not behave.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import pedalkit.cli  # noqa: E402,F401
import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from pedalkit import builtin_curve, render, transforms as tr, verify  # noqa: E402

OUT = os.path.join(ROOT, ".bench_out", "selftest")
N = 4096
failures = []


def expect(label: str, problems: list, should_pass: bool) -> None:
    ok = (not problems) == should_pass
    print(f"{'ok  ' if ok else 'BAD '} {label}: "
          f"{'passes' if not problems else problems[0]}")
    if not ok:
        failures.append(label)


def both(label: str, check, good, bad) -> None:
    expect(f"{label} (correct)", check(good), True)
    expect(f"{label} (perturbed)", check(bad), False)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    h = 1e-5
    for name in ("ellipse", "front"):
        t = ref.grid(64)
        lo, hi = ref.JETS[name](t - h), ref.JETS[name](t + h)
        mid = ref.JETS[name](t)
        gap = max(float(np.abs((hi[k] - lo[k]) / (2 * h) - mid[k + 1]).max()) for k in range(3))
        expect(f"{name} hand derivatives match central differences",
               [] if gap < 1e-6 else [f"gap {gap:.2e}"], True)

    ellipse, front = builtin_curve("ellipse", samples=N), builtin_curve("front", samples=N)
    prim = tr.primitive(ellipse)
    both("ellipse primitive against the closed form",
         lambda pts: checks.closed_form("ellipse", "primitive", prim.grid, pts, prim.ok),
         prim.points, checks.perturbed(prim.points))

    fprim = tr.primitive(front)
    ratio = 1.7
    par = tr.parallel_primitivoid(front, ratio)
    both("front parallel(r) = r primitive",
         lambda pts: checks.same_points("parallel", pts, ratio * fprim.points,
                                        par.ok & fprim.ok, checks.EXACT_REL),
         par.points, checks.perturbed(par.points))
    phi = 0.7
    sl = tr.slant_primitivoid(front, phi)
    want = np.cos(phi) * ref.rotate(fprim.points, phi)
    both("front slant = cos phi R(phi) primitive",
         lambda pts: checks.same_points("slant", pts, want, sl.ok & fprim.ok,
                                        checks.EXACT_REL),
         sl.points, checks.perturbed(sl.points))
    env_mod = sys.modules["pedalkit.envelope"]
    env = env_mod.envelope(env_mod.make_family("primitive", front))
    both("front envelope = primitive",
         lambda pts: checks.same_points("envelope", pts, fprim.points,
                                        env.ok & fprim.ok, checks.ENVELOPE_REL),
         env.points, checks.perturbed(env.points, 1e-7))
    back = tr.mapped_pedal(fprim)
    mask = verify.stable_mask(fprim) & back.ok
    both("front pedal of primitive = curve",
         lambda pts: checks.same_points("pedal of primitive", pts,
                                        ref.JETS["front"](fprim.grid)[0], mask,
                                        checks.INVERSE_PAIR_ABS, relative=False),
         back.points, checks.perturbed(back.points, 1e-5))

    pe = tr.pedal(ellipse)
    path = os.path.join(OUT, "pedal.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        render.write_mapped_csv(pe, fh)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    moved = lines.copy()
    t_, x_, y_, flag = moved[N // 2].split(",")
    moved[N // 2] = f"{t_},{float(x_) + 1e-6!r},{y_},{flag}"
    csv = lambda text: checks.transform_csv(_write(os.path.join(OUT, "x.csv"), text),  # noqa: E731
                                            "pedal", N)
    both("transform CSV, one point moved", csv, "".join(lines), "".join(moved))
    both("transform CSV, one row dropped", csv, "".join(lines),
         "".join(lines[:10] + lines[11:]))

    spec = render.PlotSpec([render.overlay_from_mapped(pe)])
    svg_text = render.render_svg(spec)
    svg = lambda text: checks.svg_file(_write(os.path.join(OUT, "x.svg"), text))  # noqa: E731
    both("SVG, truncated", svg, svg_text, svg_text[: len(svg_text) // 2])

    report = verify.run_suite("all", builtin_curve("circle")).format()
    rows = report.splitlines()
    worse = rows.copy()
    worse[2] = re.sub(r"residual\s+\S+", "residual  1.00000e+00", worse[2])
    both("verify report, one residual over its tolerance",
         lambda text: checks.verify_report(0, text), report, "\n".join(worse))
    dropped = [r for r in rows if "legendrian residual" not in r]
    both("verify report, a suite missing",
         lambda text: checks.verify_report(0, text), report, "\n".join(dropped))

    path = os.path.join(OUT, "cusps.tsv")
    pedalkit.cli.main(["detect", "--curve", "ellipse", "--samples", str(N),
                       "--what", "primitive-cusps", "--out", path])
    with open(path, encoding="utf-8") as fh:
        cusps = fh.read().splitlines(keepends=True)
    shifted = cusps.copy()
    kind, t0, rest = shifted[0].split("\t", 2)
    shifted[0] = f"{kind}\t{float(t0) + 1e-4!r}\t{rest}"
    detect = lambda text: checks.detect_rows(_write(os.path.join(OUT, "x.tsv"), text),  # noqa: E731
                                             "ellipse", "primitive-cusps")
    both("detect cusps, one root moved", detect, "".join(cusps), "".join(shifted))
    both("detect cusps, one root dropped", detect, "".join(cusps), "".join(cusps[1:]))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    reported = {
        "workloads": list(run.WORKLOADS),
        "end_to_end": [(name, unit) for name, unit in run.END_TO_END],
        "per_layer": [(m[0], m[1]) for m in tracer.METRICS]
        + [("trace.spans", "count"), ("trace.overhead_ms", "ms")],
    }
    listed = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    expect("BENCHMARK.json lists what run.py reports",
           [key for key in reported if reported[key] != listed[key]], True)

    print(f"{len(failures)} case(s) misbehaved" if failures else "all cases behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
