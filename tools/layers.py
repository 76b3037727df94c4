"""Time pedalkit layer by layer and record the numbers in a BENCH_<n>.json.

    python3 tools/layers.py OUT.json [--checkout DIR] [--samples N ...] [--runs R]

Measures the pedalkit of the checkout DIR (by default the one holding
this file) and adds its record to OUT.json, replacing a record with the
same label: the short git SHA of DIR, with "-dirty" if its `src/`
differs from that commit.  Running it on two checkouts into one file
gives a before/after pair.

Eight layers are measured so far.  The output layer:
`render.write_mapped_csv` (the CSV of `transform`) and
`render.render_to_file` (its SVG), on the primitive of the built-in
ellipse at each sample count (default 2^16 and 2^20).  The singularity
layer: the root scan `singularity.primitive_singularities`, and the
scalar `singularity.classify_cusp` at t0 = 0.42, on the built-in
ellipse with each sample count as its default.  The sampled paths of
the inverse-pair check, `transforms.mapped_pedal` and
`verify.stable_mask`, on that primitive of the ellipse, and the
oracle's `envelope.envelope` of the ellipse's primitive line family,
with each sample count as the ellipse's default.  The frames:
`transforms.frenet_frame`, the order-1 frame of the built-in front on
the explicit grid of each sample count, which is built anew on each
call, and `curve.frenet_grid`, its order-3 grid there.  And
`frontal.lift_front` on the built-in front at 2048 samples, whatever
the sample counts asked for; and `verify._plane_inversion_rows`, the
inversion rows that do not depend on the curve, over its
`verify.PLANE_POINTS` plane points whatever the sample counts, each
call through the uncached function.  The jet walk: `curve._jets_xy`
at orders 1 and 3 over the grid of each sample count, on the built-in front and
on the inverted front, written with `format_curve` and parsed back, so
that x and y share the nodes of a parsed tree.  Each (function,
samples) case, and each curve and order of the jet walk, runs in a
fresh child process, which

- builds its input (the mapped curve and, for the SVG, its overlay;
  the curve for the singularity layer, the envelope, the frames, the
  lift and the jet walk, and the grid of the frames and the walk) untimed;
- makes one cold call, which for a writer also builds the formatting
  tables, for classify_cusp the frame the curve keeps, and for the
  envelope the default grid the curve keeps;
- makes R more calls (default 7) and reports their median and
  quartiles (`statistics.quantiles`, n=4, inclusive), and the minor
  page faults (`ru_minflt`) of each timed call, the cold one first;
- makes one more call under `tracemalloc`, started just before it, and
  reports the peak of the memory traced: the call's own temporaries;
- reports its peak resident memory (`VmHWM`) after the last call,
  which is mostly that of building the mapped curve, and the bytes
  written (for the root scan: the number of roots; for classify_cusp:
  its label; for the lift: the number of flips; for mapped_pedal and
  the envelope: the number of ok rows; for stable_mask: the number of
  stable rows; for the frames: the number of rows with a finite
  normal; for the jet walk: the number of rows whose every jet is
  finite; for the plane inversion rows: the number of rows, and
  whether the calls imported `numpy.random`).

Files are written to a temporary directory that is removed afterwards.
A record also holds the git SHA of DIR, whether its `src/` differs from
that commit, a SHA-256 of its `src/pedalkit/*.py` and their line count
(`src_lines`, the total of `wc -l`), and the numpy and
Python versions and CPU count of the host.  There is no wall-time gate:
the numbers describe one machine.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
FUNCTIONS = ("write_mapped_csv", "render_to_file", "primitive_singularities", "classify_cusp",
             "mapped_pedal", "stable_mask", "envelope", "frenet_frame", "frenet_grid")
CLASSIFY_T0 = 0.42
LIFT_SAMPLES = 2048
PLANE_POINTS = 1_000_000  # verify.PLANE_POINTS; this process imports no pedalkit
# the jet walk cases: (curve, order)
JET_CASES = (("front", 1), ("front", 3), ("inv-front", 1), ("inv-front", 3))


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def child(function: str, samples: int, runs: int, tmpdir: str, *jet_case: str) -> dict:
    """One case, in this process: the pedalkit on sys.path is measured.
    jet_case is the curve and order of a `_jets_xy` case."""
    from pedalkit import frontal, render, singularity, transforms, verify
    from pedalkit.curve import (_jets_xy, builtin_curve, format_curve, frenet_grid, parse_curve,
                                sample_grid)
    from pedalkit.envelope import envelope, make_family

    path = os.path.join(tmpdir, f"{function}-{samples}")
    if function == "_jets_xy":
        name, order = jet_case[0], int(jet_case[1])
        walked = builtin_curve("front")
        if name == "inv-front":
            walked = parse_curve(format_curve(transforms.invert_curve(walked)))
        grid = sample_grid(walked, samples)

        def call():
            return _jets_xy(walked, grid, order)
    elif function in ("frenet_frame", "frenet_grid"):
        front = builtin_curve("front")
        grid = sample_grid(front, samples)
        build = transforms.frenet_frame if function == "frenet_frame" else frenet_grid

        def call():
            return build(front, grid)
    elif function == "lift_front":
        front = builtin_curve("front", samples=samples)

        def call():
            return frontal.lift_front(front)
    elif function == "primitive_singularities":
        ellipse = builtin_curve("ellipse", samples=samples)

        def call():
            return singularity.primitive_singularities(ellipse)
    elif function == "classify_cusp":
        ellipse = builtin_curve("ellipse", samples=samples)

        def call():
            return singularity.classify_cusp(ellipse, CLASSIFY_T0)
    elif function == "envelope":
        ellipse = builtin_curve("ellipse", samples=samples)

        def call():
            return envelope(make_family("primitive", ellipse))
    elif function == "_plane_inversion_rows":
        call = verify._plane_inversion_rows.__wrapped__
    else:
        curve = builtin_curve("ellipse")
        mc = transforms.primitive(curve, sample_grid(curve, samples))
        if function == "mapped_pedal":
            def call():
                return transforms.mapped_pedal(mc)
        elif function == "stable_mask":
            def call():
                return verify.stable_mask(mc)
        elif function == "write_mapped_csv":
            def call():
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    render.write_mapped_csv(mc, fh)
        else:
            spec = render.PlotSpec([render.overlay_from_mapped(mc)])

            def call():
                render.render_to_file(spec, path)
    times, faults = [], []
    for _ in range(runs + 1):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    cold, warm = times[0], times[1:]
    q1, _, q3 = (statistics.quantiles(warm, n=4, method="inclusive") if len(warm) > 1
                 else (warm[0],) * 3)
    tracemalloc.start()  # traces only what is allocated from here on
    call()
    call_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    if function == "_jets_xy":
        finite = numpy.logical_and.reduce([numpy.isfinite(d).all(axis=1) for d in result])
        out = {"layer": "curve", "function": function, "samples": samples, "curve": name,
               "order": order, "finite_rows": int(finite.sum())}
    elif function == "_plane_inversion_rows":
        out = {"layer": "verify", "function": function, "samples": samples, "rows": len(result),
               "numpy_random": "numpy.random" in sys.modules}
    elif function in ("frenet_frame", "frenet_grid"):
        nu = result.nu if function == "frenet_frame" else result.n_hat
        out = {"layer": "frames", "function": function, "samples": samples,
               "normal_rows": int(numpy.isfinite(nu).all(axis=1).sum())}
    elif function == "lift_front":
        out = {"layer": "frontal", "function": function, "samples": samples,
               "flips": len(result.flips)}
    elif function == "primitive_singularities":
        out = {"layer": "singularity", "function": function, "samples": samples,
               "roots": len(result)}
    elif function == "classify_cusp":
        out = {"layer": "singularity", "function": function, "samples": samples,
               "t0": CLASSIFY_T0, "label": result.label}
    elif function == "stable_mask":
        out = {"layer": "verify", "function": function, "samples": samples,
               "stable_rows": int(result.sum())}
    elif function in ("mapped_pedal", "envelope"):
        out = {"layer": "transforms" if function == "mapped_pedal" else "envelope",
               "function": function, "samples": samples, "ok_rows": int(result.ok.sum())}
    else:
        out = {"layer": "render", "function": function, "samples": samples,
               "bytes": os.path.getsize(path)}
    return {**out, "cold_s": round(cold, 6), "median_s": round(statistics.median(warm), 6),
            "q1_s": round(q1, 6), "q3_s": round(q3, 6), "runs": runs, "minflt": faults,
            "call_peak_mb": round(call_peak / 2**20, 4), "peak_rss_mb": round(peak_rss_mb(), 1)}


def git(checkout: str, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                              text=True, timeout=60)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def record(checkout: str, samples: list[int], runs: int) -> dict:
    src = os.path.join(checkout, "src")
    digest, src_lines = hashlib.sha256(), 0
    for path in sorted(glob.glob(os.path.join(src, "pedalkit", "*.py"))):
        with open(path, "rb") as fh:
            text = fh.read()
        digest.update(os.path.basename(path).encode() + b"\0" + text)
        src_lines += text.count(b"\n")  # as wc -l counts them
    sha = git(checkout, "rev-parse", "HEAD")
    status = git(checkout, "status", "--porcelain", "--", "src")
    results = []
    cases = [(function, n) for n in samples for function in FUNCTIONS]
    cases.append(("lift_front", LIFT_SAMPLES))
    cases.append(("_plane_inversion_rows", PLANE_POINTS))
    cases += [("_jets_xy", n, name, str(order)) for n in samples for name, order in JET_CASES]
    with tempfile.TemporaryDirectory() as tmpdir:
        for function, n, *jet_case in cases:
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", function, str(n),
                 str(runs), tmpdir, *jet_case],
                capture_output=True, text=True, timeout=3600,
                env={**os.environ, "PYTHONPATH": src})
            if done.returncode != 0:
                raise SystemExit(f"{function} {' '.join(jet_case)} at {n} samples failed:\n"
                                 f"{done.stderr}")
            results.append(json.loads(done.stdout.splitlines()[-1]))
            print(f"{function:>16} {' '.join(jet_case):>11} {n:>8}: "
                  f"median {results[-1]['median_s']:.4f} s, "
                  f"call peak {results[-1]['call_peak_mb']} MB", file=sys.stderr)
    label = (sha[:7] if sha else os.path.basename(checkout)) + ("-dirty" if status else "")
    return {"label": label, "git_sha": sha, "src_differs_from_commit": bool(status),
            "src_sha256": digest.hexdigest(), "src_lines": src_lines, "numpy": numpy.__version__,
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "results": results}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        function, n, runs, tmpdir, *jet_case = argv[1:]
        print(json.dumps(child(function, int(n), int(runs), tmpdir, *jet_case)))
        return 0
    ap = argparse.ArgumentParser(prog="tools/layers.py", description=__doc__.split("\n")[0])
    ap.add_argument("out", metavar="OUT.json")
    ap.add_argument("--checkout", default=os.path.dirname(HERE))
    ap.add_argument("--samples", type=int, nargs="+", default=[1 << 16, 1 << 20])
    ap.add_argument("--runs", type=int, default=7)
    args = ap.parse_args(argv)
    if args.runs < 1 or min(args.samples) < 16:
        ap.error("need --runs >= 1 and --samples >= 16")
    rec = record(os.path.abspath(args.checkout), args.samples, args.runs)
    data = {"records": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            data = json.load(fh)
    data["records"] = [r for r in data["records"] if r["label"] != rec["label"]] + [rec]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
