"""pedalkit benchmark: whole passes of the certify, sweep and emit workloads.

    python3 bench/run.py --workload certify|sweep|emit --seed N \
        --seconds S --trace 0|1

Runs passes of the workload, each in a fresh interpreter started after
the previous one has ended, until S seconds have passed (at least
MIN_PASSES).  Every output of every pass is checked, and the outputs
must be byte-identical across the passes of a run.  The last line of
standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 reports the end-to-end metrics, each the median over passes
of a whole-pass figure.  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics (medians over traced passes)
and the tracing overhead.  Spans and outputs go to .bench_out/ at the
root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify", "sweep", "emit")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# a run must end within 180 s: no pass starts that could end after this
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("pass_cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def run_pass(workload, seed, index, traced, out, deadline) -> dict:
    result = os.path.join(out, f"pass{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "onepass.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(index), "--trace", str(int(traced)),
           "--out", os.path.join(out, "files"), "--result", result]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"pass {index} did not end before the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"pass {index} exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    res["traced"] = traced
    res["wall_s"] = time.perf_counter() - started
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "pedalkit", "__init__.py")):
        print(f"bench: no pedalkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    out = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(os.path.join(out, "files"))

    start = time.monotonic()
    deadline = start + DEADLINE_S
    passes = []
    min_passes = 2 * MIN_TRACED_PAIRS if args.trace else MIN_PASSES
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        res = run_pass(args.workload, args.seed, len(passes), traced, out, deadline)
        passes.append(res)
        print(f"pass {len(passes) - 1}{' traced' if traced else ''}: "
              f"setup {res['setup_s']:.3f} s, pass {res['pass_s']:.3f} s, "
              f"cpu {res['pass_cpu_s']:.3f} s, rss {res['peak_rss_mb']:.1f} MB",
              file=sys.stderr)
        now = time.monotonic()
        whole = len(passes) % 2 == 0 or not args.trace
        if whole and len(passes) >= min_passes and now - start >= args.seconds:
            break
        if now + 1.5 * max(p["wall_s"] for p in passes) > deadline:
            if len(passes) < min_passes or not whole:
                print("bench: the deadline leaves no room for the minimum passes",
                      file=sys.stderr)
                return 1
            break

    problems = [p for res in passes for p in res["problems"]]
    failures = [f for res in passes for f in res["failures"]]
    first = passes[0]["digests"]
    for i, res in enumerate(passes[1:], start=1):
        for label, digest in res["digests"].items():
            if first.get(label, digest) != digest:
                problems.append(f"{label}: output of pass {i} differs from pass 0")
    for line in sorted(set(problems)) + sorted(set(failures)):
        print(f"bench: {line}", file=sys.stderr)

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {}
        for name, m in traced[0]["layers"].items():
            # counts repeat exactly across passes; keep them whole numbers
            median = statistics.median if m["unit"] == "ms" else statistics.median_low
            metrics[name] = {"value": median(p["layers"][name]["value"] for p in traced),
                             "unit": m["unit"]}
        overhead = (statistics.median(p["pass_s"] for p in traced)
                    - statistics.median(p["pass_s"] for p in plain))
        metrics["trace.overhead_ms"] = {"value": 1e3 * overhead, "unit": "ms"}
    else:
        metrics = {name: {"value": statistics.median(p[name] for p in plain), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
