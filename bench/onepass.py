"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/onepass.py --workload W --seed N --pass-index K \
        --trace 0|1 --out DIR --result FILE

Times the set-up (from just before `import pedalkit` until the inputs
are built) and the operation list, checks every output with the clock
stopped, and writes one JSON object to FILE.  With --trace 1 the pass
also records spans around pedalkit's public functions and writes them
to spans-pass<K>.npz next to FILE.  `run.py` starts the passes one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def cpu_seconds() -> float:
    """User + system time of this process and the processes it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """High-water resident set of this process.  VmHWM is this process's
    own peak; ru_maxrss can carry the peak of the process that forked it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import pedalkit
    import pedalkit.cli  # noqa: F401  (the command line is part of the workloads)
    if os.path.dirname(os.path.dirname(os.path.abspath(pedalkit.__file__))) != SRC:
        raise SystemExit(f"imported pedalkit from {pedalkit.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(args.pass_index)
        tracer.install()
    import workloads
    ops = workloads.build(args.workload, args.seed, args.out)
    setup_s = time.perf_counter() - t0

    pass_s = pass_cpu_s = 0.0
    failures, problems, digests, op_s = [], [], {}, {}
    for op in ops:
        c0, w0 = cpu_seconds(), time.perf_counter()
        try:
            value = op.run()
        except Exception as exc:  # any error of the program fails this operation only
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        finally:
            op_s[op.label] = time.perf_counter() - w0
            pass_s += op_s[op.label]
            pass_cpu_s += cpu_seconds() - c0
        if tracer:
            tracer.recording = False
        problems += [f"{op.label}: {p}" for p in op.check(value)]
        digests[op.label] = op.digest(value)
        del value
        if tracer:
            tracer.recording = True
    result = {
        "setup_s": setup_s, "pass_s": pass_s, "pass_cpu_s": pass_cpu_s,
        "peak_rss_mb": peak_rss_mb(), "attempted": len(ops),
        "failures": failures, "problems": problems, "digests": digests, "op_s": op_s,
    }
    if tracer:
        tracer.recording = False
        tracer.dump(os.path.join(os.path.dirname(args.result),
                                 f"spans-pass{args.pass_index}.npz"))
        result["layers"] = tracer.metrics()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
