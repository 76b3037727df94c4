"""The benchmark's hooks into pedalkit: the names its tracer wraps
exist, and its output checks pass their self-test.  Nothing under
bench/ is changed; the self-test writes its files to .bench_out/."""

import importlib
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "pedalkit_bench_tracer", os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    missing = []
    for module, attr, _layer in _load_tracer().WRAPPED:
        obj = importlib.import_module(f"pedalkit.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join(BENCH, "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
