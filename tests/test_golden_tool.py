import importlib.util
import os
import subprocess
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "golden.py")


@pytest.mark.parametrize("args", [["--help"], ["-h"], ["--compare", "a", "--help"],
                                  ["--compare", "a"], [], ["a", "b"]])
def test_golden_prints_its_usage_and_writes_nothing(tmp_path, args):
    done = subprocess.run([sys.executable, GOLDEN] + args, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "tools/golden.py OUTDIR" in done.stderr and "--compare A B" in done.stderr
    assert done.stdout == ""
    assert os.listdir(tmp_path) == []


def test_residual_file_holds_the_repr_of_every_row(tmp_path, monkeypatch):
    from pedalkit.curve import builtin_curve
    from pedalkit.verify import run_suite

    spec = importlib.util.spec_from_file_location("golden", GOLDEN)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    monkeypatch.chdir(tmp_path)
    golden.write_residuals("residuals.txt", ["circle"])
    with open(tmp_path / "residuals.txt", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    expected = [f"circle {samples or 'default'} | {r.name} | {r.residual!r}"
                for samples in golden.RESIDUAL_SAMPLES
                for r in run_suite("all", builtin_curve("circle", samples)).results]
    assert lines == expected


# the exit codes of transform --kind pedal, transform --kind primitive and
# verify --suite all: the focal ellipse passes (its primitive's singular
# points at t = pi, where the osculating circle of the far vertex passes
# through the origin and kappa' = 0, are labelled degenerate), the line
# fails two inverse-pair rows (its pedal is a single point), the deltoid
# the frontal row "degenerate composition: both sides vanish" (rounding
# near a pole of the inner primitivoid against an absolute tolerance),
# and the diagonal through the origin the rows that compare no sample, as
# <g, nu> = 0 leaves some frames with no ok, finite row
CLASSICAL_EXITS = {"focal-ellipse.curve": (0, 0, 0), "line.curve": (0, 0, 1),
                   "diagonal.curve": (0, 0, 1), "astroid.curve": (0, 0, 0),
                   "deltoid.curve": (0, 0, 1)}


def test_classical_curve_verdicts_are_pinned(tmp_path, monkeypatch):
    from pedalkit.cli import main

    spec = importlib.util.spec_from_file_location("golden", GOLDEN)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    assert set(golden.CLASSICAL) == set(CLASSICAL_EXITS)
    monkeypatch.chdir(tmp_path)
    for path, text in golden.CLASSICAL.items():
        (tmp_path / path).write_text(text)
        exits = tuple(main(["transform", "--curve", path, "--kind", kind])
                      for kind in ("pedal", "primitive"))
        exits += (main(["verify", "--curve", path, "--suite", "all"]),)
        assert exits == CLASSICAL_EXITS[path], path
