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
