"""Write golden CLI outputs of pedalkit to a directory.

    PYTHONPATH=<checkout>/src python3 tools/golden.py OUTDIR

Runs `pedalkit.cli.main` in-process and writes what each command prints
(stdout, stderr and exit code) to one file per command:

- `transform` for every kind on the built-in curves (`--angle 0.4` for
  pedaloid and slant, slant also at pi/2, `--ratio 2` for parallel);
- `plot --figure N` for every gallery figure;
- `verify --suite all` on the built-ins and on the inverted ellipse and
  offset circle, passed as curve files written with `format_curve`;
- `detect` for every kind on the built-ins, at the default sample count
  and at 65536 samples.

Running it against two checkouts and comparing the directories with
`diff -r` shows whether a change altered any of these outputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

from pedalkit.cli import DETECT_KINDS, main
from pedalkit.curve import BUILTIN_NAMES, builtin_curve, format_curve
from pedalkit.figures import FIGURE_NUMBERS
from pedalkit.transforms import TRANSFORM_KINDS, invert_curve

# extra arguments per transform kind; one output per entry
TRANSFORM_ARGS = {
    "pedaloid": (["--angle", "0.4"],),
    "slant": (["--angle", "0.4"], ["--angle", "1.5707963267948966"]),
    "parallel": (["--ratio", "2"],),
}

INVERTED = ("ellipse", "offset_circle")

DETECT_SAMPLES = (None, 65536)


def run(name: str, argv: list[str]) -> None:
    """Run one command and write its stdout, stderr and exit code to
    the file `name` in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    with open(name, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"$ pedalkit {' '.join(argv)}\nexit {code}\n")
        fh.write("--- stderr\n" + err.getvalue())
        fh.write("--- stdout\n" + out.getvalue())


def write_goldens(outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    # curve files are passed by relative path, so outputs do not name outdir
    os.chdir(outdir)
    for curve in BUILTIN_NAMES:
        for kind in TRANSFORM_KINDS:
            for i, extra in enumerate(TRANSFORM_ARGS.get(kind, ([],))):
                run(f"transform-{curve}-{kind}-{i}.txt",
                    ["transform", "--curve", curve, "--kind", kind] + extra)
    for number in FIGURE_NUMBERS:
        run(f"figure-{number}.txt", ["plot", "--figure", str(number)])
    curves = list(BUILTIN_NAMES)
    for name in INVERTED:
        path = f"inv-{name}.curve"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_curve(invert_curve(builtin_curve(name))))
        curves.append(path)
    for curve in curves:
        run(f"verify-{curve}.txt", ["verify", "--curve", curve, "--suite", "all"])
    for curve in BUILTIN_NAMES:
        for what in DETECT_KINDS:
            for samples in DETECT_SAMPLES:
                extra = [] if samples is None else ["--samples", str(samples)]
                run(f"detect-{curve}-{what}-{samples or 'default'}.txt",
                    ["detect", "--curve", curve, "--what", what] + extra)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(write_goldens(sys.argv[1]))
