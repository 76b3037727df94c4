"""Write golden CLI outputs of pedalkit to a directory.

    PYTHONPATH=<checkout>/src python3 tools/golden.py OUTDIR

Runs `pedalkit.cli.main` in-process and writes what each command prints
(stdout, stderr and exit code) to one file per command:

- `transform` for every kind on the built-in curves (`--angle 0.4` for
  pedaloid and slant, slant also at pi/2, `--ratio 2` for parallel);
- `transform --kind primitive --samples 10000 --svg FILE` on the
  ellipse and on an open parabola arc written as a curve file, whose
  end rows are undefined and left out of its polyline: CSV and SVG
  that span several write blocks (the SVG is a file of its own);
- `transform --kind pedal --samples 64 --svg FILE` on an ellipse of
  radius 1e290 written as a curve file: CSV and SVG numbers beyond the
  exponent range of the numpy formatter, which Python formats instead;
- `transform --kind primitive|antipedal --samples 20000` on the front:
  frames that span two jet blocks, with flags that depend on the
  denominator guard scale eps_d;
- `transform --kind slant --angle 0.4 --samples 40000` on the open
  parabola arc: a kernel run over two full blocks and a partial third,
  with undefined end rows;
- `plot --figure N` for every gallery figure;
- `plot --curve` with source, primitive and slant overlays and 64
  family lines, on the ellipse and on an open ellipse arc written as a
  curve file;
- `plot --curve --samples 65536` with the source overlay on the
  inverted front written as a curve file: a position walk over the
  shared nodes of a parsed tree that spans four jet blocks;
- `verify --suite all` on the built-ins, on the inverted ellipse and
  offset circle, passed as curve files written with `format_curve`, and
  on the open ellipse and parabola arcs (the open-grid branches of the
  singularity and frontal suites);
- `transform --kind pedal|primitive` and `verify --suite all` on the
  curves of the classical oracles written as curve files: the ellipse
  with a focus at the origin, the line x = 1 and the astroid, and on a
  deltoid whose three cusps fall between samples and whose lifted
  normal comes back as -nu round the seam of its closed grid
  (twist -1), and on the diagonal x = t, y = t through the origin, whose
  every <g, nu> is 0, so that some frames have no ok, finite row and a
  guard scale of 0; and `detect --what primitive-cusps` on the focal ellipse,
  whose primitive has degenerate singular points next to t = pi, where
  the osculating circle passes through the origin and kappa' = 0;
- `verify --suite frontal` and `verify --suite all`, both at `--samples
  4097`, on the open arc x = t^3, y = t^4 + 1 written as a curve file:
  d1 and d2 vanish at its sample t = 0, where the lift fails, with exit
  3 for the frontal suite alone, and the suite is skipped inside all;
- `verify-residuals.txt`: the `repr` of every residual of
  `run_suite("all")` on those eight curves, at their default sample
  count and at 4096 samples, one line per row, so that a residual that
  changes in its last bit shows in the comparison;
- `transform --kind primitive --samples 40000` and `verify --suite
  all` on a closed Fourier curve written as a curve file, whose x and y
  take cos(k t) and sin(k t) for k = 1..6, twelve terms over six
  arguments: a jet walk over three blocks that drops the jets of each
  argument, and its sin and cos, once their last reader is computed;
- `verify --suite oracle --samples 40000` on the ellipse and the front:
  envelopes that span three solve blocks; and at 1048576 samples on the
  ellipse, whose maxima are taken over 64 blocks;
- `verify --suite inverse-pair --samples 40000` on the ellipse and the
  front: polyline frames and the kernels on them over three blocks; and
  on the open ellipse and parabola arcs, whose block halos clip at the
  open ends (the parabola arc exits 1);
- `verify --suite frontal --samples 40000` on the deltoid: the stencils
  on its lifted normal wrap round the seam of a long grid with twist -1
  (it exits 1 on "degenerate composition: both sides vanish");
- `detect` for every kind on the built-ins, at the default sample count
  and at 65536 samples; on the ellipse and the front at 40000 samples,
  a root scan over two full jet blocks and a partial third; and on the
  inverted ellipse and the open ellipse and parabola arcs, whose grids
  have no closing cell;
- `detect` for every kind on two ellipses with a vertex at the seam of
  their closed grids, written as curve files (the ellipse rotated by 2
  and the ellipse traced backwards), at the default sample count and at
  40000 samples: at 1024 samples the rotated ellipse's vertex at
  6.28318530718 lies in the closing cell from the last sample to 2 pi;
- input errors: `transform --kind pedal` on curve files whose x is
  nested 400 parentheses deep, that are not UTF-8, whose x multiplies
  by '²' (a digit to str.isdigit(), not to float()), whose x holds the
  literal 1e999, beyond float range, whose name is an unterminated
  quote that holds a '#', whose t_min holds a '$' after blanks and
  whose t_max depends on t; and `transform --kind pedal --angle`, a
  parameter the kind does not take.

Running it against two checkouts and comparing the directories shows
whether a change altered any of these outputs:

    python3 tools/golden.py --compare A B

compares two such directories file by file, read as UTF-8 with any
other byte kept as it is.  Each file is split into numeric fields and
the text between them.  A file whose text differs, or that is in one
directory only, is reported as a text difference;
for a file whose numbers alone differ it prints how many fields
differ and the largest relative change |a - b| / max(|a|, |b|), with
the line it is on (a field that differs only in the sign of a zero
counts, with change 0).  The exit code is 1 if any text differs, else
0.  Any other argument that starts with "-" (such as --help), or a
wrong number of arguments, prints the usage and exits 2, writing
nothing.

A command that raises instead of returning an exit code gets `exit
traceback <ExceptionType>`, without the stack, so that the file stays
the same from run to run and the run goes on.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import sys

# extra arguments per transform kind; one output per entry
TRANSFORM_ARGS = {
    "pedaloid": (["--angle", "0.4"],),
    "slant": (["--angle", "0.4"], ["--angle", "1.5707963267948966"]),
    "parallel": (["--ratio", "2"],),
}

INVERTED = ("ellipse", "offset_circle")

DETECT_SAMPLES = (None, 65536)

# the plot --curve cases: one closed and one open curve, since the
# family-line grid of render_svg differs between the two
PLOT_ARGS = ["--overlay", "source", "--overlay", "primitive",
             "--overlay", "slant:0.4", "--family-lines", "64"]
OPEN_ARC = ("x = cos(t)\ny = sin(t)/sqrt(3)\nt_min = 0.3\nt_max = 5\n"
            "closed = false\n")

# the plot case of the parsed inverted front: four jet blocks
INV_FRONT_SAMPLES = "65536"

# the transform --svg cases: more samples than one write block holds
BLOCK_SAMPLES = "10000"
PARABOLA_ARC = "x = t\ny = t^2 + 1\nt_min = -1\nt_max = 1\nclosed = false\n"

# the transform --svg case whose numbers the numpy formatter leaves to Python
HUGE_ELLIPSE = "x = 1e290*cos(t)\ny = 1e290*sin(t)/sqrt(3)\nt_min = 0\nt_max = 2*pi\n"

# the two-jet-block transform cases on the front, whose flags depend on eps_d
JET_BLOCKS_SAMPLES = "20000"
JET_BLOCKS_KINDS = ("primitive", "antipedal")

# the input-error cases: curve files by name and content, and arguments
ERROR_FILES = {
    "nested.curve": ("x = " + "(" * 400 + "cos(t)" + ")" * 400
                     + "\ny = sin(t)\nt_min = 0\nt_max = 2*pi\n").encode(),
    "not-utf8.curve": b'name = "\xff\xfe"\nx = cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*pi\n',
    "superscript.curve": "x = cos(t)*²\ny = sin(t)\nt_min = 0\nt_max = 2*pi\n".encode(),
    "overflow.curve": b"x = 1e999*cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*pi\n",
    "unterminated-quote.curve": (b'name = "a#b  # note\nx = cos(t)\ny = sin(t)\n'
                                 b"t_min = 0\nt_max = 2*pi\n"),
    "t_min-bad-character.curve": b"x = cos(t)\ny = sin(t)\nt_min =   0 + $\nt_max = 2*pi\n",
    "t_max-not-constant.curve": b"x = cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*t\n",
}
ERROR_ARGS = ["transform", "--curve", "ellipse", "--kind", "pedal", "--angle", "0.3"]

# the verify --suite oracle and inverse-pair cases, the frontal case of
# the deltoid, the slant of the parabola arc and the detect cases on the
# ellipse and the front: more samples than two blocks hold
ORACLE_SAMPLES = "40000"
# and the one at 2^20 samples
LARGE_ORACLE_SAMPLES = "1048576"

# the detect cases of the ellipses with a vertex at the seam: the
# reversed one (the rotated one is written with format_curve)
REVERSED_ELLIPSE = "x = cos(-t)\ny = sin(-t)/sqrt(3.0)\nt_min = -2*pi\nt_max = 0\n"

# the curves of the classical oracles, the diagonal and the deltoid, as curve files
CLASSICAL = {
    "focal-ellipse.curve": "x = -1 + 2*cos(t)\ny = sqrt(3)*sin(t)\nt_min = 0\nt_max = 2*pi\n",
    "line.curve": "x = 1\ny = t\nt_min = -2\nt_max = 2\nclosed = false\n",
    "diagonal.curve": "x = t\ny = t\nt_min = -1\nt_max = 1\nclosed = false\n",
    "astroid.curve": "x = cos(t)^3\ny = sin(t)^3\nt_min = 0\nt_max = 2*pi\n",
    "deltoid.curve": ("x = 3 + 2*cos(t+0.1) + cos(2*t+0.2)\ny = 2*sin(t+0.1) - sin(2*t+0.2)\n"
                      "t_min = 0\nt_max = 2*pi\n"),
}

# the lift failure case: d1 = d2 = 0 at t = 0, sample 2048 of 4097
FLAT_CUSP = "x = t^3\ny = t^4 + 1\nt_min = -1\nt_max = 1\nclosed = false\n"
FLAT_CUSP_SAMPLES = "4097"

# a closed Fourier curve: twelve trigonometric terms over six arguments
FOURIER = ("x = cos(t) + 0.05*cos(2*t) + 0.02*sin(3*t) + 0.01*cos(4*t) + 0.005*sin(5*t)"
           " + 0.003*cos(6*t)\n"
           "y = sin(t) + 0.05*sin(2*t) - 0.02*cos(3*t) + 0.01*sin(4*t) - 0.005*cos(5*t)"
           " + 0.003*sin(6*t)\n"
           "t_min = 0\nt_max = 2*pi\n")

# the sample counts of verify-residuals.txt; None is the curve's own
RESIDUAL_SAMPLES = (None, 4096)


def run(name: str, argv: list[str]) -> None:
    """Run one command and write its stdout, stderr and exit code to
    the file `name` in the current directory."""
    from pedalkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:
            code = f"traceback {type(exc).__name__}"
    with open(name, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"$ pedalkit {' '.join(argv)}\nexit {code}\n")
        fh.write("--- stderr\n" + err.getvalue())
        fh.write("--- stdout\n" + out.getvalue())


def write_residuals(name: str, specs: list[str]) -> None:
    """Write the repr of every residual of run_suite("all") on the curves
    named by specs (built-in names or curve files) at RESIDUAL_SAMPLES,
    one line per row, to the file `name` in the current directory."""
    from pedalkit.cli import _resolve_curve
    from pedalkit.verify import run_suite

    with open(name, "w", encoding="utf-8", newline="\n") as fh:
        for samples in RESIDUAL_SAMPLES:
            for spec in specs:
                head = f"{spec} {samples or 'default'} |"
                try:
                    rows = run_suite("all", _resolve_curve(spec, samples)).results
                except Exception as exc:
                    fh.write(f"{head} traceback {type(exc).__name__}\n")
                    continue
                fh.writelines(f"{head} {r.name} | {r.residual!r}\n" for r in rows)


def write_goldens(outdir: str) -> int:
    # imported here so that --compare runs without pedalkit
    from pedalkit.cli import DETECT_KINDS
    from pedalkit.curve import BUILTIN_NAMES, builtin_curve, format_curve
    from pedalkit.figures import FIGURE_NUMBERS
    from pedalkit.transforms import TRANSFORM_KINDS, invert_curve, transform_curve

    os.makedirs(outdir, exist_ok=True)
    # curve files are passed by relative path, so outputs do not name outdir
    os.chdir(outdir)
    for curve in BUILTIN_NAMES:
        for kind in TRANSFORM_KINDS:
            for i, extra in enumerate(TRANSFORM_ARGS.get(kind, ([],))):
                run(f"transform-{curve}-{kind}-{i}.txt",
                    ["transform", "--curve", curve, "--kind", kind] + extra)
    with open("parabola-arc.curve", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(PARABOLA_ARC)
    for curve in ("ellipse", "parabola-arc.curve"):
        name = f"transform-{curve}-primitive-{BLOCK_SAMPLES}"
        run(f"{name}.txt", ["transform", "--curve", curve, "--kind", "primitive",
                            "--samples", BLOCK_SAMPLES, "--svg", f"{name}.svg"])
    with open("huge-ellipse.curve", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(HUGE_ELLIPSE)
    run("transform-huge-ellipse.curve-pedal-64.txt",
        ["transform", "--curve", "huge-ellipse.curve", "--kind", "pedal", "--samples", "64",
         "--svg", "transform-huge-ellipse.curve-pedal-64.svg"])
    for kind in JET_BLOCKS_KINDS:
        run(f"transform-front-{kind}-{JET_BLOCKS_SAMPLES}.txt",
            ["transform", "--curve", "front", "--kind", kind, "--samples", JET_BLOCKS_SAMPLES])
    run(f"transform-parabola-arc.curve-slant-{ORACLE_SAMPLES}.txt",
        ["transform", "--curve", "parabola-arc.curve", "--kind", "slant", "--angle", "0.4",
         "--samples", ORACLE_SAMPLES])
    for number in FIGURE_NUMBERS:
        run(f"figure-{number}.txt", ["plot", "--figure", str(number)])
    with open("open-arc.curve", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(OPEN_ARC)
    for curve in ("ellipse", "open-arc.curve"):
        run(f"plot-{curve}.txt", ["plot", "--curve", curve] + PLOT_ARGS)
    with open("inv-front.curve", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_curve(invert_curve(builtin_curve("front"))))
    run(f"plot-inv-front.curve-{INV_FRONT_SAMPLES}.txt",
        ["plot", "--curve", "inv-front.curve", "--overlay", "source",
         "--samples", INV_FRONT_SAMPLES])
    curves = list(BUILTIN_NAMES)
    for name in INVERTED:
        path = f"inv-{name}.curve"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_curve(invert_curve(builtin_curve(name))))
        curves.append(path)
    curves += ["open-arc.curve", "parabola-arc.curve"]
    for curve in curves:
        run(f"verify-{curve}.txt", ["verify", "--curve", curve, "--suite", "all"])
    write_residuals("verify-residuals.txt", curves)
    for path, text in CLASSICAL.items():
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        for kind in ("pedal", "primitive"):
            run(f"transform-{path}-{kind}.txt", ["transform", "--curve", path, "--kind", kind])
        run(f"verify-{path}.txt", ["verify", "--curve", path, "--suite", "all"])
    run("detect-focal-ellipse.curve-primitive-cusps.txt",
        ["detect", "--curve", "focal-ellipse.curve", "--what", "primitive-cusps"])
    with open("flat-cusp.curve", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(FLAT_CUSP)
    for suite in ("frontal", "all"):
        run(f"verify-flat-cusp.curve-{suite}-{FLAT_CUSP_SAMPLES}.txt",
            ["verify", "--curve", "flat-cusp.curve", "--suite", suite,
             "--samples", FLAT_CUSP_SAMPLES])
    with open("fourier.curve", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(FOURIER)
    run(f"transform-fourier.curve-primitive-{ORACLE_SAMPLES}.txt",
        ["transform", "--curve", "fourier.curve", "--kind", "primitive",
         "--samples", ORACLE_SAMPLES])
    run("verify-fourier.curve.txt", ["verify", "--curve", "fourier.curve", "--suite", "all"])
    for curve in ("ellipse", "front"):
        for suite in ("oracle", "inverse-pair"):
            run(f"verify-{curve}-{suite}-{ORACLE_SAMPLES}.txt",
                ["verify", "--curve", curve, "--suite", suite, "--samples", ORACLE_SAMPLES])
    for curve in ("open-arc.curve", "parabola-arc.curve"):
        run(f"verify-{curve}-inverse-pair-{ORACLE_SAMPLES}.txt",
            ["verify", "--curve", curve, "--suite", "inverse-pair", "--samples", ORACLE_SAMPLES])
    run(f"verify-deltoid.curve-frontal-{ORACLE_SAMPLES}.txt",
        ["verify", "--curve", "deltoid.curve", "--suite", "frontal", "--samples", ORACLE_SAMPLES])
    run(f"verify-ellipse-oracle-{LARGE_ORACLE_SAMPLES}.txt",
        ["verify", "--curve", "ellipse", "--suite", "oracle", "--samples", LARGE_ORACLE_SAMPLES])
    for curve in BUILTIN_NAMES:
        for what in DETECT_KINDS:
            for samples in DETECT_SAMPLES:
                extra = [] if samples is None else ["--samples", str(samples)]
                run(f"detect-{curve}-{what}-{samples or 'default'}.txt",
                    ["detect", "--curve", curve, "--what", what] + extra)
    for what in DETECT_KINDS:
        for curve in ("ellipse", "front"):
            run(f"detect-{curve}-{what}-{ORACLE_SAMPLES}.txt",
                ["detect", "--curve", curve, "--what", what, "--samples", ORACLE_SAMPLES])
        for curve in ("inv-ellipse.curve", "open-arc.curve", "parabola-arc.curve"):
            run(f"detect-{curve}-{what}.txt", ["detect", "--curve", curve, "--what", what])
    seam_ellipses = {
        "seam-rotated.curve": format_curve(transform_curve(builtin_curve("ellipse"), 2.0, 1.0)),
        "seam-reversed.curve": REVERSED_ELLIPSE}
    for path, text in seam_ellipses.items():
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        for what in DETECT_KINDS:
            for samples in (None, ORACLE_SAMPLES):
                extra = [] if samples is None else ["--samples", samples]
                run(f"detect-{path}-{what}-{samples or 'default'}.txt",
                    ["detect", "--curve", path, "--what", what] + extra)
    for path, content in ERROR_FILES.items():
        with open(path, "wb") as fh:
            fh.write(content)
        run(f"error-{path}.txt", ["transform", "--curve", path, "--kind", "pedal"])
    run("error-pedal-angle.txt", ERROR_ARGS)
    return 0


# a number standing alone: not part of an identifier such as a colour
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])"
                    r"|(?<![\w.])[-+]?(?:nan|inf)(?![\w.])")


def _fields(text: str) -> tuple[list[str], list[str]]:
    """The numeric fields of text and the text between them."""
    return NUMBER.findall(text), NUMBER.split(text)


def _relative_change(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y:
        return 0.0  # the strings differ in the sign of a zero or in form
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(dir_a: str, dir_b: str) -> int:
    """Print the differences between two golden directories; 1 if any
    text differs, else 0."""
    names_a, names_b = set(os.listdir(dir_a)), set(os.listdir(dir_b))
    text_diffs = 0
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {dir_a if name in names_a else dir_b}")
        text_diffs += 1
    numeric_files = 0
    for name in sorted(names_a & names_b):
        with open(os.path.join(dir_a, name), encoding="utf-8", errors="surrogateescape") as fh:
            text_a = fh.read()
        with open(os.path.join(dir_b, name), encoding="utf-8", errors="surrogateescape") as fh:
            text_b = fh.read()
        if text_a == text_b:
            continue
        nums_a, rest_a = _fields(text_a)
        nums_b, rest_b = _fields(text_b)
        if rest_a != rest_b:
            print(f"{name}: text differs")
            text_diffs += 1
            continue
        changed = [(_relative_change(a, b), i) for i, (a, b) in enumerate(zip(nums_a, nums_b))
                   if a != b]
        worst, at = max(changed)
        line = 1 + "".join(rest_a[k] + nums_a[k] for k in range(at)).count("\n") \
            + rest_a[at].count("\n")
        print(f"{name}: {len(changed)} numeric fields differ; largest relative change "
              f"{worst:.3e} ({nums_a[at]} -> {nums_b[at]}, line {line})")
        numeric_files += 1
    total = len(names_a | names_b)
    print(f"{total} files: {total - text_diffs - numeric_files} identical, "
          f"{numeric_files} differ in numbers only, {text_diffs} differ in text")
    return 1 if text_diffs else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    comparing = args[:1] == ["--compare"]
    if comparing:
        args = args[1:]
    if len(args) != (2 if comparing else 1) or any(a.startswith("-") for a in args):
        print(__doc__.split("\n\n")[1] + "\n" + __doc__.split("\n\n")[5], file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(*args) if comparing else write_goldens(args[0]))
