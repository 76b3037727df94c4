import math
import re

import numpy as np
import pytest

from pedalkit import builtin_curve, load_curve, make_family, sample_grid
from pedalkit.cli import main

ELLIPSE_FILE = (
    'name = "squashed"\n'
    "x = cos(t)\n"
    "y = sin(t)/sqrt(3)\n"
    "t_min = 0\n"
    "t_max = 2*pi\n"
    "samples = 1024\n"
)

GIANT_FILE = (
    "x = 100000000*cos(t)\n"
    "y = 100000000*sin(t)/sqrt(3)\n"
    "t_min = 0\n"
    "t_max = 2*pi\n"
    "samples = 256\n"
)


def test_transform_csv_stdout(capsys):
    rc = main(["transform", "--curve", "ellipse", "--kind", "pedal",
               "--samples", "64"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "t,x,y,flag"
    assert len(out) == 65
    t, x, y, flag = out[1].split(",")
    assert (float(t), float(x), float(y), flag) == (0.0, 1.0, 0.0, "ok")


def test_transform_out_and_svg(tmp_path):
    csv = tmp_path / "pedal.csv"
    svg = tmp_path / "pedal.svg"
    rc = main(["transform", "--curve", "ellipse", "--kind", "slant",
               "--angle", str(math.pi / 4), "--samples", "128",
               "--out", str(csv), "--svg", str(svg)])
    assert rc == 0
    assert csv.read_text().startswith("t,x,y,flag\n")
    body = svg.read_text()
    assert body.startswith('<?xml version="1.0"')
    assert body.count("<g data-label") == 2


def test_transform_missing_angle_is_input_error(capsys):
    rc = main(["transform", "--curve", "ellipse", "--kind", "pedaloid"])
    assert rc == 3
    assert "pedalkit: error:" in capsys.readouterr().err


def test_transform_usage_errors_exit_2():
    with pytest.raises(SystemExit) as ei:
        main(["transform", "--curve", "ellipse"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


@pytest.mark.parametrize("args", [
    ["plot", "--figure", "1", "--out", "f.svg"],
    ["detect", "--curve", "ellipse", "--what", "vertices", "--svg", "d.svg"],
    ["verify", "--curve", "ellipse", "--suite", "inversion", "--svg", "v.svg"],
], ids=["plot-out", "detect-svg", "verify-svg"])
def test_options_a_command_does_not_read_exit_2(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as ei:
        main(args)
    assert ei.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_detect_golden_primitive_cusps(capsys):
    rc = main(["detect", "--curve", "ellipse", "--what", "primitive-cusps"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    first = lines[0].split("\t")
    assert first[0] == "primitive-cusp"
    # the correctly rounded root, atan(1/sqrt(5)) = 0.42053433528397
    assert abs(float(first[1]) - math.atan(1 / math.sqrt(5))) <= 5e-13
    assert float(first[2]) <= 1e-10
    assert first[3] == "ordinary-cusp"
    ts = [float(ln.split("\t")[1]) for ln in lines]
    t0 = math.atan(1 / math.sqrt(5))
    np.testing.assert_allclose(
        ts, [t0, math.pi - t0, math.pi + t0, 2 * math.pi - t0], atol=1e-9)


def test_detect_vertices_constant_curvature_empty(capsys):
    rc = main(["detect", "--curve", "circle", "--what", "vertices"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_detect_vertices_on_a_front_skips_its_cusps(capsys):
    # kappa' changes sign across each cusp of the front as a pole; those
    # brackets hold no vertex and must not abort the scan
    from pedalkit.curve import builtin_curve, frenet
    rc = main(["detect", "--curve", "front", "--what", "vertices"])
    assert rc == 0
    rows = [ln.split("\t") for ln in capsys.readouterr().out.splitlines()]
    assert rows
    front = builtin_curve("front")
    for kind, t, resid, _ in rows:
        assert kind == "vertex"
        assert float(resid) <= 1e-10
        frenet(front, float(t))  # raises IrregularPoint at a singular point


def test_detect_vertices_finds_the_one_in_the_closing_cell(tmp_path, capsys):
    # the vertex at 2 pi - 0.001 lies between the last sample and t_max
    f = tmp_path / "shifted.curve"
    f.write_text("x = cos(t + 0.001)\ny = sin(t + 0.001)/sqrt(3)\n"
                 "t_min = 0\nt_max = 2*pi\n")
    rc = main(["detect", "--curve", str(f), "--what", "vertices"])
    assert rc == 0
    ts = [float(ln.split("\t")[1]) for ln in capsys.readouterr().out.splitlines()]
    np.testing.assert_allclose(ts, np.arange(1, 5) * math.pi / 2 - 0.001, atol=1e-9)


@pytest.mark.parametrize("text", [
    # the primitive cusp sits at t = 0.00113 < h = 2 pi / 4096; the sign
    # check one step to its left wraps round the closed curve
    "x = cos(t + 0.4194)\ny = sin(t + 0.4194)/sqrt(3)\nt_min = 0\nt_max = 2*pi\n",
    # on an open arc a cusp at t = 0.00053 < h = 3 / 4095 is left out of it
    "x = cos(t + 0.42)\ny = sin(t + 0.42)/sqrt(3)\nt_min = 0\nt_max = 3\nclosed = false\n",
])
def test_verify_singularity_with_a_cusp_within_a_step_of_t_min(tmp_path, capsys, text):
    f = tmp_path / "cusp.curve"
    f.write_text(text)
    rc = main(["verify", "--curve", str(f), "--suite", "singularity"])
    out = capsys.readouterr().out
    assert rc in (0, 1)
    rows = {ln.split("  residual")[0].strip(): ln for ln in out.splitlines()[1:-1]}
    assert len(rows) == 7
    assert rows["inverted-curve curvature changes sign at cusps"].endswith("pass")


def test_detect_writes_file(tmp_path, capsys):
    out = tmp_path / "vertices.tsv"
    rc = main(["detect", "--curve", "ellipse", "--what", "vertices",
               "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 4
    assert all(r.startswith("vertex\t") for r in rows)


def test_verify_pass_and_out(tmp_path, capsys):
    out = tmp_path / "report.txt"
    rc = main(["verify", "--curve", "circle", "--suite", "inversion",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.splitlines()[-1] == "=> PASS"
    assert out.read_text() == text


def test_verify_failure_exits_1(tmp_path, capsys):
    # at 1e8 scale the absolute-tolerance rows must fail; that is the
    # honest answer, not a tolerance bug
    f = tmp_path / "giant.curve"
    f.write_text(GIANT_FILE)
    rc = main(["verify", "--curve", str(f), "--suite", "duality"])
    assert rc == 1
    text = capsys.readouterr().out
    assert text.splitlines()[-1] == "=> FAIL"
    assert "pedal commutes with scaling" in text


def test_verify_curve_file_roundtrip(tmp_path, capsys):
    f = tmp_path / "squashed.curve"
    f.write_text(ELLIPSE_FILE)
    rc = main(["verify", "--curve", str(f), "--suite", "oracle"])
    assert rc == 0
    assert "=> PASS" in capsys.readouterr().out


def test_verify_hypothesis_violation_exits_3(capsys):
    rc = main(["verify", "--curve", "front", "--suite", "singularity"])
    assert rc == 3
    assert "pedalkit: error:" in capsys.readouterr().err


def test_unknown_curve_exits_3(capsys):
    rc = main(["transform", "--curve", "lemniscate", "--kind", "pedal"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "neither a file nor a built-in" in err


def test_origin_curve_exits_3(tmp_path, capsys):
    f = tmp_path / "through.curve"
    f.write_text("x = 1 + cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*pi\n"
                 "samples = 64\n")
    rc = main(["transform", "--curve", str(f), "--kind", "primitive"])
    assert rc == 3
    assert "origin" in capsys.readouterr().err


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
@pytest.mark.parametrize("args", [["transform", "--kind", "pedal"],
                                  ["detect", "--what", "vertices"],
                                  ["verify", "--suite", "all"], ["plot"]])
def test_a_sample_count_numpy_refuses_exits_3(tmp_path, capsys, args, closed):
    # numpy refuses a grid of 2^62 samples before it allocates anything
    curve = "ellipse"
    if not closed:
        curve = str(tmp_path / "arc.curve")
        (tmp_path / "arc.curve").write_text(OPEN_ARC_FILE)
    assert main(args + ["--curve", curve, "--samples", str(2**62)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"pedalkit: error: cannot sample {2**62} points: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("samples, named", [("100000000000", "100000000000"),
                                            (None, "the default number of")])
def test_running_out_of_memory_exits_3(monkeypatch, capsys, samples, named):
    import pedalkit.cli as cli

    def exhausted(args):
        raise MemoryError("Unable to allocate 745. GiB")
    monkeypatch.setattr(cli, "cmd_transform", exhausted)
    args = ["transform", "--curve", "ellipse", "--kind", "pedal"]
    assert main(args + (["--samples", samples] if samples else [])) == 3
    captured = capsys.readouterr()
    assert captured.err == f"pedalkit: error: out of memory at {named} samples\n"
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["transform", "--kind", "slant", "--angle", "inf"],
    ["transform", "--kind", "slant", "--angle", "nan"],
    ["transform", "--kind", "pedaloid", "--angle=-inf"],
    ["transform", "--kind", "parallel", "--ratio", "nan"],
    ["transform", "--kind", "parallel", "--ratio", "inf"],
    ["plot", "--overlay", "slant:inf"],
    ["plot", "--overlay", "pedaloid:nan"],
])
def test_non_finite_parameter_exits_3(args, capsys):
    rc = main(args + ["--curve", "ellipse", "--samples", "64"])
    assert rc == 3
    captured = capsys.readouterr()
    assert "pedalkit: error:" in captured.err and "needs a finite" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args, fragment", [
    (["plot", "--overlay", "slant"], "overlay slant needs a value: slant:ANGLE"),
    (["plot", "--overlay", "pedaloid:"], "overlay pedaloid needs a value: pedaloid:ANGLE"),
    (["plot", "--overlay", "parallel"], "overlay parallel needs a value: parallel:RATIO"),
    (["transform", "--kind", "slant"], "slant needs --angle"),
    (["transform", "--kind", "parallel"], "parallel needs --ratio"),
])
def test_a_kind_without_its_parameter_exits_3(args, fragment, capsys):
    rc = main(args + ["--curve", "ellipse", "--samples", "64"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == f"pedalkit: error: {fragment}\n"
    assert captured.out == ""


@pytest.mark.parametrize("args, fragment", [
    (["transform", "--kind", "pedal", "--angle", "0.3"], "pedal takes no --angle"),
    (["transform", "--kind", "slant", "--angle", "0.4", "--ratio", "2"], "slant takes no --ratio"),
    (["plot", "--overlay", "pedal:0.3"], "overlay 'pedal' takes no parameter"),
    (["plot", "--overlay", "source:1"], "overlay 'source' takes no parameter"),
])
def test_a_parameter_the_kind_does_not_take_exits_3(args, fragment, capsys):
    rc = main(args + ["--curve", "ellipse", "--samples", "64"])
    assert rc == 3
    captured = capsys.readouterr()
    assert f"pedalkit: error: {fragment}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


_CURVE_TAIL = b"y = sin(t)\nt_min = 0\nt_max = 2*pi\n"


@pytest.mark.parametrize("content, fragment", [
    (b"x = " + b"(" * 400 + b"cos(t)" + b")" * 400 + b"\n" + _CURVE_TAIL,
     "line 1, column 105: more than 100 nested parentheses"),
    (b'name = "\xff\xfe"\nx = cos(t)\n' + _CURVE_TAIL,
     "line 1, column 9: byte 0xff is not UTF-8 text"),
    (b"x = cos(t)\r\n# caf\xc3\xa9 \xe9\n" + _CURVE_TAIL,
     "line 2, column 8: byte 0xe9 is not UTF-8 text"),
    (b"x =    cos(t) + $\n" + _CURVE_TAIL,
     "line 1, column 17: unexpected character '$' (expected number or identifier or operator)"),
    (b"x = cos(t)\ny =\t sin(t) + $\n" + _CURVE_TAIL[11:],
     "line 2, column 15: unexpected character '$' (expected number or identifier or operator)"),
    (b"x = cos(t)*\xc2\xb2\n" + _CURVE_TAIL,
     "line 1, column 12: unknown identifier '²' (expected t or pi or e or sin or cos or tan"
     " or sqrt or exp or log or abs)"),
    (b"x = cos(t)\ny = sin(t)\nt_min =   0 + $\nt_max = 2*pi\n",
     "line 3, column 15: unexpected character '$' (expected number or identifier or operator)"),
    (b"x = cos(t)\ny = sin(t)\nt_min = 0\nt_max = 2*t\n",
     "line 4, column 9: t_max must be constant, found 't'"),
], ids=["nested", "not-utf8", "not-utf8-after-a-two-byte-character", "blanks-after-equals",
        "tab-after-equals", "superscript-two", "t_min-bad-character", "t_max-not-constant"])
def test_a_curve_file_that_cannot_be_read_exits_3(tmp_path, capsys, content, fragment):
    f = tmp_path / "bad.curve"
    f.write_bytes(content)
    rc = main(["transform", "--curve", str(f), "--kind", "pedal"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == f"pedalkit: error: {fragment}\n"
    assert captured.out == ""


def test_plot_overlays_and_family(tmp_path):
    svg = tmp_path / "plot.svg"
    rc = main(["plot", "--curve", "ellipse", "--overlay", "source",
               "--overlay", "pedal", "--overlay", "slant:0.9",
               "--family-lines", "16", "--svg", str(svg)])
    assert rc == 0
    body = svg.read_text()
    assert body.count("<g data-label") == 4
    assert 'data-label="family-lines"' in body
    assert body.count("<line ") >= 8


OPEN_ARC_FILE = "x = cos(t)\ny = sin(t)/sqrt(3)\nt_min = 0.3\nt_max = 5\nclosed = false\n"


@pytest.mark.parametrize("text", [None, OPEN_ARC_FILE], ids=["ellipse", "open-arc"])
def test_plot_family_lines_lie_on_their_members(tmp_path, text):
    if text is None:
        arg, curve = "ellipse", builtin_curve("ellipse")
    else:
        path = tmp_path / "arc.curve"
        path.write_text(text)
        arg, curve = str(path), load_curve(path)
    svg = tmp_path / "plot.svg"
    rc = main(["plot", "--curve", arg, "--overlay", "source", "--overlay", "primitive",
               "--family-lines", "16", "--svg", str(svg)])
    assert rc == 0
    ends = np.array([[float(v) for v in m] for m in re.findall(
        r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"/>', svg.read_text())])
    # each line is tangent to the drawn primitive, so none is clipped away
    assert ends.shape == (16, 4)
    fam = make_family("primitive", curve)
    ts = sample_grid(curve, 16)
    a, c = fam.members(ts)[:2]
    for p in (ends[:, 0:2], ends[:, 2:4]):
        p = p * np.array([1.0, -1.0])  # SVG y grows downward
        residual = np.abs((p * a).sum(axis=1) - c)
        assert (residual <= 1e-6 * np.maximum(1.0, np.abs(c))).all()


def test_plot_figure_stdout(capsys):
    rc = main(["plot", "--figure", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith('<?xml version="1.0"')
    assert "slant primitivoid" in out


@pytest.mark.parametrize("args", [["--figure", str(k)] for k in range(1, 11)] + [
    ["--curve", "ellipse", "--overlay", "source", "--overlay", "primitive",
     "--family-lines", "64"]], ids=[f"figure-{k}" for k in range(1, 11)] + ["family-lines"])
def test_plot_svg_file_equals_stdout(tmp_path, capsys, args):
    svg = tmp_path / "plot.svg"
    assert main(["plot"] + args + ["--svg", str(svg)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["plot"] + args) == 0
    assert svg.read_bytes() == capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("number, curve", [(1, "ellipse"), (7, "front")])
def test_a_source_figure_is_plot_curve_at_the_figure_samples(capsys, number, curve):
    # the gallery and plot --curve draw through one builder
    assert main(["plot", "--figure", str(number)]) == 0
    figure = capsys.readouterr().out
    assert main(["plot", "--curve", curve, "--samples", "2048"]) == 0
    assert capsys.readouterr().out == figure
    assert figure.count("<polyline ") == 1


def test_plot_escapes_the_curve_name_in_its_label(tmp_path):
    from xml.etree import ElementTree

    f = tmp_path / "odd.curve"
    f.write_text(ELLIPSE_FILE.replace('"squashed"', '"a<b & c "q""'))
    assert load_curve(f).name == 'a<b & c "q"'
    svg = tmp_path / "odd.svg"
    assert main(["plot", "--curve", str(f), "--svg", str(svg)]) == 0
    group = ElementTree.parse(svg).getroot()[0]
    assert group.get("data-label") == 'a<b & c "q"'


def test_plot_figure_excludes_other_options(capsys):
    rc = main(["plot", "--figure", "2", "--curve", "ellipse"])
    assert rc == 3
    rc = main(["plot", "--figure", "42"])
    assert rc == 3
    rc = main(["plot"])
    assert rc == 3
    rc = main(["plot", "--figure", "1", "--samples", "4096"])
    assert rc == 3
    assert "samples" in capsys.readouterr().err


def test_plot_negative_family_lines_exits_3(tmp_path, capsys):
    svg = tmp_path / "plot.svg"
    for out in ([], ["--svg", str(svg)]):
        rc = main(["plot", "--curve", "ellipse", "--family-lines", "-3"] + out)
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "family lines" in captured.err
    assert not svg.exists()


def test_plot_bad_overlay(capsys):
    rc = main(["plot", "--curve", "ellipse", "--overlay", "evolute"])
    assert rc == 3
    rc = main(["plot", "--curve", "ellipse", "--overlay", "slant:abc"])
    assert rc == 3


def test_one_process_runs_different_commands_in_turn(tmp_path, capsys):
    csv = tmp_path / "pedal.csv"
    assert main(["transform", "--curve", "ellipse", "--kind", "pedal", "--samples", "64",
                 "--out", str(csv)]) == 0
    assert main(["detect", "--curve", "ellipse", "--what", "vertices"]) == 0
    assert main(["transform", "--curve", "circle", "--kind", "pedal", "--samples", "32"]) == 0
    out = capsys.readouterr().out
    assert len(csv.read_text().splitlines()) == 65
    assert out.startswith("vertex\t") and "t,x,y,flag\n" in out


def test_a_command_replaced_after_the_first_call_is_the_one_run(monkeypatch, capsys):
    import pedalkit.cli as cli
    assert main(["transform", "--curve", "ellipse", "--kind", "pedal", "--samples", "16"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_transform", lambda args: seen.append(args.kind) or 7)
    assert main(["transform", "--curve", "ellipse", "--kind", "primitive"]) == 7
    assert seen == ["primitive"]
    capsys.readouterr()
