import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = str(ROOT / "tools" / "layers.py")


def test_layers_tool_records_the_output_layer(tmp_path):
    # a smoke run at 1024 samples: the record's shape, not its times
    out = tmp_path / "bench.json"
    for _ in range(2):
        done = subprocess.run([sys.executable, LAYERS, str(out), "--samples", "1024",
                               "--runs", "2"], capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
    records = json.loads(out.read_text())["records"]
    assert len(records) == 1  # a rerun of the same checkout replaces its record
    rec = records[0]
    assert {"git_sha", "src_differs_from_commit", "src_sha256", "numpy", "cpu_count"} <= set(rec)
    # the line count of src/pedalkit/*.py, as wc -l gives it
    assert type(rec["src_lines"]) is int and rec["src_lines"] > 0
    src = (ROOT / "src" / "pedalkit").glob("*.py")
    assert rec["src_lines"] == sum(p.read_bytes().count(b"\n") for p in src)
    assert [(r["layer"], r["function"], r["samples"]) for r in rec["results"]] == [
        ("render", "write_mapped_csv", 1024), ("render", "render_to_file", 1024),
        ("singularity", "primitive_singularities", 1024), ("singularity", "classify_cusp", 1024),
        ("transforms", "mapped_pedal", 1024), ("verify", "stable_mask", 1024),
        ("envelope", "envelope", 1024), ("frames", "frenet_frame", 1024),
        ("frames", "frenet_grid", 1024), ("frontal", "lift_front", 2048),
        ("verify", "_plane_inversion_rows", 1_000_000)] + [("curve", "_jets_xy", 1024)] * 4
    for r in rec["results"]:
        assert r["runs"] == 2
        if r["function"] != "classify_cusp":  # which reports a label, not a count
            counts = ("bytes", "roots", "flips", "ok_rows", "stable_rows", "normal_rows",
                      "finite_rows", "rows")
            assert [r[k] > 0 for k in counts if k in r] == [True]
        assert 0 < r["q1_s"] <= r["median_s"] <= r["q3_s"]
        assert r["call_peak_mb"] > 0 and r["peak_rss_mb"] > 0
        # minor page faults of each timed call, the cold one first
        assert len(r["minflt"]) == 3 and all(f >= 0 for f in r["minflt"])
    assert rec["results"][2]["roots"] == 4 and rec["results"][9]["flips"] == 4
    # the pedal of the primitive and the envelope are ok on every row;
    # the primitive's polyline is resolved away from its cusps only
    mapped, stable, env = rec["results"][4:7]
    assert mapped["ok_rows"] == env["ok_rows"] == 1024 and 0 < stable["stable_rows"] < 1024
    # 0.42 is near, not at, the cusp atan(1/sqrt(5)) of the ellipse's primitive
    assert rec["results"][3]["t0"] == 0.42 and rec["results"][3]["label"] == "not-singular"
    # the front is regular: the order-1 frame and the order-3 grid have a
    # normal on every row
    assert [r["normal_rows"] for r in rec["results"][7:9]] == [1024, 1024]
    # the six curve-independent inversion rows, drawn without numpy.random
    plane = rec["results"][10]
    assert plane["rows"] == 6 and plane["numpy_random"] is False
    # the jet walk of the front and of the inverted front, parsed back
    # from its text, at orders 1 and 3: every jet finite on every row
    walks = rec["results"][11:]
    assert [(r["curve"], r["order"]) for r in walks] == [
        ("front", 1), ("front", 3), ("inv-front", 1), ("inv-front", 3)]
    assert all(r["finite_rows"] == 1024 for r in walks)


def test_layers_tool_rejects_bad_arguments(tmp_path):
    done = subprocess.run([sys.executable, LAYERS, str(tmp_path / "x.json"), "--runs", "0"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert not (tmp_path / "x.json").exists()
