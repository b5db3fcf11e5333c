"""End-to-end checks of the command-line front end."""

import csv
import json
import warnings

import numpy as np
import pytest

import sobocurve as sc
from sobocurve.cli import main


@pytest.fixture
def files(tmp_path):
    grid = sc.Grid(64)
    metric = tmp_path / "metric.json"
    metric.write_text(
        json.dumps(
            {
                "n": 2,
                "terms": [
                    {"k": 0, "form": "const", "b": 1.0},
                    {"k": 2, "form": "const", "b": 1.0},
                ],
            }
        )
    )
    c0 = tmp_path / "c0.json"
    c1 = tmp_path / "c1.json"
    sc.save_curve(sc.make_circle(1.0, (0, 0), grid), c0)
    sc.save_curve(sc.make_circle(2.0, (0, 0), grid), c1)
    return tmp_path, metric, c0, c1


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_stdout(files, capsys):
    _, metric, _, _ = files
    code, out, _ = run(capsys, ["analyze", "--metric", str(metric)])
    assert code == 0
    data = json.loads(out)
    assert data["classification"] in ("sufficient", "gap", "necessary_fail")
    assert {row["end"] for row in data["per_k"]} == {"zero", "infinity"}


def test_analyze_output_file(files, capsys):
    tmp, metric, _, _ = files
    dest = tmp / "report.json"
    code, out, _ = run(capsys, ["analyze", "--metric", str(metric), "--output", str(dest)])
    assert code == 0
    assert out == ""
    assert "classification" in json.loads(dest.read_text())


def test_distance_and_dump_path(files, capsys):
    tmp, metric, c0, c1 = files
    dump = tmp / "path.json"
    code, out, _ = run(
        capsys,
        [
            "distance",
            "--metric", str(metric),
            "--from", str(c0),
            "--to", str(c1),
            "--T", "16",
            "--max-iters", "200",
            "--dump-path", str(dump),
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["converged"] is True
    assert data["constant_speed_ok"] is True
    assert data["length"] == pytest.approx(data["sqrt_energy"], rel=1e-4)
    path = json.loads(dump.read_text())
    assert len(path["slices"]) == 17


def test_geodesic_alias(files, capsys):
    _, metric, c0, c1 = files
    code, out, _ = run(
        capsys,
        ["geodesic", "--metric", str(metric), "--from", str(c0), "--to", str(c1),
         "--T", "8", "--max-iters", "100"],
    )
    assert code == 0
    assert "length" in json.loads(out)


def test_radial_matches_library(files, capsys):
    _, metric, c0, _ = files
    code, out, _ = run(
        capsys,
        ["radial", "--metric", str(metric), "--curve", str(c0),
         "--from-scale", "1.0", "--to-scale", "2.0"],
    )
    assert code == 0
    val = json.loads(out)["radial_length"]
    cfg = sc.load_config(metric)
    curve = sc.load_curve(c0)
    assert val == pytest.approx(sc.radial_path_length(cfg, curve, 1.0, 2.0), rel=1e-12)


def test_counterexample_json_and_csv(files, capsys):
    tmp, _, _, _ = files
    dest = tmp / "ce.csv"
    code, out, _ = run(
        capsys,
        ["counterexample", "--case", "grow", "--p", "0.0", "--alpha", "10.0",
         "--nmax", "2", "--T", "16", "--csv", str(dest)],
    )
    assert code == 0
    data = json.loads(out)
    assert all(data["checks"].values())
    assert data["pointwise_bounds"]["all_ok"] is True
    with open(dest, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "lambda_n", "ell_n", "dist_upper_n", "bound_n"]
    assert len(rows) == 4


def test_counterexample_bad_params_exit_2(capsys):
    code, _, err = run(
        capsys,
        ["counterexample", "--case", "grow", "--p", "0.0", "--alpha", "5.0",
         "--nmax", "2", "--T", "16"],
    )
    assert code == 2
    assert "error:" in err


def test_missing_file_exit_2(files, capsys):
    _, metric, _, _ = files
    code, _, err = run(capsys, ["analyze", "--metric", "/nonexistent.json"])
    assert code == 2
    assert "error:" in err


def test_malformed_metric_exit_2(files, capsys):
    tmp, _, c0, c1 = files
    bad = tmp / "bad.json"
    bad.write_text(json.dumps({"n": 2, "terms": [{"k": 0, "form": "nope"}]}))
    code, _, err = run(
        capsys,
        ["distance", "--metric", str(bad), "--from", str(c0), "--to", str(c1)],
    )
    assert code == 2
    assert "error:" in err


def test_malformed_curve_exit_2(files, capsys):
    tmp, metric, _, _ = files
    bad = tmp / "bad_curve.json"
    bad.write_text(json.dumps({"samples": [[1, 0]]}))
    code, _, err = run(
        capsys,
        ["radial", "--metric", str(metric), "--curve", str(bad),
         "--from-scale", "1.0", "--to-scale", "2.0"],
    )
    assert code == 2
    assert "error:" in err


def test_radial_invalid_scale_exit_2(files, capsys):
    _, metric, c0, _ = files
    code, _, err = run(
        capsys,
        ["radial", "--metric", str(metric), "--curve", str(c0),
         "--from-scale", "0.0", "--to-scale", "2.0"],
    )
    assert code == 2


@pytest.mark.parametrize(
    "scales",
    [("1.0", "nan"), ("inf", "1.0"), ("1.0", "1e400")],
    ids=["to_nan", "from_inf", "to_1e400"],
)
def test_radial_non_finite_scale_exit_2(files, capsys, scales):
    _, metric, c0, _ = files
    assert_validation_error(
        capsys,
        ["radial", "--metric", str(metric), "--curve", str(c0),
         "--from-scale", scales[0], "--to-scale", scales[1]],
    )


def test_verify_passes_and_prints_lines(files, capsys):
    _, _, _, _ = files
    code, out, _ = run(capsys, ["verify", "--seed", "0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "all passed"
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert not any(line.startswith("FAIL") for line in lines[:-1])


def test_verify_deterministic(files, capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["verify", "--seed", "3", "--output", str(a)]) == 0
    assert main(["verify", "--seed", "3", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def assert_validation_error(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    return err


def write_circle_csv(path, edit_row=None):
    grid = sc.Grid(64)
    unit = sc.make_circle(1.0, (0, 0), grid).samples
    rows = [f"{t},{x},{y}" for t, (x, y) in zip(grid.theta, unit)]
    if edit_row is not None:
        rows[10] = edit_row(rows[10])
    path.write_text("theta,x,y\n" + "\n".join(rows) + "\n")
    return path


def radial_args(metric, curve):
    return ["radial", "--metric", str(metric), "--curve", str(curve),
            "--from-scale", "1.0", "--to-scale", "2.0"]


def test_ragged_csv_row_exit_2(files, capsys):
    tmp, metric, _, _ = files
    bad = write_circle_csv(tmp / "ragged.csv", lambda row: row + ",0.0")
    assert_validation_error(capsys, radial_args(metric, bad))


def test_non_numeric_csv_cell_exit_2(files, capsys):
    tmp, metric, _, _ = files
    bad = write_circle_csv(tmp / "text.csv", lambda row: "0.98,abc,0.2")
    assert_validation_error(capsys, radial_args(metric, bad))


def test_nan_curve_sample_exit_2(files, capsys):
    tmp, metric, _, _ = files
    samples = sc.make_circle(1.0, (0, 0), sc.Grid(64)).samples.tolist()
    samples[5][0] = float("nan")
    bad = tmp / "nan_curve.json"
    bad.write_text(json.dumps({"N": 64, "d": 2, "samples": samples}))
    assert_validation_error(capsys, radial_args(metric, bad))


@pytest.mark.parametrize(
    "term",
    [
        {"k": 0, "form": "power", "b": float("nan"), "p": -3.0},
        {"k": 0, "form": "power", "b": 1.0, "p": float("inf")},
        {"k": 0, "form": "const", "b": float("inf")},
        {"k": 0, "form": "table", "knots": [0.5, 1.0, float("nan"), 4.0],
         "values": [1.0, 1.0, 1.0, 1.0]},
        {"k": 0, "form": "table", "knots": [0.5, 1.0, 2.0, 4.0],
         "values": [1.0, float("inf"), 1.0, 1.0]},
    ],
    ids=["power_b_nan", "power_p_inf", "const_b_inf", "table_knot_nan", "table_value_inf"],
)
def test_non_finite_metric_term_exit_2(tmp_path, capsys, term):
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps({"n": 2, "terms": [term, {"k": 2, "form": "const", "b": 1.0}]}))
    assert_validation_error(capsys, ["analyze", "--metric", str(metric)])


def test_overflowing_table_exit_2(tmp_path, capsys):
    metric = tmp_path / "metric.json"
    term = {"k": 0, "form": "table", "knots": [1e-200, 2e-200, 1e-100, 1.0],
            "values": [1.0, 16.0, 16.0, 16.0]}
    metric.write_text(json.dumps({"n": 2, "terms": [term, {"k": 2, "form": "const", "b": 1.0}]}))
    err = assert_validation_error(capsys, ["analyze", "--metric", str(metric)])
    assert "cubics overflow" in err


def test_distance_through_a_point_curve_exit_2(files, capsys):
    # c1 = -c0: the segment passes through a point curve at t = 1/2, a slice at T = 8.
    tmp, metric, c0, _ = files
    antipodal = tmp / "antipodal.json"
    sc.save_curve(sc.DiscreteCurve(sc.Grid(64), -sc.load_curve(c0).samples), antipodal)
    argv = ["distance", "--metric", str(metric), "--from", str(c0), "--to", str(antipodal)]
    err = assert_validation_error(capsys, argv + ["--T", "8"])
    assert "path degenerates at t=0.5" in err


def test_directory_as_metric_exit_2(tmp_path, capsys):
    assert_validation_error(capsys, ["analyze", "--metric", str(tmp_path)])


def test_directory_as_output_exit_2(files, capsys):
    tmp, metric, _, _ = files
    assert_validation_error(capsys, ["analyze", "--metric", str(metric), "--output", str(tmp)])


GROW = ["counterexample", "--case", "grow", "--p", "0.0", "--alpha", "10.0", "--nmax", "2"]
DISTANCE = ["distance", "--metric", "{metric}", "--from", "{c0}", "--to", "{c1}", "--T", "8"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (GROW + ["--T", "0"], "T must be an integer"),
        (GROW + ["--T", "-3"], "T must be an integer"),
        (GROW + ["--alpha", "inf"], "alpha must be finite"),
        (GROW + ["--p", "nan"], "p must be finite"),
        (GROW[:6] + ["400", "--nmax", "1"], "normal float range"),
        # r_1 = 6^alpha is a float, but the length (395) or the samples
        # r_1 (1 + eps sin) (396.1) of c_1 are not.
        (GROW[:6] + ["395", "--nmax", "1"], "normal float range"),
        (GROW[:6] + ["396.1", "--nmax", "1"], "normal float range"),
        (["counterexample", "--case", "shrink", "--p", "2", "--alpha", "-1000", "--nmax", "1"],
         "normal float range"),
        (DISTANCE + ["--gap-tol", "inf"], "gap_tol"),
        (DISTANCE + ["--gap-tol", "nan"], "gap_tol"),
        (["verify", "--seed", "-1"], "seed"),
        (["analyze", "--metric", "{duplicate_k}"], "k=0"),
        (["analyze", "--metric", "{fractional_k}"], "k must be an integer"),
        (DISTANCE[:4] + ["{fractional_N}"] + DISTANCE[5:], "N must be an integer"),
        (DISTANCE[:6] + ["{space_curve}"] + DISTANCE[7:], "different dimensions"),
        (["geodesic"] + DISTANCE[1:4] + ["{space_curve}"] + DISTANCE[5:], "different dimensions"),
    ],
    ids=[
        "counterexample_T_0",
        "counterexample_T_negative",
        "counterexample_alpha_inf",
        "counterexample_p_nan",
        "counterexample_alpha_overflows_radius",
        "counterexample_alpha_overflows_length",
        "counterexample_alpha_overflows_samples",
        "counterexample_alpha_underflows_radius",
        "distance_gap_tol_inf",
        "distance_gap_tol_nan",
        "verify_seed_negative",
        "analyze_duplicate_k",
        "analyze_fractional_k",
        "distance_fractional_N",
        "distance_2d_to_3d",
        "geodesic_3d_to_2d",
    ],
)
def test_invalid_argument_exit_2(files, capsys, argv, message):
    tmp, metric, c0, c1 = files
    duplicate_k = tmp / "duplicate_k.json"
    duplicate_k.write_text(
        json.dumps(
            {
                "n": 2,
                "terms": [
                    {"k": 0, "form": "const", "b": 1.0},
                    {"k": 0, "form": "const", "b": 5.0},
                    {"k": 2, "form": "const", "b": 1.0},
                ],
            }
        )
    )
    fractional_k = tmp / "fractional_k.json"
    fractional_k.write_text(
        json.dumps(
            {
                "n": 2,
                "terms": [
                    {"k": 0.6, "form": "const", "b": 1.0},
                    {"k": 2, "form": "const", "b": 1.0},
                ],
            }
        )
    )
    fractional_N = tmp / "fractional_N.json"
    fractional_N.write_text(json.dumps(dict(json.loads(c0.read_text()), N=64.7)))
    space_curve = tmp / "space_curve.json"
    lifted = np.column_stack([sc.load_curve(c1).samples, np.zeros(64)])
    sc.save_curve(sc.DiscreteCurve(sc.Grid(64), lifted), space_curve)
    names = {
        "metric": metric,
        "c0": c0,
        "c1": c1,
        "duplicate_k": duplicate_k,
        "fractional_k": fractional_k,
        "fractional_N": fractional_N,
        "space_curve": space_curve,
    }
    err = assert_validation_error(capsys, [arg.format(**names) for arg in argv])
    assert message in err


def _scale_runs(tmp_path, cfg, radius):
    """`distance` between circles of radius and 2 radius, and `radial` from the first."""
    grid = sc.Grid(64)
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps(sc.config_to_dict(cfg)))
    c0, c1 = tmp_path / "c0.json", tmp_path / "c1.json"
    sc.save_curve(sc.make_circle(radius, (0, 0), grid), c0)
    sc.save_curve(sc.make_circle(2 * radius, (0, 0), grid), c1)
    return [
        ["distance", "--metric", str(metric), "--from", str(c0), "--to", str(c1), "--T", "8"],
        ["radial", "--metric", str(metric), "--curve", str(c0), "--from-scale", "1.0",
         "--to-scale", "2.0"],
    ]


@pytest.mark.parametrize("radius", [1e-160, 1e-120, 1e-100, 1e120, 1e200])
def test_out_of_range_scale_exit_3_without_warning(tmp_path, capsys, radius):
    # Under a_0 = ell^-13, a_2 = ell^9 the metric grows like radius^-10 +
    # radius^8, so G and the radial speed are not floats at these radii,
    # though the circles are valid.
    cfg = sc.MetricConfig(2, {0: sc.PowerLaw(1.0, -13.0), 2: sc.PowerLaw(1.0, 9.0)})
    for argv in _scale_runs(tmp_path, cfg, radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("radius", [1e-160, 1e-120, 1e-100, 1e120, 1e150, 1e200])
def test_extreme_scale_matches_unit_scale(tmp_path, capsys, radius):
    # The scale-invariant metric gives the radius-1 distance and radial
    # length at every radius whose samples are floats.
    cfg = sc.scale_invariant_profile(2, [1.0, 0.0, 1.0])
    unit = [json.loads(run(capsys, argv)[1]) for argv in _scale_runs(tmp_path, cfg, 1.0)]
    for argv, want in zip(_scale_runs(tmp_path, cfg, radius), unit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, argv)
        assert code == 0
        got = json.loads(out)
        for key in ("length", "radial_length"):
            if key in want:
                assert got[key] == pytest.approx(want[key], rel=1e-12)


def test_radial_far_above_the_unit_scale(tmp_path, capsys):
    # From 1e150 to 2e150 the radial length under SI is that from 1 to 2;
    # it used to print 0.0.
    cfg = sc.scale_invariant_profile(2, [1.0, 0.0, 1.0])
    argv = _scale_runs(tmp_path, cfg, 1.0)[1][:-4] + ["--from-scale", "1e150", "--to-scale", "2e150"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["radial_length"] == pytest.approx(4.356555690231021, rel=1e-12)
