import concurrent.futures
import json
import math
import shlex
from pathlib import Path

import pytest

from bisphere import (
    ResonatorPair,
    blowup_study,
    capacitance_exact,
    eigen,
    eval_grad_mode,
    eval_potential,
    frame_from_pair,
    potential_series,
    rescale,
    to_bispherical,
)
from bisphere.cli import RunConfig, _emit, run


def _read(path):
    return path.read_text()


def _data_rows(text):
    return [
        line.split(",")
        for line in text.splitlines()
        if line and not line.startswith("#") and not line[0].isalpha()
    ]


def _header(text):
    for line in text.splitlines():
        if line and not line.startswith("#"):
            return line.split(",")
    raise AssertionError("no header found")


def test_capacitance_single_point(tmp_path, capsys):
    out = tmp_path / "cap.csv"
    rc = run(
        ["capacitance", "--r1", "1", "--r2", "1", "--eps", "0.05", "--out", str(out)]
    )
    assert rc == 0
    text = _read(out)
    assert text.startswith("# artifact-version:")
    assert "# config-hash:" in text
    assert "# units:" in text
    header = _header(text)
    rows = _data_rows(text)
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    # identical spheres: the two diagonal entries agree exactly
    assert row["c11"] == row["c22"]
    assert float(row["c12"]) < 0.0
    assert float(row["sigma1"]) > 0.0


def test_reruns_are_byte_identical(tmp_path):
    args = ["capacitance", "--r1", "1", "--r2", "2", "--eps", "0.01"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_json_format(tmp_path):
    out = tmp_path / "cap.json"
    rc = run(
        [
            "capacitance",
            "--r1", "1", "--r2", "2", "--eps", "0.05",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(_read(out))
    idx = doc["columns"].index("c11")
    assert doc["rows"][0][idx] == pytest.approx(25.061225601436227, rel=1e-12)
    assert "config_hash" in doc and "version" in doc
    assert doc["units"]["c11"] == "length"


def test_tiny_gap_capacitance(tmp_path):
    out = tmp_path / "tiny.csv"
    rc = run(
        ["capacitance", "--r1", "1", "--r2", "1", "--eps", "1e-8", "--out", str(out)]
    )
    assert rc == 0
    row = dict(zip(_header(_read(out)), _data_rows(_read(out))[0]))
    assert float(row["c11"]) > 0.0


def test_resonances_single_point(tmp_path):
    out = tmp_path / "res.csv"
    rc = run(
        [
            "resonances",
            "--r1", "1", "--r2", "2", "--eps", "1e-4",
            "--rho-b", "1e-3", "--kappa-b", "1e-3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    row = dict(zip(_header(_read(out)), _data_rows(_read(out))[0]))
    assert 0.0 < float(row["omega1_exact"]) < float(row["omega2_exact"])
    assert float(row["ratio_asym_exact_1"]) == pytest.approx(1.0, rel=0.05)


def test_resonances_regime_grid(tmp_path):
    out = tmp_path / "res.csv"
    rc = run(
        [
            "resonances",
            "--r1", "1", "--r2", "1",
            "--delta-grid", "1e-6:1e-2:5",
            "--beta", "0.5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = _data_rows(_read(out))
    assert len(rows) == 5
    header = _header(_read(out))
    om1 = [float(dict(zip(header, r))["omega1_asym"]) for r in rows]
    assert om1 == sorted(om1)


def test_resonances_regime_needs_beta(capsys):
    rc = run(["resonances", "--r1", "1", "--r2", "1", "--delta-grid", "1e-4:1e-2:3"])
    assert rc == 2
    assert "beta" in capsys.readouterr().err


def test_eps_and_regime_are_exclusive(capsys):
    rc = run(
        [
            "resonances",
            "--r1", "1", "--r2", "1",
            "--eps", "0.01", "--delta", "1e-3", "--beta", "0.5",
        ]
    )
    assert rc == 2


def test_invalid_beta_is_config_error(capsys):
    rc = run(
        ["resonances", "--r1", "1", "--r2", "1", "--delta", "1e-3", "--beta", "1.5"]
    )
    assert rc == 2
    assert "beta" in capsys.readouterr().err


def test_field_at_points(tmp_path):
    out = tmp_path / "field.csv"
    rc = run(
        [
            "field",
            "--r1", "1", "--r2", "2", "--eps", "0.05",
            "--point", "0,0,0",
            "--point", "2.5,0.5,-1.0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = _read(out)
    rows = _data_rows(text)
    assert len(rows) == 2
    header = _header(text)
    gap_row = dict(zip(header, rows[0]))
    # on the gap axis the potentials sum close to the boundary value 1
    assert float(gap_row["v1"]) + float(gap_row["v2"]) == pytest.approx(1.0, abs=0.1)


def test_field_at_a_tiny_gap(tmp_path):
    out = tmp_path / "field.csv"
    rc = run(
        ["field", "--r1", "1", "--r2", "2", "--eps", "1e-12", "--point", "0,0,0",
         "--out", str(out)]
    )
    assert rc == 0
    rows = _data_rows(_read(out))
    assert len(rows) == 1
    assert all(math.isfinite(float(v)) for v in rows[0])


@pytest.mark.parametrize("eps", [0.05, 1e-4])
def test_field_rows_equal_scalar_api(tmp_path, eps):
    pair = ResonatorPair(1.0, 2.0, eps)
    frame = frame_from_pair(pair)
    top = frame.c2 - frame.r2  # gap-facing pole of sphere 2
    a = 2.5  # polar angle of a boundary point on sphere 1, seen from its centre
    points = [
        (0.0, 0.0, 0.0),  # on the gap axis
        (0.3 * frame.alpha, -0.2 * frame.alpha, 0.5 * top),  # off axis, in the gap
        (0.0, 0.0, top),  # boundary, on the axis
        (frame.r1 * math.sin(a), 0.0, frame.c1 + frame.r1 * math.cos(a)),  # boundary
        (0.3, 0.1, -6.0),  # far
    ]
    out = tmp_path / "field.csv"
    args = ["field", "--r1", "1", "--r2", "2", "--eps", repr(eps), "--out", str(out)]
    args += [f"--point={x!r},{y!r},{z!r}" for x, y, z in points]
    assert run(args) == 0
    rows = _data_rows(_read(out))
    assert len(rows) == len(points)

    ps = potential_series(frame, tol=1e-10)
    sp = eigen(rescale(capacitance_exact(frame, tol=1e-10), pair))
    for xyz, row in zip(points, rows):
        p = to_bispherical(frame, xyz)
        v1 = eval_potential(ps, 1, p)
        v2 = eval_potential(ps, 2, p)
        g1 = eval_grad_mode(1, sp, ps, p)
        g2 = eval_grad_mode(2, sp, ps, p)
        want = [*xyz, v1, v2, sp.d1 * v1 + v2, sp.d2 * v1 + v2, *g1, *g2]
        assert [float(c) for c in row] == want


def test_field_interior_point_is_config_error(capsys):
    rc = run(
        [
            "field",
            "--r1", "1", "--r2", "2", "--eps", "0.05",
            "--point", "0,0,2.0",
        ]
    )
    assert rc == 2
    assert "inside resonator" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["nan,0,0", "inf,0,0", "0,0,-inf"])
def test_field_non_finite_point_is_config_error(point, capsys):
    rc = run(["field", "--r1", "1", "--r2", "2", "--eps", "0.05", "--point", point])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"point {point} is not finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("point", ["1e200,0,0", "1e300,0,0", "0,0,-1e300", "1e200,1e200,1e200"])
def test_field_at_a_far_point_is_finite(tmp_path, point):
    out = tmp_path / "field.csv"
    args = ["field", "--r1", "1", "--r2", "2", "--eps", "0.05", "--point", point]
    assert run(args + ["--out", str(out)]) == 0
    (row,) = _data_rows(_read(out))
    assert all(math.isfinite(float(v)) for v in row)
    # V_1 + V_2 ~ (C11 + C12 + C21 + C22) / (4 pi |x|) > 0 far away
    assert float(row[3]) + float(row[4]) > 0.0


def test_capacitance_with_a_loose_tol_sums_one_term(tmp_path):
    # a tol above the tail bound of the whole series still sums one term
    out = tmp_path / "cap.csv"
    args = ["capacitance", "--r1", "1", "--r2", "1", "--eps", "0.05", "--tol", "1e3"]
    assert run(args + ["--out", str(out)]) == 0
    text = _read(out)
    row = dict(zip(_header(text), _data_rows(text)[0]))
    assert float(row["n_terms"]) == 1.0
    assert float(row["c11"]) > 0.0 > float(row["c12"])


def test_capacitance_with_a_tol_below_the_remainder_is_config_error(capsys):
    # the image sums cannot certify 1e-40; the error names their remainder
    args = ["capacitance", "--r1", "1", "--r2", "2", "--eps", "0.05", "--tol", "1e-40"]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "tolerance 1e-40 is below the capacitance sums' remainder" in err


def test_error_json_goes_to_stdout(capsys):
    rc = run(
        [
            "field",
            "--r1", "1", "--r2", "2", "--eps", "0.05",
            "--point", "0,0,2.0",
            "--error-json",
        ]
    )
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "ConfigError"
    assert "inside resonator" in doc["message"]


def test_blowup_small_grid(tmp_path):
    out = tmp_path / "blowup.csv"
    rc = run(
        [
            "blowup",
            "--r1", "1", "--r2", "2",
            "--eps-grid", "1e-4:1e-1:4",
            "--samples", "120",
            "--tol", "1e-7",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = _read(out)
    assert "fitted-slope-u2" in text
    rows = _data_rows(text)
    assert len(rows) == 4
    header = _header(text)
    g2 = [float(dict(zip(header, r))["max_grad_u2"]) for r in rows]
    # smaller gap, larger anti-phase gradient
    assert g2[0] > g2[-1]


def test_blowup_too_few_samples_is_config_error(capsys):
    rc = run(["blowup", "--r1", "1", "--r2", "2", "--eps-grid", "1e-4:1e-1:4",
              "--samples", "99"])
    assert rc == 2
    assert "samples" in capsys.readouterr().err


def test_scattering_response(tmp_path):
    out = tmp_path / "scat.csv"
    rc = run(
        [
            "scattering",
            "--r1", "1", "--r2", "2", "--eps", "0.05",
            "--rho-b", "1e-3", "--kappa-b", "1e-3",
            "--omega-grid", "0.02:0.1:40",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = _read(out)
    assert "omega1" in text
    assert len(_data_rows(text)) == 40


def test_scattering_overflowing_omega_is_a_numerical_failure(capsys):
    rc = run(
        [
            "scattering",
            "--r1", "1", "--r2", "2", "--eps", "0.05",
            "--rho-b", "1e-3", "--kappa-b", "1e-3",
            "--omega-grid", "0.05,1e200",
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "omega = 1e+200" in err
    assert "omega^2 overflows a double" in err


def test_sweep_capacitance_jobs_deterministic(tmp_path):
    base = [
        "sweep",
        "--quantity", "capacitance",
        "--r1", "1", "--r2", "2",
        "--eps-grid", "1e-3:1e-1:6",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run(base + ["--jobs", "1", "--out", str(out_a)]) == 0
    assert run(base + ["--jobs", "2", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(_data_rows(_read(out_a))) == 6


class _NoProcessPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker process pool was started")


def test_jobs_starts_no_worker_process(monkeypatch, capsys, water_air):
    """--jobs and blowup_study(jobs=) run every cell in the calling process."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoProcessPool)
    commands = [
        ["sweep", "--quantity", "capacitance", "--r1", "1", "--r2", "2",
         "--eps-grid", "1e-3:1e-1:4"],
        ["resonances", "--r1", "1", "--r2", "1",
         "--delta-grid", "1e-6:1e-2:3", "--beta", "0.5"],
        ["blowup", "--r1", "1", "--r2", "2",
         "--eps-grid", "1e-4:1e-1:4", "--samples", "100"],
    ]
    for argv in commands:
        outputs = []
        for jobs in ("1", "2"):
            assert run(argv + ["--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
    grid = [1e-4, 1e-3, 1e-2, 1e-1]
    serial = blowup_study((1.0, 2.0), water_air, grid, samples=100, jobs=1)
    assert blowup_study((1.0, 2.0), water_air, grid, samples=100, jobs=2) == serial


def test_sweep_quantity_resonances_exits_2(tmp_path, capsys):
    # the resonance table is `resonances --delta-grid`; sweep tabulates the capacitance
    argv = ["sweep", "--r1", "1", "--r2", "1", "--delta-grid", "1e-6:1e-2:3", "--beta", "0.5"]
    with pytest.raises(SystemExit) as exc:
        run(argv[:1] + ["--quantity", "resonances"] + argv[1:])
    assert exc.value.code == 2
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"quantity": "resonances", "delta_grid": "1e-6:1e-2:3"}))
    assert run(["sweep", "--config", str(cfg), "--r1", "1", "--r2", "1", "--beta", "0.5"]) == 2
    assert "resonances --delta-grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["scattering", "--r1", "1", "--r2", "2", "--eps", "0.05",
         "--omega-grid", "inf", "--format", "json"],
        ["scattering", "--r1", "1", "--r2", "2", "--eps", "0.05", "--omega-grid", "0.05,nan"],
        ["resonances", "--r1", "1", "--r2", "2", "--eps", "1e-6", "--rho-b", "inf"],
        ["resonances", "--r1", "1", "--r2", "2", "--eps", "inf"],
        ["capacitance", "--r1", "inf", "--r2", "2", "--eps", "0.05"],
        ["capacitance", "--r1", "1", "--r2", "2", "--eps", "0.05", "--tol", "inf"],
        ["resonances", "--r1", "1", "--r2", "1", "--delta-grid", "1e-3:1e-2:2",
         "--beta", "0.5", "--c0", "inf"],
    ],
)
def test_non_finite_physical_input_is_config_error(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "finite" in err


def test_non_finite_cells_are_null_in_json_and_unchanged_in_csv(capsys):
    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    row = [1.5, math.inf, -math.inf, math.nan, 3]
    summary = {"a": math.inf, "b": -math.inf, "c": math.nan, "d": 2.0}
    _emit(RunConfig(format="json"), list("vwxyz"), [row], {}, summary=summary)
    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert doc["rows"] == [[1.5, None, None, None, 3]]
    assert doc["summary"] == {"a": None, "b": None, "c": None, "d": 2.0}
    _emit(RunConfig(), list("vwxyz"), [row], {}, summary=summary)
    assert _data_rows(capsys.readouterr().out) == [["1.5", "inf", "-inf", "nan", "3"]]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"r1": 1.0, "r2": 2.0, "eps": 0.05}))
    out = tmp_path / "out.csv"
    rc = run(
        ["capacitance", "--config", str(cfg), "--eps", "0.01", "--out", str(out)]
    )
    assert rc == 0
    row = dict(zip(_header(_read(out)), _data_rows(_read(out))[0]))
    assert float(row["eps"]) == 0.01


@pytest.mark.parametrize(
    "key, value",
    [("samples", "200"), ("tol", "1e-3"), ("jobs", "2"), ("r1", True), ("samples", 2.5),
     ("rho", None), ("points", ["0,0,0", 1]), ("error_json", 1), ("format", 3)],
)
def test_config_file_value_of_the_wrong_type_is_named(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"r1": 1.0, "r2": 2.0, "eps": 0.05, key: value}))
    rc = run(["capacitance", "--config", str(cfg)])
    assert rc == 2
    assert f"config key {key!r} must be" in capsys.readouterr().err


def _readme_commands():
    """The commands of README.md's "Command line" block, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_command_line_block_runs(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) == 7
    for argv in commands:
        assert argv[0] == "bisphere"
        argv = argv[1:]
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        assert run(argv) == 0, argv
    assert (tmp_path / "table.csv").exists()
    assert capsys.readouterr().err == ""


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"r1": 1.0, "radius_two": 2.0}))
    rc = run(["capacitance", "--config", str(cfg), "--eps", "0.05"])
    assert rc == 2
    assert "radius_two" in capsys.readouterr().err
