"""Command line surface: documents, formats, exit codes."""

import json
import math

import numpy as np
import pytest

import bellbound
from bellbound.cli import RunConfig, main, run

DOC_KEYS = {"command", "config", "results", "components", "errors",
            "timing_seconds", "tool_version"}


def read_doc(path):
    with open(path) as handle:
        return json.load(handle)


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert main(["chsh", "--format", "csv"]) == 1
    assert "sigma-curve" in capsys.readouterr().err
    assert main(["chsh", "--truncation", "1"]) == 1
    assert main(["eigenvalues", "--truncation", "5", "--n-max", "10"]) == 1
    capsys.readouterr()
    assert main(["eigenvalues", "--n-max", "25"]) == 1  # generating route cap
    assert "n_max" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--sigma-step", "0", "sigma_step"),
        ("--sigma-step", "-0.1", "sigma_step"),
        ("--sigma-max", "nan", "sigma_max"),
        ("--r-max", "inf", "r_max"),
        ("--r-max", "nan", "r_max"),
        ("--abs-tol", "nan", "abs_tol"),
        ("--seed", "-1", "seed"),
        ("--sigma-max", "0.1", "sigma_max"),
    ],
)
def test_invalid_spec_values_exit_one(capsys, flag, value, field):
    assert main(["sigma-curve", flag, value]) == 1
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def test_unwritable_output_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "doc.json"
    assert main(["chsh", "--out", str(target)]) == 1
    assert "cannot write" in capsys.readouterr().err


def test_chsh_document(tmp_path):
    out = tmp_path / "chsh.json"
    assert main(["chsh", "--out", str(out)]) == 0
    doc = read_doc(out)
    assert set(doc) == DOC_KEYS
    assert doc["command"] == "chsh"
    assert doc["tool_version"] == bellbound.__version__
    assert doc["config"]["truncation"] == 2
    assert doc["config"]["seed"] == 42
    res = doc["results"]
    assert abs(res["hv_bound"] - 4.0) < 1e-10
    assert res["reconstruction_residual"] < 1e-10
    assert abs(res["qm_mean"] - 2.0 * math.sqrt(2.0)) < 1e-10
    assert res["violation"] is True
    assert doc["timing_seconds"] > 0.0


def test_eigenvalues_document(tmp_path):
    out = tmp_path / "eig.json"
    assert main(["eigenvalues", "--out", str(out)]) == 0
    doc = read_doc(out)
    assert abs(doc["results"]["lambda_1"] - (4.0 / math.sqrt(math.e) - 1.0)) < 1e-9
    assert doc["results"]["max_route_gap"] < 1e-8
    assert len(doc["components"]["quadrature"]) == 11
    assert len(doc["components"]["generating"]) == 11
    assert main(["eigenvalues", "--n-max", "3", "--out", str(out)]) == 0
    assert len(read_doc(out)["components"]["quadrature"]) == 4


def test_single_particle_document(tmp_path):
    out = tmp_path / "sp.json"
    assert main(["single-particle", "--out", str(out)]) == 0
    doc = read_doc(out)
    comps = doc["components"]
    assert set(comps) == {"full_full", "core_full", "full_core", "core_core"}
    assert abs(comps["full_full"] - 1.0) < 1e-6
    assert abs(doc["results"]["hv_bound"] - 1.4005569181) < 1e-6
    assert doc["results"]["violation"] is True
    assert doc["errors"]["total"] < 1e-6


def test_wigner_formats_agree(tmp_path):
    args = ["wigner", "--r-max", "2", "--points", "9"]
    jpath = tmp_path / "w.json"
    cpath = tmp_path / "w.csv"
    assert main(args + ["--out", str(jpath)]) == 0
    assert main(args + ["--format", "csv", "--out", str(cpath)]) == 0
    lines = cpath.read_text().strip().split("\n")
    assert lines[0] == "re_alpha,im_alpha,w"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows.shape == (81, 3)
    doc = read_doc(jpath)
    assert doc["results"]["grid_points"] == 81
    # format invariant: summary values match the grid to full precision
    assert abs(doc["results"]["w_min"] - rows[:, 2].min()) < 1e-15
    assert abs(doc["results"]["w_max"] - rows[:, 2].max()) < 1e-15
    # first excited state: negative exactly where the grid enters the disk
    # (the 0.5-step grid touches the zero circle, so leave it out)
    r2 = rows[:, 0] ** 2 + rows[:, 1] ** 2
    assert np.all(rows[r2 < 0.25 - 1e-9, 2] < 0.0)
    assert np.all(rows[r2 > 0.25 + 1e-9, 2] > 0.0)


def test_wigner_pair_slice(tmp_path):
    out = tmp_path / "bell.json"
    assert main(["wigner", "--state", "bell", "--r-max", "1", "--points", "5",
                 "--out", str(out)]) == 0
    doc = read_doc(out)
    # odd point count puts the origin on the grid, where W = -1/pi^2
    assert abs(doc["results"]["w_min"] + 1.0 / math.pi**2) < 1e-8


def test_sigma_curve_round_trip(tmp_path):
    args = ["sigma-curve", "--mc-samples", "100000", "--sigma-max", "0.3"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    da, db = read_doc(first), read_doc(second)
    ta = da.pop("timing_seconds")
    tb = db.pop("timing_seconds")
    assert ta > 0.0 and tb > 0.0
    assert da["config"].pop("output_path") != db["config"].pop("output_path")
    assert da == db  # bit-identical apart from the clock and the target file
    # the echoed configuration alone reproduces the run
    text = run(RunConfig(**da["config"], output_path=None))
    dc = json.loads(text)
    dc.pop("timing_seconds")
    dc["config"].pop("output_path")
    assert dc == da
    csv_text = run(RunConfig(**{**da["config"], "output_format": "csv",
                                "output_path": None}))
    lines = csv_text.strip().split("\n")
    assert lines[0] == "s,f,error"
    vals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert vals == da["components"]["values"]
    assert len(vals) == 7


def test_bipartite_short_grid_exits_two(capsys):
    # the curve is still rising at 0.3, so the tail estimate blocks the bound
    rc = main(["bipartite", "--mc-samples", "100000", "--sigma-max", "0.3"])
    assert rc == 2
    assert "did not converge" in capsys.readouterr().err
