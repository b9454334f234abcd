"""Command line surface: documents, formats, exit codes."""

import contextlib
import io
import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellbound
from bellbound import cli
from bellbound.cli import RunConfig, main, run
from bellbound.hvbound import chsh_decomposition, collapsed_operator

DOC_KEYS = {"command", "config", "results", "components", "errors",
            "timing_seconds", "tool_version"}


# the flags each command takes besides --out, each with a valid non-default
# value that changes the document
FLAG_TABLE = {
    "chsh": {},
    "single-particle": {},
    "bipartite": {},
    "eigenvalues": {"--abs-tol": "1e-15", "--n-max": "3"},
    "wigner": {"--r-max": "2", "--state": "fock0", "--points": "11", "--format": "csv"},
    "sigma-curve": {"--sigma-step": "0.25", "--sigma-max": "1.8", "--format": "csv"},
}
# flags the package no longer declares, still refused by name on every
# command: chsh, the last to take --truncation, is qubit algebra
GONE_FLAGS = {"--truncation"}
FLAGS = sorted({flag for flags in FLAG_TABLE.values() for flag in flags} | GONE_FLAGS)
# short grids to vary, so that each run stays cheap
BASE_FLAGS = {"wigner": {"--points": "9"},
              "sigma-curve": {"--sigma-step": "0.3", "--sigma-max": "1.5"}}


def read_doc(path):
    with open(path) as handle:
        return json.load(handle)


def exit_code(argv):
    """main's exit code, returned by main or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def undeclared(command):
    return [flag for flag in FLAGS if flag not in FLAG_TABLE[command]]


def test_flag_table_matches_the_package():
    # a flag the package declares but no command takes would be a dead row
    declared = {flag for flags in FLAG_TABLE.values() for flag in flags}
    assert declared | {"--out"} == set(cli._FLAGS)


@pytest.mark.parametrize("command", list(FLAG_TABLE))
def test_document_echoes_only_its_own_flags(capsys, command):
    # the config holds the command and the value of each flag it takes: a
    # setting its route never reads is not echoed as if it had been
    assert main([command]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    dests = {cli._FLAGS[flag].get("dest", flag[2:].replace("-", "_"))
             for flag in [*FLAG_TABLE[command], "--out"]}
    assert set(config) == {"command"} | dests
    assert config["command"] == command


@pytest.mark.parametrize("command", list(FLAG_TABLE))
def test_undeclared_flags_exit_one(capsys, command):
    # a flag the command's route does not read is refused, not ignored
    for flag in undeclared(command):
        assert exit_code([command, flag, "1"]) == 1, flag
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err


def payload(capsys, argv):
    """The document without its clock and configuration echo, or the CSV."""
    assert main(argv) == 0
    text = capsys.readouterr().out
    if "csv" in argv:
        return text
    doc = json.loads(text)
    del doc["timing_seconds"], doc["config"]
    return doc


@pytest.mark.parametrize("command", [c for c, flags in FLAG_TABLE.items() if flags])
def test_declared_flags_change_the_document(capsys, command):
    base = BASE_FLAGS.get(command, {})
    reference = payload(capsys, [command, *itertools.chain(*base.items())])
    for flag, value in FLAG_TABLE[command].items():
        argv = [command, *itertools.chain(*{**base, flag: value}.items())]
        if flag == "--abs-tol":
            # the closed-form spectrum's rounding bound, about 1e-14, refuses it
            assert main(argv) == 2, flag
            assert capsys.readouterr().err.rstrip().endswith("raise --abs-tol")
            continue
        assert payload(capsys, argv) != reference, flag


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert main(["eigenvalues", "--n-max", "0"]) == 1
    assert "n_max" in capsys.readouterr().err
    assert main(["eigenvalues", "--n-max", "25"]) == 1  # generating route cap
    assert "n_max" in capsys.readouterr().err
    # flags that would change nothing are refused by argparse: chsh is qubit
    # algebra at any cutoff and has no grid to write as csv, eigenvalues
    # quantizes the orders it reports, and the sigma curve runs two fixed
    # node levels
    for argv in (["chsh", "--truncation", "1"], ["chsh", "--format", "csv"],
                 ["eigenvalues", "--truncation", "64"],
                 ["sigma-curve", "--abs-tol", "1e-3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1 and argv[1] in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--sigma-step", "0", "sigma_step"),
        ("--sigma-step", "-0.1", "sigma_step"),
        ("--sigma-max", "nan", "sigma_max"),
        ("--r-max", "inf", "r_max"),
        ("--r-max", "nan", "r_max"),
        ("--r-max", "0", "r_max"),
        ("--r-max", "-1", "r_max"),
        ("--abs-tol", "nan", "abs_tol"),
        ("--seed", "-1", "seed"),
        ("--sigma-max", "0.1", "sigma_max"),
        ("--sigma-step", "1e-300", "sigma_step"),
        ("--sigma-step", "1e-7", "sigma_max"),
    ],
)
def test_invalid_spec_values_exit_one(capsys, flag, value, field):
    # eigenvalues is the one command that takes --abs-tol, wigner --r-max
    command = {"--abs-tol": "eigenvalues", "--r-max": "wigner"}.get(flag, "sigma-curve")
    assert main([command, flag, value]) == 1
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, knob",
    [
        # each of these once ran to exit 0 with a wrong answer and a tiny
        # error bar; neither route reads r_max or a cutoff, so both refuse the flag
        (["single-particle", "--r-max", "0.01"], "r_max"),
        (["bipartite", "--r-max", "4.5"], "r_max"),
        # the sigma curve's separation rule ends a fixed reach past the jump
        (["sigma-curve", "--r-max", "6"], "r_max"),
        (["bipartite", "--truncation", "33"], "truncation"),
        (["single-particle", "--truncation", "1025"], "truncation"),
        # a grid of points^2 values: 10^7 per axis would need 1.42 PiB
        (["wigner", "--points", "10000000"], "points"),
        # chsh is qubit algebra and takes no cutoff, however large
        (["chsh", "--truncation", "33"], "truncation"),
    ],
)
def test_out_of_bounds_inputs_exit_one(capsys, argv, knob):
    assert exit_code(argv) == 1
    err = capsys.readouterr().err
    # the field, or the flag that argparse refuses
    assert knob in err.replace("-", "_") and "Traceback" not in err


def sizes(low, high, limit):
    # small sizes inside the bounds, and sizes the CLI must refuse on either
    # side of them before it allocates anything
    refused = st.integers(max_value=low - 1) | st.integers(min_value=limit + 1)
    return st.integers(low, high) | refused


# plausible values as often as any float at all; a positive tolerance below
# the closed-form spectrum's rounding bound exits 2
REALS = st.floats(1e-3, 1e3) | st.floats()
TOLERANCES = st.one_of(st.floats(1e-30, 1e-3), st.floats(min_value=0.0, exclude_min=True),
                       st.floats(max_value=0.0), st.just(math.nan))


# each command's declared flags and their draws
NUMERIC_FLAGS = {
    # chsh takes no numeric flag; its draws try only the foreign-flag refusal
    "chsh": {},
    "eigenvalues": {"--abs-tol": TOLERANCES, "--n-max": st.integers(1, 20) | st.integers()},
    "wigner": {"--r-max": REALS, "--points": sizes(2, 64, 1024),
               "--state": st.sampled_from(["fock0", "fock1", "bell"])},
}


@st.composite
def numeric_argv(draw):
    command = draw(st.sampled_from(list(NUMERIC_FLAGS)))
    chosen = draw(st.fixed_dictionaries({}, optional=NUMERIC_FLAGS[command]))
    # now and then a flag the command does not take, which it must refuse
    foreign = draw(st.none() | st.sampled_from(undeclared(command)))
    if foreign is not None:
        chosen[foreign] = 1
    return [command] + [f"{flag}={value}" for flag, value in chosen.items()]


def refuse_constant(name):
    raise ValueError(f"document holds {name}")


@settings(max_examples=50, deadline=None)
@given(numeric_argv())
def test_numeric_flags_exit_cleanly(argv):
    # 0 with a finite document, 1 naming a flag it was given, or 2; an
    # exception escaping main (a warning among them) fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out.getvalue(), parse_constant=refuse_constant)
    given_flags = [arg.split("=")[0] for arg in argv[1:]]
    foreign = [flag for flag in given_flags if flag in undeclared(argv[0])]
    if foreign:
        assert code == 1 and foreign[0] in err, (argv, err)
    if code == 1:
        assert any(flag in err or flag[2:].replace("-", "_") in err
                   for flag in given_flags), (argv, err)


@pytest.mark.parametrize("command", list(FLAG_TABLE))
@pytest.mark.parametrize("flag", ["--mc-samples", "--seed"])
def test_retired_monte_carlo_flags_exit_one(capsys, command, flag):
    assert main([command, flag, "7"]) == 1
    err = capsys.readouterr().err
    assert flag in err and "retired" in err


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
    assert doc["config"] == {"command": "chsh", "output_path": str(out)}
    res = doc["results"]
    assert abs(res["hv_bound"] - 4.0) < 1e-10
    assert res["reconstruction_residual"] < 1e-10
    assert abs(res["qm_mean"] - 2.0 * math.sqrt(2.0)) < 1e-10
    assert res["violation"] is True
    assert doc["timing_seconds"] > 0.0


def test_chsh_reconstruction_matches_einsum(tmp_path):
    # the residual of sum_u w_u P_u B P_u against hv_bound times the identity,
    # formed here by the direct four-operand contraction
    out = tmp_path / "chsh.json"
    assert main(["chsh", "--out", str(out)]) == 0
    res = read_doc(out)["results"]
    dec = chsh_decomposition()
    mats = np.stack([p.entries for _, p in dec.terms])
    weights = np.array([w for w, _ in dec.terms])
    collapsed = np.einsum("u,uij,jk,ukl->il", weights, mats, dec.target.entries, mats)
    eye = np.eye(mats.shape[1])
    residual = np.max(np.abs(collapsed - res["hv_bound"] * eye))
    assert abs(res["reconstruction_residual"] - residual) <= 1e-15
    # and exactly the residual of the one operator behind hv_bound
    operator = collapsed_operator(dec).entries
    assert res["reconstruction_residual"] == np.max(np.abs(operator - res["hv_bound"] * eye))


def test_eigenvalues_document(tmp_path):
    out = tmp_path / "eig.json"
    assert main(["eigenvalues", "--out", str(out)]) == 0
    doc = read_doc(out)
    assert abs(doc["results"]["lambda_1"] - (4.0 / math.sqrt(math.e) - 1.0)) < 1e-9
    assert doc["results"]["max_route_gap"] < 1e-8
    assert len(doc["components"]["quadrature"]) == 11
    assert len(doc["components"]["generating"]) == 11
    assert main(["eigenvalues", "--n-max", "3", "--out", str(out)]) == 0
    four = read_doc(out)
    assert len(four["components"]["quadrature"]) == 4


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


def test_wigner_far_grid_stays_finite(tmp_path, capsys):
    # W vanishes far out: a huge r_max gives exact zeros and no overflow;
    # an r_max whose grid span itself overflows is refused by name
    out = tmp_path / "far.json"
    assert main(["wigner", "--r-max", "1e200", "--points", "3",
                 "--out", str(out)]) == 0
    res = read_doc(out)["results"]
    assert abs(res["w_min"] + 1.0 / math.pi) < 1e-15  # first excited state at 0
    assert res["w_max"] == 0.0
    assert res["negative_points"] == 1
    # the corners of an 8e307 grid sit past float64 in |2 alpha| alone
    assert main(["wigner", "--r-max", "8e307", "--points", "3",
                 "--out", str(out)]) == 0
    assert read_doc(out)["results"]["w_max"] == 0.0
    # a subnormal r_max puts every point at the origin's value, with no
    # overflow in the phase alpha/|alpha|
    assert main(["wigner", "--r-max", "5e-324", "--points", "3",
                 "--out", str(out)]) == 0
    res = read_doc(out)["results"]
    assert res["negative_points"] == 9
    assert abs(res["w_min"] + 1.0 / math.pi) < 1e-15 and res["w_max"] == res["w_min"]
    assert main(["wigner", "--r-max", "1e308", "--points", "3"]) == 1
    err = capsys.readouterr().err
    assert "r_max" in err and "Traceback" not in err


def test_sigma_curve_round_trip(tmp_path):
    args = ["sigma-curve", "--sigma-max", "0.3"]
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
    # the mass beyond the grid is measured against the bipartite signed disc
    # integral, which reads no grid, with its error
    disc, disc_err = bellbound.sign_disc(bellbound.bp_hv_bound(bellbound.BipartiteCase()))
    assert da["results"]["beyond_grid"] == disc - da["results"]["integral"]
    assert da["errors"]["beyond_grid"] == disc_err + da["errors"]["integral"]


def test_sigma_curve_fails_non_finite_points(capsys):
    # a grid past float64 range leaves the curve's points non-finite: the
    # run fails with exit 2, naming sigma_max, instead of printing NaN, and no
    # floating-point warning (an error under this suite) escapes
    assert main(["sigma-curve", "--sigma-step", "1e299", "--sigma-max", "1e300"]) == 2
    err = capsys.readouterr().err
    assert "not finite: sigma_max 1e+300" in err and "Traceback" not in err


def test_bipartite_refuses_sigma_flags(capsys):
    # the bound integrates over the whole sigma plane; only sigma-curve
    # reads the grid
    for flag in ("--sigma-max", "--sigma-step"):
        with pytest.raises(SystemExit) as exc:
            main(["bipartite", flag, "0.3"])
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err


def test_unreachable_tolerance_exits_two_at_once(capsys):
    # the closed-form spectrum's error is its rounding bound, about 1e-14 at
    # the default orders, so a tolerance below it is refused at once
    start = time.perf_counter()
    assert main(["eigenvalues", "--abs-tol", "1e-20"]) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "stopped at error" in err and err.rstrip().endswith("raise --abs-tol")


@pytest.mark.parametrize("argv, budget", [
    # eigenvalues takes its spectrum in closed form and reads no node ladder:
    # at 3e-16 its rounding bound refuses the tolerance, by the same exit and
    # hint
    (["eigenvalues", "--abs-tol", "3e-16"], ("_PAIR_LEVELS", ((8, 8, 2), (8, 8, 3)))),
    (["single-particle"], ("_PAIR_LEVELS", ((8, 8, 2), (8, 8, 3)))),
])
def test_engine_exhaustion_names_abs_tol(capsys, monkeypatch, argv, budget):
    # a node ladder too small to converge fails as an unreachable tolerance
    # does; the hint names --abs-tol only where the command takes it
    monkeypatch.setattr(bellbound.quad, *budget)
    assert main(argv) == 2
    err = capsys.readouterr().err
    hinted = "--abs-tol" in FLAG_TABLE[argv[0]]
    assert "did not converge" in err and ("; raise" in err) == hinted
    assert err.rstrip().endswith("raise --abs-tol") == hinted
