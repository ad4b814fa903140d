"""End-to-end CLI: exit codes, file formats, manifests, reproducibility."""

import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import horocvx
from horocvx import flow, verify
from horocvx.cli import _build_parser, main
from horocvx.flow import FlowConfig
from horocvx.hconvex import support_of_ball
from horocvx.lorentz import origin
from horocvx.sphere_grid import field_to_json_dict, load_field, make_grid

MANIFEST_KEYS = {"command", "parameters", "inputs", "outputs", "version", "grid"}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_field(path, grid, values, kind=None):
    """A field file, as the CLI reads it."""
    with open(path, "w") as fh:
        json.dump(field_to_json_dict(grid, values, kind), fh)


def mkball(tmp_path, name, radius, grid="s1:64"):
    out = tmp_path / name
    rc = main(
        ["mkfield", "--grid", grid, "--ball", "--radius", str(radius), "--out", str(out)]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# mkfield and the field file format


def test_mkfield_ball_schema_and_manifest(tmp_path):
    out = mkball(tmp_path, "ball.json", math.log(2.0))
    obj = read_json(out)
    assert obj["n"] == 1
    assert obj["grid"] == {"type": "uniform_s1", "nodes": 64}
    assert obj["kind"] == "support"
    assert np.allclose(obj["values"], 2.0, atol=1e-15)
    manifest = read_json(str(out) + ".manifest.json")
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == "mkfield"
    assert manifest["outputs"] == [str(out)]
    assert manifest["inputs"] == {}
    assert manifest["grid"] == {"type": "uniform_s1", "nodes": 64}


def test_mkfield_s2_and_center(tmp_path):
    out = tmp_path / "ball2.json"
    rc = main(
        [
            "mkfield",
            "--grid",
            "s2:8x16",
            "--ball",
            "--center",
            "0.3,0.0,0.1",
            "--radius",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    grid, values, kind = load_field(out)
    assert grid.resolution == (8, 16)
    assert kind == "support"
    assert np.all(values > 0.0)


def test_mkfield_random_is_seeded(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    for out, seed in ((a, "5"), (b, "5"), (c, "6")):
        rc = main(
            ["mkfield", "--grid", "s1:64", "--random", "--seed", seed, "--out", str(out)]
        )
        assert rc == 0
    assert read_json(a)["values"] == read_json(b)["values"]
    assert read_json(a)["values"] != read_json(c)["values"]


def test_mkfield_manifest_records_the_seed_as_a_parameter(tmp_path):
    out = tmp_path / "r.json"
    assert main(["mkfield", "--grid", "s1:64", "--random", "--seed", "5", "--out", str(out)]) == 0
    manifest = read_json(str(out) + ".manifest.json")
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["parameters"]["seed"] == 5


# Options of another mode, or two modes: each would be ignored.
MKFIELD_CONFLICTS = [
    pytest.param(["--ball", "--radius", "0.5", "--random", "--seed", "3", "--constant", "2"],
                 id="three-modes"),
    pytest.param(["--ball", "--radius", "0.4", "--random"], id="ball-and-random"),
    pytest.param(["--constant", "2", "--radius", "3", "--seed", "9"], id="constant-radius-seed"),
    pytest.param(["--constant", "2", "--radius", "3"], id="radius-without-ball"),
    pytest.param(["--random", "--center", "origin"], id="center-without-ball"),
    pytest.param(["--ball", "--radius", "0.5", "--seed", "1"], id="seed-without-random"),
]


@pytest.mark.parametrize("options", MKFIELD_CONFLICTS)
def test_mkfield_options_of_another_mode_are_a_usage_error(tmp_path, capsys, options):
    out = tmp_path / "x.json"
    assert main(["mkfield", "--grid", "s1:32", *options, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    assert not out.exists()


def test_mkfield_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["mkfield", "--grid", "s1:64", "--out", out]) == 2  # no mode
    assert main(["mkfield", "--grid", "s1:63", "--ball", "--radius", "1", "--out", out]) == 2
    assert main(["mkfield", "--grid", "s2:8x20", "--ball", "--radius", "1", "--out", out]) == 2
    assert main(["mkfield", "--grid", "huh", "--ball", "--radius", "1", "--out", out]) == 2
    assert main(["mkfield", "--grid", "s1:64", "--ball", "--out", out]) == 2  # no radius
    # A constant field is a support field, refused by its rule.
    for value in ("0", "-1.0"):
        capsys.readouterr()
        assert main(["mkfield", "--grid", "s1:64", f"--constant={value}", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: bad --constant {float(value)}: "
            "support field phi must be finite and positive at every node\n"
        )
    # A center that does not parse, which the CLI refuses naming the
    # option; one whose point is not finite, whose height overflows
    # (refused with no RuntimeWarning, which filterwarnings = error would
    # raise), or that does not give S^1's 2 spatial coordinates, which
    # support_of_point refuses by its own rules.
    for center, why in (
        ("1,abc", "error: bad --center '1,abc': could not convert"),
        ("nan,0", "is not finite"),
        ("1e300,1e300", "is not finite"),
        ("0.5,0,2", "error: a point for a grid on S^1 needs 2 spatial coordinates"),
        ("0.1", "error: a point for a grid on S^1 needs 2 spatial coordinates"),
    ):
        argv = ["mkfield", "--grid", "s1:64", "--ball", "--radius", "1", "--center", center]
        capsys.readouterr()
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and why in err


def test_cli_arg_parsing_exit_codes(tmp_path):
    assert main([]) == 2
    assert main(["not-a-command"]) == 2
    assert main(["--version"]) == 0


# Every float option, each in a command line that is otherwise valid.
FLOAT_OPTIONS = [
    (["mkfield", "--grid", "s1:64", "--ball", "--radius", "0.5"], "--radius"),
    (["mkfield", "--grid", "s1:64", "--constant", "2.0"], "--constant"),
    (["psum", "--a", "1", "--K", "K.json", "--p", "2", "--b", "1", "--L", "L.json"], "--a"),
    (["psum", "--a", "1", "--K", "K.json", "--p", "2", "--b", "1", "--L", "L.json"], "--p"),
    (["psum", "--a", "1", "--K", "K.json", "--p", "2", "--b", "1", "--L", "L.json"], "--b"),
    (["dilate", "--a", "2", "--p", "1", "--K", "K.json"], "--a"),
    (["dilate", "--a", "2", "--p", "1", "--K", "K.json"], "--p"),
    (["steiner", "--K", "K.json", "--rho", "0.3"], "--rho"),
    (["measure", "--K", "K.json", "--p", "1", "--k", "0"], "--p"),
    (["ballsolve", "--n", "2", "--k", "0", "--p", "4", "--gamma", "0.02"], "--p"),
    (["ballsolve", "--n", "2", "--k", "0", "--p", "4", "--gamma", "0.02"], "--gamma"),
    (["assumption-h", "--f", "f.json", "--k", "1", "--p", "1"], "--p"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv, flag", FLOAT_OPTIONS, ids=[f"{a[0]}{f}" for a, f in FLOAT_OPTIONS]
)
def test_non_finite_float_option_is_a_usage_error(tmp_path, capsys, argv, flag, value):
    # NaN or infinity would reach the kernels, or the output JSON as NaN.
    # --flag=value, since argparse reads a separate "-inf" as an option.
    i = argv.index(flag)
    argv = argv[:i] + [f"{flag}={value}"] + argv[i + 2:]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a finite number" in err
    assert not out.exists()


# Values of the right type that a command cannot use, on an s1:64 ball
# K.json or an s2:8 ball S2.json; the rule that owns each value, the
# kernel's (ArgumentError) or the CLI's, refuses it before any output.
BALLSOLVE = ["ballsolve", "--p", "4", "--gamma", "1"]
PSUM = ["psum", "--K", "K.json", "--L", "K.json"]
OUT_OF_RANGE = [
    pytest.param(["mkfield", "--grid", "s1:64", "--ball", "--radius=-1"], id="radius"),
    pytest.param(["mkfield", "--grid", "s1:64", "--random", "--seed=-3"], id="seed"),
    pytest.param(["quermass", "--K", "K.json", "--k", "7"], id="quermass-k7"),
    pytest.param(["quermass", "--K", "K.json", "--k=-1"], id="quermass-k-1"),
    pytest.param(["measure", "--K", "K.json", "--p", "1", "--k", "9"], id="measure-k9"),
    pytest.param(["kw", "--K", "K.json", "--f", "K.json", "--k", "4"], id="kw-k4"),
    pytest.param(["assumption-h", "--f", "K.json", "--k", "2", "--p", "1"], id="assumption-h-k2"),
    pytest.param(BALLSOLVE + ["--n", "0", "--k", "0"], id="ballsolve-n0"),
    pytest.param(BALLSOLVE + ["--n", "3", "--k", "0"], id="ballsolve-n3"),
    pytest.param(BALLSOLVE + ["--n", "2", "--k", "3"], id="ballsolve-k3"),
    pytest.param(BALLSOLVE + ["--n", "2", "--k", "2"], id="ballsolve-k=n"),
    pytest.param(BALLSOLVE + ["--n", "2", "--k", "1", "--p=-5"], id="ballsolve-p-5"),
    pytest.param(BALLSOLVE + ["--n", "2", "--k", "0", "--gamma", "0"], id="ballsolve-gamma0"),
    pytest.param(BALLSOLVE + ["--n", "2", "--k", "0", "--gamma=-1"], id="ballsolve-gamma-1"),
    pytest.param(["steiner", "--K", "K.json", "--rho=-5"], id="steiner-rho-5"),
    pytest.param(PSUM + ["--a", "1", "--b", "1", "--p", "0.4"], id="psum-p0.4"),
    pytest.param(PSUM + ["--a=-1", "--b", "1", "--p", "1"], id="psum-a-1"),
    pytest.param(PSUM + ["--a", "0.2", "--b", "0.2", "--p", "1"], id="psum-a+b0.4"),
    pytest.param(["dilate", "--K", "K.json", "--a", "0.5", "--p", "1"], id="dilate-a0.5"),
    pytest.param(["dilate", "--K", "K.json", "--a", "2", "--p=-1"], id="dilate-p-1"),
    pytest.param(["assumption-h", "--f", "S2.json", "--k", "0", "--p", "1"],
                 id="assumption-h-k0"),
    pytest.param(["assumption-h", "--f", "S2.json", "--k", "1", "--p=-5"],
                 id="assumption-h-p-5"),
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE)
def test_out_of_range_option_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    mkball(tmp_path, "K.json", 0.5)
    mkball(tmp_path, "S2.json", 0.5, grid="s2:8")
    capsys.readouterr()
    assert main(argv + ["--out", "out.json"]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


# Values in range whose result overflows a float: an error line naming
# the value, exit 1 (a RuntimeWarning fails the test, as pyproject.toml
# sets).  K.json is an s1:64 ball, R.json a random s1:64 field.
OVERFLOWS = [
    pytest.param(["mkfield", "--grid", "s1:32", "--ball", "--radius", "800"], "800", id="ball"),
    pytest.param(["dilate", "--a", "1e300", "--p", "0.001", "--K", "K.json"], "1e+300",
                 id="dilate"),
    pytest.param(["steiner", "--K", "K.json", "--rho", "800"], "800", id="steiner"),
    pytest.param(["steiner", "--K", "K.json", "--rho", "400", "--kind", "weighted"], "400",
                 id="steiner-weighted"),
    pytest.param(["steiner", "--K", "R.json", "--rho", "400"], "400", id="steiner-random"),
    pytest.param(["ballsolve", "--n", "2", "--k", "1", "--p", "300", "--gamma", "0.001"],
                 "300", id="ballsolve-n2"),
    pytest.param(["ballsolve", "--n", "1", "--k", "0", "--p", "300", "--gamma", "1"],
                 "300", id="ballsolve-n1"),
    # A root c beyond the float range: zeta = c^0.001 / 2 rises too slowly.
    pytest.param(["ballsolve", "--n", "2", "--k", "1", "--p=-0.001", "--gamma", "1000"],
                 "gamma = 1000", id="ballsolve-gamma"),
]


@pytest.mark.parametrize("argv, value", OVERFLOWS)
def test_overflowing_value_is_an_error_line(tmp_path, monkeypatch, capsys, argv, value):
    monkeypatch.chdir(tmp_path)
    mkball(tmp_path, "K.json", 0.5)
    assert main(["mkfield", "--grid", "s1:64", "--random", "--seed", "3", "--out", "R.json"]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", "out.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and value in err
    assert not (tmp_path / "out.json").exists()


def test_verify_has_no_seed(capsys):
    # The corpus is fixed; a seed that changed nothing is not an option.
    assert main(["verify", "bm_balls", "--seed", "3"]) == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


SCIPY_FREE_SESSION = """
import json
import sys
import horocvx, horocvx.cli
from horocvx.cli import main
assert main(["--version"]) == 0
for name, radius in (("K.json", "0.4"), ("L.json", "0.9")):
    assert main(["mkfield", "--grid", "s1:64", "--ball", "--radius", radius, "--out", name]) == 0
assert main(["psum", "--a", "0.7", "--K", "K.json", "--p", "1.5", "--b", "0.6",
             "--L", "L.json", "--out", "sum.json"]) == 0
assert main(["mkfield", "--grid", "s1:64", "--random", "--seed", "3", "--out", "R.json"]) == 0
assert main(["mkfield", "--grid", "s2:16", "--random", "--seed", "3", "--out", "R2.json"]) == 0
for name in ("sum", "R", "R2"):
    assert main(["quermass", "--K", name + ".json", "--out", "w" + name + ".json"]) == 0
for kind in ("shifted", "weighted"):
    assert main(["steiner", "--K", "R.json", "--rho", "0.3", "--kind", kind,
                 "--out", kind + ".json"]) == 0
assert main(["ballsolve", "--n", "2", "--k", "0", "--p", "4", "--gamma", "0.02",
             "--out", "balls.json"]) == 0  # two bracketed roots
with open("flow.json", "w") as fh:
    json.dump({"n": 1, "k": 0, "p": 2.0, "max_steps": 5}, fh)
assert main(["flow", "--config", "flow.json", "--K", "R.json", "--out", "trace.csv"]) == 1
with open("flow2.json", "w") as fh:
    json.dump({"n": 2, "k": 1, "p": 1.0, "max_steps": 3}, fh)
assert main(["flow", "--config", "flow2.json", "--K", "R2.json", "--out", "trace2.csv"]) == 1
assert main(["verify", "min_I_p1_Lball", "--out", "records.csv"]) == 0  # S^2 bodies
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_and_every_command_load_no_scipy(tmp_path):
    # The package has no scipy import: commands on S^1 and S^2 fields, the
    # ball solve, both flows and a verify suite on S^2 bodies run without it.
    src = str(Path(horocvx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_SESSION],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "sum.json").exists()
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == 7
    assert len((tmp_path / "trace2.csv").read_text().splitlines()) == 5


def _loaded_modules(tmp_path, code):
    """Sorted ``sys.modules`` names after running ``code`` in a fresh
    interpreter in ``tmp_path``."""
    src = str(Path(horocvx.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(json.dumps(sorted(sys.modules)))"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_commands_load_only_their_own(tmp_path):
    loaded = _loaded_modules(tmp_path, "import json, horocvx")
    assert [m for m in loaded if m.startswith("horocvx")] == ["horocvx"]
    assert "numpy" not in loaded
    loaded = _loaded_modules(
        tmp_path, "import json, horocvx\nassert callable(horocvx.quermass.I_k)"
    )
    assert "horocvx.quermass" in loaded
    (tmp_path / "flow.json").write_text(json.dumps({"n": 1, "k": 0, "p": 0.0, "grid": "s1:32"}))
    session = [
        ["mkfield", "--grid", "s1:32", "--random", "--seed", "3", "--out", "K.json"],
        ["mkfield", "--grid", "s1:32", "--ball", "--radius", "0.9", "--out", "L.json"],
        ["psum", "--a", "1", "--K", "K.json", "--p", "2", "--b", "1", "--L", "L.json",
         "--out", "M.json"],
        ["quermass", "--K", "M.json", "--out", "w.json"],
        ["steiner", "--K", "M.json", "--rho", "0.3", "--out", "s.json"],
        ["flow", "--config", "flow.json", "--out", "t.csv"],
    ]
    session.append(["project", "--K", "M.json", "--out", "hat.json"])
    session.append(["measure", "--K", "M.json", "--p", "1", "--k", "0", "--out", "m.json"])
    for argv in session:
        loaded = _loaded_modules(
            tmp_path, f"import json\nfrom horocvx.cli import main\nassert main({argv!r}) == 0"
        )
        assert "horocvx.verify" not in loaded, argv
        if argv[0] == "project":
            assert "horocvx.quermass" not in loaded, argv
        else:
            assert "horocvx.euclid_bridge" not in loaded, argv
        if argv[0] == "mkfield":
            assert "horocvx.flow" not in loaded, argv
        if argv[0] == "measure":
            # The density kernel lives in hconvex, which every command loads.
            for module in ("problems", "psum", "quermass"):
                assert f"horocvx.{module}" not in loaded, argv


# ---------------------------------------------------------------------------
# pipelines through files


def test_psum_pipeline_closed_form(tmp_path):
    K = mkball(tmp_path, "K.json", 0.4)
    L = mkball(tmp_path, "L.json", 0.9)
    out = tmp_path / "sum.json"
    rc = main(
        ["psum", "--a", "0.7", "--K", str(K), "--p", "1.5", "--b", "0.6", "--L", str(L), "--out", str(out)]
    )
    assert rc == 0
    _, values, _ = load_field(out)
    want = (0.7 * math.exp(1.5 * 0.4) + 0.6 * math.exp(1.5 * 0.9)) ** (1.0 / 1.5)
    assert np.allclose(values, want, atol=1e-12)
    manifest = read_json(str(out) + ".manifest.json")
    assert set(manifest["inputs"]) == {str(K), str(L)}
    for digest in manifest["inputs"].values():
        assert len(digest) == 64


def test_dilate_pipeline(tmp_path):
    K = mkball(tmp_path, "K.json", 0.5)
    out = tmp_path / "dilated.json"
    assert main(["dilate", "--a", "2.0", "--p", "1.0", "--K", str(K), "--out", str(out)]) == 0
    _, values, _ = load_field(out)
    assert np.allclose(values, 2.0 * math.exp(0.5), atol=1e-13)


def test_quermass_report(tmp_path):
    r = math.log(2.0)
    K = mkball(tmp_path, "K.json", r)
    out = tmp_path / "quermass.json"
    assert main(["quermass", "--K", str(K), "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["n"] == 1
    # n=1 ball: W_0 = 2 pi (cosh r - 1), W_1 = 2 pi (1 - e^{-r}).
    assert rep["quermass"]["W0"]["value"] == pytest.approx(
        2.0 * math.pi * (math.cosh(r) - 1.0), abs=1e-10
    )
    assert rep["quermass"]["W1"]["value"] == pytest.approx(math.pi, abs=1e-10)
    assert rep["quermass"]["W0"]["mean_radius"] == pytest.approx(r, abs=1e-10)
    assert rep["quermass"]["W1"]["method"] == "ball-closed-form"


def test_quermass_of_a_large_constant_field_reports_its_radius(tmp_path):
    # Its W_2 rounds to the bound omega / 2, which no ball radius inverts.
    K, out = tmp_path / "K.json", tmp_path / "quermass.json"
    assert main(["mkfield", "--grid", "s2:8", "--constant", "1e16", "--out", str(K)]) == 0
    assert main(["quermass", "--K", str(K), "--out", str(out)]) == 0
    assert read_json(out)["quermass"]["W2"]["mean_radius"] == 36.841361487904734


def test_steiner_kinds(tmp_path):
    K = mkball(tmp_path, "K.json", 0.6, grid="s2:8x16")
    for kind in ("shifted", "weighted"):
        out = tmp_path / f"steiner-{kind}.json"
        assert main(
            ["steiner", "--K", str(K), "--rho", "0.3", "--kind", kind, "--out", str(out)]
        ) == 0
        rep = read_json(out)
        assert rep["kind"] == kind
        if kind == "weighted":
            assert abs(rep["residual_integral_form"]) < 1e-8
            assert abs(rep["residual_closed_form"]) < 1e-8
        else:
            assert all(abs(v) < 1e-8 for v in rep["shifted_residuals"])
            assert abs(rep["classical_residual"]) < 1e-8


def test_steiner_classical_kind_is_a_usage_error(tmp_path, capsys):
    # It wrote the shifted report under another label; that report carries
    # classical_residual.
    K = mkball(tmp_path, "K.json", 0.6)
    out = tmp_path / "steiner.json"
    argv = ["steiner", "--K", str(K), "--rho", "0.3", "--kind", "classical", "--out", str(out)]
    assert main(argv) == 2
    assert "invalid choice: 'classical'" in capsys.readouterr().err
    assert not out.exists()


def test_weighted_report(tmp_path):
    r = 0.5
    K = mkball(tmp_path, "K.json", r)
    out = tmp_path / "weighted.json"
    assert main(["weighted", "--K", str(K), "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["weighted_volume"] == pytest.approx(
        math.pi * math.sinh(r) ** 2, abs=1e-10
    )
    assert rep["S"] == pytest.approx(math.sinh(r), abs=1e-10)
    assert all(abs(v) < 1e-10 for v in rep["minkowski_classical_residuals"])


def test_measure_report(tmp_path):
    K = mkball(tmp_path, "K.json", math.log(2.0))
    out = tmp_path / "measure.json"
    assert main(["measure", "--K", str(K), "--p", "1.0", "--k", "0", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["kind"] == "measure-density"
    assert rep["p"] == 1.0 and rep["k"] == 0
    # phi = 2, n = 1, p = 1, k = 0: density 2^{-1} (3/4) = 3/8 everywhere.
    assert np.allclose(rep["values"], 0.375, atol=1e-12)
    assert rep["total"] == pytest.approx(2.0 * math.pi * 0.375, abs=1e-10)


def test_kw_report(tmp_path):
    K = mkball(tmp_path, "K.json", math.log(2.0))
    grid = make_grid(1, 64)
    theta = grid.theta
    fpath = tmp_path / "f.json"
    write_field(fpath, grid, 1.0 + 0.5 * np.cos(theta), kind="data")
    out = tmp_path / "kw.json"
    assert main(["kw", "--K", str(K), "--f", str(fpath), "--k", "0", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["coordinate_integrals"][0] == pytest.approx(math.pi / 4.0, abs=1e-8)
    assert rep["general_identity_residual"] < 1e-10
    assert rep["max_abs_coordinate_integral"] == pytest.approx(math.pi / 4.0, abs=1e-8)


def test_ballsolve_report(tmp_path):
    out = tmp_path / "balls.json"
    rc = main(
        ["ballsolve", "--n", "2", "--k", "0", "--p", "4.0", "--gamma", "0.02", "--out", str(out)]
    )
    assert rc == 0
    rep = read_json(out)
    assert rep["case"] == "two-roots"
    assert rep["gamma0"] == pytest.approx(1.0 / 27.0, abs=1e-12)
    assert rep["t0"] == pytest.approx(math.sqrt(3.0), abs=1e-12)
    c1, c2 = rep["c_values"]
    assert c1 < math.sqrt(3.0) < c2
    assert all(r <= 1e-12 for r in rep["residuals"])


def test_ballsolve_at_k0_accepts_p_below_minus_n(tmp_path):
    out = tmp_path / "b.json"
    argv = ["ballsolve", "--n", "1", "--k", "0", "--p", "-5", "--gamma", "1", "--out", str(out)]
    assert main(argv) == 0
    rep = read_json(out)
    assert rep["case"] == "unique"
    assert len(rep["c_values"]) == 1 and rep["residuals"][0] <= 1e-12


def test_assumption_h_report(tmp_path):
    grid = make_grid(2, 8)
    z = grid.nodes
    fpath = tmp_path / "f.json"
    write_field(fpath, grid, 1.0 + 0.05 * (3.0 * z[:, 2] ** 2 - 1.0), kind="data")
    out = tmp_path / "assumption.json"
    assert main(["assumption-h", "--f", str(fpath), "--k", "1", "--p", "1.0", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["passes"] is True
    assert rep["regime"] == 5


def test_project_report(tmp_path):
    K = mkball(tmp_path, "K.json", math.log(2.0))
    out = tmp_path / "hat.json"
    assert main(["project", "--K", str(K), "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["kind"] == "euclidean-support"
    assert rep["euclidean_volume"] == pytest.approx(4.0 * math.pi, abs=1e-10)


def test_project_reuses_its_projection(tmp_path, fft_counts):
    # One derivative pass for K; the volume reads the form that project()
    # built from K's Hessian instead of analysing u^ = phi again.  An
    # origin ball is constant and makes no pass at all.
    R = tmp_path / "R.json"
    assert main(["mkfield", "--grid", "s1:64", "--random", "--seed", "3", "--out", str(R)]) == 0
    ball = mkball(tmp_path, "K.json", math.log(2.0))
    for K, calls in ((R, 2), (ball, 0)):
        fft_counts.update(rfft=0, irfft=0)
        assert main(["project", "--K", str(K), "--out", str(tmp_path / "hat.json")]) == 0
        assert fft_counts["rfft"] + fft_counts["irfft"] == calls


# ---------------------------------------------------------------------------
# flow subcommand


def test_flow_converged_run(tmp_path):
    grid = make_grid(1, 32)
    theta = grid.theta
    phi0 = tmp_path / "phi0.json"
    write_field(phi0, grid, 2.0 * (1.0 + 0.04 * np.cos(2 * theta)), kind="support")
    cfg = {
        "n": 1,
        "k": 0,
        "p": 0.0,
        "eps_stop": 1e-4,
        "max_steps": 50000,
    }
    cfg_path = tmp_path / "flow.json"
    cfg_path.write_text(json.dumps(cfg))
    trace = tmp_path / "trace.csv"
    terminal = tmp_path / "terminal.json"
    rc = main(["flow", "--config", str(cfg_path), "--K", str(phi0), "--out", str(trace),
               "--terminal", str(terminal)])
    assert rc == 0
    rep = read_json(terminal)
    assert rep["status"] == "converged"
    assert rep["gamma_variation"] <= 1e-3
    assert rep["kind"] == "support"
    header = trace.read_text().splitlines()[0]
    assert header.startswith("t,dt,Wk,Jp")
    manifest = read_json(str(trace) + ".manifest.json")
    assert sorted(manifest["outputs"]) == sorted([str(trace), str(terminal)])
    assert str(phi0) in manifest["inputs"]


def test_flow_config_with_only_f_starts_from_a_ball_on_fs_grid(tmp_path, monkeypatch):
    # With neither --K nor a config grid, the grid is --f's and the start
    # is the default ball on it.
    seen = []
    real = flow.run

    def spy(config, phi0):
        seen.append((config, phi0))
        return real(config, phi0)

    monkeypatch.setattr(flow, "run", spy)
    f = tmp_path / "f.json"
    assert main(["mkfield", "--grid", "s1:32", "--random", "--seed", "3", "--out", str(f)]) == 0
    cfg_path = tmp_path / "flow.json"
    cfg_path.write_text(json.dumps({"n": 1, "k": 0, "p": 2.0}))
    trace = tmp_path / "trace.csv"
    assert main(["flow", "--config", str(cfg_path), "--f", str(f), "--out", str(trace)]) == 0
    (config, phi0), = seen
    f_grid, f_values, _ = load_field(f)
    assert phi0.grid == f_grid == make_grid(1, 32)
    ball = support_of_ball(f_grid, origin(1), math.log(2.0))
    assert phi0.phi.tobytes() == ball.phi.tobytes()
    assert config.f.tobytes() == f_values.tobytes()
    manifest = read_json(str(trace) + ".manifest.json")
    assert set(manifest["inputs"]) == {str(cfg_path), str(f)}
    assert manifest["grid"] == {"type": "uniform_s1", "nodes": 32}


def test_flow_terminal_file_holds_every_result_field(tmp_path):
    # Steep data make this flow reject steps; the terminal file
    # carries every FlowResult field but the field itself and the trace,
    # so its rejections are the sum of the trace's rejected column.
    grid = make_grid(1, 64)
    phi0, f = tmp_path / "phi0.json", tmp_path / "f.json"
    write_field(phi0, grid, 2.0 * (1.0 + 0.05 * np.cos(2 * grid.theta)), kind="support")
    write_field(f, grid, 1.0 + 0.9 * np.cos(2 * grid.theta))
    cfg = {"n": 1, "k": 0, "p": 0.0, "max_steps": 10}
    cfg_path = tmp_path / "flow.json"
    cfg_path.write_text(json.dumps(cfg))
    trace, terminal = tmp_path / "trace.csv", tmp_path / "terminal.json"
    argv = ["flow", "--config", str(cfg_path), "--K", str(phi0), "--f", str(f),
            "--out", str(trace), "--terminal", str(terminal)]
    assert main(argv) in (0, 1)
    rep = read_json(terminal)
    result_keys = {fld.name for fld in dataclasses.fields(flow.FlowResult)} - {"terminal", "trace"}
    assert set(rep) == result_keys | {"n", "grid", "values", "kind"}
    with open(trace) as fh:
        rejected = sum(int(row["rejected"]) for row in csv.DictReader(fh))
    assert rejected > 0
    assert rep["rejections"] == rejected
    assert rep["newton_trials"] >= rep["steps"]


def test_flow_data_failing_assumption_h_converges_with_a_warning(tmp_path, capsys):
    # Steep even data outside assumption H at k = 1, p = 1: the flow
    # solves it, says so on stderr and keeps the warning in the terminal.
    grid = make_grid(2, 16)
    z = grid.nodes[:, 2]
    f = tmp_path / "f.json"
    write_field(f, grid, 1.0 + 0.25 * (3.0 * z**2 - 1.0))
    cfg_path = tmp_path / "flow.json"
    cfg_path.write_text(json.dumps({"n": 2, "k": 1, "p": 1.0}))
    trace, terminal = tmp_path / "trace.csv", tmp_path / "terminal.json"
    argv = ["flow", "--config", str(cfg_path), "--f", str(f), "--out", str(trace),
            "--terminal", str(terminal)]
    capsys.readouterr()
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("flow converged: steps=")
    rep = read_json(terminal)
    assert rep["status"] == "converged" and rep["steps"] <= 29
    (warning,) = rep["warnings"]
    assert warning.startswith("data fails the structural condition (regime ")
    assert err == f"warning: {warning}\n"


def test_flow_unconverged_exit_code(tmp_path):
    grid = make_grid(1, 32)
    theta = grid.theta
    phi0 = tmp_path / "phi0.json"
    write_field(phi0, grid, 2.0 * (1.0 + 0.04 * np.cos(2 * theta)), kind="support")
    cfg = {"n": 1, "k": 0, "p": 0.0, "max_steps": 3}
    cfg_path = tmp_path / "flow.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = ["flow", "--config", str(cfg_path), "--K", str(phi0), "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 1


def test_flow_config_without_optional_keys_uses_flowconfig_defaults(tmp_path, monkeypatch):
    # A key the file leaves out takes FlowConfig's default, not a copy
    # kept in the CLI.
    seen = []
    real = flow.run

    def spy(config, phi0):
        seen.append(config)
        return real(config, phi0)

    monkeypatch.setattr(flow, "run", spy)
    cfg_path = tmp_path / "flow.json"
    cfg_path.write_text(json.dumps({"n": 1, "k": 0, "p": 2.0, "grid": "s1:32"}))
    assert main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv")]) == 0
    assert seen == [FlowConfig(n=1, k=0, p=2.0)]
    # Given keys still reach the config.
    cfg_path.write_text(json.dumps({
        "n": 1, "k": 0, "p": 2.0, "grid": "s1:32", "eps_stop": 0.5, "max_steps": 7,
    }))
    assert main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv")]) == 0
    assert seen[1] == FlowConfig(n=1, k=0, p=2.0, eps_stop=0.5, max_steps=7)


def test_flow_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["flow", "--config", str(missing), "--out", str(tmp_path / "t.csv")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["flow", "--config", str(bad), "--out", str(tmp_path / "t.csv")]) == 2
    nokeys = tmp_path / "nokeys.json"
    nokeys.write_text(json.dumps({"n": 1}))
    assert main(["flow", "--config", str(nokeys), "--out", str(tmp_path / "t.csv")]) == 2
    listed = tmp_path / "list.json"
    listed.write_text("[1, 0, 0.0]")
    assert main(["flow", "--config", str(listed), "--out", str(tmp_path / "t.csv")]) == 2


def test_non_integral_grid_sizes_in_files_exit_2(tmp_path):
    grid = make_grid(1, 16)
    good = field_to_json_dict(grid, np.full(grid.size, 2.0), kind="support")
    s2 = make_grid(2, 8)
    good_s2 = field_to_json_dict(s2, np.full(s2.size, 2.0), kind="support")
    bad_docs = [
        dict(good, grid={"type": "uniform_s1", "nodes": 16.5}),
        dict(good, n=1.9),
        dict(good_s2, grid={"type": "gl_product", "polar": 8.5, "azimuth": 16}),
    ]
    out = str(tmp_path / "o.json")
    for i, doc in enumerate(bad_docs):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["quermass", "--K", str(path), "--out", out]) == 2
    bad_cfgs = [
        {"n": 1, "k": 0, "p": 0.0, "grid": "s1:32.5"},
        # int() would run these as n=1, k=0.
        {"n": 1.9, "k": 0.7, "p": 2.0, "grid": "s1:32", "max_steps": 3},
        {"n": 1, "k": 0.7, "p": 2.0, "grid": "s1:32", "max_steps": 3},
        {"n": True, "k": 0, "p": 2.0, "grid": "s1:32", "max_steps": 3},
    ]
    path = tmp_path / "flow.json"
    trace = tmp_path / "t.csv"
    for cfg in bad_cfgs:
        path.write_text(json.dumps(cfg))
        assert main(["flow", "--config", str(path), "--out", str(trace)]) == 2
        assert not trace.exists()


@pytest.mark.parametrize(
    "grid",
    [{"type": "uniform_s1", "nodes": 32}, 32, None, ["s1:32"]],
    ids=["object", "int", "null", "list"],
)
def test_flow_config_grid_must_be_a_spec_string(tmp_path, capsys, grid):
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"n": 1, "k": 0, "p": 0.0, "grid": grid}))
    trace = tmp_path / "t.csv"
    assert main(["flow", "--config", str(path), "--out", str(trace)]) == 2
    assert f"bad flow config {path}: flow config grid must be a spec" in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize("bad", ["2", True, None], ids=["string", "bool", "null"])
def test_field_file_values_must_be_json_numbers(tmp_path, capsys, bad):
    # numpy alone would read "2" as 2.0 and true as 1.0, and quermass exit 0.
    grid = make_grid(1, 16)
    doc = field_to_json_dict(grid, np.full(grid.size, 2.0), kind="support")
    path = tmp_path / "K.json"
    path.write_text(json.dumps(dict(doc, values=[bad] * grid.size)))
    out = tmp_path / "w.json"
    assert main(["quermass", "--K", str(path), "--out", str(out)]) == 2
    assert f"bad field file {path}: field values must hold numbers" in capsys.readouterr().err
    assert not out.exists()


def test_an_unreadable_config_is_a_usage_error(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for config in (tmp_path, binary):
        assert main(["flow", "--config", str(config), "--out", str(tmp_path / "t.csv")]) == 2
        assert f"error: bad config file {config}: " in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_an_unwritable_output_is_an_error_line(tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    for argv in (
        ["mkfield", "--grid", "s1:16", "--ball", "--radius", "0.4", "--out", str(target)],
        ["verify", "bm_balls", "--out", str(target)],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"Is a directory: '{target}'" in err
    assert os.listdir(target) == []


def _no_run(*args, **kwargs):
    raise AssertionError("the run started before its outputs were vetted")


@pytest.mark.parametrize("where", ["a-directory", "in-no-directory"])
def test_an_unwritable_output_is_refused_before_the_run(tmp_path, capsys, monkeypatch, where):
    # verify and flow vet --out and --terminal before they compute
    # anything: no suite line, no flow step, no file.
    monkeypatch.setattr("horocvx.verify.run_suite", _no_run)
    monkeypatch.setattr(flow, "run", _no_run)
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({"n": 1, "k": 0, "p": 0.0, "grid": "s1:16"}))
    if where == "a-directory":
        bad, message = tmp_path / "out", "Is a directory"
        bad.mkdir()
    else:
        bad, message = tmp_path / "missing" / "out.csv", "No such file or directory"
    for argv in (
        ["verify", "bm_balls", "--out", str(bad)],
        ["flow", "--config", str(cfg), "--out", str(bad)],
        ["flow", "--config", str(cfg), "--out", str(tmp_path / "t.csv"), "--terminal", str(bad)],
    ):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and f"{message}: '{bad}'" in err
    assert sorted(os.listdir(tmp_path)) == sorted(["flow.json", *(["out"] if bad.is_dir() else [])])


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_steps", 3.7),
        ("max_steps", "3"),
        ("max_steps", True),
        ("p", True),
        ("p", "2.0"),
        ("eps_stop", True),
        ("eps_stop", float("nan")),
    ],
)
def test_flow_config_rejects_mistyped_values(tmp_path, capsys, key, value):
    # int() and float() would run 3.7 steps as 3, p = true as 1.0, "2.0" as 2.0.
    cfg = {"n": 1, "k": 0, "p": 2.0, "grid": "s1:32", "max_steps": 3, key: value}
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(cfg))
    trace = tmp_path / "t.csv"
    assert main(["flow", "--config", str(path), "--out", str(trace)]) == 2
    assert f"flow config {key} must be" in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize("radius", ["0.6", None, True, -1])
def test_flow_config_initial_radius_is_checked_by_support_of_ball(tmp_path, capsys, radius):
    # The CLI reads the key but keeps no copy of the ball radius rule.
    cfg = {"n": 1, "k": 0, "p": 2.0, "grid": "s1:32", "initial_radius": radius}
    err = _flow_usage_error(tmp_path, capsys, cfg)
    rule = "must be nonnegative" if radius == -1 else "must be a finite number"
    assert err.startswith(
        f"error: bad flow config {tmp_path / 'flow.json'}: initial_radius: ball radius {rule}"
    )


def test_flow_config_rejects_unknown_keys(tmp_path, capsys):
    # safety was the explicit scheme's dt limiter, dt_initial a first
    # step below the cap and max_dt the cap, which is now the constant
    # flow.MAX_DT; trace_every thinned the trace, which now has a row
    # per accepted step; assumption_mode was a refusal of data failing
    # assumption H; initial and f named fields, which are now the options
    # --K and --f; enforce_even set evenness, which now follows f and the
    # start; eps_stp is a typo.
    mkball(tmp_path, "A.json", 0.5, grid="s1:32")
    cfg = {
        "n": 1, "k": 0, "p": 0.0, "grid": "s1:32", "safety": 0.05, "eps_stp": 1e-6,
        "dt_initial": 0.05, "max_dt": 5.0, "assumption_mode": "warn",
        "initial": str(tmp_path / "A.json"), "f": str(tmp_path / "A.json"),
        "enforce_even": True, "trace_every": 1,
    }
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    assert main(["flow", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("unknown flow config key(s): assumption_mode, dt_initial, enforce_even, eps_stp, "
            "f, initial, max_dt, safety, trace_every") in err
    assert not out.exists()
    for key in ("max_dt", "trace_every"):
        with pytest.raises(TypeError, match=key):
            FlowConfig(n=1, k=0, p=0.0, **{key: 1})


def test_flow_config_value_error_is_reported_without_traceback(tmp_path):
    cfg = {"n": 1, "k": 0, "p": 0.0, "grid": "s1:32", "max_steps": -1}
    (tmp_path / "flow.json").write_text(json.dumps(cfg))
    src = str(Path(horocvx.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "horocvx.cli", "flow", "--config", "flow.json",
         "--out", "t.csv"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: bad flow config flow.json:")
    assert "max_steps" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_steps", -1),
        ("eps_stop", -1),
        ("k", 1),  # k = n has no flow
        ("initial_radius", -1),
    ],
)
def test_flow_config_out_of_range_value_is_a_usage_error(tmp_path, capsys, key, value):
    # The right JSON type, but a value make_state rejects: the config is
    # at fault, not the flow.
    cfg = {"n": 1, "k": 0, "p": 0.0, "grid": "s1:32", key: value}
    err = _flow_usage_error(tmp_path, capsys, cfg)
    assert err.startswith(f"error: bad flow config {tmp_path / 'flow.json'}:")
    assert key in err


def test_flow_config_seed_is_an_unknown_key(tmp_path, capsys):
    # No flow reads a seed, so the manifest would record a value that
    # changes nothing.
    cfg = {"n": 1, "k": 0, "p": 0.0, "grid": "s1:32", "seed": 0}
    err = _flow_usage_error(tmp_path, capsys, cfg)
    assert "unknown flow config key(s): seed" in err


def test_flow_config_overflowing_initial_radius_is_an_error_line(tmp_path, capsys):
    (tmp_path / "flow.json").write_text(
        json.dumps({"n": 1, "k": 0, "p": 0.0, "grid": "s1:32", "initial_radius": 800})
    )
    trace = tmp_path / "t.csv"
    assert main(["flow", "--config", str(tmp_path / "flow.json"), "--out", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "800" in err
    assert not trace.exists()


def _outputs_by_thread_count(tmp_path, argv, outputs):
    """The output bytes of one CLI command under HOROCVX_THREADS=1, 2: argv
    runs in tmp_path with each option of outputs naming its file there,
    prefixed by the thread count; one tuple of bytes per run."""
    src = str(Path(horocvx.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, HOROCVX_THREADS=threads, PYTHONPATH=src)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
        named = {option: f"t{threads}-{name}" for option, name in outputs.items()}
        proc = subprocess.run(
            [sys.executable, "-m", "horocvx.cli", *argv,
             *(item for pair in named.items() for item in pair)],
            cwd=tmp_path, env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(tuple((tmp_path / name).read_bytes() for name in named.values()))
    return runs


def _flow_outputs_by_thread_count(tmp_path, cfg, *fields):
    """Trace and terminal bytes of one CLI flow, on cfg and the field
    options in fields, under HOROCVX_THREADS=1, 2."""
    (tmp_path / "flow.json").write_text(json.dumps(cfg))
    return _outputs_by_thread_count(
        tmp_path, ["flow", "--config", "flow.json", *fields],
        {"--out": "trace.csv", "--terminal": "terminal.json"},
    )


def test_flow_outputs_are_identical_across_thread_counts(tmp_path):
    # Steep data, so the run takes steps rather than stopping at the ball;
    # p = 0 and a low eps_stop make it take more than ten.
    grid = make_grid(1, 64)
    write_field(tmp_path / "f.json", grid, 1.0 + 0.2 * np.cos(2 * grid.theta))
    cfg = {"n": 1, "k": 0, "p": 0.0, "initial_radius": math.log(2.0), "eps_stop": 1e-10}
    outputs = _flow_outputs_by_thread_count(tmp_path, cfg, "--f", "f.json")
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0].splitlines()) > 10


def test_s2_flow_outputs_are_identical_across_thread_counts(tmp_path):
    # The S^2 Legendre transforms are BLAS matrix products; an n=2 k=1
    # flow must not depend on how many threads BLAS may use; at p = -1.5
    # it takes more than ten steps.
    grid = make_grid(2, 16)
    write_field(tmp_path / "f.json", grid, 1.0 + 0.2 * grid.nodes[:, 2] ** 2)
    cfg = {"n": 2, "k": 1, "p": -1.5, "initial_radius": math.log(2.0)}
    outputs = _flow_outputs_by_thread_count(tmp_path, cfg, "--f", "f.json")
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0].splitlines()) > 10


def test_s2_ball_flow_outputs_are_identical_across_thread_counts(tmp_path):
    # A ball start with the default f = 1 converges at its start.
    outputs = _flow_outputs_by_thread_count(tmp_path, {"n": 2, "k": 1, "p": 1.0, "grid": "s2:16"})
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["status"] == "converged"


def test_s2_kw_report_is_identical_across_thread_counts(tmp_path):
    # Its one pass over f synthesizes the Hessian profiles too.
    R2 = tmp_path / "R2.json"
    assert main(["mkfield", "--grid", "s2:16", "--random", "--seed", "3", "--out", str(R2)]) == 0
    outputs = _outputs_by_thread_count(
        tmp_path, ["kw", "--K", "R2.json", "--f", "R2.json", "--k", "0"], {"--out": "kw.json"}
    )
    assert outputs[0] == outputs[1]
    assert max(map(abs, json.loads(outputs[0][0])["coordinate_integrals"])) > 0.0


def test_verify_records_are_identical_across_thread_counts(tmp_path):
    outputs = _outputs_by_thread_count(
        tmp_path, ["verify", "all", "--exploratory"], {"--out": "records.csv"}
    )
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0].splitlines()) > 100


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_suite_exit_and_csv(tmp_path):
    out = tmp_path / "records.csv"
    rc = main(["verify", "bm_balls", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "suite,case,lhs,rhs,gap,equality_expected,pass"
    assert all(line.split(",")[-1] == "true" for line in lines[1:])
    manifest = read_json(str(out) + ".manifest.json")
    assert manifest["command"] == "verify"


def test_verify_failure_exit_code(monkeypatch, capsys):
    # A suite with one failing record makes exit code 1 and a FAIL line.
    def failing(bodies):
        yield "forced", 0.0, 1.0, False

    monkeypatch.setitem(verify._REGISTRY, "bm_balls", failing)
    assert main(["verify", "bm_balls"]) == 1
    out = capsys.readouterr().out
    assert "bm_balls: 1 records, FAIL" in out and "FAIL forced:" in out


def test_verify_rejects_unknown_suite():
    assert main(["verify", "nonsense"]) == 2


def test_verify_unknown_suite_error_lists_the_suites(capsys):
    assert main(["verify", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite 'nonsense'" in err
    assert "all, bm_balls" in err and "xp_weighted_scaling" in err


# ---------------------------------------------------------------------------
# error paths and reproducibility


def test_missing_input_file(tmp_path):
    out = str(tmp_path / "out.json")
    rc = main(["quermass", "--K", str(tmp_path / "missing.json"), "--out", out])
    assert rc == 2
    assert main(["quermass", "--K", str(tmp_path), "--out", out]) == 2  # a directory


def test_corrupt_input_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["quermass", "--K", str(bad), "--out", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize("flag", ["--K", "--f"], ids=["K", "f"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_bad_field_value_is_a_usage_error(tmp_path, capsys, bad, flag):
    # Every field input is a SupportField: finite and positive at each node.
    K = mkball(tmp_path, "K.json", 0.5)
    grid = make_grid(1, 64)
    values = np.full(grid.size, 2.0)
    values[5] = bad
    path = tmp_path / "bad.json"
    write_field(path, grid, values, kind="support")
    argv = ["quermass", "--K", str(path)]
    if flag == "--f":
        argv = ["kw", "--K", str(K), "--f", str(path)]
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad field file {path}") and "Traceback" not in err
    assert not out.exists()


# Field defects that the loader refuses, whichever command reads the file.
FIELD_DEFECTS = {
    "missing-values": lambda d: {key: v for key, v in d.items() if key != "values"},
    "short": lambda d: dict(d, values=d["values"][:-1]),
    "scalar": lambda d: dict(d, values=2.0),
    "zero": lambda d: dict(d, values=[0.0] + d["values"][1:]),
    "negative": lambda d: dict(d, values=[-1.0] + d["values"][1:]),
    "not-an-object": lambda d: d["values"],
}


@pytest.mark.parametrize("key", ["f", "initial"])
@pytest.mark.parametrize("defect", list(FIELD_DEFECTS))
def test_bad_inline_flow_field_is_a_usage_error(tmp_path, capsys, key, defect):
    # A flow config holds no field, inline or named: the key is unknown.
    # The same field as a file, the start (--K) or the data (--f), is
    # refused by the loader, naming the file.
    grid = make_grid(1, 32)
    field = FIELD_DEFECTS[defect](field_to_json_dict(grid, np.full(grid.size, 2.0)))
    cfg = {"n": 1, "k": 0, "p": 0.0}
    err = _flow_usage_error(tmp_path, capsys, {**cfg, key: field})
    assert err == f"error: unknown flow config key(s): {key}\n"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(field))
    flag = {"f": "--f", "initial": "--K"}[key]
    err = _flow_usage_error(tmp_path, capsys, cfg, flag, str(path))
    assert err.startswith(f"error: bad field file {path}") and "Traceback" not in err


def _flow_usage_error(tmp_path, capsys, cfg, *fields):
    """Run a flow, on cfg and the field options in fields, that must be a
    usage error; return its message."""
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(cfg))
    trace = tmp_path / "t.csv"
    capsys.readouterr()
    assert main(["flow", "--config", str(path), *fields, "--out", str(trace)]) == 2
    assert not trace.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ["psum", "kw"])
def test_field_inputs_on_different_grids_are_a_usage_error(tmp_path, capsys, command):
    A = mkball(tmp_path, "A.json", 0.5, grid="s1:64")
    B = mkball(tmp_path, "B.json", 0.5, grid="s1:32")
    if command == "psum":
        argv = ["psum", "--a", "1", "--K", str(A), "--p", "1", "--b", "1", "--L", str(B)]
        second = f"--L {B}"
    else:
        argv = ["kw", "--K", str(A), "--f", str(B)]
        second = f"--f {B}"
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--K {A} is on s1:64" in err and f"{second} is on s1:32" in err
    assert not out.exists()


def test_flow_f_and_initial_on_different_grids_are_a_usage_error(tmp_path, capsys):
    A = mkball(tmp_path, "A.json", 0.5, grid="s1:64")
    B = mkball(tmp_path, "B.json", 0.5, grid="s1:32")
    err = _flow_usage_error(
        tmp_path, capsys, {"n": 1, "k": 0, "p": 0.0}, "--K", str(A), "--f", str(B)
    )
    assert f"--K {A} is on s1:64 but --f {B} is on s1:32" in err


def test_flow_ball_on_the_config_grid_and_f_on_another_are_a_usage_error(tmp_path, capsys):
    B = mkball(tmp_path, "B.json", 0.5, grid="s1:32")
    err = _flow_usage_error(
        tmp_path, capsys, {"n": 1, "k": 0, "p": 0.0, "grid": "s1:64"}, "--f", str(B)
    )
    assert f"flow config grid is on s1:64 but --f {B} is on s1:32" in err


def test_flow_initial_off_the_configs_sphere_is_a_usage_error(tmp_path, capsys):
    A = mkball(tmp_path, "A.json", 0.5, grid="s1:64")
    err = _flow_usage_error(tmp_path, capsys, {"n": 2, "k": 1, "p": 1.0}, "--K", str(A))
    assert f"flow config has n = 2 but --K {A} lives on S^1" in err
    err = _flow_usage_error(tmp_path, capsys, {"n": 2, "k": 1, "p": 1.0}, "--f", str(A))
    assert f"flow config has n = 2 but --f {A} lives on S^1" in err


def test_flow_config_without_initial_grid_or_f_is_a_usage_error(tmp_path, capsys):
    # Nothing fixes the grid of the start.
    err = _flow_usage_error(tmp_path, capsys, {"n": 1, "k": 0, "p": 0.0})
    assert err == "error: flow needs --K, a flow config grid, or --f\n"


def test_flow_config_with_initial_and_grid_is_a_usage_error(tmp_path, capsys):
    # --K fixes the grid, so the config's grid would be ignored.
    A = mkball(tmp_path, "A.json", 0.5, grid="s1:64")
    for grid in ("s1:32", "s1:64"):
        err = _flow_usage_error(
            tmp_path, capsys, {"n": 1, "k": 0, "p": 0.0, "grid": grid}, "--K", str(A)
        )
        assert f"--K {A} is the start, so flow config" in err
        assert "may give neither 'grid' nor 'initial_radius'" in err


def test_flow_config_with_initial_and_initial_radius_is_a_usage_error(tmp_path, capsys):
    # --K is the start, so the radius would be ignored.
    A = mkball(tmp_path, "A.json", 0.5, grid="s1:32")
    err = _flow_usage_error(
        tmp_path, capsys, {"n": 1, "k": 0, "p": 0.0, "initial_radius": 0.5}, "--K", str(A)
    )
    assert "may give neither 'grid' nor 'initial_radius'" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dilate", "--a", "2", "--p", "1", "--K", "K.json", "--out", "K.json"],
         "--out K.json would overwrite the input --K K.json"),
        (["dilate", "--a", "2", "--p", "1", "--K", "./K.json", "--out", "K.json"],
         "--out K.json would overwrite the input --K ./K.json"),
        (["flow", "--config", "flow.json", "--K", "K.json", "--out", "t.csv",
          "--terminal", "K.json"],
         "--terminal K.json would overwrite the input --K K.json"),
        (["flow", "--config", "flow.json", "--f", "./K.json", "--out", "K.json"],
         "--out K.json would overwrite the input --f ./K.json"),
        (["flow", "--config", "flow.json", "--out", "flow.json"],
         "--out flow.json would overwrite the input --config flow.json"),
        (["flow", "--config", "flow.json", "--out", "t.csv", "--terminal", "t.csv"],
         "--out t.csv and --terminal t.csv name the same file"),
        (["flow", "--config", "flow.json", "--out", "t.csv", "--terminal", "./t.csv"],
         "--out t.csv and --terminal ./t.csv name the same file"),
    ],
    ids=["dilate", "dilate-other-spelling", "flow-terminal", "flow-out-is-f", "flow-config",
         "flow-out-is-terminal", "flow-out-is-terminal-other-spelling"],
)
def test_output_naming_an_input_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, message):
    # Written first, the output would replace the input, and the manifest
    # would record the output's hash as the input's.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(flow, "run", _no_run)
    mkball(tmp_path, "K.json", 0.5)
    (tmp_path / "flow.json").write_text(json.dumps({"n": 1, "k": 0, "p": 0.0}))
    before = {name: (tmp_path / name).read_bytes() for name in ("K.json", "flow.json")}
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "flow.json.manifest.json").exists()


@pytest.mark.parametrize("link", [False, True], ids=["same-name", "symlink"])
def test_out_and_terminal_naming_one_existing_file_is_a_usage_error(
    tmp_path, monkeypatch, capsys, link
):
    # The terminal field would be written over the trace CSV.
    monkeypatch.chdir(tmp_path)
    mkball(tmp_path, "K.json", 0.5)
    (tmp_path / "flow.json").write_text(json.dumps({"n": 1, "k": 0, "p": 0.0}))
    (tmp_path / "t.csv").write_text("old\n")
    terminal = "t.csv"
    if link:
        (tmp_path / "link.csv").symlink_to(tmp_path / "t.csv")
        terminal = "link.csv"
    capsys.readouterr()
    argv = ["flow", "--config", "flow.json", "--K", "K.json", "--out", "t.csv",
            "--terminal", terminal]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"--out t.csv and --terminal {terminal} name the same file" in err
    assert (tmp_path / "t.csv").read_text() == "old\n"
    assert not list(tmp_path.glob("*.csv.manifest.json"))


def test_nonconvex_input_is_a_runtime_error(tmp_path):
    grid = make_grid(1, 64)
    theta = grid.theta
    bad = tmp_path / "bad.json"
    write_field(bad, grid, 2.2 * (1.0 + 0.05 * np.cos(3 * theta)), kind="support")
    rc = main(["steiner", "--K", str(bad), "--rho", "0.3", "--out", str(tmp_path / "o.json")])
    assert rc == 1
    # A flow from a field off the cone fails where the run starts: an
    # error line, no trace and no traceback.
    grid = make_grid(1, 32)
    write_field(tmp_path / "kinked.json", grid, 2.0 * (1.0 + 0.3 * np.cos(6 * grid.theta)))
    (tmp_path / "flow.json").write_text(json.dumps({"n": 1, "k": 0, "p": 0.0}))
    src = str(Path(horocvx.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "horocvx.cli", "flow", "--config", "flow.json",
         "--K", "kinked.json", "--out", "t.csv"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: initial field is not uniformly h-convex:")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "t.csv").exists()


# One valid command line per subcommand, without --out, on the fields
# and config the test writes.
MANIFEST_SESSION = {
    "mkfield": ["--grid", "s1:32", "--random", "--seed", "2"],
    "psum": ["--a", "1", "--K", "K.json", "--p", "2", "--b", "1", "--L", "K.json"],
    "dilate": ["--a", "2", "--p", "1", "--K", "K.json"],
    "quermass": ["--K", "K.json"],
    "steiner": ["--K", "K.json", "--rho", "0.3"],
    "weighted": ["--K", "K.json"],
    "measure": ["--K", "K.json", "--p", "1", "--k", "0"],
    "kw": ["--K", "K.json", "--f", "K.json"],
    "ballsolve": ["--n", "2", "--k", "0", "--p", "4", "--gamma", "0.02"],
    "assumption-h": ["--f", "F2.json", "--k", "1", "--p", "1"],
    "flow": ["--config", "flow.json"],
    "project": ["--K", "K.json"],
    "verify": ["bm_balls"],
}


# Each subcommand's options, dest: required, as the parser declares them;
# mkfield's modes form one required group of which exactly one is given.
PARSER_TABLE = {
    "mkfield": {"grid": True, "ball": False, "constant": False, "random": False,
                "center": False, "radius": False, "seed": False, "out": True},
    "psum": {"a": True, "K": True, "p": True, "b": True, "L": True, "out": True},
    "dilate": {"a": True, "p": True, "K": True, "out": True},
    "quermass": {"K": True, "k": False, "out": True},
    "steiner": {"K": True, "rho": True, "kind": False, "out": True},
    "weighted": {"K": True, "out": True},
    "measure": {"K": True, "p": True, "k": True, "out": True},
    "kw": {"K": True, "f": True, "k": False, "out": True},
    "ballsolve": {"n": True, "k": True, "p": True, "gamma": True, "out": True},
    "assumption-h": {"f": True, "k": True, "p": True, "out": True},
    "flow": {"config": True, "K": False, "f": False, "out": True, "terminal": False},
    "project": {"K": True, "out": True},
    "verify": {"suite": True, "out": False, "exploratory": False},
}


def test_each_subcommand_declares_its_options():
    # Options shared by many subcommands are declared once; every
    # subcommand must still take each of its options, required as before.
    commands = next(
        action.choices for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    declared = {
        name: {action.dest: action.required for action in parser._actions
               if action.dest != "help"}
        for name, parser in commands.items()
    }
    assert declared == PARSER_TABLE
    (mode,) = commands["mkfield"]._mutually_exclusive_groups
    assert mode.required
    assert [action.dest for action in mode._group_actions] == ["ball", "constant", "random"]


def test_manifest_parameters_are_every_parsed_option(tmp_path, monkeypatch):
    # A command that lists its parameters by hand drops the next option
    # added to its parser, and identical manifests stop implying
    # identical outputs.
    monkeypatch.chdir(tmp_path)
    mkball(tmp_path, "K.json", 0.5, grid="s1:32")
    assert main(["mkfield", "--grid", "s2:8", "--constant", "1", "--out", "F2.json"]) == 0
    (tmp_path / "flow.json").write_text(json.dumps({"n": 1, "k": 0, "p": 0.0, "grid": "s1:32"}))
    commands = next(
        action.choices for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(MANIFEST_SESSION) == set(commands)
    for command, argv in MANIFEST_SESSION.items():
        out = f"{command}.out"
        assert main([command, *argv, "--out", out]) == 0, command
        options = {action.dest for action in commands[command]._actions}
        expected = options - {"help", "out", "terminal"}
        if command == "flow":
            expected |= {"n", "k", "p"}
        manifest = read_json(out + ".manifest.json")
        assert set(manifest["parameters"]) == expected, command


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_report_holding_nan_or_infinity_is_not_written(tmp_path, bad):
    # NaN and Infinity are no JSON; the report is refused before its file
    # is opened, so no half-written file is left.
    from horocvx.cli import _dump_json

    out = tmp_path / "report.json"
    with pytest.raises(ValueError):
        _dump_json(str(out), {"ok": 1.0, "values": [1.0, bad]})
    assert not out.exists()


def test_json_commands_write_through_emit(tmp_path, monkeypatch):
    # Every command but flow and verify writes its report, then its
    # manifest, through _emit, which looks up the module-level _dump_json
    # when it runs, so that a wrapper bound to that name sees each write.
    from horocvx import cli

    monkeypatch.chdir(tmp_path)
    mkball(tmp_path, "K.json", 0.5, grid="s1:32")
    assert main(["mkfield", "--grid", "s2:8", "--constant", "1", "--out", "F2.json"]) == 0
    written = []
    real_emit, real_dump = cli._emit, cli._dump_json

    def emit(args, grid, report):
        written.append("emit")
        return real_emit(args, grid, report)

    def dump(path, obj):
        written.append(path)
        real_dump(path, obj)

    monkeypatch.setattr(cli, "_emit", emit)
    monkeypatch.setattr(cli, "_dump_json", dump)
    for command, argv in MANIFEST_SESSION.items():
        if command in ("flow", "verify"):
            continue
        written.clear()
        out = f"{command}.out"
        assert main([command, *argv, "--out", out]) == 0, command
        assert written == ["emit", out, out + ".manifest.json"], command


def test_reruns_are_bit_identical(tmp_path):
    args = [
        "mkfield", "--grid", "s1:64", "--random", "--seed", "3",
        "--out", str(tmp_path / "f.json"),
    ]
    assert main(args) == 0
    first = (tmp_path / "f.json").read_bytes()
    first_manifest = (tmp_path / "f.json.manifest.json").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "f.json").read_bytes() == first
    assert (tmp_path / "f.json.manifest.json").read_bytes() == first_manifest
