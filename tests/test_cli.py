import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cmc_hyp
from cmc_hyp import chart, cli, melnikov, reduction
from cmc_hyp import energy as en
from cmc_hyp.cli import main

BOX = "-0.4,0.4,-0.4,0.4,0.6,1.6"
BUMP = "exp(-hypdist(0,0,1)^2)"


def read_summary(out):
    with open(out / "summary.json") as fh:
        return json.load(fh)


def test_verify_command(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--k", "2", "--grid-n", "16",
                 "--out", str(out)]) == 0
    doc = read_summary(out)
    assert doc["status"] == "ok"
    assert doc["result"]["all_pass"]
    for check in doc["result"]["checks"].values():
        assert check["pass"]


def test_kernel_command(tmp_path):
    out = tmp_path / "k"
    assert main(["kernel", "--k", "2", "--grid-n", "16",
                 "--out", str(out)]) == 0
    doc = read_summary(out)
    assert doc["result"]["dimension"] == 9
    assert doc["result"]["gap"] > 100
    assert doc["result"]["resolved"] is True
    assert (out / "kernel.json").exists()


def test_kernel_resolution_verdict(tmp_path):
    # k = 1.5 at n = 24 is an acceptance setting; at k = 1.05 the same grid
    # loses three generators from the kernel while the singular-value gap
    # still looks confident, so the certificate fails its checks
    assert main(["kernel", "--k", "1.5", "--grid-n", "24",
                 "--out", str(tmp_path / "ok")]) == 0
    doc = read_summary(tmp_path / "ok")
    assert doc["status"] == "ok" and doc["result"]["resolved"] is True
    assert main(["kernel", "--k", "1.05", "--grid-n", "24",
                 "--out", str(tmp_path / "coarse")]) == 3
    doc = read_summary(tmp_path / "coarse")
    assert doc["status"] == "failed_checks"
    assert doc["result"]["resolved"] is False
    assert doc["result"]["dimension"] == 6
    # the tested ratio, 8.8e6: four decades above the gap factor
    assert doc["result"]["gap"] > 1e6
    assert doc["result"]["frame_reconstruction_residual"] > 1e-6


def test_spectrum_command(tmp_path):
    out = tmp_path / "s"
    assert main(["spectrum", "--k", "2", "--grid-n", "16",
                 "--out", str(out)]) == 0
    doc = read_summary(out)
    assert doc["result"]["triple_at_2k_error"] < 1e-6
    assert doc["result"]["resolved"] is True
    assert (out / "spectrum.json").exists()


def test_spectrum_resolution_verdict(tmp_path):
    # at the default settings the triple at 2k is resolved; at k = 1.05 the
    # same grid splits it while its eigenvalues stay within the bound
    assert main(["spectrum", "--out", str(tmp_path / "ok")]) == 0
    doc = read_summary(tmp_path / "ok")
    assert doc["status"] == "ok" and doc["result"]["resolved"] is True
    assert doc["result"]["multiplicities"][:2] == [1, 3]
    assert main(["spectrum", "--k", "1.05", "--grid-n", "24",
                 "--out", str(tmp_path / "coarse")]) == 3
    doc = read_summary(tmp_path / "coarse")
    assert doc["status"] == "failed_checks"
    assert doc["result"]["resolved"] is False
    assert doc["result"]["multiplicities"][:3] == [1, 2, 1]
    assert doc["result"]["triple_at_2k_error"] / 2.1 <= 1e-3


def test_solve_command_and_artifacts(tmp_path):
    out = tmp_path / "sol"
    rc = main(["solve", "--k", "2", "--grid-n", "16",
               "--phi", "exp(-hypdist(0,0,1)^2)", "--eps", "0.01,0.005",
               "--box=" + BOX, "--out", str(out)])
    assert rc == 0
    doc = read_summary(out)
    assert doc["result"]["all_converged"]
    assert all(step["resolved"] for step in doc["result"]["steps"])
    assert (out / "surface_0.01.csv").exists()
    assert (out / "surface_0.005.csv").exists()
    q = doc["result"]["steps"][0]["q"]
    assert np.linalg.norm(np.array(q) - [0, 0, 1]) < 0.05


def test_halted_solve_keeps_its_steps(tmp_path, monkeypatch):
    correct = reduction.correct

    def fail_after_first(eps, *args, **kwargs):
        if eps != 0.01:
            raise reduction.CorrectorStopped("stagnated", "forced failure")
        return correct(eps, *args, **kwargs)

    monkeypatch.setattr(reduction, "correct", fail_after_first)
    out = tmp_path / "halt"
    rc = main(["solve", "--k", "2", "--grid-n", "16", "--phi", BUMP,
               "--eps", "0.01,0.005", "--box=" + BOX, "--out", str(out)])
    assert rc == 3
    doc = read_summary(out)
    assert doc["status"] == "failed_checks"
    assert doc["result"]["all_converged"] is False
    first, second = doc["result"]["steps"]
    assert first["status"] == "ok" and first["eps"] == 0.01
    assert second["status"] == "failed" and second["eps"] == 0.005
    assert second["error"] == "forced failure"
    assert second["stop"] == "stagnated"
    assert second["hint"] == reduction.HINTS["stagnated"]
    assert sorted(f.name for f in out.glob("surface_*.csv")) == \
        ["surface_0.01.csv"]


def test_step_whose_report_raises_keeps_the_steps_before(tmp_path,
                                                         monkeypatch):
    # f_value is first called in the report of the first step; it raises
    # in the second step's report
    f_value, calls = reduction.f_value, []

    def fail_on_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise reduction.NumericsError("forced non-finite value")
        return f_value(*args)

    monkeypatch.setattr(reduction, "f_value", fail_on_second)
    out = tmp_path / "report"
    rc = main(["solve", "--k", "2", "--grid-n", "16", "--phi", BUMP,
               "--eps", "0.01,0.005", "--box=" + BOX, "--out", str(out)])
    assert rc == 3
    doc = read_summary(out)
    assert doc["status"] == "failed_checks"
    first, second = doc["result"]["steps"]
    assert first["status"] == "ok" and first["eps"] == 0.01
    assert second["status"] == "failed" and second["eps"] == 0.005
    assert second["error"] == "forced non-finite value"
    assert second["stop"] == "not finite"
    assert second["hint"] == reduction.HINTS["not finite"]
    assert sorted(f.name for f in out.glob("surface_*.csv")) == \
        ["surface_0.01.csv"]


def test_unresolved_solve_fails_its_checks(tmp_path):
    # a tilt plus a narrow bump: the corrector converges at n = 24, but the
    # grid does not resolve the solution (residual_sup near 6e-4 and 3e-4)
    out = tmp_path / "sharp"
    rc = main(["solve", "--k", "2", "--grid-n", "24", "--phi",
               "0.02*p1 + exp(-(hypdist(-0.2,0,0.85)/0.1)^2)",
               "--eps", "0.01,0.005", "--box=" + BOX, "--out", str(out)])
    assert rc == 3
    doc = read_summary(out)
    assert doc["status"] == "failed_checks"
    assert doc["result"]["all_converged"] is True
    for step in doc["result"]["steps"]:
        assert step["status"] == "ok" and step["resolved"] is False
        assert step["residual_sup"] > 1e-8
    assert sorted(f.name for f in out.glob("surface_*.csv")) == \
        ["surface_0.005.csv", "surface_0.01.csv"]


def test_solve_refuses_without_critical_point(tmp_path):
    out = tmp_path / "ref"
    rc = main(["solve", "--k", "2", "--grid-n", "16", "--phi", "p1",
               "--eps", "0.01", "--box=" + BOX, "--out", str(out)])
    assert rc == 4
    doc = read_summary(out)
    assert doc["error_class"] == "no_critical_point"


def test_obstruction_command(tmp_path):
    out = tmp_path / "ob"
    assert main(["obstruction", "--k", "2", "--phi", "p1",
                 "--box=" + BOX, "--out", str(out)]) == 0
    doc = read_summary(out)
    assert "e1" in doc["result"]["obstructed"]


def test_melnikov_command(tmp_path):
    out = tmp_path / "mel"
    assert main(["melnikov", "--k", "2", "--phi", "exp(-hypdist(0,0,1)^2)",
                 "--box=" + BOX, "--out", str(out)]) == 0
    assert (out / "scan.csv").exists()
    doc = read_summary(out)
    assert len(doc["result"]["stable"]) == 1


def test_energy_curve_command(tmp_path):
    out = tmp_path / "ec"
    cfg = tmp_path / "curve.json"
    cfg.write_text(json.dumps({"t_range": [2.0, 1.2, 15]}))
    assert main(["energy-curve", "--k", "2", "--grid-n", "24",
                 "--config", str(cfg), "--out", str(out)]) == 0
    data = np.genfromtxt(out / "energy_curve.csv", delimiter=",", names=True)
    assert {"t", "E0", "closed_form"} <= set(data.dtype.names)
    assert read_summary(out)["result"]["closed_form_defect"] < 1e-8
    assert read_summary(out)["result"]["decreasing_toward_horosphere"]


@pytest.mark.parametrize("n, code", [(16, 3), (48, 0)])
def test_energy_curve_verdict(tmp_path, n, code):
    # with the default t_range down to t = 1.02, n = 16 leaves a 3 % defect
    # against the closed form and n = 48 one below ENERGY_CURVE_DEFECT
    out = tmp_path / "ec"
    assert main(["energy-curve", "--k", "2", "--grid-n", str(n),
                 "--out", str(out)]) == code
    doc = read_summary(out)
    defect = doc["result"]["closed_form_defect"]
    assert doc["result"]["resolved"] is (code == 0)
    assert doc["status"] == ("ok" if code == 0 else "failed_checks")
    assert (defect <= en.ENERGY_CURVE_DEFECT) is (code == 0)


def test_config_file_and_flag_precedence(tmp_path):
    # the document sets all eight keys; each of the six flags wins over its
    # key, and the two keys without a flag come from the document
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "k": 3.0, "grid_n": 16, "phi_source": "p1", "box": [0, 1, 0, 1, 1, 2],
        "eps_schedule": [0.02], "seeds": 8, "t_range": [3, 1.5, 4],
        "out_dir": str(tmp_path / "from-document")}))
    out = tmp_path / "cf"
    assert main(["verify", "--config", str(cfgfile), "--k", "2",
                 "--grid-n", "8", "--phi", BUMP, "--eps", "0.01,0.005",
                 "--box=" + BOX, "--out", str(out)]) == 0
    config = read_summary(out)["config"]
    assert config == {
        "command": "verify", "k": 2.0, "grid_n": 8, "phi_source": BUMP,
        "box": [-0.4, 0.4, -0.4, 0.4, 0.6, 1.6], "eps_schedule": [0.01, 0.005],
        "seeds": 8, "t_range": [3, 1.5, 4], "out_dir": str(out)}
    assert not (tmp_path / "from-document").exists()


def test_config_errors(tmp_path):
    assert main(["verify", "--k", "0.5", "--out", str(tmp_path / "x")]) == 2
    assert main(["solve", "--k", "2", "--phi", "exp(", "--eps", "0.01",
                 "--box=" + BOX, "--out", str(tmp_path / "y")]) == 2
    assert main(["solve", "--k", "2", "--phi", "1", "--eps", "0.01",
                 "--box", "1,-1,0,1,0.5,1", "--out", str(tmp_path / "z")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad),
                 "--out", str(tmp_path / "w")]) == 2
    cfg = tmp_path / "badtol.json"
    cfg.write_text(json.dumps({"tolerances": {"no_such_tol": 1.0}}))
    assert main(["verify", "--config", str(cfg),
                 "--out", str(tmp_path / "v")]) == 2
    assert main(["obstruction", "--phi", "p1", "--box=-0.4,0.4,-0.4,0.4,0.6",
                 "--out", str(tmp_path / "u")]) == 2


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_output_directory_that_cannot_be_made_is_config_error(tmp_path, capsys,
                                                              out):
    # an existing file, or a path below one
    (tmp_path / "afile").write_text("x")
    assert main(["verify", "--grid-n", "8",
                 "--out", str(tmp_path / out)]) == 2
    assert "configuration error" in capsys.readouterr().out
    assert (tmp_path / "afile").read_text() == "x"


def test_deeply_nested_config_document_is_config_error(tmp_path, capsys):
    # deeper than Python's JSON reader can recurse
    cfg, out = tmp_path / "deep.json", tmp_path / "d"
    cfg.write_text('{"box": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().out
    assert not (out / "summary.json").exists()


def test_phi_source_must_be_an_expression(tmp_path):
    cfg, out = tmp_path / "catalog.json", tmp_path / "c"
    cfg.write_text(json.dumps({"phi_source": {"catalog": "norm"}}))
    assert main(["obstruction", "--k", "2", "--config", str(cfg),
                 "--box=" + BOX, "--out", str(out)]) == 2
    assert not (out / "summary.json").exists()


def test_deeply_nested_phi_is_config_error(tmp_path):
    out = tmp_path / "deep"
    phi = "(" * 300 + "p1" + ")" * 300
    assert main(["melnikov", "--k", "2", "--phi", phi, "--box=" + BOX,
                 "--out", str(out)]) == 2
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command,args", [
    ("melnikov", ["--phi", "p1"]),
    ("melnikov", ["--box=" + BOX]),
    ("obstruction", ["--box=" + BOX]),
    ("obstruction", ["--phi", "p1"]),
    ("solve", ["--phi", BUMP, "--box=" + BOX]),
    ("solve", ["--phi", BUMP, "--eps", "0.01"]),
    ("solve", ["--eps", "0.01", "--box=" + BOX]),
])
def test_missing_required_input_is_config_error(tmp_path, command, args):
    out = tmp_path / "m"
    assert main([command, "--k", "2", *args, "--out", str(out)]) == 2
    assert not (out / "summary.json").exists()


def test_unknown_config_keys_are_config_errors(tmp_path):
    # sampling counts are not inputs: a one-point lattice reads a box that
    # holds a maximum of the reduced function as obstructed
    for command, args, doc in (
            ("verify", [], {"grid-n": 48}),
            ("verify", [], {"degree": 10}),
            ("verify", [], {"seed": 5}),
            ("obstruction", ["--phi", BUMP, "--box=" + BOX], {"lattice": 1}),
            ("spectrum", ["--k", "1.2", "--grid-n", "16"], {"count": 40})):
        cfg, out = tmp_path / "cfg.json", tmp_path / command
        cfg.write_text(json.dumps(doc))
        assert main([command, *args, "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()


@pytest.mark.parametrize("doc,key", [
    ({"k": "2"}, "k"),
    ({"eps_schedule": 0.01}, "eps_schedule"),
    ({"box": 5}, "box"),
])
def test_wrongly_typed_config_values_are_config_errors(tmp_path, capsys, doc,
                                                       key):
    cfg, out = tmp_path / "cfg.json", tmp_path / "t"
    cfg.write_text(json.dumps(doc))
    assert main(["kernel", "--grid-n", "16", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().out
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("args,flag", [
    (["solve", "--eps", "a,b", "--grid-n", "16"], "--eps"),
    (["melnikov", "--box=a,0.4,-0.4,0.4,0.6,1.6"], "--box"),
])
def test_list_flag_that_is_not_numbers_names_the_flag(tmp_path, capsys, args,
                                                      flag):
    out = tmp_path / "l"
    extra = [] if flag == "--box" else ["--box=" + BOX]
    assert main([*args, *extra, "--phi", BUMP, "--out", str(out)]) == 2
    said = capsys.readouterr().out
    assert said.startswith("configuration error") and flag in said
    assert not (out / "summary.json").exists()


def test_help_covers_every_flag_and_exit_code(capsys):
    parser = cli._parser()
    flags = [a for a in parser._actions if a.option_strings]
    assert {f for a in flags for f in a.option_strings} >= {
        flag for flag, _, _ in cli._INPUTS.values() if flag is not None}
    assert all(a.help for a in flags)
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert " ".join(parser.epilog.split()) in text
    for code, meaning in (("0", "success"), ("2", "configuration error"),
                          ("3", "numeric failure"),
                          ("4", "no critical point")):
        assert f"{code} {meaning}" in parser.epilog
    for name, (flag, _, _) in cli._INPUTS.items():
        assert flag is not None or name in parser.epilog


@pytest.mark.parametrize("command,n", [
    ("kernel", 6), ("spectrum", 7), ("solve", 7)])
def test_grid_below_the_pack_floor_is_config_error(tmp_path, capsys, command,
                                                   n):
    # the commands that build the operator pack need n >= 8; verify and
    # energy-curve keep the chart's n >= 4, where the energy curve runs but
    # is not resolved
    out = tmp_path / command
    extra = (["--phi", BUMP, "--eps", "0.01", "--box=" + BOX]
             if command == "solve" else [])
    assert main([command, "--k", "2", "--grid-n", str(n), *extra,
                 "--out", str(out)]) == 2
    assert "grid_n >= 8" in capsys.readouterr().out
    assert not (out / "summary.json").exists()
    for small, code in (("verify", 0), ("energy-curve", 3)):
        assert main([small, "--k", "2", "--grid-n", "4",
                     "--out", str(tmp_path / small)]) == code


def test_defaults_have_one_source(tmp_path, capsys):
    # the seed count and the chart's smallest grid are each one constant,
    # read by the library and the command line alike
    for fn in (melnikov.find_critical, reduction.continuation):
        assert inspect.signature(fn).parameters["seeds"].default \
            == melnikov.SEEDS
    assert cli.JobConfig("melnikov").seeds == melnikov.SEEDS
    small = chart.GRID_MIN_N - 1
    with pytest.raises(ValueError, match=f"at least {chart.GRID_MIN_N}"):
        chart.build_grid(small)
    assert main(["verify", "--grid-n", str(small),
                 "--out", str(tmp_path / "v")]) == 2
    assert f"grid_n >= {chart.GRID_MIN_N}" in capsys.readouterr().out


@pytest.mark.parametrize("seeds", [-5, 0, 10])
def test_seeds_must_be_a_positive_cube(tmp_path, capsys, seeds):
    cfg, out = tmp_path / "cfg.json", tmp_path / "s"
    cfg.write_text(json.dumps({"seeds": seeds}))
    assert main(["melnikov", "--k", "2", "--phi", BUMP, "--box=" + BOX,
                 "--config", str(cfg), "--out", str(out)]) == 2
    assert "perfect cube" in capsys.readouterr().out
    assert not (out / "summary.json").exists()


# `lattice` and `count` are no longer config keys: their documents are
# refused as unknown keys, whatever the value
@pytest.mark.parametrize("command, doc", [
    ("obstruction", {"lattice": 0}),
    ("obstruction", {"lattice": -2}),
    ("spectrum", {"count": 2}),
    ("energy-curve", {"t_range": [2.0, 1.02, 0]}),
    ("energy-curve", {"t_range": [2.0, 1.02, 2.5]}),
    ("energy-curve", {"t_range": [0.5, 1.02, 5]}),
    ("energy-curve", {"t_range": [2.0, 1.02]}),
], ids=["lattice-0", "lattice-negative", "count", "t_range-count",
        "t_range-fractional-count", "t_range-below-1", "t_range-length"])
def test_out_of_range_config_values_are_config_errors(tmp_path, capsys,
                                                      command, doc):
    cfg, out = tmp_path / "cfg.json", tmp_path / "r"
    cfg.write_text(json.dumps(doc))
    extra = (["--phi", "p1", "--box=" + BOX] if command == "obstruction"
             else ["--grid-n", "16"])
    assert main([command, "--k", "2", *extra, "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().out
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command, phi, box, args", [
    ("obstruction", "sqrt(0.3 - p1^2)", BOX, []),
    ("melnikov", "sqrt(0.3 - p1^2)", BOX, []),
    ("solve", "sqrt(0.3 - p1^2)", BOX, ["--grid-n", "16", "--eps", "0.01"]),
], ids=["obstruction", "melnikov", "solve"])
def test_non_finite_phi_is_numeric_failure(tmp_path, command, phi, box, args):
    out = tmp_path / command
    rc = main([command, "--k", "2", "--phi", phi, "--box=" + box,
               "--out", str(out), *args])
    assert rc == 3
    doc = read_summary(out)
    assert doc["status"] == "numeric_failure"
    assert "not finite" in doc["error"]
    json.loads((out / "summary.json").read_text(),
               parse_constant=lambda c: pytest.fail(f"{c} in summary"))


@pytest.mark.parametrize("command, k, says", [
    ("kernel", "1e160", "operator scale 1 / (q3^2 r^2) is not finite"),
    ("kernel", "1e200", "operator scale 1 / (q3^2 r^2) is not finite"),
    ("kernel", "1e308", "operator block of azimuthal order 0 is not finite"),
    ("spectrum", "1e160", "mass matrix of azimuthal order 0"),
    ("spectrum", "1e200", "mass matrix of azimuthal order 0"),
])
def test_operator_out_of_float_range_is_numeric_failure(tmp_path, capsys,
                                                        command, k, says):
    # at these k the powers of omega3 + k, or the scale k^2 - 1, overflow;
    # the blocks are checked before numpy's LAPACK calls, which do not check
    out = tmp_path / command
    assert main([command, "--k", k, "--grid-n", "16", "--out", str(out)]) == 3
    assert "Warning" not in capsys.readouterr().err
    doc = read_summary(out)
    assert doc["status"] == "numeric_failure" and says in doc["error"]


def _library_env(**extra):
    """The environment of a subprocess that imports this package."""
    src = str(Path(cmc_hyp.__file__).parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_import_leaves_scipy_unloaded():
    # the library runs on numpy alone; importing scipy.linalg would more
    # than double its import time
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, cmc_hyp, cmc_hyp.cli; print("
         "[m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        env=_library_env(), capture_output=True, text=True,
        check=True).stdout
    assert loaded.strip() == "[]"


def test_certificate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at n = 48 the operator blocks and the kernel's roundoff-level singular
    # values round differently on one and two OpenBLAS threads, unless the
    # command pins one
    outs = [tmp_path / f"threads{t}" for t in (1, 2)]
    for t, out in zip((1, 2), outs):
        subprocess.run(
            [sys.executable, "-m", "cmc_hyp.cli", "kernel", "--k", "2",
             "--grid-n", "48", "--out", str(out)],
            env=_library_env(OPENBLAS_NUM_THREADS=str(t)),
            capture_output=True, check=True)
    records = [read_summary(out)["result"].get("blas") for out in outs]
    if any(r is not None and r["threads"] is None for r in records):
        pytest.skip("no OpenBLAS thread control found")
    for name in ("kernel.json", "summary.json"):
        one, two = ((out / name).read_text().replace(str(out), "OUT")
                    for out in outs)
        assert one == two
    assert records[0]["threads"] == 1


def test_solve_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at n = 40 the corrector's products round differently on one and two
    # OpenBLAS threads, unless the command pins one
    outs = [tmp_path / f"threads{t}" for t in (1, 2)]
    for t, out in zip((1, 2), outs):
        subprocess.run(
            [sys.executable, "-m", "cmc_hyp.cli", "solve", "--k", "2",
             "--grid-n", "40", "--phi", "exp(-hypdist(0.1,0,0.9)^2) + 0.02*p1",
             "--eps=0.005,-0.01,0.02", "--box=" + BOX, "--out", str(out)],
            env=_library_env(OPENBLAS_NUM_THREADS=str(t)),
            capture_output=True, check=True)
    records = [read_summary(out)["result"].get("blas") for out in outs]
    if any(r is not None and r["threads"] is None for r in records):
        pytest.skip("no OpenBLAS thread control found")
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir())
    assert len([n for n in names if n.startswith("surface_")]) == 3
    for name in names:
        one, two = ((out / name).read_text().replace(str(out), "OUT")
                    for out in outs)
        assert one == two, name
    assert records[0]["threads"] == 1


def test_certificate_restores_the_blas_thread_count(tmp_path):
    control = cli._openblas_threads()
    if control is None:
        pytest.skip("no OpenBLAS thread control found")
    get, put = control
    before = get()
    put(2)
    try:
        count = get()
        assert main(["spectrum", "--k", "2", "--grid-n", "16",
                     "--out", str(tmp_path / "s")]) == 0
        assert read_summary(tmp_path / "s")["result"]["blas"]["threads"] == 1
        assert get() == count
    finally:
        put(before)


def test_solve_step_off_the_half_space_keeps_the_steps_before(tmp_path):
    # the eps = -5 step's predicted start puts the surface below the plane;
    # that halts the schedule as a failed step, and the converged
    # eps = -0.01 step stays
    out = tmp_path / "solve"
    rc = main(["solve", "--k", "2", "--grid-n", "16", "--phi", BUMP,
               "--eps=-0.01,-5.0", "--box=" + BOX, "--out", str(out)])
    assert rc == 3
    doc = read_summary(out)
    assert doc["status"] == "failed_checks"
    first, second = doc["result"]["steps"]
    assert first["eps"] == -0.01 and first["status"] == "ok"
    assert second["eps"] == -5.0 and second["status"] == "failed"
    assert "left the half-space" in second["error"]
    assert second["stop"] == "left the half-space"
    assert second["hint"] == reduction.HINTS["left the half-space"]
    assert sorted(f.name for f in out.glob("surface_*.csv")) == \
        ["surface_-0.01.csv"]


@pytest.mark.parametrize("eps", ["2.0", "3.0"])
def test_solve_step_off_the_box_fails(tmp_path, eps):
    # far out, where phi has vanished, |grad| <= 1e-9 holds off the branch
    # (at eps = 3 the loop converged at p3 = 164.85 when nothing bounded
    # q); the step fails once its ball centre leaves the search box, and
    # the eps = 0.01 step stays
    out = tmp_path / "solve"
    rc = main(["solve", "--k", "2", "--grid-n", "16", "--phi", BUMP,
               f"--eps=0.01,{eps}", "--box=" + BOX, "--out", str(out)])
    assert rc == 3
    first, second = read_summary(out)["result"]["steps"]
    assert first["status"] == "ok"
    assert second["status"] == "failed"
    assert second["error"].startswith("the ball centre left the search box")
    assert second["stop"] == "left the box"
    assert second["hint"] == reduction.HINTS["left the box"]
    assert sorted(f.name for f in out.glob("surface_*.csv")) == \
        ["surface_0.01.csv"]


def test_outer_loop_error_names_the_pass_cap(tmp_path):
    # from the eps = 0.01 step, the eps = 1 step's loop is still closing in
    # (its distance to the stop falls from 3.9e9 to 1.2e4 times the
    # targets) when its 60-pass cap ends it, so smaller eps steps are the
    # remedy
    out = tmp_path / "cap"
    rc = main(["solve", "--k", "2", "--grid-n", "16", "--phi",
               "exp(-hypdist(0,0,1)^2) + 0.1*p1",
               "--eps=0.01,1.0", "--box=" + BOX, "--out", str(out)])
    assert rc == 3
    first, step = read_summary(out)["result"]["steps"]
    assert first["status"] == "ok"
    assert step["status"] == "failed"
    assert re.fullmatch(r"projected solve stalled at residual \S+, \|grad\| = "
                        r"\S+, after 60 steps", step["error"]), step["error"]
    assert step["stop"] == "cap while contracting"
    assert step["hint"] == "retry with smaller eps steps"


def test_solve_samples_phi_only_where_the_surface_reaches(tmp_path):
    # phi is not finite below p3 = 1.1, far under the search box and every
    # surface the solve visits, so the energy must not sample it there
    out = tmp_path / "solve"
    rc = main(["solve", "--k", "2", "--grid-n", "24", "--phi",
               "exp(-hypdist(0,0,2.5)^2) + 0.01*sqrt(p3 - 1.1)",
               "--eps", "0.01", "--box=-0.4,0.4,-0.4,0.4,2.0,3.0",
               "--out", str(out)])
    assert rc == 0
    (step,) = read_summary(out)["result"]["steps"]
    assert step["resolved"]
    assert np.isfinite(step["energy"])


def test_config_document_sets_no_tolerance(tmp_path, capsys):
    # a negative obstruction margin would certify all three directions on
    # a bump whose reduced function has a nondegenerate maximum in the box;
    # the bounds of the verdicts are not inputs
    cfg, out = tmp_path / "margin.json", tmp_path / "ob"
    cfg.write_text(json.dumps({"tolerances": {"obstruction_margin": -1.0}}))
    assert main(["obstruction", "--k", "2", "--phi", BUMP, "--box=" + BOX,
                 "--config", str(cfg), "--out", str(out)]) == 2
    assert "'tolerances'" in capsys.readouterr().out
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command, args, doc, says", [
    ("solve", ["--grid-n", "16", "--phi", BUMP, "--eps=nan", "--box=" + BOX],
     {}, "eps values must be finite"),
    ("solve", ["--grid-n", "16", "--phi", BUMP, "--box=" + BOX],
     {"eps_schedule": [0.01, float("inf")]}, "eps values must be finite"),
    ("verify", ["--k", "inf"], {}, "k must be finite"),
    ("verify", [], {"k": float("nan")}, "k must be finite"),
    ("melnikov", ["--phi", BUMP, "--box=nan,0.4,-0.4,0.4,0.6,1.6"], {},
     "finite, ordered bounds"),
    ("melnikov", ["--phi", BUMP],
     {"box": [-0.4, 0.4, -0.4, 0.4, 0.6, float("inf")]},
     "finite, ordered bounds"),
    ("energy-curve", ["--grid-n", "8"], {"t_range": [float("inf"), 1.02, 3]},
     "t_range needs finite"),
], ids=["eps-flag", "eps-document", "k-flag", "k-document", "box-flag",
        "box-document", "t_range"])
def test_non_finite_config_values_are_config_errors(tmp_path, capsys, command,
                                                    args, doc, says):
    # a document may hold NaN and Infinity, which Python's JSON reader takes
    cfg, out = tmp_path / "cfg.json", tmp_path / "nf"
    cfg.write_text(json.dumps(doc))
    assert main([command, *args, "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert says in capsys.readouterr().out
    assert not (out / "summary.json").exists()


def test_non_finite_result_is_numeric_failure(tmp_path):
    # a finite but huge horosphere height's square overflows, which the
    # energy layer refuses without a numpy warning; the summary omits the
    # result
    cfg, out = tmp_path / "cfg.json", tmp_path / "nr"
    cfg.write_text(json.dumps({"t_range": [1e308, 1.02, 3]}))
    assert main(["energy-curve", "--grid-n", "8", "--config", str(cfg),
                 "--out", str(out)]) == 3
    doc = json.loads((out / "summary.json").read_text(),
                     parse_constant=lambda c: pytest.fail(f"{c} in summary"))
    assert doc["status"] == "numeric_failure" and "result" not in doc
    assert doc["error"] == "the surface energy leaves the float range at " \
        "heights 1e+308 to 1e+308"


DETERMINISM_ARGS = {
    "verify": ["--grid-n", "16"],
    "spectrum": ["--grid-n", "16"],
    "kernel": ["--grid-n", "16"],
    "melnikov": ["--phi", BUMP, "--box=" + BOX],
    "solve": ["--grid-n", "16", "--phi", BUMP, "--eps", "0.01",
              "--box=" + BOX],
    "energy-curve": ["--grid-n", "48"],
    "obstruction": ["--phi", "p1", "--box=" + BOX],
}


def _clear_library_caches():
    """Empty every ``lru_cache`` of the library, found by introspection."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("cmc_hyp."):
            continue
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)) and \
                    getattr(val, "__module__", None) == name:
                val.cache_clear()


@pytest.mark.parametrize("command", sorted(DETERMINISM_ARGS))
def test_determinism(tmp_path, command):
    # the first run starts from empty caches, the second reuses what the
    # first cached; the third reads the first's echoed config back as its
    # document, so the echoed fields are the document's keys
    out1, out2, out3 = tmp_path / "d1", tmp_path / "d2", tmp_path / "d3"
    args = [command, "--k", "2"] + DETERMINISM_ARGS[command]
    _clear_library_caches()
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    echoed = tmp_path / "echoed.json"
    echoed.write_text(json.dumps(read_summary(out1)["config"]))
    assert main([command, "--config", str(echoed), "--out", str(out3)]) == 0
    names = sorted(f.name for f in out1.iterdir())
    assert "summary.json" in names
    for out in (out2, out3):
        assert names == sorted(f.name for f in out.iterdir())
        for name in names:
            assert (out1 / name).read_text().replace(str(out1), "OUT") == \
                (out / name).read_text().replace(str(out), "OUT")
