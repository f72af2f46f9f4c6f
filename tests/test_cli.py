import json
import sys

import numpy as np
import pytest

from cmc_hyp import reduction
from cmc_hyp.cli import main
from cmc_hyp.errors import ConvergenceError

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
    assert doc["config"]["tolerances"]["kernel_gap_factor"] == 100.0
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
    solve_at = reduction._solve_at

    def fail_after_first(eps, *args, **kwargs):
        if eps != 0.01:
            raise ConvergenceError("forced failure")
        return solve_at(eps, *args, **kwargs)

    monkeypatch.setattr(reduction, "_solve_at", fail_after_first)
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
    assert second["error"] == "forced failure" and second["hint"]
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


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "k": 3.0, "grid_n": 16, "tolerances": {"kernel_gap_factor": 50.0}}))
    out = tmp_path / "cf"
    assert main(["verify", "--config", str(cfgfile), "--k", "2",
                 "--out", str(out)]) == 0
    doc = read_summary(out)
    assert doc["config"]["k"] == 2.0                   # flag wins
    assert doc["config"]["grid_n"] == 16               # from the file
    assert doc["config"]["tolerances"]["kernel_gap_factor"] == 50.0


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


def test_phi_source_must_be_an_expression(tmp_path):
    cfg, out = tmp_path / "catalog.json", tmp_path / "c"
    cfg.write_text(json.dumps({"phi_source": {"catalog": "norm"}}))
    assert main(["obstruction", "--k", "2", "--config", str(cfg),
                 "--box=" + BOX, "--out", str(out)]) == 2
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
    for doc in ({"grid-n": 48}, {"degree": 10}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "u")]) == 2


@pytest.mark.parametrize("doc,key", [
    ({"k": "2"}, "k"),
    ({"eps_schedule": 0.01}, "eps_schedule"),
    ({"box": 5}, "box"),
    ({"tolerances": {"kernel_gap_factor": "big"}},
     "tolerances.kernel_gap_factor"),
])
def test_wrongly_typed_config_values_are_config_errors(tmp_path, capsys, doc,
                                                       key):
    cfg, out = tmp_path / "cfg.json", tmp_path / "t"
    cfg.write_text(json.dumps(doc))
    assert main(["kernel", "--grid-n", "16", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert repr(key) in capsys.readouterr().out
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command,n", [
    ("kernel", 6), ("spectrum", 7), ("solve", 7)])
def test_grid_below_the_pack_floor_is_config_error(tmp_path, capsys, command,
                                                   n):
    # the commands that build the operator pack need n >= 8; verify and
    # energy-curve keep the chart's n >= 4
    out = tmp_path / command
    extra = (["--phi", BUMP, "--eps", "0.01", "--box=" + BOX]
             if command == "solve" else [])
    assert main([command, "--k", "2", "--grid-n", str(n), *extra,
                 "--out", str(out)]) == 2
    assert "grid_n >= 8" in capsys.readouterr().out
    assert not (out / "summary.json").exists()
    for small in ("verify", "energy-curve"):
        assert main([small, "--k", "2", "--grid-n", "4",
                     "--out", str(tmp_path / small)]) == 0


@pytest.mark.parametrize("seeds", [-5, 0, 10])
def test_seeds_must_be_a_positive_cube(tmp_path, capsys, seeds):
    cfg, out = tmp_path / "cfg.json", tmp_path / "s"
    cfg.write_text(json.dumps({"seeds": seeds}))
    assert main(["melnikov", "--k", "2", "--phi", BUMP, "--box=" + BOX,
                 "--config", str(cfg), "--out", str(out)]) == 2
    assert "perfect cube" in capsys.readouterr().out
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command, phi, box, args", [
    ("obstruction", "sqrt(0.3 - p1^2)", BOX, []),
    ("melnikov", "sqrt(0.3 - p1^2)", BOX, []),
    # finite on every ball and surface, not on the energy's vertical
    # segments down to the gauge anchor p3 = 1
    ("solve", "exp(-hypdist(0,0,2.5)^2) + 0.01*sqrt(p3 - 1.1)",
     "-0.4,0.4,-0.4,0.4,2.0,3.0", ["--grid-n", "24", "--eps", "0.01"]),
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


def test_tolerance_overrides_are_honoured(tmp_path):
    def run(command, tolerances, *args):
        cfg, out = tmp_path / f"{command}.json", tmp_path / command
        cfg.write_text(json.dumps({"tolerances": tolerances}))
        rc = main([command, "--k", "2", "--config", str(cfg),
                   "--out", str(out), *args])
        return rc, out

    rc, out = run("kernel", {"kernel_gap_factor": 1e30}, "--grid-n", "16")
    assert rc == 3
    assert read_summary(out)["config"]["tolerances"]["kernel_gap_factor"] == 1e30
    rc, out = run("obstruction", {"obstruction_margin": 1e30},
                  "--phi", "p1", "--box=" + BOX)
    assert rc == 0
    assert read_summary(out)["result"]["obstructed"] == []
    rc, out = run("verify", {"quad_area_tol": 1e-16}, "--grid-n", "16")
    doc = read_summary(out)
    assert rc == 3 and doc["status"] == "failed_checks"
    assert doc["result"]["checks"]["area"]["value"] > 1e-16
    assert not doc["result"]["checks"]["area"]["pass"]
    # only the tolerances passed down to a computation may be set
    rc, _ = run("solve", {"newton_residual": 1e-30, "newton_max_iter": 1},
                "--grid-n", "16", "--phi", BUMP, "--eps", "0.01",
                "--box=" + BOX)
    assert rc == 2


DETERMINISM_ARGS = {
    "verify": ["--grid-n", "16"],
    "spectrum": ["--grid-n", "16"],
    "kernel": ["--grid-n", "16"],
    "melnikov": ["--phi", BUMP, "--box=" + BOX],
    "solve": ["--grid-n", "16", "--phi", BUMP, "--eps", "0.01",
              "--box=" + BOX],
    "energy-curve": ["--grid-n", "16"],
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
    # first cached
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    args = [command, "--k", "2"] + DETERMINISM_ARGS[command]
    _clear_library_caches()
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    s1 = (out1 / "summary.json").read_text().replace(str(out1), "OUT")
    s2 = (out2 / "summary.json").read_text().replace(str(out2), "OUT")
    assert s1 == s2
    names = sorted(f.name for f in out1.iterdir())
    assert names == sorted(f.name for f in out2.iterdir())
    for name in names:
        assert (out1 / name).read_text().replace(str(out1), "OUT") == \
            (out2 / name).read_text().replace(str(out2), "OUT")
