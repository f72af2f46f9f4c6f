"""Command-line driver.

One process runs one command; every run writes ``summary.json`` into the
output directory with the fully resolved configuration (including the
defaulted tolerances in :data:`TOLERANCES`) echoed back, so identical
configurations produce byte-identical summaries.  Exit codes: 0 success,
2 configuration error, 3 numeric failure, 4 no critical point in the search
box.  An unknown config key or a missing required input (see
:data:`REQUIRED`) is a configuration error.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from . import chart as ch
from . import melnikov as mel
from .bubbles import make_params, tangent_frame
from .energy import energy_curve, horosphere_energy
from .errors import (AmbiguousKernelError, ConvergenceError,
                     NoCriticalPointError, NumericsError)
from .halfspace import HyperbolicPoint
from .linearized import (KERNEL_GAP_FACTOR, assemble_linearized, kernel,
                         spectrum_normal)
from .phi_expr import phi_to_prescribed
from .reduction import check_schedule, continuation

COMMANDS = ("verify", "spectrum", "kernel", "melnikov", "solve",
            "energy-curve", "obstruction")

# The tolerances a config document may override, with their defaults; each
# one is passed down to the computation that uses it.
TOLERANCES = {
    "kernel_gap_factor": KERNEL_GAP_FACTOR,
    "obstruction_margin": mel.OBSTRUCTION_MARGIN,
    "quad_area_tol": 1e-10,
}

# The inputs each command cannot run without: config key -> flag.
REQUIRED = {
    "melnikov": {"box": "--box", "phi_source": "--phi"},
    "obstruction": {"box": "--box", "phi_source": "--phi"},
    "solve": {"box": "--box", "phi_source": "--phi", "eps_schedule": "--eps"},
}


@dataclass
class JobConfig:
    command: str
    k: float = 2.0
    grid_n: int = 24
    phi_source: str | None = None
    box: tuple | None = None
    eps_schedule: tuple = ()
    count: int = 8
    seeds: int = 27
    lattice: int = 3
    t_range: tuple = (2.0, 1.02, 25)
    seed: int = 0
    tolerances: dict = dc_field(default_factory=dict)
    out_dir: str = "."

    def tol(self, name):
        return self.tolerances.get(name, TOLERANCES[name])

    def validate(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not self.k > 1:
            raise ValueError("k must exceed 1")
        if self.grid_n < 4:
            raise ValueError("grid_n must be at least 4")
        if self.box is not None:
            mel.check_box(self.box)
        check_schedule(self.eps_schedule)
        required = REQUIRED.get(self.command, {})
        missing = [flag for name, flag in required.items()
                   if not getattr(self, name)]
        if missing:
            raise ValueError(f"{self.command} needs {' and '.join(missing)}")
        unknown = set(self.tolerances) - set(TOLERANCES)
        if unknown:
            raise ValueError(f"unknown tolerance overrides: {sorted(unknown)}")

    def phi(self):
        if not isinstance(self.phi_source, str):
            raise ValueError("phi_source must be an expression string")
        return phi_to_prescribed(self.phi_source, probe_box=self.box)

    def echo(self):
        return dict(asdict(self), out_dir=str(self.out_dir),
                    tolerances={name: self.tol(name) for name in TOLERANCES})


def _parse_list(text, count=None):
    vals = tuple(float(v) for v in str(text).split(",") if v != "")
    if count is not None and len(vals) != count:
        raise ValueError(f"expected {count} comma-separated values")
    return vals


def load_config(args):
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("the config document must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(JobConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    doc.pop("command", None)    # the command argument wins
    cfg = JobConfig(command=args.command, **doc)
    if cfg.box is not None:
        cfg.box = tuple(float(v) for v in cfg.box)
    cfg.eps_schedule = tuple(float(v) for v in cfg.eps_schedule)
    cfg.t_range = tuple(cfg.t_range)
    # flags win over the config document
    if args.k is not None:
        cfg.k = args.k
    if args.grid_n is not None:
        cfg.grid_n = args.grid_n
    if args.phi is not None:
        cfg.phi_source = args.phi
    if args.eps is not None:
        cfg.eps_schedule = _parse_list(args.eps)
    if args.box is not None:
        cfg.box = _parse_list(args.box, 6)
    if args.out is not None:
        cfg.out_dir = args.out
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# commands


def _cmd_verify(cfg, out):
    grid = ch.build_grid(cfg.grid_n)
    params = make_params(cfg.k)
    om = grid.omega
    checks = {}

    def put(name, value, tol=1e-12):
        checks[name] = {"value": float(value), "tol": tol,
                        "pass": bool(value <= tol)}

    for name, value in ch.identity_defects(grid.nodes).items():
        put(name, value)

    mx = lambda a: float(np.max(np.abs(a)))
    put("area", abs(np.sum(grid.weights) - 4 * np.pi),
        tol=cfg.tol("quad_area_tol"))
    put("odd_moment", abs(float(grid.weights @ om[:, 2])),
        tol=cfg.tol("quad_area_tol"))
    put("second_moment", abs(float(grid.weights @ om[:, 2] ** 2) - 4 * np.pi / 3),
        tol=1e-8)

    frame = tangent_frame(params, grid)
    put("frame_gram", mx(frame.tau_gram() - np.eye(6)), tol=1e-8)
    gg = frame.gamma_gram()
    target = np.diag([cfg.k**2, cfg.k**2, cfg.k**2 + 3.0])
    put("gamma_gram", mx(gg - target), tol=1e-8)

    rng = np.random.default_rng(cfg.seed)
    f = ch.random_smooth_field(grid, rng)
    Pf, _ = ch.project_P(f)
    put("projector", mx(np.einsum("ij,ij->i", Pf.values, om)), tol=1e-13)

    ok = all(c["pass"] for c in checks.values())
    return {"checks": checks, "all_pass": ok}, ok


def _cmd_spectrum(cfg, out):
    grid = ch.build_grid(cfg.grid_n)
    params = make_params(cfg.k)
    rep = spectrum_normal(params, grid, count=cfg.count)
    doc = rep.to_json()
    _write_json(out / "spectrum.json", doc)
    doc["low_eigenvalue"] = float(rep.eigenvalues[0])
    doc["triple_at_2k_error"] = float(
        np.max(np.abs(rep.eigenvalues[1:4] - 2.0 * cfg.k)))
    doc["gap_after_triple"] = float(rep.eigenvalues[4] - 2.0 * cfg.k)
    return doc, True


def _cmd_kernel(cfg, out):
    grid = ch.build_grid(cfg.grid_n)
    params = make_params(cfg.k)
    system = assemble_linearized(params, HyperbolicPoint(0, 0, 1), grid)
    rep = kernel(system, gap_factor=cfg.tol("kernel_gap_factor"))
    doc = rep.to_json()
    _write_json(out / "kernel.json", doc)
    doc["frame_reconstruction_residual"] = rep.frame_residual(system)
    return doc, True


def _cmd_melnikov(cfg, out):
    params = make_params(cfg.k)
    phi = cfg.phi()
    rows = mel.scan_to_csv(phi, params, cfg.box, out / "scan.csv",
                           lattice=max(cfg.lattice, 4))
    crits = mel.find_critical(phi, params, cfg.box, seeds=cfg.seeds,
                              rng=np.random.default_rng(cfg.seed))
    doc = {
        "scan_rows": rows,
        "critical_points": [c.as_dict() for c in crits],
        "stable": [c.as_dict() for c in crits
                   if c.classification != "degenerate"],
    }
    _write_json(out / "critical_points.json", doc["critical_points"])
    return doc, True


def _cmd_solve(cfg, out):
    grid = ch.build_grid(cfg.grid_n)
    params = make_params(cfg.k)
    phi = cfg.phi()
    reports = continuation(cfg.eps_schedule, phi, params, cfg.box, grid,
                           seeds=cfg.seeds,
                           rng=np.random.default_rng(cfg.seed))
    steps = []
    for rep in reports:
        surface = rep.pop("_surface", None)
        if surface is not None:
            ch.field_to_csv(surface, out / f"surface_{rep['eps']:g}.csv")
        steps.append(rep)
    ok = all(r.get("status") == "ok" for r in steps)
    doc = {"steps": steps, "all_converged": ok}
    if not ok:
        raise ConvergenceError("continuation halted; see summary steps")
    return doc, ok


def _cmd_energy_curve(cfg, out):
    grid = ch.build_grid(cfg.grid_n)
    params = make_params(cfg.k)
    t0, t1, count = cfg.t_range
    ts = np.linspace(float(t0), float(t1), int(count))
    rows = energy_curve(params, ts, grid)
    with open(out / "energy_curve.csv", "w") as fh:
        fh.write("t,E0,closed_form\n")
        for t, e in rows:
            fh.write(f"{t:.17g},{e:.17g},{horosphere_energy(cfg.k, t):.17g}\n")
    defect = float(np.max([abs(e - horosphere_energy(cfg.k, t))
                           / max(1.0, abs(e)) for t, e in rows]))
    monotone = bool(np.all(np.diff(rows[:, 1][np.argsort(rows[:, 0])]) >= 0))
    return {"points": rows.shape[0], "closed_form_defect": defect,
            "decreasing_toward_horosphere": monotone}, True


def _cmd_obstruction(cfg, out):
    params = make_params(cfg.k)
    phi = cfg.phi()
    rep = mel.monotone_obstruction(phi, params, cfg.box, lattice=cfg.lattice,
                                   margin=cfg.tol("obstruction_margin"))
    return rep, True


_DISPATCH = {
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "kernel": _cmd_kernel,
    "melnikov": _cmd_melnikov,
    "solve": _cmd_solve,
    "energy-curve": _cmd_energy_curve,
    "obstruction": _cmd_obstruction,
}


def _write_json(path, doc):
    """Write one JSON artifact with sorted keys and a one-space indent, so
    that identical documents give identical bytes."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cmc-hyp",
        description="Spheres of constant and almost-constant mean curvature "
                    "in hyperbolic 3-space: verification and solve pipelines")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON configuration document")
    parser.add_argument("--k", type=float, help="mean curvature, k > 1")
    parser.add_argument("--grid-n", type=int, dest="grid_n")
    parser.add_argument("--phi", help="prescribed function expression")
    parser.add_argument("--eps", help="comma-separated eps schedule")
    parser.add_argument("--box", help="x0,x1,y0,y1,z0,z1 search box")
    parser.add_argument("--out", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args)
        if cfg.phi_source is not None:
            cfg.phi()   # surface syntax errors as config errors
    except (ValueError, OSError, KeyError) as exc:  # phi syntax, JSON too
        print(f"configuration error: {exc}")
        return 2

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"config": cfg.echo(), "status": "ok"}
    try:
        result, ok = _DISPATCH[cfg.command](cfg, out)
        summary["result"] = result
        if not ok:
            summary["status"] = "failed_checks"
        _write_json(out / "summary.json", summary)
        return 0 if ok else 3
    except NoCriticalPointError as exc:
        summary.update(status="no_critical_point", error_class="no_critical_point",
                       error=str(exc))
        _write_json(out / "summary.json", summary)
        print(f"no critical point: {exc}")
        return 4
    except (NumericsError, ConvergenceError, AmbiguousKernelError,
            np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        summary.update(status="numeric_failure", error_class="numeric_failure",
                       error=str(exc))
        _write_json(out / "summary.json", summary)
        print(f"numeric failure: {exc}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
