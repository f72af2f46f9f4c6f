"""Command-line driver.

One process runs one command; every run writes ``summary.json`` into the
output directory with the fully resolved configuration, inputs only (each
verdict's bound is its module's constant), echoed back, so identical
configurations produce byte-identical summaries.  ``kernel``,
``spectrum`` and ``solve`` run with OpenBLAS on one thread, which their
summaries record, so their bytes do not depend on the BLAS thread count
either.  The
configuration holds no random seed: the critical search starts from a
fixed lattice of :data:`~cmc_hyp.melnikov.SEEDS` points by default, and
``verify``'s projector check draws its test field from one fixed stream.
Each config key's flag and kind of value are in :data:`_INPUTS`; each
command's function, smallest grid and required keys in :data:`_COMMANDS`.
Exit codes: 0 success, 2 configuration error, 3 numeric failure (a result
that is not finite too) or failed checks, 4 no critical point in the
search box.  An unknown config key, a value of the wrong type or not
finite, a grid below the command's smallest, a missing required input, or
an output directory that cannot be made is a configuration error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import chart as ch
from . import melnikov as mel
from .bubbles import make_params, tangent_frame
from .energy import energy_curve, energy_curve_verdict
from .errors import NoCriticalPointError, NumericsError
from .halfspace import HyperbolicPoint
from .linearized import PACK_MIN_N, assemble_linearized, kernel, spectrum_normal
from .phi_expr import phi_to_prescribed
from .reduction import check_schedule, continuation

# Each config key: its flag (``None`` where only a document sets it), the
# kind of value a document gives it, and the flag's help text.  A ``tuple``
# is a JSON list of reals, kept as given; a value of any other kind (or
# ``null`` where the default is not ``None``) is a configuration error.
_INPUTS = {
    "k": ("--k", float, "mean curvature, k > 1"),
    "grid_n": ("--grid-n", int, "chart grid resolution n (2 n^2 nodes)"),
    "phi_source": ("--phi", str, "prescribed function expression"),
    "eps_schedule": ("--eps", tuple, "comma-separated eps schedule"),
    "box": ("--box", tuple, "x0,x1,y0,y1,z0,z1 search box"),
    "seeds": (None, int, None),
    "t_range": (None, tuple, None),
    "out_dir": ("--out", str, "output directory"),
}


@dataclass
class JobConfig:
    command: str
    k: float = 2.0
    grid_n: int = 24
    phi_source: str | None = None
    box: tuple | None = None
    eps_schedule: tuple = ()
    seeds: int = mel.SEEDS
    t_range: tuple = (2.0, 1.02, 25)
    out_dir: str = "."

    def validate(self):
        """Check the inputs against :data:`_COMMANDS`' needs of the command,
        and hold the box and the eps schedule as floats."""
        _, floor, required = _COMMANDS[self.command]
        make_params(self.k)
        if self.grid_n < floor:
            raise ValueError(f"{self.command} needs grid_n >= {floor}")
        if self.box is not None:
            self.box = mel.check_box(self.box)
        mel.check_seeds(self.seeds)
        self.eps_schedule = tuple(check_schedule(self.eps_schedule))
        if len(self.t_range) != 3:
            raise ValueError("t_range needs three values")
        t0, t1, points = self.t_range
        if not (math.isfinite(t0) and math.isfinite(t1) and t0 > 1 and t1 > 1
                and points >= 1 and float(points).is_integer()):
            raise ValueError("t_range needs finite t0 > 1, t1 > 1 and a whole "
                             "count >= 1")
        missing = [_INPUTS[name][0] for name in required
                   if not getattr(self, name)]
        if missing:
            raise ValueError(f"{self.command} needs {' and '.join(missing)}")

    @cached_property
    def phi(self):
        """The prescribed function, compiled (and probed) once per run."""
        return phi_to_prescribed(self.phi_source, probe_box=self.box)


def _read(name, value):
    """A config document's ``value`` for key ``name``, as its kind: a real
    (for ``float``, and each entry of a ``tuple``) is any JSON number, and
    no kind takes a boolean."""
    kind = _INPUTS[name][1]
    want = kind if kind in (int, str) else (int, float)
    items = value if isinstance(value, list) else [value]
    if (kind is tuple) != isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, want) for v in items):
        raise ValueError(f"config key {name!r} has a value of the wrong "
                         f"type: {value!r}")
    return kind(value)


def _parse_list(flag, text):
    """The comma-separated reals that ``flag`` was given as ``text``."""
    try:
        return tuple(float(v) for v in text.split(",") if v)
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated numbers, not "
                         f"{text!r}") from None


def load_config(args):
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("the config document must be a JSON object")
    defaults = {f.name: f.default for f in fields(JobConfig)}
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    doc.pop("command", None)    # the command argument wins
    doc = {name: _read(name, value) for name, value in doc.items()
           if not (value is None and defaults[name] is None)}
    # flags win over the config document
    flags = {name: _parse_list(_INPUTS[name][0], value)
             if _INPUTS[name][1] is tuple else value
             for name, value in vars(args).items()
             if name in _INPUTS and value is not None}
    cfg = JobConfig(command=args.command, **{**doc, **flags})
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
    put("area", abs(np.sum(grid.weights) - 4 * np.pi), tol=1e-10)
    put("odd_moment", abs(float(grid.weights @ om[:, 2])), tol=1e-10)
    put("second_moment", abs(float(grid.weights @ om[:, 2] ** 2) - 4 * np.pi / 3),
        tol=1e-8)

    frame = tangent_frame(params, grid)
    put("frame_gram", mx(frame.tau_gram() - np.eye(6)), tol=1e-8)
    gg = frame.gamma_gram()
    target = np.diag([cfg.k**2, cfg.k**2, cfg.k**2 + 3.0])
    put("gamma_gram", mx(gg - target), tol=1e-8)

    f = ch.random_smooth_field(grid, np.random.default_rng(0))
    Pf, _ = ch.project_P(f)
    put("projector", mx(np.einsum("ij,ij->i", Pf.values, om)), tol=1e-13)

    ok = all(c["pass"] for c in checks.values())
    return {"checks": checks, "all_pass": ok}, ok


def _openblas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS this process has
    loaded, found by its exported symbols through ``ctypes``; ``None``
    where no loaded OpenBLAS exports them (or the loaded libraries cannot
    be listed, as ``/proc/self/maps`` lists them on Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for prefix, suffix in (("scipy_openblas", "64_"),
                                   ("openblas", "64_"), ("openblas", "")):
                get = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    except OSError:
        pass
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, restoring the count it
    had; yields the record ``{"name", "threads"}`` of numpy's BLAS, with
    ``threads`` ``None`` where no OpenBLAS thread control is found.

    The operator blocks' Gram products, the eigensolves and the
    corrector's products round differently at different thread counts, so
    the certificates and the solve pin it: their bytes are then the same
    whatever ``OPENBLAS_NUM_THREADS`` says."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "name"]
    except (TypeError, KeyError):
        name = None
    control = _openblas_threads()
    if control is None:
        yield {"name": name, "threads": None}
        return
    get, put = control
    before = get()
    put(1)
    try:
        yield {"name": name, "threads": get()}
    finally:
        put(before)


def _cmd_spectrum(cfg, out):
    grid = ch.build_grid(cfg.grid_n)
    params = make_params(cfg.k)
    with _one_blas_thread() as blas:
        rep = spectrum_normal(params, grid)
        doc = rep.to_json()
        _write_json(out / "spectrum.json", doc)
        doc.update(rep.verdict(), blas=blas)
    return doc, doc["resolved"]


def _cmd_kernel(cfg, out):
    grid = ch.build_grid(cfg.grid_n)
    params = make_params(cfg.k)
    with _one_blas_thread() as blas:
        system = assemble_linearized(params, HyperbolicPoint(0, 0, 1), grid)
        rep = kernel(system)
        doc = rep.to_json()
        _write_json(out / "kernel.json", doc)
        doc.update(rep.verdict(system), blas=blas)
    return doc, doc["resolved"]


def _cmd_melnikov(cfg, out):
    params = make_params(cfg.k)
    phi = cfg.phi
    rows = mel.scan_to_csv(phi, params, cfg.box, out / "scan.csv")
    crits = mel.find_critical(phi, params, cfg.box, seeds=cfg.seeds)
    doc = {
        "scan_rows": rows,
        "critical_points": [c.as_dict() for c in crits],
        "stable": [c.as_dict() for c in mel.stable_points(crits)],
    }
    _write_json(out / "critical_points.json", doc["critical_points"])
    return doc, True


def _cmd_solve(cfg, out):
    grid = ch.build_grid(cfg.grid_n)
    params = make_params(cfg.k)
    with _one_blas_thread() as blas:
        reports = continuation(cfg.eps_schedule, cfg.phi, params, cfg.box,
                               grid, seeds=cfg.seeds)
    for rep in reports:
        surface = rep.pop("_surface", None)
        if surface is not None:
            ch.field_to_csv(surface, out / f"surface_{rep['eps']:g}.csv")
    converged = all(r.get("status") == "ok" for r in reports)
    return ({"steps": reports, "all_converged": converged, "blas": blas},
            converged and all(r["resolved"] for r in reports))


def _cmd_energy_curve(cfg, out):
    grid = ch.build_grid(cfg.grid_n)
    params = make_params(cfg.k)
    t0, t1, count = cfg.t_range
    rows = energy_curve(params, np.linspace(float(t0), float(t1), int(count)),
                        grid)
    closed, verdict = energy_curve_verdict(params, rows)
    with open(out / "energy_curve.csv", "w") as fh:
        fh.write("t,E0,closed_form\n")
        fh.writelines(f"{row[0]:.17g},{row[1]:.17g},{c:.17g}\n"
                      for row, c in zip(rows, closed))
    return verdict, verdict["resolved"]


def _cmd_obstruction(cfg, out):
    return mel.monotone_obstruction(cfg.phi, make_params(cfg.k), cfg.box), True


# Each command: its function, its smallest grid (the operator pack's for the
# commands that build it, the chart's for the rest), and the config keys it
# cannot run without.
_COMMANDS = {
    "verify": (_cmd_verify, ch.GRID_MIN_N, ()),
    "spectrum": (_cmd_spectrum, PACK_MIN_N, ()),
    "kernel": (_cmd_kernel, PACK_MIN_N, ()),
    "melnikov": (_cmd_melnikov, ch.GRID_MIN_N, ("box", "phi_source")),
    "solve": (_cmd_solve, PACK_MIN_N, ("box", "phi_source", "eps_schedule")),
    "energy-curve": (_cmd_energy_curve, ch.GRID_MIN_N, ()),
    "obstruction": (_cmd_obstruction, ch.GRID_MIN_N, ("box", "phi_source")),
}


def _write_json(path, doc):
    """Write one JSON artifact with sorted keys and a one-space indent, so
    that identical documents give identical bytes; a value that is not
    finite, which JSON cannot hold, raises ``ValueError`` and writes
    nothing."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None
    path.write_text(text)


def _parser():
    documented = " and ".join(name for name, (flag, _, _) in _INPUTS.items()
                           if flag is None)
    parser = argparse.ArgumentParser(
        prog="cmc-hyp",
        description="Spheres of constant and almost-constant mean curvature "
                    "in hyperbolic 3-space: verification and solve pipelines",
        epilog=f"Only a --config document sets {documented}.  Exit codes: "
               "0 success, 2 configuration error, 3 numeric failure or "
               "failed checks, 4 no critical point in the search box.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON configuration document")
    # each flag's metavar is the one argparse derives from the flag itself
    for name, (flag, kind, text) in _INPUTS.items():
        if flag is not None:
            parser.add_argument(
                flag, dest=name, metavar=flag[2:].replace("-", "_").upper(),
                type=kind if kind in (int, float) else None, help=text)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args)
        if cfg.phi_source is not None:
            cfg.phi     # surface syntax errors as config errors
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    # phi syntax, JSON too, and a document nested too deep for its reader
    except (ValueError, OSError, RecursionError) as exc:
        print(f"configuration error: {exc}")
        return 2

    summary = {"config": asdict(cfg), "status": "ok"}
    try:
        result, ok = _COMMANDS[cfg.command][0](cfg, out)
        if not ok:
            summary["status"] = "failed_checks"
        _write_json(out / "summary.json", dict(summary, result=result))
        return 0 if ok else 3
    except NoCriticalPointError as exc:
        summary.update(status="no_critical_point", error_class="no_critical_point",
                       error=str(exc))
        _write_json(out / "summary.json", summary)
        print(f"no critical point: {exc}")
        return 4
    except (NumericsError, np.linalg.LinAlgError, ValueError) as exc:
        summary.update(status="numeric_failure", error_class="numeric_failure",
                       error=str(exc))
        _write_json(out / "summary.json", summary)
        print(f"numeric failure: {exc}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
