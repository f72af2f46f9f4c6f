"""The benchmark's workloads: seeded job streams, the jobs, and their gates.

Every job goes through the library's public calls, the same ones the
command line's ``kernel``, ``spectrum`` and ``solve`` commands make, and is
checked against the acceptance suite's pinned tolerances.  Library functions
are looked up as module attributes at call time (``lin.kernel``, not a bound
name), so the tracer in ``tracer.py`` can wrap them.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext

import numpy as np

from cmc_hyp import bubbles as bb
from cmc_hyp import chart as ch
from cmc_hyp import linearized as lin
from cmc_hyp import phi_expr as pe
from cmc_hyp import reduction as red
from cmc_hyp.halfspace import HyperbolicPoint

Q0 = HyperbolicPoint(0.0, 0.0, 1.0)
BOX = (-0.4, 0.4, -0.4, 0.4, 0.6, 1.6)
EPS = (0.02, 0.01, 0.005)
CERT_SIZES = (24, 48)
K_RANGE = (1.5, 5.0)

# acceptance-suite tolerances (tests/test_acceptance.py, criteria 3, 4, 9)
KERNEL_DIM = 9
KERNEL_GAP = 100.0
FRAME_RESID = 1e-6
TRIPLE_REL = 1e-3
LAMBDA0_REL = 1e-8
SOLVE_RESID = 1e-8
CONFORMALITY = 1e-6


def library_caches():
    """Every ``lru_cache`` of the library, by qualified name.

    Found by introspection, so the benchmark names no private function.
    """
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not name.startswith("cmc_hyp."):
            continue
        for attr, val in vars(mod).items():
            if callable(getattr(val, "cache_info", None)) and \
                    getattr(val, "__module__", None) == name:
                out[f"{name[len('cmc_hyp.'):]}.{attr}"] = val
    return out


def cache_counts():
    return {name: list(fn.cache_info()[:2])
            for name, fn in library_caches().items()}


def clear_caches():
    for fn in library_caches().values():
        fn.cache_clear()


def array_megabytes(obj):
    """Megabytes (1e6 bytes) held by the numpy arrays among ``obj``'s fields,
    computed from their sizes."""
    return sum(v.nbytes for v in vars(obj).values()
               if isinstance(v, np.ndarray)) / 1e6


def _gate(failures, name, ok, value):
    if not ok:
        failures.append(f"{name}: {value!r}")


# ---------------------------------------------------------------------------
# certify: nondegeneracy certificates at fresh (n, k)


class Certify:
    """One job is a certificate at n = 24 then one at n = 48, each at its own
    curvature drawn from the seed; no curvature repeats within a run."""

    name = "certify"
    min_jobs = 1

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.used = set()

    def setup(self):
        """Certificates share no work, so there is nothing to warm."""

    def _fresh_k(self):
        while True:
            k = float(self.rng.uniform(*K_RANGE))
            if k not in self.used:
                self.used.add(k)
                return k

    def jobs(self):
        while True:
            yield [(n, self._fresh_k()) for n in CERT_SIZES]

    @staticmethod
    def certificate(n, k, tracer=None):
        """The ``kernel`` and ``spectrum`` commands' calls at one (n, k)."""
        with _span(tracer, "certify", n=n):
            grid = ch.build_grid(n)
            params = bb.make_params(k)
            lin.operator_pack(grid, params)
            system = lin.assemble_linearized(params, Q0, grid)
            rep = lin.kernel(system)
            pack = system.pack
            B = np.stack([pack.project_vector(b.values) for b in rep.basis],
                         axis=1)
            fm = pack.frame_modal.T
            coef = np.linalg.lstsq(B, fm, rcond=None)[0]
            resid = float(np.max(np.linalg.norm(fm - B @ coef, axis=0)
                                 / np.linalg.norm(fm, axis=0)))
            spec = lin.spectrum_normal(params, grid, count=8)
        return {"n": n, "k": k, "kernel": rep, "frame_resid": resid,
                "spectrum": spec, "dense_dim": system.size,
                "pack_mb": array_megabytes(pack)}

    def run(self, job, tracer=None):
        parts = {}
        for n, k in job:
            t0 = time.perf_counter()
            out = self.certificate(n, k, tracer)
            out["wall_s"] = time.perf_counter() - t0
            parts[f"n{n}"] = out
        return parts

    @staticmethod
    def check(parts):
        failures = []
        for tag, out in parts.items():
            rep, spec, k = out["kernel"], out["spectrum"], out["k"]
            ev = spec.eigenvalues
            _gate(failures, f"{tag} kernel dimension", rep.dimension == KERNEL_DIM,
                  rep.dimension)
            _gate(failures, f"{tag} kernel gap", rep.gap >= KERNEL_GAP, rep.gap)
            _gate(failures, f"{tag} frame reconstruction",
                  out["frame_resid"] <= FRAME_RESID, out["frame_resid"])
            _gate(failures, f"{tag} multiplicities",
                  spec.multiplicities[:2] == [1, 3], spec.multiplicities)
            triple = float(np.max(np.abs(ev[1:4] - 2.0 * k)) / (2.0 * k))
            _gate(failures, f"{tag} triple at 2k", triple <= TRIPLE_REL, triple)
            _gate(failures, f"{tag} zero eigenvalue",
                  abs(ev[0]) <= LAMBDA0_REL * max(1.0, ev[-1]), float(ev[0]))
        return failures

    def overhead_reference(self, job):
        """Untraced copy of the job's n = 24 certificate, with the library's
        caches cleared so the traced job repeats the same cold work.  The
        copy runs twice and the second is timed, because the first call in a
        process also pays one-off costs that clearing caches does not undo."""
        n, k = job[0]
        for _ in range(2):
            clear_caches()
            t0 = time.perf_counter()
            self.certificate(n, k)
            wall = time.perf_counter() - t0
        clear_caches()
        return f"n{n}", wall


# ---------------------------------------------------------------------------
# continuation: perturbed-sphere solves that share one operator


# Latin-hypercube strata for one cycle of six solves: column d lists, per
# solve of the cycle, which sixth of parameter d's range it draws from
_STRATA = np.array([
    [0, 2, 4, 1, 3, 5, 2, 4, 0],
    [3, 5, 1, 4, 0, 2, 5, 1, 3],
    [5, 1, 3, 0, 4, 4, 0, 3, 5],
    [1, 4, 0, 5, 2, 3, 4, 0, 2],
    [4, 0, 2, 3, 5, 1, 1, 5, 4],
    [2, 3, 5, 2, 1, 0, 3, 2, 1],
])
# share of its sixth within which the seed places a point, about the middle
JITTER = 0.1
KINDS = ("plain", "tilt", "bump2")


def _design_points(rng):
    """Points of ``[0, 1)^9``, six per cycle: each cycle takes every
    parameter once from each sixth of its range (a Latin hypercube), at a
    seeded place near the middle of the sixth, so every run samples the
    ranges alike (see README.md, *Workloads*)."""
    while True:
        for row in _STRATA:
            offset = 0.5 + JITTER * (rng.random(row.size) - 0.5)
            yield (row + offset) / len(_STRATA)


def phi_stream(rng):
    """Seeded ``(kind, phi text, eps schedule)`` for the solves, in batches
    of three: a bump ``exp(-hypdist(a,b,c)^2)`` with ``(a, b)`` in
    ``[-0.2, 0.2]^2`` and ``c`` in ``[0.85, 1.3]``; the same plus a ``p1`` or
    ``p2`` tilt of 0.01-0.04; the same plus a second bump of weight 0.1-0.25
    in the same ranges.  Every other batch uses the negative schedule."""
    for j, u in enumerate(_design_points(rng)):
        a, b = -0.2 + 0.4 * u[0], -0.2 + 0.4 * u[1]
        c = 0.85 + 0.45 * u[2]
        text = f"exp(-hypdist({a:.6f},{b:.6f},{c:.6f})^2)"
        kind = KINDS[j % 3]
        if kind == "tilt":
            t = 0.01 + 0.03 * u[3]
            text += f" + {t:.6f}*p{1 if u[4] < 0.5 else 2}"
        elif kind == "bump2":
            w = 0.1 + 0.15 * u[5]
            a2, b2 = -0.2 + 0.4 * u[6], -0.2 + 0.4 * u[7]
            c2 = 0.85 + 0.45 * u[8]
            text += f" + {w:.6f}*exp(-hypdist({a2:.6f},{b2:.6f},{c2:.6f})^2)"
        sign = -1.0 if (j // 3) % 2 else 1.0
        yield kind, text, tuple(sign * e for e in EPS)


class Continuation:
    """One job is three calls of the ``solve`` command's ``continuation``
    over a three-step schedule at k = 2 in ``BOX``, one per kind of seeded
    ``phi``, so that every job costs about the same."""

    name = "continuation"
    # two jobs are one whole cycle of the design (six solves, about 15 s),
    # so every run's median is taken over the same mix of design rows
    min_jobs = 2
    n = 24
    k = 2.0

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def setup(self):
        """Build the shared pack, ``H_vec`` and bordered LU: the first
        ``correct(0, q0)``, exactly as the first solve of a process would."""
        grid = ch.build_grid(self.n)
        params = bb.make_params(self.k)
        phi = pe.phi_to_prescribed("1", probe_box=BOX)
        red.correct(0.0, Q0, phi, params, grid)

    def jobs(self):
        stream = phi_stream(self.rng)
        while True:
            yield [next(stream) for _ in KINDS]

    def solve(self, text, eps, tracer=None):
        t0 = time.perf_counter()
        with _span(tracer, "solve", n=self.n):
            grid = ch.build_grid(self.n)
            params = bb.make_params(self.k)
            phi = pe.phi_to_prescribed(text, probe_box=BOX)
            reports = red.continuation(eps, phi, params, BOX, grid)
        return {"n": self.n, "wall_s": time.perf_counter() - t0, "phi": text,
                "eps": list(eps), "reports": reports}

    def run(self, job, tracer=None):
        return {kind: self.solve(text, eps, tracer) for kind, text, eps in job}

    @staticmethod
    def check(parts):
        failures = []
        for kind, part in parts.items():
            reports = part["reports"]
            _gate(failures, f"{kind} steps", len(reports) == len(EPS),
                  len(reports))
            for r in reports:
                tag = f"{kind} eps={r['eps']:g}"
                _gate(failures, f"{tag} status", r.get("status") == "ok",
                      r.get("status"))
                if r.get("status") != "ok":
                    continue
                for key in ("residual_sup", "xi_sup", "alpha_sup"):
                    _gate(failures, f"{tag} {key}", r[key] <= SOLVE_RESID,
                          r[key])
                _gate(failures, f"{tag} conformality",
                      r["conformality"] <= CONFORMALITY, r["conformality"])
        return failures

    def overhead_reference(self, job):
        """Untraced copy of the job's first solve; caches are shared and
        warm, so the traced job repeats the same work."""
        kind, text, eps = job[0]
        return kind, self.solve(text, eps)["wall_s"]


class ContinuationFine(Continuation):
    name = "continuation-fine"
    min_jobs = 1
    n = 40


WORKLOADS = {w.name: w for w in (Certify, Continuation, ContinuationFine)}


def _span(tracer, name, **attrs):
    return nullcontext() if tracer is None else tracer.span(name, **attrs)
