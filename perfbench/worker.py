"""One benchmark process: set up one workload, run its jobs in a closed loop
(one client, the next job starts when the previous one ends) for a fixed
time and at least the workload's ``min_jobs`` jobs, check every job, and
print one JSON line.

Started by ``run.py``, which sets the thread caps and ``PYTHONPATH`` before
this process imports numpy.  ``--spawned-at`` is the launcher's monotonic
clock just before it started this process, so set-up time counts
interpreter start and imports.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import time
from collections import Counter

import numpy as np
import scipy

import cmc_hyp
import workloads as wls


def blas_info():
    """BLAS vendor and version from numpy's build record, and the thread
    count the loaded OpenBLAS reports (None when it cannot be asked)."""
    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def provenance():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(),
            "package": cmc_hyp.__file__}


def run_one(wl, job, tracer):
    t0 = time.perf_counter()
    try:
        parts = wl.run(job, tracer)
        wall = time.perf_counter() - t0
        failures = wl.check(parts)
    except Exception as exc:  # a failing job is counted, not fatal
        wall = time.perf_counter() - t0
        parts, failures = {}, [f"raised {type(exc).__name__}: {exc}"]
    return parts, wall, failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    wl = wls.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        missing = tracer.install(layers.TARGETS)
    wl.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    jobs = wl.jobs()
    out = {"setup_s": setup_s, "provenance": provenance()}
    pending = None
    if tracer is not None:
        # one job untraced, then the same job traced: the difference is the
        # tracing overhead
        tracer.uninstall()
        pending = next(jobs)
        ref_part, ref_wall = wl.overhead_reference(pending)
        tracer.install(layers.TARGETS)

    caches_before = wls.cache_counts()
    records = []
    per_size = Counter()
    deadline = time.perf_counter() + args.seconds
    while True:
        job = pending if pending is not None else next(jobs)
        pending = None
        if tracer is not None:
            tracer.job = f"job{len(records)}"
        parts, wall, failures = run_one(wl, job, tracer)
        per_size.update(f"n{p['n']}" for p in parts.values())
        records.append({
            "wall_s": wall, "failures": failures,
            "parts": {tag: p["wall_s"] for tag, p in parts.items()},
            "facts": {f"{key}.{tag}": p[key] for tag, p in parts.items()
                      for key in ("dense_dim", "pack_mb") if key in p}})
        if time.perf_counter() >= deadline and len(records) >= wl.min_jobs:
            break
    caches_after = wls.cache_counts()
    out["caches"] = {name: {"hits": caches_after[name][0] - hits,
                            "misses": caches_after[name][1] - misses}
                     for name, (hits, misses) in caches_before.items()}
    out["jobs"] = records
    out["calls_per_size"] = dict(per_size)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer is not None:
        tracer.uninstall()
        job_ids = [f"job{i}" for i in range(len(records))]
        facts = records[0]["facts"]
        metrics = layers.per_layer(tracer, job_ids, facts)
        selfs = tracer.self_by_job(set(job_ids))
        gaps = []
        for jid, rec in zip(job_ids, records):
            attributed = sum(v for (j, _, _), v in selfs.items() if j == jid)
            gaps.append(rec["wall_s"] - attributed)
        metrics["trace.job_s"] = float(np.mean([r["wall_s"] for r in records]))
        metrics["trace.overhead_s"] = records[0]["parts"].get(ref_part, ref_wall) \
            - ref_wall
        out["per_layer"] = metrics
        out["trace_check"] = {
            "nesting_defects": len(tracer.nesting_defects()),
            "unattributed_s": gaps,
            "spans": len(tracer.spans),
            "missing_targets": missing,
        }
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(tracer.to_json(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
