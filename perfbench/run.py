"""Benchmark command: one workload, one seed, one measured run.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate traced run that reports the per-layer metrics.  The metric
names and units are those of ``BENCHMARK.json``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it show each metric with its sample count,
the provenance, and which library caches the jobs hit.

Each measurement runs in a fresh process, because peak RSS covers a
process's whole life and the library's caches would carry over between
workloads.  Set-up is measured in three processes and its median reported.
The launcher caps BLAS and OpenMP threads at the number of usable cores,
and at one on the continuation workloads (see ``BLAS_THREADS``).
Exit codes: 0 on a run whose outputs are all correct, 1 when a job failed a
gate, 2 when the run could not be made (no library source, a process
failed), 3 when the result does not match ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("certify", "continuation", "continuation-fine")
# BLAS threads per workload; None means one per usable core.  The solves of
# the continuation workloads make many small BLAS calls (triangular solves,
# matrix-vector products), each a synchronisation point for a thread pool:
# with two threads one busy process on the other core doubled an n = 40
# solve's time, with one thread it added 3 %.  The dense eigen-solves of
# `certify` gain from every core.
BLAS_THREADS = {"certify": None, "continuation": 1, "continuation-fine": 1}
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def worker_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def spawn(args, extra, env, stop_at):
    """Run one worker process to completion; its last stdout line is JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, stop_at - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_identity():
    """Git commit when the tree is a checkout, and a hash of the library
    source either way (the benchmark may run outside git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "cmc_hyp").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def spec_metrics(key):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def end_to_end(main_run, setups):
    walls = [r["wall_s"] for r in main_run["jobs"]]
    return {
        "job_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (main_run["peak_rss_mb"], "MB", 1),
    }


def per_layer(main_run, units):
    """Times are means over the traced jobs, counts those of the first job,
    so no per-metric sample count is given."""
    return {name: (value, units.get(name), None)
            for name, value in main_run["per_layer"].items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    stop_at = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "cmc_hyp" / "__init__.py").is_file():
        return fail(2, f"no library source under {SRC}; run from the "
                       "repository root")
    key = "per_layer" if args.trace else "end_to_end"
    try:
        units = spec_metrics(key)
    except (OSError, KeyError, ValueError) as exc:
        return fail(2, f"cannot read BENCHMARK.json: {exc}")

    cores = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS[args.workload] or cores, cores)
    env = worker_env(threads)
    trace_dir = HERE / "out"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn(args, ["--setup-only"], env,
                                    stop_at)["setup_s"])
            extra = []
        else:
            trace_dir.mkdir(exist_ok=True)
            trace_file = trace_dir / f"trace-{args.workload}-{args.seed}.json"
            extra = ["--trace-out", str(trace_file)]
        main_run = spawn(args, extra, env, stop_at)
    except (RuntimeError, ValueError, OSError,
            subprocess.TimeoutExpired) as exc:
        return fail(2, f"{args.workload}: {exc}")
    setups.append(main_run["setup_s"])

    jobs = main_run["jobs"]
    failed = sum(1 for r in jobs if r["failures"])
    correct = failed == 0
    if args.trace:
        metrics = per_layer(main_run, units)
        check = main_run["trace_check"]
        worst_gap = max(abs(g) / r["wall_s"]
                        for g, r in zip(check["unattributed_s"], jobs))
        # the layer self times must add up to the traced job time
        if check["nesting_defects"] or worst_gap > 0.01:
            correct = False
    else:
        metrics = end_to_end(main_run, setups)

    metrics = dict(sorted(metrics.items(),
                          key=lambda kv: list(units).index(kv[0])
                          if kv[0] in units else len(units)))
    prov = dict(main_run["provenance"], **source_identity(),
                workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, nproc=os.cpu_count(), usable_cores=cores,
                thread_caps={v: env[v] for v in THREAD_VARS},
                jobs=len(jobs), calls_per_size=main_run["calls_per_size"])
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit!s:6}"
              + (f" samples={samples}" if samples else ""))
    print(f"failed_frac {failed}/{len(jobs)}")
    if args.trace:
        print(f"traced_jobs {len(jobs)} (times: mean per job; "
              "counts: first job)")
    for i, rec in enumerate(jobs):
        for message in rec["failures"]:
            print(f"job {i} FAILED {message}")
    print("caches " + json.dumps(main_run["caches"], sort_keys=True))
    if args.trace:
        print("trace " + json.dumps(dict(check, worst_gap_frac=worst_gap)))
    print("provenance " + json.dumps(prov, sort_keys=True))

    if set(metrics) != set(units) or any(
            unit != units[name] for name, (_, unit, _) in metrics.items()):
        return fail(3, "metrics differ from BENCHMARK.json: "
                       f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "correct": correct, "attempted": len(jobs), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
