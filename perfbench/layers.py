"""Which library functions the traced run wraps, and the per-layer metrics
computed from their spans and counts.

Times are self times (a span's duration minus its children's), summed per
traced job and averaged over the traced jobs.  Counts are those of the first
traced job, so they repeat exactly for a seed.
"""

from __future__ import annotations

import numpy as np

from cmc_hyp import bubbles, chart, energy, linearized, melnikov, phi_expr, \
    reduction

SIZES = (24, 48)


def _count_correct(tracer, args, result):
    tracer.count("reduction.correct_calls")
    tracer.count("reduction.chord_iters", result.iterations)


def _count_find_critical(tracer, args, result):
    tracer.count("melnikov.critical_points", len(result))
    tracer.count("melnikov.seeds", args["seeds"])


def _count_calls(name):
    def counter(tracer, args, result):
        tracer.count(name)
    return counter


def _count_points(tracer, args, result):
    tracer.count("phi_expr.points", np.asarray(args["p"]).size // 3)


def _wrap_phi(tracer, args, result):
    """Trace the callables of every ``phi`` the library compiles."""
    result.evaluate = tracer.wrap(result.evaluate, "phi_expr.evaluate",
                                  _count_points)
    result.gradient = tracer.wrap(result.gradient, "phi_expr.gradient",
                                  _count_points)


TARGETS = [
    (linearized, "operator_pack", "linearized.pack", None),
    (linearized, "assemble_linearized", "linearized.assemble", None),
    (linearized, "kernel", "linearized.kernel", None),
    (linearized, "spectrum_normal", "linearized.spectrum", None),
    (reduction, "continuation", "reduction.continuation", None),
    (reduction, "correct", "reduction.correct", _count_correct),
    (reduction, "reduced_gradient", "reduction.reduced_gradient", None),
    (melnikov, "find_critical", "melnikov.find_critical", _count_find_critical),
    (melnikov, "f_gradient", "melnikov.f_gradient",
     _count_calls("melnikov.f_gradient_calls")),
    (phi_expr, "phi_to_prescribed", "phi_expr.compile", _wrap_phi),
    (chart, "spectral_derivatives", "chart.spectral_derivatives",
     _count_calls("chart.spectral_derivatives_calls")),
    (bubbles, "bubble", "bubbles.bubble", _count_calls("bubbles.bubble_calls")),
    (energy, "energy_E", "energy.diagnostics", None),
    (energy, "first_variation", "energy.diagnostics", None),
    (energy, "conformality_residual", "energy.diagnostics", None),
]

# per-layer time metric -> (span name, grid size or None for any)
TIMES = {}
for _n in SIZES:
    for _short in ("pack", "assemble", "kernel", "spectrum"):
        TIMES[f"linearized.{_short}_s.n{_n}"] = (f"linearized.{_short}", _n)
TIMES.update({
    "reduction.correct_s": ("reduction.correct", None),
    "reduction.reduced_gradient_s": ("reduction.reduced_gradient", None),
    "reduction.self_s": ("reduction.continuation", None),
    "melnikov.find_critical_s": ("melnikov.find_critical", None),
    "phi_expr.gradient_s": ("phi_expr.gradient", None),
    "phi_expr.evaluate_s": ("phi_expr.evaluate", None),
    "chart.spectral_derivatives_s": ("chart.spectral_derivatives", None),
    "bubbles.bubble_s": ("bubbles.bubble", None),
    "energy.diagnostics_s": ("energy.diagnostics", None),
})

COUNTS = ("reduction.correct_calls", "reduction.chord_iters",
          "melnikov.f_gradient_calls", "phi_expr.points",
          "chart.spectral_derivatives_calls", "bubbles.bubble_calls")


def per_layer(tracer, jobs, facts):
    """The per-layer metrics (name -> value) of a traced run.

    ``jobs`` are the traced job ids, the first one giving the counts;
    ``facts`` holds values the jobs report themselves: per grid size the
    dense system dimension and the computed pack megabytes.
    """
    selfs = tracer.self_by_job(set(jobs))
    out = {}
    for metric, (span, n) in TIMES.items():
        out[metric] = sum(v for (_, name, sn), v in selfs.items()
                          if name == span and (n is None or sn == n)) / len(jobs)
    first = {name: v for (job, name), v in tracer.counts.items()
             if job == jobs[0]}
    for name in COUNTS:
        out[name] = first.get(name, 0)
    calls_all = sum(v for (job, name), v in tracer.counts.items()
                    if job in jobs and name == "melnikov.f_gradient_calls")
    grad_self = sum(v for (_, name, _), v in selfs.items()
                    if name == "melnikov.f_gradient")
    out["melnikov.f_gradient_ms"] = (
        1e3 * grad_self / calls_all if calls_all else 0.0)
    seeds = first.get("melnikov.seeds", 0)
    out["melnikov.critical_per_seed"] = (
        first.get("melnikov.critical_points", 0) / seeds if seeds else 0.0)
    out["reduction.warmup_s"] = sum(
        s.end - s.start for s in tracer.roots("setup")
        if s.name == "reduction.correct")
    for n in SIZES:
        out[f"linearized.dense_dim.n{n}"] = facts.get(f"dense_dim.n{n}", 0)
    out["linearized.pack_mb.n48"] = facts.get("pack_mb.n48", 0.0)
    return out
