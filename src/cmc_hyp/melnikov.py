"""The reduced volume function over moving hyperbolic balls.

``f_value`` integrates a prescribed function over the hyperbolic ball of
radius ``rho_k`` about ``q``; stable critical points of that function in ``q``
are the organizing centers for perturbed constant-curvature spheres.  The
value is the half-space layer's solid-ball rule on the ball's Euclidean image
against the volume density ``p3^-3``; pulled back to a fixed reference ball
``|p| <= r`` (integrand ``w phi(q3 p + q^k)``, ``w = (p3 + k r)^-3``) the
domain stops moving, which is how the derivatives are taken.

The ball moves by hyperbolic Killing fields, the horizontal translations
and the dilation, so the derivatives of the volume are boundary fluxes:
``f_gradient`` integrates values of ``phi`` over the reference boundary
sphere, and ``f_hessian``, the flux's own derivative, gives the flux and
the exact Hessian from one value-and-gradient walk on the same points.  The
boundary rule is the chart grid ``build_grid(BOUNDARY_GRID_N)``, built once
per curvature; a ball center only rescales and translates it.  Both take
one center or a stack of them, walked in groups of centers whose boundary
points fill at most one of ``phi``'s :data:`~cmc_hyp.phi_expr.SAMPLE_BLOCK`
blocks, each center's numbers bit for bit its own call's.  The solid-ball
rule of ``f_value`` takes its order from :func:`ball_rule_order`, which
grows towards k = 1.

:func:`newton` is the damped Newton over the ball center that
:func:`find_critical` runs from every point of a fixed box lattice at once,
so the search is a function of its inputs alone.  The seeds move in
rounds.  The first takes every seed's gradient and Hessian from one
stacked :func:`f_hessian` call; each later round is one stacked
:func:`f_hessian` call for the seeds that begin a step, and every round one
stacked :func:`f_gradient` call for every seed's trial point.  Each seed
takes the steps its own run would, until its iterate comes within
:data:`MERGE_RADIUS` of a lower seed's that runs or has converged: then it
has joined that seed's basin and stops, unless the lower seed ends without
converging.  The obstruction scan and the CSV scan are one stacked
:func:`f_gradient` call each.

The catalog (``phi_constant``, ``phi_coordinate``, ``phi_norm``,
``phi_dist_squared``, ``phi_radial_gaussian``) is a set of expressions in
the :mod:`~cmc_hyp.phi_expr` language, so their gradients come from the
same dual-number walk as any user expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import csv

import numpy as np

from .chart import build_grid
from .halfspace import (BALL_QUAD_ORDER, HyperbolicPoint, ball_quadrature,
                        ball_to_euclidean, box_lattice, dist)
# PrescribedFunction is re-exported: the catalog's functions are its instances
from .phi_expr import SAMPLE_BLOCK, PrescribedFunction, phi_to_prescribed

# chart resolution of the boundary-sphere rule of the flux gradient and
# Hessian: build_grid(24) is 1152 points, exact on spherical harmonics of
# degree below 48
BOUNDARY_GRID_N = 24

# Newton iterations per seed of the critical-point search
NEWTON_MAX_ITER = 40
# hyperbolic distance within which a Newton start joins a lower start's basin
MERGE_RADIUS = 1e-2
SEEDS = 27          # default Newton starts of the search, a 3^3 lattice

# margin by which a derivative must keep one sign over the lattice to count
# as an obstruction
OBSTRUCTION_MARGIN = 1e-10
# points per axis of the obstruction's lattice and of the scan's
OBSTRUCTION_LATTICE = 3
SCAN_LATTICE = 4


# ---------------------------------------------------------------------------
# catalog: expressions compiled by :func:`~cmc_hyp.phi_expr.phi_to_prescribed`


def _anchor(center):
    return ", ".join(f"{float(v)!r}" for v in HyperbolicPoint.of(center).array)


def phi_constant(c):
    return phi_to_prescribed(f"{float(c)!r}")


def phi_coordinate(j):
    return phi_to_prescribed(f"p{int(j) + 1}")


def phi_norm():
    return phi_to_prescribed("sqrt(p1^2 + p2^2 + p3^2)")


def phi_dist_squared(center):
    return phi_to_prescribed(f"hypdist({_anchor(center)})^2")


def phi_radial_gaussian(center):
    """``exp(-d_H(p, center)^2)``: a smooth bump centered at ``center``."""
    return phi_to_prescribed(f"exp(-hypdist({_anchor(center)})^2)")


# ---------------------------------------------------------------------------
# the reduced function and its derivatives


def ball_rule_order(k):
    """Per-axis order of :func:`f_value`'s solid-ball rule at curvature ``k``.

    The pulled-back density ``(p3 + k r)^-3`` is singular at ``p3 = -k r``,
    so the Gauss rule's error decays as ``rho^(-2 order)`` with
    ``rho = k + sqrt(k^2 - 1)``.  The order is the smallest multiple of 8 in
    ``BALL_QUAD_ORDER``...64 whose ``rho^(-2 order)`` is at most that of
    order 16 at k = 1.5; every ``k >= 1.5`` keeps order 16.
    """
    def log_rho(k):
        return np.log(k + np.sqrt(k * k - 1.0))
    for order in range(BALL_QUAD_ORDER, 64, 8):
        if 2 * order * log_rho(k) >= 32 * log_rho(1.5):
            return order
    return 64


@lru_cache(maxsize=8)
def _boundary_rule(r, k):
    """The reference boundary sphere ``|p| = r`` at curvature ``k``, the
    part of the flux rule that no ball center changes: the flux weights
    ``w a dS`` per point ``(N, 3)`` and the dilation field ``p + k r e3``,
    both read-only."""
    grid = build_grid(BOUNDARY_GRID_N)
    om, kr = grid.omega, k * r
    lift = r * om + np.array([0.0, 0.0, kr])
    a = np.stack([om[:, 0], om[:, 1], r + kr * om[:, 2]], axis=-1)
    wa = (r**2 * grid.weights * lift[:, 2] ** -3.0)[:, None] * a
    wa.flags.writeable = False
    lift.flags.writeable = False
    return wa, lift


def _flux_rule(params, q):
    """The reference boundary sphere for the balls about the centers ``q``
    ``(m, 3)``: the flux weights ``w a dS / q3`` per center and point
    ``(m, N, 3)``, the dilation field ``p + k r e3`` and the points' images
    on each ball's boundary ``(m, N, 3)``."""
    wa, lift = _boundary_rule(params.r, params.k)
    q3 = q[:, 2, None, None]
    target = q3 * lift
    # the horizontal shift one coordinate at a time; the vertical one is 0
    target[..., 0] += q[:, 0, None]
    target[..., 1] += q[:, 1, None]
    return wa / q3, lift, target


def _centers(q):
    """The ball centers ``q`` as an ``(m, 3)`` stack, and whether ``q`` is
    one center (a point or a 3-vector) rather than a stack."""
    if isinstance(q, HyperbolicPoint) or np.ndim(q) == 1:
        return HyperbolicPoint.of(q).array[None], True
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != 3 or not np.all(q[:, 2] > 0):
        raise ValueError("ball centers must be an (m, 3) stack with every "
                         "third coordinate positive")
    return q, False


def _groups(count):
    """Slices of a stack of ``count`` centers whose boundary points fill at
    most one of ``phi``'s sample blocks, so a stacked flux walks blocks no
    larger than one center's and its memory stays flat."""
    size = max(SAMPLE_BLOCK // build_grid(BOUNDARY_GRID_N).size, 1)
    return [slice(start, start + size) for start in range(0, count, size)]


def f_value(phi, params, q):
    """Integral of ``phi`` over the hyperbolic ball of radius ``rho`` at
    ``q``: :func:`~cmc_hyp.halfspace.ball_quadrature` on its Euclidean image
    at order :func:`ball_rule_order`, against the volume density
    ``p3^-3``."""
    q = HyperbolicPoint.of(q)
    X, w = ball_quadrature(ball_to_euclidean(q, params.rho),
                           ball_rule_order(params.k))
    return float(np.sum(w * X[:, 2] ** -3.0 * phi.evaluate(X)))


def f_gradient(phi, params, q):
    """Gradient of :func:`f_value` in the ball center ``q``, as the flux
    ``(1/q3) int_{|p|=r} w phi a dS`` through the boundary sphere.

    The moving-ball fields are Killing fields: the horizontal shifts ``e1``,
    ``e2`` and the dilation ``p + k r e3``, along which the density
    ``w = (p3 + k r)^-3`` is divergence-free; so the volume derivatives are
    boundary fluxes with ``a = (n1, n2, r + k r n3)``, and only values of
    ``phi`` are sampled.  ``q`` is one center, giving a 3-vector, or an
    ``(m, 3)`` stack of them, giving the ``(m, 3)`` gradients, each equal
    bit for bit to its center's own.
    """
    q, one = _centers(q)
    g = np.empty(q.shape)
    for part in _groups(len(q)):
        wa, _, target = _flux_rule(params, q[part])
        g[part] = np.matmul(phi.evaluate(target)[:, None], wa)[:, 0]
    return g[0] if one else g


def f_hessian(phi, params, q):
    """``(g, H)``: :func:`f_gradient` (bit for bit) and the exact Hessian of
    :func:`f_value`, the flux's derivative ``H_ij = (1/q3) int w a_i grad
    phi . d_j dS - delta_j3 g_i / q3`` with the ball motions ``d = (e1, e2,
    p + k r e3)``, from one ``phi.gradient`` walk on the boundary points.
    Like :func:`f_gradient`, it takes one center or an ``(m, 3)`` stack,
    whose Hessians are then ``(m, 3, 3)``."""
    if phi.gradient is None:
        raise ValueError("prescribed function has no gradient evaluator")
    q, one = _centers(q)
    g, H = np.empty(q.shape), np.empty(q.shape + (3,))
    for part in _groups(len(q)):
        wa, lift, target = _flux_rule(params, q[part])
        values, G = phi.gradient(target)
        g[part] = np.matmul(values[:, None], wa)[:, 0]
        H[part] = np.matmul(wa.transpose(0, 2, 1), np.stack(
            [G[..., 0], G[..., 1], np.einsum("cij,ij->ci", G, lift)],
            axis=-1))
        H[part, :, 2] -= g[part] / q[part, 2, None]
    return (g[0], H[0]) if one else (g, H)


# ---------------------------------------------------------------------------
# critical points


@dataclass
class MelnikovResult:
    q: HyperbolicPoint
    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    classification: str

    def as_dict(self):
        return {
            "q": [self.q.p1, self.q.p2, self.q.p3],
            "value": self.value,
            "gradient": self.gradient.tolist(),
            "hessian": self.hessian.tolist(),
            "classification": self.classification,
        }


def classify_hessian(H, value):
    eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
    scale = float(np.max(np.abs(eigs)))
    if scale <= 1e-6 * max(1.0, abs(value)):
        return "degenerate"
    if np.min(np.abs(eigs)) <= 1e-3 * scale:
        return "degenerate"
    if np.all(eigs > 0):
        return "nondegenerate_min"
    if np.all(eigs < 0):
        return "nondegenerate_max"
    return "saddle"


def stable_points(crits):
    """The critical points, in order, that a solve can continue from."""
    return [c for c in crits if c.classification != "degenerate"]


def _inside(qa, box):
    return (box[0] <= qa[0] <= box[1] and box[2] <= qa[1] <= box[3]
            and box[4] <= qa[2] <= box[5])


def check_box(box):
    """Validate a search box ``x0,x1,y0,y1,z0,z1`` with finite, ordered
    bounds inside the half-space; returns it as a tuple of floats."""
    box = tuple(float(b) for b in box)
    if len(box) != 6 or not np.isfinite(box).all() or box[0] >= box[1] \
            or box[2] >= box[3] or box[4] >= box[5]:
        raise ValueError("box must be x0,x1,y0,y1,z0,z1 with finite, ordered "
                         "bounds")
    if box[4] <= 0:
        raise ValueError("box must stay strictly inside the half-space (z0 > 0)")
    return box


def check_seeds(seeds):
    """Validate a seed count, a positive perfect cube ``m^3``; returns ``m``."""
    m = round(abs(seeds) ** (1.0 / 3.0))
    if seeds <= 0 or m**3 != seeds:
        raise ValueError(f"seeds must be a positive perfect cube, not {seeds!r}")
    return m


def _levenberg(H, hscale, lam, g):
    """The trial steps ``s`` of ``(H + lam hscale I) s = -g`` for a stack of
    starts, ``None`` for a start whose matrix is singular."""
    A = H + (lam * hscale)[:, None, None] * np.eye(3)
    try:
        return list(np.linalg.solve(A, -g[..., None])[..., 0])
    except np.linalg.LinAlgError:
        pass
    steps = []
    for a, b in zip(A, g):
        try:
            steps.append(np.linalg.solve(a, -b))
        except np.linalg.LinAlgError:
            steps.append(None)
    return steps


def newton(gradient, hessian, starts, gtol, inside):
    """Levenberg-damped Newton from each of the ``starts`` ``(m, 3)`` for a
    zero of ``gradient``, all in lockstep, one path per basin.

    Per start, a step takes ``H`` from ``hessian(q) = (g, H)`` and tries
    ``(H + lam max|H| I) s = -g`` up to eight times: a trial is accepted
    when ``gradient`` at it has a lower ``|g|_2`` (then ``lam /= 3``, else
    ``lam *= 4`` from 1e-4, as for a singular matrix).  The starts move in
    rounds: one ``hessian`` call on the stack of starts that begin a step,
    one ``gradient`` call on the stack of every start's trial point; so
    both callables take ``(j, 3)`` stacks, and return ``(j, 3)`` gradients
    and ``(j, 3, 3)`` Hessians.  The first round takes every start's ``g``
    and ``H`` from one ``hessian`` call, whose ``g`` must be ``gradient``'s
    bit for bit.

    After each round a running start stops, ``"merged"``, when its iterate
    lies within :data:`MERGE_RADIUS` (hyperbolic distance, so every iterate
    must keep ``p3 > 0``) of the iterate of a lower start that runs or has
    converged: it has joined that start's basin.  It keeps its state, and
    resumes if the start it follows ends without converging.  A start that
    runs ends ``"converged"`` at ``|g| <= gtol``, ``"left"`` at a trial
    outside ``inside`` (not evaluated), ``"refused"`` after eight refused
    tries and ``"cap"`` after :data:`NEWTON_MAX_ITER` steps.  Each start's
    iterates are those of its own run, bit for bit, so every start that is
    not merged ends where its own run does.  Returns the last accepted
    ``(q, g)`` of every start as two ``(m, 3)`` stacks, and how each ended.
    """
    q = np.array(starts, dtype=float)
    g, H = (np.array(a, dtype=float) for a in hessian(q))
    gn = [np.linalg.norm(row) for row in g]
    count = len(q)
    lam, hscale = np.zeros(count), np.empty(count)
    steps, tries = np.zeros(count, dtype=int), np.zeros(count, dtype=int)
    # stop[i] is None while start i runs; begins[i]: its next round begins
    # a step; follows[i]: the start a merged start follows
    stop = [None if norm > gtol else "converged" for norm in gn]
    begins, follows = np.ones(count, dtype=bool), np.zeros(count, dtype=int)
    running = [i for i in range(count) if stop[i] is None]
    while running:
        fresh = [i for i in running if begins[i]]
        # a start's first step has its Hessian from the first call
        renew = [i for i in fresh if steps[i]]
        if renew:
            H[renew] = hessian(q[renew])[1]
        for i in fresh:
            hscale[i] = max(np.max(np.abs(H[i])), 1e-12)
        steps[fresh] += 1
        tries[fresh] = 0
        trial, pending = {}, running
        while pending:
            for i, s in zip(pending, _levenberg(H[pending], hscale[pending],
                                                lam[pending], g[pending])):
                if s is None:
                    lam[i] = max(4.0 * lam[i], 1e-4)
                    tries[i] += 1
                else:
                    trial[i] = q[i] + s
            pending = [i for i in pending if i not in trial and tries[i] < 8]
        ahead = []
        for i in running:
            if i not in trial:
                stop[i] = "refused"
            elif inside(trial[i]):
                ahead.append(i)
            else:
                stop[i] = "left"
        if ahead:
            for i, gi in zip(ahead,
                             gradient(np.array([trial[i] for i in ahead]))):
                norm = np.linalg.norm(gi)
                begins[i] = norm < gn[i]
                if begins[i]:
                    q[i], g[i], gn[i] = trial[i], gi, norm
                    lam[i] = lam[i] / 3.0 if lam[i] > 1e-8 else 0.0
                    if norm <= gtol:
                        stop[i] = "converged"
                    elif steps[i] >= NEWTON_MAX_ITER:
                        stop[i] = "cap"
                else:
                    lam[i] = max(4.0 * lam[i], 1e-4)
                    tries[i] += 1
                    if tries[i] >= 8:
                        stop[i] = "refused"
        for i in range(count):
            if stop[i] == "merged" and stop[follows[i]] not in (
                    None, "merged", "converged"):
                stop[i] = None
        running = [i for i in range(count) if stop[i] is None]
        if running:
            lead = np.array([s in (None, "converged") for s in stop])
            near = dist(q[running, None], q[None]) < MERGE_RADIUS
            near &= lead & (np.arange(count) < np.array(running)[:, None])
            for i, row in zip(running, near):
                if row.any():
                    stop[i], follows[i] = "merged", np.argmax(row)
            running = [i for i in running if stop[i] is None]
    return q, g, stop


def find_critical(phi, params, box, seeds=SEEDS):
    """Search the box for critical points of the reduced function.

    :func:`newton` with the exact Hessian :func:`f_hessian` starts from
    every point of the interior lattice of ``seeds`` points at once and
    roams a widened box.  Its first round is one stacked :func:`f_hessian`
    call for every seed; each later round is one for the seeds that begin
    a step, and every round one stacked :func:`f_gradient` call for every
    seed's trial point.  A seed that comes within :data:`MERGE_RADIUS` of
    a lower seed that runs or has converged stops there, so each basin is
    followed once, by its lowest seed, which ends where its own run would.
    The point of a seed whose ``newton`` stop is ``"converged"`` is kept,
    in lattice order, when it lies in ``box`` and more than 1e-6
    (hyperbolic distance) from every point kept before it; only the kept
    points are valued and classified through the same Hessian, and they
    are returned sorted by value.  An empty list is a valid outcome (no
    critical point).
    """
    box = check_box(box)
    pts = box_lattice(box, check_seeds(seeds), interior=True)
    wide = (box[0] - 1, box[1] + 1, box[2] - 1, box[3] + 1,
            0.25 * box[4], 4 * box[5])

    unique = []
    for qa, g, stop in zip(*newton(lambda qa: f_gradient(phi, params, qa),
                                   lambda qa: f_hessian(phi, params, qa),
                                   pts, 1e-10, lambda qa: _inside(qa, wide))):
        if stop != "converged" or not _inside(qa, box):
            continue
        q = HyperbolicPoint.of(qa)
        if all(dist(q, u.q) > 1e-6 for u in unique):
            val = f_value(phi, params, q)
            _, H = f_hessian(phi, params, q)
            unique.append(MelnikovResult(
                q=q, value=val, gradient=g, hessian=H,
                classification=classify_hessian(H, val)))
    unique.sort(key=lambda c: (c.value, c.q.p1, c.q.p2, c.q.p3))
    return unique


# ---------------------------------------------------------------------------
# monotonicity obstructions


def monotone_obstruction(phi, params, box):
    """Scan the box for uniformly signed derivatives of the reduced function.

    Reports, for the two horizontal directions and the radial pairing, the
    sign when it is uniform over the box's ``OBSTRUCTION_LATTICE``-per-axis
    lattice and beyond :data:`OBSTRUCTION_MARGIN`; a uniformly signed
    derivative rules out critical points (and perturbed spheres organized
    by them) in the box.
    """
    pts = box_lattice(check_box(box), OBSTRUCTION_LATTICE)
    grads = f_gradient(phi, params, pts)
    radial = np.einsum("ij,ij->i", pts, grads)
    report = {"lattice": pts.tolist(), "margin": OBSTRUCTION_MARGIN,
              "directions": {}}
    obstructed = []
    for name, vals in (("e1", grads[:, 0]), ("e2", grads[:, 1]),
                       ("radial", radial)):
        lo, hi = float(np.min(vals)), float(np.max(vals))
        entry = {"min": lo, "max": hi, "sign": None}
        if lo > OBSTRUCTION_MARGIN:
            entry["sign"] = "+"
            obstructed.append(name)
        elif hi < -OBSTRUCTION_MARGIN:
            entry["sign"] = "-"
            obstructed.append(name)
        report["directions"][name] = entry
    report["obstructed"] = obstructed
    return report


def scan_to_csv(phi, params, box, path):
    """Write reduced-function values and gradients on the box's
    ``SCAN_LATTICE``-per-axis lattice as CSV; returns the row count."""
    pts = box_lattice(check_box(box), SCAN_LATTICE)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["q1", "q2", "q3", "F", "dF1", "dF2", "dF3"])
        for p, g in zip(pts, f_gradient(phi, params, pts)):
            wr.writerow([f"{v:.17g}" for v in
                         (*p, f_value(phi, params, p), *g)])
    return pts.shape[0]
