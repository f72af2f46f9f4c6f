"""The reduced volume function over moving hyperbolic balls.

``f_value`` integrates a prescribed function over the hyperbolic ball of
radius ``rho_k`` about ``q``; stable critical points of that function in ``q``
are the organizing centers for perturbed constant-curvature spheres.  The
quadrature is pulled back to a fixed reference ball ``|p| <= r`` (integrand
``w phi(q3 p + q^k)``, ``w = (p3 + k r)^-3``), which removes any domain
motion from the formulas.

The ball moves by hyperbolic Killing fields, the horizontal translations
and the dilation, so the derivatives of the volume are boundary fluxes:
``f_gradient`` integrates values of ``phi`` over the reference boundary
sphere, and ``f_hessian``, the flux's own derivative, is the exact Hessian
from one gradient sweep on the same points.  The boundary rule is the chart
grid ``build_grid(BOUNDARY_GRID_N)``.  The solid-ball rule of ``f_value``
takes its order from :func:`ball_rule_order`, which grows towards k = 1.
Both rules are built once per curvature, and a ball center only rescales
and translates them.

:func:`newton` is the one damped Newton over the ball center, shared by
:func:`find_critical` and the outer solve of :mod:`~cmc_hyp.reduction`.

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
from .halfspace import (BALL_QUAD_ORDER, HyperbolicPoint, box_lattice, dist,
                        unit_ball_rule)
# PrescribedFunction is re-exported: the catalog's functions are its instances
from .phi_expr import PrescribedFunction, phi_to_prescribed

# chart resolution of the boundary-sphere rule of the flux gradient and
# Hessian: build_grid(24) is 1152 points, exact on spherical harmonics of
# degree below 48
BOUNDARY_GRID_N = 24

# margin by which a derivative must keep one sign over the lattice to count
# as an obstruction
OBSTRUCTION_MARGIN = 1e-10


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


# an entry holds up to 17 MB (order 64)
@lru_cache(maxsize=4)
def _reference_ball(r, k):
    """The reference ball ``|p| <= r`` at curvature ``k``, the part of the
    solid-ball rule that no ball center changes: its points and the weights
    times the pulled-back density ``w = (p3 + k r)^-3``, both read-only."""
    pts, w = unit_ball_rule(ball_rule_order(k))
    pts, w = r * pts, r**3 * w
    wd = w * (pts[:, 2] + k * r) ** -3.0
    pts.flags.writeable = False
    wd.flags.writeable = False
    return pts, wd


def _ball_rule(params, q):
    """The reference rule for the ball about ``q``: weights times the
    pulled-back density, and the points' images in the ball."""
    pts, wd = _reference_ball(params.r, params.k)
    kr = params.k * params.r
    return wd, q.p3 * pts + np.array([q.p1, q.p2, kr * q.p3])


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
    """The reference boundary sphere for the ball about ``q``: the flux
    weights ``w a dS / q3`` per point ``(N, 3)``, the dilation field
    ``p + k r e3`` and the points' images on the ball's boundary."""
    wa, lift = _boundary_rule(params.r, params.k)
    target = q.p3 * lift + np.array([q.p1, q.p2, 0.0])
    return wa / q.p3, lift, target


def f_value(phi, params, q):
    """Integral of ``phi`` over the hyperbolic ball of radius ``rho`` at ``q``."""
    q = HyperbolicPoint.of(q)
    wd, target = _ball_rule(params, q)
    return float(np.sum(wd * phi.evaluate(target)))


def f_gradient(phi, params, q):
    """Gradient of :func:`f_value` in the ball center ``q``, as the flux
    ``(1/q3) int_{|p|=r} w phi a dS`` through the boundary sphere.

    The moving-ball fields are Killing fields: the horizontal shifts ``e1``,
    ``e2`` and the dilation ``p + k r e3``, along which the density
    ``w = (p3 + k r)^-3`` is divergence-free; so the volume derivatives are
    boundary fluxes with ``a = (n1, n2, r + k r n3)``, and only values of
    ``phi`` are sampled.
    """
    q = HyperbolicPoint.of(q)
    wa, _, target = _flux_rule(params, q)
    return phi.evaluate(target) @ wa


def f_hessian(phi, params, q):
    """Exact Hessian of :func:`f_value`: the derivative of the flux
    :func:`f_gradient`, ``H_ij = (1/q3) int w a_i grad phi . d_j dS
    - delta_j3 g_i / q3`` with the ball motions ``d = (e1, e2, p + k r e3)``,
    from one gradient sweep on the boundary points."""
    if phi.gradient is None:
        raise ValueError("prescribed function has no gradient evaluator")
    q = HyperbolicPoint.of(q)
    wa, lift, target = _flux_rule(params, q)
    g = phi.evaluate(target) @ wa
    G = phi.gradient(target)
    H = wa.T @ np.stack([G[:, 0], G[:, 1], np.einsum("ij,ij->i", G, lift)],
                        axis=-1)
    H[:, 2] -= g / q.p3
    return H


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


def _inside(qa, box):
    return (box[0] <= qa[0] <= box[1] and box[2] <= qa[1] <= box[3]
            and box[4] <= qa[2] <= box[5])


def check_box(box):
    """Validate a search box ``x0,x1,y0,y1,z0,z1`` with ordered bounds inside
    the half-space; returns it as a tuple of floats."""
    box = tuple(float(b) for b in box)
    if len(box) != 6 or box[0] >= box[1] or box[2] >= box[3] or box[4] >= box[5]:
        raise ValueError("box must be x0,x1,y0,y1,z0,z1 with ordered bounds")
    if box[4] <= 0:
        raise ValueError("box must stay strictly inside the half-space (z0 > 0)")
    return box


def check_seeds(seeds):
    """Validate a seed count, a positive perfect cube ``m^3``; returns ``m``."""
    m = round(abs(seeds) ** (1.0 / 3.0))
    if seeds <= 0 or m**3 != seeds:
        raise ValueError(f"seeds must be a positive perfect cube, not {seeds!r}")
    return m


def newton(gradient, hessian, q, gtol, inside, max_iter=40):
    """Levenberg-damped Newton from ``q`` for a zero of ``gradient``.

    A trial solves ``(H + lam max|H| I) s = -g`` and is accepted when it
    lowers ``|g|_2`` (then ``lam /= 3``, else ``lam *= 4`` from 1e-4; eight
    tries a step).  A trial outside ``inside`` ends the iteration unevaluated.
    Returns the last accepted ``(q, g)``; the caller judges ``|g|``.
    """
    g = gradient(q)
    gn = np.linalg.norm(g)
    lam = 0.0
    for _ in range(max_iter):
        if gn <= gtol:
            break
        H = hessian(q)
        hscale = max(np.max(np.abs(H)), 1e-12)
        for _ in range(8):
            try:
                step = np.linalg.solve(H + lam * hscale * np.eye(3), -g)
            except np.linalg.LinAlgError:
                lam = max(4.0 * lam, 1e-4)
                continue
            qn = q + step
            if not inside(qn):
                return q, g
            gnew = gradient(qn)
            if np.linalg.norm(gnew) < gn:
                q, g, gn = qn, gnew, np.linalg.norm(gnew)
                lam = lam / 3.0 if lam > 1e-8 else 0.0
                break
            lam = max(4.0 * lam, 1e-4)
        else:
            break
    return q, g


def find_critical(phi, params, box, seeds=27, rng=None):
    """Search the box for critical points of the reduced function.

    :func:`newton` with the exact Hessian :func:`f_hessian` starts from a
    jittered lattice of ``seeds`` points and roams a widened box; converged
    points in ``box`` are sorted by value, deduplicated by hyperbolic
    distance, and only the kept ones are classified through the same
    Hessian.  An empty list is a valid outcome (no critical point).
    """
    box = check_box(box)
    m = check_seeds(seeds)
    rng = rng or np.random.default_rng(0)
    pts = box_lattice(box, m, interior=True)
    cell = np.array([(box[2 * i + 1] - box[2 * i]) / (m + 1) for i in range(3)])
    pts = pts + 0.3 * cell * rng.uniform(-1, 1, pts.shape)
    pts[:, 2] = np.clip(pts[:, 2], 0.51 * box[4], None)
    wide = (box[0] - 1, box[1] + 1, box[2] - 1, box[3] + 1,
            0.25 * box[4], 4 * box[5])

    found = []
    for seed in pts:
        qa, g = newton(lambda qa: f_gradient(phi, params, qa),
                       lambda qa: f_hessian(phi, params, qa),
                       seed, 1e-10, lambda qa: _inside(qa, wide))
        if np.linalg.norm(g) > 1e-10 or not _inside(qa, box):
            continue
        found.append((f_value(phi, params, qa), HyperbolicPoint.of(qa), g))

    found.sort(key=lambda f: (f[0], f[1].p1, f[1].p2, f[1].p3))
    unique = []
    for val, q, g in found:
        if all(dist(q, u.q) > 1e-6 for u in unique):
            H = f_hessian(phi, params, q)
            unique.append(MelnikovResult(
                q=q, value=val, gradient=g, hessian=H,
                classification=classify_hessian(H, val)))
    return unique


# ---------------------------------------------------------------------------
# monotonicity obstructions


def monotone_obstruction(phi, params, box, lattice=3,
                         margin=OBSTRUCTION_MARGIN):
    """Scan the box for uniformly signed derivatives of the reduced function.

    Reports, for the two horizontal directions and the radial pairing, the
    sign when it is uniform over the lattice and bounded away from zero; a
    uniformly signed derivative rules out critical points (and hence
    perturbed spheres organized by them) in the box.
    """
    pts = box_lattice(check_box(box), lattice)
    grads = np.array([f_gradient(phi, params, p) for p in pts])
    radial = np.einsum("ij,ij->i", pts, grads)
    report = {"lattice": pts.tolist(), "margin": margin, "directions": {}}
    obstructed = []
    for name, vals in (("e1", grads[:, 0]), ("e2", grads[:, 1]),
                       ("radial", radial)):
        lo, hi = float(np.min(vals)), float(np.max(vals))
        entry = {"min": lo, "max": hi, "sign": None}
        if lo > margin:
            entry["sign"] = "+"
            obstructed.append(name)
        elif hi < -margin:
            entry["sign"] = "-"
            obstructed.append(name)
        report["directions"][name] = entry
    report["obstructed"] = obstructed
    return report


def scan_to_csv(phi, params, box, path, lattice=8):
    """Write a lattice of reduced-function values and gradients as CSV."""
    pts = box_lattice(check_box(box), lattice)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["q1", "q2", "q3", "F", "dF1", "dF2", "dF3"])
        for p in pts:
            g = f_gradient(phi, params, p)
            wr.writerow([f"{v:.17g}" for v in
                         (*p, f_value(phi, params, p), *g)])
    return pts.shape[0]
