"""The reduced volume function over moving hyperbolic balls.

``f_value`` integrates a prescribed function over the hyperbolic ball of
radius ``rho_k`` about ``q``; stable critical points of that function in ``q``
are the organizing centers for perturbed constant-curvature spheres.  The
quadrature is pulled back to a fixed reference ball (integrand
``(p3 + k r)^-3 phi(q3 p + q^k)``), which makes the value and its analytic
gradient smooth in ``q`` and removes any domain motion from the formulas.
Both sample ``phi`` with numpy's floating-point warnings off and raise
:class:`~cmc_hyp.errors.NumericsError` where it is not finite.

The catalog (``phi_constant``, ``phi_coordinate``, ``phi_norm``,
``phi_dist_squared``, ``phi_radial_gaussian``) is a set of expressions in
the :mod:`~cmc_hyp.phi_expr` language, so their gradients come from the
same dual-number walk as any user expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import csv

import numpy as np

from .errors import NumericsError
from .halfspace import BALL_QUAD_ORDER, HyperbolicPoint, dist, unit_ball_rule
# PrescribedFunction is re-exported: the catalog's functions are its instances
from .phi_expr import PrescribedFunction, phi_to_prescribed

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


def _ball_rule(params, q):
    """The reference rule for the ball about ``q``: points, weights times
    the pulled-back density, and the points' images in the ball."""
    pts, w = unit_ball_rule(BALL_QUAD_ORDER)
    pts, w = params.r * pts, params.r**3 * w
    kr = params.k * params.r
    target = q.p3 * pts + np.array([q.p1, q.p2, kr * q.p3])
    return pts, w * (pts[:, 2] + kr) ** -3.0, target


def _check_finite(value, q):
    if not np.all(np.isfinite(value)):
        raise NumericsError("prescribed function is not finite on the ball "
                            f"about {q.array.tolist()}")
    return value


def f_value(phi, params, q):
    """Integral of ``phi`` over the hyperbolic ball of radius ``rho`` at ``q``."""
    q = HyperbolicPoint.of(q)
    _, wd, target = _ball_rule(params, q)
    with np.errstate(all="ignore"):
        vals = np.asarray(phi.evaluate(target), dtype=float)
        return _check_finite(float(np.sum(wd * vals)), q)


def f_gradient(phi, params, q):
    """Analytic gradient of :func:`f_value` in the ball center ``q``.

    Horizontal components integrate the corresponding derivative of ``phi``;
    the vertical one pairs the gradient with the scaling direction
    ``p + k r e3`` of the moving ball.
    """
    if phi.gradient is None:
        raise ValueError("prescribed function has no gradient evaluator")
    q = HyperbolicPoint.of(q)
    pts, wd, target = _ball_rule(params, q)
    with np.errstate(all="ignore"):
        gphi = np.asarray(phi.gradient(target), dtype=float)
        out = np.empty(3)
        out[0] = np.sum(wd * gphi[:, 0])
        out[1] = np.sum(wd * gphi[:, 1])
        out[2] = np.sum(wd * (gphi[:, 0] * pts[:, 0] + gphi[:, 1] * pts[:, 1]
                              + gphi[:, 2] * (pts[:, 2] + params.k * params.r)))
        return _check_finite(out, q)


def hessian_estimate(phi, params, q):
    """Symmetrized central-difference Hessian of the reduced function."""
    q = HyperbolicPoint.of(q).array
    H = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1e-4 * max(1.0, abs(q[j]))
        gp = f_gradient(phi, params, q + e)
        gm = f_gradient(phi, params, q - e)
        H[:, j] = (gp - gm) / (2 * e[j])
    return 0.5 * (H + H.T)


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


def find_critical(phi, params, box, seeds=27, rng=None):
    """Search the box for critical points of the reduced function.

    Newton iterations with Levenberg damping start from a jittered lattice of
    ``seeds`` points; converged interior points are deduplicated by
    hyperbolic distance and classified through the finite-difference Hessian.
    An empty list is a valid outcome (no critical point in the box).
    """
    box = check_box(box)
    rng = rng or np.random.default_rng(0)
    m = max(1, round(seeds ** (1.0 / 3.0)))
    axes = [np.linspace(box[2 * i], box[2 * i + 1], m + 2)[1:-1] for i in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    cell = np.array([(box[2 * i + 1] - box[2 * i]) / (m + 1) for i in range(3)])
    pts = pts + 0.3 * cell * rng.uniform(-1, 1, pts.shape)
    pts[:, 2] = np.clip(pts[:, 2], 0.51 * box[4], None)

    found = []
    for seed in pts:
        qa = seed.copy()
        lam = 0.0
        ok = False
        for _ in range(40):
            g = f_gradient(phi, params, qa)
            gn = np.linalg.norm(g)
            if gn <= 1e-10:
                ok = True
                break
            H = hessian_estimate(phi, params, qa)
            hscale = max(np.max(np.abs(H)), 1e-12)
            for _ in range(8):
                try:
                    step = np.linalg.solve(H + lam * hscale * np.eye(3), -g)
                except np.linalg.LinAlgError:
                    lam = max(4.0 * lam, 1e-4)
                    continue
                qn = qa + step
                if qn[2] <= 0.25 * box[4]:
                    lam = max(4.0 * lam, 1e-4)
                    continue
                if np.linalg.norm(f_gradient(phi, params, qn)) < gn:
                    qa = qn
                    lam = lam / 3.0 if lam > 1e-8 else 0.0
                    break
                lam = max(4.0 * lam, 1e-4)
            else:
                break
            if not _inside(qa, [box[0] - 1, box[1] + 1, box[2] - 1, box[3] + 1,
                                box[4] * 0.25, box[5] * 4]):
                break
        if not ok or not _inside(qa, box):
            continue
        H = hessian_estimate(phi, params, qa)
        val = f_value(phi, params, qa)
        found.append(MelnikovResult(
            q=HyperbolicPoint.of(qa), value=val,
            gradient=f_gradient(phi, params, qa), hessian=H,
            classification=classify_hessian(H, val)))

    found.sort(key=lambda r: (r.value, r.q.p1, r.q.p2, r.q.p3))
    unique = []
    for r in found:
        if all(dist(r.q, u.q) > 1e-6 for u in unique):
            unique.append(r)
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
    box = check_box(box)
    axes = [np.linspace(box[2 * i], box[2 * i + 1], lattice) for i in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
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
    box = check_box(box)
    axes = [np.linspace(box[2 * i], box[2 * i + 1], lattice) for i in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["q1", "q2", "q3", "F", "dF1", "dF2", "dF3"])
        for p in pts:
            g = f_gradient(phi, params, p)
            wr.writerow([f"{v:.17g}" for v in
                         (*p, f_value(phi, params, p), *g)])
    return pts.shape[0]
