"""Variational layer: weighted enclosed volumes and the surface energy.

The weighted volume ``V_K(u)`` integrates a vertical antiderivative of
``p3^-3 K`` against the surface normal; for embedded spheres with inward
normal it equals minus the enclosed hyperbolic ``K``-volume.  The
antiderivative's anchor height is pure gauge on a closed surface and is taken
at the surface's lowest height, so ``K`` is sampled only at heights the
surface spans.  The energy couples the conformally invariant Dirichlet part
with the constant-curvature volume term and, at first order in ``eps``, the
prescribed perturbation.
"""

from __future__ import annotations

import numpy as np

from . import chart as ch
from .errors import NumericsError
from .halfspace import positive_heights
from .linearized import j_residual

# Gauss order of the vertical antiderivative behind every weighted volume
VERTICAL_QUAD_ORDER = 24
# its nodes and weights on [0, 1]
_XG, _WG = np.polynomial.legendre.leggauss(VERTICAL_QUAD_ORDER)
_XI, _WXI = 0.5 * (_XG + 1.0), 0.5 * _WG
# largest relative defect between a resolved energy curve and the closed
# form, the bound of the energy acceptance check
ENERGY_CURVE_DEFECT = 1e-6


def _vertical_rule(t, values):
    """The Gauss sums ``sum_j w_j t^-3 K`` of a block of vertical segments
    from their heights and ``K``'s values there, before the spans' factor."""
    return np.sum(_WXI * values / t**3, axis=1)


def build_Q(K, anchor):
    """Vertical-antiderivative vector field for the weight ``K``.

    Returns the function ``Q(p) = (0, 0, int_anchor^p3 t^-3 K(p1, p2, t) dt)``
    of points ``(..., 3)``, whose divergence is ``p3^-3 K``; the anchor
    height is pure gauge on closed surfaces.  The integral is a
    ``VERTICAL_QUAD_ORDER`` Gauss rule on the segment between ``anchor`` and
    ``p3``, so ``K`` is sampled only there (:func:`_vertical_antiderivative`).
    """
    def evaluator(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 3)
        out = np.zeros_like(flat)
        out[:, 2] = _vertical_antiderivative(K, anchor, flat)
        return out.reshape(np.shape(pts))

    return evaluator


def _vertical_antiderivative(K, anchor, flat):
    """The third component of :func:`build_Q`'s field at points ``(N, 3)``.
    ``K.fold_verticals`` walks the segments, with each point's horizontal
    terms taken once per segment rather than once per height, a block of
    :data:`~cmc_hyp.phi_expr.SAMPLE_BLOCK` samples at a time, and sums each
    block before the next, so its memory does not grow with the number of
    points."""
    span = flat[:, 2] - anchor
    return span * K.fold_verticals(flat[:, 0], flat[:, 1], anchor, span, _XI,
                                   _vertical_rule)


def _weighted_volume(K, u, u3, wz, cross3):
    """:func:`volume_V` of a differentiated surface from its heights ``u3``,
    its quadrature weights ``wz`` and the third component ``cross3`` of
    ``d_x u ^ d_y u``, the only one ``Q_K`` meets; not checked finite."""
    q3 = _vertical_antiderivative(K, u3.min(), u.values)
    return float(np.sum(wz * (q3 * cross3)))


def volume_V(K, u):
    """Weighted volume ``int Q_K(u) . (d_x u ^ d_y u) dz`` of a surface field.

    ``Q_K`` is :func:`build_Q` anchored at the surface's lowest height, so
    every sample of ``K`` lies between the lowest and highest point of ``u``.
    On a compiled ``phi`` (the benchmark's wide bump) it costs about
    0.75 ms at n = 24 and 1.9 ms at n = 40 (one core of a shared two-core
    Xeon, one BLAS thread), against 0.97 and 2.4 ms when every height was
    a point of its own.  It is computed with numpy's floating-point
    warnings off; a volume that is not finite, as where a height's cube
    leaves the float range, raises :class:`NumericsError` naming the
    surface's heights.
    """
    u = ch.differentiate(u)
    u3 = positive_heights(u.values)
    g = u.grid
    with np.errstate(all="ignore"):
        out = _weighted_volume(K, u, u3, g.weights / g.mu**2,
                               np.cross(u.dx, u.dy)[:, 2])
    if not np.isfinite(out):
        raise NumericsError("the weighted volume leaves the float range at "
                            f"heights {float(u3.min())!r} to "
                            f"{float(u3.max())!r}")
    return out


def energy_E(u, params, eps=0.0, phi=None):
    """Surface energy: Dirichlet part, constant-curvature volume term, and
    ``2 eps`` times the prescribed-weight volume.

    All three are summed with numpy's floating-point warnings off; a
    height whose square overflows, like :func:`horosphere_energy`'s, a
    height whose cube leaves the float range in the weighted volume, or a
    sum that is not finite raises :class:`NumericsError` naming the
    surface's heights.
    """
    if eps != 0.0 and phi is None:
        raise ValueError("eps != 0 needs the prescribed function")
    u = ch.differentiate(u)
    u3 = positive_heights(u.values)
    g = u.grid
    wz = g.weights / g.mu**2
    norm2 = np.einsum("ij,ij->i", u.dx, u.dx) + np.einsum("ij,ij->i", u.dy, u.dy)
    cross3 = np.cross(u.dx, u.dy)[:, 2]
    with np.errstate(all="ignore"):
        h2 = u3**2
        out = 0.5 * np.sum(wz * norm2 / h2) \
            - params.k * np.sum(wz * cross3 / h2)
        if eps != 0.0:
            out += 2.0 * eps * _weighted_volume(phi, u, u3, wz, cross3)
    if not (np.isfinite(h2).all() and np.isfinite(out)):
        raise NumericsError("the surface energy leaves the float range at "
                            f"heights {float(u3.min())!r} to "
                            f"{float(u3.max())!r}")
    return float(out)


def first_variation(u, params, eps, phi, test):
    """Directional derivative of the energy: ``int J_eps(u) . test dz``."""
    res = j_residual(u, params, curvature=phi, eps=eps)
    integrand = np.einsum("ij,ij->i", res.values, test.values)
    return float(np.sum(u.grid.weights / u.grid.mu**2 * integrand))


def conformality_residual(u):
    """Sup norm and node fields of the conformality defect.

    The two components are ``a = (|d_x u|^2 - |d_y u|^2) / (2 u3^2)`` and
    ``b = -(d_x u . d_y u) / u3^2``; both vanish exactly at solutions.
    """
    u = ch.differentiate(u)
    u3 = u.values[:, 2]
    a = 0.5 * (np.einsum("ij,ij->i", u.dx, u.dx)
               - np.einsum("ij,ij->i", u.dy, u.dy)) / u3**2
    b = -np.einsum("ij,ij->i", u.dx, u.dy) / u3**2
    sup = float(np.max(np.hypot(a, b)))
    return sup, (ch.SphereField(u.grid, a), ch.SphereField(u.grid, b))


def horosphere_energy(k, t):
    """Closed-form energy of the vertically shifted unit sphere ``omega + t e3``.

    ``4 pi [k (atanh x - x) + (1 - k x) / (t^2 - 1)]`` with ``x = 1/t`` and
    ``atanh x - x`` as its series for ``x <= 1/4``, so no two terms cancel
    as the energy falls like ``4 pi t^-2``; it diverges to minus infinity as
    ``t`` decreases to 1 (horosphere limit).  A ``t`` whose square
    overflows raises :class:`NumericsError` naming ``t``.
    """
    t = float(t)
    if t <= 1:
        raise ValueError("the shifted sphere needs t > 1")
    if not np.isfinite(t * t):
        raise NumericsError("the closed-form energy is not finite at "
                            f"t = {t!r}")
    x = 1.0 / t     # atanh x - x = x^3 sum_j x^2j / (2j + 3)
    tail = (x**3 * np.polyval(1.0 / np.arange(31, 1, -2), x * x) if x <= 0.25
            else 0.5 * np.log1p(2.0 / (t - 1.0)) - x)
    return 4.0 * np.pi * (k * tail + (1.0 - k * x) / ((t - 1.0) * (t + 1.0)))


def energy_curve(params, ts, grid):
    """Numeric energies of ``omega + t e3`` along ``ts`` (for CSV emission)."""
    om = ch.omega_field(grid)
    rows = []
    for t in ts:
        shifted = ch.SphereField(grid, om.values + np.array([0.0, 0.0, t]),
                                 om.dx, om.dy)
        rows.append((float(t), energy_E(shifted, params)))
    return np.asarray(rows)


def energy_curve_verdict(params, rows):
    """The closed-form column of an energy curve ``rows`` of ``(t, E)`` and
    the curve's verdict: its largest defect against the closed form,
    relative but to at least ``4 pi t^-2``, the far field (``E`` changes
    sign), must stay within :data:`ENERGY_CURVE_DEFECT`, and ``E`` must
    decrease toward the horosphere."""
    t, e = rows.T
    closed = np.array([horosphere_energy(params.k, s) for s in t])
    defect = float(np.max(np.abs(e - closed)
                          / np.maximum(np.abs(e), 4.0 * np.pi / t**2)))
    monotone = bool(np.all(np.diff(e[np.argsort(t)]) >= 0))
    return closed, {"points": rows.shape[0], "closed_form_defect": defect,
                    "decreasing_toward_horosphere": monotone,
                    "resolved": defect <= ENERGY_CURVE_DEFECT and monotone}
