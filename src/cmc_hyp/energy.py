"""Variational layer: weighted enclosed volumes and the surface energy.

The weighted volume ``V_K(u)`` integrates any vector field whose divergence
is ``p3^-3 K`` against the surface normal; its value is gauge independent,
and for embedded spheres with inward normal it equals minus the enclosed
hyperbolic ``K``-volume.  The energy couples the conformally invariant
Dirichlet part with the constant-curvature volume term and, at first order in
``eps``, the prescribed perturbation.
"""

from __future__ import annotations

import numpy as np

from . import chart as ch
from .halfspace import positive_heights
from .linearized import j_residual

# Gauss order of the vertical antiderivative behind every weighted volume
VERTICAL_QUAD_ORDER = 24


def build_Q(K, anchor=1.0):
    """Vertical-antiderivative vector field for the weight ``K``.

    Returns the function ``Q(p) = (0, 0, int_anchor^p3 t^-3 K(p1, p2, t) dt)``
    of points ``(..., 3)``, whose divergence is ``p3^-3 K``; the anchor is
    pure gauge on closed surfaces.  The integral is a
    ``VERTICAL_QUAD_ORDER`` Gauss rule on the segment.
    """
    xg, wg = np.polynomial.legendre.leggauss(VERTICAL_QUAD_ORDER)
    xi = 0.5 * (xg + 1.0)
    wxi = 0.5 * wg

    def evaluator(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 3)
        span = flat[:, 2] - anchor
        t = anchor + span[:, None] * xi[None, :]
        probe = np.empty(t.shape + (3,))
        probe[..., 0] = flat[:, 0, None]
        probe[..., 1] = flat[:, 1, None]
        probe[..., 2] = t
        q3 = span * np.sum(wxi * K.evaluate(probe) / t**3, axis=1)
        out = np.zeros_like(flat)
        out[:, 2] = q3
        return out.reshape(np.shape(pts))

    return evaluator


def volume_V(K, u):
    """Weighted volume ``int Q_K(u) . (d_x u ^ d_y u) dz`` of a surface field.

    ``K`` may be a prescribed function (its antiderivative field is built on
    the fly) or a field already built by :func:`build_Q`.
    """
    Q = K if callable(K) else build_Q(K)
    u = ch.differentiate(u)
    positive_heights(u.values)
    cross = np.cross(u.dx, u.dy)
    integrand = np.einsum("ij,ij->i", Q(u.values), cross)
    return float(np.sum(u.grid.weights / u.grid.mu**2 * integrand))


def energy_E(u, params, eps=0.0, phi=None):
    """Surface energy: Dirichlet part, constant-curvature volume term, and
    ``2 eps`` times the prescribed-weight volume."""
    u = ch.differentiate(u)
    u3 = positive_heights(u.values)
    g = u.grid
    wz = g.weights / g.mu**2
    norm2 = np.einsum("ij,ij->i", u.dx, u.dx) + np.einsum("ij,ij->i", u.dy, u.dy)
    cross3 = np.cross(u.dx, u.dy)[:, 2]
    out = 0.5 * np.sum(wz * norm2 / u3**2) \
        - params.k * np.sum(wz * cross3 / u3**2)
    if eps != 0.0:
        if phi is None:
            raise ValueError("eps != 0 needs the prescribed function")
        out += 2.0 * eps * volume_V(phi, u)
    return float(out)


def first_variation(u, params, eps=0.0, phi=None, test=None):
    """Directional derivative of the energy: ``int J_eps(u) . test dz``."""
    if test is None:
        raise ValueError("a test field is required")
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

    Diverges to minus infinity as ``t`` decreases to 1 (horosphere limit).
    """
    if t <= 1:
        raise ValueError("the shifted sphere needs t > 1")
    return 4.0 * np.pi * (-(k * t - 1.0) / (t * t - 1.0)
                          + 0.5 * k * np.log((t + 1.0) / (t - 1.0)))


def energy_curve(params, ts, grid):
    """Numeric energies of ``omega + t e3`` along ``ts`` (for CSV emission)."""
    om = ch.omega_field(grid)
    rows = []
    for t in ts:
        shifted = ch.SphereField(grid, om.values + np.array([0.0, 0.0, t]),
                                 om.dx, om.dy)
        rows.append((float(t), energy_E(shifted, params)))
    return np.asarray(rows)
