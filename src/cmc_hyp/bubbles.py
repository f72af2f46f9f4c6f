"""The explicit family of constant-mean-curvature spheres and its tangent frame.

For ``k > 1`` the base surface is ``U = r (omega + k e3)`` with
``r = 1/sqrt(k^2 - 1)``; hyperbolic translations move it around the half-space
and Moebius reparametrizations change the chart, producing a 9-parameter
family of solutions.  This module samples the surfaces, with or without a
Moebius map of the chart, together with their chart derivatives and chart
Laplacian in closed form (:func:`bubble`), builds the orthonormal frame
spanning the family's tangent space, and projects onto that frame against
the sphere measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chart as ch
from .chart import SphereField
from .halfspace import HyperbolicPoint

C0 = np.sqrt(3.0 / (16.0 * np.pi))


@dataclass(frozen=True)
class CurvatureParams:
    """Mean curvature ``k`` with its derived radii.

    ``rho`` is the hyperbolic radius ``artanh(1/k)`` and ``r = sinh(rho)``
    the Euclidean radius of the unit-height sphere.
    """

    k: float
    rho: float
    r: float


def make_params(k):
    """Validate ``k`` and derive the radii; a ``k`` that is not finite is
    rejected, and so is ``k <= 1`` because no immersed sphere of constant
    mean curvature ``k`` exists in hyperbolic space for ``k`` in ``(0, 1]``."""
    k = float(k)
    if not np.isfinite(k):
        raise ValueError(f"k must be finite, not {k!r}")
    if not k > 1.0:
        raise ValueError(
            f"k = {k:g} rejected: no immersed constant-mean-curvature sphere "
            "exists in hyperbolic space for k in (0, 1]")
    rho = 0.5 * np.log((k + 1.0) / (k - 1.0))
    r = 1.0 / np.sqrt(k * k - 1.0)
    return CurvatureParams(k=k, rho=rho, r=r)


# ---------------------------------------------------------------------------
# Moebius maps


@dataclass(frozen=True)
class MoebiusMap:
    """Fractional-linear chart map ``z -> (a z + b) / (c z + d)``."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if self.a * self.d - self.b * self.c == 0:
            raise ValueError("degenerate coefficients: a d - b c = 0")

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def rotation(cls, angle):
        return cls(np.exp(1j * angle), 0.0, 0.0, 1.0)

    def _z(self, z):
        z = np.asarray(z, dtype=float)
        return z[..., 0] + 1j * z[..., 1]

    def apply(self, z):
        w = (self.a * self._z(z) + self.b) / (self.c * self._z(z) + self.d)
        return np.stack([w.real, w.imag], axis=-1)

    def cderiv(self, z):
        den = self.c * self._z(z) + self.d
        return (self.a * self.d - self.b * self.c) / den**2


def bubble(params, q, grid, g=None):
    """Sample the sphere of curvature ``k`` about ``q`` onto ``grid``,
    reparametrized by the Moebius map ``g`` of the chart when one is given.

    The field parameterizes the Euclidean sphere of center
    ``(q1, q2, k r q3)`` and radius ``q3 r``, which is the hyperbolic sphere
    of radius ``rho`` about ``q``; its chart derivatives and its chart
    Laplacian (``lap``) are exact: ``s omega`` is made of harmonics of
    degree 1, so by ``d_xx + d_yy = mu^2 Delta_S2`` its Laplacian is
    ``-2 s mu^2 omega``.  Without ``g`` the samples scale the grid's own
    ``omega`` tables.  With ``g`` the sphere is composed with ``g`` in
    closed form: the derivatives rotate and scale by ``g'``, and since
    ``g`` is holomorphic the Laplacian is ``|g'|^2`` times the one at
    ``g(z)``.  Nodes may not hit the pole of ``g``.
    """
    q = HyperbolicPoint.of(q)
    s = q.p3 * params.r
    shift = np.array([q.p1, q.p2, q.p3 * params.r * params.k])
    if g is None:
        return SphereField(grid, s * grid.omega + shift, s * grid.domega_dx,
                           s * grid.domega_dy,
                           -2.0 * s * grid.mu[:, None]**2 * grid.omega)
    w = g.apply(grid.nodes)
    om, mu, ux, uy = ch.omega_mu(w)
    ux, uy = s * ux, s * uy
    gp = g.cderiv(grid.nodes)
    a, b = gp.real[..., None], gp.imag[..., None]
    return SphereField(grid, s * om + shift, a * ux + b * uy, -b * ux + a * uy,
                       (a**2 + b**2) * (-2.0 * s * mu[:, None]**2 * om))


# ---------------------------------------------------------------------------
# tangent frame


@dataclass
class TangentFrame:
    """Orthonormal frame of the solution family's tangent space.

    ``tau`` holds the six tangential fields as nodal values without
    derivative slots (orthonormal against the sphere measure and pointwise
    orthogonal to ``omega``); ``gamma`` the three normal-direction
    generators ``2 C0 (k omega_l + delta_l3)`` as columns.
    :meth:`generators` lists the nine nodal generators.
    """

    grid: ch.SphereGrid
    tau: tuple
    gamma: np.ndarray

    def generators(self):
        """The nine nodal generators as ``(N, 3)`` arrays: the six tau's,
        then the three normal fields ``gamma_l omega``."""
        gens = [t.values for t in self.tau]
        return gens + [self.gamma[:, ell, None] * self.grid.omega
                       for ell in range(3)]

    def tau_gram(self):
        w = self.grid.weights
        V = np.stack([t.values for t in self.tau])
        return np.einsum("anc,bnc,n->ab", V, V, w)

    def gamma_gram(self):
        w = self.grid.weights
        return np.einsum("na,nb,n->ab", self.gamma, self.gamma, w)


def flow_coefficients(x, y):
    """The six reparametrization flows ``a d_x + b d_y`` of the chart.

    At chart points ``(x, y)``, one ``(a, b, cf)`` per flow: the
    coefficients and the flow's normalization.  In order: the two
    translations, the radial and rotation flows, and the two quadratic
    flows.
    """
    one, zero = np.ones_like(x), np.zeros_like(x)
    s2 = np.sqrt(2.0)
    return [
        (one, zero, C0),                            # d/dx
        (zero, one, C0),                            # d/dy
        (x, y, C0 * s2),                            # radial flow
        (-y, x, C0 * s2),                           # rotation flow
        (x * x - y * y, 2 * x * y, C0),
        (-2 * x * y, x * x - y * y, C0),
    ]


def normal_generators(params, grid):
    """The frame's three normal-direction generators
    ``2 C0 (k omega_l + delta_l3)`` at the nodes of ``grid``, as columns
    ``(N, 3)``."""
    return 2.0 * C0 * (params.k * grid.omega + np.array([0.0, 0.0, 1.0]))


def tangent_frame(params, grid):
    """Frame of the nine nodal generators at curvature ``k`` on ``grid``,
    built afresh on every call; no cache keeps one.  Each
    ``tau_j = cf (a d_x omega + b d_y omega)`` is held as values alone: a
    degree-2 polynomial field, which :func:`~cmc_hyp.chart.differentiate`
    differentiates exactly."""
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    dox, doy = grid.domega_dx, grid.domega_dy
    tau = tuple(SphereField(grid, cf * (a[:, None] * dox + b[:, None] * doy))
                for a, b, cf in flow_coefficients(x, y))
    return TangentFrame(grid=grid, tau=tau,
                        gamma=normal_generators(params, grid))


def tangent_project(f, frame):
    """Project a vector field onto the frame's 9-dimensional span.

    Returns ``(coefficients, remainder)`` with the remainder orthogonal to
    the span against the sphere measure; ``f`` is reproduced exactly as span
    part plus remainder.
    """
    w, gens = frame.grid.weights, frame.generators()
    inner = lambda a, b: float(np.einsum("ij,ij,i->", a, b, w))
    G = np.array([[inner(a, b) for b in gens] for a in gens])
    rhs = np.array([inner(a, f.values) for a in gens])
    coef = np.linalg.solve(G, rhs)
    span = sum(c * g for c, g in zip(coef, gens))
    return coef, SphereField(frame.grid, f.values - span)
