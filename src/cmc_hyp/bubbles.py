"""The explicit family of constant-mean-curvature spheres and its tangent frame.

For ``k > 1`` the base surface is ``U = r (omega + k e3)`` with
``r = 1/sqrt(k^2 - 1)``; hyperbolic translations move it around the half-space
and Moebius reparametrizations change the chart, producing a 9-parameter
family of solutions.  This module builds the surfaces with analytic chart
derivatives, the orthonormal frame spanning the family's tangent space, and
projections onto that frame.
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
    """Mean curvature ``k`` with its derived radii and constants.

    ``rho`` is the hyperbolic radius ``artanh(1/k)``, ``r = sinh(rho)`` the
    Euclidean radius of the unit-height sphere, ``c = exp(rho)``.
    """

    k: float
    rho: float
    r: float
    c: float


def make_params(k):
    """Validate ``k`` and derive the radii; ``k <= 1`` is rejected because no
    immersed sphere of constant mean curvature ``k`` exists in hyperbolic
    space for ``k`` in ``(0, 1]``."""
    k = float(k)
    if not k > 1.0:
        raise ValueError(
            f"k = {k:g} rejected: no immersed constant-mean-curvature sphere "
            "exists in hyperbolic space for k in (0, 1]")
    rho = 0.5 * np.log((k + 1.0) / (k - 1.0))
    r = 1.0 / np.sqrt(k * k - 1.0)
    return CurvatureParams(k=k, rho=rho, r=r, c=np.sqrt((k + 1.0) / (k - 1.0)))


# ---------------------------------------------------------------------------
# analytic surfaces (exact evaluation off the grid, used by pullbacks and
# residuals)


class BubbleSurface:
    """Analytic evaluator of the sphere ``q3 U + (q1, q2, 0)``."""

    def __init__(self, params, q):
        self.params = params
        self.q = HyperbolicPoint.of(q)
        self.scale = self.q.p3 * params.r
        self.shift = np.array([self.q.p1, self.q.p2,
                               self.q.p3 * params.r * params.k])

    def value(self, z):
        om, _, _, _ = ch.omega_mu(z)
        return self.scale * om + self.shift

    def first(self, z):
        _, _, dx, dy = ch.omega_mu(z)
        return self.scale * dx, self.scale * dy

    def laplacian(self, z):
        dxx, _, dyy = ch.omega_second(z)
        return self.scale * dxx + self.scale * dyy


class MoebiusSurface:
    """Analytic pullback ``u o g`` of another analytic surface."""

    def __init__(self, base, g):
        self.base = base
        self.g = g

    def value(self, z):
        return self.base.value(self.g.apply(z))

    def first(self, z):
        w = self.g.apply(z)
        ux, uy = self.base.first(w)
        gp = self.g.cderiv(z)
        a, b = gp.real[..., None], gp.imag[..., None]
        return a * ux + b * uy, -b * ux + a * uy

    def laplacian(self, z):
        # g is holomorphic, so the chart Laplacian picks up |g'|^2 alone
        gp = self.g.cderiv(z)
        return (gp.real**2 + gp.imag**2)[..., None] * self.base.laplacian(
            self.g.apply(z))


def bubble(params, q, grid):
    """Sample the sphere of curvature ``k`` about ``q`` onto ``grid``.

    The returned field parameterizes the Euclidean sphere of center
    ``(q1, q2, k r q3)`` and radius ``q3 r``, which is the hyperbolic sphere
    of radius ``rho`` about ``q``; chart derivatives are analytic.
    """
    surf = BubbleSurface(params, q)
    dx, dy = surf.first(grid.nodes)
    return SphereField(grid, surf.value(grid.nodes), dx, dy, surface=surf)


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

    @property
    def is_identity(self):
        return self.b == 0 and self.c == 0 and self.a == self.d

    def inverse(self):
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def _z(self, z):
        z = np.asarray(z, dtype=float)
        return z[..., 0] + 1j * z[..., 1]

    def apply(self, z):
        w = (self.a * self._z(z) + self.b) / (self.c * self._z(z) + self.d)
        return np.stack([w.real, w.imag], axis=-1)

    def cderiv(self, z):
        den = self.c * self._z(z) + self.d
        return (self.a * self.d - self.b * self.c) / den**2


def moebius_pullback(u, g):
    """Reparametrize a field by a Moebius map of the chart.

    Fields carrying an analytic surface are recomposed in closed form; plain
    samples are evaluated through the grid's global interpolant (values and
    first derivatives, combined with the chain rule).  Nodes may not hit the
    pole of ``g``.
    """
    if g.is_identity:
        return u
    grid = u.grid
    if u.surface is not None:
        surf = MoebiusSurface(u.surface, g)
        dx, dy = surf.first(grid.nodes)
        return SphereField(grid, surf.value(grid.nodes), dx, dy, surface=surf)
    w = g.apply(grid.nodes)
    uu = ch.differentiate(u)
    vals = ch.interpolate(uu, w)
    ux = ch.interpolate(SphereField(grid, uu.dx), w)
    uy = ch.interpolate(SphereField(grid, uu.dy), w)
    gp = g.cderiv(grid.nodes)
    a, b = gp.real, gp.imag
    if u.is_vector:
        a, b = a[:, None], b[:, None]
    return SphereField(grid, vals, a * ux + b * uy, -b * ux + a * uy)


# ---------------------------------------------------------------------------
# tangent frame


@dataclass
class TangentFrame:
    """Orthonormal frame of the solution family's tangent space.

    ``tau`` holds the six tangential fields (orthonormal against the sphere
    measure and pointwise orthogonal to ``omega``); ``gamma`` the three
    normal-direction generators ``2 c0 (k omega_l + delta_l3)`` as columns.
    :meth:`generators` lists the nine nodal generators.
    """

    params: CurvatureParams
    grid: ch.SphereGrid
    tau: tuple
    gamma: np.ndarray
    c0: float = C0

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


def _z_combination(grid, a, b, da, db):
    """Field ``a(z) dx_omega + b(z) dy_omega`` with analytic derivatives.

    ``da = (a_x, a_y)`` and ``db`` are the (constant-in-omega) coefficient
    gradients; second chart derivatives of omega supply the rest.
    """
    dox, doy = grid.domega_dx, grid.domega_dy
    dxx, dxy, dyy = ch.omega_second(grid.nodes)
    a, b = a[:, None], b[:, None]
    vals = a * dox + b * doy
    dx = da[0][:, None] * dox + a * dxx + db[0][:, None] * doy + b * dxy
    dy = da[1][:, None] * dox + a * dxy + db[1][:, None] * doy + b * dyy
    return SphereField(grid, vals, dx, dy)


def flow_coefficients(x, y):
    """The six reparametrization flows ``a d_x + b d_y`` of the chart.

    At chart points ``(x, y)``, one ``(a, b, grad a, grad b, cf)`` per flow:
    the coefficients, their chart gradients ``(d_x, d_y)`` and the flow's
    normalization.  In order: the two translations, the radial and rotation
    flows, and the two quadratic flows.
    """
    one, zero = np.ones_like(x), np.zeros_like(x)
    s2 = np.sqrt(2.0)
    return [
        (one, zero, (zero, zero), (zero, zero), C0),           # d/dx
        (zero, one, (zero, zero), (zero, zero), C0),           # d/dy
        (x, y, (one, zero), (zero, one), C0 * s2),             # radial flow
        (-y, x, (zero, -one), (one, zero), C0 * s2),           # rotation flow
        (x * x - y * y, 2 * x * y, (2 * x, -2 * y), (2 * y, 2 * x), C0),
        (-2 * x * y, x * x - y * y, (-2 * y, -2 * x), (2 * x, -2 * y), C0),
    ]


def tangent_frame(params, grid):
    """Frame of the nine nodal generators at curvature ``k`` on ``grid``,
    built afresh; the operator pack's ``frame`` is the shared copy."""
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    tau = []
    for a, b, da, db, cf in flow_coefficients(x, y):
        f = _z_combination(grid, a, b, da, db)
        tau.append(SphereField(grid, cf * f.values, cf * f.dx, cf * f.dy))
    gamma = 2.0 * C0 * (params.k * grid.omega + np.array([0.0, 0.0, 1.0]))
    return TangentFrame(params=params, grid=grid, tau=tuple(tau), gamma=gamma)


def star_inner(grid, params, f, g):
    """Weighted inner product splitting tangential and normal parts.

    ``(f, g)_* = int Pf . Pg / (omega3+k)^2 + (f.omega)(g.omega) / (omega3+k)^3``
    against the sphere measure.
    """
    k = params.k
    om = grid.omega
    ok = om[:, 2] + k
    fn = np.einsum("ij,ij->i", f, om)
    gn = np.einsum("ij,ij->i", g, om)
    tang = (np.einsum("ij,ij->i", f, g) - fn * gn) / ok**2
    return float(np.sum(grid.weights * (tang + fn * gn / ok**3)))


def tangent_project(f, frame, metric="L2"):
    """Project a vector field onto the frame's 9-dimensional span.

    Returns ``(coefficients, remainder)`` with the remainder orthogonal to
    the span in the chosen metric (``"L2"`` against the sphere measure or the
    weighted ``"star"`` product); ``f`` is reproduced exactly as span part
    plus remainder.  The Gram condition number is attached to the remainder
    as ``gram_cond``.
    """
    if metric not in ("L2", "star"):
        raise ValueError(f"unknown metric {metric!r}")
    grid, params = frame.grid, frame.params
    gens = frame.generators()
    if metric == "L2":
        w = grid.weights
        inner = lambda a, b: float(np.einsum("ij,ij,i->", a, b, w))
    else:
        inner = lambda a, b: star_inner(grid, params, a, b)
    G = np.array([[inner(a, b) for b in gens] for a in gens])
    rhs = np.array([inner(a, f.values) for a in gens])
    coef = np.linalg.solve(G, rhs)
    span = sum(c * g for c, g in zip(coef, gens))
    rem = SphereField(grid, f.values - span)
    rem.gram_cond = float(np.linalg.cond(G))
    return coef, rem
