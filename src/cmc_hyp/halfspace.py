"""Primitives of the upper half-space model of hyperbolic 3-space.

Points live in ``{p = (p1, p2, p3) : p3 > 0}`` with metric ``p3**(-2) * delta``.
All operations are pure and work on single points or on arrays of shape
``(..., 3)``; nothing here is stateful, so concurrent use needs no locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chart import build_grid
from .errors import NumericsError

# per-axis order of the solid-ball rule: ``ball_quadrature``'s default and
# the reduced-function layer's lowest order (see melnikov.ball_rule_order)
BALL_QUAD_ORDER = 16


@dataclass(frozen=True)
class HyperbolicPoint:
    """A point of the half-space model; ``p3 > 0`` is enforced."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        if not (self.p3 > 0):
            raise ValueError(f"third coordinate must be positive, got {self.p3}")

    @property
    def array(self):
        return np.array([self.p1, self.p2, self.p3])

    @classmethod
    def of(cls, p):
        """Coerce a length-3 sequence (or another point) to a HyperbolicPoint."""
        if isinstance(p, HyperbolicPoint):
            return p
        a = np.asarray(p, dtype=float)
        if a.shape != (3,):
            raise ValueError(f"expected a 3-vector, got shape {a.shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class EuclideanBall:
    """A Euclidean ball; images of hyperbolic balls always stay in p3 > 0."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def center_array(self):
        return np.array(self.center)


def positive_heights(values):
    """The heights ``p3`` of points ``(..., 3)``, such as a surface's nodes;
    raises :class:`NumericsError` unless every one is positive."""
    u3 = values[..., 2]
    if not np.all(u3 > 0):
        raise NumericsError("point left the half-space: min p3 = %g"
                            % u3.min())
    return u3


def _as_array(p):
    if isinstance(p, HyperbolicPoint):
        return p.array
    return np.asarray(p, dtype=float)


def dist(p, q):
    """Hyperbolic distance between points of the half-space model.

    Computed as ``arccosh(1 + |p-q|^2 / (2 p3 q3))``; raises
    :class:`NumericsError` unless every height is positive, and with positive
    heights the argument is at least 1 in floating point too.
    """
    pa, qa = _as_array(p), _as_array(q)
    return np.arccosh(1.0 + np.sum((pa - qa) ** 2, axis=-1)
                      / (2.0 * positive_heights(pa) * positive_heights(qa)))


def ball_to_euclidean(p, rho):
    """Euclidean ball realizing the hyperbolic ball of radius ``rho`` about ``p``.

    The image has center ``(p1, p2, p3 cosh(rho))`` and radius ``p3 sinh(rho)``.
    """
    if not (rho > 0):
        raise ValueError(f"radius must be positive, got {rho}")
    pa = _as_array(p)
    center = (pa[0], pa[1], pa[2] * np.cosh(rho))
    return EuclideanBall(center=center, radius=pa[2] * np.sinh(rho))


def translate(x, q):
    """Apply the hyperbolic translation with parameter ``q`` to ``x``.

    The action is ``x -> q3 * x + (q1, q2, 0)``: a horizontal shift composed
    with a homothety, which is an isometry of the model.  ``x`` may be a
    point, an ``(..., 3)`` array, or anything :func:`_as_array` accepts; the
    returned object matches the input kind.
    """
    qa = _as_array(HyperbolicPoint.of(q))
    shift = np.array([qa[0], qa[1], 0.0])
    if isinstance(x, HyperbolicPoint):
        return HyperbolicPoint.of(qa[2] * x.array + shift)
    xa = np.asarray(x, dtype=float)
    return qa[2] * xa + shift


def box_lattice(box, count, interior=False):
    """The ``count^3`` points of the product lattice on a box
    ``x0,x1,y0,y1,z0,z1``, last coordinate fastest: ``count`` equispaced
    values per axis from bound to bound, or strictly between the bounds if
    ``interior``."""
    trim = slice(1, -1) if interior else slice(None)
    axes = [np.linspace(box[2 * i], box[2 * i + 1], count + 2 * interior)[trim]
            for i in range(3)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


@lru_cache(maxsize=8)
def unit_ball_rule(order):
    """Product quadrature on the closed unit ball in R^3.

    Gauss-Legendre in the radius (Jacobian ``r**2`` folded into the weights)
    times the sphere rule of :func:`~cmc_hyp.chart.build_grid` at the same
    ``order`` (Gauss-Legendre in the polar cosine, ``2*order`` azimuths).
    Returns ``(points, weights)`` with ``sum(w * f(points))`` approximating
    the plain Lebesgue integral; the rule integrates polynomials of degree
    ~``2*order`` exactly.
    """
    sphere = build_grid(order)
    xr, wr = np.polynomial.legendre.leggauss(order)
    r = 0.5 * (xr + 1.0)
    pts = (r[:, None, None] * sphere.omega).reshape(-1, 3)
    w = np.outer(0.5 * wr * r**2, sphere.weights).ravel()
    pts.flags.writeable = False
    w.flags.writeable = False
    return pts, w


def ball_quadrature(ball, order=BALL_QUAD_ORDER):
    """Quadrature nodes and plain-Lebesgue weights for a Euclidean ball."""
    pts, w = unit_ball_rule(order)
    return ball.center_array + ball.radius * pts, ball.radius**3 * w


def hyperbolic_ball_volume(rho):
    """Closed-form volume ``pi * (sinh(2 rho) - 2 rho)`` of a radius-rho ball."""
    return np.pi * (np.sinh(2.0 * rho) - 2.0 * rho)
