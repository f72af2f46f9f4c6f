"""Discretization of the unit sphere through its plane chart.

The sphere is identified with the compactified plane via the inward conformal
parametrization ``omega(x, y) = (mu x, mu y, 1 - mu)``, ``mu = 2/(1+|z|^2)``.
Grids couple Gauss-Legendre nodes in the polar angle with equispaced azimuths;
weights are stored premultiplied so that ``sum(w_i f_i)`` approximates the
integral of ``f`` against the spherical measure ``mu^2 dz``.  Fields carry
values and first chart derivatives, and optionally their exact chart
Laplacian; that Laplacian ``d_xx + d_yy`` (:func:`laplacian`) is the one
second-order quantity, through which alone the prescribed-curvature system
and its linearization see second derivatives.  The chart is conformal, so
every exact Laplacian follows one rule, ``d_xx + d_yy = mu^2 Delta_S2``, and
grids store no second derivatives (:func:`omega_second` is the oracle of
:func:`identity_defects`).

All stored coordinates and derivative slots refer to the one chart above;
no computation changes chart.  The field CSV (:func:`field_to_csv`) labels
each node with a ``chart_tag``, 0 for ``|z| <= R_CUT`` and 1 beyond.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

R_CUT = 1.5
GRID_MIN_N = 4      # the smallest resolution, polar nodes, of a grid


# ---------------------------------------------------------------------------
# chart algebra


def omega_mu(z):
    """Evaluate the chart map and its conformal factor at points ``z``.

    Parameters
    ----------
    z : array_like, shape (..., 2)
        Chart coordinates.

    Returns
    -------
    omega : ndarray, shape (..., 3)
        Unit vectors on the sphere.
    mu : ndarray, shape (...,)
        Conformal factor ``2 / (1 + |z|^2)``.
    domega_dx, domega_dy : ndarray, shape (..., 3)
        Chart derivatives; they satisfy ``|d_x omega| = |d_y omega| = mu``,
        ``d_x omega . d_y omega = 0`` and ``d_x omega ^ d_y omega = -mu^2 omega``.
    """
    z = np.asarray(z, dtype=float)
    x, y = z[..., 0], z[..., 1]
    mu = 2.0 / (1.0 + x * x + y * y)
    omega = np.stack([mu * x, mu * y, 1.0 - mu], axis=-1)
    mu2 = mu * mu
    dx = np.stack([mu - mu2 * x * x, -mu2 * x * y, mu2 * x], axis=-1)
    dy = np.stack([-mu2 * x * y, mu - mu2 * y * y, mu2 * y], axis=-1)
    return omega, mu, dx, dy


def omega_second(z):
    """Second chart derivatives of ``omega`` (d_xx, d_xy, d_yy), closed form."""
    z = np.asarray(z, dtype=float)
    x, y = z[..., 0], z[..., 1]
    mu = 2.0 / (1.0 + x * x + y * y)
    mu2, mu3 = mu * mu, mu**3
    dxx = np.stack(
        [-3.0 * mu2 * x + 2.0 * mu3 * x**3, 2.0 * mu3 * x * x * y - mu2 * y,
         mu2 - 2.0 * mu3 * x * x], axis=-1)
    dxy = np.stack(
        [-mu2 * y + 2.0 * mu3 * x * x * y, 2.0 * mu3 * x * y * y - mu2 * x,
         -2.0 * mu3 * x * y], axis=-1)
    dyy = np.stack(
        [2.0 * mu3 * x * y * y - mu2 * x, -3.0 * mu2 * y + 2.0 * mu3 * y**3,
         mu2 - 2.0 * mu3 * y * y], axis=-1)
    return dxx, dxy, dyy


def identity_defects(z):
    """Sup-norm defects of the fourteen closed-form chart identities.

    At chart points ``z`` of shape ``(N, 2)``: unit length, orthogonality and
    length of the chart derivatives, the three wedge relations, the
    Laplacian, and the six reparametrization flows written through ``omega``.
    Every entry vanishes analytically, so the values measure roundoff.
    """
    z = np.asarray(z, dtype=float)
    om, mu, dx, dy = omega_mu(z)
    dxx, _, dyy = omega_second(z)
    x, y = z[:, 0, None], z[:, 1, None]
    e1, e2, e3 = np.eye(3)
    mu2 = mu[:, None] ** 2
    sup = lambda a: float(np.max(np.abs(a)))
    return {
        "unit_norm": sup(np.einsum("ij,ij->i", om, om) - 1.0),
        "grad_orthogonal": sup(np.einsum("ij,ij->i", dx, dy)),
        "grad_norm_x": sup(np.einsum("ij,ij->i", dx, dx) - mu**2),
        "grad_norm_y": sup(np.einsum("ij,ij->i", dy, dy) - mu**2),
        "wedge_x": sup(np.cross(dx, om) - dy),
        "wedge_y": sup(np.cross(om, dy) - dx),
        "wedge_xy": sup(np.cross(dx, dy) + mu2 * om),
        "laplacian": sup(dxx + dyy + 2.0 * mu2 * om),
        "flow_dx": sup(dx - (e1 - om[:, 0, None] * om - np.cross(e2, om))),
        "flow_dy": sup(dy - (e2 - om[:, 1, None] * om + np.cross(e1, om))),
        "flow_z": sup(x * dx + y * dy - (e3 - om[:, 2, None] * om)),
        "flow_iz": sup(-y * dx + x * dy - np.cross(e3, om)),
        "flow_z2": sup((x * x - y * y) * dx + (2 * x * y) * dy
                       + (e1 - om[:, 0, None] * om + np.cross(e2, om))),
        "flow_iz2": sup((-2 * x * y) * dx + (x * x - y * y) * dy
                        - (e2 - om[:, 1, None] * om - np.cross(e1, om))),
    }


# ---------------------------------------------------------------------------
# differentiation matrices


def _barycentric_weights(x):
    # scale differences to O(1) so the products neither overflow nor underflow
    x = np.asarray(x, dtype=float)
    scale = 4.0 / (x.max() - x.min())
    diff = (x[:, None] - x[None, :]) * scale
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    return w / np.abs(w).max()


def _diff_matrix(x):
    """Differentiation matrix of polynomial interpolation at nodes ``x``."""
    x = np.asarray(x, dtype=float)
    w = _barycentric_weights(x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class SphereGrid:
    """Immutable quadrature grid on the chart plane.

    ``nodes`` holds main-chart coordinates, ``weights`` the premultiplied
    quadrature weights (their sum is the sphere area ``4 pi``).  The polar
    direction carries ``n`` Gauss-Legendre nodes in ``cos(s)``
    (:func:`with_azimuths` keeps them), the azimuth ``ntheta`` equispaced
    nodes; ``Dleg`` differentiates polynomials sampled at the ``cos(s)``
    nodes, which the spectral rules combine with the azimuthal FFT.
    """

    n: int
    ntheta: int
    nodes: np.ndarray        # (N, 2)
    weights: np.ndarray      # (N,)
    theta: np.ndarray        # (ntheta,)
    rho: np.ndarray          # (n,) = tan(s/2)
    x: np.ndarray            # (n,) = cos(s)
    sin_s: np.ndarray        # (n,)
    mu: np.ndarray           # (N,)
    omega: np.ndarray        # (N, 3)
    domega_dx: np.ndarray    # (N, 3)
    domega_dy: np.ndarray    # (N, 3)
    Dleg: np.ndarray         # (n, n)

    @property
    def size(self):
        return self.nodes.shape[0]

    def node_shape(self, values):
        """Reshape a flat per-node array to (n, ntheta, ...)."""
        return values.reshape(self.n, self.ntheta, *values.shape[1:])


def _freeze(*arrays):
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=16)
def build_grid(n):
    """Build the product grid at resolution ``n``.

    ``n >=`` :data:`GRID_MIN_N` Gauss-Legendre nodes resolve the polar
    direction and ``2 n`` equispaced nodes the azimuth.  Quadrature of smooth
    fields converges spectrally; the constant 1 integrates to ``4 pi``
    exactly up to roundoff.
    """
    if n < GRID_MIN_N:
        raise ValueError(f"resolution must be at least {GRID_MIN_N}, got {n}")
    xg, wg = np.polynomial.legendre.leggauss(n)
    s = np.arccos(xg)[::-1]          # ascending polar angle
    wg = wg[::-1]
    x = np.cos(s)
    polar = dict(rho=np.tan(0.5 * s), x=x, sin_s=np.sin(s),
                 Dleg=_diff_matrix(x))
    _freeze(*polar.values())
    return SphereGrid(n=n, **polar, **_azimuths(
        polar["rho"], wg * (2.0 * np.pi / (2 * n)), 2 * n))


def with_azimuths(grid, L):
    """The grid's polar nodes times ``L`` equispaced azimuths, weighted to
    integrate exactly every product of azimuthal degree below ``L``; not
    cached.  With ``L = 1`` each polar node carries its whole ring's weight
    (the modal pack's meridian)."""
    return replace(grid, **_azimuths(
        grid.rho, grid.node_shape(grid.weights)[:, 0] * (grid.ntheta / L), L))


def _azimuths(rho, ring_weights, L):
    """The fields of ``L`` equispaced azimuths at each polar node ``rho``,
    weighted ``ring_weights``, flattened azimuth fastest."""
    theta = 2.0 * np.pi * np.arange(L) / L
    rr = np.repeat(rho, L)
    tt = np.tile(theta, rho.size)
    nodes = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1)
    omega, mu, dox, doy = omega_mu(nodes)
    fields = dict(theta=theta, nodes=nodes, weights=np.repeat(ring_weights, L),
                  mu=mu, omega=omega, domega_dx=dox, domega_dy=doy)
    _freeze(*fields.values())
    return dict(fields, ntheta=L)


# ---------------------------------------------------------------------------
# fields


@dataclass
class SphereField:
    """Per-node samples of a scalar or 3-vector function on the sphere.

    ``values`` has shape ``(N,)`` or ``(N, 3)``; the optional ``dx``/``dy``
    slots hold main-chart derivatives of the same shape, and the optional
    ``lap`` slot the exact chart Laplacian ``d_xx + d_yy`` (as
    :func:`cmc_hyp.bubbles.bubble` computes by ``mu^2 Delta_S2``).
    Treat instances as immutable: arrays are write-locked at construction.
    """

    grid: SphereGrid
    values: np.ndarray
    dx: np.ndarray | None = None
    dy: np.ndarray | None = None
    lap: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.grid.size:
            raise ValueError("values do not match the grid size")
        for name in ("dx", "dy", "lap"):
            a = getattr(self, name)
            if a is not None:
                a = np.asarray(a, dtype=float)
                if a.shape != self.values.shape:
                    raise ValueError(f"{name} shape differs from values")
                setattr(self, name, a)
        for a in (self.values, self.dx, self.dy, self.lap):
            if a is not None and a.flags.owndata:
                a.flags.writeable = False

    @property
    def is_vector(self):
        return self.values.ndim == 2

    @property
    def has_derivatives(self):
        return self.dx is not None and self.dy is not None


def constant_field(grid, value):
    """Constant field; vector constants give vector fields."""
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        values = np.full(grid.size, float(v))
        zeros = np.zeros(grid.size)
    else:
        values = np.tile(v, (grid.size, 1))
        zeros = np.zeros((grid.size, 3))
    return SphereField(grid, values, zeros, zeros.copy())


def omega_field(grid):
    """The chart map itself as a vector field with analytic derivatives."""
    return SphereField(grid, grid.omega.copy(), grid.domega_dx.copy(),
                       grid.domega_dy.copy())


def _polar_derivatives(grid, values):
    """Spectral (d/ds, d/dtheta) of per-node samples ``(N, ...)``, returned
    batch-leading, ``(..., N)``.

    Azimuthal modes come from the FFT; each mode's polar profile is reduced
    by its parity factor ``sin(s)^(m mod 2)`` to a polynomial in ``cos(s)``
    and differentiated exactly there.  The rule is exact for band-limited
    sphere functions resolved by the grid and spectrally accurate otherwise.
    """
    V = grid.node_shape(values)
    V = np.moveaxis(V, 1, -1)                      # (n, ..., ntheta)
    F = np.fft.rfft(V, axis=-1)                    # (n, ..., M+1)
    M = F.shape[-1]
    odd = (np.arange(M) % 2).astype(bool)
    sins = grid.sin_s.reshape((-1,) + (1,) * (F.ndim - 1))
    xx = grid.x.reshape((-1,) + (1,) * (F.ndim - 1))
    G = F.copy()
    G[..., odd] = G[..., odd] / sins
    Gp = np.tensordot(grid.Dleg, G, axes=(1, 0))
    ds = np.empty_like(F)
    ds[..., ~odd] = -sins * Gp[..., ~odd]
    ds[..., odd] = xx * G[..., odd] - sins**2 * Gp[..., odd]
    mth = 1j * np.arange(M)
    dth = F * mth
    if grid.ntheta % 2 == 0:
        dth[..., -1] = 0.0
    flat = values.shape[1:] + (grid.size,)
    return tuple(np.moveaxis(np.fft.irfft(d, n=grid.ntheta, axis=-1), 0, -2)
                 .reshape(flat) for d in (ds, dth))


def spectral_derivatives(grid, values):
    """Main-chart derivatives of per-node samples ``(N, ...)`` (global
    spectral rule), in the same layout."""
    dx, dy = polar_to_chart(grid, *_polar_derivatives(
        grid, np.asarray(values, dtype=float)))
    return (np.ascontiguousarray(np.moveaxis(dx, -1, 0)),
            np.ascontiguousarray(np.moveaxis(dy, -1, 0)))


def polar_to_chart(grid, ds, dt):
    """Main-chart ``(d/dx, d/dy)`` from per-node ``(d/ds, d/dtheta)`` samples.

    The samples are batch-leading, ``(..., N)`` with the azimuth fastest,
    the layout of the modal pack's transforms, so each batch row is one
    contiguous sweep of the grid and the per-node factors are ``(n,
    ntheta)`` tables."""
    shape = ds.shape[:-1] + (grid.n, grid.ntheta)
    ct, st = np.cos(grid.theta), np.sin(grid.theta)
    rr = grid.rho[:, None]
    drho = grid.node_shape(grid.mu) * ds.reshape(shape)
    dt = dt.reshape(shape)
    dx = ct * drho - st / rr * dt
    dy = st * drho + ct / rr * dt
    return dx.reshape(ds.shape), dy.reshape(ds.shape)


def differentiate(f):
    """Return a copy of ``f`` with derivative slots filled.

    Analytic slots already present are kept; otherwise the grid's spectral
    rule is used.  A ``lap`` slot is carried over.
    """
    if f.has_derivatives:
        return f
    dx, dy = spectral_derivatives(f.grid, f.values)
    return SphereField(f.grid, f.values, dx, dy, f.lap)


def laplacian(f):
    """Main-chart Laplacian ``d_xx + d_yy`` of a field.

    Exact where the field carries ``lap``, which is returned; otherwise the
    (possibly spectral) first derivatives are differentiated once more.
    """
    if f.lap is not None:
        return f.lap
    g = differentiate(f)
    dxx, _ = spectral_derivatives(f.grid, g.dx)
    _, dyy = spectral_derivatives(f.grid, g.dy)
    return dxx + dyy


def integrate(f, grid=None):
    """Integrate samples against the spherical measure ``mu^2 dz``.

    Accepts a scalar field, a vector field (integrated per component), or a
    plain per-node array together with ``grid``.
    """
    if isinstance(f, SphereField):
        if grid is not None and grid is not f.grid:
            raise ValueError("field lives on a different grid")
        grid, values = f.grid, f.values
    else:
        if grid is None:
            raise ValueError("grid required for raw arrays")
        values = np.asarray(f, dtype=float)
        if values.shape[0] != grid.size:
            raise ValueError("values do not match the grid size")
    if values.ndim == 1:
        return float(grid.weights @ values)
    return grid.weights @ values


def project_P(f):
    """Pointwise split ``f = Pf + (f . omega) omega`` into tangential and
    normal parts.  Returns ``(Pf, normal)``; derivative slots are propagated
    through the product rule when present."""
    if not f.is_vector:
        raise ValueError("projection applies to 3-vector fields")
    g = f.grid
    nrm = np.einsum("ij,ij->i", f.values, g.omega)
    tang = f.values - nrm[:, None] * g.omega
    if f.has_derivatives:
        dnx = np.einsum("ij,ij->i", f.dx, g.omega) + np.einsum(
            "ij,ij->i", f.values, g.domega_dx)
        dny = np.einsum("ij,ij->i", f.dy, g.omega) + np.einsum(
            "ij,ij->i", f.values, g.domega_dy)
        tdx = f.dx - dnx[:, None] * g.omega - nrm[:, None] * g.domega_dx
        tdy = f.dy - dny[:, None] * g.omega - nrm[:, None] * g.domega_dy
        return (SphereField(g, tang, tdx, tdy),
                SphereField(g, nrm, dnx, dny))
    return SphereField(g, tang), SphereField(g, nrm)


def cm_norm(f, m=0):
    """Sup-type norm ``max|u| + max(mu^-m |grad u|)`` for ``m`` in {0, 1}.

    Only the integer orders are defined discretely; fractional smoothness has
    no grid analogue here, so continuity statements phrased in such norms are
    checked through their integer-order consequences.
    """
    if m not in (0, 1):
        raise ValueError("only m = 0 and m = 1 are supported")
    v = f.values if not f.is_vector else np.linalg.norm(f.values, axis=1)
    out = float(np.max(np.abs(v)))
    if m == 1:
        out += gradient_sup(f)
    return out


def gradient_sup(f):
    """``max(mu^-1 |grad u|)``, the derivative term of :func:`cm_norm` of
    order 1, so ``cm_norm(f, 1) == cm_norm(f, 0) + gradient_sup(f)``."""
    if not f.has_derivatives:
        raise ValueError("m = 1 needs derivative slots; differentiate first")
    if f.is_vector:
        g2 = np.sum(f.dx**2, axis=1) + np.sum(f.dy**2, axis=1)
    else:
        g2 = f.dx**2 + f.dy**2
    return float(np.max(np.sqrt(g2) / f.grid.mu))


# ---------------------------------------------------------------------------
# export


def field_to_csv(f, path):
    """Write ``x, y, chart_tag, value components`` rows (plus derivatives)."""
    grid = f.grid
    tag = np.repeat(grid.rho, grid.ntheta) > R_CUT
    cols = [grid.nodes[:, 0], grid.nodes[:, 1], tag.astype(float)]
    header = ["x", "y", "chart_tag"]
    vals = f.values if f.is_vector else f.values[:, None]
    for c in range(vals.shape[1]):
        cols.append(vals[:, c])
        header.append(f"v{c}")
    if f.has_derivatives:
        dxs = f.dx if f.is_vector else f.dx[:, None]
        dys = f.dy if f.is_vector else f.dy[:, None]
        for c in range(vals.shape[1]):
            cols.append(dxs[:, c])
            header.append(f"dx{c}")
        for c in range(vals.shape[1]):
            cols.append(dys[:, c])
            header.append(f"dy{c}")
    data = np.stack(cols, axis=1)
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="")


# ---------------------------------------------------------------------------
# smooth test fields


_MONOMIALS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
              (1, 1, 0), (1, 0, 1), (0, 1, 1), (2, 0, 0), (0, 2, 0)]


def smooth_field(grid, coeffs):
    """Field whose components are low-degree polynomials in ``omega``.

    ``coeffs`` has shape ``(len(_MONOMIALS), d)`` with ``d`` in {1, 3}; the
    derivative slots are filled analytically through the product rule, which
    makes these fields convenient exact probes for identity tests.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    om, dox, doy = grid.omega, grid.domega_dx, grid.domega_dy
    N = grid.size
    d = coeffs.shape[1]
    vals = np.zeros((N, d))
    dx = np.zeros((N, d))
    dy = np.zeros((N, d))
    for (a, b, c), cf in zip(_MONOMIALS, coeffs):
        mono = om[:, 0] ** a * om[:, 1] ** b * om[:, 2] ** c
        dmx = np.zeros(N)
        dmy = np.zeros(N)
        for power, comp in ((a, 0), (b, 1), (c, 2)):
            if power == 0:
                continue
            rest = (om[:, 0] ** (a - (comp == 0)) * om[:, 1] ** (b - (comp == 1))
                    * om[:, 2] ** (c - (comp == 2)))
            dmx += power * rest * dox[:, comp]
            dmy += power * rest * doy[:, comp]
        vals += np.outer(mono, cf)
        dx += np.outer(dmx, cf)
        dy += np.outer(dmy, cf)
    if d == 1:
        return SphereField(grid, vals[:, 0], dx[:, 0], dy[:, 0])
    return SphereField(grid, vals, dx, dy)


def random_smooth_field(grid, rng, vector=True):
    """Seeded random smooth field (see :func:`smooth_field`)."""
    d = 3 if vector else 1
    coeffs = rng.standard_normal((len(_MONOMIALS), d))
    return smooth_field(grid, coeffs)
