"""Discretization of the unit sphere through its plane chart.

The sphere is identified with the compactified plane via the inward conformal
parametrization ``omega(x, y) = (mu x, mu y, 1 - mu)``, ``mu = 2/(1+|z|^2)``.
Grids couple Gauss-Legendre nodes in the polar angle with equispaced azimuths;
weights are stored premultiplied so that ``sum(w_i f_i)`` approximates the
integral of ``f`` against the spherical measure ``mu^2 dz``.  Fields carry
values and first chart derivatives; the one second-order quantity is the
chart Laplacian ``d_xx + d_yy`` (:func:`laplacian`), through which alone the
prescribed-curvature system and its linearization see second derivatives.

Nodes with ``|z| <= R_CUT`` are tagged as living in the main chart, the rest
in the inverted chart reached through ``z -> 1/z`` (complex reciprocal); all
stored coordinates and derivative slots refer to the main chart, and
:func:`overlap_consistency` checks the transition on the overlap band.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache

import numpy as np

from .errors import NumericsError

R_CUT = 1.5
OVERLAP_BAND = (1.0 / R_CUT, R_CUT)


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


def invert_chart(z):
    """Transition ``z -> 1/z`` (complex reciprocal) in real coordinates."""
    z = np.asarray(z, dtype=float)
    r2 = z[..., 0] ** 2 + z[..., 1] ** 2
    return np.stack([z[..., 0] / r2, -z[..., 1] / r2], axis=-1)


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


def _bary_eval_matrix(x_nodes, w, x_eval):
    """Rows evaluate the interpolant on ``x_nodes`` at the points ``x_eval``."""
    x_eval = np.asarray(x_eval, dtype=float)
    diff = x_eval[:, None] - x_nodes[None, :]
    exact = np.abs(diff) < 1e-14
    diff = np.where(exact, 1.0, diff)
    num = w[None, :] / diff
    mat = num / num.sum(axis=1, keepdims=True)
    hit = exact.any(axis=1)
    if np.any(hit):
        mat[hit] = 0.0
        mat[np.where(hit)[0], np.argmax(exact[hit], axis=1)] = 1.0
    return mat


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class SphereGrid:
    """Immutable quadrature grid on the chart plane.

    ``nodes`` holds main-chart coordinates, ``weights`` the premultiplied
    quadrature weights (their sum is the sphere area ``4 pi``), ``chart_tag``
    is 0 on the main chart and 1 on the inverted one.  The polar direction
    carries ``n`` Gauss-Legendre nodes in ``cos(s)``, the azimuth ``ntheta``
    equispaced nodes; ``Dleg`` differentiates polynomials sampled at the
    ``cos(s)`` nodes, which the spectral rules combine with the azimuthal FFT.
    """

    n: int
    ns: int
    ntheta: int
    nodes: np.ndarray        # (N, 2)
    weights: np.ndarray      # (N,)
    chart_tag: np.ndarray    # (N,) uint8
    theta: np.ndarray        # (ntheta,)
    rho: np.ndarray          # (ns,) = tan(s/2)
    x: np.ndarray            # (ns,) = cos(s)
    sin_s: np.ndarray        # (ns,)
    mu: np.ndarray           # (N,)
    omega: np.ndarray        # (N, 3)
    domega_dx: np.ndarray    # (N, 3)
    domega_dy: np.ndarray    # (N, 3)
    Dleg: np.ndarray         # (ns, ns)
    bary_wx: np.ndarray      # (ns,) barycentric weights on x

    @property
    def size(self):
        return self.nodes.shape[0]

    def inverted_nodes(self):
        """Coordinates of every node in the inverted chart."""
        return invert_chart(self.nodes)

    def node_shape(self, values):
        """Reshape a flat per-node array to (ns, ntheta, ...)."""
        return values.reshape(self.ns, self.ntheta, *values.shape[1:])


def _freeze(*arrays):
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=16)
def build_grid(n):
    """Build the product grid at resolution ``n``.

    ``n`` Gauss-Legendre nodes resolve the polar direction and ``2 n``
    equispaced nodes the azimuth.  Quadrature of smooth fields converges
    spectrally; the constant 1 integrates to ``4 pi`` exactly up to roundoff.
    """
    if n < 4:
        raise ValueError(f"resolution must be at least 4, got {n}")
    xg, wg = np.polynomial.legendre.leggauss(n)
    s = np.arccos(xg)[::-1]          # ascending polar angle
    wg = wg[::-1]
    x = np.cos(s)
    polar = dict(rho=np.tan(0.5 * s), x=x, sin_s=np.sin(s),
                 Dleg=_diff_matrix(x), bary_wx=_barycentric_weights(x))
    _freeze(*polar.values())
    return SphereGrid(n=n, ns=n, **polar, **_azimuths(
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
                  chart_tag=(rr > R_CUT).astype(np.uint8), mu=mu, omega=omega,
                  domega_dx=dox, domega_dy=doy)
    _freeze(*fields.values())
    return dict(fields, ntheta=L)


# ---------------------------------------------------------------------------
# fields


@dataclass
class SphereField:
    """Per-node samples of a scalar or 3-vector function on the sphere.

    ``values`` has shape ``(N,)`` or ``(N, 3)``; the optional ``dx``/``dy``
    slots hold main-chart derivatives of the same shape.  ``surface`` may
    point to an analytic evaluator (see :mod:`cmc_hyp.bubbles`) used for
    exact off-grid evaluation and the Laplacian.  Treat instances as
    immutable: arrays are write-locked at construction.
    """

    grid: SphereGrid
    values: np.ndarray
    dx: np.ndarray | None = None
    dy: np.ndarray | None = None
    surface: object = dc_field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.grid.size:
            raise ValueError("values do not match the grid size")
        for name in ("dx", "dy"):
            a = getattr(self, name)
            if a is not None:
                a = np.asarray(a, dtype=float)
                if a.shape != self.values.shape:
                    raise ValueError(f"{name} shape differs from values")
                setattr(self, name, a)
        for a in (self.values, self.dx, self.dy):
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
    """Spectral (d/ds, d/dtheta) of per-node samples.

    Azimuthal modes come from the FFT; each mode's polar profile is reduced
    by its parity factor ``sin(s)^(m mod 2)`` to a polynomial in ``cos(s)``
    and differentiated exactly there.  The rule is exact for band-limited
    sphere functions resolved by the grid and spectrally accurate otherwise.
    """
    V = grid.node_shape(values)
    V = np.moveaxis(V, 1, -1)                      # (ns, ..., ntheta)
    F = np.fft.rfft(V, axis=-1)                    # (ns, ..., M+1)
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
    out_ds = np.moveaxis(np.fft.irfft(ds, n=grid.ntheta, axis=-1), -1, 1)
    out_dt = np.moveaxis(np.fft.irfft(dth, n=grid.ntheta, axis=-1), -1, 1)
    flat = (grid.size,) + values.shape[1:]
    return out_ds.reshape(flat), out_dt.reshape(flat)


def spectral_derivatives(grid, values):
    """Main-chart derivatives of per-node samples (global spectral rule)."""
    return polar_to_chart(grid, *_polar_derivatives(
        grid, np.asarray(values, dtype=float)))


def polar_to_chart(grid, ds, dt):
    """Main-chart ``(d/dx, d/dy)`` from per-node ``(d/ds, d/dtheta)`` samples
    of shape ``(N, ...)``."""
    extra = (1,) * (ds.ndim - 1)
    ct = np.cos(grid.theta).reshape((1, -1) + extra)
    st = np.sin(grid.theta).reshape((1, -1) + extra)
    rr = grid.rho.reshape((-1, 1) + extra)
    mu = grid.mu.reshape((grid.ns, grid.ntheta) + extra)
    drho = mu * grid.node_shape(ds)
    dt = grid.node_shape(dt)
    dx = ct * drho - st / rr * dt
    dy = st * drho + ct / rr * dt
    return dx.reshape(ds.shape), dy.reshape(ds.shape)


def differentiate(f):
    """Return a copy of ``f`` with derivative slots filled.

    Analytic slots already present are kept; otherwise the grid's spectral
    rule is used.
    """
    if f.has_derivatives:
        return f
    dx, dy = spectral_derivatives(f.grid, f.values)
    return SphereField(f.grid, f.values, dx, dy, surface=f.surface)


def laplacian(f):
    """Main-chart Laplacian ``d_xx + d_yy`` of a field.

    Uses the analytic evaluator when available, otherwise differentiates the
    (possibly spectral) first derivatives once more.
    """
    if f.surface is not None:
        return f.surface.laplacian(f.grid.nodes)
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
        if not f.has_derivatives:
            raise ValueError("m = 1 needs derivative slots; differentiate first")
        if f.is_vector:
            g2 = np.sum(f.dx**2, axis=1) + np.sum(f.dy**2, axis=1)
        else:
            g2 = f.dx**2 + f.dy**2
        out += float(np.max(np.sqrt(g2) / f.grid.mu))
    return out


# ---------------------------------------------------------------------------
# interpolation (spectral, used by Moebius pullbacks of sampled fields)


def interpolate(f, pts):
    """Evaluate the global interpolant of ``f`` at chart points ``pts``.

    Works mode by mode: the azimuthal FFT coefficients, reduced by their
    parity factor, are polynomial in ``cos(s)`` and evaluated by barycentric
    interpolation; exact for band-limited fields the grid resolves.
    """
    grid = f.grid
    pts = np.asarray(pts, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    rho_t = np.hypot(pts[:, 0], pts[:, 1])
    theta_t = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
    s_t = 2.0 * np.arctan(rho_t)
    x_t = np.cos(s_t)
    sin_t = np.sin(s_t)
    E = _bary_eval_matrix(grid.x, grid.bary_wx, x_t)
    m = np.arange(grid.ntheta // 2 + 1)
    odd = (m % 2).astype(bool)
    scale = np.full(m.size, 2.0)
    scale[0] = 1.0
    if grid.ntheta % 2 == 0:
        scale[-1] = 1.0
    phase = np.exp(1j * np.outer(theta_t, m)) * scale

    def eval_component(vals):
        F = np.fft.rfft(grid.node_shape(vals), axis=1)   # (ns, M+1)
        G = F.copy()
        G[:, odd] = G[:, odd] / grid.sin_s[:, None]
        C = E @ G                                        # (M_t, M+1)
        C[:, odd] = C[:, odd] * sin_t[:, None]
        return (C * phase).real.sum(axis=1) / grid.ntheta

    if f.is_vector:
        out = np.stack([eval_component(f.values[:, c]) for c in range(3)], axis=-1)
    else:
        out = eval_component(f.values)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# chart-overlap consistency


def overlap_consistency(f):
    """Worst scaled derivative mismatch across the chart transition.

    For every node in the overlap band the stored main-chart derivatives are
    compared against a local degree-six least-squares fit carried out in the
    inverted chart and mapped back through the transition Jacobian.  The
    mismatch is measured relative to ``mu`` and to the field's C1 scale, so
    the returned number is dimensionless; values above ~1e-3 indicate a grid
    too coarse for the sampled function.
    """
    if not f.has_derivatives:
        raise ValueError("field has no derivative slots to check")
    grid = f.grid
    lo, hi = OVERLAP_BAND
    rr = np.repeat(grid.rho, grid.ntheta)
    band = np.where((rr >= lo) & (rr <= hi))[0]
    if band.size == 0:
        return 0.0
    vals = f.values if f.is_vector else f.values[:, None]
    dxs = f.dx if f.is_vector else f.dx[:, None]
    dys = f.dy if f.is_vector else f.dy[:, None]
    grad_scale = np.sqrt(np.sum(dxs**2, axis=-1) + np.sum(dys**2, axis=-1))
    scale = max(np.max(np.abs(vals)), np.max(grad_scale / grid.mu), 1e-300)
    winv = grid.inverted_nodes()
    powers = [(a, b) for tot in range(7) for a in range(tot + 1)
              for b in (tot - a,)]
    worst = 0.0
    offsets = range(-3, 4)
    for idx in band:
        i, j = divmod(int(idx), grid.ntheta)
        ii = [i + a for a in offsets if 0 <= i + a < grid.ns]
        jj = [(j + b) % grid.ntheta for b in offsets]
        sel = np.array([a * grid.ntheta + b for a in ii for b in jj])
        w = winv[sel] - winv[idx]
        h = max(np.max(np.abs(w)), 1e-300)
        u, v = w[:, 0] / h, w[:, 1] / h
        basis = np.stack([u**a * v**b for a, b in powers], axis=1)
        coef, *_ = np.linalg.lstsq(basis, vals[sel], rcond=None)
        iu = powers.index((1, 0))
        iv = powers.index((0, 1))
        gw = np.stack([coef[iu] / h, coef[iv] / h], axis=0)   # (2, d)
        x, y = grid.nodes[idx]
        r2 = x * x + y * y
        j11 = (y * y - x * x) / r2**2
        j12 = -2.0 * x * y / r2**2
        # d/dx = j11 * d/dw1 + (-j12) * d/dw2 ; d/dy = j12 * d/dw1 + j11 * d/dw2
        fit_dx = j11 * gw[0] - j12 * gw[1]
        fit_dy = j12 * gw[0] + j11 * gw[1]
        mism = np.sqrt(np.sum((fit_dx - dxs[idx]) ** 2)
                       + np.sum((fit_dy - dys[idx]) ** 2))
        worst = max(worst, mism / (grid.mu[idx] * scale))
    return worst


def check_overlap(f):
    """Raise :class:`NumericsError` when the overlap mismatch exceeds 1e-3."""
    mism = overlap_consistency(f)
    if mism > 1e-3:
        raise NumericsError(
            f"chart-overlap derivative mismatch {mism:.3e} exceeds 0.001; "
            "the grid is too coarse for this field")
    return mism


# ---------------------------------------------------------------------------
# export / import


def field_to_csv(f, path):
    """Write ``x, y, chart_tag, value components`` rows (plus derivatives)."""
    grid = f.grid
    cols = [grid.nodes[:, 0], grid.nodes[:, 1], grid.chart_tag.astype(float)]
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


def field_from_csv(path, grid):
    """Read a field written by :func:`field_to_csv` back onto ``grid``."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    nodes = np.stack([data["x"], data["y"]], axis=1)
    if nodes.shape[0] != grid.size or not np.allclose(nodes, grid.nodes, atol=1e-12):
        raise ValueError("CSV nodes do not match the target grid")
    vcols = sorted(n for n in data.dtype.names if n.startswith("v"))
    vals = np.stack([data[c] for c in vcols], axis=1)
    if vals.shape[1] == 1:
        vals = vals[:, 0]
    dx = dy = None
    if any(n.startswith("dx") for n in data.dtype.names):
        dxc = sorted(n for n in data.dtype.names if n.startswith("dx"))
        dyc = sorted(n for n in data.dtype.names if n.startswith("dy"))
        dx = np.stack([data[c] for c in dxc], axis=1)
        dy = np.stack([data[c] for c in dyc], axis=1)
        if vals.ndim == 1:
            dx, dy = dx[:, 0], dy[:, 0]
    return SphereField(grid, vals, dx, dy)


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
