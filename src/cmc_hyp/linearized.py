"""The curvature operator at the explicit spheres and its linearization.

Two independent discrete routes to the linearized operator are kept side by
side on purpose:

* a *direct collocation* route applying the strong differential expression
  through the grid's (analytic or spectral) derivative jets, and
* a *modal Galerkin* route: all bilinear forms are assembled over a
  band-limited basis of spherical polynomials (Gegenbauer profiles times
  azimuthal trigs, orthonormalized against the sphere measure), for which the
  grid quadrature is spectrally exact and every matrix is symmetric by
  construction.  The tangential block uses the two first-order expressions
  whose squares make up the nonnegative quadratic form; the normal block is
  the scalar operator ``-div(grad ./ (omega3+k)^2) - 2 k mu^2/(omega3+k)^3``.
  The base sphere is axisymmetric, so the Galerkin matrices are assembled,
  applied and solved per block, one block per azimuthal order and parity,
  the corrector's bordered saddle matrix included; no dense matrix is
  formed.  Each block is assembled from the polar nodes at one azimuth,
  since its integrands are invariant under the rotations.

Their mutual agreement on smooth fields is one of the package's standing
consistency checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla

from . import chart as ch
from .bubbles import make_params, tangent_frame
from .chart import SphereField
from .errors import AmbiguousKernelError, ConvergenceError, NumericsError
from .halfspace import HyperbolicPoint, positive_heights

# singular-value ratio that declares a numerical kernel
KERNEL_GAP_FACTOR = 100.0
# largest frame-reconstruction residual of a resolved kernel certificate
KERNEL_FRAME_RESIDUAL = 1e-6
# largest |lambda_0| of a resolved normal spectrum, relative to the larger of
# 1 and its top computed eigenvalue
SPECTRUM_LOW_REL = 1e-8
# largest relative error of the triple eigenvalue 2k in a resolved normal
# spectrum (the acceptance bound on the coarser of its grids)
SPECTRUM_TRIPLE_REL = 1e-3
# smallest grid of the operator pack, whose scalar basis has degree n - 6 >= 2
PACK_MIN_N = 8
# LAPACK's real LU back-substitution, called by _ModalPack.saddle_solve
_GETRS, = sla.get_lapack_funcs(("getrs",), dtype=np.float64)


# ---------------------------------------------------------------------------
# modal basis


def _gegenbauer_table(jmax, lam, x):
    """Columns ``C_j^(lam)(x)`` for j = 0..jmax (stable upward recurrence)."""
    out = np.empty((x.size, jmax + 1))
    out[:, 0] = 1.0
    if jmax >= 1:
        out[:, 1] = 2.0 * lam * x
    for j in range(1, jmax):
        out[:, j + 1] = (2.0 * (j + lam) * x * out[:, j]
                         - (j + 2.0 * lam - 1.0) * out[:, j - 1]) / (j + 1.0)
    return out


def _vector_groups(M, odd, degree):
    """Column groups of the real vector block ``(M, odd)``: for each scalar
    order ``m`` it draws on, a complex direction ``d`` whose columns are the
    real parts of ``d P_{m,j}(s) e^{i m theta}``, j = 0..degree - m, so
    ``Re d`` on the cos modes and ``-Im d`` on the sin ones.  These complex
    fields turn with one rotation phase ``e^{i M theta}``."""
    r = np.sqrt(0.5)
    phase = (-1j)**odd                  # sin m theta = Re(-i e^{i m theta})
    plus, minus = np.array([1, 1j, 0]), np.array([1, -1j, 0])
    groups = []
    if M <= degree and (M > 0 or not odd):
        groups.append((M, phase * np.array([0, 0, 1])))         # e3 Y
    if M == 1:
        groups.append((0, phase * plus))                        # e1 / e2 Y
    elif 1 < M <= degree + 1:
        groups.append((M - 1, r * phase * plus))                # e+ at M - 1
    if M + 1 <= degree:
        groups.append((M + 1, r * phase * minus))               # e- at M + 1
    return groups


def _sum_into(dst, src, vals, a):
    """``out[dst] += vals * a[src]`` over the nonzeros of a square map, ``a``
    a vector or a matrix of column vectors, summed one column at a time
    (``np.add.at`` is four times slower on a 2-D target)."""
    out = np.zeros(np.shape(a))
    if out.ndim == 1:
        np.add.at(out, dst, vals * a[src])
    else:
        for j in range(out.shape[1]):
            np.add.at(out[:, j], dst, vals * a[src, j])
    return out


class _ModalPack:
    """Every per-(grid, k) operator array, cached by :func:`_pack`.

    The scalar basis (degree ``n - 6``, so ``n >=`` :data:`PACK_MIN_N`) is
    ``P_{m,j}(s) cos(m theta)`` and ``P_{m,j}(s) sin(m theta)``, orthonormal
    against the sphere measure; the vector basis is the scalar one times the
    coordinate directions, ordered component-major.  The pack keeps only
    the normalized profiles ``P`` and ``dP/ds`` per order ``m``;
    :meth:`synthesis` and :meth:`analysis` move between modal coefficients
    and nodal values by one profile product per order and an FFT in the
    azimuth, O(n^3) work where a nodal table of the basis would cost O(n^4).

    The operators are held as real blocks.  The base sphere is invariant
    under rotations about the z-axis and under ``y -> -y``, so the vector
    operator splits by total azimuthal order ``|M|`` and parity
    (``vector_blocks``) and the scalar normal pencil by order ``m`` and
    cos/sin (``scalar_blocks``); the two parities of an order share one
    matrix, held once with the ranges it acts on.  The orthogonal map from
    modal coefficients to the vector blocks' coordinates is held once, as
    its nonzeros (:meth:`to_blocks`, :meth:`from_blocks`).  The Gram
    weights depend on the polar angle alone and every integrand is a
    rotation-invariant density, so each block is assembled from the polar
    nodes at the single azimuth ``theta = 0`` (``meridian``,
    :func:`~cmc_hyp.chart.with_azimuths` with one azimuth), each weighted by
    its whole ring; no dense operator or nodal table of the basis is formed.
    The blocks, the tangent frame (the one shared copy), its modal
    tables and the corrector's per-block saddle factorizations are built on
    first use.  :func:`_pack` keeps one pack: every command and solve works
    at a single ``(n, k)``.  At n = 48 a pack holds about 9 MB after a
    certificate and a solve: 2.1 MB of vector blocks and their map, 2.1 MB
    of saddle factors, 2.1 MB of tangent frame and 1.4 MB of profiles.
    """

    def __init__(self, grid, params):
        if grid.n < PACK_MIN_N:
            raise ValueError(f"the operator pack needs a grid with "
                             f"n >= {PACK_MIN_N}, got n={grid.n}")
        degree = grid.n - 6
        self.grid = grid
        self.params = params
        self.degree = degree
        self.ok = grid.omega[:, 2] + params.k
        x, sins = grid.x, grid.sin_s
        ring = grid.node_shape(grid.weights)[:, 0]

        D = degree + 1
        # [m, 0 or 1, polar node, j]: P_{m,j} and dP_{m,j}/ds, normalized
        self._profiles = np.zeros((D, 2, grid.ns, D))
        for m in range(D):
            tab = _gegenbauer_table(degree - m, m + 0.5, x)
            P = (sins**m)[:, None] * tab
            dP_ds = -(sins**(m + 1))[:, None] * (grid.Dleg @ tab)
            if m > 0:
                dP_ds += (m * sins**(m - 1) * x)[:, None] * tab
            # sum of cos^2 (or sin^2) of m theta over the ring: ntheta for
            # m = 0, ntheta / 2 otherwise, since m < ntheta / 2
            nrm = np.sqrt((grid.ntheta / (2 if m else 1)) * (ring @ P**2))
            self._profiles[m, 0, :, :D - m] = P / nrm
            self._profiles[m, 1, :, :D - m] = dP_ds / nrm
        # modes are ordered by m, cos before sin, then j; _slots holds each
        # one's flat position in a (cos/sin, m, j) array, _modal the inverse
        self._slots = np.concatenate(
            [(odd * D + m) * D + np.arange(D - m)
             for m in range(D) for odd in ((0, 1) if m else (0,))])
        self.nmodes = self._slots.size
        self._modal = np.full((2, D, D), -1)
        self._modal.flat[self._slots] = np.arange(self.nmodes)
        # irfft weight of order m: a cos + b sin = Re((a - i b) e^{i m theta})
        self._fourier = np.full(D, grid.ntheta / 2.0)
        self._fourier[0] = grid.ntheta
        self.meridian = ch.with_azimuths(grid, 1)

    def _index(self, m, odd):
        """Indices of the scalar modes of order ``m``, cos (or sin if odd)."""
        return self._modal[odd, m, :self.degree - m + 1]

    def _meridian_modes(self, m):
        """Values and chart derivatives ``(d/dx, d/dy)`` of the orthonormal
        scalar modes ``P_{m,j}(s) e^{i m theta}`` of order ``m`` at the
        meridian nodes."""
        P, dP_ds = self._profiles[m, :, :, :self.degree - m + 1]
        return (P,) + ch.polar_to_chart(self.meridian, dP_ds, 1j * m * P)

    @property
    def mode_degrees(self):
        """Polynomial degree ``m + j`` of each scalar mode."""
        D = self.degree + 1
        _, m, j = np.unravel_index(self._slots, (2, D, D))
        return m + j

    def tail_ratio(self, coeffs):
        """The largest modal vector coefficient of degree in the top tenth
        of the pack's, relative to the largest overall (0 for the zero
        field): near roundoff for a resolved field, large for an
        under-resolved one."""
        coeffs = np.abs(coeffs.reshape(3, self.nmodes))
        top = coeffs.max()
        tail = coeffs[:, self.mode_degrees >= 0.9 * self.degree]
        return float(tail.max() / top) if top > 0 else 0.0

    @cached_property
    def vector_blocks(self):
        """``(blocks, coords)``: each entry ``(M, H, spans)`` of ``blocks``
        is the weak matrix ``H`` of ``r^2 J'(U)`` on the real vector modes of
        total azimuthal order ``M`` and the ranges of block coordinates it
        acts on, which follow each other: for ``M > 0`` even, then odd under
        ``y -> -y`` (the rotation by ``pi / 2M`` takes one onto the other),
        and one entry per parity for ``M = 0``.  The block columns are
        ``e3 Y`` for a scalar mode ``Y`` of order ``M``, ``e1 Y`` or ``e2 Y``
        for ``Y`` of order 0 (``M = 1``), and ``(Y e1 -+ Y' e2) / sqrt 2``
        for the cos/sin pair ``(Y, Y')`` of order ``M -+ 1``;
        ``coords = (rows, cols, vals)`` holds the nonzeros of this
        orthogonal map from modal coefficients to block coordinates."""
        nm, deg = self.nmodes, self.degree
        blocks, rows, cols, vals, at = [], [], [], [], 0
        for M in range(deg + 2):
            for odd in (0, 1):
                groups = _vector_groups(M, odd, deg)
                size = sum(deg - m + 1 for m, _ in groups)
                if not (odd and M):
                    blocks.append((M, self._vector_gram(M, groups, size), []))
                blocks[-1][2].append(slice(at, at + size))
                for m, d in groups:
                    J = deg - m + 1
                    for comp in range(3):
                        for sin, coef in enumerate((d[comp].real,
                                                    -d[comp].imag)):
                            if coef and (m or not sin):   # sin 0 theta = 0
                                rows.append(at + np.arange(J))
                                cols.append(comp * nm + self._index(m, sin))
                                vals.append(np.full(J, coef))
                    at += J
        coords = tuple(np.concatenate(a) for a in (rows, cols, vals))
        return blocks, coords

    def to_blocks(self, c):
        """Block coordinates of modal vector coefficients (or columns)."""
        rows, cols, vals = self.vector_blocks[1]
        return _sum_into(rows, cols, vals, c)

    def from_blocks(self, x):
        """Modal vector coefficients of block coordinates (or columns)."""
        rows, cols, vals = self.vector_blocks[1]
        return _sum_into(cols, rows, vals, x)

    def _vector_gram(self, M, groups, size):
        """One vector block's matrix, the sum of five terms
        ``coef * B^T diag(weight) B``: the two first-order tangential
        expressions, then the scalar normal block on the omega components
        (two derivative parts and the mass part).  The block's columns are
        taken as their complex fields of rotation phase ``e^{i M theta}``
        (:func:`_vector_groups`) at the meridian; terms 1 and 2 make up
        ``(dox + i doy) . (ux + i uy)``, terms 3 and 4 a chart 2-vector and
        term 5 a scalar, so each one's density turns with that phase."""
        k, mer = self.params.k, self.meridian
        w, mu, om = mer.weights, mer.mu, mer.omega
        dox, doy = mer.domega_dx, mer.domega_dy
        ok = om[:, 2] + k
        # value/dx/dy, component, meridian node, column
        U = np.zeros((3, 3, w.size, size), complex)
        start = 0
        for m, d in groups:
            J = self.degree - m + 1
            for kind, t in enumerate(self._meridian_modes(m)):
                U[kind, :, :, start:start + J] = d[:, None, None] * t
            start += J
        v, ux, uy = U
        dot = lambda a, b: np.einsum("pc,cpj->pj", a, b)
        Ctan, C2 = w / (mu**4 * ok**2), w / (mu**2 * ok**2)
        return self._meridian_gram(M, (
            (dot(dox, ux) - dot(doy, uy), Ctan, 1.0),
            (dot(doy, ux) + dot(dox, uy), Ctan, 1.0),
            (dot(om, ux) + dot(dox, v), C2, 1.0),
            (dot(om, uy) + dot(doy, v), C2, 1.0),
            (dot(om, v), w / ok**3, -2.0 * k),
        ))

    @staticmethod
    def _meridian_gram(M, terms):
        """The sphere integral ``sum coef * B^T diag(weight) B`` of terms
        ``(B, weight, coef)`` whose columns ``B`` are meridian values of
        complex fields of rotation phase ``e^{i M theta}``, standing for
        their real parts, with each node's ``weight`` its whole ring's.
        Over a ring, ``Re(a) Re(b)`` averages to ``Re(a conj(b)) / 2`` for
        ``M > 0``, since ``a b`` turns with ``e^{2 i M theta}``; for
        ``M = 0`` the real parts' own density is invariant."""
        B = np.concatenate([b for b, _, _ in terms])
        weight = np.concatenate([coef * wt for _, wt, coef in terms])
        if M:
            B = np.concatenate([B.real, B.imag])
            weight = 0.5 * np.concatenate([weight, weight])
        else:
            B = B.real
        G = B.T @ (weight[:, None] * B)
        return 0.5 * (G + G.T)

    @cached_property
    def scalar_blocks(self):
        """``[(m, K, B, spans)]``: the scalar normal pencil (stiffness ``K``
        and the ``(omega3+k)^-3`` weighted mass ``B``) on the scalar modes of
        order ``m``, with the ranges of modal indices it acts on: the cos
        modes, then for ``m > 0`` the sin modes, which are their rotations
        by ``pi / 2m``."""
        mer, blocks, at = self.meridian, [], 0
        w, mu = mer.weights, mer.mu
        ok = mer.omega[:, 2] + self.params.k
        C2 = w / (mu**2 * ok**2)
        for m in range(self.degree + 1):
            p0, px, py = self._meridian_modes(m)
            K = self._meridian_gram(m, ((px, C2, 1.0), (py, C2, 1.0)))
            B = self._meridian_gram(m, ((p0, w / ok**3, 1.0),))
            J = self.degree - m + 1
            spans = [slice(at + i * J, at + (i + 1) * J)
                     for i in range(2 if m else 1)]     # sin 0 theta = 0
            blocks.append((m, K, B, spans))
            at = spans[-1].stop
        return blocks

    @cached_property
    def frame(self):
        return tangent_frame(self.params, self.grid)

    @cached_property
    def frame_modal(self):
        return self.project_vector(np.stack(self.frame.generators()))

    @cached_property
    def star_rows(self):
        ok, om = self.ok, self.grid.omega
        rows = [self.project_vector(
            t.values[None] / ok[None, :, None]**2) for t in self.frame.tau]
        rows += [self.project_vector(
            ((self.frame.gamma[:, ell] / ok**3)[:, None] * om)[None])
            for ell in range(3)]
        return np.concatenate(rows, axis=0)

    @cached_property
    def saddle_factors(self):
        """The corrector's saddle matrix ``[[H, -F^T], [F, 0]]`` (``F`` the
        nine frame rows) factorized block by block, as entries
        ``(span, lu, gens)``, each on a range ``span`` of block coordinates.

        Every frame generator lies in one range of ``vector_blocks`` (to
        1e-12 relative, or :class:`NumericsError` is raised), which is
        bordered by its own generators ``gens``; the parity ranges of a
        block without generators share one unbordered factorization and are
        solved together."""
        Y, blocks = self.to_blocks(self.frame_modal.T), self.vector_blocks[0]
        starts = np.array([s.start for _, _, ss in blocks for s in ss])
        norms = np.add.reduceat(Y**2, starts)
        main = np.argmax(norms, axis=0)
        for g, b in enumerate(main):
            off = np.sum(np.delete(norms[:, g], b))
            if off > 1e-24 * norms[b, g]:
                raise NumericsError(
                    f"frame generator {g} spreads over several operator "
                    f"blocks ({np.sqrt(off / norms[b, g]):.1e} relative "
                    "off its main one)")
        owner, entries = starts[main], []
        for _, H, ss in blocks:
            gens = [np.flatnonzero(owner == s.start).tolist() for s in ss]
            if not any(gens):
                entries.append((slice(ss[0].start, ss[-1].stop),
                                sla.lu_factor(H), []))
                continue
            for s, gs in zip(ss, gens):
                KKT = np.block([[H, -Y[s, gs]],
                                [Y[s, gs].T, np.zeros((len(gs),) * 2)]])
                entries.append((s, sla.lu_factor(KKT), gs))
        return entries

    def saddle_solve(self, r, s):
        """``(c, m)`` with ``H c - F^T m = r`` and ``F c = s``, ``H`` the
        vector operator of ``vector_blocks`` and ``F`` the nine frame rows:
        one small solve per entry of ``saddle_factors``, each a direct call
        of LAPACK ``getrs`` on the entry's LU factors (the same arithmetic
        as ``scipy.linalg.lu_solve``, without its per-call argument
        checks, which cost more than the solves at these sizes)."""
        x = self.to_blocks(r)
        m = np.zeros(len(s))
        for span, lu, gens in self.saddle_factors:
            size = lu[0].shape[0] - len(gens)
            rhs = x[span].reshape(-1, size).T
            if gens:
                rhs = np.concatenate([rhs, s[gens, None]])
            sol, info = _GETRS(*lu, rhs)
            if info:
                raise ValueError(f"getrs: illegal argument {-info}")
            x[span] = sol[:size].T.ravel()
            if gens:
                m[gens] = sol[size:, 0]
        return self.from_blocks(x), m

    # -- transforms between modal coefficients and nodal values --------------

    def synthesis(self, coeffs, jet=False):
        """Nodal values ``(N, ...)`` of scalar modal coefficients
        ``(nmodes, ...)``; with ``jet`` also their exact chart derivatives
        ``d/dx`` and ``d/dy``."""
        grid, D = self.grid, self.degree + 1
        coeffs = np.asarray(coeffs, dtype=float)
        batch = coeffs.shape[1:]
        B = int(np.prod(batch))
        R = np.zeros((2 * D * D, B))
        R[self._slots] = coeffs.reshape(-1, B)
        # (m, j, cos/sin x batch) against the profiles of each order m
        R = R.reshape(2, D, D, B).transpose(1, 2, 0, 3).reshape(D, D, 2 * B)
        tables = self._profiles if jet else self._profiles[:, :1]
        X = tables.reshape(D, -1, D) @ R
        X = (X[..., :B] - 1j * X[..., B:]) * self._fourier[:, None, None]
        X = X.reshape(D, -1, grid.ns, B)            # m, value/ds, node, batch
        if jet:
            X = np.concatenate([X, 1j * np.arange(D)[:, None, None, None]
                                * X[:, :1]], axis=1)
        F = np.zeros((X.shape[1], grid.ns, grid.ntheta // 2 + 1, B), complex)
        F[:, :, :D] = X.transpose(1, 2, 0, 3)
        out = np.fft.irfft(F, n=grid.ntheta, axis=2).reshape(
            (-1, grid.size) + batch)
        if not jet:
            return out[0]
        return (out[0],) + ch.polar_to_chart(grid, out[1], out[2])

    def analysis(self, values):
        """Modal coefficients ``(nmodes, ...)`` of nodal values ``(N, ...)``:
        the quadrature inner products with the orthonormal scalar modes, the
        adjoint of :meth:`synthesis`."""
        grid, D = self.grid, self.degree + 1
        values = np.asarray(values, dtype=float)
        batch = values.shape[1:]
        B = int(np.prod(batch))
        wv = grid.weights[:, None] * values.reshape(grid.size, B)
        G = np.fft.rfft(wv.reshape(grid.ns, grid.ntheta, B), axis=1)[:, :D]
        G = G.transpose(1, 0, 2)                      # m, node, batch
        G = np.concatenate([G.real, -G.imag], axis=2)
        R = np.swapaxes(self._profiles[:, 0], 1, 2) @ G   # m, j, cos/sin x B
        R = R.reshape(D, D, 2, B).transpose(2, 0, 1, 3).reshape(-1, B)
        return R[self._slots].reshape((self.nmodes,) + batch)

    def project_vector(self, fields):
        """Coefficients of vector nodal data ``(batch, N, 3)``, comp-major."""
        fields = np.asarray(fields)
        single = fields.ndim == 2
        if single:
            fields = fields[None]
        out = self.analysis(np.moveaxis(fields, 1, 0))    # nmodes, batch, 3
        out = out.transpose(1, 2, 0).reshape(fields.shape[0], -1)
        return out[0] if single else out

    def nodal_vector(self, coeffs):
        """Nodal (N, 3) values of modal vector coefficients."""
        return self.synthesis(coeffs.reshape(3, self.nmodes).T)

    def nodal_vector_jet(self, coeffs):
        """Nodal values and exact first derivatives of a modal vector field."""
        return self.synthesis(coeffs.reshape(3, self.nmodes).T, jet=True)

    def nodal_vector_laplacian(self, coeffs):
        """Nodal chart Laplacian ``d_xx + d_yy`` of a modal vector field.
        Each mode is a spherical harmonic of degree ``l = m + j``, and the
        conformal chart has ``d_xx + d_yy = mu^2 Delta_S2``, so this is
        ``mu^2`` times the synthesis of ``-l(l + 1)`` times the
        coefficients: one transform, exact as the grid integrates the
        pack's degrees exactly."""
        deg = self.mode_degrees
        lap = -(deg * (deg + 1.0))[:, None] * coeffs.reshape(3, self.nmodes).T
        return self.grid.mu[:, None] ** 2 * self.synthesis(lap)


@lru_cache(maxsize=1)
def _pack(n, k):
    return _ModalPack(ch.build_grid(n), make_params(k))


def operator_pack(grid, params):
    return _pack(grid.n, params.k)


# ---------------------------------------------------------------------------
# strong (collocation) applications, independent of the modal pack


def apply_strong(grid, k, values, dx, dy, lap):
    """Nodal values of ``r^2 J'(U) phi`` from the field's values, chart
    derivatives and chart Laplacian."""
    mu, om = grid.mu, grid.omega
    dox, doy = grid.domega_dx, grid.domega_dy
    ok = om[:, 2] + k
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    out = -lap / ok[:, None] ** 2 \
        + (2.0 * mu**2 / ok**3)[:, None] * (x[:, None] * dx + y[:, None] * dy)
    grad3 = dx[:, 2, None] * dox + dy[:, 2, None] * doy
    gdot = np.einsum("ij,ij->i", dx, dox) + np.einsum("ij,ij->i", dy, doy)
    bracket = grad3.copy()
    bracket[:, 2] -= gdot
    bracket += (mu**2 * values[:, 2])[:, None] * om
    bracket += k * (np.cross(dx, doy) + np.cross(dox, dy))
    out += (2.0 / ok**3)[:, None] * bracket
    return out


def apply_strong_scalar(grid, k, eta, dx, dy, lap):
    """Nodal values of the scalar normal operator times ``r^2``."""
    mu = grid.mu
    ok = grid.omega[:, 2] + k
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    return -lap / ok**2 + 2.0 * mu**2 / ok**3 * (x * dx + y * dy) \
        - 2.0 * k * mu**2 / ok**3 * eta


# ---------------------------------------------------------------------------
# residual of the full nonlinear operator


def j_residual(u, params, curvature=None, eps=0.0):
    """Pointwise residual of the prescribed-curvature system at ``u``.

    ``curvature`` is the spatially varying part (a
    :class:`~cmc_hyp.phi_expr.PrescribedFunction`); the total curvature is
    ``k + eps * curvature``.  The system uses the surface's
    second derivatives only through its chart Laplacian
    (:func:`~cmc_hyp.chart.laplacian`): exact on fields sampled from analytic
    surfaces, spectral on everything else.  The result vanishes (to
    discretization accuracy) exactly at solutions.
    """
    if not u.is_vector:
        raise ValueError("the residual needs a 3-vector surface field")
    u = ch.differentiate(u)
    return SphereField(u.grid, _j_nodal(
        u.values, u.dx, u.dy, ch.laplacian(u), params, curvature, eps))


def _j_nodal(values, dx, dy, lap, params, curvature, eps):
    """Nodal residual of the prescribed-curvature system from a surface's
    values, chart derivatives ``dx``, ``dy`` and chart Laplacian ``lap``."""
    u3 = positive_heights(values)
    k = params.k
    K = np.full(u3.shape, k)
    if curvature is not None and eps != 0.0:
        K = k + eps * curvature.evaluate(values)
    grad3 = dx[:, 2, None] * dx + dy[:, 2, None] * dy
    norm2 = np.einsum("ij,ij->i", dx, dx) + np.einsum("ij,ij->i", dy, dy)
    cross = np.cross(dx, dy)
    out = -lap / u3[:, None] ** 2 + 2.0 * grad3 / u3[:, None] ** 3
    out[:, 2] -= norm2 / u3**3
    out += (2.0 * K / u3**3)[:, None] * cross
    return out


# ---------------------------------------------------------------------------
# assembled linearization


@dataclass
class LinearizedSystem:
    """The linearized operator at a sphere of the family, in both guises.

    ``apply_modal`` applies the symmetric Galerkin matrix of the bilinear
    form ``(phi, psi) -> integral J'(U_q) phi . psi dz`` over the
    orthonormal modal vector basis (so the modal mass is the identity), one
    symmetry block of the pack (``pack.vector_blocks``) at a time.
    ``scale`` is the factor ``1 / (q3^2 r^2)`` that takes the pack's
    ``r^2``-normalized operator to the one at the base point.
    ``apply_direct`` evaluates the strong operator through collocation,
    independently of the Galerkin route: the vector operator on vector
    fields, the scalar normal one on scalar fields.
    """

    grid: ch.SphereGrid
    params: object
    pack: _ModalPack
    scale: float

    @property
    def size(self):
        return 3 * self.pack.nmodes

    def apply_modal(self, c):
        """The Galerkin matrix times modal coefficients ``c``, a vector or
        a matrix of column vectors, applied one block at a time."""
        x = self.pack.to_blocks(c)
        for _, H, spans in self.pack.vector_blocks[0]:
            for s in spans:
                x[s] = H @ x[s]
        return self.scale * self.pack.from_blocks(x)

    def form(self, f, g):
        """The bilinear form ``integral J'(U_q) f . g dz`` via collocation."""
        jf = self.apply_direct(f)
        if f.is_vector:
            integrand = np.einsum("ij,ij->i", jf.values, g.values)
        else:
            integrand = jf.values * g.values
        return float(np.sum(self.grid.weights / self.grid.mu**2 * integrand))

    def apply_direct(self, f):
        """Strong collocation of ``J'(U_q)`` on a field (independent route)."""
        f = ch.differentiate(f)
        strong = apply_strong if f.is_vector else apply_strong_scalar
        vals = strong(self.grid, self.params.k, f.values, f.dx, f.dy,
                      ch.laplacian(f))
        return SphereField(self.grid, self.scale * vals)


def assemble_linearized(params, q, grid):
    """Assemble the linearized system at the sphere about ``q``.

    Translating the base point only rescales the operator by ``q3^-2``, so
    the operator blocks are built once per ``(grid, k)``, here on first use,
    and shared between base points.
    """
    q = HyperbolicPoint.of(q)
    pack = operator_pack(grid, params)
    pack.vector_blocks
    scale = 1.0 / (q.p3**2 * params.r**2)
    return LinearizedSystem(grid=grid, params=params, pack=pack, scale=scale)


def normal_operator(params, grid):
    """The system at the base point ``(0, 0, 1)``; its :meth:`apply_direct`
    on a scalar ``eta`` is the operator on normal perturbations
    ``eta * omega``."""
    return assemble_linearized(params, HyperbolicPoint(0.0, 0.0, 1.0), grid)


# ---------------------------------------------------------------------------
# quadratic form split


@dataclass
class QuadraticFormCheck:
    form_value: float       # integral J'(U) psi . psi dz, direct route
    explicit_value: float   # the nonnegative first-order integral
    difference: float


def tangential_quadratic_form(psi, params):
    """Evaluate both sides of the tangential quadratic-form identity.

    ``psi`` must be pointwise orthogonal to ``omega``.  The left side applies
    the strong operator and integrates against ``psi``; the right side is the
    manifestly nonnegative integral of the two squared first-order
    expressions.  Both are returned together with their difference.
    """
    grid = psi.grid
    scale = max(np.max(np.abs(psi.values)), 1e-300)
    defect = np.max(np.abs(np.einsum("ij,ij->i", psi.values, grid.omega))) / scale
    if defect > 1e-10:
        raise ValueError(
            f"field is not pointwise orthogonal to omega (defect {defect:.2e})")
    psi = ch.differentiate(psi)
    strong = apply_strong(grid, params.k, psi.values, psi.dx, psi.dy,
                          ch.laplacian(psi))
    form = float(np.sum(grid.weights / grid.mu**2
                        * np.einsum("ij,ij->i", strong, psi.values))) / params.r**2
    s1 = (np.einsum("ij,ij->i", psi.dx, grid.domega_dx)
          - np.einsum("ij,ij->i", psi.dy, grid.domega_dy))
    s2 = (np.einsum("ij,ij->i", psi.dx, grid.domega_dy)
          + np.einsum("ij,ij->i", psi.dy, grid.domega_dx))
    ok = grid.omega[:, 2] + params.k
    explicit = float(np.sum(grid.weights * (s1**2 + s2**2)
                            / (grid.mu**4 * ok**2))) / params.r**2
    return QuadraticFormCheck(form, explicit, form - explicit)


# ---------------------------------------------------------------------------
# spectra


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    multiplicities: list
    residuals: np.ndarray
    k: float
    grid_n: int
    orders: list            # azimuthal orders m, ascending within a cluster

    def cluster_starts(self):
        out, i = [], 0
        for m in self.multiplicities:
            out.append(float(self.eigenvalues[i]))
            i += m
        return out

    def to_json(self):
        """The report as a JSON document (a dict of plain values)."""
        return {
            "k": self.k,
            "grid_n": self.grid_n,
            "eigenvalues": self.eigenvalues.tolist(),
            "multiplicities": self.multiplicities,
            "residuals": self.residuals.tolist(),
            "cluster_starts": self.cluster_starts(),
            "orders": self.orders,
        }

    def verdict(self):
        """The certificate's numbers and whether they pass: the continuum
        spectrum starts ``0, 2k (x3)``, so a lowest eigenvalue off zero, a
        split triple or a far one means the grid does not resolve the
        operator at this k."""
        lam, two_k = self.eigenvalues, 2.0 * self.k
        low = float(lam[0])
        triple = float(np.max(np.abs(lam[1:4] - two_k)))
        return {
            "low_eigenvalue": low,
            "triple_at_2k_error": triple,
            "gap_after_triple": float(lam[4] - two_k),
            "resolved": bool(
                abs(low) <= SPECTRUM_LOW_REL * max(1.0, lam[-1])
                and self.multiplicities[:2] == [1, 3]
                and triple / two_k <= SPECTRUM_TRIPLE_REL),
        }


def spectrum_normal(params, grid, count=8):
    """Lowest eigenpairs of the weighted eigenproblem on normal perturbations.

    Solves the modal pencil (stiffness against the ``(omega3+k)^-3`` weighted
    mass) on each azimuthal block of the pack and merges the block spectra,
    returning a :class:`SpectrumReport` of the ascending eigenvalues, their
    clustered multiplicities, each pair's relative residual, and the
    azimuthal orders, ascending within each cluster.
    """
    if count < 5:
        raise ValueError("ask for at least 5 eigenvalues")
    pack = operator_pack(grid, params)
    if count > pack.nmodes:
        raise ValueError("grid too coarse for that many eigenvalues")
    pairs = []
    for m, K, B, spans in pack.scalar_blocks:
        top = min(count, K.shape[0])
        vals, vecs = sla.eigh(K, B, subset_by_index=[0, top - 1])
        solved = []
        for lam, v in zip(vals, vecs.T):
            Bv = B @ v
            solved.append((lam, m, np.linalg.norm(K @ v - lam * Bv)
                           / ((1.0 + abs(lam)) * np.linalg.norm(Bv))))
        pairs += solved * len(spans)
    pairs.sort(key=lambda p: p[0])
    vals, orders, res = (np.array(c) for c in zip(*pairs[:count]))
    if np.any(res > 1e-7):
        raise ConvergenceError(
            f"eigenpair residual {res.max():.2e} above 1e-07")
    scale = max(1.0, abs(vals[-1]))
    mult, i = [], 0
    while i < count:
        j = i
        while j + 1 < count and vals[j + 1] - vals[j] <= 1e-6 * scale:
            j += 1
        mult.append(j - i + 1)
        orders[i:j + 1].sort()      # roundoff must not order the labels
        i = j + 1
    return SpectrumReport(eigenvalues=vals, multiplicities=mult, residuals=res,
                          k=params.k, grid_n=grid.n, orders=orders.tolist())


# ---------------------------------------------------------------------------
# kernel extraction


@dataclass
class KernelReport:
    dimension: int
    basis: list
    gap: float
    singular_values: np.ndarray
    orders: list            # azimuthal order |M| of each basis field

    def to_json(self):
        """The report as a JSON document; the singular values are cut to
        the smallest sixteen, the orders counted per ``|M|``."""
        return {
            "dimension": self.dimension,
            "gap": self.gap,
            "singular_values": self.singular_values[:16].tolist(),
            "orders": {str(m): self.orders.count(m)
                       for m in sorted(set(self.orders))},
        }

    def frame_residual(self, system):
        """Worst relative residual of reconstructing the nine frame
        generators (modal coefficients) from this kernel basis by least
        squares; it is at roundoff level when the kernel is the frame's span.
        """
        pack = system.pack
        B = np.stack([pack.project_vector(b.values) for b in self.basis],
                     axis=1)
        fm = pack.frame_modal.T
        coef = np.linalg.lstsq(B, fm, rcond=None)[0]
        return float(np.max(np.linalg.norm(fm - B @ coef, axis=0)
                            / np.linalg.norm(fm, axis=0)))

    def verdict(self, system):
        """The certificate's frame residual and whether it passes: the nine
        generators are exact kernel elements of the continuum operator and
        span its kernel, so a smaller kernel, or one that misses the frame,
        means the grid does not resolve the operator at this k, and a
        larger one would be a degeneracy."""
        resid = self.frame_residual(system)
        return {"frame_reconstruction_residual": resid,
                "resolved": self.dimension == 9
                and resid <= KERNEL_FRAME_RESIDUAL}


def kernel(system, gap_factor=KERNEL_GAP_FACTOR):
    """Numerical kernel of the system by singular-value gap detection.

    The singular values of the (symmetric) modal matrix, the union of its
    block spectra, are scanned in ascending order; the kernel dimension is
    declared at the largest ratio jump within the smallest sixteen, which
    must reach ``gap_factor`` (the report's ``gap`` is that ratio),
    otherwise :class:`AmbiguousKernelError` is raised.  A ratio's
    denominator is at least the roundoff level of its own block's largest
    singular value: blocks leave exact zeros at different roundoff levels
    (down to 1e-31 for the rotation about the z-axis), and their scales
    differ by many decades towards k = 1 (at k = 1.01, n = 128 the largest
    singular value is 5.9e16), so one floor for the whole operator would
    lie above the whole jump from the kernel to the range.  The returned
    nodal basis is orthonormal in the mass inner product: the in-window
    block eigenvectors, once per parity range, labelled by block order.
    """
    pack, (blocks, _) = system.pack, system.pack.vector_blocks
    eigs = [sla.eigh(system.scale * H) for _, H, _ in blocks]
    sigma = [np.abs(w) for (_, _, spans), (w, _) in zip(blocks, eigs)
             for _ in spans]
    floored = np.concatenate(
        [np.maximum(v, np.finfo(float).eps * v.max()) for v in sigma])
    sigma = np.concatenate(sigma)
    order = np.argsort(sigma)
    sigma, floored = sigma[order], floored[order]
    window = min(16, sigma.size - 1)
    ratios = sigma[1:window + 1] / floored[:window]
    split = int(np.argmax(ratios))
    if ratios[split] < gap_factor:
        raise AmbiguousKernelError(sigma[split], sigma[split + 1], gap_factor)
    dim = split + 1
    cut = max(np.sqrt(sigma[dim - 1] * sigma[dim]), 1e-3 * sigma[dim])
    basis, orders = [], []
    for (M, _, spans), (vals, vecs) in zip(blocks, eigs):
        for s in spans:
            for v in vecs[:, np.abs(vals) <= cut].T:
                x = np.zeros(system.size)
                x[s] = v
                basis.append(SphereField(
                    system.grid, pack.nodal_vector(pack.from_blocks(x))))
                orders.append(M)
    if len(basis) != dim:
        raise AmbiguousKernelError(sigma[dim - 1], sigma[dim], gap_factor)
    return KernelReport(dimension=dim, basis=basis, gap=float(ratios[split]),
                        singular_values=sigma, orders=orders)


# ---------------------------------------------------------------------------
# constrained (bordered) solve


def solve_orthogonal(system, v):
    """Invert the linearized operator against ``v mu^2`` away from its kernel.

    ``v`` must be orthogonal (in the sphere-measure inner product) to the
    nine tangent generators.  The pack's block-bordered
    :meth:`~_ModalPack.saddle_solve` inverts the operator off its kernel (the
    frame span); one 9 x 9 solve then moves the result along the frame until
    the nine weighted (star-product) constraint rows vanish, which pins it
    uniquely.  The returned field carries the strong-equation residual as
    ``direct_residual``.
    """
    grid, pack = system.grid, system.pack
    F, S = pack.frame_modal, pack.star_rows
    vmodal = pack.project_vector(v.values)
    coef = np.linalg.solve(F @ F.T, F @ vmodal)
    vnorm = np.linalg.norm(vmodal)
    if vnorm > 0 and np.linalg.norm(coef) > 1e-8 * max(1.0, vnorm):
        raise ValueError(
            f"right-hand side has a tangent component of size "
            f"{np.linalg.norm(coef):.2e}; project it away first")
    c, _ = pack.saddle_solve(vmodal / system.scale, np.zeros(9))
    c -= F.T @ np.linalg.solve(S @ F.T, S @ c)
    phi = SphereField(grid, *pack.nodal_vector_jet(c))
    resid = system.apply_direct(phi).values - v.values * grid.mu[:, None] ** 2
    phi.direct_residual = float(np.max(np.abs(resid)))
    return phi
