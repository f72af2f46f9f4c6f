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
# 1 and its fifth eigenvalue, the first past the gap
SPECTRUM_LOW_REL = 1e-8
# largest relative error of the triple eigenvalue 2k in a resolved normal
# spectrum (the acceptance bound on the coarser of its grids)
SPECTRUM_TRIPLE_REL = 1e-3
# fewest eigenvalues of a normal spectrum: 0, the triple 2k and the first
# past the gap
SPECTRUM_MIN_COUNT = 5
# smallest grid of the operator pack, whose scalar basis has degree n - 6 >= 2
PACK_MIN_N = 8
# the singular values a kernel certificate's gap search reads: the ratios
# of the smallest seventeen
KERNEL_WINDOW = 17
# relative margin of a certificate's block exclusion (:func:`_rules_out`):
# a block is left unsolved once K - SKIP_MARGIN * bound * B factors.  A
# factorization of S that runs to completion in floating point proves only
# S + E positive definite, with ||E||_2 <= (size + 1) (eps / 2) trace(S)
# (Higham 2002, Thm 10.5, whose |R^T| |R| has norm at most trace(R^T R)),
# and the excess (SKIP_MARGIN - 1) * bound of the shift over the bound
# must cover that, and the rounding of S itself, for every eigenvalue to
# lie above the bound.  So a block is only left unsolved where (size + 1)
# eps trace(S) stays below that excess (times the smallest eigenvalue of
# B); at n <= 64, k >= 1.02 it does by more than four decades, and at
# k = 1.01, n = 128, where the blocks' largest eigenvalues reach 5.9e16,
# half the blocks fail it and are solved.
SKIP_MARGIN = 1.01


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


def _map_blocks(block_map, a, transpose=False):
    """The orthogonal block map applied to ``a``, a vector or a matrix of
    column vectors (with ``transpose``, its transpose).  Every coordinate
    sums one or two terms ``v * a[i]``: a first term gathered in
    coordinate order, plus 0.0, and second terms added at the
    coordinates that have one, ``(0.0 + p1) + p2`` as ``np.add.at``
    sums; added to 0.0 first, two terms give the same bits in either
    order, signed zeros included.  See
    :attr:`_ModalBasis.vector_layout`."""
    (src, vals), (rows, cols, vals2) = block_map[transpose], block_map[2]
    shape = (-1,) + (1,) * (np.ndim(a) - 1)
    out = vals.reshape(shape) * a[src]
    out += 0.0
    dst, src = (cols, rows) if transpose else (rows, cols)
    out[dst] += vals2.reshape(shape) * a[src]
    return out


class _ModalBasis:
    """The part of the operator pack that depends on the grid alone, shared
    by the packs of every curvature on one grid and cached by
    :func:`_basis`: the normalized profiles ``P`` and ``dP/ds`` per order
    (``_profiles``), the mode slots (``_slots``, ``_modal``), the
    transforms' azimuthal weights (``_fourier``), the modes' degrees
    (``mode_degrees``), the meridian grid, each order's meridian mode table
    (``meridian_modes``) and the vector blocks' layout with the per-node
    factors of their Gram terms (``vector_layout``).
    Every array is read-only.
    """

    def __init__(self, grid):
        if grid.n < PACK_MIN_N:
            raise ValueError(f"the operator pack needs a grid with "
                             f"n >= {PACK_MIN_N}, got n={grid.n}")
        degree = grid.n - 6
        self.grid = grid
        self.degree = degree
        x, sins = grid.x, grid.sin_s
        ring = grid.node_shape(grid.weights)[:, 0]

        D = degree + 1
        # [m, 0 or 1, polar node, j]: P_{m,j} and dP_{m,j}/ds, normalized
        self._profiles = np.zeros((D, 2, grid.n, D))
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
        # one's flat position in an (m, j, cos/sin) array, the layout of the
        # transforms' profile products, and _modal the inverse
        self._slots = np.concatenate(
            [(m * D + np.arange(D - m)) * 2 + odd
             for m in range(D) for odd in ((0, 1) if m else (0,))])
        self.nmodes = self._slots.size
        self._modal = np.full((D, D, 2), -1)
        self._modal.flat[self._slots] = np.arange(self.nmodes)
        # irfft weight of order m: a cos + b sin = Re((a - i b) e^{i m theta})
        self._fourier = np.full(D, grid.ntheta / 2.0)
        self._fourier[0] = grid.ntheta
        m, j, _ = np.unravel_index(self._slots, (D, D, 2))
        self.mode_degrees = m + j
        self.meridian = ch.with_azimuths(grid, 1)
        self.meridian_modes = tuple(self._meridian_table(m) for m in range(D))
        ch._freeze(self._profiles, self._slots, self._modal, self._fourier,
                   self.mode_degrees,
                   *(t for tables in self.meridian_modes for t in tables))

    def _index(self, m, odd):
        """Indices of the scalar modes of order ``m``, cos (or sin if odd)."""
        return self._modal[m, :self.degree - m + 1, odd]

    def _meridian_table(self, m):
        """Values and chart derivatives ``(d/dx, d/dy)`` of the orthonormal
        scalar modes ``P_{m,j}(s) e^{i m theta}`` of order ``m`` at the
        meridian nodes.  At ``theta = 0`` the chart's ``d/dx`` is the radial
        derivative ``mu d/ds`` and ``d/dy`` the angular one ``(1/rho)
        d/dtheta``, which takes ``e^{i m theta}`` to ``i m``."""
        P, dP_ds = self._profiles[m, :, :, :self.degree - m + 1]
        mer = self.meridian
        return (P, mer.mu[:, None] * dP_ds,
                (1.0 / mer.rho)[:, None] * (1j * m * P))

    @cached_property
    def vector_layout(self):
        """``(blocks, block_map)``: each entry ``(M, groups, spans)`` of
        ``blocks`` is the column groups of the vector block of total
        azimuthal order ``M`` and the ranges of block coordinates it acts
        on (see :attr:`_ModalPack.vector_blocks`), a group ``(m, factors)``
        for each ``(m, d)`` of :func:`_vector_groups`, with ``factors`` the
        per-node dot products ``omega . d``, ``domega_dx . d`` and
        ``domega_dy . d`` at the meridian as columns, one copy per
        direction ``d``.  ``block_map`` holds the nonzeros of the
        orthogonal map from modal coefficients to block coordinates
        (:func:`_map_blocks`).  Every block coordinate and every
        coefficient has one or two nonzeros, a pair spanning a 2 x 2
        rotation, so the nonzeros first in both their row and their column,
        and those first in neither, hit every row and every column once;
        they are held as ``(cols, vals)`` in row order and ``(rows, vals)``
        in column order, and the rest as ``(rows, cols, vals)``, at most one
        per row and column.  Built on first use, so a grid that only ever
        solves the scalar pencil skips it."""
        nm, deg, mer = self.nmodes, self.degree, self.meridian
        blocks, at, factors, hit = [], 0, {}, set()
        parts = ([], [], []), ([], [], [])      # rows, cols, vals of each
        for M in range(deg + 2):
            for odd in (0, 1):
                groups = _vector_groups(M, odd, deg)
                size = sum(deg - m + 1 for m, _ in groups)
                if not (odd and M):
                    blocks.append((M, [], []))
                    for m, d in groups:
                        key = d.tobytes()
                        if key not in factors:
                            factors[key] = tuple(
                                (f @ d)[:, None] for f in
                                (mer.omega, mer.domega_dx, mer.domega_dy))
                        blocks[-1][1].append((m, factors[key]))
                blocks[-1][2].append(slice(at, at + size))
                for m, d in groups:
                    J, row_first = deg - m + 1, True
                    for comp in range(3):
                        for sin, coef in enumerate((d[comp].real,
                                                    -d[comp].imag)):
                            if coef and (m or not sin):   # sin 0 theta = 0
                                # each range of a group's nonzeros covers
                                # the modes (comp, m, sin) whole; its rows'
                                # first nonzeros are the group's first range
                                col_first = (comp, m, sin) not in hit
                                hit.add((comp, m, sin))
                                part = parts[row_first != col_first]
                                row_first = False
                                part[0].append(at + np.arange(J))
                                part[1].append(comp * nm + self._index(m, sin))
                                part[2].append(np.full(J, coef))
                    at += J
        (rows, cols, vals), second = (tuple(map(np.concatenate, part))
                                      for part in parts)
        by_row, by_col = (np.empty(at, int), np.empty(at)), \
            (np.empty(at, int), np.empty(at))
        by_row[0][rows], by_row[1][rows] = cols, vals
        by_col[0][cols], by_col[1][cols] = rows, vals
        block_map = by_row, by_col, second
        ch._freeze(*(a for part in block_map for a in part),
                   *(f for fs in factors.values() for f in fs))
        return [(M, groups, tuple(spans)) for M, groups, spans in blocks], \
            block_map


# the two grids of a certificate job (n = 24, then 48) stay cached
@lru_cache(maxsize=2)
def _basis(n):
    return _ModalBasis(ch.build_grid(n))


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
    Nodal data is batch-leading, ``(..., N)`` with the azimuth fastest, so
    a vector field is component-major ``(3, N)`` and both FFTs run on the
    contiguous last axis; the ``(N, 3)`` entry points (:meth:`nodal_vector`,
    :meth:`project_vector`) transpose around the same two transforms.
    Each mode is a spherical harmonic of degree ``l = m + j``, so by the
    chart's rule ``d_xx + d_yy = mu^2 Delta_S2`` a field's chart Laplacian
    is ``mu^2`` times the synthesis of ``-l(l + 1)`` times its coefficients.

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

    What depends on the grid alone is the pack's :class:`_ModalBasis`
    (``basis``), cached by :func:`_basis` for the last two grids and shared
    by the packs of every ``k``; the pack's profiles, mode slots, weights,
    degrees and meridian are references to its read-only arrays.  At
    n = 48 a basis holds about 2.8 MB: 1.4 MB of profiles, 1.1 MB of
    meridian mode tables, 0.22 MB of the vector blocks' map and 12 kB of
    per-node factors.  The Gram
    columns depend on the grid alone too, but they are not kept (about
    11 MB at n = 48).  What depends on ``k`` is the pack's own, built on
    first use: the densities, the vector and scalar blocks, the tangent
    frame (the one shared copy), its modal tables and the inverses of the
    corrector's per-block saddle matrices.  :func:`_pack` keeps one pack:
    every command and solve works at a single ``(n, k)``.  At n = 48 a
    pack after a certificate and a solve holds about 5.6 MB of its own:
    1.9 MB of vector blocks, 2.1 MB of saddle inverses, 0.77 MB of tangent
    frame (0.66 MB of it the six tau fields, values only), 0.44 MB of
    scalar pencils and 0.40 MB of the frame's modal tables.
    """

    def __init__(self, grid, params):
        basis = _basis(grid.n)
        self.basis = basis
        self.grid = grid
        self.params = params
        self.degree, self.nmodes = basis.degree, basis.nmodes
        self.meridian, self.mode_degrees = basis.meridian, basis.mode_degrees
        self._profiles, self._slots = basis._profiles, basis._slots
        self._modal, self._fourier = basis._modal, basis._fourier

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
        """``(blocks, block_map)``: each entry ``(M, H, spans)`` of ``blocks``
        is the weak matrix ``H`` of ``r^2 J'(U)`` on the real vector modes of
        total azimuthal order ``M`` and the ranges of block coordinates it
        acts on, which follow each other: for ``M > 0`` even, then odd under
        ``y -> -y`` (the rotation by ``pi / 2M`` takes one onto the other),
        and one entry per parity for ``M = 0``.  The block columns are
        ``e3 Y`` for a scalar mode ``Y`` of order ``M``, ``e1 Y`` or ``e2 Y``
        for ``Y`` of order 0 (``M = 1``), and ``(Y e1 -+ Y' e2) / sqrt 2``
        for the cos/sin pair ``(Y, Y')`` of order ``M -+ 1``;
        ``block_map`` holds the nonzeros of this orthogonal map from modal
        coefficients to block coordinates.  The layout and the map are the
        basis's (:attr:`_ModalBasis.vector_layout`)."""
        layout, block_map = self.basis.vector_layout
        return [(M, self._vector_gram(M, groups), spans)
                for M, groups, spans in layout], block_map

    def to_blocks(self, c):
        """Block coordinates of modal vector coefficients (or columns)."""
        return _map_blocks(self.basis.vector_layout[1], c)

    def from_blocks(self, x):
        """Modal vector coefficients of block coordinates (or columns)."""
        return _map_blocks(self.basis.vector_layout[1], x, transpose=True)

    def _vector_gram(self, M, groups):
        """One vector block's matrix, the sum of five terms
        ``coef * B^T diag(weight) B``: the two first-order tangential
        expressions, then the scalar normal block on the omega components
        (two derivative parts and the mass part).  The block's columns are
        taken as their complex fields of rotation phase ``e^{i M theta}``
        (:func:`_vector_groups`) at the meridian; terms 1 and 2 make up
        ``(dox + i doy) . (ux + i uy)``, terms 3 and 4 a chart 2-vector and
        term 5 a scalar, so each one's density turns with that phase.

        A group's columns are a scalar mode times its fixed direction ``d``,
        so a dot product with a nodal 3-vector ``a`` is the per-node factor
        ``a . d`` (held by the basis's layout) times the group's meridian
        mode table: each term is a column concatenation over the groups of
        such products, and no complex vector field is formed."""
        Ctan, C2, C3 = self._densities
        per_group = []
        for m, (a, b, c) in groups:
            t0, tx, ty = self.basis.meridian_modes[m]
            per_group.append((b * tx - c * ty, c * tx + b * ty,
                              a * tx + b * t0, a * ty + c * t0, a * t0))
        weights = (Ctan, Ctan, C2, C2, C3)
        coefs = (1.0, 1.0, 1.0, 1.0, -2.0 * self.params.k)
        return self._meridian_gram(M, [
            (np.concatenate(cols, axis=1), wt, coef)
            for cols, wt, coef in zip(zip(*per_group), weights, coefs)])

    @cached_property
    def _densities(self):
        """The ring weights ``w / (mu^4 ok^2)``, ``w / (mu^2 ok^2)`` and
        ``w / ok^3`` (``ok = omega3 + k``) of the operator's densities at
        the meridian nodes, computed with numpy's warnings off: where a
        power of ``ok`` overflows they are 0, their correctly rounded value."""
        mer = self.meridian
        w, mu = mer.weights, mer.mu
        ok = mer.omega[:, 2] + self.params.k
        with np.errstate(all="ignore"):
            return w / (mu**4 * ok**2), w / (mu**2 * ok**2), w / ok**3

    @staticmethod
    def _meridian_gram(M, terms):
        """The sphere integral ``sum coef * B^T diag(weight) B`` of terms
        ``(B, weight, coef)`` whose columns ``B`` are meridian values of
        complex fields of rotation phase ``e^{i M theta}``, standing for
        their real parts, with each node's ``weight`` its whole ring's.
        Over a ring, ``Re(a) Re(b)`` averages to ``Re(a conj(b)) / 2`` for
        ``M > 0``, since ``a b`` turns with ``e^{2 i M theta}``; for
        ``M = 0`` the real parts' own density is invariant.

        Every operator block is made here, so here each is checked finite,
        with numpy's warnings off, before any factorization or eigensolve
        sees it (numpy's LAPACK calls do not check): a block that is not
        raises :class:`NumericsError` naming its azimuthal order."""
        B = np.concatenate([b for b, _, _ in terms])
        with np.errstate(all="ignore"):
            weight = np.concatenate([coef * wt for _, wt, coef in terms])
            if M:
                B = np.concatenate([B.real, B.imag])
                weight = 0.5 * np.concatenate([weight, weight])
            else:
                B = B.real
            G = B.T @ (weight[:, None] * B)
        if not np.isfinite(G).all():
            raise NumericsError(
                f"the operator block of azimuthal order {M} is not finite")
        return 0.5 * (G + G.T)

    @cached_property
    def scalar_blocks(self):
        """``[(m, K, B, spans)]``: the scalar normal pencil (stiffness ``K``
        and the ``(omega3+k)^-3`` weighted mass ``B``) on the scalar modes of
        order ``m``, with the ranges of modal indices it acts on: the cos
        modes, then for ``m > 0`` the sin modes, which are their rotations
        by ``pi / 2m``."""
        _, C2, C3 = self._densities
        blocks, at = [], 0
        for m in range(self.degree + 1):
            p0, px, py = self.basis.meridian_modes[m]
            K = self._meridian_gram(m, ((px, C2, 1.0), (py, C2, 1.0)))
            B = self._meridian_gram(m, ((p0, C3, 1.0),))
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
    def saddle_factors(self):
        """The corrector's saddle matrix ``[[H, -F^T], [F, 0]]`` (``F`` the
        nine frame rows) inverted block by block, as entries
        ``(span, inv, gens)``, each on a range ``span`` of block coordinates.

        Every frame generator lies in one range of ``vector_blocks`` (to
        1e-12 relative, or :class:`NumericsError` is raised), which is
        bordered by its own generators ``gens``; the parity ranges of a
        block without generators share one unbordered inverse and are
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
                                np.linalg.inv(H), []))
                continue
            for s, gs in zip(ss, gens):
                KKT = np.block([[H, -Y[s, gs]],
                                [Y[s, gs].T, np.zeros((len(gs),) * 2)]])
                entries.append((s, np.linalg.inv(KKT), gs))
        return entries

    def saddle_solve(self, r, s):
        """``(c, m)`` with ``H c - F^T m = r`` and ``F c = s``, ``H`` the
        vector operator of ``vector_blocks`` and ``F`` the nine frame rows:
        one product with the stored inverse per entry of
        ``saddle_factors``."""
        x = self.to_blocks(r)
        m = np.zeros(len(s))
        for span, inv, gens in self.saddle_factors:
            block = x[span].reshape(-1, inv.shape[0] - len(gens))
            if gens:
                sol = inv @ np.concatenate([block.T, s[gens, None]])
                block[...], m[gens] = sol[:-len(gens)].T, sol[-len(gens):, 0]
            else:
                block[...] = (inv @ block.T).T
        return self.from_blocks(x), m

    # -- transforms between modal coefficients and nodal values --------------

    def synthesis(self, coeffs, jet=False):
        """Nodal values ``(..., N)`` of scalar modal coefficients
        ``(..., nmodes)``; with ``jet`` also their exact chart derivatives
        ``d/dx``, ``d/dy`` and chart Laplacian, all from one inverse FFT.
        The batch leads and the azimuth runs fastest, so the FFT acts on
        the last axis and a vector field is component-major ``(3, N)``."""
        grid, D, deg = self.grid, self.degree + 1, self.mode_degrees
        coeffs = np.asarray(coeffs, dtype=float)
        batch = coeffs.shape[:-1]
        B = int(np.prod(batch))
        C = coeffs.reshape(B, -1).T
        parts = [(self._profiles[:, :1], C)]
        if jet:
            lap = -(deg * (deg + 1.0))[:, None] * C
            parts = [(self._profiles, C), (self._profiles[:, :1], lap)]
        # azimuthal spectra of the values, then with jet of d/ds, of the
        # Laplacian's synthesis and of d/dtheta
        F = np.zeros((1 + 3 * jet, B, grid.n, grid.ntheta // 2 + 1), complex)
        at = 0
        for tables, c in parts:
            R = np.zeros((D * D * 2, B))
            R[self._slots] = c
            # (m, j, cos/sin x batch) against the profiles of each order m
            X = tables.reshape(D, -1, D) @ R.reshape(D, D, 2 * B)
            # (cos - i sin) times the irfft weight, in place
            Z = 1j * X[..., B:]
            np.subtract(X[..., :B], Z, out=Z)
            Z *= self._fourier[:, None, None]
            Z = Z.reshape(D, -1, grid.n, B).transpose(1, 3, 2, 0)
            F[at:at + len(Z), ..., :D] = Z
            at += len(Z)
        if jet:
            np.multiply(1j * np.arange(D), F[0, ..., :D], out=F[3, ..., :D])
        out = np.fft.irfft(F, n=grid.ntheta).reshape(
            (len(F),) + batch + (grid.size,))
        del F, R, X, Z  # before the chart derivatives make their temporaries
        if not jet:
            return out[0]
        out[2] *= grid.mu ** 2
        return (out[0],) + ch.polar_to_chart(grid, out[1], out[3]) + (out[2],)

    def analysis(self, values):
        """Modal coefficients ``(..., nmodes)`` of nodal values ``(..., N)``:
        the quadrature inner products with the orthonormal scalar modes, the
        adjoint of :meth:`synthesis`, in its batch-leading layout."""
        grid, D = self.grid, self.degree + 1
        values = np.asarray(values, dtype=float)
        batch = values.shape[:-1]
        B = int(np.prod(batch))
        wv = grid.weights * values.reshape(B, grid.size)
        F = np.fft.rfft(wv.reshape(B, grid.n, grid.ntheta))[..., :D].T
        G = np.empty((D, grid.n, 2 * B))              # m, node, cos/sin x B
        G[..., :B] = F.real
        np.negative(F.imag, out=G[..., B:])
        del wv, F       # before the profile products allocate theirs
        R = np.swapaxes(self._profiles[:, 0], 1, 2) @ G   # m, j, cos/sin x B
        R = R.reshape(-1, B)[self._slots].T
        return np.ascontiguousarray(R).reshape(batch + (self.nmodes,))

    def project_vector(self, fields):
        """Coefficients of vector nodal data ``(batch, N, 3)``, comp-major:
        the analysis of its components."""
        fields = np.asarray(fields)
        out = self.analysis(np.swapaxes(fields, -1, -2))
        return out.reshape(fields.shape[:-2] + (-1,))

    def nodal_vector(self, coeffs):
        """Nodal (N, 3) values of modal vector coefficients."""
        return np.ascontiguousarray(
            self.synthesis(coeffs.reshape(3, self.nmodes)).T)

    def nodal_vector_jet(self, coeffs):
        """Nodal values, exact first derivatives and exact chart Laplacian
        of a modal vector field, component-major ``(3, N)``."""
        return self.synthesis(coeffs.reshape(3, self.nmodes), jet=True)


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
    (:func:`~cmc_hyp.chart.laplacian`): exact on fields that carry ``lap``
    (as bubbles do), spectral on everything else.  The result vanishes (to
    discretization accuracy) exactly at solutions.
    """
    if not u.is_vector:
        raise ValueError("the residual needs a 3-vector surface field")
    u = ch.differentiate(u)
    out = _j_nodal(u.values.T, u.dx.T, u.dy.T, ch.laplacian(u).T, params,
                   curvature, eps)
    return SphereField(u.grid, np.ascontiguousarray(out.T))


def _dot3(a):
    """The rows' squared lengths ``a . a`` of component-major ``(3, N)``
    data, summed in the order of numpy's ``einsum("ij,ij->i")`` on the
    ``(N, 3)`` layout, so both layouts give the same bits."""
    return (a[0] * a[0] + a[2] * a[2]) + a[1] * a[1]


def _j_nodal(values, dx, dy, lap, params, curvature, eps):
    """Nodal residual ``(3, N)`` of the prescribed-curvature system from a
    surface's component-major ``(3, N)`` values, chart derivatives ``dx``,
    ``dy`` and chart Laplacian ``lap``."""
    u3 = positive_heights(values.T)
    k = params.k
    K = np.full(u3.shape, k)
    if curvature is not None and eps != 0.0:
        # phi takes points (N, 3)
        K = k + eps * curvature.evaluate(np.ascontiguousarray(values.T))
    cube = u3**3
    out = -lap
    out /= u3**2
    grad3 = dx[2] * dx
    grad3 += dy[2] * dy
    grad3 *= 2.0
    grad3 /= cube
    out += grad3
    out[2] -= (_dot3(dx) + _dot3(dy)) / cube
    # np.cross's products and differences, component by component
    cross = np.stack([dx[1] * dy[2] - dx[2] * dy[1],
                      dx[2] * dy[0] - dx[0] * dy[2],
                      dx[0] * dy[1] - dx[1] * dy[0]])
    cross *= 2.0 * K / cube
    out += cross
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
    ``apply_direct`` evaluates the strong operator through collocation on
    the pack's grid, independently of the Galerkin route: the vector
    operator on vector fields, the scalar normal one on scalar fields.
    """

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
        grid = self.pack.grid
        return float(np.sum(grid.weights / grid.mu**2 * integrand))

    def apply_direct(self, f):
        """Strong collocation of ``J'(U_q)`` on a field (independent route)."""
        f = ch.differentiate(f)
        strong = apply_strong if f.is_vector else apply_strong_scalar
        grid, k = self.pack.grid, self.pack.params.k
        vals = strong(grid, k, f.values, f.dx, f.dy, ch.laplacian(f))
        return SphereField(grid, self.scale * vals)


def assemble_linearized(params, q, grid):
    """Assemble the linearized system at the sphere about ``q``.

    Translating the base point only rescales the operator by ``q3^-2``, so
    the operator blocks are built once per ``(grid, k)``, here on first use,
    and shared between base points.
    """
    q = HyperbolicPoint.of(q)
    pack = operator_pack(grid, params)
    pack.vector_blocks
    with np.errstate(all="ignore"):
        scale = 1.0 / (q.p3**2 * params.r**2)
    if not np.isfinite(scale):
        raise NumericsError(f"the operator scale 1 / (q3^2 r^2) is not "
                            f"finite at k = {params.k:g}, q3 = {q.p3:g}")
    return LinearizedSystem(pack=pack, scale=scale)


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
        spectrum starts ``0, 2k (x3)``, so a lowest eigenvalue off zero
        (against the fifth), a split triple or a far one means the grid does
        not resolve the operator at this k."""
        lam, two_k = self.eigenvalues, 2.0 * self.k
        low, fifth = float(lam[0]), lam[SPECTRUM_MIN_COUNT - 1]
        triple = float(np.max(np.abs(lam[1:4] - two_k)))
        return {
            "low_eigenvalue": low,
            "triple_at_2k_error": triple,
            "gap_after_triple": float(lam[4] - two_k),
            "resolved": bool(
                abs(low) <= SPECTRUM_LOW_REL * max(1.0, fifth)
                and self.multiplicities[:2] == [1, 3]
                and triple / two_k <= SPECTRUM_TRIPLE_REL),
        }


def _rules_out(K, bound, B=None, mass_floor=1.0):
    """Whether one Cholesky factorization shows every eigenvalue of the
    symmetric ``K`` (of the pencil ``(K, B)``, ``B`` positive definite with
    smallest eigenvalue at least ``mass_floor``) above ``bound > 0``: by
    Sylvester's law of inertia, ``K - c B`` is positive definite exactly
    when every eigenvalue exceeds ``c``.  The shift is ``c = SKIP_MARGIN *
    bound``, and the test holds only where the factorization's backward
    error stays inside the margin (see :data:`SKIP_MARGIN`).  The
    certificates leave a block unsolved when this holds; the tests switch
    it off to compare against solving every block."""
    if not bound > 0:
        return False
    shift = SKIP_MARGIN * bound
    if B is None:
        S = K.copy()
        S.flat[::len(S) + 1] -= shift
    else:
        S = K - shift * B
    error = (len(S) + 1) * np.finfo(float).eps * np.trace(S)
    if not error < (SKIP_MARGIN - 1.0) * bound * mass_floor:
        return False
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


def _spectrum_cut(low, count):
    """The largest value a spectrum solves eigenvectors for, from the
    ``count`` lowest block values ``low`` (ascending): the ``count``-th,
    plus a cluster's width of slack, so that a block whose ``eigh`` values
    could round below it is kept."""
    return low[count - 1] + 1e-6 * max(1.0, abs(low[SPECTRUM_MIN_COUNT - 1]))


def spectrum_normal(params, grid, count=8):
    """Lowest eigenpairs of the weighted eigenproblem on normal perturbations.

    Solves the modal pencil (stiffness ``K`` against the ``(omega3+k)^-3``
    weighted mass ``B``) on the azimuthal blocks of the pack and merges the
    block spectra.  Each pencil is reduced by the Cholesky factor
    ``B = L L^T`` to the symmetric ``L^-1 K L^-T``; a mass matrix that is
    not positive definite raises :class:`NumericsError` naming its order.
    The blocks are walked by ascending order ``m``.  Each block's reduced
    eigenvalues (``eigvalsh``) are taken until the blocks solved hold
    ``count`` values (counting each parity range); from then on a block is
    left unsolved when one Cholesky factorization of ``K - c B``, ``c``
    just above the current cut (:func:`_rules_out`), shows that all of its
    eigenvalues lie above that cut, which only falls as blocks are added:
    none of them can be among the lowest ``count``.  At n = 48 and
    k = 2 that solves 3 of the 43 blocks.  The lowest ``count`` values of
    the solved blocks choose the cut, and ``eigh`` solves only the blocks
    holding one, to within the cluster width below (orders 0-2 at n = 24,
    k = 2); its values are reported, and its lowest eigenvectors are
    mapped back by ``L^-T``, so they are ``B``-orthonormal and their
    residuals are those of the pencil.
    A pair's residual is its normwise backward error on its block's pencil,
    ``|K v - lam B v| / ((||K||_2 + |lam| ||B||_2) |v|)``, for a block's
    pairs at once the column norms of ``K V - (B V) diag(lam)``.  It does
    not change when ``K`` or ``B`` is rescaled, so it stays at roundoff at
    every ``k``, though ``||K||_2 / ||B||_2`` grows like ``k``; one above
    ``1e-7`` raises :class:`ConvergenceError`.
    Returns a :class:`SpectrumReport` of the ascending eigenvalues, their
    clustered multiplicities, each pair's backward error, and the
    azimuthal orders, ascending within each cluster.  Neighbours within
    ``1e-6`` times the fifth eigenvalue (at least 1) share a cluster, so a
    larger ``count`` only lengthens the list.
    """
    if count < SPECTRUM_MIN_COUNT:
        raise ValueError(
            f"ask for at least {SPECTRUM_MIN_COUNT} eigenvalues")
    pack = operator_pack(grid, params)
    if count > pack.nmodes:
        raise ValueError("grid too coarse for that many eigenvalues")
    reduced, low = [], np.empty(0)
    for m, K, B, spans in pack.scalar_blocks:
        try:
            L = np.linalg.cholesky(B)
        except np.linalg.LinAlgError:
            raise NumericsError(f"the mass matrix of azimuthal order {m} "
                                "is not positive definite") from None
        Linv = np.linalg.inv(L)
        # 1 / lambda_min(B) = ||L^-1||_2^2 <= ||L^-1||_F^2
        if low.size == count and _rules_out(
                K, _spectrum_cut(low, count), B, 1.0 / np.sum(Linv**2)):
            continue
        A = Linv @ K @ Linv.T
        w = np.linalg.eigvalsh(A)
        reduced.append((m, K, B, spans, Linv, A, w))
        low = np.sort(np.concatenate([low, np.tile(w[:count], len(spans))]))
        low = low[:count]
    cut = _spectrum_cut(low, count)
    pairs = []
    for m, K, B, spans, Linv, A, w in reduced:
        if w[0] > cut:
            continue
        top = min(count, K.shape[0])
        vals, vecs = np.linalg.eigh(A)
        vals, V = vals[:top], Linv.T @ vecs[:, :top]
        res = (np.linalg.norm(K @ V - (B @ V) * vals, axis=0)
               / ((np.linalg.norm(K, 2) + np.abs(vals) * np.linalg.norm(B, 2))
                  * np.linalg.norm(V, axis=0)))
        pairs += list(zip(vals, [m] * top, res)) * len(spans)
    pairs.sort(key=lambda p: p[0])
    vals, orders, res = (np.array(c) for c in zip(*pairs[:count]))
    if np.any(res > 1e-7):
        raise ConvergenceError(
            f"eigenpair residual {res.max():.2e} above 1e-07")
    scale = max(1.0, abs(vals[SPECTRUM_MIN_COUNT - 1]))
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
    """A kernel certificate (:func:`kernel`): the dimension, the mass-
    orthonormal nodal basis with each field's azimuthal order, the gap
    ratio, and ``singular_values``, ascending: those of the blocks the
    certificate solved, which include every value below the window's
    bound; a block left unsolved has been shown to have every eigenvalue
    above it."""

    dimension: int
    basis: list
    gap: float
    singular_values: np.ndarray
    orders: list            # azimuthal order |M| of each basis field

    def to_json(self):
        """The report as a JSON document; the singular values are cut to
        the smallest sixteen, the orders counted per ``|M|``.

        ``gap`` is the first singular value past the kernel over the last
        one in it, floored at roundoff: ``s_10 / max(s_9, eps * s_max)`` for
        a nine-dimensional kernel, ``s_max`` the largest singular value of
        ``s_9``'s own block.  At k = 2 the floor is the larger term, so
        ``gap`` measures the range's scale against roundoff, not a ratio of
        two computed singular values."""
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
    lie above the whole jump from the kernel to the range.

    The scan reads only the smallest :data:`KERNEL_WINDOW` values.  The
    blocks are walked by ascending order ``|M|``, and each one's
    eigenvalues (``eigvalsh``) are taken until the blocks solved hold that
    many (counting each parity range); from then on a block is left
    unsolved when one Cholesky factorization of ``scale H - c I``, ``c``
    just above the current window's largest value (:func:`_rules_out`),
    shows that all of its eigenvalues lie above that value, which only
    falls as blocks are added: none of them can enter the window.  At
    n = 48 and k = 2 that solves 4 of the 45 blocks.  Eigenvectors are
    computed (``eigh``) only for the solved blocks with an eigenvalue
    within the cut, the few low azimuthal orders that hold the kernel.  The
    returned nodal basis is orthonormal in the mass inner product: the
    in-window block eigenvectors, once per parity range, labelled by block
    order.  The report's ``singular_values`` are those of the solved
    blocks, ascending, which include every value below the window's bound.
    """
    pack, (blocks, _) = system.pack, system.pack.vector_blocks
    solved, low = [], np.empty(0)
    for M, H, spans in blocks:
        A = system.scale * H
        if low.size == KERNEL_WINDOW and _rules_out(A, low[-1]):
            continue
        w = np.linalg.eigvalsh(A)
        solved.append((M, H, spans, w))
        low = np.sort(np.concatenate([low, np.tile(np.abs(w), len(spans))]))
        low = low[:KERNEL_WINDOW]
    sigma = [np.abs(w) for _, _, spans, w in solved for _ in spans]
    floored = np.concatenate(
        [np.maximum(v, np.finfo(float).eps * v.max()) for v in sigma])
    sigma = np.concatenate(sigma)
    order = np.argsort(sigma)
    sigma, floored = sigma[order], floored[order]
    window = min(KERNEL_WINDOW - 1, sigma.size - 1)
    ratios = sigma[1:window + 1] / floored[:window]
    split = int(np.argmax(ratios))
    if ratios[split] < gap_factor:
        raise AmbiguousKernelError(sigma[split], sigma[split + 1], gap_factor)
    dim = split + 1
    cut = max(np.sqrt(sigma[dim - 1] * sigma[dim]), 1e-3 * sigma[dim])
    basis, orders = [], []
    for M, H, spans, w in solved:
        if not np.any(np.abs(w) <= cut):
            continue
        vals, vecs = np.linalg.eigh(system.scale * H)
        for s in spans:
            for v in vecs[:, np.abs(vals) <= cut].T:
                x = np.zeros(system.size)
                x[s] = v
                basis.append(SphereField(
                    pack.grid, pack.nodal_vector(pack.from_blocks(x))))
                orders.append(M)
    if len(basis) != dim:
        raise AmbiguousKernelError(sigma[dim - 1], sigma[dim], gap_factor)
    return KernelReport(dimension=dim, basis=basis, gap=float(ratios[split]),
                        singular_values=sigma, orders=orders)
