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

Their mutual agreement on smooth fields is one of the package's standing
consistency checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import json

import numpy as np
import scipy.linalg as sla

from . import chart as ch
from .bubbles import make_params, tangent_frame
from .chart import SphereField
from .errors import AmbiguousKernelError, ConvergenceError, NumericsError
from .halfspace import HyperbolicPoint

# singular-value ratio that declares a numerical kernel
KERNEL_GAP_FACTOR = 100.0


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


class _ModalPack:
    """Every per-(grid, k) operator array, cached by :func:`_pack`.

    ``phi`` holds the orthonormal scalar basis (degree ``max(2, n - 6)``)
    nodally, ``dphix``/``dphiy`` its analytic chart derivatives; the vector
    basis is ``phi`` times the coordinate directions, ordered component-major.
    ``H_vec``, the frame tables and the corrector's bordered LU are built on
    first use.
    """

    def __init__(self, grid, params):
        degree = max(2, grid.n - 6)
        if degree > grid.n - 6:
            raise ValueError(
                f"degree {degree} exceeds what grid n={grid.n} integrates exactly")
        self.grid = grid
        self.params = params
        k = params.k
        w = grid.weights
        mu, om = grid.mu, grid.omega
        ok = om[:, 2] + k
        self.ok = ok

        nt, ns = grid.ntheta, grid.ns
        tt = np.tile(grid.theta, ns)
        ct, st = np.cos(tt), np.sin(tt)
        rr = np.repeat(grid.rho, nt)
        x, sins = grid.x, grid.sin_s

        cols, dxs, dys = [], [], []
        for m in range(degree + 1):
            tab = _gegenbauer_table(degree - m, m + 0.5, x)
            prof = sins**m
            P = prof[:, None] * tab
            dP_ds = -(sins**(m + 1))[:, None] * (grid.Dleg @ tab)
            if m > 0:
                dP_ds += (m * sins**(m - 1) * x)[:, None] * tab
            trigs = [(np.cos(m * tt), -m * np.sin(m * tt))]
            if m > 0:
                trigs.append((np.sin(m * tt), m * np.cos(m * tt)))
            for tr, dtr in trigs:
                for j in range(degree - m + 1):
                    base = np.repeat(P[:, j], nt) * tr
                    b_ds = np.repeat(dP_ds[:, j], nt) * tr
                    b_dt = np.repeat(P[:, j], nt) * dtr
                    drho = mu * b_ds
                    nrm = np.sqrt(np.sum(w * base**2))
                    cols.append(base / nrm)
                    dxs.append((ct * drho - st / rr * b_dt) / nrm)
                    dys.append((st * drho + ct / rr * b_dt) / nrm)
        self.phi = np.stack(cols, axis=1)
        self.dphix = np.stack(dxs, axis=1)
        self.dphiy = np.stack(dys, axis=1)
        nm = self.phi.shape[1]
        self.nmodes = nm

        # scalar normal-operator matrices (eigenproblem form)
        C2 = w / (mu**2 * ok**2)
        self.K_sc = self._sym(self.dphix.T @ (C2[:, None] * self.dphix)
                              + self.dphiy.T @ (C2[:, None] * self.dphiy))
        self.B_sc = self._sym(self.phi.T @ ((w / ok**3)[:, None] * self.phi))

    @cached_property
    def H_vec(self):
        """Weak matrix of ``r^2 J'(U)`` on vector modes: five terms
        ``coef * B^T diag(weight) B``, the two first-order tangential
        expressions, then the scalar normal block on the omega components
        (two derivative parts and the mass part), one nodal table at a time."""
        grid, nm, k = self.grid, self.nmodes, self.params.k
        w, mu, om, ok = grid.weights, grid.mu, grid.omega, self.ok
        dox, doy = grid.domega_dx, grid.domega_dy
        px, py, p0 = self.dphix, self.dphiy, self.phi
        C2 = w / (mu**2 * ok**2)
        Ctan = w / (mu**4 * ok**2)
        terms = (
            (lambda c: dox[:, c, None] * px - doy[:, c, None] * py, Ctan, 1.0),
            (lambda c: doy[:, c, None] * px + dox[:, c, None] * py, Ctan, 1.0),
            (lambda c: om[:, c, None] * px + dox[:, c, None] * p0, C2, 1.0),
            (lambda c: om[:, c, None] * py + doy[:, c, None] * p0, C2, 1.0),
            (lambda c: om[:, c, None] * p0, w / ok**3, -2.0 * k),
        )
        H = np.zeros((3 * nm, 3 * nm))
        for block, weight, coef in terms:
            B = np.empty((grid.size, 3 * nm))
            for c in range(3):
                B[:, c * nm:(c + 1) * nm] = block(c)
            G = B.T @ (weight[:, None] * B)
            G *= coef
            H += G
            del B, G
        return self._sym(H)

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
    def bordered_lu(self):
        """LU factors of ``H_vec`` bordered by the nine frame rows, the
        corrector's saddle matrix; every base point shares it, since moving
        the base point only rescales the operator."""
        m = self.H_vec.shape[0]
        KKT = np.zeros((m + 9, m + 9))
        KKT[:m, :m] = self.H_vec
        KKT[:m, m:] = -self.frame_modal.T
        KKT[m:, :m] = self.frame_modal
        return sla.lu_factor(KKT)

    @staticmethod
    def _sym(A):
        return 0.5 * (A + A.T)

    # -- projections between nodal and modal representations ----------------

    def project_vector(self, fields):
        """Coefficients of vector nodal data ``(batch, N, 3)``, comp-major."""
        fields = np.asarray(fields)
        single = fields.ndim == 2
        if single:
            fields = fields[None]
        wf = self.grid.weights[None, :, None] * fields
        out = np.concatenate(
            [wf[:, :, c] @ self.phi for c in range(3)], axis=1)
        return out[0] if single else out

    def nodal_vector(self, coeffs):
        """Nodal (N, 3) values of modal vector coefficients."""
        nm = self.nmodes
        return np.stack([self.phi @ coeffs[c * nm:(c + 1) * nm]
                         for c in range(3)], axis=-1)

    def nodal_vector_jet(self, coeffs):
        """Nodal values and exact first derivatives of a modal vector field."""
        nm = self.nmodes
        cs = [coeffs[c * nm:(c + 1) * nm] for c in range(3)]
        vals = np.stack([self.phi @ c for c in cs], axis=-1)
        dx = np.stack([self.dphix @ c for c in cs], axis=-1)
        dy = np.stack([self.dphiy @ c for c in cs], axis=-1)
        return vals, dx, dy

    # -- strong (collocation) applications ----------------------------------

    def apply_strong(self, values, dx, dy, dxx, dxy, dyy):
        """Nodal values of ``r^2 J'(U) phi`` from the field's derivative jets."""
        g, k = self.grid, self.params.k
        mu, om = g.mu, g.omega
        dox, doy = g.domega_dx, g.domega_dy
        ok = self.ok
        x, y = g.nodes[:, 0], g.nodes[:, 1]
        lap = dxx + dyy
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

    def apply_strong_scalar(self, eta, dx, dy, dxx, dyy):
        """Nodal values of the scalar normal operator times ``r^2``."""
        g, k = self.grid, self.params.k
        mu = g.mu
        ok = self.ok
        x, y = g.nodes[:, 0], g.nodes[:, 1]
        lap = dxx + dyy
        return -lap / ok**2 + 2.0 * mu**2 / ok**3 * (x * dx + y * dy) \
            - 2.0 * k * mu**2 / ok**3 * eta


@lru_cache(maxsize=4)
def _pack(n, k):
    return _ModalPack(ch.build_grid(n), make_params(k))


def operator_pack(grid, params):
    return _pack(grid.n, params.k)


# ---------------------------------------------------------------------------
# residual of the full nonlinear operator


def j_residual(u, params, curvature=None, eps=0.0):
    """Pointwise residual of the prescribed-curvature system at ``u``.

    ``curvature`` is the spatially varying part (a
    :class:`~cmc_hyp.phi_expr.PrescribedFunction` or plain callable); the
    total curvature is ``k + eps * curvature``.  Fields sampled from analytic
    surfaces use exact derivatives, everything else the spectral rule.  The
    result vanishes (to discretization accuracy) exactly at solutions.
    """
    if not u.is_vector:
        raise ValueError("the residual needs a 3-vector surface field")
    u = ch.differentiate(u)
    dxx, dxy, dyy = ch.second_derivatives(u)
    return SphereField(u.grid, _j_nodal(
        u.values, u.dx, u.dy, dxx, dyy, params, curvature, eps))


def _j_nodal(values, dx, dy, dxx, dyy, params, curvature, eps):
    u3 = values[:, 2]
    if not np.all(u3 > 0):
        raise NumericsError("surface left the half-space: min u3 = %g" % u3.min())
    k = params.k
    K = np.full(u3.shape, k)
    if curvature is not None and eps != 0.0:
        evaluator = getattr(curvature, "evaluate", curvature)
        K = k + eps * np.asarray(evaluator(values), dtype=float)
    lap = dxx + dyy
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

    ``modal_matrix`` is the symmetric Galerkin matrix of the bilinear form
    ``(phi, psi) -> integral J'(U_q) phi . psi dz`` over the orthonormal
    modal basis (so the modal mass is the identity); ``scale`` is the factor
    ``1 / (q3^2 r^2)`` that takes the pack's ``r^2``-normalized operator to
    the one at the base point.  ``apply_direct`` evaluates the strong
    operator through collocation, independently of the Galerkin route.
    """

    grid: ch.SphereGrid
    params: object
    pack: _ModalPack
    scale: float
    modal_matrix: np.ndarray
    block: int = 3

    @property
    def size(self):
        return self.modal_matrix.shape[0]

    def selfadjoint_defect(self, rng=None, pairs=10):
        """Worst asymmetry of the modal form on random normalized vectors."""
        rng = rng or np.random.default_rng(0)
        worst = 0.0
        for _ in range(pairs):
            a = rng.standard_normal(self.size)
            b = rng.standard_normal(self.size)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            worst = max(worst, abs(
                a @ (self.modal_matrix @ b) - b @ (self.modal_matrix @ a)))
        return worst

    def form(self, f, g):
        """The bilinear form ``integral J'(U_q) f . g dz`` via collocation."""
        jf = self.apply_direct(f)
        if self.block == 3:
            integrand = np.einsum("ij,ij->i", jf.values, g.values)
        else:
            integrand = jf.values * g.values
        return float(np.sum(self.grid.weights / self.grid.mu**2 * integrand))

    def apply_direct(self, f):
        """Strong collocation of ``J'(U_q)`` on a field (independent route)."""
        pack = self.pack
        f = ch.differentiate(f)
        if self.block == 3:
            dxx, dxy, dyy = ch.second_derivatives(f)
            vals = pack.apply_strong(f.values, f.dx, f.dy, dxx, dxy, dyy)
        else:
            dxx, _ = ch.spectral_derivatives(self.grid, f.dx)
            _, dyy = ch.spectral_derivatives(self.grid, f.dy)
            vals = pack.apply_strong_scalar(f.values, f.dx, f.dy, dxx, dyy)
        return SphereField(self.grid, self.scale * vals)


def assemble_linearized(params, q, grid):
    """Assemble the linearized system at the sphere about ``q``.

    Translating the base point only rescales the operator by ``q3^-2``, so
    the heavy modal matrices are cached per ``(grid, k)`` and shared between
    base points.
    """
    q = HyperbolicPoint.of(q)
    pack = operator_pack(grid, params)
    scale = 1.0 / (q.p3**2 * params.r**2)
    return LinearizedSystem(grid=grid, params=params, pack=pack, scale=scale,
                            modal_matrix=scale * pack.H_vec, block=3)


def normal_operator(params, grid):
    """Scalar operator governing normal perturbations ``eta * omega``."""
    pack = operator_pack(grid, params)
    mat = (pack.K_sc - 2.0 * params.k * pack.B_sc) / params.r**2
    return LinearizedSystem(grid=grid, params=params, pack=pack,
                            scale=1.0 / params.r**2, modal_matrix=mat, block=1)


# ---------------------------------------------------------------------------
# quadratic form split


@dataclass
class QuadraticFormCheck:
    form_value: float       # integral J'(U) psi . psi dz, direct route
    explicit_value: float   # the nonnegative first-order integral
    difference: float


def tangential_quadratic_form(psi, params, ortho_tol=1e-10):
    """Evaluate both sides of the tangential quadratic-form identity.

    ``psi`` must be pointwise orthogonal to ``omega``.  The left side applies
    the strong operator and integrates against ``psi``; the right side is the
    manifestly nonnegative integral of the two squared first-order
    expressions.  Both are returned together with their difference.
    """
    grid = psi.grid
    scale = max(np.max(np.abs(psi.values)), 1e-300)
    defect = np.max(np.abs(np.einsum("ij,ij->i", psi.values, grid.omega))) / scale
    if defect > ortho_tol:
        raise ValueError(
            f"field is not pointwise orthogonal to omega (defect {defect:.2e})")
    psi = ch.differentiate(psi)
    pack = operator_pack(grid, params)
    dxx, dxy, dyy = ch.second_derivatives(psi)
    strong = pack.apply_strong(psi.values, psi.dx, psi.dy, dxx, dxy, dyy)
    form = float(np.sum(grid.weights / grid.mu**2
                        * np.einsum("ij,ij->i", strong, psi.values))) / params.r**2
    s1 = (np.einsum("ij,ij->i", psi.dx, grid.domega_dx)
          - np.einsum("ij,ij->i", psi.dy, grid.domega_dy))
    s2 = (np.einsum("ij,ij->i", psi.dx, grid.domega_dy)
          + np.einsum("ij,ij->i", psi.dy, grid.domega_dx))
    ok = pack.ok
    explicit = float(np.sum(grid.weights * (s1**2 + s2**2)
                            / (grid.mu**4 * ok**2))) / params.r**2
    return QuadraticFormCheck(form, explicit, form - explicit)


# ---------------------------------------------------------------------------
# spectra


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    multiplicities: list
    eigenfields: list
    residuals: np.ndarray
    k: float
    grid_n: int

    def cluster_starts(self):
        out, i = [], 0
        for m in self.multiplicities:
            out.append(float(self.eigenvalues[i]))
            i += m
        return out

    def to_json(self, path=None):
        doc = {
            "k": self.k,
            "grid_n": self.grid_n,
            "eigenvalues": self.eigenvalues.tolist(),
            "multiplicities": self.multiplicities,
            "residuals": self.residuals.tolist(),
            "cluster_starts": self.cluster_starts(),
        }
        if path is not None:
            with open(path, "w") as fh:
                json.dump(doc, fh, sort_keys=True, indent=1)
        return doc


def spectrum_normal(params, grid, count=8, residual_tol=1e-7):
    """Lowest eigenpairs of the weighted eigenproblem on normal perturbations.

    Solves the modal pencil (stiffness against the ``(omega3+k)^-3`` weighted
    mass), returning ascending eigenvalues, clustered multiplicities, and
    nodal eigenfields normalized in the weighted measure.
    """
    if count < 5:
        raise ValueError("ask for at least 5 eigenvalues")
    pack = operator_pack(grid, params)
    K, B = pack.K_sc, pack.B_sc
    if count > K.shape[0]:
        raise ValueError("grid too coarse for that many eigenvalues")
    vals, vecs = sla.eigh(K, B, subset_by_index=[0, count - 1])
    res = np.array([
        np.linalg.norm(K @ vecs[:, i] - vals[i] * (B @ vecs[:, i]))
        / ((1.0 + abs(vals[i])) * np.linalg.norm(B @ vecs[:, i]))
        for i in range(count)])
    if np.any(res > residual_tol):
        raise ConvergenceError(
            f"eigenpair residual {res.max():.2e} above {residual_tol:g}")
    scale = max(1.0, abs(vals[-1]))
    mult, i = [], 0
    while i < count:
        j = i
        while j + 1 < count and vals[j + 1] - vals[j] <= 1e-6 * scale:
            j += 1
        mult.append(j - i + 1)
        i = j + 1
    fields = [SphereField(grid, pack.phi @ vecs[:, i]) for i in range(count)]
    return SpectrumReport(eigenvalues=vals, multiplicities=mult,
                          eigenfields=fields, residuals=res,
                          k=params.k, grid_n=grid.n)


# ---------------------------------------------------------------------------
# kernel extraction


@dataclass
class KernelReport:
    dimension: int
    basis: list
    gap: float
    singular_values: np.ndarray

    def to_json(self, path=None):
        doc = {
            "dimension": self.dimension,
            "gap": self.gap,
            "singular_values": self.singular_values[:16].tolist(),
        }
        if path is not None:
            with open(path, "w") as fh:
                json.dump(doc, fh, sort_keys=True, indent=1)
        return doc

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


def kernel(system, gap_factor=KERNEL_GAP_FACTOR):
    """Numerical kernel of the system by singular-value gap detection.

    The singular values of the (symmetric) modal matrix are scanned in
    ascending order; the kernel dimension is declared at the largest ratio
    jump within the smallest sixteen, which must reach ``gap_factor``,
    otherwise :class:`AmbiguousKernelError` is raised.  The returned nodal
    basis is orthonormal in the mass inner product.
    """
    sigma = np.sort(np.abs(sla.eigvalsh(system.modal_matrix)))
    window = min(16, sigma.size - 1)
    floor = max(sigma[0], 1e-300)
    ratios = sigma[1:window + 1] / np.maximum(sigma[:window], floor * 1e-6)
    split = int(np.argmax(ratios))
    if ratios[split] < gap_factor:
        raise AmbiguousKernelError(sigma[split], sigma[split + 1], gap_factor)
    dim = split + 1
    cut = max(np.sqrt(sigma[dim - 1] * sigma[dim]), 1e-3 * sigma[dim])
    _, vecs = sla.eigh(system.modal_matrix, subset_by_value=[-cut, cut])
    if vecs.shape[1] != dim:
        raise AmbiguousKernelError(sigma[dim - 1], sigma[dim], gap_factor)
    pack = system.pack
    basis = []
    for i in range(dim):
        v = vecs[:, i]
        if system.block == 3:
            basis.append(SphereField(system.grid, pack.nodal_vector(v)))
        else:
            basis.append(SphereField(system.grid, pack.phi @ v))
    return KernelReport(dimension=dim, basis=basis,
                        gap=float(sigma[dim] / sigma[dim - 1]),
                        singular_values=sigma)


# ---------------------------------------------------------------------------
# constrained (bordered) solve


def solve_orthogonal(system, v, proj_tol=1e-8):
    """Invert the linearized operator against ``v mu^2`` away from its kernel.

    ``v`` must be orthogonal (in the sphere-measure inner product) to the
    nine tangent generators; the modal Galerkin matrix is bordered with the
    nine weighted (star-product) constraint rows, which pin the solution
    uniquely.  The returned field carries the Lagrange multipliers as
    ``multipliers`` and the strong-equation residual as ``direct_residual``.
    """
    if system.block != 3:
        raise ValueError("constrained solves apply to the full vector system")
    grid, params = system.grid, system.params
    pack = system.pack
    vmodal = pack.project_vector(v.values)
    coef = np.linalg.solve(pack.frame_modal @ pack.frame_modal.T,
                           pack.frame_modal @ vmodal)
    vnorm = np.linalg.norm(vmodal)
    if vnorm > 0 and np.linalg.norm(coef) > proj_tol * max(1.0, vnorm):
        raise ValueError(
            f"right-hand side has a tangent component of size "
            f"{np.linalg.norm(coef):.2e}; project it away first")
    n = system.size
    KKT = np.zeros((n + 9, n + 9))
    KKT[:n, :n] = system.modal_matrix
    KKT[:n, n:] = pack.star_rows.T
    KKT[n:, :n] = pack.star_rows
    rhs = np.concatenate([vmodal, np.zeros(9)])
    sol = sla.lu_solve(sla.lu_factor(KKT), rhs)
    vals, dx, dy = pack.nodal_vector_jet(sol[:n])
    phi = SphereField(grid, vals, dx, dy)
    phi.multipliers = sol[n:]
    resid = system.apply_direct(phi).values - v.values * grid.mu[:, None] ** 2
    phi.direct_residual = float(np.max(np.abs(resid)))
    return phi
