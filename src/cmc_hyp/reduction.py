"""Finite-dimensional reduction to the ball-center coordinate.

``correct`` solves the projected problem at fixed ``(eps, q)``: it finds the
correction ``nu`` orthogonal to the nine tangent generators together with
multipliers ``(xi, alpha)`` so that the curvature residual of ``U_q + nu``
lies entirely in the generator span.  A chord iteration with the linearized
operator frozen at the unperturbed sphere does the work.  Each step moves
between nodal and modal values with the operator pack's FFT transforms --
the correction's first derivatives exactly from the modal profiles, its
chart Laplacian from the modes' degrees (``nodal_vector_laplacian``), so no
step differentiates nodal values -- and makes one block-by-block saddle
solve (the pack's ``saddle_solve``, direct LAPACK ``getrs`` calls), whose
small factorizations are built once per ``(grid, k)`` and shared across base
points.

``continuation`` then drives the reduced gradient -- an explicit linear
expression in the multipliers -- to zero over ``q`` at each ``eps`` of a
schedule; at such points the multipliers themselves vanish and the corrected
surface solves the full prescribed-curvature problem.  The outer solve is
:func:`~cmc_hyp.melnikov.newton` with the Melnikov Jacobian ``-2 eps Hess f``;
each of its gradient evaluations is one ``correct``, and the state it reports
is the one computed at the accepted point, so a report's ``iterations`` are
the chord-loop passes of that call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chart as ch
from .bubbles import C0, bubble, flow_coefficients
from .chart import SphereField
from .energy import conformality_residual, energy_E
from .errors import ConvergenceError, NoCriticalPointError, NumericsError
from .halfspace import HyperbolicPoint
from .linearized import _j_nodal, j_residual, operator_pack
from .melnikov import f_hessian, f_value, find_critical, newton

# target of the 2-norm of the corrector's modal projected-equation residual
NEWTON_RESIDUAL = 1e-9


@dataclass
class ReductionState:
    """Converged data of the projected problem at ``(eps, q)``.

    ``nu`` is the correction field (exact modal derivatives attached),
    ``xi``/``alpha`` the generator multipliers; ``residual_norm`` is the
    modal 2-norm of the projected-equation residual, the quantity the chord
    loop stops on, and ``constraint_defect`` the worst orthogonality
    violation.  ``iterations`` counts the residual evaluations of the chord
    loop that produced the state, one more than its saddle solves (1 for a
    converged warm start).
    """

    eps: float
    q: HyperbolicPoint
    nu: SphereField
    nu_modal: np.ndarray
    xi: np.ndarray
    alpha: np.ndarray
    residual_norm: float
    constraint_defect: float
    iterations: int


def correct(eps, q, phi, params, grid, tol=NEWTON_RESIDUAL, warm=None):
    """Solve the projected problem at ``(eps, q)`` by a chord iteration.

    The Jacobian is frozen at the unperturbed sphere (where the implicit
    problem is exactly linear), so each step costs one block-by-block saddle
    solve against the pack's factorizations, which the first call builds,
    and the residual's jet of the correction: values and first derivatives
    from one transform, the Laplacian from the modes' degrees in another;
    the orthogonality constraints are enforced inside the solve and stay at
    roundoff.  At ``eps = 0`` the iteration returns the zero correction
    immediately.  A non-finite residual raises :class:`NumericsError` at
    once.
    """
    q = HyperbolicPoint.of(q)
    pack = operator_pack(grid, params)
    pack.saddle_factors
    gens = pack.frame.generators()
    mu2 = grid.mu[:, None] ** 2
    scale = q.p3**2 * params.r**2
    U = bubble(params, q, grid)
    U_lap = U.surface.laplacian(grid.nodes)

    c = np.zeros(3 * pack.nmodes) if warm is None else warm.nu_modal.copy()
    m = np.zeros(9) if warm is None else np.concatenate([warm.xi, warm.alpha])

    for it in range(1, 61):
        nv, ndx, ndy = jet = pack.nodal_vector_jet(c)
        lap = U_lap + pack.nodal_vector_laplacian(c)
        J = _j_nodal(U.values + nv, U.dx + ndx, U.dy + ndy, lap, params, phi,
                     eps)
        F1 = J / mu2
        for mj, gen in zip(m, gens):
            F1 = F1 - mj * gen
        rmod = pack.project_vector(F1)
        R2 = pack.frame_modal @ c
        rnorm = float(np.linalg.norm(rmod))
        if not np.isfinite(rnorm):
            raise NumericsError(f"non-finite residual at chord step {it}")
        if rnorm <= tol and np.max(np.abs(R2)) <= tol:
            break
        dc, dm = pack.saddle_solve(-scale * rmod, -R2)
        c = c + dc
        m = m + dm / scale
    else:
        raise ConvergenceError(
            f"projected solve stalled at residual {rnorm:.3e} after {it} steps")

    return ReductionState(
        eps=eps, q=q, nu=SphereField(grid, *jet), nu_modal=c,
        xi=m[:6].copy(), alpha=m[6:].copy(), residual_norm=rnorm,
        constraint_defect=float(np.max(np.abs(R2))), iterations=it)


def corrected_surface(state, params):
    """The surface ``U_q + nu`` as a field with first-derivative slots."""
    grid = state.nu.grid
    U = bubble(params, state.q, grid)
    return SphereField(grid, U.values + state.nu.values,
                       U.dx + state.nu.dx, U.dy + state.nu.dy)


def constant_matrices(params):
    """The two constant matrices relating multipliers to the reduced gradient.

    They encode the frame decompositions of the translation directions:
    ``2 c0 e1 = tau1 - tau5 + gamma1 omega / k`` and
    ``2 c0 e2 = tau2 + tau6 + gamma2 omega / k`` (note the opposite signs of
    the two quadratic flows, forced by the chart identities and confirmed by
    differencing the reduced energy directly).
    """
    k, r = params.k, params.r
    M = np.zeros((3, 6))
    M[0, 0], M[0, 4] = 1.0, -1.0
    M[1, 1], M[1, 5] = 1.0, 1.0
    M[2, 2] = np.sqrt(2.0) * k * r
    Theta = np.diag([k, k, (k * k + 3.0) * r])
    return M, Theta


def _correction_flows(grid, nu):
    """The six reparametrization flows of the correction field."""
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    return [cf * (a[:, None] * nu.dx + b[:, None] * nu.dy)
            for a, b, _, _, cf in flow_coefficients(x, y)]


def reduced_gradient(state, params):
    """Gradient of the reduced energy at the state's base point, the
    constant-matrix expression ``(M xi + Theta alpha) / (2 c0)`` in the
    state's multipliers."""
    M, Theta = constant_matrices(params)
    return (M @ state.xi + Theta @ state.alpha) / (2.0 * C0)


def interaction_matrix(state, params):
    """The 6 x 6 interaction matrix ``A_eps`` of the correction's flows with
    the frame; it contracts to zero with ``eps``."""
    grid = state.nu.grid
    M, Theta = constant_matrices(params)
    frame = operator_pack(grid, params).frame
    sigma = np.linalg.solve(Theta, M)   # 3 x 6
    flows = _correction_flows(grid, state.nu)
    w = grid.weights
    om = grid.omega
    A = np.empty((6, 6))
    for j, fl in enumerate(flows):
        fo = np.einsum("ij,ij->i", fl, om)
        for h in range(6):
            A[j, h] = np.sum(w * np.einsum("ij,ij->i", frame.tau[h].values, fl))
            A[j, h] -= sum(sigma[ell, h] * np.sum(w * frame.gamma[:, ell] * fo)
                           for ell in range(3))
    return A


def verify_side1(u, res, eps):
    """Stationarity of the weighted volume along the translation directions.

    At nonzero ``eps`` the three reported numbers are the energy variations
    ``int res . t dz`` (``res = j_residual(u, params, phi, eps)``) along
    ``t = e1``, ``e2`` and ``u`` divided by ``2 eps`` -- the exact weighted
    volume variations at critical points, where all three vanish.  At
    ``eps = 0`` the same variations are reported unscaled; they vanish for
    any surface by translation invariance.
    """
    grid, r = u.grid, res.values
    integrands = {"e1": r[:, 0], "e2": r[:, 1],
                  "u": np.einsum("ij,ij->i", r, u.values)}
    out = {"mode": "volume_variation" if eps != 0.0
           else "translation_invariance"}
    for name, integrand in integrands.items():
        val = np.sum(grid.weights / grid.mu**2 * integrand)
        out[name] = float(val / (2.0 * eps) if eps != 0.0 else val)
    return out


def _solve_at(eps, phi, params, grid, q_start, warm=None):
    """Newton over ``q`` at one ``eps`` with the Jacobian ``-2 eps Hess f``
    of ``grad_q = -2 eps grad f(q) + O(eps^2)``, ``Hess f`` the exact flux
    Hessian :func:`~cmc_hyp.melnikov.f_hessian`; 50 gtol is the noise floor.
    Returns the corrector state computed at the point Newton accepted."""
    gtol = 1e-9
    itol = min(NEWTON_RESIDUAL, 0.2 * gtol)
    state = warm
    states = {}

    def gradient(qa):
        nonlocal state
        state = correct(eps, HyperbolicPoint.of(qa), phi, params, grid,
                        warm=state, tol=itol)
        states[qa.tobytes()] = state
        return reduced_gradient(state, params)

    q, g = newton(gradient,
                  lambda qa: -2.0 * eps * f_hessian(phi, params, qa),
                  HyperbolicPoint.of(q_start).array, gtol,
                  lambda qa: qa[2] > 0, max_iter=25)
    if np.linalg.norm(g) > 50.0 * gtol:
        raise ConvergenceError("no reduced critical point: outer iteration "
                               f"stopped at |grad| = {np.linalg.norm(g):.3e}")
    return states[q.tobytes()]


def _report(state, phi, params, proxy=None):
    grid = state.nu.grid
    u = corrected_surface(state, params)
    res = j_residual(u, params, curvature=phi, eps=state.eps)
    conf, _ = conformality_residual(u)
    rep = {
        "eps": state.eps,
        "q": [state.q.p1, state.q.p2, state.q.p3],
        "xi": state.xi.tolist(),
        "alpha": state.alpha.tolist(),
        "xi_sup": float(np.max(np.abs(state.xi))),
        "alpha_sup": float(np.max(np.abs(state.alpha))),
        "residual_sup": float(np.max(np.abs(res.values))),
        "projected_residual": state.residual_norm,
        "constraint_defect": state.constraint_defect,
        "conformality": conf,
        "c0_distance": float(np.max(np.linalg.norm(state.nu.values, axis=1))),
        "c1_distance": ch.cm_norm(state.nu, 1),
        "nu_tail": operator_pack(grid, params).tail_ratio(state.nu_modal),
        "energy": energy_E(u, params, state.eps, phi),
        "f_value": f_value(phi, params, state.q),
        "side1": verify_side1(u, res, state.eps),
        "iterations": state.iterations,
    }
    if proxy is not None:
        rep["stability_proxy"] = proxy
    return u, rep


def check_schedule(eps_schedule):
    """Validate an ``eps`` schedule, which must be monotone in ``|eps|``;
    returns it as a list of floats."""
    eps_schedule = [float(e) for e in eps_schedule]
    mags = [abs(e) for e in eps_schedule]
    up = all(b >= a - 1e-15 for a, b in zip(mags, mags[1:]))
    down = all(b <= a + 1e-15 for a, b in zip(mags, mags[1:]))
    if not (up or down):
        raise ValueError("eps schedule must be monotone in |eps|")
    return eps_schedule


def continuation(eps_schedule, phi, params, box, grid, seeds=27, rng=None):
    """Construct perturbed-curvature spheres along a monotone ``eps`` schedule.

    A stable critical point of the reduced function must exist in ``box``
    (otherwise :class:`NoCriticalPointError` is raised, which the command
    line maps to its dedicated exit code); ``rng`` jitters the search seeds.
    The solve at each ``eps`` is warm-started from the previous one.  Stops
    at the first failure, keeping every completed report with the corrected
    surface's diagnostics.
    """
    eps_schedule = check_schedule(eps_schedule)
    crits = find_critical(phi, params, box, seeds=seeds, rng=rng)
    stable = [c for c in crits if c.classification != "degenerate"]
    if not stable:
        raise NoCriticalPointError(
            "no stable critical point of the reduced function in the box")
    q0 = stable[0].q
    reports = []
    state = None
    q_prev = q0
    for eps in eps_schedule:
        try:
            if eps == 0.0:
                st = correct(0.0, q_prev, phi, params, grid)
            else:
                st = _solve_at(eps, phi, params, grid, q_prev, warm=state)
        except (ConvergenceError, FloatingPointError) as exc:
            reports.append({"eps": eps, "status": "failed", "error": str(exc),
                            "hint": "retry with smaller eps steps"})
            break
        u, rep = _report(st, phi, params, proxy=stable[0].classification)
        rep["status"] = "ok"
        rep["_surface"] = u
        A = interaction_matrix(st, params)
        rep["A_eps_norm"] = float(np.linalg.norm(A, 2))
        reports.append(rep)
        state, q_prev = st, st.q
    return reports
