"""Finite-dimensional reduction to the ball-center coordinate.

``correct`` solves the projected problem at fixed ``(eps, q)``: it finds the
correction ``nu`` orthogonal to the nine tangent generators together with
multipliers ``(xi, alpha)`` so that the curvature residual of ``U_q + nu``
lies entirely in the generator span.  A chord iteration with the linearized
operator frozen at the unperturbed sphere does the work.  Each step moves
between nodal and modal values with the operator pack's FFT transforms --
the correction's first derivatives exactly from the modal profiles and its
chart Laplacian from the modes' degrees by ``d_xx + d_yy = mu^2 Delta_S2``,
in one synthesis, so no step differentiates nodal values -- and makes one
block-by-block saddle solve (the pack's ``saddle_solve``, one product with
a stored inverse per block), whose small inverses are built once per
``(grid, k)`` and shared across base points.

``continuation`` then drives the reduced gradient -- an explicit linear
expression in the multipliers -- to zero over ``q`` at each ``eps`` of a
schedule; at such points the multipliers themselves vanish and the corrected
surface solves the full prescribed-curvature problem.  The outer solve is a
chord iteration too, frozen at ``-2 eps`` times the Hessian of ``f`` that
:func:`find_critical` classified at the Melnikov point; each pass is one
``correct``, and a step reports the state of its smallest reduced gradient,
so its ``iterations`` are that call's chord-loop passes.  Each step starts
from the branch's first-order expansion (:func:`_predict`): the branch is
C^1 in ``eps``, so ``q0 + (eps/eps_prev)(q_prev - q0)``, with the previous
correction and multipliers scaled by the same ratio, is ``O(eps^2)`` from
the step's solution.  A step's surface ``U_q + nu`` and
``residual_sup`` come from the corrector's last chord pass (exact modal
Laplacian); the spectral ``j_residual`` route is a test cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import chart as ch
from .bubbles import C0, bubble, flow_coefficients
from .chart import SphereField
from .energy import conformality_residual, energy_E
from .errors import ConvergenceError, NoCriticalPointError, NumericsError
from .halfspace import HyperbolicPoint
from .linearized import _j_nodal, operator_pack
from .melnikov import SEEDS, f_value, find_critical, stable_points

# target of the 2-norm of the corrector's modal projected-equation residual:
# a fifth of the outer solve's |grad| target, 1e-9
NEWTON_RESIDUAL = 2e-10
# largest sup of the curvature residual and of the multipliers xi, alpha in
# a resolved solve step, and its largest conformality residual
SOLVE_RESIDUAL = 1e-8
SOLVE_CONFORMALITY = 1e-6


@dataclass
class ReductionState:
    """Converged data of the projected problem at ``(eps, q)``.

    ``nu`` is the correction field (exact modal derivatives and ``lap``),
    the jet of the modal values ``nu_modal``, or ``None`` in a warm start
    whose modal values were changed (:func:`_predict`'s); ``surface`` (with
    chart derivatives) and ``residual`` the corrected surface ``U_q + nu``
    and its nodal curvature residual from the chord loop's last pass,
    ``xi``/``alpha`` the generator multipliers; ``residual_norm`` is the
    modal 2-norm of the projected-equation residual, the quantity the chord
    loop stops on, and ``constraint_defect`` the worst orthogonality
    violation.
    ``iterations`` counts the residual evaluations of the chord loop that
    produced the state, one more than its saddle solves (1 for a converged
    warm start).
    """

    eps: float
    q: HyperbolicPoint
    nu: SphereField | None
    surface: SphereField
    residual: SphereField
    nu_modal: np.ndarray
    xi: np.ndarray
    alpha: np.ndarray
    residual_norm: float
    constraint_defect: float
    iterations: int


def correct(eps, q, phi, params, grid, warm=None):
    """Solve the projected problem at ``(eps, q)`` by a chord iteration.

    The Jacobian is frozen at the unperturbed sphere (where the implicit
    problem is exactly linear), so each step costs one block-by-block saddle
    solve against the pack's saddle inverses, which the first call builds,
    and the correction's second-order jet from one transform (its
    Laplacian from the modes' degrees); the orthogonality constraints are
    enforced inside the solve and stay at roundoff.  It stops once the
    modal residual and the constraint defect are both at most
    :data:`NEWTON_RESIDUAL`.  At ``eps = 0`` the iteration returns the zero
    correction immediately.  A non-finite residual raises
    :class:`NumericsError` at once.  A ``warm`` state that carries its
    correction's jet ``nu`` (one this function returned) gives the first
    pass that jet instead of a synthesis.
    """
    q = HyperbolicPoint.of(q)
    pack = operator_pack(grid, params)
    pack.saddle_factors
    mu2 = grid.mu[:, None] ** 2
    scale = q.p3**2 * params.r**2
    U = bubble(params, q, grid)

    c = np.zeros(3 * pack.nmodes) if warm is None else warm.nu_modal.copy()
    m = np.zeros(9) if warm is None else np.concatenate([warm.xi, warm.alpha])
    jet = None
    if warm is not None and warm.nu is not None and warm.nu.grid is grid:
        jet = (warm.nu.values, warm.nu.dx, warm.nu.dy, warm.nu.lap)

    for it in range(1, 61):
        if it > 1 or jet is None:
            jet = pack.nodal_vector_jet(c)
        nv, ndx, ndy, nlap = jet
        u = (U.values + nv, U.dx + ndx, U.dy + ndy)
        J = _j_nodal(*u, U.lap + nlap, params, phi, eps)
        # the generators' projections are the pack's frame_modal rows
        rmod = pack.project_vector(J / mu2) - pack.frame_modal.T @ m
        R2 = pack.frame_modal @ c
        rnorm = float(np.linalg.norm(rmod))
        if not np.isfinite(rnorm):
            raise NumericsError(f"non-finite residual at chord step {it}")
        if rnorm <= NEWTON_RESIDUAL and np.max(np.abs(R2)) <= NEWTON_RESIDUAL:
            break
        dc, dm = pack.saddle_solve(-scale * rmod, -R2)
        c = c + dc
        m = m + dm / scale
    else:
        raise ConvergenceError(
            f"projected solve stalled at residual {rnorm:.3e} after {it} steps")

    return ReductionState(
        eps=eps, q=q, nu=SphereField(grid, *jet),
        surface=SphereField(grid, *u), residual=SphereField(grid, J),
        nu_modal=c, xi=m[:6].copy(), alpha=m[6:].copy(), residual_norm=rnorm,
        constraint_defect=float(np.max(np.abs(R2))), iterations=it)


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


def reduced_gradient(state, params):
    """Gradient of the reduced energy at the state's base point, the
    constant-matrix expression ``(M xi + Theta alpha) / (2 c0)`` in the
    state's multipliers."""
    M, Theta = constant_matrices(params)
    return (M @ state.xi + Theta @ state.alpha) / (2.0 * C0)


def interaction_matrix(state, params):
    """The 6 x 6 interaction matrix ``A_eps`` of the correction's flows with
    the frame, their tau parts less their gamma parts times ``Theta^-1 M``;
    it contracts to zero with ``eps``."""
    nu, grid = state.nu, state.nu.grid
    M, Theta = constant_matrices(params)
    frame = operator_pack(grid, params).frame
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    flows = grid.weights[:, None] * np.array(
        [cf * (a[:, None] * nu.dx + b[:, None] * nu.dy)
         for a, b, cf in flow_coefficients(x, y)])
    tau = np.stack([t.values for t in frame.tau])
    A = np.einsum("jnc,hnc->jh", flows, tau)
    normal = np.einsum("jnc,nc->jn", flows, grid.omega)
    return A - normal @ frame.gamma @ np.linalg.solve(Theta, M)


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


def _solve_at(eps, phi, params, grid, q_start, hessian, warm=None):
    """Chord iteration over ``q`` at one ``eps`` on the Melnikov Jacobian
    ``-2 eps hessian`` of ``grad_q = -2 eps grad f(q) + O(eps^2)``: at most
    25 passes of one warm-started :func:`correct`, until ``|g|`` stops
    falling or a step leaves the half-space.  Returns the state of smallest
    ``|g|``, which must be within the noise floor 50 gtol; the error of a
    state above it names the stop that ended the loop."""
    gtol, passes = 1e-9, 25
    jac = -2.0 * eps * hessian
    q, state, gn = HyperbolicPoint.of(q_start).array, warm, np.inf
    for _ in range(passes):
        trial = correct(eps, HyperbolicPoint.of(q), phi, params, grid,
                        warm=state)
        g = reduced_gradient(trial, params)
        gnew = np.linalg.norm(g)
        if not gnew < gn:
            stop = f"a pass did not lower it (|grad| = {gnew:.3e})"
            break
        state, gn = trial, gnew
        if gn <= gtol:
            break
        q = q - np.linalg.solve(jac, g)
        if not q[2] > 0.0:
            stop = f"a step went to p3 = {q[2]:.3e} <= 0"
            break
    else:
        stop = (f"the cap of {passes} passes ended it while |grad| was "
                "still falling")
    if gn > 50.0 * gtol:
        raise ConvergenceError("no reduced critical point: outer iteration "
                               f"stopped at |grad| = {gn:.3e}: {stop}")
    return state


def _report(state, phi, params, proxy=None):
    grid, u, res = state.nu.grid, state.surface, state.residual
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
        "c0_distance": ch.cm_norm(state.nu, 0),
        "c1_distance": ch.cm_norm(state.nu, 1),
        "nu_tail": operator_pack(grid, params).tail_ratio(state.nu_modal),
        "energy": energy_E(u, params, state.eps, phi),
        "f_value": f_value(phi, params, state.q),
        "side1": verify_side1(u, res, state.eps),
        "iterations": state.iterations,
        "A_eps_norm": float(np.linalg.norm(interaction_matrix(state, params),
                                           2)),
    }
    rep["resolved"] = bool(
        max(rep["residual_sup"], rep["xi_sup"], rep["alpha_sup"])
        <= SOLVE_RESIDUAL and conf <= SOLVE_CONFORMALITY)
    if proxy is not None:
        rep["stability_proxy"] = proxy
    return rep


def check_schedule(eps_schedule):
    """Validate an ``eps`` schedule of finite values, which must be monotone
    in ``|eps|``; returns it as a list of floats."""
    eps_schedule = [float(e) for e in eps_schedule]
    if not np.isfinite(eps_schedule).all():
        raise ValueError(f"eps values must be finite, not {eps_schedule}")
    mags = [abs(e) for e in eps_schedule]
    up = all(b >= a - 1e-15 for a, b in zip(mags, mags[1:]))
    down = all(b <= a + 1e-15 for a, b in zip(mags, mags[1:]))
    if not (up or down):
        raise ValueError("eps schedule must be monotone in |eps|")
    return eps_schedule


def _predict(q0, state, eps):
    """Start of the solve at ``eps`` after the step that produced ``state``.

    The branch is C^1 in ``eps``: ``q(eps) = q0 + eps q1 + O(eps^2)`` with
    ``q0`` the Melnikov critical point, and ``nu``, ``xi``, ``alpha`` are
    ``eps`` times a smooth function of ``q`` plus ``O(eps^2)``.  So with
    ``t = eps / eps_prev`` the start ``q0 + t (q_prev - q0)`` and the
    previous correction and multipliers times ``t`` are ``O(eps^2)`` from
    the solution, where the previous state itself is ``O(eps)`` away.  A
    start at ``p3 <= 0`` (a large ``|t|``) falls back to ``q_prev``.  The
    first step, a step at ``eps = 0`` and a step after one start from
    ``q0`` cold.  The warm state drops the previous correction's jet
    ``nu``, which the scaled modal values no longer match.
    """
    if state is None or state.eps == 0.0 or eps == 0.0:
        return q0, None
    t = eps / state.eps
    q_start = q0.array + t * (state.q.array - q0.array)
    if not q_start[2] > 0.0:
        q_start = state.q.array
    warm = replace(state, nu=None, nu_modal=t * state.nu_modal,
                   xi=t * state.xi, alpha=t * state.alpha)
    return HyperbolicPoint.of(q_start), warm


def continuation(eps_schedule, phi, params, box, grid, seeds=SEEDS):
    """Construct perturbed-curvature spheres along a monotone ``eps`` schedule.

    A stable critical point of the reduced function must exist in ``box``
    (otherwise :class:`NoCriticalPointError` is raised, which the command
    line maps to its dedicated exit code); the search starts from the
    ``seeds`` points of a box lattice.  The solve at each ``eps`` starts
    from the first-order prediction of :func:`_predict`, ``O(eps^2)`` from
    its solution.  Stops at the first failure, keeping every completed
    report with the corrected surface's diagnostics.  A step's ``status``
    says whether its solve converged, its ``resolved`` whether the grid
    resolves the solution: the sup of the curvature residual and of the
    multipliers at most :data:`SOLVE_RESIDUAL`, the conformality residual at
    most :data:`SOLVE_CONFORMALITY`.
    """
    eps_schedule = check_schedule(eps_schedule)
    stable = stable_points(find_critical(phi, params, box, seeds=seeds))
    if not stable:
        raise NoCriticalPointError(
            "no stable critical point of the reduced function in the box")
    q0, hessian = stable[0].q, stable[0].hessian
    reports = []
    state = None
    for eps in eps_schedule:
        try:
            q_start, warm = _predict(q0, state, eps)
            state = _solve_at(eps, phi, params, grid, q_start, hessian,
                              warm=warm)
        except NumericsError as exc:
            reports.append({"eps": eps, "status": "failed", "error": str(exc),
                            "hint": "retry with smaller eps steps"})
            break
        rep = _report(state, phi, params, proxy=stable[0].classification)
        reports.append(dict(rep, status="ok", _surface=state.surface))
    return reports
