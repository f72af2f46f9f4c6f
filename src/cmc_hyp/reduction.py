"""Finite-dimensional reduction to the ball-center coordinate.

``correct`` solves the projected problem at ``(eps, q)``: it finds the
correction ``nu`` orthogonal to the nine tangent generators together with
multipliers ``(xi, alpha)`` so that the curvature residual of ``U_q + nu``
lies entirely in the generator span.  A chord iteration with the linearized
operator frozen at the unperturbed sphere does the work.  Each pass moves
between nodal and modal values with the operator pack's FFT transforms --
the correction's first derivatives exactly from the modal profiles and its
chart Laplacian from the modes' degrees by ``d_xx + d_yy = mu^2 Delta_S2``,
in one synthesis, so no pass differentiates nodal values -- and makes one
block-by-block saddle solve (the pack's ``saddle_solve``, one product with
a stored inverse per block), whose small inverses are built once per
``(grid, k)`` and shared across base points.  A pass is the residual map
:func:`_residual` and the chord step :func:`_chord`.  It keeps every nodal
field in the pack's layout, component-major ``(3, N)`` with the azimuth
fastest, from the jet's synthesis through the nodal residual to the
projection, so both FFTs run on the last axis and no pass transposes; only
a step's returned state is made ``(N, 3)``.  One pass of a ``continuation``
step costs about 0.77 ms at n = 24 and 1.6 ms at n = 40 (one core of a
shared two-core Xeon, one BLAS thread), against 0.96 and 2.0 ms in the
former ``(N, 3)`` layout.

Given the Hessian of ``f`` that :func:`find_critical` classified at the
Melnikov point, the same loop also drives the reduced gradient -- an
explicit linear expression in the multipliers -- to zero over ``q``, by the
chord step on ``-2 eps`` times that Hessian; at such points the multipliers
themselves vanish and the corrected surface solves the full
prescribed-curvature problem.  One loop thus moves the correction's modal
values, the multipliers and ``q`` together, and type-II Anderson mixing
(Anderson 1965; Walker and Ni 2011) of its chord steps keeps it
contracting where the frozen Jacobians are far from the true ones.
``continuation`` makes one such call per ``eps`` of a schedule, which
fails once ``q`` leaves the search box, and a step's ``iterations`` are
its passes.  Each step starts from the branch's
first-order expansion (:func:`_predict`): the branch is C^1 in ``eps``, so
``q0 + (eps/eps_prev)(q_prev - q0)``, with the previous correction and
multipliers scaled by the same ratio, is ``O(eps^2)`` from the step's
solution.  A step's surface ``U_q + nu`` and ``residual_sup`` come from
the loop's last pass (exact modal Laplacian); the spectral ``j_residual``
route is a test cross-check.  A failed step names how its loop stopped
(``stop``, a key of :data:`HINTS`) and the hint that follows from it.
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

# target of the 2-norm of the corrector's modal projected-equation residual
# and of its constraint defect: a fifth of the |grad| target below
NEWTON_RESIDUAL = 2e-10
# target of |grad| of the reduced energy where the corrector moves q too
GRADIENT_RESIDUAL = 1e-9
# most residual evaluations of one corrector call
MAX_PASSES = 60
# earlier chord steps that Anderson mixing combines with the newest
ANDERSON_DEPTH = 3
# a loop that the pass cap ends is still contracting when its last
# STALL_WINDOW passes came closer to the stop than every pass before them
STALL_WINDOW = 10
# largest sup of the curvature residual and of the multipliers xi, alpha in
# a resolved solve step, and its largest conformality residual
SOLVE_RESIDUAL = 1e-8
SOLVE_CONFORMALITY = 1e-6
# what a failed step suggests, by how its corrector loop stopped
HINTS = {
    "cap while contracting": "retry with smaller eps steps",
    "stagnated": "the corrector stopped contracting at this eps: its "
                 "frozen Jacobians are too far from the true ones here",
    "left the half-space": "this eps pushes the sphere out of the "
                           "half-space: stay at a smaller |eps|",
    "left the box": "the ball centre left the search box, away from the "
                    "branch of its critical point: stay at a smaller |eps|",
    "not finite": "phi or the residual is not finite on the surface: "
                  "check phi's domain",
}


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


class CorrectorStopped(ConvergenceError):
    """The corrector loop ended without a solution; ``stop`` (a key of
    :data:`HINTS`) says how."""

    def __init__(self, stop, text):
        super().__init__(text)
        self.stop = stop


def _mix(xs, fs):
    """Type-II Anderson mixing (Walker and Ni 2011) of the iterates ``xs``
    and their chord steps ``fs``, oldest first: the newest iterate plus its
    step, less the combination of the earlier differences whose steps best
    cancel the newest step in the 2-norm."""
    x, f = xs[-1], fs[-1]
    if len(xs) == 1:
        return x + f
    dx, df = np.diff(xs, axis=0).T, np.diff(fs, axis=0).T
    gamma = np.linalg.lstsq(df, f, rcond=None)[0]
    return x + f - (dx + df) @ gamma


def _sample(params, q, grid):
    """``U_q``'s values, chart derivatives and chart Laplacian in the
    corrector's component-major layout ``(3, N)``."""
    U = bubble(params, HyperbolicPoint.of(q), grid)
    return tuple(np.ascontiguousarray(a.T)
                 for a in (U.values, U.dx, U.dy, U.lap))


def _residual(x, eps, phi, pack, base=None, jet=None):
    """The corrector's residual map at ``x = (c, m, q)``: the correction's
    modal coefficients ``c``, the nine multipliers ``m`` and the ball
    centre ``q``, on the grid and at the curvature of the operator ``pack``.

    Returns ``((rmod, R2, g), jet, J)``: the modal residual of the
    projected equation, the constraint defect ``F c`` and the reduced
    gradient of ``m``; the correction's jet (values, chart derivatives and
    chart Laplacian) and the nodal residual ``J`` of ``U_q + nu``, both
    component-major ``(3, N)``.  ``base``, ``U_q``'s jet from
    :func:`_sample`, and ``jet``, the one of ``c``, skip their computation
    where the caller holds them.  A surface node below the plane raises
    :class:`CorrectorStopped` with stop ``left the half-space``, and a
    residual that is not finite with stop ``not finite``.
    """
    grid, params = pack.grid, pack.params
    c, m, q = x[:3 * pack.nmodes], x[3 * pack.nmodes:-3], x[-3:]
    if base is None:
        base = _sample(params, q, grid)
    if jet is None:
        jet = pack.nodal_vector_jet(c)
    u = [b + n for b, n in zip(base, jet)]
    low = np.min(u[0][2])
    if not low > 0.0:
        raise CorrectorStopped(
            "left the half-space",
            f"the corrected surface left the half-space: min p3 = {low:.3e}")
    try:
        J = _j_nodal(*u, params, phi, eps)
    except NumericsError as exc:
        raise CorrectorStopped("not finite", str(exc)) from None
    # the generators' projections are the pack's frame_modal rows
    rmod = (pack.analysis(J / grid.mu**2).reshape(-1)
            - pack.frame_modal.T @ m)
    g = _gradient(m, params)
    if not np.isfinite(np.linalg.norm(rmod) + np.linalg.norm(g)):
        raise CorrectorStopped("not finite", "non-finite residual")
    return (rmod, pack.frame_modal @ c, g), jet, J


def _chord(x, r, pack, jac=None):
    """The chord step at ``x`` from its residual parts ``r``: the saddle
    solve against the ``pack``'s operator, frozen at the unperturbed
    sphere, for the correction and the multipliers, and, given the frozen
    reduced Jacobian ``jac``, the reduced step ``-jac^-1 grad`` in ``q`` on
    the gradient of the updated multipliers (zero without)."""
    params = pack.params
    rmod, R2, _ = r
    m, q = x[3 * pack.nmodes:-3], x[-3:]
    scale = q[2] ** 2 * params.r ** 2
    dc, dm = pack.saddle_solve(-scale * rmod, -R2)
    dm = dm / scale
    dq = (np.zeros(3) if jac is None
          else -np.linalg.solve(jac, _gradient(m + dm, params)))
    return np.concatenate([dc, dm, dq])


def correct(eps, q, phi, params, grid, warm=None, hessian=None, box=None):
    """Solve the projected problem at ``(eps, q)`` by a mixed chord loop.

    The Jacobian is frozen at the unperturbed sphere (where the implicit
    problem is exactly linear), so each pass costs one evaluation of the
    residual map :func:`_residual` -- the correction's second-order jet
    from one transform (its Laplacian from the modes' degrees), one nodal
    residual and one projection -- and one chord step :func:`_chord`, a
    block-by-block saddle solve against the pack's saddle inverses, which
    the first call builds; the orthogonality constraints are enforced
    inside the solve and stay at roundoff.  Given
    the Melnikov ``hessian``, the loop moves the ball centre ``q`` too, by
    the reduced step ``-(-2 eps hessian)^-1 grad`` on the multipliers'
    reduced gradient, and its state is then a solution of the full
    prescribed-curvature problem; without it ``q`` stays fixed.  Type-II
    Anderson mixing of depth :data:`ANDERSON_DEPTH` combines the chord
    steps over the correction's modal values, the multipliers and ``q``.
    It stops once the modal residual and the constraint defect are both at
    most :data:`NEWTON_RESIDUAL` and, where ``q`` moves, ``|grad|`` at most
    :data:`GRADIENT_RESIDUAL`, and fails after :data:`MAX_PASSES` passes.
    At ``eps = 0`` the iteration returns the zero correction immediately.
    A residual or gradient that is not finite, a surface node below the
    plane, a ball centre at ``p3 <= 0`` and, given a search ``box``
    ``x0,x1,y0,y1,z0,z1``, a ball centre outside it fail at once: the
    absolute ``|grad|`` stop also holds far out where ``phi`` has vanished,
    so a centre that leaves the box has left the branch.  Every failure is
    a :class:`CorrectorStopped`, whose ``stop`` says how the loop ended.
    A ``warm`` state that carries its correction's jet ``nu`` (one this
    function returned) gives the first pass that jet instead of a
    synthesis; a ``warm`` state from a grid of another size is refused
    with a ``ValueError``.
    """
    if warm is not None and warm.surface.grid.n != grid.n:
        raise ValueError(
            f"the warm state was solved on a grid of n = "
            f"{warm.surface.grid.n}, not on this solve's n = {grid.n}")
    q = HyperbolicPoint.of(q).array
    if box is not None:
        box = np.asarray(box, dtype=float)
    pack = operator_pack(grid, params)
    pack.saddle_factors
    jac = -2.0 * eps * hessian if hessian is not None and eps != 0.0 else None

    x = np.concatenate([
        np.zeros(3 * pack.nmodes) if warm is None else warm.nu_modal,
        np.zeros(9) if warm is None else np.concatenate([warm.xi, warm.alpha]),
        q])
    jet = None
    if warm is not None and warm.nu is not None and warm.nu.grid is grid:
        jet = tuple(np.ascontiguousarray(a.T) for a in (
            warm.nu.values, warm.nu.dx, warm.nu.dy, warm.nu.lap))

    base, xs, fs, dists = None, [], [], []
    for it in range(1, MAX_PASSES + 1):
        if base is None:
            base = _sample(params, q, grid)
        try:
            r, jet, J = _residual(x, eps, phi, pack, base,
                                  jet if it == 1 else None)
        except CorrectorStopped as exc:
            raise CorrectorStopped(exc.stop,
                                   f"{exc} at chord step {it}") from None
        rnorm = float(np.linalg.norm(r[0]))
        defect = float(np.max(np.abs(r[1])))
        gnorm = float(np.linalg.norm(r[2])) if jac is not None else 0.0
        dists.append(max(rnorm / NEWTON_RESIDUAL, defect / NEWTON_RESIDUAL,
                         gnorm / GRADIENT_RESIDUAL))
        if dists[-1] <= 1.0:
            break
        xs.append(x)
        fs.append(_chord(x, r, pack, jac))
        del xs[:-ANDERSON_DEPTH - 1], fs[:-ANDERSON_DEPTH - 1]
        x = _mix(xs, fs)
        q_next = x[-3:]
        if not q_next[2] > 0.0:
            raise CorrectorStopped(
                "left the half-space", "the ball centre left the half-space "
                f"at chord step {it}: p3 = {q_next[2]:.3e}")
        if box is not None and not np.all(
                (box[::2] <= q_next) & (q_next <= box[1::2])):
            raise CorrectorStopped(
                "left the box", "the ball centre left the search box at "
                f"chord step {it}: q = ({q_next[0]:.3e}, {q_next[1]:.3e}, "
                f"{q_next[2]:.3e})")
        if not np.array_equal(q_next, q):
            q, base = q_next, None
    else:
        contracting = min(dists[-STALL_WINDOW:]) < min(dists[:-STALL_WINDOW])
        raise CorrectorStopped(
            "cap while contracting" if contracting else "stagnated",
            f"projected solve stalled at residual {rnorm:.3e}"
            + (f", |grad| = {gnorm:.3e}," if jac is not None else "")
            + f" after {it} steps")

    # the state's (N, 3) fields, made once per step
    field = lambda *parts: SphereField(
        grid, *(np.ascontiguousarray(a.T) for a in parts))
    m = x[3 * pack.nmodes:-3]
    return ReductionState(
        eps=eps, q=HyperbolicPoint.of(q), nu=field(*jet),
        surface=field(*(b + n for b, n in zip(base[:3], jet))),
        residual=field(J), nu_modal=x[:3 * pack.nmodes], xi=m[:6].copy(),
        alpha=m[6:].copy(), residual_norm=rnorm, constraint_defect=defect,
        iterations=it)


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


def _gradient(m, params):
    """The reduced gradient ``(M xi + Theta alpha) / (2 c0)`` of the nine
    multipliers ``m = (xi, alpha)``."""
    M, Theta = constant_matrices(params)
    return (M @ m[:6] + Theta @ m[6:]) / (2.0 * C0)


def reduced_gradient(state, params):
    """Gradient of the reduced energy at the state's base point, the
    constant-matrix expression ``(M xi + Theta alpha) / (2 c0)`` in the
    state's multipliers."""
    return _gradient(np.concatenate([state.xi, state.alpha]), params)


def interaction_matrix(state, params):
    """The 6 x 6 interaction matrix ``A_eps`` of the correction's flows with
    the frame, their tau parts less their gamma parts times ``Theta^-1 M``;
    it contracts to zero with ``eps``.

    Flow ``j`` of the correction is ``cf_j (a_j d_x nu + b_j d_y nu)`` and
    ``tau_h`` is ``cf_h (a_h d_x omega + b_h d_y omega)``, so both parts
    come from the weighted per-node dot products of ``d_x nu`` and
    ``d_y nu`` with ``d_x omega``, ``d_y omega`` and ``omega``, contracted
    with the flows' ``(6, N)`` coefficient rows ``cf a`` and ``cf b`` in
    matrix products: about 0.17 ms at n = 24 and 0.37 ms at n = 40 (one
    core of a shared two-core Xeon, one BLAS thread), against 0.43 and
    0.69 ms with the six flow fields formed node by node.
    """
    nu, grid = state.nu, state.nu.grid
    M, Theta = constant_matrices(params)
    gamma = operator_pack(grid, params).frame.gamma
    x, y, w = grid.nodes[:, 0], grid.nodes[:, 1], grid.weights
    ca, cb = (np.array(rows) for rows in zip(
        *[(cf * a, cf * b) for a, b, cf in flow_coefficients(x, y)]))
    # f . d_x nu and f . d_y nu at each node, times the node's weight
    (xx, xy), (yx, yy), (ox, oy) = (
        [w * np.einsum("nc,nc->n", f, d) for d in (nu.dx, nu.dy)]
        for f in (grid.domega_dx, grid.domega_dy, grid.omega))
    return ((ca * xx + cb * xy) @ ca.T + (ca * yx + cb * yy) @ cb.T
            - (ca * ox + cb * oy) @ gamma @ np.linalg.solve(Theta, M))


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


def _report(state, phi, params, proxy=None):
    grid, u, res = state.nu.grid, state.surface, state.residual
    conf, _ = conformality_residual(u)
    c0 = ch.cm_norm(state.nu, 0)
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
        "c0_distance": c0,
        "c1_distance": c0 + ch.gradient_sup(state.nu),
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
    its solution, and is one :func:`correct` call that moves ``q`` on the
    critical point's Hessian and keeps it in ``box``.  Stops at the first
    failure, keeping every completed report with the corrected surface's
    diagnostics; the failed step's report holds the error, the ``stop`` of
    the loop that raised it (``"not finite"`` when the diagnostics raise)
    and that stop's entry of :data:`HINTS` (both ``None`` for an error no
    loop recorded).  A step's ``status``
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
        stop = None
        try:
            q_start, warm = _predict(q0, state, eps)
            state = correct(eps, q_start, phi, params, grid, warm=warm,
                            hessian=hessian, box=box)
            # past the corrector, an error is phi or the energy not finite
            stop = "not finite"
            rep = _report(state, phi, params, proxy=stable[0].classification)
        except NumericsError as exc:
            stop = getattr(exc, "stop", stop)
            reports.append({"eps": eps, "status": "failed", "error": str(exc),
                            "stop": stop, "hint": HINTS.get(stop)})
            break
        reports.append(dict(rep, status="ok", _surface=state.surface))
    return reports
