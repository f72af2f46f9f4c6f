import dataclasses
import re

import numpy as np
import pytest

from cmc_hyp import bubbles as bb
from cmc_hyp import chart as ch
from cmc_hyp import energy as en
from cmc_hyp import linearized as lin
from cmc_hyp import melnikov as mel
from cmc_hyp import reduction as red
from cmc_hyp.errors import ConvergenceError, NoCriticalPointError, \
    NumericsError
from cmc_hyp.halfspace import HyperbolicPoint
from cmc_hyp.phi_expr import phi_to_prescribed

Q0 = HyperbolicPoint(0, 0, 1)
BOX = (-0.4, 0.4, -0.4, 0.4, 0.6, 1.6)


@pytest.fixture(scope="module")
def bump():
    return mel.phi_radial_gaussian((0, 0, 1))


def test_correct_at_zero(grid16, params2, bump):
    st = red.correct(0.0, Q0, bump, params2, grid16)
    assert st.iterations <= 1
    assert np.max(np.abs(st.nu.values)) == 0.0
    assert np.max(np.abs(st.xi)) == 0.0 and np.max(np.abs(st.alpha)) == 0.0


def test_correct_linear_smallness(grid16, params2, bump):
    ratios = []
    for eps in (0.01, 0.005, 0.0025):
        st = red.correct(eps, Q0, bump, params2, grid16)
        assert st.constraint_defect < 1e-10
        assert st.residual_norm < 1e-8
        ratios.append(ch.cm_norm(ch.differentiate(st.nu), 1) / eps)
    assert max(ratios) < 1.5 * min(ratios)


def test_correct_rejects_non_finite_residual(grid16, params2):
    # a value-only function built by hand checks nothing itself
    nan_phi = mel.PrescribedFunction(
        lambda p: np.full(np.shape(p)[:-1], np.nan), None, "nan")
    with pytest.raises(NumericsError, match="non-finite"):
        red.correct(0.01, Q0, nan_phi, params2, grid16)


def test_correct_off_center(grid16, params2, bump):
    st = red.correct(0.01, HyperbolicPoint(0.2, -0.1, 1.2), bump, params2,
                     grid16)
    assert st.constraint_defect < 1e-10
    # the reported residual is the modal norm the chord loop stops on, not
    # the nodal sup of the unprojected residual (3.5e-7 here)
    assert st.residual_norm <= red.NEWTON_RESIDUAL
    # multipliers pick up the broken symmetry
    assert np.max(np.abs(st.xi)) > 1e-6 or np.max(np.abs(st.alpha)) > 1e-6


def test_correct_never_calls_spectral_derivatives(grid16, params2, bump,
                                                  monkeypatch):
    # the chord step takes nu's Laplacian from its modal degrees
    def refuse(*args, **kwargs):
        raise AssertionError("correct called chart.spectral_derivatives")

    monkeypatch.setattr(ch, "spectral_derivatives", refuse)
    st = red.correct(0.01, HyperbolicPoint(0.2, -0.1, 1.2), bump, params2,
                     grid16)
    assert st.iterations > 1 and st.constraint_defect < 1e-10


def test_correct_keeps_its_last_pass(grid24, params2, bump):
    # the state's surface and residual are the last chord pass's; the
    # spectral route takes the Laplacian of the whole surface independently
    for eps, q in ((0.01, Q0), (0.02, HyperbolicPoint(0.2, -0.1, 1.2))):
        st = red.correct(eps, q, bump, params2, grid24)
        U = bb.bubble(params2, q, grid24)
        assert np.array_equal(st.surface.values, U.values + st.nu.values)
        assert np.array_equal(st.surface.dx, U.dx + st.nu.dx)
        ref = lin.j_residual(st.surface, params2, curvature=bump, eps=eps)
        sup = np.max(np.abs(ref.values))
        assert np.max(np.abs(st.residual.values - ref.values)) \
            <= 1e-12 * max(1.0, sup)


def test_continuation_never_calls_spectral_derivatives(grid24, params2,
                                                       monkeypatch):
    # every step's surface and residual come from the corrector, which
    # alone samples the sphere
    def refuse(*args, **kwargs):
        raise AssertionError("continuation called chart.spectral_derivatives")

    counts = {"inside": 0, "outside": 0, "correct": 0}
    bubble, correct = red.bubble, red.correct

    def counting_bubble(*args, **kwargs):
        counts["inside" if inside else "outside"] += 1
        return bubble(*args, **kwargs)

    def counting_correct(*args, **kwargs):
        nonlocal inside
        counts["correct"] += 1
        inside = True
        try:
            return correct(*args, **kwargs)
        finally:
            inside = False

    inside = False
    monkeypatch.setattr(ch, "spectral_derivatives", refuse)
    monkeypatch.setattr(red, "bubble", counting_bubble)
    monkeypatch.setattr(red, "correct", counting_correct)
    phi = phi_to_prescribed("exp(-hypdist(0,0,1)^2)")
    reports = red.continuation([0.02, 0.01, 0.005], phi, params2, BOX, grid24)
    assert [r["status"] for r in reports] == ["ok"] * 3
    assert all(r["resolved"] for r in reports)
    # one corrector call per step, which samples the sphere once per pass
    # in which q moved
    assert counts["correct"] == 3
    assert counts["outside"] == 0 and counts["inside"] >= 3


def test_warm_correct_reuses_the_jet_it_returned(grid16, params2, bump,
                                                 monkeypatch):
    # a state correct returned holds the jet of its modal values, so a
    # correct warm-started from it skips one synthesis and ends bit for bit
    # where a warm start without that jet does
    state = red.correct(0.01, (0.05, 0.0, 1.02), bump, params2, grid16)
    pack = lin.operator_pack(grid16, params2)
    synth = []
    jet = type(pack).nodal_vector_jet

    def counted(self, coeffs):
        synth.append(len(coeffs))
        return jet(self, coeffs)
    monkeypatch.setattr(type(pack), "nodal_vector_jet", counted)
    q = (0.04, 0.01, 1.0)
    reused = red.correct(0.01, q, bump, params2, grid16, warm=state)
    assert len(synth) == reused.iterations - 1
    del synth[:]
    fresh = red.correct(0.01, q, bump, params2, grid16,
                        warm=dataclasses.replace(state, nu=None))
    assert len(synth) == fresh.iterations == reused.iterations
    for name in ("nu", "surface", "residual"):
        a, b = getattr(reused, name), getattr(fresh, name)
        for part in ("values", "dx", "dy", "lap"):
            x, y = getattr(a, part), getattr(b, part)
            assert (x is None and y is None) or x.tobytes() == y.tobytes()
    for name in ("nu_modal", "xi", "alpha"):
        assert getattr(reused, name).tobytes() == getattr(fresh, name).tobytes()
    assert reused.residual_norm == fresh.residual_norm


def test_constant_matrices(params2):
    M, Theta = red.constant_matrices(params2)
    assert M[2, 2] == pytest.approx(np.sqrt(2.0) * 2.0 / np.sqrt(3.0),
                                    abs=1e-12)
    assert M[2, 2] == pytest.approx(1.632993161855452, abs=1e-12)
    assert np.allclose(np.diag(Theta),
                       [2.0, 2.0, 7.0 / np.sqrt(3.0)])
    assert Theta[2, 2] == pytest.approx(4.041451884327381, abs=1e-12)


def _reduced_gradient_fd(state, phi, params):
    """The reduced gradient differenced directly through re-corrected
    energies at shifted base points."""
    grid = state.nu.grid
    fd = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1e-3 * max(1.0, state.q.p3)
        qp = HyperbolicPoint.of(state.q.array + e)
        qm = HyperbolicPoint.of(state.q.array - e)
        sp = red.correct(state.eps, qp, phi, params, grid, warm=state)
        sm = red.correct(state.eps, qm, phi, params, grid, warm=state)
        Ep = en.energy_E(sp.surface, params, state.eps, phi)
        Em = en.energy_E(sm.surface, params, state.eps, phi)
        fd[i] = (Ep - Em) / (2.0 * e[i])
    return fd


def _interaction_matrix_entrywise(state, params):
    """``A_eps`` entry by entry from its definition: the weighted product
    of flow ``j`` of the correction with ``tau_h``, less ``sigma[l, h]``
    times that of the flow's normal part with ``gamma_l``, ``sigma`` being
    ``Theta^-1 M``."""
    grid, nu = state.nu.grid, state.nu
    M, Theta = red.constant_matrices(params)
    sigma = np.linalg.solve(Theta, M)
    frame = bb.tangent_frame(params, grid)
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    w, om = grid.weights, grid.omega
    A = np.empty((6, 6))
    for j, (a, b, cf) in enumerate(bb.flow_coefficients(x, y)):
        fl = cf * (a[:, None] * nu.dx + b[:, None] * nu.dy)
        fo = np.einsum("ij,ij->i", fl, om)
        for h in range(6):
            A[j, h] = np.sum(w * np.einsum("ij,ij->i", frame.tau[h].values,
                                           fl))
            A[j, h] -= sum(sigma[ell, h] * np.sum(w * frame.gamma[:, ell] * fo)
                           for ell in range(3))
    return A


def test_interaction_matrix_matches_entrywise(grid16, grid24, params2, bump):
    for grid in (grid16, grid24, ch.build_grid(40)):
        st = red.correct(0.02, HyperbolicPoint(0.2, -0.1, 1.2), bump,
                         params2, grid)
        A = red.interaction_matrix(st, params2)
        ref = _interaction_matrix_entrywise(st, params2)
        assert np.max(np.abs(ref)) > 1e-4
        assert np.max(np.abs(A - ref)) <= 1e-14


def test_reduced_gradient(grid16, params2, bump):
    st0 = red.correct(0.0, Q0, bump, params2, grid16)
    g0 = red.reduced_gradient(st0, params2)
    assert np.allclose(g0, 0.0)
    st = red.correct(0.01, HyperbolicPoint(0.1, -0.05, 1.1), bump, params2,
                     grid16)
    grad_q = red.reduced_gradient(st, params2)
    grad_fd = _reduced_gradient_fd(st, bump, params2)
    scale = max(np.max(np.abs(grad_q)), 1e-12)
    assert np.max(np.abs(grad_q - grad_fd)) <= max(1e-6, 1e-3 * scale)
    assert red.interaction_matrix(st, params2).shape == (6, 6)


def test_continuation_single_step_radial(grid16, params2, bump):
    eps = 0.01
    rep, = red.continuation([eps], bump, params2, BOX, grid16)
    q = np.array(rep["q"])
    assert np.linalg.norm(q - np.array([0, 0, 1])) < 5 * eps
    assert rep["residual_sup"] < 1e-8
    assert rep["xi_sup"] < 1e-8 and rep["alpha_sup"] < 1e-8
    assert rep["conformality"] < 1e-6
    assert rep["c0_distance"] < 1.0 * eps
    s1 = rep["side1"]
    assert max(abs(s1["e1"]), abs(s1["e2"]), abs(s1["u"])) < 1e-7


def test_continuation_single_step_eps_zero(grid16, params2, bump):
    rep, = red.continuation([0.0], bump, params2, BOX, grid16)
    assert rep["residual_sup"] < 1e-10
    assert rep["c0_distance"] == 0.0
    assert np.allclose(rep["q"], [0, 0, 1], atol=1e-7)


def test_continuation_refuses_obstructed(grid16, params2):
    with pytest.raises(NoCriticalPointError):
        red.continuation([0.01], mel.phi_coordinate(0), params2, BOX, grid16)


def test_continuation_and_asymptotics(grid16, params2, bump):
    reports = red.continuation([0.02, 0.01, 0.005], bump, params2, BOX,
                               grid16)
    assert all(r["status"] == "ok" for r in reports)
    dists = [np.linalg.norm(np.array(r["q"]) - np.array([0, 0, 1]))
             for r in reports]
    assert dists[0] > dists[1] > dists[2]          # q_eps -> critical point
    ratios = [r["c0_distance"] / abs(r["eps"]) for r in reports]
    assert max(ratios) < 1.5 * min(ratios)         # O(eps) distance
    anorms = [r["A_eps_norm"] for r in reports]
    assert anorms[0] > anorms[1] > anorms[2]       # interaction matrix -> 0
    with pytest.raises(ValueError):
        red.continuation([0.01, 0.03, 0.02], bump, params2, BOX, grid16)


def test_continuation_reports_the_accepted_state(grid16, params2, bump,
                                                 monkeypatch):
    calls = []
    correct = red.correct

    def recording(eps, q, *args, **kwargs):
        st = correct(eps, q, *args, **kwargs)
        calls.append((st.eps, (st.q.p1, st.q.p2, st.q.p3), st.iterations))
        return st

    monkeypatch.setattr(red, "correct", recording)
    reports = red.continuation([0.02, 0.01, 0.005], bump, params2, BOX,
                               grid16)
    assert all(r["status"] == "ok" for r in reports)
    # no call repeats the one before it, which would re-solve a state
    # the outer loop already has
    assert all(a[:2] != b[:2] for a, b in zip(calls, calls[1:]))
    for rep in reports:
        at_q = [it for eps, q, it in calls
                if eps == rep["eps"] and q == tuple(rep["q"])]
        assert at_q and rep["iterations"] == at_q[0]


def _synthetic_state(eps, q):
    return red.ReductionState(
        eps=eps, q=HyperbolicPoint.of(q), nu="the jet", surface=None,
        residual=None, nu_modal=np.arange(4.0), xi=np.arange(6.0),
        alpha=np.arange(3.0), residual_norm=0.0, constraint_defect=0.0,
        iterations=1)


def test_predict_first_order_expansion():
    prev = _synthetic_state(0.005, (0.1, -0.05, 0.9))
    assert red._predict(Q0, None, 0.01) == (Q0, None)
    # a sign change (t = -2) is a legal schedule and keeps predicting
    q, warm = red._predict(Q0, prev, -0.01)
    assert np.allclose(q.array, [-0.2, 0.1, 1.2], rtol=0, atol=1e-15)
    assert np.array_equal(warm.nu_modal, -2.0 * prev.nu_modal)
    assert np.array_equal(warm.xi, -2.0 * prev.xi)
    assert np.array_equal(warm.alpha, -2.0 * prev.alpha)
    # the previous jet does not match the scaled modal values
    assert warm.nu is None
    assert warm.q == prev.q and np.array_equal(prev.xi, np.arange(6.0))
    # a step at eps = 0, and a step after one, starts cold from q0
    zero = _synthetic_state(0.0, (0.1, -0.05, 0.9))
    assert red._predict(Q0, zero, 0.01) == (Q0, None)
    assert red._predict(Q0, prev, 0.0) == (Q0, None)


def test_predict_falls_back_inside_the_half_space():
    # t = 4 extrapolates p3 to 1 + 4 (0.3 - 1) = -1.8: start from q_prev
    prev = _synthetic_state(0.005, (0.0, 0.0, 0.3))
    q, warm = red._predict(Q0, prev, 0.02)
    assert q == prev.q
    assert np.array_equal(warm.xi, 4.0 * prev.xi)


def test_continuation_predictor_saves_work(grid16, params2, monkeypatch):
    # starting each later step from the first-order expansion, with the
    # reduced Jacobian frozen at the Melnikov point, makes 3 corrector calls
    # (16 mixed passes) here; the former nested loop made 9 (38 passes)
    calls = []
    correct = red.correct

    def recording(*args, **kwargs):
        st = correct(*args, **kwargs)
        calls.append(st.iterations)
        return st

    monkeypatch.setattr(red, "correct", recording)
    phi = phi_to_prescribed("exp(-hypdist(0,0,1)^2)")
    reports = red.continuation([0.02, 0.01, 0.005], phi, params2, BOX,
                               grid16)
    assert all(r["status"] == "ok" and r["resolved"] for r in reports)
    assert len(calls) == 3, calls
    assert sum(calls) <= 16, calls


def test_correct_reports_a_stalled_chord_loop(params2):
    # at eps = 1.2 the chord iteration frozen at the unperturbed sphere
    # does not contract, mixed or not; after its 60 steps it raises, naming
    # the residual and how the loop ended
    phi = phi_to_prescribed("exp(-hypdist(0.1,0.05,1.1)^2) + 0.1*p1")
    with pytest.raises(ConvergenceError,
                       match=r"projected solve stalled at residual \S+ "
                             "after 60 steps") as err:
        red.correct(1.2, (0.178, 0.05, 1.08), phi, params2,
                    ch.build_grid(16))
    assert err.value.stop == "stagnated"


def test_outer_loop_names_the_stop_that_ended_it(grid16, params2,
                                                 monkeypatch):
    # scripted reduced gradients against the Jacobian -2 eps I = -0.2 I on
    # the unperturbed sphere (no phi), where the correction and the
    # multipliers stay at roundoff; the first pass moves q by 5 g, and the
    # loop samples the sphere once per pass in which q moved, which
    # numbers the passes
    def run(script, box=None):
        passes = []
        bubble = red.bubble

        def counting(params, q, grid):
            passes.append(q)
            return bubble(params, q, grid)

        monkeypatch.setattr(red, "bubble", counting)
        monkeypatch.setattr(red, "_gradient",
                            lambda m, params: script(len(passes)))
        return red.correct(0.1, Q0, None, params2, grid16,
                           hessian=np.eye(3), box=box)

    def stop(script, box=None):
        with pytest.raises(ConvergenceError) as err:
            run(script, box)
        return err.value.stop, str(err.value)

    # |grad| = 1.7e-3 * 0.1^k first meets 1e-9 at the seventh pass
    assert run(lambda k: np.full(3, 1e-3 * 0.1**k)).iterations == 7
    stalled = r"projected solve stalled at residual \S+, \|grad\| = {}, " \
        "after 60 steps"
    kind, text = stop(lambda k: np.full(3, 1e-3 * 0.8**k))
    assert kind == "cap while contracting"
    assert re.fullmatch(stalled.format(r"\S+"), text), text
    kind, text = stop(lambda k: np.full(3, 1e-3))
    assert kind == "stagnated"
    assert re.fullmatch(stalled.format("1.732e-03"), text), text
    assert stop(lambda k: np.array([0.0, 0.0, -1.0])) == (
        "left the half-space",
        "the ball centre left the half-space at chord step 1: p3 = "
        "-4.000e+00")
    assert stop(lambda k: np.full(3, np.nan)) == (
        "not finite", "non-finite residual at chord step 1")
    # a step of 5 * 0.1 in p1 takes q0 past the box's x1 = 0.4; steps
    # that stay inside it converge as without the box
    assert stop(lambda k: np.array([0.1, 0.0, 0.0]), BOX) == (
        "left the box", "the ball centre left the search box at chord "
        "step 1: q = (5.000e-01, 0.000e+00, 1.000e+00)")
    assert run(lambda k: np.array([1e-3, 0.0, 0.0]) * 0.1**k,
               BOX).iterations == 7


def test_continuation_reuses_the_melnikov_hessian(grid16, params2, bump):
    # the outer chord loop's Jacobian is the Hessian find_critical already
    # classified, so a continuation samples grad phi (which only f_hessian
    # does) exactly as often as the critical-point search alone
    calls = []

    def gradient(p):
        calls.append(1)
        return bump.gradient(p)

    phi = mel.PrescribedFunction(bump.evaluate, gradient, bump.descriptor)
    mel.find_critical(phi, params2, BOX)
    alone = len(calls)
    reports = red.continuation([0.02, 0.01, 0.005], phi, params2, BOX,
                               grid16)
    assert all(r["status"] == "ok" for r in reports)
    assert len(calls) == 2 * alone, (alone, len(calls) - alone)


def test_continuation_to_eps_zero_returns_to_the_critical_point(
        grid16, params2, bump):
    q0 = mel.find_critical(bump, params2, BOX)[0].q
    reports = red.continuation([0.01, 0.0], bump, params2, BOX, grid16)
    assert [r["status"] for r in reports] == ["ok", "ok"]
    assert reports[-1]["q"] == [q0.p1, q0.p2, q0.p3]
    assert reports[-1]["c0_distance"] == 0.0


def test_continuation_sharp_second_bump_at_n32(params2):
    # a narrow second bump leaves nu a modal tail of 1e-10 at n = 24; at
    # n = 32 the tail is at roundoff, and residual_sup sits below 7e-10, the
    # floor set by the solver's stopping tolerances (NEWTON_RESIDUAL and
    # GRADIENT_RESIDUAL), not by the resolution
    phi = phi_to_prescribed("exp(-hypdist(0,0,1)^2)"
                            " + 0.25*exp(-4*hypdist(0.2,0.1,0.9)^2)",
                            probe_box=BOX)
    reports = red.continuation([0.02, 0.01, 0.005], phi, params2, BOX,
                               ch.build_grid(32))
    assert [r["status"] for r in reports] == ["ok"] * 3
    for rep in reports:
        assert rep["nu_tail"] <= 1e-12, rep["nu_tail"]
        assert rep["residual_sup"] <= 1e-9, rep["residual_sup"]


def test_continuation_sign_symmetry(grid16, params2, bump):
    plus = red.continuation([0.005], bump, params2, BOX, grid16)
    minus = red.continuation([-0.005], bump, params2, BOX, grid16)
    assert plus[0]["status"] == minus[0]["status"] == "ok"
    # even perturbation about the critical point: mirrored vertical shifts
    dplus = plus[0]["q"][2] - 1.0
    dminus = minus[0]["q"][2] - 1.0
    assert dplus == pytest.approx(-dminus, rel=0.2)


def test_natural_constraint_energy_gap(grid16, params2, bump):
    # the corrected state's energy approaches the sphere's faster than eps
    q = HyperbolicPoint(0.1, 0.0, 1.05)
    Uq = bb.bubble(params2, q, grid16)
    gaps = []
    for eps in (0.02, 0.01, 0.005):
        st = red.correct(eps, q, bump, params2, grid16)
        u = st.surface
        gaps.append(abs(en.energy_E(u, params2, eps, bump)
                        - en.energy_E(Uq, params2, eps, bump)) / eps)
    assert gaps[0] > gaps[1] > gaps[2]


def test_verify_side1_detects_wrong_center(grid16, params2, bump):
    wrong_q = HyperbolicPoint(0.25, 0.0, 1.2)
    U = bb.bubble(params2, wrong_q, grid16)
    res = lin.j_residual(U, params2, curvature=bump, eps=0.01)
    out = red.verify_side1(U, res, eps=0.01)
    assert max(abs(out["e1"]), abs(out["e2"]), abs(out["u"])) > 1e-3


def test_verify_side1_eps_zero_any_q(grid16, params2, bump, rng):
    for _ in range(3):
        q = HyperbolicPoint(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                            rng.uniform(0.7, 1.4))
        U = bb.bubble(params2, q, grid16)
        out = red.verify_side1(U, lin.j_residual(U, params2), eps=0.0)
        assert max(abs(out["e1"]), abs(out["e2"]), abs(out["u"])) < 1e-7


def test_nu_tail_reports_resolution(params2):
    # the same corrected sphere on finer grids: the top tenth of the modal
    # degrees holds geometrically less of the correction
    phi = phi_to_prescribed("exp(-4*hypdist(0.1,0,1)^2)")
    q = HyperbolicPoint(0.05, 0.0, 1.0)
    tails = []
    for n in (12, 16, 24):
        state = red.correct(0.02, q, phi, params2, ch.build_grid(n))
        tails.append(red._report(state, phi, params2)["nu_tail"])
    assert tails[0] > 1e-5
    assert tails[1] < 0.1 * tails[0] and tails[2] < 0.1 * tails[1]
    assert tails[2] < 1e-9
    zero = red.correct(0.0, q, phi, params2, ch.build_grid(12))
    assert red._report(zero, phi, params2)["nu_tail"] == 0.0


def _nested_solve_at(eps, phi, params, grid, q_start, hessian, warm=None):
    """The former nested solve, kept as the reference: a chord loop over
    ``q`` on ``-2 eps hessian``, each of its at most 25 passes one
    fixed-``q`` :func:`correct` warm-started from the pass before, which
    returns the state of smallest ``|grad|`` once that is at most 1e-9, or
    within the noise floor 50e-9 when the loop stops otherwise."""
    gtol = 1e-9
    jac = -2.0 * eps * hessian
    q, state, gn = HyperbolicPoint.of(q_start).array, warm, np.inf
    for _ in range(25):
        trial = red.correct(eps, HyperbolicPoint.of(q), phi, params, grid,
                            warm=state)
        gnew = np.linalg.norm(red.reduced_gradient(trial, params))
        if not gnew < gn:
            break
        state, gn = trial, gnew
        if gn <= gtol:
            break
        q = q - np.linalg.solve(jac, red.reduced_gradient(trial, params))
        if not q[2] > 0.0:
            break
    assert gn <= 50.0 * gtol, gn
    return state


@pytest.mark.parametrize("text", [
    "exp(-hypdist(0.1,0,0.9)^2)",
    "exp(-hypdist(0.1,0,0.9)^2) + 0.02*p1",
    "exp(-hypdist(0.167845,-0.102928,1.112917)^2)"
    " + 0.211411*exp(-hypdist(-0.165472,0.035801,1.260455)^2)"])
def test_mixed_loop_matches_the_nested_loop(params2, text):
    # both loops converge at every step; they stop at |grad| <= 1e-9 (the
    # nested one accepts up to its 50e-9 floor) on the Jacobian -2 eps H0,
    # so two accepted q differ by at most
    # 2 * 50e-9 / (2 |eps| lambda_min(|H0|)), fixed beforehand
    phi = phi_to_prescribed(text, probe_box=BOX)
    crit = mel.stable_points(mel.find_critical(phi, params2, BOX))[0]
    lam = np.min(np.abs(np.linalg.eigvalsh(crit.hessian)))
    for n in (16, 24):
        grid = ch.build_grid(n)
        for sign in (1.0, -1.0):
            mixed = nested = None
            for eps in (0.02 * sign, 0.01 * sign, 0.005 * sign):
                q_start, warm = red._predict(crit.q, nested, eps)
                nested = _nested_solve_at(eps, phi, params2, grid, q_start,
                                          crit.hessian, warm=warm)
                q_start, warm = red._predict(crit.q, mixed, eps)
                mixed = red.correct(eps, q_start, phi, params2, grid,
                                    warm=warm, hessian=crit.hessian)
                assert np.linalg.norm(red.reduced_gradient(mixed, params2)) \
                    <= red.GRADIENT_RESIDUAL
                bound = 2 * 50 * 1e-9 / (2 * abs(eps) * lam)
                diff = np.max(np.abs(mixed.q.array - nested.q.array))
                assert diff <= bound, (n, eps, diff, bound)


G = "exp(-hypdist(0.1,0.05,1.1)^2) + 0.1*p1"


@pytest.mark.parametrize("schedule, route", [
    ([-0.2, -0.4], [-0.1, -0.2, -0.3, -0.4]),
    ([0.4, 0.8], [0.1 * i for i in range(1, 9)])])
def test_mixed_loop_reaches_large_eps(params2, schedule, route):
    # the frozen chord loops stalled at eps = -0.4 and 0.8 on this wide
    # bump; mixed, two steps resolve, and end where steps of 0.1 do
    phi = phi_to_prescribed(G, probe_box=BOX)
    grid = ch.build_grid(32)
    far, near = (red.continuation(s, phi, params2, BOX, grid)
                 for s in (schedule, route))
    for rep in far + near:
        assert rep["status"] == "ok" and rep["resolved"], rep
    assert near[-1]["eps"] == pytest.approx(far[-1]["eps"], abs=1e-15)
    assert np.max(np.abs(np.subtract(far[-1]["q"], near[-1]["q"]))) <= 1e-9


@pytest.mark.parametrize("text, schedule, box, stop", [
    ("exp(-hypdist(0,0,1)^2) + 0.1*p1", [0.01, 1.0], BOX,
     "cap while contracting"),
    ("exp(-hypdist(0.167845,-0.102928,1.112917)^2)"
     " + 0.211411*exp(-hypdist(-0.165472,0.035801,1.260455)^2)", [1.2], BOX,
     "stagnated"),
    ("exp(-hypdist(0,0,1)^2)", [-0.01, -5.0], BOX, "left the half-space"),
    ("exp(-hypdist(0,0,1)^2)", [0.01, 3.0], BOX, "left the box"),
    ("exp(-hypdist(0,0,2.5)^2) + 0.01*sqrt(p3 - 1.1)", [-0.5],
     (-0.4, 0.4, -0.4, 0.4, 2.0, 3.0), "not finite")])
def test_failed_step_hint_follows_the_stop(params2, text, schedule, box,
                                           stop):
    # only a loop the pass cap ended while it still contracted is told to
    # take smaller eps steps
    phi = phi_to_prescribed(text, probe_box=box)
    reports = red.continuation(schedule, phi, params2, box,
                               ch.build_grid(16))
    assert [r["status"] for r in reports] == \
        ["ok"] * (len(schedule) - 1) + ["failed"]
    assert reports[-1]["stop"] == stop
    assert reports[-1]["hint"] == red.HINTS[stop]
    assert ("smaller eps steps" in reports[-1]["hint"]) == \
        (stop == "cap while contracting")
