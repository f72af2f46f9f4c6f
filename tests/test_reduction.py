import numpy as np
import pytest

from cmc_hyp import bubbles as bb
from cmc_hyp import chart as ch
from cmc_hyp import energy as en
from cmc_hyp import linearized as lin
from cmc_hyp import melnikov as mel
from cmc_hyp import reduction as red
from cmc_hyp.errors import NoCriticalPointError, NumericsError
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

    counts = {"bubble": 0, "correct": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ch, "spectral_derivatives", refuse)
    monkeypatch.setattr(red, "bubble", counting("bubble", red.bubble))
    monkeypatch.setattr(red, "correct", counting("correct", red.correct))
    phi = phi_to_prescribed("exp(-hypdist(0,0,1)^2)")
    reports = red.continuation([0.02, 0.01, 0.005], phi, params2, BOX, grid24)
    assert [r["status"] for r in reports] == ["ok"] * 3
    assert all(r["resolved"] for r in reports)
    assert counts["bubble"] == counts["correct"] > 0


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
    for j, (a, b, _, _, cf) in enumerate(bb.flow_coefficients(x, y)):
        fl = cf * (a[:, None] * nu.dx + b[:, None] * nu.dy)
        fo = np.einsum("ij,ij->i", fl, om)
        for h in range(6):
            A[j, h] = np.sum(w * np.einsum("ij,ij->i", frame.tau[h].values,
                                           fl))
            A[j, h] -= sum(sigma[ell, h] * np.sum(w * frame.gamma[:, ell] * fo)
                           for ell in range(3))
    return A


def test_interaction_matrix_matches_entrywise(grid16, grid24, params2, bump):
    for grid in (grid16, grid24):
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
    # the outer Newton already has
    assert all(a[:2] != b[:2] for a, b in zip(calls, calls[1:]))
    for rep in reports:
        at_q = [it for eps, q, it in calls
                if eps == rep["eps"] and q == tuple(rep["q"])]
        assert at_q and rep["iterations"] == at_q[0]


def _synthetic_state(eps, q):
    return red.ReductionState(
        eps=eps, q=HyperbolicPoint.of(q), nu=None, surface=None,
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
    assert warm.q == prev.q and np.array_equal(prev.xi, np.arange(6.0))
    # after eps = 0 the previous state is the start, as it is
    zero = _synthetic_state(0.0, (0.1, -0.05, 0.9))
    assert red._predict(Q0, zero, 0.01) == (zero.q, zero)


def test_predict_falls_back_inside_the_half_space():
    # t = 4 extrapolates p3 to 1 + 4 (0.3 - 1) = -1.8: start from q_prev
    prev = _synthetic_state(0.005, (0.0, 0.0, 0.3))
    q, warm = red._predict(Q0, prev, 0.02)
    assert q == prev.q
    assert np.array_equal(warm.xi, 4.0 * prev.xi)


def test_continuation_predictor_saves_work(grid16, params2, monkeypatch):
    # starting each later step from the first-order expansion makes 10
    # corrector calls (42 chord passes) here, where starting from the
    # previous step's solution made 13 (57)
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
    assert len(calls) <= 10, calls


def test_continuation_sharp_second_bump_at_n32(params2):
    # a narrow second bump leaves nu a modal tail of 1e-10 at n = 24; at
    # n = 32 the tail is at roundoff, and residual_sup sits at 2e-10, the
    # floor set by the solver's stopping tolerance (NEWTON_RESIDUAL, with
    # the outer Newton's gtol of 1e-9), not by the resolution
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
        tails.append(red._report(state, phi, params2)[1]["nu_tail"])
    assert tails[0] > 1e-5
    assert tails[1] < 0.1 * tails[0] and tails[2] < 0.1 * tails[1]
    assert tails[2] < 1e-9
    zero = red.correct(0.0, q, phi, params2, ch.build_grid(12))
    assert red._report(zero, phi, params2)[1]["nu_tail"] == 0.0
