import json
from collections import Counter

import numpy as np
import pytest

from cmc_hyp import halfspace as hs
from cmc_hyp import melnikov as mel
from cmc_hyp.bubbles import make_params
from cmc_hyp.chart import build_grid
from cmc_hyp.errors import NumericsError
from cmc_hyp.halfspace import HyperbolicPoint

BOX = (-0.4, 0.4, -0.4, 0.4, 0.6, 1.6)


def test_constant_value_and_independence(params2):
    phi = mel.phi_constant(1.0)
    exact = np.pi * (4.0 / 3.0 - np.log(3.0))   # pi (sinh 2 rho - 2 rho)
    v = mel.f_value(phi, params2, HyperbolicPoint(0, 0, 1))
    assert v == pytest.approx(exact, abs=1e-8)
    for q in ((0.5, -0.3, 0.7), (2.0, 1.0, 3.0)):
        assert mel.f_value(phi, params2, q) == pytest.approx(v, abs=1e-10)
    assert np.max(np.abs(mel.f_gradient(
        phi, params2, HyperbolicPoint(0, 0, 1)))) < 1e-10


def test_coordinate_gradient_oracle(params2):
    # d/dq1 of the reduced function for phi = p1 equals the fixed-ball
    # integral of the density; evaluate that integral independently
    phi = mel.phi_coordinate(0)
    g = mel.f_gradient(phi, params2, HyperbolicPoint(0.2, -0.1, 1.2))
    ball = hs.EuclideanBall((0.0, 0.0, 0.0), params2.r)
    pts, w = hs.ball_quadrature(ball, order=20)
    oracle = np.sum(w * (pts[:, 2] + params2.k * params2.r) ** -3.0)
    assert g[0] == pytest.approx(oracle, rel=1e-10)
    assert oracle > 0
    assert abs(g[1]) < 1e-10 and abs(g[2]) < 1e-10


def test_gradient_finite_differences(params2, rng):
    phi = mel.phi_radial_gaussian((0.1, 0.2, 1.1))
    for _ in range(20):
        q = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                      rng.uniform(0.7, 1.5)])
        g = mel.f_gradient(phi, params2, q)
        fd = np.empty(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1e-5 * q[2]
            fd[j] = (mel.f_value(phi, params2, q + e)
                     - mel.f_value(phi, params2, q - e)) / (2 * e[j])
        assert np.linalg.norm(g - fd) <= 1e-4 * max(np.linalg.norm(g), 1e-6)


# one bump of each kind the solves are benchmarked on: plain, tilted and a
# sum of two
DESIGN_BUMPS = (
    "exp(-hypdist(0.1, -0.05, 1.1)^2)",
    "exp(-hypdist(-0.15, 0.1, 0.9)^2) + 0.03*p2",
    "exp(-hypdist(0.05, 0.15, 1.25)^2) + 0.2*exp(-hypdist(-0.2, 0, 0.95)^2)",
)


def _ball_rule_gradient(phi, params, q):
    """The volume form of the gradient: ``grad phi`` against the ball
    motions ``(e1, e2, p + k r e3)``, integrated over the reference ball."""
    q = HyperbolicPoint.of(q)
    pts, w = hs.unit_ball_rule(hs.BALL_QUAD_ORDER)
    pts, w = params.r * pts, params.r**3 * w
    lift = pts + np.array([0.0, 0.0, params.k * params.r])
    wd = w * lift[:, 2] ** -3.0
    _, g = phi.gradient(q.p3 * lift + np.array([q.p1, q.p2, 0.0]))
    return np.array([wd @ g[:, 0], wd @ g[:, 1],
                     wd @ np.einsum("ij,ij->i", g, lift)])


def _random_q(rng):
    return np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                     rng.uniform(0.6, 1.6)])


def test_flux_gradient_matches_the_ball_rule(params2, rng):
    for text in DESIGN_BUMPS:
        phi = mel.phi_to_prescribed(text)
        for _ in range(5):
            q = _random_q(rng)
            g = mel.f_gradient(phi, params2, q)
            ref = _ball_rule_gradient(phi, params2, q)
            assert np.linalg.norm(g - ref) <= 1e-10 * np.linalg.norm(ref)


def test_exact_hessian_matches_differences(params2, rng):
    for text in DESIGN_BUMPS:
        phi = mel.phi_to_prescribed(text)
        for _ in range(3):
            q = _random_q(rng)
            _, H = mel.f_hessian(phi, params2, q)
            scale = np.max(np.abs(H))
            assert np.max(np.abs(H - H.T)) <= 1e-12 * scale
            fd = np.empty((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = 1e-4 * max(1.0, abs(q[j]))
                fd[:, j] = (mel.f_gradient(phi, params2, q + e)
                            - mel.f_gradient(phi, params2, q - e)) / (2 * e[j])
            # the central difference's own error is O(e^2) ~ 1e-8
            assert np.max(np.abs(H - fd)) <= 1e-6 * scale


def test_hessian_takes_one_phi_walk(params2, rng):
    # f_hessian's flux comes from the values its gradient walk carries
    calls = []

    def counted(kind, fn):
        def sample(p):
            calls.append(kind)
            return fn(p)
        return sample

    for text in DESIGN_BUMPS:
        bump = mel.phi_to_prescribed(text)
        phi = mel.PrescribedFunction(counted("evaluate", bump.evaluate),
                                     counted("gradient", bump.gradient))
        q = _random_q(rng)
        calls.clear()
        g, _ = mel.f_hessian(phi, params2, q)
        assert calls == ["gradient"]
        assert np.array_equal(g, mel.f_gradient(bump, params2, q))


def test_flux_gradient_needs_no_phi_gradient(params2):
    bump = mel.phi_radial_gaussian((0.1, 0.0, 1.0))
    values_only = mel.PrescribedFunction(evaluate=bump.evaluate,
                                         gradient=None, descriptor="values")
    q = (0.05, -0.1, 1.1)
    assert np.array_equal(mel.f_gradient(values_only, params2, q),
                          mel.f_gradient(bump, params2, q))
    with pytest.raises(ValueError, match="no gradient"):
        mel.f_hessian(values_only, params2, q)


def test_flux_layer_refuses_non_finite_phi(params2):
    # finite at the ball's center, not finite on its boundary sphere
    q = (0.0, 0.0, 1.0)
    phi = mel.phi_to_prescribed("sqrt(0.3 - p1^2)",
                                probe_box=(-0.1, 0.1, -0.1, 0.1, 0.9, 1.1))
    assert np.isfinite(phi.evaluate(np.array(q)))
    for fn in (mel.f_gradient, mel.f_hessian):
        with pytest.raises(NumericsError, match="not finite"):
            fn(phi, params2, q)


def _reference_ball_value(phi, params, q, order=96):
    """``f_value`` by an uncached ``order``-point solid-ball rule, summed one
    radial shell at a time."""
    q = HyperbolicPoint.of(q)
    pts, w = hs.unit_ball_rule.__wrapped__(order)
    kr = params.k * params.r
    total = 0.0
    for P, W in zip(pts.reshape(order, -1, 3), w.reshape(order, -1)):
        P = params.r * P
        target = q.p3 * P + np.array([q.p1, q.p2, kr * q.p3])
        total += np.sum(params.r**3 * W * (P[:, 2] + kr) ** -3.0
                        * phi.evaluate(target))
    return total


def test_ball_rule_order_resolves_near_k_one():
    # the 16-point rule misses by 5.7e-4, 7.5e-6 and 1.7e-8 here
    phi = mel.phi_to_prescribed(DESIGN_BUMPS[0])
    one = mel.phi_constant(1.0)
    q = (0.05, 0.0, 1.0)
    for k in (1.05, 1.1, 1.2):
        params = make_params(k)
        ref = _reference_ball_value(phi, params, q)
        assert abs(mel.f_value(phi, params, q) - ref) <= 1e-10 * abs(ref)
        vol = hs.hyperbolic_ball_volume(params.rho)
        assert abs(mel.f_value(one, params, q) - vol) <= 1e-10 * vol
    orders = [mel.ball_rule_order(k) for k in (1.0001, 1.05, 1.1, 1.2, 1.5,
                                               2.0, 50.0)]
    assert orders == [64, 56, 40, 32, 16, 16, 16]


def _uncached_flux(phi, params, q):
    """Gradient and Hessian of the reduced function from the boundary rule
    built in full for one ball center."""
    q = HyperbolicPoint.of(q)
    grid = build_grid(mel.BOUNDARY_GRID_N)
    om, r, kr = grid.omega, params.r, params.k * params.r
    lift = r * om + np.array([0.0, 0.0, kr])
    a = np.stack([om[:, 0], om[:, 1], r + kr * om[:, 2]], axis=-1)
    wa = (r**2 / q.p3 * grid.weights * lift[:, 2] ** -3.0)[:, None] * a
    target = q.p3 * lift + np.array([q.p1, q.p2, 0.0])
    g = phi.evaluate(target) @ wa
    _, G = phi.gradient(target)
    H = wa.T @ np.stack([G[:, 0], G[:, 1], np.einsum("ij,ij->i", G, lift)],
                        axis=-1)
    H[:, 2] -= g / q.p3
    return g, H


def test_cached_reference_rules(rng):
    assert mel._boundary_rule.cache_info().maxsize is not None
    for k in (1.2, 2.0):
        params = make_params(k)
        for arr in mel._boundary_rule(params.r, params.k):
            assert not arr.flags.writeable
        for text in DESIGN_BUMPS:
            phi = mel.phi_to_prescribed(text)
            for _ in range(3):
                q = _random_q(rng)
                g, H = _uncached_flux(phi, params, q)
                assert np.linalg.norm(mel.f_gradient(phi, params, q) - g) \
                    <= 1e-14 * np.linalg.norm(g)
                assert np.linalg.norm(mel.f_hessian(phi, params, q)[1] - H) \
                    <= 1e-14 * np.linalg.norm(H)


def test_find_critical_classifies_only_kept_points(params2, monkeypatch):
    # the 27 seeds converge to one maximum; only the kept point is valued
    # and classified
    calls, valued = [], []
    classify, value = mel.classify_hessian, mel.f_value

    def counted(H, v):
        calls.append(v)
        return classify(H, v)

    def counted_value(phi, params, q):
        valued.append(q)
        return value(phi, params, q)
    monkeypatch.setattr(mel, "classify_hessian", counted)
    monkeypatch.setattr(mel, "f_value", counted_value)
    res = mel.find_critical(mel.phi_to_prescribed(DESIGN_BUMPS[0]), params2,
                            BOX)
    assert len(res) == 1
    assert calls == [r.value for r in res]
    assert len(valued) == 1 and valued[0] == res[0].q


def test_coordinate_shift_is_affine(params2):
    # horizontal shifts change the p1-weighted value by delta times the
    # weighted ball volume, which is the closed-form hyperbolic volume
    phi = mel.phi_coordinate(0)
    q = np.array([0.1, -0.2, 1.3])
    delta = 0.37
    diff = mel.f_value(phi, params2, q + np.array([delta, 0, 0])) \
        - mel.f_value(phi, params2, q)
    assert diff == pytest.approx(
        delta * hs.hyperbolic_ball_volume(params2.rho), abs=1e-8)


def _translation_inverse(t):
    """Parameter of the inverse of the translation with parameter ``t``."""
    return HyperbolicPoint(-t.p1 / t.p3, -t.p2 / t.p3, 1.0 / t.p3)


def test_translation_equivariance(params2, rng):
    # F_phi(q) = F_{phi o T}(T^-1 q) for hyperbolic translations T
    phi = mel.phi_radial_gaussian((0.0, 0.1, 1.0))
    for _ in range(5):
        t = HyperbolicPoint(rng.uniform(-1, 1), rng.uniform(-1, 1),
                            rng.uniform(0.5, 2.0))
        q = HyperbolicPoint(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                            rng.uniform(0.8, 1.3))
        phiT = mel.PrescribedFunction(
            evaluate=lambda p, t=t: phi.evaluate(hs.translate(p, t)),
            gradient=None, descriptor="composed")
        lhs = mel.f_value(phi, params2, q)
        rhs = mel.f_value(phiT, params2,
                          hs.translate(q, _translation_inverse(t)))
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_large_curvature_asymptotics():
    # 3/(4 pi r^3) F -> phi(q) with an O(1/k) defect
    phi = mel.phi_radial_gaussian((0.0, 0.0, 1.0))
    q = HyperbolicPoint(0.1, 0.0, 1.05)
    target = float(phi.evaluate(q.array))
    defects = []
    for k in (5.0, 10.0, 20.0):
        p = make_params(k)
        scaled = 3.0 / (4.0 * np.pi * p.r**3) * mel.f_value(phi, p, q)
        defects.append(abs(scaled - target))
    assert defects[0] > defects[1] > defects[2]
    # defect <= C/k with C fitted from the coarsest curvature
    C = defects[0] * 5.0
    assert all(d <= C / k + 1e-12 for d, k in zip(defects, (5.0, 10.0, 20.0)))


def test_find_critical_radial(params2):
    phi = mel.phi_dist_squared((0, 0, 1))
    res = mel.find_critical(phi, params2, BOX, seeds=8)
    assert len(res) == 1
    r = res[0]
    assert np.allclose([r.q.p1, r.q.p2, r.q.p3], [0, 0, 1], atol=1e-8)
    assert r.classification == "nondegenerate_min"
    assert np.max(np.abs(r.gradient)) < 1e-9


def test_find_critical_constant_degenerate(params2):
    res = mel.find_critical(mel.phi_constant(1.0), params2, BOX, seeds=8)
    assert len(res) >= 1
    assert all(r.classification == "degenerate" for r in res)


def test_find_critical_monotone_empty(params2):
    res = mel.find_critical(mel.phi_coordinate(0), params2, BOX, seeds=8)
    assert res == []


def test_find_critical_seeds_must_be_a_positive_cube(params2):
    for seeds in (-5, 0, 10):
        with pytest.raises(ValueError, match="perfect cube"):
            mel.find_critical(mel.phi_constant(1.0), params2, BOX, seeds=seeds)


A = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
B = np.array([1.0, -2.0, 0.5])


def _quadratic_gradient(qs):
    """Gradient of ``q.A q / 2 - B.q`` on stacks of points."""
    return np.array([A @ q - B for q in qs])


def _quadratic_hessian(qs):
    return _quadratic_gradient(qs), np.array([A] * len(qs))


def _recording(gradient, hessian, seen):
    """``gradient`` and ``hessian`` on stacks, adding each point they are
    called at, by its bytes and the callable's kind, to the counter
    ``seen``."""
    def record(kind, fn):
        def call(qs):
            seen.update((kind, q.tobytes()) for q in qs)
            return fn(qs)
        return call
    return record("g", gradient), record("H", hessian)


def test_newton_one_step_on_a_quadratic():
    start = np.array([0.0, 0.0, 0.5])
    seen = Counter()
    (q,), (g,), (stop,) = mel.newton(
        *_recording(_quadratic_gradient, _quadratic_hessian, seen),
        start[None], 1e-12, lambda q: True)
    assert np.allclose(q, np.linalg.solve(A, B), rtol=0, atol=1e-14)
    assert np.linalg.norm(g) <= 1e-12 and stop == "converged"
    # the start's g comes with its H, and the one exact step takes one g
    assert seen == Counter({("H", start.tobytes()): 1, ("g", q.tobytes()): 1})


def test_newton_never_evaluates_outside():
    # the exact step from the start lands at z = 24/17 > 1, outside
    inside = lambda q: q[2] < 1.0
    start = np.array([0.0, 0.0, 0.5])
    assert not inside(np.linalg.solve(A, B))
    seen = Counter()
    (q,), (g,), (stop,) = mel.newton(
        *_recording(_quadratic_gradient, _quadratic_hessian, seen),
        start[None], 1e-12, inside)
    assert all(inside(np.frombuffer(p)) for _, p in seen)
    assert np.array_equal(q, start) and np.array_equal(g, A @ start - B)
    assert stop == "left"


C = np.array([0.5, -0.2, 1.1])


def _tanh_gradient(qs):
    """Gradient of ``sum log cosh(q - C)``, whose Newton steps overshoot
    far from ``C`` and need damping."""
    return np.tanh(qs - C)


def _tanh_hessian(qs):
    # the exact Hessian, but singular (no third row or column) at the
    # points whose third coordinate is more than 0.6 from C's
    H = np.zeros((len(qs), 3, 3))
    H[:, [0, 1, 2], [0, 1, 2]] = 1.0 - _tanh_gradient(qs) ** 2
    H[np.abs(qs[:, 2] - C[2]) > 0.6, 2, 2] = 0.0
    return _tanh_gradient(qs), H


def _slow_gradient(qs):
    """``(exp q1, exp q2, q3 - 1)``: Newton moves q1 and q2 down by one a
    step, so |g| falls by e a step, and reaches no zero."""
    return np.stack([np.exp(qs[:, 0]), np.exp(qs[:, 1]), qs[:, 2] - 1.0], -1)


def _slow_hessian(qs):
    # the exact Hessian, but with its last entry negated above q3 = 3, so
    # that every trial from there climbs in q3
    H = np.zeros((len(qs), 3, 3))
    H[:, 0, 0], H[:, 1, 1] = np.exp(qs[:, 0]), np.exp(qs[:, 1])
    H[:, 2, 2] = np.where(qs[:, 2] > 3.0, -1.0, 1.0)
    return _slow_gradient(qs), H


def _lockstep_problems(params):
    """``(gradient, hessian, starts, inside)`` of the flux of a design bump,
    whose starts converge, merge or leave ``inside``; of a sum of ``log
    cosh`` with a singular Hessian at some starts; and of a gradient with
    no zero, whose starts reach the step cap or climb until the eighth
    refused try."""
    phi = mel.phi_to_prescribed(DESIGN_BUMPS[1])
    box = (-0.5, 0.5, -0.5, 0.5, 0.62, 1.6)
    yield (lambda qs: mel.f_gradient(phi, params, qs),
           lambda qs: mel.f_hessian(phi, params, qs),
           np.array([[0.1, -0.05, 1.12], [-0.3, 0.2, 0.7], [0.0, 0.0, 1.5],
                     [0.35, -0.35, 1.55], [-0.15, 0.1, 0.9],
                     [0.2, -0.1, 1.2], [0.0, 0.1, 0.65]]),
           lambda q: mel._inside(q, box))
    yield (_tanh_gradient, _tanh_hessian,
           np.array([[0.0, 0.0, 1.0], [1.6, 0.8, 1.3], [-1.0, 0.6, 1.2],
                     [0.7, -0.5, 1.9], [1.6, 0.8, 0.1]]),
           lambda q: np.abs(q).max() < 1e4)
    yield (_slow_gradient, _slow_hessian,
           np.array([[20.0, 20.0, 2.0], [0.0, 0.0, 4.0]]), lambda q: True)


def _newton_alone(gradient, hessian, q, gtol, inside):
    """The reference: the damped Newton of one start, step by step, with
    the callables on one-row stacks.  Returns the last accepted ``(q, g)``,
    how the run ended and its accepted iterates."""
    g, H = (a[0] for a in hessian(q[None]))
    gn = np.linalg.norm(g)
    lam, path = 0.0, [q]
    for step in range(mel.NEWTON_MAX_ITER):
        if gn <= gtol:
            return q, g, "converged", path
        if step:
            H = hessian(q[None])[1][0]
        hscale = max(np.max(np.abs(H)), 1e-12)
        for _ in range(8):
            try:
                s = np.linalg.solve(H + lam * hscale * np.eye(3), -g)
            except np.linalg.LinAlgError:
                lam = max(4.0 * lam, 1e-4)
                continue
            qn = q + s
            if not inside(qn):
                return q, g, "left", path
            gnew = gradient(qn[None])[0]
            if np.linalg.norm(gnew) < gn:
                q, g, gn = qn, gnew, np.linalg.norm(gnew)
                path.append(q)
                lam = lam / 3.0 if lam > 1e-8 else 0.0
                break
            lam = max(4.0 * lam, 1e-4)
        else:
            return q, g, "refused", path
    return q, g, "converged" if gn <= gtol else "cap", path


def test_lockstep_newton_equals_each_start_alone(params2, monkeypatch):
    # every start that is not merged ends where, how and after the
    # evaluations its own run does, by the lockstep code and by the
    # reference; a merged start stopped on its own path, near the path of
    # a lower start whose own run converges.  The problems take every
    # branch: converged, merged, stopped outside, damped after rejected
    # trials, the cap, eight refused tries, and a singular trial matrix
    # solved again seed by seed
    singular = []
    levenberg = mel._levenberg

    def counted(H, hscale, lam, g):
        steps = levenberg(H, hscale, lam, g)
        singular.extend(s is None for s in steps)
        return steps
    monkeypatch.setattr(mel, "_levenberg", counted)
    ends = Counter()
    for gradient, hessian, starts, inside in _lockstep_problems(params2):
        together, unmerged, every = Counter(), Counter(), Counter()
        Q, G, stops = mel.newton(*_recording(gradient, hessian, together),
                                 starts, 1e-10, inside)
        assert Q.shape == G.shape == starts.shape
        assert len(stops) == len(starts)
        own = []
        for start in starts:
            alone, reference = Counter(), Counter()
            (q1,), (g1,), (stop1,) = mel.newton(
                *_recording(gradient, hessian, alone), start[None], 1e-10,
                inside)
            q2, g2, stop2, path = _newton_alone(
                *_recording(gradient, hessian, reference), start, 1e-10,
                inside)
            assert q1.tobytes() == q2.tobytes() and stop1 == stop2
            assert g1.tobytes() == g2.tobytes() and alone == reference
            own.append((q2, g2, stop2, path, alone))
            every += alone
            unmerged += alone
        for i, (q, g, stop) in enumerate(zip(Q, G, stops)):
            q2, g2, stop2, path, _ = own[i]
            ends[stop] += 1
            if stop != "merged":
                assert q.tobytes() == q2.tobytes() and stop == stop2
                assert g.tobytes() == g2.tobytes()
                continue
            unmerged -= own[i][4]
            assert any(q.tobytes() == p.tobytes() for p in path)
            assert any(stops[j] in ("converged", "merged")
                       and own[j][2] == "converged"
                       and min(hs.dist(q, p) for p in own[j][3])
                       < mel.MERGE_RADIUS for j in range(i))
        # the lockstep run makes every evaluation of the starts that are
        # not merged, and none that an own run does not make; a merged
        # start saves the rest of its own run's
        assert unmerged <= together <= every
        assert any(s == "merged" for s in stops) == (together != every)
    assert set(ends) == {"converged", "merged", "left", "refused", "cap"}
    assert any(singular)


def test_merged_start_resumes_when_its_leader_leaves():
    # b starts 2e-3 from a and merges into it after the first round; a's
    # second trial lands in a hole of ``inside``, so a ends "left" and b
    # resumes from its frozen state and converges as its own run does
    a = np.array([1.5, 0.3, 1.4])
    b = a + [0.0, 2e-3, 0.0]
    seen = Counter()
    calls = []

    def hessian(qs):
        calls.append(qs.copy())
        return _tanh_hessian(qs)
    mel.newton(*_recording(_tanh_gradient, _tanh_hessian, seen), a[None],
               1e-10, lambda q: True)
    trials = [np.frombuffer(p) for kind, p in seen if kind == "g"]
    hole = trials[1]
    inside = lambda q: not np.array_equal(q, hole)
    Q, G, stops = mel.newton(_tanh_gradient, hessian, np.array([a, b]),
                             1e-10, inside)
    assert stops == ["left", "converged"]
    (qb,), (gb,), _ = mel.newton(_tanh_gradient, _tanh_hessian, b[None],
                                 1e-10, inside)
    assert Q[1].tobytes() == qb.tobytes() and G[1].tobytes() == gb.tobytes()
    # the second round renews a's Hessian alone: b was merged then
    assert len(calls[0]) == 2 and len(calls[1]) == 1
    assert Q[0].tobytes() == trials[0].tobytes()


# phis whose search the merge must leave as it is: the wide bump G, the
# narrow bump P with its maximum and saddle, and two bumps at k = 10 whose
# maxima lie 0.196 apart, with a saddle between them
MERGE_CASES = [
    ("exp(-hypdist(0.1,0.05,1.1)^2) + 0.1*p1", 2.0, BOX, 27),
    ("0.02*p1 + exp(-(hypdist(-0.2,0,0.85)/0.1)^2)", 2.0, BOX, 64),
    ("exp(-(hypdist(-0.11,0,1)/0.1)^2) + 0.9*exp(-(hypdist(0.11,0,1)/0.1)^2)",
     10.0, (-0.3, 0.3, -0.15, 0.15, 0.85, 1.15), 27),
]


@pytest.mark.parametrize("text, k, box, seeds", MERGE_CASES)
def test_find_critical_equals_every_start_alone(text, k, box, seeds,
                                                monkeypatch):
    phi, params = mel.phi_to_prescribed(text), make_params(k)
    together = mel.find_critical(phi, params, box, seeds=seeds)
    newton = mel.newton

    def each_alone(gradient, hessian, starts, gtol, inside):
        ends = [newton(gradient, hessian, s[None], gtol, inside)
                for s in starts]
        return (np.concatenate([e[0] for e in ends]),
                np.concatenate([e[1] for e in ends]),
                [e[2][0] for e in ends])
    monkeypatch.setattr(mel, "newton", each_alone)
    alone = mel.find_critical(phi, params, box, seeds=seeds)
    assert json.dumps([c.as_dict() for c in together]) == \
        json.dumps([c.as_dict() for c in alone])
    kinds = Counter(c.classification for c in together)
    assert kinds["saddle"] == (k != 2.0 or seeds == 64)
    assert kinds["nondegenerate_max"] == 1 + (k == 10.0)


def test_obstruction_reports(params2):
    rep = mel.monotone_obstruction(mel.phi_coordinate(0), params2, BOX)
    assert "e1" in rep["obstructed"]
    assert rep["directions"]["e1"]["sign"] == "+"
    # -p1 mirrors p1: its e1 derivative is negative across the box
    rep = mel.monotone_obstruction(mel.phi_to_prescribed("-p1"), params2, BOX)
    assert rep["obstructed"] == ["e1"]
    assert rep["directions"]["e1"]["sign"] == "-"
    rep = mel.monotone_obstruction(mel.phi_norm(), params2,
                                   (1.0, 1.5, 1.0, 1.5, 0.8, 1.2))
    assert "radial" in rep["obstructed"]
    rep = mel.monotone_obstruction(mel.phi_constant(2.0), params2, BOX)
    assert rep["obstructed"] == []


def test_classify_hessian_saddle_and_near_singular():
    # mixed signs make a saddle; an eigenvalue below 1e-3 of the largest
    # magnitude makes the point degenerate, whatever the signs
    assert mel.classify_hessian(np.diag([1.0, -1.0, 2.0]), 1.0) == "saddle"
    assert mel.classify_hessian(np.diag([1.0, 1.0, 1e-4]),
                                1.0) == "degenerate"
    assert mel.classify_hessian(np.diag([1.0, -1.0, 1e-4]),
                                1.0) == "degenerate"
    assert mel.classify_hessian(np.diag([1.0, 1.0, 2e-3]),
                                1.0) == "nondegenerate_min"


def test_box_validation(params2):
    with pytest.raises(ValueError):
        mel.find_critical(mel.phi_constant(1.0), params2,
                          (-1, 1, -1, 1, -0.5, 1.0))
    with pytest.raises(ValueError):
        mel.find_critical(mel.phi_constant(1.0), params2, (1, -1, 0, 1, 0.5, 1))


def test_scan_csv(tmp_path, params2):
    phi = mel.phi_radial_gaussian((0, 0, 1))
    n = mel.scan_to_csv(phi, params2, BOX, tmp_path / "scan.csv")
    data = np.genfromtxt(tmp_path / "scan.csv", delimiter=",", names=True)
    assert len(data) == n == mel.SCAN_LATTICE**3 == 64
    assert set(data.dtype.names) == {"q1", "q2", "q3", "F", "dF1", "dF2", "dF3"}
