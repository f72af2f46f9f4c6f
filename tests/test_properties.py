"""Property tests: invariances the construction guarantees, checked on
generated inputs."""

from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from cmc_hyp import phi_expr as pe
from cmc_hyp import reduction
from cmc_hyp.bubbles import MoebiusMap, bubble, make_params
from cmc_hyp.chart import omega_mu
from cmc_hyp.energy import energy_E, volume_V
from cmc_hyp.halfspace import HyperbolicPoint
from cmc_hyp.linearized import j_residual
from cmc_hyp.melnikov import f_gradient, f_hessian
from cmc_hyp.reduction import correct, reduced_gradient

FEW = settings(max_examples=25, deadline=None)

# ---------------------------------------------------------------------------
# phi expressions: printing and parsing are inverse


literals = st.floats(min_value=0.0, max_value=1e300, allow_nan=False,
                     allow_infinity=False)
leaves = st.one_of(literals.map(pe.Num),
                   st.sampled_from(["p1", "p2", "p3"]).map(pe.Var))
anchors = st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 3))


def _extend(children):
    unary = st.sampled_from(["exp", "log", "sqrt", "sin", "cos", "tanh",
                             "atanh"])
    return st.one_of(
        children.map(pe.Neg),
        st.builds(pe.Bin, st.sampled_from(["+", "-", "*", "/", "^"]),
                  children, children),
        st.builds(lambda name, arg: pe.Call(name, (arg,)), unary, children),
        anchors.map(lambda a: pe.Call("hypdist", tuple(map(pe.Num, a)))),
    )


trees = st.recursive(leaves, _extend, max_leaves=12)


@FEW
@given(trees)
@example(pe.parse_phi("(p1^2)^3"))      # a power as the base of a power
@example(pe.parse_phi("(-p1)^2"))       # a negation as the base of a power
def test_print_parse_roundtrip(tree):
    assert pe.parse_phi(pe.to_text(tree)) == tree


@FEW
@given(st.integers(1, 9), st.integers(-400, 400))
def test_literals_parse_finite_or_raise(mantissa, exponent):
    text = f"exp(-{mantissa}e{exponent}) * p1"
    try:
        tree = pe.parse_phi(text)
    except pe.PhiSyntaxError as err:
        assert "not finite" in str(err)
        return
    assert pe.parse_phi(pe.to_text(tree)) == tree


# ---------------------------------------------------------------------------
# phi expressions: dual gradients agree with central differences


small_literals = st.floats(min_value=0.1, max_value=3.0)
small_trees = st.recursive(
    st.one_of(small_literals.map(pe.Num),
              st.sampled_from(["p1", "p2", "p3"]).map(pe.Var)),
    _extend, max_leaves=8)
# horizontal coordinates stay away from 0, where ``sqrt(p1)`` and its kin
# are too ill-conditioned for a central difference at this step
points = st.tuples(st.floats(0.1, 0.5), st.floats(0.1, 0.5),
                   st.floats(0.7, 1.5))


@settings(max_examples=300, deadline=None)
@given(small_trees, points)
# constant base, dual exponent and zero exponent of ``^``
@example(pe.parse_phi("2^p1 + p3^p1 + p1^0"), (0.3, -0.2, 1.1))
# the zero slope of ``hypdist`` at its anchor
@example(pe.parse_phi("exp(-hypdist(0.1,0.2,1.1)^2)"), (0.1, 0.2, 1.1))
# the closed-form slope of ``hypdist`` under a product
@example(pe.parse_phi("exp(-hypdist(0.1,0.2,1.1)^2) * p1"), (0.3, 0.25, 0.9))
def test_dual_gradient_matches_finite_differences(tree, p):
    h = 1e-6
    p = np.array(p)
    with np.errstate(all="ignore"):
        f = float(pe.evaluate(tree, p))
        v, g = pe.evaluate_gradient(tree, p)
        fp = pe.evaluate(tree, p + h * np.eye(3))
        fm = pe.evaluate(tree, p - h * np.eye(3))
        vp, _ = pe.evaluate_gradient(tree, p + h * np.eye(3))
    # the dual walk's values are the plain walk's, bit for bit
    assert np.array_equal(v, f, equal_nan=True)
    assert np.array_equal(vp, fp, equal_nan=True)
    assume(np.isfinite(f) and np.all(np.isfinite(g))
           and np.all(np.isfinite(fp)) and np.all(np.isfinite(fm)))
    second = np.abs(fp - 2.0 * f + fm) / h**2
    assume(abs(f) <= 1e6 and np.max(second) <= 1e6)
    fd = (fp - fm) / (2.0 * h)
    assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g), abs(f))


# ---------------------------------------------------------------------------
# the sphere family: translating the center changes neither the energy nor
# the (vanishing) curvature residual

centers = st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.25, 4))


@FEW
@given(centers)
def test_bubble_energy_and_residual_translation_invariant(grid16, params2, q):
    q = HyperbolicPoint(*q)
    e0 = energy_E(bubble(params2, HyperbolicPoint(0, 0, 1), grid16), params2)
    u = bubble(params2, q, grid16)
    assert abs(energy_E(u, params2) - e0) <= 1e-12 * abs(e0)
    assert np.max(np.abs(j_residual(u, params2).values)) <= 1e-8


# ---------------------------------------------------------------------------
# Moebius equivariance: reparametrizing by a holomorphic chart map ``g``
# scales the curvature residual by ``|g'|^2`` and moves it to ``g(z)``


discs = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi))


@FEW
@given(centers, st.floats(0.7, 1.4), st.floats(0.0, 2 * np.pi), discs, discs)
def test_j_residual_moebius_equivariant(grid16, params2, q, t, theta, b, c):
    # ``u`` solves the k = 2 problem, so at k = 2.7 its residual is the
    # nonzero 2 (2.7 - 2) / u3^3 (u_x ^ u_y)
    params = make_params(2.7)
    g = MoebiusMap(t * np.exp(1j * theta), 0.3 * b[0] * np.exp(1j * b[1]),
                   0.2 * c[0] * np.exp(1j * c[1]), 1.0)
    res = j_residual(bubble(params2, HyperbolicPoint(*q), grid16, g),
                     params).values
    # the unmoved sphere s omega + shift at g(z), with its chart derivatives
    s = q[2] * params2.r
    om, _, ox, oy = omega_mu(g.apply(grid16.nodes))
    u3 = s * om[:, 2] + s * params2.k
    ux, uy = s * ox, s * oy
    gp2 = np.abs(g.cderiv(grid16.nodes)) ** 2
    want = (gp2 * 2.0 * (2.7 - 2.0) / u3**3)[:, None] * np.cross(ux, uy)
    assert np.max(np.abs(res - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# sign symmetry: the curvature k + eps phi is unchanged by eps -> -eps,
# phi -> -phi, and so is the corrected surface with its multipliers

BUMP = "exp(-hypdist(0.1,-0.05,1.1)^2)"


@FEW
@given(st.floats(-0.02, 0.02),
       st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                 st.floats(0.7, 1.4)))
def test_correct_eps_sign_symmetry(grid16, params2, eps, q):
    phi = pe.phi_to_prescribed(BUMP)
    neg = pe.phi_to_prescribed(f"-({BUMP})")
    a = correct(-eps, q, phi, params2, grid16)
    b = correct(eps, q, neg, params2, grid16)
    for x, y in ((a.nu.values, b.nu.values), (a.xi, b.xi),
                 (a.alpha, b.alpha)):
        assert np.max(np.abs(x - y)) <= 1e-13


# ---------------------------------------------------------------------------
# the Melnikov relation: the reduced gradient is -2 eps grad f(q) + O(eps^2),
# f the weighted-ball volume, so the outer chord loop may borrow -2 eps Hess f


@FEW
@given(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                 st.floats(0.8, 1.3)))
# the defect's projection on grad f vanishes at first order here, so
# |ratio + 2| along grad f is 3.9e-4, 3.0e-6, 5.2e-5: not monotone
@example((0.20703125, 0.0, 1.28125))
def test_reduced_gradient_melnikov_relation(grid16, params2, q):
    phi = pe.phi_to_prescribed(f"{BUMP} + 0.03*p1")
    gf = f_gradient(phi, params2, q)
    defects = []
    for eps in (0.02, 0.01, 0.005):
        g = reduced_gradient(correct(eps, q, phi, params2, grid16), params2)
        defects.append(np.linalg.norm(g / eps + 2.0 * gf) / eps)
    # g / eps tends to -2 grad f, its defect vector shrinking with eps ...
    assert 0.02 * defects[0] > 0.01 * defects[1] > 0.005 * defects[2]
    # ... because the defect is O(eps^2): divided by eps^2 it stays put
    assert max(defects) <= 1.25 * min(defects)


# ---------------------------------------------------------------------------
# the branch is C^1 in eps, q(eps) = q0 + eps q1 + O(eps^2): continuation's
# first-order start is O(eps^2) from the solution, the previous one O(eps)


@FEW
@given(st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
                 st.floats(0.85, 1.3)),
       st.floats(-0.04, 0.04))
def test_continuation_start_is_first_order(grid16, params2, anchor, tilt):
    phi = pe.phi_to_prescribed(
        "exp(-hypdist({!r}, {!r}, {!r})^2)".format(*map(float, anchor))
        + f" + {float(tilt)!r}*p1")
    starts = []
    predict = reduction._predict

    def recording(*args):
        q_start, warm = predict(*args)
        starts.append(q_start.array)
        return q_start, warm

    with mock.patch.object(reduction, "_predict", recording):
        reports = reduction.continuation(
            [0.02, 0.01, 0.005], phi, params2,
            (-0.4, 0.4, -0.4, 0.4, 0.6, 1.6), grid16)
    assert [r["status"] for r in reports] == ["ok"] * 3
    qs = [np.array(r["q"]) for r in reports]
    for start, q_prev, q_eps in zip(starts[1:], qs, qs[1:]):
        assert (np.linalg.norm(start - q_eps)
                <= 0.5 * np.linalg.norm(q_prev - q_eps))


# ---------------------------------------------------------------------------
# a stack of ball centers is walked in groups, each center's numbers its own


centers = st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4),
                    st.floats(0.6, 1.6))


@FEW
@given(st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
                 st.floats(0.85, 1.3)),
       st.lists(centers, min_size=1, max_size=8), st.floats(-0.04, 0.04))
# seven centers: two full groups and a short one
@example((0.1, -0.05, 1.1), [(0.1 * i - 0.3, 0.05 * i, 0.6 + 0.15 * i)
                             for i in range(7)], 0.03)
def test_stacked_flux_equals_each_center(params2, anchor, qs, tilt):
    phi = pe.phi_to_prescribed(
        "exp(-hypdist({!r}, {!r}, {!r})^2)".format(*map(float, anchor))
        + f" + {float(tilt)!r}*p2")
    qs = np.array(qs)
    g = f_gradient(phi, params2, qs)
    gh, H = f_hessian(phi, params2, qs)
    assert g.shape == gh.shape == qs.shape and H.shape == qs.shape + (3,)
    for q, gq, ghq, Hq in zip(qs, g, gh, H):
        one = f_gradient(phi, params2, q)
        g1, H1 = f_hessian(phi, params2, q)
        assert one.shape == (3,) and H1.shape == (3, 3)
        assert gq.tobytes() == ghq.tobytes() == one.tobytes() == g1.tobytes()
        assert Hq.tobytes() == H1.tobytes()


# ---------------------------------------------------------------------------
# the flux gradient commutes with the ball motions: a horizontal shift or a
# dilation of the bump's anchor moves its reduced function the same way


def _bump(anchor):
    return pe.phi_to_prescribed(
        "exp(-hypdist({!r}, {!r}, {!r})^2)".format(*map(float, anchor)))


@FEW
@given(st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
                 st.floats(0.85, 1.3)),
       st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                 st.floats(0.8, 1.3)),
       st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
       st.floats(0.5, 2.0))
def test_flux_gradient_killing_equivariance(params2, anchor, q, shift, lam):
    anchor, q = np.array(anchor), np.array(q)
    g = f_gradient(_bump(anchor), params2, q)
    # roundoff of the flux sums, whose terms are of order one
    tol = 1e-12 * max(np.linalg.norm(g), 1.0)
    s = np.array([*shift, 0.0])
    # f_{a+s}(q + s) = f_a(q), so the gradients agree
    gs = f_gradient(_bump(anchor + s), params2, q + s)
    assert np.linalg.norm(gs - g) <= tol
    # f_{lam a}(lam q) = f_a(q), so lam grad f_{lam a}(lam q) = grad f_a(q)
    gl = f_gradient(_bump(lam * anchor), params2, lam * q)
    assert np.linalg.norm(lam * gl - g) <= tol


@FEW
@given(st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
                 st.floats(0.85, 1.3)),
       st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                 st.floats(0.8, 1.3)),
       st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
       st.floats(0.5, 2.0))
def test_weighted_volume_translation_invariant(grid16, params2, anchor, q,
                                               shift, lam):
    # q -> lam q + s is an isometry, so moving both the bubble and the
    # bump's anchor leaves the enclosed weighted volume unchanged
    anchor, q = np.array(anchor), np.array(q)
    s = np.array([*shift, 0.0])
    v = volume_V(_bump(anchor), bubble(params2, HyperbolicPoint(*q), grid16))
    vt = volume_V(_bump(lam * anchor + s),
                  bubble(params2, HyperbolicPoint(*(lam * q + s)), grid16))
    assert abs(vt - v) <= 1e-12 * abs(v)
