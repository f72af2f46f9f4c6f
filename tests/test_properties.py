"""Property tests: invariances the construction guarantees, checked on
generated inputs."""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from cmc_hyp import phi_expr as pe
from cmc_hyp.bubbles import MoebiusMap, bubble, make_params, moebius_pullback
from cmc_hyp.energy import energy_E
from cmc_hyp.halfspace import HyperbolicPoint
from cmc_hyp.linearized import j_residual
from cmc_hyp.melnikov import f_gradient
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
def test_dual_gradient_matches_finite_differences(tree, p):
    h = 1e-6
    p = np.array(p)
    with np.errstate(all="ignore"):
        f = float(pe.evaluate(tree, p))
        g = pe.evaluate_gradient(tree, p)
        fp = pe.evaluate(tree, p + h * np.eye(3))
        fm = pe.evaluate(tree, p - h * np.eye(3))
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
    u = bubble(params2, HyperbolicPoint(*q), grid16)
    res = j_residual(moebius_pullback(u, g), params).values
    w = g.apply(grid16.nodes)
    u3 = u.surface.value(w)[:, 2]
    ux, uy = u.surface.first(w)
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
# f the weighted-ball volume, so the outer Newton may borrow -2 eps Hess f


@FEW
@given(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                 st.floats(0.8, 1.3)))
def test_reduced_gradient_melnikov_relation(grid16, params2, q):
    phi = pe.phi_to_prescribed(f"{BUMP} + 0.03*p1")
    gf = f_gradient(phi, params2, q)
    ratios, defects = [], []
    for eps in (0.02, 0.01, 0.005):
        g = reduced_gradient(correct(eps, q, phi, params2, grid16), params2)
        ratios.append(g @ gf / (eps * gf @ gf))
        defects.append(np.linalg.norm(g / eps + 2.0 * gf) / eps)
    # the ratio along grad f tends to -2 ...
    assert abs(ratios[0] + 2) > abs(ratios[1] + 2) > abs(ratios[2] + 2)
    # ... because the defect is O(eps^2): divided by eps^2 it stays put
    assert max(defects) <= 1.25 * min(defects)
