import inspect

import numpy as np
import pytest

from cmc_hyp import bubbles as bb
from cmc_hyp import linearized as lin
from cmc_hyp import phi_expr as pe
from cmc_hyp.errors import NumericsError
from cmc_hyp.halfspace import HyperbolicPoint


def fd_gradient(phi, p, h=1e-6):
    out = np.empty(3)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        out[j] = (phi.evaluate(p + e) - phi.evaluate(p - e)) / (2 * h)
    return out


def test_constant_and_coordinate():
    one = pe.phi_to_prescribed("1")
    assert float(one.evaluate(np.array([0.3, 0.2, 1.5]))) == 1.0
    assert np.allclose(one.gradient(np.array([0.3, 0.2, 1.5])), 0.0)
    p1 = pe.phi_to_prescribed("p1")
    pt = np.array([0.7, -0.3, 2.0])
    assert float(p1.evaluate(pt)) == 0.7
    assert np.allclose(p1.gradient(pt), [1, 0, 0])


def test_radial_bump_gradient():
    phi = pe.phi_to_prescribed("exp(-hypdist(0,0,1)^2)")
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(0.5, 2)])
        g = phi.gradient(p)
        assert np.linalg.norm(g - fd_gradient(phi, p)) < 1e-6 * max(
            1.0, np.linalg.norm(g))


def test_vectorized_evaluation():
    phi = pe.phi_to_prescribed("p3^2 * sin(p1) + cos(p2)/p3")
    pts = np.random.default_rng(0).uniform(0.5, 1.5, (40, 3))
    vals = phi.evaluate(pts)
    assert vals.shape == (40,)
    expect = pts[:, 2] ** 2 * np.sin(pts[:, 0]) + np.cos(pts[:, 1]) / pts[:, 2]
    assert np.allclose(vals, expect)
    grads = phi.gradient(pts)
    assert grads.shape == (40, 3)
    assert np.allclose(grads[:, 0], pts[:, 2] ** 2 * np.cos(pts[:, 0]))


def test_power_and_precedence():
    phi = pe.phi_to_prescribed("2*p1^2 + 3")
    assert float(phi.evaluate(np.array([2.0, 0, 1]))) == 11.0
    # right associativity of the power operator
    phi = pe.phi_to_prescribed("p3^2^2")   # p3^(2^2) wait: 2^2 evaluated right
    assert float(phi.evaluate(np.array([0, 0, 2.0]))) == 16.0
    neg = pe.phi_to_prescribed("-p1^2")
    assert float(neg.evaluate(np.array([3.0, 0, 1]))) == -9.0


def test_roundtrip_printing():
    for text in ("1", "p1", "exp(-hypdist(0, 0, 1)^2)",
                 "(p1 + p2) * p3 - 2 / (1 + p1^2)",
                 "atanh(p1 / 4) + tanh(p2) + sqrt(p3) + log(p3)"):
        tree = pe.parse_phi(text)
        assert pe.parse_phi(pe.to_text(tree)) == tree


def test_syntax_errors_with_position():
    with pytest.raises(pe.PhiSyntaxError) as err:
        pe.parse_phi("exp(-hypdist(0,0")
    assert err.value.position > 0
    with pytest.raises(pe.PhiSyntaxError):
        pe.parse_phi("")
    with pytest.raises(pe.PhiSyntaxError, match="unknown identifier"):
        pe.parse_phi("q1 + 1")
    with pytest.raises(pe.PhiSyntaxError, match="unknown function"):
        pe.parse_phi("sinh(p1)")
    with pytest.raises(pe.PhiSyntaxError, match="anchor"):
        pe.parse_phi("hypdist(p1, 0, 1)")
    with pytest.raises(pe.PhiSyntaxError, match="third entry"):
        pe.parse_phi("hypdist(0, 0, -1)")
    with pytest.raises(pe.PhiSyntaxError):
        pe.parse_phi("1 +")
    with pytest.raises(pe.PhiSyntaxError, match="not finite") as err:
        pe.parse_phi("exp(-1e999)")
    assert err.value.position == 5


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="not finite"):
        pe.phi_to_prescribed("log(p1)")   # negative probes
    with pytest.raises(ValueError, match="not finite"):
        pe.phi_to_prescribed("sqrt(p1 - 2)")


def test_compiled_samples_are_checked(grid16, params2):
    phi = pe.phi_to_prescribed("sqrt(p3 - 1.1)",
                               probe_box=(-0.1, 0.1, -0.1, 0.1, 1.2, 1.5))
    for fn in (phi.evaluate, phi.gradient):
        assert list(inspect.signature(fn).parameters) == ["p"]
    pts = np.array([[0.0, 0.0, 1.3], [0.2, 0.1, 1.0], [0.0, 0.0, 0.5]])
    # filterwarnings = error turns a leaked RuntimeWarning into a failure
    for fn in (phi.evaluate, phi.gradient):
        with pytest.raises(NumericsError, match=r"sqrt\(p3 - 1\.1\) is not "
                           r"finite at \[0\.2, 0\.1, 1\.0\]"):
            fn(pts)
    assert np.isfinite(phi.gradient(pts[:1])).all()
    # the corrector's residual samples phi through the same check
    U = bb.bubble(params2, HyperbolicPoint(0, 0, 1), grid16)
    with pytest.raises(NumericsError, match="not finite"):
        lin.j_residual(U, params2, curvature=phi, eps=0.01)


def test_hypdist_matches_halfspace():
    from cmc_hyp.halfspace import dist
    phi = pe.phi_to_prescribed("hypdist(0.5, -0.25, 2)")
    p = np.array([0.1, 0.2, 1.3])
    assert float(phi.evaluate(p)) == pytest.approx(
        float(dist(p, np.array([0.5, -0.25, 2.0]))), abs=1e-14)


def test_constants_pi():
    phi = pe.phi_to_prescribed("pi * p3")
    assert float(phi.evaluate(np.array([0, 0, 2.0]))) == pytest.approx(
        2 * np.pi)


def test_zero_exponent_has_zero_slope():
    # the probe lattice holds p1 = 0, where 0 * 0^-1 would not be finite
    phi = pe.phi_to_prescribed("p1^0")
    assert np.array_equal(phi.gradient(np.array([0.0, 0.3, 1.0])), np.zeros(3))


def test_hypdist_slope_is_zero_at_its_anchor():
    phi = pe.phi_to_prescribed("exp(-hypdist(0.1, 0.2, 1.1)^2)")
    assert np.array_equal(phi.gradient(np.array([0.1, 0.2, 1.1])), np.zeros(3))


def test_gradient_batched_shapes():
    # a batch of points in any shape gives each point's own gradient; an
    # expression without variables has the zero gradient
    tree = pe.parse_phi("exp(-hypdist(0.1,0,1)^2) * p1 + sin(p2) / p3")
    rng = np.random.default_rng(3)
    pts = rng.uniform([-0.5, -0.5, 0.5], [0.5, 0.5, 1.5], size=(2, 50, 3))
    batched = pe.evaluate_gradient(tree, pts)
    assert batched.shape == pts.shape
    flat = pe.evaluate_gradient(tree, pts.reshape(-1, 3))
    np.testing.assert_allclose(batched.reshape(-1, 3), flat,
                               rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(flat[7], pe.evaluate_gradient(tree, pts[0, 7]),
                               rtol=1e-14, atol=1e-15)
    assert np.array_equal(pe.evaluate_gradient(pe.parse_phi("2"), pts),
                          np.zeros_like(pts))


def _composed_hypdist(p1, p2, p3, anchor):
    a1, a2, a3 = anchor
    d1, d2, d3 = p1 - a1, p2 - a2, p3 - a3
    c = 1.0 + (d1 * d1 + d2 * d2 + d3 * d3) / (2.0 * p3 * a3)
    return np.arccosh(np.maximum(c, 1.0))


def test_hypdist_closed_form_slope_matches_the_ufunc_chain(monkeypatch):
    designs = ("exp(-hypdist(0.1, -0.05, 1.1)^2)",
               "exp(-hypdist(-0.15, 0.1, 0.9)^2) + 0.03*p2",
               "exp(-hypdist(0.05, 0.15, 1.25)^2)"
               " + 0.2*exp(-hypdist(-0.2, 0, 0.95)^2)")
    rng = np.random.default_rng(11)
    anchor = np.array([0.1, -0.05, 1.1])
    pts = rng.uniform([-1.0, -1.0, 0.3], [1.0, 1.0, 2.5], (20000, 3))
    # the anchor itself and points so close to it that c rounds to 1, and
    # points below the boundary plane, where c < 1
    pts[:10] = anchor
    pts[10:110] = anchor * (1.0 + 1e-9 * rng.uniform(-1, 1, (100, 3)))
    pts[110:160, 2] *= -1.0
    c = 1.0 + np.sum((pts - anchor) ** 2, axis=-1) / (2.0 * pts[:, 2] * 1.1)
    assert np.sum(c == 1.0) >= 100 and np.sum(c < 1.0) == 50
    # the dual's value is the plain value, bit for bit
    seeds = [pe.Dual(pts[:, i], np.outer(np.eye(3)[i], np.ones(len(pts))))
             for i in range(3)]
    assert np.array_equal(pe.hypdist(*seeds, tuple(anchor)).v,
                          _composed_hypdist(*pts.T, tuple(anchor)))
    closed = {text: (pe.evaluate(pe.parse_phi(text), pts),
                     pe.evaluate_gradient(pe.parse_phi(text), pts))
              for text in designs}
    # the reference: the composed chain through the dual rule table
    monkeypatch.setattr(pe, "hypdist", _composed_hypdist)
    monkeypatch.setitem(pe._RULES, np.maximum,
                        (lambda a, b, out: a >= b, lambda a, b, out: a < b))
    monkeypatch.setitem(pe._RULES, np.arccosh,
                        (lambda a, out: pe._arccosh_slope(a),))
    for text, (values, grads) in closed.items():
        tree = pe.parse_phi(text)
        assert np.array_equal(values, pe.evaluate(tree, pts))
        ref = pe.evaluate_gradient(tree, pts)
        assert np.all(np.linalg.norm(grads - ref, axis=-1)
                      <= 1e-13 * np.linalg.norm(ref, axis=-1))
