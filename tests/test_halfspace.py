import numpy as np
import pytest

from cmc_hyp import halfspace as hs
from cmc_hyp.errors import NumericsError


def random_point(rng):
    return hs.HyperbolicPoint(rng.uniform(-2, 2), rng.uniform(-2, 2),
                              rng.uniform(0.2, 3.0))


def test_point_validation():
    with pytest.raises(ValueError):
        hs.HyperbolicPoint(0, 0, 0.0)
    with pytest.raises(ValueError):
        hs.HyperbolicPoint.of((1, 2, -1))
    with pytest.raises(ValueError):
        hs.HyperbolicPoint.of((1, 2))


def test_dist_identity_and_value():
    p = hs.HyperbolicPoint(0.3, -0.7, 1.4)
    assert hs.dist(p, p) == 0.0
    # cosh d = 1 + 1/(2*1*2) = 1.25, d = arccosh(1.25) = ln 2, by hand
    d = hs.dist(hs.HyperbolicPoint(0, 0, 1), hs.HyperbolicPoint(0, 0, 2))
    assert d == pytest.approx(np.log(2.0), abs=1e-15)


def test_dist_symmetry_and_translation_invariance(rng):
    for _ in range(20):
        p, q, t = random_point(rng), random_point(rng), random_point(rng)
        d = hs.dist(p, q)
        assert hs.dist(q, p) == pytest.approx(d, abs=1e-14)
        dt = hs.dist(hs.translate(p, t), hs.translate(q, t))
        assert dt == pytest.approx(d, abs=1e-12)


def test_dist_triangle_inequality(rng):
    for _ in range(50):
        a, b, c = (random_point(rng) for _ in range(3))
        assert hs.dist(a, c) <= hs.dist(a, b) + hs.dist(b, c) + 1e-12


def test_dist_numeric_guard():
    # two points below the plane give cosh(distance) = 1.25 > 1, yet they
    # have no distance in the model
    with pytest.raises(NumericsError):
        hs.dist(np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, -2.0]))


def test_ball_to_euclidean_values():
    ball = hs.ball_to_euclidean(hs.HyperbolicPoint(0, 0, 1), np.arctanh(0.5))
    # cosh(artanh 1/2) = 2/sqrt(3), sinh = 1/sqrt(3)
    assert ball.center[2] == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-15)
    assert ball.radius == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-15)
    with pytest.raises(ValueError):
        hs.ball_to_euclidean(hs.HyperbolicPoint(0, 0, 1), 0.0)


def test_ball_scaling_homothety():
    rho = 0.8
    b1 = hs.ball_to_euclidean(hs.HyperbolicPoint(0, 0, 1), rho)
    b3 = hs.ball_to_euclidean(hs.HyperbolicPoint(0, 0, 3), rho)
    assert b3.center[2] == pytest.approx(3 * b1.center[2], rel=1e-15)
    assert b3.radius == pytest.approx(3 * b1.radius, rel=1e-15)


def test_ball_boundary_is_distance_sphere(rng):
    p = random_point(rng)
    rho = rng.uniform(0.2, 1.2)
    ball = hs.ball_to_euclidean(p, rho)
    # sample the Euclidean boundary sphere, evaluate the hyperbolic distance
    u = rng.standard_normal((200, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    pts = ball.center_array + ball.radius * u
    d = hs.dist(np.broadcast_to(p.array, pts.shape), pts)
    assert np.max(np.abs(d - rho)) < 1e-10


def test_ball_membership_roundtrip(rng):
    p = hs.HyperbolicPoint(0.4, -0.1, 1.3)
    rho = 0.7
    ball = hs.ball_to_euclidean(p, rho)
    pts = np.stack([rng.uniform(-2, 2, 1000), rng.uniform(-2, 2, 1000),
                    rng.uniform(0.05, 4.0, 1000)], axis=-1)
    d = hs.dist(np.broadcast_to(p.array, pts.shape), pts)
    keep = np.abs(d - rho) > 1e-10        # stay off the decision shell
    inside_h = d[keep] < rho
    inside_e = np.linalg.norm(pts[keep] - ball.center_array,
                              axis=-1) <= ball.radius
    assert np.array_equal(inside_h, inside_e)


def test_translate_identity_and_example():
    u = np.array([0.3, 0.4, 0.5])
    assert np.allclose(hs.translate(u, (0, 0, 1)), u)
    moved = hs.translate(hs.HyperbolicPoint(0, 0, 1), (1, 2, 3))
    assert (moved.p1, moved.p2, moved.p3) == (1.0, 2.0, 3.0)


def test_translate_group_action(rng):
    x = random_point(rng)
    q, qp = random_point(rng), random_point(rng)
    two = hs.translate(hs.translate(x, q), qp)
    # the composite's parameter is q moved by qp; the inverse's is the point
    # that q's translation takes to (0, 0, 1)
    composed = hs.translate(x, hs.translate(q, qp))
    assert np.allclose(two.array, composed.array, atol=1e-13)
    inv = hs.HyperbolicPoint(-q.p1 / q.p3, -q.p2 / q.p3, 1.0 / q.p3)
    back = hs.translate(hs.translate(x, q), inv)
    assert np.allclose(back.array, x.array, atol=1e-13)


def test_translate_volume_invariance(rng):
    # integral of p3^-3 over a ball is the hyperbolic volume; translating the
    # ball must preserve it (3D quadrature on both sides)
    p = hs.HyperbolicPoint(0.2, 0.1, 1.1)
    rho = 0.6
    t = hs.HyperbolicPoint(0.5, -0.3, 1.7)
    b1 = hs.ball_to_euclidean(p, rho)
    b2 = hs.ball_to_euclidean(hs.translate(p, t), rho)
    for ball in (b1, b2):
        pts, w = hs.ball_quadrature(ball, order=16)
        vol = np.sum(w * pts[:, 2] ** -3.0)
        assert vol == pytest.approx(hs.hyperbolic_ball_volume(rho), abs=1e-8)


def test_ball_quadrature_polynomial_exactness():
    ball = hs.EuclideanBall((0.0, 0.0, 0.0), 1.0)
    pts, w = hs.ball_quadrature(ball, order=6)
    assert np.sum(w) == pytest.approx(4 * np.pi / 3, rel=1e-13)
    # moment of z^2 over the unit ball = 4 pi / 15
    assert np.sum(w * pts[:, 2] ** 2) == pytest.approx(4 * np.pi / 15, rel=1e-12)
