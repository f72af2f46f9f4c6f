import numpy as np
import pytest

from cmc_hyp import bubbles as bb
from cmc_hyp import chart as ch
from cmc_hyp import halfspace as hs
from cmc_hyp.linearized import j_residual


def test_make_params_values():
    p = bb.make_params(2.0)
    assert p.rho == pytest.approx(0.5 * np.log(3.0), abs=1e-15)
    assert p.r == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-15)
    assert p.c == pytest.approx(np.sqrt(3.0), abs=1e-15)
    # derived-quantity consistency
    assert np.sinh(p.rho) == pytest.approx(p.r, rel=1e-14)
    assert np.cosh(p.rho) == pytest.approx(p.k * p.r, rel=1e-14)


def test_make_params_limits_and_rejection():
    vals = [bb.make_params(k).r * k for k in (5.0, 10.0, 20.0)]
    assert vals[0] > vals[1] > vals[2] > 1.0
    p = bb.make_params(1.0001)
    assert p.rho == pytest.approx(np.arctanh(1.0 / 1.0001), rel=1e-12)
    assert p.rho == pytest.approx(4.9517, abs=1e-3)
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError, match="constant-mean-curvature"):
            bb.make_params(bad)


def test_bubble_geometry(grid16, params2):
    q = hs.HyperbolicPoint(0, 0, 1)
    U = bb.bubble(params2, q, grid16)
    # value over the chart origin: r * (omega(0) + 2 e3) = (0, 0, r)
    v0 = U.surface.value(np.zeros(2))
    assert np.allclose(v0, [0, 0, params2.r], atol=1e-15)
    d = hs.dist(np.broadcast_to(q.array, U.values.shape), U.values)
    assert np.max(np.abs(d - params2.rho)) < 1e-12
    assert np.min(U.values[:, 2]) > 0
    assert np.min(U.values[:, 2]) >= (params2.k - 1) * params2.r - 1e-12
    # Euclidean sphere of center (q1, q2, k r q3) and radius q3 r
    q2 = hs.HyperbolicPoint(0.5, -0.2, 1.7)
    U2 = bb.bubble(params2, q2, grid16)
    center = np.array([0.5, -0.2, params2.k * params2.r * 1.7])
    rad = np.linalg.norm(U2.values - center, axis=1)
    assert np.max(np.abs(rad - 1.7 * params2.r)) < 1e-13


def test_moebius_identity_and_rotation(grid16):
    g = bb.MoebiusMap.identity()
    om = ch.omega_field(grid16)
    assert bb.moebius_pullback(om, g) is om
    th = 0.7
    rot = bb.MoebiusMap.rotation(th)
    pulled = bb.moebius_pullback(om, rot)
    R = np.array([[np.cos(th), -np.sin(th), 0],
                  [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
    # chart rotation equals the ambient rotation about the vertical axis
    assert np.max(np.abs(pulled.values - om.values @ R.T)) < 1e-12
    with pytest.raises(ValueError):
        bb.MoebiusMap(1, 2, 1, 2)


def test_moebius_pullback_solves(grid24, params2):
    U = bb.bubble(params2, hs.HyperbolicPoint(0, 0, 1), grid24)
    g = bb.MoebiusMap(1.3 * np.exp(0.4j), 0.1, 0.0, 1.0)
    pulled = bb.moebius_pullback(U, g)
    # analytic route: exact composition
    res = j_residual(pulled, params2)
    assert np.max(np.abs(res.values)) < 1e-10
    # sampled route: values only, spectral derivatives
    res2 = j_residual(ch.SphereField(grid24, pulled.values.copy()), params2)
    assert np.max(np.abs(res2.values)) < 1e-6


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("g", [None, bb.MoebiusMap(1.2 * np.exp(0.3j), 0.1,
                                                   0.1j, 1.0)])
def test_surface_laplacian_matches_spectral(n, g, params2):
    # the analytic chart Laplacian of a bubble and of a Moebius pullback,
    # where |g'| varies over the chart, against the spectral rule on the
    # same values sampled without the surface
    grid = ch.build_grid(n)
    u = bb.bubble(params2, hs.HyperbolicPoint(0.1, -0.2, 1.3), grid)
    if g is not None:
        u = bb.moebius_pullback(u, g)
    exact = ch.laplacian(u)
    spectral = ch.laplacian(ch.SphereField(grid, u.values))
    assert np.max(np.abs(exact - spectral)) <= 1e-10 * np.max(np.abs(exact))


def test_moebius_pullback_sampled_matches_analytic(grid24, rng):
    g = bb.MoebiusMap(np.exp(0.3j), 0.05, 0.0, 1.0)
    f = ch.random_smooth_field(grid24, rng, vector=False)
    pulled = bb.moebius_pullback(f, g)
    direct = ch.interpolate(f, g.apply(grid24.nodes))
    assert np.max(np.abs(pulled.values - direct)) < 1e-12


def test_frame_grams(grid16, params2):
    fr = bb.tangent_frame(params2, grid16)
    assert np.max(np.abs(fr.tau_gram() - np.eye(6))) < 1e-8
    gg = fr.gamma_gram()
    assert np.allclose(np.diag(gg), [4.0, 4.0, 7.0], atol=1e-8)
    assert np.max(np.abs(gg - np.diag(np.diag(gg)))) < 1e-8
    for t in fr.tau:
        assert np.max(np.abs(np.einsum(
            "ij,ij->i", t.values, grid16.omega))) < 1e-13
    assert fr.c0 == pytest.approx(np.sqrt(3.0 / (16.0 * np.pi)))


def test_tangent_project_basis_element(grid16, params2):
    fr = bb.tangent_frame(params2, grid16)
    coef, rem = bb.tangent_project(fr.tau[2], fr, "L2")
    expect = np.zeros(9)
    expect[2] = 1.0
    assert np.max(np.abs(coef - expect)) < 1e-8
    assert np.max(np.abs(rem.values)) < 1e-8


def test_tangent_project_omega(grid16, params2):
    frame = bb.tangent_frame(params2, grid16)
    om = ch.omega_field(grid16)
    coef, rem = bb.tangent_project(om, frame, "L2")
    assert np.max(np.abs(coef[:6])) < 1e-8
    # <omega, gamma_3 omega> = int gamma_3 = 8 pi c0 ; Gram entry k^2 + 3
    expect = 8 * np.pi * bb.C0 / (params2.k**2 + 3.0)
    assert coef[8] == pytest.approx(expect, rel=1e-10)
    assert np.max(np.abs(coef[6:8])) < 1e-10


def test_tangent_project_parity_field(grid16, params2):
    frame = bb.tangent_frame(params2, grid16)
    g = grid16
    f = ch.SphereField(g, (g.omega[:, 0] * g.omega[:, 1])[:, None] * g.omega)
    coef, _ = bb.tangent_project(f, frame, "L2")
    assert np.max(np.abs(coef)) < 1e-8


def test_tangent_project_star_metric(grid16, params2, rng):
    frame = bb.tangent_frame(params2, grid16)
    f = ch.random_smooth_field(grid16, rng)
    coef, rem = bb.tangent_project(f, frame, "star")
    # remainder is star-orthogonal to every generator
    gens = [t.values for t in frame.tau]
    gens += [frame.gamma[:, e, None] * grid16.omega for e in range(3)]
    worst = max(abs(bb.star_inner(grid16, params2, rem.values, gv))
                for gv in gens)
    assert worst < 1e-10
    assert rem.gram_cond < 1e3
    with pytest.raises(ValueError):
        bb.tangent_project(f, frame, "euclid")


def test_tangent_space_descriptions(grid16, params2, rng):
    # both classical descriptions of the tangent space lie in the frame span
    g = grid16
    frame = bb.tangent_frame(params2, g)
    om = g.omega
    fields = []
    for s in np.eye(3):
        fields.append(s - np.einsum("j,ij->i", s, om)[:, None] * om)
    for t in np.eye(3):
        fields.append(np.cross(np.tile(t, (g.size, 1)), om))
    for a in np.eye(3):
        fields.append((params2.k * (om @ a) + a[2])[:, None] * om)
    x, y = g.nodes[:, 0], g.nodes[:, 1]
    dx, dy = g.domega_dx, g.domega_dy
    fields += [dx, dy,
               x[:, None] * dx + y[:, None] * dy,
               -y[:, None] * dx + x[:, None] * dy,
               (x * x - y * y)[:, None] * dx + (2 * x * y)[:, None] * dy,
               (-2 * x * y)[:, None] * dx + (x * x - y * y)[:, None] * dy]
    fields.append(np.tile(np.eye(3)[0], (g.size, 1)))
    fields.append(np.tile(np.eye(3)[1], (g.size, 1)))
    fields.append(params2.r * (om + params2.k * np.eye(3)[2]))
    for vals in fields:
        f = ch.SphereField(g, vals)
        _, rem = bb.tangent_project(f, frame, "L2")
        scale = max(np.max(np.abs(vals)), 1.0)
        assert np.max(np.abs(rem.values)) / scale < 1e-8
