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


@pytest.mark.parametrize("k", [float("inf"), float("nan")])
def test_make_params_rejects_a_k_that_is_not_finite(k):
    # the radii of k = inf are rho = nan and r = 0
    with pytest.raises(ValueError, match="k must be finite"):
        bb.make_params(k)


def test_bubble_geometry(grid16, params2):
    q = hs.HyperbolicPoint(0, 0, 1)
    U = bb.bubble(params2, q, grid16)
    # about (0, 0, 1) the sphere is r (omega + k e3), whose value over the
    # chart origin, where omega = -e3, is (0, 0, (k - 1) r)
    assert np.allclose(U.values, params2.r * (
        grid16.omega + np.array([0, 0, params2.k])), rtol=0, atol=1e-15)
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


def _sphere(params, q):
    """Scale and shift of the sphere ``s omega + shift`` about ``q``."""
    return q.p3 * params.r, np.array([q.p1, q.p2, q.p3 * params.r * params.k])


def _relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def test_bubble_samples_its_analytic_surface(grid24, params2):
    # bubble scales the grid's omega tables, and its Laplacian is
    # -2 s mu^2 omega: the closed form at the nodes, bit for bit, and the
    # Laplacian is omega's second derivatives' to roundoff
    q = hs.HyperbolicPoint(0.3, -0.2, 1.4)
    U = bb.bubble(params2, q, grid24)
    s, shift = _sphere(params2, q)
    om, mu, dx, dy = ch.omega_mu(grid24.nodes)
    for got, ref in ((U.values, s * om + shift), (U.dx, s * dx),
                     (U.dy, s * dy), (U.lap, -2.0 * s * mu[:, None]**2 * om)):
        assert got.tobytes() == ref.tobytes()
    dxx, _, dyy = ch.omega_second(grid24.nodes)
    assert _relative_gap(U.lap, s * dxx + s * dyy) <= 1e-13


@pytest.mark.parametrize("g", [bb.MoebiusMap.rotation(0.7),
                               bb.MoebiusMap(1.3 * np.exp(0.4j), 0.1, 0.2j,
                                             1.0)])
def test_moebius_bubble_is_the_composition(grid24, params2, g):
    # u o g: the sphere at g(z), its first derivatives rotated and scaled by
    # g' and its Laplacian, -2 s mu^2 omega at g(z), scaled by |g'|^2, bit
    # for bit; the Laplacian is omega's second derivatives' to roundoff
    q = hs.HyperbolicPoint(0.3, -0.2, 1.4)
    u = bb.bubble(params2, q, grid24, g)
    s, shift = _sphere(params2, q)
    w = g.apply(grid24.nodes)
    om, mu, ox, oy = ch.omega_mu(w)
    gp = g.cderiv(grid24.nodes)
    a, b = gp.real[:, None], gp.imag[:, None]
    want = (s * om + shift, a * (s * ox) + b * (s * oy),
            -b * (s * ox) + a * (s * oy),
            (a**2 + b**2) * (-2.0 * s * mu[:, None]**2 * om))
    for got, ref in zip((u.values, u.dx, u.dy, u.lap), want):
        assert got.tobytes() == ref.tobytes()
    oxx, _, oyy = ch.omega_second(w)
    assert _relative_gap(u.lap, (a**2 + b**2) * (s * oxx + s * oyy)) <= 1e-13


def test_moebius_identity_and_rotation(grid16, params2):
    # the identity map reproduces the plain bubble (zeros may change sign)
    U = bb.bubble(params2, (0.2, -0.1, 1.3), grid16)
    same = bb.bubble(params2, (0.2, -0.1, 1.3), grid16,
                     bb.MoebiusMap.identity())
    for got, ref in zip((same.values, same.dx, same.dy, same.lap),
                        (U.values, U.dx, U.dy, U.lap)):
        assert np.array_equal(got, ref)
    U = bb.bubble(params2, (0, 0, 1), grid16)
    th = 0.7
    pulled = bb.bubble(params2, (0, 0, 1), grid16, bb.MoebiusMap.rotation(th))
    R = np.array([[np.cos(th), -np.sin(th), 0],
                  [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
    # chart rotation equals the ambient rotation about the vertical axis,
    # which fixes the sphere's centre on it
    assert np.max(np.abs(pulled.values - U.values @ R.T)) < 1e-12
    with pytest.raises(ValueError):
        bb.MoebiusMap(1, 2, 1, 2)


def test_moebius_pullback_solves(grid24, params2):
    g = bb.MoebiusMap(1.3 * np.exp(0.4j), 0.1, 0.0, 1.0)
    pulled = bb.bubble(params2, hs.HyperbolicPoint(0, 0, 1), grid24, g)
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
    # same values sampled without their Laplacian
    grid = ch.build_grid(n)
    u = bb.bubble(params2, hs.HyperbolicPoint(0.1, -0.2, 1.3), grid, g)
    exact = ch.laplacian(u)
    spectral = ch.laplacian(ch.SphereField(grid, u.values))
    assert np.max(np.abs(exact - spectral)) <= 1e-10 * np.max(np.abs(exact))


def test_frame_grams(grid16, params2):
    fr = bb.tangent_frame(params2, grid16)
    assert np.max(np.abs(fr.tau_gram() - np.eye(6))) < 1e-8
    gg = fr.gamma_gram()
    assert np.allclose(np.diag(gg), [4.0, 4.0, 7.0], atol=1e-8)
    assert np.max(np.abs(gg - np.diag(np.diag(gg)))) < 1e-8
    for t in fr.tau:
        assert np.max(np.abs(np.einsum(
            "ij,ij->i", t.values, grid16.omega))) < 1e-13
    assert bb.C0 == pytest.approx(np.sqrt(3.0 / (16.0 * np.pi)))


def test_frame_holds_values_only(grid16, grid24, params2):
    # each tau_j is cf (a d_x omega + b d_y omega) at the nodes, bit for
    # bit, and carries no derivative slots
    for grid in (grid16, grid24):
        fr = bb.tangent_frame(params2, grid)
        x, y = grid.nodes[:, 0], grid.nodes[:, 1]
        for t, (a, b, cf) in zip(fr.tau, bb.flow_coefficients(x, y)):
            assert t.dx is None and t.dy is None
            assert np.array_equal(t.values, cf * (
                a[:, None] * grid.domega_dx + b[:, None] * grid.domega_dy))


def test_frame_derivatives_are_spectrally_exact(grid16, grid24, params2):
    # a tau field is a degree-2 polynomial on the sphere, so the grid's
    # spectral rule reproduces its analytic chart derivatives, built here
    # from the flows' coefficient gradients and omega's second derivatives
    for grid in (grid16, grid24):
        fr = bb.tangent_frame(params2, grid)
        x, y = grid.nodes[:, 0], grid.nodes[:, 1]
        one, zero = np.ones_like(x), np.zeros_like(x)
        grads = [((zero, zero), (zero, zero)), ((zero, zero), (zero, zero)),
                 ((one, zero), (zero, one)), ((zero, -one), (one, zero)),
                 ((2 * x, -2 * y), (2 * y, 2 * x)),
                 ((-2 * y, -2 * x), (2 * x, -2 * y))]
        dox, doy = grid.domega_dx, grid.domega_dy
        dxx, dxy, dyy = ch.omega_second(grid.nodes)
        for t, (a, b, cf), (da, db) in zip(
                fr.tau, bb.flow_coefficients(x, y), grads):
            a, b = a[:, None], b[:, None]
            ex = cf * (da[0][:, None] * dox + a * dxx
                       + db[0][:, None] * doy + b * dxy)
            ey = cf * (da[1][:, None] * dox + a * dxy
                       + db[1][:, None] * doy + b * dyy)
            t = ch.differentiate(t)
            assert np.max(np.abs(t.dx - ex)) < 1e-12
            assert np.max(np.abs(t.dy - ey)) < 1e-12


def test_tangent_project_basis_element(grid16, params2):
    fr = bb.tangent_frame(params2, grid16)
    coef, rem = bb.tangent_project(fr.tau[2], fr)
    expect = np.zeros(9)
    expect[2] = 1.0
    assert np.max(np.abs(coef - expect)) < 1e-8
    assert np.max(np.abs(rem.values)) < 1e-8


def test_tangent_project_omega(grid16, params2):
    frame = bb.tangent_frame(params2, grid16)
    om = ch.omega_field(grid16)
    coef, rem = bb.tangent_project(om, frame)
    assert np.max(np.abs(coef[:6])) < 1e-8
    # <omega, gamma_3 omega> = int gamma_3 = 8 pi c0 ; Gram entry k^2 + 3
    expect = 8 * np.pi * bb.C0 / (params2.k**2 + 3.0)
    assert coef[8] == pytest.approx(expect, rel=1e-10)
    assert np.max(np.abs(coef[6:8])) < 1e-10


def test_tangent_project_parity_field(grid16, params2):
    frame = bb.tangent_frame(params2, grid16)
    g = grid16
    f = ch.SphereField(g, (g.omega[:, 0] * g.omega[:, 1])[:, None] * g.omega)
    coef, _ = bb.tangent_project(f, frame)
    assert np.max(np.abs(coef)) < 1e-8


def test_tangent_project_remainder_is_orthogonal(grid16, params2, rng):
    frame = bb.tangent_frame(params2, grid16)
    f = ch.random_smooth_field(grid16, rng)
    coef, rem = bb.tangent_project(f, frame)
    # the remainder is L2-orthogonal to every generator, and the span part
    # plus the remainder is the field
    gens = [t.values for t in frame.tau]
    gens += [frame.gamma[:, e, None] * grid16.omega for e in range(3)]
    worst = max(abs(ch.integrate(np.einsum("ij,ij->i", rem.values, gv),
                                 grid16)) for gv in gens)
    assert worst < 1e-10
    span = sum(c * gv for c, gv in zip(coef, gens))
    assert np.max(np.abs(span + rem.values - f.values)) < 1e-12


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
        _, rem = bb.tangent_project(f, frame)
        scale = max(np.max(np.abs(vals)), 1.0)
        assert np.max(np.abs(rem.values)) / scale < 1e-8
