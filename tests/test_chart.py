import numpy as np
import pytest

from cmc_hyp import chart as ch


def test_build_grid_area_and_symmetry(grid16):
    assert abs(np.sum(grid16.weights) - 4 * np.pi) < 1e-10
    assert abs(ch.integrate(grid16.omega[:, 2].copy(), grid16)) < 1e-10
    with pytest.raises(ValueError):
        ch.build_grid(3)


def test_with_azimuths_reproduces_the_grid(grid16):
    same = ch.with_azimuths(grid16, grid16.ntheta)
    assert same.ntheta == grid16.ntheta
    for name in ("nodes", "weights", "theta", "omega", "mu", "domega_dx",
                 "domega_dy"):
        assert np.array_equal(getattr(same, name), getattr(grid16, name)), name
    assert ch.build_grid(16) is grid16


@pytest.mark.parametrize("L", [3, 7, 12])
def test_ring_integrates_azimuthal_degrees_below_L(grid16, L):
    ring = ch.with_azimuths(grid16, L)
    assert ring.size == grid16.n * L
    theta = np.tile(ring.theta, ring.n)
    for j in range(L):
        exact = 4 * np.pi if j == 0 else 0.0
        assert abs(ch.integrate(np.cos(j * theta), ring) - exact) < 1e-13
    assert ch.integrate(np.cos(L * theta), ring) == pytest.approx(4 * np.pi)


def test_quadrature_refinement():
    # smooth but not polynomial: errors must at least halve under doubling
    ref = None
    errs = []
    for n in (8, 16, 32, 64):
        g = ch.build_grid(n)
        val = ch.integrate(1.0 / (1.1 - g.omega[:, 2]), g)
        if n == 64:
            ref = val
    for n in (8, 16, 32):
        g = ch.build_grid(n)
        errs.append(abs(ch.integrate(1.0 / (1.1 - g.omega[:, 2]), g) - ref))
    assert errs[1] < 0.5 * errs[0]
    assert errs[2] < 0.5 * errs[1]


def test_omega_mu_origin_and_identities(rng):
    om, mu, dx, dy = ch.omega_mu(np.zeros(2))
    assert np.allclose(om, [0, 0, -1]) and mu == pytest.approx(2.0)
    z = rng.uniform(-5, 5, (10_000, 2))
    om, mu, dx, dy = ch.omega_mu(z)
    assert np.max(np.abs(np.einsum("ij,ij->i", om, om) - 1)) < 1e-14
    assert np.max(np.abs(np.einsum("ij,ij->i", dx, dy))) < 1e-13
    assert np.max(np.abs(np.einsum("ij,ij->i", dx, dx) - mu**2)) < 1e-13
    assert np.max(np.abs(np.einsum("ij,ij->i", dy, dy) - mu**2)) < 1e-13
    assert np.max(np.abs(np.cross(dx, om) - dy)) < 1e-13
    assert np.max(np.abs(np.cross(om, dy) - dx)) < 1e-13
    assert np.max(np.abs(np.cross(dx, dy) + mu[:, None] ** 2 * om)) < 1e-13
    dxx, dxy, dyy = ch.omega_second(z)
    assert np.max(np.abs(dxx + dyy + 2 * mu[:, None] ** 2 * om)) < 1e-12


def test_chart_flow_identities(grid24):
    # the six closed-form reparametrization flows of the chart map
    g = grid24
    om, dx, dy = g.omega, g.domega_dx, g.domega_dy
    x, y = g.nodes[:, 0], g.nodes[:, 1]
    e1, e2, e3 = np.eye(3)
    E = lambda v: np.tile(v, (g.size, 1))
    checks = [
        dx - (e1 - om[:, 0, None] * om - np.cross(E(e2), om)),
        dy - (e2 - om[:, 1, None] * om + np.cross(E(e1), om)),
        x[:, None] * dx + y[:, None] * dy - (e3 - om[:, 2, None] * om),
        -y[:, None] * dx + x[:, None] * dy - np.cross(E(e3), om),
        (x * x - y * y)[:, None] * dx + (2 * x * y)[:, None] * dy
        + (e1 - om[:, 0, None] * om + np.cross(E(e2), om)),
        (-2 * x * y)[:, None] * dx + (x * x - y * y)[:, None] * dy
        - (e2 - om[:, 1, None] * om - np.cross(E(e1), om)),
    ]
    for c in checks:
        assert np.max(np.abs(c)) < 1e-13


def test_integrate(grid16):
    g = grid16
    assert ch.integrate(np.ones(g.size), g) == pytest.approx(4 * np.pi, abs=1e-10)
    assert ch.integrate(g.omega[:, 2] ** 2, g) == pytest.approx(
        4 * np.pi / 3, abs=1e-8)
    assert abs(ch.integrate(g.omega[:, 0].copy(), g)) < 1e-10
    other = ch.build_grid(8)
    with pytest.raises(ValueError):
        ch.integrate(ch.SphereField(other, np.ones(other.size)), g)


def test_differentiate_against_analytic(grid16):
    g = grid16
    f = ch.differentiate(ch.SphereField(g, g.omega[:, 2].copy()))
    assert np.max(np.abs(f.dx - g.mu**2 * g.nodes[:, 0])) < 1e-8
    assert np.max(np.abs(f.dy - g.mu**2 * g.nodes[:, 1])) < 1e-8
    const = ch.differentiate(ch.SphereField(g, np.full(g.size, 2.5)))
    assert np.max(np.abs(const.dx)) < 1e-12 and np.max(np.abs(const.dy)) < 1e-12
    f1 = ch.differentiate(ch.SphereField(g, g.omega[:, 0].copy()))
    assert np.max(np.abs(f1.dx - g.domega_dx[:, 0])) < 1e-8
    assert np.max(np.abs(f1.dy - g.domega_dy[:, 0])) < 1e-8


def test_compact_support_derivative_integral(grid24):
    g = grid24
    r2 = np.sum(g.nodes**2, axis=1)
    f = np.where((r2 > 0.04) & (r2 < 4.0),
                 np.exp(-1.0 / np.maximum((r2 - 0.04) * (4.0 - r2), 1e-12)), 0.0)
    fd = ch.differentiate(ch.SphereField(g, f))
    # integral of an exact x-derivative over the plane vanishes
    assert abs(np.sum(g.weights / g.mu**2 * fd.dx)) < 1e-8


def test_derivative_refinement():
    errs = []
    for n in (12, 24):
        g = ch.build_grid(n)
        f = ch.differentiate(ch.SphereField(g, np.exp(g.omega[:, 2])
                                            / (1.3 - g.omega[:, 0])))
        exact_dx = (np.exp(g.omega[:, 2]) / (1.3 - g.omega[:, 0])) * (
            g.domega_dx[:, 2] + g.domega_dx[:, 0] / (1.3 - g.omega[:, 0]))
        errs.append(np.max(np.abs(f.dx - exact_dx)))
    assert errs[1] < 0.5 * errs[0]


def test_project_P(grid16, rng):
    g = grid16
    Pf, nrm = ch.project_P(ch.omega_field(g))
    assert np.max(np.abs(Pf.values)) < 1e-14
    assert np.max(np.abs(nrm.values - 1.0)) < 1e-14
    e3f = ch.constant_field(g, np.array([0.0, 0.0, 1.0]))
    Pf, nrm = ch.project_P(e3f)
    assert np.max(np.abs(nrm.values - g.omega[:, 2])) < 1e-14
    zgrad = (g.nodes[:, 0, None] * g.domega_dx
             + g.nodes[:, 1, None] * g.domega_dy)
    assert np.max(np.abs(Pf.values - zgrad)) < 1e-13
    f = ch.random_smooth_field(g, rng)
    Pf, nrm = ch.project_P(f)
    assert np.max(np.abs(np.einsum("ij,ij->i", Pf.values, g.omega))) < 1e-14
    recon = Pf.values + nrm.values[:, None] * g.omega
    assert np.max(np.abs(recon - f.values)) < 1e-14
    with pytest.raises(ValueError):
        ch.project_P(ch.SphereField(g, np.ones(g.size)))


def test_cm_norm(grid16):
    g = grid16
    c = ch.constant_field(g, -3.0)
    assert ch.cm_norm(c, 1) == pytest.approx(3.0)
    assert ch.cm_norm(ch.omega_field(g), 1) == pytest.approx(
        1.0 + np.sqrt(2.0), abs=1e-12)
    f = ch.omega_field(g)
    double = ch.SphereField(g, 2 * f.values, 2 * f.dx, 2 * f.dy)
    assert ch.cm_norm(double, 1) == pytest.approx(2 * ch.cm_norm(f, 1))
    with pytest.raises(ValueError):
        ch.cm_norm(ch.SphereField(g, f.values.copy()), 1)
    with pytest.raises(ValueError):
        ch.cm_norm(f, 2)


def test_cm_norm_splits_into_value_and_gradient_terms(grid16, rng):
    # the order-1 norm is the order-0 norm plus the gradient term, bit for
    # bit, so a caller that needs both takes the value norm once
    vec = ch.differentiate(ch.random_smooth_field(grid16, rng))
    scalar = ch.differentiate(ch.SphereField(grid16, vec.values[:, 0]))
    for f in (vec, scalar):
        assert ch.cm_norm(f, 1) == ch.cm_norm(f, 0) + ch.gradient_sup(f)
    with pytest.raises(ValueError):
        ch.gradient_sup(ch.SphereField(grid16, vec.values.copy()))


def test_csv_roundtrip(tmp_path, grid16, rng):
    f = ch.random_smooth_field(grid16, rng)
    path = tmp_path / "field.csv"
    ch.field_to_csv(f, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert np.allclose(np.stack([data["x"], data["y"]], axis=1),
                       grid16.nodes, atol=1e-12)
    beyond = np.linalg.norm(grid16.nodes, axis=1) > ch.R_CUT
    assert np.array_equal(data["chart_tag"], beyond)
    assert 0 < beyond.sum() < beyond.size
    for c in range(3):
        assert np.allclose(data[f"v{c}"], f.values[:, c], atol=1e-12)
        assert np.allclose(data[f"dx{c}"], f.dx[:, c], atol=1e-12)


def test_field_validation(grid16):
    with pytest.raises(ValueError):
        ch.SphereField(grid16, np.ones(grid16.size + 1))
    with pytest.raises(ValueError):
        ch.SphereField(grid16, np.ones(grid16.size),
                       dx=np.ones((grid16.size, 3)))


def test_field_carries_its_laplacian(grid16):
    g = grid16
    with pytest.raises(ValueError, match="lap shape"):
        ch.SphereField(g, g.omega.copy(), lap=np.ones(g.size))
    # omega's chart Laplacian is -2 mu^2 omega; it is write-locked, kept by
    # differentiate and returned by laplacian as it is
    dxx, _, dyy = ch.omega_second(g.nodes)
    lap = dxx + dyy
    f = ch.SphereField(g, g.omega.copy(), lap=lap)
    assert not f.lap.flags.writeable
    d = ch.differentiate(f)
    assert d.has_derivatives and d.lap is f.lap
    assert ch.laplacian(d) is f.lap
    assert np.max(np.abs(lap + 2.0 * (g.mu**2)[:, None] * g.omega)) < 1e-14
