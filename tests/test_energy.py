import tracemalloc

import numpy as np
import pytest

from cmc_hyp import bubbles as bb
from cmc_hyp import chart as ch
from cmc_hyp import energy as en
from cmc_hyp import halfspace as hs
from cmc_hyp import melnikov as mel
from cmc_hyp import phi_expr as pe
from cmc_hyp.errors import NumericsError
from cmc_hyp.halfspace import HyperbolicPoint
from cmc_hyp.phi_expr import phi_to_prescribed

from conftest import BLOCK_DESIGNS

Q0 = HyperbolicPoint(0, 0, 1)


def test_build_Q_constant_closed_form():
    Q = en.build_Q(mel.phi_constant(2.0), anchor=1.0)
    pts = np.array([[0.3, -0.2, 1.7], [0.0, 0.0, 0.4]])
    vals = Q(pts)
    expect = -(2.0 / 2.0) * (pts[:, 2] ** -2.0 - 1.0)
    assert np.allclose(vals[:, 2], expect, atol=1e-14)
    assert np.allclose(vals[:, :2], 0.0)
    Q0f = en.build_Q(mel.phi_constant(0.0), anchor=1.0)
    assert np.allclose(Q0f(pts), 0.0)


def _divergence_defect(Q, K, rng):
    """Worst relative finite-difference defect of ``div Q = p3^-3 K``."""
    n, h = 100, 1e-5
    pts = np.stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                    rng.uniform(0.5, 2.0, n)], axis=-1)
    worst = 0.0
    for p in pts:
        div = 0.0
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            div += (Q(p + e)[j] - Q(p - e)[j]) / (2 * h)
        target = K.evaluate(p) / p[2] ** 3
        worst = max(worst, abs(div - target) / max(1.0, abs(target)))
    return worst


def test_build_Q_divergence(rng):
    # volume_V is the flux of Q, so it needs div Q = p3^-3 K
    phi = mel.phi_radial_gaussian((0.2, 0.0, 1.0))
    Q = en.build_Q(phi, anchor=1.0)
    assert _divergence_defect(Q, phi, rng) < 1e-6


def test_volume_of_bubble(grid16, params2):
    U = bb.bubble(params2, HyperbolicPoint(0.2, 0.4, 1.3), grid16)
    vol = en.volume_V(mel.phi_constant(1.0), U)
    assert vol == pytest.approx(-hs.hyperbolic_ball_volume(params2.rho),
                                abs=1e-6)
    assert en.volume_V(mel.phi_constant(0.0), U) == 0.0


def _flux(Q, u):
    """``int Q(u) . (d_x u ^ d_y u) dz`` for a given vector field ``Q``."""
    u = ch.differentiate(u)
    integrand = np.einsum("ij,ij->i", Q(u.values), np.cross(u.dx, u.dy))
    return float(np.sum(u.grid.weights / u.grid.mu**2 * integrand))


def test_volume_gauge_independence(grid16, params2):
    phi = mel.phi_radial_gaussian((0.0, 0.1, 1.1))
    U = bb.bubble(params2, Q0, grid16)
    v = en.volume_V(phi, U)
    for anchor in (1.0, 2.0):
        assert abs(v - _flux(en.build_Q(phi, anchor=anchor), U)) < 1e-8


def _probe_build_Q(K, anchor):
    """:func:`~cmc_hyp.energy.build_Q` sampling ``K`` through ``evaluate``
    at a ``(rows, 24, 3)`` array of vertical probes, block by block: the
    oracle of the vertical-segment sampler."""
    rows_per_block = pe.SAMPLE_BLOCK // en.VERTICAL_QUAD_ORDER

    def evaluator(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 3)
        out = np.zeros_like(flat)
        for start in range(0, len(flat), rows_per_block):
            rows = flat[start:start + rows_per_block]
            span = rows[:, 2] - anchor
            t = anchor + span[:, None] * en._XI[None, :]
            probe = np.empty(t.shape + (3,))
            probe[..., 0] = rows[:, 0, None]
            probe[..., 1] = rows[:, 1, None]
            probe[..., 2] = t
            out[start:start + len(rows), 2] = span * np.sum(
                en._WXI * K.evaluate(probe) / t**3, axis=1)
        return out.reshape(np.shape(pts))

    return evaluator


# the sampler's test designs, the wide and the narrow bump of the solve
# benchmarks, and a bare coordinate term
VOLUME_DESIGNS = BLOCK_DESIGNS + (
    "exp(-hypdist(0.1,0.05,1.1)^2) + 0.1*p1",
    "0.02*p1 + exp(-(hypdist(-0.2,0,0.85)/0.1)^2)",
    "p1 + p2*p3")


@pytest.mark.parametrize("n", [16, 24, 40])
def test_volume_equals_the_probe_array_bit_for_bit(params2, n):
    # phi's values on the segments are the probes' values, and the sums
    # are the probes' sums, so the volume keeps every bit
    grid = ch.build_grid(n)
    for q in (HyperbolicPoint(0.1, -0.05, 1.1), HyperbolicPoint(0.3, 0.2, 0.9)):
        U = bb.bubble(params2, q, grid)
        for text in VOLUME_DESIGNS:
            phi = phi_to_prescribed(text)
            oracle = _flux(_probe_build_Q(phi, U.values[:, 2].min()), U)
            assert en.volume_V(phi, U) == oracle, text


def test_volume_samples_within_the_surface_heights(grid16, params2):
    # the antiderivative's segments end at the surface's lowest height, so
    # phi is never sampled above or below the surface
    phi = mel.phi_radial_gaussian((0.0, 0.0, 2.5))
    seen = []

    class Recording:
        def fold_verticals(self, x, y, base, span, fractions, fold):
            def recorded(t, values):
                seen.append(t.ravel())
                return fold(t, values)
            return phi.fold_verticals(x, y, base, span, fractions, recorded)

    U = bb.bubble(params2, HyperbolicPoint(0, 0, 2.5), grid16)
    assert en.volume_V(Recording(), U) == en.volume_V(phi, U)
    heights = np.concatenate(seen)
    assert U.values[:, 2].min() <= heights.min()
    assert heights.max() <= U.values[:, 2].max()


def test_volume_equals_reduced_function(grid16, params2):
    # the reduced function is minus the enclosed weighted volume
    phi = mel.phi_radial_gaussian((0.1, -0.2, 1.1))
    for q in (Q0, HyperbolicPoint(0.3, 0.2, 1.4)):
        U = bb.bubble(params2, q, grid16)
        assert en.volume_V(phi, U) == pytest.approx(
            -mel.f_value(phi, params2, q), abs=1e-6)


def test_energy_closed_form(grid24):
    for k, t in ((2.0, 2.0), (2.0, 1.1), (3.0, 1.5)):
        params = bb.make_params(k)
        om = ch.omega_field(grid24)
        u = ch.SphereField(grid24, om.values + np.array([0, 0, t]),
                           om.dx, om.dy)
        val = en.energy_E(u, params)
        assert val == pytest.approx(en.horosphere_energy(k, t), rel=1e-6)
    assert en.horosphere_energy(2.0, 2.0) == pytest.approx(
        4 * np.pi * (np.log(3.0) - 1.0), rel=1e-14)


@pytest.mark.parametrize("k", [1.05, 2.0, 5.0])
def test_closed_form_energy_far_from_the_horosphere(k):
    # E = 4 pi (t^-2 - (2k/3) t^-3 + t^-4 - (4k/5) t^-5 + O(t^-6)), where
    # the two terms of the textbook form cancel
    for t in (1e4, 1e5, 1e7, 1e8, 1e12):
        series = 4 * np.pi * (t**-2 - (2 * k / 3) * t**-3 + t**-4
                              - (4 * k / 5) * t**-5)
        assert en.horosphere_energy(k, t) == pytest.approx(series, rel=1e-12,
                                                           abs=0.0)


def test_energies_agree_where_a_height_squared_overflows(grid16, params2):
    # at t = 1e150 the numeric and closed-form energies agree near the
    # bottom of the float range; at t = 1e160 the height's square overflows
    # and both refuse, where the numeric one used to return 0.0
    (_, val), = en.energy_curve(params2, [1e150], grid16)
    assert val == pytest.approx(en.horosphere_energy(2.0, 1e150), rel=1e-12)
    assert val == pytest.approx(4 * np.pi * 1e-300, rel=1e-12)
    with pytest.raises(NumericsError, match="heights 1e\\+160 to 1e\\+160"):
        en.energy_curve(params2, [1e160], grid16)
    with pytest.raises(NumericsError, match="t = 1e\\+160"):
        en.horosphere_energy(2.0, 1e160)


@pytest.mark.parametrize("q3", [1e-105, 1e-110])
def test_perturbed_energy_refuses_heights_whose_cube_leaves_the_float_range(
        grid16, params2, q3):
    # near the ideal boundary the weighted volume's t^-3 overflows: the
    # energy refuses, naming the heights, where it used to return NaN
    U = bb.bubble(params2, HyperbolicPoint(0, 0, q3), grid16)
    assert np.isfinite(en.energy_E(U, params2))
    with pytest.raises(NumericsError, match="the surface energy leaves the "
                       "float range at heights .*e-1[01][0-9] to "):
        en.energy_E(U, params2, 0.1, mel.phi_constant(1.0))
    U = bb.bubble(params2, HyperbolicPoint(0, 0, 1e-90), grid16)
    assert np.isfinite(en.energy_E(U, params2, 0.1, mel.phi_constant(1.0)))


@pytest.mark.parametrize("q3", [1e-105, 1e-110])
def test_volume_refuses_heights_whose_cube_leaves_the_float_range(
        grid16, params2, q3):
    # the weighted volume on its own refuses too, naming the heights, where
    # it used to return NaN with a RuntimeWarning
    U = bb.bubble(params2, HyperbolicPoint(0, 0, q3), grid16)
    with pytest.raises(NumericsError, match="the weighted volume leaves the "
                       "float range at heights .*e-1[01][0-9] to "):
        en.volume_V(mel.phi_constant(1.0), U)
    U = bb.bubble(params2, HyperbolicPoint(0, 0, 1e-90), grid16)
    assert np.isfinite(en.volume_V(mel.phi_constant(1.0), U))


def test_energy_monotone_divergence(grid24, params2):
    ts = [1.05, 1.01, 1.001]
    vals = [r[1] for r in en.energy_curve(params2, ts, grid24)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < -100.0


def test_energy_curve_verdict_needs_a_decreasing_curve(params2):
    # the closed form itself passes; a curve that rises toward the
    # horosphere fails though it matches the closed form within the bound
    ts = np.array([2.0, 1.5, 1.1])
    closed = np.array([en.horosphere_energy(2.0, t) for t in ts])
    column, verdict = en.energy_curve_verdict(params2,
                                              np.stack([ts, closed], axis=1))
    assert np.array_equal(column, closed)
    assert verdict == {"points": 3, "closed_form_defect": 0.0,
                       "decreasing_toward_horosphere": True, "resolved": True}
    ts = np.array([1.1, 1.1 - 1e-9])
    rows = np.stack([ts, [en.horosphere_energy(2.0, t) for t in ts[::-1]]],
                    axis=1)
    _, verdict = en.energy_curve_verdict(params2, rows)
    assert 0 < verdict["closed_form_defect"] <= en.ENERGY_CURVE_DEFECT
    assert not verdict["decreasing_toward_horosphere"]
    assert not verdict["resolved"]


def test_energy_perturbation_identity(grid16, params2):
    # E_eps at a moved sphere differs from the base energy by the reduced term
    phi = mel.phi_radial_gaussian((0.0, 0.0, 1.0))
    U = bb.bubble(params2, Q0, grid16)
    E0 = en.energy_E(U, params2)
    eps = 0.01
    for q in (Q0, HyperbolicPoint(0.2, -0.1, 1.2), HyperbolicPoint(0, 0.3, 0.8)):
        Uq = bb.bubble(params2, q, grid16)
        lhs = en.energy_E(Uq, params2, eps, phi)
        rhs = E0 - 2.0 * eps * mel.f_value(phi, params2, q)
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_first_variation_at_bubble(grid16, params2, rng):
    U = bb.bubble(params2, Q0, grid16)
    for _ in range(5):
        t = ch.random_smooth_field(grid16, rng)
        assert abs(en.first_variation(U, params2, 0.0, None, t)) < 1e-7


def test_first_variation_finite_differences(grid16, params2, rng):
    phi = mel.phi_radial_gaussian((0, 0, 1))
    U = bb.bubble(params2, Q0, grid16)
    pert = ch.random_smooth_field(grid16, rng)
    u = ch.SphereField(grid16, U.values + 0.05 * pert.values,
                       U.dx + 0.05 * pert.dx, U.dy + 0.05 * pert.dy)
    t = ch.random_smooth_field(grid16, rng)
    fv = en.first_variation(u, params2, 0.02, phi, t)
    errs = []
    for h in (1e-4, 1e-5):
        up = ch.SphereField(grid16, u.values + h * t.values,
                            u.dx + h * t.dx, u.dy + h * t.dy)
        um = ch.SphereField(grid16, u.values - h * t.values,
                            u.dx - h * t.dx, u.dy - h * t.dy)
        fd = (en.energy_E(up, params2, 0.02, phi)
              - en.energy_E(um, params2, 0.02, phi)) / (2 * h)
        errs.append(abs(fd - fv))
    assert errs[0] < 1e-4 and errs[1] < 0.1 * errs[0] + 1e-9


def test_reparametrization_invariance(grid16, params2, rng):
    # energy variations vanish along all six chart flows, any eps
    phi = mel.phi_radial_gaussian((0, 0, 1))
    g = grid16
    x, y = g.nodes[:, 0], g.nodes[:, 1]
    U = bb.bubble(params2, Q0, g)
    pert = ch.random_smooth_field(g, rng)
    u = ch.differentiate(ch.SphereField(
        g, U.values + 0.05 * pert.values, U.dx + 0.05 * pert.dx,
        U.dy + 0.05 * pert.dy))
    flows = [u.dx, u.dy,
             x[:, None] * u.dx + y[:, None] * u.dy,
             -y[:, None] * u.dx + x[:, None] * u.dy,
             (x * x - y * y)[:, None] * u.dx + (2 * x * y)[:, None] * u.dy,
             (-2 * x * y)[:, None] * u.dx + (x * x - y * y)[:, None] * u.dy]
    for eps in (0.0, 0.03):
        for fl in flows:
            val = en.first_variation(u, params2, eps, phi,
                                     ch.SphereField(g, fl))
            assert abs(val) < 1e-7


def test_translation_invariance(grid16, params2, rng):
    g = grid16
    U = bb.bubble(params2, Q0, g)
    pert = ch.random_smooth_field(g, rng)
    u = ch.SphereField(g, U.values + 0.05 * pert.values,
                       U.dx + 0.05 * pert.dx, U.dy + 0.05 * pert.dy)
    for t in (ch.constant_field(g, np.eye(3)[0]),
              ch.constant_field(g, np.eye(3)[1]), u):
        assert abs(en.first_variation(u, params2, 0.0, None, t)) < 1e-7


def test_conformality(grid16, grid24, params2):
    U = bb.bubble(params2, Q0, grid16)
    sup, fields = en.conformality_residual(U)
    assert sup < 1e-10
    dx = np.linalg.norm(ch.differentiate(U).dx, axis=1)
    assert dx.min() >= 1e-8 * dx.max()     # no branch point
    # an anisotropically stretched chart map is detected
    stretched_nodes = grid16.nodes * np.array([2.0, 1.0])
    om, mu, dx, dy = ch.omega_mu(stretched_nodes)
    u = ch.SphereField(grid16, om + np.array([0, 0, 1.5]), 2.0 * dx, dy)
    sup, _ = en.conformality_residual(u)
    assert sup > 0.1
    # Moebius reparametrizations stay conformal
    pulled = bb.bubble(params2, Q0, grid24, bb.MoebiusMap(1.2, 0.1, 0.0, 1.0))
    sup, _ = en.conformality_residual(
        ch.SphereField(grid24, pulled.values.copy()))
    assert sup < 1e-8


def test_necessary_conditions_at_bubble(grid16, params2):
    # variation of the weighted volume along e_j reproduces the enclosed
    # integral of the derivative of the weight (two independent quadratures)
    phi = mel.phi_radial_gaussian((0.1, 0.0, 1.0))
    q = HyperbolicPoint(0.1, -0.2, 1.1)
    U = bb.bubble(params2, q, grid16)
    ball = hs.ball_to_euclidean(q, params2.rho)
    pts, w = hs.ball_quadrature(ball, order=20)
    _, gphi = phi.gradient(pts)
    for j in range(2):
        tst = ch.constant_field(grid16, np.eye(3)[j])
        vprime = (en.first_variation(U, params2, 1.0, phi, tst)
                  - en.first_variation(U, params2, 0.0, None, tst)) / 2.0
        oracle = -np.sum(w * pts[:, 2] ** -3.0 * gphi[:, j])
        assert vprime == pytest.approx(oracle, abs=1e-6)
    vprime = (en.first_variation(U, params2, 1.0, phi, U)
              - en.first_variation(U, params2, 0.0, None, U)) / 2.0
    oracle = -np.sum(w * pts[:, 2] ** -3.0 * np.einsum("ij,ij->i", gphi, pts))
    assert vprime == pytest.approx(oracle, abs=1e-6)


def test_volume_walks_its_probes_in_blocks(params2):
    # the 24 vertical probes of each of n = 64's 8192 nodes are walked a
    # block at a time: a whole walk held 18 MB of temporaries
    U = bb.bubble(params2, HyperbolicPoint(0.1, -0.05, 1.1), ch.build_grid(64))
    phi = mel.phi_radial_gaussian((0.05, 0.0, 1.0))
    vol = en.volume_V(phi, U)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert en.volume_V(phi, U) == vol
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2e6
