"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
the measured margins.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest
from conftest import selfadjoint_defect

from cmc_hyp import bubbles as bb
from cmc_hyp import chart as ch
from cmc_hyp import energy as en
from cmc_hyp import linearized as lin
from cmc_hyp import melnikov as mel
from cmc_hyp import reduction as red
from cmc_hyp.cli import main as cli_main
from cmc_hyp.halfspace import HyperbolicPoint, ball_quadrature, ball_to_euclidean
from cmc_hyp.phi_expr import phi_to_prescribed

Q0 = HyperbolicPoint(0, 0, 1)
BOX = (-0.4, 0.4, -0.4, 0.4, 0.6, 1.6)


def report(num, name, detail):
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({detail})")


def test_criterion_01_identity_suite():
    t0 = time.time()
    g = ch.build_grid(32)
    defects = ch.identity_defects(g.nodes)
    assert len(defects) == 14
    worst = max(defects.values())
    elapsed = time.time() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, "chart identities", f"max defect {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_frame_constants():
    g = ch.build_grid(24)
    frame = bb.tangent_frame(bb.make_params(2.0), g)
    tau_err = np.max(np.abs(frame.tau_gram() - np.eye(6)))
    gam = frame.gamma_gram()
    gam_err = np.max(np.abs(gam - np.diag([4.0, 4.0, 7.0])))
    assert tau_err <= 1e-8 and gam_err <= 1e-8
    report(2, "frame constants", f"tau {tau_err:.2e}, gamma {gam_err:.2e}")


def test_criterion_03_spectrum():
    params = bb.make_params(2.0)
    msgs = []
    for n, rel_tol in ((32, 1e-3), (64, 1e-4)):
        rep = lin.spectrum_normal(params, ch.build_grid(n), count=8)
        assert abs(rep.eigenvalues[0]) <= 1e-8 * max(1.0, rep.eigenvalues[-1])
        assert rep.multiplicities[0] == 1
        triple_err = np.max(np.abs(rep.eigenvalues[1:4] - 4.0)) / 4.0
        assert triple_err <= rel_tol
        assert rep.multiplicities[1] == 3
        assert rep.eigenvalues[4] > 4.0
        msgs.append(f"n={n}: rel {triple_err:.1e}, gap to {rep.eigenvalues[4]:.3f}")
    report(3, "normal spectrum", "; ".join(msgs))


def test_criterion_04_nondegeneracy():
    msgs = []
    for n in (24, 32, 48):
        g = ch.build_grid(n)
        for k in (1.5, 2.0, 5.0):
            params = bb.make_params(k)
            system = lin.assemble_linearized(params, Q0, g)
            rep = lin.kernel(system, gap_factor=100.0)
            assert rep.dimension == 9
            assert rep.gap >= 100.0
            resid = rep.frame_residual(system)
            assert resid <= 1e-6
            msgs.append(f"(k={k:g},n={n}) gap {rep.gap:.1e} resid {resid:.1e}")
    report(4, "kernel dimension 9", "; ".join(msgs))


def test_criterion_05_split_consistency():
    g = ch.build_grid(16)
    params = bb.make_params(2.0)
    system = lin.assemble_linearized(params, Q0, g)
    nop = lin.normal_operator(params, g)
    rng = np.random.default_rng(5)
    worst_split = 0.0
    worst_form = 0.0
    min_form = np.inf
    for _ in range(50):
        phi = ch.random_smooth_field(g, rng)
        direct = system.apply_direct(phi).values
        Pphi, eta = ch.project_P(phi)
        normal_split = nop.apply_direct(eta).values
        worst_split = max(worst_split, np.max(np.abs(
            np.einsum("ij,ij->i", direct, g.omega) - normal_split)))
        qf = lin.tangential_quadratic_form(Pphi, params)
        min_form = min(min_form, qf.form_value)
        worst_form = max(worst_form, abs(qf.difference)
                         / max(abs(qf.explicit_value), 1.0))
    sa = selfadjoint_defect(system, np.random.default_rng(6))
    assert worst_split <= 1e-6
    assert sa <= 1e-8
    assert min_form >= -1e-8
    assert worst_form <= 1e-6
    report(5, "split operator consistency",
           f"split {worst_split:.1e}, selfadj {sa:.1e}, form rel {worst_form:.1e}")


def test_criterion_06_energy_closed_form():
    worst = 0.0
    for k, t in ((2.0, 2.0), (2.0, 1.1), (3.0, 1.5)):
        params = bb.make_params(k)
        g = ch.build_grid(24)
        om = ch.omega_field(g)
        u = ch.SphereField(g, om.values + np.array([0, 0, t]), om.dx, om.dy)
        val = en.energy_E(u, params)
        closed = en.horosphere_energy(k, t)
        worst = max(worst, abs(val - closed) / abs(closed))
    assert worst <= 1e-6
    ts = np.linspace(2.0, 1.001, 40)
    curve = en.energy_curve(bb.make_params(2.0), ts, ch.build_grid(24))
    vals = curve[:, 1]
    assert np.all(np.diff(vals) < 0)      # decreasing toward the horosphere
    assert vals[-1] < -1000.0
    report(6, "energy closed form", f"rel {worst:.1e}, curve min {vals[-1]:.0f}")


def test_criterion_07_melnikov_layer():
    params = bb.make_params(2.0)
    g = ch.build_grid(24)
    exact = np.pi * (4.0 / 3.0 - np.log(3.0))
    v0 = mel.f_value(mel.phi_constant(1.0), params, Q0)
    assert abs(v0 - exact) <= 1e-8
    lattice = [(a, b, c) for a in (-0.3, 0, 0.3) for b in (-0.3, 0, 0.3)
               for c in (0.7, 1.0, 1.4)]
    vals = [mel.f_value(mel.phi_constant(1.0), params, q) for q in lattice]
    spread = max(vals) - min(vals)
    assert spread <= 1e-10
    # duality with the enclosed weighted volume, random smooth weights
    rng = np.random.default_rng(11)
    worst_fv = 0.0
    for _ in range(5):
        c = rng.standard_normal(4)
        center = (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                  rng.uniform(0.9, 1.2))
        bump = mel.phi_radial_gaussian(center)

        def ev(p, c=c, bump=bump):
            p = np.asarray(p, dtype=float)
            return (c[0] + c[1] * p[..., 0] + c[2] * p[..., 1]
                    + c[3] * bump.evaluate(p))

        phi = mel.PrescribedFunction(ev, None, "combo")
        q = HyperbolicPoint(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                            rng.uniform(0.9, 1.2))
        U = bb.bubble(params, q, g)
        worst_fv = max(worst_fv, abs(mel.f_value(phi, params, q)
                                     + en.volume_V(phi, U)))
    assert worst_fv <= 1e-6
    # large-curvature limit with an O(1/k) defect
    bump = mel.phi_radial_gaussian((0, 0, 1))
    q = HyperbolicPoint(0.05, -0.05, 1.1)
    target = float(bump.evaluate(q.array))
    defects = []
    for k in (5.0, 10.0, 20.0):
        p = bb.make_params(k)
        defects.append(abs(3.0 / (4 * np.pi * p.r**3)
                           * mel.f_value(bump, p, q) - target))
    assert defects[0] > defects[1] > defects[2]
    C = defects[0] * 5.0
    assert all(d <= C / k + 1e-12 for d, k in zip(defects, (5, 10, 20)))
    report(7, "reduced function layer",
           f"const {abs(v0 - exact):.1e}, spread {spread:.1e}, "
           f"duality {worst_fv:.1e}, O(1/k) fit C = {C:.3f}")


def test_criterion_08_invariance_identities():
    g = ch.build_grid(24)
    params = bb.make_params(2.0)
    phi = mel.phi_radial_gaussian((0, 0, 1))
    rng = np.random.default_rng(21)
    x, y = g.nodes[:, 0], g.nodes[:, 1]
    worst = 0.0
    for i in range(20):
        q = HyperbolicPoint(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                            rng.uniform(0.8, 1.3))
        U = bb.bubble(params, q, g)
        pert = ch.random_smooth_field(g, rng)
        scale = 0.05 / max(1.0, np.max(np.abs(pert.values)))
        u = ch.SphereField(g, U.values + scale * pert.values,
                           U.dx + scale * pert.dx, U.dy + scale * pert.dy)
        flows = [u.dx, u.dy,
                 x[:, None] * u.dx + y[:, None] * u.dy,
                 -y[:, None] * u.dx + x[:, None] * u.dy,
                 (x**2 - y**2)[:, None] * u.dx + (2 * x * y)[:, None] * u.dy,
                 (-2 * x * y)[:, None] * u.dx + (x**2 - y**2)[:, None] * u.dy]
        eps = 0.0 if i % 2 == 0 else 0.02
        for fl in flows:
            worst = max(worst, abs(en.first_variation(
                u, params, eps, phi, ch.SphereField(g, fl))))
        for t in (ch.constant_field(g, np.eye(3)[0]),
                  ch.constant_field(g, np.eye(3)[1]), u):
            worst = max(worst, abs(en.first_variation(u, params, 0.0, None, t)))
    assert worst <= 1e-7
    report(8, "invariance identities", f"max variation {worst:.1e}")


def test_criterion_09_end_to_end():
    t0 = time.time()
    g = ch.build_grid(24)
    params = bb.make_params(2.0)
    phi = phi_to_prescribed("exp(-hypdist(0,0,1)^2)")
    reports = red.continuation([0.02, 0.01, 0.005], phi, params, BOX, g)
    assert all(r["status"] == "ok" for r in reports)
    ratios = []
    for r in reports:
        assert r["residual_sup"] <= 1e-8
        assert r["xi_sup"] <= 1e-8 and r["alpha_sup"] <= 1e-8
        assert r["conformality"] <= 1e-6
        assert r["resolved"]
        dq = np.linalg.norm(np.array(r["q"]) - np.array([0, 0, 1]))
        assert dq <= 5 * abs(r["eps"])
        ratios.append(r["c0_distance"] / abs(r["eps"]))
    assert max(ratios) <= 2.0 * min(ratios)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(9, "end-to-end solve",
           f"res {max(r['residual_sup'] for r in reports):.1e}, "
           f"|u - sphere|/eps ~ {max(ratios):.3f}, {elapsed:.0f} s")


def test_criterion_10_nonexistence_obstruction(tmp_path):
    params = bb.make_params(2.0)
    rep1 = mel.monotone_obstruction(mel.phi_coordinate(0), params, BOX)
    assert "e1" in rep1["obstructed"]
    assert mel.find_critical(mel.phi_coordinate(0), params, BOX) == []
    away = (1.0, 1.5, 1.0, 1.5, 0.8, 1.2)
    rep2 = mel.monotone_obstruction(mel.phi_norm(), params, away)
    assert "radial" in rep2["obstructed"]
    assert mel.find_critical(mel.phi_norm(), params, away) == []
    rc = cli_main(["solve", "--k", "2", "--grid-n", "16", "--phi", "p1",
                   "--eps", "0.01", "--box=-0.4,0.4,-0.4,0.4,0.6,1.6",
                   "--out", str(tmp_path / "refused")])
    assert rc == 4
    report(10, "nonexistence obstruction",
           f"p1 margin {rep1['directions']['e1']['min']:.2e}, "
           f"radial margin {rep2['directions']['radial']['min']:.2e}, exit 4")
