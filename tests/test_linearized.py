import numpy as np
import pytest

from cmc_hyp import bubbles as bb
from cmc_hyp import chart as ch
from cmc_hyp import linearized as lin
from cmc_hyp.errors import NumericsError
from cmc_hyp.halfspace import HyperbolicPoint

Q0 = HyperbolicPoint(0, 0, 1)


@pytest.fixture(scope="module")
def sys16(grid16, params2):
    return lin.assemble_linearized(params2, Q0, grid16)


def test_j_residual_bubble(grid16, params2):
    U = bb.bubble(params2, HyperbolicPoint(0.3, -0.5, 1.4), grid16)
    res = lin.j_residual(U, params2)
    assert np.max(np.abs(res.values)) < 1e-8


def test_j_residual_detects_nonsolutions(grid16, params2, rng):
    U = bb.bubble(params2, Q0, grid16)
    pert = ch.random_smooth_field(grid16, rng)
    u = ch.SphereField(grid16, U.values + 0.1 * pert.values / max(
        1.0, np.max(np.abs(pert.values))))
    res = lin.j_residual(u, params2)
    assert np.max(np.abs(res.values)) > 1e-3
    bad = ch.SphereField(grid16, U.values - np.array([0, 0, 1.0]))
    with pytest.raises(NumericsError):
        lin.j_residual(bad, params2)
    nan_height = U.values.copy()
    nan_height[0, 2] = np.nan
    with pytest.raises(NumericsError):
        lin.j_residual(ch.SphereField(grid16, nan_height, U.dx, U.dy), params2)


def test_linearization_kills_frame(sys16, grid16, params2):
    frame = bb.tangent_frame(params2, grid16)
    for t in frame.tau:
        out = sys16.apply_direct(t)
        assert np.max(np.abs(out.values)) < 1e-7
    for ell in range(3):
        f = ch.SphereField(grid16, frame.gamma[:, ell, None] * grid16.omega)
        out = sys16.apply_direct(f)
        assert np.max(np.abs(out.values)) < 1e-7
    # the modal matrix annihilates the same directions
    pack = sys16.pack
    assert np.max(np.abs(sys16.modal_matrix @ pack.frame_modal.T)) < 1e-8


def test_selfadjointness(sys16, grid16, rng):
    assert sys16.selfadjoint_defect(rng) < 1e-12
    a = ch.random_smooth_field(grid16, rng)
    b = ch.random_smooth_field(grid16, rng)
    defect = abs(sys16.form(a, b) - sys16.form(b, a))
    assert defect < 1e-8


def test_modal_vs_direct_forms(sys16, grid16, rng):
    pack = sys16.pack
    for _ in range(5):
        a = ch.random_smooth_field(grid16, rng)
        b = ch.random_smooth_field(grid16, rng)
        weak = pack.project_vector(a.values) @ (
            sys16.modal_matrix @ pack.project_vector(b.values))
        direct = sys16.form(b, a)
        assert weak == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_fd_consistency_with_residual(grid16, params2, sys16, rng):
    # (J(U + h phi) - J(U)) / h approaches J'(U) phi at first order
    U = bb.bubble(params2, Q0, grid16)
    phi = ch.random_smooth_field(grid16, rng)
    jp = sys16.apply_direct(phi).values
    base = lin.j_residual(U, params2).values
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        moved = ch.SphereField(grid16, U.values + h * phi.values,
                               U.dx + h * phi.dx, U.dy + h * phi.dy)
        quot = (lin.j_residual(moved, params2).values - base) / h
        errs.append(np.max(np.abs(quot - jp)))
    assert errs[1] < 0.2 * errs[0]
    assert errs[2] < 0.2 * errs[1]


def test_normal_operator(grid16, params2, rng):
    nop = lin.normal_operator(params2, grid16)
    g = grid16
    k = params2.k
    ok = g.omega[:, 2] + k
    one = ch.constant_field(g, 1.0)
    out = nop.apply_direct(one)
    expect = -2.0 * k * g.mu**2 / ok**3 / params2.r**2
    assert np.max(np.abs(out.values - expect)) < 1e-10
    # the three normal kernel functions
    for ell in range(3):
        gam = k * g.omega[:, ell] + (1.0 if ell == 2 else 0.0)
        res = nop.apply_direct(ch.SphereField(g, gam))
        assert np.max(np.abs(res.values)) < 1e-7
    # agreement with the full operator on purely normal fields
    full = lin.assemble_linearized(params2, Q0, g)
    eta = ch.random_smooth_field(g, rng, vector=False)
    f = ch.SphereField(g, eta.values[:, None] * g.omega)
    via_full = np.einsum("ij,ij->i", full.apply_direct(f).values, g.omega)
    via_norm = nop.apply_direct(eta).values
    assert np.max(np.abs(via_full - via_norm)) < 1e-7


def test_quadratic_form(grid16, params2, rng):
    frame = bb.tangent_frame(params2, grid16)
    qf = lin.tangential_quadratic_form(frame.tau[0], params2)
    assert abs(qf.form_value) < 1e-7 and abs(qf.explicit_value) < 1e-7
    f = ch.random_smooth_field(grid16, rng)
    Pf, _ = ch.project_P(f)
    qf = lin.tangential_quadratic_form(Pf, params2)
    assert qf.explicit_value >= 0.0
    assert abs(qf.difference) < 1e-6 * max(abs(qf.explicit_value), 1.0)
    scaled = ch.SphereField(grid16, 2 * Pf.values, 2 * Pf.dx, 2 * Pf.dy)
    qf2 = lin.tangential_quadratic_form(scaled, params2)
    assert qf2.explicit_value == pytest.approx(4 * qf.explicit_value, rel=1e-12)
    with pytest.raises(ValueError):
        lin.tangential_quadratic_form(f, params2)


def test_quadratic_form_positivity(grid16, params2, rng):
    for _ in range(25):
        f = ch.random_smooth_field(grid16, rng)
        Pf, _ = ch.project_P(f)
        qf = lin.tangential_quadratic_form(Pf, params2)
        assert qf.form_value >= -1e-8


def test_split_formulas_match_direct(grid16, params2, sys16, rng):
    # tangential and normal split expressions against the direct application
    g = grid16
    k = params2.k
    ok = g.omega[:, 2] + k
    nop = lin.normal_operator(params2, g)
    for _ in range(5):
        phi = ch.random_smooth_field(g, rng)
        direct = sys16.apply_direct(phi).values
        Pphi, eta = ch.project_P(phi)
        # normal side
        normal_direct = np.einsum("ij,ij->i", direct, g.omega)
        normal_split = nop.apply_direct(eta).values
        assert np.max(np.abs(normal_direct - normal_split)) < 1e-6
        # tangential side, from the displayed first-order expression
        Pphi = ch.differentiate(Pphi)
        dxx, _ = ch.spectral_derivatives(g, Pphi.dx)
        _, dyy = ch.spectral_derivatives(g, Pphi.dy)
        lap = dxx + dyy
        x, y = g.nodes[:, 0], g.nodes[:, 1]
        div_term = -lap / ok[:, None] ** 2 + (
            2.0 * g.mu**2 / ok**3)[:, None] * (
            x[:, None] * Pphi.dx + y[:, None] * Pphi.dy)
        div_term -= np.einsum("ij,ij->i", div_term, g.omega)[:, None] * g.omega
        izgrad = -y[:, None] * Pphi.dx + x[:, None] * Pphi.dy
        rhs = div_term + (2.0 * g.mu**2 / ok**3)[:, None] * np.cross(
            izgrad, g.omega) - (2.0 * g.mu**2 / ok**2)[:, None] * Pphi.values
        tang_direct = direct - normal_direct[:, None] * g.omega
        assert np.max(np.abs(tang_direct - rhs / params2.r**2)) < 1e-6


def test_wedge_integral_identity(grid16, params2, rng):
    # the rearrangement identity behind the nonnegative quadratic form
    g = grid16
    k = params2.k
    ok = g.omega[:, 2] + k
    wz = g.weights / g.mu**2
    for _ in range(5):
        f = ch.random_smooth_field(g, rng)
        psi, _ = ch.project_P(f)
        x, y = g.nodes[:, 0], g.nodes[:, 1]
        iz = -y[:, None] * psi.dx + x[:, None] * psi.dy
        lhs = 2.0 * np.sum(g.weights * np.einsum(
            "ij,ij->i", psi.values, np.cross(iz, g.omega)) / ok**3)
        rhs = 2.0 * np.sum(wz * np.einsum(
            "ij,ij->i", g.omega, np.cross(psi.dx, psi.dy)) / ok**2) \
            + np.sum(g.weights * np.einsum(
                "ij,ij->i", psi.values, psi.values) / ok**2)
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-8)


def test_spectrum(grid24, params2):
    rep = lin.spectrum_normal(params2, grid24, count=8)
    assert abs(rep.eigenvalues[0]) < 1e-8
    assert rep.multiplicities[0] == 1
    assert np.max(np.abs(rep.eigenvalues[1:4] - 4.0)) < 4.0e-3
    assert rep.multiplicities[1] == 3
    assert rep.eigenvalues[4] > 4.0
    assert np.all(rep.residuals < 1e-7)
    with pytest.raises(ValueError):
        lin.spectrum_normal(params2, grid24, count=3)
    doc = rep.to_json()
    assert doc["multiplicities"][0] == 1


def test_kernel(grid16, params2, sys16):
    rep = lin.kernel(sys16)
    assert rep.dimension == 9
    assert rep.gap >= 100.0
    # the kernel basis spans the tangent frame
    pack = sys16.pack
    B = np.stack([pack.project_vector(b.values) for b in rep.basis], axis=1)
    fm = pack.frame_modal.T
    coef = np.linalg.lstsq(B, fm, rcond=None)[0]
    resid = np.linalg.norm(fm - B @ coef, axis=0) / np.linalg.norm(fm, axis=0)
    assert np.max(resid) < 1e-6
    # mass-orthonormality of the returned basis
    gram = np.einsum("anc,bnc,n->ab",
                     np.stack([b.values for b in rep.basis]),
                     np.stack([b.values for b in rep.basis]),
                     grid16.weights)
    assert np.max(np.abs(gram - np.eye(9))) < 1e-10


def test_kernel_refinement(params2):
    for n in (16, 32):
        g = ch.build_grid(n)
        system = lin.assemble_linearized(params2, Q0, g)
        assert lin.kernel(system).dimension == 9


def test_solve_orthogonal(grid24, params2, rng):
    sys24 = lin.assemble_linearized(params2, Q0, grid24)
    frame = bb.tangent_frame(params2, grid24)
    zero = ch.constant_field(grid24, np.zeros(3))
    out = lin.solve_orthogonal(sys24, zero)
    assert np.max(np.abs(out.values)) < 1e-12
    v1 = ch.random_smooth_field(grid24, rng)
    _, r1 = bb.tangent_project(v1, frame, "L2")
    v2 = ch.random_smooth_field(grid24, rng)
    _, r2 = bb.tangent_project(v2, frame, "L2")
    p1 = lin.solve_orthogonal(sys24, r1)
    p2 = lin.solve_orthogonal(sys24, r2)
    assert p1.direct_residual < 1e-8
    rows = sys24.pack.star_rows
    assert np.max(np.abs(rows @ sys24.pack.project_vector(p1.values))) < 1e-10
    both = lin.solve_orthogonal(sys24, ch.SphereField(
        grid24, r1.values + r2.values))
    assert np.max(np.abs(both.values - p1.values - p2.values)) < 1e-8
    with pytest.raises(ValueError):
        lin.solve_orthogonal(sys24, v1)   # tangent part not removed
